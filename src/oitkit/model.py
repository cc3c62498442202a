"""The sextuple information model and its structural operations.

A model instance ties together a set of noumenon elements, a set of carrier
elements, the time sets over which each side exists, the state entries of the
noumena, the reflection entries of the carriers, and a total surjective
mapping from state entries to reflection entries. Everything is an immutable
value; operations are pure functions. Because a model cannot change, it
validates itself and inverts its mapping once, on first use, and keeps both
on the instance.

State and reflection values come in three kinds: symbolic tokens (str),
numeric scalars, and numeric vectors. A `StateEntry` and a `TimeSet` compare
and hash by value, on (subjects, time set, value). A model hashes each entry
once, into one index per side that gives each entry the index of the first
entry equal to it; every check that asks which entries are equal reads it.
Models, their measure tables and their atoms hash as they compare.
"""

from __future__ import annotations

import itertools
import math
import operator
import reprlib
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from numbers import Rational, Real
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Union

from .errors import (
    ChainMismatchError,
    InvalidModelError,
    NotRestorableError,
    OverlapError,
    UnknownIndexError,
)
from .timeset import TimeSet

Value = Union[str, int, float, Fraction, tuple]

# int and float come first so the usual numbers skip the slower ABC check
_NUMBER = (int, float, Real)
_SCALARS = {str, int, float}  # a value of these types is its own canonical form


def is_finite_real(value) -> bool:
    """True for a finite real number; ints and Fractions always are, bools
    never."""
    if type(value) is int or isinstance(value, Rational):  # ints skip the slower ABC check
        return type(value) is not bool
    return isinstance(value, Real) and math.isfinite(value)


def as_index(value) -> int:
    """`value` as an index: an int or another integer type (a numpy integer),
    but not a bool, and not a float, which `int` would truncate."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise TypeError(f"an index must be an integer, not {reprlib.repr(value)}")
    return operator.index(value)


def key_index(key) -> int:
    """`as_index` of a table key, which may also be the decimal string of an
    integer, as a JSON object key writes it ("3", "-1")."""
    if isinstance(key, str):
        digits = key.removeprefix("-")
        if digits.isascii() and digits.isdecimal():
            return int(key)
    return as_index(key)


def value_key(value) -> tuple:
    """Canonical, hashable identity of a state/reflection value: its kind
    and its canonical form (a vector becomes a tuple).

    This is the one check that a value is a string, a real number or an
    array of real numbers; anything else raises `TypeError`.
    """
    if isinstance(value, str):
        return ("sym", value)
    if isinstance(value, (list, tuple)) and all(map(isinstance, value, itertools.repeat(_NUMBER))):
        return ("vec", tuple(value))
    if isinstance(value, _NUMBER):
        return ("num", value)
    raise TypeError(
        f"value must be a string, a number or an array of numbers, got {reprlib.repr(value)}"
    )


@dataclass(frozen=True)
class StateEntry:
    """One state of some subjects over a time set.

    Used on both sides of the mapping: for noumenon states the subjects are
    noumenon element ids, for reflections they are carrier element ids.
    """

    subjects: frozenset[str]
    time: TimeSet
    value: Value

    def __init__(self, subjects: Iterable[str], time: TimeSet, value):
        object.__setattr__(self, "subjects", frozenset(subjects))
        object.__setattr__(self, "time", time)
        object.__setattr__(self, "value", value if type(value) in _SCALARS else value_key(value)[1])

    def key(self) -> tuple:
        """The entry's identity as a tuple: equal entries have equal keys."""
        return (self.subjects, self.time, value_key(self.value))


@dataclass(frozen=True)
class MeasureAssignment:
    """Nonnegative σ-values for noumenon elements, carrier elements and
    reflection entries (the latter keyed by reflection index).

    The tables are read-only copies of the mappings passed in, so a model's
    cached validation report can never go stale.
    """

    noumenon: Mapping = field(default_factory=dict)
    carrier: Mapping = field(default_factory=dict)
    reflection: Mapping = field(default_factory=dict)
    reflection_unit: str = "bit"

    def __post_init__(self):
        object.__setattr__(self, "noumenon", MappingProxyType(dict(self.noumenon)))
        object.__setattr__(self, "carrier", MappingProxyType(dict(self.carrier)))
        object.__setattr__(
            self,
            "reflection",
            MappingProxyType({key_index(k): v for k, v in self.reflection.items()}),
        )

    def __reduce__(self):
        # read-only proxies cannot be pickled or deep-copied; their tables can
        tables = (dict(self.noumenon), dict(self.carrier), dict(self.reflection))
        return (MeasureAssignment, (*tables, self.reflection_unit))

    def __hash__(self):
        tables = (self.noumenon, self.carrier, self.reflection)
        return hash((*(frozenset(table.items()) for table in tables), self.reflection_unit))


@dataclass(frozen=True)
class CopyRecord:
    """One replica of the information for coverage accounting. The list of
    copies on a model includes the model itself as its first record."""

    carrier_measure: Union[int, float, Fraction]
    weight: Union[int, float, Fraction] = 1


@dataclass(frozen=True)
class InformationModel:
    noumena: frozenset[str]
    carriers: frozenset[str]
    occurrence: TimeSet
    reflection_time: TimeSet
    states: tuple[StateEntry, ...]
    reflections: tuple[StateEntry, ...]
    mapping: tuple[tuple[int, int], ...]
    measures: MeasureAssignment = MeasureAssignment()
    copies: tuple[CopyRecord, ...] | None = None
    enabled: bool = True
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "noumena", frozenset(self.noumena))
        object.__setattr__(self, "carriers", frozenset(self.carriers))
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "reflections", tuple(self.reflections))
        object.__setattr__(
            self, "mapping", tuple((as_index(s), as_index(r)) for s, r in self.mapping)
        )
        if self.copies is not None:
            object.__setattr__(self, "copies", tuple(self.copies))
        object.__setattr__(self, "enabled", bool(self.enabled))

    # Derived data, computed on first use and kept on the instance. Every
    # field is immutable, so none of it can go stale; `dataclasses.replace`
    # builds a new instance, which starts with none of it.

    @cached_property
    def validation(self) -> ValidationReport:
        """The report of `validate`, computed once per instance."""
        return _check(self)

    @cached_property
    def _state_firsts(self) -> tuple[int, ...]:
        """Each state's index of the first state equal to it."""
        return _first_equal(self.states)

    @cached_property
    def _reflection_firsts(self) -> tuple[int, ...]:
        """Each reflection's index of the first reflection equal to it."""
        return _first_equal(self.reflections)

    @cached_property
    def _inverse(self) -> dict[int, int] | None:
        """Reflection index -> its first state index in mapping order, or
        None when the mapping is not injective on state values. Only
        meaningful for a valid model."""
        state_of, reflection_of = self._state_firsts, self._reflection_firsts
        owner: dict[int, int] = {}  # a reflection value -> the state value mapped onto it
        inverse: dict[int, int] = {}
        for s, r in self.mapping:
            if owner.setdefault(reflection_of[r], state_of[s]) != state_of[s]:
                return None
            inverse.setdefault(r, s)
        return inverse

    def mapping_signature(self) -> frozenset:
        """Value-level content of the mapping, for equivalence comparisons:
        the set of (state entry, reflection entry) pairs it relates."""
        return frozenset((self.states[s], self.reflections[r]) for s, r in self.mapping)


def _first_equal(entries: Sequence[StateEntry]) -> tuple[int, ...]:
    """For each entry, the index of the first entry equal to it: the one
    place where entries are hashed to find which are equal."""
    first: dict[StateEntry, int] = {}
    return tuple([first.setdefault(entry, i) for i, entry in enumerate(entries)])


@dataclass(frozen=True)
class Violation:
    rule: str
    message: str
    postulate: str | None = None


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]
    warnings: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(model: InformationModel) -> ValidationReport:
    """Check every structural invariant; violations are data, not failures.

    Each violation names the postulate it corresponds to: binary attribute
    (nonempty noumena and carriers), existence duration (time sets), state
    representation (nonempty, resolvable state entries) and enabling mapping
    (total, surjective). The checks run once per model instance; later calls
    return the same report.
    """
    return model.validation


def _check(model: InformationModel) -> ValidationReport:
    bad: list[Violation] = []
    warn: list[Violation] = []

    def check_measure(value, rule: str, subject: str, negative: str):
        """A measure must be a finite real number, and nonnegative."""
        if not is_finite_real(value):
            bad.append(Violation(f"{rule}-numeric", f"{subject} is not a finite number"))
        elif value < 0:
            bad.append(Violation(f"{rule}-nonnegative", negative))

    if not model.noumena:
        bad.append(Violation("noumena-nonempty", "noumenon set is empty", "postulate-1"))
    if not model.carriers:
        bad.append(Violation("carriers-nonempty", "carrier set is empty", "postulate-1"))
    if not model.states:
        bad.append(Violation("states-nonempty", "state set is empty", "postulate-3"))
    if not model.reflections:
        bad.append(Violation("reflections-nonempty", "reflection set is empty", "postulate-3"))

    for side, entries, elements, elements_name, times, times_rule, times_name in (
        ("state", model.states, model.noumena, "noumena", model.occurrence,
         "occurrence", "occurrence"),
        ("reflection", model.reflections, model.carriers, "carriers", model.reflection_time,
         "duration", "reflection time"),
    ):
        for i, entry in enumerate(entries):
            if not entry.subjects:
                bad.append(Violation(
                    f"{side}-subjects-nonempty", f"{side} {i} has no subjects", "postulate-3"
                ))
            if not entry.subjects <= elements:
                unknown = sorted(entry.subjects - elements)
                bad.append(Violation(
                    f"{side}-subjects-resolve",
                    f"{side} {i} references unknown {elements_name} {unknown}",
                    "postulate-3",
                ))
            if not entry.time.issubset(times):
                bad.append(Violation(
                    f"{side}-times-within-{times_rule}",
                    f"{side} {i} has times outside the {times_name} set",
                    "postulate-2",
                ))

    if sorted(s for s, _ in model.mapping) != list(range(len(model.states))):
        bad.append(Violation(
            "mapping-total", "mapping must pair every state index exactly once", "postulate-4"
        ))
    targets = {r for _, r in model.mapping}
    if not all(0 <= r < len(model.reflections) for r in targets):
        bad.append(Violation(
            "mapping-range",
            "mapping references reflection indices that do not exist",
            "postulate-4",
        ))
    if not targets >= set(range(len(model.reflections))):
        bad.append(Violation(
            "mapping-surjective",
            "every reflection entry must be the image of some state",
            "postulate-4",
        ))

    for kind, table, universe, what in (
        ("noumenon", model.measures.noumenon, model.noumena, "element"),
        ("carrier", model.measures.carrier, model.carriers, "element"),
        ("reflection", model.measures.reflection, range(len(model.reflections)), "index"),
    ):
        for key, val in table.items():
            if key not in universe:
                bad.append(Violation(
                    f"{kind}-measure-resolves",
                    f"{kind} measure assigned to unknown {what} {key!r}",
                ))
            subject = f"{kind} measure of {key!r}"
            check_measure(val, f"{kind}-measure", subject, f"{subject} is negative")
    for i, copy in enumerate(model.copies or ()):
        for part, value in (("measure", copy.carrier_measure), ("weight", copy.weight)):
            subject = f"copy {i} {part}"
            check_measure(value, f"copy-{part}", subject, f"copy {i} has negative {part}")

    if model._state_firsts != tuple(range(len(model.states))):
        warn.append(
            Violation(
                "duplicate-state-values",
                "states contain duplicate (subjects, time, value) entries; "
                "they are treated as a single state value",
            )
        )
    if model.reflection_time.sup < model.occurrence.sup:
        warn.append(
            Violation(
                "negative-delay",
                "reflection ends before the occurrence does, so delay is negative",
                "postulate-4",
            )
        )
    return ValidationReport(tuple(bad), tuple(warn))


def require_valid(model: InformationModel) -> None:
    if not model.validation.ok:
        raise InvalidModelError(model.validation)


def is_restorable(model: InformationModel) -> bool:
    """True iff the mapping is injective on distinct state values.

    Two entries with equal (subjects, time, value) count as one state, so
    duplicates mapped onto one reflection do not break injectivity; what must
    never happen is two different state values landing on reflections with
    equal values.
    """
    require_valid(model)
    return model._inverse is not None


def restore(model: InformationModel, reflection_index: int) -> StateEntry:
    """Invert the mapping at one reflection entry: the state entry mapped
    there first, in mapping order."""
    if not is_restorable(model):
        raise NotRestorableError("mapping is not injective on state values")
    if not 0 <= reflection_index < len(model.reflections):
        raise UnknownIndexError(f"no reflection entry {reflection_index}")
    # a valid mapping is surjective, so every in-range index has a preimage
    return model.states[model._inverse[reflection_index]]


@dataclass(frozen=True)
class AtomicInfo:
    """An indivisible single-pair piece of a model: one state entry, the
    reflection entry it maps to, and the measure table it is measured by,
    which an atom shares with the model it was cut from."""

    state: StateEntry
    reflection: StateEntry
    measures: MeasureAssignment = field(repr=False)
    reflection_index: int
    source_id: int

    @property
    def reflection_measure(self) -> Union[int, float, Fraction, None]:
        return self.measures.reflection.get(self.reflection_index)

    def as_model(self) -> InformationModel:
        return combine([self])


_atom_source_counter = itertools.count(1)


def make_atom(
    state: StateEntry,
    reflection: StateEntry,
    reflection_measure=None,
    noumenon_measure: dict | None = None,
    carrier_measure: dict | None = None,
) -> AtomicInfo:
    """Build a standalone atom not tied to any existing model. Its element
    measures may name only the subjects of its own entries."""
    for kind, table, entry in (
        ("noumenon", noumenon_measure, state), ("carrier", carrier_measure, reflection)
    ):
        for key in table or ():
            if key not in entry.subjects:
                raise ValueError(f"{kind} measure names {key!r}, which is no subject of the atom")
    reflection_table = {} if reflection_measure is None else {0: reflection_measure}
    measures = MeasureAssignment(noumenon_measure or {}, carrier_measure or {}, reflection_table)
    return AtomicInfo(state, reflection, measures, 0, next(_atom_source_counter))


def decompose_atomic(model: InformationModel) -> list[AtomicInfo]:
    """Split a model into one atom per mapping pair, in state order, each
    sharing the model's `measures`.

    Atoms from one model are disjoint exactly when the mapping never reuses a
    reflection entry; `combine` refuses overlapping pieces, which keeps the
    volume-additivity identity honest. An atom holds only its pair, so the
    copies, label and `enabled`, elements no entry references (and their
    measures) and times outside the entries' own belong to the whole model
    and do not come back from `combine`.
    """
    require_valid(model)
    source = next(_atom_source_counter)
    states, reflections = model.states, model.reflections
    return [
        AtomicInfo(states[s], reflections[r], model.measures, r, source)
        for s, r in sorted(model.mapping)
    ]


def combine(pieces: Sequence[AtomicInfo]) -> InformationModel:
    """Union a family of disjoint atoms back into one model.

    Piece i gives state i, reflection i, the pair (i, i), its reflection
    measure and the measures of its entries' subjects; the model's times are
    the union of the entries' times, and it is enabled, with no copies and
    no label. So next to the source model, coverage, scope, delay, duration
    and sampling rate can change, and mismatch too, as reflections are
    renumbered. The measure of the whole is the sum over the pieces whenever every piece
    carries a reflection measure, which is the finite additivity identity the
    decomposition is built around.
    """
    if not pieces:
        raise ValueError("cannot combine an empty list of pieces")
    units = {piece.measures.reflection_unit for piece in pieces}
    if len(units) > 1:
        raise OverlapError(f"pieces measure reflections in different units: {sorted(units)}")
    seen: set[tuple[int, int]] = set()
    for piece in pieces:
        ident = (piece.source_id, piece.reflection_index)
        if ident in seen:
            raise OverlapError(
                f"pieces share reflection entry {piece.reflection_index} of one source model"
            )
        seen.add(ident)

    noumena: set[str] = set()
    carriers: set[str] = set()
    noumenon_measure: dict = {}
    carrier_measure: dict = {}
    reflection_measure: dict = {}
    for idx, piece in enumerate(pieces):
        state, refl, measures = piece.state, piece.reflection, piece.measures
        noumena |= state.subjects
        carriers |= refl.subjects
        if piece.reflection_measure is not None:
            reflection_measure[idx] = piece.reflection_measure
        for table, subjects, incoming in (
            (noumenon_measure, state.subjects, measures.noumenon),
            (carrier_measure, refl.subjects, measures.carrier),
        ):
            for key in sorted(subjects):
                if key in incoming:
                    val = incoming[key]
                    if key in table and table[key] != val:
                        raise OverlapError(
                            f"element {key!r} carries conflicting measures {table[key]} and {val}"
                        )
                    table[key] = val
    states = [piece.state for piece in pieces]
    reflections = [piece.reflection for piece in pieces]
    return InformationModel(
        noumena=noumena,
        carriers=carriers,
        # each time set in one merge of every piece's intervals and points
        occurrence=TimeSet.union(*(state.time for state in states)),
        reflection_time=TimeSet.union(*(reflection.time for reflection in reflections)),
        states=states,
        reflections=reflections,
        mapping=[(i, i) for i in range(len(pieces))],
        measures=MeasureAssignment(
            noumenon=noumenon_measure,
            carrier=carrier_measure,
            reflection=reflection_measure,
            reflection_unit=units.pop(),
        ),
    )


def compose_chain(chain: Sequence[InformationModel]) -> InformationModel:
    """Collapse a serial transmission chain into one end-to-end model.

    Junction i must hand over exactly: carriers become the next noumena, the
    reflection times become the next occurrence times, and the reflection
    entries reappear as the next state entries. The composed mapping is the
    function composition of the link mappings, and the composed delay is the
    sum of the link delays.
    """
    if not chain:
        raise ValueError("cannot compose an empty chain")
    for i, link in enumerate(chain):
        if not is_restorable(link):
            raise ChainMismatchError(f"link {i} is not restorable")
    for i in range(len(chain) - 1):
        left, right = chain[i], chain[i + 1]
        if left.carriers != right.noumena:
            raise ChainMismatchError(
                f"junction {i}: carriers of link {i} differ from noumena of link {i + 1}"
            )
        if left.reflection_time != right.occurrence:
            raise ChainMismatchError(
                f"junction {i}: reflection times of link {i} differ from occurrence times of link {i + 1}"
            )
        if left.reflections != right.states:
            raise ChainMismatchError(
                f"junction {i}: reflection entries of link {i} do not equal the state entries of link {i + 1}"
            )

    composed = {s: r for s, r in chain[0].mapping}
    for link in chain[1:]:
        step = {s: r for s, r in link.mapping}
        composed = {s: step[r] for s, r in composed.items()}
    first, last = chain[0], chain[-1]
    return InformationModel(
        noumena=first.noumena,
        carriers=last.carriers,
        occurrence=first.occurrence,
        reflection_time=last.reflection_time,
        states=first.states,
        reflections=last.reflections,
        mapping=sorted(composed.items()),
        measures=MeasureAssignment(
            noumenon=dict(first.measures.noumenon),
            carrier=dict(last.measures.carrier),
            reflection=dict(last.measures.reflection),
            reflection_unit=last.measures.reflection_unit,
        ),
        enabled=all(link.enabled for link in chain),
        label=" -> ".join(filter(None, (first.label, last.label))),
    )
