"""The sextuple information model and its structural operations.

A model instance ties together a set of noumenon elements, a set of carrier
elements, the time sets over which each side exists, the state entries of the
noumena, the reflection entries of the carriers, and a total surjective
mapping from state entries to reflection entries. Everything is an immutable
value; operations are pure functions. Because a model cannot change, it
validates itself once and builds its lookup tables once, on first use, and
keeps them on the instance.

State and reflection values come in three kinds: symbolic tokens (str),
numeric scalars, and numeric vectors. Equality between entries is decided on
the triple (subjects, time set, value), which is what restorability and the
invariance checks quantify over.
"""

from __future__ import annotations

import itertools
import math
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


def value_key(value: Value) -> tuple:
    """Canonical, hashable identity of a state/reflection value."""
    if isinstance(value, str):
        return ("sym", value)
    if isinstance(value, (list, tuple)):
        return ("vec", tuple(value))
    if isinstance(value, Real):
        return ("num", value)
    raise TypeError(f"unsupported value {value!r}")


def normalize_value(value) -> Value:
    if isinstance(value, list):
        return tuple(value)
    return value


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
        object.__setattr__(self, "value", normalize_value(value))

    def key(self) -> tuple:
        return (self.subjects, self.time.key(), value_key(self.value))


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
            MappingProxyType({int(k): v for k, v in self.reflection.items()}),
        )

    def __reduce__(self):
        # read-only proxies cannot be pickled or deep-copied; their tables can
        tables = (dict(self.noumenon), dict(self.carrier), dict(self.reflection))
        return (MeasureAssignment, (*tables, self.reflection_unit))


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

    def __init__(
        self,
        noumena: Iterable[str],
        carriers: Iterable[str],
        occurrence: TimeSet,
        reflection_time: TimeSet,
        states: Sequence[StateEntry],
        reflections: Sequence[StateEntry],
        mapping: Sequence[tuple[int, int]],
        measures: MeasureAssignment = MeasureAssignment(),
        copies: Sequence[CopyRecord] | None = None,
        enabled: bool = True,
        label: str = "",
    ):
        object.__setattr__(self, "noumena", frozenset(noumena))
        object.__setattr__(self, "carriers", frozenset(carriers))
        object.__setattr__(self, "occurrence", occurrence)
        object.__setattr__(self, "reflection_time", reflection_time)
        object.__setattr__(self, "states", tuple(states))
        object.__setattr__(self, "reflections", tuple(reflections))
        object.__setattr__(
            self, "mapping", tuple((int(s), int(r)) for s, r in mapping)
        )
        object.__setattr__(self, "measures", measures)
        object.__setattr__(
            self, "copies", tuple(copies) if copies is not None else None
        )
        object.__setattr__(self, "enabled", bool(enabled))
        object.__setattr__(self, "label", label)

    # Derived data, computed on first use and kept on the instance. Every
    # field is immutable, so none of it can go stale; `dataclasses.replace`
    # builds a new instance, which starts with none of it.

    @cached_property
    def validation(self) -> ValidationReport:
        """The report of `validate`, computed once per instance."""
        return _check(self)

    @cached_property
    def state_keys(self) -> tuple:
        """`StateEntry.key()` of each state entry, by index."""
        return tuple(e.key() for e in self.states)

    @cached_property
    def reflection_keys(self) -> tuple:
        """`StateEntry.key()` of each reflection entry, by index."""
        return tuple(e.key() for e in self.reflections)

    @cached_property
    def _inverse(self) -> dict[int, int] | None:
        """Reflection index -> its first state index in mapping order, or
        None when the mapping is not injective on state values. Only
        meaningful for a valid model."""
        owner: dict[tuple, tuple] = {}
        inverse: dict[int, int] = {}
        for s, r in self.mapping:
            skey = self.state_keys[s]
            if owner.setdefault(self.reflection_keys[r], skey) != skey:
                return None
            inverse.setdefault(r, s)
        return inverse

    def mapping_signature(self) -> tuple:
        """Value-level content of the mapping, for equivalence comparisons."""
        pairs = sorted(
            (self.state_keys[s], self.reflection_keys[r]) for s, r in self.mapping
        )
        return tuple(pairs)


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

    def check(cond: bool, rule: str, message: str, postulate: str | None = None):
        if not cond:
            bad.append(Violation(rule, message, postulate))

    def check_measure(value, rule: str, subject: str, negative: str):
        """A measure must be a finite real number (ints and Fractions always
        are), and nonnegative."""
        if not (isinstance(value, Rational) or (isinstance(value, Real) and math.isfinite(value))):
            bad.append(Violation(f"{rule}-numeric", f"{subject} is not a finite number"))
        elif value < 0:
            bad.append(Violation(f"{rule}-nonnegative", negative))

    check(bool(model.noumena), "noumena-nonempty", "noumenon set is empty", "postulate-1")
    check(bool(model.carriers), "carriers-nonempty", "carrier set is empty", "postulate-1")
    check(bool(model.states), "states-nonempty", "state set is empty", "postulate-3")
    check(
        bool(model.reflections),
        "reflections-nonempty",
        "reflection set is empty",
        "postulate-3",
    )

    for i, entry in enumerate(model.states):
        check(
            bool(entry.subjects),
            "state-subjects-nonempty",
            f"state {i} has no subjects",
            "postulate-3",
        )
        check(
            entry.subjects <= model.noumena,
            "state-subjects-resolve",
            f"state {i} references unknown noumena {sorted(entry.subjects - model.noumena)}",
            "postulate-3",
        )
        check(
            entry.time.issubset(model.occurrence),
            "state-times-within-occurrence",
            f"state {i} has times outside the occurrence set",
            "postulate-2",
        )
    for i, entry in enumerate(model.reflections):
        check(
            bool(entry.subjects),
            "reflection-subjects-nonempty",
            f"reflection {i} has no subjects",
            "postulate-3",
        )
        check(
            entry.subjects <= model.carriers,
            "reflection-subjects-resolve",
            f"reflection {i} references unknown carriers {sorted(entry.subjects - model.carriers)}",
            "postulate-3",
        )
        check(
            entry.time.issubset(model.reflection_time),
            "reflection-times-within-duration",
            f"reflection {i} has times outside the reflection time set",
            "postulate-2",
        )

    seen_states = [s for s, _ in model.mapping]
    check(
        sorted(seen_states) == list(range(len(model.states))),
        "mapping-total",
        "mapping must pair every state index exactly once",
        "postulate-4",
    )
    targets = {r for _, r in model.mapping}
    check(
        all(0 <= r < len(model.reflections) for r in targets),
        "mapping-range",
        "mapping references reflection indices that do not exist",
        "postulate-4",
    )
    check(
        targets >= set(range(len(model.reflections))),
        "mapping-surjective",
        "every reflection entry must be the image of some state",
        "postulate-4",
    )

    for kind, table, universe in (
        ("noumenon", model.measures.noumenon, model.noumena),
        ("carrier", model.measures.carrier, model.carriers),
    ):
        for key, val in table.items():
            check(
                key in universe,
                f"{kind}-measure-resolves",
                f"{kind} measure assigned to unknown element {key!r}",
            )
            subject = f"{kind} measure of {key!r}"
            check_measure(val, f"{kind}-measure", subject, f"{subject} is negative")
    for idx, val in model.measures.reflection.items():
        check(
            0 <= idx < len(model.reflections),
            "reflection-measure-resolves",
            f"reflection measure assigned to unknown index {idx}",
        )
        subject = f"reflection measure of {idx}"
        check_measure(val, "reflection-measure", subject, f"{subject} is negative")
    if model.copies is not None:
        for i, copy in enumerate(model.copies):
            for rule, value, part in (
                ("copy-measure", copy.carrier_measure, "measure"),
                ("copy-weight", copy.weight, "weight"),
            ):
                check_measure(value, rule, f"copy {i} {part}", f"copy {i} has negative {part}")

    if len(set(model.state_keys)) < len(model.states):
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
    reflection entry it maps to, and the elements/times they reference."""

    noumena: frozenset[str]
    carriers: frozenset[str]
    state: StateEntry
    reflection: StateEntry
    reflection_index: int
    reflection_measure: Union[int, float, Fraction, None]
    noumenon_measure: dict
    carrier_measure: dict
    source_id: int

    def as_model(self) -> InformationModel:
        return InformationModel(
            noumena=self.noumena,
            carriers=self.carriers,
            occurrence=self.state.time,
            reflection_time=self.reflection.time,
            states=[self.state],
            reflections=[self.reflection],
            mapping=[(0, 0)],
            measures=MeasureAssignment(
                noumenon=self.noumenon_measure,
                carrier=self.carrier_measure,
                reflection={} if self.reflection_measure is None else {0: self.reflection_measure},
            ),
        )


_atom_source_counter = itertools.count(1)


def make_atom(
    state: StateEntry,
    reflection: StateEntry,
    reflection_measure=None,
    noumenon_measure: dict | None = None,
    carrier_measure: dict | None = None,
) -> AtomicInfo:
    """Build a standalone atom not tied to any existing model."""
    return AtomicInfo(
        noumena=state.subjects,
        carriers=reflection.subjects,
        state=state,
        reflection=reflection,
        reflection_index=0,
        reflection_measure=reflection_measure,
        noumenon_measure=dict(noumenon_measure or {}),
        carrier_measure=dict(carrier_measure or {}),
        source_id=next(_atom_source_counter),
    )


def decompose_atomic(model: InformationModel) -> list[AtomicInfo]:
    """Split a model into one atom per mapping pair.

    Atoms from one model are disjoint exactly when the mapping never reuses a
    reflection entry; `combine` refuses overlapping pieces, which keeps the
    volume-additivity identity honest.
    """
    require_valid(model)
    source = next(_atom_source_counter)
    noumenon_table, carrier_table = model.measures.noumenon, model.measures.carrier
    atoms = []
    for s, r in sorted(model.mapping):
        state = model.states[s]
        refl = model.reflections[r]
        atoms.append(
            AtomicInfo(
                noumena=state.subjects,
                carriers=refl.subjects,
                state=state,
                reflection=refl,
                reflection_index=r,
                reflection_measure=model.measures.reflection.get(r),
                noumenon_measure={
                    k: noumenon_table[k] for k in sorted(state.subjects) if k in noumenon_table
                },
                carrier_measure={
                    k: carrier_table[k] for k in sorted(refl.subjects) if k in carrier_table
                },
                source_id=source,
            )
        )
    return atoms


def combine(pieces: Sequence[AtomicInfo]) -> InformationModel:
    """Union a family of disjoint atoms back into one model.

    The measure of the whole is the sum over the pieces whenever every piece
    carries a reflection measure, which is the finite additivity identity the
    decomposition is built around.
    """
    if not pieces:
        raise ValueError("cannot combine an empty list of pieces")
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
    occurrence = pieces[0].state.time
    reflection_time = pieces[0].reflection.time
    states: list[StateEntry] = []
    reflections: list[StateEntry] = []
    mapping: list[tuple[int, int]] = []
    noumenon_measure: dict = {}
    carrier_measure: dict = {}
    reflection_measure: dict = {}
    for piece in pieces:
        noumena |= piece.noumena
        carriers |= piece.carriers
        occurrence = occurrence.union(piece.state.time)
        reflection_time = reflection_time.union(piece.reflection.time)
        idx = len(states)
        states.append(piece.state)
        reflections.append(piece.reflection)
        mapping.append((idx, idx))
        if piece.reflection_measure is not None:
            reflection_measure[idx] = piece.reflection_measure
        for table, incoming in (
            (noumenon_measure, piece.noumenon_measure),
            (carrier_measure, piece.carrier_measure),
        ):
            for key, val in incoming.items():
                if key in table and table[key] != val:
                    raise OverlapError(
                        f"element {key!r} carries conflicting measures {table[key]} and {val}"
                    )
                table[key] = val
    return InformationModel(
        noumena=noumena,
        carriers=carriers,
        occurrence=occurrence,
        reflection_time=reflection_time,
        states=states,
        reflections=reflections,
        mapping=mapping,
        measures=MeasureAssignment(
            noumenon=noumenon_measure,
            carrier=carrier_measure,
            reflection=reflection_measure,
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
        if left.reflection_time.key() != right.occurrence.key():
            raise ChainMismatchError(
                f"junction {i}: reflection times of link {i} differ from occurrence times of link {i + 1}"
            )
        if left.reflection_keys != right.state_keys:
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
