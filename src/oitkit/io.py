"""Input documents and report serialization.

Every JSON input oitkit reads, a file or a flag's value, is read here, by
one reader per kind: `model_from_json` (a model file), `chain_from_json`,
`relation_from_json`, `edges_from_json`, `search_from_json`,
`kalman_from_json` and `constants_from_json`; `time_pairs_from_json` reads
the `--gaps` and `--sessions` flags and `value_from_json` the `--restored`
and `--truth` flags, by the rules the model file's times and values follow.
A reader checks the JSON type of every field it reads and fills in every
default. A field that is missing or of the wrong type raises `FormatError`,
a `ValueError` that names the field's JSON path. Each time set and each
entry is read in one walk, which checks every field as it reads it and
reads each time once, straight into ticks: a time set's times in one loop,
which reads a plain decimal time with one `int` and works out where a fault
is only once one is found. A time set whose intervals come sorted and apart,
as oitkit writes them, is taken as it stands, without sorting or merging.
A model's mapping and reflection keys, whose rule `model` owns, are located
only once `model` refuses them.
What the values mean is checked later: a model's measures and its four
postulates by `model.validate`, a Kalman system's shapes and finiteness by
`LinearSystemSpec`, a constant's sign by `PhysicalConstants`.

A model file is a JSON object with the keys noumena, carriers, occurrence,
reflection, states, reflections, mapping, copies, measures, enabled and
label; the README tabulates each kind's fields. Time coordinates are written
as decimal strings ("12.010") so they survive the round trip exactly; plain
numbers are accepted on input.

Reports leave through `to_json_text`, which writes every JSON report, model
file and golden fixture in one pass; the text view of the CLI
(`--format text`) is rendered from that JSON text. `tests/oracles.py` pins
the bytes it must write: those of `json_text_oracle`.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import TYPE_CHECKING, Any, NoReturn

import oitkit

from .timeset import Tick, TimeSet, seconds_str, tick_str, ticks

# The readers reach `model`, `metrics`, `classical` and `physics` through the
# package, which imports each on first access (PEP 562), so writing a report
# loads none of them.
if TYPE_CHECKING:
    from .classical import LinearSystemSpec
    from .metrics import EquivalenceRelation, RelationSet
    from .model import InformationModel, MeasureAssignment, StateEntry
    from .physics import PhysicalConstants


class FormatError(ValueError):
    """A field of an input document that is missing or of the wrong type.

    `path` holds the keys and indices from the document's root to the field,
    and `str()` appends it to the message, as in "... (at states[3].time)".
    A reader raises the error where it finds the fault, and each enclosing
    reader puts its own key in front (`within`), so a path is only built
    for a document that has a fault.
    """

    def __init__(self, message: str, *path: str | int):
        super().__init__(message)
        self.message = message
        self.path = path

    def within(self, *outer: str | int) -> FormatError:
        """This error, its path now starting with `outer`."""
        self.path = outer + self.path
        return self

    def __str__(self) -> str:
        if not self.path:
            return self.message
        steps = "".join(
            f"[{step}]" if type(step) is int
            else f".{step}" if type(step) is str and step.isidentifier()
            else f"[{_quote(str(step))}]"
            for step in self.path
        )
        return f"{self.message} (at {steps.removeprefix('.')})"


_JSON_TYPES = {
    dict: "an object",
    list: "an array",
    str: "a string",
    int: "a number",
    float: "a number",
    bool: "a boolean",
    type(None): "null",
}
_NUMBERS = {int, float}
_SCALARS = {str, int, float}  # a string or a number: a label
_STRINGS = {str}
_NO_ITEMS: list = []  # the default of an absent array; never mutated
_REQUIRED = object()


def _reject(what: str, value: Any, *path: str | int) -> NoReturn:
    """Raise: expected `what` at `path`, got `value`'s JSON type."""
    got = _JSON_TYPES.get(type(value), type(value).__name__)
    raise FormatError(f"expected {what}, got {got}", *path)


def _field(doc: Any, key: str, kind: type | None = None, default: Any = _REQUIRED) -> Any:
    """`doc[key]`, which must be of the JSON type `kind` unless that is None;
    `default` when the key is absent. `doc` must be an object."""
    if type(doc) is not dict:
        _reject("an object", doc)
    value = doc.get(key, _REQUIRED)
    if value is _REQUIRED:
        if default is _REQUIRED:
            raise FormatError(f"missing field {key!r}", key)
        return default
    if kind is not None and type(value) is not kind:
        _reject(_JSON_TYPES[kind], value, key)
    return value


def _all(items: list, kinds: set, what: str, *path: str | int) -> list:
    """`items`, each of which must be of a type in `kinds`."""
    if not kinds.issuperset(map(type, items)):
        i = next(i for i, x in enumerate(items) if type(x) not in kinds)
        _reject(what, items[i], *path, i)
    return items


def _each(items: list, read, *path: str | int) -> list:
    """`read` of each item, an error naming the item's index."""
    out: list = []
    try:
        for item in items:
            out.append(read(item))
    except FormatError as exc:
        raise exc.within(*path, len(out))
    return out


def _nested(read, value: Any, *path: str | int) -> Any:
    """`read(value)`, an error naming `path` in front of its own."""
    try:
        return read(value)
    except FormatError as exc:
        raise exc.within(*path)


def _checked(check, value: Any, *path: str | int) -> Any:
    """`check(value)` of one of `model`'s checks, its `TypeError` an error at
    `path`."""
    try:
        return check(value)
    except TypeError as exc:
        raise FormatError(str(exc), *path) from None


def _array(value: Any, size: int, what: str) -> list:
    """`value`, which must be an array of `size` items."""
    if type(value) is not list:
        _reject(what, value)
    if len(value) != size:
        items = "item" if len(value) == 1 else "items"
        raise FormatError(f"expected {what}, got {len(value)} {items}")
    return value


def _real(value: Any, *path: str | int) -> float:
    """A JSON number that must fit a float."""
    if type(value) not in _NUMBERS:
        _reject("a number", value, *path)
    try:
        return float(value)
    except OverflowError:
        raise FormatError("number too large for a float", *path) from None


def _reals(items: Any, *path: str | int) -> list[float]:
    if type(items) is not list:
        _reject("an array of numbers", items, *path)
    return [_real(x, *path, i) for i, x in enumerate(items)]


def _rows(doc: dict, key: str, default: Any = _REQUIRED) -> list[list[float]] | None:
    """The array of number arrays at `key`: a matrix, or rows of a sequence."""
    rows = _field(doc, key, list, default)
    return None if rows is None else [_reals(row, key, i) for i, row in enumerate(rows)]


def _times(items: list, pairs: bool, *path: str | int) -> list[Tick]:
    """The ticks of the times in `items`, or, when `pairs`, of the [lo, hi]
    pairs of times in `items`, flattened to lo, hi, lo, hi, ....

    A time is a string or a number that `ticks` reads, but not a JSON
    boolean, though ticks(True) is 1 s; a plain decimal string is read here
    as `ticks` reads it. The first fault raises `FormatError` at `path`, the
    item's index and, in a pair, the time's index, which the count of ticks
    read so far gives.
    """
    out: list[Tick] = []
    try:
        for item in items:
            if pairs and (type(item) is not list or len(item) != 2):
                _array(item, 2, "a [lo, hi] pair of times")
            for t in item if pairs else (item,):
                if type(t) is str:
                    whole, _, frac = t.partition(".")
                    if len(frac) <= 9 and len(whole) < 600 and (
                        whole.removeprefix("-") + frac
                    ).isdecimal():
                        out.append(int(whole + frac.ljust(9, "0")))
                        continue
                elif type(t) is bool:
                    raise TypeError("expected a time, got a boolean")
                out.append(ticks(t))
    except FormatError as exc:  # a pair of the wrong shape
        raise exc.within(*path, len(out) // 2)
    except (TypeError, ValueError) as exc:
        where = divmod(len(out), 2) if pairs else (len(out),)
        raise FormatError(str(exc), *path, *where) from None
    return out


def time_pairs_from_json(doc: Any) -> list:
    """An array of [lo, hi] time pairs, each time as a time set takes it;
    the pairs are returned as given."""
    if type(doc) is not list:
        _reject("an array of [lo, hi] pairs", doc)
    _times(doc, True)
    return doc


def timeset_to_json(ts: TimeSet) -> dict:
    return {
        "intervals": [[tick_str(lo), tick_str(hi)] for lo, hi in ts.spans],
        "points": [tick_str(p) for p in ts.marks],
    }


def timeset_from_json(obj: Any) -> TimeSet:
    """A time set: an object with arrays "intervals" of [lo, hi] pairs and
    "points", both empty when absent."""
    intervals = _field(obj, "intervals", list, _NO_ITEMS)
    points = _field(obj, "points", list, _NO_ITEMS)
    bounds = _times(intervals, True, "intervals")
    marks = _times(points, False, "points") if points else ()
    try:
        return TimeSet._of_ticks(bounds, marks)
    except ValueError as exc:  # lo > hi, or no interval and no point
        raise FormatError(str(exc)) from None


def entry_to_json(entry: StateEntry) -> dict:
    value = entry.value
    if isinstance(value, tuple):
        value = list(value)
    return {
        "subjects": sorted(entry.subjects),
        "time": timeset_to_json(entry.time),
        "value": value,
    }


def entry_from_json(obj: Any) -> StateEntry:
    """A state or reflection entry: "subjects", an array of strings; "time",
    a time set; and "value", a string, a number or an array of numbers."""
    subjects = _all(_field(obj, "subjects", list), _STRINGS, "a string", "subjects")
    time = _nested(timeset_from_json, _field(obj, "time"), "time")
    value = _not_boolean(_field(obj, "value"), "value")
    try:
        return oitkit.model.StateEntry(subjects, time, value)
    except TypeError as exc:  # a value that `model.value_key` refuses
        raise FormatError(str(exc), "value") from None


def _not_boolean(value: Any, *path: str | int) -> Any:
    """`value`, which must not be a JSON boolean or an array holding one:
    the half of the value rule that `model.value_key` leaves out."""
    what = "a string, a number or an array of numbers"
    if type(value) is bool:
        _reject(what, value, *path)
    if type(value) is list and bool in map(type, value):
        raise FormatError(f"expected {what}, got an array holding a boolean", *path)
    return value


def value_from_json(value: Any) -> Any:
    """A state value: a string, a number or an array of numbers. A JSON
    boolean is none of these, though Python's bool is an int; the rest of
    the rule is `model.value_key`'s."""
    _checked(oitkit.model.value_key, _not_boolean(value))
    return value


def measures_to_json(measures: MeasureAssignment) -> dict:
    return {
        "noumenon": dict(sorted(measures.noumenon.items())),
        "carrier": dict(sorted(measures.carrier.items())),
        "reflection": {str(k): v for k, v in sorted(measures.reflection.items())},
        "reflection_unit": measures.reflection_unit,
    }


def measures_from_json(obj: Any) -> MeasureAssignment:
    """Measure tables: objects "noumenon", "carrier" and "reflection" (keyed
    by reflection index), each empty when absent, and "reflection_unit".
    The measures themselves are `validate`'s to check."""
    noumenon, carrier, reflection = (
        _field(obj, key, dict, {}) for key in ("noumenon", "carrier", "reflection")
    )
    unit = _field(obj, "reflection_unit", str, "bit")
    try:
        return oitkit.model.MeasureAssignment(noumenon, carrier, reflection, unit)
    except TypeError as exc:
        for key in reflection:
            _checked(oitkit.model.key_index, key, "reflection", key)
        raise FormatError(str(exc), "reflection") from None


def _copy_from_json(obj: Any):
    return oitkit.model.CopyRecord(_field(obj, "carrier_measure"), _field(obj, "weight", None, 1))


def _indices(items: Any, size: int, what: str) -> list:
    """`items`, an array of `size` items whose first two are indices."""
    _array(items, size, what)
    _checked(oitkit.model.as_index, items[0], 0)
    _checked(oitkit.model.as_index, items[1], 1)
    return items


def model_to_json(model: InformationModel) -> dict:
    doc = {
        "noumena": sorted(model.noumena),
        "carriers": sorted(model.carriers),
        "occurrence": timeset_to_json(model.occurrence),
        "reflection": timeset_to_json(model.reflection_time),
        "states": [entry_to_json(e) for e in model.states],
        "reflections": [entry_to_json(e) for e in model.reflections],
        "mapping": [list(pair) for pair in model.mapping],
        "measures": measures_to_json(model.measures),
        "enabled": model.enabled,
    }
    if model.copies is not None:
        doc["copies"] = [
            {"carrier_measure": c.carrier_measure, "weight": c.weight}
            for c in model.copies
        ]
    if model.label:
        doc["label"] = model.label
    return doc


def model_from_json(doc: dict) -> InformationModel:
    """The model a model-file document describes.

    Raises `FormatError` for a missing or wrong-typed field; the model's
    measures and its four postulates are `validate`'s to check.
    """
    noumena = _all(_field(doc, "noumena", list), _STRINGS, "a string", "noumena")
    carriers = _all(_field(doc, "carriers", list), _STRINGS, "a string", "carriers")
    occurrence = _nested(timeset_from_json, _field(doc, "occurrence"), "occurrence")
    reflection_time = _nested(timeset_from_json, _field(doc, "reflection"), "reflection")
    states = _each(_field(doc, "states", list), entry_from_json, "states")
    reflections = _each(_field(doc, "reflections", list), entry_from_json, "reflections")
    mapping = _field(doc, "mapping", list)
    measures = _nested(measures_from_json, _field(doc, "measures", None, {}), "measures")
    copies = _field(doc, "copies", list, None)
    if copies is not None:
        copies = _each(copies, _copy_from_json, "copies")
    enabled = _field(doc, "enabled", bool, True)
    label = _field(doc, "label", str, "")
    try:
        return oitkit.model.InformationModel(
            noumena, carriers, occurrence, reflection_time, states, reflections, mapping,
            measures, copies, enabled, label,
        )
    except (TypeError, ValueError) as exc:  # every other field is read by now
        _each(mapping, lambda pair: _indices(pair, 2, "an [s, r] pair of indices"), "mapping")
        raise FormatError(str(exc), "mapping") from None


def chain_from_json(doc: Any) -> list[InformationModel]:
    """The links of a chain document: an array of models or {"links": [...]}."""
    if type(doc) is list:
        return _each(doc, model_from_json)
    return _each(_field(doc, "links", list), model_from_json, "links")


def relation_from_json(doc: Any) -> EquivalenceRelation:
    """A relation file: "labels", an object from state index to a label,
    which is a string or a number."""
    labels = _field(doc, "labels", dict)
    for key, label in labels.items():
        _checked(oitkit.model.key_index, key, "labels", key)
        if type(label) not in _SCALARS:
            _reject("a string or a number", label, "labels", key)
    return oitkit.metrics.EquivalenceRelation(labels)


def edges_from_json(doc: Any) -> RelationSet:
    """An edges file: "edges", an array of [i, j, label] triples of two
    state indices and a label, which is a string or a number."""
    edges = _each(_field(doc, "edges", list), _edge, "edges")
    return oitkit.metrics.RelationSet(edges)


def _edge(edge: Any) -> list:
    _indices(edge, 3, "an [i, j, label] triple")
    if type(edge[2]) not in _SCALARS:
        _reject("a string or a number", edge[2], 2)
    return edge


def search_from_json(doc: Any) -> dict:
    """A search scenario, as the keyword arguments of `SearchSetup`:
    "candidates", an array of models; "target", a model; "algorithm", a
    string ("sequential" when absent); and "order_keys", all numbers or all
    strings (none when absent)."""
    candidates = _each(_field(doc, "candidates", list), model_from_json, "candidates")
    target = _nested(model_from_json, _field(doc, "target"), "target")
    algorithm = _field(doc, "algorithm", str, "sequential")
    order_keys = _field(doc, "order_keys", list, None)
    if order_keys:
        if type(order_keys[0]) is str:
            _all(order_keys, _STRINGS, "a string", "order_keys")
        else:
            _all(order_keys, _NUMBERS, "a number", "order_keys")
    return {
        "candidates": candidates,
        "target": target,
        "algorithm": algorithm,
        "order_keys": order_keys,
    }


def kalman_from_json(doc: Any) -> tuple[LinearSystemSpec, list, list | None]:
    """A Kalman scenario: the system, its measurements and its inputs.

    The matrices "A", "H", "Q", "R", "P0" and the optional "B" are arrays of
    rows of numbers, "x0" is an array of numbers, and "z" and the optional
    "U" hold one row of numbers per step. `LinearSystemSpec` checks the
    shapes.
    """
    matrices = {key: _rows(doc, key) for key in ("A", "H", "Q", "R", "P0")}
    x0 = _reals(_field(doc, "x0"), "x0")
    system = oitkit.classical.LinearSystemSpec(**matrices, x0=x0, B=_rows(doc, "B", None))
    return system, _rows(doc, "z"), _rows(doc, "U", None)


def constants_from_json(doc: Any) -> PhysicalConstants:
    """A constants file: "name", a string ("custom" when absent), and any of
    the constants `physics.CONSTANT_NAMES` as numbers; the others come from
    the profile "name" names, or from "paper"."""
    name = _field(doc, "name", str, "custom")
    physics = oitkit.physics
    for key in physics.CONSTANT_NAMES:
        if key in doc:
            _real(doc[key], key)
    return physics.constants_from_dict(doc, name=name)


def to_json_text(obj: Any) -> str:
    """Deterministic JSON text of a report: sorted keys, two-space indent,
    ASCII escapes, no trailing space.

    A report's values are converted on the way: a Fraction becomes its exact
    decimal string (`seconds_str`), a tuple or a numpy array a list, a
    frozenset its sorted list, a numpy scalar its `item()`, and a dict key
    `str(key)`. Anything else must be a value `json` writes, or `TypeError`
    is raised. The pinned definition of the bytes is
    `tests/oracles.json_text_oracle`. Every report of the CLI, in either
    format, every file `regen_fixtures.py` writes and the golden reports go
    through it.
    """
    out: list[str] = []
    _write(obj, out, "\n", _READY)
    return "".join(out)


_INF = float("inf")


def _float_text(x: float) -> str:
    """A float as json writes it, non-finite values included."""
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _fraction_text(f: Fraction) -> str:
    return _quote(seconds_str(f))


# Exact leaf types and their text. _PLAIN is json's own encoding; _READY adds
# the conversion of Fractions and is the mode of a report's values.
# The table a value is written with is the mode its subtree is in.
_PLAIN = {
    str: _quote,
    int: int.__repr__,
    float: _float_text,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}
_READY = {**_PLAIN, Fraction: _fraction_text}


def _write(o: Any, out: list[str], nl: str, leaves: dict) -> None:
    """Append the text of `o` at the indent `nl` (a newline and its spaces).

    In _READY mode `o` gets `to_json_text`'s conversions. A frozenset's
    sorted items and a numpy scalar's `item()` are then written as json
    writes them, in _PLAIN mode, without converting them further.
    """
    leaf = leaves.get(type(o))
    if leaf is not None:
        out.append(leaf(o))
        return
    if leaves is _READY:
        if isinstance(o, dict):
            # str(k) may make two keys equal; the later value wins
            _pairs(sorted({str(k): v for k, v in o.items()}.items()), out, nl, leaves)
        elif isinstance(o, (list, tuple)):
            _items(o, out, nl, leaves)
        elif isinstance(o, Fraction):
            out.append(_fraction_text(o))
        elif isinstance(o, frozenset):
            _items(sorted(o), out, nl, _PLAIN)
        else:
            np = sys.modules.get("numpy")
            if np is not None and isinstance(o, np.ndarray):
                _write(o.tolist(), out, nl, leaves)
            elif np is not None and isinstance(o, np.generic):
                _write(o.item(), out, nl, _PLAIN)
            else:
                _write(o, out, nl, _PLAIN)
    elif isinstance(o, str):
        out.append(_quote(o))
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        out.append(_float_text(o))
    elif isinstance(o, (list, tuple)):
        _items(o, out, nl, leaves)
    elif isinstance(o, dict):
        _pairs([(_plain_key(k), v) for k, v in sorted(o.items())], out, nl, leaves)
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _plain_key(k: Any) -> str:
    """A dict key as json turns it into a string."""
    if isinstance(k, str):
        return k
    if isinstance(k, float):
        return _float_text(k)
    if k is True or k is False or k is None:
        return _PLAIN[type(k)](k)
    if isinstance(k, int):
        return int.__repr__(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _items(values, out: list[str], nl: str, leaves: dict) -> None:
    if not values:
        out.append("[]")
        return
    inner = nl + "  "
    sep = "[" + inner
    for v in values:
        out.append(sep)
        sep = "," + inner
        t = type(v)
        leaf = leaves.get(t)
        if leaf is not None:
            out.append(leaf(v))
        elif t is list:
            _items(v, out, inner, leaves)
        else:
            _write(v, out, inner, leaves)
    out.append(nl + "]")


def _pairs(pairs, out: list[str], nl: str, leaves: dict) -> None:
    if not pairs:
        out.append("{}")
        return
    inner = nl + "  "
    sep = "{" + inner
    for k, v in pairs:
        out.append(sep + _quote(k) + ": ")
        sep = "," + inner
        t = type(v)
        leaf = leaves.get(t)
        if leaf is not None:
            out.append(leaf(v))
        elif t is list:
            _items(v, out, inner, leaves)
        else:
            _write(v, out, inner, leaves)
    out.append(nl + "}")
