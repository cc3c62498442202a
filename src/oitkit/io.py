"""Model files and report serialization.

A model file is a JSON document with the keys noumena, carriers, occurrence,
reflection, states, reflections, mapping, copies, measures, enabled. Time
coordinates are written as decimal strings ("12.010") so they survive the
round trip exactly; plain numbers are accepted on input.

Reports leave through `to_json_text`, which writes every JSON report, model
file and golden fixture in one pass; the text view of the CLI
(`--format text`) is rendered from that JSON text. `tests/oracles.py` pins
the bytes it must write: those of `json_text_oracle`.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import TYPE_CHECKING, Any

import oitkit

from .timeset import TimeSet, seconds_str, tick_str

# The readers reach `model` through the package, which imports it on first
# access (PEP 562), so writing a report does not load it.
if TYPE_CHECKING:
    from .model import InformationModel, MeasureAssignment, StateEntry


def timeset_to_json(ts: TimeSet) -> dict:
    return {
        "intervals": [[tick_str(lo), tick_str(hi)] for lo, hi in ts.spans],
        "points": [tick_str(p) for p in ts.marks],
    }


def timeset_from_json(obj: dict) -> TimeSet:
    return TimeSet(
        intervals=obj.get("intervals", []),
        points=obj.get("points", []),
    )


def entry_to_json(entry: StateEntry) -> dict:
    value = entry.value
    if isinstance(value, tuple):
        value = list(value)
    return {
        "subjects": sorted(entry.subjects),
        "time": timeset_to_json(entry.time),
        "value": value,
    }


def entry_from_json(obj: dict) -> StateEntry:
    return oitkit.model.StateEntry(
        subjects=obj["subjects"],
        time=timeset_from_json(obj["time"]),
        value=obj["value"],
    )


def measures_to_json(measures: MeasureAssignment) -> dict:
    return {
        "noumenon": dict(sorted(measures.noumenon.items())),
        "carrier": dict(sorted(measures.carrier.items())),
        "reflection": {str(k): v for k, v in sorted(measures.reflection.items())},
        "reflection_unit": measures.reflection_unit,
    }


def measures_from_json(obj: dict | None) -> MeasureAssignment:
    obj = obj or {}
    return oitkit.model.MeasureAssignment(
        noumenon=obj.get("noumenon", {}),
        carrier=obj.get("carrier", {}),
        reflection=obj.get("reflection", {}),
        reflection_unit=obj.get("reflection_unit", "bit"),
    )


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
    copies = doc.get("copies")
    return oitkit.model.InformationModel(
        noumena=doc["noumena"],
        carriers=doc["carriers"],
        occurrence=timeset_from_json(doc["occurrence"]),
        reflection_time=timeset_from_json(doc["reflection"]),
        states=[entry_from_json(e) for e in doc["states"]],
        reflections=[entry_from_json(e) for e in doc["reflections"]],
        mapping=doc["mapping"],
        measures=measures_from_json(doc.get("measures")),
        copies=None
        if copies is None
        else [
            oitkit.model.CopyRecord(c["carrier_measure"], c.get("weight", 1)) for c in copies
        ],
        enabled=doc.get("enabled", True),
        label=doc.get("label", ""),
    )


def chain_from_json(doc: list | dict) -> list[InformationModel]:
    """The links of a chain document: a list of models or {"links": [...]}."""
    links = doc if isinstance(doc, list) else doc["links"]
    return [model_from_json(link) for link in links]


def to_json_text(obj: Any) -> str:
    """Deterministic JSON text of a report: sorted keys, two-space indent,
    ASCII escapes, no trailing space.

    A report's values are converted on the way: a Fraction becomes its exact
    decimal string (`seconds_str`), a tuple or a numpy array a list, a
    frozenset its sorted list, a numpy scalar its `item()`, and a dict key
    `str(key)`. Anything else must be a value `json` writes, or `TypeError`
    is raised. The pinned definition of the bytes is
    `tests/oracles.json_text_oracle`. Every report of the CLI, in either
    format, the model files of `regen_fixtures.py` and the golden reports go
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
