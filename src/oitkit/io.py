"""Model files and report serialization.

A model file is a JSON document with the keys noumena, carriers, occurrence,
reflection, states, reflections, mapping, copies, measures, enabled. Time
coordinates are written as decimal strings ("12.010") so they survive the
round trip exactly; plain numbers are accepted on input.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any

from .model import (
    CopyRecord,
    InformationModel,
    MeasureAssignment,
    StateEntry,
)
from .timeset import TimeSet, seconds_str, tick_str


def timeset_to_json(ts: TimeSet) -> dict:
    return {
        "intervals": [[tick_str(lo), tick_str(hi)] for lo, hi in ts.spans],
        "points": [tick_str(p) for p in ts.marks],
    }


def timeset_from_json(obj: dict) -> TimeSet:
    return TimeSet(
        intervals=[tuple(pair) for pair in obj.get("intervals", [])],
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
    return StateEntry(
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
    return MeasureAssignment(
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
    return InformationModel(
        noumena=doc["noumena"],
        carriers=doc["carriers"],
        occurrence=timeset_from_json(doc["occurrence"]),
        reflection_time=timeset_from_json(doc["reflection"]),
        states=[entry_from_json(e) for e in doc["states"]],
        reflections=[entry_from_json(e) for e in doc["reflections"]],
        mapping=[tuple(pair) for pair in doc["mapping"]],
        measures=measures_from_json(doc.get("measures")),
        copies=None
        if copies is None
        else [
            CopyRecord(c["carrier_measure"], c.get("weight", 1)) for c in copies
        ],
        enabled=doc.get("enabled", True),
        label=doc.get("label", ""),
    )


def load_model(path: str | Path) -> InformationModel:
    with open(path, "r", encoding="utf-8") as handle:
        return model_from_json(json.load(handle))


def chain_from_json(doc: list | dict) -> list[InformationModel]:
    """The links of a chain document: a list of models or {"links": [...]}."""
    links = doc if isinstance(doc, list) else doc["links"]
    return [model_from_json(link) for link in links]


def load_chain(path: str | Path) -> list[InformationModel]:
    with open(path, "r", encoding="utf-8") as handle:
        return chain_from_json(json.load(handle))


def json_ready(obj: Any) -> Any:
    """Recursively convert report values into JSON-encodable ones.

    Fractions become exact decimal strings, numpy arrays become nested
    lists, and tuples become lists; everything else passes through. A numpy
    value can only exist once numpy is loaded, so its branches look numpy up
    in `sys.modules` rather than importing it.
    """
    if isinstance(obj, Fraction):
        return seconds_str(obj)
    if isinstance(obj, dict):
        return {str(k): json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_ready(v) for v in obj]
    if isinstance(obj, frozenset):
        return sorted(obj)
    np = sys.modules.get("numpy")
    if np is not None:
        if isinstance(obj, np.ndarray):
            return json_ready(obj.tolist())
        if isinstance(obj, np.generic):
            return obj.item()
    return obj


def to_json_text(obj: Any) -> str:
    """Deterministic JSON: sorted keys, stable separators, no trailing space."""
    return json.dumps(json_ready(obj), sort_keys=True, indent=2)
