"""Seeded inputs for the benchmark workloads.

Everything here is derived from an explicit `random.Random`, so one seed
always gives the same inputs. Models are built with the package's public
constructors only (`TimeSet`, `StateEntry`, `InformationModel` and the
measure/copy records) and serialised by this module's own writer, so a
change to `oitkit.generate` or `oitkit.io` cannot silently change what the
benchmark feeds the program. Each generator also returns the answers it
planted (volume, delay, preimage, chain delay, search index), which the
workloads check every op against.

Times are whole milliseconds, written as exact decimal strings; measures
and numeric values are integers, so every planted answer is exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from oitkit import (
    CopyRecord,
    InformationModel,
    MeasureAssignment,
    StateEntry,
    TimeSet,
)

SLOT_MS = 10_000  # each component of a time set owns one 10 s slot
EDGE_LABELS = ("next", "near", "same")


def _dec(t: Fraction) -> str:
    ms = t * 1000
    if ms.denominator != 1 or ms < 0:
        raise ValueError(f"{t} is not a nonnegative whole number of milliseconds")
    whole, frac = divmod(int(ms), 1000)
    return f"{whole}.{frac:03d}"


def _timeset_doc(ts: TimeSet) -> dict:
    return {
        "intervals": [[_dec(lo), _dec(hi)] for lo, hi in ts.intervals],
        "points": [_dec(p) for p in ts.points],
    }


def _entry_doc(entry: StateEntry) -> dict:
    value = entry.value
    return {
        "subjects": sorted(entry.subjects),
        "time": _timeset_doc(entry.time),
        "value": list(value) if isinstance(value, tuple) else value,
    }


def model_doc(model: InformationModel) -> dict:
    """The model-file document of `model`, in the format `oitkit.io` reads."""
    doc = {
        "noumena": sorted(model.noumena),
        "carriers": sorted(model.carriers),
        "occurrence": _timeset_doc(model.occurrence),
        "reflection": _timeset_doc(model.reflection_time),
        "states": [_entry_doc(e) for e in model.states],
        "reflections": [_entry_doc(e) for e in model.reflections],
        "mapping": [list(pair) for pair in model.mapping],
        "measures": {
            "noumenon": dict(sorted(model.measures.noumenon.items())),
            "carrier": dict(sorted(model.measures.carrier.items())),
            "reflection": {str(k): v for k, v in sorted(model.measures.reflection.items())},
            "reflection_unit": model.measures.reflection_unit,
        },
        "enabled": model.enabled,
    }
    if model.copies is not None:
        doc["copies"] = [
            {"carrier_measure": c.carrier_measure, "weight": c.weight} for c in model.copies
        ]
    return doc


def _slots(rng: random.Random, count: int, origin_ms: int) -> list[tuple[int, int]]:
    """`count` disjoint intervals in ms, one per 10 s slot, each 6–8 s long."""
    out = []
    for k in range(count):
        base = origin_ms + k * SLOT_MS
        out.append((base + rng.randrange(1000), base + 7000 + rng.randrange(1000)))
    return out


def _sub_timeset(rng: random.Random, slots: list[tuple[int, int]], pieces: int) -> TimeSet:
    """A union of `pieces` intervals, each inside a different slot."""
    chosen = rng.sample(range(len(slots)), pieces)
    intervals = []
    for k in chosen:
        lo, hi = slots[k]
        a, b = lo + rng.randrange(2000), hi - rng.randrange(2000)
        intervals.append((Fraction(a, 1000), Fraction(b, 1000)))
    return TimeSet(intervals=intervals)


def _slot_set(slots: list[tuple[int, int]]) -> TimeSet:
    return TimeSet(intervals=[(Fraction(a, 1000), Fraction(b, 1000)) for a, b in slots])


def _state_value(rng: random.Random, kind: int):
    if kind == 0:
        return f"s{rng.randrange(10**6)}"
    if kind == 1:
        return rng.randrange(-(10**6), 10**6)
    return [rng.randrange(-999, 1000) for _ in range(3)]


def _reflection_value(rng: random.Random, kind: int, index: int):
    """Distinct per index, so the mapping is injective on values."""
    if kind == 0:
        return f"r{index}"
    if kind == 1:
        return index
    return [index, rng.randrange(-999, 1000), rng.randrange(-999, 1000)]


def _perturb(value, rng: random.Random):
    if isinstance(value, str):
        return value
    if isinstance(value, list):
        return [x + rng.randint(1, 3) for x in value]
    return value + rng.randint(1, 3)


@dataclass
class Planted:
    """Answers the generator knows for one model."""

    volume: int
    delay: Fraction
    restore_index: int
    preimage_key: tuple


def information_model(
    rng: random.Random,
    n: int,
    carriers: int,
    intervals: int,
    pieces: int,
    origin_ms: int = 0,
    copies: int = 3,
) -> tuple[InformationModel, Planted]:
    """A restorable model of `n` states with one noumenon per state.

    The occurrence and reflection time sets have `intervals` components
    each; every entry's time set is a union of 1..`pieces` intervals inside
    them. Reflection values carry their index, so the mapping (a seeded
    permutation) is injective on values; every element and reflection has a
    measure.
    """
    occ_slots = _slots(rng, intervals, origin_ms)
    refl_origin = origin_ms + intervals * SLOT_MS + 1000 * rng.randrange(1, 60)
    refl_slots = _slots(rng, intervals, refl_origin)
    noumena = [f"n{i:05d}" for i in range(n)]
    carrier_ids = [f"c{i:03d}" for i in range(carriers)]
    kinds = [rng.randrange(3) for _ in range(n)]
    states = [
        StateEntry(
            [noumena[i]],
            _sub_timeset(rng, occ_slots, rng.randint(1, min(pieces, intervals))),
            _state_value(rng, kinds[i]),
        )
        for i in range(n)
    ]
    perm = list(range(n))
    rng.shuffle(perm)
    kind_of_reflection = [0] * n
    for s, r in enumerate(perm):
        kind_of_reflection[r] = kinds[s]
    reflections = [
        StateEntry(
            rng.sample(carrier_ids, rng.randint(1, min(2, carriers))),
            _sub_timeset(rng, refl_slots, rng.randint(1, min(pieces, intervals))),
            _reflection_value(rng, kind_of_reflection[j], j),
        )
        for j in range(n)
    ]
    reflection_measure = {j: rng.randint(1, 1000) for j in range(n)}
    model = InformationModel(
        noumena=noumena,
        carriers=carrier_ids,
        occurrence=_slot_set(occ_slots),
        reflection_time=_slot_set(refl_slots),
        states=states,
        reflections=reflections,
        mapping=list(enumerate(perm)),
        measures=MeasureAssignment(
            noumenon={k: rng.randint(1, 9) for k in noumena},
            carrier={k: rng.randint(1, 100) for k in carrier_ids},
            reflection=reflection_measure,
        ),
        copies=[CopyRecord(rng.randint(1, 100), rng.randint(1, 3)) for _ in range(copies)],
    )
    restore_index = rng.randrange(n)
    planted = Planted(
        volume=sum(reflection_measure.values()),
        delay=Fraction(refl_slots[-1][1] - occ_slots[-1][1], 1000),
        restore_index=restore_index,
        preimage_key=states[perm.index(restore_index)].key(),
    )
    return model, planted


def relation_doc(rng: random.Random, n: int, classes: int) -> dict:
    """An equivalence relation labelling every state, using every class."""
    labels = [f"class{i % classes}" for i in range(n)]
    rng.shuffle(labels)
    return {"labels": {str(i): lab for i, lab in enumerate(labels)}}


def edges_doc(rng: random.Random, n: int, count: int) -> dict:
    return {
        "edges": [
            [rng.randrange(n), rng.randrange(n), rng.choice(EDGE_LABELS)] for _ in range(count)
        ]
    }


def target_doc(doc: dict, rng: random.Random) -> dict:
    """Same shape as `doc`, with every numeric state and reflection value
    perturbed."""
    out = dict(doc)
    for side in ("states", "reflections"):
        out[side] = [dict(e, value=_perturb(e["value"], rng)) for e in doc[side]]
    return out


def report_bundle(rng: random.Random, n: int) -> tuple[dict, Planted]:
    """One `report_large` input: model, target, 7-class relation, n edges."""
    model, planted = information_model(rng, n, carriers=64, intervals=50, pieces=3)
    doc = model_doc(model)
    bundle = {
        "model": doc,
        "target": target_doc(doc, rng),
        "relation": relation_doc(rng, n, classes=7),
        "edges": edges_doc(rng, n, count=n),
    }
    return bundle, planted


def small_model_bundle(
    rng: random.Random, n: int, carriers: int, intervals: int
) -> tuple[dict, Planted]:
    """One `many_small` model op: a model of `n` states plus a relation and
    `n` edges over it."""
    model, planted = information_model(
        rng, n, carriers=carriers, intervals=intervals, pieces=3, copies=1
    )
    bundle = {
        "model": model_doc(model),
        "relation": relation_doc(rng, n, classes=min(n, 3)),
        "edges": edges_doc(rng, n, count=n),
    }
    return bundle, planted


def chain_bundle(rng: random.Random, links: int = 3, width: int = 8) -> tuple[dict, Fraction]:
    """A serial chain of `links` restorable links of `width` states each.

    Layer k's entries are link k's reflections and link k+1's states, so
    every junction hands over exactly. Returns the chain document and the
    exact sum of the link delays.
    """
    layers = []
    slot_sets = []
    origin = 0
    for k in range(links + 1):
        slots = _slots(rng, 2, origin)
        origin = slots[-1][1] + 1000 * rng.randint(1, 30)
        subjects = [f"e{k}.{i}" for i in range(rng.randint(1, 3))]
        entries = [
            StateEntry(
                rng.sample(subjects, rng.randint(1, len(subjects))),
                _sub_timeset(rng, slots, rng.randint(1, 2)),
                _reflection_value(rng, rng.randrange(3), i),
            )
            for i in range(width)
        ]
        layers.append((subjects, entries))
        slot_sets.append(slots)
    docs = []
    total = Fraction(0)
    for k in range(links):
        (left_ids, left), (right_ids, right) = layers[k], layers[k + 1]
        perm = list(range(width))
        rng.shuffle(perm)
        link = InformationModel(
            noumena=left_ids,
            carriers=right_ids,
            occurrence=_slot_set(slot_sets[k]),
            reflection_time=_slot_set(slot_sets[k + 1]),
            states=left,
            reflections=right,
            mapping=list(enumerate(perm)),
            measures=MeasureAssignment(
                noumenon={e: rng.randint(1, 9) for e in left_ids},
                carrier={e: rng.randint(1, 9) for e in right_ids},
                reflection={j: rng.randint(1, 99) for j in range(width)},
            ),
        )
        docs.append(model_doc(link))
        total += Fraction(slot_sets[k + 1][-1][1] - slot_sets[k][-1][1], 1000)
    return {"links": docs}, total


def search_bundle(rng: random.Random, candidates: int = 64) -> tuple[dict, int]:
    """Candidates with distinct occurrence windows, the last of which is
    planted as the target, so it is the only zero-mismatch candidate. The
    position is fixed so that a sequential search costs the same on every
    seed."""
    docs = []
    for i in range(candidates):
        model, _ = information_model(
            rng, rng.randint(4, 8), carriers=2, intervals=2, pieces=2,
            origin_ms=i * 3 * SLOT_MS, copies=1,
        )
        docs.append(model_doc(model))
    return {"candidates": docs, "target": docs[-1]}, candidates - 1


def kalman_doc(rng: random.Random, n: int = 4, p: int = 2, steps: int = 500) -> dict:
    """A stable n-state, p-measurement system and a simulated run of it."""

    def mat(rows, cols, scale):
        return [[rng.gauss(0.0, scale) for _ in range(cols)] for _ in range(rows)]

    def gram(m, ridge):
        k = len(m)
        return [
            [sum(m[i][t] * m[j][t] for t in range(k)) + (ridge if i == j else 0.0) for j in range(k)]
            for i in range(k)
        ]

    # 0.9·I plus small noise keeps the spectral radius below one
    A = [[(0.9 if i == j else 0.0) + rng.gauss(0.0, 0.05) for j in range(n)] for i in range(n)]
    H = mat(p, n, 1.0)
    Q = gram(mat(n, n, 0.3), 0.01)
    R = gram(mat(p, p, 0.3), 0.2)
    x = [rng.gauss(0.0, 1.0) for _ in range(n)]
    z = []
    for _ in range(steps):
        x = [sum(A[i][j] * x[j] for j in range(n)) + rng.gauss(0.0, 0.3) for i in range(n)]
        z.append([sum(H[i][j] * x[j] for j in range(n)) + rng.gauss(0.0, 0.5) for i in range(p)])
    return {
        "A": A, "H": H, "Q": Q, "R": R,
        "x0": [0.0] * n,
        "P0": gram(mat(n, n, 0.5), 0.1),
        "z": z,
    }
