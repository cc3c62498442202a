"""The eleven information metrics over validated models.

Volume, scope, coverage and granularity read σ-measures off the model; delay,
duration and sampling rate are exact time arithmetic; variety and aggregation
count over user-supplied relations; distortion and mismatch are distances in a
configurable distance space.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from numbers import Integral
from operator import itemgetter
from typing import Sequence

from .errors import (
    DistanceError,
    GapError,
    MissingCopiesError,
    MissingMeasureError,
    PartialRelationError,
)
from .model import InformationModel, as_index, is_finite_real, key_index, require_valid, value_key
from .timeset import TimeSet, seconds


@dataclass(frozen=True)
class EquivalenceRelation:
    """A total labelling of state entries; equal labels mean one class."""

    labels: dict

    def __post_init__(self):
        object.__setattr__(self, "labels", {key_index(k): v for k, v in self.labels.items()})


@dataclass(frozen=True)
class RelationSet:
    """Labelled directed edges between state entries, by index."""

    edges: tuple

    def __init__(self, edges):
        object.__setattr__(
            self, "edges", tuple((as_index(a), as_index(b), lab) for a, b, lab in edges)
        )


DISTANCE_KINDS = ("discrete", "L1", "L2", "Linf")


@dataclass(frozen=True)
class DistanceSpec:
    """Distance kind plus per-component weights for the six model parts
    (noumena, occurrence, states, carriers, reflection time, reflections)."""

    kind: str = "L2"
    weights: tuple = (1, 1, 1, 1, 1, 1)

    def __post_init__(self):
        if self.kind not in DISTANCE_KINDS:
            raise DistanceError(f"unknown distance kind {self.kind!r}")
        w = tuple(self.weights)
        if len(w) != 6 or not all(is_finite_real(x) and x >= 0 for x in w) or not any(w):
            raise DistanceError("weights must be six finite, nonnegative values, not all zero")
        object.__setattr__(self, "weights", w)


def _exact_sum(values):
    if all(map(isinstance, values, repeat(int))):  # the usual measures skip the ABC checks
        return sum(values)
    if all(isinstance(v, (Integral, Fraction)) for v in values):
        return sum(values, Fraction(0) if any(isinstance(v, Fraction) for v in values) else 0)
    return math.fsum(values)


def _measured_sum(table, keys, kind: str):
    """Exact sum of `table` over `keys`; a key without a measure is an error."""
    missing = [k for k in keys if k not in table]
    if missing:
        raise MissingMeasureError(kind, missing)
    return _exact_sum([table[k] for k in keys])


def volume(model: InformationModel):
    """Sum of the σ-measures of the distinct reflection entries."""
    require_valid(model)
    return _measured_sum(model.measures.reflection, range(len(model.reflections)), "reflection")


def delay(model: InformationModel) -> Fraction:
    """sup of the reflection times minus sup of the occurrence times.

    The sign is kept: a carrier that finished reflecting before its noumenon
    finished occurring yields a negative delay, which `validate` flags as a
    warning rather than an error.
    """
    require_valid(model)
    return model.reflection_time.sup - model.occurrence.sup


def scope(model: InformationModel):
    """Sum of the σ-measures of the noumenon elements."""
    require_valid(model)
    return _measured_sum(model.measures.noumenon, sorted(model.noumena), "noumenon")


def granularity(model: InformationModel):
    """Average noumenon measure of the model's atoms (counting weights).

    A valid mapping pairs every state exactly once, so the atoms are the
    states themselves."""
    require_valid(model)
    table = model.measures.noumenon
    per_atom = [
        _measured_sum(table, sorted(state.subjects), "noumenon") for state in model.states
    ]
    total = _exact_sum(per_atom)
    if isinstance(total, (Integral, Fraction)):
        return Fraction(total, len(per_atom))
    return total / len(per_atom)


def _state_labels(model: InformationModel, relation: EquivalenceRelation) -> list:
    """The relation's label of each state, in index order; every state
    must have one."""
    missing = [i for i in range(len(model.states)) if i not in relation.labels]
    if missing:
        raise PartialRelationError(f"relation does not label states {missing}")
    return [relation.labels[i] for i in range(len(model.states))]


def variety(model: InformationModel, relation: EquivalenceRelation) -> int:
    """Number of equivalence classes the relation induces on the states."""
    require_valid(model)
    return len(set(_state_labels(model, relation)))


def duration(model: InformationModel) -> Fraction:
    """sup minus inf of the occurrence times; gaps inside do not matter."""
    require_valid(model)
    return model.occurrence.sup - model.occurrence.inf


def sampling_rate(model: InformationModel, gaps: Sequence[tuple] | None = None) -> Fraction:
    """Number of occurrence gaps divided by their total length.

    When no gaps are passed, the maximal open gaps of the occurrence set
    within [inf, sup] are used; explicit gaps must each lie in one of those
    and must not overlap each other. Exact arithmetic: k equal gaps of width
    w give exactly 1/w.
    """
    require_valid(model)
    occ = model.occurrence
    if gaps is None:
        # the maximal gaps are [inf, sup] less the components, each of
        # which a gap of positive width parts from the next
        count = len(occ.spans) + len(occ.marks) - 1
        total = occ.sup - occ.inf - occ.lebesgue()
    else:
        holes = occ.gaps()
        # An open gap misses the occurrence set exactly when one of its
        # maximal gaps holds it: the last one starting at or before lo. The
        # accepted gaps, kept as (lo, hi, input position) sorted by lo, are
        # disjoint, so they are sorted by hi too, and those a new gap
        # overlaps form one run of them; the error names the one given first.
        resolved = []
        for position, (lo, hi) in enumerate(gaps):
            lo_f, hi_f = seconds(lo), seconds(hi)
            if hi_f <= lo_f:
                raise GapError(f"gap ({lo_f}, {hi_f}) has no width")
            if lo_f < occ.inf or hi_f > occ.sup:
                raise GapError(f"gap ({lo_f}, {hi_f}) leaves [inf, sup] of the occurrence set")
            i = bisect_right(holes, lo_f, key=_lo) - 1
            if i < 0 or hi_f > holes[i][1]:
                raise GapError(f"gap ({lo_f}, {hi_f}) overlaps the occurrence times")
            first = bisect_right(resolved, lo_f, key=_hi)
            run = resolved[first : bisect_left(resolved, hi_f, key=_lo)]
            if run:
                plo, phi, _ = min(run, key=itemgetter(2))
                raise GapError(f"gap ({lo_f}, {hi_f}) overlaps gap ({plo}, {phi})")
            insort(resolved, (lo_f, hi_f, position), key=_lo)
        count = len(resolved)
        total = sum((gap[1] - gap[0] for gap in resolved), Fraction(0))
    if not count:
        raise GapError("occurrence set has no gaps to sample over")
    return Fraction(count) / total


_lo, _hi = itemgetter(0), itemgetter(1)


def aggregation(model: InformationModel, rels: RelationSet) -> Fraction:
    """Distinct labelled relations per distinct state value."""
    require_valid(model)
    value_of = model._state_firsts
    edges = set()
    for a, b, lab in rels.edges:
        if not (0 <= a < len(value_of) and 0 <= b < len(value_of)):
            raise PartialRelationError(f"edge ({a}, {b}, {lab!r}) references unknown states")
        edges.add((value_of[a], value_of[b], lab))
    return Fraction(len(edges), len(set(value_of)))


def coverage(model: InformationModel):
    """Weighted sum of carrier measures over the model and all its copies.

    The copy list is explicit and includes the model itself as one record;
    a model without a copy list has no defined coverage.
    """
    require_valid(model)
    if model.copies is None:
        raise MissingCopiesError("model carries no copy records")
    return _exact_sum([c.carrier_measure * c.weight for c in model.copies])


def _value_distance(a, b, kind: str):
    ka, kb = value_key(a), value_key(b)
    if kind == "discrete":
        return 0 if ka == kb else 1
    if ka[0] != kb[0]:
        # values of different kinds are incomparable under the Lp metrics
        raise DistanceError(f"cannot compare {a!r} with {b!r}")
    if ka[0] == "sym":
        return 0 if ka == kb else 1  # symbols only carry the discrete metric
    if ka[0] == "num":
        return abs(a - b)
    if len(ka[1]) != len(kb[1]):
        raise DistanceError(f"vector dimensions differ: {len(ka[1])} vs {len(kb[1])}")
    return _combine_entry_distances([abs(x - y) for x, y in zip(ka[1], kb[1])], kind)


def distortion(restored, truth, spec: DistanceSpec = DistanceSpec()):
    """Distance between a restored value and the true value."""
    return _value_distance(restored, truth, spec.kind)


def _combine_entry_distances(dists, kind: str):
    if kind == "discrete":
        return 0 if all(d == 0 for d in dists) else 1
    if kind == "L1":
        return _exact_sum(dists)
    if kind == "Linf":
        return max(dists, default=0)
    return math.sqrt(math.fsum(float(d) * float(d) for d in dists))


def _state_set_distance(left, right, kind: str):
    """Distance between two entry lists, on their values.

    Aligned lists (equal length, pairwise comparable values) get the product
    metric of the chosen kind; unalignable lists fall back to the discrete
    0/1 distance on whole-set equality, which sits outside the metric-axiom
    domain and is only meant as a coarse signal.
    """
    if left == right:
        return 0
    if len(left) != len(right):
        return 1
    try:
        dists = [_value_distance(a.value, b.value, kind) for a, b in zip(left, right)]
    except DistanceError:
        return 1
    return _combine_entry_distances(dists, kind)


def _timeset_distance(a: TimeSet, b: TimeSet) -> Fraction:
    return abs(a.sup - b.sup) + abs(a.inf - b.inf)


def mismatch(
    model: InformationModel,
    target: InformationModel,
    spec: DistanceSpec = DistanceSpec(),
):
    """Weighted distance between two models across their six components.

    Element sets compare 0/1, time sets compare by |sup−sup| + |inf−inf|,
    and the two entry lists compare by the chosen value metric.
    """
    require_valid(model)
    require_valid(target)
    w = spec.weights
    parts = [
        0 if model.noumena == target.noumena else 1,
        _timeset_distance(model.occurrence, target.occurrence),
        _state_set_distance(model.states, target.states, spec.kind),
        0 if model.carriers == target.carriers else 1,
        _timeset_distance(model.reflection_time, target.reflection_time),
        _state_set_distance(model.reflections, target.reflections, spec.kind),
    ]
    return _exact_sum([wi * pi for wi, pi in zip(w, parts)])


def metric_report(
    model: InformationModel,
    relation: EquivalenceRelation | None = None,
    relations: RelationSet | None = None,
    gaps: Sequence[tuple] | None = None,
    spec: DistanceSpec = DistanceSpec(),
    restored=None,
    truth=None,
    target: InformationModel | None = None,
) -> dict:
    """Compute every metric the supplied inputs allow, as one report dict.

    Metrics whose inputs are absent (or whose preconditions fail) appear with
    a "skipped" note instead of a value, so a report is always produced for a
    valid model.
    """
    require_valid(model)
    unit = model.measures.reflection_unit
    report: dict = {}

    def attempt(name, func, unit_label=""):
        try:
            report[name] = {"value": func(), "unit": unit_label}
        except (MissingMeasureError, MissingCopiesError, GapError) as exc:
            report[name] = {"skipped": str(exc)}

    attempt("volume", lambda: volume(model), unit)
    attempt("delay", lambda: delay(model), "s")
    attempt("scope", lambda: scope(model))
    attempt("granularity", lambda: granularity(model))
    attempt("duration", lambda: duration(model), "s")
    attempt("sampling_rate", lambda: sampling_rate(model, gaps), "1/s")
    attempt("coverage", lambda: coverage(model))
    if relation is not None:
        attempt("variety", lambda: variety(model, relation))
    else:
        report["variety"] = {"skipped": "no equivalence relation supplied"}
    if relations is not None:
        attempt("aggregation", lambda: aggregation(model, relations))
    else:
        report["aggregation"] = {"skipped": "no relation set supplied"}
    if restored is not None and truth is not None:
        report["distortion"] = {"value": distortion(restored, truth, spec), "unit": ""}
    else:
        report["distortion"] = {"skipped": "restored/truth values not supplied"}
    if target is not None:
        report["mismatch"] = {"value": mismatch(model, target, spec), "unit": ""}
    else:
        report["mismatch"] = {"skipped": "no target model supplied"}
    report["inputs"] = {
        "distance": {"kind": spec.kind, "weights": list(spec.weights)},
        "relation": None if relation is None else {str(k): v for k, v in relation.labels.items()},
        "relation_edges": None if relations is None else [list(e) for e in relations.edges],
    }
    return report
