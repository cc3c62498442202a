import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oitkit.errors import (
    DistanceError,
    GapError,
    InvalidModelError,
    MissingCopiesError,
    MissingMeasureError,
    PartialRelationError,
)
from oitkit.metrics import (
    DistanceSpec,
    EquivalenceRelation,
    RelationSet,
    aggregation,
    coverage,
    delay,
    distortion,
    duration,
    granularity,
    metric_report,
    mismatch,
    sampling_rate,
    scope,
    variety,
    volume,
)
from oitkit.model import CopyRecord, InformationModel, MeasureAssignment, StateEntry
from oitkit.timeset import TimeSet

from generate import random_restorable_model
from oracles import sampling_rate_by_definition


def flat_model(
    state_values,
    reflection_values=None,
    occurrence=TimeSet.span(0, 1),
    reflection_time=TimeSet.span(10, 11),
    noumenon_measure=None,
    reflection_measure=None,
    copies=None,
):
    reflection_values = reflection_values or [f"r-{v}" for v in state_values]
    assert len(state_values) == len(reflection_values)
    return InformationModel(
        noumena=["n"],
        carriers=["c"],
        occurrence=occurrence,
        reflection_time=reflection_time,
        states=[StateEntry(["n"], occurrence, v) for v in state_values],
        reflections=[StateEntry(["c"], reflection_time, v) for v in reflection_values],
        mapping=[(i, i) for i in range(len(state_values))],
        measures=MeasureAssignment(
            noumenon={"n": 1} if noumenon_measure is None else noumenon_measure,
            reflection=reflection_measure or {},
        ),
        copies=copies,
    )


# ------------------------------------------------- the validated model only

def _bad_measure(table: str, key):
    def fields(model, bad):
        old = getattr(model.measures, table)
        return {"measures": dataclasses.replace(model.measures, **{table: {**old, key: bad}})}

    return fields


@pytest.mark.parametrize("bad", [-5, math.nan], ids=["negative", "nan"])
@pytest.mark.parametrize(
    "metric, bad_fields",
    [
        pytest.param(volume, _bad_measure("reflection", 0), id="volume"),
        pytest.param(scope, _bad_measure("noumenon", "penguin-1"), id="scope"),
        pytest.param(granularity, _bad_measure("noumenon", "penguin-1"), id="granularity"),
        pytest.param(coverage, lambda model, bad: {"copies": [CopyRecord(bad)]}, id="coverage"),
    ],
)
def test_metrics_read_only_the_validated_model(penguin, metric, bad_fields, bad):
    # a table reaches a metric only inside a model, where `validate` checks it
    fields = bad_fields(penguin, bad)
    with pytest.raises(TypeError):
        metric(penguin, *fields.values())
    with pytest.raises(InvalidModelError):
        metric(dataclasses.replace(penguin, **fields))


# ---------------------------------------------------------------- volume

def test_penguin_volume_is_one_megabyte_in_bits(penguin):
    assert volume(penguin) == 8 * 2**20 == 8_388_608


def test_volume_adds_reflection_measures():
    m = flat_model(["a", "b", "c"], reflection_measure={0: 2, 1: 3, 2: 5})
    assert volume(m) == 10


def test_volume_missing_measure_lists_indices():
    m = flat_model(["a", "b"], reflection_measure={0: 1})
    with pytest.raises(MissingMeasureError) as err:
        volume(m)
    assert err.value.missing == [1]


def test_volume_strictly_increases_with_a_new_reflection():
    small = flat_model(["a"], reflection_measure={0: 4})
    grown = flat_model(["a", "b"], reflection_measure={0: 4, 1: 2})
    assert volume(grown) > volume(small)


# ---------------------------------------------------------------- delay

def test_penguin_delay_is_store_time_minus_shutter_close(penguin):
    assert delay(penguin) == Fraction("3599.99")


def test_zero_delay_for_identical_time_sets():
    t = TimeSet.span(3, 4)
    m = flat_model(["a"], occurrence=t, reflection_time=t)
    assert delay(m) == 0


def test_delay_is_exact_decimal_arithmetic():
    m = flat_model(
        ["a"],
        occurrence=TimeSet.span("0", "0.01"),
        reflection_time=TimeSet.span("5", "10"),
    )
    assert delay(m) == Fraction("9.99")


# ---------------------------------------------------------------- scope

def test_scope_single_target():
    m = flat_model(["a"], noumenon_measure={"n": 1})
    assert scope(m) == 1


def test_scope_network_node_count(network4):
    assert scope(network4) == 4


def test_scope_sums_fractional_measures():
    t, r = TimeSet.span(0, 1), TimeSet.span(2, 3)
    m = InformationModel(
        noumena=["a", "b"],
        carriers=["c"],
        occurrence=t,
        reflection_time=r,
        states=[StateEntry(["a", "b"], t, "s")],
        reflections=[StateEntry(["c"], r, "x")],
        mapping=[(0, 0)],
        measures=MeasureAssignment(noumenon={"a": 0.5, "b": 0.25}),
    )
    assert scope(m) == 0.75


def test_scope_missing_measure():
    m = flat_model(["a"], noumenon_measure={})
    with pytest.raises(MissingMeasureError):
        scope(m)


# ---------------------------------------------------------------- granularity

def test_granularity_uniform_atoms_exact():
    m = flat_model(["a", "b", "c"], noumenon_measure={"n": Fraction(1, 10)})
    assert granularity(m) == Fraction(1, 10)


def test_granularity_is_the_mean():
    t, r = TimeSet.span(0, 1), TimeSet.span(2, 3)
    m = InformationModel(
        noumena=["a", "b"],
        carriers=["c"],
        occurrence=t,
        reflection_time=r,
        states=[StateEntry(["a"], t, "s0"), StateEntry(["b"], t, "s1")],
        reflections=[StateEntry(["c"], r, "r0"), StateEntry(["c"], r, "r1")],
        mapping=[(0, 0), (1, 1)],
        measures=MeasureAssignment(noumenon={"a": 1, "b": 3}),
    )
    assert granularity(m) == 2


def test_granularity_single_atom():
    m = flat_model(["only"], noumenon_measure={"n": 7})
    assert granularity(m) == 7


# ---------------------------------------------------------------- variety

def test_variety_counts_classes():
    m = flat_model(list("abcdef"))
    labels = {0: "x", 1: "x", 2: "y", 3: "y", 4: "z", 5: "z"}
    assert variety(m, EquivalenceRelation(labels)) == 3
    assert variety(m, EquivalenceRelation({i: "one" for i in range(6)})) == 1
    assert variety(m, EquivalenceRelation({i: i for i in range(6)})) == 6


def test_variety_requires_total_relation():
    m = flat_model(["a", "b"])
    with pytest.raises(PartialRelationError):
        variety(m, EquivalenceRelation({0: "x"}))


def test_variety_never_exceeds_state_count():
    rng = random.Random(19)
    from generate import random_relation

    for _ in range(50):
        m = random_restorable_model(rng, with_duplicates=True)
        assert variety(m, random_relation(rng, m)) <= len(m.states)


# ---------------------------------------------------------------- duration

def test_duration_examples():
    assert duration(flat_model(["a"], occurrence=TimeSet.span("0", "0.01"))) == Fraction("0.01")
    assert duration(flat_model(["a"], occurrence=TimeSet.point(5))) == 0
    gappy = TimeSet(intervals=[(1, 2), (5, 9)])
    assert duration(flat_model(["a"], occurrence=gappy)) == 8


# ---------------------------------------------------------------- sampling rate

def test_sampling_rate_ten_equal_gaps():
    # occurrence: eleven points 0, 0.2, ..., 2.0 with ten 0.1-wide gaps in between
    pts = [Fraction(i, 5) for i in range(11)]
    occ = TimeSet(
        intervals=[(p, p + Fraction(1, 10)) for p in pts[:-1]], points=[pts[-1]]
    )
    m = flat_model(["a"], occurrence=occ)
    assert sampling_rate(m) == 10


def test_sampling_rate_single_gap():
    occ = TimeSet(intervals=[(0, 1), (5, 6)])
    m = flat_model(["a"], occurrence=occ)
    assert sampling_rate(m) == Fraction(1, 4)


def test_sampling_rate_exact_for_equal_gap_widths():
    rng = random.Random(1)
    for _ in range(20):
        k = rng.randint(1, 9)
        w = Fraction(rng.randint(1, 50), 100)
        pieces = []
        cursor = Fraction(0)
        for _ in range(k + 1):
            pieces.append((cursor, cursor + 1))
            cursor += 1 + w
        m = flat_model(["a"], occurrence=TimeSet(intervals=pieces))
        assert sampling_rate(m) == 1 / w


def test_sampling_rate_explicit_gaps_must_avoid_occurrence():
    occ = TimeSet(intervals=[(0, 1), (2, 3)])
    m = flat_model(["a"], occurrence=occ)
    assert sampling_rate(m, [(1, 2)]) == 1
    with pytest.raises(GapError):
        sampling_rate(m, [("0.5", 2)])
    with pytest.raises(GapError):
        sampling_rate(m, [(1, "1.5"), ("1.25", 2)])
    with pytest.raises(GapError):
        sampling_rate(flat_model(["a"], occurrence=TimeSet.span(0, 1)))


_HOLES = TimeSet(intervals=[(0, 1), (2, 3), (4, 5)])  # gaps (1, 2) and (3, 4)


@pytest.mark.parametrize(
    "occurrence, gaps, message",
    [
        (_HOLES, [("1.5", "1.5")], "gap (3/2, 3/2) has no width"),
        (_HOLES, [(3, 4), (2, 1)], "gap (2, 1) has no width"),
        (_HOLES, [(-1, "0.5")], "gap (-1, 1/2) leaves [inf, sup] of the occurrence set"),
        (_HOLES, [(3, 4), ("4.5", 6)], "gap (9/2, 6) leaves [inf, sup] of the occurrence set"),
        (_HOLES, [("0.5", 2)], "gap (1/2, 2) overlaps the occurrence times"),
        (_HOLES, [(1, 2), (3, "3.5"), (2, 3)], "gap (2, 3) overlaps the occurrence times"),
        # the earlier gap named is the first one it meets in input order
        (_HOLES, [("1.5", 2), (3, 4), (1, "1.25"), (1, 2)], "gap (1, 2) overlaps gap (3/2, 2)"),
        (_HOLES, [(1, "1.25"), ("1.5", 2), ("1.25", "1.75")], "gap (5/4, 7/4) overlaps gap (3/2, 2)"),
        (TimeSet.span(0, 1), None, "occurrence set has no gaps to sample over"),
        (_HOLES, [], "occurrence set has no gaps to sample over"),
    ],
)
def test_sampling_rate_gap_errors_name_the_gap(occurrence, gaps, message):
    m = flat_model(["a"], occurrence=occurrence)
    with pytest.raises(GapError) as err:
        sampling_rate(m, gaps)
    assert str(err.value) == message


def _eighths(lo, width):
    return Fraction(lo, 8), Fraction(lo + width, 8)


def _cells_and_a_cover(cells, cover, at):
    """Disjoint one-eighth gaps in random order, with `cover` put among them."""
    gaps = [_eighths(k, 1) for k in cells]
    gaps.insert(at % (len(gaps) + 1), cover)
    return gaps


_quarters = st.integers(0, 40).map(lambda k: Fraction(k, 4))
_occurrences = st.builds(
    lambda spans, points: TimeSet(intervals=spans, points=points),
    st.lists(st.tuples(_quarters, _quarters).map(sorted), max_size=6),
    st.lists(_quarters, min_size=1, max_size=4),
)
_WIDE_HOLES = TimeSet(intervals=[(0, 1), (9, 10)], points=[20])  # holes (1, 9) and (10, 20)
_short_gaps = st.builds(_eighths, st.integers(0, 160), st.integers(1, 16))


@given(
    st.one_of(
        st.tuples(_occurrences, st.none() | st.lists(st.tuples(_quarters, _quarters), max_size=8)),
        # overlap-heavy: many short gaps inside a few wide holes
        st.tuples(st.just(_WIDE_HOLES), st.lists(_short_gaps, max_size=30)),
        st.tuples(
            st.just(_WIDE_HOLES),
            st.builds(
                _cells_and_a_cover,
                st.lists(st.integers(8, 71), unique=True, max_size=24),
                _short_gaps,
                st.integers(0, 24),
            ),
        ),
    )
)
def test_sampling_rate_agrees_with_the_definition(case):
    occurrence, gaps = case

    def outcome(rate, *args):
        try:
            return rate(*args)
        except GapError as exc:
            return str(exc)

    assert outcome(sampling_rate, flat_model(["a"], occurrence=occurrence), gaps) == outcome(
        sampling_rate_by_definition, occurrence, gaps
    )


# ---------------------------------------------------------------- aggregation

def test_aggregation_examples():
    m = flat_model(["a", "b", "c"])
    six_edges = RelationSet(
        [(0, 1, "r"), (1, 0, "r"), (0, 2, "r"), (2, 0, "r"), (1, 2, "r"), (2, 1, "r")]
    )
    assert aggregation(m, six_edges) == 2
    assert aggregation(m, RelationSet([])) == 0


def test_aggregation_complete_relation_counts_n():
    for n in (1, 2, 5):
        m = flat_model([f"v{i}" for i in range(n)])
        complete = RelationSet([(i, j, "edge") for i in range(n) for j in range(n)])
        # independent count: n^2 ordered pairs over n distinct values
        assert len(set(complete.edges)) == n * n
        assert aggregation(m, complete) == n


def test_aggregation_duplicate_edges_count_once():
    m = flat_model(["a", "b"])
    rels = RelationSet([(0, 1, "r"), (0, 1, "r"), (0, 1, "other")])
    assert aggregation(m, rels) == 1


# ---------------------------------------------------------------- coverage

def test_coverage_examples(network4):
    assert coverage(network4) == 4
    single = flat_model(["a"], copies=[CopyRecord(3.5)])
    assert coverage(single) == 3.5
    several = flat_model(["a"], copies=[CopyRecord(2), CopyRecord(3), CopyRecord(5)])
    assert coverage(several) == 10


def test_coverage_weights_scale_records():
    m = flat_model(["a"], copies=[CopyRecord(2, weight=3)])
    assert coverage(m) == 6


def test_coverage_requires_copy_list():
    with pytest.raises(MissingCopiesError):
        coverage(flat_model(["a"]))


def test_coverage_strictly_increases_with_a_copy():
    base = flat_model(["a"], copies=[CopyRecord(1)])
    more = flat_model(["a"], copies=[CopyRecord(1), CopyRecord(2)])
    assert coverage(more) > coverage(base)


# ---------------------------------------------------------------- distortion

def test_distortion_zero_on_equal_values():
    assert distortion((1.0, 2.0), (1.0, 2.0)) == 0
    assert distortion("tok", "tok") == 0


def test_distortion_l2_example():
    assert distortion((1, 2), (1, 3)) == 1.0


def test_distortion_kinds():
    a, b = (0.0, 0.0), (3.0, 4.0)
    assert distortion(a, b, DistanceSpec("L1")) == 7
    assert distortion(a, b, DistanceSpec("L2")) == 5.0
    assert distortion(a, b, DistanceSpec("Linf")) == 4
    assert distortion(a, b, DistanceSpec("discrete")) == 1


def test_distortion_dimension_mismatch():
    with pytest.raises(DistanceError):
        distortion((1, 2), (1, 2, 3))


# ---------------------------------------------------------------- mismatch

def test_mismatch_self_is_zero(penguin, network4):
    assert mismatch(penguin, penguin) == 0
    assert mismatch(network4, network4) == 0


def test_mismatch_counts_only_the_changed_component(penguin):
    other = InformationModel(
        noumena=penguin.noumena,
        carriers=["desktop"],
        occurrence=penguin.occurrence,
        reflection_time=penguin.reflection_time,
        states=penguin.states,
        reflections=[
            StateEntry(["desktop"], e.time, e.value) for e in penguin.reflections
        ],
        mapping=penguin.mapping,
    )
    assert mismatch(penguin, other) == 1


def test_mismatch_time_component_is_sup_plus_inf_difference():
    a = flat_model(["x"], reflection_time=TimeSet.span(10, 11))
    b = flat_model(["x"], reflection_time=TimeSet.span(10, 13))
    assert mismatch(a, b) == 2


@pytest.mark.parametrize(
    "weights",
    [(math.nan, 1, 1, 1, 1, 1), (math.inf, 0, 0, 0, 0, 0), (1, 1, 1, 1, 1, -math.inf)],
    ids=repr,
)
def test_distance_weights_must_be_finite(weights):
    with pytest.raises(DistanceError, match="finite"):
        DistanceSpec(weights=weights)


def test_mismatch_weights_scale_components():
    a = flat_model(["x"], reflection_time=TimeSet.span(10, 11))
    b = flat_model(["x"], reflection_time=TimeSet.span(10, 13))
    spec = DistanceSpec(weights=(1, 1, 1, 1, 10, 1))
    assert mismatch(a, b, spec) == 20


# ------------------------------------------------- metric axioms (hypothesis)

values = st.one_of(
    st.text(alphabet="abcxyz", min_size=0, max_size=3),
    st.integers(-50, 50),
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)).map(
        lambda t: tuple(float(x) for x in t)
    ),
)


@given(values, values, values, st.sampled_from(["discrete", "L1", "L2", "Linf"]))
def test_distortion_metric_axioms(x, y, z, kind):
    spec = DistanceSpec(kind)

    def dist(a, b):
        try:
            return distortion(a, b, spec)
        except DistanceError:
            return None  # incomparable pair: outside the metric domain

    dxy, dyx = dist(x, y), dist(y, x)
    assert dist(x, x) == 0
    if dxy is None:
        return
    assert dxy >= 0
    assert dxy == dyx
    dxz, dyz = dist(x, z), dist(y, z)
    if dxz is not None and dyz is not None:
        assert dxz <= dxy + dyz + 1e-9


model_values = st.lists(st.integers(0, 5), min_size=1, max_size=4)


@given(model_values, model_values, model_values, st.sampled_from(["discrete", "L1", "L2", "Linf"]))
def test_mismatch_metric_axioms_on_aligned_models(va, vb, vc, kind):
    # shape-consistent family: same entry count, scalar values
    size = min(len(va), len(vb), len(vc))
    spec = DistanceSpec(kind)
    a, b, c = (flat_model([float(v) for v in vals[:size]]) for vals in (va, vb, vc))
    assert mismatch(a, a, spec) == 0
    dab = mismatch(a, b, spec)
    assert dab >= 0
    assert dab == mismatch(b, a, spec)
    assert mismatch(a, c, spec) <= dab + mismatch(b, c, spec) + 1e-9


def test_core_metrics_are_nonnegative_on_random_models():
    rng = random.Random(13)
    for _ in range(50):
        m = random_restorable_model(rng, with_duplicates=True)
        assert volume(m) >= 0
        assert scope(m) >= 0
        assert granularity(m) >= 0
        if m.copies is not None:
            assert coverage(m) >= 0
        assert mismatch(m, m) == 0


# ---------------------------------------------------------------- report

def test_metric_report_covers_all_metrics(penguin):
    report = metric_report(penguin)
    assert report["volume"] == {"value": 8_388_608, "unit": "bit"}
    assert report["delay"]["value"] == Fraction("3599.99")
    assert "skipped" in report["variety"]
    assert "skipped" in report["sampling_rate"]  # single interval: no gaps
    assert report["coverage"]["value"] == 1


def test_metric_report_with_optional_inputs(penguin):
    report = metric_report(
        penguin,
        relation=EquivalenceRelation({0: "cls"}),
        relations=RelationSet([(0, 0, "self")]),
        restored=(1.0, 2.0),
        truth=(1.0, 2.5),
        target=penguin,
    )
    assert report["variety"]["value"] == 1
    assert report["aggregation"]["value"] == 1
    assert report["distortion"]["value"] == 0.5
    assert report["mismatch"]["value"] == 0
