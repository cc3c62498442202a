import math
import random
from fractions import Fraction

import numpy as np
import pytest

from oitkit.classical import (
    LinearSystemSpec,
    SearchSetup,
    _spd_solve,
    aggregation_invariance_check,
    asl,
    bisection_average_depth,
    kalman_filter,
    metcalfe_value,
    mtbf_duration,
    network_value_check,
    nyquist_min_rate,
    nyquist_restorable,
    radar_max_range,
    rayleigh_granularity,
    search_min_mismatch,
    serial_chain_delay,
    shannon_min_volume,
    variety_invariance_check,
)
from oitkit.errors import NotRestorableError, SearchError, SingularInnovationError
from oitkit.metrics import EquivalenceRelation, RelationSet, delay, duration, mismatch
from oitkit.model import InformationModel, StateEntry, compose_chain
from oitkit.timeset import TimeSet

from generate import (
    random_chain,
    random_relation,
    random_relation_set,
    random_restorable_model,
    random_system,
)
from oracles import average_probes, batch_mmse, radar_range_by_bisection

# ---------------------------------------------------------------- entropy

def test_entropy_dyadic_cases_are_exact():
    assert shannon_min_volume([0.5, 0.5]) == 1.0
    assert shannon_min_volume([0.5, 0.25, 0.25]) == 1.5
    assert shannon_min_volume([1]) == 0.0
    assert shannon_min_volume([0.125] * 8) == 3.0


def test_entropy_zero_probabilities_contribute_nothing():
    assert shannon_min_volume([0.5, 0.5, 0.0]) == 1.0


def test_entropy_rejects_bad_distributions():
    with pytest.raises(ValueError):
        shannon_min_volume([0.5, 0.6])
    with pytest.raises(ValueError):
        shannon_min_volume([1.5, -0.5])


def test_entropy_bounds_on_random_simplex_points():
    rng = random.Random(2)
    for _ in range(500):
        n = rng.randint(1, 12)
        raw = [rng.random() for _ in range(n)]
        total = sum(raw)
        p = [x / total for x in raw]
        h = shannon_min_volume(p)
        assert 0.0 <= h <= math.log2(n) + 1e-12


# ---------------------------------------------------------------- serial delay

def test_serial_chain_delay_examples():
    assert serial_chain_delay([1, 2, 3]) == 6
    assert serial_chain_delay(["0.5"]) == Fraction(1, 2)


def test_serial_chain_delay_matches_composed_model():
    rng = random.Random(31)
    for _ in range(25):
        chain = random_chain(rng, links=rng.randint(1, 5), states=rng.randint(1, 3))
        composed = compose_chain(chain)
        assert serial_chain_delay([delay(l) for l in chain]) == delay(composed)


# ---------------------------------------------------------------- radar

def test_radar_range_frozen_value():
    # independently derived: (1e9 / ((4*pi)^2 * 1e-13))^(1/4) = 8.9206e4 m
    r = radar_max_range(1e6, 1e3, 1.0, 1e-13, 1.0)
    assert r == pytest.approx(8.9206e4, rel=1e-4)


def test_radar_range_matches_root_finding_oracle():
    rng = random.Random(4)
    for _ in range(20):
        args = (
            10 ** rng.uniform(3, 7),
            10 ** rng.uniform(1, 4),
            10 ** rng.uniform(-1, 1),
            10 ** rng.uniform(-14, -10),
            10 ** rng.uniform(-1, 2),
        )
        assert radar_max_range(*args) == pytest.approx(
            radar_range_by_bisection(*args), rel=1e-9
        )


def test_radar_range_quartic_scaling():
    base = radar_max_range(1e6, 1e3, 1.0, 1e-13, 1.0)
    for factor in (2.0, 16.0, 0.5):
        scaled = radar_max_range(1e6, 1e3, 1.0, 1e-13, factor)
        assert scaled == pytest.approx(base * factor**0.25, rel=1e-12)
    assert radar_max_range(1e6, 1e3, 1.0, 1e-13, 16.0) == pytest.approx(2 * base, rel=1e-12)


def test_radar_range_rejects_nonpositive_inputs():
    with pytest.raises(ValueError):
        radar_max_range(0, 1, 1, 1, 1)


# ---------------------------------------------------------------- rayleigh

def test_rayleigh_ratio_and_proportionality():
    assert rayleigh_granularity(500e-9, 5e-3) == pytest.approx(1e-4, rel=1e-12)
    base = rayleigh_granularity(500e-9, 5e-3)
    assert rayleigh_granularity(1000e-9, 5e-3) == pytest.approx(2 * base, rel=1e-12)
    assert rayleigh_granularity(500e-9, 10e-3) == pytest.approx(base / 2, rel=1e-12)
    with pytest.raises(ValueError):
        rayleigh_granularity(0, 1)


def test_rayleigh_equals_granularity_of_a_pixel_model():
    # an image whose four pixel atoms each resolve one angle of l/a
    from oitkit.metrics import granularity
    from oitkit.model import InformationModel, MeasureAssignment

    angle = rayleigh_granularity(500e-9, 5e-3)
    shutter, stored = TimeSet.span("0", "0.01"), TimeSet.span(1, 2)
    pixels = [f"pixel-{i}" for i in range(4)]
    m = InformationModel(
        noumena=pixels,
        carriers=["camera"],
        occurrence=shutter,
        reflection_time=stored,
        states=[StateEntry([p], shutter, f"patch-{p}") for p in pixels],
        reflections=[StateEntry(["camera"], stored, f"sample-{p}") for p in pixels],
        mapping=[(i, i) for i in range(4)],
        measures=MeasureAssignment(noumenon={p: angle for p in pixels}),
    )
    assert granularity(m) == angle


# ------------------------------------------------------- invariance checks

def test_variety_invariance_identity_model():
    t, r = TimeSet.span(0, 1), TimeSet.span(2, 3)
    m = InformationModel(
        noumena=["n"], carriers=["c"], occurrence=t, reflection_time=r,
        states=[StateEntry(["n"], t, f"s{i}") for i in range(3)],
        reflections=[StateEntry(["c"], r, f"r{i}") for i in range(3)],
        mapping=[(i, i) for i in range(3)],
    )
    result = variety_invariance_check(m, EquivalenceRelation({0: "a", 1: "b", 2: "c"}))
    assert (result.state_side, result.reflection_side, result.equal) == (3, 3, True)


def test_variety_invariance_randomized():
    rng = random.Random(17)
    for _ in range(200):
        m = random_restorable_model(rng, with_duplicates=True)
        result = variety_invariance_check(m, random_relation(rng, m))
        assert result.equal


def test_variety_invariance_rejects_non_restorable():
    t, r = TimeSet.span(0, 1), TimeSet.span(2, 3)
    m = InformationModel(
        noumena=["n"], carriers=["c"], occurrence=t, reflection_time=r,
        states=[StateEntry(["n"], t, "s0"), StateEntry(["n"], t, "s1")],
        reflections=[StateEntry(["c"], r, "r0")],
        mapping=[(0, 0), (1, 0)],
    )
    with pytest.raises(NotRestorableError):
        variety_invariance_check(m, EquivalenceRelation({0: "a", 1: "a"}))


def test_aggregation_invariance_identity_and_edgeless():
    t, r = TimeSet.span(0, 1), TimeSet.span(2, 3)
    m = InformationModel(
        noumena=["n"], carriers=["c"], occurrence=t, reflection_time=r,
        states=[StateEntry(["n"], t, f"s{i}") for i in range(3)],
        reflections=[StateEntry(["c"], r, f"r{i}") for i in range(3)],
        mapping=[(i, i) for i in range(3)],
    )
    rels = RelationSet([(0, 1, "x"), (1, 2, "x")])
    result = aggregation_invariance_check(m, rels)
    assert result.equal
    empty = aggregation_invariance_check(m, RelationSet([]))
    assert (empty.state_side, empty.reflection_side, empty.equal) == (0, 0, True)


def test_aggregation_invariance_randomized():
    rng = random.Random(23)
    for _ in range(200):
        m = random_restorable_model(rng, with_duplicates=True)
        result = aggregation_invariance_check(m, random_relation_set(rng, m))
        assert result.equal


# ---------------------------------------------------------------- mtbf

def test_mtbf_examples():
    assert mtbf_duration([(10, 0), (20, 0), (30, 0)]) == 20
    assert mtbf_duration([(7, 2)]) == 5
    with pytest.raises(ValueError):
        mtbf_duration([])
    with pytest.raises(ValueError):
        mtbf_duration([(0, 10)])


def test_mtbf_matches_per_session_durations():
    rng = random.Random(3)
    models = [random_restorable_model(rng) for _ in range(10)]
    sessions = [(m.occurrence.sup, m.occurrence.inf) for m in models]
    expected = sum(duration(m) for m in models) / len(models)
    assert mtbf_duration(sessions) == expected


# ---------------------------------------------------------------- nyquist

def test_nyquist_rate_examples():
    assert nyquist_min_rate("0.5") == 1
    assert nyquist_restorable(1, "0.5")  # boundary inclusive
    assert not nyquist_restorable("0.999", "0.5")
    with pytest.raises(ValueError):
        nyquist_min_rate(0)


def test_sampling_with_gaps_of_half_a_period_is_restorable():
    # occurrence sampled with equal gaps of width T/2: the measured rate is
    # 2/T, which clears the 1/(2T) minimum with room to spare
    from oitkit.metrics import sampling_rate

    T = Fraction(2)
    gap = T / 2
    pieces, cursor = [], Fraction(0)
    for _ in range(5):
        pieces.append((cursor, cursor + Fraction(1, 2)))
        cursor += Fraction(1, 2) + gap
    occ = TimeSet(intervals=pieces)
    m = InformationModel(
        noumena=["signal"], carriers=["sampler"],
        occurrence=occ, reflection_time=TimeSet.span(100, 101),
        states=[StateEntry(["signal"], occ, "waveform")],
        reflections=[StateEntry(["sampler"], TimeSet.span(100, 101), "samples")],
        mapping=[(0, 0)],
    )
    rate = sampling_rate(m)
    assert rate == 2 / T == 1
    assert nyquist_restorable(rate, T)
    assert rate >= nyquist_min_rate(T)


# ---------------------------------------------------------------- metcalfe

def test_metcalfe_examples(network4):
    assert metcalfe_value(4) == 16
    assert metcalfe_value(0) == 0
    result = network_value_check(network4)
    assert result.metcalfe == 16
    assert result.scope_times_coverage == 16
    assert result.equal


# ---------------------------------------------------------------- kalman

def test_kalman_scalar_hand_recursion():
    system = LinearSystemSpec(A=[[1]], H=[[1]], Q=[[0]], R=[[1]], x0=[0], P0=[[1]])
    steps = kalman_filter(system, [[1], [3]])
    assert steps[0].x[0] == pytest.approx(0.5, abs=1e-12)
    assert steps[1].x[0] == pytest.approx(4 / 3, abs=1e-12)
    assert steps[1].P[0, 0] == pytest.approx(1 / 3, abs=1e-12)


def test_kalman_trusts_measurements_when_noise_vanishes():
    system = LinearSystemSpec(
        A=[[1]], H=[[1]], Q=[[0]], R=[[1e-14]], x0=[0], P0=[[1]]
    )
    steps = kalman_filter(system, [[5.0], [5.0]])
    # vanishing measurement noise against an O(1) prior: full trust at once
    assert steps[0].gain[0, 0] == pytest.approx(1.0, abs=1e-10)
    assert steps[0].x[0] == pytest.approx(5.0, abs=1e-9)
    # Q = 0 pins a constant state, so consistent measurements keep tracking z
    assert steps[1].x[0] == pytest.approx(5.0, abs=1e-9)


def test_kalman_matches_batch_mmse_oracle():
    rng = np.random.default_rng(12)
    for _ in range(30):
        system, z = random_system(rng)
        steps = kalman_filter(system, z)
        for k, step in enumerate(steps, start=1):
            oracle = batch_mmse(system, z, k)
            scale = max(1.0, float(np.max(np.abs(oracle))))
            assert float(np.max(np.abs(step.x - oracle))) / scale < 1e-9


def test_kalman_covariance_stays_psd():
    rng = np.random.default_rng(99)
    for _ in range(20):
        system, z = random_system(rng)
        for step in kalman_filter(system, z):
            assert np.allclose(step.P, step.P.T)
            assert float(np.min(np.linalg.eigvalsh(step.P))) >= -1e-10


def test_kalman_with_control_inputs_shifts_the_prediction():
    system = LinearSystemSpec(
        A=[[1]], H=[[1]], Q=[[0]], R=[[1]], x0=[0], P0=[[1]], B=[[1]]
    )
    plain = LinearSystemSpec(A=[[1]], H=[[1]], Q=[[0]], R=[[1]], x0=[0], P0=[[1]])
    with_u = kalman_filter(system, [[1], [3]], inputs=[[0.5], [0.5]])
    without = kalman_filter(plain, [[1], [3]])
    assert with_u[0].x[0] != without[0].x[0]
    # zero input reduces to the autonomous run
    zero_u = kalman_filter(system, [[1], [3]], inputs=[[0.0], [0.0]])
    assert zero_u[1].x[0] == pytest.approx(without[1].x[0], abs=1e-15)


def test_kalman_spec_validation():
    with pytest.raises(ValueError):
        LinearSystemSpec(A=[[1, 0]], H=[[1]], Q=[[0]], R=[[1]], x0=[0], P0=[[1]])
    with pytest.raises(ValueError):
        LinearSystemSpec(A=[[1]], H=[[1]], Q=[[0]], R=[[0]], x0=[0], P0=[[1]])
    with pytest.raises(ValueError):
        LinearSystemSpec(A=[[1]], H=[[1]], Q=[[-1]], R=[[1]], x0=[0], P0=[[1]])
    with pytest.raises(ValueError):
        LinearSystemSpec(A=[[1]], H=[[1]], Q=[[0]], R=[[1]], x0=[0, 0], P0=[[1]])


@pytest.mark.parametrize(
    "name, message",
    [(m, f"{m} must hold only finite numbers") for m in ("A", "H", "Q", "R", "x0", "P0", "B")]
    + [("z", "measurements must be finite numbers"), ("U", "inputs must be finite numbers")],
)
@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=repr)
def test_kalman_rejects_non_finite_numbers(name, message, bad):
    parts = {
        "A": [[1.0]], "H": [[1.0]], "Q": [[0.0]], "R": [[1.0]], "x0": [0.0], "P0": [[1.0]],
        "B": [[1.0]], "z": [[1.0], [3.0]], "U": [[0.5], [0.5]],
    }
    if name == "x0":
        parts[name] = [bad]
    else:
        parts[name][-1] = [bad]
    z, inputs = parts.pop("z"), parts.pop("U")
    with pytest.raises(ValueError, match=f"^{message}$"):
        kalman_filter(LinearSystemSpec(**parts), z, inputs)


def test_kalman_measurement_dimension_checked():
    system = LinearSystemSpec(A=[[1]], H=[[1]], Q=[[0]], R=[[1]], x0=[0], P0=[[1]])
    with pytest.raises(ValueError):
        kalman_filter(system, [[1, 2]])


def test_kalman_without_measurements_says_so():
    system = LinearSystemSpec(A=[[1]], H=[[1]], Q=[[0]], R=[[1]], x0=[0], P0=[[1]])
    with pytest.raises(ValueError, match="^at least one measurement is required$"):
        kalman_filter(system, [])


def test_kalman_overflow_raises_floating_point_error():
    system = LinearSystemSpec(A=[[1]], H=[[1]], Q=[[1e308]], R=[[1]], x0=[0], P0=[[1e308]])
    with pytest.raises(FloatingPointError, match="overflow encountered in add"):
        kalman_filter(system, [[1], [3]])


def test_spd_solve_rejects_singular_innovation():
    with pytest.raises(SingularInnovationError):
        _spd_solve(np.array([[1.0, 1.0], [1.0, 1.0]]), np.eye(2))


def test_filter_distortion_equals_independent_euclidean_error():
    # the distance between the filtered estimate and the simulated truth,
    # measured by the distortion metric, matches a plain norm computation
    from oitkit.metrics import distortion

    rng = np.random.default_rng(21)
    system, _ = random_system(rng, max_dim=2, max_steps=10)
    truth = []
    x = system.x0.copy()
    z = []
    for _ in range(8):
        x = system.A @ x + rng.multivariate_normal(np.zeros(system.state_dim), system.Q)
        truth.append(x.copy())
        z.append(system.H @ x + rng.multivariate_normal(
            np.zeros(system.measurement_dim), system.R))
    steps = kalman_filter(system, np.array(z))
    for step, true_state in zip(steps, truth):
        expected = float(np.sqrt(np.sum((step.x - true_state) ** 2)))
        measured = distortion(tuple(step.x), tuple(true_state))
        assert measured == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------- ASL

def test_sequential_asl():
    assert asl("sequential", 7) == 4
    assert asl("sequential", 1) == 1
    assert asl("sequential", 10) == Fraction(11, 2)
    assert asl("sequential", 10**18) == Fraction(10**18 + 1, 2)


def test_bisection_asl_closed_form_matches_bruteforce():
    assert asl("bisection", 7) == Fraction(17, 7)
    for n in (1, 3, 7, 15, 31):
        total, count = average_probes(n)
        assert asl("bisection", n) == Fraction(total, count)
        assert bisection_average_depth(n) == Fraction(total, count)


def test_bisection_average_depth_general_n_matches_search_simulation():
    for n in (2, 5, 6, 10, 100):
        total, count = average_probes(n)
        assert bisection_average_depth(n) == Fraction(total, count)


def test_asl_rejects_bad_n():
    with pytest.raises(ValueError):
        asl("sequential", 0)
    with pytest.raises(ValueError):
        asl("bisection", 6)  # not 2^h - 1
    with pytest.raises(ValueError):
        asl("bogus", 3)


def test_asl_with_explicit_probabilities():
    # all mass on the last slot: sequential cost is n
    assert asl("sequential", 4, [0, 0, 0, 1]) == 4


# ---------------------------------------------------------------- search

def candidate_family(count):
    models = []
    for i in range(count):
        t = TimeSet.span(0, 1)
        r = TimeSet.span(10, 11 + i)
        models.append(
            InformationModel(
                noumena=["n"], carriers=["c"], occurrence=t, reflection_time=r,
                states=[StateEntry(["n"], t, "s")],
                reflections=[StateEntry(["c"], r, f"r{i}")],
                mapping=[(0, 0)],
            )
        )
    return models


def test_search_exhausts_when_nothing_meets_threshold():
    candidates = candidate_family(5)
    target = candidate_family(9)[8]  # sup differs from every candidate
    setup = SearchSetup(candidates, target, threshold=0)
    result = search_min_mismatch(setup)
    assert result.comparisons == 5
    assert result.index == 4  # closest reflection-time sup
    assert result.mismatch == mismatch(candidates[4], target)
    assert result.mismatch > 0


def test_search_stops_early_at_threshold():
    candidates = candidate_family(5)
    setup = SearchSetup(candidates, candidates[2], threshold=0)
    result = search_min_mismatch(setup)
    assert result.index == 2
    assert result.comparisons == 3
    assert result.mismatch == 0


def test_search_breaks_ties_at_lowest_index():
    candidates = candidate_family(3) + candidate_family(3)
    target = candidate_family(9)[8]
    result = search_min_mismatch(SearchSetup(candidates, target, threshold=0))
    assert result.comparisons == 6
    assert result.index == 2  # candidates 2 and 5 tie; lowest index wins


def test_search_bisection_order_visits_middle_first():
    candidates = candidate_family(7)
    setup = SearchSetup(candidates, candidates[3], threshold=0, algorithm="bisection")
    result = search_min_mismatch(setup)
    assert result.index == 3
    assert result.comparisons == 1
    # exhaustive bisection still compares everything
    target = candidate_family(9)[8]
    full = search_min_mismatch(
        SearchSetup(candidates, target, threshold=0, algorithm="bisection")
    )
    assert full.comparisons == 7


def test_search_setup_validation():
    with pytest.raises(SearchError):
        SearchSetup([], candidate_family(1)[0])
    with pytest.raises(SearchError):
        SearchSetup(candidate_family(2), candidate_family(1)[0], algorithm="warp")
    with pytest.raises(SearchError):
        SearchSetup(candidate_family(2), candidate_family(1)[0], order_keys=(1,))
