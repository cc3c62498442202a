import copy
import pickle
import re
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oitkit.io import timeset_from_json
from oitkit.timeset import NS, TimeSet, seconds, seconds_str, tick_str, ticks

from oracles import (
    FractionTimeSet,
    timeset_contains_bruteforce,
    timeset_issubset_bruteforce,
)


def test_parse_decimal_strings_exactly():
    assert seconds("0.01") == Fraction(1, 100)
    assert seconds("12.010") == Fraction(1201, 100)
    assert seconds(3) == Fraction(3)
    assert seconds(Fraction(1, 3)) == Fraction(1, 3)


def test_float_parses_through_shortest_repr():
    assert seconds(0.01) == Fraction(1, 100)
    assert seconds(0.1) == Fraction(1, 10)


def test_numpy_float_scalars_parse_like_floats():
    np = pytest.importorskip("numpy")
    assert seconds(np.float64(0.01)) == Fraction(1, 100)
    assert ticks(np.float64(-2.5)) == -2_500_000_000
    ts = TimeSet(intervals=[(np.float64(0.5), np.float64(1.25))], points=[np.float64(3.1)])
    assert ts == TimeSet(intervals=[("0.5", "1.25")], points=["3.1"])


def test_seconds_str_decimal_and_fallback():
    assert seconds_str(Fraction(1201, 100)) == "12.01"
    assert seconds_str(Fraction(999, 100)) == "9.99"
    assert seconds_str(Fraction(5)) == "5"
    assert seconds_str(Fraction(-3, 4)) == "-0.75"
    assert seconds_str(Fraction(1, 3)) == "1/3"


@given(
    st.integers(-(10**15), 10**15),
    st.integers(0, 30),
    st.integers(0, 30),
    st.sampled_from([1, 3, 7, 9]),
)
def test_seconds_str_is_exact_and_minimal(n, twos, fives, other):
    v = Fraction(n, 2**twos * 5**fives * other)
    text = seconds_str(v)
    if v.denominator % 3 == 0 or v.denominator % 7 == 0:
        assert text == f"{v.numerator}/{v.denominator}"
    else:
        assert re.fullmatch(r"-?(0|[1-9][0-9]*)(\.[0-9]*[1-9])?", text)
        assert Fraction(text) == v


def test_seconds_str_digit_count_does_not_search():
    value = Fraction(1, 2 * 10**8000)
    start = time.perf_counter()
    text = seconds_str(value)
    elapsed = time.perf_counter() - start
    assert text == "0." + "0" * 8000 + "5"
    assert elapsed < 0.1  # a search over 10**k, k = 0, 1, ..., takes about 0.4 s


@pytest.mark.parametrize(
    "text", ["1e1001", "-1e1001", "1E-1001", "1e+99999", "1e999999", "1e9999999", "2.5e1_001"]
)
def test_exponent_past_the_cap_is_refused_before_parsing(text):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="has an exponent beyond ±1000"):
        seconds(text)
    with pytest.raises(ValueError, match="has an exponent beyond ±1000"):
        ticks(text)
    assert time.perf_counter() - start < 0.05


def test_zero_denominator_is_a_value_error():
    with pytest.raises(ValueError, match="time '1/0' has a zero denominator"):
        ticks("1/0")


@pytest.mark.parametrize(
    "text, exact",
    [("1e1000", Fraction(10**1000)), ("-2.5E-1000", Fraction(-25, 10**1001)),
     ("1e0001000", Fraction(10**1000)), ("3e-0", Fraction(3))],
)
def test_exponent_up_to_the_cap_parses_exactly(text, exact):
    assert seconds(text) == exact
    assert ticks(text) == exact * NS


@pytest.mark.parametrize("value", [Decimal("1.5"), [1], None, 1j])
def test_unsupported_time_types_raise_type_error(value):
    with pytest.raises(TypeError):
        seconds(value)
    with pytest.raises(TypeError):
        TimeSet(points=[value])


def test_merges_overlapping_and_touching_intervals():
    ts = TimeSet(intervals=[(0, 1), (1, 2), (5, 6), (5.5, 7)])
    assert ts.intervals == ((Fraction(0), Fraction(2)), (Fraction(5), Fraction(7)))


def test_points_absorbed_by_intervals_and_deduplicated():
    ts = TimeSet(intervals=[(0, 1)], points=[0.5, 1, 3, 3])
    assert ts.points == (Fraction(3),)


def test_degenerate_interval_becomes_point():
    ts = TimeSet(intervals=[(2, 2)])
    assert ts.intervals == ()
    assert ts.points == (Fraction(2),)


def test_inf_sup_lebesgue():
    ts = TimeSet(intervals=[(1, 2), (5, 9)], points=[0, 11])
    assert ts.inf == 0
    assert ts.sup == 11
    assert ts.lebesgue() == 5


def test_gaps_between_components():
    ts = TimeSet(intervals=[(1, 2), (5, 9)])
    assert ts.gaps() == [(Fraction(2), Fraction(5))]
    ts2 = TimeSet(intervals=[(0, 1)], points=[3])
    assert ts2.gaps() == [(Fraction(1), Fraction(3))]
    assert TimeSet(intervals=[(0, 1)]).gaps() == []


def test_subset_and_contains():
    big = TimeSet(intervals=[(0, 10)], points=[20])
    assert TimeSet(intervals=[(2, 3)]).issubset(big)
    assert TimeSet(points=[20]).issubset(big)
    assert not TimeSet(intervals=[(9, 11)]).issubset(big)
    assert big.contains("7.5")
    assert not big.contains(15)


def test_rejects_empty_and_reversed():
    with pytest.raises(ValueError):
        TimeSet()
    with pytest.raises(ValueError):
        TimeSet(intervals=[(2, 1)])


cents = st.integers(min_value=-10_000, max_value=10_000).map(lambda n: Fraction(n, 100))


@st.composite
def timesets(draw):
    n_intervals = draw(st.integers(0, 4))
    intervals = []
    for _ in range(n_intervals):
        a, b = sorted([draw(cents), draw(cents)])
        intervals.append((a, b))
    points = draw(st.lists(cents, max_size=3))
    if not intervals and not points:
        points = [draw(cents)]
    return TimeSet(intervals=intervals, points=points)


@given(timesets())
def test_canonical_form_invariants(ts):
    for (_, hi), (lo2, _) in zip(ts.intervals, ts.intervals[1:]):
        assert hi < lo2  # sorted, disjoint, not touching
    for lo, hi in ts.intervals:
        assert lo < hi  # degenerates became points
    for p in ts.points:
        assert not any(lo <= p <= hi for lo, hi in ts.intervals)
    assert ts.lebesgue() >= 0
    assert ts.inf <= ts.sup


@given(timesets(), timesets())
def test_union_contains_both(a, b):
    u = a.union(b)
    assert a.issubset(u)
    assert b.issubset(u)
    assert u.lebesgue() <= a.lebesgue() + b.lebesgue()


@given(timesets())
def test_gap_widths_fill_the_span(ts):
    # components plus gaps tile [inf, sup] exactly
    total_gap = sum((hi - lo for lo, hi in ts.gaps()), Fraction(0))
    assert ts.lebesgue() + total_gap == ts.sup - ts.inf


# Coordinates on a coarse half-second grid, so that generated sets share and
# touch endpoints and put points on interval boundaries as well as inside.
grid = st.integers(min_value=0, max_value=16).map(lambda n: Fraction(n, 2))


@st.composite
def grid_timesets(draw):
    intervals = [tuple(sorted((draw(grid), draw(grid)))) for _ in range(draw(st.integers(0, 4)))]
    points = draw(st.lists(grid, max_size=3))
    if not intervals and not points:
        points = [draw(grid)]
    return TimeSet(intervals=intervals, points=points)


@st.composite
def subset_candidates(draw):
    """A set and a candidate subset drawn around its components: pieces of
    its intervals (often sharing their endpoints), its points and interval
    endpoints, and stray grid coordinates that may fall in a gap."""
    big = draw(grid_timesets())
    intervals, points = [], []
    for _ in range(draw(st.integers(1, 3))):
        choice = draw(st.sampled_from(("piece", "endpoint", "point", "stray")))
        if choice == "piece" and big.intervals:
            lo, hi = draw(st.sampled_from(big.intervals))
            inside = st.integers(0, 4).map(lambda k: lo + (hi - lo) * k / 4)
            intervals.append(tuple(sorted((draw(inside), draw(inside)))))
        elif choice == "endpoint" and big.intervals:
            points.append(draw(st.sampled_from(big.intervals))[draw(st.integers(0, 1))])
        elif choice == "point" and big.points:
            points.append(draw(st.sampled_from(big.points)))
        else:
            intervals.append(tuple(sorted((draw(grid), draw(grid)))))
    return TimeSet(intervals=intervals, points=points), big


@given(grid_timesets(), grid)
@example(TimeSet(intervals=[(0, 1), (2, 3)]), Fraction(1))
@example(TimeSet(intervals=[(0, 1), (2, 3)]), Fraction(3, 2))
@example(TimeSet(intervals=[(0, 1)], points=[2]), Fraction(2))
def test_contains_matches_linear_scan(ts, t):
    assert ts.contains(t) == timeset_contains_bruteforce(ts, t)


@given(subset_candidates())
@example((TimeSet(intervals=[(0, 1)]), TimeSet(intervals=[(0, 1), (2, 3)])))
@example((TimeSet(intervals=[(1, 2)]), TimeSet(intervals=[(0, 1), (2, 3)])))
@example((TimeSet(points=[1, 2]), TimeSet(intervals=[(0, 1), (2, 3)])))
@example((TimeSet(intervals=[(0, 2)]), TimeSet(intervals=[(0, 1)], points=[2])))
def test_issubset_matches_linear_scan(pair):
    small, big = pair
    assert small.issubset(big) == timeset_issubset_bruteforce(small, big)


@pytest.mark.parametrize(
    "value",
    ["12.010", "-0.5", "5.", "7", "-3", "0.123456789", "0.1234567891", "-1.0000000000005",
     "1e3", " 1.5", "+1.5", "1_000", ".5", "-.5", "1/3", "\uff11", "\u0663.5",
     12, -4, 0.01, 1e-07, 0.1234567890123, Fraction(1, 3), Fraction(-7, 2), True],
    ids=repr,
)
def test_ticks_agree_with_seconds(value):
    t = ticks(value)
    assert t == seconds(value) * NS
    assert type(t) is (int if (seconds(value) * NS).denominator == 1 else Fraction)


@pytest.mark.parametrize(
    "text", ["", "-", "--1", "1.2.3", "1..2", "abc", "nan", "inf", "1.5x", "\u00b2", "1.\u00b2"]
)
def test_ticks_reject_what_seconds_rejects(text):
    with pytest.raises(ValueError):
        seconds(text)
    with pytest.raises(ValueError):
        ticks(text)


@given(
    st.integers(-(10**15), 10**15)
    | st.builds(lambda n, d: Fraction(n, d), st.integers(-(10**12), 10**12), st.integers(1, 99))
)
def test_tick_str_matches_seconds_str(t):
    assert tick_str(t) == seconds_str(Fraction(t, NS))


def test_equal_values_in_different_forms_are_one_set():
    a = TimeSet(intervals=[("0.5", "2"), (3, "4.000000000000")], points=["-1.25"])
    b = TimeSet(intervals=[(Fraction(1, 2), 2.0), ("3.0", 4)], points=[Fraction(-5, 4)])
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != TimeSet(intervals=[("0.5", "2"), (3, "4.000000001")], points=["-1.25"])


def test_pickle_deepcopy_and_immutability():
    ts = TimeSet(intervals=[("0.5", "2"), (Fraction(1, 3), "0.6")], points=[7])
    assert ts.intervals == ((Fraction(1, 3), Fraction(2)),)
    for clone in (pickle.loads(pickle.dumps(ts)), copy.deepcopy(ts), copy.copy(ts)):
        assert clone == ts and hash(clone) == hash(ts)
        assert (clone.intervals, clone.points) == (ts.intervals, ts.points)
    for name in ("spans", "marks", "intervals", "points"):
        with pytest.raises(AttributeError):
            setattr(ts, name, ())
    assert ts.points == (Fraction(7),)


# Exact values, each spelled in one of the input forms that denote it
# exactly: decimal strings with up to 12 places (trailing zeros included),
# ints, floats whose shortest repr is the value, and Fractions. Sets drawn
# from one small pool of values share and touch endpoints, and equal values
# reach the constructor in different forms.
exact_values = st.builds(
    lambda n, k: Fraction(n, 10**k), st.integers(-(10**7), 10**7), st.integers(0, 12)
) | st.builds(Fraction, st.integers(-1000, 1000), st.integers(1, 12))


def _decimal(v: Fraction, places: int) -> str:
    scaled = v.numerator * 10**places // v.denominator
    digits = str(abs(scaled)).rjust(places + 1, "0")
    body = f"{digits[:-places]}.{digits[-places:]}" if places else digits
    return f"-{body}" if scaled < 0 else body


@st.composite
def spelled(draw, v: Fraction):
    forms = [v]
    places = next((k for k in range(13) if 10**k % v.denominator == 0), None)
    if places is not None:
        forms.append(_decimal(v, draw(st.integers(places, 12))))
    if v.denominator == 1:
        forms.append(int(v))
    if Fraction(repr(float(v))) == v:
        forms.append(float(v))
    return draw(st.sampled_from(forms))


@st.composite
def exact_inputs(draw, pool):
    intervals = [
        tuple(sorted((draw(st.sampled_from(pool)), draw(st.sampled_from(pool)))))
        for _ in range(draw(st.integers(0, 4)))
    ]
    points = draw(st.lists(st.sampled_from(pool), min_size=0 if intervals else 1, max_size=3))
    return intervals, points


@st.composite
def spelled_inputs(draw, inputs):
    """`inputs` with each time in one of its spellings."""
    intervals, points = inputs
    return (
        [(draw(spelled(lo)), draw(spelled(hi))) for lo, hi in intervals],
        [draw(spelled(p)) for p in points],
    )


@given(st.data())
def test_tick_axis_matches_fraction_reference(data):
    pool = data.draw(st.lists(exact_values, min_size=1, max_size=6, unique=True))
    inputs, other_inputs = data.draw(exact_inputs(pool)), data.draw(exact_inputs(pool))
    spelled_intervals, spelled_points = data.draw(spelled_inputs(inputs))
    ts = TimeSet(spelled_intervals, spelled_points)
    same = TimeSet(*data.draw(spelled_inputs(inputs)))
    other = TimeSet(*data.draw(spelled_inputs(other_inputs)))
    ref, other_ref = FractionTimeSet(*inputs), FractionTimeSet(*other_inputs)
    # the same spellings as a time-set document, read by the file reader
    read = timeset_from_json(
        {"intervals": [list(pair) for pair in spelled_intervals], "points": spelled_points}
    )
    assert read == ts
    assert (read.intervals, read.points) == (ref.intervals, ref.points)

    assert (ts.intervals, ts.points) == (ref.intervals, ref.points)
    assert all(type(t) is Fraction for pair in ts.intervals for t in pair)
    assert all(type(t) is Fraction for t in ts.points)
    assert (ts.inf, ts.sup, ts.lebesgue()) == (ref.inf, ref.sup, ref.lebesgue())
    parts = [f"[{seconds_str(lo)}, {seconds_str(hi)}]" for lo, hi in ref.intervals]
    assert str(ts) == " ∪ ".join(parts + ["{" + seconds_str(p) + "}" for p in ref.points])
    for v in pool:
        assert ts.contains(data.draw(spelled(v))) == ref.contains(v)
    assert ts.issubset(other) == ref.issubset(other_ref)
    union, ref_union = ts.union(other), ref.union(other_ref)
    assert (union.intervals, union.points) == (ref_union.intervals, ref_union.points)

    assert ts == same and hash(ts) == hash(same)
    assert (ts == other) == (ref.key() == other_ref.key())
