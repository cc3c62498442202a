from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oitkit.timeset import TimeSet, seconds, seconds_str

from oracles import timeset_contains_bruteforce, timeset_issubset_bruteforce


def test_parse_decimal_strings_exactly():
    assert seconds("0.01") == Fraction(1, 100)
    assert seconds("12.010") == Fraction(1201, 100)
    assert seconds(3) == Fraction(3)
    assert seconds(Fraction(1, 3)) == Fraction(1, 3)


def test_float_parses_through_shortest_repr():
    assert seconds(0.01) == Fraction(1, 100)
    assert seconds(0.1) == Fraction(1, 10)


def test_seconds_str_decimal_and_fallback():
    assert seconds_str(Fraction(1201, 100)) == "12.01"
    assert seconds_str(Fraction(999, 100)) == "9.99"
    assert seconds_str(Fraction(5)) == "5"
    assert seconds_str(Fraction(-3, 4)) == "-0.75"
    assert seconds_str(Fraction(1, 3)) == "1/3"


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
