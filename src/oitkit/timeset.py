"""Finite unions of closed intervals and isolated points on an exact time axis.

Times are kept as `fractions.Fraction` so that suprema, infima and Lebesgue
measure are bit-stable across platforms. Values written as decimal strings
("12.010") parse exactly; floats are accepted for convenience and go through
their shortest decimal repr, so ``0.01`` means 1/100 and not the nearest
binary float.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from numbers import Integral, Rational
from operator import itemgetter
from typing import Iterable, Union

TimeLike = Union[int, str, float, Fraction, Decimal]


def seconds(value: TimeLike) -> Fraction:
    """Parse a time coordinate into an exact Fraction of seconds."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, Integral):
        return Fraction(int(value))
    if isinstance(value, Decimal):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        # shortest repr keeps "0.01" exact instead of the binary neighbour
        return Fraction(repr(value))
    raise TypeError(f"cannot interpret {value!r} as seconds")


def seconds_str(value: Rational) -> str:
    """Render an exact number of seconds as a decimal string when possible.

    Fractions whose denominator only has factors 2 and 5 have a finite decimal
    expansion and are emitted exactly ("12.010" style); anything else falls
    back to "p/q".
    """
    frac = Fraction(value)
    den = frac.denominator
    twos = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{frac.numerator}/{frac.denominator}"
    digits = max(twos, fives)
    scaled = frac.numerator * 10**digits // frac.denominator
    if digits == 0:
        return str(scaled)
    sign = "-" if scaled < 0 else ""
    text = str(abs(scaled)).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


_start = itemgetter(0)


def _covering(intervals, lo: Fraction, hi: Fraction) -> bool:
    """True if [lo, hi] lies inside one of `intervals`, which must be sorted
    and pairwise disjoint: only the last interval starting at or before `lo`
    can hold it."""
    i = bisect_right(intervals, lo, key=_start) - 1
    return i >= 0 and hi <= intervals[i][1]


@dataclass(frozen=True)
class TimeSet:
    """A nonempty finite union of closed intervals and isolated points.

    The stored form is canonical: intervals are sorted, pairwise disjoint and
    non-touching; points are sorted, deduplicated, and never lie inside an
    interval. Construction accepts any messy mix and canonicalises it.
    """

    intervals: tuple[tuple[Fraction, Fraction], ...]
    points: tuple[Fraction, ...]

    def __init__(
        self,
        intervals: Iterable[tuple[TimeLike, TimeLike]] = (),
        points: Iterable[TimeLike] = (),
    ):
        raw: list[tuple[Fraction, Fraction]] = []
        loose: list[Fraction] = []
        for lo, hi in intervals:
            lo_f, hi_f = seconds(lo), seconds(hi)
            if lo_f > hi_f:
                raise ValueError(f"interval [{lo_f}, {hi_f}] has lo > hi")
            if lo_f == hi_f:
                loose.append(lo_f)
            else:
                raw.append((lo_f, hi_f))
        loose.extend(seconds(p) for p in points)
        if not raw and not loose:
            raise ValueError("a TimeSet must contain at least one interval or point")

        raw.sort()
        merged: list[tuple[Fraction, Fraction]] = []
        for lo_f, hi_f in raw:
            if merged and lo_f <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi_f))
            else:
                merged.append((lo_f, hi_f))
        kept = sorted({p for p in loose if not _covering(merged, p, p)})
        object.__setattr__(self, "intervals", tuple(merged))
        object.__setattr__(self, "points", tuple(kept))

    @classmethod
    def point(cls, at: TimeLike) -> "TimeSet":
        return cls(points=[at])

    @classmethod
    def span(cls, lo: TimeLike, hi: TimeLike) -> "TimeSet":
        return cls(intervals=[(lo, hi)])

    @property
    def inf(self) -> Fraction:
        candidates = [self.intervals[0][0]] if self.intervals else []
        if self.points:
            candidates.append(self.points[0])
        return min(candidates)

    @property
    def sup(self) -> Fraction:
        candidates = [self.intervals[-1][1]] if self.intervals else []
        if self.points:
            candidates.append(self.points[-1])
        return max(candidates)

    def lebesgue(self) -> Fraction:
        """Total length; isolated points contribute nothing."""
        return sum((hi - lo for lo, hi in self.intervals), Fraction(0))

    def contains(self, at: TimeLike) -> bool:
        t = seconds(at)
        if _covering(self.intervals, t, t):
            return True
        i = bisect_left(self.points, t)
        return i < len(self.points) and self.points[i] == t

    def issubset(self, other: "TimeSet") -> bool:
        """Binary searches over the other set's canonical form: O(k log m)."""
        return all(_covering(other.intervals, lo, hi) for lo, hi in self.intervals) and all(
            other.contains(p) for p in self.points
        )

    def union(self, other: "TimeSet") -> "TimeSet":
        return TimeSet(
            intervals=list(self.intervals) + list(other.intervals),
            points=list(self.points) + list(other.points),
        )

    def gaps(self) -> list[tuple[Fraction, Fraction]]:
        """Maximal open gaps between components, inside [inf, sup]."""
        occupied = sorted(list(self.intervals) + [(p, p) for p in self.points])
        out: list[tuple[Fraction, Fraction]] = []
        for (_, prev_hi), (next_lo, _) in zip(occupied, occupied[1:]):
            if next_lo > prev_hi:
                out.append((prev_hi, next_lo))
        return out

    def overlaps_interval(self, lo: TimeLike, hi: TimeLike) -> bool:
        """True if the open interval (lo, hi) meets this set."""
        lo_f, hi_f = seconds(lo), seconds(hi)
        for ilo, ihi in self.intervals:
            if ilo < hi_f and lo_f < ihi:
                return True
        return any(lo_f < p < hi_f for p in self.points)

    def key(self) -> tuple:
        """Hashable canonical identity, used for value-level comparisons."""
        return (self.intervals, self.points)

    def __str__(self) -> str:
        parts = [f"[{seconds_str(lo)}, {seconds_str(hi)}]" for lo, hi in self.intervals]
        parts.extend("{" + seconds_str(p) + "}" for p in self.points)
        return " ∪ ".join(parts)
