"""Finite unions of closed intervals and isolated points on an exact time axis.

Times are stored as exact integer nanosecond ticks (a `Fraction` of
nanoseconds for a value finer than that) and returned as `fractions.Fraction`
seconds, so suprema, infima and Lebesgue measure are bit-stable across
platforms. Decimal strings ("12.010") parse exactly; floats are accepted for
convenience and go through their shortest decimal repr, so ``0.01`` means
1/100 and not the nearest binary float.
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
Tick = Union[int, Fraction]  # nanoseconds: an int whenever the value is whole

NS = 10**9  # ticks per second


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


def ticks(value: TimeLike) -> Tick:
    """Parse a time coordinate into exact nanosecond ticks.

    Ints and plain decimal strings (an optional "-", decimal digits, at most
    nine places) are split and read with `int`; every other form goes
    through `seconds`.
    """
    if type(value) is int:
        return value * NS
    if type(value) is str:
        negative = value[:1] == "-"
        whole, _, frac = (value[1:] if negative else value).partition(".")
        if whole.isdecimal() and len(frac) <= 9 and (frac.isdecimal() or not frac):
            t = int(whole) * NS + int(frac.ljust(9, "0"))
            return -t if negative else t
    exact = seconds(value)
    scaled, rest = divmod(exact.numerator * NS, exact.denominator)
    return Fraction(exact.numerator * NS, exact.denominator) if rest else scaled


def seconds_str(value: Rational) -> str:
    """Render an exact number of seconds as a decimal string when possible.

    Fractions whose denominator only has factors 2 and 5 have a finite decimal
    expansion and are emitted exactly ("12.01" style); anything else falls
    back to "p/q".
    """
    frac = Fraction(value)
    den = frac.denominator
    # 10**k is a multiple of den = 2**a * 5**b first at k = max(a, b) <= log2(den)
    digits = next((k for k in range(den.bit_length()) if 10**k % den == 0), None)
    if digits is None:
        return f"{frac.numerator}/{den}"
    return _decimal(frac.numerator * 10**digits // den, digits)


def tick_str(t: Tick) -> str:
    """`seconds_str` of `t` ticks, without building a Fraction when `t` is whole."""
    return _decimal(t, 9) if type(t) is int else seconds_str(Fraction(t, NS))


def _decimal(scaled: int, digits: int) -> str:
    """`scaled / 10**digits` as a decimal string without trailing zeros."""
    whole, frac = divmod(abs(scaled), 10**digits)
    text = f"{whole}.{frac:0{digits}d}".rstrip("0") if frac else str(whole)
    return f"-{text}" if scaled < 0 else text


_start = itemgetter(0)


def _covering(spans, lo: Tick, hi: Tick) -> bool:
    """True if [lo, hi] lies inside one of `spans`, which must be sorted and
    pairwise disjoint: only the last span starting at or before `lo` can
    hold it."""
    i = bisect_right(spans, lo, key=_start) - 1
    return i >= 0 and hi <= spans[i][1]


@dataclass(frozen=True, repr=False)
class TimeSet:
    """A nonempty finite union of closed intervals and isolated points.

    The stored form is canonical: intervals are sorted, pairwise disjoint and
    non-touching; points are sorted, deduplicated, and never lie inside an
    interval. Construction accepts any messy mix and canonicalises it.
    `intervals` and `points` give that form in `Fraction` seconds; `spans`
    and `marks` hold it in ticks.
    """

    spans: tuple[tuple[Tick, Tick], ...]
    marks: tuple[Tick, ...]

    def __init__(
        self,
        intervals: Iterable[tuple[TimeLike, TimeLike]] = (),
        points: Iterable[TimeLike] = (),
    ):
        self._canonicalise([(ticks(lo), ticks(hi)) for lo, hi in intervals], map(ticks, points))

    def _canonicalise(self, pairs: list[tuple[Tick, Tick]], marks: Iterable[Tick]) -> None:
        raw: list[tuple[Tick, Tick]] = []
        loose: list[Tick] = []
        for lo, hi in pairs:
            if lo > hi:
                raise ValueError(f"interval [{Fraction(lo, NS)}, {Fraction(hi, NS)}] has lo > hi")
            if lo == hi:
                loose.append(lo)
            else:
                raw.append((lo, hi))
        loose.extend(marks)
        if not raw and not loose:
            raise ValueError("a TimeSet must contain at least one interval or point")

        raw.sort()
        merged: list[tuple[Tick, Tick]] = []
        for lo, hi in raw:
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        kept = sorted({p for p in loose if not _covering(merged, p, p)})
        object.__setattr__(self, "spans", tuple(merged))
        object.__setattr__(self, "marks", tuple(kept))

    @classmethod
    def point(cls, at: TimeLike) -> "TimeSet":
        return cls(points=[at])

    @classmethod
    def span(cls, lo: TimeLike, hi: TimeLike) -> "TimeSet":
        return cls(intervals=[(lo, hi)])

    @property
    def intervals(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return tuple((Fraction(lo, NS), Fraction(hi, NS)) for lo, hi in self.spans)

    @property
    def points(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(p, NS) for p in self.marks)

    @property
    def inf(self) -> Fraction:
        return Fraction(min([lo for lo, _ in self.spans[:1]] + list(self.marks[:1])), NS)

    @property
    def sup(self) -> Fraction:
        return Fraction(max([hi for _, hi in self.spans[-1:]] + list(self.marks[-1:])), NS)

    def lebesgue(self) -> Fraction:
        """Total length; isolated points contribute nothing."""
        return Fraction(sum(hi - lo for lo, hi in self.spans), NS)

    def contains(self, at: TimeLike) -> bool:
        return self._holds(ticks(at))

    def _holds(self, t: Tick) -> bool:
        i = bisect_left(self.marks, t)
        return _covering(self.spans, t, t) or (i < len(self.marks) and self.marks[i] == t)

    def issubset(self, other: "TimeSet") -> bool:
        """Binary searches over the other set's canonical form: O(k log m)."""
        return all(_covering(other.spans, lo, hi) for lo, hi in self.spans) and all(
            other._holds(p) for p in self.marks
        )

    def union(self, other: "TimeSet") -> "TimeSet":
        joined = object.__new__(TimeSet)
        joined._canonicalise(list(self.spans + other.spans), self.marks + other.marks)
        return joined

    def gaps(self) -> list[tuple[Fraction, Fraction]]:
        """Maximal open gaps between components, inside [inf, sup]."""
        occupied = sorted(list(self.spans) + [(p, p) for p in self.marks])
        return [
            (Fraction(prev_hi, NS), Fraction(next_lo, NS))
            for (_, prev_hi), (next_lo, _) in zip(occupied, occupied[1:])
            if next_lo > prev_hi
        ]

    def overlaps_interval(self, lo: TimeLike, hi: TimeLike) -> bool:
        """True if the open interval (lo, hi) meets this set."""
        lo_t, hi_t = ticks(lo), ticks(hi)
        return any(ilo < hi_t and lo_t < ihi for ilo, ihi in self.spans) or any(
            lo_t < p < hi_t for p in self.marks
        )

    def key(self) -> tuple:
        """Hashable canonical identity, used for value-level comparisons."""
        return (self.spans, self.marks)

    def __repr__(self) -> str:
        return f"TimeSet(intervals={self.intervals!r}, points={self.points!r})"

    def __str__(self) -> str:
        parts = [f"[{tick_str(lo)}, {tick_str(hi)}]" for lo, hi in self.spans]
        parts.extend("{" + tick_str(p) + "}" for p in self.marks)
        return " ∪ ".join(parts)
