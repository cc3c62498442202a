"""Finite unions of closed intervals and isolated points on an exact time axis.

Times are stored as exact integer nanosecond ticks (a `Fraction` of
nanoseconds for a value finer than that) and returned as `fractions.Fraction`
seconds, so suprema, infima and Lebesgue measure are bit-stable across
platforms. Decimal strings ("12.010") parse exactly; floats are accepted for
convenience and go through their shortest decimal repr, so ``0.01`` means
1/100 and not the nearest binary float. A string may carry a decimal exponent
("1.5e3") of at most `MAX_EXPONENT` in magnitude; a larger one is refused
before the exact value, which would need 10**exponent, is built.
"""

from __future__ import annotations

import math
import reprlib
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral, Rational
from operator import itemgetter, lt
from typing import Iterable, Union

TimeLike = Union[int, str, float, Fraction]
Tick = Union[int, Fraction]  # nanoseconds: an int whenever the value is whole

NS = 10**9  # ticks per second
MAX_EXPONENT = 1000  # largest |e| of a time string's decimal exponent


def seconds(value: TimeLike) -> Fraction:
    """Parse a time coordinate into an exact Fraction of seconds.

    A string whose exponent lies beyond `MAX_EXPONENT`, or whose
    denominator is zero ("1/0"), is refused with `ValueError`.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, Integral):
        return Fraction(int(value))
    if isinstance(value, str):
        _, e, exponent = value.lower().rpartition("e")
        digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
        if e and digits.isdecimal() and (len(digits) > 4 or int(digits) > MAX_EXPONENT):
            raise ValueError(
                f"time {reprlib.repr(value)} has an exponent beyond ±{MAX_EXPONENT}"
            )
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"time {reprlib.repr(value)} has a zero denominator") from None
    if isinstance(value, float):
        # shortest repr keeps "0.01" exact instead of the binary neighbour;
        # float() first, as a NumPy 2 scalar's repr is "np.float64(0.01)"
        return Fraction(repr(float(value)))
    raise TypeError(f"cannot interpret {reprlib.repr(value)} as seconds")


def ticks(value: TimeLike) -> Tick:
    """Parse a time coordinate into exact nanosecond ticks.

    Ints and plain decimal strings (an optional "-", decimal digits, at most
    nine places) are read with one `int`; every other form goes through
    `seconds`. `io` reads a model file's times with the same test, inline.
    """
    if type(value) is int:
        return value * NS
    if type(value) is str:
        whole, _, frac = value.partition(".")
        # with its places appended, a longer whole part could pass the
        # interpreter's digit limit for `int`, which `seconds` does not
        if len(frac) <= 9 and len(whole) < 600 and (whole.removeprefix("-") + frac).isdecimal():
            return int(whole + frac.ljust(9, "0"))
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
    twos = (den & -den).bit_length() - 1
    odd = den >> twos
    # if odd is a power of 5, its exponent is this log rounded: the float
    # error is far below 1/2
    fives = round(math.log(odd, 5))
    if 5**fives != odd:
        return f"{frac.numerator}/{den}"
    # 10**k is a multiple of den = 2**twos * 5**fives first at k = max(twos, fives)
    digits = max(twos, fives)
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
        self._canonicalise(
            [t for lo, hi in intervals for t in (ticks(lo), ticks(hi))], map(ticks, points)
        )

    @staticmethod
    def _of_ticks(bounds: list[Tick], marks: Iterable[Tick]) -> "TimeSet":
        """The set of the intervals whose ends, in ticks, are `bounds` (lo,
        hi, lo, hi, ...) and of the points `marks`."""
        ts = object.__new__(TimeSet)
        ts._canonicalise(bounds, marks)
        return ts

    def _canonicalise(self, bounds: list[Tick], marks: Iterable[Tick]) -> None:
        ends = iter(bounds)
        spans = tuple(zip(ends, ends))
        loose: list[Tick] = []
        # strictly increasing bounds, as oitkit writes them, are sorted,
        # disjoint and non-touching intervals: canonical as they stand
        if not all(map(lt, bounds, bounds[1:])):
            raw = []
            for lo, hi in spans:
                if lo < hi:
                    raw.append((lo, hi))
                elif lo == hi:
                    loose.append(lo)
                else:
                    raise ValueError(
                        f"interval [{Fraction(lo, NS)}, {Fraction(hi, NS)}] has lo > hi"
                    )
            raw.sort()
            merged = []
            last = None  # merged[-1]
            for pair in raw:
                if last is None or pair[0] > last[1]:
                    merged.append(pair)
                    last = pair
                elif pair[1] > last[1]:
                    last = merged[-1] = (last[0], pair[1])
            spans = tuple(merged)
        loose.extend(marks)
        if not spans and not loose:
            raise ValueError("a TimeSet must contain at least one interval or point")
        object.__setattr__(self, "spans", spans)
        object.__setattr__(
            self,
            "marks",
            tuple(sorted({p for p in loose if not _covering(spans, p, p)})) if loose else (),
        )

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
        first = self.spans[0][0] if self.spans else self.marks[0]
        return Fraction(min((first, *self.marks[:1])), NS)

    @property
    def sup(self) -> Fraction:
        last = self.spans[-1][1] if self.spans else self.marks[-1]
        return Fraction(max((last, *self.marks[-1:])), NS)

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
        for lo, hi in self.spans:
            if not _covering(other.spans, lo, hi):
                return False
        return not self.marks or all(map(other._holds, self.marks))

    def union(self, *others: "TimeSet") -> "TimeSet":
        """This set joined with every set of `others`, in one merge."""
        bounds, marks = [], []
        for ts in (self, *others):
            for span in ts.spans:
                bounds += span
            marks += ts.marks
        return TimeSet._of_ticks(bounds, marks)

    def gaps(self) -> list[tuple[Fraction, Fraction]]:
        """Maximal open gaps between components, inside [inf, sup]."""
        occupied = sorted(list(self.spans) + [(p, p) for p in self.marks])
        return [
            (Fraction(prev_hi, NS), Fraction(next_lo, NS))
            for (_, prev_hi), (next_lo, _) in zip(occupied, occupied[1:])
            if next_lo > prev_hi
        ]

    def __repr__(self) -> str:
        return f"TimeSet(intervals={self.intervals!r}, points={self.points!r})"

    def __str__(self) -> str:
        parts = [f"[{tick_str(lo)}, {tick_str(hi)}]" for lo, hi in self.spans]
        parts.extend("{" + tick_str(p) + "}" for p in self.marks)
        return " ∪ ".join(parts)
