"""Independent reference implementations the tests check the library against.

Each oracle takes a deliberately different route from the code under test:
brute-force enumeration, explicit joint-Gaussian conditioning, root finding,
direct simulation, all-pairs scans, or the standard library's own encoder.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from oitkit.errors import GapError
from oitkit.timeset import seconds, seconds_str


def json_ready(obj):
    """Recursively convert report values into JSON-encodable ones.

    Fractions become exact decimal strings, tuples and numpy arrays lists,
    frozensets sorted lists and numpy scalars their `item()`; everything
    else passes through.
    """
    if isinstance(obj, Fraction):
        return seconds_str(obj)
    if isinstance(obj, dict):
        return {str(k): json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_ready(v) for v in obj]
    if isinstance(obj, frozenset):
        return sorted(obj)
    if isinstance(obj, np.ndarray):
        return json_ready(obj.tolist())
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def json_text_oracle(obj) -> str:
    """Report text as `json` writes it from `json_ready`'s plain copy; the
    bytes `to_json_text` must produce."""
    return json.dumps(json_ready(obj), sort_keys=True, indent=2)


def sampling_rate_by_definition(occ, gaps=None) -> Fraction:
    """Gap count over total gap length, checking each explicit gap against
    every interval and point of `occ` and against every earlier gap.

    Without explicit gaps, the gaps are the holes between consecutive
    components of `occ` in sorted order. Raises `GapError` with the
    library's messages, for the first bad gap in input order.
    """
    if gaps is None:
        parts = sorted(list(occ.intervals) + [(p, p) for p in occ.points])
        resolved = [(a_hi, b_lo) for (_, a_hi), (b_lo, _) in zip(parts, parts[1:]) if b_lo > a_hi]
    else:
        resolved = []
        for lo, hi in gaps:
            lo_f, hi_f = seconds(lo), seconds(hi)
            if hi_f <= lo_f:
                raise GapError(f"gap ({lo_f}, {hi_f}) has no width")
            if lo_f < occ.inf or hi_f > occ.sup:
                raise GapError(f"gap ({lo_f}, {hi_f}) leaves [inf, sup] of the occurrence set")
            if any(ilo < hi_f and lo_f < ihi for ilo, ihi in occ.intervals) or any(
                lo_f < p < hi_f for p in occ.points
            ):
                raise GapError(f"gap ({lo_f}, {hi_f}) overlaps the occurrence times")
            for plo, phi in resolved:
                if plo < hi_f and lo_f < phi:
                    raise GapError(f"gap ({lo_f}, {hi_f}) overlaps gap ({plo}, {phi})")
            resolved.append((lo_f, hi_f))
    if not resolved:
        raise GapError("occurrence set has no gaps to sample over")
    return Fraction(len(resolved)) / sum((hi - lo for lo, hi in resolved), Fraction(0))


def restorable_bruteforce(model) -> bool:
    """All-pairs distinctness: any two states with different (subjects, time,
    value) must map to reflections with different (subjects, time, value)."""
    pairs = [(model.states[s], model.reflections[r]) for s, r in model.mapping]
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            s_i, r_i = pairs[i]
            s_j, r_j = pairs[j]
            if s_i.key() != s_j.key() and r_i.key() == r_j.key():
                return False
    return True


def timeset_contains_bruteforce(ts, t) -> bool:
    """Scan every interval and point of the set for `t`."""
    return any(lo <= t <= hi for lo, hi in ts.intervals) or any(p == t for p in ts.points)


def timeset_issubset_bruteforce(small, big) -> bool:
    """Scan `big` for an interval holding each interval of `small`, and for
    each point of `small`."""
    return all(
        any(olo <= lo and hi <= ohi for olo, ohi in big.intervals) for lo, hi in small.intervals
    ) and all(timeset_contains_bruteforce(big, p) for p in small.points)


class FractionTimeSet:
    """A TimeSet kept in exact `Fraction` seconds throughout, with no ticks.

    Canonicalises by merging a sorted sweep and drops each point that some
    interval covers by scanning them all; every query is a linear scan.
    Coordinates must already be exact `Fraction`s.
    """

    def __init__(self, intervals=(), points=()):
        pairs = sorted((lo, hi) for lo, hi in intervals if lo < hi)
        loose = [lo for lo, hi in intervals if lo == hi] + list(points)
        merged = []
        for lo, hi in pairs:
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        self.intervals = tuple((lo, hi) for lo, hi in merged)
        self.points = tuple(
            sorted({p for p in loose if not any(lo <= p <= hi for lo, hi in self.intervals)})
        )

    @property
    def inf(self):
        return min([lo for lo, _ in self.intervals] + list(self.points))

    @property
    def sup(self):
        return max([hi for _, hi in self.intervals] + list(self.points))

    def lebesgue(self):
        return sum((hi - lo for lo, hi in self.intervals), Fraction(0))

    def contains(self, t) -> bool:
        return timeset_contains_bruteforce(self, t)

    def issubset(self, other) -> bool:
        return timeset_issubset_bruteforce(self, other)

    def union(self, other):
        return FractionTimeSet(self.intervals + other.intervals, self.points + other.points)

    def key(self) -> tuple:
        return (self.intervals, self.points)


def batch_mmse(system, measurements: np.ndarray, upto: int) -> np.ndarray:
    """Posterior mean E[x(k) | z(1..k)] from the stacked joint Gaussian.

    Builds the full covariance of (x_1, ..., x_k) from the recursion
    x_i = A x_{i-1} + w_i and conditions on the stacked measurement vector in
    one linear solve; no recursive filtering involved.
    """
    n = system.state_dim
    A, H, Q, R = system.A, system.H, system.Q, system.R
    k = upto
    means = []
    m = system.x0.copy()
    for step in range(k):
        m = A @ m
        if system.B is not None:
            raise NotImplementedError("oracle covers autonomous systems")
        means.append(m.copy())
    variances = [system.P0.copy()]
    for _ in range(k):
        variances.append(A @ variances[-1] @ A.T + Q)
    cov = np.zeros((k * n, k * n))
    for i in range(1, k + 1):
        for j in range(1, i + 1):
            block = np.linalg.matrix_power(A, i - j) @ variances[j]
            cov[(i - 1) * n : i * n, (j - 1) * n : j * n] = block
            cov[(j - 1) * n : j * n, (i - 1) * n : i * n] = block.T
    H_blk = np.kron(np.eye(k), H)
    R_blk = np.kron(np.eye(k), R)
    S = H_blk @ cov @ H_blk.T + R_blk
    prior = np.concatenate(means)
    innovation = np.asarray(measurements)[:k].reshape(-1) - H_blk @ prior
    posterior = prior + cov @ H_blk.T @ np.linalg.solve(S, innovation)
    return posterior[-n:]


def radar_range_by_bisection(
    transmit_power: float,
    antenna_gain: float,
    effective_aperture: float,
    min_detectable_signal: float,
    reflection_area: float,
) -> float:
    """Find the range where the received echo power drops to the detection
    floor, by bisecting the forward power law instead of inverting it."""

    def received(r: float) -> float:
        return (
            transmit_power
            * antenna_gain
            * effective_aperture
            * reflection_area
            / ((4 * np.pi) ** 2 * r**4)
        )

    lo, hi = 1e-6, 1e-3
    while received(hi) > min_detectable_signal:
        hi *= 2
    for _ in range(200):
        mid = (lo + hi) / 2
        if received(mid) > min_detectable_signal:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def binary_search_probe_count(n: int, target: int) -> int:
    """Probes a textbook binary search makes to find `target` in 0..n-1."""
    lo, hi = 0, n - 1
    probes = 0
    while lo <= hi:
        mid = (lo + hi) // 2
        probes += 1
        if mid == target:
            return probes
        if target < mid:
            hi = mid - 1
        else:
            lo = mid + 1
    raise AssertionError("target must be present")


def average_probes(n: int) -> tuple[int, int]:
    """(total probes, n) over all successful binary searches in 0..n-1."""
    return sum(binary_search_probe_count(n, t) for t in range(n)), n
