"""Calculators connecting each information metric to a classical principle.

Each function here is the quantitative side of one classical result: the
Shannon source-coding bound, serial transmission delay, the radar range
equation, the Rayleigh resolution criterion, variety and aggregation
invariance under restorable mappings, MTBF-style average duration, the
Nyquist sampling bound, Metcalfe's law, the discrete Kalman filter, and
average-search-length accounting for minimum-mismatch lookup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

import oitkit

from .errors import (
    NotRestorableError,
    PartialRelationError,
    SearchError,
    SingularInnovationError,
    require_finite,
)
from .timeset import seconds

# numpy is imported inside the Kalman code that uses it, and `metrics` and
# `model` are reached through the package (`oitkit.metrics`), which imports
# them on first access (PEP 562). So only `classical kalman` loads numpy, and
# the scalar calculators load no model code.
if TYPE_CHECKING:
    import numpy as np

    from .metrics import DistanceSpec, EquivalenceRelation, RelationSet
    from .model import InformationModel


def shannon_min_volume(probabilities: Sequence[float]) -> float:
    """Entropy in bits: the least volume a restorable encoding can have.

    Zero probabilities contribute nothing (the usual limit convention).
    """
    p = [float(x) for x in probabilities]
    require_finite(**{f"probabilities[{i}]": x for i, x in enumerate(p)})
    if any(x < 0 for x in p):
        raise ValueError("probabilities must be nonnegative")
    if abs(math.fsum(p) - 1.0) > 1e-12:
        raise ValueError(f"probabilities sum to {math.fsum(p)!r}, not 1")
    return -math.fsum(x * math.log2(x) for x in p if x > 0) + 0.0


def serial_chain_delay(delays: Sequence) -> Fraction:
    """Total delay of a serial chain: the exact sum of the link delays."""
    return sum((seconds(d) for d in delays), Fraction(0))


def radar_max_range(
    transmit_power: float,
    antenna_gain: float,
    effective_aperture: float,
    min_detectable_signal: float,
    reflection_area: float,
) -> float:
    """Maximum detection range of the radar range equation.

    Grows with the quartic root of the target's reflection area, which is the
    scope measure of the detection information.
    """
    values = {
        "transmit_power": transmit_power,
        "antenna_gain": antenna_gain,
        "effective_aperture": effective_aperture,
        "min_detectable_signal": min_detectable_signal,
        "reflection_area": reflection_area,
    }
    require_finite(**values)
    if any(v <= 0 for v in values.values()):
        raise ValueError("all radar equation inputs must be positive")
    numerator = transmit_power * antenna_gain * effective_aperture * reflection_area
    return (numerator / ((4 * math.pi) ** 2 * min_detectable_signal)) ** 0.25


def rayleigh_granularity(wavelength, aperture_width):
    """Minimum resolvable angle of an imaging system: wavelength over
    aperture width. Equals the granularity of imaging information whose
    atoms (pixels) all carry that angle as their noumenon measure."""
    require_finite(wavelength=wavelength, aperture_width=aperture_width)
    if wavelength <= 0 or aperture_width <= 0:
        raise ValueError("wavelength and aperture width must be positive")
    return wavelength / aperture_width


@dataclass(frozen=True)
class InvarianceResult:
    state_side: object
    reflection_side: object
    equal: bool


def _require_restorable(model: InformationModel) -> None:
    if not oitkit.model.is_restorable(model):
        raise NotRestorableError("check only applies to restorable models")


def variety_invariance_check(
    model: InformationModel, relation: EquivalenceRelation
) -> InvarianceResult:
    """Transport an equivalence relation through the mapping and compare
    class counts on both sides; they agree for every restorable model."""
    _require_restorable(model)
    labels = oitkit.metrics._state_labels(model, relation)
    label_of_state: dict = {}
    for state, lab in zip(model.states, labels):
        if label_of_state.setdefault(state, lab) != lab:
            raise PartialRelationError(
                "relation gives duplicate state values inconsistent labels"
            )
    transported: dict = {}
    for s, r in model.mapping:
        transported[r] = labels[s]
    state_classes = len(set(label_of_state.values()))
    reflection_classes = len(set(transported.values()))
    return InvarianceResult(state_classes, reflection_classes, state_classes == reflection_classes)


def aggregation_invariance_check(
    model: InformationModel, rels: RelationSet
) -> InvarianceResult:
    """Transport labelled relations through the mapping and compare the
    relations-per-element ratios on both sides."""
    _require_restorable(model)
    ratio_states = oitkit.metrics.aggregation(model, rels)
    to_reflection = dict(model.mapping)
    refl = model.reflections
    transported = {
        (refl[to_reflection[a]], refl[to_reflection[b]], lab) for a, b, lab in rels.edges
    }
    distinct_reflections = set(refl)
    ratio_reflections = Fraction(len(transported), len(distinct_reflections))
    return InvarianceResult(ratio_states, ratio_reflections, ratio_states == ratio_reflections)


def mtbf_duration(sessions: Sequence[tuple]) -> Fraction:
    """Average duration over monitoring sessions given as (sup, inf) pairs."""
    if not sessions:
        raise ValueError("at least one session is required")
    total = Fraction(0)
    for hi, lo in sessions:
        hi_f, lo_f = seconds(hi), seconds(lo)
        if hi_f < lo_f:
            raise ValueError(f"session ({hi}, {lo}) ends before it starts")
        total += hi_f - lo_f
    return total / len(sessions)


def nyquist_min_rate(period: object) -> Fraction:
    """Lowest sampling rate that keeps periodic information restorable."""
    T = seconds(period)
    if T <= 0:
        raise ValueError("period must be positive")
    return 1 / (2 * T)


def nyquist_restorable(rate: object, period: object) -> bool:
    """Boundary-inclusive: exactly 1/(2T) still restores."""
    r = seconds(rate)
    if r <= 0:
        raise ValueError("rate must be positive")
    return r >= nyquist_min_rate(period)


def metcalfe_value(nodes: int) -> int:
    """Value of a network with n nodes: n squared."""
    n = int(nodes)
    if n < 0:
        raise ValueError("node count must be nonnegative")
    return n * n


@dataclass(frozen=True)
class NetworkValueResult:
    nodes: int
    metcalfe: int
    scope_times_coverage: object
    equal: bool


def network_value_check(model: InformationModel, nodes: int | None = None) -> NetworkValueResult:
    """Compare n² against max scope × max coverage on a network model whose
    node-count measures are assigned."""
    n = len(model.carriers) if nodes is None else int(nodes)
    product = oitkit.metrics.scope(model) * oitkit.metrics.coverage(model)
    value = metcalfe_value(n)
    return NetworkValueResult(n, value, product, value == product)


@dataclass(frozen=True)
class LinearSystemSpec:
    """Discrete linear stochastic system for the Kalman recursion.

    x(k) = A·x(k−1) + B·u(k) + w(k) with motion noise covariance Q;
    z(k) = H·x(k) + v(k) with measurement noise covariance R.
    """

    A: np.ndarray
    H: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    x0: np.ndarray
    P0: np.ndarray
    B: np.ndarray | None = None

    def __post_init__(self):
        import numpy as np

        for f in fields(self):
            if f.name != "B" or self.B is not None:
                object.__setattr__(self, f.name, np.asarray(getattr(self, f.name), dtype=float))
        object.__setattr__(self, "x0", self.x0.reshape(-1))
        self._check()

    def _check(self) -> None:
        import numpy as np

        for f in fields(self):
            mat = getattr(self, f.name)
            if mat is not None and not np.isfinite(mat).all():
                raise ValueError(f"{f.name} must hold only finite numbers")
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ValueError("A must be square")
        if self.x0.shape != (n,):
            raise ValueError("x0 must have the state dimension")
        if self.H.ndim != 2 or self.H.shape[1] != n:
            raise ValueError("H must be p×n")
        p = self.H.shape[0]
        for name, mat, dim in (("Q", self.Q, n), ("R", self.R, p), ("P0", self.P0, n)):
            if mat.shape != (dim, dim):
                raise ValueError(f"{name} must be {dim}×{dim}")
            if not np.allclose(mat, mat.T, atol=1e-10):
                raise ValueError(f"{name} must be symmetric")
        if np.min(np.linalg.eigvalsh(self.Q)) < -1e-10:
            raise ValueError("Q must be positive semidefinite")
        if np.min(np.linalg.eigvalsh(self.P0)) < -1e-10:
            raise ValueError("P0 must be positive semidefinite")
        try:
            np.linalg.cholesky(self.R)
        except np.linalg.LinAlgError as exc:
            raise ValueError("R must be positive definite") from exc
        if self.B is not None and (self.B.ndim != 2 or self.B.shape[0] != n):
            raise ValueError("B must be n×m")

    @property
    def state_dim(self) -> int:
        return self.A.shape[0]

    @property
    def measurement_dim(self) -> int:
        return self.H.shape[0]


@dataclass(frozen=True)
class KalmanStep:
    x: np.ndarray
    P: np.ndarray
    gain: np.ndarray


def _spd_solve(S: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve S·X = rhs for symmetric positive definite S via Cholesky."""
    import numpy as np

    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError as exc:
        raise SingularInnovationError(
            "innovation covariance is not positive definite"
        ) from exc
    return np.linalg.solve(L.T, np.linalg.solve(L, rhs))


def kalman_filter(
    system: LinearSystemSpec,
    measurements: Sequence,
    inputs: Sequence | None = None,
) -> list[KalmanStep]:
    """Run the five-formula Kalman recursion over a measurement sequence.

    Per step: predict the state from the previous optimum, propagate the
    covariance through the dynamics plus motion noise, form the gain from the
    innovation covariance (solved as an SPD system, never inverted
    explicitly), then update state and covariance. The updated covariance is
    re-symmetrised to keep it positive semidefinite under roundoff.
    """
    import numpy as np

    z = np.asarray(measurements, dtype=float)
    # atleast_2d would make an empty sequence one row of width 0
    if z.size == 0:
        raise ValueError("at least one measurement is required")
    z = np.atleast_2d(z)
    if z.shape[1] != system.measurement_dim:
        raise ValueError("measurement rows must match the measurement dimension")
    if not np.isfinite(z).all():
        raise ValueError("measurements must be finite numbers")
    steps = z.shape[0]
    if inputs is not None:
        u = np.atleast_2d(np.asarray(inputs, dtype=float))
        if system.B is None:
            raise ValueError("inputs supplied but the system has no input matrix")
        if u.shape != (steps, system.B.shape[1]):
            raise ValueError("inputs must be one row per step, matching B's columns")
        if not np.isfinite(u).all():
            raise ValueError("inputs must be finite numbers")
    elif system.B is not None:
        raise ValueError("system has an input matrix but no inputs were supplied")

    identity = np.eye(system.state_dim)
    x = system.x0.copy()
    P = system.P0.copy()
    out: list[KalmanStep] = []
    # a number that overflows raises FloatingPointError, an ArithmeticError,
    # in place of going on with inf and NaN estimates
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for k in range(steps):
            x_pred = system.A @ x
            if system.B is not None:
                x_pred = x_pred + system.B @ u[k]
            P_pred = system.A @ P @ system.A.T + system.Q
            S = system.H @ P_pred @ system.H.T + system.R
            gain = _spd_solve(S, system.H @ P_pred).T
            x = x_pred + gain @ (z[k] - system.H @ x_pred)
            P = (identity - gain @ system.H) @ P_pred
            P = (P + P.T) / 2
            out.append(KalmanStep(x.copy(), P.copy(), gain.copy()))
    return out


def _bisection_depths(n: int) -> list[int]:
    """Comparison count per slot for binary search over n ordered slots."""
    depths = [0] * n

    def walk(lo: int, hi: int, depth: int) -> None:
        if lo > hi:
            return
        mid = (lo + hi) // 2
        depths[mid] = depth
        walk(lo, mid - 1, depth + 1)
        walk(mid + 1, hi, depth + 1)

    walk(0, n - 1, 1)
    return depths


def bisection_average_depth(n: int) -> Fraction:
    """Average comparisons of a successful binary search, any n ≥ 1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return Fraction(sum(_bisection_depths(n)), n)


def asl(algorithm: str, n: int, probabilities: Sequence | None = None) -> Fraction:
    """Expected comparisons to find an item among n, uniform by default.

    Sequential search gives (n+1)/2. Bisection uses the perfect-tree closed
    form ((n+1)/n)·log₂(n+1) − 1, which is exact only when n = 2^h − 1; other
    n are rejected — use `bisection_average_depth` for the general average.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if algorithm == "sequential":
        if probabilities is None:
            return Fraction(n + 1, 2)
        costs = range(1, n + 1)
    elif algorithm == "bisection":
        if n & (n + 1) != 0:
            raise ValueError(
                "closed-form bisection ASL needs n = 2^h - 1; "
                "use bisection_average_depth for other n"
            )
        if probabilities is None:
            height = (n + 1).bit_length() - 1
            return Fraction(n + 1, n) * height - 1
        costs = _bisection_depths(n)
    else:
        raise ValueError(f"unknown search algorithm {algorithm!r}")
    probs = [Fraction(p) if not isinstance(p, float) else p for p in probabilities]
    if len(probs) != n:
        raise ValueError("need one probability per item")
    return sum(p * c for p, c in zip(probs, costs))


def _default_distance() -> DistanceSpec:
    return oitkit.metrics.DistanceSpec()


@dataclass(frozen=True)
class SearchSetup:
    """A minimum-mismatch lookup over candidate models.

    `order_keys`, when given, define the total order the bisection tree is
    built over; sequential search just scans in candidate order.
    """

    candidates: tuple
    target: InformationModel
    spec: DistanceSpec = field(default_factory=_default_distance)
    threshold: object = 0
    algorithm: str = "sequential"
    order_keys: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "candidates", tuple(self.candidates))
        if self.order_keys is not None:
            object.__setattr__(self, "order_keys", tuple(self.order_keys))
        if not self.candidates:
            raise SearchError("candidate list is empty")
        if self.algorithm not in ("sequential", "bisection"):
            raise SearchError(f"unknown search algorithm {self.algorithm!r}")
        if self.order_keys is not None and len(self.order_keys) != len(self.candidates):
            raise SearchError("need one order key per candidate")


@dataclass(frozen=True)
class SearchResult:
    index: int
    comparisons: int
    mismatch: object


def _visit_order(setup: SearchSetup) -> list[int]:
    n = len(setup.candidates)
    if setup.algorithm == "sequential":
        return list(range(n))
    order = list(range(n))
    if setup.order_keys is not None:
        order.sort(key=lambda i: setup.order_keys[i])
    # level order of the binary search tree over the sorted candidates: by
    # depth, and by position within a depth (the sort is stable)
    depths = _bisection_depths(n)
    return [order[slot] for slot in sorted(range(n), key=depths.__getitem__)]


def search_min_mismatch(setup: SearchSetup) -> SearchResult:
    """Find the candidate with the least mismatch against the target.

    Stops early as soon as a candidate's mismatch falls to the threshold;
    otherwise every candidate must be compared (the exhaustive case), and the
    lowest-index minimum wins ties.
    """
    best_index = -1
    best_value = None
    comparisons = 0
    for i in _visit_order(setup):
        value = oitkit.metrics.mismatch(setup.candidates[i], setup.target, setup.spec)
        comparisons += 1
        if value <= setup.threshold:
            return SearchResult(i, comparisons, value)
        if best_value is None or value < best_value or (value == best_value and i < best_index):
            best_index, best_value = i, value
    return SearchResult(best_index, comparisons, best_value)
