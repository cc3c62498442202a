"""Quantitative layer: how many qubits a physical carrier can hold.

A single quantum of average energy ΔE needs at least h/(4ΔE) to reach an
orthogonal, hence distinguishable, state (the Margolus–Levitin bound), so
over a reflection window of length t it runs through floor(4ΔEt/h) + 1
distinguishable states. Summing over the quanta of a general carrier gives
the long-window volume 4(mC² + E_r)t/h, and plugging in the critical density
of a flat universe yields the cosmological information budget.

All numbers here are plain floats with relative-tolerance contracts; the
1e122-qubit scale stays comfortably inside double range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction

# The long-window rate for 1 kg over 1 s, 4C²/h, evaluates to ≈ 5.4545e50
# with the rounded constants profile; a previously circulated figure for the
# same quantity is 5.3853e50, which does not follow from those constants.
# The computed value is reported and the difference is flagged, not absorbed.
PUBLISHED_UNIT_MASS_RATE = 5.3853e50
UNIT_MASS_RATE_NOTE = (
    "4*C^2/h computed from the active constants; differs from the previously "
    "circulated figure 5.3853e50, which is not reproducible from these "
    "constants (the computed value is reported instead)"
)


def _require_finite(**values: float) -> None:
    """Reject a NaN or infinite input by name, in the order given."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be a finite number, got {value}")


@dataclass(frozen=True)
class PhysicalConstants:
    """Named constants with a profile tag carried into every output.

    The "paper" profile uses the rounded values the worked cosmological
    estimates were made with; "codata" carries the precise SI values.
    """

    name: str
    h: float  # Planck constant, J·s
    C: float  # speed of light, m/s
    k_b: float  # Boltzmann constant, J/K
    G: float  # gravitational constant, m³/(kg·s²)
    H0: float  # Hubble parameter, 1/s
    ly: float  # light-year, m

    def __post_init__(self):
        for fieldname in ("h", "C", "k_b", "G", "H0", "ly"):
            _require_finite(**{fieldname: getattr(self, fieldname)})
            if getattr(self, fieldname) <= 0:
                raise ValueError(f"constant {fieldname} must be positive")


PAPER = PhysicalConstants(
    name="paper",
    h=6.6e-34,
    C=3.0e8,
    k_b=1.38e-23,
    G=6.7e-11,
    H0=2.1e-18,
    ly=9.4607e15,
)

CODATA = PhysicalConstants(
    name="codata",
    h=6.62607015e-34,
    C=299792458.0,
    k_b=1.380649e-23,
    G=6.67430e-11,
    H0=2.193e-18,  # 67.66 km/s/Mpc
    ly=9460730472580800.0,
)

PROFILES = {"paper": PAPER, "codata": CODATA}


def profile(name: str) -> PhysicalConstants:
    try:
        return PROFILES[name]
    except KeyError:
        raise ValueError(f"unknown constants profile {name!r}") from None


def constants_from_dict(data: dict, name: str = "custom") -> PhysicalConstants:
    """Constants from a document of field values; missing fields come from
    the profile `name` names, or from "paper". Unknown keys are rejected."""
    unknown = set(data) - {f.name for f in fields(PhysicalConstants)}
    if unknown:
        raise ValueError(f"unknown constants {sorted(unknown)}")
    base = PROFILES.get(name, PAPER)
    return PhysicalConstants(
        name=name,
        h=float(data.get("h", base.h)),
        C=float(data.get("C", base.C)),
        k_b=float(data.get("k_b", base.k_b)),
        G=float(data.get("G", base.G)),
        H0=float(data.get("H0", base.H0)),
        ly=float(data.get("ly", base.ly)),
    )


@dataclass(frozen=True)
class QuantumVolume:
    """Qubit count for a single quantum carrier over a reflection window.

    `exact` counts distinguishable states actually reached — a step function
    of time with unit jumps every transition time. `asymptotic` is the smooth
    long-window value 4ΔEt/h the exact count converges to from above.
    """

    exact: int
    asymptotic: float
    transition_time: float
    profile: str

    @property
    def relative_gap(self) -> float:
        if self.asymptotic == 0:
            return math.inf
        return (self.exact - self.asymptotic) / self.asymptotic


def exact_transition_count(energy: float, time: float, consts: PhysicalConstants = PAPER) -> Fraction:
    """4·ΔE·t/h as an exact rational of the given binary floats."""
    return 4 * Fraction(energy) * Fraction(time) / Fraction(consts.h)


def quantum_volume(energy: float, time: float, consts: PhysicalConstants = PAPER) -> QuantumVolume:
    """Distinguishable-state count of one quantum of average energy `energy`
    over a window of `time` seconds.

    At time zero the quantum still shows one state, so the exact count is 1.
    The count is floored in exact rational arithmetic, so it is never off by
    one from rounding of the big product.
    """
    _require_finite(energy=energy, time=time)
    if energy <= 0:
        raise ValueError("average quantum energy must be positive")
    if time < 0:
        raise ValueError("time must be nonnegative")
    cycles = exact_transition_count(energy, time, consts)
    return QuantumVolume(
        exact=math.floor(cycles) + 1,
        asymptotic=float(cycles),
        transition_time=consts.h / (4.0 * energy),
        profile=consts.name,
    )


@dataclass(frozen=True)
class CarrierSpec:
    """A physical information carrier: matter plus radiation, N quanta."""

    mass: float = 0.0  # kg
    radiation_energy: float = 0.0  # J
    quantum_count: float = 0.0
    duration: float = 0.0  # s

    def __post_init__(self):
        for fieldname in ("mass", "radiation_energy", "quantum_count", "duration"):
            _require_finite(**{fieldname: getattr(self, fieldname)})
            if getattr(self, fieldname) < 0:
                raise ValueError(f"{fieldname} must be nonnegative")
        if self.mass == 0 and self.radiation_energy == 0 and self.quantum_count == 0:
            raise ValueError("carrier needs mass, radiation energy, or a quantum count")


REGIMES = ("long", "instant")


def carrier_volume(
    spec: CarrierSpec, regime: str, consts: PhysicalConstants = PAPER
) -> dict:
    """Qubit volume of a general carrier, in the caller-selected regime.

    Over long windows the volume is 4·(m·C² + E_r)·t/h; at (or approaching)
    zero window length it is simply the number of quanta, each showing one
    state. There is no sharp crossover; as a rule of thumb the long-window
    branch is meaningful once the window exceeds the per-quantum transition
    time, i.e. once 4·E·t/h clears the quantum count.
    """
    if regime not in REGIMES:
        raise ValueError(f"regime must be one of {REGIMES}")
    energy = spec.mass * consts.C**2 + spec.radiation_energy
    if regime == "long":
        value = 4.0 * energy * spec.duration / consts.h
    else:
        if spec.quantum_count <= 0:
            raise ValueError("instant regime needs the carrier's quantum count")
        value = spec.quantum_count
    return {
        "qubits": value,
        "regime": regime,
        "total_energy_J": energy,
        "profile": consts.name,
    }


def min_bit_mass(temperature: float, consts: PhysicalConstants = PAPER) -> float:
    """Least mass able to hold one bit in thermal equilibrium at T kelvin.

    Classical equilibrium memory only; quantum carriers are not bound by it.
    """
    _require_finite(temperature=temperature)
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    return consts.k_b * temperature * math.log(2) / consts.C**2


def bits_per_kg(temperature: float, consts: PhysicalConstants = PAPER) -> float:
    """Upper bound on bits per kilogram of equilibrium memory at T kelvin."""
    _require_finite(temperature=temperature)
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    return consts.C**2 / (consts.k_b * temperature * math.log(2))


def qubits_per_kg_second(consts: PhysicalConstants = PAPER) -> dict:
    """Long-window qubit rate of a 1 kg pure-quantum carrier: 4C²/h.

    The report carries a note flagging that the computed value differs from
    a previously circulated figure for the same expression.
    """
    value = 4.0 * consts.C**2 / consts.h
    return {
        "qubits_per_kg_s": value,
        "formula": "4*C^2/h",
        "published_value": PUBLISHED_UNIT_MASS_RATE,
        "note": UNIT_MASS_RATE_NOTE,
        "profile": consts.name,
    }


def universe_info(
    consts: PhysicalConstants = PAPER,
    radius_ly: float = 4.56e10,
    age: float = 4.3e17,
) -> dict:
    """Information budget of a flat universe, every intermediate included.

    Critical density 3H₀²/(8πG) times the observable volume gives the mass;
    the long-window carrier formula then gives the qubit total to date.
    """
    _require_finite(radius_ly=radius_ly, age=age)
    if radius_ly <= 0 or age <= 0:
        raise ValueError("radius and age must be positive")
    rho_c = 3.0 * consts.H0**2 / (8.0 * math.pi * consts.G)
    radius_m = radius_ly * consts.ly
    volume = (4.0 / 3.0) * math.pi * radius_m**3
    mass = rho_c * volume
    qubits = 4.0 * mass * consts.C**2 * age / consts.h
    return {
        "rho_c": {"value": rho_c, "unit": "kg/m^3"},
        "radius": {"value": radius_m, "unit": "m"},
        "volume": {"value": volume, "unit": "m^3"},
        "mass": {"value": mass, "unit": "kg"},
        "age": {"value": age, "unit": "s"},
        "qubits": {"value": qubits, "unit": "qubit"},
        "profile": consts.name,
    }
