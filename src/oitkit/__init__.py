"""oitkit: sextuple information models, their metrics, the classical
calculators attached to each metric, and physical information budgets.

Importing the package loads none of its submodules. Each public name below
is imported from its submodule on first access (PEP 562), so a program, or a
CLI verb, pays only for the modules it uses. The package's own modules reach
a module they need only on some paths the same way, as `oitkit.metrics`.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "classical": (
        "InvarianceResult",
        "KalmanStep",
        "LinearSystemSpec",
        "NetworkValueResult",
        "SearchResult",
        "SearchSetup",
        "aggregation_invariance_check",
        "asl",
        "bisection_average_depth",
        "kalman_filter",
        "metcalfe_value",
        "mtbf_duration",
        "network_value_check",
        "nyquist_min_rate",
        "nyquist_restorable",
        "radar_max_range",
        "rayleigh_granularity",
        "search_min_mismatch",
        "serial_chain_delay",
        "shannon_min_volume",
        "variety_invariance_check",
    ),
    "errors": (
        "ChainMismatchError",
        "DistanceError",
        "GapError",
        "InvalidModelError",
        "MissingCopiesError",
        "MissingMeasureError",
        "NotRestorableError",
        "OitError",
        "OverlapError",
        "PartialRelationError",
        "SearchError",
        "SingularInnovationError",
        "UnknownIndexError",
    ),
    "metrics": (
        "DistanceSpec",
        "EquivalenceRelation",
        "RelationSet",
        "aggregation",
        "coverage",
        "delay",
        "distortion",
        "duration",
        "granularity",
        "metric_report",
        "mismatch",
        "sampling_rate",
        "scope",
        "variety",
        "volume",
    ),
    "model": (
        "AtomicInfo",
        "CopyRecord",
        "InformationModel",
        "MeasureAssignment",
        "StateEntry",
        "ValidationReport",
        "Violation",
        "combine",
        "compose_chain",
        "decompose_atomic",
        "is_restorable",
        "make_atom",
        "restore",
        "validate",
    ),
    "physics": (
        "CODATA",
        "PAPER",
        "CarrierSpec",
        "PhysicalConstants",
        "QuantumVolume",
        "bits_per_kg",
        "carrier_volume",
        "min_bit_mass",
        "profile",
        "quantum_volume",
        "qubits_per_kg_second",
        "universe_info",
    ),
    "timeset": ("TimeSet", "seconds", "seconds_str"),
}

# public name -> the submodule that defines it
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    if name in _EXPORTS:
        from importlib import import_module

        return import_module(f"{__name__}.{name}")
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__getattr__(module), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
