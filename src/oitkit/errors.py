"""Domain exceptions, and the finiteness check the calculators share. All
exceptions inherit OitError so callers (notably the CLI) can tell domain
failures apart from usage errors."""

from __future__ import annotations

import math


def require_finite(**values: float) -> None:
    """Reject a NaN or infinite input by name, in the order given."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be a finite number, got {value}")


class OitError(Exception):
    """Base class for every domain-level failure raised by oitkit."""


class InvalidModelError(OitError):
    """An operation required a valid model and got one with violations."""

    def __init__(self, report):
        self.report = report
        lines = "; ".join(v.message for v in report.violations)
        super().__init__(f"model is invalid: {lines}")


class NotRestorableError(OitError):
    """The mapping is not injective on state values, so no inverse exists."""


class UnknownIndexError(OitError):
    """A state or reflection index does not exist in the model."""


class OverlapError(OitError):
    """Pieces being combined share a reflection entry."""


class ChainMismatchError(OitError):
    """A transmission chain junction does not line up."""


class MissingMeasureError(OitError):
    """A measure value needed by a metric is not assigned."""

    def __init__(self, kind: str, missing):
        self.kind = kind
        self.missing = list(missing)
        super().__init__(f"no {kind} measure for: {', '.join(map(str, self.missing))}")


class MissingCopiesError(OitError):
    """Coverage needs an explicit copy list and the model has none."""


class PartialRelationError(OitError):
    """An equivalence relation or relation set does not cover the model."""


class GapError(OitError):
    """Sampling gaps are absent, empty, or overlap the occurrence times."""


class DistanceError(OitError):
    """Distance inputs have mismatched dimensions or kinds."""


class SingularInnovationError(OitError):
    """The innovation covariance H·P·Hᵀ + R could not be factorised."""


class SearchError(OitError):
    """A mismatch search was set up inconsistently."""
