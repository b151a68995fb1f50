"""Logical error rate estimation and projection."""

from .estimator import (
    LerResult,
    estimate_logical_error_rate,
    estimate_until_failures,
)
from .projection import LerProjection, fit_projection
from .threshold import ThresholdScan, scan_threshold

__all__ = [
    "LerResult",
    "estimate_logical_error_rate",
    "estimate_until_failures",
    "LerProjection",
    "fit_projection",
    "ThresholdScan",
    "scan_threshold",
]
