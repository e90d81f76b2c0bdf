"""Split-conformal threshold calibration.

Given calibration scores s_1..s_n and a miscoverage level alpha, the
threshold is the k-th smallest score with k = ceil((n+1)(1-alpha)).
When k = n+1 the threshold is +infinity, meaning every point is inside the
region; the search model treats that sentinel as "skip the constraint",
which makes full-space pruning the tau=+inf special case of the same code
path.

Under exchangeability of the calibration scores and a future score, the
probability that the future score is <= the threshold is at least 1-alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import AlphaOutOfRange, EmptyCalibrationSet


@dataclass(frozen=True)
class CalibrationResult:
    """Calibrated threshold plus the audit trail that produced it."""

    alpha: float
    n: int
    k: int
    tau: float  # +inf when k == n + 1
    sorted_scores: tuple[float, ...]

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.tau)

    def covers(self, score: float) -> bool:
        return score <= self.tau

    def to_json(self) -> dict:
        # JSON has no Infinity literal; +inf is serialized as null.
        return {
            "alpha": self.alpha,
            "n": self.n,
            "k": self.k,
            "tau": None if self.is_infinite else self.tau,
        }


def order_index(n: int, alpha: float) -> int:
    """k = ceil((n+1)(1-alpha)), evaluated exactly on the caller's float.

    Fraction arithmetic avoids float-ceiling artifacts when (n+1)(1-alpha)
    sits at an integer boundary.
    """
    return math.ceil((n + 1) * (1 - Fraction(alpha)))


def calibrate(scores, alpha: float) -> CalibrationResult:
    """Split-conformal threshold for the given miscoverage level.

    Ties among scores are handled by plain order statistics; the coverage
    guarantee holds regardless. Deterministic (stable sort) and invariant to
    the input order.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.size == 0:
        raise EmptyCalibrationSet("calibration requires at least one score")
    if not np.all(np.isfinite(scores)):
        raise EmptyCalibrationSet("calibration scores must be finite")
    if not 0.0 < alpha < 1.0:
        raise AlphaOutOfRange(f"alpha must be in (0, 1), got {alpha}")

    ordered = np.sort(scores, kind="stable")
    n = int(scores.size)
    k = order_index(n, alpha)
    tau = math.inf if k >= n + 1 else float(ordered[k - 1])
    return CalibrationResult(alpha=float(alpha), n=n, k=k, tau=tau,
                             sorted_scores=tuple(float(s) for s in ordered))
