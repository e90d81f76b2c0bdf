"""Test-set metrics and post-hoc miscoverage-level selection.

Fidelity is the fraction of test points where pruned and original weightings
predict the same class. With a score region, coverage is the fraction of
test points inside it and conditional fidelity is measured over those points
only (explicitly undefined, never NaN, when no test point is inside).

The two alpha selectors pick the largest candidate whose held-out mismatch
evidence meets a target fidelity: the empirical rule thresholds the observed
rate; the confidence-bound rule thresholds a Bonferroni-corrected one-sided
Clopper-Pearson upper bound, and falls back to the unpruned ensemble when no
candidate qualifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .ensemble import SUPPORT_TOL, Ensemble, predict_classes
from .errors import EmptyTestSet
from .plausibility import ScoreModel


@dataclass(frozen=True)
class EvalReport:
    fidelity: float
    coverage: float | None
    conditional_fidelity: float | None  # None when no test point is in-region
    pruning_rate: float
    compression_ratio: float
    accuracy_pruned: float | None
    accuracy_original: float | None
    n_test: int
    n_match: int
    n_in_region: int
    n_in_region_match: int
    support_size: int
    n_trees: int

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def support_size(w, total_weight: float = 1.0) -> int:
    """Trees kept by w: weights above ``SUPPORT_TOL`` of max(1, total
    weight), the rule the weight solve drops trees by."""
    w = np.asarray(w, dtype=float)
    return int(np.count_nonzero(np.abs(w) > SUPPORT_TOL * max(total_weight, 1.0)))


def evaluate(e: Ensemble, w0, w, test: Dataset,
             region: tuple[ScoreModel, float] | None = None) -> EvalReport:
    """Exact empirical metrics on the test set."""
    if test.n_rows == 0:
        raise EmptyTestSet("evaluation requires at least one test row")
    n = test.n_rows
    c0 = predict_classes(e, w0, test.rows)
    c1 = predict_classes(e, w, test.rows)
    match = c0 == c1
    n_match = int(np.count_nonzero(match))
    n_in = n_in_match = 0
    if region is not None:
        model, tau = region
        inside = model.scores(e, test.rows) <= tau
        n_in = int(np.count_nonzero(inside))
        n_in_match = int(np.count_nonzero(inside & match))
    acc0 = acc1 = 0
    if test.labels is not None:
        acc0 = int(np.count_nonzero(c0 == test.labels))
        acc1 = int(np.count_nonzero(c1 == test.labels))

    k = support_size(w, total_weight=float(np.asarray(w0, dtype=float).sum()))
    M = e.n_trees
    return EvalReport(
        fidelity=n_match / n,
        coverage=None if region is None else n_in / n,
        conditional_fidelity=(n_in_match / n_in) if (region is not None and n_in > 0)
        else None,
        pruning_rate=1.0 - k / M,
        compression_ratio=math.inf if k == 0 else M / k,
        accuracy_pruned=None if test.labels is None else acc1 / n,
        accuracy_original=None if test.labels is None else acc0 / n,
        n_test=n, n_match=n_match, n_in_region=n_in,
        n_in_region_match=n_in_match, support_size=k, n_trees=M,
    )


def clopper_pearson_upper(k: int, n: int, eta: float) -> float:
    """One-sided Clopper-Pearson upper confidence bound on a binomial rate.

    The smallest q with P[Bin(n, q) <= k] = eta, found by bisection on the
    exact binomial CDF (absolute tolerance 1e-10); k = n gives 1.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if not 0 < eta < 1:
        raise ValueError("eta must be in (0, 1)")
    if k == n:
        return 1.0
    # imported here, its only use: scipy.stats alone would add about a
    # second and 20 MB to ``import equiprune``
    from scipy import stats

    lo, hi = 0.0, 1.0
    while hi - lo > 1e-10:
        mid = (lo + hi) / 2
        if stats.binom.cdf(k, n, mid) > eta:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


EMPIRICAL = "empirical"
CONFIDENCE_BOUND = "confidence_bound"


@dataclass(frozen=True)
class AlphaSelection:
    """Outcome of a selection rule over a finite candidate grid."""

    kind: str
    rho_star: float
    delta: float
    n: int
    mismatches: tuple[tuple[float, int], ...]  # (alpha, K) sorted by alpha
    chosen: float | None  # None means fall back to the unpruned ensemble

    @property
    def fallback(self) -> bool:
        return self.chosen is None

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "rho_star": self.rho_star,
            "delta": self.delta,
            "n": self.n,
            "mismatches": [[a, k] for a, k in self.mismatches],
            "chosen": self.chosen,
            "fallback": self.fallback,
        }


def select_alpha(mismatches: dict[float, int], n: int, rho_star: float,
                 kind: str = EMPIRICAL, delta: float = 0.05) -> AlphaSelection:
    """Largest candidate meeting the target fidelity, else fallback.

    Empirical rule: 1 - K/n >= rho_star. Confidence-bound rule:
    U_CP(K, n, delta/|grid|) <= 1 - rho_star (Bonferroni over the grid).
    """
    if not mismatches:
        raise ValueError("selection needs at least one candidate")
    if not 0 <= rho_star <= 1:  # NaN too
        raise ValueError(f"rho_star must be in [0, 1], got {rho_star}")
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    grid = sorted(mismatches)
    chosen = None
    for alpha in sorted(grid, reverse=True):
        K = mismatches[alpha]
        if kind == EMPIRICAL:
            ok = 1.0 - K / n >= rho_star
        elif kind == CONFIDENCE_BOUND:
            ok = clopper_pearson_upper(K, n, delta / len(grid)) <= 1.0 - rho_star
        else:
            raise ValueError(f"unknown selector kind {kind!r}")
        if ok:
            chosen = alpha
            break
    return AlphaSelection(kind=kind, rho_star=rho_star, delta=delta, n=n,
                          mismatches=tuple((a, mismatches[a]) for a in grid),
                          chosen=chosen)


def count_mismatches(e: Ensemble, w0, w, sel: Dataset) -> int:
    """Held-out mismatch count between two weightings."""
    return int(np.count_nonzero(predict_classes(e, w0, sel.rows)
                                != predict_classes(e, w, sel.rows)))


REPORT_COLUMNS = [
    "dataset", "seed", "method", "alpha", "pruning_rate", "fidelity",
    "coverage", "conditional_fidelity", "accuracy_pruned",
    "accuracy_original", "certified", "guarantee_scope", "time_s",
    "iterations",
]


def report_row(dataset: str, seed: int, method: str, alpha: float | None,
               report: EvalReport, certified: bool, scope: str,
               time_s: float, iterations: int) -> dict:
    """One CSV row in the standard sweep layout; an undefined value (None)
    is an empty cell."""
    row = dict(dataset=dataset, seed=seed, method=method, alpha=alpha,
               pruning_rate=report.pruning_rate, fidelity=report.fidelity,
               coverage=report.coverage,
               conditional_fidelity=report.conditional_fidelity,
               accuracy_pruned=report.accuracy_pruned,
               accuracy_original=report.accuracy_original,
               certified=certified, guarantee_scope=scope, time_s=time_s,
               iterations=iterations)
    return {k: "" if v is None else v for k, v in row.items()}
