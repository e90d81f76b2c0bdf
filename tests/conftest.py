"""Shared builders for desk-scale test instances.

Instances are trained on small Gaussian blobs and filtered so that every
cell's class-score gaps are either exactly zero or comfortably larger than
the solvers' strict-margin constant; that keeps the MILP search and the
exhaustive verifier in exact agreement.
"""

import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

from equiprune import milp
from equiprune.data import CONTINUOUS, Dataset, FeatureMeta
from equiprune.ensemble import Ensemble, predict_class, predict_scores, threshold_index, train_boosted
from equiprune.oracle import EPS_STRICT
from equiprune.plausibility import (
    ChowLiuModel,
    LeafSupportModel,
    score_chow_liu,
    score_isolation,
    score_leaf_support,
)
from equiprune.verify import iter_cells


def pytest_runtest_logreport(report):
    """One pass/fail line per acceptance criterion."""
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        verdict = "PASS" if report.passed else "FAIL"
        print(f"\n[acceptance] {name}: {verdict}")


@pytest.fixture(params=["binding", "linprog"])
def lp_path(request, monkeypatch):
    """Run a test once through the HiGHS binding and once through the
    ``linprog`` fallback that solves every node without it."""
    if request.param == "linprog":
        monkeypatch.setattr(milp, "_highs_core", None)
    elif milp._highs_core is None:
        pytest.skip("scipy's HiGHS binding is not available")


def scalar_score(model, e, x) -> float:
    """The score family's scalar function at one row: the reference the
    batched ``ScoreModel.scores`` must match bit for bit."""
    if isinstance(model, ChowLiuModel):
        return score_chow_liu(model, x)
    if isinstance(model, LeafSupportModel):
        return score_leaf_support(model, e, x)
    return score_isolation(model, x)


def blob_dataset(n, p=2, seed=0, spread=1.2):
    """Two Gaussian blobs, one per class."""
    rng = np.random.default_rng(seed)
    half = n // 2
    a = rng.normal(loc=-spread / 2, scale=0.6, size=(half, p))
    b = rng.normal(loc=spread / 2, scale=0.6, size=(n - half, p))
    rows = np.vstack([a, b])
    labels = np.concatenate([np.zeros(half, dtype=np.int64),
                             np.ones(n - half, dtype=np.int64)])
    order = rng.permutation(n)
    meta = tuple(FeatureMeta(name=f"x{j}", kind=CONTINUOUS) for j in range(p))
    return Dataset(rows=rows[order], labels=labels[order], feature_meta=meta,
                   label_names=("0", "1"))


def min_nonzero_gap(e: Ensemble, w) -> float:
    """Smallest nonzero |score gap| between any two classes over all cells."""
    theta = threshold_index(e)
    smallest = np.inf
    for _, x in iter_cells(theta):
        scores = predict_scores(e, w, x)
        for a in range(e.n_classes):
            for b in range(a + 1, e.n_classes):
                gap = abs(scores[a] - scores[b])
                if gap > 0:
                    smallest = min(smallest, gap)
    return float(smallest)


def min_strict_margin(e: Ensemble, points) -> float:
    """Smallest original-weights margin over strict class pairs (c2 < c)."""
    lowest = np.inf
    for x in points:
        cell = e.leaf_assignment(x)
        V = np.array([e.leaves(m)[cell[m]].scores for m in range(e.n_trees)])
        c = predict_class(e, e.weights0, x)
        F0 = e.weights0 @ V
        for c2 in range(c):
            lowest = min(lowest, float(F0[c] - F0[c2]))
    return float(lowest)


def support_oracle(e: Ensemble, points, eps):
    """Independent oracle: a function telling whether a support (a
    collection of tree indices) has an LP-feasible weighting summing to the
    total weight. Prices the same strict and tie margins as the production
    weight solve."""
    from equiprune.pruner import tie_margin

    M = e.n_trees
    w_total = float(e.weights0.sum())
    rows = []
    rhs = []
    for x in points:
        cell = e.leaf_assignment(x)
        V = np.array([e.leaves(m)[cell[m]].scores for m in range(M)])
        c = predict_class(e, e.weights0, x)
        F0 = e.weights0 @ V
        for c2 in range(e.n_classes):
            if c2 == c:
                continue
            rows.append(V[:, c] - V[:, c2])
            rhs.append(eps if c2 < c
                       else tie_margin(eps, float(F0[c] - F0[c2])))
    A_ub = -np.array(rows) if rows else None
    b_ub = -np.array(rhs) if rhs else None

    def feasible(subset) -> bool:
        bounds = [(0.0, w_total) if m in subset else (0.0, 0.0)
                  for m in range(M)]
        res = linprog(np.zeros(M), A_ub=A_ub, b_ub=b_ub,
                      A_eq=np.ones((1, M)), b_eq=[w_total], bounds=bounds,
                      method="highs")
        return res.status == 0

    return feasible


def subset_minimum_support(e: Ensemble, points, eps):
    """Smallest support size over all nonempty subsets that
    :func:`support_oracle` finds feasible."""
    feasible = support_oracle(e, points, eps)
    for size in range(1, e.n_trees + 1):
        for subset in itertools.combinations(range(e.n_trees), size):
            if feasible(subset):
                return size
    return None


def desk_instance(seed, p=2, n_rounds=4, depth=2, n_fit=48, n_cal=16,
                  margin_floor=10 * EPS_STRICT, max_attempts=20):
    """(ensemble, fit, cal) with all nonzero original-score gaps above the
    margin floor; resamples the data seed until the filter passes."""
    for attempt in range(max_attempts):
        ds = blob_dataset(n_fit + n_cal, p=p, seed=seed * 1000 + attempt)
        fit = ds.subset(range(n_fit))
        cal = ds.subset(range(n_fit, n_fit + n_cal))
        try:
            e = train_boosted(fit, n_rounds=n_rounds, max_depth=depth)
        except Exception:
            continue
        if min_nonzero_gap(e, e.weights0) > margin_floor:
            return e, fit, cal
    raise AssertionError(f"no margin-clean instance found for seed {seed}")
