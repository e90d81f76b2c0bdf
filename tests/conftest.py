"""Shared builders for desk-scale test instances, and the scalar references
that the library's batched prediction, scoring, cell walk and MILP
certificate check are checked against.

Instances are trained on small Gaussian blobs and filtered so that every
cell's class-score gaps are either exactly zero or comfortably larger than
the solvers' strict-margin constant; that keeps the MILP search and the
exhaustive verifier in exact agreement.
"""

import itertools
import math
from bisect import bisect_left

import numpy as np
import pytest
from scipy.optimize import linprog

from equiprune import milp
from equiprune.data import CONTINUOUS, Dataset, FeatureMeta
from equiprune.ensemble import (
    Ensemble,
    Internal,
    Leaf,
    threshold_index,
    train_boosted,
)
from equiprune.oracle import EPS_STRICT
from equiprune.plausibility import ChowLiuModel, LeafSupportModel


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


# --- scalar references ------------------------------------------------------
# One row or one cell at a time, in plain Python. The library has one batched
# path for each of these jobs; on finite input it must match them bit for
# bit, ties and summation order included.


def tree_leaves(root) -> list[Leaf]:
    """All leaves of a tree in left-to-right order."""
    if isinstance(root, Leaf):
        return [root]
    return tree_leaves(root.left) + tree_leaves(root.right)


def leaf_paths(root) -> list[tuple[tuple[int, float, bool], ...]]:
    """Per leaf (left-to-right order), the (feature, threshold, goes_left)
    decisions on its root-to-leaf path: the reference for
    ``StackedTrees.paths``."""
    if isinstance(root, Leaf):
        return [()]
    return ([((root.feature, root.threshold, True), *path)
             for path in leaf_paths(root.left)]
            + [((root.feature, root.threshold, False), *path)
               for path in leaf_paths(root.right)])


def leaf_of(root, x) -> int:
    """Index (left-to-right order) of the leaf reached by x."""
    node = root
    index = 0
    while isinstance(node, Internal):
        if x[node.feature] <= node.threshold:
            node = node.left
        else:
            index += len(tree_leaves(node.left))
            node = node.right
    return index


def leaf_assignment(e: Ensemble, x) -> tuple[int, ...]:
    """Leaf index reached in every tree: the cell of x."""
    return tuple(leaf_of(t, x) for t in e.trees)


def predict_scores(e: Ensemble, w, x) -> np.ndarray:
    """Ensemble score vector: sum over trees, in tree order, of weight *
    reached-leaf scores; trees of weight zero are skipped."""
    total = np.zeros(e.n_classes)
    for m, tree in enumerate(e.trees):
        if w[m] == 0.0:
            continue
        total += w[m] * np.asarray(e.leaves(m)[leaf_of(tree, x)].scores)
    return total


def predict_class(e: Ensemble, w, x) -> int:
    """Argmax class of ``predict_scores``; ties go to the smallest index."""
    return int(np.argmax(predict_scores(e, w, x)))


def iter_cells(theta):
    """Yield (indices, representative point) for every cell exactly once,
    in ``itertools.product`` order."""
    table = theta.representatives()
    for indices in itertools.product(*(range(len(t)) for t in table)):
        yield indices, np.array([table[j][k] for j, k in enumerate(indices)])


def fix_cell(model: milp.MilpModel, mu, indices) -> None:
    """Add rows fixing the interval indicators ``mu`` of ``model`` to one
    cell, whose interval of feature j is ``indices[j]``: mu[j][k]
    (x_j <= the k-th threshold) is 1 exactly when k >= indices[j]."""
    for row, i in zip(mu, indices):
        for k, var in enumerate(row):
            model.add_constraint({var: 1.0}, milp.EQUAL, float(k >= i))


def best_split_reference(X, g, h, rows, reg):
    """The exact greedy split search one cut at a time: every feature in
    turn, its cuts in ascending order of its stably sorted values; a cut
    replaces the best so far when its gain beats the best's by more than
    1e-12. Returns (gain, feature, threshold) or None, as
    ``ensemble._best_split`` must, bit for bit."""

    def score(G, H):
        return G * G / (H + reg)

    G_tot, H_tot = g[rows].sum(), h[rows].sum()
    base = score(G_tot, H_tot)
    best = None
    for j in range(X.shape[1]):
        vals = X[rows, j]
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        sg = g[rows][order]
        sh = h[rows][order]
        GL = np.cumsum(sg)
        HL = np.cumsum(sh)
        for i in range(len(rows) - 1):
            if sv[i] == sv[i + 1]:
                continue
            gain = score(GL[i], HL[i]) + score(G_tot - GL[i], H_tot - HL[i]) - base
            thr = 0.5 * (sv[i] + sv[i + 1])
            if best is None or gain > best[0] + 1e-12:
                best = (gain, j, thr)
    if best is None or best[0] <= 1e-12:
        return None
    return best


def chow_liu_state_score(model: ChowLiuModel, state: dict[int, int]) -> float:
    """Negative log-likelihood of one state: the root term, then each edge
    term in ``order``."""
    total = -math.log(model.root_table[state[model.root]])
    for j in model.order:
        if j != model.root:
            total += -math.log(
                model.edge_tables[j][state[model.parent[j]], state[j]])
    return total


def score_chow_liu(model: ChowLiuModel, x) -> float:
    """Negative log-likelihood of the bins of x; a value on a boundary goes
    to the lower bin."""
    state = {j: bisect_left(model.grid.boundaries[j], x[j]) for j in model.order}
    return chow_liu_state_score(model, state)


def score_leaf_support(model: LeafSupportModel, e: Ensemble, x) -> float:
    """Sum of the per-tree costs at the leaves x reaches."""
    return sum(model.costs[m][leaf_of(tree, x)]
               for m, tree in enumerate(e.trees))


def score_isolation(model, x) -> float:
    """Negated average corrected path length over the isolation trees."""
    total = 0.0
    for tree in model.trees:
        total += tree_leaves(tree)[leaf_of(tree, x)].scores[0]
    return -total / model.n_trees


def scalar_score(model, e, x) -> float:
    """The score family's scalar function at one row: the reference the
    batched ``ScoreModel.scores`` must match bit for bit."""
    if isinstance(model, ChowLiuModel):
        return score_chow_liu(model, x)
    if isinstance(model, LeafSupportModel):
        return score_leaf_support(model, e, x)
    return score_isolation(model, x)


def check_feasible_rows(model: milp.MilpModel, values,
                        feas_tol: float = milp.FEAS_TOL) -> bool:
    """Reference for ``milp.check_feasible``: every bound, then every row's
    left side summed term by term in the row's order; a non-finite value
    fails."""
    values = np.asarray(values, dtype=float).tolist()
    if not all(map(math.isfinite, values)):
        return False
    for j, v in enumerate(model.variables):
        if values[j] < v.lb - feas_tol or values[j] > v.ub + feas_tol:
            return False
    for con in model.constraints:
        lhs = sum(c * values[j] for j, c in con.coeffs)
        if con.relation == milp.LESS_EQUAL and lhs > con.rhs + feas_tol:
            return False
        if con.relation == milp.GREATER_EQUAL and lhs < con.rhs - feas_tol:
            return False
        if con.relation == milp.EQUAL and abs(lhs - con.rhs) > feas_tol:
            return False
    return True


def huge_threshold_flip():
    """A one-feature ensemble split at 1e17, where t + 1.0 == t, and the
    weighting that flips exactly its right-unbounded cell: (ensemble, w)."""
    split = Internal(feature=0, threshold=1e17, left=Leaf(scores=(0.0, 1.0)),
                     right=Leaf(scores=(1.0, 0.0)))
    e = Ensemble(trees=[split, Leaf(scores=(0.0, 0.5))], weights0=np.ones(2),
                 n_classes=2, n_features=1)
    return e, np.array([0.0, 1.0])


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
        cell = leaf_assignment(e, x)
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
        cell = leaf_assignment(e, x)
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
