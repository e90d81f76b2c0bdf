"""Plausible-score models: fit on data, evaluate s(x), write s(x) as terms.

Three score families are provided, all with "smaller is more in-distribution"
semantics and all linear in indicators of cells, leaves or bins:

* Chow-Liu: negative log-likelihood of a tree-factorized discrete
  distribution over bin-discretized features. Bin boundaries are rounded to
  ensemble split thresholds so that the MILP-feasible region matches the
  score region exactly.
* Leaf support: per-tree negative log leaf-visitation frequency, summed over
  the ensemble's trees.
* Isolation forest: negated average corrected path length over random
  isolation trees.

Leaf support and the isolation forest route and sum their trees as the
model's prediction does (``ensemble.leaf_sums``): leaf support with its
costs as the leaf column of the model's trees, the isolation forest as a
one-score ensemble of its own with unit weights.

Each family subclasses :class:`ScoreModel`, which is all the counterexample
search and the verifier see. Its ``score_terms`` writes s(x) term by term,
each over a few features: :class:`TreeTerms` for leaf support and the
isolation forest, :class:`LookupTerms` for Chow-Liu. ``scores`` sums those
terms, the verifier tabulates them over cells, and the search encodes
s(x) <= tau from them (``oracle.encode_region``): one form of the score.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .data import Dataset, check_seed, read_json
from .ensemble import (
    Ensemble,
    Internal,
    Leaf,
    ThresholdIndex,
    TreeNode,
    as_rows,
    is_finite_number,
    is_int,
    leaf_sums,
    node_from_json,
    node_to_json,
    threshold_index,
)
from .errors import DegenerateGrid, NoThresholds, SchemaError, TooFewSamples

CHOW_LIU = "chowliu"
LEAF_SUPPORT = "leafsupport"
ISOLATION_FOREST = "iforest"
SCORE_KINDS = (CHOW_LIU, LEAF_SUPPORT, ISOLATION_FOREST)


class ScoreModel:
    """A fitted plausibility score s(x); smaller is more in-distribution.

    Subclasses provide ``kind``, ``score_terms(e)`` (the terms the batched
    ``scores(e, X)`` sums, the verifier tabulates and the search encodes),
    ``to_json()`` / ``from_json(obj)`` and ``check_ensemble(e)``.
    """

    kind: ClassVar[str]

    def score(self, e: Ensemble, x) -> float:
        """``scores`` of the single row x."""
        return float(self.scores(e, np.asarray(x, dtype=float)[None, :])[0])

    def scores(self, e: Ensemble, X) -> np.ndarray:
        """s(x) of every row of X: the sum of ``score_terms(e)``."""
        return self.score_terms(e).scores(X)

    def extra_thresholds(self) -> dict[int, list[float]]:
        """Thresholds the oracle must add so the score is exactly encodable.

        None by default: Chow-Liu bin boundaries, for one, are ensemble
        thresholds by construction."""
        return {}

    def check_ensemble(self, e: Ensemble) -> None:
        """Raise SchemaError, naming the JSON path at fault, unless the model
        was made for an ensemble of e's shape (a model read from a file may
        not have been)."""
        raise NotImplementedError


@dataclass(frozen=True)
class TreeTerms:
    """A score summed over trees: each tree of ``ensemble`` adds the row of
    ``values`` (one per stacked leaf row) at the leaf it reaches, in tree
    order from zero (``leaf_sums`` at unit weights), and the score is that
    sum divided by ``divisor``. Rows must have the ensemble's features."""

    ensemble: Ensemble
    values: np.ndarray
    divisor: float

    def scores(self, X) -> np.ndarray:
        e = self.ensemble
        total = leaf_sums(e, np.ones(e.n_trees), as_rows(X, e.n_features),
                          self.values)
        return total[:, 0] / self.divisor


@dataclass(frozen=True)
class LookupTerms:
    """A score summed over table lookups: for each (features, table) of
    ``terms`` in turn, from zero, the entry of table at the bins
    (``grid.bins_of``) of x on features, the table's axes in that order.
    Rows must have the grid's features."""

    grid: BinGrid
    terms: tuple[tuple[tuple[int, ...], np.ndarray], ...]

    def scores(self, X) -> np.ndarray:
        X = as_rows(X, self.grid.n_features)
        bins = {j: self.grid.bins_of(j, X[:, j])
                for features, _ in self.terms for j in features}
        total = np.zeros(len(X))
        for features, table in self.terms:
            total += table[tuple(bins[j] for j in features)]
        return total


# --- bin grid ---------------------------------------------------------------


def _sorted_finite(bounds) -> bool:
    """Whether ``bounds`` are finite and strictly increasing."""
    return (all(math.isfinite(v) for v in bounds)
            and all(a < b for a, b in zip(bounds, bounds[1:])))


@dataclass(frozen=True)
class BinGrid:
    """Per-feature interior bin boundaries, each grounded in the ensemble's
    split thresholds. Features never split by the ensemble are excluded.
    Each feature's boundaries are finite and strictly increasing, which
    ``bins_of`` and the search's bin indicators both assume."""

    boundaries: tuple[tuple[float, ...], ...]
    included: tuple[bool, ...]

    def __post_init__(self):
        for j, bounds in enumerate(self.boundaries):
            if not _sorted_finite(bounds):
                raise ValueError(f"the bin boundaries of feature {j} must be "
                                 f"finite and strictly increasing")

    @property
    def n_features(self) -> int:
        return len(self.boundaries)

    def n_bins(self, j: int) -> int:
        return len(self.boundaries[j]) + 1

    def bins_of(self, j: int, values) -> np.ndarray:
        """Bin index of every value of feature j: a value <= boundary lands
        in the lower bin, matching the tree routing convention, and a NaN in
        the last bin, where routing sends it too."""
        return np.searchsorted(self.boundaries[j], values, side="left")

    def included_features(self) -> list[int]:
        return [j for j in range(self.n_features) if self.included[j]]


def _lower_quantile(sorted_vals: np.ndarray, b: int, B: int) -> float:
    """Order statistic at 1-based index ceil(q * n) with q = b/B."""
    n = len(sorted_vals)
    idx = -((-b * n) // B)  # exact integer ceiling
    return float(sorted_vals[idx - 1])


def _round_to_thresholds(value: float, thresholds: tuple[float, ...]) -> float:
    """Nearest threshold; exact ties pick the larger value."""
    pos = bisect_left(thresholds, value)
    if pos == 0:
        return thresholds[0]
    if pos == len(thresholds):
        return thresholds[-1]
    lo, hi = thresholds[pos - 1], thresholds[pos]
    if value - lo < hi - value:
        return lo
    return hi  # ties go to the larger split value


def build_bin_grid(fit: Dataset, B: int, theta: ThresholdIndex) -> BinGrid:
    """Quantile bin boundaries per feature, rounded onto ensemble thresholds.

    Empirical quantiles at b/B (b = 1..B-1, lower interpolation) are mapped
    to the nearest element of the per-feature threshold set, deduplicated,
    and sorted. Features with no thresholds at all are flagged excluded.
    """
    if B < 2:
        raise ValueError("B must be >= 2")
    boundaries: list[tuple[float, ...]] = []
    included: list[bool] = []
    any_included = False
    for j in range(theta.n_features):
        ts = theta.thresholds(j)
        if not ts:
            boundaries.append(())
            included.append(False)
            continue
        vals = np.sort(fit.rows[:, j])
        rounded = {
            _round_to_thresholds(_lower_quantile(vals, b, B), ts)
            for b in range(1, B)
        }
        boundaries.append(tuple(sorted(rounded)))
        included.append(True)
        any_included = True
    if not any_included:
        raise NoThresholds("no feature carries a split threshold")
    return BinGrid(boundaries=tuple(boundaries), included=tuple(included))


# --- Chow-Liu tree model ----------------------------------------------------


@dataclass(frozen=True)
class ChowLiuModel(ScoreModel):
    """Tree-factorized distribution over discretized features.

    ``order`` lists the included features root-first in topological order;
    ``parent`` maps each non-root to its parent. ``root_table`` holds the
    root marginal; ``edge_tables[j][b_parent][b_child]`` the conditionals.
    All probabilities are pseudo-count smoothed, so every state has a finite
    negative log-likelihood.
    """

    grid: BinGrid
    root: int
    order: tuple[int, ...]
    parent: dict[int, int]
    root_table: np.ndarray
    edge_tables: dict[int, np.ndarray]
    beta: float
    kind: ClassVar[str] = CHOW_LIU
    # -math.log of root_table / edge_tables: the terms ``scores`` sums
    _root_nll: np.ndarray = field(init=False, repr=False, compare=False)
    _edge_nll: dict[int, np.ndarray] = field(init=False, repr=False,
                                             compare=False)

    def __post_init__(self):
        # math.log, not np.log: the two may differ in the last ulp
        object.__setattr__(self, "_root_nll", np.array(
            [-math.log(p) for p in self.root_table], dtype=float))
        object.__setattr__(self, "_edge_nll", {
            j: np.array([[-math.log(p) for p in row] for row in table],
                        dtype=float)
            for j, table in self.edge_tables.items()})

    @property
    def edges(self) -> list[tuple[int, int]]:
        return [(self.parent[j], j) for j in self.order if j != self.root]

    def score_terms(self, e: Ensemble) -> LookupTerms:
        """Negative log-likelihood of the bins under the model: the root
        term, then each edge term (parent, child) in ``order``."""
        return LookupTerms(grid=self.grid, terms=(
            ((self.root,), self._root_nll),
            *(((self.parent[j], j), self._edge_nll[j])
              for j in self.order if j != self.root)))

    def check_ensemble(self, e: Ensemble) -> None:
        """One bin grid per feature of the ensemble, each boundary a split
        threshold of the ensemble on its feature: the search and the
        verifier are exact only then."""
        if self.grid.n_features != e.n_features:
            raise SchemaError(f"{self.grid.n_features} features, but the "
                              f"ensemble has {e.n_features}", "$.boundaries")
        theta = threshold_index(e)
        for j, bounds in enumerate(self.grid.boundaries):
            stray = set(bounds).difference(theta.thresholds(j))
            if stray:
                raise SchemaError(f"{min(stray)!r} is not a split threshold of "
                                  f"the ensemble on feature {j}",
                                  f"$.boundaries[{j}]")

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "boundaries": [list(b) for b in self.grid.boundaries],
            "included": list(self.grid.included),
            "root": self.root,
            "order": list(self.order),
            "parents": {str(j): i for j, i in self.parent.items()},
            "root_table": [float(v) for v in self.root_table],
            "edge_tables": {str(j): [[float(v) for v in row] for row in t]
                            for j, t in self.edge_tables.items()},
            "beta": self.beta,
        }

    @classmethod
    def from_json(cls, obj) -> "ChowLiuModel":
        """The model written by :meth:`to_json`; boundaries that are not
        finite numbers in strictly increasing order, an order that does not
        start at the root or lists a feature before its parent, tables
        whose shapes do not match the grid's bins or whose entries are not
        finite and > 0, and a beta that is not finite and > 0, raise
        SchemaError."""
        boundaries = tuple(tuple(b) for b in obj["boundaries"])
        for j, bounds in enumerate(boundaries):
            if not (all(map(is_finite_number, bounds))
                    and _sorted_finite(bounds)):
                raise SchemaError("bin boundaries must be finite numbers in "
                                  "strictly increasing order",
                                  f"$.boundaries[{j}]")
        grid = BinGrid(boundaries=boundaries,
                       included=tuple(bool(v) for v in obj["included"]))
        root = int(obj["root"])
        order = tuple(int(v) for v in obj["order"])
        parent = {int(j): int(i) for j, i in obj["parents"].items()}
        root_table = _probabilities(obj["root_table"], "$.root_table")
        edge_tables = {int(j): _probabilities(t, f"$.edge_tables.{j}")
                       for j, t in obj["edge_tables"].items()}
        if root_table.shape != (grid.n_bins(root),):
            raise SchemaError(f"shape {root_table.shape} does not match the "
                              f"{grid.n_bins(root)} bins of feature {root}",
                              "$.root_table")
        if set(order) != {root, *parent} or set(edge_tables) != set(parent):
            raise SchemaError("root, order, parents and edge_tables name "
                              "different features")
        listed = {root}
        for j in order[1:]:
            if j in listed or parent[j] not in listed:
                break
            listed.add(j)
        if order[:1] != (root,) or root in parent or len(listed) < len(order):
            raise SchemaError("order must start at the root and list each "
                              "other feature once, after its parent",
                              "$.order")
        for j, table in edge_tables.items():
            want = (grid.n_bins(parent[j]), grid.n_bins(j))
            if table.shape != want:
                raise SchemaError(f"shape {table.shape} does not match the "
                                  f"grid's {want}", f"$.edge_tables.{j}")
        return cls(
            grid=grid,
            root=root,
            order=order,
            parent=parent,
            root_table=root_table,
            edge_tables=edge_tables,
            beta=_beta_from_json(obj),
        )


def check_beta(beta: float) -> None:
    """Raise ValueError unless ``beta``, the pseudo-count of the Chow-Liu
    and leaf-support fits, is finite and > 0."""
    if not (math.isfinite(beta) and beta > 0):
        raise ValueError(f"beta must be finite and > 0, got {beta}")


def _beta_from_json(obj) -> float:
    """``obj["beta"]``, a finite number > 0, else SchemaError at $.beta."""
    beta = obj["beta"]
    if not (is_finite_number(beta) and beta > 0):
        raise SchemaError("beta must be a finite number > 0", "$.beta")
    return float(beta)


def _probabilities(values, path: str) -> np.ndarray:
    """A Chow-Liu table read from JSON: finite entries > 0, whose -log is
    finite, else SchemaError at ``path``."""
    table = np.asarray(values, dtype=float)
    if not (np.isfinite(table).all() and (table > 0).all()):
        raise SchemaError("entries must be finite numbers > 0", path)
    return table


def mutual_information(a: np.ndarray, b: np.ndarray, na: int, nb: int) -> float:
    """Plug-in empirical mutual information (nats) of two discrete columns."""
    n = len(a)
    joint = np.zeros((na, nb))
    np.add.at(joint, (a, b), 1.0)
    joint /= n
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    mi = 0.0
    for i in range(na):
        for k in range(nb):
            if joint[i, k] > 0:
                mi += joint[i, k] * math.log(joint[i, k] / (pa[i] * pb[k]))
    return mi


def fit_chow_liu(fit: Dataset, grid: BinGrid, beta: float = 1.0) -> ChowLiuModel:
    """Maximum spanning tree over pairwise mutual information, with
    pseudo-count-smoothed probability tables.

    Kruskal ties are broken by lexicographic edge index; the root is the
    maximum-degree node (ties to the lowest feature index).
    """
    nodes = grid.included_features()
    if not nodes:
        raise DegenerateGrid("no included features to model")
    check_beta(beta)

    disc = {j: grid.bins_of(j, fit.rows[:, j]) for j in nodes}

    # Maximum spanning tree (Kruskal over -MI, ties lexicographic).
    chosen: list[tuple[int, int]] = []
    if len(nodes) > 1:
        scored = []
        for ai in range(len(nodes)):
            for bi in range(ai + 1, len(nodes)):
                i, j = nodes[ai], nodes[bi]
                mi = mutual_information(disc[i], disc[j], grid.n_bins(i), grid.n_bins(j))
                scored.append((-mi, i, j))
        scored.sort()
        parent_uf = {j: j for j in nodes}

        def find(a):
            while parent_uf[a] != a:
                parent_uf[a] = parent_uf[parent_uf[a]]
                a = parent_uf[a]
            return a

        for _, i, j in scored:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent_uf[ri] = rj
                chosen.append((i, j))

    adjacency: dict[int, list[int]] = {j: [] for j in nodes}
    for i, j in chosen:
        adjacency[i].append(j)
        adjacency[j].append(i)

    root = max(nodes, key=lambda j: (len(adjacency[j]), -j))

    # Orient edges away from the root.
    order = [root]
    parent: dict[int, int] = {}
    frontier = [root]
    seen = {root}
    while frontier:
        u = frontier.pop(0)
        for v in sorted(adjacency[u]):
            if v not in seen:
                seen.add(v)
                parent[v] = u
                order.append(v)
                frontier.append(v)

    n = fit.n_rows
    Br = grid.n_bins(root)
    counts = np.bincount(disc[root], minlength=Br).astype(float)
    root_table = (counts + beta) / (n + beta * Br)

    edge_tables: dict[int, np.ndarray] = {}
    for j in order:
        if j == root:
            continue
        i = parent[j]
        Bi, Bj = grid.n_bins(i), grid.n_bins(j)
        joint = np.zeros((Bi, Bj))
        np.add.at(joint, (disc[i], disc[j]), 1.0)
        table = (joint + beta) / (joint.sum(axis=1, keepdims=True) + beta * Bj)
        edge_tables[j] = table

    return ChowLiuModel(grid=grid, root=root, order=tuple(order), parent=parent,
                        root_table=root_table, edge_tables=edge_tables,
                        beta=float(beta))


# --- leaf support -----------------------------------------------------------


@dataclass(frozen=True)
class LeafSupportModel(ScoreModel):
    """Per-tree, per-leaf costs a = -log(smoothed visitation frequency)."""

    costs: tuple[tuple[float, ...], ...]
    beta: float
    kind: ClassVar[str] = LEAF_SUPPORT
    # the costs laid end to end as one column, a row per leaf
    _cost_column: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_cost_column", np.array(
            [v for row in self.costs for v in row], dtype=float)[:, None])

    def score_terms(self, e: Ensemble) -> TreeTerms:
        """Sum of the per-tree costs at the leaves of e's trees, in tree
        order."""
        return TreeTerms(ensemble=e, values=self._cost_column, divisor=1.0)

    def check_ensemble(self, e: Ensemble) -> None:
        """One cost row per tree, one cost per leaf of that tree."""
        if len(self.costs) != e.n_trees:
            raise SchemaError(f"{len(self.costs)} cost rows, but the "
                              f"ensemble has {e.n_trees} trees", "$.costs")
        n_leaves = np.diff(e._stacked.first_leaf).tolist()
        for m, row in enumerate(self.costs):
            if len(row) != n_leaves[m]:
                raise SchemaError(f"{len(row)} costs, but tree {m} has "
                                  f"{n_leaves[m]} leaves", f"$.costs[{m}]")

    def to_json(self) -> dict:
        return {"kind": self.kind, "costs": [list(row) for row in self.costs],
                "beta": self.beta}

    @classmethod
    def from_json(cls, obj) -> "LeafSupportModel":
        """The model written by :meth:`to_json`; a cost that is not a
        finite number raises SchemaError at its row."""
        costs = []
        for m, row in enumerate(obj["costs"]):
            if not all(map(is_finite_number, row)):
                raise SchemaError("costs must be finite numbers",
                                  f"$.costs[{m}]")
            costs.append(tuple(float(v) for v in row))
        return cls(costs=tuple(costs), beta=_beta_from_json(obj))


def fit_leaf_support(e: Ensemble, fit: Dataset, beta: float = 1.0) -> LeafSupportModel:
    """Count leaf visits on the fit set and convert to smoothed -log costs."""
    check_beta(beta)
    costs: list[tuple[float, ...]] = []
    leaves = e.leaf_matrix(fit.rows)
    for m, n_leaves in enumerate(np.diff(e._stacked.first_leaf).tolist()):
        counts = np.bincount(leaves[:, m], minlength=n_leaves).astype(float)
        probs = (counts + beta) / (counts.sum() + beta * n_leaves)
        costs.append(tuple(-np.log(probs)))
    return LeafSupportModel(costs=tuple(costs), beta=float(beta))


# --- isolation forest ------------------------------------------------------


def average_path_length(n: int) -> float:
    """Expected search length correction c(n); c(1) = 0 by convention."""
    if n <= 1:
        return 0.0
    harmonic = sum(1.0 / i for i in range(1, n))
    return 2.0 * harmonic - 2.0 * (n - 1) / n


@dataclass(frozen=True)
class IsolationForestModel(ScoreModel):
    """K isolation trees; leaves carry the corrected path length h as their
    single score entry, so the trees form a one-score ensemble of their own
    with unit weights."""

    trees: tuple[TreeNode, ...]
    n_features: int
    kind: ClassVar[str] = ISOLATION_FOREST
    _forest: Ensemble = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_forest", Ensemble(
            trees=list(self.trees), weights0=np.ones(len(self.trees)),
            n_classes=1, n_features=self.n_features))

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    def extra_thresholds(self) -> dict[int, list[float]]:
        """Every isolation-tree split, sorted per feature: none is an
        ensemble threshold."""
        per_feature = threshold_index(self._forest).per_feature
        return {j: list(ts) for j, ts in enumerate(per_feature) if ts}

    def score_terms(self, e: Ensemble) -> TreeTerms:
        """Negated average corrected path length, summed in tree order:
        smaller is more in-distribution. Dividing by -K gives the bits of
        -(sum) / K, as division is symmetric in sign."""
        return TreeTerms(ensemble=self._forest,
                         values=self._forest._stacked.leaf_scores,
                         divisor=-float(self.n_trees))

    def check_ensemble(self, e: Ensemble) -> None:
        """The ensemble's feature count."""
        if self.n_features != e.n_features:
            raise SchemaError(f"{self.n_features} features, but the ensemble "
                              f"has {e.n_features}", "$.n_features")

    def to_json(self) -> dict:
        return {"kind": self.kind, "n_features": self.n_features,
                "trees": [node_to_json(t, lambda leaf: leaf.scores[0])
                          for t in self.trees]}

    @classmethod
    def from_json(cls, obj) -> "IsolationForestModel":
        n_features, trees = obj["n_features"], obj["trees"]
        if not is_int(n_features) or n_features < 1:
            raise SchemaError("n_features must be a positive integer",
                              "$.n_features")
        if not isinstance(trees, list) or not trees:
            raise SchemaError("trees must be a non-empty list", "$.trees")
        return cls(trees=tuple(node_from_json(t, f"$.trees[{i}]", n_features,
                                              _iso_leaf_from_json)
                               for i, t in enumerate(trees)),
                   n_features=n_features)


def _grow_isolation_tree(X: np.ndarray, rows: np.ndarray, depth: int,
                         cap: int, rng: np.random.Generator) -> TreeNode:
    n = len(rows)
    if n <= 1 or depth >= cap:
        return Leaf(scores=(depth + average_path_length(n),))
    spread = [j for j in range(X.shape[1])
              if X[rows, j].min() < X[rows, j].max()]
    if not spread:
        return Leaf(scores=(depth + average_path_length(n),))
    j = spread[rng.integers(len(spread))]
    lo, hi = X[rows, j].min(), X[rows, j].max()
    thr = float(rng.uniform(lo, hi))
    mask = X[rows, j] <= thr
    return Internal(
        feature=j,
        threshold=thr,
        left=_grow_isolation_tree(X, rows[mask], depth + 1, cap, rng),
        right=_grow_isolation_tree(X, rows[~mask], depth + 1, cap, rng),
    )


def fit_isolation_forest(fit: Dataset, K: int = 30, max_samples: int = 256,
                         seed: int = 0) -> IsolationForestModel:
    """Grow K isolation trees (random feature, uniform split in the current
    range, depth cap ceil(log2(sample size)))."""
    if K < 1:
        raise ValueError("K must be >= 1")
    if max_samples < 2:
        raise ValueError("max_samples must be >= 2")
    check_seed(seed)
    n = fit.n_rows
    if n < 2:
        raise TooFewSamples("isolation forest needs at least 2 rows")
    rng = np.random.Generator(np.random.Philox(seed))
    sample_size = min(max_samples, n)
    cap = math.ceil(math.log2(sample_size))
    trees = []
    for _ in range(K):
        rows = rng.choice(n, size=sample_size, replace=False)
        trees.append(_grow_isolation_tree(fit.rows, rows, 0, cap, rng))
    return IsolationForestModel(trees=tuple(trees), n_features=fit.n_features)


# --- fitting and persistence ---------------------------------------------


def fit_score_model(kind: str, e: Ensemble, fit: Dataset, *, bins: int = 4,
                    beta: float = 1.0, if_trees: int = 30,
                    if_max_samples: int = 256, seed: int = 0) -> ScoreModel:
    """Fit the named score family on the fit set."""
    if kind == CHOW_LIU:
        grid = build_bin_grid(fit, bins, threshold_index(e))
        return fit_chow_liu(fit, grid, beta)
    if kind == LEAF_SUPPORT:
        return fit_leaf_support(e, fit, beta)
    if kind == ISOLATION_FOREST:
        return fit_isolation_forest(fit, K=if_trees,
                                    max_samples=if_max_samples, seed=seed)
    raise ValueError(f"unknown score kind {kind!r}")


def _iso_leaf_from_json(value, path: str) -> Leaf:
    if not is_finite_number(value):
        raise SchemaError("leaf must be a finite number", path)
    return Leaf(scores=(float(value),))


def save_score_model(model: ScoreModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model.to_json(), fh)


def load_score_model(path) -> ScoreModel:
    """Read a score model written by :func:`save_score_model`; a file that
    does not follow that layout raises SchemaError, one that is not UTF-8
    JSON ParseError."""
    families = {cls.kind: cls
                for cls in (ChowLiuModel, LeafSupportModel, IsolationForestModel)}
    obj = read_json(path)
    if not isinstance(obj, dict):
        raise SchemaError("a score model must be an object")
    kind = obj.get("kind")
    family = families.get(kind) if isinstance(kind, str) else None
    if family is None:
        raise SchemaError(f"unknown score model kind {kind!r}", "$.kind")
    try:
        return family.from_json(obj)
    except KeyError as err:
        raise SchemaError(f"missing key {err.args[0]!r}") from err
    except (AttributeError, IndexError, TypeError, ValueError) as err:
        raise SchemaError(f"malformed score model: {err}") from err
