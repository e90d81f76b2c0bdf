"""Weighted tree ensembles: representation, prediction, training, and I/O.

The routing convention is fixed everywhere in this package: an internal node
sends ``x[feature] <= threshold`` to the left child. Leaf score vectors all
have length ``n_classes``; the ensemble score is the weight-scaled sum of the
reached leaf vectors, and the predicted class is the argmax with ties broken
toward the smallest class index.

At run time every tree is held in one form, :class:`StackedTrees`: the
model's trees and the trees inside the plausibility scores (leaf support
sums per-leaf costs over the model's trees, the isolation forest is a
one-score ensemble of its own) are all routed by ``stacked_leaves`` and
summed in tree order by ``leaf_sums``, and the counterexample search
encodes them from their stacked leaf rows and paths. ``Leaf`` / ``Internal``
nodes are only the form trees are built, stacked and written in.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, read_json
from .errors import DegenerateLabels, DimensionMismatch, SchemaError


@dataclass(frozen=True)
class Leaf:
    scores: tuple[float, ...]


@dataclass(frozen=True)
class Internal:
    feature: int
    threshold: float
    left: "Leaf | Internal"
    right: "Leaf | Internal"


TreeNode = Leaf | Internal


@dataclass(frozen=True)
class StackedTrees:
    """The pre-order node arrays of a list of trees laid end to end, so that
    one pass per level routes any subset of them (``stacked_leaves``). It is
    the only form a tree takes at run time.

    ``roots[m]`` is tree m's root, ``depths[m]`` its depth (its longest
    root-to-leaf path), ``features[m]`` its split features, sorted, and
    ``splits[m][i]`` the distinct thresholds it splits ``features[m][i]``
    at, sorted. Node
    i sends a row to ``children[2 * i + goes_left]``: its right child, then
    its left; a leaf is its own child both ways (it reads feature 0 and
    stays put). ``leaf`` indexes ``leaf_scores`` at leaves (-1 at splits):
    the trees' leaf-score rows laid end to end, each tree's left to right.
    ``leaf_tree`` names the tree of each row, tree m's rows are
    ``first_leaf[m]`` up to ``first_leaf[m + 1]`` (``leaf_rows(m)``), and
    ``paths`` holds each row's root-to-leaf decisions ``(feature,
    threshold, goes_left)``. The leaves of any subtree are consecutive
    rows.
    """

    roots: np.ndarray
    depths: np.ndarray
    features: tuple[tuple[int, ...], ...]
    splits: tuple[tuple[tuple[float, ...], ...], ...]
    feature: np.ndarray
    threshold: np.ndarray
    children: np.ndarray
    leaf: np.ndarray
    leaf_scores: np.ndarray
    leaf_tree: np.ndarray
    first_leaf: np.ndarray
    paths: tuple[tuple[tuple[int, float, bool], ...], ...]

    def leaf_rows(self, m: int) -> slice:
        """Tree m's leaf rows."""
        return slice(int(self.first_leaf[m]), int(self.first_leaf[m + 1]))


def stack_trees(trees: list[TreeNode], n_scores: int) -> StackedTrees:
    """Lay the nodes and leaf scores of trees end to end, in one walk. A
    leaf without ``n_scores`` scores raises DimensionMismatch naming its
    tree."""
    feature: list[int] = []
    threshold: list[float] = []
    children: list[int] = []
    leaf: list[int] = []
    scores: list[tuple[float, ...]] = []
    leaf_tree: list[int] = []
    paths: list[tuple[tuple[int, float, bool], ...]] = []

    def walk(node, m, split_on, path) -> int:
        """Append node's subtree, reached by ``path``; returns its depth."""
        i = len(feature)
        if isinstance(node, Leaf):
            if len(node.scores) != n_scores:
                raise DimensionMismatch(
                    f"tree {m} has a leaf with {len(node.scores)} scores, "
                    f"expected {n_scores}")
            feature.append(0)
            threshold.append(0.0)
            children.extend((i, i))
            leaf.append(len(scores))
            scores.append(node.scores)
            leaf_tree.append(m)
            paths.append(path)
            return 0
        feature.append(node.feature)
        threshold.append(node.threshold)
        children.extend((-1, -1))
        leaf.append(-1)
        split_on.setdefault(int(node.feature), set()).add(
            float(node.threshold))
        children[2 * i + 1] = len(feature)
        depth = walk(node.left, m, split_on,
                     (*path, (node.feature, node.threshold, True)))
        children[2 * i] = len(feature)
        return 1 + max(depth, walk(node.right, m, split_on,
                                   (*path, (node.feature, node.threshold,
                                            False))))

    roots, depths, features, splits, first_leaf = [], [], [], [], []
    for m, tree in enumerate(trees):
        split_on: dict[int, set[float]] = {}
        roots.append(len(feature))
        first_leaf.append(len(scores))
        depths.append(walk(tree, m, split_on, ()))
        features.append(tuple(sorted(split_on)))
        splits.append(tuple(tuple(sorted(split_on[f]))
                            for f in features[-1]))
    first_leaf.append(len(scores))
    return StackedTrees(
        roots=np.array(roots, dtype=np.intp),
        depths=np.array(depths, dtype=np.intp),
        features=tuple(features),
        splits=tuple(splits),
        feature=np.array(feature, dtype=np.intp),
        threshold=np.array(threshold, dtype=float),
        children=np.array(children, dtype=np.intp),
        leaf=np.array(leaf, dtype=np.intp),
        leaf_scores=np.array(scores, dtype=float),
        leaf_tree=np.array(leaf_tree, dtype=np.intp),
        first_leaf=np.array(first_leaf, dtype=np.intp),
        paths=tuple(paths))


def stacked_leaves(stack: StackedTrees, trees, X, columns) -> np.ndarray:
    """(len(trees), rows of X) row of ``stack.leaf_scores`` of the leaf each
    listed tree reaches at every row of X, whose columns hold the features
    ``columns`` (every feature those trees split on): the trees routed
    together, one level at a time, by the package's ``x[feature] <=
    threshold`` rule. A NaN compares false, so it goes right at every
    split."""
    X = np.asarray(X, dtype=float)
    trees = np.asarray(trees, dtype=np.intp)
    n = X.shape[0]
    roots = stack.roots[trees]
    depth = int(stack.depths[trees].max(initial=0))
    if depth == 0:
        return np.repeat(stack.leaf[roots][:, None], n, axis=1)
    column = np.zeros(max([int(stack.feature.max()), *columns]) + 1,
                      dtype=np.intp)
    column[list(columns)] = np.arange(len(columns))
    feature = column[stack.feature]
    # X column by column: x[feature] of every (tree, row) is one gather
    by_column = np.ascontiguousarray(X.T)
    start = feature * n
    rows = np.arange(n)
    # the first level reads one column per tree, its root's
    goes_left = by_column[feature[roots]] <= stack.threshold[roots][:, None]
    node = stack.children[2 * roots[:, None] + goes_left]
    for _ in range(depth - 1):
        goes_left = (by_column.ravel()[start[node] + rows]
                     <= stack.threshold[node])
        node = stack.children[2 * node + goes_left]
    return stack.leaf[node]


# rows routed at once by leaf_sums and Ensemble.leaf_matrix, which bounds
# their (trees, rows) leaf arrays
_ROUTE_ROWS = 256


def _row_blocks(n: int):
    """Slices of ``_ROUTE_ROWS`` consecutive rows covering n rows."""
    return (slice(start, start + _ROUTE_ROWS)
            for start in range(0, n, _ROUTE_ROWS))


@dataclass
class Ensemble:
    """A list of trees with non-negative per-tree weights.

    Treated as immutable after construction; prediction is pure.
    """

    trees: list[TreeNode]
    weights0: np.ndarray
    n_classes: int
    n_features: int
    # every tree's node arrays and leaf scores laid end to end
    _stacked: StackedTrees = field(init=False, repr=False, compare=False)
    # the trees' thresholds, per feature (``threshold_index``)
    _thresholds: ThresholdIndex = field(init=False, repr=False,
                                        compare=False)

    def __post_init__(self):
        self.weights0 = np.asarray(self.weights0, dtype=float)
        if len(self.trees) == 0:
            raise ValueError("an ensemble needs at least one tree")
        if self.weights0.shape != (len(self.trees),):
            raise DimensionMismatch("weights0 must have one entry per tree")
        if np.any(self.weights0 < 0):
            raise ValueError("weights0 must be non-negative")
        self._stacked = stack_trees(self.trees, self.n_classes)
        stack = self._stacked
        split = stack.leaf < 0
        self._thresholds = ThresholdIndex(per_feature=tuple(
            tuple(sorted(set(stack.threshold[split & (stack.feature == j)]
                             .tolist())))
            for j in range(self.n_features)))

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    def leaves(self, m: int) -> list[Leaf]:
        """Tree m's leaves, left to right."""
        rows = self._stacked.leaf_scores[self._stacked.leaf_rows(m)]
        return [Leaf(scores=tuple(row)) for row in rows.tolist()]

    def leaf_matrix(self, X) -> np.ndarray:
        """(N, n_trees) leaf indices: row i is the cell of X[i]. The trees
        are routed together, ``_ROUTE_ROWS`` rows at a time."""
        X = np.asarray(X, dtype=float)
        stack = self._stacked
        trees = np.arange(self.n_trees)
        first = stack.first_leaf[:-1, None]
        out = np.empty((X.shape[0], self.n_trees), dtype=np.intp)
        for rows in _row_blocks(X.shape[0]):
            out[rows] = (stacked_leaves(stack, trees, X[rows],
                                        range(self.n_features)) - first).T
        return out


@dataclass(frozen=True)
class ThresholdIndex:
    """Per feature, the sorted deduplicated thresholds used across trees."""

    per_feature: tuple[tuple[float, ...], ...]

    def thresholds(self, j: int) -> tuple[float, ...]:
        return self.per_feature[j]

    @property
    def n_features(self) -> int:
        return len(self.per_feature)

    def n_cells(self) -> int:
        out = 1
        for t in self.per_feature:
            out *= len(t) + 1
        return out

    def representatives(self) -> list[np.ndarray]:
        """Per feature, the point standing for each interval (lo, hi]: its
        right endpoint hi; the last threshold t + 1 for the right-unbounded
        one, or the next float above t where t + 1 rounds back to t
        (|t| >= 2**53); 0.0 alone for a feature without thresholds. Entry k
        stands for the x_j whose first threshold at or above them is the
        k-th."""
        return [np.array((*ts, max(ts[-1] + 1.0, np.nextafter(ts[-1], np.inf)))
                         if ts else (0.0,), dtype=float)
                for ts in self.per_feature]

    def merged(self, extra: dict[int, list[float]] | None) -> "ThresholdIndex":
        """Union with extra per-feature thresholds (exact-equality dedup)."""
        if not extra:
            return self
        per = []
        for j, ts in enumerate(self.per_feature):
            more = extra.get(j, ())
            per.append(tuple(sorted(set(ts) | set(float(t) for t in more))))
        return ThresholdIndex(per_feature=tuple(per))


def threshold_index(e: Ensemble, extra: dict[int, list[float]] | None = None) -> ThresholdIndex:
    """Sorted per-feature union of all split thresholds in the ensemble,
    formed once when it is built, merged with ``extra``."""
    return e._thresholds.merged(extra)


def leaf_sums(e: Ensemble, w, X, values) -> np.ndarray:
    """(rows of X, columns of ``values``) sum over the trees m of e of
    ``w[m] * values[r]``, r the row of ``e._stacked.leaf_scores`` of the
    leaf tree m reaches at each row of X; ``values`` has one row per such
    leaf row.

    Trees are summed in tree order from zeros, skipping trees of weight
    zero; each row's sum is its own, so it does not depend on the batch.
    The trees are routed together, ``_ROUTE_ROWS`` rows at a time.
    """
    w = np.asarray(w, dtype=float)
    X = np.asarray(X, dtype=float)
    stack = e._stacked
    trees = np.flatnonzero(w != 0.0)
    weighted = w[stack.leaf_tree][:, None] * values
    total = np.empty((X.shape[0], values.shape[1]))
    for rows in _row_blocks(X.shape[0]):
        leaves = stacked_leaves(stack, trees, X[rows], range(e.n_features))
        # a zero term, then each tree's; accumulate adds them one after
        # another, so the last partial sum is the tree-order sum from zeros
        terms = np.zeros((len(trees) + 1, leaves.shape[1], values.shape[1]))
        terms[1:] = np.take(weighted, leaves, axis=0)
        total[rows] = np.add.accumulate(terms, axis=0)[-1]
    return total


def predict_classes(e: Ensemble, w, X) -> np.ndarray:
    """Predicted class of every row of X: the argmax of the weight-scaled
    sum of reached leaf scores (``leaf_sums``), ties to the smallest class
    index."""
    w = np.asarray(w, dtype=float)
    if w.shape != (e.n_trees,):
        raise DimensionMismatch(f"expected {e.n_trees} weights, got {w.shape}")
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != e.n_features:
        raise DimensionMismatch(
            f"expected rows of {e.n_features} features, got shape {X.shape}")
    total = leaf_sums(e, w, X, e._stacked.leaf_scores)
    return np.argmax(total, axis=1)  # np.argmax returns the first maximum


# --- built-in boosted trainer ------------------------------------------


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _softmax(F):
    Z = F - F.max(axis=1, keepdims=True)
    E = np.exp(Z)
    return E / E.sum(axis=1, keepdims=True)


def _best_split(X, g, h, rows, reg):
    """Exact greedy split search: best (gain, feature, threshold) over all
    midpoints between consecutive distinct values, or None if no split
    improves the Newton objective.

    Cuts are taken feature by feature, each feature's in ascending order of
    its stably sorted values; a cut replaces the best so far when its gain
    beats the best's by more than 1e-12. The gains of all cuts of a feature
    are formed at once, by the same expression, in the same order."""

    def score(G, H):
        return G * G / (H + reg)

    G_tot, H_tot = g[rows].sum(), h[rows].sum()
    base = score(G_tot, H_tot)
    gains, features, thresholds = [], [], []
    for j in range(X.shape[1]):
        vals = X[rows, j]
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        cut = np.flatnonzero(sv[:-1] != sv[1:])
        GL = np.cumsum(g[rows][order])[cut]
        HL = np.cumsum(h[rows][order])[cut]
        gains.append(score(GL, HL) + score(G_tot - GL, H_tot - HL) - base)
        features.append(np.full(len(cut), j))
        thresholds.append(0.5 * (sv[cut] + sv[cut + 1]))
    gain = np.concatenate(gains)
    if not len(gain):
        return None
    feature, threshold = np.concatenate(features), np.concatenate(thresholds)
    # a cut that replaces the best beats every earlier cut, so the rule is
    # replayed over the first cut and those that beat all before them
    records = np.flatnonzero(gain[1:] > np.maximum.accumulate(gain)[:-1]) + 1
    best = None
    for k in [0, *records.tolist()]:
        if best is None or gain[k] > best[0] + 1e-12:
            best = (gain[k], int(feature[k]), threshold[k])
    if best[0] <= 1e-12:
        return None
    return best


def _fit_tree(X, g, h, rows, max_depth, reg, leaf_value):
    if max_depth == 0 or len(rows) < 2:
        return Leaf(scores=leaf_value(rows))
    found = _best_split(X, g, h, rows, reg)
    if found is None:
        return Leaf(scores=leaf_value(rows))
    _, j, thr = found
    mask = X[rows, j] <= thr
    left = _fit_tree(X, g, h, rows[mask], max_depth - 1, reg, leaf_value)
    right = _fit_tree(X, g, h, rows[~mask], max_depth - 1, reg, leaf_value)
    return Internal(feature=j, threshold=float(thr), left=left, right=right)


def train_boosted(fit: Dataset, n_rounds: int, max_depth: int,
                  learning_rate: float = 0.3, reg: float = 1.0) -> Ensemble:
    """Train a gradient-boosted ensemble with Newton-step leaf values.

    Binary problems use the logistic loss and one tree per round with
    symmetric leaf vectors (-v, +v); multi-class problems use softmax
    cross-entropy and fit one tree per class per round, so the ensemble
    holds ``n_rounds * n_classes`` trees. Splits are exact greedy over all
    midpoints, so training is deterministic. The split search forms the
    gains of all of a node's cuts of a feature at once and replays the
    first-best rule over them, so it gives the trees of a search one cut at
    a time, bit for bit. Each leaf adds its value to the margins of the
    training rows that reach it as soon as it is fitted.
    """
    if n_rounds < 1:
        raise ValueError("n_rounds must be >= 1")
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    if not (math.isfinite(learning_rate) and learning_rate > 0):
        raise ValueError(f"learning_rate must be finite and > 0, got "
                         f"{learning_rate}")
    if fit.labels is None:
        raise DegenerateLabels("training requires labels")
    y = fit.labels
    C = fit.n_classes
    if len(np.unique(y)) < 2:
        raise DegenerateLabels("training requires at least two classes")
    X = fit.rows
    n = X.shape[0]
    all_rows = np.arange(n)

    trees: list[TreeNode] = []
    if C == 2:
        F = np.zeros(n)
        yb = (y == 1).astype(float)
        for _ in range(n_rounds):
            p = _sigmoid(F)
            g = p - yb
            h = np.maximum(p * (1 - p), 1e-12)

            def leaf_value(rows, g=g, h=h):
                v = -learning_rate * g[rows].sum() / (h[rows].sum() + reg)
                F[rows] += v
                return (-v, v)

            trees.append(_fit_tree(X, g, h, all_rows, max_depth, reg,
                                   leaf_value))
    else:
        F = np.zeros((n, C))
        Y = np.zeros((n, C))
        Y[all_rows, y] = 1.0
        for _ in range(n_rounds):
            P = _softmax(F)
            for c in range(C):
                g = P[:, c] - Y[:, c]
                h = np.maximum(P[:, c] * (1 - P[:, c]), 1e-12)

                def leaf_value(rows, g=g, h=h, c=c):
                    v = -learning_rate * ((C - 1) / C) * g[rows].sum() / (h[rows].sum() + reg)
                    F[rows, c] += v
                    scores = [0.0] * C
                    scores[c] = v
                    return tuple(scores)

                trees.append(_fit_tree(X, g, h, all_rows, max_depth, reg,
                                       leaf_value))

    return Ensemble(trees=trees, weights0=np.ones(len(trees)),
                    n_classes=C, n_features=X.shape[1])


# --- JSON round trip -----------------------------------------------------


def is_int(value) -> bool:
    """Whether a value read by ``json`` is an integer: ``true`` and
    ``false`` are read as bools, which Python counts as ints."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    """Whether a value read by ``json`` is a finite number, not a bool:
    Python's ``json`` reads the literals ``NaN``, ``Infinity`` and
    ``-Infinity`` as floats."""
    return is_int(value) or (isinstance(value, float)
                             and math.isfinite(value))


def node_from_json(obj, path: str, n_features: int,
                   leaf_from_json) -> TreeNode:
    """A tree read from JSON: splits ``{"feature", "threshold", "left",
    "right"}`` routing on ``[0, n_features)`` and leaves ``{"leaf": v}``,
    where ``leaf_from_json(v, path)`` reads v. A node that does not follow
    that layout raises SchemaError with its JSON path."""
    if not isinstance(obj, dict):
        raise SchemaError("node must be an object", path)
    if "leaf" in obj:
        return leaf_from_json(obj["leaf"], path + ".leaf")
    for key in ("feature", "threshold", "left", "right"):
        if key not in obj:
            raise SchemaError(f"missing key {key!r}", path)
    if not is_int(obj["feature"]) or not 0 <= obj["feature"] < n_features:
        raise SchemaError(f"feature must be an integer in [0, {n_features})",
                          path + ".feature")
    if not is_finite_number(obj["threshold"]):
        raise SchemaError("threshold must be a finite number",
                          path + ".threshold")
    return Internal(
        feature=obj["feature"],
        threshold=float(obj["threshold"]),
        left=node_from_json(obj["left"], path + ".left", n_features,
                            leaf_from_json),
        right=node_from_json(obj["right"], path + ".right", n_features,
                             leaf_from_json),
    )


def node_to_json(node: TreeNode, leaf_to_json):
    """The JSON form :func:`node_from_json` reads: leaves become
    ``{"leaf": leaf_to_json(leaf)}``."""
    if isinstance(node, Leaf):
        return {"leaf": leaf_to_json(node)}
    return {
        "feature": node.feature,
        "threshold": node.threshold,
        "left": node_to_json(node.left, leaf_to_json),
        "right": node_to_json(node.right, leaf_to_json),
    }


def _leaf_scores_from_json(scores, path: str) -> Leaf:
    if not isinstance(scores, list) or not all(map(is_finite_number, scores)):
        raise SchemaError("leaf must be a list of finite numbers", path)
    return Leaf(scores=tuple(float(v) for v in scores))


def save_ensemble(e: Ensemble, path) -> None:
    payload = {
        "n_features": e.n_features,
        "n_classes": e.n_classes,
        "weights": [float(w) for w in e.weights0],
        "trees": [node_to_json(t, lambda leaf: list(leaf.scores))
                  for t in e.trees],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)


def load_ensemble(path) -> Ensemble:
    """Read a model written by :func:`save_ensemble`; a file that does not
    follow that layout raises SchemaError with the JSON path at fault, one
    that is not UTF-8 JSON ParseError."""
    obj = read_json(path)
    if not isinstance(obj, dict):
        raise SchemaError("a model must be an object")
    for key in ("n_features", "n_classes", "trees"):
        if key not in obj:
            raise SchemaError(f"missing key {key!r}", "$")
    for key in ("n_features", "n_classes"):
        if not is_int(obj[key]) or obj[key] < 1:
            raise SchemaError(f"{key} must be a positive integer", f"$.{key}")
    trees = obj["trees"]
    if not isinstance(trees, list) or not trees:
        raise SchemaError("trees must be a non-empty list", "$.trees")
    nodes = [node_from_json(t, f"$.trees[{i}]", obj["n_features"],
                            _leaf_scores_from_json)
             for i, t in enumerate(trees)]
    weights = obj.get("weights")
    if weights is None:
        weights = [1.0] * len(nodes)
    if not isinstance(weights, list) or not all(
        is_finite_number(v) and v >= 0 for v in weights
    ):
        raise SchemaError("weights must be a list of finite non-negative "
                          "numbers", "$.weights")
    if len(weights) != len(nodes):
        raise SchemaError("weights must match tree count", "$.weights")
    return Ensemble(
        trees=nodes,
        weights0=np.asarray(weights, dtype=float),
        n_classes=obj["n_classes"],
        n_features=obj["n_features"],
    )


# --- text-dump import adapter ---------------------------------------------


_DUMP_LEAF = re.compile(r"(\d+):leaf=([^,]+)(,.*)?")
_DUMP_SPLIT = re.compile(r"(\d+):\[f(-?\d+)<([^\]]+)\]\s*(.*)")


def _dump_number(text: str, what: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise SchemaError(f"{what} {text!r} is not a finite number", where)
    return value


def parse_text_dump(text: str, n_classes: int = 2, n_features: int | None = None) -> Ensemble:
    """Parse the common boosted-tree text dump into an Ensemble.

    Expected shape (one node per line, ids unique within a booster)::

        booster[0]:
        0:[f2<1.5] yes=1,no=2
            1:leaf=0.3
            2:leaf=-0.2

    Scalar leaf values become symmetric (-v, +v) binary score vectors; for
    ``n_classes > 2`` booster k feeds class ``k % n_classes`` (one-vs-rest
    layout) and the scalar lands in that class slot. Split comparisons are
    re-interpreted under this package's "<= goes left" convention. A dump
    that does not follow this shape raises SchemaError naming the line at
    fault ("line 3"), among them a split on a feature index at or above
    ``n_features``, a child id with no node line and a node reached twice.
    """
    # per booster: its first line and its nodes, id -> (line, entry)
    boosters: list[tuple[str, dict[int, tuple]]] = []
    max_feature, max_where = -1, "$"
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        where = f"line {lineno}"
        if not line:
            continue
        if line.startswith("booster["):
            boosters.append((where, {}))
            continue
        if not boosters:
            boosters.append((where, {}))
        nodes = boosters[-1][1]
        if leaf := _DUMP_LEAF.fullmatch(line):
            node_id = int(leaf[1])
            entry = ("leaf", _dump_number(leaf[2], "leaf value", where))
        elif split := _DUMP_SPLIT.fullmatch(line):
            node_id, feature = int(split[1]), int(split[2])
            if feature < 0:
                raise SchemaError(f"split on feature f{feature}", where)
            if feature > max_feature:
                max_feature, max_where = feature, where
            threshold = _dump_number(split[3], "threshold", where)
            links = dict(kv.strip().split("=", 1) for kv in split[4].split(",")
                         if "=" in kv)
            children = []
            for key in ("yes", "no"):
                if not links.get(key, "").isdigit():
                    raise SchemaError(f"split needs a node id {key}=",
                                      where)
                children.append(int(links[key]))
            entry = ("split", feature, threshold, *children)
        else:
            raise SchemaError(f"cannot parse node line {line!r}", where)
        if node_id in nodes:
            raise SchemaError(f"node {node_id} appears twice", where)
        nodes[node_id] = (where, entry)

    if not boosters or all(not nodes for _, nodes in boosters):
        raise SchemaError("no boosters found in dump", "$")

    def build(nodes: dict[int, tuple], node_id: int, cls: int, where: str,
              seen: set[int]) -> TreeNode:
        if node_id not in nodes:
            raise SchemaError(f"no node {node_id}", where)
        if node_id in seen:
            raise SchemaError(f"node {node_id} is reached twice", where)
        seen.add(node_id)
        where, entry = nodes[node_id]
        if entry[0] == "leaf":
            scores = [0.0] * n_classes
            if n_classes == 2:
                scores = [-entry[1], entry[1]]
            else:
                scores[cls] = entry[1]
            return Leaf(scores=tuple(scores))
        _, feature, threshold, yes, no = entry
        return Internal(feature=feature, threshold=threshold,
                        left=build(nodes, yes, cls, where, seen),
                        right=build(nodes, no, cls, where, seen))

    trees = [build(nodes, 0, k % n_classes, where, set())
             for k, (where, nodes) in enumerate(boosters) if nodes]
    p = n_features if n_features is not None else max_feature + 1
    if p < 1:
        p = 1
    if max_feature >= p:
        raise SchemaError(f"split on feature f{max_feature}, but the model "
                          f"has {p} features", max_where)
    return Ensemble(trees=trees, weights0=np.ones(len(trees)),
                    n_classes=n_classes, n_features=p)
