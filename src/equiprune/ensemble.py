"""Weighted tree ensembles: representation, prediction, training, and I/O.

The routing convention is fixed everywhere in this package: an internal node
sends ``x[feature] <= threshold`` to the left child. Leaf score vectors all
have length ``n_classes``; the ensemble score is the weight-scaled sum of the
reached leaf vectors, and the predicted class is the argmax with ties broken
toward the smallest class index.
"""

from __future__ import annotations

import json
import math
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


def tree_leaves(root: TreeNode) -> list[Leaf]:
    """All leaves of a tree in left-to-right order."""
    out: list[Leaf] = []

    def walk(node):
        if isinstance(node, Leaf):
            out.append(node)
        else:
            walk(node.left)
            walk(node.right)

    walk(root)
    return out


def leaf_paths(root: TreeNode) -> list[list[tuple[int, float, bool]]]:
    """Per leaf (left-to-right order), the list of (feature, threshold,
    goes_left) decisions on the root-to-leaf path."""
    out: list[list[tuple[int, float, bool]]] = []

    def walk(node, path):
        if isinstance(node, Leaf):
            out.append(path)
        else:
            walk(node.left, path + [(node.feature, node.threshold, True)])
            walk(node.right, path + [(node.feature, node.threshold, False)])

    walk(root, [])
    return out


@dataclass(frozen=True)
class TreeArrays:
    """Pre-order node arrays of one tree.

    ``feature`` is -1 and ``leaf`` the left-to-right leaf index at leaves;
    ``leaf`` is -1 at internal nodes. ``depth`` is the longest root-to-leaf
    path, the number of routing steps ``leaves_of`` takes.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf: np.ndarray
    depth: int


def tree_arrays(root: TreeNode) -> TreeArrays:
    """Flatten a tree into pre-order node arrays."""
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    leaf: list[int] = []
    n_leaves = 0
    depth = 0

    def walk(node, level):
        nonlocal n_leaves, depth
        i = len(feature)
        depth = max(depth, level)
        is_leaf = isinstance(node, Leaf)
        feature.append(-1 if is_leaf else node.feature)
        threshold.append(0.0 if is_leaf else node.threshold)
        leaf.append(n_leaves if is_leaf else -1)
        left.append(-1)
        right.append(-1)
        if is_leaf:
            n_leaves += 1
        else:
            left[i] = walk(node.left, level + 1)
            right[i] = walk(node.right, level + 1)
        return i

    walk(root, 0)
    return TreeArrays(feature=np.array(feature, dtype=np.intp),
                      threshold=np.array(threshold, dtype=float),
                      left=np.array(left, dtype=np.intp),
                      right=np.array(right, dtype=np.intp),
                      leaf=np.array(leaf, dtype=np.intp), depth=depth)


def leaves_of(arrays: TreeArrays, X) -> np.ndarray:
    """Leaf index (left-to-right order) reached by every row of X, routed
    one tree level at a time by the package's ``x[feature] <= threshold``
    rule. A NaN compares false, so it goes right at every split."""
    X = np.asarray(X, dtype=float)
    node = np.zeros(X.shape[0], dtype=np.intp)
    rows = np.arange(X.shape[0])
    for _ in range(arrays.depth):
        f = arrays.feature[node]
        inner = f >= 0
        # rows already at a leaf read some column and are kept in place
        go_left = X[rows, f] <= arrays.threshold[node]
        step = np.where(go_left, arrays.left[node], arrays.right[node])
        node = np.where(inner, step, node)
    return arrays.leaf[node]


@dataclass(frozen=True)
class StackedTrees:
    """The node arrays of a list of trees laid end to end, so that one pass
    per level routes any subset of them (``stacked_leaves``).

    ``roots[m]`` is tree m's root, ``depths[m]`` its depth and
    ``features[m]`` its split features, sorted. Node i sends a row to
    ``children[2 * i + goes_left]``: its right child, then its left; a leaf
    is its own child both ways (it reads feature 0 and stays put). ``leaf``
    indexes ``leaf_scores``, the trees' leaf-score rows laid end to end,
    and ``leaf_tree`` names the tree of each row.
    """

    roots: np.ndarray
    depths: np.ndarray
    features: tuple[tuple[int, ...], ...]
    feature: np.ndarray
    threshold: np.ndarray
    children: np.ndarray
    leaf: np.ndarray
    leaf_scores: np.ndarray
    leaf_tree: np.ndarray


def stack_trees(arrays: list[TreeArrays],
                leaf_scores: list[np.ndarray]) -> StackedTrees:
    """Lay the node arrays and leaf-score matrices of trees end to end."""
    nodes = np.cumsum([0] + [len(a.feature) for a in arrays])
    leaves = np.cumsum([0] + [len(s) for s in leaf_scores])
    feature = np.concatenate([a.feature for a in arrays])
    at_leaf = feature < 0
    itself = np.arange(len(feature))
    left, right = (np.where(at_leaf, itself, np.concatenate(
        [getattr(a, side) + o for a, o in zip(arrays, nodes)]))
        for side in ("left", "right"))
    return StackedTrees(
        roots=nodes[:-1],
        depths=np.array([a.depth for a in arrays], dtype=np.intp),
        features=tuple(tuple(sorted(set(a.feature[a.feature >= 0].tolist())))
                       for a in arrays),
        feature=np.where(at_leaf, 0, feature),
        threshold=np.concatenate([a.threshold for a in arrays]),
        children=np.stack([right, left], axis=1).ravel(),
        leaf=np.concatenate([a.leaf + o for a, o in zip(arrays, leaves)]),
        leaf_scores=np.concatenate(leaf_scores),
        leaf_tree=np.repeat(np.arange(len(arrays)), np.diff(leaves)))


def stacked_leaves(stack: StackedTrees, trees, X, columns) -> np.ndarray:
    """(len(trees), rows of X) row of ``stack.leaf_scores`` of the leaf each
    listed tree reaches at every row of X, whose columns hold the features
    ``columns`` (every feature those trees split on): the trees routed
    together, one level at a time, by the rule of ``leaves_of``."""
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


# rows routed at once by predict_classes and Ensemble.leaf_matrix, which
# bounds their (trees, rows) leaf arrays
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
    _leaves: list[list[Leaf]] = field(default_factory=list, repr=False)
    # per tree: the (n_leaves, n_classes) leaf-score matrix
    _leaf_scores: list[np.ndarray] = field(init=False, repr=False,
                                           compare=False)
    # every tree's node arrays and leaf scores laid end to end
    _stacked: StackedTrees = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.weights0 = np.asarray(self.weights0, dtype=float)
        if len(self.trees) == 0:
            raise ValueError("an ensemble needs at least one tree")
        if self.weights0.shape != (len(self.trees),):
            raise DimensionMismatch("weights0 must have one entry per tree")
        if np.any(self.weights0 < 0):
            raise ValueError("weights0 must be non-negative")
        self._leaves = [tree_leaves(t) for t in self.trees]
        for m, leaves in enumerate(self._leaves):
            for leaf in leaves:
                if len(leaf.scores) != self.n_classes:
                    raise DimensionMismatch(
                        f"tree {m} has a leaf with {len(leaf.scores)} scores, "
                        f"expected {self.n_classes}"
                    )
        self._leaf_scores = [np.array([leaf.scores for leaf in leaves],
                                      dtype=float)
                             for leaves in self._leaves]
        self._stacked = stack_trees([tree_arrays(t) for t in self.trees],
                                    self._leaf_scores)

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    def leaves(self, m: int) -> list[Leaf]:
        return self._leaves[m]

    def leaf_matrix(self, X) -> np.ndarray:
        """(N, n_trees) leaf indices: row i is the cell of X[i]. The trees
        are routed together, ``_ROUTE_ROWS`` rows at a time."""
        X = np.asarray(X, dtype=float)
        stack = self._stacked
        trees = np.arange(self.n_trees)
        # each tree's first row of stack.leaf_scores
        first = np.searchsorted(stack.leaf_tree, trees)[:, None]
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
    """Sorted per-feature union of all split thresholds in the ensemble."""
    sets: list[set[float]] = [set() for _ in range(e.n_features)]

    def walk(node):
        if isinstance(node, Internal):
            sets[node.feature].add(float(node.threshold))
            walk(node.left)
            walk(node.right)

    for t in e.trees:
        walk(t)
    base = ThresholdIndex(per_feature=tuple(tuple(sorted(s)) for s in sets))
    return base.merged(extra)


def predict_classes(e: Ensemble, w, X) -> np.ndarray:
    """Predicted class of every row of X: the argmax of the weight-scaled
    sum of reached leaf scores, ties to the smallest class index.

    Trees are summed in tree order, skipping trees of weight zero; each
    row's sum is its own, so a row's class does not depend on the batch.
    The trees are routed together, ``_ROUTE_ROWS`` rows at a time.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (e.n_trees,):
        raise DimensionMismatch(f"expected {e.n_trees} weights, got {w.shape}")
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != e.n_features:
        raise DimensionMismatch(
            f"expected rows of {e.n_features} features, got shape {X.shape}")
    stack = e._stacked
    trees = np.flatnonzero(w != 0.0)
    weighted = w[stack.leaf_tree][:, None] * stack.leaf_scores
    total = np.empty((X.shape[0], e.n_classes))
    for rows in _row_blocks(X.shape[0]):
        leaves = stacked_leaves(stack, trees, X[rows], range(e.n_features))
        # a zero term, then each tree's; accumulate adds them one after
        # another, so the last partial sum is the tree-order sum from zeros
        terms = np.zeros((len(trees) + 1, leaves.shape[1], e.n_classes))
        terms[1:] = weighted[leaves]
        total[rows] = np.add.accumulate(terms, axis=0)[-1]
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


def _leaf_column(tree: TreeNode, k: int) -> np.ndarray:
    """Score k of every leaf, left to right."""
    return np.array([leaf.scores[k] for leaf in tree_leaves(tree)], dtype=float)


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
    a time, bit for bit.
    """
    if n_rounds < 1:
        raise ValueError("n_rounds must be >= 1")
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
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
                return (-v, v)

            tree = _fit_tree(X, g, h, all_rows, max_depth, reg, leaf_value)
            trees.append(tree)
            F += _leaf_column(tree, 1)[leaves_of(tree_arrays(tree), X)]
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
                    scores = [0.0] * C
                    scores[c] = v
                    return tuple(scores)

                tree = _fit_tree(X, g, h, all_rows, max_depth, reg, leaf_value)
                trees.append(tree)
                F[:, c] += _leaf_column(tree, c)[leaves_of(tree_arrays(tree), X)]

    return Ensemble(trees=trees, weights0=np.ones(len(trees)),
                    n_classes=C, n_features=X.shape[1])


# --- JSON round trip -----------------------------------------------------


def _node_to_json(node: TreeNode):
    if isinstance(node, Leaf):
        return {"leaf": list(node.scores)}
    return {
        "feature": node.feature,
        "threshold": node.threshold,
        "left": _node_to_json(node.left),
        "right": _node_to_json(node.right),
    }


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


def _leaf_scores_from_json(scores, path: str) -> Leaf:
    if not isinstance(scores, list) or not all(map(is_finite_number, scores)):
        raise SchemaError("leaf must be a list of finite numbers", path)
    return Leaf(scores=tuple(float(v) for v in scores))


def save_ensemble(e: Ensemble, path) -> None:
    payload = {
        "n_features": e.n_features,
        "n_classes": e.n_classes,
        "weights": [float(w) for w in e.weights0],
        "trees": [_node_to_json(t) for t in e.trees],
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
    re-interpreted under this package's "<= goes left" convention. A split
    on a feature index at or above ``n_features`` raises SchemaError.
    """
    boosters: list[dict[int, tuple]] = []
    current: dict[int, tuple] | None = None
    max_feature = -1
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("booster["):
            current = {}
            boosters.append(current)
            continue
        if current is None:
            current = {}
            boosters.append(current)
        node_id_s, rest = line.split(":", 1)
        node_id = int(node_id_s)
        if rest.startswith("leaf="):
            value = float(rest[len("leaf="):].split(",")[0])
            current[node_id] = ("leaf", value)
        else:
            if not rest.startswith("[f"):
                raise SchemaError(f"cannot parse node line {line!r}", "$")
            cond, links = rest[1:].split("]", 1)
            feat_s, thr_s = cond[1:].split("<", 1)
            feature = int(feat_s)
            max_feature = max(max_feature, feature)
            threshold = float(thr_s)
            fields = dict(kv.split("=") for kv in links.strip().split(",") if "=" in kv)
            current[node_id] = ("split", feature, threshold,
                                int(fields["yes"]), int(fields["no"]))

    if not boosters or all(not b for b in boosters):
        raise SchemaError("no boosters found in dump", "$")

    def build(nodes: dict[int, tuple], node_id: int, cls: int) -> TreeNode:
        entry = nodes[node_id]
        if entry[0] == "leaf":
            scores = [0.0] * n_classes
            if n_classes == 2:
                scores = [-entry[1], entry[1]]
            else:
                scores[cls] = entry[1]
            return Leaf(scores=tuple(scores))
        _, feature, threshold, yes, no = entry
        return Internal(feature=feature, threshold=threshold,
                        left=build(nodes, yes, cls), right=build(nodes, no, cls))

    trees = [build(b, 0, k % n_classes) for k, b in enumerate(boosters) if b]
    p = n_features if n_features is not None else max_feature + 1
    if p < 1:
        p = 1
    if max_feature >= p:
        raise SchemaError(f"split on feature f{max_feature}, but the model "
                          f"has {p} features", "$")
    return Ensemble(trees=trees, weights0=np.ones(len(trees)),
                    n_classes=n_classes, n_features=p)
