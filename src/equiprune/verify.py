"""Independent brute-force checks for equivalence certificates.

Ensembles partition the input space into finitely many axis-aligned cells on
which predictions are constant, so exact equivalence can be decided by
enumerating every cell and evaluating both weightings at a representative
point. The representatives are the ones the oracle decodes its solutions to,
``ThresholdIndex.representatives``, so the two modules name a cell by the
same point.

A tree's leaf depends only on the cell's intervals on the tree's own split
features, so the check evaluates each tree once per interval of those
features, not once per cell:

* **Tables.** The trees that carry weight in either weighting are grouped by
  their set of split features. Each group is routed once, its node arrays
  stacked (one pass per level), over the product of its features'
  representatives. That gives every tree a table of its weighted leaf
  scores, one per weighting.
* **Slabs.** The grid is walked in C order (``itertools.product`` order over
  the per-feature intervals) one slab at a time. A slab is the trailing axes
  whose product is at most ``_BLOCK`` cells, or the last axis alone if that
  is longer. Per slab, each weighting's tables are added in tree order by
  broadcasting over the slab's axes, and the argmax of the two sums is
  compared. Only the disagreeing cells have their representatives gathered
  and are scored against the region.
* **Memory.** A tree's table spans all its features only when their product
  is at most ``max(_BLOCK, slab)``. Otherwise it spans the tree's slab axes
  alone, its other features held at the slab's coordinates, and is rebuilt
  when those change. So no tree's table and no slab holds more than
  ``max(_BLOCK, slab) * n_classes`` scores, whatever the number of cells,
  and ``iter_disagreements`` yields the disagreements as it goes, whatever
  their number.

Sums start from zeros and add each tree's ``w[m] * leaf scores`` in tree
order, skipping trees of weight zero, as ``predict_classes`` does; so every
class, argmax ties included, is the one ``predict_classes`` gives the
cell's representative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensemble import Ensemble, StackedTrees, stacked_leaves, threshold_index
from .errors import DimensionMismatch, TooManyCells
from .plausibility import ChowLiuModel, ScoreModel

DEFAULT_CELL_CAP = 10_000_000

# cells per slab, unless the last axis alone is longer; a tree's table
# spans features off the slab only while it has at most max(_BLOCK, slab)
# cells
_BLOCK = 4096


@dataclass(frozen=True)
class Disagreement:
    indices: tuple[int, ...]
    x: tuple[float, ...]
    original_class: int
    pruned_class: int
    score: float | None


def _slab_axis(shape: tuple[int, ...]) -> int:
    """The first axis of a slab: the trailing axes of ``shape`` whose product
    is at most ``_BLOCK``, or the last axis alone if that is longer."""
    s, size = len(shape), 1
    while s > 0 and size * shape[s - 1] <= _BLOCK:
        s -= 1
        size *= shape[s]
    return min(s, max(len(shape) - 1, 0))


class _Group:
    """The weighted trees that split on one set of features, and their
    tables.

    ``span`` is the features the tables run over: all of ``features`` when
    their intervals number at most ``max(_BLOCK, slab)``, else those on the
    slab axes (from ``s`` on). ``lead`` is its features on the leading
    (per-slab) axes.
    """

    def __init__(self, trees: list[int], features: tuple[int, ...],
                 shape: tuple[int, ...], s: int, n_classes: int):
        self.trees = trees
        self.features = features
        limit = max(_BLOCK, math.prod(shape[s:]))
        whole = math.prod(shape[a] for a in features) <= limit
        self.span = features if whole else tuple(a for a in features if a >= s)
        self.lead = tuple(a for a in features if a < s)
        self.s = s
        # a table's slab view broadcasts over the slab's axes and classes
        self.broadcast = tuple(shape[a] if a in features else 1
                               for a in range(s, len(shape))) + (n_classes,)
        self.key = None
        self.tables = None

    def update(self, stack: StackedTrees, reps, lead: tuple[int, ...],
               weightings, terms) -> None:
        """Point ``terms[j][m]`` at the slab view of tree m's table for
        weighting j, for the slab at leading coordinates ``lead``; rebuild
        the tables first if they do not span every feature and the slab
        moved on one they hold fixed."""
        key = tuple(lead[a] for a in self.lead)
        if key == self.key:
            return
        if self.tables is None or self.span != self.features:
            self.tables = _tables(self, stack, reps, lead, weightings)
        self.key = key
        index = (slice(None),) + tuple(lead[a] if a < self.s else slice(None)
                                       for a in self.span)
        for (trees, table), out in zip(self.tables, terms):
            view = table[index].reshape((len(trees),) + self.broadcast)
            for k, m in enumerate(trees):
                out[m] = view[k]


def _tables(group: _Group, stack: StackedTrees, reps, lead: tuple[int, ...],
            weightings) -> list[tuple[list[int], np.ndarray]]:
    """Per weighting (w, its stacked leaf scores ``w[m] * leaf scores``),
    the group's trees of nonzero weight and their (trees, *intervals of
    span, n_classes) tables of weighted leaf scores over the product of the
    representatives of ``group.span`` (C order). A feature of the group
    outside the span is held at its representative at ``lead``. The trees
    are routed together, one pass per level."""
    sizes = tuple(len(reps[a]) for a in group.span)
    n = math.prod(sizes)
    grid = dict(zip(group.span, np.meshgrid(*(reps[a] for a in group.span),
                                            indexing="ij")))
    X = np.empty((n, len(group.features)))
    for col, a in enumerate(group.features):
        X[:, col] = grid[a].ravel() if a in grid else reps[a][lead[a]]
    leaves = stacked_leaves(stack, group.trees, X, group.features)
    out = []
    for w, scores in weightings:
        keep = [k for k, m in enumerate(group.trees) if w[m] != 0.0]
        out.append(([group.trees[k] for k in keep], scores[leaves[keep]]
                    .reshape((len(keep),) + sizes + scores.shape[1:])))
    return out


def _slab_classes(terms: list[np.ndarray], shape: tuple[int, ...]) -> np.ndarray:
    """Class of every cell of a slab of ``shape`` (its axes, then classes):
    the argmax of zeros plus each term in turn, ties to the smallest class."""
    total = np.zeros(shape)
    for term in terms:
        total += term
    return np.argmax(total.reshape(-1, shape[-1]), axis=1)


def iter_disagreements(e: Ensemble, w0, w,
                       region: tuple[ScoreModel, float] | None = None,
                       cap: int = DEFAULT_CELL_CAP):
    """Yield every cell where the two weightings disagree (and, if a region
    is given, whose representative scores <= tau), in cell order. Memory is
    bounded by the tables and one slab, whatever the number of cells or
    disagreements."""
    extra = region[0].extra_thresholds() if region is not None else None
    theta = threshold_index(e, extra=extra)
    total = theta.n_cells()
    if total > cap:
        raise TooManyCells(f"{total} cells exceed the cap {cap}")
    ws = (np.asarray(w0, dtype=float), np.asarray(w, dtype=float))
    for weights in ws:
        if weights.shape != (e.n_trees,):
            raise DimensionMismatch(
                f"expected {e.n_trees} weights, got {weights.shape}")
    reps = theta.representatives()
    shape = tuple(len(t) for t in reps)
    s = _slab_axis(shape)
    slab_shape = shape[s:] + (e.n_classes,)
    slab = math.prod(shape[s:])

    stack = e._stacked
    by_features: dict[tuple[int, ...], list[int]] = {}
    for m in np.flatnonzero((ws[0] != 0.0) | (ws[1] != 0.0)).tolist():
        by_features.setdefault(stack.features[m], []).append(m)
    groups = [_Group(trees, features, shape, s, e.n_classes)
              for features, trees in by_features.items()]
    # each product w[m] * leaf score once, as predict_classes forms it
    weightings = [(weights, weights[stack.leaf_tree][:, None]
                   * stack.leaf_scores) for weights in ws]
    order = [np.flatnonzero(weights != 0.0).tolist() for weights in ws]
    terms: list[dict[int, np.ndarray]] = [{}, {}]

    for n, lead in enumerate(np.ndindex(shape[:s])):
        for group in groups:
            group.update(stack, reps, lead, weightings, terms)
        c0, c1 = (_slab_classes([t[m] for m in trees], slab_shape)
                  for t, trees in zip(terms, order))
        rows = np.flatnonzero(c0 != c1)
        if not len(rows):
            continue
        cols = np.unravel_index(n * slab + rows, shape) if shape else ()
        X = np.empty((len(rows), len(shape)))
        for j, col in enumerate(cols):
            X[:, j] = reps[j][col]
        scores = [None] * len(rows)
        if region is not None:
            model, tau = region
            found = model.scores(e, X)
            keep = np.flatnonzero(~(found > tau))
            rows, X, scores = rows[keep], X[keep], found[keep].tolist()
            cols = tuple(col[keep] for col in cols)
        for i, r in enumerate(rows.tolist()):
            yield Disagreement(
                indices=tuple(int(col[i]) for col in cols),
                x=tuple(X[i].tolist()),
                original_class=int(c0[r]), pruned_class=int(c1[r]),
                score=scores[i])


def check_equivalence_exhaustive(e: Ensemble, w0, w,
                                 region: tuple[ScoreModel, float] | None = None,
                                 cap: int = DEFAULT_CELL_CAP) -> list[Disagreement]:
    """The list of :func:`iter_disagreements`."""
    return list(iter_disagreements(e, w0, w, region=region, cap=cap))


@dataclass(frozen=True)
class StateSet:
    """Discretized states whose model score is <= tau, with their scores."""

    order: tuple[int, ...]
    states: tuple[tuple[int, ...], ...]
    scores: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.states)


def enumerate_low_score_states(model: ChowLiuModel, tau: float) -> StateSet:
    """All states with negative log-likelihood <= tau, by depth-first search
    over the model's tree in root-to-leaf order.

    Partial assignments are pruned with an admissible bound: the accumulated
    score plus each unassigned node's minimum possible table term already
    exceeding tau rules out every completion, so the enumeration is exact.
    """
    if not math.isfinite(tau):
        raise ValueError("tau must be finite for state enumeration")
    order = model.order
    grid = model.grid

    min_term = {}
    for j in order:
        if j == model.root:
            min_term[j] = float(-np.log(model.root_table.max()))
        else:
            min_term[j] = float(-np.log(model.edge_tables[j].max()))
    suffix_min = [0.0] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        suffix_min[i] = suffix_min[i + 1] + min_term[order[i]]

    states: list[tuple[int, ...]] = []
    scores: list[float] = []
    assignment: dict[int, int] = {}

    def dfs(pos: int, acc: float):
        if acc + suffix_min[pos] > tau + 1e-12:
            return
        if pos == len(order):
            states.append(tuple(assignment[j] for j in order))
            scores.append(acc)
            return
        j = order[pos]
        for b in range(grid.n_bins(j)):
            if j == model.root:
                term = -math.log(model.root_table[b])
            else:
                term = -math.log(model.edge_tables[j][assignment[model.parent[j]], b])
            assignment[j] = b
            dfs(pos + 1, acc + term)
        del assignment[j]

    dfs(0, 0.0)
    return StateSet(order=order, states=tuple(states), scores=tuple(scores))


@dataclass(frozen=True)
class StateBoundCheck:
    count: int
    bound: float
    holds: bool


def check_state_bound(model: ChowLiuModel, tau: float) -> StateBoundCheck:
    """The state count under tau never exceeds e^tau (probability mass
    argument). Compared in log space so the tight equality case is robust."""
    count = len(enumerate_low_score_states(model, tau))
    holds = count == 0 or math.log(count) <= tau + 1e-9
    return StateBoundCheck(count=count, bound=math.exp(tau), holds=holds)
