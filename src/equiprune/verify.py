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
  representatives. One ``np.take`` per weighting then gathers every tree's
  weighted leaf scores from that weighting's class-major products into a
  (classes, trees, *intervals) table.
* **Slabs.** The grid is walked in C order (``itertools.product`` order over
  the per-feature intervals) one slab at a time. A slab is the trailing axes
  whose product is at most ``_BLOCK`` cells, plus a run of consecutive
  intervals of the axis before them, as many as keep the slab within
  ``_BLOCK`` cells; if the last axis alone is longer, a slab is a run of
  ``_BLOCK`` of its intervals. The walk goes over the leading axes'
  coordinates, then over the runs of the split axis, so a slab's cells are
  consecutive in C order. A slab's sums are class-major too, (classes,
  run, *trailing axes): per slab, each weighting's tables are added in tree
  order by broadcasting over the slab's axes, so each add runs along one
  class's cells, and the classes of the two sums are compared. Only the
  disagreeing cells have their representatives gathered and are scored
  against the region.
* **Memory.** A group's tables span all its features only while their
  product is at most ``_BLOCK``. Otherwise they span the group's slab axes
  alone, the split axis limited to the slab's run and the other features
  held at the slab's coordinates, and are rebuilt when those move. So no
  tree's table (``n_classes`` rows of its cells) and no slab holds more
  than ``_BLOCK * n_classes`` scores, whatever the number of cells or the
  length of an axis, and ``iter_disagreements`` yields the disagreements
  as it goes, whatever their number.

Sums start from zeros and add each tree's ``w[m] * leaf scores`` in tree
order, skipping trees of weight zero, and the class of a sum is its first
maximum, as in ``predict_classes``; so every class, argmax ties included,
is the one ``predict_classes`` gives the cell's representative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensemble import Ensemble, StackedTrees, stacked_leaves, threshold_index
from .errors import DimensionMismatch, TooManyCells
from .plausibility import ChowLiuModel, ScoreModel

DEFAULT_CELL_CAP = 10_000_000

# the most cells in a slab, and in a tree's table
_BLOCK = 4096


@dataclass(frozen=True)
class Disagreement:
    indices: tuple[int, ...]
    x: tuple[float, ...]
    original_class: int
    pruned_class: int
    score: float | None


def _slab_layout(shape: tuple[int, ...]) -> tuple[int, int]:
    """(a, run): a slab of a grid of ``shape`` (at least one axis) is
    ``run`` consecutive intervals of axis a and every interval of the axes
    after it. Those axes are the trailing ones whose product is at most
    ``_BLOCK``, and the run as many intervals of the axis before them as
    keep the slab within ``_BLOCK`` cells; a grid of at most ``_BLOCK``
    cells is one slab, a run of all of axis 0."""
    a, size = len(shape), 1
    while a > 0 and size * shape[a - 1] <= _BLOCK:
        a -= 1
        size *= shape[a]
    if a == 0:
        return 0, shape[0]
    return a - 1, _BLOCK // size


class _Group:
    """The weighted trees that split on one set of features, and their
    tables.

    ``span`` is the features the tables run over: all of ``features`` when
    their intervals number at most ``_BLOCK`` (``whole``), else those on
    the slab axes (from the split axis ``a`` on), the split axis over the
    slab's run alone. The views of the tables move with the group's
    features on the leading axes (``lead``) and, if it splits on axis a,
    with the run.
    """

    def __init__(self, trees: list[int], features: tuple[int, ...],
                 shape: tuple[int, ...], a: int):
        self.trees = trees
        self.features = features
        self.whole = math.prod(shape[f] for f in features) <= _BLOCK
        self.span = (features if self.whole
                     else tuple(f for f in features if f >= a))
        self.lead = tuple(f for f in features if f < a)
        self.runs = a in features
        self.a = a
        # a table's slab view broadcasts over the axes after the split axis
        self.tail = tuple(shape[f] if f in features else 1
                          for f in range(a + 1, len(shape)))
        self.key = None
        self.tables = None

    def update(self, stack: StackedTrees, reps, lead: tuple[int, ...],
               run: slice, weightings, terms) -> None:
        """Point ``terms[j][m]`` at the slab view of tree m's table for
        weighting j, for the slab at leading coordinates ``lead`` and run
        ``run`` of the split axis; rebuild the tables first if they do not
        span every feature and the slab moved on one they hold fixed."""
        key = (tuple(lead[f] for f in self.lead),
               run.start if self.runs else None)
        if key == self.key:
            return
        if self.tables is None or not self.whole:
            self.tables = _tables(self, stack, reps, lead, run, weightings)
        self.key = key
        # every class and tree, at the slab's place on the span
        index = (slice(None), slice(None)) + tuple(
            lead[f] if f < self.a else run if f == self.a and self.whole
            else slice(None) for f in self.span)
        head = (run.stop - run.start if self.runs else 1,)
        for (trees, table), out in zip(self.tables, terms):
            view = table[index].reshape(
                (len(table), len(trees)) + head + self.tail)
            for k, m in enumerate(trees):
                out[m] = view[:, k]


def _tables(group: _Group, stack: StackedTrees, reps, lead: tuple[int, ...],
            run: slice, weightings) -> list[tuple[list[int], np.ndarray]]:
    """Per weighting (w, its class-major stacked leaf scores ``w[m] * leaf
    scores``, (n_classes, leaf rows)), the group's trees of nonzero weight
    and their (n_classes, trees, *intervals of span) tables of weighted
    leaf scores over the product of the representatives of ``group.span``
    (C order), the split axis over ``run`` alone unless the span holds
    every feature. A feature of the group outside the span is held at its
    representative at ``lead``. The trees are routed together, one pass per
    level, and their leaf scores gathered by one ``np.take``."""
    values = [reps[f][run] if f == group.a and not group.whole else reps[f]
              for f in group.span]
    sizes = tuple(len(v) for v in values)
    # the points column by column, each broadcast over the span's axes
    columns = np.empty((len(group.features),) + sizes)
    for col, f in enumerate(group.features):
        if f in group.span:
            axis = group.span.index(f)
            columns[col] = values[axis].reshape(
                (-1,) + (1,) * (len(sizes) - axis - 1))
        else:
            columns[col] = reps[f][lead[f]]
    X = columns.reshape(len(group.features), math.prod(sizes)).T
    leaves = stacked_leaves(stack, group.trees, X, group.features)
    out = []
    for w, scores in weightings:
        keep = [k for k, m in enumerate(group.trees) if w[m] != 0.0]
        out.append(([group.trees[k] for k in keep],
                    np.take(scores, leaves[keep], axis=1)
                    .reshape((len(scores), len(keep)) + sizes)))
    return out


def _slab_classes(terms: list[np.ndarray], shape: tuple[int, ...]) -> np.ndarray:
    """Class of every cell of a slab of ``shape`` (classes, then its axes):
    the first maximum of zeros plus each term in turn, by one comparison
    per class. A cell whose maximum is NaN takes the class ``np.argmax``
    gives it: its first NaN."""
    total = np.zeros(shape)
    for term in terms:
        total += term
    total = total.reshape(shape[0], -1)
    best = total[0]
    out = np.zeros(total.shape[1], dtype=np.intp)
    for c in range(1, shape[0]):
        beats = total[c] > best
        out = beats.astype(np.intp) if c == 1 else np.where(beats, c, out)
        best = np.maximum(best, total[c])  # NaN once any class is NaN
    nan = np.isnan(best)
    if nan.any():
        out[nan] = np.argmax(total[:, nan], axis=0)
    return out


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
    # a grid of no features is one cell, walked as one axis of one interval
    grid = shape or (1,)
    a, size = _slab_layout(grid)

    stack = e._stacked
    by_features: dict[tuple[int, ...], list[int]] = {}
    for m in np.flatnonzero((ws[0] != 0.0) | (ws[1] != 0.0)).tolist():
        by_features.setdefault(stack.features[m], []).append(m)
    groups = [_Group(trees, features, grid, a)
              for features, trees in by_features.items()]
    # each product w[m] * leaf score once, as predict_classes forms it;
    # class-major, so that a table's or slab's cells of one class are
    # contiguous and broadcast adds run along them
    weightings = [(weights, np.ascontiguousarray(
        (weights[stack.leaf_tree][:, None] * stack.leaf_scores).T))
        for weights in ws]
    order = [np.flatnonzero(weights != 0.0).tolist() for weights in ws]
    terms: list[dict[int, np.ndarray]] = [{}, {}]

    start = 0  # the id of the slab's first cell
    for lead in np.ndindex(grid[:a]):
        for r0 in range(0, grid[a], size):
            run = slice(r0, min(r0 + size, grid[a]))
            for group in groups:
                group.update(stack, reps, lead, run, weightings, terms)
            slab_shape = (e.n_classes, run.stop - r0) + grid[a + 1:]
            c0, c1 = (_slab_classes([t[m] for m in trees], slab_shape)
                      for t, trees in zip(terms, order))
            rows = np.flatnonzero(c0 != c1)
            first, start = start, start + len(c0)
            if not len(rows):
                continue
            cols = np.unravel_index(first + rows, shape) if shape else ()
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
