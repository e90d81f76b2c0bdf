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

* **Tables.** One rule, ``_groups``, groups the trees of an ensemble (the
  model's trees that carry weight in either weighting, or a score's
  isolation forest) by their set of split features. Each group is routed
  once, its node arrays stacked (one pass per level), over the product of
  its features' representatives. One ``np.take`` per weighting then
  gathers every tree's weighted leaf scores from that weighting's
  class-major products into a (classes, trees, *intervals) table. Where
  the grid has intervals the trees do not tell apart (a score model's
  thresholds, or other trees'), a group is routed once per interval
  between its ensemble's thresholds, and one more ``np.take`` spreads its
  tables over the grid's intervals, class-major and contiguous.
* **Region.** With a region, each slab's scores come first, from tables
  too. ``ScoreModel.score_terms`` writes s(x) as the sum ``scores`` forms:
  trees with a leaf column (leaf support: the ensemble's own trees, routed
  with the classes'; the isolation forest: its own trees), or lookups of
  tables at the bins of a few features (Chow-Liu: the root, then each
  edge). The terms are tabulated like the classes' and summed per slab in
  that order from zeros, as ``scores`` sums them, so every score is the
  one ``scores`` gives the cell's representative; a cell is in the region
  unless its score is > tau (a NaN score is in). A slab with no cell in
  the region has its classes neither tabulated nor summed.
* **Routing.** One rule decides how every slab's classes are taken. The
  cells to check are a slab's region cells, or all its cells without a
  region. A slab of at most one routing block (``ensemble._ROUTE_ROWS``
  rows) of them has no class tables: its cells are held (with their
  scores) until a block is held, a slab is summed from tables, or the
  walk ends. Then one ``predict_classes`` call routes the held cells'
  representatives once, over the trees either weighting keeps, and forms
  each weighting's sums from those leaves. A larger slab is summed from
  tables. The class tables and the class-major products are built on the
  first slab summed from tables, so a grid whose slabs are all routed
  builds none. Leaf support's class tables are built up front, with its
  scores', so its slabs are always summed.
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
  cells that disagree (and lie in the region) have their representatives
  gathered, each with its score from the slab. Held cells are reported
  before the next summed slab's, so every cell comes in cell order.
* **Memory.** A table spans all its features only while their product is
  at most ``_BLOCK``. Otherwise it spans the slab axes alone, the split
  axis limited to the slab's run and the other features held at the
  slab's coordinates, and is rebuilt when the slab moves to another
  interval of its terms. A group of such tables is one group per tree,
  routed over the intervals between the tree's own thresholds, so each
  is rebuilt only where its own intervals change. So no tree's or
  lookup's table (``n_classes`` rows of its cells, one for a score) and
  no slab holds more than ``_BLOCK * n_classes`` scores, whatever the
  number of cells or the length of an axis. At most
  ``2 * _ROUTE_ROWS`` cells are held at once, and
  ``iter_disagreements`` yields the disagreements as it goes, whatever
  their number.

Sums start from zeros and add each tree's ``w[m] * leaf scores`` in tree
order, skipping trees of weight zero, and the class of a sum is its first
maximum, as in ``predict_classes``; so every class, argmax ties included,
is the one ``predict_classes`` gives the cell's representative, whichever
of the two ways it is taken.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import ensemble
from .ensemble import (
    Ensemble,
    StackedTrees,
    predict_classes,
    stacked_leaves,
    threshold_index,
)
from .errors import DimensionMismatch, TooManyCells
from .plausibility import ChowLiuModel, ScoreModel, TreeTerms

log = logging.getLogger("equiprune")

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


class _Tables:
    """The tables of the terms on one set of features, and their views on
    the slabs.

    ``span`` is the features the tables run over: all of ``features`` when
    their intervals number at most ``_BLOCK`` (``whole``), else those on
    the slab axes (from the split axis ``a`` on), the split axis over the
    slab's run alone. The views of the tables move with the features on the
    leading axes (``lead``) and, if it holds axis a, with the run.
    Subclasses build the tables (``tabulate``): per sum of ``sums`` (a dict
    of the sum's terms by name), the names of the terms and their (rows,
    terms, *intervals of span) table.

    ``cuts[f]``, where given, is the part of each interval of feature f
    that the terms tell apart: the interval between their ensemble's
    thresholds (a tree's own, for a tree grouped alone), or a bin. Two
    slabs alike in those parts get the same views, so tables that do not
    span every feature are rebuilt only when the parts change.
    """

    def __init__(self, features: tuple[int, ...], shape: tuple[int, ...],
                 a: int, sums: list[dict], cuts: dict[int, np.ndarray]):
        self.features = features
        self.sums = sums
        self.cuts = cuts
        self.whole = math.prod(shape[f] for f in features) <= _BLOCK
        self.span = (features if self.whole
                     else tuple(f for f in features if f >= a))
        self.lead = tuple(f for f in features if f < a)
        self.runs = a in features
        self.a = a
        # the cut of each leading feature, and of the split axis
        self.lead_cuts = [(f, cuts.get(f)) for f in self.lead]
        self.run_cut = cuts.get(a)
        # a table's slab view broadcasts over the axes after the split axis
        self.tail = tuple(shape[f] if f in features else 1
                          for f in range(a + 1, len(shape)))
        self.key = None
        self.tables = None

    def update(self, lead: tuple[int, ...], run: slice) -> None:
        """Point ``sums[j][name]`` at the slab view of the term's table for
        sum j, for the slab at leading coordinates ``lead`` and run ``run``
        of the split axis; rebuild the tables first if they do not span
        every feature and the slab moved on a part they hold fixed. Nothing
        changes if the views are those of a slab alike in every part."""
        key = (tuple(lead[f] if cut is None else cut[lead[f]]
                     for f, cut in self.lead_cuts),
               None if not self.runs else (run.start, run.stop)
               if self.run_cut is None else self.run_cut[run].tobytes())
        if key == self.key:
            return
        if self.tables is None or not self.whole:
            self.tables = self.tabulate(lead, run)
        self.key = key
        # every row and term, at the slab's place on the span
        index = (slice(None), slice(None)) + tuple(
            lead[f] if f < self.a else run if f == self.a and self.whole
            else slice(None) for f in self.span)
        head = (run.stop - run.start if self.runs else 1,)
        for (names, table), out in zip(self.tables, self.sums):
            view = table[index].reshape(
                (len(table), len(names)) + head + self.tail)
            for k, name in enumerate(names):
                out[name] = view[:, k]

    def tabulate(self, lead: tuple[int, ...], run: slice):
        raise NotImplementedError


class _Group(_Tables):
    """The trees of ``stack`` that split on one set of features, and their
    tables of weighted leaf scores, one per weighting, for the sum of the
    same place in ``sums``; a term is named by its tree.

    ``cuts[f]``, where the grid has more thresholds on f than the trees'
    ensemble (or, for a group of one tree, the tree) splits at, is the
    interval between those thresholds of every interval of f.
    """

    def __init__(self, trees: list[int], features: tuple[int, ...],
                 shape: tuple[int, ...], a: int, stack: StackedTrees, reps,
                 cuts: dict[int, np.ndarray], weightings, sums: list[dict]):
        super().__init__(features, shape, a, sums, cuts)
        self.trees = trees
        self.stack = stack
        self.reps = reps
        self.weightings = weightings

    def tabulate(self, lead, run):
        """Per weighting (w, its class-major stacked leaf scores ``w[m] *
        leaf scores``, (n_classes, leaf rows)), the group's trees of nonzero
        weight and their (n_classes, trees, *intervals of span) tables of
        weighted leaf scores over the product of the representatives of
        the span (C order), the split axis over ``run`` alone unless the
        span holds every feature. A feature outside the span is held at its
        representative at ``lead``.

        The trees are routed together, one pass per level, and their leaf
        scores gathered by one ``np.take``. Where the grid has more
        intervals on a feature than the trees tell apart (``cuts``), they
        are routed once per part, at its first representative, and the
        table spread to the rest by one more ``np.take``, which keeps it
        class-major and contiguous."""
        X, sizes, row = _points(self, self.reps, lead, run)
        leaves = stacked_leaves(self.stack, self.trees, X, self.features)
        out = []
        for w, scores in self.weightings:
            keep = [k for k, m in enumerate(self.trees) if w[m] != 0.0]
            table = np.take(scores, leaves[keep], axis=1)
            if row is not None:
                table = np.take(table, row, axis=2)
            out.append(([self.trees[k] for k in keep],
                        table.reshape((len(scores), len(keep)) + sizes)))
        return out


class _Lookup(_Tables):
    """Term ``name`` of a lookup score: the entries of ``table`` (axes in
    the order of ``axes``) at the bins of the representatives (``bins``,
    per feature)."""

    def __init__(self, name: int, axes: tuple[int, ...], table: np.ndarray,
                 bins, shape: tuple[int, ...], a: int, sums: list[dict]):
        super().__init__(tuple(sorted(axes)), shape, a, sums,
                         {f: bins[f] for f in axes})
        self.name = name
        self.axes = axes
        self.table = table

    def tabulate(self, lead, run):
        """The term's (1, 1, *intervals of span) table: its table's entries
        at the bins of every point of the product of the representatives
        of the span (C order), the split axis over ``run`` alone unless the
        span holds every feature. A feature outside the span is held at its
        bin at ``lead``."""
        index = []
        for f in self.axes:
            bins = self.cuts[f]
            if f in self.span:
                axis = self.span.index(f)
                if f == self.a and not self.whole:
                    bins = bins[run]
                index.append(bins.reshape(
                    (-1,) + (1,) * (len(self.span) - axis - 1)))
            else:
                index.append(bins[lead[f]])
        table = np.asarray(self.table[tuple(index)])
        return [([self.name], table.reshape((1, 1) + table.shape))]


def _points(group: _Group, reps, lead: tuple[int, ...], run: slice):
    """The rows the group's trees are routed at, the sizes of the span's
    intervals, and the row of every representative of the span (C order),
    None where the rows are the representatives: per feature of the span,
    the first representative of each part ``group.cuts`` tells apart; a
    feature outside the span held at its representative at ``lead``."""
    points, sizes, spread = [], [], {}
    for axis, f in enumerate(group.span):
        values, cut = reps[f], group.cuts.get(f)
        if f == group.a and not group.whole:
            values = values[run]
            cut = cut[run] if cut is not None else None
        sizes.append(len(values))
        if cut is not None:
            first = np.concatenate(([True], cut[1:] != cut[:-1]))
            if not first.all():
                spread[axis] = np.cumsum(first) - 1
                values = values[first]
        points.append(values)
    inner = tuple(len(v) for v in points)
    # the points column by column, each broadcast over the span's axes
    columns = np.empty((len(group.features),) + inner)
    for col, f in enumerate(group.features):
        if f in group.span:
            axis = group.span.index(f)
            columns[col] = points[axis].reshape(
                (-1,) + (1,) * (len(inner) - axis - 1))
        else:
            columns[col] = reps[f][lead[f]]
    X = columns.reshape(len(group.features), math.prod(inner)).T
    if not spread:
        return X, tuple(sizes), None
    row = np.zeros((), dtype=np.intp)
    for axis, size in enumerate(inner):
        row = row[..., None] * size + spread.get(axis, np.arange(size))
    return X, tuple(sizes), row.ravel()


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


def _groups(e: Ensemble, trees, shape: tuple[int, ...], a: int, reps,
            weightings, sums: list[dict]) -> list[_Group]:
    """The listed trees of ``e``, one group per set of split features, in
    the order the sets first occur, with cuts from ``e``'s thresholds. A
    group whose tables do not span every feature is one group per tree,
    with cuts from the tree's own thresholds, so each tree's tables are
    rebuilt only where its own intervals change."""
    stack = e._stacked
    union = threshold_index(e).per_feature
    by_features: dict[tuple[int, ...], list[int]] = {}
    for m in trees:
        by_features.setdefault(stack.features[m], []).append(m)
    out = []
    for features, members in by_features.items():
        group = _Group(members, features, shape, a, stack, reps,
                       _cuts(features, [union[f] for f in features], reps),
                       weightings, sums)
        out += [group] if group.whole else [
            _Group([m], features, shape, a, stack, reps,
                   _cuts(features, stack.splits[m], reps), weightings, sums)
            for m in members]
    return out


def _cuts(features, thresholds, reps) -> dict[int, np.ndarray]:
    """Per feature f of ``features`` whose ``thresholds`` (sorted, one
    sequence per feature) make fewer intervals than the grid has
    representatives ``reps[f]``, the interval between those thresholds of
    each representative."""
    return {f: np.searchsorted(np.asarray(ts, dtype=float), reps[f])
            for f, ts in zip(features, thresholds)
            if len(ts) + 1 < len(reps[f])}


class _Region:
    """s(x) <= tau over a slab's cells, from tables: the terms of the score
    model (``ScoreModel.score_terms``) are tabulated like the classes' and
    summed per slab from zeros in the order ``scores`` sums them, so every
    score is the one ``scores`` gives the cell's representative.

    Tree terms are one unit weighting of their trees (``weighting``);
    ``parts`` holds the tables of the terms, ``sum`` their slab views by
    name. Where the trees are the ensemble's own (leaf support), ``parts``
    is None: the caller routes them with the classes' and sets it to the
    shared groups. Other trees (an isolation forest's) are grouped by
    ``_groups`` like the classes', with the forest's thresholds.
    """

    def __init__(self, region: tuple[ScoreModel, float], e: Ensemble, reps,
                 shape: tuple[int, ...], a: int):
        model, self.tau = region
        terms = model.score_terms(e)
        self.sum: dict[int, np.ndarray] = {}
        if isinstance(terms, TreeTerms):
            self.names = list(range(terms.ensemble.n_trees))
            # unit weights: each product 1.0 * leaf value is the value
            self.weighting = (np.ones(len(self.names)),
                              np.ascontiguousarray(terms.values.T))
            self.divisor = terms.divisor
            self.parts = None if terms.ensemble is e else _groups(
                terms.ensemble, self.names, shape, a, reps, [self.weighting],
                [self.sum])
        else:
            bins = {j: terms.grid.bins_of(j, reps[j])
                    for axes, _ in terms.terms for j in axes}
            self.names = list(range(len(terms.terms)))
            self.divisor = None
            self.parts = [_Lookup(k, axes, table, bins, shape, a, [self.sum])
                          for k, (axes, table) in enumerate(terms.terms)]

    def scores(self, lead: tuple[int, ...], run: slice,
               shape: tuple[int, ...]) -> np.ndarray:
        """The scores of the slab at ``lead`` and ``run``, of ``shape`` (one
        row, then its axes), flat in C order: the terms summed from zeros,
        a tree sum then divided by the divisor."""
        for part in self.parts:
            part.update(lead, run)
        total = np.zeros(shape)
        for name in self.names:
            total += self.sum[name]
        if self.divisor is not None:
            total /= self.divisor
        return total.reshape(-1)


def _cells(ids, shape: tuple[int, ...], reps):
    """The indices (one array per axis) and the representatives (one row
    each) of the cells ``ids``, C-order ids of the grid of ``shape``."""
    cols = np.unravel_index(ids, shape) if shape else ()
    X = np.empty((len(ids), len(shape)))
    for j, col in enumerate(cols):
        X[:, j] = reps[j][col]
    return cols, X


def _found(cols, X, c0, c1, scores):
    """The disagreements at cells of indices ``cols`` and representatives
    ``X``, of classes ``c0`` / ``c1`` and scores ``scores`` (None without
    a region)."""
    scores = [None] * len(X) if scores is None else scores.tolist()
    for i in range(len(X)):
        yield Disagreement(
            indices=tuple(int(col[i]) for col in cols),
            x=tuple(X[i].tolist()),
            original_class=int(c0[i]), pruned_class=int(c1[i]),
            score=scores[i])


def iter_disagreements(e: Ensemble, w0, w,
                       region: tuple[ScoreModel, float] | None = None,
                       cap: int = DEFAULT_CELL_CAP):
    """Yield every cell where the two weightings disagree (and, if a region
    is given, whose representative scores <= tau), in cell order. Memory is
    bounded by the tables, one slab and at most two routing blocks of
    held cells, whatever the number of cells or disagreements. At the end
    of the walk, log its cells and slabs at DEBUG."""
    extra = region[0].extra_thresholds() if region is not None else None
    theta = threshold_index(e, extra)
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

    def weighted(weights):
        """Each product w[m] * leaf score once, as predict_classes forms
        it; class-major, so that a table's or slab's cells of one class
        are contiguous and broadcast adds run along them."""
        return weights, np.ascontiguousarray(
            (weights[stack.leaf_tree][:, None] * stack.leaf_scores).T)

    sums: list[dict[int, np.ndarray]] = [{}, {}]
    scorer = (_Region(region, e, reps, grid, a) if region is not None
              else None)
    groups = None
    # a slab of at most one routing block of cells to check (its region
    # cells, or all its cells without a region) has no class tables: its
    # cells wait in ``held`` (ids, scores) until a block is full, a slab is
    # summed from tables, or the walk ends, and their classes are then
    # taken under both weightings by one predict_classes, whose sums are
    # those of the tables. Leaf support's class tables are built with its
    # scores', up front, so its slabs are always summed.
    block = ensemble._ROUTE_ROWS
    if scorer is not None and scorer.parts is None:
        # every tree of the ensemble scores: each is routed once, its
        # scores' tables built with its classes'
        groups = scorer.parts = _groups(
            e, scorer.names, grid, a, reps,
            [*map(weighted, ws), scorer.weighting], [*sums, scorer.sum])
        block = 0
    order = [np.flatnonzero(weights != 0.0).tolist() for weights in ws]
    held: list[tuple[np.ndarray, np.ndarray | None]] = []

    def routed():
        """The disagreements among the held cells, which it empties."""
        ids = np.concatenate([i for i, _ in held])
        found = (np.concatenate([f for _, f in held])
                 if scorer is not None else None)
        held.clear()
        cols, X = _cells(ids, shape, reps)
        c0, c1 = predict_classes(e, np.stack(ws), X)
        rows = np.flatnonzero(c0 != c1)
        return _found(tuple(col[rows] for col in cols), X[rows], c0[rows],
                      c1[rows], None if found is None else found[rows])

    start = 0  # the id of the slab's first cell
    slabs = skipped = inside = direct = summed = 0
    for lead in np.ndindex(grid[:a]):
        for r0 in range(0, grid[a], size):
            run = slice(r0, min(r0 + size, grid[a]))
            slab_shape = (run.stop - r0,) + grid[a + 1:]
            first, start = start, start + math.prod(slab_shape)
            slabs += 1
            if scorer is not None:
                scores = scorer.scores(lead, run, (1,) + slab_shape)
                mask = ~(scores > scorer.tau)  # a NaN score is inside
                count = int(np.count_nonzero(mask))
                inside += count
                if not count:
                    skipped += 1
                    continue
            else:
                count = start - first
            if count <= block:
                if scorer is None:
                    held.append((np.arange(first, start), None))
                else:
                    rows = np.flatnonzero(mask)
                    held.append((first + rows, scores[rows]))
                direct += count
                if sum(len(ids) for ids, _ in held) >= block:
                    yield from routed()
                continue
            if held:
                yield from routed()
            if groups is None:
                trees = np.flatnonzero((ws[0] != 0.0) | (ws[1] != 0.0))
                groups = _groups(e, trees.tolist(), grid, a, reps,
                                 list(map(weighted, ws)), sums)
            for group in groups:
                group.update(lead, run)
            c0, c1 = (_slab_classes([t[m] for m in ms],
                                    (e.n_classes,) + slab_shape)
                      for t, ms in zip(sums, order))
            summed += 1
            differ = c0 != c1
            if scorer is not None:
                differ &= mask
            rows = np.flatnonzero(differ)
            if not len(rows):
                continue
            cols, X = _cells(first + rows, shape, reps)
            yield from _found(cols, X, c0[rows], c1[rows],
                              scores[rows] if scorer is not None else None)
    if held:
        yield from routed()
    if scorer is None:
        log.debug("verified %d cells in %d slabs, no region: %d cells "
                  "routed directly, %d slabs summed from tables", total,
                  slabs, direct, summed)
    else:
        log.debug("verified %d cells in %d slabs: %d cells in the region, "
                  "%d slabs without a region cell skipped, %d region cells "
                  "routed directly, %d slabs summed from tables", total,
                  slabs, inside, skipped, direct, summed)


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
    # the model's own -log terms, those ``scores`` sums
    root_nll = model._root_nll.tolist()
    edge_nll = {j: table.tolist() for j, table in model._edge_nll.items()}

    min_term = {j: min(root_nll) if j == model.root
                else min(map(min, edge_nll[j])) for j in order}
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
        terms = (root_nll if j == model.root
                 else edge_nll[j][assignment[model.parent[j]]])
        for b in range(grid.n_bins(j)):
            assignment[j] = b
            dfs(pos + 1, acc + terms[b])
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
