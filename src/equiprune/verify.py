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
  (classes, trees, *intervals) table. Where a score model adds thresholds
  of its own, the grid has intervals the trees do not tell apart: a group
  is then routed once per interval between its stack's thresholds, and
  its tables spread over the grid's intervals. The isolation forest's
  trees are grouped and routed the same way, over the intervals between
  the forest's thresholds.
* **Region.** With a region, each slab's scores come first, from tables
  too. ``ScoreModel.score_terms`` writes s(x) as the sum ``scores`` forms:
  trees with a leaf column (leaf support: the ensemble's own trees, routed
  with the classes'; the isolation forest: its own trees), or lookups of
  tables at the bins of a few features (Chow-Liu: the root, then each
  edge). The terms are tabulated like the classes' and summed per slab in
  that order, from the same start value, so every score is the one
  ``scores`` gives the cell's representative; a cell is in the region
  unless its score is > tau (a NaN score is in). A slab with no cell in
  the region has its classes neither tabulated nor summed.
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
  gathered, each with its score from the slab.
* **Memory.** A table spans all its features only while their product is
  at most ``_BLOCK``. Otherwise it spans the slab axes alone, the split
  axis limited to the slab's run and the other features held at the
  slab's coordinates, and is rebuilt when the slab moves to another
  interval of its terms. An isolation tree's intervals are its own, so
  such a forest group is split into one group per tree, each rebuilt only
  where its own intervals change. So no tree's or lookup's table
  (``n_classes`` rows of its cells, one for a score) and no slab holds
  more than ``_BLOCK * n_classes`` scores, whatever the number of cells or
  the length of an axis, and ``iter_disagreements`` yields the
  disagreements as it goes, whatever their number.

Sums start from zeros and add each tree's ``w[m] * leaf scores`` in tree
order, skipping trees of weight zero, and the class of a sum is its first
maximum, as in ``predict_classes``; so every class, argmax ties included,
is the one ``predict_classes`` gives the cell's representative.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .ensemble import (
    Ensemble,
    StackedTrees,
    ThresholdIndex,
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
    that the terms tell apart: the interval between their own thresholds,
    or a bin. Two slabs alike in those parts get the same views, so
    tables that do not span every feature are rebuilt only when the parts
    change.
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

    ``cuts[f]``, where the grid has more thresholds on f than the trees
    split at, is the interval between their thresholds of every interval of
    f.
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
        return _tables(self, self.stack, self.reps, lead, run,
                       self.weightings)


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
        return _lookup_tables(self, lead, run)


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


def _tables(group: _Group, stack: StackedTrees, reps, lead: tuple[int, ...],
            run: slice, weightings) -> list[tuple[list[int], np.ndarray]]:
    """Per weighting (w, its class-major stacked leaf scores ``w[m] * leaf
    scores``, (n_classes, leaf rows)), the group's trees of nonzero weight
    and their (n_classes, trees, *intervals of span) tables of weighted
    leaf scores over the product of the representatives of ``group.span``
    (C order), the split axis over ``run`` alone unless the span holds
    every feature. A feature of the group outside the span is held at its
    representative at ``lead``.

    The trees are routed together, one pass per level, and their leaf
    scores gathered by one ``np.take``. Where the grid has more intervals
    on a feature than the trees tell apart (``_Group.cuts``: a score
    model's thresholds, or another tree's), they are routed once per part,
    at its first representative, and the table spread to the rest."""
    X, sizes, row = _points(group, reps, lead, run)
    leaves = stacked_leaves(stack, group.trees, X, group.features)
    out = []
    for w, scores in weightings:
        keep = [k for k, m in enumerate(group.trees) if w[m] != 0.0]
        table = np.take(scores, leaves[keep], axis=1)
        if row is not None:
            table = table[:, :, row]
        out.append(([group.trees[k] for k in keep],
                    table.reshape((len(scores), len(keep)) + sizes)))
    return out


def _lookup_tables(term: _Lookup, lead: tuple[int, ...], run: slice
                   ) -> list[tuple[list[int], np.ndarray]]:
    """The term's (1, 1, *intervals of span) table: its table's entries at
    the bins of every point of the product of the representatives of
    ``term.span`` (C order), the split axis over ``run`` alone unless the
    span holds every feature. A feature outside the span is held at its
    bin at ``lead``."""
    index = []
    for f in term.axes:
        bins = term.cuts[f]
        if f in term.span:
            axis = term.span.index(f)
            if f == term.a and not term.whole:
                bins = bins[run]
            index.append(bins.reshape(
                (-1,) + (1,) * (len(term.span) - axis - 1)))
        else:
            index.append(bins[lead[f]])
    table = np.asarray(term.table[tuple(index)])
    return [([term.name], table.reshape((1, 1) + table.shape))]


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


def _groups(stack: StackedTrees, trees, shape: tuple[int, ...], a: int,
            reps, cuts: dict[int, np.ndarray], weightings,
            sums: list[dict]) -> list[_Group]:
    """The listed trees of ``stack``, one group per set of split features,
    in the order the sets first occur, each with the ``cuts`` of its
    features."""
    by_features: dict[tuple[int, ...], list[int]] = {}
    for m in trees:
        by_features.setdefault(stack.features[m], []).append(m)
    return [_Group(group, features, shape, a, stack, reps,
                   {f: cuts[f] for f in features if f in cuts},
                   weightings, sums)
            for features, group in by_features.items()]


def _cuts(features, thresholds, theta: ThresholdIndex,
          reps) -> dict[int, np.ndarray]:
    """Per feature of ``features`` on which the grid ``theta`` has more
    thresholds than ``thresholds`` lists (sorted, one sequence per
    feature), the interval between those of each representative."""
    return {f: np.searchsorted(np.asarray(ts, dtype=float), reps[f])
            for f, ts in zip(features, thresholds)
            if len(ts) < len(theta.per_feature[f])}


class _Region:
    """s(x) <= tau over a slab's cells, from tables: the terms of the score
    model (``ScoreModel.score_terms``) are tabulated like the classes' and
    summed per slab in the order ``scores`` sums them, from its start
    value, so every score is the one ``scores`` gives the cell's
    representative.

    Tree terms are one unit weighting of their trees (``weighting``);
    ``parts`` holds the tables of the terms, ``sum`` their
    slab views by name. Where the trees are the ensemble's own (leaf
    support), ``parts`` is None: the caller routes them with the classes'
    and sets it to the shared groups. Other trees (an isolation forest's)
    are grouped like the classes' by their split features, with cuts from
    the forest's thresholds; a group whose tables do not span every
    feature is one part per tree, with cuts from the tree's own thresholds.
    """

    def __init__(self, region: tuple[ScoreModel, float], e: Ensemble,
                 theta: ThresholdIndex, reps, shape: tuple[int, ...], a: int):
        model, self.tau = region
        terms = model.score_terms(e)
        self.sum: dict[int, np.ndarray] = {}
        if isinstance(terms, TreeTerms):
            stack = terms.ensemble._stacked
            self.names = list(range(terms.ensemble.n_trees))
            # unit weights: each product 1.0 * leaf value is the value
            self.weighting = (np.ones(len(self.names)),
                              np.ascontiguousarray(terms.values.T))
            self.divisor = terms.divisor
            self.parts = None
            if stack is not e._stacked:
                # each isolation tree splits at thresholds of its own: where
                # the tables are rebuilt as the slabs move, a tree alone is
                # rebuilt only where its own intervals change
                self.parts = []
                union = threshold_index(terms.ensemble).per_feature
                for group in _groups(stack, self.names, shape, a, reps,
                                     _cuts(range(len(reps)), union, theta,
                                           reps),
                                     [self.weighting], [self.sum]):
                    self.parts += [group] if group.whole else [
                        _Group([m], group.features, shape, a, stack, reps,
                               _cuts(group.features, stack.splits[m], theta,
                                     reps),
                               [self.weighting], [self.sum])
                        for m in group.trees]
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
        row, then its axes), flat in C order: tree sums from zeros, then
        divided by the divisor; lookup sums from their first term."""
        for part in self.parts:
            part.update(lead, run)
        total = np.zeros(shape)
        names = iter(self.names)
        if self.divisor is None:  # a lookup sum starts at its first term
            total[...] = self.sum[next(names)]
        for name in names:
            total += self.sum[name]
        if self.divisor is not None:
            total /= self.divisor
        return total.reshape(-1)


def iter_disagreements(e: Ensemble, w0, w,
                       region: tuple[ScoreModel, float] | None = None,
                       cap: int = DEFAULT_CELL_CAP):
    """Yield every cell where the two weightings disagree (and, if a region
    is given, whose representative scores <= tau), in cell order. Memory is
    bounded by the tables and one slab, whatever the number of cells or
    disagreements. At the end of the walk, log its cells and slabs at
    DEBUG."""
    extra = region[0].extra_thresholds() if region is not None else None
    base = threshold_index(e)
    theta = base.merged(extra)
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
    # each product w[m] * leaf score once, as predict_classes forms it;
    # class-major, so that a table's or slab's cells of one class are
    # contiguous and broadcast adds run along them
    weightings = [(weights, np.ascontiguousarray(
        (weights[stack.leaf_tree][:, None] * stack.leaf_scores).T))
        for weights in ws]
    sums: list[dict[int, np.ndarray]] = [{}, {}]
    trees = np.flatnonzero((ws[0] != 0.0) | (ws[1] != 0.0)).tolist()
    scorer = (_Region(region, e, theta, reps, grid, a) if region is not None
              else None)
    shared = scorer is not None and scorer.parts is None
    if shared:
        # every tree of the ensemble scores: each is routed once, its
        # scores' tables built with its classes'
        weightings.append(scorer.weighting)
        sums.append(scorer.sum)
        trees = scorer.names
    groups = _groups(stack, trees, grid, a, reps,
                     _cuts(range(len(reps)), base.per_feature, theta, reps),
                     weightings, sums)
    if shared:
        scorer.parts = groups
    order = [np.flatnonzero(weights != 0.0).tolist() for weights in ws]

    start = 0  # the id of the slab's first cell
    slabs = skipped = inside = 0
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
            for group in groups:
                group.update(lead, run)
            c0, c1 = (_slab_classes([t[m] for m in ms],
                                    (e.n_classes,) + slab_shape)
                      for t, ms in zip(sums, order))
            differ = c0 != c1
            if scorer is not None:
                differ &= mask
            rows = np.flatnonzero(differ)
            if not len(rows):
                continue
            cols = np.unravel_index(first + rows, shape) if shape else ()
            X = np.empty((len(rows), len(shape)))
            for j, col in enumerate(cols):
                X[:, j] = reps[j][col]
            found = (scores[rows].tolist() if scorer is not None
                     else [None] * len(rows))
            for i, r in enumerate(rows.tolist()):
                yield Disagreement(
                    indices=tuple(int(col[i]) for col in cols),
                    x=tuple(X[i].tolist()),
                    original_class=int(c0[r]), pruned_class=int(c1[r]),
                    score=found[i])
    if scorer is None:
        log.debug("verified %d cells in %d slabs, no region", total, slabs)
    else:
        log.debug("verified %d cells in %d slabs: %d cells in the region, "
                  "%d slabs without a region cell skipped", total, slabs,
                  inside, skipped)


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
