"""Independent brute-force checks for equivalence certificates.

Ensembles partition the input space into finitely many axis-aligned cells on
which predictions are constant, so exact equivalence can be decided by
enumerating every cell and evaluating both weightings at a representative
point. The representatives are the ones the oracle decodes its solutions to,
``ThresholdIndex.representatives``, so the two modules name a cell by the
same point.

The check walks flat cell ids in blocks of ``_BLOCK`` cells (C order, which
is ``itertools.product`` order over the per-feature intervals), gathers the
block's representatives from that per-feature table, routes the whole block
through each tree's node arrays for both weightings, and scores only the
disagreeing rows. ``iter_disagreements`` yields the disagreements as it
goes, so the block size bounds the memory of a check, whatever the number of
cells or disagreements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensemble import Ensemble, predict_classes, threshold_index
from .errors import TooManyCells
from .plausibility import ChowLiuModel, ScoreModel

DEFAULT_CELL_CAP = 10_000_000

# cells routed and scored together by check_equivalence_exhaustive
_BLOCK = 4096


@dataclass(frozen=True)
class Disagreement:
    indices: tuple[int, ...]
    x: tuple[float, ...]
    original_class: int
    pruned_class: int
    score: float | None


def iter_disagreements(e: Ensemble, w0, w,
                       region: tuple[ScoreModel, float] | None = None,
                       cap: int = DEFAULT_CELL_CAP):
    """Yield every cell where the two weightings disagree (and, if a region
    is given, whose representative scores <= tau), in cell order. Memory is
    bounded by one block, whatever the number of disagreements."""
    extra = region[0].extra_thresholds() if region is not None else None
    theta = threshold_index(e, extra=extra)
    total = theta.n_cells()
    if total > cap:
        raise TooManyCells(f"{total} cells exceed the cap {cap}")
    table = theta.representatives()
    shape = tuple(len(t) for t in table)
    for start in range(0, total, _BLOCK):
        ids = np.arange(start, min(start + _BLOCK, total))
        cols = np.unravel_index(ids, shape) if shape else ()
        X = np.empty((len(ids), len(shape)))
        for j, col in enumerate(cols):
            X[:, j] = table[j][col]
        c0 = predict_classes(e, w0, X)
        c1 = predict_classes(e, w, X)
        rows = np.flatnonzero(c0 != c1)
        scores = [None] * len(rows)
        if region is not None and len(rows):
            model, tau = region
            block_scores = model.scores(e, X[rows])
            keep = ~(block_scores > tau)
            rows, scores = rows[keep], block_scores[keep].tolist()
        for r, score_val in zip(rows.tolist(), scores):
            yield Disagreement(
                indices=tuple(int(col[r]) for col in cols),
                x=tuple(X[r].tolist()),
                original_class=int(c0[r]), pruned_class=int(c1[r]),
                score=score_val)


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
