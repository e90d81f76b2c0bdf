"""Independent brute-force checks for equivalence certificates.

Ensembles partition the input space into finitely many axis-aligned cells on
which predictions are constant, so exact equivalence can be decided by
enumerating every cell and evaluating both weightings at a representative
point. The representative rule is deliberately identical to the oracle's
point reconstruction so the two modules can only disagree when one has a bug.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .ensemble import Ensemble, ThresholdIndex, predict_class, threshold_index
from .errors import TooManyCells
from .plausibility import ChowLiuModel, ScoreModel

DEFAULT_CELL_CAP = 10_000_000


@dataclass(frozen=True)
class Disagreement:
    indices: tuple[int, ...]
    x: tuple[float, ...]
    original_class: int
    pruned_class: int
    score: float | None


def cell_representative(theta: ThresholdIndex, indices) -> np.ndarray:
    """Right endpoint of each interval; lo + 1 when right-unbounded; zero for
    features without thresholds (same rule as the oracle)."""
    out = []
    for j, k in enumerate(indices):
        ts = theta.thresholds(j)
        if not ts:
            out.append(0.0)
        elif k < len(ts):
            out.append(ts[k])
        else:
            out.append(ts[-1] + 1.0)
    return np.array(out)


def iter_cells(theta: ThresholdIndex, cap: int = DEFAULT_CELL_CAP):
    """Yield (indices, representative) for every cell exactly once."""
    total = theta.n_cells()
    if total > cap:
        raise TooManyCells(f"{total} cells exceed the cap {cap}")
    ranges = [range(len(theta.thresholds(j)) + 1)
              for j in range(theta.n_features)]
    for indices in itertools.product(*ranges):
        yield indices, cell_representative(theta, indices)


def check_equivalence_exhaustive(e: Ensemble, w0, w,
                                 region: tuple[ScoreModel, float] | None = None,
                                 cap: int = DEFAULT_CELL_CAP) -> list[Disagreement]:
    """Every cell where the two weightings disagree (and, if a region is
    given, whose representative scores <= tau)."""
    extra = region[0].extra_thresholds() if region is not None else None
    theta = threshold_index(e, extra=extra)
    out: list[Disagreement] = []
    for indices, x in iter_cells(theta, cap=cap):
        c0 = predict_class(e, w0, x)
        c1 = predict_class(e, w, x)
        if c0 == c1:
            continue
        score_val = None
        if region is not None:
            model, tau = region
            score_val = model.score(e, x)
            if score_val > tau:
                continue
        out.append(Disagreement(indices=tuple(indices),
                                x=tuple(float(v) for v in x),
                                original_class=c0, pruned_class=c1,
                                score=score_val))
    return out


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
