"""Sparsest-weight selection under prediction-equivalence constraints.

Given a set of constraint points, find non-negative tree weights that keep
the original predicted class on every point, minimizing either the number of
kept trees (L0, via big-M indicator binaries) or the weight sum (L1, a pure
LP). The total-weight normalization fixes the scale so the strict margin eps
is meaningful; predictions themselves are invariant to positive rescaling.
"""

from __future__ import annotations

import logging
import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .ensemble import Ensemble, predict_classes
from .errors import EquipruneError, InfeasibleAtEpsilon, SolverUncertified
from .milp import (
    BINARY,
    CONTINUOUS,
    EQUAL,
    GREATER_EQUAL,
    INFEASIBLE,
    LESS_EQUAL,
    OPTIMAL,
    MilpModel,
    MilpSolution,
    solve,
)

L0 = "l0"
L1 = "l1"

log = logging.getLogger("equiprune")

# Solved weights below this fraction of max(1, total weight) count as dropped.
SUPPORT_TOL = 1e-9

# Tie-rule rows (rival class c2 > c, which wins an exact tie against c) keep
# this fraction of the strict margin, in the weight solve and in the
# counterexample search alike.
TIE_FACTOR = 1e-2


class MarginSlip(EquipruneError):
    """Solved weights failed the exact prediction recheck on a constraint
    point (a near-tie at the LP vertex)."""


def default_margin(e: Ensemble) -> float:
    """eps = 1e-6 * max |leaf score| * total weight, floored at 1e-6."""
    peak = max(float(np.abs(S).max()) for S in e._leaf_scores)
    w_total = float(e.weights0.sum())
    return max(1e-6 * peak * w_total, 1e-6)


@dataclass
class PrunerProblem:
    """The constrained cells of a pruning run plus the objective of its
    weight solves.

    The equivalence constraint depends only on which leaves a point reaches,
    so each cell is constrained once, by the first point that reached it.
    ``points`` seeds the cells; :meth:`add` grows them. ``eps``, the strict
    margin of the weight solves, defaults to :func:`default_margin`.

    :func:`solve_pruner` records on the problem the eps its last weight solve
    used, how many times it halved ``eps`` to get there, the lower bound it
    started from (None when none) and whether it ran a tie repair. It also
    keeps the eps and optimum of the last certified L0 solve. Cells are
    only ever added, so that optimum bounds every later solve at that eps.
    """

    ensemble: Ensemble
    points: InitVar[list[np.ndarray]]
    objective: str = L0
    eps: float | None = None
    solved_eps: float | None = field(default=None, init=False)
    solved_halvings: int = field(default=0, init=False)
    solved_lower_bound: float | None = field(default=None, init=False)
    solved_tie_repair: bool = field(default=False, init=False)
    _certified: tuple[float, float] | None = field(default=None, init=False,
                                                  repr=False)
    _classes: list[int] = field(default_factory=list, repr=False)
    _reps: list[np.ndarray] = field(default_factory=list, repr=False)
    # per cell: the leaf-score matrix V[m][c] and the original scores w0 @ V
    _scores: list[np.ndarray] = field(default_factory=list, repr=False)
    _scores0: list[np.ndarray] = field(default_factory=list, repr=False)
    _cells: set[tuple[int, ...]] = field(default_factory=set, repr=False)

    def __post_init__(self, points):
        if self.objective not in (L0, L1):
            raise ValueError(f"objective must be {L0!r} or {L1!r}")
        if self.eps is None:
            self.eps = default_margin(self.ensemble)
        self.add(points)

    def add(self, points) -> int:
        """Constrain the cells of ``points`` not constrained yet; returns how
        many cells were new."""
        X = np.array(points, dtype=float)
        if X.shape[0] == 0:
            return 0
        e = self.ensemble
        L = e.leaf_matrix(X)
        new = []
        for i, cell in enumerate(map(tuple, L.tolist())):
            if cell not in self._cells:
                self._cells.add(cell)
                new.append(i)
        classes = predict_classes(e, e.weights0, X[new]).tolist()
        for i, c in zip(new, classes):
            V = np.array([S[leaf] for S, leaf in zip(e._leaf_scores, L[i])])
            self._classes.append(c)
            self._reps.append(X[i])
            self._scores.append(V)
            self._scores0.append(e.weights0 @ V)
        return len(new)

    @property
    def n_constraints(self) -> int:
        return len(self._classes)

    def margin_rows(self, eps: float):
        """Per cell i and rival class c2: ``(i, c2, gains, rhs)`` of the row
        ``gains @ w >= rhs`` keeping the cell's class. Strict rows (c2 < c)
        take eps, tie-rule rows (c2 > c) :func:`tie_margin`."""
        cells = zip(self._scores, self._scores0, self._classes)
        for i, (V, F0, c) in enumerate(cells):
            for c2 in range(self.ensemble.n_classes):
                if c2 == c:
                    continue
                rhs = eps if c2 < c else tie_margin(eps, float(F0[c] - F0[c2]))
                yield i, c2, V[:, c] - V[:, c2], rhs


def _w0_min_strict_margin(prob: PrunerProblem) -> float:
    """Smallest original-weights margin over the strict class pairs."""
    lowest = math.inf
    for F0, c in zip(prob._scores0, prob._classes):
        for c2 in range(c):
            lowest = min(lowest, F0[c] - F0[c2])
    return lowest


def tie_margin(eps: float, w0_margin: float) -> float:
    """Protective margin for the tie-rule rows (c2 > c).

    Plain rhs-0 rows let the LP park solutions exactly on the argmax
    boundary, where float re-evaluation can flip the class. A margin of
    ``eps * TIE_FACTOR`` (capped at half the original weights' own margin so
    they stay feasible) keeps solutions strictly inside, well within the
    documented strict-margin approximation.
    """
    return max(0.0, min(eps * TIE_FACTOR, w0_margin / 2.0))


def build_pruner_milp(prob: PrunerProblem, eps: float) -> tuple[MilpModel, list[int]]:
    """The weight-selection MILP; returns (model, weight variable indices)."""
    e = prob.ensemble
    M = e.n_trees
    w_total = float(e.weights0.sum())

    model = MilpModel()
    # L1 drops the normalization and needs no weight bound: min sum(w) over
    # w >= 0 is bounded below, and an optimum's sum, hence each of its
    # weights, is at most that of the feasible w0 * max(1, eps / lowest).
    ub = w_total if prob.objective == L0 else math.inf
    w_vars = [model.add_var(name=f"w{m}", kind=CONTINUOUS, lb=0.0, ub=ub)
              for m in range(M)]

    z_vars: list[int] = []
    if prob.objective == L0:
        z_vars = [model.add_var(name=f"z{m}", kind=BINARY) for m in range(M)]
        for m in range(M):
            model.add_constraint({w_vars[m]: 1.0, z_vars[m]: -w_total},
                                 LESS_EQUAL, 0.0, name=f"link{m}")
        model.add_constraint({v: 1.0 for v in w_vars}, EQUAL, w_total,
                             name="scale")
        model.set_objective({v: 1.0 for v in z_vars}, sense="min")
    else:
        model.set_objective({v: 1.0 for v in w_vars}, sense="min")

    for i, c2, gains, rhs in prob.margin_rows(eps):
        coeffs = {w_vars[m]: float(gains[m]) for m in range(M)}
        model.add_constraint(coeffs, GREATER_EQUAL, rhs, name=f"pt{i}_c{c2}")
        if prob.objective == L0 and rhs > 0:
            # Cover cut: some positively contributing tree must be kept,
            # else the strict margin is unreachable. Valid for every
            # integral solution; lifts the weak big-M relaxation.
            positives = {z_vars[m]: 1.0 for m in range(M) if gains[m] > 0}
            if positives and len(positives) < M:
                model.add_constraint(positives, GREATER_EQUAL, 1.0,
                                     name=f"cover{i}_c{c2}")
    return model, w_vars


def solve_pruner(prob: PrunerProblem, time_limit_s: float = 120.0,
                 node_limit: int | None = None) -> tuple[np.ndarray, MilpSolution]:
    """Solve for the sparsest (or minimal-L1) equivalent weights.

    The margin ``prob.eps`` is halved up to 20 times until the original
    weights are themselves feasible; if they never are, raises
    InfeasibleAtEpsilon. An L0 solve at the eps of the problem's last
    certified L0 solve starts from that solve's optimum as a proven lower
    bound, so it ends as soon as it finds a support of that size. After the
    solve, every constraint point is rechecked with exact ensemble arithmetic
    (MarginSlip on failure, after one tie-repair re-solve, which starts from
    the first solve's optimum as its lower bound). The eps used, its halvings,
    the lower bound and whether a tie repair ran are recorded on ``prob``
    (``solved_eps``, ``solved_halvings``, ``solved_lower_bound``,
    ``solved_tie_repair``). Every node LP is a possible incumbent, so an L1
    solve, which has no binaries, is one LP.
    """
    e = prob.ensemble
    eps = prob.eps
    halvings = 0
    if prob.n_constraints:
        lowest = _w0_min_strict_margin(prob)
        while eps > lowest and halvings < 20:
            eps /= 2.0
            halvings += 1
        if eps > lowest:
            raise InfeasibleAtEpsilon(
                f"original weights have strict margin {lowest:.3e} < eps {eps:.3e}"
            )
        if halvings:
            log.info("weight solve: eps halved %d times to %.3e", halvings,
                     eps)

    lower_bound = None
    if prob._certified is not None and prob._certified[0] == eps:
        lower_bound = prob._certified[1]
    prob.solved_eps, prob.solved_halvings = eps, halvings
    prob.solved_lower_bound, prob.solved_tie_repair = lower_bound, False

    model, w_vars = build_pruner_milp(prob, eps)
    sol = solve(model, time_limit_s=time_limit_s, node_limit=node_limit,
                lower_bound=lower_bound)
    if sol.status == INFEASIBLE:
        raise InfeasibleAtEpsilon(f"weight solve infeasible at eps={eps:.3e}")
    if sol.status != OPTIMAL:
        raise SolverUncertified(f"weight solve hit a limit: {sol.status}")
    optimum = None  # the integer optimum of an L0 solve
    if prob.objective == L0:
        optimum = float(round(sol.objective))
        prob._certified = (eps, optimum)

    w = _extract_weights(e, sol, w_vars)
    bad = _recheck(prob, w)
    if not bad:
        return w, sol

    # Tie repair: force a small strict margin on exactly the slipped pairs.
    # It must exceed the LP feasibility tolerance or the repair is vacuous.
    # Raising rows only shrinks the feasible set, so the first optimum is a
    # lower bound of the re-solve.
    log.info("weight solve: tie repair re-solve for %d slipped rows", len(bad))
    prob.solved_tie_repair = True
    tie_eps = min(eps, 1e-6)
    rows = {con.name: con for con in model.constraints}
    for i, c2 in bad:
        con = rows[f"pt{i}_c{c2}"]
        con.rhs = max(con.rhs, tie_eps)
    sol = solve(model, time_limit_s=time_limit_s, node_limit=node_limit,
                lower_bound=optimum)
    if sol.status != OPTIMAL:
        raise MarginSlip("tie repair failed to produce optimal weights")
    w = _extract_weights(e, sol, w_vars)
    if _recheck(prob, w):
        raise MarginSlip("weights still flip a constraint point after repair")
    return w, sol


def _extract_weights(e: Ensemble, sol: MilpSolution, w_vars):
    w = np.array([sol.value(v) for v in w_vars])
    w[np.abs(w) < SUPPORT_TOL * max(1.0, float(e.weights0.sum()))] = 0.0
    w[w < 0] = 0.0
    return w


def _recheck(prob: PrunerProblem, w) -> list[tuple[int, int]]:
    """Exact re-evaluation of every cell's representative with the arithmetic
    that classified it; returns (cell index, offending class) slips."""
    e = prob.ensemble
    reps = np.array(prob._reps, dtype=float).reshape(-1, e.n_features)
    preds = predict_classes(e, w, reps).tolist()
    return [(i, pred) for i, (pred, c) in enumerate(zip(preds, prob._classes))
            if pred != c]
