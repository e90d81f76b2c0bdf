"""Sparsest-weight selection under prediction-equivalence constraints.

Given a set of constraint points, find non-negative tree weights that keep
the original predicted class on every point, minimizing either the number of
kept trees (L0) or the weight sum (L1, a pure LP). The total-weight
normalization fixes the scale so the strict margin eps is meaningful;
predictions themselves are invariant to positive rescaling.

The L0 solve is a combinatorial Benders loop (Codato & Fischetti, Oper. Res.
2006). A master problem over one binary per tree, ``min sum z`` subject to a
pool of cover rows ``sum_{m in C} z_m >= 1``, proposes a support S. A
phase-1 LP over the weights, with every tree outside S fixed to 0, decides
whether S can meet every margin row; the weight model is that LP, with one
slack per margin row and the summed slack minimized. If S cannot, the LP's
row duals ``y >= 0`` give a cover: with ``G`` the margin rows' gains, ``r``
their right-hand sides and ``W`` the total weight, any weights that sum to
W and meet the rows keep some tree m with ``y . g_m >= y . r / W``. That
holds for every ``y >= 0``, so the cut is valid however inexact the duals
are. Before cutting, S is grown to a maximal infeasible support, which makes
the cut smaller and hence stronger. The duals in hand decide most growth
steps: a tree outside their cut, added to a support outside it too, leaves
every tree below the threshold, so it joins with no LP; only a tree inside
the cut costs a phase-1 LP. A master optimum whose support is feasible is
the L0 optimum, and the phase-1 LP that found it feasible gives the
weights: any weights on that support that meet the margin rows are equally
sparse. The pool is kept on the problem while eps is unchanged, with the
largest master optimum so far as a lower bound on the L0 optimum; each
cut's master row is made once, when the cut enters the pool, and every
round's master is assembled from those rows.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import InitVar, dataclass, field, replace

import numpy as np

from .ensemble import Ensemble, predict_classes
from .errors import EquipruneError, InfeasibleAtEpsilon, SolverUncertified
from .milp import (
    BINARY,
    CONTINUOUS,
    EQUAL,
    GREATER_EQUAL,
    INFEASIBLE,
    ITER_LIMIT,
    OPTIMAL,
    TIME_LIMIT,
    Constraint,
    MilpModel,
    MilpSolution,
    _LpRelaxation,
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

# A support is feasible when its phase-1 optimum (the summed shortfall of
# the margin rows) is at most this fraction of max(1, largest |rhs|).
PHASE1_TOL = 1e-12

# A cut keeps every tree within this fraction of max(1, |threshold|) below
# its threshold: that only weakens the cut.
CUT_TOL = 1e-9


class MarginSlip(EquipruneError):
    """Solved weights failed the exact prediction recheck on a constraint
    point (a near-tie at the LP vertex)."""


def default_margin(e: Ensemble) -> float:
    """eps = 1e-6 * max |leaf score| * total weight, floored at 1e-6."""
    peak = float(np.abs(e._stacked.leaf_scores).max())
    w_total = float(e.weights0.sum())
    return max(1e-6 * peak * w_total, 1e-6)


@dataclass
class _CutPool:
    """The L0 cuts of one eps (sorted tree tuples, in the order found), each
    with its master row, and a lower bound on the L0 optimum at that eps
    (None before the first master); a dict keeps the cuts' order and drops
    repeats."""

    eps: float
    cuts: dict[tuple[int, ...], Constraint] = field(default_factory=dict)
    bound: float | None = None


@dataclass
class PrunerProblem:
    """The constrained cells of a pruning run plus the objective of its
    weight solves.

    The equivalence constraint depends only on which leaves a point reaches,
    so each cell is constrained once, by the first point that reached it.
    ``points`` seeds the cells; :meth:`add` grows them. ``eps``, the strict
    margin of the weight solves, defaults to :func:`default_margin`.

    :func:`solve_pruner` records its last weight solve in ``solved``, keyed
    by the fields of ``loop.IterationRecord`` that describe it, and keeps
    the L0 cut pool of the last eps solved at, with its lower bound. Cells
    are only ever added, so the pool's cuts and bound hold for every later
    solve at that eps.
    """

    ensemble: Ensemble
    points: InitVar[list[np.ndarray]]
    objective: str = L0
    eps: float | None = None
    solved: dict = field(default_factory=dict, init=False)
    _pool: _CutPool | None = field(default=None, init=False, repr=False)
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
        stack = e._stacked
        for i, c in zip(new, classes):
            V = stack.leaf_scores[stack.first_leaf[:-1] + L[i]]
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
    """The weight model; returns (model, weight variable indices).

    Its rows are the margin rows ``pt{i}_c{c2}``. L1 minimizes the weight
    sum. L0 bounds each weight by the total weight W and fixes their sum
    to W (row ``scale``), and is the phase-1 LP of the Benders loop of
    :func:`solve_pruner`: each margin row gets a slack ``s_pt{i}_c{c2} >= 0``
    (variables after the weights, in row order), and the summed slack is
    minimized.
    """
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
    if prob.objective == L0:
        model.add_constraint({v: 1.0 for v in w_vars}, EQUAL, w_total,
                             name="scale")
    else:
        model.set_objective({v: 1.0 for v in w_vars}, sense="min")

    slacks = []
    for i, c2, gains, rhs in prob.margin_rows(eps):
        coeffs = {w_vars[m]: float(gains[m]) for m in range(M)}
        if prob.objective == L0:
            slacks.append(model.add_var(name=f"s_pt{i}_c{c2}"))
            coeffs[slacks[-1]] = 1.0
        model.add_constraint(coeffs, GREATER_EQUAL, rhs, name=f"pt{i}_c{c2}")
    if prob.objective == L0:
        model.set_objective({s: 1.0 for s in slacks}, sense="min")
    return model, w_vars


def solve_pruner(prob: PrunerProblem, time_limit_s: float = 120.0,
                 node_limit: int | None = None) -> tuple[np.ndarray, MilpSolution]:
    """Solve for the sparsest (or minimal-L1) equivalent weights.

    The margin ``prob.eps`` is halved up to 20 times until the original
    weights are themselves feasible; if they never are, raises
    InfeasibleAtEpsilon. An L1 solve is one LP. An L0 solve is the Benders
    loop of the module docstring on the problem's cut pool at this eps: its
    masters start from the pool's bound (the optimum of the last certified
    L0 solve at this eps, raised by each master optimum), and its cuts are
    the pool's carried cuts plus the all-trees cut and one cut per margin
    row (the trees whose own gain reaches the row's rhs / W).
    ``time_limit_s`` and ``node_limit`` bound the whole loop, nodes summed
    over its master solves; a limit raises SolverUncertified. The weights
    are those of the phase-1 LP that found the optimal support feasible
    (:func:`build_pruner_milp`'s model, trees outside the support fixed to
    0), and the returned solution's objective is the support size, with the
    work of every solve summed.

    After the solve, every constraint point is rechecked with exact ensemble
    arithmetic (MarginSlip on failure, after one tie-repair re-solve, which
    starts from a copy of the pool, whose bound is the first solve's
    optimum; its cuts and bound hold only for its raised rows, so they stay
    out of the carried pool). The returned solution then sums both solves'
    work, and so do the counts in ``prob.solved``.
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

    if prob._pool is None or prob._pool.eps != eps:
        prob._pool = _CutPool(eps)
        _add_cut(prob._pool.cuts, tuple(range(e.n_trees)))
    prob.solved = dict(eps=eps, halvings=halvings,
                       lower_bound=prob._pool.bound, tie_repair=False,
                       rounds=0, cuts=0, subproblem_lps=0)

    model, w_vars = build_pruner_milp(prob, eps)
    first = _solve_weights(prob, model, w_vars, prob._pool, time_limit_s,
                           node_limit)
    if first.status == INFEASIBLE:
        raise InfeasibleAtEpsilon(f"weight solve infeasible at eps={eps:.3e}")
    if first.status != OPTIMAL:
        raise SolverUncertified(f"weight solve hit a limit: {first.status}")

    w = _extract_weights(e, first, w_vars)
    bad = _recheck(prob, w)
    if not bad:
        return w, first

    # Tie repair: force a small strict margin on exactly the slipped pairs.
    # It must exceed the LP feasibility tolerance or the repair is vacuous.
    # Raising rows only shrinks the feasible set, so the carried cuts and
    # bound, now the first optimum, still hold; the re-solve adds to copies.
    log.info("weight solve: tie repair re-solve for %d slipped rows", len(bad))
    prob.solved["tie_repair"] = True
    tie_eps = min(eps, 1e-6)
    rows = {con.name: con for con in model.constraints}
    for i, c2 in bad:
        con = rows[f"pt{i}_c{c2}"]
        con.rhs = max(con.rhs, tie_eps)
    pool = replace(prob._pool, cuts=dict(prob._pool.cuts))
    sol = _solve_weights(prob, model, w_vars, pool, time_limit_s, node_limit)
    if sol.status != OPTIMAL:
        raise MarginSlip("tie repair failed to produce optimal weights")
    sol = _with_work(sol, first)
    w = _extract_weights(e, sol, w_vars)
    if _recheck(prob, w):
        raise MarginSlip("weights still flip a constraint point after repair")
    return w, sol


# the MilpSolution counters that add up over the solves of one weight solve
_WORK = ("wall_time_s", "nodes", "lp_iterations", "cold_restarts",
         "linprog_calls", "incumbents", "build_s", "lp_s")


def _with_work(sol: MilpSolution, *others) -> MilpSolution:
    """``sol`` with the counters of ``others`` added to its own; an
    ``_LpRelaxation`` among them adds its LP counters."""
    return replace(sol, **{k: getattr(sol, k) + sum(getattr(o, k, 0)
                                                    for o in others)
                           for k in _WORK})


def _solve_weights(prob: PrunerProblem, model: MilpModel, w_vars, pool,
                   time_limit_s, node_limit) -> MilpSolution:
    """One weight solve of ``model``: an LP for L1, the Benders loop for
    L0, whose cuts and bound go into ``pool``."""
    if prob.objective == L1:
        return solve(model, time_limit_s=time_limit_s, node_limit=node_limit)
    return _benders(prob, model, w_vars, pool, time_limit_s, node_limit)


def _benders(prob: PrunerProblem, model: MilpModel, w_vars, pool: _CutPool,
             time_limit_s, node_limit) -> MilpSolution:
    """The L0 support of ``model``'s rows, found by combinatorial Benders.

    ``model`` is :func:`build_pruner_milp`'s L0 model, the phase-1 LP.
    Returns the solution of the phase-1 LP that found the master's support
    feasible, with the support size as objective and the work of every
    master solve and subproblem LP summed, or, with no support, the status
    that ended the loop. Each master starts from ``pool.bound``, which each
    master optimum raises and the optimal support's size ends at. Adds the
    model's row cuts and every cut found to ``pool``; counts rounds, cuts
    and subproblem LPs in ``prob.solved``. An infeasible master support is
    grown by :func:`_grow`, which spends a phase-1 LP only on the steps its
    duals do not settle. Each round logs one DEBUG line: the master's
    support size and nodes, the round's subproblem LPs, the trees added on
    the dual certificate and the cut's size.
    """
    start = time.monotonic()
    M = len(w_vars)
    w_total = float(prob.ensemble.weights0.sum())
    sub = _LpRelaxation(model)
    margin = np.array([con.relation == GREATER_EQUAL
                       for con in model.constraints])
    G = sub.A[margin][:, w_vars].toarray()
    r = sub.lo[margin]
    feasible = PHASE1_TOL * max(1.0, float(np.abs(r).max(initial=0.0)))
    for i in np.flatnonzero(r > 0):
        _add_cut(pool.cuts, _cut(G[i], r[i] / w_total))

    def off(support):
        return {w_vars[m]: 0.0 for m in range(M) if m not in support}

    x = None  # the solution of the last phase-1 LP

    def shortfall_duals(support):
        """None when ``support`` meets every margin row, else the phase-1
        LP's margin-row duals, clipped at 0; keeps the LP's solution in x."""
        nonlocal x
        status, x, shortfall = sub.solve(off(support))
        prob.solved["subproblem_lps"] += 1
        if status != "optimal":
            raise SolverUncertified(f"phase-1 LP ended {status}")
        if shortfall <= feasible:
            return None
        return np.maximum(sub.row_duals()[margin], 0.0)

    solves = []

    def ended(sol):
        return replace(_with_work(sol, *solves, sub),
                       wall_time_s=time.monotonic() - start)

    while True:
        nodes = sum(s.nodes for s in solves)
        left = time_limit_s - (time.monotonic() - start)
        if left <= 0 or (node_limit is not None and nodes >= node_limit):
            return ended(MilpSolution(
                status=TIME_LIMIT if left <= 0 else ITER_LIMIT, values=None,
                objective=None, bound_gap=math.inf, wall_time_s=0.0))
        # The bound holds for the weight solve, not for the pool's master,
        # so the master may end below it. A support it returns at or below
        # the bound is still optimal once it is feasible.
        master = solve(_master(M, pool.cuts), time_limit_s=left,
                       node_limit=None if node_limit is None
                       else node_limit - nodes, lower_bound=pool.bound)
        prob.solved["rounds"] += 1
        if master.status != OPTIMAL:
            return ended(master)
        solves.append(master)
        pool.bound = max(master.objective, pool.bound or 0.0)
        support = {m for m in range(M) if master.value(m) > 0.5}
        head = (prob.solved["rounds"], len(support), master.nodes)
        lps = prob.solved["subproblem_lps"]
        y = shortfall_duals(support)
        if y is None:
            log.debug("weight solve round %d: master support %d in %d nodes, "
                      "1 subproblem LP, feasible", *head)
            break
        support, cut, settled = _grow(support, y, G, r, w_total,
                                      shortfall_duals)
        if support.intersection(cut):
            raise SolverUncertified(
                "weight solve: a Benders cut misses no tree of its support")
        _add_cut(pool.cuts, cut)
        prob.solved["cuts"] += 1
        log.debug("weight solve round %d: master support %d in %d nodes, "
                  "%d subproblem LPs, %d trees added on the dual "
                  "certificate, cut of %d trees", *head,
                  prob.solved["subproblem_lps"] - lps, len(settled), len(cut))

    pool.bound = float(len(support))
    return ended(MilpSolution(status=OPTIMAL, values=x,
                              objective=pool.bound, bound_gap=0.0,
                              wall_time_s=0.0))


def _grow(support: set[int], y: np.ndarray, G: np.ndarray, r: np.ndarray,
          w_total: float, shortfall_duals):
    """Grow the infeasible ``support``, whose phase-1 LP gave the duals
    ``y``, to a maximal infeasible support; returns it, the cut of the last
    infeasible duals, and the trees it added without an LP.

    Trees are tried cheapest first for ``y`` (ties by index). While the
    support lies outside the current cut, a tree m outside the cut too joins
    with no LP: every tree of the support and m gains less than the cut's
    threshold, so the duals prove that they cannot meet the rows. Any other
    tree gets a phase-1 LP (``shortfall_duals``), and an infeasible result's
    duals replace the cut's.
    """
    gains = y @ G
    order = sorted((m for m in range(len(gains)) if m not in support),
                   key=lambda m: gains[m])
    cut = _cut(gains, float(y @ r) / w_total)
    settled = []
    for m in order:
        if m not in cut and support.isdisjoint(cut):
            support.add(m)
            settled.append(m)
            continue
        grown = shortfall_duals(support | {m})
        if grown is not None:
            support.add(m)
            cut = _cut(grown @ G, float(grown @ r) / w_total)
    return support, cut, settled


def _cut(gains: np.ndarray, threshold: float) -> tuple[int, ...]:
    """The trees whose gain reaches ``threshold``, less CUT_TOL."""
    tol = CUT_TOL * max(1.0, abs(threshold))
    return tuple(np.flatnonzero(gains >= threshold - tol).tolist())


def _add_cut(pool, cut: tuple[int, ...]) -> None:
    """Put ``cut`` into ``pool`` unless it is there, with its master row
    ``sum_{m in cut} z_m >= 1`` (z_m is master variable m), made once."""
    if cut not in pool:
        pool[cut] = Constraint(coeffs=tuple((m, 1.0) for m in cut),
                               relation=GREATER_EQUAL, rhs=1.0,
                               name=f"cut{len(pool)}")


def _master(n_trees: int, pool) -> MilpModel:
    """min sum z over the pool's cover rows, in pool order."""
    model = MilpModel()
    for m in range(n_trees):
        model.add_var(name=f"z{m}", kind=BINARY)
    model.constraints.extend(pool.values())
    model.set_objective({m: 1.0 for m in range(n_trees)}, sense="min")
    return model


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
