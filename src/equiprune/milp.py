"""Generic mixed-integer linear programs and an exact branch-and-bound solver.

The solver runs best-first branch-and-bound on the binary variables, bounding
each node with an LP relaxation. The constraints are built once per solve, as
one row-wise CSR matrix with row bounds ``lo <= A x <= hi``; rows that many
models share can be added as a ``RowBlock``, whose arrays are built once and
stacked into each model's matrix. The nodes solve
that LP through scipy's vendored HiGHS binding: one persistent model whose
column bounds change from node to node. Each open node keeps the simplex
basis of its own LP, and each child re-solves from its parent's basis, so a
child is a short dual-simplex run however far best-first search jumps across
the tree. Dual pricing is Devex: under steepest edge, every restored basis
would make HiGHS recompute exact edge weights. Without the binding, or when
HiGHS leaves a node undecided, ``scipy.optimize.linprog`` solves the node from
the same matrix. ``optimal`` and ``infeasible`` statuses are certificates:
the search tree was exhausted. Hitting a time or node limit yields an
uncertified status carrying the incumbent, if any.

Incumbents come from node LPs alone. Each node is tested as soon as its LP
is solved: if every binary lies within 1e-15 of 0 or 1, the LP solution is a
feasible point, which replaces the incumbent when it is better and is never
branched. Every other node is opened only if its bound beats the incumbent.

Branching picks the most fractional binary, ties broken by lowest variable
index, so solves are deterministic for a fixed model. The open node with the
lowest bound is taken next. When the objective is integer-valued at every
integral point (the master of the L0 weight solve), node bounds are rounded
up to integers, so many nodes tie on one bound: among those the newest is
taken first, which dives to an integral point of the best plateau. Other
objectives take the oldest of equal bounds first. A caller may also pass a
proven lower bound on the optimum, which raises every node's bound, so the
search stops at the first incumbent that reaches it.
"""

from __future__ import annotations

import heapq
import logging
import math
import time
from dataclasses import dataclass, field, fields

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

try:  # vendored HiGHS binding: persistent models, warm-started re-solves
    from scipy.optimize._highspy import _core as _highs_core
except Exception:  # pragma: no cover - older scipy
    _highs_core = None

from .errors import MalformedModel, Unbounded

log = logging.getLogger("equiprune")

BINARY = "binary"
CONTINUOUS = "continuous"

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
TIME_LIMIT = "time_limit"
ITER_LIMIT = "iter_limit"

LESS_EQUAL = "<="
GREATER_EQUAL = ">="
EQUAL = "="

# Solver tolerances: constraint re-evaluation of a certificate, and the
# objective gap below which a node cannot improve.
FEAS_TOL = 1e-7
GAP_TOL = 1e-9


@dataclass
class Variable:
    name: str
    kind: str
    lb: float
    ub: float


@dataclass
class Constraint:
    coeffs: tuple[tuple[int, float], ...]
    relation: str
    rhs: float
    # "" names the row by its position in its model: "c<row>"
    name: str = ""


def _csr(constraints) -> tuple[np.ndarray, ...]:
    """Row starts, column indices, coefficients and row bounds ``lo`` /
    ``hi`` of ``constraints``, as the row-wise CSR arrays of ``A`` in
    ``lo <= A x <= hi``; every stored coefficient is kept, zeros too."""
    indptr, indices, data, lo, hi = [0], [], [], [], []
    for con in constraints:
        for j, v in con.coeffs:
            indices.append(j)
            data.append(v)
        indptr.append(len(indices))
        lo.append(-math.inf if con.relation == LESS_EQUAL else con.rhs)
        hi.append(math.inf if con.relation == GREATER_EQUAL else con.rhs)
    return (np.array(indptr, dtype=np.int32), np.array(indices, dtype=np.int32),
            np.array(data, dtype=float), np.array(lo, dtype=float),
            np.array(hi, dtype=float))


@dataclass(frozen=True, eq=False)
class RowBlock:
    """Rows that many models share, with their CSR arrays (see ``_csr``)
    built once. ``MilpModel.add_rows`` appends them to a model, whose LP then
    stacks these arrays instead of reading the rows again, so the rows must
    not change once the block is made."""

    constraints: tuple[Constraint, ...]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    @classmethod
    def of(cls, constraints) -> "RowBlock":
        constraints = tuple(constraints)
        arrays = _csr(constraints)
        for a in arrays:  # shared by every model the block is added to
            a.flags.writeable = False
        return cls(constraints, *arrays)


@dataclass
class MilpModel:
    """Variables, sparse linear constraints, and a linear objective.

    ``blocks`` holds the first row of every ``RowBlock`` added, and the
    block; rows are only ever appended, so each block's rows stay where it
    put them."""

    variables: list[Variable] = field(default_factory=list)
    constraints: list[Constraint] = field(default_factory=list)
    objective: dict[int, float] = field(default_factory=dict)
    sense: str = "min"
    blocks: list[tuple[int, RowBlock]] = field(default_factory=list)

    def add_var(self, name: str | None = None, kind: str = CONTINUOUS,
                lb: float = 0.0, ub: float = math.inf) -> int:
        idx = len(self.variables)
        if name is None:
            name = f"x{idx}"
        if kind == BINARY:
            lb, ub = 0.0, 1.0
        elif kind != CONTINUOUS:
            raise MalformedModel(f"unknown variable kind {kind!r}")
        if not lb <= ub:
            raise MalformedModel(f"variable {name!r} has empty bounds [{lb}, {ub}]")
        self.variables.append(Variable(name=name, kind=kind, lb=float(lb), ub=float(ub)))
        return idx

    def add_constraint(self, coeffs, relation: str, rhs: float, name: str = "") -> None:
        if relation not in (LESS_EQUAL, GREATER_EQUAL, EQUAL):
            raise MalformedModel(f"unknown relation {relation!r}")
        items = sorted(dict(coeffs).items()) if isinstance(coeffs, dict) else list(coeffs)
        merged: dict[int, float] = {}
        for j, c in items:
            if not (0 <= j < len(self.variables)):
                raise MalformedModel(f"constraint references undeclared variable {j}")
            if not math.isfinite(c):
                raise MalformedModel("constraint coefficient must be finite")
            merged[j] = merged.get(j, 0.0) + float(c)
        if not math.isfinite(rhs):
            raise MalformedModel("constraint rhs must be finite")
        self.constraints.append(
            Constraint(coeffs=tuple(sorted(merged.items())), relation=relation,
                       rhs=float(rhs), name=name)
        )

    def add_rows(self, block: RowBlock) -> None:
        """Append the rows of ``block``, which were checked when they were
        first built; they may only use variables this model has."""
        if block.indices.size and int(block.indices.max()) >= len(self.variables):
            raise MalformedModel("row block references undeclared variables")
        self.blocks.append((len(self.constraints), block))
        self.constraints.extend(block.constraints)

    def set_objective(self, coeffs, sense: str = "min") -> None:
        if sense not in ("min", "max"):
            raise MalformedModel(f"unknown sense {sense!r}")
        obj: dict[int, float] = {}
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        for j, c in items:
            if not (0 <= j < len(self.variables)):
                raise MalformedModel(f"objective references undeclared variable {j}")
            obj[j] = obj.get(j, 0.0) + float(c)
        self.objective = obj
        self.sense = sense

    @property
    def binary_indices(self) -> list[int]:
        return [j for j, v in enumerate(self.variables) if v.kind == BINARY]

    def n_binaries(self) -> int:
        return len(self.binary_indices)

    def rows(self) -> tuple[sparse.csr_matrix, np.ndarray, np.ndarray]:
        """Every row as ``lo <= A x <= hi``, with ``A`` in row-wise CSR: the
        blocks' cached arrays stacked with the arrays of the other rows."""
        parts, pos = [], 0
        for start, block in self.blocks:
            if start > pos:
                parts.append(_csr(self.constraints[pos:start]))
            parts.append((block.indptr, block.indices, block.data, block.lo,
                          block.hi))
            pos = start + len(block.constraints)
        if pos < len(self.constraints) or not parts:
            parts.append(_csr(self.constraints[pos:]))
        if len(parts) == 1:
            indptr, indices, data, lo, hi = parts[0]
        else:
            starts = np.cumsum([0] + [p[0][-1] for p in parts[:-1]])
            indptr = np.concatenate(
                [[0]] + [p[0][1:] + s for p, s in zip(parts, starts)]
            ).astype(np.int32)
            indices, data, lo, hi = (np.concatenate([p[k] for p in parts])
                                     for k in range(1, 5))
        A = sparse.csr_matrix((data, indices, indptr),
                              shape=(len(lo), len(self.variables)))
        return A, lo, hi


@dataclass
class MilpSolution:
    status: str
    values: np.ndarray | None
    objective: float | None
    bound_gap: float
    wall_time_s: float
    nodes: int = 0
    # simplex iterations over all node LPs, HiGHS cold restarts, and nodes
    # solved by ``linprog`` (no binding, or HiGHS left them undecided)
    lp_iterations: int = 0
    cold_restarts: int = 0
    linprog_calls: int = 0
    # times a better incumbent was found
    incumbents: int = 0
    # seconds spent building the LP relaxation and its HiGHS model, and
    # seconds inside node LP solves (HiGHS ``run``, or ``linprog``)
    build_s: float = 0.0
    lp_s: float = 0.0

    @property
    def is_certified(self) -> bool:
        return self.status in (OPTIMAL, INFEASIBLE)

    def value(self, idx: int) -> float:
        return float(self.values[idx])

    def to_json(self) -> dict:
        """Every field, in declaration order; ``values`` as a list."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.values is not None:
            out["values"] = [float(v) for v in self.values]
        return out


class _LpRelaxation:
    """LP data shared across branch-and-bound nodes; only bounds change.

    The constraints are held once, as a row-wise CSR matrix ``A`` with row
    bounds ``lo <= A x <= hi``. The counters, and ``lp_s``, add up over
    every node solved; ``build_s`` is the time this object took to build.
    """

    def __init__(self, model: MilpModel):
        start = time.monotonic()
        n = len(model.variables)
        self.n = n
        c = np.zeros(n)
        for j, v in model.objective.items():
            c[j] = v
        self.flip = -1.0 if model.sense == "max" else 1.0
        self.c = self.flip * c
        self.A, self.lo, self.hi = model.rows()
        self.col_lb = np.array([v.lb for v in model.variables], dtype=float)
        self.col_ub = np.array([v.ub for v in model.variables], dtype=float)
        self._linprog_rows = None
        self._linprog_duals = None
        self.lp_iterations = self.cold_restarts = self.linprog_calls = 0
        self.lp_s = 0.0
        self._highs = None
        if _highs_core is not None and n > 0:
            self._highs = self._build_highs()
        self.build_s = time.monotonic() - start

    def _run(self):
        """One HiGHS ``run``, its seconds added to ``lp_s``."""
        start = time.monotonic()
        self._highs.run()
        self.lp_s += time.monotonic() - start

    def _build_highs(self):
        """One persistent HiGHS LP; nodes only change column bounds and
        re-solve from a restored or the previous basis."""
        inf = _highs_core.kHighsInf

        def clip(bounds):  # infinite bounds become HiGHS's own infinity
            return np.clip(bounds, -inf, inf)

        lp = _highs_core.HighsLp()
        lp.num_col_ = self.n
        lp.num_row_ = self.A.shape[0]
        lp.col_cost_ = self.c.copy()
        self._highs_lb, self._highs_ub = clip(self.col_lb), clip(self.col_ub)
        lp.col_lower_ = self._highs_lb
        lp.col_upper_ = self._highs_ub
        lp.row_lower_ = clip(self.lo)
        lp.row_upper_ = clip(self.hi)
        lp.a_matrix_.format_ = _highs_core.MatrixFormat.kRowwise
        lp.a_matrix_.start_ = self.A.indptr
        lp.a_matrix_.index_ = self.A.indices
        lp.a_matrix_.value_ = self.A.data
        h = _highs_core._Highs()
        h.setOptionValue("output_flag", False)
        h.setOptionValue("threads", 1)
        # tight LP tolerances keep MILP certificates meaningful
        h.setOptionValue("primal_feasibility_tolerance", 1e-9)
        h.setOptionValue("dual_feasibility_tolerance", 1e-9)
        # Devex: a restored basis then starts from unit edge weights instead
        # of recomputing steepest-edge ones
        h.setOptionValue("simplex_dual_edge_weight_strategy", 1)
        if h.passModel(lp) != _highs_core.HighsStatus.kOk:
            return None
        self._col_index = np.arange(self.n, dtype=np.int32)
        return h

    def solve(self, fixes: dict[int, float], basis=None):
        """Returns (status, x, objective_internal) with the min-sense value.

        ``basis`` (from :meth:`basis`) is restored before the solve; without
        it HiGHS starts from the basis of the last LP it solved.
        """
        if self.n == 0:
            # only constant constraints can exist; evaluate them directly
            if np.any(self.hi < -1e-9) or np.any(self.lo > 1e-9):
                return "infeasible", None, math.inf
            return "optimal", np.zeros(0), 0.0
        self._linprog_duals = None
        if self._highs is None:
            log.debug("linprog decides a node: %s",
                      "no HiGHS binding" if _highs_core is None
                      else "HiGHS rejected the model")
            return self._solve_linprog(fixes)
        core = _highs_core
        lb = self._highs_lb.copy()
        ub = self._highs_ub.copy()
        for j, val in fixes.items():
            lb[j] = ub[j] = val
        h = self._highs
        h.changeColsBounds(self.n, self._col_index, lb, ub)
        if basis is not None:
            h.setBasis(basis)
        self._run()
        status = h.getModelStatus()
        if status not in (core.HighsModelStatus.kOptimal,
                          core.HighsModelStatus.kInfeasible,
                          core.HighsModelStatus.kUnbounded):
            # warm start stalled or the outcome is ambiguous: restart cold
            log.debug("HiGHS model status %s: restarting the node LP cold",
                      status.name)
            self.lp_iterations += h.getInfo().simplex_iteration_count
            self.cold_restarts += 1
            h.clearSolver()
            self._run()
            status = h.getModelStatus()
        if status == core.HighsModelStatus.kOptimal:
            info = h.getInfo()
            self.lp_iterations += info.simplex_iteration_count
            x = np.array(h.getSolution().col_value)
            return "optimal", x, float(info.objective_function_value)
        self.lp_iterations += h.getInfo().simplex_iteration_count
        if status == core.HighsModelStatus.kInfeasible:
            return "infeasible", None, math.inf
        if status == core.HighsModelStatus.kUnbounded:
            return "unbounded", None, -math.inf
        # last resort: the independent scipy path decides this node
        log.debug("linprog decides a node: HiGHS model status %s after a "
                  "cold restart", status.name)
        return self._solve_linprog(fixes)

    def basis(self):
        """The HiGHS basis of the LP solved last, to restore for its
        children; None without the binding or a valid basis."""
        if self._highs is None:
            return None
        basis = self._highs.getBasis()
        return basis if basis.valid else None

    def row_duals(self) -> np.ndarray:
        """Per model row, the dual of the last LP solved, which must have
        been optimal: the derivative of its min-sense optimum with respect to
        the row's bound, so a binding ">=" row has a dual >= 0."""
        if self._linprog_duals is not None:
            return self._linprog_duals
        return np.array(self._highs.getSolution().row_dual)

    def _solve_linprog(self, fixes: dict[int, float]):
        """Solve the node with ``scipy.optimize.linprog``: the path without
        the HiGHS binding, and the last resort when HiGHS is ambiguous."""
        ineq = self.lo != self.hi
        sign = np.where(np.isfinite(self.hi), 1.0, -1.0)[ineq]
        if self._linprog_rows is None:
            # linprog wants A_ub x <= b_ub: ">=" rows are negated, and the
            # inequality rows keep the model's order
            self._linprog_rows = dict(
                A_ub=sparse.diags(sign) @ self.A[ineq],
                b_ub=np.where(sign > 0, self.hi[ineq], -self.lo[ineq]),
                A_eq=self.A[~ineq], b_eq=self.hi[~ineq])
        bounds = np.column_stack((self.col_lb, self.col_ub))
        for j, val in fixes.items():
            bounds[j] = val
        start = time.monotonic()
        res = linprog(self.c, **self._linprog_rows, bounds=bounds,
                      method="highs")
        self.lp_s += time.monotonic() - start
        self.linprog_calls += 1
        self.lp_iterations += res.nit
        if res.status == 0:
            # marginals are derivatives with respect to b_ub and b_eq
            self._linprog_duals = np.empty(len(self.lo))
            self._linprog_duals[ineq] = sign * res.ineqlin.marginals
            self._linprog_duals[~ineq] = res.eqlin.marginals
            return "optimal", res.x, float(res.fun)
        if res.status == 2:
            return "infeasible", None, math.inf
        if res.status == 3:
            return "unbounded", None, -math.inf
        raise MalformedModel(f"LP relaxation failed: {res.message}")


def _round_binaries(x, binaries):
    """x[binaries] rounded half to even; adding 0.0 turns -0.0 into 0.0."""
    return np.round(x[binaries]) + 0.0


def _most_fractional(x, binaries):
    """Most fractional binary index, ties by lowest index; None if integral.

    A binary is integral when it lies within 1e-15 of 0 or 1. A binary beats
    the current best only by more than 1e-15, so fractions that close go to
    the lowest index.
    """
    frac = np.abs(x[binaries] - np.round(x[binaries]))
    candidates = np.flatnonzero(frac > 1e-15)
    best_k, best_frac = None, 0.0
    for k, f in zip(candidates.tolist(), frac[candidates].tolist()):
        if f > best_frac + 1e-15:
            best_k, best_frac = k, f
    return None if best_k is None else int(binaries[best_k])


def _objective_is_integral(model: MilpModel) -> bool:
    """Whether the objective is integer-valued at every integral point: every
    nonzero coefficient is an integer on a binary."""
    return all(c == 0.0 or (c.is_integer() and model.variables[j].kind == BINARY)
               for j, c in model.objective.items())


def solve(model: MilpModel, time_limit_s: float = 120.0,
          node_limit: int | None = None,
          lower_bound: float | None = None) -> MilpSolution:
    """Solve to certified optimality or infeasibility (limits permitting).

    A node LP whose binaries are all integral is a feasible point: it becomes
    the incumbent if it is better, and is never branched. It is the only
    source of incumbents, so a model without binaries is solved by its root
    LP. When the objective is integer-valued at every integral point (integer
    coefficients on binaries only, as in a cardinality objective), node
    bounds are rounded up to the next integer, a large win for such
    objectives, and equal bounds are searched newest node first.
    ``lower_bound`` must be a proven lower bound on the optimum of a
    minimization (an upper bound when maximizing). It raises every node's
    bound, so the search ends at the first incumbent that reaches it;
    ``optimal`` then still means that no open node can improve on the
    incumbent.
    """
    start = time.monotonic()
    lp = _LpRelaxation(model)
    binaries = np.array(model.binary_indices, dtype=np.intp)
    integral = _objective_is_integral(model)
    # the caller's bound in the solver's min-sense objective
    floor = -math.inf if lower_bound is None else lp.flip * lower_bound
    # equal bounds pop newest-first (a dive) for integral objectives only
    order = -1 if integral else 1
    nodes = counter = incumbents = 0
    incumbent = None
    incumbent_val = math.inf
    # open nodes: (bound, tie-break order, fixes, branching binary, LP basis)
    heap = []

    def tightened(bound):
        if integral and math.isfinite(bound):
            bound = math.ceil(bound - 1e-9)
        return max(bound, floor)

    def result(status, values=None, objective=None, bound_gap=0.0):
        return MilpSolution(
            status=status, values=values, objective=objective,
            bound_gap=bound_gap, wall_time_s=time.monotonic() - start,
            nodes=nodes, lp_iterations=lp.lp_iterations,
            cold_restarts=lp.cold_restarts, linprog_calls=lp.linprog_calls,
            incumbents=incumbents, build_s=lp.build_s, lp_s=lp.lp_s)

    def visit(fixes, basis=None):
        """Solve one node's LP: an integral solution may become the
        incumbent, a fractional one is opened if its bound can improve."""
        nonlocal nodes, counter, incumbents, incumbent, incumbent_val
        status, x, val = lp.solve(fixes, basis)
        nodes += 1
        if status == "unbounded":
            raise Unbounded("objective unbounded in the LP relaxation")
        if status != "optimal":
            return
        branch_j = _most_fractional(x, binaries)
        if branch_j is None:
            if val < incumbent_val - GAP_TOL:
                incumbent, incumbent_val = x, val
                incumbents += 1
            return
        bound = tightened(val)
        if bound < incumbent_val - GAP_TOL:
            counter += 1
            heapq.heappush(heap, (bound, order * counter, fixes, branch_j,
                                  lp.basis()))

    visit({})
    exit_status = None
    while heap:
        bound, _, fixes, branch_j, basis = heapq.heappop(heap)
        if bound >= incumbent_val - GAP_TOL:
            break  # best-first: nothing left can improve the incumbent
        if time.monotonic() - start > time_limit_s:
            exit_status = TIME_LIMIT
            break
        if node_limit is not None and nodes >= node_limit:
            exit_status = ITER_LIMIT
            break
        for branch_val in (0.0, 1.0):
            visit({**fixes, branch_j: branch_val}, basis)

    if incumbent is None:
        # An exhausted search without incumbent certifies infeasibility.
        if exit_status is None:
            return result(INFEASIBLE)
        return result(exit_status, bound_gap=math.inf)
    values = np.array(incumbent)
    values[binaries] = _round_binaries(values, binaries)
    obj = lp.flip * incumbent_val
    if exit_status is None:
        # Search tree exhausted: certified outcome.
        if not check_feasible(model, values, rows=(lp.A, lp.lo, lp.hi)):
            raise MalformedModel(
                "optimal certificate failed re-evaluation at FEAS_TOL")
        return result(OPTIMAL, values, obj)
    # A limit exit leaves the popped node open, and as the heap minimum its
    # bound is the best bound of everything not yet searched.
    return result(exit_status, values, obj, abs(incumbent_val - bound))


def check_feasible(model: MilpModel, values, feas_tol: float = FEAS_TOL,
                   rows=None) -> bool:
    """Re-evaluate every constraint and bound at the given point: a bound
    or a ``<=`` / ``>=`` row may be missed by up to ``feas_tol``, and an
    ``=`` row's left side may differ from its rhs by up to ``feas_tol``.
    A point with a non-finite value is never feasible. ``rows`` is
    ``model.rows()``, for a caller that has it already."""
    x = np.asarray(values, dtype=float)
    if not np.isfinite(x).all():  # NaN would pass every comparison below
        return False
    lb = np.array([v.lb for v in model.variables], dtype=float)
    ub = np.array([v.ub for v in model.variables], dtype=float)
    if np.any(x < lb - feas_tol) or np.any(x > ub + feas_tol):
        return False
    A, lo, hi = model.rows() if rows is None else rows
    lhs = A @ x
    eq = lo == hi
    ineq = ~eq
    return not (np.any(lhs[ineq] > hi[ineq] + feas_tol)
                or np.any(lhs[ineq] < lo[ineq] - feas_tol)
                or np.any(np.abs(lhs[eq] - hi[eq]) > feas_tol))


# --- LP-format export --------------------------------------------


def _fmt(value: float) -> str:
    return repr(float(value))


def _terms(coeffs, variables) -> str:
    parts = []
    for j, c in coeffs:
        name = variables[j].name
        if not parts:
            parts.append(f"{_fmt(c)} {name}")
        elif c < 0:
            parts.append(f"- {_fmt(-c)} {name}")
        else:
            parts.append(f"+ {_fmt(c)} {name}")
    return " ".join(parts) if parts else "0"


def export_lp(model: MilpModel) -> str:
    """Serialize to LP file format with deterministic variable ordering."""
    lines = ["\\ equiprune MILP export"]
    lines.append("Maximize" if model.sense == "max" else "Minimize")
    obj_terms = _terms(tuple(sorted(model.objective.items())), model.variables)
    lines.append(f" obj: {obj_terms}")
    lines.append("Subject To")
    for i, con in enumerate(model.constraints):
        rel = con.relation if con.relation != EQUAL else "="
        name = con.name or f"c{i}"
        lines.append(f" {name}: {_terms(con.coeffs, model.variables)} {rel} {_fmt(con.rhs)}")
    lines.append("Bounds")
    for v in model.variables:
        if v.kind == BINARY:
            continue
        if v.lb == -math.inf and v.ub == math.inf:
            lines.append(f" {v.name} free")
        elif v.lb == -math.inf:
            lines.append(f" {v.name} <= {_fmt(v.ub)}")
        elif v.ub == math.inf:
            lines.append(f" {v.name} >= {_fmt(v.lb)}")
        else:
            lines.append(f" {_fmt(v.lb)} <= {v.name} <= {_fmt(v.ub)}")
    binaries = [v.name for v in model.variables if v.kind == BINARY]
    if binaries:
        lines.append("Binaries")
        for name in binaries:
            lines.append(f" {name}")
    lines.append("End")
    return "\n".join(lines) + "\n"

