import itertools
import logging
import math

import numpy as np
import pytest

from equiprune import milp
from equiprune.errors import MalformedModel, Unbounded
from conftest import check_feasible_rows
from equiprune.milp import (
    BINARY,
    CONTINUOUS,
    EQUAL,
    FEAS_TOL,
    GREATER_EQUAL,
    INFEASIBLE,
    ITER_LIMIT,
    LESS_EQUAL,
    OPTIMAL,
    MilpModel,
    RowBlock,
    _csr,
    _LpRelaxation,
    check_feasible,
    export_lp,
    _most_fractional,
    solve,
)


def test_unconstrained_binary_max():
    m = MilpModel()
    x = m.add_var(kind=BINARY)
    m.set_objective({x: 1.0}, sense="max")
    sol = solve(m)
    assert sol.status == OPTIMAL
    assert sol.value(x) == 1.0
    assert sol.objective == pytest.approx(1.0)


def test_contradictory_continuous_infeasible():
    m = MilpModel()
    x = m.add_var(kind=CONTINUOUS, lb=-10, ub=10)
    m.add_constraint({x: 1.0}, GREATER_EQUAL, 1.0)
    m.add_constraint({x: 1.0}, LESS_EQUAL, 0.0)
    m.set_objective({}, sense="min")
    sol = solve(m)
    assert sol.status == INFEASIBLE


def test_models_without_columns_are_decided_by_their_constants():
    # no variable: the LP relaxation evaluates the constant rows itself
    sol = solve(MilpModel())
    assert sol.status == OPTIMAL and sol.objective == 0.0
    m = MilpModel()
    m.add_constraint({}, GREATER_EQUAL, 1.0)  # 0 >= 1
    assert solve(m).status == INFEASIBLE


def test_unbounded_raises():
    m = MilpModel()
    x = m.add_var(kind=CONTINUOUS, lb=0.0, ub=math.inf)
    m.set_objective({x: 1.0}, sense="max")
    with pytest.raises(Unbounded):
        solve(m)


def test_malformed_model_rejected():
    m = MilpModel()
    m.add_var(kind=BINARY)
    with pytest.raises(MalformedModel):
        m.add_constraint({5: 1.0}, LESS_EQUAL, 1.0)
    with pytest.raises(MalformedModel):
        m.add_constraint({0: math.inf}, LESS_EQUAL, 1.0)
    with pytest.raises(MalformedModel):
        m.set_objective({0: 1.0}, sense="sideways")


def random_binary_model(rng, n_bin, n_cons):
    m = MilpModel()
    for _ in range(n_bin):
        m.add_var(kind=BINARY)
    for _ in range(n_cons):
        coeffs = {j: float(rng.integers(-4, 5)) for j in range(n_bin)}
        rel = (LESS_EQUAL, GREATER_EQUAL, EQUAL)[rng.integers(3)]
        rhs = float(rng.integers(-3, n_bin * 2))
        m.add_constraint(coeffs, rel, rhs)
    obj = {j: float(rng.integers(-5, 6)) for j in range(n_bin)}
    sense = "min" if rng.integers(2) == 0 else "max"
    m.set_objective(obj, sense=sense)
    return m


def brute_force_binary(m: MilpModel):
    """Independent oracle: enumerate all binary assignments with numpy."""
    n = len(m.variables)
    best = None
    for bits in itertools.product((0.0, 1.0), repeat=n):
        ok = True
        for con in m.constraints:
            lhs = sum(c * bits[j] for j, c in con.coeffs)
            if con.relation == LESS_EQUAL and lhs > con.rhs + 1e-9:
                ok = False
            elif con.relation == GREATER_EQUAL and lhs < con.rhs - 1e-9:
                ok = False
            elif con.relation == EQUAL and abs(lhs - con.rhs) > 1e-9:
                ok = False
            if not ok:
                break
        if not ok:
            continue
        val = sum(c * bits[j] for j, c in m.objective.items())
        if best is None:
            best = val
        elif m.sense == "min":
            best = min(best, val)
        else:
            best = max(best, val)
    return best


def test_enumeration_equivalence_random_models(lp_path):
    rng = np.random.default_rng(20240601)
    for trial in range(40):
        n_bin = int(rng.integers(1, 11))
        n_cons = int(rng.integers(0, 4))
        m = random_binary_model(rng, n_bin, n_cons)
        expected = brute_force_binary(m)
        sol = solve(m)
        if expected is None:
            assert sol.status == INFEASIBLE, f"trial {trial}"
        else:
            assert sol.status == OPTIMAL, f"trial {trial}"
            assert sol.objective == pytest.approx(expected, abs=1e-9), f"trial {trial}"
            assert check_feasible(m, sol.values)


def brute_force_mixed(m: MilpModel):
    """Enumerate binary assignments, solving the continuous part per
    assignment with scipy's LP."""
    from scipy.optimize import linprog

    binaries = m.binary_indices
    n = len(m.variables)
    best = None
    c = np.zeros(n)
    for j, v in m.objective.items():
        c[j] = v
    flip = -1.0 if m.sense == "max" else 1.0
    for bits in itertools.product((0.0, 1.0), repeat=len(binaries)):
        bounds = [(v.lb, v.ub) for v in m.variables]
        for j, b in zip(binaries, bits):
            bounds[j] = (b, b)
        A_ub, b_ub, A_eq, b_eq = [], [], [], []
        for con in m.constraints:
            row = np.zeros(n)
            for j, v in con.coeffs:
                row[j] = v
            if con.relation == LESS_EQUAL:
                A_ub.append(row)
                b_ub.append(con.rhs)
            elif con.relation == GREATER_EQUAL:
                A_ub.append(-row)
                b_ub.append(-con.rhs)
            else:
                A_eq.append(row)
                b_eq.append(con.rhs)
        res = linprog(flip * c,
                      A_ub=np.array(A_ub) if A_ub else None,
                      b_ub=np.array(b_ub) if b_ub else None,
                      A_eq=np.array(A_eq) if A_eq else None,
                      b_eq=np.array(b_eq) if b_eq else None,
                      bounds=bounds, method="highs")
        if res.status == 0:
            val = flip * res.fun
            if best is None:
                best = val
            elif m.sense == "min":
                best = min(best, val)
            else:
                best = max(best, val)
    return best


def random_mixed_models():
    """15 small seeded models with binaries, bounded continuous variables
    and ``<=`` rows."""
    rng = np.random.default_rng(7)
    for _ in range(15):
        m = MilpModel()
        n_bin = int(rng.integers(1, 6))
        n_cont = int(rng.integers(1, 4))
        for _ in range(n_bin):
            m.add_var(kind=BINARY)
        for _ in range(n_cont):
            m.add_var(kind=CONTINUOUS, lb=0.0, ub=float(rng.integers(1, 6)))
        n = n_bin + n_cont
        for _ in range(int(rng.integers(1, 4))):
            coeffs = {j: float(rng.integers(-3, 4)) for j in range(n)}
            m.add_constraint(coeffs, LESS_EQUAL, float(rng.integers(0, 8)))
        m.set_objective({j: float(rng.integers(-3, 4)) for j in range(n)},
                        sense="max")
        yield m


def test_mixed_models_match_enumeration(lp_path):
    for m in random_mixed_models():
        expected = brute_force_mixed(m)
        sol = solve(m)
        if expected is None:
            assert sol.status == INFEASIBLE
        else:
            assert sol.status == OPTIMAL
            assert sol.objective == pytest.approx(expected, abs=1e-7)


@pytest.mark.skipif(milp._highs_core is None,
                    reason="scipy's HiGHS binding is not available")
def test_warm_started_nodes_match_cold_linprog(monkeypatch):
    # Every node LP, re-solved from its parent's basis (children) or from
    # scratch (the root), must give what a cold linprog solve of the same
    # fixes gives.
    warm_solve = _LpRelaxation.solve
    restored = []

    def checked(self, fixes, basis=None):
        got = warm_solve(self, fixes, basis)
        want = self._solve_linprog(fixes)
        assert got[0] == want[0], fixes
        if got[0] == "optimal":
            assert got[2] == pytest.approx(want[2], abs=1e-9), fixes
        restored.append(basis is not None)
        return got

    monkeypatch.setattr(_LpRelaxation, "solve", checked)
    for m in random_mixed_models():
        solve(m)
    assert any(restored)  # children really started from a parent's basis


def fractional_root_model() -> MilpModel:
    m = MilpModel()
    xs = [m.add_var(kind=BINARY) for _ in range(6)]
    m.add_constraint({x: float(i + 1) for i, x in enumerate(xs)}, LESS_EQUAL, 7.5)
    m.set_objective({x: float(7 - i) for i, x in enumerate(xs)}, sense="max")
    return m


def test_solver_counters(lp_path):
    for m in random_mixed_models():
        sol = solve(m)
        if milp._highs_core is None:
            # every node LP (root or child) is one linprog call
            assert sol.linprog_calls == sol.nodes
        else:
            assert sol.linprog_calls == 0
        assert sol.cold_restarts == 0
        dump = sol.to_json()
        assert (dump["lp_iterations"], dump["cold_restarts"],
                dump["linprog_calls"], dump["incumbents"]) == (
                    sol.lp_iterations, sol.cold_restarts, sol.linprog_calls,
                    sol.incumbents)
        # an optimum is the last of the incumbents, each one a node LP
        if sol.status == OPTIMAL:
            assert 1 <= sol.incumbents <= sol.nodes
        else:
            assert sol.incumbents == 0
    # a fractional root needs simplex pivots on either path
    assert solve(fractional_root_model()).lp_iterations > 0


@pytest.mark.skipif(milp._highs_core is None,
                    reason="scipy's HiGHS binding is not available")
def test_undecided_highs_nodes_restart_cold_then_use_linprog(monkeypatch):
    # With no simplex iterations allowed, HiGHS leaves every node that needs
    # a pivot undecided: the node restarts cold, stalls again and is solved
    # by linprog, and the counters say so.
    build = _LpRelaxation._build_highs

    def stalled(self):
        h = build(self)
        h.setOptionValue("simplex_iteration_limit", 0)
        return h

    monkeypatch.setattr(_LpRelaxation, "_build_highs", stalled)
    m = fractional_root_model()
    sol = solve(m)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(brute_force_binary(m))
    assert sol.cold_restarts >= sol.linprog_calls > 0


def linprog_events(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records
            if r.getMessage().startswith("linprog decides a node")]


def test_linprog_nodes_are_logged_without_the_binding(monkeypatch, caplog):
    monkeypatch.setattr(milp, "_highs_core", None)
    caplog.set_level(logging.DEBUG, logger="equiprune")
    sol = solve(fractional_root_model())
    assert sol.linprog_calls == sol.nodes > 1
    assert linprog_events(caplog) == (
        ["linprog decides a node: no HiGHS binding"] * sol.nodes)


class _AmbiguousHighs:
    """A HiGHS model whose every solve reports a time limit."""

    def __init__(self, h):
        self._h = h

    def __getattr__(self, name):
        return getattr(self._h, name)

    def getModelStatus(self):
        return milp._highs_core.HighsModelStatus.kTimeLimit


@pytest.mark.skipif(milp._highs_core is None,
                    reason="scipy's HiGHS binding is not available")
def test_cold_restarts_and_linprog_nodes_are_logged(monkeypatch, caplog):
    # every node restarts cold once, then linprog decides it; each event is
    # one DEBUG record naming the HiGHS status
    build = _LpRelaxation._build_highs
    monkeypatch.setattr(_LpRelaxation, "_build_highs",
                        lambda self: _AmbiguousHighs(build(self)))
    caplog.set_level(logging.DEBUG, logger="equiprune")
    m = fractional_root_model()
    sol = solve(m)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(brute_force_binary(m))
    assert sol.cold_restarts == sol.linprog_calls == sol.nodes > 1
    restarts = [r for r in caplog.records if "restarting" in r.getMessage()]
    assert [r.getMessage() for r in restarts] == [
        "HiGHS model status kTimeLimit: restarting the node LP cold"
    ] * sol.nodes
    assert all(r.levelno == logging.DEBUG for r in caplog.records)
    assert linprog_events(caplog) == [
        "linprog decides a node: HiGHS model status kTimeLimit after a cold "
        "restart"] * sol.nodes


def test_monotone_relaxation():
    # removing a constraint never worsens the optimum
    rng = np.random.default_rng(99)
    for _ in range(10):
        m = random_binary_model(rng, 6, 3)
        m.sense = "min"
        sol_full = solve(m)
        if sol_full.status != OPTIMAL:
            continue
        relaxed = MilpModel()
        for v in m.variables:
            relaxed.add_var(name=v.name, kind=v.kind, lb=v.lb, ub=v.ub)
        for con in m.constraints[:-1]:
            relaxed.add_constraint(list(con.coeffs), con.relation, con.rhs)
        relaxed.set_objective(dict(m.objective), sense=m.sense)
        sol_rel = solve(relaxed)
        assert sol_rel.status == OPTIMAL
        assert sol_rel.objective <= sol_full.objective + 1e-9


def test_certificate_soundness():
    rng = np.random.default_rng(1234)
    for _ in range(20):
        m = random_binary_model(rng, 8, 3)
        sol = solve(m)
        if sol.status == OPTIMAL:
            assert check_feasible(m, sol.values, feas_tol=1e-7)


def test_time_limit_returns_uncertified():
    # fractional knapsack root: feasible but not integral, so the zero
    # budget elapses before any certificate can form
    m = MilpModel()
    xs = [m.add_var(kind=BINARY) for _ in range(10)]
    m.add_constraint({x: 2.0 for x in xs}, LESS_EQUAL, 9.0)
    m.set_objective({x: 1.0 for x in xs}, sense="max")
    sol = solve(m, time_limit_s=0.0)
    assert sol.status == "time_limit"
    assert not sol.is_certified


def test_node_limit_returns_uncertified():
    rng = np.random.default_rng(5)
    m = random_binary_model(rng, 10, 2)
    sol = solve(m, node_limit=1)
    assert sol.status in (ITER_LIMIT, OPTIMAL, INFEASIBLE)
    if sol.status == ITER_LIMIT:
        assert not sol.is_certified


def test_bound_gap_covers_the_true_gap_on_limit_exits():
    # A limit exit pops the best-bound node before stopping; the reported
    # gap must still bound the distance from the incumbent to the optimum,
    # and is infinite while there is no incumbent yet.
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(12):
        n = int(rng.integers(6, 11))
        m = MilpModel()
        xs = [m.add_var(kind=BINARY) for _ in range(n)]
        weights = rng.integers(1, 20, size=n)
        m.add_constraint({x: float(wt) for x, wt in zip(xs, weights)},
                         LESS_EQUAL, float(weights.sum() // 2))
        m.set_objective({x: float(v) for x, v in zip(xs, rng.integers(1, 30, size=n))},
                        sense="max")
        optimum = brute_force_binary(m)
        for node_limit in range(2, 40):
            sol = solve(m, node_limit=node_limit)
            if sol.status != ITER_LIMIT:
                break
            if sol.objective is None:
                assert sol.bound_gap == math.inf
                continue
            assert sol.bound_gap >= abs(sol.objective - optimum) - 1e-9, \
                f"node_limit={node_limit}: gap {sol.bound_gap} < true gap"
            checked += 1
    assert checked > 0


def test_most_fractional_tie_rule():
    bins = np.array([0, 1, 2, 3])
    # fractions within 1e-15 of each other go to the lowest index
    x = np.array([0.0, 0.3, 0.3 + 5e-16, 0.7])
    assert _most_fractional(x, bins) == 1
    # a fraction more than 1e-15 higher wins
    x = np.array([0.0, 0.3, 0.3 + 1e-12, 0.7])
    assert _most_fractional(x, bins) == 2
    # only the listed binaries count, and indices map back to variables
    x = np.array([0.5, 0.0, 0.2, 1.0])
    assert _most_fractional(x, np.array([2, 3])) == 2
    # within 1e-15 of 0 or 1 is integral; 1e-7 away is fractional
    assert _most_fractional(np.array([0.0, 1.0, 1.0 - 1e-15, 1e-15]),
                            bins) is None
    assert _most_fractional(np.array([0.0, 1.0, 1.0 - 1e-15, 1e-7]),
                            bins) == 3
    assert _most_fractional(np.array([0.0, 1.0 - 1e-7, 1.0, 1e-15]),
                            bins) == 1
    # the L1 weight solve has no binaries at all
    no_binaries = np.array([], dtype=np.intp)
    assert _most_fractional(np.array([0.5, 0.25]), no_binaries) is None


def test_row_duals_are_derivatives_of_the_optimum(lp_path):
    # min 2x + 3y + z with a binding ">=", "<=" and "=" row: at the optimum
    # (1.75, 1.25, 1) moving each rhs by d moves the objective by
    # 2.5 d, -1.5 d and -0.5 d
    m = MilpModel()
    x, y, z = (m.add_var(name=n) for n in "xyz")
    m.add_constraint({x: 1.0, y: 1.0, z: 1.0}, GREATER_EQUAL, 4.0)
    m.add_constraint({z: 1.0}, LESS_EQUAL, 1.0)
    m.add_constraint({x: 1.0, y: -1.0}, EQUAL, 0.5)
    m.set_objective({x: 2.0, y: 3.0, z: 1.0})
    lp = _LpRelaxation(m)
    status, values, objective = lp.solve({})
    assert status == "optimal"
    assert values.tolist() == pytest.approx([1.75, 1.25, 1.0])
    assert objective == pytest.approx(8.25)
    assert lp.row_duals().tolist() == pytest.approx([2.5, -1.5, -0.5])


def test_model_without_binaries_is_one_lp(lp_path):
    # A pure LP has no binary to branch on: its root LP solution is the
    # incumbent and nothing is left to search.
    m = MilpModel()
    x = m.add_var(kind=CONTINUOUS, lb=0.0, ub=4.0)
    y = m.add_var(kind=CONTINUOUS, lb=0.0, ub=4.0)
    m.add_constraint({x: 1.0, y: 2.0}, GREATER_EQUAL, 3.0)
    m.add_constraint({x: 1.0, y: -1.0}, LESS_EQUAL, 1.0)
    m.set_objective({x: 1.0, y: 1.0}, sense="min")
    sol = solve(m)
    assert (sol.status, sol.nodes, sol.incumbents) == (OPTIMAL, 1, 1)
    assert sol.objective == pytest.approx(1.5)
    assert check_feasible(m, sol.values)


def test_node_bounds_round_only_for_integer_objectives():
    # In both fractional cases the first incumbent is an integral child LP
    # worth 1 (or 0), while its sibling's bound is 1.75 (or 0.5) over an
    # optimum of 1.5 (or 0.5). Rounding that bound down to the incumbent's
    # value would prune the sibling, so each case must still return the
    # optimum.
    m = MilpModel()
    xs = [m.add_var(kind=BINARY) for _ in range(3)]
    m.add_constraint({xs[0]: 2.0, xs[1]: -1.0, xs[2]: 1.0}, LESS_EQUAL, 1.5)
    m.set_objective({xs[0]: 1.0, xs[1]: 0.5, xs[2]: 0.5}, sense="max")
    sol = solve(m)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(1.5)
    assert sol.incumbents == 2

    # an integer coefficient on a continuous variable is no integral objective
    m = MilpModel()
    xs = [m.add_var(kind=BINARY) for _ in range(2)]
    y = m.add_var(kind=CONTINUOUS, lb=0.0, ub=1.0)
    m.add_constraint({y: 1.0, xs[0]: -1.0, xs[1]: -2.0}, LESS_EQUAL, 0.5)
    m.set_objective({y: 1.0, xs[0]: -1.0, xs[1]: -1.0}, sense="max")
    sol = solve(m)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(0.5)
    assert sol.incumbents == 2

    # Integer coefficients on binaries: the root bound 1.5 rounds down to 1,
    # so the first integral child, worth 1, proves itself optimal and its
    # fractional sibling (bound 1.5) is never opened.
    m = MilpModel()
    x = m.add_var(kind=BINARY)
    y = m.add_var(kind=BINARY)
    m.add_constraint({x: 2.0, y: 2.0}, LESS_EQUAL, 3.0)
    m.set_objective({x: 1.0, y: 1.0}, sense="max")
    sol = solve(m)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(1.0)
    assert sol.nodes == 3  # the root LP and its two children


def test_lower_bound_at_or_below_the_optimum_changes_nothing(lp_path):
    rng = np.random.default_rng(321)
    checked = 0
    for trial in range(30):
        m = random_binary_model(rng, int(rng.integers(2, 9)),
                                int(rng.integers(1, 4)))
        m.sense = "min"
        expected = brute_force_binary(m)
        plain = solve(m)
        if expected is None:
            assert plain.status == INFEASIBLE
            for bound in (-3, 0, 3):
                assert solve(m, lower_bound=bound).status == INFEASIBLE
            continue
        assert plain.objective == pytest.approx(expected, abs=1e-9)
        for bound in range(int(expected) - 3, int(expected) + 1):
            sol = solve(m, lower_bound=bound)
            assert sol.status == OPTIMAL, f"trial {trial}, bound {bound}"
            assert sol.objective == pytest.approx(expected, abs=1e-9)
            assert check_feasible(m, sol.values)
            checked += 1
    assert checked > 0


def test_lower_bound_at_the_optimum_takes_fewer_nodes():
    # Vertex cover of K5: the root LP sets every x to 1/2 (bound 3 after
    # rounding), the optimum is 4. Branching on x0 gives the cover x0 = 0
    # (worth 4) and the open node x0 = 1 (bound 3), which the search must
    # explore to prove the cover optimal. A bound of 4 closes that node.
    m = MilpModel()
    xs = [m.add_var(kind=BINARY) for _ in range(5)]
    for a, b in itertools.combinations(xs, 2):
        m.add_constraint({a: 1.0, b: 1.0}, GREATER_EQUAL, 1.0)
    m.set_objective({x: 1.0 for x in xs}, sense="min")
    plain = solve(m)
    bounded = solve(m, lower_bound=4)
    for sol in (plain, bounded):
        assert (sol.status, sol.objective) == (OPTIMAL, 4.0)
    assert bounded.nodes < plain.nodes
    assert bounded.nodes == 3  # the root LP and its two children


@pytest.mark.parametrize("coeff, newest_first", [(1.0, True), (0.5, False)])
def test_equal_bounds_pop_newest_first_only_for_integral_objectives(
        lp_path, monkeypatch, coeff, newest_first):
    # 2 * sum(x) = 3 has no integral point, and every feasible node's LP
    # sits at sum(x) = 1.5: all open nodes tie on one bound and the whole
    # tree is searched. A popped node shows itself as the parent of the next
    # pair of child LPs, whose fixes add one branching variable to its own.
    calls = []
    real_solve = _LpRelaxation.solve

    def recorded(self, fixes, basis=None):
        got = real_solve(self, fixes, basis)
        calls.append((dict(fixes), got[0]))
        return got

    monkeypatch.setattr(_LpRelaxation, "solve", recorded)
    m = MilpModel()
    xs = [m.add_var(kind=BINARY) for _ in range(5)]
    m.add_constraint({x: 2.0 for x in xs}, EQUAL, 3.0)
    m.set_objective({x: coeff for x in xs}, sense="min")
    assert solve(m).status == INFEASIBLE

    open_nodes = [{}]  # in push order
    children = calls[1:]
    assert len(children) % 2 == 0
    for (left, st_left), (right, st_right) in zip(children[::2],
                                                  children[1::2]):
        parent = dict(list(left.items())[:-1])
        assert parent == dict(list(right.items())[:-1])
        want = open_nodes[-1] if newest_first else open_nodes[0]
        assert parent == want
        open_nodes.remove(want)
        open_nodes += [f for f, st in ((left, st_left), (right, st_right))
                       if st == "optimal"]
    assert open_nodes == []
    assert len(children) > 10


def test_solution_json_round_trip():
    m = MilpModel()
    x = m.add_var(kind=BINARY)
    m.set_objective({x: 2.0}, sense="max")
    sol = solve(m)
    dump = sol.to_json()
    assert dump["status"] == OPTIMAL
    assert dump["objective"] == pytest.approx(2.0)
    assert dump["values"] == [1.0]


class TestLpFormat:
    def test_empty_model_header_only(self):
        text = export_lp(MilpModel())
        assert text.splitlines()[0].startswith("\\")
        assert "Minimize" in text
        assert "End" in text

    def test_single_variable_golden(self):
        m = MilpModel()
        x = m.add_var(name="x0", kind=BINARY)
        m.add_constraint({x: 1.0}, LESS_EQUAL, 1.0)
        m.set_objective({x: 2.5}, sense="max")
        expected = (
            "\\ equiprune MILP export\n"
            "Maximize\n"
            " obj: 2.5 x0\n"
            "Subject To\n"
            " c0: 1.0 x0 <= 1.0\n"
            "Bounds\n"
            "Binaries\n"
            " x0\n"
            "End\n"
        )
        assert export_lp(m) == expected

    def test_highs_reads_exports_with_our_optimum(self, tmp_path):
        # HiGHS's own LP reader is independent of our writer: every export
        # must read back to a model with our status and optimum
        highs = pytest.importorskip("scipy.optimize._highspy._core")
        status_of = {OPTIMAL: highs.HighsModelStatus.kOptimal,
                     INFEASIBLE: highs.HighsModelStatus.kInfeasible}
        rng = np.random.default_rng(17)
        for trial in range(50):
            m = MilpModel()
            n_bin = int(rng.integers(1, 5))
            n_cont = int(rng.integers(1, 4))
            for _ in range(n_bin):
                m.add_var(kind=BINARY)
            for _ in range(n_cont):
                m.add_var(kind=CONTINUOUS, lb=float(rng.integers(-3, 1)),
                          ub=float(rng.integers(1, 5)))
            n = n_bin + n_cont
            for _ in range(int(rng.integers(1, 5))):
                coeffs = {j: float(rng.integers(-3, 4)) for j in range(n)
                          if rng.integers(2) == 0}
                if not coeffs:
                    coeffs = {0: 1.0}
                rel = (LESS_EQUAL, GREATER_EQUAL, EQUAL)[rng.integers(3)]
                m.add_constraint(coeffs, rel, float(rng.integers(-5, 6)))
            m.set_objective({j: float(rng.integers(-4, 5)) for j in range(n)},
                            sense="max" if rng.integers(2) else "min")
            path = tmp_path / f"m{trial}.lp"
            path.write_text(export_lp(m))
            h = highs._Highs()
            h.setOptionValue("output_flag", False)
            assert h.readModel(str(path)) == highs.HighsStatus.kOk
            h.run()
            sol = solve(m)
            assert h.getModelStatus() == status_of[sol.status], f"trial {trial}"
            if sol.status == OPTIMAL:
                assert h.getInfo().objective_function_value == pytest.approx(
                    sol.objective, abs=1e-7), f"trial {trial}"


# --- row blocks, the certificate check and solve telemetry ------------------


def random_rows(rng, n_vars):
    """Random (coeffs, relation) rows over ``n_vars`` variables, some with
    explicit zero coefficients, every relation represented."""
    rows = []
    for r in range(int(rng.integers(3, 9))):
        cols = rng.choice(n_vars, size=int(rng.integers(1, n_vars + 1)),
                          replace=False)
        coeffs = {int(j): float(rng.normal()) for j in cols}
        if rng.integers(3) == 0:
            coeffs[int(cols[0])] = 0.0
        rows.append((coeffs, (LESS_EQUAL, GREATER_EQUAL, EQUAL)[r % 3]))
    return rows


def rows_model(bounds, rows, rhs, split):
    """A model of ``rows`` with right-hand sides ``rhs``: rows
    ``split[0]:split[1]`` come from a ``RowBlock`` made in another model, the
    others are added one by one around it."""
    def new_model():
        m = MilpModel()
        for lb, ub in bounds:
            m.add_var(lb=lb, ub=ub)
        return m

    source = new_model()
    for (coeffs, rel), b in zip(rows[split[0]:split[1]], rhs[split[0]:]):
        source.add_constraint(coeffs, rel, b)
    block = RowBlock.of(source.constraints)
    m = new_model()
    for i, ((coeffs, rel), b) in enumerate(zip(rows, rhs)):
        if i == split[0]:
            m.add_rows(block)
        if not split[0] <= i < split[1]:
            m.add_constraint(coeffs, rel, b)
    if split[0] == len(rows):
        m.add_rows(block)
    return m


def test_check_feasible_matches_the_row_reference():
    # random models and points, and for every row and finite bound a point
    # missing it by just under and just over FEAS_TOL: the one mat-vec check
    # decides each as the per-row reference does
    rng = np.random.default_rng(11)
    under, over = FEAS_TOL * (1 - 1e-3), FEAS_TOL * (1 + 1e-3)
    for trial in range(40):
        n = int(rng.integers(1, 7))
        bounds = []
        for j in range(n):
            lb = (-math.inf, float(rng.normal()), 0.0)[j % 3]
            width = 1.0 + abs(float(rng.normal()))
            bounds.append((lb, (math.inf, max(lb, 0.0) + width)[j % 2]))
        # a point half a unit inside its finite bounds
        x = np.array([lb + 0.5 if math.isfinite(lb)
                      else ub - 0.5 if math.isfinite(ub) else 0.5
                      for lb, ub in bounds])
        rows = random_rows(rng, n)
        split = sorted(rng.integers(0, len(rows) + 1, size=2).tolist())

        def lhs(r, point):
            return sum(c * point[j] for j, c in sorted(rows[r][0].items()))

        def slack_rhs(point):
            # every row holds with room at ``point``
            return [lhs(r, point) + {LESS_EQUAL: 1.0, GREATER_EQUAL: -1.0,
                                     EQUAL: 0.0}[rel]
                    for r, (_, rel) in enumerate(rows)]

        cases = []  # (rhs, point, feasible)
        for r, (_, rel) in enumerate(rows):
            for miss, ok in ((under, True), (over, False)):
                signs = {LESS_EQUAL: (-1.0,), GREATER_EQUAL: (1.0,),
                         EQUAL: (-1.0, 1.0)}[rel]
                for sign in signs:
                    rhs = slack_rhs(x)
                    rhs[r] = lhs(r, x) + sign * miss
                    cases.append((rhs, x, ok))
        for j, (lb, ub) in enumerate(bounds):
            for bound, sign in ((lb, -1.0), (ub, 1.0)):
                if math.isfinite(bound):
                    for miss, ok in ((under, True), (over, False)):
                        y = x.copy()
                        y[j] = bound + sign * miss
                        cases.append((slack_rhs(y), y, ok))
        for _ in range(5):
            y = x + rng.normal(scale=0.3, size=n)
            cases.append((slack_rhs(x), y, None))
        for rhs, point, ok in cases:
            m = rows_model(bounds, rows, rhs, split)
            want = check_feasible_rows(m, point)
            assert check_feasible(m, point) == want, f"trial {trial}"
            if ok is not None:
                assert want == ok, f"trial {trial}"


@pytest.mark.parametrize("bad", [math.nan, -math.inf, math.inf])
def test_check_feasible_rejects_a_non_finite_value(bad):
    # x <= 0.5 with x in (-inf, 1]: every comparison with NaN is False, and
    # -inf meets both the row and the bound
    m = MilpModel()
    x = m.add_var(lb=-math.inf, ub=1.0)
    m.add_constraint({x: 1.0}, LESS_EQUAL, 0.5)
    assert check_feasible(m, [0.25])
    assert not check_feasible(m, [bad])
    assert not check_feasible_rows(m, [bad])


def test_row_blocks_stack_to_the_arrays_of_the_rows():
    # a model's matrix is the walk of its rows, whatever came from a block
    rng = np.random.default_rng(5)
    for trial in range(30):
        n = int(rng.integers(1, 6))
        rows = random_rows(rng, n)
        rhs = rng.normal(size=len(rows)).tolist()
        split = sorted(rng.integers(0, len(rows) + 1, size=2).tolist())
        m = rows_model([(0.0, 1.0)] * n, rows, rhs, split)
        A, lo, hi = m.rows()
        want = _csr(m.constraints)
        for got, arr in zip((A.indptr, A.indices, A.data, lo, hi), want):
            assert got.dtype == arr.dtype, f"trial {trial}"
            assert got.tobytes() == arr.tobytes(), f"trial {trial}"


def test_row_block_is_shared_read_only_and_checked():
    src = MilpModel()
    x, y = src.add_var(), src.add_var()
    src.add_constraint({x: 1.0, y: 1.0}, LESS_EQUAL, 1.0)
    block = RowBlock.of(src.constraints)
    with pytest.raises(ValueError):
        block.data[0] = 2.0
    small = MilpModel()
    small.add_var()
    with pytest.raises(MalformedModel):
        small.add_rows(block)
    # unnamed rows are named by their place in the model they are in
    m = MilpModel()
    m.add_var()
    m.add_var()
    m.add_constraint({0: 1.0}, GREATER_EQUAL, 0.0)
    m.add_rows(block)
    assert " c1: 1.0 x0 + 1.0 x1 <= 1.0" in export_lp(m)
    assert " c0: 1.0 x0 + 1.0 x1 <= 1.0" in export_lp(src)


def test_solve_reports_build_and_lp_seconds(lp_path):
    rng = np.random.default_rng(3)
    m = random_binary_model(rng, 8, 3)
    sol = solve(m)
    assert sol.nodes >= 1
    assert sol.build_s > 0
    assert 0 < sol.lp_s <= sol.wall_time_s
    out = sol.to_json()
    assert (out["build_s"], out["lp_s"]) == (sol.build_s, sol.lp_s)
