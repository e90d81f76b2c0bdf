import itertools
import logging
import re

import numpy as np
import pytest

from conftest import (
    blob_dataset,
    desk_instance,
    leaf_assignment,
    predict_class,
    subset_minimum_support,
    support_oracle,
)
from equiprune import MoonsSpec, gen_moons, milp, pruner
from equiprune.data import Dataset
from equiprune.ensemble import (
    Ensemble,
    Internal,
    Leaf,
    predict_classes,
    threshold_index,
    train_boosted,
)
from equiprune.errors import SolverUncertified
from equiprune.milp import (
    BINARY,
    EQUAL,
    FEAS_TOL,
    GREATER_EQUAL,
    OPTIMAL,
    MilpModel,
    _LpRelaxation,
    export_lp,
)
from equiprune.pruner import (
    L0,
    L1,
    PHASE1_TOL,
    MarginSlip,
    PrunerProblem,
    _cut,
    build_pruner_milp,
    default_margin,
    solve_pruner,
)


def stump(threshold, left, right, feature=0):
    return Internal(feature=feature, threshold=threshold,
                    left=Leaf(scores=left), right=Leaf(scores=right))


def simple_ensemble():
    t1 = stump(0.5, (1.0, 0.0), (0.0, 1.0))
    t2 = stump(0.2, (0.6, 0.1), (0.1, 0.6))
    return Ensemble(trees=[t1, t2], weights0=np.ones(2), n_classes=2,
                    n_features=1)


def test_empty_constraints_l0_keeps_one_tree():
    e = simple_ensemble()
    prob = PrunerProblem(ensemble=e, points=[], objective=L0)
    w, sol = solve_pruner(prob)
    assert np.count_nonzero(w) == 1
    assert w.sum() == pytest.approx(2.0)  # total weight preserved


def test_identical_trees_collapse_to_one():
    t = stump(0.5, (1.0, 0.0), (0.0, 1.0))
    e = Ensemble(trees=[t, t], weights0=np.ones(2), n_classes=2, n_features=1)
    points = [np.array([0.0]), np.array([1.0])]
    prob = PrunerProblem(ensemble=e, points=points, objective=L0)
    w, _ = solve_pruner(prob)
    assert np.count_nonzero(w) == 1
    assert np.array_equal(predict_classes(e, w, points),
                          predict_classes(e, e.weights0, points))


def test_original_weights_feasible_at_small_eps():
    e = simple_ensemble()
    points = [np.array([v]) for v in (-1.0, 0.3, 0.9)]
    prob = PrunerProblem(ensemble=e, points=points, objective=L0, eps=1e-9)
    model, w_vars = build_pruner_milp(prob, eps=1e-9)
    # the original weights satisfy every constraint directly
    values = np.zeros(len(model.variables))
    for m, v in enumerate(w_vars):
        values[v] = e.weights0[m]
    for var in model.variables:
        if var.kind == "binary":
            values[model.variables.index(var)] = 1.0
    from equiprune.milp import check_feasible

    assert check_feasible(model, values)


def test_posthoc_equivalence_on_constraint_points():
    e, fit, _ = desk_instance(seed=1)
    points = [np.asarray(x) for x in fit.rows]
    prob = PrunerProblem(ensemble=e, points=points, objective=L0)
    w, _ = solve_pruner(prob)
    assert np.array_equal(predict_classes(e, w, points),
                          predict_classes(e, e.weights0, points))


def test_l0_matches_subset_enumeration(lp_path):
    from conftest import min_strict_margin

    rng = np.random.default_rng(0)
    instances = []
    for trial in range(6):
        ds = blob_dataset(30, p=2, seed=100 + trial)
        e = train_boosted(ds, n_rounds=rng.integers(2, 5), max_depth=2)
        instances.append((e, [np.asarray(x) for x in ds.rows[:10]]))
    # these need Benders cuts, hence the subproblem's row duals
    instances += [moons_instance(seed) for seed in (1, 4)]
    cuts = 0
    for trial, (e, pts) in enumerate(instances):
        prob0 = PrunerProblem(ensemble=e, points=pts, objective=L0)
        eps = min(1e-4, 0.4 * min_strict_margin(e, prob0._reps))
        prob = PrunerProblem(ensemble=e, points=pts, objective=L0, eps=eps)
        w, _ = solve_pruner(prob)
        expected = subset_minimum_support(e, prob._reps, eps)
        assert np.count_nonzero(w) == expected, f"trial {trial}"
        cuts += prob.solved["cuts"]
    assert cuts >= 2


def test_monotone_constraint_growth():
    e, fit, _ = desk_instance(seed=3)
    pts = [np.asarray(x) for x in fit.rows]
    small = PrunerProblem(ensemble=e, points=pts[:5], objective=L0)
    large = PrunerProblem(ensemble=e, points=pts, objective=L0)
    w_small, _ = solve_pruner(small)
    w_large, _ = solve_pruner(large)
    assert np.count_nonzero(w_small) <= np.count_nonzero(w_large)


def test_l1_objective_preserves_predictions():
    e, fit, _ = desk_instance(seed=4)
    pts = [np.asarray(x) for x in fit.rows]
    prob = PrunerProblem(ensemble=e, points=pts, objective=L1)
    w, sol = solve_pruner(prob)
    assert np.all(w >= 0)
    assert np.array_equal(predict_classes(e, w, pts),
                          predict_classes(e, e.weights0, pts))


def test_dedup_by_cell():
    e = simple_ensemble()
    # many points in the same cell collapse to one constraint
    pts = [np.array([v]) for v in np.linspace(0.6, 0.9, 17)]
    prob = PrunerProblem(ensemble=e, points=pts, objective=L0)
    assert prob.n_constraints == 1


def slipping_recheck(monkeypatch, times):
    """Make pruner._recheck report point 0 slipping to its rival class on
    its first ``times`` calls; returns the rhs of every row of the weight
    model at each weight solve (a first solve or a tie repair)."""
    real_recheck, real_weights = pruner._recheck, pruner._solve_weights
    calls = []
    rhs_at_solve = []

    def recheck(prob, w):
        calls.append(1)
        if len(calls) <= times:
            return [(0, 1 - prob._classes[0])]
        return real_recheck(prob, w)

    def solve_weights(prob, model, *args):
        rhs_at_solve.append({con.name: con.rhs for con in model.constraints})
        return real_weights(prob, model, *args)

    monkeypatch.setattr(pruner, "_recheck", recheck)
    monkeypatch.setattr(pruner, "_solve_weights", solve_weights)
    return rhs_at_solve


@pytest.mark.parametrize("objective", [L0, L1])
def test_tie_repair_resolves_with_raised_row(monkeypatch, objective):
    e = simple_ensemble()
    points = [np.array([v]) for v in (-1.0, 0.3, 0.9)]
    prob = PrunerProblem(ensemble=e, points=points, objective=objective)
    eps = default_margin(e)
    rhs_at_solve = slipping_recheck(monkeypatch, times=1)
    w, sol = solve_pruner(prob)
    assert sol.status == OPTIMAL
    assert len(rhs_at_solve) == 2  # the solve and one repair re-solve
    row = f"pt0_c{1 - prob._classes[0]}"
    assert rhs_at_solve[0][row] < min(eps, 1e-6) <= rhs_at_solve[1][row]
    assert np.array_equal(predict_classes(e, w, points),
                          predict_classes(e, e.weights0, points))


def test_persistent_slip_raises(monkeypatch):
    e = simple_ensemble()
    points = [np.array([v]) for v in (-1.0, 0.3, 0.9)]
    prob = PrunerProblem(ensemble=e, points=points, objective=L0)
    slipping_recheck(monkeypatch, times=2)
    with pytest.raises(MarginSlip, match="after repair"):
        solve_pruner(prob)


class TestAdd:
    def test_dedups_across_calls_and_counts_new_cells(self):
        e = simple_ensemble()  # cells: x <= 0.2, 0.2 < x <= 0.5, x > 0.5
        prob = PrunerProblem(ensemble=e, points=[[0.0], [0.1]], objective=L0)
        assert prob.n_constraints == 1
        assert prob.add([[0.15], [0.9], [0.3], [0.8]]) == 2
        assert prob.add([[0.05], [0.4], [1.0]]) == 0
        assert prob.n_constraints == 3
        # each cell keeps the first point that reached it
        assert [x.tolist() for x in prob._reps] == [[0.0], [0.9], [0.3]]

    def test_empty_batch(self):
        e = simple_ensemble()
        prob = PrunerProblem(ensemble=e, points=[], objective=L0)
        assert prob.add([]) == 0
        assert prob.add(np.empty((0, 1))) == 0
        assert prob.n_constraints == 0
        assert list(prob.margin_rows(1e-6)) == []

    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_matches_scalar_routing_on_thresholds(self, n_classes):
        rng = np.random.default_rng(40 + n_classes)
        ds = blob_dataset(60, p=2, seed=40 + n_classes)
        if n_classes == 3:
            ds = Dataset(rows=ds.rows, feature_meta=ds.feature_meta,
                         labels=np.where(np.arange(60) % 3 == 0, 2, ds.labels),
                         label_names=("0", "1", "2"))
        e = train_boosted(ds, n_rounds=4, max_depth=2)
        assert e.n_classes == n_classes
        theta = threshold_index(e)
        grid = [theta.thresholds(j) + (theta.thresholds(j)[-1] + 1.0,)
                for j in range(e.n_features)]
        points = [np.array(x) for x in itertools.product(*grid)]
        rng.shuffle(points)
        prob = PrunerProblem(ensemble=e, points=points[:7], objective=L0)
        prob.add(points[7:])
        cells = {}
        for x in points:
            cells.setdefault(leaf_assignment(e, x), x)
        assert prob.n_constraints == len(cells)
        for x, V, F0, c in zip(prob._reps, prob._scores, prob._scores0,
                               prob._classes):
            cell = leaf_assignment(e, x)
            assert x.tolist() == cells[cell].tolist()
            assert c == predict_class(e, e.weights0, x)
            want = np.array([e.leaves(m)[cell[m]].scores
                             for m in range(e.n_trees)])
            assert V.tolist() == want.tolist()
            assert F0.tolist() == (e.weights0 @ want).tolist()


@pytest.mark.parametrize("objective", [L0, L1])
def test_tie_repair_returns_the_work_of_both_solves(monkeypatch, objective):
    e = simple_ensemble()
    points = [np.array([v]) for v in (-1.0, 0.3, 0.9)]
    prob = PrunerProblem(ensemble=e, points=points, objective=objective)
    slipping_recheck(monkeypatch, times=1)
    calls = recorded_solves(monkeypatch)
    _, sol = solve_pruner(prob)
    first, repair = (call["result"] for call in calls)
    assert first.nodes >= 1 and repair.nodes >= 1
    for key in ("nodes", "lp_iterations", "build_s", "lp_s"):
        assert getattr(sol, key) == getattr(first, key) + getattr(repair, key)


def test_benders_seconds_include_its_subproblem_lps(monkeypatch):
    # an L0 weight solve's build and LP seconds are its master solves' plus
    # those of its phase-1 LPs, the last of which gives the weights
    e, fit, _ = desk_instance(seed=3)
    prob = PrunerProblem(ensemble=e, points=[np.asarray(x) for x in fit.rows],
                         objective=L0)
    calls = recorded_solves(monkeypatch)
    _, sol = solve_pruner(prob)
    masters = [m for _, m in calls[-1]["masters"]]
    assert sol.build_s > sum(m.build_s for m in masters) > 0
    assert sol.lp_s > sum(m.lp_s for m in masters) > 0
    assert sol.lp_s <= sol.wall_time_s
    assert sol.to_json()["lp_s"] == sol.lp_s


def recorded_solves(monkeypatch):
    """Per weight solve (a first solve or a tie repair): its lower bound,
    the pool it was given, the keyword arguments and results of its master
    solves, and its own result."""
    real_weights, real_solve = pruner._solve_weights, pruner.solve
    calls = []

    def solve_weights(prob, model, w_vars, pool, *args):
        calls.append({"lower_bound": pool.bound, "pool": pool,
                      "masters": []})
        calls[-1]["result"] = real_weights(prob, model, w_vars, pool, *args)
        calls[-1]["pool_after"] = list(pool.cuts)
        return calls[-1]["result"]

    def solve(model, **kw):
        sol = real_solve(model, **kw)
        calls[-1]["masters"].append((kw, sol))
        return sol

    monkeypatch.setattr(pruner, "_solve_weights", solve_weights)
    monkeypatch.setattr(pruner, "solve", solve)
    return calls


class TestCarriedLowerBound:
    def test_passed_only_at_the_recorded_eps(self, monkeypatch, caplog):
        e, fit, _ = desk_instance(seed=3)
        pts = [np.asarray(x) for x in fit.rows]
        prob = PrunerProblem(ensemble=e, points=pts[:8], objective=L0)
        eps = prob.eps
        calls = recorded_solves(monkeypatch)

        def bound_of_next_solve():
            _, sol = solve_pruner(prob)
            bound, masters = calls[-1]["lower_bound"], calls[-1]["masters"]
            assert prob.solved["lower_bound"] == bound
            # each master round starts from the larger of the carried bound
            # and the last master optimum
            assert masters[0][0]["lower_bound"] == bound
            for (kw, _), (last_kw, last) in zip(masters[1:], masters):
                assert kw["lower_bound"] == max(last.objective,
                                                last_kw["lower_bound"] or 0)
            return bound, prob.solved["eps"], sol.objective

        # the first solve has nothing to carry
        bound, used, first = bound_of_next_solve()
        assert (bound, used) == (None, eps)
        assert prob.solved["halvings"] == 0
        # more cells at the same eps: the last optimum bounds the next solve
        prob.add(pts[8:])
        bound, used, second = bound_of_next_solve()
        assert (bound, used) == (first, eps)
        assert second >= first
        # the loop's 10x tightening changes the eps: the bound is dropped,
        # then carried at the new eps
        prob.eps *= 10.0
        bound, tightened, third = bound_of_next_solve()
        assert bound is None and tightened != eps
        bound, used, _ = bound_of_next_solve()
        assert (bound, used) == (third, tightened)
        # so does a halving
        monkeypatch.setattr(pruner, "_w0_min_strict_margin",
                            lambda p: 0.75 * tightened)
        with caplog.at_level(logging.INFO, logger="equiprune"):
            bound, used, _ = bound_of_next_solve()
        assert (bound, used) == (None, tightened / 2.0)
        assert prob.solved["halvings"] == 1
        assert "eps halved 1 times" in caplog.text

    def test_tie_repair_starts_from_the_first_optimum(self, monkeypatch,
                                                      caplog):
        e = simple_ensemble()
        points = [np.array([v]) for v in (-1.0, 0.3, 0.9)]
        prob = PrunerProblem(ensemble=e, points=points, objective=L0)
        slipping_recheck(monkeypatch, times=1)
        calls = recorded_solves(monkeypatch)
        with caplog.at_level(logging.INFO, logger="equiprune"):
            solve_pruner(prob)
        assert any("tie repair" in r.getMessage() for r in caplog.records)
        first, repair = calls
        assert first["lower_bound"] is None
        assert first["masters"][0][0]["lower_bound"] is None
        assert repair["lower_bound"] == first["result"].objective
        assert repair["masters"][0][0]["lower_bound"] == (
            first["result"].objective)
        assert (prob._pool.eps, prob._pool.bound) == (
            prob.solved["eps"], first["result"].objective)
        assert prob.solved["tie_repair"]
        # the flag describes the last solve only
        solve_pruner(prob)
        assert not prob.solved["tie_repair"]


def moons_instance(seed):
    """10 depth-2 trees on 80 two-moons rows, and the rows: at seeds 1 and
    4 the L0 weight solve takes 4 master rounds."""
    ds = gen_moons(MoonsSpec(n=80, noise=0.2, seed=seed))
    e = train_boosted(ds, n_rounds=10, max_depth=2)
    return e, [np.asarray(x) for x in ds.rows]


def support_of(master, n_trees):
    return {m for m in range(n_trees) if master.value(m) > 0.5}


class TestBendersCuts:
    def test_every_feasible_support_meets_every_pool_cut(self):
        e, pts = moons_instance(seed=1)
        M = e.n_trees
        prob = PrunerProblem(ensemble=e, points=pts, objective=L0)
        w, sol = solve_pruner(prob)
        assert prob.solved["cuts"] >= 1
        feasible = support_oracle(e, prob._reps, prob.solved["eps"])
        supports = [set(s) for k in range(1, M + 1)
                    for s in itertools.combinations(range(M), k)
                    if feasible(s)]
        assert min(map(len, supports)) == sol.objective
        assert len(prob._pool.cuts) > prob.solved["cuts"]  # row cuts too
        for cut in prob._pool.cuts:
            assert all(s.intersection(cut) for s in supports), cut

    @pytest.mark.parametrize("seed", [1, 4])
    def test_each_grown_cut_misses_the_support_it_cut_off(self, monkeypatch,
                                                          lp_path, seed):
        e, pts = moons_instance(seed)
        M = e.n_trees
        prob = PrunerProblem(ensemble=e, points=pts, objective=L0)
        calls = recorded_solves(monkeypatch)
        solve_pruner(prob)
        (call,) = calls
        masters = [sol for _, sol in call["masters"]]
        cuts = call["pool_after"][-prob.solved["cuts"]:]
        assert len(masters) == prob.solved["rounds"] == len(cuts) + 1
        feasible = support_oracle(e, prob._reps, prob.solved["eps"])
        assert feasible(support_of(masters[-1], M))
        for master, cut in zip(masters, cuts):
            # the master's support grew to a maximal infeasible support,
            # and the cut is exactly the trees outside it
            grown = set(range(M)) - set(cut)
            assert support_of(master, M) <= grown
            assert not feasible(grown)
            assert all(feasible(grown | {m}) for m in cut)


def recorded_growths(monkeypatch):
    """Per Benders round that cut: the master's support, the duals of its
    phase-1 LP, and the grown support, cut and trees added without an LP
    that ``_grow`` returned."""
    real = pruner._grow
    growths = []

    def grow(support, y, *args):
        first = set(support)
        grown, cut, settled = real(support, y, *args)
        growths.append({"first": first, "y": y.copy(), "grown": set(grown),
                        "cut": cut, "settled": list(settled)})
        return grown, cut, settled

    monkeypatch.setattr(pruner, "_grow", grow)
    return growths


def lp_per_tree_growth(prob, support, y):
    """The reference growth: a phase-1 LP for every tree outside
    ``support``, tried cheapest first for the duals ``y``, and the cut of the
    last infeasible LP's duals. Returns the grown support, the cut, and per
    tree added the support it joined."""
    model, w_vars = build_pruner_milp(prob, prob.solved["eps"])
    sub = _LpRelaxation(model)
    margin = np.array([con.relation == GREATER_EQUAL
                       for con in model.constraints])
    G = sub.A[margin][:, w_vars].toarray()
    r = sub.lo[margin]
    feasible = PHASE1_TOL * max(1.0, float(np.abs(r).max(initial=0.0)))
    w_total = float(prob.ensemble.weights0.sum())
    support, joined = set(support), {}
    gains = y @ G
    for m in sorted(set(range(len(w_vars))) - support, key=lambda m: gains[m]):
        status, _, shortfall = sub.solve(
            {w_vars[k]: 0.0 for k in range(len(w_vars))
             if k not in support | {m}})
        assert status == OPTIMAL
        if shortfall > feasible:
            joined[m] = set(support)
            support.add(m)
            y = np.maximum(sub.row_duals()[margin], 0.0)
    return support, _cut(y @ G, float(y @ r) / w_total), joined


def add_constraint_master(n_trees, cuts):
    """The master as built before each cut kept its row: one
    ``add_constraint`` per cut."""
    model = MilpModel()
    z = [model.add_var(name=f"z{m}", kind=BINARY) for m in range(n_trees)]
    for k, cut in enumerate(cuts):
        model.add_constraint([(z[m], 1.0) for m in cut], GREATER_EQUAL, 1.0,
                             name=f"cut{k}")
    model.set_objective({v: 1.0 for v in z}, sense="min")
    return model


def assert_same_lp(got, want):
    """Same LP text and the same row arrays, so the same LP goes to
    HiGHS."""
    assert export_lp(got) == export_lp(want)
    (A, lo, hi), (A0, lo0, hi0) = got.rows(), want.rows()
    for x, x0 in zip((A.indptr, A.indices, A.data, lo, hi),
                     (A0.indptr, A0.indices, A0.data, lo0, hi0)):
        assert x.dtype == x0.dtype
        assert x.tobytes() == x0.tobytes()


def separate_l0_model(prob, eps):
    """The L0 weight model without slacks, which :func:`_phase1` copies:
    weights in [0, W] that sum to W, the margin rows, no objective."""
    e = prob.ensemble
    w_total = float(e.weights0.sum())
    model = MilpModel()
    w_vars = [model.add_var(name=f"w{m}", lb=0.0, ub=w_total)
              for m in range(e.n_trees)]
    model.add_constraint({v: 1.0 for v in w_vars}, EQUAL, w_total,
                         name="scale")
    for i, c2, gains, rhs in prob.margin_rows(eps):
        model.add_constraint({w_vars[m]: float(gains[m])
                              for m in range(e.n_trees)},
                             GREATER_EQUAL, rhs, name=f"pt{i}_c{c2}")
    return model


def _phase1(model):
    """The phase-1 copy the L0 solve once made of ``model``: its rows with a
    slack s >= 0 added to each margin row, and the summed slack as
    objective."""
    sub = MilpModel(variables=list(model.variables))
    slacks = []
    for con in model.constraints:
        coeffs = list(con.coeffs)
        if con.relation == GREATER_EQUAL:
            slacks.append(sub.add_var(name=f"s_{con.name}"))
            coeffs.append((slacks[-1], 1.0))
        sub.add_constraint(coeffs, con.relation, con.rhs, name=con.name)
    sub.set_objective({s: 1.0 for s in slacks}, sense="min")
    return sub


def three_class_instance():
    """4 depth-2 trees on 60 blob rows with every third row relabelled to
    class 2, and the rows: strict and tie-rule rows on every cell."""
    ds = blob_dataset(60, p=2, seed=43)
    ds = Dataset(rows=ds.rows, feature_meta=ds.feature_meta,
                 labels=np.where(np.arange(60) % 3 == 0, 2, ds.labels),
                 label_names=("0", "1", "2"))
    e = train_boosted(ds, n_rounds=4, max_depth=2)
    return e, [np.asarray(x) for x in ds.rows]


L0_INSTANCES = {
    "no-cells": lambda: (simple_ensemble(), []),
    "moons-1": lambda: moons_instance(1),
    "moons-4": lambda: moons_instance(4),
    "three-class": three_class_instance,
}


class TestPhase1WeightModel:
    @pytest.mark.parametrize("name", sorted(L0_INSTANCES))
    def test_is_the_phase1_copy_of_the_separate_model(self, name):
        e, pts = L0_INSTANCES[name]()
        prob = PrunerProblem(ensemble=e, points=pts, objective=L0)
        model, w_vars = build_pruner_milp(prob, prob.eps)
        want = _phase1(separate_l0_model(prob, prob.eps))
        assert w_vars == list(range(e.n_trees))
        assert model.variables == want.variables
        assert (model.objective, model.sense) == (want.objective, want.sense)
        assert_same_lp(model, want)

    @pytest.mark.parametrize("seed", [1, 4])
    def test_one_lp_besides_the_masters(self, monkeypatch, lp_path, seed):
        built, models = [], []

        class Counted(_LpRelaxation):
            def __init__(self, model):
                built.append(model)
                super().__init__(model)

        real_build = pruner.build_pruner_milp

        def build(prob, eps):
            model, w_vars = real_build(prob, eps)
            models.append(model)
            return model, w_vars

        monkeypatch.setattr(milp, "_LpRelaxation", Counted)
        monkeypatch.setattr(pruner, "_LpRelaxation", Counted)
        monkeypatch.setattr(pruner, "build_pruner_milp", build)
        e, pts = moons_instance(seed)
        prob = PrunerProblem(ensemble=e, points=pts, objective=L0)
        solve_pruner(prob)
        assert not prob.solved["tie_repair"] and len(models) == 1
        assert prob.solved["rounds"] >= 2 and prob.solved["subproblem_lps"] > 2
        masters = [m for m in built if m.n_binaries() == e.n_trees]
        assert len(masters) == prob.solved["rounds"]
        assert [m for m in built if m.n_binaries() == 0] == models
        assert len(built) == prob.solved["rounds"] + 1

    @pytest.mark.parametrize("name", ["moons-1", "moons-4", "three-class"])
    def test_weights_sum_to_w_and_meet_every_margin_row(self, monkeypatch,
                                                        lp_path, name):
        e, pts = L0_INSTANCES[name]()
        M = e.n_trees
        prob = PrunerProblem(ensemble=e, points=pts, objective=L0)
        calls = recorded_solves(monkeypatch)
        w, sol = solve_pruner(prob)
        assert not prob.solved["tie_repair"]
        support = support_of(calls[-1]["masters"][-1][1], M)
        assert len(support) == sol.objective
        assert abs(w.sum() - float(e.weights0.sum())) <= FEAS_TOL
        assert all(w[m] == 0.0 for m in range(M) if m not in support)
        rows = list(prob.margin_rows(prob.solved["eps"]))
        tol = PHASE1_TOL * max(1.0, max(abs(rhs) for *_, rhs in rows))
        for _, _, gains, rhs in rows:
            assert gains @ w >= rhs - tol
        # the solution is the phase-1 LP's: one slack per margin row, and
        # their sum is within the tolerance
        assert len(sol.values) == M + len(rows)
        assert sol.values[M:].sum() <= tol


class TestGrowth:
    @pytest.mark.parametrize("seed", [1, 4])
    def test_steps_settled_by_the_duals_match_an_lp_per_tree(self,
                                                             monkeypatch,
                                                             lp_path, seed):
        e, pts = moons_instance(seed)
        prob = PrunerProblem(ensemble=e, points=pts, objective=L0)
        growths = recorded_growths(monkeypatch)
        solve_pruner(prob)
        assert len(growths) == prob.solved["cuts"] >= 1
        # the certificate settles some steps, and every step costs at most
        # one LP
        assert sum(len(g["settled"]) for g in growths) >= 1
        assert prob.solved["subproblem_lps"] == prob.solved["rounds"] + sum(
            e.n_trees - len(g["first"]) - len(g["settled"]) for g in growths)
        feasible = support_oracle(e, prob._reps, prob.solved["eps"])
        for g in growths:
            grown, cut, joined = lp_per_tree_growth(prob, g["first"], g["y"])
            assert (g["grown"], g["cut"]) == (grown, cut)
            for m in g["settled"]:
                assert m in joined
                assert not feasible(joined[m] | {m})

    @pytest.mark.parametrize("gains, settled, lps", [
        # tree 1 lies below the threshold 1.0 with the support: no LP
        ((0.1, 0.2, 1.5), [1], [{0, 1, 2}]),
        # the support's own tree 0 reaches it: the duals prove nothing
        ((1.0, 0.2, 0.9), [], [{0, 1}, {0, 2}]),
    ])
    def test_duals_settle_a_step_only_below_their_threshold(self, gains,
                                                            settled, lps):
        asked = []

        def shortfall_duals(support):  # every LP finds its support feasible
            asked.append(set(support))
            return None

        G = np.array([gains])
        grown, cut, got = pruner._grow({0}, np.ones(1), G, np.ones(1), 1.0,
                                       shortfall_duals)
        assert got == settled and asked == lps
        assert grown == {0, *settled}
        assert cut == tuple(m for m in range(3) if gains[m] >= 1.0)

    @pytest.mark.parametrize("seed", [1, 4])
    def test_master_equals_a_row_by_row_build(self, monkeypatch, seed):
        # every round's master: same LP text and the same row arrays, so
        # the same LP goes to HiGHS
        real = pruner._master
        masters = []

        def master(n_trees, pool):
            masters.append((n_trees, list(pool), real(n_trees, pool)))
            return masters[-1][2]

        monkeypatch.setattr(pruner, "_master", master)
        e, pts = moons_instance(seed)
        prob = PrunerProblem(ensemble=e, points=pts, objective=L0)
        solve_pruner(prob)
        assert len(masters) == prob.solved["rounds"] >= 2
        for n_trees, cuts, got in masters:
            assert_same_lp(got, add_constraint_master(n_trees, cuts))

    def test_each_round_logs_one_debug_line(self, monkeypatch, caplog):
        e, pts = moons_instance(seed=1)
        prob = PrunerProblem(ensemble=e, points=pts, objective=L0)
        calls = recorded_solves(monkeypatch)
        growths = recorded_growths(monkeypatch)
        with caplog.at_level(logging.DEBUG, logger="equiprune"):
            solve_pruner(prob)
        line = re.compile(
            r"weight solve round (\d+): master support (\d+) in (\d+) "
            r"nodes, (\d+) subproblem LPs?, (?:(\d+) trees added on the "
            r"dual certificate, cut of (\d+) trees|feasible)$")
        found = [line.match(r.getMessage()) for r in caplog.records
                 if r.getMessage().startswith("weight solve round")]
        assert all(found) and len(found) == prob.solved["rounds"]
        masters = [sol for _, sol in calls[-1]["masters"]]
        for k, (match, master) in enumerate(zip(found, masters)):
            assert int(match[1]) == k + 1
            assert int(match[2]) == len(support_of(master, e.n_trees))
            assert int(match[3]) == master.nodes
        *cutting, last = found
        assert last[0].endswith("1 subproblem LP, feasible")
        for match, g in zip(cutting, growths, strict=True):
            assert int(match[5]) == len(g["settled"])
            assert int(match[6]) == len(g["cut"])
        assert sum(int(m[4]) for m in found) == prob.solved["subproblem_lps"]


class TestCutPool:
    def test_kept_at_one_eps_and_dropped_when_eps_changes(self, monkeypatch):
        e, pts = moons_instance(seed=1)
        prob = PrunerProblem(ensemble=e, points=pts[:40], objective=L0)

        def fresh_pool(eps):
            fresh = PrunerProblem(ensemble=e, points=prob._reps, objective=L0,
                                  eps=eps)
            solve_pruner(fresh)
            return list(fresh._pool.cuts)

        solve_pruner(prob)
        assert prob.solved["cuts"] >= 1
        eps = prob.solved["eps"]
        first = list(prob._pool.cuts)
        assert first[0] == tuple(range(e.n_trees))  # the cut sum z >= 1
        # more cells at the same eps: the pool grows from the last one
        prob.add(pts[40:])
        solve_pruner(prob)
        assert prob._pool.eps == eps
        assert list(prob._pool.cuts)[:len(first)] == first
        # the loop's 10x tightening drops it
        prob.eps *= 10.0
        solve_pruner(prob)
        assert prob._pool.eps == prob.solved["eps"] != eps
        assert list(prob._pool.cuts) == fresh_pool(prob.eps)
        # so does a halving
        tightened = prob.eps
        monkeypatch.setattr(pruner, "_w0_min_strict_margin",
                            lambda p: 0.75 * tightened)
        solve_pruner(prob)
        assert prob._pool.eps == prob.solved["eps"] == tightened / 2.0
        assert list(prob._pool.cuts) == fresh_pool(tightened)

    def test_each_master_raises_the_bound_the_next_starts_from(self,
                                                               monkeypatch):
        # four master rounds; the pool ends at the certified optimum
        e, pts = moons_instance(seed=1)
        prob = PrunerProblem(ensemble=e, points=pts, objective=L0)
        calls = recorded_solves(monkeypatch)
        _, sol = solve_pruner(prob)
        bound = None
        for kw, master in calls[-1]["masters"]:
            assert kw["lower_bound"] == bound
            bound = max(master.objective, bound or 0.0)
        assert prob.solved["rounds"] == 4
        assert prob._pool.bound == sol.objective

    def test_tie_repair_cuts_stay_out_of_the_pool(self, monkeypatch):
        # tree 0 alone keeps both cells, with a margin of 1e-7 per unit
        # weight on cell 0's tie-rule row; the repair raises that row to
        # 1e-6, so its re-solve needs tree 1 too
        t0 = stump(0.5, (1e-7, 0.0), (0.0, 1.0))
        t1 = stump(0.5, (1.0, 0.0), (0.5, 0.0))
        e = Ensemble(trees=[t0, t1], weights0=np.ones(2), n_classes=2,
                     n_features=1)
        prob = PrunerProblem(ensemble=e, points=[[0.0], [1.0]], objective=L0)
        slipping_recheck(monkeypatch, times=1)
        calls = recorded_solves(monkeypatch)
        w, sol = solve_pruner(prob)
        assert prob.solved["tie_repair"] and sol.objective == 2.0
        first, repair = calls
        assert first["pool"] is prob._pool
        assert repair["pool"] is not prob._pool
        assert repair["pool"].cuts is not prob._pool.cuts
        local = set(repair["pool_after"]) - set(first["pool_after"])
        assert local == {(1,)}  # the raised row's own cut
        assert list(prob._pool.cuts) == first["pool_after"]


@pytest.mark.parametrize("limit", [{"node_limit": 1}, {"time_limit_s": 0.0}])
def test_l0_limits_raise_uncertified(limit):
    e, pts = moons_instance(seed=1)
    prob = PrunerProblem(ensemble=e, points=pts, objective=L0)
    with pytest.raises(SolverUncertified, match="hit a limit"):
        solve_pruner(prob, **limit)
    # the node limit stops the loop after its first master round, the time
    # limit before any
    assert prob.solved["rounds"] == (1 if "node_limit" in limit else 0)
