import logging
import math

import numpy as np
import pytest

from conftest import desk_instance, scalar_score
from equiprune import loop, pruner
from equiprune.conformal import calibrate
from equiprune.data import CONTINUOUS, Dataset, FeatureMeta
from equiprune.ensemble import Ensemble, Internal, Leaf
from equiprune.errors import InfeasibleAtEpsilon, SolverUncertified
from equiprune.loop import (
    FULL_SPACE,
    IN_DISTRIBUTION,
    UNCERTIFIED,
    PruneConfig,
    run,
    run_full_space,
)
from equiprune.oracle import Counterexample, OracleResult
from equiprune.plausibility import fit_score_model
from equiprune.pruner import MarginSlip, default_margin
from equiprune.verify import check_equivalence_exhaustive


def one_d_dataset(values):
    rows = np.asarray(values, dtype=float)[:, None]
    meta = (FeatureMeta(name="x0", kind=CONTINUOUS),)
    return Dataset(rows=rows, labels=None, feature_meta=meta)


class TestConfig:
    def test_alpha_xor_full_space(self):
        with pytest.raises(ValueError):
            PruneConfig()  # neither
        with pytest.raises(ValueError):
            PruneConfig(alpha=0.5, full_space=True)  # both
        with pytest.raises(ValueError):
            PruneConfig(alpha=1.5)
        with pytest.raises(ValueError):
            PruneConfig(full_space=True, max_iterations=0)
        with pytest.raises(ValueError):
            PruneConfig(full_space=True, node_limit=0)
        with pytest.raises(ValueError):
            PruneConfig(alpha=0.2, score_kind="none")
        with pytest.raises(ValueError):  # checked in both modes
            PruneConfig(full_space=True, score_kind="none")

    @pytest.mark.parametrize("field, value", [
        ("eps_margin", 0.0), ("eps_margin", -1.0), ("eps_margin", math.nan),
        ("eps_margin", math.inf), ("time_limit_s", 0.0),
        ("time_limit_s", -1.0), ("time_limit_s", math.nan)])
    def test_margin_and_time_limit_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=field):
            PruneConfig(full_space=True, **{field: value})

    @pytest.mark.parametrize("kind, field, value", [
        ("chowliu", "bins", 1), ("chowliu", "beta", 0.0),
        ("chowliu", "beta", math.nan), ("leafsupport", "beta", -1.0),
        ("chowliu", "beta", math.inf), ("leafsupport", "beta", math.nan),
        ("iforest", "if_trees", 0), ("iforest", "if_max_samples", 1)])
    def test_score_fit_parameters_out_of_range(self, kind, field, value):
        # refused for the score model an in-distribution run fits, not for
        # another family's or a full-space run
        with pytest.raises(ValueError, match=field):
            PruneConfig(alpha=0.5, score_kind=kind, **{field: value})
        other = "iforest" if kind != "iforest" else "chowliu"
        PruneConfig(alpha=0.5, score_kind=other, **{field: value})
        PruneConfig(full_space=True, score_kind=kind, **{field: value})

    def test_json_round_trips_through_dict(self):
        cfg = PruneConfig(alpha=0.3)
        dumped = cfg.to_json()
        assert PruneConfig(**dumped) == cfg


class TestFullSpace:
    def test_identical_trees_collapse(self):
        t = Internal(feature=0, threshold=0.5, left=Leaf(scores=(1.0, 0.0)),
                     right=Leaf(scores=(0.0, 1.0)))
        e = Ensemble(trees=[t, t, t], weights0=np.ones(3), n_classes=2,
                     n_features=1)
        fit = one_d_dataset([0.0, 1.0])
        res = run_full_space(e, fit)
        assert res.certified
        assert res.guarantee_scope == FULL_SPACE
        assert res.support_size == 1
        assert check_equivalence_exhaustive(e, e.weights0, res.weights) == []

    def test_single_tree_terminates_immediately(self):
        t = Internal(feature=0, threshold=0.5, left=Leaf(scores=(1.0, 0.0)),
                     right=Leaf(scores=(0.0, 1.0)))
        e = Ensemble(trees=[t], weights0=np.ones(1), n_classes=2, n_features=1)
        res = run_full_space(e, one_d_dataset([0.0, 1.0]))
        assert res.certified
        assert res.iterations == 1
        assert res.weights.tolist() == [1.0]

    def test_warm_start_forces_full_support_in_one_iteration(self):
        # both trees are necessary already on the fit points
        a = Internal(feature=0, threshold=0.0, left=Leaf(scores=(2.0, 0.0)),
                     right=Leaf(scores=(0.0, 2.0)))
        b = Internal(feature=0, threshold=1.0, left=Leaf(scores=(0.0, 1.0)),
                     right=Leaf(scores=(3.0, 0.0)))
        e = Ensemble(trees=[a, b], weights0=np.ones(2), n_classes=2,
                     n_features=1)
        res = run_full_space(e, one_d_dataset([-1.0, 0.5, 2.0]))
        assert res.certified
        assert res.iterations == 1
        assert res.support_size == 2

    def test_random_instances_certify_and_verify(self):
        for seed in range(3):
            e, fit, _ = desk_instance(seed=60 + seed)
            res = run_full_space(e, fit)
            assert res.certified, seed
            assert check_equivalence_exhaustive(e, e.weights0, res.weights) == []
            assert res.support_size <= e.n_trees

    def test_l1_objective_certifies_and_verifies(self):
        e, fit, _ = desk_instance(seed=65)
        res = run_full_space(e, fit, objective="l1")
        assert res.certified
        assert check_equivalence_exhaustive(e, e.weights0, res.weights) == []

    def test_constraints_grow_by_the_new_cells_found(self):
        e, fit, _ = desk_instance(seed=0)
        res = run_full_space(e, fit)
        assert res.certified
        assert max(r.n_found for r in res.records) > 1
        fit_cells = {tuple(row) for row in e.leaf_matrix(fit.rows).tolist()}
        assert res.records[0].n_constraints == len(fit_cells)
        for a, b in zip(res.records[:-1], res.records[1:]):
            assert b.n_constraints == a.n_constraints + a.n_found

    def test_zero_time_limit_is_uncertified(self):
        e, fit, _ = desk_instance(seed=64)
        # a limit of 1 ns runs out before the first solve ends
        res = run_full_space(e, fit, time_limit_s=1e-9)
        assert not res.certified
        assert res.guarantee_scope == UNCERTIFIED

    def test_records_carry_solver_work_and_each_iteration_is_logged(
            self, caplog):
        e, fit, _ = desk_instance(seed=1)
        with caplog.at_level(logging.INFO, logger="equiprune"):
            res = run_full_space(e, fit)
        assert res.iterations == 2
        lines = [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith("iteration ")]
        assert len(lines) == 2
        previous = None
        for rec, line in zip(res.records, lines):
            dump = rec.to_json()
            for key in ("pruner_nodes", "oracle_nodes", "eps", "halvings",
                        "lower_bound", "tie_repair", "rounds", "cuts",
                        "subproblem_lps"):
                assert dump[key] == getattr(rec, key)
            assert rec.pruner_nodes >= 1 and rec.oracle_nodes >= 1
            # every master round but the last finds a cut, and every round
            # solves at least one subproblem LP
            assert rec.cuts == rec.rounds - 1
            assert rec.subproblem_lps >= rec.rounds >= 1
            assert (f"{rec.rounds} rounds, {rec.cuts} cuts and "
                    f"{rec.subproblem_lps} subproblem LPs") in line
            # no halving and no tie repair on this instance
            assert rec.eps == default_margin(e)
            assert (rec.halvings, rec.tie_repair) == (0, False)
            # each solve starts from the previous certified optimum
            assert rec.lower_bound == (None if previous is None
                                       else previous.pruner_objective)
            assert f"{rec.pruner_nodes} nodes" in line
            previous = rec


    def test_each_search_pair_is_logged_and_its_seconds_summed(
            self, caplog, monkeypatch):
        # oracle_solve_s is the sum of the pair solves' own seconds, and
        # each pair gets one DEBUG line, in pair order
        e, fit, _ = desk_instance(seed=1)
        searches = []
        real_search = loop.find_counterexamples

        def recording_search(*a, **kw):
            searches.append(real_search(*a, **kw))
            return searches[-1]

        monkeypatch.setattr(loop, "find_counterexamples", recording_search)
        with caplog.at_level(logging.DEBUG, logger="equiprune"):
            res = run_full_space(e, fit)
        assert len(searches) == len(res.records) == 2
        lines = [r.getMessage() for r in caplog.records
                 if r.levelno == logging.DEBUG
                 and r.getMessage().startswith("search pair ")]
        want = []
        for rec, search in zip(res.records, searches):
            sols = search.pair_solutions
            assert rec.oracle_solve_s == sum(s.wall_time_s
                                             for s in sols.values()) > 0
            assert rec.to_json()["oracle_solve_s"] == rec.oracle_solve_s
            assert rec.oracle_nodes == sum(s.nodes for s in sols.values())
            want += [(f"search pair {c}->{c2}: {s.status} in {s.nodes} nodes, "
                      f"{s.lp_iterations} LP iterations",
                      f"(build {s.build_s:.3f} s, LP {s.lp_s:.3f} s)")
                     for (c, c2), s in sols.items()]
        assert len(lines) == len(want) == 4
        for line, (prefix, suffix) in zip(lines, want):
            assert line.startswith(prefix) and line.endswith(suffix)

    def test_every_search_of_a_run_shares_one_search_model(self,
                                                           monkeypatch):
        e, fit, _ = desk_instance(seed=1)
        built, given = [], []
        real_model, real_search = loop.search_model, loop.find_counterexamples

        def recording_model(*a, **kw):
            built.append(real_model(*a, **kw))
            return built[-1]

        def recording_search(*a, **kw):
            given.append(a[0])
            return real_search(*a, **kw)

        monkeypatch.setattr(loop, "search_model", recording_model)
        monkeypatch.setattr(loop, "find_counterexamples", recording_search)
        res = run_full_space(e, fit)
        assert len(built) == 1
        assert len(given) == len(res.records) == 2
        assert all(s is built[0] for s in given)

    def test_records_carry_halvings_and_tie_repairs(self, monkeypatch):
        # a margin of 10x the original weights' lowest halves 4 times, and
        # one forced slip makes the first weight solve re-solve once
        e, fit, _ = desk_instance(seed=1)
        lowest = pruner._w0_min_strict_margin(
            pruner.PrunerProblem(ensemble=e, points=fit.rows))
        real_recheck = pruner._recheck
        slips = []

        def recheck(prob, w):
            if not slips:
                slips.append(1)
                return [(0, 1 - prob._classes[0])]
            return real_recheck(prob, w)

        monkeypatch.setattr(pruner, "_recheck", recheck)
        res = run_full_space(e, fit, eps_margin=10.0 * lowest)
        assert res.certified
        assert [r.halvings for r in res.records] == [4] * len(res.records)
        assert [r.tie_repair for r in res.records] == (
            [True] + [False] * (len(res.records) - 1))
        dump = res.records[0].to_json()
        assert (dump["halvings"], dump["tie_repair"]) == (4, True)


class TestExitNotes:
    def test_uncertified_search_is_noted(self):
        e, fit, _ = desk_instance(seed=60)
        res = run_full_space(e, fit, node_limit=1)
        assert not res.certified
        assert set(res.records[-1].oracle_statuses.values()) == {"iter_limit"}
        assert res.records[-1].note == "counterexample search uncertified"

    def test_iteration_limit_is_noted(self):
        e, fit, _ = desk_instance(seed=62)
        res = run_full_space(e, fit, max_iterations=1)
        assert not res.certified
        assert [r.note for r in res.records] == ["iteration limit reached"]

    @pytest.mark.parametrize("error", [SolverUncertified, MarginSlip])
    def test_uncertified_weight_solve_is_noted(self, monkeypatch, error):
        def solve_pruner(prob, **kw):
            raise error("stub")

        monkeypatch.setattr(loop, "solve_pruner", solve_pruner)
        e, fit, _ = desk_instance(seed=60)
        res = run_full_space(e, fit)
        assert not res.certified
        assert res.guarantee_scope == UNCERTIFIED
        assert [r.note for r in res.records] == [
            "weight solve did not certify: stub"]

    def test_margin_above_the_original_weights_raises(self):
        e, fit, _ = desk_instance(seed=60)
        with pytest.raises(InfeasibleAtEpsilon):
            run_full_space(e, fit, eps_margin=1e9)


class TestInDistribution:
    def test_certified_region_equivalence(self):
        e, fit, cal = desk_instance(seed=70)
        cfg = PruneConfig(alpha=0.3)
        res = run(e, fit, cal, cfg)
        assert res.certified
        if math.isinf(res.tau):
            assert res.guarantee_scope == FULL_SPACE
        else:
            assert res.guarantee_scope == IN_DISTRIBUTION
            score = fit_score_model("chowliu", e, fit)
            bad = check_equivalence_exhaustive(
                e, e.weights0, res.weights, region=(score, res.tau))
            assert bad == []

    def test_never_sparser_than_full_space_is_false_direction(self):
        # the in-distribution result is at least as sparse as full space
        e, fit, cal = desk_instance(seed=71)
        fs = run_full_space(e, fit)
        ind = run(e, fit, cal, PruneConfig(alpha=0.5))
        assert fs.certified and ind.certified
        assert ind.support_size <= fs.support_size

    def test_infinite_tau_matches_full_space_trace(self):
        e, fit, _ = desk_instance(seed=72)
        # calibration set so small that tau is +inf at this alpha
        tiny_cal = fit.subset(range(2))
        ind = run(e, fit, tiny_cal, PruneConfig(alpha=0.05))
        assert math.isinf(ind.tau)
        fs = run_full_space(e, fit)
        assert ind.guarantee_scope == FULL_SPACE
        assert np.allclose(ind.weights, fs.weights)
        assert ind.iterations == fs.iterations
        for ra, rb in zip(ind.records, fs.records):
            assert ra.pruner_objective == rb.pruner_objective
            assert ra.oracle_statuses == rb.oracle_statuses

    def test_leaf_support_region_certifies(self):
        e, fit, cal = desk_instance(seed=77)
        cfg = PruneConfig(alpha=0.4, score_kind="leafsupport")
        res = run(e, fit, cal, cfg)
        assert res.certified
        if math.isfinite(res.tau):
            score = fit_score_model("leafsupport", e, fit)
            bad = check_equivalence_exhaustive(
                e, e.weights0, res.weights, region=(score, res.tau))
            assert bad == []

    def test_isolation_forest_region_certifies(self):
        e, fit, cal = desk_instance(seed=78)
        cfg = PruneConfig(alpha=0.4, score_kind="iforest", if_trees=3,
                          if_max_samples=16)
        score = fit_score_model("iforest", e, fit, if_trees=3,
                                if_max_samples=16, seed=0)
        res = run(e, fit, cal, cfg, score=score)
        assert res.certified
        if math.isfinite(res.tau):
            bad = check_equivalence_exhaustive(
                e, e.weights0, res.weights, region=(score, res.tau))
            assert bad == []

    def test_alpha_monotone_support(self):
        e, fit, cal = desk_instance(seed=73, n_cal=24)
        supports = []
        for alpha in (0.1, 0.4, 0.7):
            res = run(e, fit, cal, PruneConfig(alpha=alpha))
            assert res.certified
            supports.append(res.support_size)
        assert supports[0] >= supports[1] >= supports[2]

    def test_iteration_bound_on_enumerable_instance(self):
        e, fit, cal = desk_instance(seed=74)
        res = run(e, fit, cal, PruneConfig(alpha=0.4))
        assert res.certified
        if math.isfinite(res.tau):
            score = fit_score_model("chowliu", e, fit)
            cl = score
            n_states = 1
            for j in cl.order:
                n_states *= cl.grid.n_bins(j)
            bound = min(n_states, math.exp(res.tau)) + 1
            assert res.iterations <= bound

    def test_constraint_set_growth(self):
        e, fit, cal = desk_instance(seed=75)
        res = run(e, fit, cal, PruneConfig(alpha=0.4))
        sizes = [r.n_constraints for r in res.records]
        assert all(b > a for a, b in zip(sizes[:-1], sizes[1:]))

    def test_result_json_shape(self):
        e, fit, cal = desk_instance(seed=76)
        res = run(e, fit, cal, PruneConfig(alpha=0.5))
        dump = res.to_json()
        assert set(dump) >= {"weights", "iterations", "tau", "certified",
                             "guarantee_scope", "records", "config"}
        assert len(dump["weights"]) == e.n_trees
        assert dump["config"]["alpha"] == 0.5


class TestMarginTightening:
    def test_duplicate_counterexample_tightens_then_ends_uncertified(
            self, monkeypatch, caplog):
        # a search that keeps returning a warm-start cell: the loop retries
        # once at 10x the default margin, then gives up uncertified
        e, fit, _ = desk_instance(seed=60)
        x = np.asarray(fit.rows[0], dtype=float)
        dup = Counterexample(x=tuple(x), original_class=0, pruned_class=1)
        eps_used = []
        real_solve_pruner = loop.solve_pruner

        def solve_pruner(prob, **kw):
            eps_used.append(prob.eps)
            return real_solve_pruner(prob, **kw)

        monkeypatch.setattr(loop, "solve_pruner", solve_pruner)
        monkeypatch.setattr(
            loop, "find_counterexamples",
            lambda *a, **kw: OracleResult(certified=True, found=[dup]))
        with caplog.at_level(logging.INFO, logger="equiprune"):
            res = run_full_space(e, fit)
        assert eps_used == [default_margin(e), 10.0 * default_margin(e)]
        assert any("margin tightened 10x" in r.getMessage()
                   for r in caplog.records)
        assert [r.note for r in res.records] == [
            "duplicate counterexample: margin tightened 10x",
            "duplicate counterexample after tightening"]
        assert not res.certified
        assert res.guarantee_scope == UNCERTIFIED

    def test_retry_does_not_count_as_an_iteration(self, monkeypatch):
        # one allowed iteration: the tightening retry reruns it, and the
        # result reports one iteration with both records
        e, fit, _ = desk_instance(seed=60)
        x = np.asarray(fit.rows[0], dtype=float)
        dup = Counterexample(x=tuple(x), original_class=0, pruned_class=1)
        monkeypatch.setattr(
            loop, "find_counterexamples",
            lambda *a, **kw: OracleResult(certified=True, found=[dup]))
        res = run_full_space(e, fit, max_iterations=1)
        assert [r.iteration for r in res.records] == [1, 1]
        assert res.iterations == 1


def test_batched_calibration_matches_scalar_scores():
    e, fit, cal = desk_instance(seed=61)
    for kind in ("chowliu", "leafsupport", "iforest"):
        score = fit_score_model(kind, e, fit, if_trees=3, if_max_samples=16)
        res = run(e, fit, cal, PruneConfig(alpha=0.3, score_kind=kind),
                  score=score)
        want = calibrate([scalar_score(score, e, x) for x in cal.rows], 0.3)
        assert res.calibration == want
