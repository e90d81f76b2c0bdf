import hashlib
import json
import math
import sys
import threading

import numpy as np
import pytest

from conftest import (
    blob_dataset,
    desk_instance,
    fix_cell,
    huge_threshold_flip,
    iter_cells,
    predict_class,
)
from equiprune import oracle
from equiprune.data import Dataset
from equiprune.ensemble import (
    Ensemble,
    Internal,
    Leaf,
    ThresholdIndex,
    threshold_index,
    train_boosted,
)
from equiprune.errors import Unbounded
from equiprune.milp import INFEASIBLE, OPTIMAL, MilpModel, _csr, export_lp, solve
from equiprune.oracle import build_pair_milp, find_counterexamples, search_model
from equiprune.plausibility import ScoreModel, fit_score_model
from equiprune.verify import check_equivalence_exhaustive


def stump(threshold, left, right, feature=0):
    return Internal(feature=feature, threshold=threshold,
                    left=Leaf(scores=left), right=Leaf(scores=right))


def flip_instance():
    """Two trees on one feature; dropping tree B flips exactly (0.5, 1.0]."""
    a = stump(0.5, (1.0, 0.0), (0.3, 0.7))
    b = stump(1.0, (0.5, 0.0), (0.0, 1.0))
    e = Ensemble(trees=[a, b], weights0=np.ones(2), n_classes=2, n_features=1)
    w_drop = np.array([2.0, 0.0])
    return e, w_drop


def test_mu_at_refuses_a_threshold_the_index_lacks():
    enc = oracle.FeatureEncoding(
        ThresholdIndex(per_feature=((0.5, 1.5), ())), MilpModel())
    assert enc.mu_at(0, 1.5) == enc.mu[0][1]
    for j, threshold in ((0, 1.0), (0, 2.0), (1, 0.5)):
        with pytest.raises(ValueError, match=rf"threshold {threshold} not "
                           rf"indexed for feature {j}"):
            enc.mu_at(j, threshold)


class TestReconstructPoint:
    """A solved cell is decoded to ``ThresholdIndex.representatives``."""

    def test_bounded_interval_right_endpoint(self):
        theta = ThresholdIndex(per_feature=((0.3, 0.7),))
        assert theta.representatives()[0][1] == 0.7  # interval (0.3, 0.7]

    def test_right_unbounded_plus_one(self):
        theta = ThresholdIndex(per_feature=((0.3, 0.7),))
        assert theta.representatives()[0][2] == 0.7 + 1.0  # (0.7, inf)

    def test_right_unbounded_past_2_53_lies_above_its_threshold(self):
        # where t + 1.0 rounds back to t, the next float above t stands in
        theta = ThresholdIndex(per_feature=((1e17,), (-1e17,),
                                            (0.3, 2.0 ** 53)))
        reps = theta.representatives()
        assert reps[0][1] == np.nextafter(1e17, np.inf) > 1e17
        assert reps[1][1] == np.nextafter(-1e17, np.inf) > -1e17
        assert reps[2][2] == 2.0 ** 53 + 2.0

    def test_fully_unbounded_zero(self):
        theta = ThresholdIndex(per_feature=((),))
        assert theta.representatives()[0].tolist() == [0.0]

    def test_reconstructed_point_routes_to_cell_leaves(self):
        # the found point reaches the leaves the solved pair MILP picked
        e, w_drop = flip_instance()
        res = find_counterexamples(search_model(e), e.weights0, w_drop)
        assert res.found
        for cx in res.found:
            c, c2 = cx.original_class, cx.pruned_class
            # the search builds the candidate rows at the original total
            w = w_drop * (e.weights0.sum() / w_drop.sum())
            model, _, leaf_vars = build_pair_milp(search_model(e),
                                                  e.weights0, w, c, c2)
            sol = solve(model)
            assert sol.status == OPTIMAL
            # one indicator per stacked leaf row: the picked rows are the
            # reached leaves' rows
            reached = e.leaf_matrix([cx.x])[0] + e._stacked.first_leaf[:-1]
            picked = np.flatnonzero(sol.values[leaf_vars] > 0.5)
            assert picked.tolist() == reached.tolist()


class TestFindCounterexamples:
    def test_identical_weights_certified_empty(self):
        e, _ = flip_instance()
        res = find_counterexamples(search_model(e), e.weights0, e.weights0)
        assert res.certified
        assert res.found == []
        assert all(s == "infeasible" for s in res.pair_statuses.values())

    def test_flip_cell_found_and_matches_verifier(self):
        e, w_drop = flip_instance()
        res = find_counterexamples(search_model(e), e.weights0, w_drop)
        assert not res.certified or res.found
        assert len(res.found) == 1
        cx = res.found[0]
        assert cx.original_class == 0 and cx.pruned_class == 1
        assert cx.x[0] == 1.0  # the right endpoint of the cell (0.5, 1.0]
        disagreements = check_equivalence_exhaustive(e, e.weights0, w_drop)
        assert len(disagreements) == 1
        assert disagreements[0].x[0] == 1.0

    def test_finds_the_right_unbounded_cell_past_2_53(self):
        e, w = huge_threshold_flip()
        res = find_counterexamples(search_model(e), e.weights0, w)
        assert res.certified
        (cx,) = res.found
        assert cx.x[0] > 1e17
        assert (cx.original_class, cx.pruned_class) == (0, 1)

    @pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-6])
    def test_flip_found_at_every_candidate_scale(self, scale):
        # predictions do not depend on the scale of w, so neither may the
        # search: at 1e-6 the flip's margin (8e-7) sits below EPS_STRICT
        e, w_drop = flip_instance()
        res = find_counterexamples(search_model(e), e.weights0,
                                   w_drop * scale)
        assert len(res.found) == 1
        cx = res.found[0]
        assert cx.x[0] == 1.0
        assert (cx.original_class, cx.pruned_class) == (0, 1)

    def test_region_constraint_hides_out_of_region_flip(self):
        e, w_drop = flip_instance()
        # fit mass concentrated left of 0.5: the flipped cell is implausible
        from conftest import blob_dataset
        from equiprune.data import Dataset

        rows = np.concatenate([np.full(30, 0.2), np.full(10, 0.4)])[:, None]
        fit = Dataset(rows=rows, labels=None,
                      feature_meta=blob_dataset(4, p=1).feature_meta)
        score = fit_score_model("chowliu", e, fit, bins=2)
        flip_score = score.score(e, np.array([1.0]))
        inside_score = score.score(e, np.array([0.2]))
        assert inside_score < flip_score
        tau = (inside_score + flip_score) / 2
        res = find_counterexamples(search_model(e, score, tau), e.weights0,
                                   w_drop)
        assert res.certified
        assert res.found == []
        # the verifier agrees once the region filter is applied
        assert check_equivalence_exhaustive(e, e.weights0, w_drop,
                                            region=(score, tau)) == []
        # and still reports the flip without the filter
        assert check_equivalence_exhaustive(e, e.weights0, w_drop)

    def test_recheck_drops_a_point_that_does_not_flip(self, monkeypatch):
        # the 0->1 pair solves, but its point decodes into a cell where
        # both weightings predict 0 (a margin slip): it is dropped, and the
        # search is uncertified
        e, w_drop = flip_instance()
        monkeypatch.setattr(oracle, "_decode_point",
                            lambda *args: np.array([0.0]))
        res = find_counterexamples(search_model(e), e.weights0, w_drop)
        assert res.pair_statuses[(0, 1)] == OPTIMAL
        assert res.found == []
        assert not res.certified

    def test_soundness_recheck_on_random_instances(self, lp_path):
        for seed in range(3):
            e, fit, _ = desk_instance(seed=seed + 10)
            rng = np.random.default_rng(seed)
            w = e.weights0.copy()
            w[rng.integers(e.n_trees)] = 0.0
            res = find_counterexamples(search_model(e), e.weights0, w)
            for cx in res.found:
                x = np.asarray(cx.x)
                assert predict_class(e, e.weights0, x) == cx.original_class
                assert predict_class(e, w, x) == cx.pruned_class
                assert cx.original_class != cx.pruned_class

    def test_certified_empty_agrees_with_exhaustive(self, lp_path):
        for seed in range(3):
            e, fit, _ = desk_instance(seed=seed + 20)
            rng = np.random.default_rng(seed)
            w = e.weights0.copy()
            w[rng.integers(e.n_trees)] = 0.0
            res = find_counterexamples(search_model(e), e.weights0, w)
            disagreements = check_equivalence_exhaustive(e, e.weights0, w)
            if res.certified and not res.found:
                assert disagreements == []
            if disagreements:
                assert res.found

    def test_differential_random_weight_vectors(self, lp_path):
        # oracle vs exhaustive enumeration across random reweightings:
        # certified-empty iff no disagreeing cell; every find is real
        rng = np.random.default_rng(123)
        agree_empty = 0
        agree_found = 0
        for seed in range(6):
            e, fit, _ = desk_instance(seed=90 + seed)
            for _ in range(3):
                w = e.weights0 * rng.uniform(0.2, 2.0, size=e.n_trees)
                drop = rng.integers(0, e.n_trees, size=rng.integers(0, 3))
                w[drop] = 0.0
                if np.count_nonzero(w) == 0:
                    continue
                res = find_counterexamples(search_model(e), e.weights0, w)
                bad = check_equivalence_exhaustive(e, e.weights0, w)
                bad_cells = {tuple(np.asarray(d.x)) for d in bad}
                for cx in res.found:
                    assert tuple(cx.x) in bad_cells
                if res.certified and not res.found:
                    assert bad == []
                    agree_empty += 1
                if bad:
                    assert res.found
                    agree_found += 1
        assert agree_empty + agree_found >= 10  # both branches exercised

    def test_region_monotonicity(self):
        e, fit, _ = desk_instance(seed=31)
        score = fit_score_model("chowliu", e, fit, bins=3)
        rng = np.random.default_rng(0)
        w = e.weights0.copy()
        w[rng.integers(e.n_trees)] = 0.0
        taus = sorted(score.score(e, x) for x in fit.rows)
        tau_hi = taus[len(taus) // 2]
        tau_lo = taus[0]
        res_hi = find_counterexamples(search_model(e, score, tau_hi),
                                      e.weights0, w)
        if res_hi.certified and not res_hi.found:
            res_lo = find_counterexamples(search_model(e, score, tau_lo),
                                          e.weights0, w)
            assert res_lo.certified and not res_lo.found

class TestMilpSize:
    def test_binary_count_bound(self):
        e, fit, _ = desk_instance(seed=41)
        score = fit_score_model("chowliu", e, fit, bins=3)
        theta = threshold_index(e)
        tau = max(score.score(e, x) for x in fit.rows)
        model, _, _ = build_pair_milp(search_model(e, score, tau),
                                      e.weights0, e.weights0, 0, 1)
        n_binary = sum(1 for v in model.variables if v.kind == "binary")
        p = e.n_features
        B = max(score.grid.n_bins(j) for j in score.order)
        cap = (sum(len(theta.thresholds(j)) for j in range(p))
               + sum(len(e.leaves(m)) for m in range(e.n_trees))
               + p * B + p * B * B)
        assert n_binary <= cap

    def test_dump_writes_lp_and_solution(self, tmp_path):
        e, w_drop = flip_instance()
        find_counterexamples(search_model(e), e.weights0, w_drop,
                             dump_dir=str(tmp_path))
        files = sorted(f.name for f in tmp_path.iterdir())
        assert "pair_0_1.lp" in files
        assert "pair_0_1.sol.json" in files


def three_class_instance():
    """Six trees over three classes with two of them dropped: of the six
    class pairs, four hold a counterexample and two are infeasible."""
    ds = blob_dataset(60, p=2, seed=2)
    ds = Dataset(rows=ds.rows, feature_meta=ds.feature_meta,
                 labels=np.where(np.arange(60) % 3 == 0, 2, ds.labels),
                 label_names=("0", "1", "2"))
    e = train_boosted(ds, n_rounds=2, max_depth=2)
    w = e.weights0.copy()
    w[[0, 4]] = 0.0
    return e, w


def serial_search(e, w):
    """Reference: each pair MILP built and solved one after another on the
    calling thread. Returns {(c, c2): (model, mu, solution)}."""
    w_search = w * (e.weights0.sum() / w.sum())
    out = {}
    for c in range(e.n_classes):
        for c2 in range(e.n_classes):
            if c2 != c:
                model, mu, _ = build_pair_milp(search_model(e),
                                               e.weights0, w_search, c, c2)
                out[(c, c2)] = (model, mu, solve(model))
    return out


class TestConcurrentSearch:
    """The pair MILPs run on worker threads; the result is the serial one."""

    @pytest.fixture
    def solve_threads(self, monkeypatch):
        """Names of the threads the pair solves ran on."""
        names = set()
        real_solve = oracle.solve

        def recording_solve(model, **kw):
            names.add(threading.current_thread().name)
            return real_solve(model, **kw)

        monkeypatch.setattr(oracle, "solve", recording_solve)
        return names

    @pytest.mark.parametrize("cpus", [None, 1, 4])
    def test_matches_serial_solves(self, cpus, monkeypatch, solve_threads):
        # 6 pairs, more than the workers; None keeps the host's affinity.
        # At 4 the workers may outnumber the cores, and threads switch often.
        if cpus is not None:
            monkeypatch.setattr(oracle.os, "sched_getaffinity",
                                lambda pid: set(range(cpus)), raising=False)
        e, w = three_class_instance()
        ref = serial_search(e, w)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            res = find_counterexamples(search_model(e), e.weights0, w)
        finally:
            sys.setswitchinterval(interval)
        assert list(res.pair_solutions) == list(ref)
        reps = threshold_index(e).representatives()
        want_found = []
        for pair, (_, mu, sol) in ref.items():
            got = res.pair_solutions[pair]
            assert (got.status, got.objective, got.nodes, got.lp_iterations) \
                == (sol.status, sol.objective, sol.nodes, sol.lp_iterations)
            if sol.values is None:
                assert got.values is None
            else:
                assert got.values.tobytes() == sol.values.tobytes()
                want_found.append(
                    (pair, tuple(oracle._decode_point(sol.values, mu, reps))))
        assert [((cx.original_class, cx.pruned_class), cx.x)
                for cx in res.found] == want_found
        assert len(want_found) == 4
        assert res.nodes == sum(sol.nodes for _, _, sol in ref.values())
        workers = min(6, cpus or oracle._usable_cpus())
        assert 1 <= len(solve_threads) <= workers
        assert threading.main_thread().name not in solve_threads

    def test_usable_cpus_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(oracle.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(oracle.os, "cpu_count", lambda: 3)
        assert oracle._usable_cpus() == 3

    def test_solver_error_surfaces_unchanged(self, monkeypatch):
        e, w = three_class_instance()
        baseline = threading.active_count()
        err = Unbounded("objective unbounded in the LP relaxation")
        calls = []
        lock = threading.Lock()
        real_solve = oracle.solve

        def failing_solve(model, **kw):
            with lock:
                calls.append(len(calls))
                k = calls[-1]
            if k == 2:
                raise err
            return real_solve(model, **kw)

        monkeypatch.setattr(oracle, "solve", failing_solve)
        with pytest.raises(Unbounded) as info:
            find_counterexamples(search_model(e), e.weights0, w)
        assert info.value is err
        assert threading.active_count() == baseline

    def test_dump_writes_the_serial_files(self, tmp_path):
        e, w = three_class_instance()
        find_counterexamples(search_model(e), e.weights0, w,
                             dump_dir=str(tmp_path / "got"))
        for (c, c2), (model, _, sol) in serial_search(e, w).items():
            oracle._dump_pair(str(tmp_path / "want"), c, c2, model, sol)
        got, want = tmp_path / "got", tmp_path / "want"
        names = sorted(f.name for f in want.iterdir())
        assert sorted(f.name for f in got.iterdir()) == names
        assert len(names) == 12
        for name in names:
            if name.endswith(".lp"):
                assert (got / name).read_bytes() == (want / name).read_bytes()
                continue
            a, b = (json.loads((d / name).read_text()) for d in (got, want))
            # the solve's own seconds are the only thing that may differ
            for key in ("wall_time_s", "build_s", "lp_s"):
                del a[key], b[key]
            assert a == b


# sha256 of export_lp for the pair MILPs (0 -> 1, 1 -> 0) of the instance in
# test_pair_milp_formulation_is_pinned; a deliberate change to the encoding
# re-pins them
PAIR_LP_SHA256 = {
    "none": ("c974d4de3e889c2c7df0f70672a31ba6d119bedd68ebcfb821d1983d69492d30",
             "ff086f695e06332a6546e548459fd038fa8b53e9188b4cf00df9a3a67ceedcc2"),
    "chowliu": ("b81a5e077271eefdf1c35c5cf61431cbf52f303945469f7f1063c54c7e187d38",
                "4b8fde263de12a26903c254d1efa1f71374b12576cc70cde7f3f09b5de9cf44e"),
    "leafsupport": ("1b3aec1e8953e3262b603a8ba1916753d58665c82b93d4d74d409567ffdcbb4e",
                    "af691b03c010804190dfedeefee8cf8efe3ee23a1128c60a481f27a6a54b0cab"),
    "iforest": ("5c8441ff08165e9fc63422b033b15768f532bbcb8d0108e9a1488e83e83058c1",
                "3cc59e14c6cb530a29ccde9c2b3dafd6028d8ed250ebc4c6268242f686c8b1e2"),
}


# the same for a depth-4 ensemble, alone, with leaf support and with an
# isolation forest of depth 6 (test_deep_pair_milp_formulation_is_pinned)
DEEP_PAIR_LP_SHA256 = {
    "none": ("3cb3b16e2ed359ec7eba932ea5b08c834d68b981ae8f07853debd29251c0771c",
             "2f79ab742b1d1844e4f0cf65e2d382258725af51afbdd0a42e648afadadf4d69"),
    "leafsupport": ("993fde8ba0cd13809ce2c7d1477fee4b03435c75b0a3ccd14bb5d8ec30507bc3",
                    "008ce023ccd2b473056c4de720ceb73f7f4342f829fde943cdfaacf659838671"),
    "iforest": ("f171fa91b72c289222e2ade9107e4ed984a873c770e44a96ff92ee57fe896200",
                "43ecee98a21da35a8b070256fbdcea0f02dbea5a2283a286375db804674b71a7"),
}


def pair_lp_sha256(e, score, tau, w):
    """sha256 of export_lp of the pair MILPs 0 -> 1 and 1 -> 0."""
    return tuple(
        hashlib.sha256(export_lp(build_pair_milp(
            search_model(e, score, tau), e.weights0, w, c, c2)[0]
        ).encode()).hexdigest()
        for c, c2 in ((0, 1), (1, 0)))


@pytest.mark.parametrize("kind", list(PAIR_LP_SHA256))
def test_pair_milp_formulation_is_pinned(kind):
    # both pair MILPs of a small fixed instance, byte for byte, with each
    # score family's encoding active at the median fit-set score
    e, fit, _ = desk_instance(seed=41)
    w = e.weights0.copy()
    w[0] = 0.0
    score, tau = None, math.inf
    if kind != "none":
        score = fit_score_model(kind, e, fit, bins=3, if_trees=2,
                                if_max_samples=8)
        tau = float(np.median(score.scores(e, fit.rows)))
    assert pair_lp_sha256(e, score, tau, w) == PAIR_LP_SHA256[kind]


@pytest.mark.parametrize("kind", list(DEEP_PAIR_LP_SHA256))
def test_deep_pair_milp_formulation_is_pinned(kind):
    # leaf rows, paths and score rows of trees deeper than the desk
    # instances': 4 boosted trees of depth 4 and 3 isolation trees of
    # depth 6, the score encoding active at the median fit-set score
    fit = blob_dataset(120, p=3, seed=7, spread=0.5)
    e = train_boosted(fit, n_rounds=4, max_depth=4)
    assert e._stacked.depths.tolist() == [4] * 4
    w = e.weights0.copy()
    w[0] = 0.0
    score, tau = None, math.inf
    if kind != "none":
        score = fit_score_model(kind, e, fit, if_trees=3, if_max_samples=64)
        tau = float(np.median(score.scores(e, fit.rows)))
    if kind == "iforest":
        assert score._forest._stacked.depths.tolist() == [6] * 3
    assert pair_lp_sha256(e, score, tau, w) == DEEP_PAIR_LP_SHA256[kind]


@pytest.mark.parametrize("kind", ["none", "chowliu", "leafsupport", "iforest",
                                  "three-class"])
def test_one_search_model_builds_every_pair_as_a_standalone_build(kind):
    # one search model serves two candidate weightings, both class orders
    # (all six pairs with three classes), in either order: every pair MILP
    # exports as a standalone build does, and its LP arrays are those of
    # the walk of its rows
    if kind == "three-class":
        e, w_a = three_class_instance()
        score, tau = None, math.inf
    else:
        e, fit, _ = desk_instance(seed=41)
        w_a = e.weights0.copy()
        w_a[0] = 0.0
        score, tau = None, math.inf
        if kind != "none":
            score = fit_score_model(kind, e, fit, bins=3, if_trees=2,
                                    if_max_samples=8)
            tau = float(np.median(score.scores(e, fit.rows)))
    w_b = e.weights0.copy()
    w_b[-1] = 0.0
    search = search_model(e, score, tau)
    builds = [(w, c, c2) for w in (w_a, w_b) for c in range(e.n_classes)
              for c2 in range(e.n_classes) if c2 != c]
    for order in (builds, builds[::-1]):
        for w, c, c2 in order:
            model, mu, leaf_vars = build_pair_milp(search, e.weights0, w, c,
                                                   c2)
            alone, alone_mu, alone_leaves = build_pair_milp(
                search_model(e, score, tau), e.weights0, w, c, c2)
            assert export_lp(model) == export_lp(alone)
            assert mu == alone_mu
            assert np.array_equal(leaf_vars, alone_leaves)
            A, lo, hi = model.rows()
            for got, want in zip((A.indptr, A.indices, A.data, lo, hi),
                                 _csr(alone.constraints)):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["chowliu", "leafsupport", "iforest"])
def test_the_score_row_admits_exactly_the_cells_at_most_tau(kind):
    # each cell of the grid fixed in the search model alone (its cell and
    # region rows, no class rows) is feasible exactly when its
    # representative scores at most tau, tau halfway between two adjacent
    # distinct cell scores
    e, fit, _ = desk_instance(seed=41)
    score = fit_score_model(kind, e, fit, bins=3, if_trees=2,
                            if_max_samples=8)
    cells = list(iter_cells(threshold_index(e,
                                            extra=score.extra_thresholds())))
    scores = score.scores(e, np.array([rep for _, rep in cells]))
    distinct = np.unique(scores)
    k = len(distinct) // 2
    tau = float((distinct[k - 1] + distinct[k]) / 2)
    search = search_model(e, score, tau)
    assert len(search.reps) == e.n_features
    for (indices, rep), s in zip(cells, scores):
        assert np.array_equal(rep, [search.reps[j][i]
                                    for j, i in enumerate(indices)])
        model = MilpModel(variables=list(search.variables))
        model.add_rows(search.cells)
        model.add_rows(search.region)
        fix_cell(model, search.mu, indices)
        model.set_objective({}, sense="min")
        want = OPTIMAL if s <= tau else INFEASIBLE
        assert solve(model).status == want, (indices, s, tau)


def test_an_infinite_tau_searches_the_whole_space(monkeypatch):
    # the isolation forest adds thresholds of its own; at tau = +inf the
    # search model indexes none of them, encodes no score rows, and its
    # search never evaluates the score
    e, fit, _ = desk_instance(seed=41)
    w = np.zeros(e.n_trees)
    w[-1] = 1.0  # the last tree alone flips two cells
    score = fit_score_model("iforest", e, fit, if_trees=2, if_max_samples=8)
    assert score.extra_thresholds()
    search = search_model(e, score, math.inf)
    assert (search.score, search.tau) == (None, math.inf)
    for c, c2 in ((0, 1), (1, 0)):
        got, want = (export_lp(build_pair_milp(s, e.weights0, w, c, c2)[0])
                     for s in (search, search_model(e)))
        assert got == want
    calls = []
    monkeypatch.setattr(ScoreModel, "score",
                        lambda *a: calls.append(a) or math.inf)
    res = find_counterexamples(search, e.weights0, w)
    assert res.found and calls == []
