import itertools
import json
import math

import numpy as np
import pytest

from conftest import chow_liu_state_score, fix_cell, leaf_of, scalar_score, score_chow_liu
from equiprune import ensemble
from equiprune.data import CONTINUOUS, Dataset, FeatureMeta
from equiprune.ensemble import (
    Ensemble,
    Internal,
    Leaf,
    ThresholdIndex,
    predict_classes,
    threshold_index,
    train_boosted,
)
from equiprune.errors import DegenerateGrid, NoThresholds, SchemaError, TooFewSamples
from equiprune.milp import INFEASIBLE, OPTIMAL, MilpModel, solve
from equiprune.oracle import FeatureEncoding, encode_region
from equiprune.plausibility import (
    BinGrid,
    ChowLiuModel,
    ScoreModel,
    average_path_length,
    build_bin_grid,
    fit_chow_liu,
    fit_isolation_forest,
    fit_leaf_support,
    fit_score_model,
    load_score_model,
    SCORE_KINDS,
    mutual_information,
    save_score_model,
)
from equiprune.synth import MoonsSpec, gen_moons
from equiprune.verify import check_equivalence_exhaustive


def dataset(rows):
    rows = np.asarray(rows, dtype=float)
    meta = tuple(FeatureMeta(name=f"x{j}", kind=CONTINUOUS)
                 for j in range(rows.shape[1]))
    return Dataset(rows=rows, labels=None, feature_meta=meta)


def binary_grid(p):
    """One boundary at 0.5 per feature: value <= 0.5 is bin 0, else bin 1."""
    return BinGrid(boundaries=tuple((0.5,) for _ in range(p)),
                   included=tuple([True] * p))


class TestBinGrid:
    def test_all_quantiles_round_to_single_threshold(self):
        theta = ThresholdIndex(per_feature=((0.5,),))
        ds = dataset([[0.2], [0.5], [0.9], [0.1]])
        grid = build_bin_grid(ds, B=4, theta=theta)
        assert grid.boundaries[0] == (0.5,)
        assert grid.n_bins(0) == 2

    def test_midway_tie_rounds_to_larger(self):
        theta = ThresholdIndex(per_feature=((1.0, 2.0),))
        ds = dataset([[1.5], [1.5], [1.5], [1.5]])
        grid = build_bin_grid(ds, B=2, theta=theta)
        assert grid.boundaries[0] == (2.0,)

    def test_unsplit_feature_excluded(self):
        theta = ThresholdIndex(per_feature=((0.5,), ()))
        ds = dataset([[0.2, 1.0], [0.8, 2.0]])
        grid = build_bin_grid(ds, B=2, theta=theta)
        assert grid.included == (True, False)

    def test_no_thresholds_anywhere(self):
        theta = ThresholdIndex(per_feature=((), ()))
        with pytest.raises(NoThresholds):
            build_bin_grid(dataset([[0.0, 0.0]]), B=2, theta=theta)

    def test_boundaries_subset_of_thresholds(self):
        rng = np.random.default_rng(0)
        theta = ThresholdIndex(per_feature=(tuple(sorted(rng.uniform(0, 1, 5))),
                                            tuple(sorted(rng.uniform(0, 1, 3)))))
        ds = dataset(rng.uniform(0, 1, size=(50, 2)))
        grid = build_bin_grid(ds, B=4, theta=theta)
        for j in range(2):
            assert set(grid.boundaries[j]) <= set(theta.thresholds(j))

    def test_bin_of_boundary_goes_low(self):
        grid = binary_grid(1)
        assert grid.bins_of(0, [0.5, 0.5000001]).tolist() == [0, 1]


def uniform_two_feature_fit():
    """All four (0/1, 0/1) states equally often: exactly uniform tables."""
    rows = [[a, b] for a in (0.0, 1.0) for b in (0.0, 1.0)] * 5
    return dataset(rows)


class TestChowLiu:
    def test_independent_uniform_scores_log4(self):
        ds = uniform_two_feature_fit()
        model = fit_chow_liu(ds, binary_grid(2), beta=1.0)
        for a in (0.0, 1.0):
            for b in (0.0, 1.0):
                assert model.score(None, [a, b]) == pytest.approx(math.log(4.0), abs=1e-12)

    def test_correlated_features_select_edge(self):
        # x1 == x0 exactly: MI = log 2, edge (0, 1) must be in the tree
        rows = [[a, a] for a in (0.0, 1.0)] * 10
        ds = dataset(rows)
        disc0 = np.array([int(r[0]) for r in rows])
        assert mutual_information(disc0, disc0, 2, 2) == pytest.approx(math.log(2.0))
        model = fit_chow_liu(ds, binary_grid(2), beta=0.01)
        assert len(model.edges) == 1
        # conditional table near-deterministic after smoothing
        j = model.edges[0][1]
        table = model.edge_tables[j]
        assert table[0, 0] > 0.99 and table[1, 1] > 0.99

    def test_single_included_feature_has_no_edges(self):
        theta = ThresholdIndex(per_feature=((0.5,), ()))
        ds = dataset([[0.0, 7.0], [1.0, 7.0]] * 4)
        grid = build_bin_grid(ds, B=2, theta=theta)
        model = fit_chow_liu(ds, grid, beta=1.0)
        assert model.edges == []
        # score is the root negative log-likelihood alone
        expected = -math.log(model.root_table[0])
        assert model.score(None, [0.2, 7.0]) == pytest.approx(expected)

    def test_file_of_another_ensemble_is_refused(self):
        # B is trained on half of A's rows. A Chow-Liu model fitted for A
        # has boundaries that are no thresholds of B, and in its region a
        # weighting of B disagrees with B's own between two of them, where
        # the exhaustive verifier and the search never look
        ds = gen_moons(MoonsSpec(n=400, seed=1))
        A = train_boosted(ds, n_rounds=10, max_depth=2)
        B = train_boosted(ds.subset(np.arange(200)), n_rounds=10, max_depth=2)
        model = fit_score_model("chowliu", A, ds, bins=4)
        model.check_ensemble(A)
        theta = threshold_index(B)
        stray = [j for j, bounds in enumerate(model.grid.boundaries)
                 for b in bounds if b not in theta.thresholds(j)]
        assert len(stray) == 5
        rng = np.random.default_rng(2)
        w = rng.uniform(0.5, 1.5, B.n_trees)
        w[rng.permutation(B.n_trees)[:B.n_trees // 2]] = 0.0
        tau = float(np.median(model.scores(A, ds.rows)))
        X = rng.uniform(ds.rows.min(0), ds.rows.max(0), size=(20_000, 2))
        inside = model.scores(B, X) <= tau
        flips = predict_classes(B, B.weights0, X) != predict_classes(B, w, X)
        assert np.any(inside & flips)
        assert check_equivalence_exhaustive(B, B.weights0, w,
                                            region=(model, tau)) == []
        with pytest.raises(SchemaError, match=rf"\$\.boundaries\[{stray[0]}\]: "
                           "[^ ]+ is not a split threshold"):
            model.check_ensemble(B)

    def test_no_included_features_rejected(self):
        grid = BinGrid(boundaries=((),), included=(False,))
        with pytest.raises(DegenerateGrid):
            fit_chow_liu(dataset([[0.0]]), grid, beta=1.0)

    @pytest.mark.parametrize("beta", [0.0, -1.0, math.nan, math.inf])
    def test_beta_must_be_finite_and_positive(self, beta):
        # a NaN or infinite pseudo-count writes NaN tables
        grid = BinGrid(boundaries=((0.5,),), included=(True,))
        with pytest.raises(ValueError,
                           match=f"beta must be finite and > 0, got {beta}"):
            fit_chow_liu(dataset([[0.0], [1.0]]), grid, beta=beta)

    def test_score_decomposes_into_table_product(self):
        rng = np.random.default_rng(3)
        rows = rng.uniform(0, 1, size=(60, 3))
        grid = BinGrid(boundaries=((0.3, 0.7), (0.5,), (0.2, 0.6)),
                       included=(True, True, True))
        model = fit_chow_liu(dataset(rows), grid, beta=0.5)
        X = rng.uniform(0, 1, size=(20, 3))
        bins = {j: grid.bins_of(j, X[:, j]) for j in model.order}
        for r, got in enumerate(model.scores(None, X)):
            prob = model.root_table[bins[model.root][r]]
            for i, j in model.edges:
                prob *= model.edge_tables[j][bins[i][r], bins[j][r]]
            assert got == pytest.approx(-math.log(prob), abs=1e-12)

    def test_nan_cell_fits_like_inf(self):
        # routing sends a NaN right at every split and scores() bins it
        # last, as it does +inf: the fit must count it in the same bin
        rng = np.random.default_rng(5)
        rows = rng.uniform(0, 1, size=(30, 3))
        grid = BinGrid(boundaries=((0.3, 0.7), (0.5,), (0.2, 0.6)),
                       included=(True, True, True))
        with_nan, with_inf = rows.copy(), rows.copy()
        with_nan[4, 1], with_inf[4, 1] = np.nan, np.inf
        model = fit_chow_liu(dataset(with_nan), grid, beta=0.5)
        assert model.to_json() == \
            fit_chow_liu(dataset(with_inf), grid, beta=0.5).to_json()
        assert bits(model.scores(None, with_nan)) == \
            bits(model.scores(None, with_inf))

    def test_distribution_normalizes(self):
        rng = np.random.default_rng(4)
        rows = rng.uniform(0, 1, size=(40, 3))
        grid = BinGrid(boundaries=((0.4,), (0.3, 0.6), (0.5,)),
                       included=(True, True, True))
        model = fit_chow_liu(dataset(rows), grid, beta=1.0)
        total = 0.0
        bins = [range(grid.n_bins(j)) for j in model.order]
        for combo in itertools.product(*bins):
            state = dict(zip(model.order, combo))
            total += math.exp(-chow_liu_state_score(model, state))
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_root_rule_max_degree(self):
        # star: features 1 and 2 both copy feature 0 -> 0 has degree 2
        rows = [[a, a, a] for a in (0.0, 1.0)] * 8
        model = fit_chow_liu(dataset(rows), binary_grid(3), beta=0.01)
        assert model.root == 0 or len(model.edges) == 2


def grid_encoding(grid: BinGrid) -> FeatureEncoding:
    """Interval indicators over the grid's own boundaries, so that cell k of
    feature j is bin k."""
    return FeatureEncoding(ThresholdIndex(per_feature=grid.boundaries),
                           MilpModel())


class TestEncodeChowLiu:
    def test_tau_below_min_score_infeasible(self):
        ds = uniform_two_feature_fit()
        model = fit_chow_liu(ds, binary_grid(2), beta=1.0)
        enc = grid_encoding(model.grid)
        # every state scores log 4 > 1
        encode_region(enc, None, None, model.score_terms(None), 1.0)
        assert enc.model.constraints[-1].name == "score_cl"
        enc.model.set_objective({}, sense="min")
        assert solve(enc.model).status == INFEASIBLE

    def test_feasible_states_match_score_threshold(self):
        rng = np.random.default_rng(11)
        rows = rng.uniform(0, 1, size=(50, 2))
        # skew the data so state scores differ
        rows[: 30, 0] *= 0.4
        grid = binary_grid(2)
        model = fit_chow_liu(dataset(rows), grid, beta=0.5)
        scores = {}
        for combo in itertools.product(range(2), range(2)):
            state = dict(zip((0, 1), combo))
            scores[combo] = chow_liu_state_score(model, state)
        tau = float(np.median(list(scores.values())))
        for combo, s in scores.items():
            enc = grid_encoding(grid)
            encode_region(enc, None, None, model.score_terms(None), tau)
            fix_cell(enc.model, enc.mu, combo)
            enc.model.set_objective({}, sense="min")
            status = solve(enc.model).status
            assert (status == OPTIMAL) == (s <= tau), (combo, s, tau)


class TestLeafSupport:
    def ensemble(self):
        tree = Internal(feature=0, threshold=0.5,
                        left=Leaf(scores=(1.0, 0.0)), right=Leaf(scores=(0.0, 1.0)))
        return Ensemble(trees=[tree], weights0=np.ones(1), n_classes=2,
                        n_features=1)

    def test_hand_counts(self):
        e = self.ensemble()
        # counts (3, 1) with beta=1 -> p = (4/6, 2/6)
        ds = dataset([[0.1], [0.2], [0.3], [0.9]])
        model = fit_leaf_support(e, ds, beta=1.0)
        assert model.costs[0][0] == pytest.approx(math.log(6 / 4))
        assert model.costs[0][1] == pytest.approx(math.log(3.0))
        assert model.score(e, [0.0]) == pytest.approx(math.log(1.5))

    def test_unvisited_leaf_is_finite(self):
        e = self.ensemble()
        ds = dataset([[0.1], [0.2]])
        model = fit_leaf_support(e, ds, beta=1.0)
        assert math.isfinite(model.costs[0][1])
        probs = np.exp(-np.asarray(model.costs[0]))
        assert probs.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("beta", [0.0, -1.0, math.nan, math.inf])
    def test_beta_must_be_finite_and_positive(self, beta):
        with pytest.raises(ValueError,
                           match=f"beta must be finite and > 0, got {beta}"):
            fit_leaf_support(self.ensemble(), dataset([[0.1]]), beta=beta)

    def test_large_beta_limit_is_uniform(self):
        e = self.ensemble()
        ds = dataset([[0.1], [0.9], [0.9]])
        model = fit_leaf_support(e, ds, beta=1e6)
        for x in ([0.0], [1.0]):
            got = model.score(e, x)
            assert got == pytest.approx(1 * math.log(2), abs=1e-3)

    def test_additivity_across_trees(self):
        t1 = self.ensemble().trees[0]
        t2 = Internal(feature=0, threshold=0.2,
                      left=Leaf(scores=(0.5, 0.5)), right=Leaf(scores=(0.2, 0.8)))
        e = Ensemble(trees=[t1, t2], weights0=np.ones(2), n_classes=2,
                     n_features=1)
        ds = dataset([[0.1], [0.3], [0.9]])
        model = fit_leaf_support(e, ds, beta=1.0)
        x = [0.15]
        total = model.costs[0][0] + model.costs[1][0]
        assert model.score(e, x) == pytest.approx(total)

    def test_encode_single_inequality(self):
        e = self.ensemble()
        ds = dataset([[0.1], [0.2], [0.3], [0.9]])
        model = fit_leaf_support(e, ds, beta=1.0)
        enc = FeatureEncoding(threshold_index(e), MilpModel())
        # one indicator per stacked leaf row
        leaf_vars = enc.add_leaf_vars(e._stacked)
        n_rows = len(enc.model.constraints)
        tau = math.log(1.5) + 1e-9
        encode_region(enc, e, leaf_vars, model.score_terms(e), tau)
        row, = enc.model.constraints[n_rows:]
        assert row.name == "score_ls"
        assert row.coeffs == tuple(zip(leaf_vars.tolist(), model.costs[0]))
        # only the cheap leaf fits under tau
        enc.model.set_objective({int(leaf_vars[1]): 1.0}, sense="max")
        sol = solve(enc.model)
        assert sol.status == OPTIMAL
        assert sol.value(leaf_vars[1]) == 0.0


class TestIsolationForest:
    def test_path_length_closed_forms(self):
        assert average_path_length(1) == 0.0
        assert average_path_length(2) == pytest.approx(1.0)  # 2*H_1 - 2*(1/2)

    def test_manual_tree_score(self):
        # one split at depth 1, leaf holding 2 samples: h = 1 + c(2) = 2
        from equiprune.plausibility import IsolationForestModel

        tree = Internal(feature=0, threshold=0.5,
                        left=Leaf(scores=(1 + average_path_length(2),)),
                        right=Leaf(scores=(1 + average_path_length(1),)))
        model = IsolationForestModel(trees=(tree,), n_features=1)
        assert model.score(None, [0.2]) == pytest.approx(-2.0)

    def test_fit_shapes_and_determinism(self):
        rng = np.random.default_rng(0)
        ds = dataset(rng.normal(size=(50, 2)))
        m1 = fit_isolation_forest(ds, K=5, max_samples=16, seed=3)
        m2 = fit_isolation_forest(ds, K=5, max_samples=16, seed=3)
        assert m1.trees == m2.trees
        assert m1.n_trees == 5

    def test_inliers_score_below_outliers(self):
        rng = np.random.default_rng(1)
        ds = dataset(rng.normal(size=(200, 2)))
        model = fit_isolation_forest(ds, K=20, max_samples=64, seed=0)
        inlier, outlier = model.scores(None, [[0.0, 0.0], [8.0, 8.0]])
        assert inlier < outlier

    def test_identical_rows_make_one_leaf_trees(self):
        # no feature has a spread to split, so each tree is the root leaf
        # of its whole sample: h = 0 + c(n) at every point
        ds = dataset([[1.0, 2.0]] * 8)
        model = fit_isolation_forest(ds, K=3, max_samples=8, seed=0)
        assert all(isinstance(tree, Leaf) for tree in model.trees)
        scores = model.scores(None, [[1.0, 2.0], [-5.0, 9.0]])
        assert scores == pytest.approx([-average_path_length(8)] * 2)

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            fit_isolation_forest(dataset([[0.0]]), K=2, max_samples=4)

    def test_encode_constraint(self):
        from equiprune.plausibility import IsolationForestModel

        tree = Internal(feature=0, threshold=0.5,
                        left=Leaf(scores=(3.0,)), right=Leaf(scores=(1.0,)))
        model = IsolationForestModel(trees=(tree,), n_features=1)
        for cell, feasible in ((0, True), (1, False)):
            enc = FeatureEncoding(ThresholdIndex(per_feature=((0.5,),)),
                                  MilpModel())
            # the forest's own leaf indicators, one per stacked leaf row
            encode_region(enc, None, None, model.score_terms(None), -2.0)
            names = [v.name for v in enc.model.variables]
            assert names == ["mu_0_0", "z_iso0_0", "z_iso0_1"]
            row = enc.model.constraints[-1]
            assert row.name == "score_if"
            assert row.coeffs == ((1, -3.0), (2, -1.0))  # requires h >= 2
            fix_cell(enc.model, enc.mu, (cell,))
            enc.model.set_objective({}, sense="min")
            status = solve(enc.model).status
            # the shallow right leaf is infeasible
            assert status == (OPTIMAL if feasible else INFEASIBLE)


class TestScoreModelFacade:
    def make_ensemble_and_fit(self):
        rng = np.random.default_rng(2)
        rows = rng.uniform(0, 1, size=(40, 2))
        tree = Internal(feature=0, threshold=0.5,
                        left=Leaf(scores=(1.0, 0.0)), right=Leaf(scores=(0.0, 1.0)))
        tree2 = Internal(feature=1, threshold=0.4,
                         left=Leaf(scores=(0.5, 0.0)), right=Leaf(scores=(0.0, 0.5)))
        e = Ensemble(trees=[tree, tree2], weights0=np.ones(2), n_classes=2,
                     n_features=2)
        return e, dataset(rows)

    @pytest.mark.parametrize("kind", ["chowliu", "leafsupport", "iforest"])
    def test_save_load_round_trip(self, kind, tmp_path):
        e, ds = self.make_ensemble_and_fit()
        model = fit_score_model(kind, e, ds, bins=2, if_trees=3,
                                if_max_samples=8, seed=0)
        path = tmp_path / "score.json"
        save_score_model(model, path)
        model2 = load_score_model(path)
        assert isinstance(model2, ScoreModel) and model2.kind == kind
        rng = np.random.default_rng(5)
        for x in rng.uniform(0, 1, size=(10, 2)):
            assert model2.score(e, x) == pytest.approx(model.score(e, x), abs=1e-12)
        resaved = tmp_path / "resaved.json"
        save_score_model(model2, resaved)
        assert resaved.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("payload", [
        {"kind": "chowliu"},
        {"kind": "chowliu", "boundaries": [[0.5]], "included": [True],
         "root": 0, "order": [0], "parents": [], "root_table": [0.5, 0.5],
         "edge_tables": {}, "beta": 1.0},
        {"kind": "leafsupport", "costs": [["a"]], "beta": 1.0},
        {"kind": "iforest", "n_features": 1, "trees": [{"leaf": "x"}]},
        {"kind": "iforest", "n_features": 1, "trees": [3]},
        ["kind", "chowliu"],
        {"kind": ["chowliu"]},
        # tables off the grid: a one-entry root marginal for two bins, an
        # edge table of the wrong shape, an edge table for no parent
        {"kind": "chowliu", "boundaries": [[0.5]], "included": [True],
         "root": 0, "order": [0], "parents": {}, "root_table": [1.0],
         "edge_tables": {}, "beta": 1.0},
        {"kind": "chowliu", "boundaries": [[0.5], [0.5]],
         "included": [True, True], "root": 0, "order": [0, 1],
         "parents": {"1": 0}, "root_table": [0.5, 0.5],
         "edge_tables": {"1": [[0.5, 0.5]]}, "beta": 1.0},
        {"kind": "chowliu", "boundaries": [[0.5], [0.5]],
         "included": [True, True], "root": 0, "order": [0],
         "parents": {}, "root_table": [0.5, 0.5],
         "edge_tables": {"1": [[0.5, 0.5], [0.5, 0.5]]}, "beta": 1.0},
        # isolation trees: a split off the features, a NaN or bool where a
        # number belongs, no trees
        {"kind": "iforest", "n_features": 2,
         "trees": [{"feature": 7, "threshold": 0.5, "left": {"leaf": 1.0},
                    "right": {"leaf": 2.0}}]},
        {"kind": "iforest", "n_features": 2,
         "trees": [{"feature": 0, "threshold": math.nan,
                    "left": {"leaf": 1.0}, "right": {"leaf": 2.0}}]},
        {"kind": "iforest", "n_features": 2,
         "trees": [{"feature": 0, "threshold": 0.5, "left": {"leaf": True},
                    "right": {"leaf": 2.0}}]},
        {"kind": "iforest", "n_features": True, "trees": [{"leaf": 1.0}]},
        {"kind": "iforest", "n_features": 0, "trees": [{"leaf": 1.0}]},
        {"kind": "iforest", "n_features": 2, "trees": []},
    ])
    def test_malformed_file_raises_schema_error(self, tmp_path, payload):
        path = tmp_path / "score.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError):
            load_score_model(path)

    CHOW_LIU_FILE = {
        "kind": "chowliu", "boundaries": [[0.5], [0.5]],
        "included": [True, True], "root": 0, "order": [0, 1],
        "parents": {"1": 0}, "root_table": [0.5, 0.5],
        "edge_tables": {"1": [[0.5, 0.5], [0.25, 0.75]]}, "beta": 1.0}
    LEAF_SUPPORT_FILE = {"kind": "leafsupport",
                         "costs": [[0.5, 0.7], [0.1, 0.2, 0.3]], "beta": 1.0}

    @pytest.mark.parametrize("family, key, value, path", [
        # a NaN score is inside every region; a 0 has no finite -log
        ("chowliu", "root_table", [math.nan, 0.5], "$.root_table"),
        ("chowliu", "root_table", [0.0, 1.0], "$.root_table"),
        ("chowliu", "root_table", [-0.5, 1.5], "$.root_table"),
        ("chowliu", "root_table", [math.inf, 0.5], "$.root_table"),
        ("chowliu", "edge_tables", {"1": [[0.5, 0.5], [math.nan, 0.5]]},
         "$.edge_tables.1"),
        ("chowliu", "edge_tables", {"1": [[0.5, 0.5], [0.0, 1.0]]},
         "$.edge_tables.1"),
        ("chowliu", "beta", math.nan, "$.beta"),
        ("chowliu", "beta", 0.0, "$.beta"),
        ("chowliu", "beta", math.inf, "$.beta"),
        ("leafsupport", "costs", [[0.5, 0.7], [0.1, math.nan, 0.3]],
         "$.costs[1]"),
        ("leafsupport", "costs", [[-math.inf, 0.7], [0.1, 0.2, 0.3]],
         "$.costs[0]"),
        ("leafsupport", "costs", [[0.5, True], [0.1, 0.2, 0.3]],
         "$.costs[0]"),
        ("leafsupport", "beta", math.nan, "$.beta"),
        ("leafsupport", "beta", -1.0, "$.beta"),
        ("leafsupport", "beta", math.inf, "$.beta"),
    ])
    def test_numbers_out_of_range_are_schema_errors_at_their_path(
            self, tmp_path, family, key, value, path):
        payload = dict(self.CHOW_LIU_FILE if family == "chowliu"
                       else self.LEAF_SUPPORT_FILE)
        path_file = tmp_path / "score.json"
        path_file.write_text(json.dumps(payload))
        assert load_score_model(path_file).kind == family
        payload[key] = value
        path_file.write_text(json.dumps(payload))
        with pytest.raises(SchemaError) as err:
            load_score_model(path_file)
        assert err.value.path == path

    def test_extra_thresholds_only_for_iforest(self):
        e, ds = self.make_ensemble_and_fit()
        cl = fit_score_model("chowliu", e, ds, bins=2)
        assert cl.extra_thresholds() == {}
        iso = fit_score_model("iforest", e, ds, if_trees=2, if_max_samples=8)
        extras = iso.extra_thresholds()
        assert extras  # random splits exist


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


class TestBatchedScores:
    def instance(self):
        rng = np.random.default_rng(9)
        rows = rng.normal(size=(80, 3))
        labels = (rows[:, 0] + 0.5 * rows[:, 1] > 0).astype(np.int64)
        meta = tuple(FeatureMeta(name=f"x{j}", kind=CONTINUOUS)
                     for j in range(3))
        fit = Dataset(rows=rows, labels=labels, feature_meta=meta)
        return train_boosted(fit, n_rounds=6, max_depth=2), fit

    def rows(self, model, e, n=200, seed=10):
        """Random rows plus rows whose every value is a split threshold or
        a bin boundary (where routing and binning must agree exactly)."""
        rng = np.random.default_rng(seed)
        theta = threshold_index(e, extra=model.extra_thresholds())
        X = rng.normal(scale=1.5, size=(n, e.n_features))
        on = X.copy()
        for j in range(e.n_features):
            grid = list(theta.thresholds(j))
            if isinstance(model, ChowLiuModel):
                grid += list(model.grid.boundaries[j])
            if grid:
                on[:, j] = rng.choice(grid, size=n)
        return np.vstack([X, on])

    @pytest.mark.parametrize("kind", SCORE_KINDS)
    def test_scores_bitwise_equal_to_score(self, kind, tmp_path):
        # against the family's scalar function; score() is one-row scores()
        e, fit = self.instance()
        model = fit_score_model(kind, e, fit, bins=4, if_trees=5,
                                if_max_samples=16, seed=3)
        path = tmp_path / "score.json"
        save_score_model(model, path)
        for m in (model, load_score_model(path)):
            # more rows than one routing block: the sums of later blocks too
            X = self.rows(m, e, n=ensemble._ROUTE_ROWS + 20)
            assert len(X) > ensemble._ROUTE_ROWS
            want = [scalar_score(m, e, x) for x in X]
            assert bits(m.scores(e, X)) == bits(want)
            assert bits([m.score(e, x) for x in X]) == bits(want)

    def test_chow_liu_terms_use_math_log(self):
        # probabilities whose np.log and math.log differ in the last ulp on
        # common x86-64 builds: the batched sums must still match score()
        grid = BinGrid(boundaries=((0.5,), (0.5,)), included=(True, True))
        model = ChowLiuModel(
            grid=grid, root=0, order=(0, 1), parent={1: 0},
            root_table=np.array([0.9833347065534214, 0.8203077943609558]),
            edge_tables={1: np.array([[0.9668786192650846, 0.7058208604199626],
                                      [0.9829670705788488, 0.5]])},
            beta=0.0)
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0],
                      [0.5, 0.5]])
        assert bits(model.scores(None, X)) == \
            bits([score_chow_liu(model, x) for x in X])

    def test_empty_batch(self):
        e, fit = self.instance()
        for kind in SCORE_KINDS:
            model = fit_score_model(kind, e, fit, if_trees=2, if_max_samples=8)
            assert model.scores(e, np.zeros((0, 3))).shape == (0,)

    def test_leaf_support_fit_counts_match_scalar_routing(self):
        e, fit = self.instance()
        model = fit_leaf_support(e, fit, beta=0.5)
        for m, tree in enumerate(e.trees):
            counts = np.zeros(len(e.leaves(m)))
            for x in fit.rows:
                counts[leaf_of(tree, x)] += 1
            probs = (counts + 0.5) / (counts.sum() + 0.5 * len(counts))
            assert bits(model.costs[m]) == bits(-np.log(probs))
