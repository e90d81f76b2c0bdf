import hashlib
import math

import numpy as np
import pytest

from conftest import (
    best_split_reference,
    blob_dataset,
    leaf_assignment,
    leaf_of,
    leaf_paths,
    predict_class,
    predict_scores,
    tree_leaves,
)
from equiprune import ensemble
from equiprune.data import CONTINUOUS, Dataset, FeatureMeta
from equiprune.ensemble import (
    Ensemble,
    Internal,
    Leaf,
    load_ensemble,
    parse_text_dump,
    predict_classes,
    save_ensemble,
    stack_trees,
    stacked_leaves,
    threshold_index,
    train_boosted,
)
from equiprune.errors import DegenerateLabels, DimensionMismatch, SchemaError
from equiprune.plausibility import fit_isolation_forest


def stump(feature=0, threshold=0.5, left=(1.0, 0.0), right=(0.0, 1.0)):
    return Internal(feature=feature, threshold=threshold,
                    left=Leaf(scores=left), right=Leaf(scores=right))


def two_feature_dataset(n=40, seed=0):
    rng = np.random.default_rng(seed)
    rows = rng.uniform(-1, 1, size=(n, 2))
    labels = (rows[:, 0] + rows[:, 1] > 0).astype(np.int64)
    meta = (FeatureMeta(name="x0", kind=CONTINUOUS),
            FeatureMeta(name="x1", kind=CONTINUOUS))
    return Dataset(rows=rows, labels=labels, feature_meta=meta)


# Thresholds and leaf scores come from small grids: rows drawn from the
# threshold grid sit exactly on splits, and sums of the score grid tie.
THRESHOLD_GRID = (-1.0, -0.3, 0.0, 0.1, 0.5, 1.0)
SCORE_GRID = (0.0, 0.1, 0.2, 0.3, 0.5)


def random_tree(rng, p, depth, n_classes):
    if depth == 0 or rng.random() < 0.2:
        return Leaf(scores=tuple(float(v) for v in
                                 rng.choice(SCORE_GRID, size=n_classes)))
    return Internal(feature=int(rng.integers(p)),
                    threshold=float(rng.choice(THRESHOLD_GRID)),
                    left=random_tree(rng, p, depth - 1, n_classes),
                    right=random_tree(rng, p, depth - 1, n_classes))


def random_rows(rng, p, n):
    """Half uniform, half exactly on grid thresholds."""
    return np.vstack([rng.uniform(-1.5, 1.5, size=(n - n // 2, p)),
                      rng.choice(THRESHOLD_GRID, size=(n // 2, p))])


class TestTreeArrays:
    """The stacked node arrays (``stack_trees``) and their router."""

    def test_preorder_layout(self):
        # tree 0: x0 <= 0 ? (x1 <= 1 ? L0 : L1) : L2; tree 1 a leaf;
        # tree 2 a stump on x1
        tree = Internal(feature=0, threshold=0.0,
                        left=Internal(feature=1, threshold=1.0,
                                      left=Leaf(scores=(0.0,) * 2),
                                      right=Leaf(scores=(1.0,) * 2)),
                        right=Leaf(scores=(2.0,) * 2))
        s = stack_trees([tree, Leaf(scores=(5.0, 5.0)), stump(feature=1)], 2)
        assert s.roots.tolist() == [0, 5, 6]
        assert s.depths.tolist() == [2, 0, 1]
        assert s.features == ((0, 1), (), (1,))
        # leaves read feature 0 and threshold 0.0
        assert s.feature.tolist() == [0, 1, 0, 0, 0, 0, 1, 0, 0]
        assert s.threshold.tolist() == [0.0, 1.0, 0, 0, 0, 0, 0.5, 0, 0]
        # (right, left) per node; a leaf is its own child both ways
        assert s.children.reshape(-1, 2).tolist() == [
            [4, 1], [3, 2], [2, 2], [3, 3], [4, 4], [5, 5], [8, 7], [7, 7],
            [8, 8]]
        assert s.leaf.tolist() == [-1, -1, 0, 1, 2, 3, -1, 4, 5]
        assert s.leaf_scores.tolist() == [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0],
                                          [5.0, 5.0], [1.0, 0.0], [0.0, 1.0]]
        assert s.leaf_tree.tolist() == [0, 0, 0, 1, 2, 2]
        assert s.first_leaf.tolist() == [0, 3, 4, 6]
        assert [s.leaf_rows(m) for m in range(3)] == [
            slice(0, 3), slice(3, 4), slice(4, 6)]
        assert s.paths == (((0, 0.0, True), (1, 1.0, True)),
                           ((0, 0.0, True), (1, 1.0, False)),
                           ((0, 0.0, False),), (), ((1, 0.5, True),),
                           ((1, 0.5, False),))
        # values on a threshold go left
        X = [[0.0, 1.0], [0.0, 1.5], [1e-300, 0.0]]
        assert stacked_leaves(s, [0, 1, 2], X, [0, 1]).tolist() == [
            [0, 1, 2], [3, 3, 3], [5, 5, 4]]

    def test_leaf_only_tree(self):
        s = stack_trees([Leaf(scores=(1.0, 2.0))], 2)
        assert (s.feature.tolist(), s.children.tolist(), s.leaf.tolist(),
                s.depths.tolist(), s.features, s.first_leaf.tolist(),
                s.paths) == ([0], [0, 0], [0], [0], ((),), [0, 1], ((),))
        assert stacked_leaves(s, [0], np.zeros((3, 2)), [0, 1]).tolist() \
            == [[0, 0, 0]]

    def test_stacked_leaves_match_leaf_of_on_random_trees(self):
        # one tree at a time, NaN rows included
        rng = np.random.default_rng(11)
        for _ in range(40):
            p = int(rng.integers(1, 4))
            tree = random_tree(rng, p, int(rng.integers(0, 6)), 2)
            X = random_rows(rng, p, 60)
            X[:3] = np.nan
            X[3, 0] = np.nan
            s = stack_trees([tree], 2)
            assert s.depths.tolist() == [max(map(len, leaf_paths(tree)))]
            got = stacked_leaves(s, [0], X, range(p))[0]
            assert got.tolist() == [leaf_of(tree, x) for x in X]

    def test_stacked_leaves_route_any_subset_like_leaf_of(self):
        # any subset of trees, in any order, over rows holding only the
        # features those trees split on, NaN included
        rng = np.random.default_rng(13)
        for _ in range(20):
            p = 4
            trees = [random_tree(rng, p, int(rng.integers(0, 5)), 2)
                     for _ in range(6)]
            e = Ensemble(trees=trees, weights0=np.ones(6), n_classes=2,
                         n_features=p)
            stack = e._stacked
            subset = rng.permutation(6)[:int(rng.integers(1, 7))].tolist()
            used = sorted({f for m in subset for f in stack.features[m]})
            columns = used + [j for j in range(p) if j not in used][:1]
            X = random_rows(rng, p, 40)
            X[0, :] = np.nan
            got = stacked_leaves(stack, subset, X[:, columns], columns)
            for k, m in enumerate(subset):
                want = [leaf_of(trees[m], x) for x in X]
                assert (got[k] - stack.first_leaf[m]).tolist() == want
                assert np.array_equal(stack.leaf_scores[got[k]], [
                    tree_leaves(trees[m])[leaf].scores for leaf in want])
                assert stack.features[m] == tuple(sorted(
                    {f for path in leaf_paths(trees[m]) for f, _, _ in path}))

    def test_leaf_matrix_rows_are_leaf_assignments(self):
        rng = np.random.default_rng(12)
        trees = [random_tree(rng, 3, 3, 2) for _ in range(5)]
        e = Ensemble(trees=trees, weights0=np.ones(5), n_classes=2,
                     n_features=3)
        X = random_rows(rng, 3, 40)
        got = e.leaf_matrix(X)
        assert [tuple(row) for row in got.tolist()] == \
            [leaf_assignment(e, x) for x in X]

    def test_paths_match_leaf_paths(self):
        # each leaf row's root-to-leaf decisions against the scalar walk:
        # random trees (leaf-only ones among them) stacked together, and
        # the trees of an isolation forest of depth 6
        rng = np.random.default_rng(14)
        trees = [random_tree(rng, 3, int(rng.integers(0, 6)), 2)
                 for _ in range(30)] + [Leaf(scores=(1.0, 2.0))]
        s = stack_trees(trees, 2)
        assert s.paths == tuple(path for tree in trees
                                for path in leaf_paths(tree))
        for m, tree in enumerate(trees):
            assert s.paths[s.leaf_rows(m)] == tuple(leaf_paths(tree))
        iso = fit_isolation_forest(blob_dataset(120, p=3, seed=5), K=4,
                                   max_samples=64)
        forest = iso._forest._stacked
        assert forest.depths.max() == 6
        for k, tree in enumerate(iso.trees):
            assert forest.paths[forest.leaf_rows(k)] == \
                tuple(leaf_paths(tree))
        # each tree's thresholds per split feature, read off its paths
        for stack in (s, forest):
            for m in range(len(stack.roots)):
                splits: dict[int, set[float]] = {}
                for path in stack.paths[stack.leaf_rows(m)]:
                    for f, t, _ in path:
                        splits.setdefault(f, set()).add(t)
                assert stack.features[m] == tuple(sorted(splits))
                assert stack.splits[m] == tuple(tuple(sorted(splits[f]))
                                                for f in stack.features[m])

    def test_leaves_are_the_trees_leaves(self):
        # Ensemble.leaves, read from the stacked rows, against each tree's
        # leaves left to right: random three-class trees and a trained
        # depth-4 ensemble
        rng = np.random.default_rng(15)
        trees = [random_tree(rng, 3, int(rng.integers(0, 5)), 3)
                 for _ in range(10)]
        random = Ensemble(trees=trees, weights0=np.ones(10), n_classes=3,
                          n_features=3)
        trained = train_boosted(blob_dataset(120, p=3, seed=7, spread=0.5),
                                n_rounds=4, max_depth=4)
        for e in (random, trained):
            for m, tree in enumerate(e.trees):
                assert e.leaves(m) == tree_leaves(tree)

    def test_leaf_lengths_are_checked_in_the_walk(self):
        bad = stump(right=(0.0, 1.0, 2.0))
        with pytest.raises(DimensionMismatch,
                           match="tree 1 has a leaf with 3 scores, expected 2"):
            stack_trees([stump(), bad], 2)
        with pytest.raises(DimensionMismatch, match="tree 1 has a leaf"):
            Ensemble(trees=[stump(), bad], weights0=np.ones(2), n_classes=2,
                     n_features=1)


class TestPredictClasses:
    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_matches_predict_class_with_zero_weights_and_ties(self, n_classes):
        rng = np.random.default_rng(20 + n_classes)
        ties = 0
        for _ in range(25):
            M = int(rng.integers(1, 7))
            trees = [random_tree(rng, 2, 3, n_classes) for _ in range(M)]
            e = Ensemble(trees=trees, weights0=np.ones(M),
                         n_classes=n_classes, n_features=2)
            w = rng.choice([0.0, 0.0, 0.5, 1.0, 3.0], size=M)
            X = random_rows(rng, 2, 40)
            got = predict_classes(e, w, X)
            assert got.tolist() == [predict_class(e, w, x) for x in X]
            for x in X:
                s = predict_scores(e, w, x)
                ties += int(np.count_nonzero(s == s.max()) > 1)
        assert ties > 0  # exact ties were exercised

    def test_rows_are_routed_in_blocks(self, monkeypatch):
        # blocks of 7 rows: 40 rows end in a short block, and every row's
        # class and cell are its own
        monkeypatch.setattr(ensemble, "_ROUTE_ROWS", 7)
        rng = np.random.default_rng(31)
        trees = [random_tree(rng, 3, 4, 3) for _ in range(9)]
        e = Ensemble(trees=trees, weights0=np.ones(9), n_classes=3,
                     n_features=3)
        w = rng.choice([0.0, 0.5, 1.0, 3.0], size=9)
        X = random_rows(rng, 3, 40)
        assert predict_classes(e, w, X).tolist() == \
            [predict_class(e, w, x) for x in X]
        assert [tuple(row) for row in e.leaf_matrix(X).tolist()] == \
            [leaf_assignment(e, x) for x in X]
        assert predict_classes(e, w, X[:0]).tolist() == []
        assert e.leaf_matrix(X[:0]).shape == (0, 9)

    def test_sums_in_tree_order(self):
        # class 1 sums 0.1 + 0.2 + 0.3 = 0.6000000000000001 > 0.6 in tree
        # order; summed in reverse it would tie with class 0 and lose
        trees = [Leaf(scores=(0.6, 0.1)), Leaf(scores=(0.0, 0.2)),
                 Leaf(scores=(0.0, 0.3))]
        e = Ensemble(trees=trees, weights0=np.ones(3), n_classes=2,
                     n_features=1)
        assert predict_class(e, e.weights0, [0.0]) == 1
        assert predict_classes(e, e.weights0, [[0.0]]).tolist() == [1]

    def test_all_zero_weights_pick_class_zero(self):
        t = stump(left=(0.0, 1.0), right=(0.0, 1.0))
        e = Ensemble(trees=[t], weights0=np.ones(1), n_classes=2, n_features=2)
        assert predict_classes(e, [0.0], np.ones((3, 2))).tolist() == [0] * 3

    def test_dimension_mismatch(self):
        e = Ensemble(trees=[stump()], weights0=np.ones(1), n_classes=2,
                     n_features=2)
        with pytest.raises(DimensionMismatch):
            predict_classes(e, [1.0, 1.0], np.zeros((1, 2)))
        with pytest.raises(DimensionMismatch):
            predict_classes(e, [1.0], np.zeros((1, 3)))


class TestLeafSums:
    @pytest.mark.parametrize("n_scores", [1, 2, 3])
    def test_matches_predict_scores(self, n_scores):
        # more rows than one routing block, some with NaN features (NaN
        # goes right at every split); equal bit for bit
        rng = np.random.default_rng(40 + n_scores)
        trees = [random_tree(rng, 3, 4, n_scores) for _ in range(11)]
        e = Ensemble(trees=trees, weights0=np.ones(11), n_classes=n_scores,
                     n_features=3)
        w = rng.choice([0.0, 0.5, 1.0, 3.0, 1e-3], size=11)
        X = random_rows(rng, 3, ensemble._ROUTE_ROWS + 45)
        X[rng.random(X.shape) < 0.1] = np.nan
        assert np.isnan(X).any(axis=1).sum() > 10
        got = ensemble.leaf_sums(e, w, X, e._stacked.leaf_scores)
        want = np.array([predict_scores(e, w, x) for x in X])
        assert got.shape == (len(X), n_scores)
        assert got.tobytes() == want.tobytes()

    def test_two_weightings_over_many_deep_trees_match_predict_scores(self):
        # the size of the verifier's direct routing on 100 depth-4 trees:
        # each weighting's terms are taken into and summed within one
        # buffer, and every sum is the scalar reference's, bit for bit
        rng = np.random.default_rng(61)
        trees = [random_tree(rng, 2, 4, 2) for _ in range(100)]
        e = Ensemble(trees=trees, weights0=np.ones(100), n_classes=2,
                     n_features=2)
        ws = np.stack([rng.uniform(0.5, 1.5, size=100),
                       rng.choice([0.0, 1.0, 2.5], size=100)])
        X = random_rows(rng, 2, 187)
        got = ensemble.leaf_sums(e, ws, X, e._stacked.leaf_scores)
        want = np.array([[predict_scores(e, w, x) for x in X] for w in ws])
        assert got.shape == (2, 187, 2)
        assert got.tobytes() == want.tobytes()

    def test_a_stack_of_weightings_routes_once(self, monkeypatch):
        # weightings that keep different trees, one keeping none, in blocks
        # of 7 rows: each sum and class is the weighting's own, bit for
        # bit, and each block is routed once, over the trees any keeps
        monkeypatch.setattr(ensemble, "_ROUTE_ROWS", 7)
        rng = np.random.default_rng(52)
        trees = [random_tree(rng, 3, int(rng.integers(0, 4)), 3)
                 for _ in range(9)]
        e = Ensemble(trees=trees, weights0=np.ones(9), n_classes=3,
                     n_features=3)
        ws = rng.choice([0.0, 0.5, 1.0, 3.0, 1e-3], size=(3, 9))
        ws[:, 4] = 0.0
        ws[2] = 0.0
        X = random_rows(rng, 3, 40)
        values = e._stacked.leaf_scores
        want = [ensemble.leaf_sums(e, w, X, values) for w in ws]
        routed = []
        real = ensemble.stacked_leaves

        def recording(stack, trees, X, columns):
            routed.append(list(trees))
            return real(stack, trees, X, columns)

        monkeypatch.setattr(ensemble, "stacked_leaves", recording)
        got = ensemble.leaf_sums(e, ws, X, values)
        assert got.shape == (3, len(X), 3)
        assert got.tobytes() == np.stack(want).tobytes()
        kept = np.flatnonzero(ws.any(axis=0)).tolist()
        assert 4 not in kept
        assert routed == [kept] * 6  # blocks of 7 rows
        assert predict_classes(e, ws, X).tolist() == [
            predict_classes(e, w, X).tolist() for w in ws]
        with pytest.raises(DimensionMismatch):
            predict_classes(e, ws[:, :8], X)
        with pytest.raises(DimensionMismatch):
            predict_classes(e, ws[None], X)


def route(tree, X):
    """Leaf index (left to right) of every row of X in the one tree."""
    X = np.asarray(X, dtype=float)
    e = Ensemble(trees=[tree], weights0=np.ones(1),
                 n_classes=len(tree_leaves(tree)[0].scores),
                 n_features=X.shape[1])
    return e.leaf_matrix(X)[:, 0].tolist()


class TestLeafOf:
    def test_single_leaf(self):
        assert route(Leaf(scores=(1.0, 2.0)), [[123.0]]) == [0]

    def test_boundary_goes_left(self):
        assert route(stump(), [[0.5, 0.0], [0.5000001, 0.0]]) == [0, 1]

    def test_depth_two_manual_trace(self):
        # x0 <= 0 ? (x1 <= 1 ? L0 : L1) : L2
        tree = Internal(feature=0, threshold=0.0,
                        left=Internal(feature=1, threshold=1.0,
                                      left=Leaf(scores=(0.0,) * 2),
                                      right=Leaf(scores=(1.0,) * 2)),
                        right=Leaf(scores=(2.0,) * 2))
        # left, left; left, right; right
        assert route(tree, [[-1.0, 0.5], [-1.0, 1.5], [3.0, 0.0]]) == [0, 1, 2]


class TestPredict:
    # the score tests check the scalar reference ``predict_scores``; the
    # class tests check the library's ``predict_classes``
    def ensemble(self):
        t1 = stump(left=(1.0, 0.0), right=(0.0, 1.0))
        t2 = stump(threshold=0.2, left=(0.3, -0.1), right=(-0.1, 0.3))
        return Ensemble(trees=[t1, t2], weights0=np.ones(2),
                        n_classes=2, n_features=2)

    def test_zero_weights_annihilate(self):
        e = self.ensemble()
        assert np.array_equal(predict_scores(e, [0.0, 0.0], [0.0, 0.0]),
                              np.zeros(2))

    def test_single_tree_scaling(self):
        t = stump(left=(0.3, -0.1), right=(0.0, 0.0))
        e = Ensemble(trees=[t], weights0=np.ones(1), n_classes=2, n_features=1)
        got = predict_scores(e, [2.0], [0.0])
        assert np.allclose(got, [0.6, -0.2])

    def test_hand_sum(self):
        t1 = stump(left=(1.0, 0.0), right=(1.0, 0.0))
        t2 = stump(left=(0.0, 1.0), right=(0.0, 1.0))
        e = Ensemble(trees=[t1, t2], weights0=np.ones(2), n_classes=2,
                     n_features=1)
        assert np.allclose(predict_scores(e, [1.0, 1.0], [0.0]), [1.0, 1.0])

    def test_tie_goes_to_smallest_index(self):
        t = Leaf(scores=(2.0, 2.0))
        e = Ensemble(trees=[t], weights0=np.ones(1), n_classes=2, n_features=1)
        assert predict_classes(e, [1.0], [[0.0]]).tolist() == [0]

    def test_unique_max(self):
        t = Leaf(scores=(0.0, 5.0, 3.0))
        e = Ensemble(trees=[t], weights0=np.ones(1), n_classes=3, n_features=1)
        assert predict_classes(e, [1.0], [[0.0]]).tolist() == [1]

    def test_full_tie(self):
        t = Leaf(scores=(1.0, 1.0, 1.0))
        e = Ensemble(trees=[t], weights0=np.ones(1), n_classes=3, n_features=1)
        assert predict_classes(e, [1.0], [[0.0]]).tolist() == [0]

    def test_dimension_mismatch(self):
        # one row must still come as a batch of one
        e = self.ensemble()
        with pytest.raises(DimensionMismatch):
            predict_classes(e, [1.0, 1.0], [0.0, 0.0])

    def test_weight_linearity(self):
        e = self.ensemble()
        rng = np.random.default_rng(3)
        for _ in range(20):
            w1 = rng.uniform(0, 2, size=2)
            w2 = rng.uniform(0, 2, size=2)
            a, b = rng.uniform(0, 3, size=2)
            x = rng.uniform(-1, 1, size=2)
            lhs = predict_scores(e, a * w1 + b * w2, x)
            rhs = a * predict_scores(e, w1, x) + b * predict_scores(e, w2, x)
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_argmax_scale_invariance(self):
        e = self.ensemble()
        rng = np.random.default_rng(4)
        for _ in range(20):
            w = rng.uniform(0, 2, size=2)
            X = rng.uniform(-1, 1, size=(1, 2))
            lam = rng.uniform(0.1, 10)
            assert predict_classes(e, lam * w, X).tolist() == \
                predict_classes(e, w, X).tolist()


class TestThresholdIndex:
    def test_stump_only(self):
        e = Ensemble(trees=[stump()], weights0=np.ones(1), n_classes=2,
                     n_features=3)
        idx = threshold_index(e)
        assert idx.thresholds(0) == (0.5,)
        assert idx.thresholds(1) == ()
        assert idx.thresholds(2) == ()

    def test_dedup(self):
        e = Ensemble(trees=[stump(), stump()], weights0=np.ones(2),
                     n_classes=2, n_features=2)
        assert threshold_index(e).thresholds(0) == (0.5,)

    def test_extras_merged(self):
        e = Ensemble(trees=[stump()], weights0=np.ones(1), n_classes=2,
                     n_features=2)
        idx = threshold_index(e, extra={1: [1.0]})
        assert idx.thresholds(1) == (1.0,)

    def test_piecewise_constancy(self):
        # random points inside the same cell reach the same leaves
        ds = two_feature_dataset(60, seed=7)
        e = train_boosted(ds, n_rounds=4, max_depth=2)
        idx = threshold_index(e)
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.uniform(-1, 1, size=2)
            y = x.copy()
            for j in range(2):
                ts = idx.thresholds(j)
                cuts = [-np.inf] + list(ts) + [np.inf]
                import bisect

                k = bisect.bisect_left(list(ts), x[j])
                lo, hi = cuts[k], cuts[k + 1]
                # sample another point in the same interval (lo, hi]
                if np.isinf(lo) and np.isinf(hi):
                    y[j] = x[j] + 1.0
                elif np.isinf(lo):
                    y[j] = hi - abs(rng.normal()) * 0.0 - (hi - x[j]) / 2
                elif np.isinf(hi):
                    y[j] = lo + abs(rng.normal()) + 1e-9
                else:
                    y[j] = lo + (hi - lo) * rng.uniform(0.001, 1.0)
            leaves_x, leaves_y = e.leaf_matrix([x, y]).tolist()
            assert leaves_x == leaves_y


def exhaustive_best_stump(rows, labels):
    """Independent oracle: best single (feature, threshold) classifier by
    training accuracy over all midpoints."""
    best = None
    n = len(labels)
    for j in range(rows.shape[1]):
        vals = np.sort(np.unique(rows[:, j]))
        for a, b in zip(vals[:-1], vals[1:]):
            thr = (a + b) / 2
            left = rows[:, j] <= thr
            for c_left in (0, 1):
                pred = np.where(left, c_left, 1 - c_left)
                acc = (pred == labels).mean()
                if best is None or acc > best[0]:
                    best = (acc, j, thr)
    return best


class TestTrainBoosted:
    def test_separable_stump_matches_exhaustive_oracle(self):
        rows = np.array([[0.1], [0.2], [0.3], [1.1], [1.2], [1.3]])
        labels = np.array([0, 0, 0, 1, 1, 1])
        ds = Dataset(rows=rows, labels=labels,
                     feature_meta=(FeatureMeta(name="x0", kind=CONTINUOUS),))
        e = train_boosted(ds, n_rounds=1, max_depth=1)
        assert predict_classes(e, e.weights0, rows).tolist() == labels.tolist()
        best_acc, _, best_thr = exhaustive_best_stump(rows, labels)
        assert best_acc == 1.0
        root = e.trees[0]
        assert isinstance(root, Internal)
        assert abs(root.threshold - best_thr) < 1e-12

    def test_zero_rounds_rejected(self):
        ds = two_feature_dataset()
        with pytest.raises(ValueError):
            train_boosted(ds, n_rounds=0, max_depth=1)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, 0.0, -0.1])
    def test_learning_rate_must_be_finite_and_positive(self, rate):
        with pytest.raises(ValueError, match="learning_rate"):
            train_boosted(two_feature_dataset(), n_rounds=1, max_depth=1,
                          learning_rate=rate)

    def test_single_class_rejected(self):
        ds = two_feature_dataset()
        bad = Dataset(rows=ds.rows, labels=np.zeros(ds.n_rows, dtype=np.int64),
                      feature_meta=ds.feature_meta, label_names=("0", "1"))
        with pytest.raises(DegenerateLabels):
            train_boosted(bad, n_rounds=2, max_depth=2)

    def test_deterministic(self):
        ds = two_feature_dataset(50, seed=2)
        e1 = train_boosted(ds, n_rounds=3, max_depth=2)
        e2 = train_boosted(ds, n_rounds=3, max_depth=2)
        assert e1.trees == e2.trees

    @pytest.mark.parametrize("n_classes", [2, 3, 4])
    def test_split_search_matches_the_scalar_reference(self, n_classes):
        # values drawn from a few levels tie; the cuts of a copied feature
        # tie exactly, and those of a mirrored one tie up to rounding (their
        # gains summed from the other end), so the first of them must win
        rng = np.random.default_rng(n_classes)
        for n, p in ((8, 1), (12, 2), (40, 3), (90, 4)):
            X = rng.choice([-1.0, 0.0, 0.25, 0.5, 2.0], size=(n, p))
            X = np.column_stack([X, X[:, 0], -X[:, 0]])
            g = rng.normal(size=n)
            h = rng.uniform(0.05, 0.25, size=n)
            for rows in (np.arange(n), np.sort(rng.choice(n, n // 2, False))):
                got = ensemble._best_split(X, g, h, rows, 1.0)
                want = best_split_reference(X, g, h, rows, 1.0)
                assert repr(got) == repr(want)
                if got is not None:
                    assert type(got[1]) is int
        # one distinct value: no cut at all
        X = np.zeros((5, 2))
        assert ensemble._best_split(X, g[:5], h[:5], np.arange(5), 1.0) is None

    @pytest.mark.parametrize("n_classes, rounds, depth", [
        (2, 30, 2), (2, 10, 4), (3, 6, 3), (4, 4, 2)])
    def test_trains_the_trees_of_the_scalar_split_search(
            self, monkeypatch, tmp_path, n_classes, rounds, depth):
        rng = np.random.default_rng(rounds)
        ds = blob_dataset(80, p=3, seed=rounds)
        labels = rng.integers(0, n_classes, size=ds.n_rows)
        rows = np.round(ds.rows, 1)  # tied values
        ds = Dataset(rows=rows, labels=labels, feature_meta=ds.feature_meta)
        save_ensemble(train_boosted(ds, rounds, depth), tmp_path / "a.json")
        monkeypatch.setattr(ensemble, "_best_split", best_split_reference)
        save_ensemble(train_boosted(ds, rounds, depth), tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() \
            == (tmp_path / "b.json").read_bytes()

    # sha256 of the saved models, recorded while the trainer routed the
    # training rows through each new tree to update their margins: adding
    # each leaf's value to the rows that reach it must give the same floats
    TRAINED_SHA256 = {
        2: "32956e7bfc29573ed298a72e276dc7f21d207b3c36b63c6f30ecd24b3d9d2a0a",
        3: "2c8a89d2c7ff4bd920f32fef81b2bfc3da3770ce220993f54bcd7cd2368a3a4d",
    }

    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_trained_model_bytes_are_pinned(self, tmp_path, n_classes):
        if n_classes == 2:
            ds, rounds = blob_dataset(120, p=3, seed=5), 8
        else:
            rng = np.random.default_rng(6)
            rows = rng.normal(size=(90, 2))
            labels = (rows[:, 0] > 0).astype(np.int64) \
                + (rows[:, 1] > 0).astype(np.int64)
            meta = tuple(FeatureMeta(name=f"x{j}", kind=CONTINUOUS)
                         for j in range(2))
            ds, rounds = Dataset(rows=rows, labels=labels,
                                 feature_meta=meta), 5
        save_ensemble(train_boosted(ds, n_rounds=rounds, max_depth=3),
                      tmp_path / "model.json")
        digest = hashlib.sha256((tmp_path / "model.json").read_bytes())
        assert digest.hexdigest() == self.TRAINED_SHA256[n_classes]

    def test_multiclass_trains(self):
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(60, 2))
        labels = (rows[:, 0] > 0).astype(int) + (rows[:, 1] > 0).astype(int)
        ds = Dataset(rows=rows, labels=labels,
                     feature_meta=(FeatureMeta(name="a", kind=CONTINUOUS),
                                   FeatureMeta(name="b", kind=CONTINUOUS)))
        e = train_boosted(ds, n_rounds=3, max_depth=2)
        assert e.n_classes == 3
        assert e.n_trees == 9  # one tree per class per round
        preds = predict_classes(e, e.weights0, rows)
        assert (preds == labels).mean() > 0.8


class TestJsonRoundTrip:
    def test_round_trip_structural_equality(self, tmp_path):
        ds = two_feature_dataset(50, seed=3)
        e = train_boosted(ds, n_rounds=3, max_depth=2)
        path = tmp_path / "model.json"
        save_ensemble(e, path)
        e2 = load_ensemble(path)
        assert e2.trees == e.trees
        assert np.array_equal(e2.weights0, e.weights0)
        assert (e2.n_classes, e2.n_features) == (e.n_classes, e.n_features)

    def test_missing_trees_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n_features": 1, "n_classes": 2}')
        with pytest.raises(SchemaError):
            load_ensemble(path)

    def test_hand_written_stump(self, tmp_path):
        path = tmp_path / "stump.json"
        path.write_text(
            '{"n_features": 1, "n_classes": 2, "weights": [1.0],'
            ' "trees": [{"feature": 0, "threshold": 0.5,'
            '  "left": {"leaf": [1.0, 0.0]}, "right": {"leaf": [0.0, 1.0]}}]}'
        )
        e = load_ensemble(path)
        assert predict_classes(e, e.weights0, [[0.4], [0.6]]).tolist() == [0, 1]

    def test_default_weights_are_ones(self, tmp_path):
        path = tmp_path / "noweights.json"
        path.write_text(
            '{"n_features": 1, "n_classes": 2,'
            ' "trees": [{"leaf": [0.5, -0.5]}]}'
        )
        e = load_ensemble(path)
        assert np.array_equal(e.weights0, [1.0])


class TestTextDump:
    DUMP = """\
booster[0]:
0:[f0<0.5] yes=1,no=2
1:leaf=0.4
2:leaf=-0.4
booster[1]:
0:leaf=0.1
"""

    def test_parses_boosters(self):
        e = parse_text_dump(self.DUMP, n_classes=2, n_features=1)
        assert e.n_trees == 2
        # scalar leaf v maps to (-v, +v): positive margin favors class 1
        assert predict_classes(e, [1.0, 0.0], [[0.4]]).tolist() == [1]
        assert e.leaves(0)[0].scores == (-0.4, 0.4)

    def test_rejects_garbage(self):
        for dump, message in [
            ("booster[0]:\n0:what\n", "line 2: cannot parse node line"),
            ("booster[0]:\n0:leaf=nan\n", "line 2: leaf value 'nan'"),
            ("booster[0]:\n0:[f0<inf] yes=1,no=2\n1:leaf=1\n2:leaf=2\n",
             "line 2: threshold 'inf'"),
            ("booster[0]:\n0:[f0<1] yes=1,no=2\n1:leaf=1\n1:leaf=2\n",
             "line 4: node 1 appears twice"),
            ("booster[0]:\n1:leaf=1\n", "line 1: no node 0"),
        ]:
            with pytest.raises(SchemaError, match=message):
                parse_text_dump(dump)

    def test_rejects_a_split_beyond_n_features(self):
        # f3 cannot be read by a one-feature model: SchemaError, not an
        # IndexError when the ensemble is first evaluated
        dump = "booster[0]:\n0:[f3<0.5] yes=1,no=2\n1:leaf=0.4\n2:leaf=-0.4\n"
        with pytest.raises(SchemaError, match="f3"):
            parse_text_dump(dump, n_classes=2, n_features=1)
        assert parse_text_dump(dump, n_classes=2).n_features == 4

    @pytest.mark.parametrize("kwargs, message", [
        ({"n_classes": 0}, "n_classes must be >= 1, got 0"),
        ({"n_classes": -2}, "n_classes must be >= 1, got -2"),
        ({"n_features": 0}, "n_features must be >= 1, got 0"),
        ({"n_features": -3}, "n_features must be >= 1, got -3"),
    ])
    def test_rejects_a_class_or_feature_count_below_one(self, kwargs,
                                                        message):
        with pytest.raises(ValueError, match=message):
            parse_text_dump(self.DUMP, **kwargs)

    def test_a_dump_without_splits_has_one_feature(self):
        # only when n_features is omitted; a given count is kept
        dump = "booster[0]:\n0:leaf=0.1\n"
        assert parse_text_dump(dump).n_features == 1
        assert parse_text_dump(dump, n_features=3).n_features == 3
