import itertools
import logging
import math

import numpy as np
import pytest

from conftest import (
    chow_liu_state_score,
    desk_instance,
    huge_threshold_flip,
    iter_cells,
    predict_class,
    predict_scores,
    scalar_score,
)
from equiprune import verify
from equiprune.data import CONTINUOUS, Dataset, FeatureMeta
from equiprune.ensemble import (
    Ensemble,
    Internal,
    Leaf,
    ThresholdIndex,
    predict_classes,
    threshold_index,
)
from equiprune.errors import TooManyCells
from equiprune.plausibility import (
    CHOW_LIU,
    SCORE_KINDS,
    BinGrid,
    ChowLiuModel,
    ScoreModel,
    fit_score_model,
)
from equiprune.synth import random_chow_liu_model
from equiprune.verify import (
    Disagreement,
    check_equivalence_exhaustive,
    check_state_bound,
    enumerate_low_score_states,
    iter_disagreements,
)


def uniform_model(p, B):
    boundaries = tuple(tuple(float(b) + 0.5 for b in range(B - 1))
                       for _ in range(p))
    grid = BinGrid(boundaries=boundaries, included=tuple([True] * p))
    parent = {j: j - 1 for j in range(1, p)}
    return ChowLiuModel(
        grid=grid, root=0, order=tuple(range(p)), parent=parent,
        root_table=np.full(B, 1.0 / B),
        edge_tables={j: np.full((B, B), 1.0 / B) for j in range(1, p)},
        beta=0.0)


def flipped_everywhere(per_feature, cap=verify.DEFAULT_CELL_CAP):
    """The disagreements of an ensemble whose thresholds are ``per_feature``
    and whose two weightings disagree on every cell: zero-score stumps carry
    the thresholds, and two constant trees decide the class."""
    zero = Leaf(scores=(0.0, 0.0))
    stumps = [Internal(feature=j, threshold=t, left=zero, right=zero)
              for j, ts in enumerate(per_feature) for t in ts]
    trees = [Leaf(scores=(1.0, 0.0)), Leaf(scores=(0.0, 1.0)), *stumps]
    e = Ensemble(trees=trees, weights0=np.ones(len(trees)), n_classes=2,
                 n_features=len(per_feature))
    w0 = np.array([1.0, 0.0] + [1.0] * len(stumps))
    w = np.array([0.0, 1.0] + [1.0] * len(stumps))
    return check_equivalence_exhaustive(e, w0, w, cap=cap)


class TestCellIterator:
    def test_visits_every_cell_once(self):
        cells = flipped_everywhere(((0.5, 1.0), (2.0,)))
        assert len(cells) == 3 * 2
        assert len({d.indices for d in cells}) == 6

    def test_representative_rule(self):
        reps = {d.indices: d.x for d in flipped_everywhere(((0.5, 1.0), ()))}
        assert reps[(0, 0)][0] == 0.5
        assert reps[(1, 0)][0] == 1.0
        assert reps[(2, 0)][0] == 2.0  # last threshold + 1
        assert reps[(0, 0)][1] == 0.0  # no thresholds on feature 1

    def test_cap_enforced(self):
        per_feature = ((0.5, 1.0), (2.0,))
        assert len(flipped_everywhere(per_feature, cap=6)) == 6
        with pytest.raises(TooManyCells):
            flipped_everywhere(per_feature, cap=5)

    def test_cell_representative_matches_iter_cells(self):
        # the blocked walk names every cell by the scalar reference's point
        per_feature = ((0.5, 1.0), (), (-2.0,))
        got = [(d.indices, list(d.x))
               for d in flipped_everywhere(per_feature)]
        want = [(idx, x.tolist())
                for idx, x in iter_cells(ThresholdIndex(per_feature))]
        assert got == want


def wide_instance(seed=5, p=3, n_trees=7, depth=3):
    """Random-threshold trees whose partition has more cells than one
    verifier block, plus a fit set for the score models."""
    rng = np.random.default_rng(seed)

    def tree(d):
        if d == 0:
            return Leaf(scores=tuple(float(v) for v in rng.normal(size=2)))
        return Internal(feature=int(rng.integers(p)),
                        threshold=float(rng.uniform(-1, 1)),
                        left=tree(d - 1), right=tree(d - 1))

    e = Ensemble(trees=[tree(depth) for _ in range(n_trees)],
                 weights0=np.ones(n_trees), n_classes=2, n_features=p)
    meta = tuple(FeatureMeta(name=f"x{j}", kind=CONTINUOUS) for j in range(p))
    fit = Dataset(rows=rng.normal(scale=0.6, size=(60, p)), labels=None,
                  feature_meta=meta)
    return e, fit


def scalar_reference(e, w0, w, region=None):
    """The exhaustive check one cell at a time."""
    extra = region[0].extra_thresholds() if region is not None else None
    out = []
    for indices, x in iter_cells(threshold_index(e, extra=extra)):
        c0, c1 = predict_class(e, w0, x), predict_class(e, w, x)
        if c0 == c1:
            continue
        score = None
        if region is not None:
            score = scalar_score(region[0], e, x)
            if score > region[1]:
                continue
        out.append(Disagreement(indices=tuple(indices),
                                x=tuple(float(v) for v in x),
                                original_class=c0, pruned_class=c1,
                                score=score))
    return out


class TestEquivalenceCheck:
    def test_identical_weights_no_disagreements(self):
        e, _, _ = desk_instance(seed=50)
        assert check_equivalence_exhaustive(e, e.weights0, e.weights0) == []

    def test_hand_built_flip(self):
        a = Internal(feature=0, threshold=0.5, left=Leaf(scores=(1.0, 0.0)),
                     right=Leaf(scores=(0.3, 0.7)))
        b = Internal(feature=0, threshold=1.0, left=Leaf(scores=(0.5, 0.0)),
                     right=Leaf(scores=(0.0, 1.0)))
        e = Ensemble(trees=[a, b], weights0=np.ones(2), n_classes=2,
                     n_features=1)
        w = np.array([2.0, 0.0])
        out = check_equivalence_exhaustive(e, e.weights0, w)
        assert len(out) == 1
        assert out[0].x == (1.0,)
        assert (out[0].original_class, out[0].pruned_class) == (0, 1)

    def test_checks_the_right_unbounded_cell_past_2_53(self):
        # 1e17 + 1.0 == 1e17: that cell's representative must still lie
        # above the threshold, or the cell is never checked
        e, w = huge_threshold_flip()
        x = np.array([[2e17]])
        assert predict_classes(e, e.weights0, x) != predict_classes(e, w, x)
        (d,) = check_equivalence_exhaustive(e, e.weights0, w)
        assert d.x[0] > 1e17
        assert (d.original_class, d.pruned_class) == (0, 1)


class TestBlockedCheck:
    @pytest.mark.parametrize("kind", (None,) + SCORE_KINDS)
    def test_matches_scalar_reference(self, kind):
        e, fit = wide_instance()
        w = np.zeros(e.n_trees)
        w[[0, 3]] = 1.0
        region = None
        if kind is not None:
            model = fit_score_model(kind, e, fit, if_trees=2, if_max_samples=8)
            region = (model, float(np.median(model.scores(e, fit.rows))))
            extra = model.extra_thresholds()
        else:
            extra = None
        theta = threshold_index(e, extra=extra)
        assert theta.n_cells() > verify._BLOCK
        got = check_equivalence_exhaustive(e, e.weights0, w, region=region)
        want = scalar_reference(e, e.weights0, w, region)
        assert want  # the pruned weights do flip cells
        assert got == want
        for d in got:
            assert all(type(k) is int for k in d.indices)
            assert all(type(v) is float for v in d.x)
            assert type(d.original_class) is type(d.pruned_class) is int
            assert d.score is None if region is None else type(d.score) is float
        if region is None:
            shape = [len(theta.thresholds(j)) + 1 for j in range(e.n_features)]
            ids = [np.ravel_multi_index(d.indices, shape) for d in got]
            assert min(ids) < verify._BLOCK <= max(ids)  # across a block edge

    def test_generator_streams_the_list(self, monkeypatch):
        e, _ = wide_instance()
        w = np.zeros(e.n_trees)
        w[[0, 3]] = 1.0
        want = check_equivalence_exhaustive(e, e.weights0, w)
        assert list(iter_disagreements(e, e.weights0, w)) == want
        # the first disagreement lies in the first slab, and comes out
        # after that slab alone is evaluated for both weightings
        evaluated = []
        real = verify._slab_classes

        def counted(*args, **kwargs):
            evaluated.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(verify, "_slab_classes", counted)
        assert next(iter_disagreements(e, e.weights0, w)) == want[0]
        assert len(evaluated) == 2

    def test_isolation_trees_route_over_their_own_intervals(self,
                                                             monkeypatch):
        # a 2-feature grid of at most _BLOCK cells: the isolation trees, all
        # splitting on both features, are one group, routed together at the
        # intervals between the forest's thresholds, and their leaves spread
        e = factored_instance(
            (tuple(np.linspace(-1, 1, 5)), tuple(np.linspace(-1, 1, 6))),
            [((0, 1), 2), ((0,), 1), ((1,), 2), ((0, 1), 3)], n_classes=2)
        w0, w = np.zeros(e.n_trees), np.zeros(e.n_trees)
        w0[:4] = 1.0
        w[[0, 3]] = 1.0
        rng = np.random.default_rng(8)
        meta = tuple(FeatureMeta(name=f"x{j}", kind=CONTINUOUS)
                     for j in range(2))
        fit = Dataset(rows=rng.normal(size=(80, 2)), labels=None,
                      feature_meta=meta)
        model = fit_score_model("iforest", e, fit, if_trees=4,
                                if_max_samples=16, seed=2)
        region = (model, float(np.median(model.scores(e, fit.rows))))
        forest = model._forest._stacked
        assert all(f == (0, 1) for f in forest.features)
        routed = []
        real = verify.stacked_leaves

        def recording(stack, trees, X, features):
            if stack is forest:
                routed.append(list(trees))
            return real(stack, trees, X, features)

        monkeypatch.setattr(verify, "stacked_leaves", recording)
        got = check_equivalence_exhaustive(e, w0, w, region=region)
        assert routed == [[0, 1, 2, 3]]
        assert threshold_index(e, extra=model.extra_thresholds()).n_cells() \
            <= verify._BLOCK
        want = scalar_reference(e, w0, w, region)
        assert want
        assert got == want

    def test_cap_checked_before_any_cell(self, monkeypatch):
        def evaluated(*args, **kwargs):
            raise AssertionError("a cell was evaluated")

        monkeypatch.setattr(verify, "_slab_classes", evaluated)
        monkeypatch.setattr(verify, "_tables", evaluated)
        e, _ = wide_instance()
        with pytest.raises(TooManyCells):
            check_equivalence_exhaustive(e, e.weights0, e.weights0, cap=100)


def factored_instance(per_feature, shapes, n_classes=3, seed=11):
    """Trees on chosen feature sets, thresholds drawn from ``per_feature``.

    ``shapes`` lists (features, depth) per tree; a tree splits only on its
    features, and its leaves score 0 or 1 per class, so weighted sums tie
    exactly on many cells. Zero-score stumps of weight zero in both test
    weightings put every threshold of ``per_feature`` on the grid."""
    rng = np.random.default_rng(seed)

    def tree(features, d):
        if d == 0:
            return Leaf(scores=tuple(float(v) for v in
                                     rng.integers(0, 2, size=n_classes)))
        j = int(rng.choice(features))
        return Internal(feature=j, threshold=float(rng.choice(per_feature[j])),
                        left=tree(features, d - 1), right=tree(features, d - 1))

    zero = Leaf(scores=(0.0,) * n_classes)
    trees = [tree(features, d) for features, d in shapes]
    stumps = [Internal(feature=j, threshold=float(t), left=zero, right=zero)
              for j, ts in enumerate(per_feature) for t in ts]
    return Ensemble(trees=trees + stumps,
                    weights0=np.ones(len(trees) + len(stumps)),
                    n_classes=n_classes, n_features=len(per_feature))


def recorded_tables(monkeypatch):
    """Every (group features, tables) ``_tables`` returns during a check."""
    built = []
    real = verify._tables

    def recording(group, *args):
        out = real(group, *args)
        built.append((group.features, out))
        return out

    monkeypatch.setattr(verify, "_tables", recording)
    return built


def recorded_slabs(monkeypatch):
    """The shape of every slab ``_slab_classes`` evaluates during a check."""
    shapes = []
    real = verify._slab_classes

    def recording(terms, shape):
        shapes.append(shape)
        return real(terms, shape)

    monkeypatch.setattr(verify, "_slab_classes", recording)
    return shapes


def largest_table(built) -> int:
    """The most scores one tree's table holds: tables are (classes, trees,
    *span)."""
    return max(table[:, 0].size for _, tables in built
               for _, table in tables if table.shape[1])


def recorded_parts(monkeypatch):
    """Every (part, tables) ``_tables`` and ``_lookup_tables`` return during
    a check; a part is a ``_Group`` or a ``_Lookup``."""
    built = []
    for name in ("_tables", "_lookup_tables"):
        real = getattr(verify, name)

        def recording(part, *args, real=real):
            out = real(part, *args)
            built.append((part, out))
            return out

        monkeypatch.setattr(verify, name, recording)
    return built


def recorded_region_slabs(monkeypatch):
    """The scores of every slab the region scores during a check."""
    found = []
    real = verify._Region.scores

    def recording(self, lead, run, shape):
        out = real(self, lead, run, shape)
        found.append(out)
        return out

    monkeypatch.setattr(verify._Region, "scores", recording)
    return found


def slab_ids(shape, a, run, indices) -> np.ndarray:
    """The slab of each cell (by its indices) of a grid of ``shape`` walked
    in slabs of ``run`` intervals of axis ``a``."""
    per_slab = run * math.prod(shape[a + 1:])
    per_lead = -(-shape[a] // run)
    ids = np.ravel_multi_index(np.asarray(indices).T, shape)
    lead, rest = np.divmod(ids, math.prod(shape[a:]))
    return lead * per_lead + rest // per_slab


class TestFactoredTables:
    # 10 x 16 x 1 x 31 cells: slabs of 16 x 1 x 31 = 496 cells, feature 2
    # carries no threshold, and (0, 1, 3) spans 4,960 > 4,096 intervals
    PER_FEATURE = (tuple(np.linspace(-1, 1, 9)), tuple(np.linspace(-2, 2, 15)),
                   (), tuple(np.linspace(-3, 3, 30)))
    SHAPES = [((0, 1, 3), 3), ((1, 3), 3), ((0,), 2), ((0, 3), 2),
              ((0, 1, 3), 2), ((), 0), ((1, 3), 2), ((3,), 1)]

    def weightings(self, e):
        # trees 1 and 4 weigh only in w0, trees 2 and 6 only in w, tree 7
        # in neither; the stumps weigh in neither
        w0 = np.zeros(e.n_trees)
        w = np.zeros(e.n_trees)
        w0[[0, 1, 3, 4, 5]] = [1.0, 2.0, 1.0, 1.0, 1.0]
        w[[0, 2, 3, 5, 6]] = [1.0, 1.0, 2.0, 1.0, 1.0]
        return w0, w

    @pytest.mark.parametrize("kind", (None,) + SCORE_KINDS)
    def test_matches_scalar_reference(self, kind, monkeypatch):
        e = factored_instance(self.PER_FEATURE, self.SHAPES)
        w0, w = self.weightings(e)
        region = None
        if kind is not None:
            rng = np.random.default_rng(3)
            meta = tuple(FeatureMeta(name=f"x{j}", kind=CONTINUOUS)
                         for j in range(e.n_features))
            fit = Dataset(rows=rng.normal(size=(60, e.n_features)),
                          labels=None, feature_meta=meta)
            model = fit_score_model(kind, e, fit, if_trees=1, if_max_samples=4)
            region = (model, float(np.median(model.scores(e, fit.rows))))
        built = recorded_tables(monkeypatch)
        got = check_equivalence_exhaustive(e, w0, w, region=region)
        want = scalar_reference(e, w0, w, region)
        assert want
        assert got == want
        # the (0, 1, 3) tables were rebuilt as the slabs moved along axis 0
        rebuilt = [f for f, _ in built].count((0, 1, 3))
        assert rebuilt > 1
        if kind is None:
            assert rebuilt == 2  # one per run of 8 and 2 intervals of axis 0

    def region(self, e, kind, quantile=0.5):
        """A ``kind`` score model fitted on 60 normal rows (2 isolation
        trees of 4 samples), at that quantile of its fit scores."""
        rng = np.random.default_rng(3)
        meta = tuple(FeatureMeta(name=f"x{j}", kind=CONTINUOUS)
                     for j in range(e.n_features))
        fit = Dataset(rows=rng.normal(size=(60, e.n_features)), labels=None,
                      feature_meta=meta)
        model = fit_score_model(kind, e, fit, if_trees=2, if_max_samples=4)
        return model, float(np.quantile(model.scores(e, fit.rows), quantile))

    @pytest.mark.parametrize("kind", SCORE_KINDS)
    def test_region_tables_rebuilt_per_run_match_scalar_reference(
            self, kind, monkeypatch):
        # blocks of 64 cells: slabs of 2 x 1 x 31 cells, and every table of
        # more than 64 cells, the region's too, is rebuilt as the slabs move
        monkeypatch.setattr(verify, "_BLOCK", 64)
        e = factored_instance(self.PER_FEATURE, self.SHAPES)
        w0, w = self.weightings(e)
        region = self.region(e, kind)
        built = recorded_parts(monkeypatch)
        got = check_equivalence_exhaustive(e, w0, w, region=region)
        want = scalar_reference(e, w0, w, region)
        assert got == want
        # the weightings flip cells inside the region, in several slabs
        theta = threshold_index(e, extra=region[0].extra_thresholds())
        shape = tuple(len(t) + 1 for t in theta.per_feature)
        a, run = verify._slab_layout(shape)
        assert len(set(slab_ids(shape, a, run,
                                [d.indices for d in want]).tolist())) > 1
        assert all(type(d.score) is float for d in got)
        # a region part (its tables hold one row) that does not span every
        # feature was tabulated more than once
        rebuilt = [id(part) for part, out in built
                   if not part.whole and out[-1][1].shape[0] == 1]
        assert any(rebuilt.count(i) > 1 for i in rebuilt)

    def test_isolation_trees_are_rebuilt_only_where_their_intervals_change(
            self, monkeypatch):
        # blocks of 64 cells: the forest's tables are rebuilt as the slabs
        # move, and several of its trees split on one set of features; no
        # tree is tabulated more often than the slabs move to another of
        # the intervals between its own thresholds
        e = factored_instance(self.PER_FEATURE, self.SHAPES)
        w0, w = self.weightings(e)
        rng = np.random.default_rng(3)
        meta = tuple(FeatureMeta(name=f"x{j}", kind=CONTINUOUS)
                     for j in range(e.n_features))
        fit = Dataset(rows=rng.normal(size=(60, e.n_features)), labels=None,
                      feature_meta=meta)
        model = fit_score_model("iforest", e, fit, if_trees=8,
                                if_max_samples=4)
        region = (model, float(np.median(model.scores(e, fit.rows))))
        forest = model._forest._stacked
        assert len(set(forest.features)) < len(forest.features)
        # the same disagreements as at the default block
        want = check_equivalence_exhaustive(e, w0, w, region=region)
        assert want
        monkeypatch.setattr(verify, "_BLOCK", 64)
        built = recorded_parts(monkeypatch)
        walked = []
        real = verify._Region.scores

        def recording(self, lead, run, shape):
            walked.append((lead, run))
            return real(self, lead, run, shape)

        monkeypatch.setattr(verify._Region, "scores", recording)
        assert check_equivalence_exhaustive(e, w0, w, region=region) == want

        reps = threshold_index(
            e, extra=model.extra_thresholds()).representatives()
        a, _ = verify._slab_layout(tuple(len(r) for r in reps))

        def own_intervals(m, lead, run):
            """Tree m's intervals at the slab: per feature it splits on,
            the number of its thresholds below the slab's representatives
            (those of the run on axis a, all of them after it)."""
            key = []
            for f, ts in zip(forest.features[m], forest.splits[m]):
                values = (reps[f][lead[f]] if f < a else reps[f][run]
                          if f == a else reps[f])
                key.append((np.asarray(values)[..., None]
                            > np.asarray(ts)).sum(axis=-1).tolist())
            return key

        builds = [0] * len(forest.features)
        for part, _ in built:
            if getattr(part, "stack", None) is forest:
                for m in part.trees:
                    builds[m] += 1
        for m, count in enumerate(builds):
            keys = [own_intervals(m, lead, run) for lead, run in walked]
            changes = 1 + sum(k != prev for prev, k in zip(keys, keys[1:]))
            assert count <= changes, m
        assert max(builds) > 1

    def walked_slabs(self, e, model, tau):
        """The slab of every cell and the cells in the region, from
        ``ScoreModel.scores`` at every representative."""
        theta = threshold_index(e, extra=model.extra_thresholds())
        reps = theta.representatives()
        shape = tuple(len(r) for r in reps)
        X = np.array(list(itertools.product(*reps)))
        cells = np.array(list(itertools.product(*map(range, shape))))
        slabs = slab_ids(shape, *verify._slab_layout(shape), cells)
        return slabs, np.flatnonzero(~(model.scores(e, X) > tau))

    @pytest.mark.parametrize("kind", SCORE_KINDS)
    def test_slabs_without_a_region_cell_sum_no_classes(self, kind,
                                                         monkeypatch):
        # the region is decided from tables: ScoreModel.scores is never
        # called, and a slab without a region cell has no class sums
        monkeypatch.setattr(verify, "_BLOCK", 64)
        e = factored_instance(self.PER_FEATURE, self.SHAPES)
        w0, w = self.weightings(e)
        model, tau = self.region(e, kind)
        slabs, inside = self.walked_slabs(e, model, tau)
        with_region = set(slabs[inside].tolist())
        assert len(with_region) < len(set(slabs.tolist()))
        want = scalar_reference(e, w0, w, (model, tau))

        def scored(*args, **kwargs):
            raise AssertionError("ScoreModel.scores was called")

        monkeypatch.setattr(ScoreModel, "scores", scored)
        summed = recorded_slabs(monkeypatch)
        got = check_equivalence_exhaustive(e, w0, w, region=(model, tau))
        assert got == want
        assert len(summed) == 2 * len(with_region)  # one per weighting

    def test_the_walk_logs_its_cells_and_slabs(self, monkeypatch, caplog):
        monkeypatch.setattr(verify, "_BLOCK", 64)
        e = factored_instance(self.PER_FEATURE, self.SHAPES)
        w0, w = self.weightings(e)
        model, tau = self.region(e, CHOW_LIU)
        slabs, inside = self.walked_slabs(e, model, tau)
        n_slabs = len(set(slabs.tolist()))
        skipped = n_slabs - len(set(slabs[inside].tolist()))
        assert 0 < skipped < n_slabs
        caplog.set_level(logging.DEBUG, logger="equiprune")
        list(iter_disagreements(e, w0, w, region=(model, tau)))
        list(iter_disagreements(e, w0, w))
        assert [r.getMessage() for r in caplog.records
                if r.name == "equiprune" and r.levelno == logging.DEBUG] == [
            f"verified {len(slabs)} cells in {n_slabs} slabs: {len(inside)} "
            f"cells in the region, {skipped} slabs without a region cell "
            f"skipped",
            f"verified {len(slabs)} cells in {n_slabs} slabs, no region"]

    def test_tables_are_class_major_and_contiguous(self, monkeypatch):
        # every table is (classes, trees of nonzero weight, *span), the
        # split axis over the run alone when the span is not whole
        e = factored_instance(self.PER_FEATURE, self.SHAPES)
        w0, w = self.weightings(e)
        reps = threshold_index(e).representatives()
        seen = []
        real = verify._tables

        def recording(group, stack, reps_, lead, run, weightings):
            out = real(group, stack, reps_, lead, run, weightings)
            seen.append((group, run, out))
            return out

        monkeypatch.setattr(verify, "_tables", recording)
        check_equivalence_exhaustive(e, w0, w)
        assert any(not group.whole for group, _, _ in seen)
        for group, run, out in seen:
            span = tuple(len(reps[f][run] if f == group.a and not group.whole
                             else reps[f]) for f in group.span)
            for weights, (trees, table) in zip((w0, w), out):
                assert trees == [m for m in group.trees if weights[m] != 0.0]
                assert table.shape == (e.n_classes, len(trees)) + span
                assert table.flags.c_contiguous

    def test_ties_go_to_the_smallest_class(self):
        e = factored_instance(self.PER_FEATURE, self.SHAPES)
        w0, w = self.weightings(e)
        ties = {0: 0, 1: 0}
        for indices, x in itertools.islice(
                iter_cells(threshold_index(e)), 0, None, 7):
            for c, weights in enumerate((w0, w)):
                scores = predict_scores(e, weights, x)
                ties[c] += int(np.sum(scores == scores.max()) > 1)
        assert ties[0] and ties[1]  # the instance does tie, in both
        got = check_equivalence_exhaustive(e, w0, w)
        assert got == scalar_reference(e, w0, w)

    def test_sums_trees_in_tree_order(self):
        # (0 + 1) + 1e16 rounds the 1 away, so w0 scores class 0 at 0 after
        # the -1e16 and picks class 1; summed the other way it would pick 0
        zero = Leaf(scores=(0.0, 0.0))
        trees = [Leaf(scores=(1.0, 0.5)), Leaf(scores=(1e16, 0.0)),
                 Leaf(scores=(-1e16, 0.0)),
                 Internal(feature=0, threshold=0.0, left=zero, right=zero)]
        e = Ensemble(trees=trees, weights0=np.ones(4), n_classes=2,
                     n_features=1)
        w = np.array([1.0, 0.0, 0.0, 1.0])
        got = check_equivalence_exhaustive(e, e.weights0, w)
        assert [(d.original_class, d.pruned_class) for d in got] == [(1, 0)] * 2
        assert got == scalar_reference(e, e.weights0, w)

    def test_no_table_exceeds_the_slab_or_block(self, monkeypatch):
        # tables of whole groups, tables rebuilt per run and both slabs all
        # hold at most _BLOCK cells
        e = factored_instance(self.PER_FEATURE, self.SHAPES)
        w0, w = self.weightings(e)
        built = recorded_tables(monkeypatch)
        slabs = recorded_slabs(monkeypatch)
        check_equivalence_exhaustive(e, w0, w)
        assert largest_table(built) <= verify._BLOCK * e.n_classes
        assert max(math.prod(shape) for shape in slabs) \
            <= verify._BLOCK * e.n_classes
        # so do the region's tables and slabs, at this block and at one of
        # 64 cells, where its tables too are rebuilt as the slabs move
        parts = recorded_parts(monkeypatch)
        scored = recorded_region_slabs(monkeypatch)
        for block in (verify._BLOCK, 64):
            monkeypatch.setattr(verify, "_BLOCK", block)
            for kind in SCORE_KINDS:
                parts.clear()
                scored.clear()
                check_equivalence_exhaustive(e, w0, w,
                                             region=self.region(e, kind))
                tables = [table for _, out in parts for _, table in out
                          if table.shape[1]]
                assert any(table.shape[0] == 1 for table in tables)
                # a table's rows: the classes, or one score
                assert max(table[0, 0].size for table in tables) <= block
                assert max(len(found) for found in scored) <= block

    def test_runs_that_do_not_divide_their_axis(self, monkeypatch):
        # a slab is the 16 x 1 x 31 = 496 trailing cells and a run of
        # 4,096 // 496 = 8 intervals of axis 0: runs of 8 and 2
        e = factored_instance(self.PER_FEATURE, self.SHAPES)
        w0, w = self.weightings(e)
        assert verify._slab_layout((10, 16, 1, 31)) == (0, 8)
        slabs = recorded_slabs(monkeypatch)
        got = check_equivalence_exhaustive(e, w0, w)
        # each slab once per weighting
        assert slabs == [(3, 8, 16, 1, 31)] * 2 + [(3, 2, 16, 1, 31)] * 2
        assert got == scalar_reference(e, w0, w)
        ids = [np.ravel_multi_index(d.indices, (10, 16, 1, 31)) for d in got]
        assert min(ids) < 8 * 496 <= max(ids)  # on both sides of the edge

    def test_a_table_is_rebuilt_per_run(self, monkeypatch):
        # the (0, 1, 3) group spans 4,960 > 4,096 intervals: its tables run
        # over each run of axis 0 in turn; every other group's tables span
        # all their features and are built once
        e = factored_instance(self.PER_FEATURE, self.SHAPES)
        w0, w = self.weightings(e)
        runs = []
        real = verify._tables

        def recording(group, stack, reps, lead, run, weightings):
            runs.append((group.features, run))
            return real(group, stack, reps, lead, run, weightings)

        monkeypatch.setattr(verify, "_tables", recording)
        got = check_equivalence_exhaustive(e, w0, w)
        assert got == scalar_reference(e, w0, w)
        assert [r for f, r in runs if f == (0, 1, 3)] == [slice(0, 8),
                                                          slice(8, 10)]
        others = [f for f, _ in runs if f != (0, 1, 3)]
        assert len(others) == len(set(others))

    @pytest.mark.parametrize("kind", SCORE_KINDS)
    def test_region_is_scored_across_run_edges(self, kind):
        # the disagreements inside the region lie in more than one slab, and
        # each slab scores only its own cells
        e = factored_instance(self.PER_FEATURE, self.SHAPES)
        w0, w = self.weightings(e)
        rng = np.random.default_rng(4)
        meta = tuple(FeatureMeta(name=f"x{j}", kind=CONTINUOUS)
                     for j in range(e.n_features))
        fit = Dataset(rows=rng.normal(size=(60, e.n_features)), labels=None,
                      feature_meta=meta)
        model = fit_score_model(kind, e, fit, if_trees=1, if_max_samples=4)
        region = (model, float(np.quantile(model.scores(e, fit.rows), 0.8)))
        got = check_equivalence_exhaustive(e, w0, w, region=region)
        assert got == scalar_reference(e, w0, w, region)
        reps = threshold_index(e, extra=model.extra_thresholds()) \
            .representatives()
        shape = tuple(len(r) for r in reps)
        a, run = verify._slab_layout(shape)
        slab = run * math.prod(shape[a + 1:])
        ids = [np.ravel_multi_index(d.indices, shape) for d in got]
        assert len({i // slab for i in ids}) > 1

    def test_a_last_axis_longer_than_a_block_is_split_into_runs(
            self, monkeypatch):
        # 4 x 4,301 cells: per interval of feature 0, runs of 4,096 and 205
        # intervals of feature 1; the (0, 1) and (1,) trees' tables span
        # feature 1's run alone, rebuilt per slab
        per_feature = (tuple(np.linspace(-1, 1, 3)),
                       tuple(np.linspace(-5, 5, verify._BLOCK + 204)))
        e = factored_instance(per_feature, [((0, 1), 3), ((1,), 2), ((0,), 1)],
                              n_classes=2)
        w0, w = np.zeros(e.n_trees), np.zeros(e.n_trees)
        w0[[0, 1]] = 1.0
        w[[1, 2]] = 1.0
        built = recorded_tables(monkeypatch)
        slabs = recorded_slabs(monkeypatch)
        got = check_equivalence_exhaustive(e, w0, w)
        assert slabs == ([(2, verify._BLOCK)] * 2 + [(2, 205)] * 2) * 4
        assert largest_table(built) <= verify._BLOCK * e.n_classes
        features = [f for f, _ in built]
        assert features.count((0, 1)) == features.count((1,)) == 8
        reps = threshold_index(e).representatives()
        X = np.array([(a, b) for a in reps[0] for b in reps[1]])
        c0, c1 = predict_classes(e, w0, X), predict_classes(e, w, X)
        last = verify._BLOCK + 205
        assert [np.ravel_multi_index(d.indices, (4, last)) for d in got] \
            == np.flatnonzero(c0 != c1).tolist()
        assert [(d.original_class, d.pruned_class) for d in got] == list(
            zip(c0[c0 != c1].tolist(), c1[c0 != c1].tolist()))


class TestSlabClasses:
    """``_slab_classes`` against ``np.argmax`` of the same sum."""

    @pytest.mark.parametrize("n_classes", (1, 2, 3, 4))
    def test_matches_argmax(self, n_classes):
        inf, nan = math.inf, math.nan
        values = (0.0, -0.0, 1.0, 1.0, -1.0, inf, -inf, nan)
        # every row of n_classes values drawn from ``values``: exact ties,
        # +-inf, NaN in any place and more than one NaN in a row
        rows = np.array(list(itertools.product(values, repeat=n_classes)))
        # a class-major slab: the classes, then the cells
        terms = [rows.T[:, :, None]]
        shape = (n_classes, len(rows), 1)
        assert verify._slab_classes(terms, shape).tolist() \
            == np.argmax(rows, axis=1).tolist()

    def test_sums_the_terms_first(self):
        # 1 + 2 ties 3 in classes 0, 1 and 2 of the first cell; inf - inf
        # is NaN in class 1 of the second
        a = np.array([[1.0, 3.0, 0.0], [0.0, math.inf, 0.0]])
        b = np.array([[2.0, 0.0, 0.0], [5.0, 0.0, 0.0]])
        c = np.array([[0.0, 0.0, 3.0], [0.0, -math.inf, 0.0]])
        with np.errstate(invalid="ignore"):
            total = np.zeros((2, 3)) + a + b + c
            got = verify._slab_classes([a.T, b.T, c.T], (3, 2))
        assert got.tolist() == np.argmax(total, axis=1).tolist() == [0, 1]


class TestStateEnumeration:
    def test_uniform_all_states_at_log_total(self):
        model = uniform_model(3, 2)
        out = enumerate_low_score_states(model, tau=3 * math.log(2))
        assert len(out) == 8

    def test_uniform_none_just_below(self):
        model = uniform_model(3, 2)
        out = enumerate_low_score_states(model, tau=3 * math.log(2) - 1e-9)
        assert len(out) == 0

    def test_skewed_model_matches_direct_filter(self):
        grid = BinGrid(boundaries=((0.5,), (0.5,)), included=(True, True))
        model = ChowLiuModel(
            grid=grid, root=0, order=(0, 1), parent={1: 0},
            root_table=np.array([0.75, 0.25]),
            edge_tables={1: np.array([[0.9, 0.1], [0.2, 0.8]])},
            beta=0.0)
        tau = -math.log(0.15)
        out = enumerate_low_score_states(model, tau)
        direct = []
        for s0, s1 in itertools.product(range(2), range(2)):
            score = chow_liu_state_score(model, {0: s0, 1: s1})
            if score <= tau + 1e-12:
                direct.append(((s0, s1), score))
        assert sorted(out.states) == sorted(s for s, _ in direct)
        assert len(out.scores) == len(direct)

    def test_random_models_match_direct_filter(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = int(rng.integers(1, 4))
            B = int(rng.integers(2, 4))
            model = random_chow_liu_model(p, B, concentration=0.7, rng=rng)
            tau = float(rng.uniform(0, p * math.log(B) + 1))
            out = enumerate_low_score_states(model, tau)
            count = 0
            for combo in itertools.product(*[range(B)] * p):
                state = dict(zip(model.order, combo))
                if chow_liu_state_score(model, state) <= tau + 1e-12:
                    count += 1
            assert len(out) == count


class TestStateBound:
    def test_uniform_equality_case(self):
        model = uniform_model(3, 2)
        res = check_state_bound(model, tau=3 * math.log(2))
        assert res.count == 8
        assert res.bound == pytest.approx(8.0)
        assert res.holds

    def test_tau_zero(self):
        model = uniform_model(2, 2)
        res = check_state_bound(model, tau=0.0)
        assert res.count <= 1
        assert res.holds

    def test_random_models_never_violate(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            p = int(rng.integers(1, 6))
            B = int(rng.integers(2, 5))
            model = random_chow_liu_model(p, B, concentration=0.5, rng=rng)
            tau = float(rng.uniform(0, p * math.log(B)))
            assert check_state_bound(model, tau).holds
