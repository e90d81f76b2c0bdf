import math

import numpy as np
import pytest
from scipy import stats

from equiprune.plausibility import mutual_information
from equiprune.synth import (
    MoonsSpec,
    TreeDistSpec,
    gen_moons,
    gen_tree_dist,
    sample_chow_liu,
)


class TestMoons:
    def test_minimum_size_one_per_class(self):
        ds = gen_moons(MoonsSpec(n=2, noise=0.0, seed=0))
        assert sorted(ds.labels.tolist()) == [0, 1]

    def test_noiseless_points_on_circles(self):
        ds = gen_moons(MoonsSpec(n=40, noise=0.0, seed=1))
        for x, y in zip(ds.rows, ds.labels):
            if y == 0:
                r = np.hypot(x[0], x[1])
            else:
                r = np.hypot(x[0] - 1.0, x[1] - 0.5)
            assert abs(r - 1.0) < 1e-12

    def test_label_balance(self):
        for n in (11, 20, 33):
            ds = gen_moons(MoonsSpec(n=n, noise=0.1, seed=2))
            n1 = int(ds.labels.sum())
            assert abs((n - n1) - n1) <= 1

    def test_deterministic(self):
        a = gen_moons(MoonsSpec(n=25, noise=0.2, seed=3))
        b = gen_moons(MoonsSpec(n=25, noise=0.2, seed=3))
        assert np.array_equal(a.rows, b.rows)
        assert np.array_equal(a.labels, b.labels)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MoonsSpec(n=1)
        with pytest.raises(ValueError):
            MoonsSpec(n=5, noise=-0.1)
        for noise in (math.nan, math.inf):
            with pytest.raises(ValueError, match="noise must be finite"):
                MoonsSpec(n=5, noise=noise)


class TestTreeDist:
    @pytest.mark.parametrize("concentration", [0.0, -1.0, math.nan,
                                               math.inf])
    def test_concentration_must_be_finite_and_positive(self, concentration):
        with pytest.raises(ValueError, match="concentration must be finite "
                           "and > 0"):
            TreeDistSpec(n=10, p=2, states=2, concentration=concentration)

    def test_single_feature_marginal_matches(self):
        ds, model = gen_tree_dist(TreeDistSpec(n=10_000, p=1, states=3, seed=0))
        counts = np.bincount(ds.rows[:, 0].astype(int), minlength=3)
        chi2 = stats.chisquare(counts, f_exp=model.root_table * ds.n_rows)
        assert chi2.pvalue > 1e-4

    def test_deterministic(self):
        a, _ = gen_tree_dist(TreeDistSpec(n=50, p=3, states=2, seed=7))
        b, _ = gen_tree_dist(TreeDistSpec(n=50, p=3, states=2, seed=7))
        assert np.array_equal(a.rows, b.rows)

    def test_true_edge_has_higher_mi_than_non_edge(self):
        spec = TreeDistSpec(n=10_000, p=4, states=2, concentration=0.3, seed=11)
        ds, model = gen_tree_dist(spec)
        disc = ds.rows.astype(int)
        edges = set()
        for j, i in model.parent.items():
            edges.add((min(i, j), max(i, j)))
        edge_mis = [mutual_information(disc[:, i], disc[:, j], 2, 2)
                    for i, j in edges]
        non_edges = [(i, j) for i in range(4) for j in range(i + 1, 4)
                     if (i, j) not in edges]
        # the strongest true edge dominates the weakest non-edge clearly
        non_edge_mis = [mutual_information(disc[:, i], disc[:, j], 2, 2)
                        for i, j in non_edges]
        assert max(edge_mis) > max(non_edge_mis)

    def test_empirical_marginals_converge(self):
        ds, model = gen_tree_dist(TreeDistSpec(n=10_000, p=2, states=3, seed=4))
        root_freq = np.bincount(ds.rows[:, model.root].astype(int),
                                minlength=3) / ds.n_rows
        assert np.allclose(root_freq, model.root_table, atol=0.02)

    def test_sampler_respects_conditionals(self):
        rng = np.random.default_rng(9)
        _, model = gen_tree_dist(TreeDistSpec(n=10, p=2, states=2, seed=5))
        rows = sample_chow_liu(model, 20_000, rng)
        child = [j for j in model.order if j != model.root][0]
        parent = model.parent[child]
        mask = rows[:, parent].astype(int) == 0
        freq = rows[mask, child].astype(int).mean()
        assert freq == pytest.approx(model.edge_tables[child][0, 1], abs=0.02)
