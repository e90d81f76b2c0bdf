import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

from conftest import desk_instance
from equiprune.data import CONTINUOUS, Dataset, FeatureMeta
from equiprune.ensemble import Ensemble, Internal, Leaf
from equiprune.errors import EmptyTestSet
from equiprune.evaluate import (
    CONFIDENCE_BOUND,
    EMPIRICAL,
    clopper_pearson_upper,
    count_mismatches,
    evaluate,
    report_row,
    select_alpha,
)


class FixedScore:
    """Test double: score is the first coordinate."""

    def score(self, e, x):
        return float(x[0])

    def scores(self, e, X):
        return np.asarray(X, dtype=float)[:, 0]

    def extra_thresholds(self):
        return {}


def flip_ensemble():
    a = Internal(feature=0, threshold=0.5, left=Leaf(scores=(1.0, 0.0)),
                 right=Leaf(scores=(0.3, 0.7)))
    b = Internal(feature=0, threshold=1.0, left=Leaf(scores=(0.5, 0.0)),
                 right=Leaf(scores=(0.0, 1.0)))
    return Ensemble(trees=[a, b], weights0=np.ones(2), n_classes=2,
                    n_features=1)


def one_d(values, labels=None):
    rows = np.asarray(values, dtype=float)[:, None]
    meta = (FeatureMeta(name="x0", kind=CONTINUOUS),)
    lab = None if labels is None else np.asarray(labels, dtype=np.int64)
    names = () if labels is None else ("0", "1")
    return Dataset(rows=rows, labels=lab, feature_meta=meta, label_names=names)


class TestEvaluate:
    def test_identity_weights_full_fidelity(self):
        e = flip_ensemble()
        test = one_d([0.0, 0.7, 2.0])
        rep = evaluate(e, e.weights0, e.weights0, test,
                       region=(FixedScore(), 10.0))
        assert rep.fidelity == 1.0
        assert rep.conditional_fidelity == 1.0

    def test_pruning_rate_and_compression(self):
        t = Leaf(scores=(0.0, 1.0))
        e = Ensemble(trees=[t] * 30, weights0=np.ones(30), n_classes=2,
                     n_features=1)
        w = np.zeros(30)
        w[:11] = 1.0  # 30 trees down to 11
        rep = evaluate(e, e.weights0, w, one_d([0.0]))
        assert rep.pruning_rate == pytest.approx(1 - 11 / 30)
        assert rep.compression_ratio == pytest.approx(30 / 11)

    def test_hand_counted_region_metrics(self):
        # 4 test points, 1 disagreement, 2 in-region, 0 in-region disagreements
        e = flip_ensemble()
        w = np.array([2.0, 0.0])  # flips exactly (0.5, 1.0]
        test = one_d([0.0, 0.3, 0.7, 2.0])
        region = (FixedScore(), 0.5)  # in-region: x <= 0.5 (two points)
        rep = evaluate(e, e.weights0, w, test, region=region)
        assert rep.fidelity == 0.75
        assert rep.coverage == 0.5
        assert rep.conditional_fidelity == 1.0

    def test_undefined_conditional_fidelity(self):
        e = flip_ensemble()
        rep = evaluate(e, e.weights0, e.weights0, one_d([2.0]),
                       region=(FixedScore(), -100.0))
        assert rep.coverage == 0.0
        assert rep.conditional_fidelity is None

    def test_report_identity(self):
        # fidelity >= coverage * conditional fidelity, as a counts identity
        e, fit, _ = desk_instance(seed=80)
        rng = np.random.default_rng(0)
        w = e.weights0.copy()
        w[rng.integers(e.n_trees)] = 0.0
        from equiprune.plausibility import fit_score_model

        score = fit_score_model("chowliu", e, fit)
        tau = float(np.median([score.score(e, x) for x in fit.rows]))
        rep = evaluate(e, e.weights0, w, fit, region=(score, tau))
        if rep.conditional_fidelity is not None:
            assert rep.fidelity >= rep.coverage * rep.conditional_fidelity - 1e-12

    def test_accuracy_columns(self):
        e = flip_ensemble()
        test = one_d([0.0, 2.0], labels=[0, 1])
        rep = evaluate(e, e.weights0, e.weights0, test)
        assert rep.accuracy_original == 1.0
        assert rep.accuracy_pruned == 1.0

    def test_empty_test_set(self):
        e = flip_ensemble()
        with pytest.raises(EmptyTestSet):
            evaluate(e, e.weights0, e.weights0,
                     Dataset(rows=np.empty((0, 1)), labels=None,
                             feature_meta=(FeatureMeta(name="x", kind=CONTINUOUS),)))


class TestClopperPearson:
    def test_zero_mismatches_closed_form(self):
        for n in (1, 10, 100):
            eta = 0.05
            expected = 1 - eta ** (1 / n)
            assert clopper_pearson_upper(0, n, eta) == pytest.approx(expected, abs=1e-9)

    def test_all_mismatches_is_one(self):
        assert clopper_pearson_upper(7, 7, 0.05) == 1.0

    def test_matches_beta_quantile_identity(self):
        # independent recomputation: U = BetaInv(1 - eta; k + 1, n - k)
        for k, n, eta in [(1, 20, 0.05), (3, 50, 0.1), (0, 30, 0.01),
                          (12, 40, 0.2)]:
            expected = stats.beta.ppf(1 - eta, k + 1, n - k)
            assert clopper_pearson_upper(k, n, eta) == pytest.approx(expected, abs=1e-8)

    def test_monotonicity(self):
        # non-decreasing in k, non-increasing in n and eta
        assert clopper_pearson_upper(2, 20, 0.05) <= clopper_pearson_upper(3, 20, 0.05)
        assert clopper_pearson_upper(2, 40, 0.05) <= clopper_pearson_upper(2, 20, 0.05)
        assert clopper_pearson_upper(2, 20, 0.1) <= clopper_pearson_upper(2, 20, 0.05)

    def test_bound_dominates_empirical_rate(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 60))
            k = int(rng.integers(0, n + 1))
            assert clopper_pearson_upper(k, n, 0.05) >= k / n - 1e-12

    def test_input_validation(self):
        with pytest.raises(ValueError):
            clopper_pearson_upper(5, 3, 0.05)
        with pytest.raises(ValueError):
            clopper_pearson_upper(1, 3, 0.0)


class TestSelectAlpha:
    def test_all_clean_picks_largest(self):
        sel = select_alpha({0.1: 0, 0.5: 0, 0.8: 0}, n=50, rho_star=0.9,
                           kind=EMPIRICAL)
        assert sel.chosen == 0.8
        assert not sel.fallback

    def test_empirical_rule_hand_case(self):
        sel = select_alpha({0.1: 0, 0.5: 10}, n=100, rho_star=0.95,
                           kind=EMPIRICAL)
        # alpha=0.5 fails (0.90 < 0.95); alpha=0.1 passes
        assert sel.chosen == 0.1

    def test_confidence_bound_fallback_hand_case(self):
        sel = select_alpha({0.1: 0, 0.5: 0}, n=10, rho_star=0.99,
                           kind=CONFIDENCE_BOUND, delta=0.05)
        # U_CP(0, 10, 0.025) = 1 - 0.025^(1/10) ~ 0.308 > 0.01
        assert sel.fallback
        assert sel.chosen is None

    def test_confidence_never_larger_than_empirical(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            grid = sorted(rng.uniform(0.05, 0.95, size=4))
            n = int(rng.integers(20, 200))
            mism = {float(a): int(rng.integers(0, n // 4)) for a in grid}
            rho = float(rng.uniform(0.7, 0.99))
            emp = select_alpha(mism, n=n, rho_star=rho, kind=EMPIRICAL)
            conf = select_alpha(mism, n=n, rho_star=rho, kind=CONFIDENCE_BOUND)
            if conf.chosen is not None:
                assert emp.chosen is not None
                assert conf.chosen <= emp.chosen

    @pytest.mark.parametrize("kind", [EMPIRICAL, CONFIDENCE_BOUND])
    @pytest.mark.parametrize("rho_star", [1.5, -1.0, math.nan])
    def test_target_outside_the_unit_interval_is_refused(self, kind,
                                                         rho_star):
        # 1.5 fell back and -1 took the largest alpha, without an error
        with pytest.raises(ValueError, match=r"rho_star must be in \[0, 1\]"):
            select_alpha({0.1: 0, 0.5: 0}, n=10, rho_star=rho_star,
                         kind=kind)

    def test_targets_at_the_ends_of_the_unit_interval(self):
        mism = {0.1: 0, 0.5: 3}
        assert select_alpha(mism, n=10, rho_star=0.0).chosen == 0.5
        assert select_alpha(mism, n=10, rho_star=1.0).chosen == 0.1

    def test_count_mismatches(self):
        e = flip_ensemble()
        w = np.array([2.0, 0.0])
        sel_set = one_d([0.0, 0.7, 0.9, 2.0])
        assert count_mismatches(e, e.weights0, w, sel_set) == 2

    def test_selection_json(self):
        sel = select_alpha({0.1: 1}, n=10, rho_star=0.5, kind=EMPIRICAL)
        dump = sel.to_json()
        assert dump["chosen"] == 0.1
        assert dump["mismatches"] == [[0.1, 1]]


def test_report_row_columns():
    e = flip_ensemble()
    rep = evaluate(e, e.weights0, e.weights0, one_d([0.0, 2.0]))
    row = report_row("toy", 0, "full_space", None, rep, True, "full_space",
                     1.25, 3)
    from equiprune.evaluate import REPORT_COLUMNS

    assert list(row) == REPORT_COLUMNS
    assert row["alpha"] == ""
    assert row["fidelity"] == 1.0


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats is imported by clopper_pearson_upper alone, on first use:
    # importing it with the package would cost about a second and 20 MB
    import equiprune

    src = os.path.dirname(os.path.dirname(os.path.abspath(equiprune.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, equiprune; print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
    assert clopper_pearson_upper(0, 10, 0.05) == pytest.approx(
        1 - 0.05 ** (1 / 10), abs=1e-9)
