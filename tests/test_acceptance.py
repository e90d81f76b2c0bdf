"""Acceptance suite: one test per release criterion, each at its stated
tolerance. A pass/fail line per criterion is printed by the conftest hook.

Run with: pytest tests/test_acceptance.py -v
"""

import itertools
import math
import statistics
import time

import numpy as np
import pytest

from conftest import (
    chow_liu_state_score,
    desk_instance,
    fix_cell,
    min_strict_margin,
    subset_minimum_support,
)
from equiprune.conformal import calibrate
from equiprune.data import SplitSpec, split
from equiprune.ensemble import ThresholdIndex, train_boosted
from equiprune.evaluate import (
    CONFIDENCE_BOUND,
    EMPIRICAL,
    clopper_pearson_upper,
    evaluate,
    select_alpha,
)
from equiprune.loop import FULL_SPACE, PruneConfig, run, run_full_space
from equiprune.milp import BINARY, EQUAL, GREATER_EQUAL, INFEASIBLE, LESS_EQUAL, OPTIMAL, MilpModel, solve
from equiprune.oracle import FeatureEncoding, encode_region
from equiprune.plausibility import fit_score_model
from equiprune.pruner import L0, PrunerProblem, solve_pruner
from equiprune.synth import MoonsSpec, gen_moons, random_chow_liu_model
from equiprune.verify import (
    check_equivalence_exhaustive,
    check_state_bound,
    enumerate_low_score_states,
)


# --- shared desk-scale instance pool (criteria 1, 2, 6) ---------------------


@pytest.fixture(scope="module")
def desk_pool():
    """20 margin-clean instances with p <= 3, M <= 6, D <= 2, B <= 3."""
    pool = []
    for i in range(20):
        p = 2 + (i % 2)
        n_rounds = 3 + (i % 4)          # 3..6 trees (binary: one per round)
        depth = 1 + (i % 2)
        bins = 2 + (i % 2)
        alpha = (0.2, 0.3, 0.45)[i % 3]
        e, fit, cal = desk_instance(seed=300 + i, p=p, n_rounds=n_rounds,
                                    depth=depth)
        score = fit_score_model("chowliu", e, fit, bins=bins)
        pool.append({"e": e, "fit": fit, "cal": cal, "score": score,
                     "alpha": alpha, "bins": bins})
    return pool


def test_criterion_01_certified_in_distribution_equivalence(desk_pool):
    # 20 random desk-scale instances terminate fully certified with zero
    # disagreeing cells inside the calibrated region. Tolerance: exactly 0.
    start = time.monotonic()
    for i, inst in enumerate(desk_pool):
        cfg = PruneConfig(alpha=inst["alpha"], bins=inst["bins"])
        res = run(inst["e"], inst["fit"], inst["cal"], cfg,
                  score=inst["score"])
        assert res.certified, f"instance {i} did not certify"
        if math.isfinite(res.tau):
            bad = check_equivalence_exhaustive(
                inst["e"], inst["e"].weights0, res.weights,
                region=(inst["score"], res.tau))
        else:
            bad = check_equivalence_exhaustive(
                inst["e"], inst["e"].weights0, res.weights)
        assert bad == [], f"instance {i}: {len(bad)} disagreeing cells"
    assert time.monotonic() - start < 60.0


def test_criterion_02_full_space_equivalence(desk_pool):
    # Same instances with tau = +inf: zero disagreeing cells anywhere.
    start = time.monotonic()
    for i, inst in enumerate(desk_pool):
        res = run_full_space(inst["e"], inst["fit"])
        assert res.certified, f"instance {i} did not certify"
        assert res.guarantee_scope == FULL_SPACE
        bad = check_equivalence_exhaustive(inst["e"], inst["e"].weights0,
                                           res.weights)
        assert bad == [], f"instance {i}: {len(bad)} disagreeing cells"
    assert time.monotonic() - start < 60.0


def test_criterion_03_conformal_coverage():
    # Mean empirical coverage within the split-conformal band:
    # [1 - a - 0.02, 1 - a + 1/(n+1) + 0.02], n=100, 500 replications.
    start = time.monotonic()
    rng = np.random.default_rng(20240815)
    n, reps, n_test = 100, 500, 200
    for alpha in (0.1, 0.2, 0.4):
        coverages = np.empty(reps)
        for r in range(reps):
            cal_scores = rng.normal(size=n)
            test_scores = rng.normal(size=n_test)
            tau = calibrate(cal_scores, alpha).tau
            coverages[r] = (test_scores <= tau).mean()
        mean_cov = float(coverages.mean())
        lo = 1 - alpha - 0.02
        hi = 1 - alpha + 1 / (n + 1) + 0.02
        assert lo <= mean_cov <= hi, f"alpha={alpha}: {mean_cov}"
    assert time.monotonic() - start < 5.0


def test_criterion_04_state_count_bound():
    # 100 random tree-factorized models: |{states with score <= tau}| <= e^tau,
    # with equality on the uniform model at tau = p * log(B).
    start = time.monotonic()
    rng = np.random.default_rng(7)
    for trial in range(100):
        p = int(rng.integers(1, 7))
        B = int(rng.integers(2, 5))
        model = random_chow_liu_model(p, B, concentration=0.6, rng=rng)
        tau = float(rng.uniform(0.0, p * math.log(B)))
        res = check_state_bound(model, tau)
        assert res.holds, f"trial {trial}: {res.count} > e^{tau}"

    from test_verify import uniform_model

    p, B = 3, 4
    res = check_state_bound(uniform_model(p, B), tau=p * math.log(B))
    assert res.count == B ** p  # tight case
    assert res.holds
    assert time.monotonic() - start < 30.0


def _brute_force_binary(model: MilpModel):
    """Vectorized enumeration over all binary assignments."""
    n = len(model.variables)
    grid = ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1).astype(float)
    feasible = np.ones(len(grid), dtype=bool)
    for con in model.constraints:
        row = np.zeros(n)
        for j, c in con.coeffs:
            row[j] = c
        lhs = grid @ row
        if con.relation == LESS_EQUAL:
            feasible &= lhs <= con.rhs + 1e-9
        elif con.relation == GREATER_EQUAL:
            feasible &= lhs >= con.rhs - 1e-9
        else:
            feasible &= np.abs(lhs - con.rhs) <= 1e-9
    if not feasible.any():
        return None
    obj = np.zeros(n)
    for j, c in model.objective.items():
        obj[j] = c
    vals = grid[feasible] @ obj
    return float(vals.min() if model.sense == "min" else vals.max())


def test_criterion_05_milp_solver_soundness(lp_path):
    # 200 random all-binary models (<= 12 binaries): status and objective
    # match exhaustive enumeration (objective tolerance 1e-9).
    start = time.monotonic()
    rng = np.random.default_rng(99)
    for trial in range(200):
        n_bin = int(rng.integers(1, 13))
        model = MilpModel()
        for _ in range(n_bin):
            model.add_var(kind=BINARY)
        for _ in range(int(rng.integers(0, 5))):
            coeffs = {j: float(rng.integers(-4, 5)) for j in range(n_bin)}
            rel = (LESS_EQUAL, GREATER_EQUAL, EQUAL)[rng.integers(3)]
            model.add_constraint(coeffs, rel, float(rng.integers(-3, 2 * n_bin)))
        model.set_objective({j: float(rng.integers(-5, 6)) for j in range(n_bin)},
                            sense="min" if rng.integers(2) == 0 else "max")
        expected = _brute_force_binary(model)
        sol = solve(model)
        if expected is None:
            assert sol.status == INFEASIBLE, f"trial {trial}"
        else:
            assert sol.status == OPTIMAL, f"trial {trial}"
            assert abs(sol.objective - expected) <= 1e-9, f"trial {trial}"
    assert time.monotonic() - start < 60.0


def test_criterion_06_l0_dominance_and_alpha_monotonicity(desk_pool):
    # On certified instances: support(alpha) <= support(full-space) for every
    # alpha, and support(alpha) non-increasing in alpha. Exact integers.
    alphas = (0.1, 0.3, 0.6, 0.85)
    for inst in desk_pool[:6]:
        fs = run_full_space(inst["e"], inst["fit"])
        assert fs.certified
        supports = []
        for alpha in alphas:
            cfg = PruneConfig(alpha=alpha, bins=inst["bins"])
            res = run(inst["e"], inst["fit"], inst["cal"], cfg,
                      score=inst["score"])
            assert res.certified
            supports.append(res.support_size)
            assert res.support_size <= fs.support_size
        for a, b in zip(supports[:-1], supports[1:]):
            assert a >= b


def test_criterion_07_pruner_optimality_oracle():
    # For M <= 8, the L0 MILP support equals the subset-enumeration minimum
    # on 50 random constraint sets. Exact.
    from conftest import blob_dataset

    rng = np.random.default_rng(11)
    for trial in range(50):
        n_rounds = int(rng.integers(2, 9))  # binary: M = n_rounds <= 8
        ds = blob_dataset(36, p=2, seed=5000 + trial)
        e = train_boosted(ds, n_rounds=n_rounds, max_depth=2)
        n_pts = int(rng.integers(4, 13))
        pts = [np.asarray(x) for x in ds.rows[:n_pts]]
        # eps must sit above the LP feasibility tolerance for the
        # enumeration oracle's per-subset LP solves to be trustworthy, and
        # below the original weights' own margin so both sides price the
        # same problem (the production solve halves eps otherwise)
        prob0 = PrunerProblem(ensemble=e, points=pts, objective=L0)
        eps = min(1e-4, 0.4 * min_strict_margin(e, prob0._reps))
        if eps < 1e-6:
            continue
        prob = PrunerProblem(ensemble=e, points=pts, objective=L0, eps=eps)
        w, sol = solve_pruner(prob)
        assert sol.status == OPTIMAL
        expected = subset_minimum_support(e, prob._reps, eps)
        assert int(np.count_nonzero(w)) == expected, f"trial {trial}"


def test_criterion_08_encoding_faithfulness():
    # For p <= 3, B <= 3: the MILP-feasible state set under the tree-model
    # encoder equals the enumerated low-score state set, exactly, on 20
    # random (model, tau) pairs.
    rng = np.random.default_rng(23)
    for trial in range(20):
        p = int(rng.integers(1, 4))
        B = int(rng.integers(2, 4))
        model = random_chow_liu_model(p, B, concentration=0.8, rng=rng)
        all_scores = []
        for combo in itertools.product(*[range(B)] * p):
            all_scores.append(
                chow_liu_state_score(model, dict(zip(model.order, combo))))
        tau = float(rng.uniform(min(all_scores) - 0.5, max(all_scores) + 0.5))

        enumerated = set(enumerate_low_score_states(model, tau).states)
        milp_feasible = set()
        for combo in itertools.product(*[range(B)] * p):
            # cell k of feature j is bin k over the grid's own boundaries
            enc = FeatureEncoding(
                ThresholdIndex(per_feature=model.grid.boundaries), MilpModel())
            encode_region(enc, None, None, model.score_terms(None), tau)
            state = dict(zip(model.order, combo))
            fix_cell(enc.model, enc.mu, [state[j] for j in range(p)])
            enc.model.set_objective({}, sense="min")
            if solve(enc.model).status == OPTIMAL:
                milp_feasible.add(combo)
        assert milp_feasible == enumerated, f"trial {trial}"


def test_criterion_09_moons_compression_beats_full_space():
    # Seeded two-moons with the built-in 30-tree depth-2 ensemble, 5 seeds:
    # median in-distribution (alpha=0.8) retained trees < median full-space
    # retained trees, and in-distribution test fidelity >= 0.95.
    start = time.monotonic()
    pine_supports, fipe_supports, fidelities = [], [], []
    for seed in range(5):
        ds = gen_moons(MoonsSpec(n=200, noise=0.2, seed=seed))
        fit, cal, test = split(ds, SplitSpec(ratios=(0.64, 0.16, 0.20),
                                             seed=seed))
        e = train_boosted(fit, n_rounds=30, max_depth=2)
        fs = run_full_space(e, fit)
        score = fit_score_model("chowliu", e, fit, bins=4)
        res = run(e, fit, cal, PruneConfig(alpha=0.8), score=score)
        fipe_supports.append(fs.support_size)
        pine_supports.append(res.support_size)
        region = (score, res.tau) if math.isfinite(res.tau) else None
        rep = evaluate(e, e.weights0, res.weights, test, region=region)
        fidelities.append(rep.fidelity)
    assert statistics.median(pine_supports) < statistics.median(fipe_supports), (
        pine_supports, fipe_supports)
    assert statistics.median(fidelities) >= 0.95, fidelities
    assert time.monotonic() - start < 600.0


def test_criterion_10_report_identity_on_certified_runs(desk_pool):
    # On every certified in-distribution run: conditional fidelity is exactly
    # 1 (when defined) and overall fidelity >= coverage. Exact counts.
    checked = 0
    for inst in desk_pool[:8]:
        cfg = PruneConfig(alpha=inst["alpha"], bins=inst["bins"])
        res = run(inst["e"], inst["fit"], inst["cal"], cfg,
                  score=inst["score"])
        if not (res.certified and math.isfinite(res.tau)):
            continue
        rep = evaluate(inst["e"], inst["e"].weights0, res.weights,
                       inst["cal"], region=(inst["score"], res.tau))
        assert rep.n_in_region_match == rep.n_in_region
        if rep.conditional_fidelity is not None:
            assert rep.conditional_fidelity == 1.0
        assert rep.n_match >= rep.n_in_region  # rho >= pi identity, as counts
        checked += 1
    assert checked >= 4  # the identity was actually exercised


def test_criterion_11_alpha_selection_rules():
    # Hand-derived selector outcomes, including the fallback case. Exact.
    sel = select_alpha({0.1: 0, 0.5: 0, 0.8: 0}, n=50, rho_star=0.9,
                       kind=EMPIRICAL)
    assert sel.chosen == 0.8

    sel = select_alpha({0.1: 0, 0.5: 10}, n=100, rho_star=0.95, kind=EMPIRICAL)
    assert sel.chosen == 0.1

    sel = select_alpha({0.1: 0, 0.5: 0}, n=10, rho_star=0.99,
                       kind=CONFIDENCE_BOUND, delta=0.05)
    assert sel.fallback and sel.chosen is None


def test_criterion_12_clopper_pearson_closed_forms():
    # U(0, n, eta) = 1 - eta^(1/n) within 1e-9 for n in {1, 10, 100};
    # U(n, n, eta) = 1 exactly.
    for n in (1, 10, 100):
        for eta in (0.05, 0.25):
            expected = 1.0 - eta ** (1.0 / n)
            got = clopper_pearson_upper(0, n, eta)
            assert abs(got - expected) <= 1e-9, (n, eta)
    for n in (1, 10, 100):
        assert clopper_pearson_upper(n, n, 0.05) == 1.0
