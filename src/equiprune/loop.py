"""The alternating weight-solve / counterexample-search loop.

Constraints warm-start from the fit set (deduplicated by cell). Each
iteration solves for the sparsest weights satisfying the current constraint
set, then searches for cells where those weights disagree with the original
ones, restricted to the calibrated in-distribution region when a miscoverage
level is configured. The loop stops when a fully certified search finds
nothing; solver limits or duplicate counterexamples end it uncertified.

Full-space mode is the same loop with the region constraint skipped
(tau = +infinity), yielding equivalence over the whole input space when
certified.
"""

from __future__ import annotations

import json
import logging
import math
import os
import time
from dataclasses import dataclass, fields

import numpy as np

from .conformal import CalibrationResult, calibrate
from .data import Dataset
from .ensemble import Ensemble
from .errors import EquipruneError, SolverUncertified
from .oracle import find_counterexamples, search_model
from .plausibility import (
    CHOW_LIU,
    ISOLATION_FOREST,
    LEAF_SUPPORT,
    SCORE_KINDS,
    ScoreModel,
    check_beta,
    fit_score_model,
)
from .pruner import L0, MarginSlip, PrunerProblem, solve_pruner

FULL_SPACE = "full_space"
IN_DISTRIBUTION = "in_distribution"
UNCERTIFIED = "uncertified"

log = logging.getLogger("equiprune")


@dataclass(frozen=True)
class PruneConfig:
    """Everything a pruning run depends on, serializable for reproduction."""

    alpha: float | None = None
    full_space: bool = False
    score_kind: str = CHOW_LIU
    objective: str = L0
    eps_margin: float | None = None
    time_limit_s: float = 120.0
    node_limit: int | None = None
    max_iterations: int = 10_000
    bins: int = 4
    beta: float = 1.0
    if_trees: int = 30
    if_max_samples: int = 256
    seed: int = 0

    def __post_init__(self):
        if self.full_space == (self.alpha is not None):
            raise ValueError("set exactly one of alpha or full_space")
        if self.alpha is not None and not (0 < self.alpha < 1):
            raise ValueError("alpha must be in (0, 1)")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.node_limit is not None and self.node_limit < 1:
            raise ValueError("node_limit must be >= 1")
        if self.eps_margin is not None and not (
                math.isfinite(self.eps_margin) and self.eps_margin > 0):
            raise ValueError(f"eps_margin must be finite and > 0, got "
                             f"{self.eps_margin}")
        if not self.time_limit_s > 0:  # NaN too
            raise ValueError(f"time_limit_s must be > 0, got "
                             f"{self.time_limit_s}")
        if self.score_kind not in SCORE_KINDS:
            raise ValueError(f"score_kind must be one of {SCORE_KINDS}")
        if not self.full_space:
            # the fit parameters of the score model the run fits
            if self.score_kind == CHOW_LIU and self.bins < 2:
                raise ValueError(f"bins must be >= 2, got {self.bins}")
            if self.score_kind in (CHOW_LIU, LEAF_SUPPORT):
                check_beta(self.beta)
            if self.score_kind == ISOLATION_FOREST and (
                    self.if_trees < 1 or self.if_max_samples < 2):
                raise ValueError(
                    f"if_trees must be >= 1 and if_max_samples >= 2, got "
                    f"{self.if_trees} and {self.if_max_samples}")

    def to_json(self) -> dict:
        out = {k: getattr(self, k) for k in self.__dataclass_fields__}
        return out


@dataclass
class IterationRecord:
    """One iteration: its weight solve, with the eps it used, how many times
    that eps was halved, the lower bound it started from (None when none),
    whether a tie repair ran and its Benders master rounds, cuts and
    subproblem LPs (0 for L1), and its counterexample search: its wall time
    (``oracle_time_s``) and the seconds summed over its class-pair solves
    (``oracle_solve_s``), which run concurrently, so the sum can exceed the
    wall time."""

    iteration: int
    n_constraints: int
    pruner_objective: float
    oracle_statuses: dict
    n_found: int
    pruner_time_s: float
    oracle_time_s: float
    oracle_solve_s: float = 0.0
    pruner_nodes: int = 0
    oracle_nodes: int = 0
    eps: float | None = None
    halvings: int = 0
    lower_bound: float | None = None
    tie_repair: bool = False
    rounds: int = 0
    cuts: int = 0
    subproblem_lps: int = 0
    note: str = ""

    def to_json(self) -> dict:
        """Every field, in declaration order; ``oracle_statuses`` keyed
        ``"c->c2"``."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["oracle_statuses"] = {f"{c}->{c2}": s for (c, c2), s
                                  in self.oracle_statuses.items()}
        return out


@dataclass
class PruneResult:
    weights: np.ndarray
    iterations: int
    records: list[IterationRecord]
    tau: float
    certified: bool
    guarantee_scope: str
    calibration: CalibrationResult | None
    config: PruneConfig
    total_time_s: float

    @property
    def support_size(self) -> int:
        return int(np.count_nonzero(self.weights))

    def to_json(self) -> dict:
        return {
            "weights": [float(w) for w in self.weights],
            "iterations": self.iterations,
            "tau": None if math.isinf(self.tau) else self.tau,
            "certified": self.certified,
            "guarantee_scope": self.guarantee_scope,
            "support_size": self.support_size,
            "calibration": None if self.calibration is None else self.calibration.to_json(),
            "records": [r.to_json() for r in self.records],
            "total_time_s": self.total_time_s,
            "config": self.config.to_json(),
        }


def save_result(result: PruneResult, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result.to_json(), fh, indent=1)


def run(e: Ensemble, fit: Dataset, cal: Dataset | None, cfg: PruneConfig,
        score: ScoreModel | None = None,
        dump_dir: str | None = None) -> PruneResult:
    """Prune with the configured guarantee mode.

    In-distribution mode fits the score model on the fit set (unless one is
    passed in), calibrates tau at the configured miscoverage on the
    calibration set, and restricts the counterexample search accordingly.
    """
    start = time.monotonic()
    calibration = None
    tau = math.inf
    if not cfg.full_space:
        if cal is None or cal.n_rows == 0:
            raise EquipruneError("in-distribution mode needs a calibration set")
        if score is None:
            score = fit_score_model(cfg.score_kind, e, fit, bins=cfg.bins,
                                    beta=cfg.beta, if_trees=cfg.if_trees,
                                    if_max_samples=cfg.if_max_samples,
                                    seed=cfg.seed)
        cal_scores = score.scores(e, cal.rows)
        calibration = calibrate(cal_scores, cfg.alpha)
        tau = calibration.tau
    # the rows every pair MILP of every search shares, built once
    search = search_model(e, score, tau)

    # Warm start: one representative constraint point per fit-set cell.
    prob = PrunerProblem(ensemble=e, points=fit.rows, objective=cfg.objective,
                         eps=cfg.eps_margin)
    records: list[IterationRecord] = []
    certified = False
    tightened = False
    w = e.weights0.copy()
    iteration = 0

    while iteration < cfg.max_iterations:
        iteration += 1
        t0 = time.monotonic()
        try:
            w, pruner_sol = solve_pruner(prob, time_limit_s=cfg.time_limit_s,
                                         node_limit=cfg.node_limit)
        except (MarginSlip, SolverUncertified) as err:
            records.append(IterationRecord(
                iteration=iteration, n_constraints=prob.n_constraints,
                pruner_objective=math.nan, oracle_statuses={}, n_found=0,
                pruner_time_s=time.monotonic() - t0, oracle_time_s=0.0,
                note=f"weight solve did not certify: {err}",
                **prob.solved))
            log.info("iteration %d: %s", iteration, records[-1].note)
            break
        pruner_time = time.monotonic() - t0

        t1 = time.monotonic()
        oracle = find_counterexamples(
            search, e.weights0, w,
            time_limit_s=cfg.time_limit_s, node_limit=cfg.node_limit,
            dump_dir=None if dump_dir is None else os.path.join(
                dump_dir, f"iter{iteration:04d}"))
        oracle_time = time.monotonic() - t1

        record = IterationRecord(
            iteration=iteration, n_constraints=prob.n_constraints,
            pruner_objective=float(pruner_sol.objective),
            oracle_statuses=oracle.pair_statuses,
            n_found=len(oracle.found), pruner_time_s=pruner_time,
            oracle_time_s=oracle_time, pruner_nodes=pruner_sol.nodes,
            oracle_nodes=oracle.nodes, oracle_solve_s=oracle.solve_s,
            **prob.solved)
        records.append(record)
        log.info("iteration %d: %d cells, weight solve objective %.6g in "
                 "%d nodes, %d rounds, %d cuts and %d subproblem LPs (eps "
                 "%.3e, lower bound %s), search found %d in %d nodes",
                 iteration, record.n_constraints, record.pruner_objective,
                 record.pruner_nodes, record.rounds, record.cuts,
                 record.subproblem_lps, record.eps, record.lower_bound,
                 record.n_found, record.oracle_nodes)

        if not oracle.found:
            certified = oracle.certified
            if not certified:
                record.note = "counterexample search uncertified"
            break

        if not prob.add([cx.x for cx in oracle.found]):
            # A duplicate means the weight solve and the search disagree
            # numerically about a cell already constrained.
            if not tightened:
                tightened = True
                prob.eps *= 10.0
                record.note = "duplicate counterexample: margin tightened 10x"
                log.info("iteration %d: %s to eps %.3e", iteration,
                         record.note, prob.eps)
                iteration -= 1  # retry does not consume an iteration
                continue
            record.note = "duplicate counterexample after tightening"
            break
    else:
        records[-1].note = "iteration limit reached"

    scope = UNCERTIFIED
    if certified:
        scope = FULL_SPACE if search.score is None else IN_DISTRIBUTION
    # a margin-tightening retry adds a record but not an iteration
    return PruneResult(weights=w, iterations=iteration, records=records,
                       tau=tau, certified=certified, guarantee_scope=scope,
                       calibration=calibration, config=cfg,
                       total_time_s=time.monotonic() - start)


def run_full_space(e: Ensemble, fit: Dataset, cfg: PruneConfig | None = None,
                   **overrides) -> PruneResult:
    """Full-space faithful pruning: the same loop with tau = +infinity."""
    if cfg is None:
        cfg = PruneConfig(full_space=True, **overrides)
    if not cfg.full_space:
        raise ValueError("run_full_space requires a full-space config")
    return run(e, fit, None, cfg)
