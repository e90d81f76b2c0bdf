"""Workloads, the correctness gate and one measured pass.

Every workload is a fixed instance (data seed 0, the shape the project's
acceptance tests and profiles use). The run seed draws a positive change of
units per feature, applied to every row before training. Greedy tree
training, the weight solve, the counterexample search and the verifier only
see the order of values along each feature, so every seed does the same work
on different numbers. That keeps runs comparable across seeds, and it lets
one reference, pinned from the seed commit, judge the result of any seed.
"""

from __future__ import annotations

import math
import statistics
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

import equiprune
from equiprune import loop
from equiprune.ensemble import threshold_index
from equiprune.verify import check_equivalence_exhaustive

from spans import Tracer, library_targets, patched

INSTANCE_SEED = 0

END_TO_END = {"setup_s": "s", "prune_s": "s", "verify_s": "s",
              "peak_rss_mb": "MB"}

PER_LAYER = {
    "ensemble.train_s": "s", "ensemble.trees": "count",
    "ensemble.leaves": "count", "ensemble.cells": "count",
    "loop.iterations": "count", "loop.points": "count", "loop.self_s": "s",
    "pruner.s": "s", "pruner.self_s": "s", "pruner.build_s": "s",
    "pruner.rows": "count", "pruner.milp_s": "s", "pruner.nodes": "count",
    "pruner.s_per_node": "s/node", "pruner.milp_share": "ratio",
    "oracle.s": "s", "oracle.self_s": "s", "oracle.build_s": "s",
    "oracle.rows": "count", "oracle.vars": "count",
    "oracle.binaries": "count", "oracle.pairs": "count",
    "oracle.milp_s": "s", "oracle.nodes": "count",
    "oracle.s_per_node": "s/node", "oracle.milp_share": "ratio",
    "verify.s": "s", "verify.cells": "count", "verify.cells_per_s": "cells/s",
    "trace.prune_s": "s", "trace.untraced_prune_s": "s",
}

# Per-layer figures the traced run prints but leaves out of its JSON line,
# because on some workload they are 0 or negative: the plausibility layer
# only runs with a score model, a correct run has no disagreeing cell, the
# search of indist-wide certifies without finding a counterexample, and tie
# repairs, tightenings and search time-limit hits do not occur on these
# instances. The tracing overhead is a difference of two noisy times.
CONTEXT = {
    "plausibility.fit_s": "s", "plausibility.score_calls": "count",
    "plausibility.score_s": "s", "loop.tightenings": "count",
    "pruner.resolves": "count", "oracle.found": "count",
    "oracle.useful_ratio": "found/pair", "oracle.limit_hits": "count",
    "verify.disagreements": "count", "trace.overhead_s": "s",
}

@dataclass(frozen=True)
class Call:
    """One prune call and its result pinned from the seed commit."""

    label: str
    config: dict
    support: int
    scope: str

    def prune_config(self) -> loop.PruneConfig:
        return loop.PruneConfig(**self.config)


@dataclass(frozen=True)
class Workload:
    name: str
    data: str  # "moons" or "blobs"
    trees: int
    depth: int
    calls: tuple[Call, ...]


FULL = loop.FULL_SPACE
INDIST = loop.IN_DISTRIBUTION
SMALL_IFOREST = {"if_trees": 5, "if_max_samples": 32}

WORKLOADS = {w.name: w for w in (
    Workload("fullspace-l0", "moons", 30, 2,
             (Call("l0", {"full_space": True}, 5, FULL),)),
    Workload("search-l1", "moons", 100, 4,
             (Call("l1", {"full_space": True, "objective": "l1"}, 7, FULL),)),
    Workload("indist-scores", "moons", 30, 2, (
        Call("chowliu", {"alpha": 0.8, "score_kind": "chowliu"}, 3, INDIST),
        Call("leafsupport", {"alpha": 0.8, "score_kind": "leafsupport"},
             3, INDIST),
        Call("iforest", {"alpha": 0.8, "score_kind": "iforest",
                         **SMALL_IFOREST}, 3, INDIST),
    )),
    Workload("indist-wide", "blobs", 12, 2,
             (Call("chowliu", {"alpha": 0.8, "score_kind": "chowliu"},
                   5, INDIST),)),
)}


# --- inputs ------------------------------------------------------------------


def base_dataset(kind: str) -> tuple[equiprune.Dataset, tuple[float, ...]]:
    """The fixed instance and its split ratios."""
    if kind == "moons":
        ds = equiprune.gen_moons(equiprune.MoonsSpec(n=200, noise=0.2,
                                                     seed=INSTANCE_SEED))
        return ds, (0.64, 0.16, 0.20)
    # Two Gaussian classes in 6 features: wide enough that the verifier
    # enumerates tens of thousands of cells.
    rng = np.random.Generator(np.random.Philox(INSTANCE_SEED))
    n, p = 400, 6
    labels = rng.integers(0, 2, size=n)
    rows = rng.normal(0.0, 0.8, size=(n, p)) + np.where(labels[:, None] == 1,
                                                        0.6, -0.6)
    meta = tuple(equiprune.FeatureMeta(name=f"x{j}", kind="continuous")
                 for j in range(p))
    ds = equiprune.Dataset(rows=rows, labels=labels.astype(np.int64),
                           feature_meta=meta, label_names=("0", "1"))
    return ds, (0.8, 0.2)


def change_units(ds: equiprune.Dataset, seed: int) -> equiprune.Dataset:
    """Per feature, x -> a x + b with a in [0.5, 2] and b in [-2, 2]."""
    rng = np.random.default_rng(seed)
    p = ds.n_features
    scale = np.exp(rng.uniform(math.log(0.5), math.log(2.0), size=p))
    shift = rng.uniform(-2.0, 2.0, size=p)
    return equiprune.Dataset(rows=ds.rows * scale + shift, labels=ds.labels,
                             feature_meta=ds.feature_meta,
                             label_names=ds.label_names)


@dataclass
class Instance:
    ensemble: equiprune.Ensemble
    fit: equiprune.Dataset
    cal: equiprune.Dataset
    scores: dict = field(default_factory=dict)


def build(w: Workload, seed: int, tracer: Tracer) -> Instance:
    """Everything a user does before the first prune call."""
    ds, ratios = base_dataset(w.data)
    parts = equiprune.split(change_units(ds, seed),
                            equiprune.SplitSpec(ratios=ratios,
                                                seed=INSTANCE_SEED))
    fit, cal = parts[0], parts[1]
    with tracer.span("ensemble.train"):
        e = equiprune.train_boosted(fit, n_rounds=w.trees, max_depth=w.depth)
    inst = Instance(ensemble=e, fit=fit, cal=cal)
    for call in w.calls:
        cfg = call.prune_config()
        if cfg.full_space:
            continue
        with tracer.span("plausibility.fit"):
            inst.scores[call.label] = equiprune.fit_score_model(
                cfg.score_kind, e, fit, bins=cfg.bins, beta=cfg.beta,
                if_trees=cfg.if_trees, if_max_samples=cfg.if_max_samples,
                seed=cfg.seed)
    return inst


# --- correctness gate --------------------------------------------------------


def reference_problems(result, call: Call) -> list[str]:
    """Why a prune result fails against the pinned reference, if it does."""
    got = (result.support_size, result.certified, result.guarantee_scope)
    want = (call.support, True, call.scope)
    if got == want:
        return []
    return [f"{call.label}: got (support, certified, scope) = {got}, "
            f"reference {want}"]


def verify(e, weights, region, tracer: Tracer) -> int:
    """Disagreeing cells found by the exhaustive verifier."""
    with tracer.span("verify") as rec:
        bad = check_equivalence_exhaustive(e, e.weights0, weights,
                                           region=region)
    extra = region[0].extra_thresholds() if region is not None else None
    rec.attrs.update(cells=threshold_index(e, extra=extra).n_cells(),
                     disagreements=len(bad))
    return len(bad)


@dataclass
class PassOutcome:
    tracer: Tracer
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    # (label, weights, region) of every certified result, for the verifier
    certified: list[tuple] = field(default_factory=list)

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.tracer.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))


def prune(inst: Instance, call: Call):
    cfg = call.prune_config()
    if cfg.full_space:
        return loop.run_full_space(inst.ensemble, inst.fit, cfg)
    return loop.run(inst.ensemble, inst.fit, inst.cal, cfg,
                    score=inst.scores[call.label])


def verify_batch(inst: Instance, certified: list[tuple],
                 tracer: Tracer) -> list[tuple[str, int]]:
    """One exhaustive check of every certified result, timed as a batch.

    Returns each result's label and its number of disagreeing cells.
    """
    with tracer.span("verify.batch"):
        return [(label, verify(inst.ensemble, weights, region, tracer))
                for label, weights, region in certified]


def run_pass(w: Workload, inst: Instance, traced: bool = False) -> PassOutcome:
    """Every prune call of the workload, then one verifier batch.

    Prune calls are made one at a time by a single caller (a closed loop).
    Each prune call and each check of a certified result is one operation.
    An exception, an uncertified result or a reference mismatch fails a prune
    call; a disagreeing cell fails a check.
    """
    tracer = Tracer()
    out = PassOutcome(tracer=tracer)
    with patched(library_targets(tracer) if traced else []):
        for call in w.calls:
            out.attempted += 1
            try:
                with tracer.span("prune", label=call.label) as rec:
                    result = prune(inst, call)
            except Exception:  # a failed operation; the pass goes on
                out.failed += 1
                out.problems.append(f"{call.label}: "
                                    + traceback.format_exc(limit=3))
                continue
            rec.attrs.update(
                iterations=result.iterations,
                points=result.records[-1].n_constraints,
                tightenings=sum("tightened" in r.note
                                for r in result.records))
            problems = reference_problems(result, call)
            if problems:
                out.failed += 1
                out.problems.extend(problems)
            if result.certified:
                region = (None if math.isinf(result.tau)
                          else (inst.scores[call.label], result.tau))
                out.certified.append((call.label, result.weights, region))
        for label, bad in verify_batch(inst, out.certified, tracer):
            out.attempted += 1
            if bad:
                out.failed += 1
                out.problems.append(
                    f"{label}: verifier found {bad} disagreeing cells")
    return out


# --- metrics -----------------------------------------------------------------


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(out: PassOutcome) -> dict[str, float]:
    """Per-layer totals of one traced pass."""
    spans = out.tracer.spans
    selfs = out.tracer.self_times()
    total, self_total, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    summed, peak = defaultdict(float), defaultdict(float)
    limit_hits = 0
    for s, own in zip(spans, selfs):
        total[s.name] += s.duration
        self_total[s.name] += own
        calls[s.name] += 1
        for key, value in s.attrs.items():
            if isinstance(value, (int, float)):
                summed[f"{s.name}.{key}"] += value
                peak[f"{s.name}.{key}"] = max(peak[f"{s.name}.{key}"], value)
        if s.name == "oracle.milp" and s.attrs["status"] not in ("optimal", "infeasible"):
            limit_hits += 1
    prune_s = total["prune"]
    m = {
        "plausibility.score_calls": calls["plausibility.score"],
        "plausibility.score_s": total["plausibility.score"],
        "loop.iterations": summed["prune.iterations"],
        "loop.points": summed["prune.points"],
        "loop.tightenings": summed["prune.tightenings"],
        "loop.self_s": self_total["prune"],
        "pruner.s": total["pruner"],
        "pruner.self_s": self_total["pruner"],
        "pruner.build_s": total["pruner.build"],
        "pruner.rows": peak["pruner.build.rows"],
        "pruner.milp_s": total["pruner.milp"],
        "pruner.nodes": summed["pruner.milp.nodes"],
        "pruner.resolves": calls["pruner.milp"] - calls["pruner"],
        "oracle.s": total["oracle"],
        "oracle.self_s": self_total["oracle"],
        "oracle.build_s": total["oracle.build"],
        "oracle.rows": peak["oracle.build.rows"],
        "oracle.vars": peak["oracle.build.vars"],
        "oracle.binaries": peak["oracle.build.binaries"],
        "oracle.pairs": calls["oracle.milp"],
        "oracle.milp_s": total["oracle.milp"],
        "oracle.nodes": summed["oracle.milp.nodes"],
        "oracle.found": summed["oracle.found"],
        "oracle.limit_hits": limit_hits,
        "verify.s": total["verify"],
        "verify.cells": summed["verify.cells"],
        "verify.disagreements": summed["verify.disagreements"],
        "trace.prune_s": prune_s,
    }
    m["pruner.s_per_node"] = ratio(m["pruner.milp_s"], m["pruner.nodes"])
    m["pruner.milp_share"] = ratio(m["pruner.milp_s"], prune_s)
    m["oracle.s_per_node"] = ratio(m["oracle.milp_s"], m["oracle.nodes"])
    m["oracle.useful_ratio"] = ratio(m["oracle.found"], m["oracle.pairs"])
    m["oracle.milp_share"] = ratio(m["oracle.milp_s"], prune_s)
    m["verify.cells_per_s"] = ratio(m["verify.cells"], m["verify.s"])
    return m


def setup_metrics(inst: Instance, tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of the one ``build`` that ``tracer`` recorded."""
    e = inst.ensemble

    def total(name):
        return sum(s.duration for s in tracer.spans if s.name == name)

    return {
        "ensemble.train_s": total("ensemble.train"),
        "ensemble.trees": e.n_trees,
        "ensemble.leaves": sum(len(e.leaves(m)) for m in range(e.n_trees)),
        "ensemble.cells": threshold_index(e).n_cells(),
        "plausibility.fit_s": total("plausibility.fit"),
    }
