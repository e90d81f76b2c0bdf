"""Checks on the benchmark itself: span arithmetic, the correctness gate and
the names it reports.

Run with: python -m pytest -q perfbench/tests
"""

import json
import math
import os
import re

import numpy as np
import pytest

import bench
import hostspeed
from equiprune.ensemble import threshold_index
from equiprune.loop import IterationRecord, PruneResult
from spans import Span, Tracer

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


class ScriptedClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_nested_calls():
    # outer 0-10 holds a (1-4, itself holding a.inner 2-3) and b (5-6)
    tracer = Tracer(clock=ScriptedClock([0, 1, 2, 3, 4, 5, 6, 10]))

    def inner():
        pass

    traced_inner = tracer.wrap(inner, "a.inner")
    with tracer.span("outer"):
        with tracer.span("a"):
            traced_inner()
        with tracer.span("b"):
            pass
    selfs = dict(zip((s.name for s in tracer.spans), tracer.self_times()))
    assert selfs == {"outer": 6, "a": 2, "a.inner": 1, "b": 1}
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0]


def test_self_time_counts_overlapping_children_once():
    tracer = Tracer()
    tracer.spans = [Span("p", 0.0, 10.0), Span("c1", 1.0, 4.0, parent=0),
                    Span("c2", 3.0, 6.0, parent=0),
                    Span("c3", 9.0, 12.0, parent=0)]
    assert tracer.self_times()[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_sampler_takes_samples_out_and_scales_by_neighbours():
    sampler = hostspeed.Sampler()
    ref = hostspeed.REFERENCE_S["numpy"]
    # Samples at 0-1, 5-6 and 9-10; the task's numpy part took 1, 2 and 4
    # times its reference.
    sampler.taken = [(0.0, 1.0), (5.0, 6.0), (9.0, 10.0)]
    sampler.part_times["numpy"] = [ref, 2 * ref, 4 * ref]
    # Work from 2 to 8 lost one second to the sample at 5-6, and the three
    # samples (before, during, after) ran at 7/3 times the reference.
    assert sampler.net(2.0, 8.0) == pytest.approx(5.0)
    assert sampler.scale(2.0, 8.0, "numpy") == pytest.approx(3 / 7)
    assert sampler.scaled(2.0, 8.0, "numpy") == pytest.approx(15 / 7)
    # Work from 1 to 4 sits between the first two samples only.
    assert sampler.scale(1.0, 4.0, "numpy") == pytest.approx(2 / 3)


@pytest.fixture(scope="module")
def moons_instance():
    w = bench.WORKLOADS["fullspace-l0"]
    return w, bench.build(w, seed=0, tracer=Tracer())


def one_tree_result(e):
    weights = np.zeros(e.n_trees)
    weights[0] = 1.0
    record = IterationRecord(iteration=1, n_constraints=1,
                             pruner_objective=1.0, oracle_statuses={},
                             n_found=0, pruner_time_s=0.0, oracle_time_s=0.0)
    return PruneResult(weights=weights, iterations=1, records=[record],
                       tau=math.inf, certified=True,
                       guarantee_scope=bench.FULL, calibration=None,
                       config=None, total_time_s=0.0)


def test_gate_counts_one_tree_kept_as_failure(moons_instance, monkeypatch):
    w, inst = moons_instance
    e = inst.ensemble
    assert bench.verify(e, e.weights0, None, Tracer()) == 0
    monkeypatch.setattr(bench, "prune", lambda inst, call: one_tree_result(e))

    # Only the verifier can object: the reference is set to match.
    matching = bench.Workload(w.name, w.data, w.trees, w.depth,
                              (bench.Call("l0", {"full_space": True}, 1,
                                          bench.FULL),))
    out = bench.run_pass(matching, inst)
    assert (out.attempted, out.failed) == (2, 1)
    assert "disagreeing cells" in out.problems[0]

    # The pinned reference (support 5) rejects it as well.
    out = bench.run_pass(w, inst)
    assert (out.attempted, out.failed) == (2, 2)


def test_change_of_units_keeps_the_work(moons_instance):
    w, inst = moons_instance
    other = bench.build(w, seed=7, tracer=Tracer())
    a, b = inst.ensemble, other.ensemble
    assert not np.allclose(inst.fit.rows, other.fit.rows)
    assert [leaf.scores for m in range(a.n_trees) for leaf in a.leaves(m)] == \
        [leaf.scores for m in range(b.n_trees) for leaf in b.leaves(m)]
    assert threshold_index(a).n_cells() == threshold_index(b).n_cells()


def test_names_match_benchmark_json():
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    every = names + list(end_to_end) + list(per_layer) + list(bench.CONTEXT)
    assert all(NAME.fullmatch(n) for n in every), every
    assert len(set(every)) == len(every)
    assert names == list(bench.WORKLOADS)
    assert end_to_end == bench.END_TO_END
    assert per_layer == bench.PER_LAYER
