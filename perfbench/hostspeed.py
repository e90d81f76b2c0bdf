"""A fixed reference task that samples how fast the host runs right now.

On a virtual machine that shares its cores with other tenants, the speed of
identical work moves by up to 2x, in phases from 50 ms to minutes. A phase
can cover a whole run, so no statistic within one run removes it. The
benchmark therefore samples the speed while it measures: a timer signal runs
this task every ``SAMPLE_EVERY_S``, and the benchmark takes a sample between
two pieces of work shorter than that. A sample's time is taken out of the
work it interrupted, and the work's wall time is scaled by the part's
``REFERENCE_S`` over the part's mean time in the samples during it and next
to it. A reported time is so the wall time the work would take on a host
that runs the task in ``REFERENCE_S``.

The host's speed switches between a fast and a slow state every 50 ms to a
few seconds, so samples must be close to the work they scale. Kinds of work
slow down by different amounts, so the task has two parts, each timed on
its own: a *solver* part like a prune call (interpreted Python over a few
megabytes of small objects, and HiGHS LP solves through scipy) and a
*NumPy* part like the verifier (a Python loop of NumPy calls on tiny
arrays). On a 2-vCPU Xeon VM, the solver part cut the variation of
identical fullspace-l0 prune passes in one process from 6% to 2%, but not
that of indist-wide's (9-10%). The NumPy part, sampled after each batch,
cut the variation of verifier batches over 2.5-s stretches from 6% to 1%
(fullspace-l0) and from 26% to 3% (search-l1). The task runs no equiprune
code, so a change to equiprune moves the scaled times and never the scale.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np
from scipy.optimize import linprog

# Each part's time on a calm 2.1 GHz Xeon vCPU. They set the units of the
# scaled times; any fixed values would do.
REFERENCE_S = {"solver": 0.012, "numpy": 0.002}
# Seconds of wall time between two samples: a sample takes about 5% of it.
SAMPLE_EVERY_S = 0.35
WALK_NODES = 30_000
NUMPY_STEPS = 1_000


class _Node:
    __slots__ = ("value", "next")

    def __init__(self, value: float):
        self.value = value
        self.next = None


class ReferenceTask:
    """The fixed work whose time stands for the host's speed, in two parts
    that scale different kinds of work."""

    def __init__(self):
        # A ring of WALK_NODES objects linked in a shuffled order (about
        # 2.5 MB), so that walking it misses the first cache levels.
        nodes = [_Node(float(i % 7)) for i in range(WALK_NODES)]
        order = list(range(WALK_NODES))
        random.Random(0).shuffle(order)
        for a, b in zip(order, order[1:] + order[:1]):
            nodes[a].next = nodes[b]
        self._ring = nodes[0]
        self._walk_total = sum(node.value for node in nodes)
        # Two LPs: a small one, whose time is mostly scipy's Python around
        # HiGHS, and a larger sparse one, whose time is mostly HiGHS.
        rng = np.random.default_rng(0)
        self._lps = []
        for rows, cols, density in ((40, 30, 1.0), (150, 80, 0.3)):
            a = rng.uniform(0.0, 1.0, size=(rows, cols))
            a[a > density] = 0.0
            self._lps.append((-rng.uniform(0.0, 1.0, size=cols), a,
                              a.sum(axis=1) * 0.5))
        # Per-row weights and two-class score pairs for the NumPy part.
        self._weights = np.linspace(0.5, 1.5, 64)
        self._scores = [(float(i % 5), float(i % 3)) for i in range(64)]
        self.solver()  # first-call costs of scipy and NumPy are not speed
        self.numpy()

    def walk(self) -> float:
        node, total = self._ring, 0.0
        for _ in range(WALK_NODES):
            total += node.value
            node = node.next
        return total

    def solver(self) -> None:
        """The part like a prune call: Python over a large working set, and
        LP solves."""
        total = self.walk()
        for c, a, b in self._lps:
            res = linprog(c, A_ub=a, b_ub=b, bounds=(0.0, 1.0),
                          method="highs")
            if res.status != 0:
                raise RuntimeError(f"reference LP ended with {res.message}")
        if total != self._walk_total:
            raise RuntimeError("reference walk summed to the wrong total")

    def numpy(self) -> None:
        """The part like the verifier: a Python loop of NumPy calls on
        arrays of two elements."""
        total = np.zeros(2)
        for i in range(NUMPY_STEPS):
            total += self._weights[i % 64] * np.asarray(self._scores[i % 64])
        if not np.isfinite(total).all():
            raise RuntimeError("reference NumPy loop overflowed")


class Sampler:
    """Samples of the reference task taken while measured work runs."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.task = ReferenceTask()
        self.taken: list[tuple[float, float]] = []  # (start, end), in order
        self.part_times: dict[str, list[float]] = {p: [] for p in REFERENCE_S}
        self._busy = False

    def sample(self) -> None:
        """Each part of the task timed once, after an untimed walk that
        brings the ring back into the caches the interrupted work may have
        taken over. A timer signal during a sample adds none."""
        if self._busy:
            return
        self._busy = True
        try:
            start = self.clock()
            self.task.walk()
            for part, times in self.part_times.items():
                t0 = self.clock()
                getattr(self.task, part)()
                times.append(self.clock() - t0)
            self.taken.append((start, self.clock()))
        finally:
            self._busy = False

    @contextmanager
    def running(self):
        """Samples now, then every ``SAMPLE_EVERY_S`` until the block ends.

        The samples run from a ``SIGALRM`` handler. Python runs it between
        two bytecodes of the main thread, so a sample never splits a call
        into native code.
        """
        previous = signal.signal(signal.SIGALRM,
                                 lambda signum, frame: self.sample())
        try:
            self.sample()
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S,
                             SAMPLE_EVERY_S)
            try:
                yield self
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
        finally:
            signal.signal(signal.SIGALRM, previous)

    @contextmanager
    def paused(self):
        """No samples during the block, which may run another process: a
        sample at each end stands for the host's speed in between."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.sample()
        try:
            yield
        finally:
            self.sample()
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S,
                             SAMPLE_EVERY_S)

    def net(self, start: float, end: float) -> float:
        """Seconds from ``start`` to ``end`` that no sample took."""
        taken = sum(max(0.0, min(b, end) - max(a, start))
                    for a, b in self.taken)
        return end - start - taken

    def scale(self, start: float, end: float, part: str) -> float:
        """Factor from wall seconds to seconds at the reference speed, for
        work from ``start`` to ``end`` like ``part``: from the samples that
        began in between, the last one before and the first one after.
        Their mean follows the work best; the slowest and fastest tenth are
        left out, because now and then one sample takes several times as
        long."""
        starts = [a for a, _ in self.taken]
        lo = max(bisect.bisect_left(starts, start) - 1, 0)
        hi = bisect.bisect_right(starts, end) + 1
        near = sorted(self.part_times[part][lo:hi])
        cut = len(near) // 10
        return REFERENCE_S[part] / statistics.fmean(near[cut:len(near) - cut])

    def scaled(self, start: float, end: float, part: str) -> float:
        """Seconds from ``start`` to ``end`` at the reference speed."""
        return self.net(start, end) * self.scale(start, end, part)
