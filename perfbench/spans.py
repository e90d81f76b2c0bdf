"""Spans recorded around calls into equiprune's public functions.

The library has no timing hooks of its own, so the traced run wraps each
layer's entry point at the module attribute its caller looks up (for
example ``equiprune.pruner.solve``, which only ``solve_pruner`` calls) and
restores the originals afterwards. Spans stay in memory; metrics are
aggregated from them when the pass ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """A stack of open spans plus the list of finished and open ones."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        rec = Span(name=name, start=self.clock(), parent=parent, attrs=attrs)
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec.end = self.clock()
            self._stack.pop()

    def wrap(self, fn, name: str, on_result=None):
        """``fn`` recorded as a span; ``on_result(span, result)`` adds counts."""

        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(rec, result)
            return result

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its direct children cover."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = []
        for i, s in enumerate(self.spans):
            covered = 0.0
            cursor = s.start
            for c in sorted(children.get(i, ()), key=lambda c: c.start):
                lo, hi = max(c.start, cursor), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append(s.duration - covered)
        return out


@contextmanager
def patched(targets):
    """Temporarily set ``(owner, attribute, replacement)`` triples."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, replacement in targets:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def library_targets(tracer: Tracer):
    """Wrappers for every layer boundary inside a prune call."""
    from equiprune import loop, oracle, plausibility, pruner

    def model_size(rec, result):
        model = result[0]
        rec.attrs.update(rows=len(model.constraints),
                         vars=len(model.variables),
                         binaries=model.n_binaries())

    def solution(rec, sol):
        rec.attrs.update(nodes=sol.nodes, status=sol.status)

    def search(rec, result):
        rec.attrs.update(found=len(result.found),
                         pairs=len(result.pair_statuses))

    return [
        (loop, "solve_pruner", tracer.wrap(loop.solve_pruner, "pruner")),
        (pruner, "build_pruner_milp",
         tracer.wrap(pruner.build_pruner_milp, "pruner.build", model_size)),
        (pruner, "solve", tracer.wrap(pruner.solve, "pruner.milp", solution)),
        (loop, "find_counterexamples",
         tracer.wrap(loop.find_counterexamples, "oracle", search)),
        (oracle, "build_pair_milp",
         tracer.wrap(oracle.build_pair_milp, "oracle.build", model_size)),
        (oracle, "solve", tracer.wrap(oracle.solve, "oracle.milp", solution)),
        (plausibility.ScoreModel, "score",
         tracer.wrap(plausibility.ScoreModel.score, "plausibility.score")),
    ]
