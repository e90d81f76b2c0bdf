"""Synthetic dataset generators for desk-scale experiments.

``gen_moons`` produces the classic interleaved half-circle binary problem
(radius 1, vertical offset 0.5, Gaussian noise). ``gen_tree_dist`` samples a
known tree-factorized discrete distribution and returns both the samples and
the exact generating model, giving ground truth for calibration and
state-enumeration tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import CONTINUOUS, Dataset, FeatureMeta, check_seed
from .plausibility import BinGrid, ChowLiuModel


@dataclass(frozen=True)
class MoonsSpec:
    n: int
    noise: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if not 0 <= self.noise < np.inf:  # NaN too
            raise ValueError(f"noise must be finite and >= 0, got "
                             f"{self.noise}")
        check_seed(self.seed)


@dataclass(frozen=True)
class TreeDistSpec:
    n: int
    p: int
    states: int
    concentration: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.p < 1:
            raise ValueError("p must be >= 1")
        if self.states < 2:
            raise ValueError("states must be >= 2")
        if not 0 < self.concentration < np.inf:  # NaN too
            raise ValueError(f"concentration must be finite and > 0, got "
                             f"{self.concentration}")
        check_seed(self.seed)


def gen_moons(spec: MoonsSpec) -> Dataset:
    """Two interleaved half circles with Gaussian noise, balanced labels."""
    rng = np.random.Generator(np.random.Philox(spec.seed))
    n0 = spec.n - spec.n // 2
    n1 = spec.n // 2
    t0 = np.linspace(0.0, np.pi, n0)
    t1 = np.linspace(0.0, np.pi, n1) if n1 else np.empty(0)
    outer = np.column_stack([np.cos(t0), np.sin(t0)])
    inner = np.column_stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)])
    rows = np.vstack([outer, inner])
    labels = np.concatenate([np.zeros(n0, dtype=np.int64),
                             np.ones(n1, dtype=np.int64)])
    if spec.noise > 0:
        rows = rows + rng.normal(0.0, spec.noise, size=rows.shape)
    order = rng.permutation(spec.n)
    meta = (FeatureMeta(name="x0", kind=CONTINUOUS),
            FeatureMeta(name="x1", kind=CONTINUOUS))
    return Dataset(rows=rows[order], labels=labels[order], feature_meta=meta,
                   label_names=("0", "1"))


def random_chow_liu_model(p: int, states: int, concentration: float,
                          rng: np.random.Generator) -> ChowLiuModel:
    """A randomly parameterized tree-factorized distribution over p features
    with the given number of states each. Integer sample values k land in bin
    k under the half-integer boundary grid."""
    boundaries = tuple(tuple(float(b) + 0.5 for b in range(states - 1))
                       for _ in range(p))
    grid = BinGrid(boundaries=boundaries, included=tuple([True] * p))
    # Random tree: node j > 0 attaches to a uniform parent among 0..j-1.
    parent = {j: int(rng.integers(j)) for j in range(1, p)}
    root_table = rng.dirichlet([concentration] * states)
    edge_tables = {j: np.vstack([rng.dirichlet([concentration] * states)
                                 for _ in range(states)])
                   for j in range(1, p)}
    return ChowLiuModel(grid=grid, root=0, order=tuple(range(p)),
                        parent=parent, root_table=root_table,
                        edge_tables=edge_tables, beta=0.0)


def sample_chow_liu(model: ChowLiuModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Ancestral sampling; returns integer state values as floats."""
    p = model.grid.n_features
    out = np.zeros((n, p))
    for i in range(n):
        state: dict[int, int] = {}
        for j in model.order:
            if j == model.root:
                probs = model.root_table
            else:
                probs = model.edge_tables[j][state[model.parent[j]]]
            state[j] = int(rng.choice(len(probs), p=probs))
        for j, b in state.items():
            out[i, j] = float(b)
    return out


def gen_tree_dist(spec: TreeDistSpec) -> tuple[Dataset, ChowLiuModel]:
    """Samples plus the exact generating model."""
    rng = np.random.Generator(np.random.Philox(spec.seed))
    model = random_chow_liu_model(spec.p, spec.states, spec.concentration, rng)
    rows = sample_chow_liu(model, spec.n, rng)
    meta = tuple(FeatureMeta(name=f"x{j}", kind=CONTINUOUS)
                 for j in range(spec.p))
    return Dataset(rows=rows, labels=None, feature_meta=meta), model
