"""Checking certificates against exhaustive enumeration.

Tree ensembles split the input space into finitely many cells, so exact
prediction equivalence is decidable by brute force at desk scale. This demo
prunes a small ensemble, then enumerates every cell to confirm the
certificate, and shows the state-count bound for the density model.

Run: python demos/03_verification.py
"""

import math

from equiprune.data import SplitSpec, split
from equiprune.ensemble import threshold_index, train_boosted
from equiprune.loop import PruneConfig, run
from equiprune.plausibility import fit_score_model
from equiprune.synth import MoonsSpec, gen_moons
from equiprune.verify import (
    check_equivalence_exhaustive,
    check_state_bound,
    enumerate_low_score_states,
)

ds = gen_moons(MoonsSpec(n=160, noise=0.25, seed=7))
fit, cal, _ = split(ds, SplitSpec(ratios=(0.7, 0.2, 0.1), seed=7))
ensemble = train_boosted(fit, n_rounds=8, max_depth=2)
theta = threshold_index(ensemble)
print(f"{ensemble.n_trees} trees, {theta.n_cells()} cells in the "
      f"threshold partition")

score = fit_score_model("chowliu", ensemble, fit, bins=4)
res = run(ensemble, fit, cal, PruneConfig(alpha=0.5), score=score)
print(f"pruned to {res.support_size} trees, certified={res.certified}, "
      f"tau={res.tau:.3f}")

inside = check_equivalence_exhaustive(ensemble, ensemble.weights0,
                                      res.weights, region=(score, res.tau))
everywhere = check_equivalence_exhaustive(ensemble, ensemble.weights0,
                                          res.weights)
print(f"disagreeing cells inside the region:  {len(inside)} (certificate)")
print(f"disagreeing cells over the full space: {len(everywhere)} "
       "(allowed outside the region)")

states = enumerate_low_score_states(score, res.tau)
bound = check_state_bound(score, res.tau)
print(f"\ndensity model states under tau: {len(states)}; "
      f"e^tau = {bound.bound:.1f}; bound holds: {bound.holds}")
print("the exponential bound explains why smaller regions solve faster:")
for tau in (res.tau, res.tau - 1.0, res.tau - 2.0):
    if tau <= 0:
        continue
    n = len(enumerate_low_score_states(score, tau))
    print(f"  tau={tau:6.3f}: {n:4d} states <= e^tau = {math.exp(tau):8.1f}")
