"""End-to-end tour: train a boosted ensemble on two-moons data, prune it in
both guarantee modes, and compare compression against fidelity.

Full-space mode certifies identical predictions everywhere; in-distribution
mode certifies them only on the calibrated region, trading a weaker (but
probabilistic, 1 - alpha) guarantee for more pruning.

Run: python demos/01_prune_two_moons.py
"""

import math

from equiprune.data import SplitSpec, split
from equiprune.ensemble import train_boosted
from equiprune.evaluate import evaluate
from equiprune.loop import PruneConfig, run, run_full_space
from equiprune.plausibility import fit_score_model
from equiprune.synth import MoonsSpec, gen_moons

SEED = 0

print("generating two-moons data and training a boosted ensemble")
ds = gen_moons(MoonsSpec(n=200, noise=0.2, seed=SEED))
fit, cal, test = split(ds, SplitSpec(ratios=(0.64, 0.16, 0.20), seed=SEED))
ensemble = train_boosted(fit, n_rounds=12, max_depth=2)
print(f"  trained {ensemble.n_trees} trees on {fit.n_rows} rows\n")

print("full-space faithful pruning (predictions preserved everywhere)")
fs = run_full_space(ensemble, fit)
rep = evaluate(ensemble, ensemble.weights0, fs.weights, test)
print(f"  kept {fs.support_size}/{ensemble.n_trees} trees in "
      f"{fs.iterations} iterations (certified={fs.certified})")
print(f"  test fidelity {rep.fidelity:.3f}, accuracy "
      f"{rep.accuracy_original:.3f} -> {rep.accuracy_pruned:.3f}\n")

print("in-distribution pruning across miscoverage levels")
score = fit_score_model("chowliu", ensemble, fit, bins=4)
print(f"  {'alpha':>6} {'tau':>8} {'kept':>5} {'fidelity':>9} "
      f"{'coverage':>9} {'cond.fid':>9}")
for alpha in (0.05, 0.2, 0.5, 0.8):
    res = run(ensemble, fit, cal, PruneConfig(alpha=alpha), score=score)
    region = (score, res.tau) if math.isfinite(res.tau) else None
    rep = evaluate(ensemble, ensemble.weights0, res.weights, test,
                   region=region)
    tau_s = f"{res.tau:8.3f}" if math.isfinite(res.tau) else "     inf"
    cond = "---" if rep.conditional_fidelity is None \
        else f"{rep.conditional_fidelity:9.3f}"
    print(f"  {alpha:6.2f} {tau_s} {res.support_size:5d} "
          f"{rep.fidelity:9.3f} {rep.coverage:9.3f} {cond:>9}")

print("\nlarger alpha shrinks the certified region, freeing the solver to")
print("drop trees that only mattered far from the data.")
