"""Split-conformal calibration of the in-distribution threshold.

Fits the three plausibility-score families on the same data, calibrates a
threshold for each at several miscoverage levels, and checks the empirical
coverage of held-out points against the 1 - alpha target.

Run: python demos/02_conformal_calibration.py
"""

from equiprune.conformal import calibrate
from equiprune.data import SplitSpec, split
from equiprune.ensemble import train_boosted
from equiprune.plausibility import fit_score_model
from equiprune.synth import MoonsSpec, gen_moons

ds = gen_moons(MoonsSpec(n=400, noise=0.2, seed=3))
fit, cal, test = split(ds, SplitSpec(ratios=(0.64, 0.16, 0.20), seed=3))
ensemble = train_boosted(fit, n_rounds=10, max_depth=2)

for kind in ("chowliu", "leafsupport", "iforest"):
    model = fit_score_model(kind, ensemble, fit, bins=4, if_trees=10,
                            if_max_samples=64)
    cal_scores = model.scores(ensemble, cal.rows)
    test_scores = model.scores(ensemble, test.rows)
    print(f"{kind}: calibration scores in "
          f"[{min(cal_scores):.3f}, {max(cal_scores):.3f}]")
    print(f"  {'alpha':>6} {'k':>4} {'tau':>9} {'coverage':>9} {'target':>7}")
    for alpha in (0.05, 0.1, 0.2, 0.4):
        result = calibrate(cal_scores, alpha)
        coverage = float((test_scores <= result.tau).mean())
        tau_s = f"{result.tau:9.3f}" if not result.is_infinite else "      inf"
        print(f"  {alpha:6.2f} {result.k:4d} {tau_s} {coverage:9.3f} "
              f"{1 - alpha:7.2f}")
    print()

print("coverage tracks 1 - alpha for every score family: the guarantee is")
print("distribution-free, only exchangeability of the calibration set is used.")
