"""The re-check path loads no solver.

Verification, evaluation, calibration and score fits, through the library
and through their commands, run in a process where scipy and the MILP-side
modules cannot be imported, and give what they give where they can.
"""

import json
import os
import subprocess
import sys

import equiprune
from equiprune.data import SplitSpec, save_csv, split
from equiprune.ensemble import save_ensemble, train_boosted
from equiprune.synth import MoonsSpec, gen_moons

BLOCKED = ("scipy", "equiprune.milp", "equiprune.pruner", "equiprune.oracle",
           "equiprune.loop")

# argv: the comma-separated modules to make unimportable (none when empty).
# Runs in a directory of its own beside the inputs, so every path a command
# writes into its output is the same in each run; writes summary.json.
SCRIPT = r"""
import json, sys
for name in filter(None, sys.argv[1].split(",")):
    sys.modules[name] = None

from equiprune import cli
from equiprune.conformal import calibrate
from equiprune.data import load_csv
from equiprune.ensemble import load_ensemble
from equiprune.evaluate import evaluate
from equiprune.plausibility import CHOW_LIU, SCORE_KINDS, fit_score_model
from equiprune.verify import check_equivalence_exhaustive, check_state_bound

e = load_ensemble("../model.json")
fit, cal, test = (load_csv(f"../{part}.csv", label_column="label")
                  for part in ("fit", "cal", "test"))
w = e.weights0.copy()
w[1::2] = 0.0  # a pruned weighting that disagrees on some cells

def disagreements(region=None):
    return [repr(d) for d in check_equivalence_exhaustive(
        e, e.weights0, w, region=region)]

summary = {"full_space": disagreements(),
           "evaluate": evaluate(e, e.weights0, w, test).to_json()}
for kind in SCORE_KINDS:
    score = fit_score_model(kind, e, fit, if_trees=5, if_max_samples=32)
    calibration = calibrate(score.scores(e, cal.rows), 0.1)
    region = (score, calibration.tau)
    summary[kind] = {
        "scores": score.scores(e, test.rows).tolist(),
        "calibration": calibration.to_json(),
        "disagreements": disagreements(region),
        "evaluate": evaluate(e, e.weights0, w, test, region=region).to_json(),
    }
    if kind == CHOW_LIU:
        bound = check_state_bound(score, calibration.tau)
        summary[kind]["state_bound"] = [bound.count, bound.bound, bound.holds]

data = ["--model", "../model.json", "--label", "label"]
summary["exit_codes"] = [
    cli.main(["fit-score", *data, "--data", "../fit.csv", "--out",
              "chowliu.json"]),
    cli.main(["calibrate", *data, "--score-model", "chowliu.json",
              "--data", "../cal.csv", "--alpha", "0.1", "--out", "cal.json"]),
]
with open("cal.json") as fh:
    tau = json.load(fh)["tau"]
with open("result.json", "w") as fh:
    json.dump({"weights": w.tolist(), "tau": tau, "config": {"alpha": 0.1}},
              fh)
summary["exit_codes"] += [
    cli.main(["evaluate", *data, "--result", "result.json", "--test",
              "../test.csv", "--score-model", "chowliu.json", "--out",
              "eval.json"]),
    cli.main(["verify", "--model", "../model.json", "--result",
              "result.json", "--score-model", "chowliu.json", "--out",
              "verify.json"]),
    cli.main(["verify", "--model", "../model.json", "--result",
              "result.json", "--out", "verify-full.json"]),
]
with open("summary.json", "w") as fh:
    json.dump(summary, fh)
"""

OUTPUTS = ("summary.json", "chowliu.json", "cal.json", "eval.json",
           "verify.json", "verify-full.json")


def run_recheck(tmp_path, blocked):
    """The outputs of SCRIPT with ``blocked`` unimportable; a verify
    output's seconds are left out."""
    cwd = tmp_path / ("blocked" if blocked else "open")
    cwd.mkdir()
    src = os.path.dirname(os.path.dirname(os.path.abspath(equiprune.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, ",".join(blocked)], cwd=cwd,
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True)
    assert proc.returncode == 0, proc.stderr
    outputs = {}
    for name in OUTPUTS:
        outputs[name] = json.loads((cwd / name).read_text())
        outputs[name].pop("seconds", None)
    return outputs


def test_recheck_path_runs_without_the_solver(tmp_path):
    data = gen_moons(MoonsSpec(n=200, noise=0.2, seed=0))
    parts = split(data, SplitSpec(ratios=(0.5, 0.25, 0.25), seed=0))
    for name, part in zip(("fit", "cal", "test"), parts):
        save_csv(part, tmp_path / f"{name}.csv")
    save_ensemble(train_boosted(parts[0], n_rounds=10, max_depth=2),
                  tmp_path / "model.json")

    blocked = run_recheck(tmp_path, BLOCKED)
    assert blocked == run_recheck(tmp_path, ())
    summary = blocked["summary.json"]
    # the weighting disagrees in every region, so verify exits 1 both ways
    assert summary["exit_codes"] == [0, 0, 0, 1, 1]
    assert summary["full_space"]
    assert all(summary[kind]["disagreements"]
               for kind in ("chowliu", "leafsupport", "iforest"))
    assert blocked["verify.json"]["state_bound"]["holds"]
