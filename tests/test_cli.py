import csv
import json
import logging
import math

import numpy as np
import pytest

from equiprune import cli, loop
from equiprune.cli import main
from equiprune.ensemble import load_ensemble, threshold_index
from equiprune.verify import check_equivalence_exhaustive


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def moons_csv(tmp_path):
    path = tmp_path / "moons.csv"
    assert run_cli("synth", "--kind", "moons", "--n", 80, "--noise", 0.15,
                   "--seed", 1, "--out", path) == 0
    return path


@pytest.fixture
def pipeline(tmp_path, moons_csv):
    """split -> train; returns the paths dict."""
    prefix = tmp_path / "part"
    assert run_cli("split", "--data", moons_csv, "--label", "label",
                   "--ratios", "0.64,0.16,0.20", "--seed", 0,
                   "--out-prefix", prefix,
                   "--manifest", tmp_path / "manifest.json") == 0
    model = tmp_path / "model.json"
    assert run_cli("train", "--data", f"{prefix}0.csv", "--label", "label",
                   "--rounds", 4, "--depth", 2, "--out", model) == 0
    return {
        "fit": f"{prefix}0.csv",
        "cal": f"{prefix}1.csv",
        "test": f"{prefix}2.csv",
        "model": model,
        "tmp": tmp_path,
    }


def test_synth_writes_csv(moons_csv):
    with open(moons_csv) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x0", "x1", "label"]
    assert len(rows) == 81


def test_split_manifest(pipeline):
    manifest = json.loads((pipeline["tmp"] / "manifest.json").read_text())
    assert manifest["ratios"] == [0.64, 0.16, 0.20]
    sizes = [len(p) for p in manifest["partitions"]]
    assert sum(sizes) == 80


def test_full_pipeline_prune_evaluate_verify(pipeline):
    tmp = pipeline["tmp"]
    score = tmp / "score.json"
    assert run_cli("fit-score", "--model", pipeline["model"], "--data",
                   pipeline["fit"], "--label", "label", "--score", "chowliu",
                   "--out", score) == 0

    calib = tmp / "calibration.json"
    assert run_cli("calibrate", "--model", pipeline["model"],
                   "--score-model", score, "--data", pipeline["cal"],
                   "--label", "label", "--alpha", 0.4, "--out", calib) == 0
    calib_payload = json.loads(calib.read_text())
    assert calib_payload["alpha"] == 0.4
    assert "config" in calib_payload

    result = tmp / "result.json"
    assert run_cli("prune", "--model", pipeline["model"], "--fit",
                   pipeline["fit"], "--cal", pipeline["cal"], "--label",
                   "label", "--alpha", 0.4, "--score", "chowliu",
                   "--objective", "l0", "--out", result) == 0
    payload = json.loads(result.read_text())
    assert payload["certified"] is True
    assert payload["config"]["alpha"] == 0.4
    assert len(payload["weights"]) == 4

    report = tmp / "report.json"
    assert run_cli("evaluate", "--model", pipeline["model"], "--result",
                   result, "--test", pipeline["test"], "--label", "label",
                   "--score-model", score, "--out", report) == 0
    rep = json.loads(report.read_text())
    assert 0.0 <= rep["fidelity"] <= 1.0
    if rep["conditional_fidelity"] is not None and payload["certified"]:
        assert rep["conditional_fidelity"] == 1.0

    verdict = tmp / "verdict.json"
    assert run_cli("verify", "--model", pipeline["model"], "--result",
                   result, "--score-model", score, "--out", verdict) == 0
    v = json.loads(verdict.read_text())
    if payload["tau"] is not None:
        assert v["equivalent"] is True
        assert "state_bound" in v
        assert v["state_bound"]["holds"] is True


def test_prune_full_space_scope(pipeline):
    tmp = pipeline["tmp"]
    result = tmp / "fs.json"
    assert run_cli("prune", "--model", pipeline["model"], "--fit",
                   pipeline["fit"], "--label", "label", "--full-space",
                   "--out", result) == 0
    payload = json.loads(result.read_text())
    assert payload["guarantee_scope"] == "full_space"
    assert payload["tau"] is None

    verdict = tmp / "fs_verdict.json"
    assert run_cli("verify", "--model", pipeline["model"], "--result",
                   result, "--out", verdict) == 0
    assert json.loads(verdict.read_text())["equivalent"] is True


def test_prune_margin_above_the_original_weights_exits_1(pipeline, capsys):
    rc = run_cli("prune", "--model", pipeline["model"], "--fit",
                 pipeline["fit"], "--label", "label", "--full-space",
                 "--eps-margin", 1e9, "--out", pipeline["tmp"] / "x.json")
    assert rc == 1
    assert "InfeasibleAtEpsilon" in capsys.readouterr().err


def test_prune_node_limit_ends_uncertified_like_a_time_limit(pipeline):
    payloads = {}
    # a limit of 1 ns runs out before the first solve ends
    for flag, value in (("--node-limit", 1), ("--time-limit", 1e-9)):
        out = pipeline["tmp"] / f"limit{value}.json"
        assert run_cli("prune", "--model", pipeline["model"], "--fit",
                       pipeline["fit"], "--label", "label", "--full-space",
                       flag, value, "--out", out) == 0
        payloads[flag] = json.loads(out.read_text())
    for payload in payloads.values():
        assert payload["certified"] is False
        assert payload["guarantee_scope"] == "uncertified"
    by_nodes = payloads["--node-limit"]
    assert by_nodes["config"]["node_limit"] == 1
    # the weight solve's root LP is integral, so one node certifies it; the
    # counterexample search then stops at its limit
    assert [r["pruner_nodes"] for r in by_nodes["records"]] == [1]
    assert by_nodes["records"][-1]["note"] == (
        "counterexample search uncertified")


@pytest.mark.parametrize("flag", ["--node-limit", "--max-iterations"])
def test_prune_limit_below_one_exits_1(pipeline, capsys, flag):
    rc = run_cli("prune", "--model", pipeline["model"], "--fit",
                 pipeline["fit"], "--label", "label", "--full-space",
                 flag, 0, "--out", pipeline["tmp"] / "x.json")
    assert rc == 1
    assert "must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("command, argv, message", [
    ("synth", ["--n", 0, "--out", "{tmp}/out.csv"], "n must be >= 2"),
    ("synth", ["--kind", "treedist", "--n", 0, "--out", "{tmp}/out.csv"],
     "n must be >= 1"),
    ("synth", ["--n", 80, "--noise", -1, "--out", "{tmp}/out.csv"],
     "noise must be finite and >= 0, got -1.0"),
    ("split", ["--data", "{fit}", "--ratios", "0.5,0.6", "--out-prefix",
               "{tmp}/out", "--manifest", "{tmp}/out.json"],
     "ratios must sum to 1, got 1.1"),
    ("train", ["--data", "{fit}", "--label", "label", "--rounds", 0,
               "--out", "{tmp}/out.json"], "n_rounds must be >= 1"),
    ("train", ["--data", "{fit}", "--label", "label", "--depth", 0,
               "--out", "{tmp}/out.json"], "max_depth must be >= 1"),
    # a NaN step writes NaN leaves, which the model file refuses
    ("train", ["--data", "{fit}", "--label", "label", "--learning-rate",
               "nan", "--out", "{tmp}/out.json"],
     "learning_rate must be finite and > 0, got nan"),
    ("train", ["--data", "{fit}", "--label", "label", "--learning-rate", 0,
               "--out", "{tmp}/out.json"],
     "learning_rate must be finite and > 0, got 0.0"),
    ("fit-score", ["--model", "{model}", "--data", "{fit}", "--label",
                   "label", "--bins", 1, "--out", "{tmp}/out.json"],
     "B must be >= 2"),
    # a negative strict margin lets the weights flip the points it guards
    ("prune", ["--model", "{model}", "--fit", "{fit}", "--label", "label",
               "--full-space", "--eps-margin", -1, "--out", "{tmp}/out.json"],
     "eps_margin must be finite and > 0, got -1.0"),
    ("prune", ["--model", "{model}", "--fit", "{fit}", "--label", "label",
               "--full-space", "--eps-margin", "nan", "--out",
               "{tmp}/out.json"],
     "eps_margin must be finite and > 0, got nan"),
    ("prune", ["--model", "{model}", "--fit", "{fit}", "--label", "label",
               "--full-space", "--time-limit", -1, "--out", "{tmp}/out.json"],
     "time_limit_s must be > 0, got -1.0"),
    ("prune", ["--model", "{model}", "--fit", "{fit}", "--label", "label",
               "--full-space", "--time-limit", "nan", "--out",
               "{tmp}/out.json"],
     "time_limit_s must be > 0, got nan"),
    ("sweep", ["--data", "{fit}", "--label", "label", "--ratios", "0.5,0.6",
               "--out", "{tmp}/out.csv"], "ratios must sum to 1, got 1.1"),
    ("sweep", ["--data", "{fit}", "--label", "label", "--ratios", "0.8,0.2",
               "--out", "{tmp}/out.csv"],
     "--ratios must have 3 parts (fit, calibration, test), got 2"),
    # checked before the first job, as train checks it
    ("sweep", ["--data", "{fit}", "--label", "label", "--rounds", 0,
               "--out", "{tmp}/out.csv"], "n_rounds must be >= 1"),
    # the score model's fit parameters, checked by the run's config
    ("prune", ["--model", "{model}", "--fit", "{fit}", "--cal", "{fit}",
               "--label", "label", "--alpha", 0.8, "--bins", 1, "--out",
               "{tmp}/out.json"], "bins must be >= 2, got 1"),
    ("sweep", ["--data", "{fit}", "--label", "label", "--score", "iforest",
               "--if-trees", 0, "--out", "{tmp}/out.csv"],
     "if_trees must be >= 1 and if_max_samples >= 2, got 0 and 256"),
    # both modes at once: the config refuses the pair, not the command line
    ("prune", ["--model", "{model}", "--fit", "{fit}", "--cal", "{fit}",
               "--label", "label", "--full-space", "--alpha", 0.5, "--out",
               "{tmp}/out.json"], "set exactly one of alpha or full_space"),
    # a full-space run fits no score model: refused before any file is
    # read, so the missing files are never opened
    *(("prune", ["--model", "{missing}", "--fit", "{missing}",
                 "--full-space", *flags, "--out", "{tmp}/out.json"],
       f"--full-space fits no score model; it takes no {named}")
      for flags, named in (
          (["--cal", "{missing}"], "--cal"),
          (["--score", "iforest"], "--score"),
          (["--bins", 7], "--bins"),
          (["--beta", 2.0], "--beta"),
          (["--if-trees", 5], "--if-trees"),
          (["--if-max-samples", 32], "--if-max-samples"),
          (["--cal", "{missing}", "--score", "iforest", "--bins", 7],
           "--cal, --score, --bins"))),
    ("split", ["--data", "{fit}", "--ratios", "nan,0.5,0.5", "--out-prefix",
               "{tmp}/out", "--manifest", "{tmp}/out.json"],
     "ratios must be finite and non-negative, got (nan, 0.5, 0.5)"),
    ("sweep", ["--data", "{fit}", "--label", "label", "--ratios",
               "nan,0.5,0.5", "--out", "{tmp}/out.csv"],
     "ratios must be finite and non-negative, got (nan, 0.5, 0.5)"),
    # gen_moons adds noise only when it is > 0
    ("synth", ["--n", 80, "--noise", "nan", "--out", "{tmp}/out.csv"],
     "noise must be finite and >= 0, got nan"),
    # infinite noise writes rows of +-inf that no command can read
    ("synth", ["--n", 80, "--noise", "inf", "--out", "{tmp}/out.csv"],
     "noise must be finite and >= 0, got inf"),
    ("synth", ["--kind", "treedist", "--n", 10, "--concentration", 0,
               "--out", "{tmp}/out.csv"],
     "concentration must be finite and > 0, got 0.0"),
    ("synth", ["--kind", "treedist", "--n", 10, "--concentration", "nan",
               "--out", "{tmp}/out.csv"],
     "concentration must be finite and > 0, got nan"),
    ("convert", ["--dump", "{dump}", "--classes", 0, "--out",
                 "{tmp}/out.json"], "n_classes must be >= 1, got 0"),
    ("convert", ["--dump", "{dump}", "--classes", -2, "--out",
                 "{tmp}/out.json"], "n_classes must be >= 1, got -2"),
    ("convert", ["--dump", "{dump}", "--features", 0, "--out",
                 "{tmp}/out.json"], "n_features must be >= 1, got 0"),
    ("convert", ["--dump", "{dump}", "--features", -3, "--out",
                 "{tmp}/out.json"], "n_features must be >= 1, got -3"),
    # a pseudo-count that is not finite and > 0 writes NaN tables
    ("fit-score", ["--model", "{model}", "--data", "{fit}", "--label",
                   "label", "--beta", "nan", "--out", "{tmp}/out.json"],
     "beta must be finite and > 0, got nan"),
    ("fit-score", ["--model", "{model}", "--data", "{fit}", "--label",
                   "label", "--score", "leafsupport", "--beta", "inf",
                   "--out", "{tmp}/out.json"],
     "beta must be finite and > 0, got inf"),
    ("prune", ["--model", "{model}", "--fit", "{fit}", "--cal", "{fit}",
               "--label", "label", "--alpha", 0.8, "--beta", "inf", "--out",
               "{tmp}/out.json"], "beta must be finite and > 0, got inf"),
    # refused before any file is read
    *(("verify", ["--model", "{missing}", "--result", "{missing}", "--cap",
                  cap, "--out", "{tmp}/out.json"],
       f"--cap must be >= 1, got {cap}") for cap in (0, -5)),
    # a list flag that does not parse is named
    ("sweep", ["--data", "{fit}", "--label", "label", "--seeds", "0,x",
               "--out", "{tmp}/out.csv"],
     "--seeds must be comma-separated integers, got '0,x'"),
    ("sweep", ["--data", "{fit}", "--label", "label", "--alphas",
               "0.1,abc", "--out", "{tmp}/out.csv"],
     "--alphas must be comma-separated numbers, got '0.1,abc'"),
    ("sweep", ["--data", "{fit}", "--label", "label", "--ratios", "a,b,c",
               "--out", "{tmp}/out.csv"],
     "--ratios must be comma-separated numbers, got 'a,b,c'"),
    ("split", ["--data", "{fit}", "--ratios", "a,b,c", "--out-prefix",
               "{tmp}/out", "--manifest", "{tmp}/out.json"],
     "--ratios must be comma-separated numbers, got 'a,b,c'"),
    # NumPy's generators refuse a negative seed, without naming the flag
    ("split", ["--data", "{fit}", "--seed", -1, "--out-prefix", "{tmp}/out",
               "--manifest", "{tmp}/out.json"], "seed must be >= 0, got -1"),
    ("sweep", ["--data", "{fit}", "--label", "label", "--seeds=-1",
               "--out", "{tmp}/out.csv"], "seed must be >= 0, got -1"),
    ("prune", ["--model", "{model}", "--fit", "{fit}", "--cal", "{fit}",
               "--label", "label", "--alpha", 0.8, "--score", "iforest",
               "--seed", -1, "--out", "{tmp}/out.json"],
     "seed must be >= 0, got -1"),
    ("synth", ["--n", 80, "--seed", -1, "--out", "{tmp}/out.csv"],
     "seed must be >= 0, got -1"),
    ("synth", ["--kind", "treedist", "--n", 10, "--seed", -1, "--out",
               "{tmp}/out.csv"], "seed must be >= 0, got -1"),
    ("fit-score", ["--model", "{model}", "--data", "{fit}", "--label",
                   "label", "--score", "iforest", "--seed", -1, "--out",
                   "{tmp}/out.json"], "seed must be >= 0, got -1"),
], ids=["synth-n", "synth-treedist-n", "synth-noise", "split-ratios", "train-rounds",
        "train-depth", "train-learning-rate-nan", "train-learning-rate-0",
        "fit-score-bins", "prune-eps-margin", "prune-eps-margin-nan",
        "prune-time-limit", "prune-time-limit-nan", "sweep-ratios",
        "sweep-ratios-parts", "sweep-rounds", "prune-bins",
        "sweep-if-trees", "prune-alpha-and-full-space",
        "prune-full-space-cal", "prune-full-space-score",
        "prune-full-space-bins", "prune-full-space-beta",
        "prune-full-space-if-trees", "prune-full-space-if-max-samples",
        "prune-full-space-cal-score-bins", "split-ratios-nan",
        "sweep-ratios-nan", "synth-noise-nan", "synth-noise-inf",
        "synth-concentration-0",
        "synth-concentration-nan", "convert-classes-0", "convert-classes-neg",
        "convert-features-0", "convert-features-neg", "fit-score-beta-nan",
        "fit-score-leafsupport-beta-inf", "prune-beta-inf", "verify-cap-0",
        "verify-cap-neg", "sweep-seeds", "sweep-alphas",
        "sweep-ratios-not-numbers", "split-ratios-not-numbers",
        "split-seed-neg", "sweep-seeds-neg", "prune-iforest-seed-neg",
        "synth-seed-neg", "synth-treedist-seed-neg",
        "fit-score-iforest-seed-neg"])
def test_flags_out_of_range_are_one_error_line(pipeline, capsys, command,
                                               argv, message):
    tmp = pipeline["tmp"] / "refused"
    tmp.mkdir()
    dump = pipeline["tmp"] / "dump.txt"
    dump.write_text(
        "booster[0]:\n0:[f0<0.5] yes=1,no=2\n1:leaf=0.4\n2:leaf=-0.4\n")
    paths = {"tmp": tmp, "fit": pipeline["fit"], "model": pipeline["model"],
             "dump": dump, "missing": pipeline["tmp"] / "missing"}
    capsys.readouterr()
    assert run_cli(command, *(str(a).format(**paths) for a in argv)) == 1
    err = capsys.readouterr().err
    assert err == f"error: EquipruneError: {message}\n"
    assert not any(tmp.iterdir())


def test_sweep_job_value_error_propagates(pipeline, monkeypatch):
    # the flags are checked before the first job, so a ValueError raised
    # within a job is a fault: it keeps its traceback, and no file is
    # written
    fault = ValueError("a fault within the job")

    def failing(*args, **kwargs):
        raise fault

    monkeypatch.setattr(loop, "run_full_space", failing)
    out = pipeline["tmp"] / "sweep.csv"
    with pytest.raises(ValueError) as err:
        run_cli("sweep", "--data", pipeline["fit"], "--label", "label",
                "--seeds", "0", "--alphas", "0.5", "--rounds", 2, "--out",
                out)
    assert err.value is fault
    assert not out.exists()


def test_prune_requires_mode(pipeline, capsys):
    rc = run_cli("prune", "--model", pipeline["model"], "--fit",
                 pipeline["fit"], "--label", "label",
                 "--out", pipeline["tmp"] / "x.json")
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_select_alpha_flow(pipeline):
    tmp = pipeline["tmp"]
    results = []
    for alpha in (0.2, 0.6):
        out = tmp / f"res_{alpha}.json"
        assert run_cli("prune", "--model", pipeline["model"], "--fit",
                       pipeline["fit"], "--cal", pipeline["cal"], "--label",
                       "label", "--alpha", alpha, "--out", out) == 0
        results.append(out)
    selection = tmp / "selection.json"
    assert run_cli("select-alpha", "--model", pipeline["model"], "--sel",
                   pipeline["test"], "--label", "label", "--results",
                   *results, "--target", 0.5, "--selector", "empirical",
                   "--out", selection) == 0
    sel = json.loads(selection.read_text())
    assert sel["chosen"] in (0.2, 0.6, None)


def test_sweep_row_count(pipeline):
    tmp = pipeline["tmp"]
    out = tmp / "sweep.csv"
    assert run_cli("sweep", "--data", tmp / "moons.csv", "--label", "label",
                   "--seeds", "0,1", "--alphas", "0.3,0.7", "--rounds", 3,
                   "--depth", 2, "--out", out) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    # per seed: 1 full-space row + one row per alpha
    assert len(rows) == 2 * (1 + 2)
    methods = {r["method"] for r in rows}
    assert methods == {"full_space", "in_distribution"}
    for row in rows:
        # counts identity: fidelity >= coverage * conditional fidelity
        if row["coverage"] and row["conditional_fidelity"]:
            lhs = float(row["fidelity"])
            rhs = float(row["coverage"]) * float(row["conditional_fidelity"])
            assert lhs >= rhs - 1e-12


def test_four_way_split_selection_protocol(tmp_path, moons_csv):
    # fit/calibration/selection/test split feeding the post-hoc selector
    prefix = tmp_path / "q"
    assert run_cli("split", "--data", moons_csv, "--label", "label",
                   "--ratios", "0.48,0.16,0.16,0.20", "--seed", 3,
                   "--out-prefix", prefix) == 0
    model = tmp_path / "m.json"
    assert run_cli("train", "--data", f"{prefix}0.csv", "--label", "label",
                   "--rounds", 4, "--depth", 2, "--out", model) == 0
    results = []
    for alpha in (0.3, 0.6, 0.9):
        out = tmp_path / f"r{alpha}.json"
        assert run_cli("prune", "--model", model, "--fit", f"{prefix}0.csv",
                       "--cal", f"{prefix}1.csv", "--label", "label",
                       "--alpha", alpha, "--out", out) == 0
        results.append(out)
    out = tmp_path / "sel.json"
    assert run_cli("select-alpha", "--model", model, "--sel",
                   f"{prefix}2.csv", "--label", "label", "--results",
                   *results, "--target", 0.9, "--selector",
                   "confidence_bound", "--delta", 0.05, "--out", out) == 0
    sel = json.loads(out.read_text())
    assert sel["delta"] == 0.05
    assert len(sel["mismatches"]) == 3
    assert sel["chosen"] in (0.3, 0.6, 0.9, None)


def test_convert_round_trip(tmp_path):
    dump = tmp_path / "dump.txt"
    dump.write_text(
        "booster[0]:\n0:[f0<0.5] yes=1,no=2\n1:leaf=0.4\n2:leaf=-0.4\n")
    out = tmp_path / "model.json"
    assert run_cli("convert", "--dump", dump, "--classes", 2, "--features", 2,
                   "--out", out) == 0
    payload = json.loads(out.read_text())
    assert payload["n_features"] == 2
    assert payload["trees"][0]["threshold"] == 0.5


def test_convert_rejects_a_split_beyond_features(tmp_path, capsys):
    dump = tmp_path / "dump.txt"
    dump.write_text(
        "booster[0]:\n0:[f3<0.5] yes=1,no=2\n1:leaf=0.4\n2:leaf=-0.4\n")
    out = tmp_path / "model.json"
    assert run_cli("convert", "--dump", dump, "--classes", 2, "--features", 1,
                   "--out", out) == 1
    err = capsys.readouterr().err
    assert "error: SchemaError" in err and "f3" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("node_lines, message", [
    ("0:[fx<1] yes=1,no=2\n1:leaf=0.4\n2:leaf=-0.4",
     "line 2: cannot parse node line '0:[fx<1] yes=1,no=2'"),
    ("0:[f0<1] yes=1,no=5\n1:leaf=0.4\n2:leaf=-0.4", "line 2: no node 5"),
    ("0:[f0<1] yes=1\n1:leaf=0.4\n2:leaf=-0.4",
     "line 2: split needs a node id no="),
    ("0 leaf 0.4", "line 2: cannot parse node line '0 leaf 0.4'"),
    ("0:[f0<1] yes=0,no=0", "line 2: node 0 is reached twice"),
    ("0:[f-1<1] yes=1,no=2\n1:leaf=0.4\n2:leaf=-0.4",
     "line 2: split on feature f-1"),
], ids=["feature-not-a-number", "missing-child", "missing-no",
        "line-without-colon", "cycle", "negative-feature"])
def test_malformed_dump_is_one_error_line(tmp_path, capsys, node_lines,
                                          message):
    dump = tmp_path / "dump.txt"
    dump.write_text(f"booster[0]:\n{node_lines}\n")
    out = tmp_path / "model.json"
    assert run_cli("convert", "--dump", dump, "--out", out) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: SchemaError: {message}"]
    assert not out.exists()


def test_synth_treedist(tmp_path):
    out = tmp_path / "tree.csv"
    assert run_cli("synth", "--kind", "treedist", "--n", 50, "--p", 3,
                   "--states", 2, "--seed", 4, "--out", out) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x0", "x1", "x2"]
    assert len(rows) == 51


def test_verify_tau_override(pipeline):
    tmp = pipeline["tmp"]
    score = tmp / "s.json"
    assert run_cli("fit-score", "--model", pipeline["model"], "--data",
                   pipeline["fit"], "--label", "label", "--out", score) == 0
    result = tmp / "fs2.json"
    assert run_cli("prune", "--model", pipeline["model"], "--fit",
                   pipeline["fit"], "--label", "label", "--full-space",
                   "--out", result) == 0
    verdict = tmp / "v2.json"
    # restrict the full-space certificate check to an explicit region
    assert run_cli("verify", "--model", pipeline["model"], "--result",
                   result, "--score-model", score, "--tau", 3.0,
                   "--out", verdict) == 0
    v = json.loads(verdict.read_text())
    assert v["equivalent"] is True
    assert v["state_bound"]["holds"] is True


def test_verify_reports_cells_and_throughput(pipeline, caplog):
    tmp = pipeline["tmp"]
    result = tmp / "fs3.json"
    assert run_cli("prune", "--model", pipeline["model"], "--fit",
                   pipeline["fit"], "--label", "label", "--full-space",
                   "--out", result) == 0
    verdict = tmp / "v3.json"
    caplog.set_level(logging.INFO, logger="equiprune")
    assert run_cli("verify", "--model", pipeline["model"], "--result",
                   result, "--out", verdict) == 0
    v = json.loads(verdict.read_text())
    e = load_ensemble(pipeline["model"])
    assert v["n_cells"] == threshold_index(e).n_cells()
    assert v["seconds"] >= 0.0
    assert any(f"verified {v['n_cells']} cells" in r.getMessage()
               and "cells/s" in r.getMessage() for r in caplog.records)


def test_verify_counts_every_disagreement_but_reports_max_report(pipeline):
    tmp = pipeline["tmp"]
    e = load_ensemble(pipeline["model"])
    w = np.zeros(e.n_trees)
    w[-1] = 1.0  # the last tree alone flips several cells
    want = check_equivalence_exhaustive(e, e.weights0, w)
    assert len(want) > 1
    result = tmp / "one_tree.json"
    result.write_text(json.dumps({"weights": w.tolist(), "tau": None}))
    verdict = tmp / "v4.json"
    assert run_cli("verify", "--model", pipeline["model"], "--result",
                   result, "--max-report", 1, "--out", verdict) == 1
    v = json.loads(verdict.read_text())
    assert v["equivalent"] is False
    assert v["n_disagreements"] == len(want)
    assert v["disagreements"] == [
        {"x": list(want[0].x), "original_class": want[0].original_class,
         "pruned_class": want[0].pruned_class, "score": None}]


@pytest.mark.parametrize("score, argv, message", [
    # a Chow-Liu state count under a non-finite tau has no bound to check
    ("chowliu", ["--tau", "nan"], "--tau must be finite, got nan"),
    ("chowliu", ["--tau", "inf"], "--tau must be finite, got inf"),
    # NaN > tau is false, so every cell would count as in the region
    ("leafsupport", ["--tau", "nan"], "--tau must be finite, got nan"),
    # without a score model there is no region for tau to bound
    (None, ["--tau", "3.0"], "--tau needs --score-model"),
    (None, ["--max-report", "-1"], "--max-report must be >= 0, got -1"),
], ids=["chowliu-nan", "chowliu-inf", "leafsupport-nan", "no-score-model",
        "negative-max-report"])
def test_verify_rejects_flags_out_of_range(pipeline, capsys, monkeypatch,
                                           score, argv, message):
    tmp = pipeline["tmp"]
    result = tmp / "fs5.json"
    assert run_cli("prune", "--model", pipeline["model"], "--fit",
                   pipeline["fit"], "--label", "label", "--full-space",
                   "--out", result) == 0
    if score is not None:
        path = tmp / f"{score}.json"
        assert run_cli("fit-score", "--model", pipeline["model"], "--data",
                       pipeline["fit"], "--label", "label", "--score", score,
                       "--out", path) == 0
        argv = ["--score-model", path, *argv]
    capsys.readouterr()

    def checked(*args, **kwargs):
        raise AssertionError("a cell was checked")

    monkeypatch.setattr(cli, "iter_disagreements", checked)
    out = tmp / "verdict.json"
    assert run_cli("verify", "--model", pipeline["model"], "--result", result,
                   *argv, "--out", out) == 1
    err = capsys.readouterr().err
    assert err == f"error: EquipruneError: {message}\n"
    assert not out.exists()


def test_verify_refuses_a_score_model_without_a_tau(pipeline, capsys,
                                                   monkeypatch):
    # a full-space result has no tau, and no --tau is given: the region
    # has no bound, so the score file is neither read nor skipped silently
    tmp = pipeline["tmp"]
    result = tmp / "fs6.json"
    assert run_cli("prune", "--model", pipeline["model"], "--fit",
                   pipeline["fit"], "--label", "label", "--full-space",
                   "--out", result) == 0
    assert json.loads(result.read_text())["tau"] is None
    score = tmp / "iforest_kind_only.json"
    score.write_text(json.dumps({"kind": "iforest"}))
    capsys.readouterr()

    def called(*args, **kwargs):
        raise AssertionError("the score model was read or a cell checked")

    monkeypatch.setattr(cli, "load_score_model", called)
    monkeypatch.setattr(cli, "iter_disagreements", called)
    out = tmp / "verdict6.json"
    assert run_cli("verify", "--model", pipeline["model"], "--result", result,
                   "--score-model", score, "--out", out) == 1
    assert capsys.readouterr().err == ("error: EquipruneError: --score-model "
                                       "needs --tau or a result with a tau\n")
    assert not out.exists()


def test_evaluate_refuses_a_score_model_without_a_tau(pipeline, capsys,
                                                     monkeypatch):
    # a full-space result has no tau: evaluate has no region to measure
    # coverage in, so the score file is neither read nor ignored silently
    tmp = pipeline["tmp"]
    result = tmp / "fs7.json"
    assert run_cli("prune", "--model", pipeline["model"], "--fit",
                   pipeline["fit"], "--label", "label", "--full-space",
                   "--out", result) == 0
    assert json.loads(result.read_text())["tau"] is None
    score = tmp / "iforest_kind_only.json"
    score.write_text(json.dumps({"kind": "iforest"}))
    capsys.readouterr()

    def called(*args, **kwargs):
        raise AssertionError("the score model was read or a row evaluated")

    monkeypatch.setattr(cli, "load_score_model", called)
    monkeypatch.setattr(cli.ev, "evaluate", called)
    out = tmp / "report7.json"
    assert run_cli("evaluate", "--model", pipeline["model"], "--result",
                   result, "--test", pipeline["test"], "--label", "label",
                   "--score-model", score, "--out", out) == 1
    assert capsys.readouterr().err == ("error: EquipruneError: --score-model "
                                       "needs a result with a tau\n")
    assert not out.exists()


@pytest.mark.parametrize("target", [1.5, -1.0, math.nan])
def test_select_alpha_refuses_a_target_outside_the_unit_interval(
        pipeline, capsys, target):
    # 1.5 printed fallback and -1 picked the largest alpha, both exit 0
    tmp = pipeline["tmp"]
    result = tmp / "result_alpha.json"
    result.write_text(json.dumps({"weights": [1.0, 1.0, 1.0, 1.0],
                                  "tau": 1.0, "config": {"alpha": 0.2}}))
    capsys.readouterr()
    out = tmp / "selection.json"
    assert run_cli("select-alpha", "--model", pipeline["model"], "--sel",
                   pipeline["test"], "--label", "label", "--results", result,
                   "--target", target, "--out", out) == 1
    assert capsys.readouterr() == ("", "error: EquipruneError: rho_star must "
                                   f"be in [0, 1], got {target}\n")
    assert not out.exists()


@pytest.mark.parametrize("payload", [
    {"kind": "chowliu"},
    {"kind": "iforest", "n_features": 2, "trees": [{"leaf": "x"}]},
])
def test_malformed_score_model_is_a_domain_error(pipeline, payload, capsys):
    tmp = pipeline["tmp"]
    score = tmp / "bad_score.json"
    score.write_text(json.dumps(payload))
    assert run_cli("calibrate", "--model", pipeline["model"], "--score-model",
                   score, "--data", pipeline["cal"], "--label", "label",
                   "--alpha", 0.2, "--out", tmp / "cal.json") == 1
    assert "SchemaError" in capsys.readouterr().err


def iso_split(feature=0, threshold=0.5, leaf=1.0):
    """An isolation-forest score file of one split on a 2-feature model."""
    return {"kind": "iforest", "n_features": 2,
            "trees": [{"feature": feature, "threshold": threshold,
                       "left": {"leaf": leaf}, "right": {"leaf": 2.0}}]}


@pytest.mark.parametrize("payload, path", [
    # a split off the features was an IndexError traceback, and a NaN
    # threshold gave a tau
    (iso_split(feature=7), "$.trees[0].feature"),
    (iso_split(feature=True), "$.trees[0].feature"),
    (iso_split(threshold=math.nan), "$.trees[0].threshold"),
    (iso_split(leaf=math.inf), "$.trees[0].left.leaf"),
    ({**iso_split(), "n_features": True}, "$.n_features"),
    ({**iso_split(), "trees": []}, "$.trees"),
])
def test_malformed_isolation_forest_file_is_a_domain_error(pipeline, payload,
                                                           path, capsys):
    tmp = pipeline["tmp"]
    score = tmp / "bad_score.json"
    score.write_text(json.dumps(payload))
    assert run_cli("calibrate", "--model", pipeline["model"], "--score-model",
                   score, "--data", pipeline["cal"], "--label", "label",
                   "--alpha", 0.2, "--out", tmp / "cal.json") == 1
    err = capsys.readouterr().err
    assert "error: SchemaError" in err and f"{path}:" in err
    assert "Traceback" not in err


def test_chow_liu_table_off_the_grid_is_a_domain_error(pipeline, capsys):
    tmp = pipeline["tmp"]
    score = tmp / "score.json"
    assert run_cli("fit-score", "--model", pipeline["model"], "--data",
                   pipeline["fit"], "--label", "label", "--score", "chowliu",
                   "--bins", 2, "--out", score) == 0
    payload = json.loads(score.read_text())
    assert len(payload["root_table"]) == 2
    payload["root_table"] = payload["root_table"][:1]
    score.write_text(json.dumps(payload))
    assert run_cli("calibrate", "--model", pipeline["model"], "--score-model",
                   score, "--data", pipeline["cal"], "--label", "label",
                   "--alpha", 0.2, "--out", tmp / "cal.json") == 1
    err = capsys.readouterr().err
    assert "SchemaError" in err and "$.root_table" in err


def run_with_score_file(pipeline, command, score):
    """``command`` on the pipeline's model with the score file ``score``."""
    tmp = pipeline["tmp"]
    result = tmp / "result_with_tau.json"
    result.write_text(json.dumps({"weights": [1.0, 1.0, 1.0, 1.0],
                                  "tau": 1.0, "config": {"alpha": 0.2}}))
    argv = {
        "calibrate": ["--data", pipeline["cal"], "--label", "label",
                      "--alpha", 0.2],
        "evaluate": ["--result", result, "--test", pipeline["test"],
                     "--label", "label"],
        "verify": ["--result", result],
    }[command]
    return run_cli(command, "--model", pipeline["model"], "--score-model",
                   score, *argv, "--out", tmp / "out.json")


@pytest.mark.parametrize("command", ["calibrate", "evaluate", "verify"])
@pytest.mark.parametrize("case, path", [
    # both were IndexError tracebacks: a split on feature 4 of a 2-feature
    # model, and one 2-leaf cost row for 4 trees
    ("iforest_wider", "$.n_features"),
    ("leafsupport_one_row", "$.costs"),
    ("leafsupport_leaf_count", "$.costs[1]"),
    ("chowliu_wider", "$.boundaries"),
    # the search and the verifier see only the ensemble's thresholds
    ("chowliu_off_threshold", "$.boundaries[0]"),
])
def test_score_file_for_another_ensemble_is_a_domain_error(pipeline, capsys,
                                                           command, case,
                                                           path):
    tmp = pipeline["tmp"]
    leaves = [len(load_ensemble(pipeline["model"]).leaves(m))
              for m in range(4)]
    if case == "iforest_wider":
        payload = {**iso_split(feature=4), "n_features": 5}
    elif case == "leafsupport_one_row":
        payload = {"kind": "leafsupport", "costs": [[0.5, 0.7]], "beta": 1.0}
    elif case == "leafsupport_leaf_count":
        payload = {"kind": "leafsupport", "beta": 1.0,
                   "costs": [[0.5] * (n + (m == 1)) for m, n in
                             enumerate(leaves)]}
    else:
        fitted = tmp / "chowliu.json"
        assert run_cli("fit-score", "--model", pipeline["model"], "--data",
                       pipeline["fit"], "--label", "label", "--score",
                       "chowliu", "--out", fitted) == 0
        payload = json.loads(fitted.read_text())
        if case == "chowliu_wider":
            payload["boundaries"].append([])
            payload["included"].append(False)
        else:
            # one ulp below the first boundary of feature 0
            moved = float(np.nextafter(payload["boundaries"][0][0], -np.inf))
            assert moved not in threshold_index(
                load_ensemble(pipeline["model"])).thresholds(0)
            payload["boundaries"][0][0] = moved
    score = tmp / "score.json"
    score.write_text(json.dumps(payload))
    assert run_with_score_file(pipeline, command, score) == 1
    err = capsys.readouterr().err
    assert "error: SchemaError" in err and f"{path}:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["calibrate", "evaluate", "verify"])
@pytest.mark.parametrize("case, path", [
    # certified in_distribution while the verifier found disagreeing cells
    ("reversed_boundaries", "$.boundaries[0]"),
    # a KeyError traceback from the verifier's state bound
    ("child_first", "$.order"),
])
def test_chow_liu_file_off_its_grid_order_or_tree_is_one_error_line(
        pipeline, capsys, command, case, path):
    tmp = pipeline["tmp"]
    score = tmp / "chowliu.json"
    assert run_cli("fit-score", "--model", pipeline["model"], "--data",
                   pipeline["fit"], "--label", "label", "--score", "chowliu",
                   "--out", score) == 0
    payload = json.loads(score.read_text())
    if case == "reversed_boundaries":
        assert len(payload["boundaries"][0]) > 1
        payload["boundaries"][0].reverse()
    else:
        assert payload["order"][0] == payload["root"]
        payload["order"].reverse()
    score.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run_with_score_file(pipeline, command, score) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: SchemaError: {path}: ")
    assert err.count("\n") == 1


def test_calibrate_without_the_label_is_one_error_line(pipeline, capsys):
    # the label column was scored as a third feature
    tmp = pipeline["tmp"]
    score = tmp / "chowliu.json"
    assert run_cli("fit-score", "--model", pipeline["model"], "--data",
                   pipeline["fit"], "--label", "label", "--score", "chowliu",
                   "--out", score) == 0
    capsys.readouterr()
    assert run_cli("calibrate", "--model", pipeline["model"], "--score-model",
                   score, "--data", pipeline["cal"], "--alpha", 0.2,
                   "--out", tmp / "cal.json") == 1
    assert capsys.readouterr().err == (
        "error: DimensionMismatch: expected rows of 2 features, got shape "
        "(12, 3)\n")
    assert not (tmp / "cal.json").exists()


def test_score_file_of_the_ensemble_is_accepted(pipeline):
    tmp = pipeline["tmp"]
    for kind in ("chowliu", "leafsupport", "iforest"):
        score = tmp / f"{kind}.json"
        assert run_cli("fit-score", "--model", pipeline["model"], "--data",
                       pipeline["fit"], "--label", "label", "--score", kind,
                       "--if-trees", 2, "--if-max-samples", 8,
                       "--out", score) == 0
        for command in ("calibrate", "evaluate", "verify"):
            assert run_with_score_file(pipeline, command, score) == 0


@pytest.mark.parametrize("command, argv", [
    ("split", ["--data", "NOPE", "--out-prefix", "OUT"]),
    ("train", ["--data", "NOPE", "--label", "label", "--out", "OUT"]),
    ("fit-score", ["--model", "NOPE", "--data", "FIT", "--out", "OUT"]),
    ("calibrate", ["--model", "NOPE", "--score-model", "NOPE", "--data",
                   "CAL", "--alpha", 0.2, "--out", "OUT"]),
    ("calibrate", ["--model", "MODEL", "--score-model", "NOPE", "--data",
                   "CAL", "--alpha", 0.2, "--out", "OUT"]),
    ("prune", ["--model", "MODEL", "--fit", "NOPE", "--full-space",
               "--out", "OUT"]),
    ("evaluate", ["--model", "MODEL", "--result", "NOPE", "--test", "TEST",
                  "--out", "OUT"]),
    ("select-alpha", ["--model", "MODEL", "--sel", "NOPE", "--results",
                      "NOPE", "--target", 0.5, "--out", "OUT"]),
    ("verify", ["--model", "MODEL", "--result", "NOPE", "--out", "OUT"]),
    ("sweep", ["--data", "NOPE", "--label", "label", "--out", "OUT"]),
    ("convert", ["--dump", "NOPE", "--out", "OUT"]),
])
def test_missing_input_file_is_one_error_line(pipeline, capsys, command,
                                              argv):
    tmp = pipeline["tmp"]
    names = {"NOPE": tmp / "nope", "OUT": tmp / "out", "FIT": pipeline["fit"],
             "CAL": pipeline["cal"], "TEST": pipeline["test"],
             "MODEL": pipeline["model"]}
    assert run_cli(command, *[names.get(a, a) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [
        f"error: FileNotFoundError: [Errno 2] No such file or directory: "
        f"'{tmp / 'nope'}'"]
    assert not (tmp / "out").exists()


def test_a_directory_as_input_is_one_error_line(pipeline, capsys):
    tmp = pipeline["tmp"]
    assert run_cli("verify", "--model", tmp, "--result", tmp,
                   "--out", tmp / "out.json") == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [
        f"error: IsADirectoryError: [Errno 21] Is a directory: '{tmp}'"]


MODEL_ARGV = ["--model", "BAD", "--result", "RESULT"]
SCORE_ARGV = ["--model", "MODEL", "--score-model", "BAD", "--data", "CAL",
              "--label", "label", "--alpha", 0.2]
RESULT_ARGV = ["--model", "MODEL", "--result", "BAD"]


@pytest.mark.parametrize("command, argv, content", [
    ("verify", MODEL_ARGV, b"{"),  # load_ensemble
    ("verify", MODEL_ARGV, b'{"n_features": 2\xff}'),
    ("calibrate", SCORE_ARGV, b"{"),  # load_score_model
    ("calibrate", SCORE_ARGV, b"\xff"),
    ("verify", RESULT_ARGV, b"[1, 2"),  # _load_weights
    ("verify", RESULT_ARGV, b"\xfe\xff"),
    ("train", ["--data", "BAD", "--label", "label"],  # load_csv
     b"x0,label\n\xff,1\n"),
    ("train", ["--data", "BAD", "--label", "label"],
     b"x0,label\n" + b"1" * 200_000 + b",1\n"),  # past csv's field limit
    ("convert", ["--dump", "BAD"], b"\xff"),
], ids=["model-not-json", "model-not-utf8", "score-not-json",
        "score-not-utf8", "result-not-json", "result-not-utf8",
        "csv-not-utf8", "csv-field-too-long", "dump-not-utf8"])
def test_unreadable_input_file_is_one_error_line(pipeline, capsys, command,
                                                 argv, content):
    tmp = pipeline["tmp"]
    bad = tmp / "bad"
    bad.write_bytes(content)
    result = tmp / "result.json"
    result.write_text(json.dumps({"weights": [1.0, 1.0, 1.0, 1.0],
                                  "config": {"alpha": None}}))
    names = {"BAD": bad, "RESULT": result, "MODEL": pipeline["model"],
             "CAL": pipeline["cal"]}
    assert run_cli(command, *[names.get(a, a) for a in argv],
                   "--out", tmp / "out") == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: ParseError: {bad}: not a UTF-8 ") \
        or line.startswith(f"error: ParseError: {bad}: not UTF-8 text")
    assert not (tmp / "out").exists()


@pytest.mark.parametrize("command", ["evaluate", "select-alpha"])
@pytest.mark.parametrize("payload, path", [
    ({"config": {"alpha": 0.2}}, "$.weights"),
    ({"weights": "1,1,1,1", "config": {"alpha": 0.2}}, "$.weights"),
    ({"weights": [1.0, 1.0, 1.0, 1.0]}, "$.config.alpha"),
    ({"weights": [1.0, 1.0, 1.0, 1.0], "config": {}}, "$.config.alpha"),
    ({"weights": [1.0, 1.0, 1.0, 1.0], "config": {"alpha": "0.2"}},
     "$.config.alpha"),
    ({"weights": [math.nan, 1.0, 1.0, 1.0], "config": {"alpha": 0.2}},
     "$.weights"),
    ({"weights": [1.0, 1.0, 1.0, math.inf], "config": {"alpha": 0.2}},
     "$.weights"),
    ({"weights": [1.0, 1.0, 1.0, 1.0], "tau": math.nan,
      "config": {"alpha": 0.2}}, "$.tau"),
    ({"weights": [1.0, 1.0, 1.0, 1.0], "tau": -math.inf,
      "config": {"alpha": 0.2}}, "$.tau"),
    ({"weights": [1.0, 1.0, 1.0, 1.0], "config": {"alpha": math.nan}},
     "$.config.alpha"),
    # JSON booleans are not numbers
    ({"weights": [True, 1.0, 1.0, 1.0], "config": {"alpha": 0.2}},
     "$.weights"),
    ({"weights": [1.0, 1.0, 1.0, 1.0], "tau": True,
      "config": {"alpha": 0.2}}, "$.tau"),
    ({"weights": [1.0, 1.0, 1.0, 1.0], "config": {"alpha": False}},
     "$.config.alpha"),
])
def test_malformed_result_file_is_a_domain_error(pipeline, capsys, command,
                                                 payload, path):
    tmp = pipeline["tmp"]
    result = tmp / "bad_result.json"
    result.write_text(json.dumps(payload))
    if command == "evaluate":
        args = ["--result", result, "--test", pipeline["test"]]
    else:
        args = ["--results", result, "--sel", pipeline["test"],
                "--target", 0.5]
    assert run_cli(command, "--model", pipeline["model"], "--label", "label",
                   *args, "--out", tmp / "out.json") == 1
    err = capsys.readouterr().err
    assert "SchemaError" in err and path in err
    assert "Traceback" not in err


@pytest.mark.parametrize("payload, path", [
    # read as written, NaN weights made every cell disagree
    ({"weights": [math.nan, 1.0, 1.0, 1.0]}, "$.weights"),
    ({"weights": [1.0, 1.0, 1.0, 1.0], "tau": math.inf}, "$.tau"),
    # read as 1, a true weight kept its tree
    ({"weights": [True, 1.0, 1.0, 1.0]}, "$.weights"),
])
def test_verify_rejects_a_non_finite_result_file(pipeline, capsys, payload,
                                                 path):
    tmp = pipeline["tmp"]
    result = tmp / "bad_result.json"
    result.write_text(json.dumps(payload))
    assert run_cli("verify", "--model", pipeline["model"], "--result", result,
                   "--out", tmp / "verdict.json") == 1
    err = capsys.readouterr().err
    assert "error: SchemaError" in err and path in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key, value, path", [
    ("weights", 5, "$.weights"),
    ("weights", "a", "$.weights"),
    ("weights", [-1.0], "$.weights"),
    ("n_features", "x", "$.n_features"),
    ("trees", [{"feature": 1, "threshold": 0.5, "left": {"leaf": [1.0, 0.0]},
                "right": {"leaf": [0.0, 1.0]}}], "$.trees[0].feature"),
    ("trees", [{"feature": -1, "threshold": 0.5, "left": {"leaf": [1.0, 0.0]},
                "right": {"leaf": [0.0, 1.0]}}], "$.trees[0].feature"),
    ("trees", [{"feature": 0, "threshold": math.nan,
                "left": {"leaf": [1.0, 0.0]}, "right": {"leaf": [0.0, 1.0]}}],
     "$.trees[0].threshold"),
    ("trees", [{"feature": 0, "threshold": -math.inf,
                "left": {"leaf": [1.0, 0.0]}, "right": {"leaf": [0.0, 1.0]}}],
     "$.trees[0].threshold"),
    ("trees", [{"feature": 0, "threshold": 0.5,
                "left": {"leaf": [1.0, 0.0]},
                "right": {"leaf": [0.0, math.nan]}}],
     "$.trees[0].right.leaf"),
    ("trees", [{"leaf": [math.inf, 0.0]}], "$.trees[0].leaf"),
    ("weights", [math.inf], "$.weights"),
    ("weights", [math.nan], "$.weights"),
    # JSON booleans are not numbers; each was read as 0 or 1
    ("n_features", True, "$.n_features"),
    ("n_classes", True, "$.n_classes"),
    ("trees", [{"feature": False, "threshold": 0.5,
                "left": {"leaf": [1.0, 0.0]}, "right": {"leaf": [0.0, 1.0]}}],
     "$.trees[0].feature"),
    ("trees", [{"feature": 0, "threshold": True,
                "left": {"leaf": [1.0, 0.0]}, "right": {"leaf": [0.0, 1.0]}}],
     "$.trees[0].threshold"),
    ("trees", [{"leaf": [True, 0.0]}], "$.trees[0].leaf"),
    ("weights", [True], "$.weights"),
])
def test_malformed_model_file_is_a_domain_error(tmp_path, capsys, key, value,
                                                path):
    payload = {"n_features": 1, "n_classes": 2, "weights": [1.0],
               "trees": [{"feature": 0, "threshold": 0.5,
                          "left": {"leaf": [1.0, 0.0]},
                          "right": {"leaf": [0.0, 1.0]}}]}
    model = tmp_path / "model.json"
    model.write_text(json.dumps(payload))
    result = tmp_path / "result.json"
    result.write_text(json.dumps({"weights": [1.0], "tau": None}))
    out = tmp_path / "verdict.json"
    assert run_cli("verify", "--model", model, "--result", result,
                   "--out", out) == 0  # the file is well formed as written
    payload[key] = value
    model.write_text(json.dumps(payload))
    assert run_cli("verify", "--model", model, "--result", result,
                   "--out", out) == 1
    err = capsys.readouterr().err
    assert "error: SchemaError" in err and path in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, argv", [
    ("prune", ["--model", "MODEL", "--fit", "FIT", "--label", "label",
               "--full-space", "--out", "OUT"]),
    ("prune", ["--model", "MODEL", "--fit", "FIT", "--cal", "CAL",
               "--label", "label", "--alpha", 0.8, "--out", "OUT"]),
    ("fit-score", ["--model", "MODEL", "--data", "FIT", "--label", "label",
                   "--out", "OUT"]),
    ("sweep", ["--data", "FIT", "--label", "label", "--out", "OUT"]),
], ids=["prune-full-space", "prune-in-distribution", "fit-score", "sweep"])
def test_score_none_is_a_usage_error(pipeline, capsys, command, argv):
    tmp = pipeline["tmp"]
    names = {"OUT": tmp / "out", "FIT": pipeline["fit"],
             "CAL": pipeline["cal"], "MODEL": pipeline["model"]}
    with pytest.raises(SystemExit) as err:
        run_cli(command, *[names.get(a, a) for a in argv], "--score", "none")
    assert err.value.code == 2
    assert "invalid choice: 'none'" in capsys.readouterr().err
    assert not (tmp / "out").exists()


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["prune"])  # missing required flags
    assert err.value.code == 2


def _write_results(tmp, alpha_weights):
    """One prune-result file per (alpha, weights) pair; returns the paths."""
    paths = []
    for i, (alpha, weights) in enumerate(alpha_weights):
        path = tmp / f"result{i}.json"
        path.write_text(json.dumps({"weights": weights,
                                    "config": {"alpha": alpha}}))
        paths.append(path)
    return paths


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_select_alpha_rejects_two_results_at_one_alpha(pipeline, capsys,
                                                       order):
    # the full ensemble and a one-tree weighting, both at alpha 0.2: which
    # one counts must not depend on the order the files are named in
    tmp = pipeline["tmp"]
    paths = _write_results(tmp, [(0.2, [1.0, 1.0, 1.0, 1.0]),
                                 (0.2, [0.0, 0.0, 0.0, 1.0])])
    out = tmp / "sel.json"
    assert run_cli("select-alpha", "--model", pipeline["model"], "--sel",
                   pipeline["test"], "--label", "label", "--results",
                   *[paths[k] for k in order], "--target", 0.5,
                   "--out", out) == 1
    err = capsys.readouterr().err
    assert "SchemaError" in err and "$.config.alpha" in err
    assert str(paths[0]) in err and str(paths[1]) in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("delta", [0, 2])
def test_select_alpha_delta_out_of_range_is_a_domain_error(pipeline, capsys,
                                                           delta):
    tmp = pipeline["tmp"]
    paths = _write_results(tmp, [(0.2, [1.0, 1.0, 1.0, 1.0])])
    out = tmp / "sel.json"
    assert run_cli("select-alpha", "--model", pipeline["model"], "--sel",
                   pipeline["test"], "--label", "label", "--results", *paths,
                   "--target", 0.5, "--selector", "confidence_bound",
                   "--delta", delta, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "delta must be in (0, 1)" in err
    assert "Traceback" not in err
    assert not out.exists()
