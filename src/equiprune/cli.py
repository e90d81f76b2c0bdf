"""Command-line orchestration of the pruning pipeline.

Every run is reproducible from its inputs plus the resolved configuration,
which each JSON output embeds. Exit codes: 0 on success, 1 on a domain
error, 2 on a usage error. The EQUIPRUNE_LOG environment variable sets the
log level.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import logging
import math
import os
import sys
import time

import numpy as np

from . import evaluate as ev
from .conformal import calibrate
from .data import (
    SplitSpec,
    load_csv,
    read_json,
    save_csv,
    split,
    split_indices,
    write_split_manifest,
)
from .ensemble import (
    L0,
    OBJECTIVES,
    check_boosting,
    is_finite_number,
    load_ensemble,
    parse_text_dump,
    save_ensemble,
    threshold_index,
    train_boosted,
)
from .errors import EquipruneError, ParseError, SchemaError
from .plausibility import (
    SCORE_KINDS,
    ChowLiuModel,
    fit_score_model,
    load_score_model,
    save_score_model,
)
from .synth import MoonsSpec, TreeDistSpec, gen_moons, gen_tree_dist
from .verify import check_state_bound, iter_disagreements

log = logging.getLogger("equiprune")


def _write_json(path, payload, config=None):
    if config is not None:
        payload = dict(payload)
        payload["config"] = config
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)


def _resolved(args, keys):
    return {k: getattr(args, k) for k in keys}


def _load_data(path, label):
    return load_csv(path, label_column=label)


def _parse_floats(text, flag):
    """The comma-separated numbers of ``flag``; ValueError naming it."""
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated numbers, got "
                         f"{text!r}") from None


def _parse_ints(text, flag):
    """The comma-separated integers of ``flag``; ValueError naming it."""
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated integers, got "
                         f"{text!r}") from None


def _load_weights(path) -> tuple[dict, np.ndarray, float | None]:
    """A result file, its weights and its ``tau``; ParseError unless it is
    UTF-8 JSON, SchemaError unless ``weights`` is a list of finite numbers
    and ``tau`` (optional) a finite number or null."""
    result = read_json(path)
    if not isinstance(result, dict):
        raise SchemaError(f"must be an object in {path}")
    weights = result.get("weights")
    if not isinstance(weights, list) or not all(map(is_finite_number,
                                                    weights)):
        raise SchemaError(f"must be a list of finite numbers in {path}",
                          "$.weights")
    tau = result.get("tau")
    if not (tau is None or is_finite_number(tau)):
        raise SchemaError(f"must be a finite number or null in {path}",
                          "$.tau")
    return result, np.asarray(weights, dtype=float), tau


def _load_result(path) -> tuple[np.ndarray, float | None, float | None]:
    """A prune result's weights, ``config.alpha`` and ``tau``; SchemaError
    also unless ``config.alpha`` is present, a finite number or null."""
    result, w, tau = _load_weights(path)
    config = result.get("config")
    if not isinstance(config, dict) or "alpha" not in config:
        raise SchemaError(f"missing in {path}", "$.config.alpha")
    if not (config["alpha"] is None or is_finite_number(config["alpha"])):
        raise SchemaError(f"must be a finite number or null in {path}",
                          "$.config.alpha")
    return w, config["alpha"], tau


@contextlib.contextmanager
def _flags_checked():
    """Raise a ValueError from within, a flag out of range or in conflict,
    as a domain error: one ``error:`` line and exit 1, not a traceback."""
    try:
        yield
    except ValueError as err:
        raise EquipruneError(str(err)) from err


def _load_score_model(path, e):
    """A score model file, checked against the ensemble it scores."""
    score = load_score_model(path)
    score.check_ensemble(e)
    return score


# --- subcommand implementations -----------------------------------------


def cmd_synth(args):
    with _flags_checked():
        if args.kind == "moons":
            ds = gen_moons(MoonsSpec(n=args.n, noise=args.noise,
                                     seed=args.seed))
        else:
            ds, _ = gen_tree_dist(TreeDistSpec(
                n=args.n, p=args.p, states=args.states,
                concentration=args.concentration, seed=args.seed))
    save_csv(ds, args.out)
    log.info("wrote %s rows to %s", ds.n_rows, args.out)
    return 0


def cmd_split(args):
    ds = _load_data(args.data, args.label)
    with _flags_checked():
        spec = SplitSpec(ratios=_parse_floats(args.ratios, "--ratios"),
                         seed=args.seed)
    indices = split_indices(ds.n_rows, spec)
    for i, idx in enumerate(indices):
        save_csv(ds.subset(idx), f"{args.out_prefix}{i}.csv")
    if args.manifest:
        write_split_manifest(args.manifest, spec, indices)
    log.info("split %s rows into %s", ds.n_rows,
             [len(ix) for ix in indices])
    return 0


def cmd_train(args):
    ds = _load_data(args.data, args.label)
    with _flags_checked():
        e = train_boosted(ds, n_rounds=args.rounds, max_depth=args.depth,
                          learning_rate=args.learning_rate)
    save_ensemble(e, args.out)
    log.info("trained %d trees on %d rows", e.n_trees, ds.n_rows)
    return 0


def cmd_fit_score(args):
    e = load_ensemble(args.model)
    ds = _load_data(args.data, args.label)
    with _flags_checked():
        model = fit_score_model(args.score_kind, e, ds, bins=args.bins,
                                beta=args.beta, if_trees=args.if_trees,
                                if_max_samples=args.if_max_samples,
                                seed=args.seed)
    save_score_model(model, args.out)
    return 0


def cmd_calibrate(args):
    e = load_ensemble(args.model)
    score = _load_score_model(args.score_model, e)
    ds = _load_data(args.data, args.label)
    result = calibrate(score.scores(e, ds.rows), args.alpha)
    _write_json(args.out, result.to_json(),
                config=_resolved(args, ["model", "score_model", "data",
                                        "alpha"]))
    return 0


# the score-fit flags' PruneConfig fields
_SCORE_FIT = ("score_kind", "bins", "beta", "if_trees", "if_max_samples")


def _prune_config(args):
    """The run's config; an omitted score-fit flag takes PruneConfig's
    default. A full-space run fits no score model and reads no calibration
    set, so it refuses ``--cal`` and every score-fit flag."""
    from .loop import PruneConfig
    given = {f: getattr(args, f) for f in _SCORE_FIT
             if getattr(args, f) is not None}
    cfg = PruneConfig(
        alpha=args.alpha,
        full_space=args.full_space,
        objective=args.objective,
        eps_margin=args.eps_margin,
        time_limit_s=args.time_limit,
        node_limit=args.node_limit,
        max_iterations=args.max_iterations,
        seed=args.seed,
        **given,
    )
    stray = ["--cal"] * (args.cal is not None) + [
        "--score" if f == "score_kind" else "--" + f.replace("_", "-")
        for f in given]
    if cfg.full_space and stray:
        raise ValueError("--full-space fits no score model; it takes no " +
                         ", ".join(stray))
    return cfg


def cmd_prune(args):
    with _flags_checked():
        cfg = _prune_config(args)
    from .loop import run, save_result
    e = load_ensemble(args.model)
    fit = _load_data(args.fit, args.label)
    cal = _load_data(args.cal, args.label) if args.cal else None
    result = run(e, fit, cal, cfg, dump_dir=args.oracle_dump)
    save_result(result, args.out)
    log.info("kept %d/%d trees (%s, certified=%s)", result.support_size,
             e.n_trees, result.guarantee_scope, result.certified)
    return 0


def cmd_evaluate(args):
    e = load_ensemble(args.model)
    w, _, tau = _load_result(args.result)
    if args.score_model and tau is None:
        # a full-space result carries no tau, so its region has no bound
        raise EquipruneError("--score-model needs a result with a tau")
    test = _load_data(args.test, args.label)
    region = None
    if args.score_model:
        region = (_load_score_model(args.score_model, e), float(tau))
    report = ev.evaluate(e, e.weights0, w, test, region=region)
    _write_json(args.out, report.to_json(),
                config=_resolved(args, ["model", "result", "test",
                                        "score_model"]))
    return 0


def cmd_select_alpha(args):
    e = load_ensemble(args.model)
    sel = _load_data(args.sel, args.label)
    mismatches, sources = {}, {}
    for path in args.results:
        w, alpha, _ = _load_result(path)
        if alpha is None:
            raise EquipruneError(f"{path}: not an in-distribution result")
        alpha = float(alpha)
        if alpha in sources:
            raise SchemaError(f"alpha {alpha} in both {sources[alpha]} and "
                              f"{path}", "$.config.alpha")
        sources[alpha] = path
        mismatches[alpha] = ev.count_mismatches(e, e.weights0, w, sel)
    with _flags_checked():
        selection = ev.select_alpha(mismatches, n=sel.n_rows,
                                    rho_star=args.target, kind=args.selector,
                                    delta=args.delta)
    _write_json(args.out, selection.to_json(),
                config=_resolved(args, ["model", "sel", "results", "target",
                                        "selector", "delta"]))
    print("fallback" if selection.fallback else f"alpha={selection.chosen}")
    return 0


def cmd_verify(args):
    if args.tau is not None and not math.isfinite(args.tau):
        raise EquipruneError(f"--tau must be finite, got {args.tau}")
    if args.tau is not None and not args.score_model:
        raise EquipruneError("--tau needs --score-model")
    if args.max_report < 0:
        raise EquipruneError(
            f"--max-report must be >= 0, got {args.max_report}")
    if args.cap < 1:
        raise EquipruneError(f"--cap must be >= 1, got {args.cap}")
    e = load_ensemble(args.model)
    _, w, result_tau = _load_weights(args.result)
    tau = args.tau if args.tau is not None else result_tau
    if args.score_model and tau is None:
        # a full-space result carries no tau: a region needs one given
        raise EquipruneError("--score-model needs --tau or a result with "
                             "a tau")
    score = region = None
    if args.score_model:
        score = _load_score_model(args.score_model, e)
        region = (score, float(tau))
    extra = score.extra_thresholds() if score is not None else None
    n_cells = threshold_index(e, extra=extra).n_cells()
    start = time.monotonic()
    n_disagreements = 0
    reported = []
    for d in iter_disagreements(e, e.weights0, w, region=region, cap=args.cap):
        n_disagreements += 1
        if len(reported) < args.max_report:
            reported.append({"x": list(d.x), "original_class": d.original_class,
                             "pruned_class": d.pruned_class, "score": d.score})
    seconds = time.monotonic() - start
    log.info("verified %d cells in %.3f s (%.0f cells/s)", n_cells, seconds,
             n_cells / seconds if seconds > 0 else math.inf)
    payload = {
        "n_cells": n_cells,
        "seconds": seconds,
        "n_disagreements": n_disagreements,
        "disagreements": reported,
        "equivalent": n_disagreements == 0,
    }
    if isinstance(score, ChowLiuModel):
        bound = check_state_bound(score, float(tau))
        payload["state_bound"] = {"count": bound.count, "bound": bound.bound,
                                  "holds": bound.holds}
    _write_json(args.out, payload,
                config=_resolved(args, ["model", "result", "score_model",
                                        "tau", "cap"]))
    print("equivalent" if payload["equivalent"]
          else f"{n_disagreements} disagreeing cells")
    return 0 if payload["equivalent"] else 1


def _sweep_job(ds, seed, ratios, configs, args):
    """The report rows of one seed: the full-space run, then one in-
    distribution run per alpha, each by its config of ``configs``."""
    from .loop import run, run_full_space
    fit, cal, test = split(ds, SplitSpec(ratios=ratios, seed=seed))
    e = train_boosted(fit, n_rounds=args.rounds, max_depth=args.depth,
                      learning_rate=args.learning_rate)
    full, *in_distribution = configs
    rows = []
    fs = run_full_space(e, fit, full)
    rep = ev.evaluate(e, e.weights0, fs.weights, test)
    rows.append(ev.report_row(args.data, seed, "full_space", None, rep,
                              fs.certified, fs.guarantee_scope,
                              fs.total_time_s, fs.iterations))
    score = fit_score_model(args.score_kind, e, fit, bins=args.bins,
                            beta=args.beta, if_trees=args.if_trees,
                            if_max_samples=args.if_max_samples, seed=seed)
    for cfg in in_distribution:
        res = run(e, fit, cal, cfg, score=score)
        region = (score, res.tau) if math.isfinite(res.tau) else None
        rep = ev.evaluate(e, e.weights0, res.weights, test, region=region)
        rows.append(ev.report_row(args.data, seed, "in_distribution",
                                  cfg.alpha, rep, res.certified,
                                  res.guarantee_scope, res.total_time_s,
                                  res.iterations))
    return rows


def _sweep_configs(seed, alphas, args):
    """The configs of one seed's runs: full space, then one per alpha."""
    from .loop import PruneConfig
    return [PruneConfig(full_space=True, time_limit_s=args.time_limit,
                        objective=args.objective, seed=seed)] + [
        PruneConfig(alpha=alpha, score_kind=args.score_kind,
                    objective=args.objective, time_limit_s=args.time_limit,
                    bins=args.bins, beta=args.beta, if_trees=args.if_trees,
                    if_max_samples=args.if_max_samples, seed=seed)
        for alpha in alphas]


def cmd_sweep(args):
    ds = _load_data(args.data, args.label)
    # the training flags are checked and every run's config built before
    # the first job, so a ValueError from within a job is raised as it is
    with _flags_checked():
        alphas = _parse_floats(args.alphas, "--alphas")
        ratios = SplitSpec(ratios=_parse_floats(args.ratios,
                                                "--ratios")).ratios
        if len(ratios) != 3:
            raise ValueError("--ratios must have 3 parts (fit, calibration, "
                             f"test), got {len(ratios)}")
        check_boosting(args.rounds, args.depth, args.learning_rate)
        jobs = [(seed, _sweep_configs(seed, alphas, args))
                for seed in _parse_ints(args.seeds, "--seeds")]
    all_rows = []
    for seed, configs in jobs:
        all_rows.extend(_sweep_job(ds, seed, ratios, configs, args))
    new_file = not os.path.exists(args.out)
    with open(args.out, "a", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=ev.REPORT_COLUMNS)
        if new_file:
            writer.writeheader()
        for row in all_rows:
            writer.writerow(row)
    log.info("appended %d rows to %s", len(all_rows), args.out)
    return 0


def cmd_convert(args):
    try:
        with open(args.dump, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as err:
        raise ParseError(f"{args.dump}: not UTF-8 text: {err}") from err
    with _flags_checked():
        e = parse_text_dump(text, n_classes=args.classes,
                            n_features=args.features)
    save_ensemble(e, args.out)
    return 0


# --- argument wiring --------------------------------------------------------


def _add_data_args(p, label_required=False):
    p.add_argument("--label", default=None, required=label_required,
                   help="label column name")


def _add_score_args(p):
    p.add_argument("--score", dest="score_kind", default="chowliu",
                   choices=SCORE_KINDS)
    p.add_argument("--bins", type=int, default=4)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--if-trees", type=int, default=30)
    p.add_argument("--if-max-samples", type=int, default=256)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="equiprune",
        description="Prune tree ensembles with certified prediction "
                    "equivalence on a calibrated in-distribution region.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--kind", choices=["moons", "treedist"], default="moons")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--noise", type=float, default=0.2)
    p.add_argument("--p", type=int, default=3)
    p.add_argument("--states", type=int, default=2)
    p.add_argument("--concentration", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("split", help="seeded dataset split")
    p.add_argument("--data", required=True)
    _add_data_args(p)
    p.add_argument("--ratios", default="0.64,0.16,0.20")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--manifest", default=None)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="train a boosted ensemble")
    p.add_argument("--data", required=True)
    _add_data_args(p, label_required=True)
    p.add_argument("--rounds", type=int, default=30)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--learning-rate", type=float, default=0.3)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("fit-score", help="fit a plausibility score model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    _add_data_args(p)
    _add_score_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit_score)

    p = sub.add_parser("calibrate", help="split-conformal threshold")
    p.add_argument("--model", required=True)
    p.add_argument("--score-model", required=True)
    p.add_argument("--data", required=True)
    _add_data_args(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("prune", help="run the pruning loop")
    p.add_argument("--model", required=True)
    p.add_argument("--fit", required=True)
    p.add_argument("--cal", default=None)
    _add_data_args(p)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--full-space", action="store_true")
    _add_score_args(p)
    p.set_defaults(**dict.fromkeys(_SCORE_FIT))  # given only in distribution
    p.add_argument("--objective", choices=OBJECTIVES, default=L0)
    p.add_argument("--eps-margin", type=float, default=None)
    p.add_argument("--time-limit", type=float, default=120.0)
    p.add_argument("--node-limit", type=int, default=None,
                   help="branch-and-bound nodes per MILP solve")
    p.add_argument("--max-iterations", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--oracle-dump", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("evaluate", help="test-set metrics for a result")
    p.add_argument("--model", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--test", required=True)
    _add_data_args(p)
    p.add_argument("--score-model", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("select-alpha", help="post-hoc miscoverage selection")
    p.add_argument("--model", required=True)
    p.add_argument("--sel", required=True, help="selection split CSV")
    _add_data_args(p)
    p.add_argument("--results", nargs="+", required=True)
    p.add_argument("--target", type=float, required=True)
    p.add_argument("--selector", choices=[ev.EMPIRICAL, ev.CONFIDENCE_BOUND],
                   default=ev.EMPIRICAL)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_select_alpha)

    p = sub.add_parser("verify", help="exhaustive equivalence check")
    p.add_argument("--model", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--score-model", default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--cap", type=int, default=10_000_000)
    p.add_argument("--max-report", type=int, default=100)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="seeds x alphas experiment grid")
    p.add_argument("--data", required=True)
    _add_data_args(p, label_required=True)
    p.add_argument("--ratios", default="0.64,0.16,0.20")
    p.add_argument("--seeds", default="0,1,2,3,4")
    p.add_argument("--alphas", default="0.05,0.1,0.2,0.4,0.6,0.8")
    p.add_argument("--rounds", type=int, default=30)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--learning-rate", type=float, default=0.3)
    _add_score_args(p)
    p.add_argument("--objective", choices=OBJECTIVES, default=L0)
    p.add_argument("--time-limit", type=float, default=120.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("convert", help="import a text tree dump")
    p.add_argument("--dump", required=True)
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--features", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_convert)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("EQUIPRUNE_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (EquipruneError, OSError) as err:
        # OSError: an input file missing or unreadable, an output not
        # writable
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
