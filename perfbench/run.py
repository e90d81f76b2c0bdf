"""Run one equiprune benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fullspace-l0 --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout; equiprune is imported from ./src. One
caller makes the prune calls one at a time (a closed loop). The run repeats
the workload's pass (its prune calls, then one verifier batch) for 90% of
--seconds. After each pass, and after the last one until --seconds are up,
an untraced run also times the set-up in a fresh process and repeats the
verifier batch. Every result is checked against the pinned reference and by
the exhaustive verifier.

The end-to-end times are medians of wall times scaled to a reference host
speed, because the speed of a shared host moves by up to 2x in phases as
long as a run. While an untraced run measures, a fixed task (hostspeed.py)
samples the host every 0.35 s and after each repeated verifier batch. Each
timed piece of work loses the time of the samples that interrupted it and is
scaled by the samples during and next to it: prune passes and set-ups by
the task's solver part, verifier batches by its NumPy part. The wall
medians are printed beside them. Traced runs take no samples.

The last output line is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end ones; with
--trace 1 they are per-layer figures from traced passes, which alternate
with untraced ones so the tracing overhead can be reported.
``--workload all`` runs every workload in its own process, one after another.
"""

import os
import sys
import time

START = time.perf_counter()
# One BLAS thread: the machine has few cores and runs one workload at a time.
# Must be set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from contextlib import nullcontext  # noqa: E402

from hostspeed import REFERENCE_S, Sampler  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
# No prune pass starts unless it would end within this share of --seconds.
PRUNE_SHARE = 0.9
# After each untraced pass, the verifier batch is repeated for this share of
# the pass's time, so that verifier readings spread over the whole run.
VERIFY_SHARE = 0.1
# Set-ups timed per untraced run: this process's own and fresh processes'
# (about 1.2 s each). Most of a set-up is the one-time import, which only a
# new process repeats.
SETUP_RUNS = 3


def parse_args(workloads, argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=tuple(workloads) + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="print this process's set-up seconds and exit "
                         "(the benchmark runs itself this way to time set-up)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    if args.setup_only and args.workload == "all":
        ap.error("--setup-only needs a single workload")
    return args


def load_bench():
    """Import the benchmark and equiprune from this checkout's sources."""
    if not os.path.isfile(os.path.join(SRC, "equiprune", "__init__.py")):
        sys.exit(f"error: equiprune sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import bench
    import equiprune

    if not os.path.abspath(equiprune.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported equiprune from {equiprune.__file__}, "
                 f"not from {SRC}")
    return bench


def environment() -> str:
    import numpy
    import scipy
    from equiprune import milp

    lp = "scipy _highspy binding" if milp._highs_core is not None else "linprog fallback"
    return (f"nproc={len(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__} lp={lp!r}")


def set_up(bench, args):
    """The workload's inputs, their build trace and the seconds since START.

    Those seconds are the set-up time: from the start of this process,
    imports included, to the moment the first prune call can be made.
    """
    tracer = bench.Tracer()
    inst = bench.build(bench.WORKLOADS[args.workload], args.seed, tracer)
    return inst, tracer, time.perf_counter() - START


def fresh_setup(args, sampler) -> tuple[float, float]:
    """The set-up seconds of a new process that only sets up, as measured
    and scaled to the reference speed by the samples just before and after
    it."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--setup-only"]
    with sampler.paused():
        start = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=True)
        end = time.perf_counter()
    setup_s = float(proc.stdout.split()[-1])
    return setup_s, setup_s * sampler.scale(start, end, "solver")


def summary(name: str, scaled, wall, what: str) -> str:
    return (f"{name} {statistics.median(scaled):.4f} s (median of {len(scaled)} "
            f"{what} at reference host speed, range {min(scaled):.4f}-"
            f"{max(scaled):.4f}; wall median {statistics.median(wall):.4f})")


def spans(tracer, name: str) -> list:
    return [s for s in tracer.spans if s.name == name]


def run_workload(bench, args) -> dict:
    inst, build_tracer, own_setup_s = set_up(bench, args)
    setup_end = time.perf_counter()
    w = bench.WORKLOADS[args.workload]
    print(f"workload {w.name} seed {args.seed}: closed loop, 1 caller, "
          f"{len(w.calls)} prune call(s) per pass")
    print(f"env {environment()}")

    plain, traced = [], []
    # Untraced runs only: the host-speed samples, fresh set-ups (already
    # scaled) and the verifier batches repeated after each pass.
    sampler = None if args.trace else Sampler()
    fresh_setups, repeats = [], bench.Tracer()

    def time_again(out, seconds=None):
        """An untraced run's extra timings: a fresh set-up, then verifier
        batches for ``seconds``, or until the deadline."""
        if len(fresh_setups) < SETUP_RUNS - 1:
            fresh_setups.append(fresh_setup(args, sampler))
        if not out.certified:
            return
        until = deadline if seconds is None else time.perf_counter() + seconds
        estimate = max(out.durations("verify.batch"))
        sampler.sample()
        while time.perf_counter() + estimate <= until:
            t0 = time.perf_counter()
            bench.verify_batch(inst, out.certified, repeats)
            estimate = time.perf_counter() - t0
            sampler.sample()  # most batches are far shorter than the timer

    start = time.perf_counter()
    deadline = start + args.seconds
    prune_until = deadline if args.trace else start + PRUNE_SHARE * args.seconds
    with nullcontext() if args.trace else sampler.running():
        while True:
            t0 = time.perf_counter()
            trace_this = bool(args.trace) and len(plain) > len(traced)
            out = bench.run_pass(w, inst, traced=trace_this)
            (traced if trace_this else plain).append(out)
            pass_s = time.perf_counter() - t0
            if not args.trace:
                time_again(out, VERIFY_SHARE * pass_s)
            if ((traced or not args.trace)
                    and time.perf_counter() + pass_s > prune_until):
                break
        if not args.trace:
            while len(fresh_setups) < SETUP_RUNS - 1:
                time_again(plain[-1], 0.0)
            time_again(plain[-1])

    passes = plain + traced
    for p in passes:
        for problem in p.problems:
            print(f"FAILED {problem}", file=sys.stderr)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        layers = [bench.layer_metrics(p) for p in traced]
        values = {k: bench.median([m[k] for m in layers]) for k in layers[0]}
        values.update(bench.setup_metrics(inst, build_tracer))
        untraced = values["trace.untraced_prune_s"] = bench.median(
            [p.total("prune") for p in plain])
        values["trace.overhead_s"] = values["trace.prune_s"] - untraced
        units = bench.PER_LAYER
        print(f"traced passes {len(traced)}, untraced passes {len(plain)}; "
              f"per-layer times are wall seconds")
        for k, unit in {**units, **bench.CONTEXT}.items():
            print(f"{k} {values[k]:.6g} {unit}")
    else:
        batches = ([s for p in plain for s in spans(p.tracer, "verify.batch")]
                   + spans(repeats, "verify.batch"))
        timings = {
            "setup_s": (
                [own_setup_s * sampler.scale(START, setup_end, "solver")]
                + [scaled for _, scaled in fresh_setups],
                [own_setup_s] + [wall for wall, _ in fresh_setups],
                "set-ups, 1 in this process and the rest in fresh ones,"),
            "prune_s": (
                [sum(sampler.scaled(s.start, s.end, "solver")
                     for s in spans(p.tracer, "prune")) for p in plain],
                [p.total("prune") for p in plain], "passes"),
            "verify_s": (
                [sampler.scaled(s.start, s.end, "numpy") for s in batches],
                [s.duration for s in batches], "verifier batches"),
        }
        values = {"peak_rss_mb": peak_rss_mb}
        for name, (scaled, wall, what) in timings.items():
            values[name] = statistics.median(scaled)
            print(summary(name, scaled, wall, what))
        print(f"peak_rss_mb {peak_rss_mb:.1f} MB (whole process)")
        for part, times in sampler.part_times.items():
            print(f"host speed: reference task part {part!r} median "
                  f"{statistics.median(times) * 1e3:.2f} ms over "
                  f"{len(times)} samples (reference "
                  f"{REFERENCE_S[part] * 1e3:.2f} ms)")
        units = bench.END_TO_END
    print(f"fail_rate {failed / attempted:.4g} ({failed} failed of "
          f"{attempted} operations)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": values[k], "unit": units[k]}
                        for k in units}}


def run_all(bench, args) -> dict:
    """Each workload in a fresh process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in bench.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    return combined


def main(argv=None) -> int:
    bench = load_bench()
    args = parse_args(bench.WORKLOADS, argv)
    if args.setup_only:
        print(set_up(bench, args)[2])
        return 0
    run = run_all if args.workload == "all" else run_workload
    result = run(bench, args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
