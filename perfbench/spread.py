"""Run one workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload search-l1 --seeds 0-9 --seconds 30

The spread of a metric is the distance between the first and third quartile
of its per-run values (``statistics.quantiles(values, n=4)``), as a share of
their median. It is printed next to the metric's bound from BENCHMARK.json.
Runs are made one after another from the current directory.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_range(text: str) -> range:
    lo, hi = text.split("-")
    return range(int(lo), int(hi) + 1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("0-9"),
                    help="an inclusive range such as 0-9")
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    values: dict[str, list[float]] = {}
    failed = 0
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds",
               str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed += result["failed"]
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: " + " ".join(f"{k}={v:.4g}" for k, v in row.items()),
              flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)
    print(f"failed operations over all runs: {failed}")
    for k, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            share = (q3 - q1) / med if med else float("nan")
        else:
            share = float("nan")
        print(f"{k}: median {med:.6g}, quartile spread {share:.4f} of median, "
              f"bound {bounds[k]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
