"""Steadiness check: run each workload N times and print the spread.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --runs 10 [--workloads store_bulk,cube_live] [--seed 100]

Each run is a separate ``perfbench/run.py`` process with its own seed
(``seed, seed+1, ...``) and the ``run_seconds`` of ``BENCHMARK.json``.
For every end-to-end metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread — the
distance between the quartiles as a share of the median — against the
metric's bound; the share of failed operations must be the same in
every run.  Exits 1 if a run fails its checks, the failed share
differs, or a spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, os.path.join("perfbench", "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values) -> tuple:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--workloads", default=",".join(w["name"] for w in spec["workloads"])
    )
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            results.append(run_once(workload, args.seed + i, spec["run_seconds"]))
            print(f"# {workload} seed {args.seed + i} done", file=sys.stderr, flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"{workload}: runs={len(results)} correct={correct} failed_share={sorted(shares)}")
        ok &= correct and len(shares) == 1
        print(f"  {'metric':<18}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            median, q1, q3, share = spread(values)
            flag = "" if share <= bound / 3 else (" !" if share <= bound else " FAIL")
            ok &= share <= bound
            print(f"  {name:<18}{median:>14.6g}{q1:>14.6g}{q3:>14.6g}{share:>9.4f}{bound:>7.2f}{flag}")
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
