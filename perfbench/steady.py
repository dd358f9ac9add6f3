"""Steadiness of the benchmark: repeated runs, spread against bounds.

    python3 perfbench/steady.py --runs 10 [--workloads native-frag,virt-sim]
                                [--seconds 30] [--seed 100]
                                [--out FILE]

Runs every workload ``--runs`` times, alternating the workload order
from one pass to the next, each run with its own seed (``--seed``,
``--seed`` + 1, ...).  Then prints, per workload and metric, the median,
the first and third quartile (``statistics.quantiles(n=4)``) and the
spread (q3 - q1) / median against the metric's bound in
BENCHMARK.json.  ``--out`` also saves every run's result as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results: dict[str, list[dict]], bounds: dict[str, float]) -> None:
    for workload, runs in results.items():
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"\n{workload}: {len(runs)} runs, correct "
              f"{all(r['correct'] for r in runs)}, failed share(s) "
              f"{sorted(shares)}")
        print(f"  {'metric':32} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None or spread <= bound / 3 else (
                "  <- above bound/3" if spread <= bound else "  <- ABOVE BOUND")
            print(f"  {name:32} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.2%} {'' if bound is None else bound:>6}{flag}")


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 (quartiles need two values)")
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results: dict[str, list[dict]] = {w: [] for w in workloads}
    for i in range(args.runs):
        for workload in (workloads if i % 2 == 0 else workloads[::-1]):
            started = time.monotonic()
            result = run_once(workload, args.seed + i, args.seconds)
            results[workload].append(result)
            print(f"{workload} seed {args.seed + i} "
                  f"({time.monotonic() - started:.1f} s): " + json.dumps(
                {k: round(v["value"], 6) for k, v in result["metrics"].items()}
            ), file=sys.stderr, flush=True)
    summarize(results, bounds)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
