"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload native-frag --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The workload is set up, then whole
rounds of its fixed operation mix run until ``--seconds`` is used up.
Every round's outputs are checked.  The last line of standard output
is ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Times are host seconds scaled to a reference speed (``clock.py``).
A traced run alternates untraced and traced rounds, so its tracing
overhead is measured in the same process.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout: run caches, server logs, spans.
OUT = ROOT / ".perfbench"

#: numpy/BLAS thread pools run one thread, like the rest of the process.
THREAD_ENV = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}

#: Fewest rounds in a run unless the workload asks for more
#: (``Bench.min_rounds``), so each operation's median time is taken
#: over at least this many tries.
MIN_ROUNDS = 4
#: Set-ups in an untraced run unless the workload module names fewer
#: (``SETUPS``): the run's own and repeats in fresh processes, spread
#: over the run; setup_s is their median.
SETUPS = 7

#: The end-to-end metrics every workload prints; a workload's other
#: figures go to standard error, unscored.
END_TO_END = ("wall_s", "work_per_s", "setup_s", "peak_rss_mb")

WORKLOADS = {
    "native-frag": "native_frag",
    "virt-sim": "virt_sim",
    "serve-warm": "serve_warm",
}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up seconds, and exit")
    return parser.parse_args(argv)


def setup_probe(args: argparse.Namespace) -> float:
    """Set the workload up once more, in a fresh process; its seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=150, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_phase(bench, clock, seconds: float, trace: bool, probe=None,
                n_probes: int = 0
                ) -> tuple[int, int, int, list[float], float]:
    """Run whole rounds until ``seconds`` of rounds are (about) done.

    ``clock`` (a ``RefClock``) is handed to every round, which scales
    its operation times by it.
    Another round starts while fewer than the minimum have run or at
    least half a mean round of time is left, so the rounds last
    ``seconds`` give or take half a round (longer when rounds are long).
    Traced runs alternate untraced and traced rounds, untraced first.
    ``probe()``, when given, runs between rounds at evenly spaced
    points, ``n_probes`` times; its time is not round time.
    The peak RSS of the working process is read when the minimum number
    of rounds is done, so it covers the same work in every run however
    many rounds follow.
    Returns ``(rounds, attempted, failed, probe results, peak RSS MB)``.
    """
    min_rounds = getattr(bench, "min_rounds", MIN_ROUNDS)
    peak_rss_mb = getattr(bench, "peak_rss_mb", own_peak_rss_mb)
    rss = 0.0
    attempted = failed = 0
    elapsed = 0.0
    rounds = 0
    probes: list[float] = []
    while True:
        t0 = time.perf_counter()
        a, f = bench.round(trace and rounds % 2 == 1, clock)
        elapsed += time.perf_counter() - t0
        attempted += a
        failed += f
        rounds += 1
        if rounds == min_rounds:
            rss = peak_rss_mb()
        done = rounds >= min_rounds and (
            elapsed + elapsed / rounds / 2 >= seconds)
        while probe is not None and len(probes) < n_probes and (
                done or elapsed >= (len(probes) + 1) * seconds
                / (n_probes + 1)):
            probes.append(probe())
        if done:
            return rounds, attempted, failed, probes, rss


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    # One CPU for this process and every process it starts (they inherit
    # the mask): the serve-warm client and server then hand each request
    # over on one CPU instead of waking an idle one, which on a virtual
    # machine added milliseconds to the tail.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.environ.pop("REPRO_CACHE_DIR", None)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))

    import importlib

    from perfbench import layers
    from perfbench.clock import RefClock

    module = importlib.import_module(f"perfbench.{WORKLOADS[args.workload]}")
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    bench = None
    try:
        bench = module.Bench(seed=args.seed, workdir=workdir,
                             trace=bool(args.trace))
        setup_host_s = time.perf_counter() - T_START
        clock = RefClock()
        setup_s = clock.scale(setup_host_s)[0]
        if args.setup_only:
            print(setup_s)
            return 0
        t_rounds = time.perf_counter()
        rounds, attempted, failed, probes, rss = timed_phase(
            bench, clock, args.seconds, bool(args.trace),
            None if args.trace else lambda: setup_probe(args),
            getattr(module, "SETUPS", SETUPS) - 1,
        )
        t_checks = time.perf_counter()
        metrics = {} if args.trace else bench.metrics()
        problems = bench.finish()
        if args.trace:
            metrics = layers.metrics(bench.layer_totals(), rounds // 2)
            metrics["trace.wall_s"] = (bench.wall(True), "s")
            metrics["trace.overhead_s"] = (bench.wall(True) - bench.wall(False),
                                           "s")
            bench.tracer.dump(str(OUT / f"spans-{args.workload}-"
                                        f"seed{args.seed}.json"))
        else:
            metrics["setup_s"] = (statistics.median([setup_s] + probes), "s")
            metrics["peak_rss_mb"] = (rss, "MB")
            for name in sorted(set(metrics) - set(END_TO_END)):
                value, unit = metrics.pop(name)
                print(f"perfbench: {name} = {value:.6g} {unit} (not scored)",
                      file=sys.stderr)
    finally:
        if bench is not None:
            bench.close()
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"perfbench: {args.workload} ran {rounds} rounds; set-up "
          f"{setup_host_s:.1f} s, rounds and set-up repeats "
          f"{t_checks - t_rounds:.1f} s, checks and close "
          f"{time.perf_counter() - t_checks:.1f} s", file=sys.stderr)
    for problem in problems:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(metrics.items())
        },
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
