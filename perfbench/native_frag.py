"""native-frag: fig 8's hog sweep on fragmented single-node machines.

One round runs every cell of a fixed slice of the sweep, each on a
fresh aged machine: all six contiguity policies x {svm at hog pressure
50%, pagerank at 25%, hashjoin at 50%}.  svm and pagerank read input
files through the page cache; hashjoin is anonymous memory only (and
the most bloated under eager paging).  A workload runs at one pressure
only, and pagerank at the lower one (at 50% its six cells took as long
as all the others together), so that a round is short and each cell
gets many tries in a run.  The work is the kernel fault
path, page-cache readahead, placement, the async daemons and
contiguity sampling; no TLB simulation and no run cache.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from pathlib import Path

from repro.experiments import common
from repro.sim.config import ScaleProfile
from repro.sim.runner import RunOptions
from repro.units import MIB
from repro.workloads import make_workload

from perfbench import checks, layers
from perfbench.clock import RefClock
from perfbench.spans import Tracer

#: A quarter of the quick scale (1 MiB per paper GB): one 256 MiB node,
#: so a run fits several rounds of all 18 cells.  Smaller machines run
#: out of memory under eager paging at 50% hog.
SCALE = ScaleProfile(name="perfbench-native", bytes_per_paper_gb=MIB)
#: ``(workload, hog pressure)`` pairs, each run under every policy.
PAIRS = (("svm", 0.50), ("pagerank", 0.25), ("hashjoin", 0.50))
WORKLOADS = ("svm", "pagerank", "hashjoin")
#: fig 8's sampling interval.
OPTIONS = RunOptions(sample_every=32)


class Bench:
    """Set-up, rounds, checks and metrics of native-frag."""

    def __init__(self, seed: int, workdir: Path, trace: bool):
        self.seed = seed
        self.node_pages = (sum(SCALE.node_pages()),)
        self.cells = [
            (pressure, policy, name)
            for name, pressure in PAIRS
            for policy in common.CONTIGUITY_POLICIES
        ]
        self.expected_touched = {}
        pages = {}
        for name in WORKLOADS:
            wl = make_workload(name, SCALE, seed=seed)
            touched = checks.plan_touched_pages(wl.vma_plans)
            self.expected_touched[name] = touched
            pages[name] = touched + sum(f.n_pages for f in wl.file_plans)
        self.pages_per_round = sum(pages[name] for _, _, name in self.cells)
        self.problems: list[str] = []
        self.tracer = Tracer() if trace else None
        #: Reference-scaled seconds of each cell in every round, by
        #: traced-ness.
        self.cell_times = {False: defaultdict(list), True: defaultdict(list)}

    def round(self, traced: bool, clock: RefClock) -> tuple[int, int]:
        """Run every cell once; returns ``(attempted, failed)``."""
        if traced:
            self.tracer.install(layers.entry_points())
        results = {}
        clock.restart()
        try:
            for key in self.cells:
                pressure, policy, name = key
                t0 = time.perf_counter()
                results[key] = common.run_cell_native(
                    workload=name, policy=policy, scale=SCALE, seed=self.seed,
                    options=OPTIONS, hog=pressure, node_pages=self.node_pages,
                )
                seconds = time.perf_counter() - t0
                self.cell_times[traced][key] += clock.scale(seconds)
        finally:
            if traced:
                self.tracer.uninstall()
        self._check(results)
        return len(self.cells), 0

    def _check(self, results: dict) -> None:
        touched = defaultdict(dict)
        for (pressure, policy, name), r in results.items():
            label = f"{name}/{policy}/hog{pressure}"
            self.problems += checks.check_native_run(
                label, r, self.expected_touched[name]
            )
            touched[(name, pressure)][policy] = r.touched_pages
        self.problems += checks.check_policies_agree(touched)

    def finish(self) -> list[str]:
        return self.problems

    def wall(self, traced: bool) -> float:
        """Seconds of one round: each cell's median in this run, summed."""
        return sum(statistics.median(t)
                   for t in self.cell_times[traced].values())

    def metrics(self) -> dict[str, tuple[float, str]]:
        wall_s = self.wall(False)
        return {
            "wall_s": (wall_s, "s"),
            "work_per_s": (self.pages_per_round / wall_s, "1/s"),
        }

    def layer_totals(self) -> tuple:
        return self.tracer.totals()

    def close(self) -> None:
        pass
