"""virt-sim: fig 13's two aging-VM chains, stage by stage.

One round runs both chains through a fresh ``Executor(jobs=1)`` with
no run cache, so every stage after the first resumes its predecessor's
checkpoint and writes its own.  THP+THP is replayed at THP and at 4K
TLB granularity; CA+CA feeds every translation scheme.  The chain is
svm (reads an input file, so the guest page-cache read and
``drop_caches`` paths run) then hashjoin (anonymous, random probes).
Traces are long enough that TLB and scheme simulation is the largest
share of a round.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from pathlib import Path

from repro.experiments import common
from repro.hw.mmu_sim import MmuSimulator
from repro.hw.translation import TranslationView
from repro.sim import jobs
from repro.sim.config import QUICK_SCALE, HardwareConfig
from repro.sim.runner import RunOptions, run_virtualized
from repro.workloads import make_workload

from perfbench import checks, layers
from perfbench.clock import RefClock
from perfbench.spans import Tracer

SCALE = QUICK_SCALE
WORKLOADS = ("svm", "hashjoin")
TRACE_LEN = 500_000
HW = HardwareConfig()
#: Accesses of the one replay checked against the per-access LRU model.
ORACLE_TRACE_LEN = 100_000


class Bench:
    """Set-up, rounds, checks and metrics of virt-sim."""

    def __init__(self, seed: int, workdir: Path, trace: bool):
        self.seed = seed
        self.thp = common.virt_sim_stage_cells(
            host_policy="thp", guest_policy="thp", workloads=WORKLOADS,
            scale=SCALE, hw=HW, trace_len=TRACE_LEN, force_4k=(False, True),
        )
        self.ca = common.virt_sim_stage_cells(
            host_policy="ca", guest_policy="ca", workloads=WORKLOADS,
            scale=SCALE, hw=HW, trace_len=TRACE_LEN,
        )
        self.cells = self.thp + self.ca
        self.accesses_per_round = TRACE_LEN * (2 + 1) * len(WORKLOADS)
        self.checkpoint_bytes = 0
        self.stages = None
        self.problems: list[str] = []
        self.tracer = Tracer() if trace else None
        #: Reference-scaled seconds of each stage cell in every round,
        #: by traced-ness.
        self.cell_times = {False: defaultdict(list), True: defaultdict(list)}

    def round(self, traced: bool, clock: RefClock) -> tuple[int, int]:
        """Run both chains once; returns ``(attempted, failed)``."""
        if traced:
            self.tracer.install(layers.entry_points())
        clock.restart()
        seconds: list[float] = []
        last = [time.perf_counter()]

        def on_cell(event: str, cell) -> None:
            # The executor reports each cell as it completes (serially,
            # in the same order every round): time it from the last
            # report.  Untraced rounds take the reference here, before
            # the next cell starts; traced rounds only around the whole
            # round, or the executor's traced self time would hold it.
            seconds.append(time.perf_counter() - last[0])
            if not traced:
                seconds[-1:] = clock.scale(seconds[-1])
            last[0] = time.perf_counter()

        try:
            stages = jobs.Executor(jobs=1, progress=on_cell).run(self.cells)
        finally:
            if traced:
                self.tracer.uninstall()
        if traced:
            seconds = clock.scale(*seconds)
        for i, scaled in enumerate(seconds):
            self.cell_times[traced][i].append(scaled)
        sims = [
            (f"{chain}/{wl}/view{i}", sim)
            for chain, chain_stages in (("thp", stages[:len(WORKLOADS)]),
                                        ("ca", stages[len(WORKLOADS):]))
            for wl, stage in zip(WORKLOADS, chain_stages)
            for i, sim in enumerate(stage.payload)
        ]
        for label, sim in sims:
            self.problems += checks.check_mmu_result(label, sim, TRACE_LEN)
        replayed = sum(sim.accesses for _, sim in sims)
        if replayed != self.accesses_per_round:
            self.problems.append(f"round replayed {replayed} accesses, "
                                 f"expected {self.accesses_per_round}")
        self.checkpoint_bytes = sum(len(stage.state) for stage in stages)
        self.stages = stages
        return len(self.cells), 0

    def finish(self) -> list[str]:
        """Checkpoint digests and the LRU-model replay (untimed)."""
        thp = self.stages[:len(WORKLOADS)]
        ca = self.stages[len(WORKLOADS):]
        for chain, chain_stages in (("thp", thp), ("ca", ca)):
            _, digest = common.checkpoint_vm(common.resume_vm(*chain_stages))
            self.problems += checks.check_digest(
                f"{chain} chain", chain_stages[-1].state_digest, digest
            )
        # Replay a seeded trace of the chain's second workload on the
        # resumed THP+THP VM and compare with the per-access LRU model.
        vm = common.resume_vm(thp[0])
        wl = make_workload(WORKLOADS[1], SCALE, seed=self.seed)
        run = run_virtualized(
            vm, wl, RunOptions(sample_every=None, exit_after=False)
        )
        view = TranslationView.virtualized(vm, run.process)
        trace = wl.trace(ORACLE_TRACE_LEN, seed=self.seed)
        sim = MmuSimulator(view, HW).run(trace, run.vma_start_vpns, workload=wl)
        resolved = view.resolve(trace, run.vma_start_vpns)
        model = checks.lru_replay(
            HW, resolved.entry_base.tolist(), resolved.entry_huge.tolist()
        )
        self.problems += checks.check_mmu_result("oracle", sim, ORACLE_TRACE_LEN)
        self.problems += checks.check_lru_model("oracle", sim, model)
        return self.problems

    def wall(self, traced: bool) -> float:
        """Seconds of one round: each stage's median in this run, summed."""
        return sum(statistics.median(t)
                   for t in self.cell_times[traced].values())

    def metrics(self) -> dict[str, tuple[float, str]]:
        wall_s = self.wall(False)
        return {
            "wall_s": (wall_s, "s"),
            "work_per_s": (self.accesses_per_round / wall_s, "1/s"),
            "checkpoint_kb": (self.checkpoint_bytes / 1024, "KB"),
        }

    def layer_totals(self) -> tuple:
        return self.tracer.totals()

    def close(self) -> None:
        pass
