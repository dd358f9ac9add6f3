"""The layer entry points a traced run wraps, and the per-layer metrics.

Every workload wraps the same entry points, so every traced run reports
every per-layer metric.  A layer a workload never enters reads 0 there:
native-frag runs no TLB model and no run cache, serve-warm neither the
kernel nor the TLB model.  A layer's time is its self time per traced
round (span time minus its child spans' time); a count is per traced
round.
"""

from __future__ import annotations

from typing import Any

#: Layers reported by self time, as ``<span name>_s``.
SELF_TIMED = (
    "sim.kernel.touch_range", "sim.kernel.file_read",
    "sim.kernel.run_daemons", "sim.kernel.drop_caches",
    "metrics.contiguity.sample", "sim.machine.build",
    "virt.guest_touch_range", "virt.guest_file_read", "workloads.trace",
    "hw.translation.resolve", "hw.tlb.simulate", "hw.spot", "hw.rmm",
    "hw.ds", "hw.ctlb", "hw.utopia", "hw.seg",
    "sim.transport.checkpoint", "sim.transport.resume",
    "sim.cache.get", "sim.transport.loads", "experiments.to_jsonable",
    "sim.cache.read_blob", "sim.cache.write_blob",
)


def entry_points() -> tuple:
    """``(owner, attribute, span name[, wrap options])`` of every layer.

    Imported on first use, so untraced runs pay no import for the
    layers their workload does not touch.
    """
    from repro.experiments import common, serialize
    from repro.hw import coalesced_tlb, direct_segment, rmm, segmentation
    from repro.hw import spot, tlb, utopia
    from repro.hw.mmu_sim import MmuSimulator
    from repro.hw.translation import TranslationView
    from repro.serve.server import ReproServer
    from repro.sim import cache, jobs, machine, runner, transport
    from repro.sim.kernel import Kernel
    from repro.virt.hypervisor import VirtualMachine
    from repro.workloads.base import Workload

    return (
        (Kernel, "touch_range", "sim.kernel.touch_range", {"counters": {
            # touch_range returns the major faults it took.
            "sim.kernel.faults": lambda args, kwargs, result: result,
        }}),
        (Kernel, "file_read", "sim.kernel.file_read", {"counters": {
            # Pages this read brought in (a readahead window, or none).
            "sim.kernel.file_pages":
                lambda args, kwargs, result: len(args[0].page_cache.last_fill),
        }}),
        (Kernel, "run_daemons", "sim.kernel.run_daemons"),
        (Kernel, "drop_caches", "sim.kernel.drop_caches"),
        (runner, "sample_contiguity", "metrics.contiguity.sample"),
        # An aged machine is built, then hogged.
        (common, "native_machine", "sim.machine.build"),
        (machine.Machine, "hog", "sim.machine.build"),
        (VirtualMachine, "guest_touch_range", "virt.guest_touch_range"),
        (VirtualMachine, "guest_file_read", "virt.guest_file_read"),
        (Workload, "trace", "workloads.trace"),
        (MmuSimulator, "run", "hw.mmu_sim.run", {"counters": {
            "hw.accesses": lambda args, kwargs, result: result.accesses,
            "hw.walks": lambda args, kwargs, result: result.walks,
        }}),
        (TranslationView, "resolve", "hw.translation.resolve"),
        (tlb.TlbHierarchy, "simulate", "hw.tlb.simulate"),
        (spot.SpotPredictor, "on_walks_batch", "hw.spot"),
        (rmm.RangeTlb, "on_miss_batch", "hw.rmm"),
        (direct_segment.DirectSegment, "on_miss_batch", "hw.ds"),
        (coalesced_tlb.CoalescedTlb, "on_miss_batch", "hw.ctlb"),
        (utopia.UtopiaMapper, "on_miss_batch", "hw.utopia"),
        (segmentation.SegmentationUnit, "on_miss_batch", "hw.seg"),
        (common, "checkpoint_vm", "sim.transport.checkpoint", {"counters": {
            "sim.transport.checkpoint_bytes":
                lambda args, kwargs, result: len(result[0]),
        }}),
        (common, "resume_vm", "sim.transport.resume"),
        (jobs.Executor, "run", "sim.jobs.run"),
        (jobs, "execute_cell", "sim.jobs.cell"),
        (cache.RunCache, "get", "sim.cache.get", {"counters": {
            "sim.cache.hits":
                lambda args, kwargs, result: int(result is not cache.MISS),
        }}),
        (transport, "loads", "sim.transport.loads", {
            "outer_only": True,
            "counters": {"sim.transport.loads_bytes":
                         lambda args, kwargs, result: len(args[0])},
        }),
        (serialize, "to_jsonable", "experiments.to_jsonable",
         {"outer_only": True}),
        (cache.RunCache, "read_blob", "sim.cache.read_blob"),
        (cache.RunCache, "write_blob", "sim.cache.write_blob"),
        (ReproServer, "_handle_connection", "serve.request"),
    )


def metrics(totals: tuple[dict, dict, Any], rounds: int
            ) -> dict[str, tuple[float, str]]:
    """Every per-layer metric from ``Tracer.totals()`` over ``rounds``."""
    self_s, total_s, counts = totals

    def per_round(value: float) -> float:
        return value / rounds

    out = {f"{name}_s": (per_round(self_s.get(name, 0.0)), "s")
           for name in SELF_TIMED}
    out.update({
        "sim.kernel.touch_range_calls":
            (per_round(counts["sim.kernel.touch_range.calls"]), "count"),
        "sim.kernel.faults": (per_round(counts["sim.kernel.faults"]), "count"),
        "sim.kernel.file_pages":
            (per_round(counts["sim.kernel.file_pages"]), "count"),
        "metrics.contiguity.samples":
            (per_round(counts["metrics.contiguity.sample.calls"]), "count"),
        "hw.accesses": (per_round(counts["hw.accesses"]), "count"),
        "hw.walks": (per_round(counts["hw.walks"]), "count"),
        "sim.transport.checkpoint_kb":
            (per_round(counts["sim.transport.checkpoint_bytes"]) / 1024, "KB"),
        # The executor as the caller sees it, and its time outside the
        # cells, cache lookups and blob decoding it drives.
        "sim.jobs.run_s": (per_round(total_s.get("sim.jobs.run", 0.0)), "s"),
        "sim.jobs.overhead_s":
            (per_round(self_s.get("sim.jobs.run", 0.0)), "s"),
        "sim.cache.hits": (per_round(counts["sim.cache.hits"]), "count"),
        "sim.transport.loads_mb":
            (per_round(counts["sim.transport.loads_bytes"]) / 1e6, "MB"),
        # Request time outside every wrapped layer.
        "serve.other_s": (per_round(self_s.get("serve.request", 0.0)), "s"),
    })
    return out
