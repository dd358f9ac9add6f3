"""Correctness checks on the program's outputs.

Each check returns a list of problems (empty when the output is
right).  They test properties that must hold whatever the timing, or
compare with a computation made here, apart from the program: page
counts from the workload plans, and a plain per-access LRU TLB model.
``perfbench/test_checks.py`` shows each check failing on a deliberately
corrupted output.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Sequence

# -- native-frag --------------------------------------------------------------


def plan_touched_pages(vma_plans: Iterable[Any]) -> int:
    """Anonymous pages a workload touches, from its VMA plans alone.

    Each area backs ``floor(n_pages * touched_fraction)`` pages, at
    least one and at most the whole area.
    """
    total = 0
    for plan in vma_plans:
        touched = int(plan.n_pages * plan.touched_fraction)
        total += min(plan.n_pages, max(1, touched))
    return total


def check_native_run(label: str, result: Any, expected_touched: int) -> list[str]:
    """One native cell's page accounting and contiguity bounds."""
    out = []
    if result.touched_pages != expected_touched:
        out.append(f"{label}: touched {result.touched_pages} pages, the plan "
                   f"touches {expected_touched}")
    if sum(result.run_sizes) != result.resident_pages:
        out.append(f"{label}: mapping runs cover {sum(result.run_sizes)} "
                   f"pages, {result.resident_pages} are resident")
    if result.resident_pages - result.touched_pages != result.bloat_pages:
        out.append(f"{label}: resident {result.resident_pages} - touched "
                   f"{result.touched_pages} != bloat {result.bloat_pages}")
    for which in ("average", "final"):
        sample = getattr(result, which)
        if not 0 <= sample.coverage_32 <= sample.coverage_128 <= 1:
            out.append(f"{label}: {which} coverage_32 {sample.coverage_32} "
                       f"<= coverage_128 {sample.coverage_128} <= 1 fails")
    return out


def check_policies_agree(touched: dict[tuple, dict[str, int]]) -> list[str]:
    """Touched pages are the same under every policy for one
    ``(workload, pressure)``: placement must not change what is touched."""
    out = []
    for key, by_policy in sorted(touched.items()):
        if len(set(by_policy.values())) > 1:
            out.append(f"{key}: touched pages differ across policies: "
                       f"{by_policy}")
    return out


# -- virt-sim -----------------------------------------------------------------


def check_mmu_result(label: str, sim: Any, trace_len: int) -> list[str]:
    """Counter identities of one :class:`MmuSimResult`."""
    out = []
    if not sim.l1_hits + sim.l2_hits + sim.walks == sim.accesses == trace_len:
        out.append(f"{label}: l1 {sim.l1_hits} + l2 {sim.l2_hits} + walks "
                   f"{sim.walks} == accesses {sim.accesses} == trace "
                   f"{trace_len} fails")
    spot = sim.spot_correct + sim.spot_mispredict + sim.spot_no_prediction
    if spot != sim.walks:
        out.append(f"{label}: SpOT outcomes sum to {spot}, walks {sim.walks}")
    utopia = sim.utopia_rest + sim.utopia_flex
    if utopia != sim.walks:
        out.append(f"{label}: Utopia rest + flex = {utopia}, walks "
                   f"{sim.walks}")
    for field in ("rmm_uncovered", "ds_outside", "ctlb_uncovered",
                  "seg_outside"):
        value = getattr(sim, field)
        if not 0 <= value <= sim.walks:
            out.append(f"{label}: {field} {value} outside [0, walks "
                       f"{sim.walks}]")
    return out


def _set_index(key: tuple, n_sets: int) -> int:
    # The set-index function of Table II's hardware model: the key's
    # hash, mixed by a Fibonacci multiplier so aligned keys spread.
    return ((hash(key) * 0x9E3779B1) >> 12) % n_sets


class LruTlb:
    """One set-associative TLB with true LRU, one access at a time."""

    def __init__(self, entries: int, ways: int):
        self.ways = ways
        self.sets: list[list[tuple]] = [[] for _ in range(entries // ways)]

    def access(self, key: tuple) -> bool:
        """Look ``key`` up and make it most recent; True on a hit."""
        ways = self.sets[_set_index(key, len(self.sets))]
        hit = key in ways
        if hit:
            ways.remove(key)
        elif len(ways) == self.ways:
            ways.pop(0)
        ways.append(key)
        return hit


def lru_replay(hw: Any, entry_base: Sequence[int],
               entry_huge: Sequence[bool]) -> tuple[int, int, int]:
    """``(l1_hits, l2_hits, walks)`` of a split-L1 / unified-L2 TLB.

    Geometry comes from ``hw`` (a ``HardwareConfig``).  A 4 KiB entry
    goes to the 4K L1, a 2 MiB entry to the 2M L1; an L1 miss probes
    the L2, and a fill (from the L2 or a walk) lands in both levels.
    """
    l1 = {False: LruTlb(hw.l1_4k_entries, hw.l1_4k_ways),
          True: LruTlb(hw.l1_2m_entries, hw.l1_2m_ways)}
    l2 = LruTlb(hw.l2_entries, hw.l2_ways)
    l1_hits = l2_hits = walks = 0
    for base, huge in zip(entry_base, entry_huge):
        key = (int(base), bool(huge))
        if l1[key[1]].access(key):
            l1_hits += 1
        elif l2.access(key):
            l2_hits += 1
        else:
            walks += 1
    return l1_hits, l2_hits, walks


def check_lru_model(label: str, sim: Any,
                    model: tuple[int, int, int]) -> list[str]:
    """The simulator's TLB counters equal the per-access model's."""
    got = (sim.l1_hits, sim.l2_hits, sim.walks)
    if got != tuple(model):
        return [f"{label}: simulator (l1, l2, walks) = {got}, LRU model "
                f"= {tuple(model)}"]
    return []


def check_digest(label: str, recorded: str, recomputed: str) -> list[str]:
    """A resumed checkpoint re-checkpoints to the same logical digest."""
    if recorded != recomputed:
        return [f"{label}: checkpoint digest {recorded[:16]} became "
                f"{recomputed[:16]} after resume + checkpoint"]
    return []


# -- serve-warm ---------------------------------------------------------------


def check_body(body: bytes, first: bytes | None, reference: Any,
               experiment: str) -> list[str]:
    """A warm ``/v1/run`` body: byte-identical to the first one, whose
    parsed ``results`` equal the in-process ``to_jsonable`` reference."""
    if first is not None:
        if body != first:
            return [f"{experiment}: body of {len(body)} bytes differs from "
                    f"the first body ({len(first)} bytes)"]
        return []
    try:
        results = json.loads(body)["results"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{experiment}: body is not a result ({exc})"]
    expected = {experiment: json.loads(json.dumps(reference))}
    if results != expected:
        return [f"{experiment}: served results differ from the in-process "
                f"computation"]
    return []


def check_tier_roundtrip(key: str, put: bytes, got: bytes) -> list[str]:
    """A tier GET returns exactly the bytes that were PUT."""
    if put != got:
        return [f"tier {key[:12]}: GET returned {len(got)} bytes, PUT "
                f"stored {len(put)}"]
    return []
