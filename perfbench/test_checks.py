"""Each correctness check passes on a good output and fails on a
deliberately corrupted one.

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.hw.mmu_sim import MmuSimResult  # noqa: E402
from repro.hw.tlb import TlbHierarchy  # noqa: E402
from repro.metrics.contiguity import ContiguitySample  # noqa: E402
from repro.sim.config import HardwareConfig  # noqa: E402
from repro.sim.results import RunResult  # noqa: E402
from repro.workloads.base import VmaPlan  # noqa: E402

from perfbench import checks  # noqa: E402


def _sample(c32: float, c128: float) -> ContiguitySample:
    sample = ContiguitySample.empty()
    return dataclasses.replace(sample, coverage_32=c32, coverage_128=c128)


def _native() -> RunResult:
    r = RunResult(workload="svm", policy="eager", virtualized=False,
                  footprint_pages=100)
    r.touched_pages, r.resident_pages, r.bloat_pages = 100, 120, 20
    r.run_sizes = [64, 32, 16, 8]
    r.average = _sample(0.9, 1.0)
    r.final = _sample(0.8, 0.95)
    return r


def test_plan_touched_pages_matches_the_program():
    plans = [VmaPlan("a", 1000, 0.97), VmaPlan("b", 10, 0.01), VmaPlan("c", 7)]
    assert checks.plan_touched_pages(plans) == sum(p.touched_pages for p in plans)


@pytest.mark.parametrize("corrupt", [
    lambda r: setattr(r, "touched_pages", 99),
    lambda r: setattr(r, "run_sizes", [64, 32, 16, 9]),
    lambda r: setattr(r, "bloat_pages", 21),
    lambda r: setattr(r, "average", _sample(1.0, 0.9)),
    lambda r: setattr(r, "final", _sample(0.9, 1.01)),
])
def test_native_run_check(corrupt):
    good = _native()
    assert checks.check_native_run("x", good, 100) == []
    bad = _native()
    corrupt(bad)
    if bad.touched_pages != good.touched_pages:
        bad.bloat_pages = bad.resident_pages - bad.touched_pages
    assert checks.check_native_run("x", bad, 100)


def test_policies_agree():
    good = {("svm", 0.25): {"thp": 100, "ca": 100}}
    assert checks.check_policies_agree(good) == []
    bad = {("svm", 0.25): {"thp": 100, "ca": 101}}
    assert checks.check_policies_agree(bad)


def _sim() -> MmuSimResult:
    return MmuSimResult(
        accesses=1000, l1_hits=700, l2_hits=200, walks=100,
        spot_correct=60, spot_mispredict=10, spot_no_prediction=30,
        rmm_uncovered=5, ds_outside=0, ctlb_uncovered=100,
        utopia_rest=40, utopia_flex=60, seg_outside=7,
    )


@pytest.mark.parametrize("field,value", [
    ("l1_hits", 701), ("accesses", 999), ("spot_correct", 61),
    ("utopia_flex", 59), ("rmm_uncovered", 101), ("ds_outside", -1),
    ("ctlb_uncovered", 101), ("seg_outside", 101),
])
def test_mmu_result_check(field, value):
    assert checks.check_mmu_result("x", _sim(), 1000) == []
    bad = dataclasses.replace(_sim(), **{field: value})
    assert checks.check_mmu_result("x", bad, 1000)


def test_mmu_result_check_trace_length():
    assert checks.check_mmu_result("x", _sim(), 1001)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lru_model_matches_the_tlb_hierarchy(seed):
    rng = np.random.default_rng(seed)
    hw = HardwareConfig()
    huge = rng.random(5000) < 0.3
    base = rng.integers(0, 400, size=5000).astype(np.int64)
    base[huge] &= ~511
    levels = TlbHierarchy.from_config(hw).simulate(base, huge)
    program = ((levels == 0).sum(), (levels == 1).sum(), (levels == 2).sum())
    model = checks.lru_replay(hw, base.tolist(), huge.tolist())
    assert model == tuple(int(x) for x in program)
    sim = MmuSimResult(accesses=5000, l1_hits=model[0], l2_hits=model[1],
                       walks=model[2])
    assert checks.check_lru_model("x", sim, model) == []
    off_by_one = dataclasses.replace(sim, l1_hits=sim.l1_hits + 1,
                                     l2_hits=sim.l2_hits - 1)
    assert checks.check_lru_model("x", off_by_one, model)


def test_digest_check():
    assert checks.check_digest("x", "ab" * 32, "ab" * 32) == []
    assert checks.check_digest("x", "ab" * 32, "ab" * 31 + "ac")


def test_body_check():
    body = json.dumps({"results": {"fig13": {"overheads": {"svm|THP": 0.1},
                                             "n": [1, 2]}}}).encode()
    reference = {"overheads": {"svm|THP": 0.1}, "n": (1, 2)}
    assert checks.check_body(body, None, reference, "fig13") == []
    assert checks.check_body(body, body, reference, "fig13") == []
    assert checks.check_body(body + b" ", body, reference, "fig13")
    wrong = body.replace(b"0.1", b"0.2")
    assert checks.check_body(wrong, None, reference, "fig13")
    assert checks.check_body(b"not json", None, reference, "fig13")


def test_tier_roundtrip_check():
    assert checks.check_tier_roundtrip("0" * 64, b"abc", b"abc") == []
    assert checks.check_tier_roundtrip("0" * 64, b"abc", b"abd")
