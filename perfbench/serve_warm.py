"""serve-warm: one ``repro serve`` over a filled run cache, one client.

Set-up computes fig 13 (svm and hashjoin, short traces) in-process into
a fresh run cache, keeps ``to_jsonable`` of that computation as the
reference, and starts the server on an ephemeral port over the cache.
One round of the closed-loop client is three requests, each sent when
the previous answer is in: a warm ``POST /v1/run`` for the same fig 13
(every cell, the four chain checkpoints among them, decodes from the
cache), then a tier ``PUT /v1/cache/<key>`` of one of the filled
cache's own entries under a fresh key and a ``GET`` of it, as a peer
publishing a result would.
The server closes every connection after its answer, so each request
opens a new one.  The kernel and hardware models do no work here.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.experiments import fig13
from repro.experiments import serialize
from repro.sim import cache as cache_mod
from repro.sim import jobs
from repro.sim.config import QUICK_SCALE

from perfbench import checks
from perfbench.clock import RefClock
from perfbench.spans import Tracer

EXPERIMENT = "fig13"
PARAMS = {"workloads": ["svm", "hashjoin"], "trace_len": 20_000}
REQUEST = json.dumps(
    {"experiment": EXPERIMENT, "scale": "quick", "params": PARAMS}
).encode()
#: Warm requests per server before the timed phase (server-side lazy
#: imports and first-call costs stay out of the timings).
WARMUP = 5
#: Rounds between two takes of the reference work (about 0.1 s): each
#: round is scaled by the references around its block, since one per
#: 10 ms round would double the run's time.
BLOCK = 10
#: Fewest untraced rounds in a run: p99_ms is taken over their warm run
#: requests, so at least ten lie beyond it.
P99_MIN_SAMPLES = 1000
#: Set-ups in a run (its own and repeats in fresh processes); each
#: computes fig 13 and starts a server, so there are few.
SETUPS = 3
SERVE_MAIN = Path(__file__).resolve().parent / "serve_main.py"


def _cell_keys(cells, salt: str) -> list[str]:
    """Cache keys of ``cells`` and their dependencies, each once."""
    keys: dict[str, None] = {}

    def visit(cell) -> None:
        for dep in cell.deps:
            visit(dep)
        keys.setdefault(cell.key(salt))

    for cell in cells:
        visit(cell)
    return list(keys)


def _report_failure(message: str) -> None:
    # A failed request counts in ``failed``; the checks cover the
    # requests that succeeded.
    print(f"perfbench: request failed: {message}", file=sys.stderr)


class Server:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, cache_dir: Path, log: Path, spans: Path | None):
        cmd = [sys.executable, str(SERVE_MAIN)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        cmd += ["--host", "127.0.0.1", "--port", "0", "--workers", "1",
                "--jobs", "1", "--cache-dir", str(cache_dir)]
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        self.log = log
        with open(log, "wb") as out:
            self.proc = subprocess.Popen(cmd, stdout=out,
                                         stderr=subprocess.STDOUT, env=env)
        self.port = self._wait_port()

    def _wait_port(self, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            found = re.search(rb"listening on http://[^:]+:(\d+)",
                              self.log.read_bytes())
            if found:
                return int(found.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.02)
        self.stop()
        raise RuntimeError(f"server did not start: "
                           f"{self.log.read_text(errors='replace')[-2000:]}")

    def request(self, method: str, path: str, body: bytes | None = None,
                headers: dict | None = None) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request(method, path, body=body, headers=headers or {})
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()


class Bench:
    """Set-up, rounds, checks and metrics of serve-warm."""

    def __init__(self, seed: int, workdir: Path, trace: bool):
        self.seed = seed
        # Traced runs alternate traced and untraced rounds.
        self.min_rounds = P99_MIN_SAMPLES * (2 if trace else 1)
        self.servers: dict[bool, Server] = {}
        self.problems: list[str] = []
        self.first_body: bytes | None = None
        self.latencies: list[float] = []
        self.rounds = 0
        #: Reference-scaled seconds of every round, by traced-ness.
        self.round_times: dict[bool, list[float]] = {False: [], True: []}
        #: ``(traced, seconds)`` of the rounds since the last reference.
        self.pending: list[tuple[bool, float]] = []
        self.clock: RefClock | None = None
        self.tracer = None
        self.spans = workdir / "spans.json"
        try:
            self._setup(workdir, trace)
        except BaseException:
            self.close()
            raise

    def _setup(self, workdir: Path, trace: bool) -> None:
        cache_dir = workdir / "cache"
        plan = fig13.plan(QUICK_SCALE, workloads=tuple(PARAMS["workloads"]),
                          trace_len=PARAMS["trace_len"])
        # Every lookup misses (the cache is empty), so the reference is
        # computed here, before any cached entry is read back.
        results = jobs.Executor(jobs=1, cache=cache_mod.RunCache(cache_dir)).run(
            plan.cells
        )
        self.reference = serialize.to_jsonable(plan.assemble(results))
        # The tier PUTs carry the cache's own entries, as a peer that
        # computed the same cells would publish them.
        cache = cache_mod.RunCache(cache_dir)
        self.blobs = [cache.read_blob(key)
                      for key in _cell_keys(plan.cells, cache.salt)]
        if None in self.blobs:
            raise RuntimeError("a computed cell is missing from the cache")
        self.servers[False] = Server(cache_dir, workdir / "server.log", None)
        if trace:
            traced_dir = workdir / "cache-traced"
            shutil.copytree(cache_dir, traced_dir)
            self.servers[True] = Server(traced_dir, workdir / "traced.log",
                                        self.spans)
        for server in self.servers.values():
            for _ in range(WARMUP):
                if not self._run_request(server)[0]:
                    raise RuntimeError("warm-up request failed")

    def _run_request(self, server: Server) -> tuple[bool, float]:
        """One warm ``POST /v1/run``: ``(succeeded, seconds)``."""
        t0 = time.perf_counter()
        status, body = server.request(
            "POST", "/v1/run", REQUEST, {"Content-Type": "application/json"}
        )
        seconds = time.perf_counter() - t0
        if status != 200:
            _report_failure(f"POST /v1/run answered {status}: {body[:200]!r}")
            return False, seconds
        self.problems += checks.check_body(body, self.first_body,
                                           self.reference, EXPERIMENT)
        if self.first_body is None:
            self.first_body = body
        return True, seconds

    def round(self, traced: bool, clock: RefClock) -> tuple[int, int]:
        """One warm run request, one tier PUT and one tier GET."""
        self.clock = clock
        server = self.servers[traced]
        i = self.rounds
        self.rounds += 1
        t0 = time.perf_counter()
        ok, seconds = self._run_request(server)
        if not traced:
            self.latencies.append(seconds if ok else float("nan"))
        failed = int(not ok)
        key = hashlib.sha256(f"perfbench:{self.seed}:{i}".encode()).hexdigest()
        blob = self.blobs[i % len(self.blobs)]
        status, _ = server.request("PUT", f"/v1/cache/{key}", blob,
                                   {"X-Repro-Blob-Format": "rpt1"})
        if status != 201:
            _report_failure(f"tier PUT {key[:12]} answered {status}")
            failed += 1
        status, got = server.request("GET", f"/v1/cache/{key}", None,
                                     {"X-Repro-Blob-Accept": "rpt1, raw"})
        if status != 200:
            _report_failure(f"tier GET {key[:12]} answered {status}")
            failed += 1
        self.pending.append((traced, time.perf_counter() - t0))
        if len(self.pending) == BLOCK:
            self._scale_pending()
        if status == 200:
            self.problems += checks.check_tier_roundtrip(key, blob, got)
        return 3, failed

    def _scale_pending(self) -> None:
        if self.pending:
            flags, seconds = zip(*self.pending)
            for traced, scaled in zip(flags, self.clock.scale(*seconds)):
                self.round_times[traced].append(scaled)
            self.pending = []

    def finish(self) -> list[str]:
        return self.problems

    def peak_rss_mb(self) -> float:
        """Peak RSS of the untraced server, which does the work."""
        return self.servers[False].peak_rss_mb()

    def wall(self, traced: bool) -> float:
        """Seconds of one round: the median round of this run."""
        self._scale_pending()
        return float(np.median(self.round_times[traced]))

    def metrics(self) -> dict[str, tuple[float, str]]:
        wall_s = self.wall(False)
        latencies_ms = 1000 * np.array(self.latencies)
        return {
            "wall_s": (wall_s, "s"),
            "work_per_s": (3 / wall_s, "1/s"),
            # Host milliseconds as measured, not scaled: reported beside
            # the scored metrics, not scored.
            "p50_ms": (float(np.nanpercentile(latencies_ms, 50)), "ms"),
            "p99_ms": (float(np.nanpercentile(latencies_ms, 99)), "ms"),
        }

    def layer_totals(self) -> tuple:
        """Totals of the traced server's requests after its warm-up."""
        self.servers[True].stop()
        self.tracer = Tracer.load(str(self.spans))
        requests = [i for i in self.tracer.roots()
                    if self.tracer.spans[i][0] == "serve.request"]
        return self.tracer.totals(set(requests[WARMUP:]))

    def close(self) -> None:
        for server in self.servers.values():
            server.stop()
