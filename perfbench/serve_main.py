"""Start ``repro serve``, optionally with its layer entry points traced.

    python3 perfbench/serve_main.py [--spans FILE] <repro serve arguments>

With ``--spans`` every layer entry point is wrapped before the server
starts, and every span is written to FILE when the server stops
(SIGINT).
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    spans = None
    if argv[:1] == ["--spans"]:
        spans, argv = argv[1], argv[2:]
    tracer = None
    if spans is not None:
        from perfbench import layers
        from perfbench.spans import Tracer

        tracer = Tracer()
        tracer.install(layers.entry_points())
    from repro.cli import main as repro_main

    # The benchmark stops the server with SIGINT.  A shell that starts
    # the benchmark in the background sets SIGINT to ignored, and the
    # setting passes down to every child, which then could not be
    # stopped but by a kill that skips writing the spans.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    try:
        return repro_main(["serve", *argv])
    finally:
        if tracer is not None:
            tracer.dump(spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
