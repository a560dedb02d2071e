"""Launch ``repro serve`` for the benchmark, optionally traced.

Run as ``python -m perfbench.serve [--trace-out FILE] -- <serve args>``
from the root of a checkout with ``src`` on ``PYTHONPATH``.  SIGINT and
SIGTERM both stop the server gracefully (the benchmark may itself have
been started with SIGINT ignored, which a child would inherit).  With
``--trace-out``, the layer wrappers are installed before the server
starts and the spans are written to FILE after it stops.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench.serve")
    parser.add_argument("--trace-out", type=Path, default=None)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = [a for a in args.serve_args if a != "--"]

    signal.signal(signal.SIGINT, signal.default_int_handler)
    tracer = None
    if args.trace_out is not None:
        from perfbench import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    from repro.cli import main as repro_main

    try:
        return repro_main(["serve", *serve_args])
    finally:
        if tracer is not None:
            tracer.dump(args.trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
