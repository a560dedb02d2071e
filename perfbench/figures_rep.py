"""One reproduction of every paper figure, in a fresh process.

Run as ``python -m perfbench.figures_rep --out DIR --seed S --jobs J``
from the root of a checkout with ``src`` on ``PYTHONPATH``.  Prints
``ready`` once the runner is imported (the parent times set-up up to
that line), then runs ``run_experiments`` at ``--quality`` (default
``normal``) into a fresh ``DIR``; with ``--resumes N`` it then runs N
more times into the same directory, where every chunk is a
checkpoint-cache hit.  The last stdout line is a JSON record of timings
(wall, and CPU of the runner and its pool workers), per-figure telemetry
and report digests.  ``--probe`` stops right after ``ready``: a set-up
sample on its own.  With ``--trace-dir``, the layer wrappers are installed first and spans
are written there (pool workers spill their own).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cpu_s() -> float:
    """CPU seconds of this process and of its reaped children.

    Pool workers are joined when each sweep's pool is torn down, so after
    ``run_experiments`` returns their CPU time is in ``RUSAGE_CHILDREN``.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench.figures_rep")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quality", default="normal")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--resumes", type=int, default=0)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--trace-dir", type=Path, default=None)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace_dir is not None:
        from perfbench import tracing

        tracer = tracing.Tracer(spill_dir=args.trace_dir)
        tracing.install(tracer)
    from repro.experiments import runner

    print("ready", flush=True)
    if args.probe:
        return 0
    cfg = runner.ExperimentsConfig(
        out_dir=args.out, quality=args.quality, seed=args.seed,
        jobs=args.jobs if args.jobs > 1 else None,
    )
    cpu_before = _cpu_s()
    started = time.perf_counter()
    result = runner.run_experiments(cfg)
    run_s = time.perf_counter() - started
    record = {
        "run_s": run_s,
        "cpu_s": _cpu_s() - cpu_before,
        "report_sha256": _digest(result.report_json),
        "figures": {t.figure: t.wall_seconds for t in result.figures},
        "points": sum(t.n_points for t in result.figures),
        "chunks_computed": result.computed_chunks,
        "resume_s": [],
        "resume_sha256": [],
        "resume_chunks_computed": 0,
    }
    for _ in range(args.resumes):
        started = time.perf_counter()
        resumed = runner.run_experiments(cfg)
        record["resume_s"].append(time.perf_counter() - started)
        record["resume_sha256"].append(_digest(resumed.report_json))
        record["resume_chunks_computed"] += resumed.computed_chunks
    if tracer is not None:
        tracer.dump(args.trace_dir / "spans-runner.jsonl")
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
