"""The repository benchmark: one command, three workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload figures|sweeps|model|all \\
        --seed N --seconds S --trace 0|1

``figures`` reproduces every paper figure end to end, ``sweeps`` drives
``POST /v1/sweeps`` against ``repro serve``, and ``model`` drives the
closed-form model endpoints (``perfbench/config.json`` fixes each one's
parameters and records which end-to-end metric each layer should move).
With ``--trace 0`` the run reports the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` it wraps each layer's public
functions and reports the per-layer metrics instead, plus the traced
run's own end-to-end values as ``traced.*``.  ``--workload all`` runs
every workload both ways and prints the tracing overhead per metric.

Human-readable lines (every metric with its unit and sample count, and
the failure accounting) go to stdout first; the last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The program is run from ``src`` in the checkout; a checkout without it
is refused with exit code 2 before anything runs.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("figures", "sweeps", "model")
#: Printed beside the end-to-end metrics, and reported traced as a
#: per-layer one, but not bounded: it moved by more than any bound
#: allows between sets of runs of the same code.
UNBOUNDED = {"light_p50_ms": "ms"}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run_one(workload: str, seed: int, seconds: float, trace: bool):
    from perfbench import wl_figures, wl_model, wl_sweeps
    from perfbench.common import load_config

    module = {"figures": wl_figures, "sweeps": wl_sweeps, "model": wl_model}[workload]
    return module.run(seed, seconds, trace, load_config())


def _report(workload: str, outcome, trace: bool, declared: dict) -> dict:
    """Print the human-readable lines; return the metrics object."""
    tag = f"[{workload}{' traced' if trace else ''}]"
    units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    for name, (value, n, label) in outcome.e2e.items():
        unit = units.get(name) or f"{UNBOUNDED[name]}, not bounded"
        print(f"{tag} {name} = {value:.6g} {unit} (n={n}; {label})")
    tally = outcome.tally
    print(f"{tag} error_rate = {tally.error_rate:.6g} "
          f"({tally.failed} failed of {tally.attempted} attempted)")
    for reason, count in sorted(tally.reasons.items()):
        print(f"{tag}   failure: {reason} x{count}")
    for problem in outcome.problems:
        print(f"{tag}   check failed: {problem}")
    if not trace:
        # Layer counters the untraced run scraped from /metrics.
        for name, value in sorted(outcome.layers.items()):
            print(f"{tag} layer {name} = {value:.6g}")
        return {
            name: {"value": float(outcome.e2e[name][0]), "unit": unit}
            for name, unit in units.items()
        }
    metrics = {}
    for m in declared["per_layer"]:
        name = m["name"]
        if name.startswith("traced."):
            value = outcome.e2e[name[len("traced."):]][0]
        else:
            value = outcome.layers.get(name, 0.0)
        metrics[name] = {"value": float(value), "unit": m["unit"]}
        print(f"{tag} {name} = {float(value):.6g} {m['unit']}")
    return metrics


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        return _fail("--seed must be >= 0 and --seconds positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _fail(f"no program sources at {ROOT / 'src' / 'repro'}; "
                     "run from the root of a repository checkout")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.common import warm_imports, work_root

    declared = _declared()
    warm_imports()
    try:
        if args.workload != "all":
            outcome = _run_one(args.workload, args.seed, args.seconds, bool(args.trace))
            metrics = _report(args.workload, outcome, bool(args.trace), declared)
            result = {
                "correct": outcome.tally.failed == 0 and not outcome.problems,
                "attempted": outcome.tally.attempted,
                "failed": outcome.tally.failed,
                "metrics": metrics,
            }
        else:
            result = _run_all(args.seed, args.seconds, declared)
    finally:
        shutil.rmtree(work_root(), ignore_errors=True)
    print(json.dumps(result))
    return 0


def _run_all(seed: int, seconds: float, declared: dict) -> dict:
    """Every workload untraced then traced, with the tracing overhead."""
    from perfbench.stats import Tally

    tally = Tally()
    correct = True
    metrics = {}
    for workload in WORKLOADS:
        plain = _run_one(workload, seed, seconds, False)
        traced = _run_one(workload, seed, seconds, True)
        for trace, outcome in ((False, plain), (True, traced)):
            for name, metric in _report(workload, outcome, trace, declared).items():
                metrics[f"{workload}.{name}"] = metric
            tally.merge(outcome.tally)
            correct = correct and outcome.tally.failed == 0 and not outcome.problems
        for name, (value, _, label) in plain.e2e.items():
            with_trace = traced.e2e[name][0]
            share = (with_trace - value) / value if value else 0.0
            print(f"[{workload}] tracing overhead on {name}: "
                  f"{with_trace:.6g} traced vs {value:.6g} ({share:+.1%}; {label})")
    return {"correct": correct, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
