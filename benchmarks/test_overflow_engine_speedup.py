"""HTM-overflow engines — fast-vs-reference speedup and equivalence.

The ``fast`` overflow engine's contract is byte-identical
:class:`~repro.htm.htm.HTMOverflow` results at a multiple of the
reference's speed.  This bench replays a Figure 3-shaped fleet (several
benchmark profiles × traces × victim capacities) on both engines,
asserts exact equality of every overflow record and of the assembled
``fleet_summary``, and enforces the speedup bar in traces per second:

* **full mode** (default): a paper-shaped fleet, >= 5x.
* **smoke mode** (``OVERFLOW_ENGINE_SMOKE=1``): a reduced fleet with a
  relaxed >= 2x bar, for CI runners with noisy neighbours.

Traces are synthesized *outside* the timed region (both engines share
them — the engines themselves consume no RNG), and each engine gets an
untimed warmup pass first: the fast engine's large scatter tables make
its first run allocator-bound, which is cold-start noise, not
steady-state cost.
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import BENCH_SEED, emit
from repro.sim.engines import get_engine
from repro.sim.overflow import OverflowConfig, fleet_summary
from repro.traces.workloads import SPEC2000_PROFILES, synthesize_trace
from repro.util.rng import stream_rng

SMOKE = os.environ.get("OVERFLOW_ENGINE_SMOKE", "") not in ("", "0")

if SMOKE:
    BENCHES = ["bzip2", "gcc"]
    TRACES = 4
    ACCESSES = 60_000
    MIN_SPEEDUP = 2.0
else:
    BENCHES = ["bzip2", "gcc", "mcf", "twolf"]
    TRACES = 6
    ACCESSES = 120_000
    MIN_SPEEDUP = 5.0

#: Both Figure 3 bar families: baseline and single-entry victim buffer.
VICTIMS = (0, 1)


def _fleet_cases() -> list[tuple]:
    """Pre-synthesized (trace, victim_entries) cases, fleet RNG discipline."""
    cases = []
    for bench in BENCHES:
        profile = SPEC2000_PROFILES[bench]
        for k in range(TRACES):
            rng = stream_rng(BENCH_SEED, "overflow", bench=bench, trace=k)
            trace = synthesize_trace(profile, ACCESSES, rng)
            for victim in VICTIMS:
                cases.append((trace, victim))
    return cases


def _run_engine(name: str, cases: list[tuple]) -> tuple[list, float]:
    """All fleet cases on one engine: (overflow records, traces/second)."""
    engine = get_engine("overflow", name)
    for trace, victim in cases:  # untimed warmup: settle the allocator
        engine(trace, victim_entries=victim)
    results = []
    start = time.perf_counter()
    for trace, victim in cases:
        ov = engine(trace, victim_entries=victim)
        results.append(
            None if ov is None else (
                ov.access_index, ov.instructions, ov.footprint,
                ov.lost_block, ov.utilization,
            )
        )
    seconds = time.perf_counter() - start
    return results, len(cases) / seconds


def test_fast_overflow_engine_speedup(benchmark):
    """The fast engine reproduces the reference fleet byte-for-byte at
    the required traces/s multiple."""
    cases = _fleet_cases()
    ref_results, ref_rate = _run_engine("reference", cases)
    fast_results, fast_rate = benchmark.pedantic(
        lambda: _run_engine("fast", cases), rounds=1, iterations=1
    )

    assert fast_results == ref_results  # byte-identical, every field
    speedup = fast_rate / ref_rate
    mode = "smoke" if SMOKE else "full"
    emit(
        f"overflow engines ({mode}, {len(cases)} traces over "
        f"{len(BENCHES)} benchmarks, victim {list(VICTIMS)}): "
        f"reference {ref_rate:.2f} traces/s, fast {fast_rate:.2f} traces/s, "
        f"speedup {speedup:.2f}x"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"expected >= {MIN_SPEEDUP}x traces/s over the reference engine, "
        f"got {speedup:.2f}x"
    )


def test_fleet_summary_byte_identical():
    """The assembled Figure 3 table (per-benchmark means + AVG) is equal
    float for float across engines, for both victim capacities."""
    for victim in VICTIMS:
        cfg = OverflowConfig(
            n_traces=3, trace_accesses=40_000,
            victim_entries=victim, seed=BENCH_SEED,
        )
        ref = fleet_summary(cfg, benchmarks=BENCHES, engine="reference")
        fast = fleet_summary(cfg, benchmarks=BENCHES, engine="fast")
        assert fast == ref
        assert list(fast) == BENCHES + ["AVG"]
