"""Experiment engines.

Each engine reproduces one of the paper's measurement protocols:

* :mod:`repro.sim.open_system` — §4's first simulation set (Figure 4):
  ``C`` lock-step transactions of random table entries; measure the
  probability that any false conflict occurs before all complete.
* :mod:`repro.sim.closed_system` — §4's second set (Figures 5–6):
  staggered threads executing fixed-size transactions back-to-back,
  restarting on conflict, over a fixed time horizon; count conflicts and
  measure table occupancy / actual concurrency.
* :mod:`repro.sim.closed_fast` — the optimized closed-system engine,
  byte-identical to the reference (same RNG stream, same order) at
  several times the speed; select by name via :mod:`repro.sim.engines`.
* :mod:`repro.sim.trace_driven` — §2.2's study (Figure 2): the same
  conflict question driven by real-structured address streams with true
  conflicts removed.
* :mod:`repro.sim.trace_fast` — the optimized trace-driven engine,
  byte-identical to the reference (same RNG stream, same order) via a
  precomputed per-(stream, W, hash) window index; select by name via
  :mod:`repro.sim.engines`.
* :mod:`repro.sim.overflow` — §2.3's characterization (Figure 3):
  HTM overflow points over the benchmark-profile fleet.
* :mod:`repro.sim.placement` — allocator-placement sensitivity and the
  tagless-vs-tagged ownership-table A/B (``placement``/``fig7`` sweep
  kinds), driven by placed, Zipf-skewed streams from :mod:`repro.alloc`.
* :mod:`repro.sim.montecarlo` — the vectorized collision kernels shared
  by the above.
* :mod:`repro.sim.sweep` — parameter-grid utilities and
  :func:`~repro.sim.sweep.run_sweep`, which runs a grid serially, on
  the process pool or on the cluster.
* :mod:`repro.sim.parallel` — process-pool sweep engine, bit-identical
  to the serial runner via coordinate-sharded RNG streams.
"""

from repro.sim.closed_fast import simulate_closed_system_fast
from repro.sim.closed_system import ClosedSystemConfig, ClosedSystemResult, simulate_closed_system
from repro.sim.engines import DEFAULT_ENGINES, ENGINES, available_engines, get_engine
from repro.sim.montecarlo import (
    collision_probability_estimate,
    cross_thread_conflicts,
    intra_thread_alias_counts,
)
from repro.sim.hybrid_pipeline import (
    HybridPipelineConfig,
    HybridPipelineResult,
    simulate_hybrid_pipeline,
)
from repro.sim.isolation_cost import (
    IsolationCostConfig,
    IsolationCostResult,
    plain_read_violation_rate,
    plain_write_violation_rate,
    simulate_isolation_cost,
)
from repro.sim.open_system import (
    OpenSystemConfig,
    OpenSystemResult,
    simulate_open_system,
    simulate_open_system_heterogeneous,
)
from repro.sim.overflow import (
    OverflowConfig,
    OverflowDistribution,
    OverflowResult,
    characterize_overflow,
    fleet_summary,
    overflow_distribution,
    simulate_htm_overflow,
)
from repro.sim.overflow_fast import simulate_htm_overflow_fast
from repro.sim.parallel import SweepFailure, SweepTelemetry, run_sweep_parallel
from repro.sim.placement import (
    PlacementConflictConfig,
    PlacementConflictResult,
    TableABConfig,
    TableABResult,
    simulate_placement_conflicts,
    simulate_table_ab,
)
from repro.sim.sweep import SweepResult, run_sweep, sweep_grid
from repro.sim.throughput import (
    ThroughputConfig,
    ThroughputResult,
    simulate_throughput,
    throughput_curve,
)
from repro.sim.trace_driven import TraceAliasConfig, TraceAliasResult, simulate_trace_aliasing
from repro.sim.trace_fast import simulate_trace_aliasing_fast

__all__ = [
    "ClosedSystemConfig",
    "ClosedSystemResult",
    "DEFAULT_ENGINES",
    "ENGINES",
    "HybridPipelineConfig",
    "HybridPipelineResult",
    "IsolationCostConfig",
    "IsolationCostResult",
    "OpenSystemConfig",
    "OpenSystemResult",
    "OverflowConfig",
    "OverflowDistribution",
    "OverflowResult",
    "PlacementConflictConfig",
    "PlacementConflictResult",
    "SweepFailure",
    "SweepResult",
    "SweepTelemetry",
    "TableABConfig",
    "TableABResult",
    "ThroughputConfig",
    "ThroughputResult",
    "TraceAliasConfig",
    "TraceAliasResult",
    "available_engines",
    "characterize_overflow",
    "collision_probability_estimate",
    "cross_thread_conflicts",
    "fleet_summary",
    "get_engine",
    "intra_thread_alias_counts",
    "overflow_distribution",
    "plain_read_violation_rate",
    "plain_write_violation_rate",
    "run_sweep",
    "run_sweep_parallel",
    "simulate_closed_system",
    "simulate_closed_system_fast",
    "simulate_htm_overflow",
    "simulate_htm_overflow_fast",
    "simulate_hybrid_pipeline",
    "simulate_isolation_cost",
    "simulate_open_system",
    "simulate_open_system_heterogeneous",
    "simulate_placement_conflicts",
    "simulate_table_ab",
    "simulate_throughput",
    "simulate_trace_aliasing",
    "simulate_trace_aliasing_fast",
    "sweep_grid",
    "throughput_curve",
]
