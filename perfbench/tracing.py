"""Per-layer spans recorded around calls into the program's layers.

Tracing lives entirely in the benchmark: :func:`install` replaces each
layer's public function under the name its caller looks it up by (a
``from``-import binds early, so e.g. ``cross_thread_conflicts`` is
patched in every simulation module that imported it, and engines are
patched inside the ``repro.sim.engines.ENGINES`` registry that
``get_engine`` reads).  A wrapper records one span per call — name,
start, end and parent — and optional counts, and keeps everything in
memory until :meth:`Tracer.dump` at the end of the run.

Process-pool workers are forked from a traced process, so they inherit
the wrappers.  The pool kills its workers at teardown, so a worker
cannot write its spans at exit; instead it appends them to
``spans-<pid>.jsonl`` in the tracer's spill directory each time its
outermost span ends, which is before the worker hands its result back.
:func:`load` merges every file.  Parents are tracked per thread, so a span's self time excludes
only children recorded on its own thread: work a span waits for on
another thread or process counts as its own (waiting) time.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

__all__ = [
    "LAYERS",
    "RATIOS",
    "Span",
    "Tracer",
    "install",
    "layer_metrics",
    "load",
    "metrics",
    "self_times",
    "union_length",
]

#: Span names whose calls/busy/self times are reported, in report order.
LAYERS = (
    "montecarlo",
    "engine.open",
    "engine.trace",
    "engine.closed",
    "engine.overflow",
    "engine.placement",
    "engine.fig7",
    "catalog",
    "sweep",
    "parallel",
    "frame",
    "cluster",
    "cache",
    "core",
    "experiments",
)


@dataclass(frozen=True)
class Span:
    """One call into a layer: ``[start, end]`` on the monotonic clock."""

    id: str
    parent: Optional[str]
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> dict[str, float]:
    """Span id -> duration minus the part of it its children cover.

    Children are clipped to the parent's interval and their overlaps
    merged, so nested or concurrent children are never subtracted twice.
    """
    children: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out: dict[str, float] = {}
    for span in spans:
        clipped = [
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(span.id, ())
        ]
        out[span.id] = span.duration - union_length(clipped)
    return out


def layer_metrics(spans: Sequence[Span], layers: Sequence[str] = LAYERS
                  ) -> dict[str, float]:
    """``<layer>.calls``, ``.busy_s`` and ``.self_s`` for every layer.

    ``busy_s`` sums the durations of a layer's outermost spans (a span
    nested inside another span of the same layer is not counted twice);
    ``self_s`` sums every span's self time.  Layers never reached read 0.
    """
    by_id = {span.id: span for span in spans}
    selfs = self_times(spans)

    def nested_in_same_layer(span: Span) -> bool:
        parent = by_id.get(span.parent) if span.parent else None
        while parent is not None:
            if parent.name == span.name:
                return True
            parent = by_id.get(parent.parent) if parent.parent else None
        return False

    out: dict[str, float] = {}
    for layer in layers:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.busy_s"] = 0.0
        out[f"{layer}.self_s"] = 0.0
    for span in spans:
        if span.name not in layers:
            continue
        out[f"{span.name}.calls"] += 1
        out[f"{span.name}.self_s"] += selfs[span.id]
        if not nested_in_same_layer(span):
            out[f"{span.name}.busy_s"] += span.duration
    return out


#: Counters reported as they were summed.
COUNTS = (
    "montecarlo.cells",
    "catalog.validation_errors",
    "parallel.retries",
    "cluster.chunks",
    "cluster.leases_stolen",
    "cluster.retries",
    "core.points",
)


#: Metrics that are ratios, not totals.
RATIOS = ("parallel.worker_utilization", "cache.hit_ratio")


def metrics(spans: Sequence[Span], counters: Mapping[str, float]
            ) -> dict[str, float]:
    """Every traced per-layer metric: layer times, counts and ratios."""
    out: dict[str, float] = dict(layer_metrics(spans))
    for key in COUNTS:
        out[key] = float(counters.get(key, 0.0))
    capacity = counters.get("parallel.capacity_s", 0.0)
    out["parallel.worker_utilization"] = (
        counters.get("parallel.point_busy_s", 0.0) / capacity if capacity else 0.0
    )
    lookups = counters.get("cache.lookups", 0.0)
    out["cache.hit_ratio"] = counters.get("cache.hits", 0.0) / lookups if lookups else 0.0
    return out


Counter = Callable[[tuple, dict, Any], Mapping[str, float]]


class Tracer:
    """Collects spans and counters from wrapped calls, in memory."""

    def __init__(self, spill_dir: Optional[Path] = None) -> None:
        self.spill_dir = spill_dir
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._pid = os.getpid()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._spill_to: Optional[Path] = None

    def _stack(self) -> list[str]:
        if os.getpid() != self._pid:
            self._forked()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _forked(self) -> None:
        # First traced call in a forked pool worker: drop the parent's
        # copy of the spans; this process spills its own as it goes.
        self._pid = os.getpid()
        self.spans = []
        self.counters = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._spill_to = (
            self.spill_dir / f"spans-{self._pid}.jsonl"
            if self.spill_dir is not None else None
        )

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add to a named counter (thread-safe)."""
        with self._lock:
            self.counters[name] += amount

    def wrap(self, name: str, fn: Callable[..., Any], *,
             counter: Optional[Counter] = None,
             materialize: bool = False) -> Callable[..., Any]:
        """``fn`` recording one span named ``name`` per call.

        ``counter(args, kwargs, result)`` returns counts to add after a
        successful call.  ``materialize`` drains a returned iterator
        inside the span, so the span covers the work, not the creation
        of a generator.
        """

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            span_id = f"{self._pid}:{next(self._ids)}"
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    result = iter(list(result))
            finally:
                end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append(Span(span_id, parent, name, start, end))
            if counter is not None:
                for key, amount in counter(args, kwargs, result).items():
                    self.count(key, amount)
            if self._spill_to is not None and not stack:
                self.dump(self._spill_to)
            return result

        return traced

    def dump(self, path: Path) -> None:
        """Append the spans and counters held so far as one JSON line.

        They are dropped from memory once written, so dumping again
        later appends only what was recorded since.
        """
        with self._lock:
            spans, self.spans = self.spans, []
            counters, self.counters = self.counters, defaultdict(float)
        payload = {
            "spans": [[s.id, s.parent, s.name, s.start, s.end] for s in spans],
            "counters": dict(counters),
        }
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(payload) + "\n")


def load(paths: Iterable[Path]) -> tuple[list[Span], dict[str, float]]:
    """Merge dumped span files into one span list and counter dict."""
    spans: list[Span] = []
    counters: dict[str, float] = defaultdict(float)
    for path in paths:
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            payload = json.loads(line)
            spans.extend(Span(*row) for row in payload["spans"])
            for key, value in payload["counters"].items():
                counters[key] += value
    return spans, dict(counters)


# -- the layer boundaries ---------------------------------------------


def _cells(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    import numpy as np

    entries = args[0] if args else kwargs["entries"]
    return {"montecarlo.cells": float(np.size(entries))}


def _validation_errors(fn: Callable[..., Any], tracer: Tracer) -> Callable[..., Any]:
    from repro.sim.catalog import SweepValidationError

    @functools.wraps(fn)
    def validate(*args: Any, **kwargs: Any) -> Any:
        tracer.count("catalog.validate_calls")
        try:
            return fn(*args, **kwargs)
        except SweepValidationError:
            tracer.count("catalog.validation_errors")
            raise

    return validate


def _parallel_telemetry(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    tel = result.telemetry
    if tel is None:
        return {}
    return {
        "parallel.point_busy_s": tel.busy_seconds,
        "parallel.capacity_s": tel.wall_seconds * tel.jobs,
        "parallel.retries": tel.retries,
    }


def _cluster_telemetry(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    tel = result.telemetry
    if tel is None:
        return {}
    chunks = -(-tel.n_points // tel.chunk_size) if tel.chunk_size else 0
    return {
        "cluster.chunks": chunks,
        "cluster.leases_stolen": tel.leases_stolen,
        "cluster.retries": tel.retries,
    }


def _cache_lookup(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    return {"cache.lookups": 1.0, "cache.hits": 1.0 if result[0] else 0.0}


def _core_points(batch: bool) -> Counter:
    def count(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
        import numpy as np

        return {"core.points": float(np.size(args[0])) if batch else 1.0}

    return count


def _patch(tracer: Tracer, owner: Any, attr: str, name: str, **wrap_kwargs: Any
           ) -> None:
    original = getattr(owner, attr)
    setattr(owner, attr, tracer.wrap(name, original, **wrap_kwargs))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on.

    Call once per process, before the program runs; patches are
    process-wide and are never removed.
    """
    import repro.cluster.coordinator as coordinator
    import repro.experiments.manifest as manifest
    import repro.experiments.runner as runner
    import repro.service.cache as cache
    import repro.service.server as server
    import repro.sim.catalog as catalog
    import repro.sim.engines as engines
    import repro.sim.frame as frame
    import repro.sim.montecarlo as montecarlo
    import repro.sim.open_system as open_system
    import repro.sim.parallel as parallel
    import repro.sim.placement as placement
    import repro.sim.trace_driven as trace_driven
    import repro.sim.trace_fast as trace_fast

    kernels = {
        "cross_thread_conflicts": montecarlo.cross_thread_conflicts,
        "intra_thread_alias_counts": montecarlo.intra_thread_alias_counts,
    }
    for module in (montecarlo, open_system, trace_driven, trace_fast, placement):
        for attr, original in kernels.items():
            if attr in vars(module):
                setattr(module, attr,
                        tracer.wrap("montecarlo", original, counter=_cells))

    for kind, table in engines.ENGINES.items():
        for engine_name, fn in list(table.items()):
            table[engine_name] = tracer.wrap(f"engine.{kind}", fn)
    _patch(tracer, placement, "simulate_placement_conflicts", "engine.placement")
    _patch(tracer, placement, "simulate_table_ab", "engine.fig7")

    catalog.SweepKind.validate = tracer.wrap(  # type: ignore[method-assign]
        "catalog", _validation_errors(catalog.SweepKind.validate, tracer)
    )
    _patch(tracer, catalog.SweepKind, "assemble", "catalog")
    points: dict[Any, Callable[..., Any]] = {}
    for kind in catalog.SWEEP_KINDS.values():
        if kind.point is None:
            continue
        if kind.point not in points:
            wrapped = tracer.wrap("catalog", kind.point)
            points[kind.point] = wrapped
            # Cluster workers and pickled pool tasks resolve the point
            # callable by module attribute, so patch it there too.
            setattr(catalog, kind.point.__name__, wrapped)
        kind.point = points[kind.point]

    _patch(tracer, catalog, "run_sweep", "sweep")
    _patch(tracer, runner, "run_sweep", "sweep")
    _patch(tracer, parallel, "run_sweep_parallel", "parallel",
           counter=_parallel_telemetry)
    for method in ("fill", "fill_many", "to_wire"):
        _patch(tracer, frame.SweepFrame, method, "frame")
    _patch(tracer, frame.SweepFrame, "rows", "frame", materialize=True)
    _patch(tracer, coordinator, "run_sweep_cluster_from_callable", "cluster",
           counter=_cluster_telemetry)
    _patch(tracer, cache.ResultCache, "lookup", "cache", counter=_cache_lookup)
    _patch(tracer, cache.ResultCache, "put", "cache")

    for attr in (
        "birthday_collision_probability",
        "people_for_collision_probability",
        "conflict_likelihood",
        "conflict_likelihood_product_form",
        "table_entries_for_commit_probability",
        "pow2_table_entries_for_commit_probability",
    ):
        _patch(tracer, server, attr, "core", counter=_core_points(False))
        _patch(tracer, server, f"{attr}_batch", "core", counter=_core_points(True))

    _patch(tracer, runner, "run_experiments", "experiments")
    _patch(tracer, runner, "write_artifact", "experiments.artifact")
    _patch(tracer, manifest.RunManifest, "save", "experiments.manifest")
