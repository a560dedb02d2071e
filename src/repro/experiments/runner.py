"""The orchestrator behind ``repro experiments run``.

One call of :func:`run_experiments` executes every paper figure (or a
subset) at the requested quality tier, checkpointing each chunk of each
figure through the content-addressed
:class:`~repro.service.cache.ResultCache` on disk under the output dir.
The per-run :class:`~repro.experiments.manifest.RunManifest` pins what
is being computed (spec hashes) and how it is chunked, so an
interrupted run restarted with the same command replays its chunk walk,
finds every finished chunk already in the cache, and converges on a
byte-identical report artifact.

Execution modes share one checkpoint namespace:

* serial / ``--jobs N`` — the runner walks chunks itself, evaluating
  misses via :func:`repro.sim.sweep.run_sweep` (serially or on the
  process pool);
* ``--cluster N`` — an in-process elastic fleet: a
  :class:`~repro.cluster.coordinator.Coordinator` (which probes the
  same cache, keyed by :func:`~repro.cluster.coordinator.chunk_cache_key`)
  plus N :class:`~repro.cluster.worker.WorkerThread` loops, with work
  stealing enabled and optional mid-run membership churn (one injected
  departure, one late join) for elasticity tests and the CI smoke job.

Because engines are deterministic and chunk keys are content-addressed,
the same run can even switch modes between interrupt and resume and
still reuse every finished chunk.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, Sequence

from repro.cluster.coordinator import (
    ClusterError,
    Coordinator,
    CoordinatorConfig,
    CoordinatorThread,
    chunk_cache_key,
)
from repro.cluster.protocol import ClusterTask, chunk_grid, task_from_callable
from repro.cluster.worker import WorkerConfig, WorkerThread
from repro.experiments.artifact import write_artifact
from repro.experiments.manifest import RunManifest
from repro.experiments.sizing import DEFAULT_TARGET_SECONDS, ChunkSizer
from repro.experiments.specs import EXPERIMENTS, QUALITIES, ExperimentSpec
from repro.service.cache import ResultCache, cache_key
from repro.sim.catalog import SWEEP_KINDS
from repro.sim.frame import FrameBackedSweepResult, SweepFrame
from repro.sim.sweep import SweepResult, run_sweep

__all__ = [
    "ExperimentInterrupted",
    "ExperimentsConfig",
    "ExperimentsResult",
    "FigureTelemetry",
    "run_experiments",
]

CACHE_DIR = "cache"


class ExperimentInterrupted(Exception):
    """Deterministic fault injection tripped (``crash_after_chunks``).

    Raised *after* the triggering chunk's result and manifest state hit
    disk, so the interrupted run is exactly what a SIGKILL between two
    chunks would leave behind — the shape the resume tests exercise
    without needing a subprocess.
    """


@dataclass(frozen=True)
class FigureTelemetry:
    """What one figure's execution cost, and where the chunks came from.

    ``cache_hits`` + ``computed_chunks`` equals ``chunks``; a resumed
    run shows all hits and no computation.  ``workers`` is 0 for
    local execution; ``leases_stolen`` is only nonzero under
    ``--cluster`` with stealing triggered.
    """

    figure: str
    kind: str
    n_points: int
    chunks: int
    chunk_size: int
    cache_hits: int
    computed_chunks: int
    wall_seconds: float
    workers: int = 0
    leases_stolen: int = 0

    def summary(self) -> str:
        """One log line: ``fig4a: 20 points, 3/5 chunks cached, 1.2s``."""
        return (
            f"{self.figure}: {self.n_points} points, "
            f"{self.cache_hits}/{self.chunks} chunks cached, "
            f"{self.computed_chunks} computed in {self.wall_seconds:.2f}s"
            + (f", workers={self.workers}, stolen={self.leases_stolen}"
               if self.workers else "")
        )


@dataclass(frozen=True)
class ExperimentsConfig:
    """Everything one ``repro experiments run`` needs.

    Attributes
    ----------
    out_dir:
        Output directory: manifest, chunk cache and report artifact all
        live here; point a rerun at the same dir to resume.
    quality:
        Grid tier, ``smoke`` or ``normal``.
    seed:
        Master seed shared by every figure.
    jobs:
        Local process-pool width (mutually exclusive with ``cluster``).
    cluster:
        Elastic in-process worker count (mutually exclusive with
        ``jobs``).
    figures:
        Subset of figure ids to run; ``None`` runs all of them.
    lease_ttl:
        Cluster lease ttl; work stealing kicks in at half of it.
    chunk_target_seconds:
        Adaptive sizing target per lease.
    figure_timeout:
        Per-figure wall-clock cap for cluster runs.
    crash_after_chunks:
        Deterministic interrupt: raise
        :class:`ExperimentInterrupted` after this many *computed*
        chunks (local modes only).  ``None`` disables.
    elastic_depart_after:
        Inject one worker departure: the first cluster figure's first
        worker vanishes mid-chunk after completing this many chunks.
    elastic_join_after:
        Inject one late join: an extra worker joins the first cluster
        figure this many seconds after it starts.
    """

    out_dir: Path
    quality: str = "smoke"
    seed: int = 0
    jobs: Optional[int] = None
    cluster: Optional[int] = None
    figures: Optional[Sequence[str]] = None
    lease_ttl: float = 10.0
    chunk_target_seconds: float = DEFAULT_TARGET_SECONDS
    figure_timeout: float = 600.0
    crash_after_chunks: Optional[int] = None
    elastic_depart_after: Optional[int] = None
    elastic_join_after: Optional[float] = None

    def __post_init__(self) -> None:
        if self.quality not in QUALITIES:
            raise ValueError(
                f"quality must be one of {', '.join(QUALITIES)}, got {self.quality!r}"
            )
        if self.jobs is not None and self.cluster is not None:
            raise ValueError("jobs and cluster are mutually exclusive")
        if self.jobs is not None and self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.cluster is not None and self.cluster < 1:
            raise ValueError(f"cluster must be >= 1, got {self.cluster}")
        if self.figures is not None:
            unknown = sorted(set(self.figures) - set(EXPERIMENTS))
            if unknown:
                known = ", ".join(EXPERIMENTS)
                raise ValueError(
                    f"unknown figure(s) {', '.join(unknown)}; expected from: {known}"
                )
        if self.lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be positive, got {self.lease_ttl}")
        if self.crash_after_chunks is not None and self.crash_after_chunks < 1:
            raise ValueError(
                f"crash_after_chunks must be >= 1, got {self.crash_after_chunks}"
            )


@dataclass(frozen=True)
class ExperimentsResult:
    """What a completed run produced, and how."""

    out_dir: Path
    manifest_path: Path
    report_md: Path
    report_json: Path
    figures: tuple[FigureTelemetry, ...]

    @property
    def cache_hits(self) -> int:
        """Chunks served from the checkpoint cache across all figures."""
        return sum(t.cache_hits for t in self.figures)

    @property
    def computed_chunks(self) -> int:
        """Chunks actually evaluated across all figures."""
        return sum(t.computed_chunks for t in self.figures)


def _selected(cfg: ExperimentsConfig) -> list[ExperimentSpec]:
    wanted = set(cfg.figures) if cfg.figures is not None else None
    return [
        spec for fig, spec in EXPERIMENTS.items()
        if wanted is None or fig in wanted
    ]


def _log(message: str) -> None:
    print(f"[experiments] {message}", file=sys.stderr, flush=True)


class _Interrupter:
    """Counts computed chunks and trips ``crash_after_chunks``."""

    def __init__(self, after: Optional[int]) -> None:
        self.after = after
        self.computed = 0

    def chunk_computed(self) -> None:
        """Record one computed chunk; raise once the budget is spent."""
        self.computed += 1
        if self.after is not None and self.computed >= self.after:
            raise ExperimentInterrupted(
                f"injected interrupt after {self.computed} computed chunks"
            )


def _run_figure_local(
    fn: Callable[..., Any],
    task: ClusterTask,
    grid: list[dict[str, Any]],
    chunk_size: int,
    cache: ResultCache,
    jobs: Optional[int],
    on_chunk_done: Callable[[int], None],
    interrupter: _Interrupter,
    frame: Optional[SweepFrame] = None,
) -> tuple[SweepResult, int, int]:
    """Walk one figure's chunks locally; returns (sweep, hits, computed)."""
    chunks = chunk_grid(len(grid), chunk_size)
    outcomes: list[Any] = []
    hits = computed = 0
    for chunk in chunks:
        points = [dict(p) for p in grid[chunk.start:chunk.stop]]
        key = chunk_cache_key(task, points)
        hit, cached = cache.lookup(key)
        if hit and len(cached) == chunk.count:
            outcomes.extend(cached)
            if frame is not None:
                frame.fill_many(chunk.start, points, cached)
            hits += 1
            on_chunk_done(hits + computed)
            continue
        sweep = run_sweep(fn, points, jobs=jobs)
        cache.put(key, list(sweep.outcomes))
        outcomes.extend(sweep.outcomes)
        if frame is not None:
            frame.fill_many(chunk.start, points, list(sweep.outcomes))
        computed += 1
        on_chunk_done(hits + computed)
        interrupter.chunk_computed()
    if frame is not None and frame.complete:
        return FrameBackedSweepResult(frame), hits, computed
    return SweepResult(points=grid, outcomes=outcomes), hits, computed


def _run_figure_cluster(
    task: ClusterTask,
    grid: list[dict[str, Any]],
    chunk_size: int,
    cache: ResultCache,
    cfg: ExperimentsConfig,
    depart_after: Optional[int],
    join_after: Optional[float],
    frame: Optional[SweepFrame] = None,
) -> SweepResult:
    """Run one figure on an elastic in-process fleet.

    ``depart_after``/``join_after`` inject one membership change each:
    worker 0 crashes mid-chunk after ``depart_after`` completed chunks
    (its lease expires and the chunk is reassigned), and one extra
    worker joins ``join_after`` seconds into the run.  Work stealing is
    enabled at half the lease ttl.
    """
    assert cfg.cluster is not None
    coordinator = Coordinator(
        task,
        grid,
        CoordinatorConfig(
            lease_ttl=cfg.lease_ttl,
            chunk_size=chunk_size,
            expected_workers=cfg.cluster,
            steal_min_age=cfg.lease_ttl / 2,
        ),
        cache=cache,
        frame=frame,
    )
    handle = CoordinatorThread(coordinator)
    handle.start()
    fleet: list[WorkerThread] = []
    try:
        for i in range(cfg.cluster):
            fleet.append(
                WorkerThread(
                    WorkerConfig(
                        coordinator=handle.url,
                        worker_id=f"exp-{i}",
                        crash_after=depart_after if i == 0 else None,
                    )
                ).start()
            )
        join_at = None if join_after is None else time.monotonic() + join_after
        deadline = time.monotonic() + cfg.figure_timeout
        while not coordinator.wait(0.05):
            now = time.monotonic()
            if join_at is not None and now >= join_at:
                fleet.append(
                    WorkerThread(
                        WorkerConfig(
                            coordinator=handle.url,
                            worker_id=f"exp-join-{len(fleet)}",
                        )
                    ).start()
                )
                join_at = None
            if now > deadline:
                raise ClusterError(
                    f"figure did not complete within {cfg.figure_timeout:g}s"
                )
            if not any(w.alive for w in fleet) and join_at is None:
                raise ClusterError(
                    f"all workers exited with run {coordinator.run_id} "
                    f"incomplete: {coordinator.leases.snapshot()}"
                )
        return coordinator.result(timeout=0.0)
    finally:
        coordinator.drain()
        for w in fleet:
            w.stop(timeout=10.0)
        handle.stop()


def _model_figure_key(spec: ExperimentSpec, params: Mapping[str, Any],
                      seed: int) -> str:
    """Checkpoint key for a non-clusterable (single-shot) figure."""
    return cache_key(
        {"kind": "experiments-figure", "sweep_kind": spec.kind,
         "params": dict(params)},
        seed,
    )


def run_experiments(cfg: ExperimentsConfig) -> ExperimentsResult:
    """Execute every selected figure, checkpointed and resumable.

    Creates (or resumes) the manifest under ``cfg.out_dir``, walks the
    figures in report order, assembles each kind's result, and writes
    the deterministic report artifact.  Raises
    :class:`~repro.experiments.manifest.ManifestMismatch` if the output
    dir holds an incompatible run, :class:`ExperimentInterrupted` when
    fault injection trips, and :class:`ClusterError` if the elastic
    fleet cannot finish a figure.
    """
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cache = ResultCache(disk_dir=out_dir / CACHE_DIR)
    manifest = RunManifest.load(out_dir)
    if manifest is None:
        manifest = RunManifest(quality=cfg.quality, seed=cfg.seed)
    else:
        for warning in manifest.check_resume(cfg.quality, cfg.seed):
            _log(warning)
        _log("resuming from existing manifest")
    manifest.complete = False
    sizer = ChunkSizer(cfg.chunk_target_seconds)
    workers = cfg.cluster if cfg.cluster is not None else (cfg.jobs or 1)
    interrupter = _Interrupter(cfg.crash_after_chunks)
    depart_after = cfg.elastic_depart_after
    join_after = cfg.elastic_join_after
    results: dict[str, dict[str, Any]] = {}
    all_params: dict[str, dict[str, Any]] = {}
    telemetry: list[FigureTelemetry] = []

    for spec in _selected(cfg):
        kind = SWEEP_KINDS[spec.kind]
        params = spec.params(cfg.quality)
        all_params[spec.figure] = params
        record = manifest.plan_figure(spec.figure, spec.kind, params, cfg.seed)
        started = time.perf_counter()

        if not kind.clusterable:
            manifest.pin_chunking(spec.figure, 1, 1)
            manifest.save(out_dir)
            key = _model_figure_key(spec, params, cfg.seed)
            hit, cached = cache.lookup(key)
            if hit:
                result, hits, computed = cached, 1, 0
            else:
                result = kind.execute(params, cfg.seed, cfg.jobs)
                cache.put(key, result)
                hits, computed = 0, 1
            results[spec.figure] = result
            manifest.mark_done(spec.figure)
            manifest.save(out_dir)
            fig_t = FigureTelemetry(
                figure=spec.figure, kind=spec.kind, n_points=1, chunks=1,
                chunk_size=1, cache_hits=hits, computed_chunks=computed,
                wall_seconds=time.perf_counter() - started,
            )
            telemetry.append(fig_t)
            _log(fig_t.summary())
            if computed:
                interrupter.chunk_computed()
            continue

        fn = kind.bind(params, cfg.seed)
        task = task_from_callable(fn)
        grid = kind.grid(params)
        recommended = sizer.recommend(len(grid), workers)
        chunk_size = manifest.pin_chunking(
            spec.figure, recommended, len(chunk_grid(len(grid), recommended))
        )
        manifest.save(out_dir)

        def on_chunk_done(done: int, figure: str = spec.figure) -> None:
            manifest.mark_progress(figure, done)
            manifest.save(out_dir)

        stolen = 0
        frame = kind.make_frame(params)
        if cfg.cluster is not None:
            sweep = _run_figure_cluster(
                task, grid, chunk_size, cache, cfg, depart_after, join_after,
                frame=frame,
            )
            depart_after = join_after = None  # one churn event each per run
            hits = sweep.telemetry.cache_hits
            computed = len(chunk_grid(len(grid), chunk_size)) - hits
            stolen = sweep.telemetry.leases_stolen
            cluster_workers = max(1, sweep.telemetry.workers)
        else:
            try:
                sweep, hits, computed = _run_figure_local(
                    fn, task, grid, chunk_size, cache, cfg.jobs,
                    on_chunk_done, interrupter, frame=frame,
                )
            except ExperimentInterrupted:
                manifest.save(out_dir)
                raise
            cluster_workers = 0

        wall = time.perf_counter() - started
        if computed:
            sizer.observe(
                computed * chunk_size, wall, workers if workers > 0 else 1
            )
        results[spec.figure] = kind.assemble(params, sweep)
        manifest.mark_done(spec.figure)
        manifest.save(out_dir)
        fig_t = FigureTelemetry(
            figure=spec.figure, kind=spec.kind, n_points=len(grid),
            chunks=len(chunk_grid(len(grid), chunk_size)),
            chunk_size=chunk_size, cache_hits=hits, computed_chunks=computed,
            wall_seconds=wall, workers=cluster_workers, leases_stolen=stolen,
        )
        telemetry.append(fig_t)
        _log(fig_t.summary())

    report_md, report_json = write_artifact(
        out_dir, cfg.quality, cfg.seed, results, all_params
    )
    manifest.complete = True
    manifest_path = manifest.save(out_dir)
    _log(
        f"run complete: {sum(t.cache_hits for t in telemetry)} chunks cached, "
        f"{sum(t.computed_chunks for t in telemetry)} computed; "
        f"artifact at {report_md}"
    )
    return ExperimentsResult(
        out_dir=out_dir,
        manifest_path=manifest_path,
        report_md=report_md,
        report_json=report_json,
        figures=tuple(telemetry),
    )
