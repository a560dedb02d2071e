"""Parameter-sweep utilities.

The paper "exhaustively evaluates the space spanned by" N × C × W grids;
these helpers express that as data: build the grid, run a function at
every point, and collect results keyed by their coordinates so reports
can slice by any axis.

:func:`run_sweep` is the one place that picks an execution mode:

* serially, in this process (the default, and any ``jobs`` <= 1);
* ``jobs > 1`` — :func:`repro.sim.parallel.run_sweep_parallel` shards
  the grid across a process pool and reassembles results in grid order;
* ``cluster=k`` —
  :func:`repro.cluster.coordinator.run_sweep_cluster_from_callable`
  leases chunks to ``k`` in-process cluster workers.

Every mode derives each point's randomness only from the point's
coordinates (via :func:`repro.util.rng.point_seed` when ``seed`` is
given), so all three return bit-identical :class:`SweepResult` objects.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Optional

from repro.util.rng import point_seed

__all__ = ["SweepResult", "run_sweep", "sweep_grid"]


def sweep_grid(**axes: Iterable[Any]) -> list[dict[str, Any]]:
    """Cartesian product of named axes as a list of parameter dicts.

    ``sweep_grid(n=[1024, 4096], w=[5, 10])`` yields four dicts in
    row-major (last axis fastest) order. Axis order follows keyword
    order, so reports iterate deterministically.

    Axes may be any iterable — generators and other one-shot iterators
    are materialized up front, so ``sweep_grid(n=range(3), w=(2**k for
    k in range(4)))`` works. An axis with no values is still an error.
    """
    if not axes:
        return [{}]
    names = list(axes)
    columns = []
    for name, values in axes.items():
        column = list(values)
        if not column:
            raise ValueError(f"axis {name!r} has no values")
        columns.append(column)
    return [dict(zip(names, combo)) for combo in itertools.product(*columns)]


@dataclass
class SweepResult:
    """Results of a sweep: parallel lists of points and outcomes.

    ``telemetry`` is ``None`` for serial sweeps; the parallel engine
    attaches a :class:`repro.sim.parallel.SweepTelemetry` describing the
    run (wall time, throughput, worker utilization, retries).
    """

    points: list[dict[str, Any]] = field(default_factory=list)
    outcomes: list[Any] = field(default_factory=list)
    telemetry: Optional[Any] = None

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(zip(self.points, self.outcomes))

    def where(self, **criteria: Any) -> "SweepResult":
        """Sub-sweep matching all ``criteria`` exactly.

        ``sweep.where(c=2)`` selects one Figure 4(a) line family.  One
        boolean-mask pass over the rows, then one selection pass — no
        per-criterion intermediates.  (The frame-backed subclass does
        the same mask as vectorized column comparisons.)
        """
        items = criteria.items()
        mask = [
            all(point.get(k) == v for k, v in items) for point in self.points
        ]
        return SweepResult(
            points=[p for p, keep in zip(self.points, mask) if keep],
            outcomes=[o for o, keep in zip(self.outcomes, mask) if keep],
        )

    def series(self, x: str, y: Callable[[Any], float]) -> tuple[list[Any], list[float]]:
        """Extract an (x-values, y-values) series for plotting/printing.

        ``y`` maps each outcome to a number, e.g.
        ``lambda r: r.conflict_probability``.
        """
        xs = [point[x] for point in self.points]
        ys = [y(outcome) for outcome in self.outcomes]
        return xs, ys

    def axis_values(self, name: str) -> list[Any]:
        """Distinct values of one axis, in first-seen order."""
        seen: set[Any] = set()
        ordered: list[Any] = []
        for point in self.points:
            value = point.get(name)
            try:
                fresh = value not in seen
                if fresh:
                    seen.add(value)
            except TypeError:  # unhashable axis value: fall back to a scan
                fresh = value not in ordered
            if fresh:
                ordered.append(value)
        return ordered


def _call_point(
    fn: Callable[..., Any],
    point: Mapping[str, Any],
    seed: Optional[int],
    label: str,
) -> Any:
    """Evaluate ``fn`` at one grid point, injecting a per-point seed.

    Shared by the serial and parallel runners so both make the exact
    same call — the determinism contract between them lives here.
    """
    kwargs = dict(point)
    if seed is not None:
        kwargs["seed"] = point_seed(seed, label, **point)
    return fn(**kwargs)


def run_sweep(
    fn: Callable[..., Any],
    points: Iterable[Mapping[str, Any]],
    *,
    seed: Optional[int] = None,
    label: str = "sweep-point",
    frame: Optional[Any] = None,
    jobs: Optional[int] = None,
    cluster: Optional[int] = None,
    cache: Optional[Any] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    on_point: Optional[Callable[[int, Any], None]] = None,
) -> SweepResult:
    """Evaluate ``fn(**point)`` at every grid point, collecting results.

    When ``seed`` is given, each call also receives an independent
    ``seed=`` keyword derived from :func:`repro.util.rng.point_seed`
    keyed by the point's coordinates, so outcomes are independent of
    evaluation order and of the execution mode:

    * ``cluster=k`` distributes the grid over ``k`` in-process cluster
      workers, each fanning its chunks over ``jobs`` processes; ``cache``
      (a :class:`repro.service.cache.ResultCache`) is probed per chunk.
      ``fn`` must be clusterable, else :class:`ValueError` is raised
      before any point runs.
    * ``jobs > 1`` runs on a process pool; ``progress(done, total)`` is
      called from this process as points settle.
    * otherwise (``jobs`` of ``None`` or <= 1) points run serially here.

    Pool and cluster runs attach their telemetry to the result.

    ``on_point(index, outcome)`` (serial and pool runs) is called from
    this process as each point settles, with the point's position in
    ``points``; pool runs settle out of grid order, and a point that
    failed on the pool arrives as a
    :class:`repro.sim.parallel.SweepFailure`.  An exception it raises
    aborts the sweep (the pool is torn down) and propagates.

    When ``frame`` (a :class:`repro.sim.frame.SweepFrame` sized to the
    grid) is given, results accumulate into its typed columns instead of
    dict lists and the returned result is the frame's lazy row view —
    byte-identical to the dict path, but with mid-run progress visible
    through the frame's filled prefix.
    """
    # The delegates are looked up as module attributes at call time, so
    # a wrapper installed on either module sees every dispatched sweep.
    if cluster is not None:
        if on_point is not None:
            raise ValueError("on_point is not supported on cluster sweeps")
        from repro.cluster import coordinator

        return coordinator.run_sweep_cluster_from_callable(
            fn, list(points), seed=seed, label=label, workers=cluster,
            jobs_per_worker=jobs or 1, cache=cache, frame=frame,
        )
    if jobs is not None and jobs > 1:
        from repro.sim import parallel

        return parallel.run_sweep_parallel(
            fn, points, jobs=jobs, seed=seed, label=label,
            progress=progress, frame=frame, on_point=on_point,
        )
    result = SweepResult()
    for index, point in enumerate(points):
        outcome = _call_point(fn, point, seed, label)
        if frame is None:
            result.points.append(dict(point))
            result.outcomes.append(outcome)
        else:
            frame.fill(index, point, outcome)
        if on_point is not None:
            on_point(index, outcome)
    if frame is None:
        return result
    from repro.sim.frame import FrameBackedSweepResult

    return FrameBackedSweepResult(frame)
