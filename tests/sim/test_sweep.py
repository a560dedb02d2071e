"""Tests for sweep utilities."""

from __future__ import annotations

import pytest

from repro.sim.parallel import SweepFailure
from repro.sim.sweep import SweepResult, run_sweep, sweep_grid


def product(n, w):
    return n * w


def fail_on_three(n, w):
    if n == 3:
        raise ValueError("three is bad")
    return n * w


class TestGrid:
    def test_cartesian_product(self):
        grid = sweep_grid(n=[1, 2], w=[10, 20, 30])
        assert len(grid) == 6
        assert grid[0] == {"n": 1, "w": 10}
        assert grid[-1] == {"n": 2, "w": 30}

    def test_last_axis_fastest(self):
        grid = sweep_grid(a=[1, 2], b=[3, 4])
        assert [g["b"] for g in grid[:2]] == [3, 4]

    def test_empty_axes(self):
        assert sweep_grid() == [{}]

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            sweep_grid(n=[])

    def test_generator_axis(self):
        """One-shot iterators are materialized, not crashed on ``len``
        or silently drained by the emptiness check."""
        grid = sweep_grid(n=(2**k for k in range(3)), w=[10, 20])
        assert grid == sweep_grid(n=[1, 2, 4], w=[10, 20])

    def test_range_and_map_axes(self):
        grid = sweep_grid(a=range(2), b=map(int, "35"))
        assert grid == [
            {"a": 0, "b": 3},
            {"a": 0, "b": 5},
            {"a": 1, "b": 3},
            {"a": 1, "b": 5},
        ]

    def test_empty_generator_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            sweep_grid(n=(x for x in ()))

    def test_generator_grid_runs(self):
        result = run_sweep(lambda n, w: n * w, sweep_grid(n=iter([2, 3]), w=[10]))
        assert result.outcomes == [20, 30]


class TestRunSweep:
    def test_collects_outcomes(self):
        result = run_sweep(lambda n, w: n * w, sweep_grid(n=[2, 3], w=[10]))
        assert result.outcomes == [20, 30]
        assert len(result) == 2

    def test_points_copied(self):
        grid = sweep_grid(n=[1])
        result = run_sweep(lambda n: n, grid)
        result.points[0]["n"] = 99
        assert grid[0]["n"] == 1


class TestOnPoint:
    @pytest.mark.parametrize("jobs", [None, 2])
    def test_every_point_settles_once_with_its_outcome(self, jobs):
        grid = sweep_grid(n=[1, 2, 3, 4, 5], w=[10, 20])
        seen = {}
        result = run_sweep(product, grid, jobs=jobs,
                           on_point=lambda i, o: seen.setdefault(i, o))
        assert seen == dict(enumerate(result.outcomes))

    def test_pool_failure_arrives_as_sweep_failure(self):
        failed = []

        def on_point(index, outcome):
            if isinstance(outcome, SweepFailure):
                failed.append((index, outcome.point))

        run_sweep(fail_on_three, sweep_grid(n=[1, 3], w=[10]), jobs=2,
                  on_point=on_point)
        assert failed == [(1, {"n": 3, "w": 10})]

    @pytest.mark.parametrize("jobs", [None, 2])
    def test_callback_exception_aborts_the_sweep(self, jobs):
        def on_point(index, outcome):
            raise KeyError("stop")

        with pytest.raises(KeyError, match="stop"):
            run_sweep(product, sweep_grid(n=[1, 2, 3], w=[1]), jobs=jobs,
                      on_point=on_point)

    def test_cluster_rejects_on_point(self):
        with pytest.raises(ValueError, match="on_point"):
            run_sweep(product, sweep_grid(n=[1], w=[1]), cluster=1,
                      on_point=lambda i, o: None)


class TestSweepResult:
    def make(self):
        return run_sweep(lambda n, w: n * w, sweep_grid(n=[1, 2], w=[10, 20]))

    def test_where(self):
        sub = self.make().where(n=2)
        assert len(sub) == 2
        assert all(p["n"] == 2 for p in sub.points)

    def test_where_no_match(self):
        assert len(self.make().where(n=99)) == 0

    def test_series(self):
        xs, ys = self.make().where(n=1).series("w", lambda v: float(v))
        assert xs == [10, 20]
        assert ys == [10.0, 20.0]

    def test_axis_values(self):
        assert self.make().axis_values("w") == [10, 20]

    def test_iteration(self):
        pairs = list(self.make())
        assert pairs[0] == ({"n": 1, "w": 10}, 10)

    def test_where_multiple_criteria(self):
        # Multi-criterion selection is one mask pass; every criterion
        # must hold simultaneously, not in sequence.
        sub = self.make().where(n=2, w=10)
        assert sub.points == [{"n": 2, "w": 10}]
        assert sub.outcomes == [20]

    def test_where_missing_key_matches_nothing(self):
        assert len(self.make().where(n=2, zzz=1)) == 0

    def test_where_preserves_pairing(self):
        # Points and outcomes must be selected by the same mask — a
        # regression guard for the single-pass rewrite.
        result = self.make()
        sub = result.where(w=20)
        for point, outcome in sub:
            assert outcome == point["n"] * point["w"]
