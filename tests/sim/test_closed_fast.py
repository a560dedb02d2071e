"""Differential tests: the fast closed-system engine vs the reference.

The optimized engine's contract is *byte-identical* results — same RNG
stream consumed in the same order, same transition rules — enforced
through the shared :mod:`tests.sim.engine_contract` harness: exact
equality (``==``, never ``approx``) on all four result fields across a
randomized N × C × W × α grid, hypothesis-drawn configs, and the
protocol's edge cases.  Also pins the numpy property the fast engine's
chunk prefetcher depends on: bounded-int64 sampling is
stream-concatenable.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.closed_fast import simulate_closed_system_fast
from repro.sim.closed_system import ClosedSystemConfig, simulate_closed_system
from repro.sim.engines import ENGINES, get_engine
from tests.sim.engine_contract import EngineContract, registry_test_class

CONTRACT = EngineContract(
    kind="closed",
    fields=("conflicts", "committed", "mean_occupancy", "expected_occupancy", "config"),
    run=lambda engine, cfg: engine(cfg),
)


def assert_identical(cfg: ClosedSystemConfig) -> None:
    """Both engines, exact equality on every measured field."""
    CONTRACT.assert_identical(cfg)


class TestDifferentialGrid:
    """Exact equality over a deliberately rough parameter grid."""

    @pytest.mark.parametrize("n", [64, 333, 1024, 4096])
    @pytest.mark.parametrize("c", [1, 2, 7])
    def test_identical_over_nc(self, n, c):
        assert_identical(
            ClosedSystemConfig(
                n_entries=n, concurrency=c, write_footprint=6, alpha=2, seed=n + c
            )
        )

    @pytest.mark.parametrize("w", [1, 2, 10, 17])
    @pytest.mark.parametrize("alpha", [0, 1, 3])
    def test_identical_over_w_alpha(self, w, alpha):
        assert_identical(
            ClosedSystemConfig(
                n_entries=512, concurrency=4, write_footprint=w, alpha=alpha,
                seed=13 * w + alpha,
            )
        )

    def test_identical_under_heavy_contention(self):
        """A small table at high concurrency aborts constantly — the
        regime where the engines' abort/release paths must agree."""
        assert_identical(
            ClosedSystemConfig(n_entries=128, concurrency=16, write_footprint=10, seed=9)
        )

    def test_identical_at_max_concurrency(self):
        assert_identical(
            ClosedSystemConfig(n_entries=2048, concurrency=63, write_footprint=3, seed=21)
        )

    def test_identical_with_custom_target(self):
        assert_identical(
            ClosedSystemConfig(
                n_entries=777, concurrency=5, write_footprint=4,
                target_transactions=101, seed=5,
            )
        )


class TestDifferentialProperty:
    @given(
        n=st.integers(32, 4096),
        c=st.integers(1, 24),
        w=st.integers(1, 12),
        alpha=st.integers(0, 3),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_identical_on_random_configs(self, n, c, w, alpha, seed):
        assert_identical(
            ClosedSystemConfig(
                n_entries=n, concurrency=c, write_footprint=w, alpha=alpha,
                target_transactions=60, seed=seed,
            )
        )


class TestEdgeCases:
    """Degenerate protocol corners, run on *both* engines."""

    @pytest.mark.parametrize("engine", sorted(ENGINES["closed"]))
    def test_alpha_zero_is_all_writes(self, engine):
        """α=0: every access is a write; F = W."""
        cfg = ClosedSystemConfig(n_entries=256, concurrency=4, write_footprint=8,
                                 alpha=0, seed=3)
        assert cfg.footprint == 8
        r = get_engine("closed", engine)(cfg)
        assert r.committed > 0
        assert_identical(cfg)

    @pytest.mark.parametrize("engine", sorted(ENGINES["closed"]))
    def test_single_thread_never_conflicts(self, engine):
        """C=1: no other thread exists, so nothing can refuse a claim."""
        cfg = ClosedSystemConfig(n_entries=64, concurrency=1, write_footprint=10, seed=4)
        r = get_engine("closed", engine)(cfg)
        assert r.conflicts == 0
        # One thread at one access per tick commits ~horizon/F times,
        # minus its stagger offset.
        assert r.committed in (649, 650)

    @pytest.mark.parametrize("engine", sorted(ENGINES["closed"]))
    def test_unit_footprint(self, engine):
        """W=1, α=0: one-access transactions commit the tick they start."""
        cfg = ClosedSystemConfig(n_entries=128, concurrency=4, write_footprint=1,
                                 alpha=0, seed=5)
        assert cfg.footprint == 1
        r = get_engine("closed", engine)(cfg)
        assert r.committed + r.conflicts > 0
        assert_identical(cfg)


class TestStreamConcatenation:
    """The numpy property the chunk prefetcher is built on.

    ``Generator.integers(0, n, size=a+b, dtype=int64)`` must produce
    exactly the concatenation of successive ``size=a`` and ``size=b``
    draws — i.e. bounded-int64 sampling consumes raw bit-stream words
    sequentially with no cross-call buffering.  If a numpy upgrade ever
    broke this, the fast engine would silently diverge; this test makes
    the break loud.
    """

    @pytest.mark.parametrize("n", [2, 100, 256, 1000, 4096, 10**9])
    def test_split_draws_equal_one_draw(self, n):
        a, b = 37, 91
        whole = np.random.default_rng(1234).integers(0, n, size=a + b, dtype=np.int64)
        rng = np.random.default_rng(1234)
        first = rng.integers(0, n, size=a, dtype=np.int64)
        second = rng.integers(0, n, size=b, dtype=np.int64)
        assert np.array_equal(whole, np.concatenate([first, second]))


TestRegistryContract = registry_test_class(
    "closed",
    reference=simulate_closed_system,
    fast=simulate_closed_system_fast,
    display="closed-system",
)


class TestEngineRegistry:
    """Kind-specific helpers layered over the shared registry contract."""

    def test_simulate_closed_dispatches(self):
        cfg = ClosedSystemConfig(n_entries=512, concurrency=2, write_footprint=5, seed=7)
        default = get_engine("closed")(cfg)
        ref = get_engine("closed", "reference")(cfg)
        fast = get_engine("closed", "fast")(cfg)
        assert default == fast == ref
