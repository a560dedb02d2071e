"""End-to-end tests of the resumable experiments orchestrator.

The resume contract under test: a run interrupted between two chunks
and restarted with the same command serves every finished chunk from
the checkpoint cache and produces a byte-identical report artifact —
including when the interrupted run and the resume use different
execution modes, and when the cluster fleet churns mid-run.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import pytest

import repro.sim.parallel as parallel
from repro.cluster.coordinator import chunk_cache_key
from repro.cluster.protocol import chunk_grid, task_from_callable
from repro.experiments import (
    EXPERIMENTS,
    ExperimentInterrupted,
    ExperimentPointFailed,
    ExperimentsConfig,
    ManifestMismatch,
    RunManifest,
    run_experiments,
)
from repro.experiments.runner import CACHE_DIR
from repro.service.cache import ResultCache
from repro.sim.catalog import SWEEP_KINDS
from repro.sim.engines import DEFAULT_ENGINES, ENGINES

SMALL = ("fig4a", "model")  # one clusterable sweep + the single-shot figure


def smoke_cfg(out_dir, **overrides):
    defaults = dict(out_dir=out_dir, quality="smoke", seed=7, figures=SMALL)
    defaults.update(overrides)
    return ExperimentsConfig(**defaults)


def artifact_bytes(result):
    return result.report_md.read_bytes(), result.report_json.read_bytes()


def checkpointed_chunks(out_dir, quality="smoke", seed=7):
    """(figure, chunk, cached outcomes) for every grid chunk in the cache.

    Rebuilds each planned figure's chunk keys from the manifest's pinned
    geometry, the same way the runner keys them.
    """
    manifest = RunManifest.load(out_dir)
    cache = ResultCache(disk_dir=out_dir / CACHE_DIR)
    found = []
    for figure, record in manifest.figures.items():
        kind = SWEEP_KINDS[record["kind"]]
        if not kind.clusterable or record["chunk_size"] is None:
            continue
        params = EXPERIMENTS[figure].params(quality)
        task = task_from_callable(kind.bind(params, seed))
        grid = kind.grid(params)
        for chunk in chunk_grid(len(grid), record["chunk_size"]):
            key = chunk_cache_key(task, grid[chunk.start:chunk.stop])
            hit, cached = cache.lookup(key)
            if hit:
                found.append((figure, chunk, cached))
    return found


def cache_files(out_dir):
    return [p for p in (out_dir / CACHE_DIR).rglob("*") if p.is_file()]


@pytest.fixture
def pool_count(monkeypatch):
    """Counts process pools the sweep engine constructs."""
    built = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", CountingPool)
    return built


class TestConfigValidation:
    def test_jobs_and_cluster_are_exclusive(self, tmp_path):
        with pytest.raises(ValueError, match="mutually exclusive"):
            ExperimentsConfig(out_dir=tmp_path, jobs=2, cluster=2)

    def test_unknown_figure_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown figure"):
            ExperimentsConfig(out_dir=tmp_path, figures=["fig99"])

    def test_unknown_quality_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="quality"):
            ExperimentsConfig(out_dir=tmp_path, quality="paper")


class TestSerialRun:
    def test_run_emits_manifest_and_artifact(self, tmp_path):
        result = run_experiments(smoke_cfg(tmp_path / "run"))
        assert result.report_md.exists() and result.report_json.exists()
        assert result.computed_chunks > 0 and result.cache_hits == 0
        manifest = RunManifest.load(tmp_path / "run")
        assert manifest.complete
        assert all(r["done"] for r in manifest.figures.values())
        assert set(manifest.figures) == set(SMALL)

    def test_rerun_is_all_cache_hits_and_byte_identical(self, tmp_path):
        first = run_experiments(smoke_cfg(tmp_path / "run"))
        second = run_experiments(smoke_cfg(tmp_path / "run"))
        assert second.computed_chunks == 0
        assert second.cache_hits == first.cache_hits + first.computed_chunks
        assert artifact_bytes(first) == artifact_bytes(second)

    def test_mismatched_seed_refuses_to_resume(self, tmp_path):
        run_experiments(smoke_cfg(tmp_path / "run"))
        with pytest.raises(ManifestMismatch):
            run_experiments(smoke_cfg(tmp_path / "run", seed=8))


class TestResumeAfterInterrupt:
    def test_interrupted_run_resumes_from_checkpoints(self, tmp_path):
        interrupted = tmp_path / "interrupted"
        with pytest.raises(ExperimentInterrupted):
            run_experiments(smoke_cfg(interrupted, crash_after_chunks=1))

        # the kill left a loadable manifest with pinned chunk geometry
        manifest = RunManifest.load(interrupted)
        assert manifest is not None and not manifest.complete
        pinned = {f: r["chunk_size"] for f, r in manifest.figures.items()}

        resumed = run_experiments(smoke_cfg(interrupted))
        assert resumed.cache_hits >= 1  # finished chunks were not recomputed
        after = RunManifest.load(interrupted)
        assert after.complete
        for figure, size in pinned.items():
            if size is not None:
                assert after.figures[figure]["chunk_size"] == size

        fresh = run_experiments(smoke_cfg(tmp_path / "fresh"))
        assert artifact_bytes(resumed) == artifact_bytes(fresh)

    def test_resume_can_switch_execution_mode(self, tmp_path):
        shared = tmp_path / "shared"
        with pytest.raises(ExperimentInterrupted):
            run_experiments(smoke_cfg(shared, crash_after_chunks=1))
        resumed = run_experiments(smoke_cfg(shared, jobs=2))
        assert resumed.cache_hits >= 1
        fresh = run_experiments(smoke_cfg(tmp_path / "fresh"))
        assert artifact_bytes(resumed) == artifact_bytes(fresh)


class TestElasticCluster:
    def test_elastic_run_matches_serial_bytes(self, tmp_path):
        elastic = run_experiments(
            smoke_cfg(
                tmp_path / "elastic",
                figures=("fig4a",),
                cluster=2,
                lease_ttl=2.0,
                elastic_depart_after=1,
                elastic_join_after=0.1,
            )
        )
        serial = run_experiments(
            smoke_cfg(tmp_path / "serial", figures=("fig4a",))
        )
        assert artifact_bytes(elastic) == artifact_bytes(serial)
        fig = elastic.figures[0]
        assert fig.workers >= 2  # late joiner was counted
        assert fig.computed_chunks + fig.cache_hits == fig.chunks


class TestProcessPoolRun:
    def test_one_pool_per_computed_grid_figure(self, tmp_path, pool_count):
        out = tmp_path / "run"
        first = run_experiments(smoke_cfg(out, figures=None, jobs=2))
        computed = [
            t for t in first.figures
            if SWEEP_KINDS[t.kind].clusterable and t.computed_chunks
        ]
        assert computed and sum(t.computed_chunks for t in computed) > len(computed)
        assert 0 < len(pool_count) <= len(computed)

        pool_count.clear()
        resumed = run_experiments(smoke_cfg(out, figures=None, jobs=2))
        assert resumed.computed_chunks == 0
        assert pool_count == []
        assert artifact_bytes(resumed) == artifact_bytes(first)

    def test_no_pool_worker_outlives_the_run(self, tmp_path):
        before = set(multiprocessing.active_children())
        run_experiments(smoke_cfg(tmp_path / "run", jobs=2))
        assert set(multiprocessing.active_children()) - before == set()

    def test_interrupted_pool_run_resumes_to_serial_bytes(self, tmp_path):
        out = tmp_path / "interrupted"
        with pytest.raises(ExperimentInterrupted):
            run_experiments(
                smoke_cfg(out, figures=None, jobs=2, crash_after_chunks=1)
            )
        chunks = checkpointed_chunks(out)
        assert chunks
        # every checkpoint holds one full chunk, and nothing else is on disk
        assert len(cache_files(out)) == len(chunks)
        for _, chunk, cached in chunks:
            assert len(cached) == chunk.count and None not in cached

        resumed = run_experiments(smoke_cfg(out, figures=None, jobs=2))
        assert resumed.cache_hits >= len(chunks)
        fresh = run_experiments(smoke_cfg(tmp_path / "fresh", figures=None))
        assert artifact_bytes(resumed) == artifact_bytes(fresh)

    def test_failing_point_names_itself_and_is_never_checkpointed(
        self, tmp_path, monkeypatch
    ):
        engine = DEFAULT_ENGINES["open"]
        healthy = ENGINES["open"][engine]

        def faulty(cfg, *args, **kwargs):
            if cfg.n_entries == 1024 and cfg.write_footprint == 8:
                raise RuntimeError("injected engine fault")
            return healthy(cfg, *args, **kwargs)

        # Pool workers are forked, so they inherit the patched registry.
        monkeypatch.setitem(ENGINES["open"], engine, faulty)
        out = tmp_path / "run"
        with pytest.raises(ExperimentPointFailed) as info:
            run_experiments(smoke_cfg(out, figures=("fig4a",), jobs=2))
        message = str(info.value)
        assert "fig4a" in message
        assert "'n': 1024" in message and "'w': 8" in message
        assert "injected engine fault" in message
        assert info.value.failure.point == {"n": 1024, "w": 8}

        chunks = checkpointed_chunks(out)
        assert len(cache_files(out)) == len(chunks)
        for _, chunk, cached in chunks:
            assert len(cached) == chunk.count
            assert chunk.stop <= 3  # never the chunk of index 3, (1024, 8)
