"""The ``figures`` workload: the whole paper reproduction, end to end.

Every repetition is a fresh process (``perfbench.figures_rep``) running
all eight figures at ``normal`` quality with the process pool into a
fresh output directory, then resuming into the same directory, where
every chunk comes from the disk checkpoint cache.  Each ``report.json``
must be byte-identical to a serial run with the same seed, computed once
per invocation before the timed repetitions; for the default seed the
serial report must also match the digest pinned in ``config.json``.
While a repetition runs, its process tree's memory is sampled from
``/proc``; throughput is counted per CPU-second of the runner and its
pool workers.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Optional

from perfbench import tracing
from perfbench.common import ROOT, Outcome, child_env, disk_bytes, work_dir
from perfbench.stats import summarize


def _tree_pss_mb(root: int) -> float:
    """Proportional set size of ``root`` and all its descendants, in MB.

    PSS splits each page among the processes that map it, so pages a
    forked pool worker still shares with the runner count once.
    Processes that exit while being read are skipped.
    """
    parents: dict[int, list[int]] = {}
    for entry in os.scandir("/proc"):
        if entry.name.isdigit():
            try:
                stat = Path(f"/proc/{entry.name}/stat").read_text()
            except OSError:
                continue
            ppid = int(stat.rsplit(")", 1)[1].split()[1])
            parents.setdefault(ppid, []).append(int(entry.name))
    total_kb = 0
    frontier = [root]
    while frontier:
        pid = frontier.pop()
        frontier.extend(parents.get(pid, ()))
        try:
            rollup = Path(f"/proc/{pid}/smaps_rollup").read_text()
        except OSError:
            continue
        for line in rollup.splitlines():
            if line.startswith("Pss:"):
                total_kb += int(line.split()[1])
                break
    return total_kb / 1024.0


class _PeakMemory:
    """Samples a process tree's memory every ``interval`` s; keeps the peak."""

    def __init__(self, pid: int, interval: float = 0.1) -> None:
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._sample, args=(pid, interval), daemon=True
        )
        self._thread.start()

    def _sample(self, pid: int, interval: float) -> None:
        while True:
            self.peak_mb = max(self.peak_mb, _tree_pss_mb(pid))
            if self._stop.wait(interval):
                return

    def stop(self) -> float:
        self._stop.set()
        self._thread.join()
        return self.peak_mb


def _reproduce(work: Path, name: str, seed: int, jobs: int, quality: str, *,
               resumes: int = 0, probe: bool = False,
               trace_dir: Optional[Path] = None, timeout: float = 170.0,
               ) -> tuple[float, Optional[dict[str, Any]]]:
    """Run one repetition; returns (set-up seconds, its JSON record).

    The record gains ``peak_mb``, the process tree's sampled peak
    memory.  A ``probe`` only starts the process and imports the runner,
    for a set-up sample; it has no record.
    """
    cmd = [sys.executable, "-m", "perfbench.figures_rep",
           "--out", str(work / name), "--seed", str(seed),
           "--jobs", str(jobs), "--quality", quality, "--resumes", str(resumes)]
    if probe:
        cmd.append("--probe")
    if trace_dir is not None:
        trace_dir.mkdir()
        cmd += ["--trace-dir", str(trace_dir)]
    with open(work / f"{name}.err", "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                stdout=subprocess.PIPE, stderr=err, text=True)
        memory = None if probe else _PeakMemory(proc.pid)
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - started
            rest, _ = proc.communicate(timeout=timeout)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
            peak_mb = memory.stop() if memory is not None else 0.0
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(
            f"figures repetition {name} failed (exit {proc.returncode}); "
            f"see {work / (name + '.err')}"
        )
    if probe:
        return setup_s, None
    record = json.loads(rest.strip().splitlines()[-1])
    record["peak_mb"] = peak_mb
    return setup_s, record


def run(seed: int, seconds: float, trace: bool, cfg: dict[str, Any]) -> Outcome:
    params = cfg["figures"]
    work = work_dir("figures")
    out = Outcome()

    _, reference = _reproduce(work, "serial", seed, 1, params["quality"])
    expected = reference["report_sha256"]
    if seed == params["pinned_seed"]:
        out.check(expected == params["pinned_report_sha256"],
                  f"serial report.json for seed {seed} does not match the "
                  f"pinned digest")

    def check(record: dict[str, Any]) -> None:
        checks = [(record["report_sha256"], "reproduction")]
        checks += [(d, "resumed reproduction") for d in record["resume_sha256"]]
        for digest, what in checks:
            if digest == expected:
                out.tally.ok()
            else:
                out.tally.fail(f"{what} report.json differs from the serial run")
        out.check(record["resume_chunks_computed"] == 0,
                  "a resumed reproduction recomputed chunks")

    # Set-up probes come half before the repetitions and half after, so
    # that the median spans the run.
    before = params["setup_probes"] // 2

    def probe(k: int) -> float:
        return _reproduce(work, f"probe-{k}", seed, 1, params["quality"], probe=True,
                          trace_dir=work / f"probe-spans-{k}" if trace else None)[0]

    setups = [probe(k) for k in range(before)]
    records: list[dict[str, Any]] = []
    trace_dirs: list[Path] = []
    started = time.perf_counter()
    # Repeat while another repetition, as long as the ones so far, still
    # ends within ``seconds``; always at least ``min_repetitions``.
    while (len(records) < params["min_repetitions"]
           or (time.perf_counter() - started) * (len(records) + 1) / len(records)
           <= seconds):
        k = len(records)
        trace_dir = work / f"spans-{k}" if trace else None
        setup_s, record = _reproduce(
            work, f"rep-{k}", seed, params["jobs"], params["quality"],
            resumes=params["resumes"],
            trace_dir=trace_dir,
        )
        setups.append(setup_s)
        records.append(record)
        if trace_dir is not None:
            trace_dirs.append(trace_dir)
        check(record)

    setups += [probe(k) for k in range(before, params["setup_probes"])]

    resume_s = [t for r in records for t in r["resume_s"]]
    run_s = [r["run_s"] for r in records]
    runs = summarize(run_s)
    resumes = summarize(resume_s)
    # Computed grid points per CPU-second of the runner and its pool
    # workers: what a reproduction costs, apart from how well it overlaps.
    points_per_cpu_s = (sum(r["points"] for r in records)
                        / sum(r["cpu_s"] for r in records))
    out.e2e = {
        "setup_s": (statistics.median(setups), len(setups),
                    "fresh process to runner imported"),
        "peak_rss_mb": (statistics.median(r["peak_mb"] for r in records),
                        len(records), "runner + pool workers peak PSS, sampled"),
        "p50_ms": (runs.median * 1e3, runs.n, "figures_s x 1000"),
        "tail_ms": (runs.tail * 1e3, runs.n,
                    "slowest figures_s x 1000 (too few runs for a tail percentile)"
                    if runs.tail_pct is None
                    else f"figures p{runs.tail_pct:g} x 1000"),
        "light_p50_ms": (resumes.median * 1e3, resumes.n,
                         "resumed figures_s x 1000, every chunk cached"),
        "throughput_per_s": (points_per_cpu_s, len(records),
                             "grid points per CPU-second, runner + pool workers"),
    }

    layers: dict[str, float] = {}
    for figure in records[0]["figures"]:
        layers[f"experiments.{figure}_s"] = statistics.median(
            r["figures"][figure] for r in records
        )
    layers["experiments.chunks_computed"] = float(records[0]["chunks_computed"])
    if trace:
        # Totals are per reproduction: summed over the repetitions, then
        # divided by their count.  Ratios are already per unit of work.
        spans, counters = tracing.load(
            p for d in trace_dirs for p in sorted(d.glob("spans-*.jsonl"))
        )
        traced = tracing.metrics(spans, counters)
        traced.update(tracing.layer_metrics(
            spans, ("experiments.manifest", "experiments.artifact")
        ))
        for key, value in traced.items():
            layers[key] = value if key in tracing.RATIOS else value / len(records)
        layers["experiments.manifest_write_s"] = layers.pop("experiments.manifest.busy_s")
        layers["experiments.artifact_write_s"] = layers.pop("experiments.artifact.busy_s")
        layers["cache.disk_bytes"] = disk_bytes(work / "rep-0" / "cache")
    out.layers = layers
    return out
