"""The ``sweeps`` workload: closed-loop sweep submissions over HTTP.

One client with one keep-alive connection submits ``POST /v1/sweeps``
bodies from its seeded schedule back to back, so each sweep computes on
its own: its latency is its own cost, not how it happened to share the
interpreter lock with another sweep.  A
miss (202) is followed to its last byte by reading ``format=rows``
NDJSON windows from the running offset at a fixed poll interval; a hit
(200, ``cache_hit``) answers inline.  After the timed window every
completed miss is submitted once more, back to back on an otherwise idle
server, which times the cache-hit path.  Checks: the concatenated
windows equal one full row read, a hit's result equals its miss's result
byte for byte, and after the timed window a seeded sample of results
equals an in-process ``execute_sweep`` recompute.
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Any, Iterable, Optional

import numpy as np

from perfbench import schedule, tracing
from perfbench.common import (
    POLL,
    SUBMIT,
    Connection,
    Outcome,
    disk_bytes,
    hist_quantile,
    metric,
    service_layers,
    spawn_setups,
    start_server,
    work_dir,
)
from perfbench.stats import Tally, summarize


class _Client:
    """One closed-loop client: its schedule, connection and records."""

    def __init__(self, ops: Iterable[schedule.SweepOp], port: int,
                 poll_s: float, timeout_s: float) -> None:
        self.ops = ops
        self.conn = Connection("127.0.0.1", port, timeout=timeout_s)
        self.poll_s = poll_s
        self.timeout_s = timeout_s
        self.tally = Tally()
        self.miss_s: list[float] = []
        self.hit_s: list[float] = []
        self.probe_s: list[float] = []
        self.results: dict[int, str] = {}  # stream index -> result JSON of a miss
        self.completed: list[tuple[bytes, str]] = []  # (body, result JSON)
        self.posts = self.gets = self.windows = self.misses = self.hits = 0
        self.refused = 0
        self.stream_bytes = 0
        self.error: Optional[BaseException] = None

    def _get(self, target: str):
        self.gets += 1
        return self.conn.request("GET", target)

    def run(self, deadline: float) -> None:
        try:
            for i, op in enumerate(self.ops):
                if time.perf_counter() >= deadline:
                    return
                self._one(i, op)
        except BaseException as exc:  # reported by the caller, never lost
            self.error = exc
        finally:
            self.conn.close()

    def _one(self, i: int, op: schedule.SweepOp) -> None:
        started = time.perf_counter()
        try:
            self.posts += 1
            resp = self.conn.request("POST", SUBMIT, op.body)
            if resp.status not in (200, 202):
                self.refused += resp.status == 429
                self.tally.fail(f"submit answered {resp.status}")
                return
            reply = resp.json()
            if reply["cache_hit"]:
                self._hit(i, op, reply, time.perf_counter() - started)
            else:
                self._miss(i, op, reply["id"], started)
        except OSError as exc:
            self.tally.fail(f"transport: {type(exc).__name__}")

    def _hit(self, i: int, op: schedule.SweepOp, reply: dict, seconds: float) -> None:
        self.hits += 1
        self.hit_s.append(seconds)
        expected = self.results.get(op.hit_of) if op.hit_of is not None else None
        if expected is None:
            self.tally.fail("cache hit without a completed miss to compare")
        elif json.dumps(reply["result"]) != expected:
            self.tally.fail("cache hit differs from its miss")
        else:
            self.tally.ok()

    def probe_hits(self) -> None:
        """Re-submit every completed miss once, back to back: all hits.

        Run after the timed window, when no sweep is computing, so the
        hit latency measures the cache and HTTP path rather than how long
        the event loop waited for the interpreter lock.
        """
        try:
            for body, result in self.completed:
                started = time.perf_counter()
                self.posts += 1
                resp = self.conn.request("POST", SUBMIT, body)
                seconds = time.perf_counter() - started
                if resp.status != 200 or not resp.json()["cache_hit"]:
                    self.tally.fail(f"re-submission answered {resp.status} without a hit")
                    continue
                self.hits += 1
                self.probe_s.append(seconds)
                if json.dumps(resp.json()["result"]) == result:
                    self.tally.ok()
                else:
                    self.tally.fail("cache hit differs from its miss")
        except OSError as exc:
            self.tally.fail(f"transport: {type(exc).__name__}")
        finally:
            self.conn.close()

    def _miss(self, i: int, op: schedule.SweepOp, job: str, started: float) -> None:
        self.misses += 1
        target = POLL.format(id=job)
        offset = 0
        streamed = []
        while True:
            self.windows += 1
            resp = self._get(f"{target}?format=rows&offset={offset}")
            if resp.status != 200:
                self.tally.fail(f"row window answered {resp.status}")
                return
            streamed.append(resp.body)
            offset += int(resp.headers["x-sweep-count"])
            if (resp.headers["x-sweep-complete"] == "true"
                    and offset == int(resp.headers["x-sweep-points-total"])):
                break
            if time.perf_counter() - started > self.timeout_s:
                self.tally.fail("sweep timed out")
                return
            time.sleep(self.poll_s)
        self.miss_s.append(time.perf_counter() - started)
        body = b"".join(streamed)
        self.stream_bytes += len(body)
        full = self._get(f"{target}?format=rows")
        if full.status != 200 or full.body != body:
            self.tally.fail("row windows differ from the full row read")
            return
        while True:  # the frame completes just before the job settles
            status = self._get(target)
            state = status.json()["state"] if status.status == 200 else "error"
            if state not in ("queued", "running"):
                break
            if time.perf_counter() - started > self.timeout_s:
                state = "timed out"
                break
            time.sleep(self.poll_s)
        if state != "succeeded":
            self.tally.fail(f"job ended {state}")
            return
        result = json.dumps(status.json()["result"])
        self.results[i] = result
        self.completed.append((op.body, result))
        self.tally.ok()


def _recompute(completed: list[tuple[bytes, str]], count: int, seed: int,
               tally: Tally) -> int:
    """Re-run a seeded sample of completed sweeps in process; returns count."""
    from repro.sim.catalog import execute_sweep, validate_sweep_request

    rng = np.random.default_rng([seed, 0xC4EC])
    picks = rng.choice(len(completed), size=min(count, len(completed)), replace=False)
    for index in sorted(int(p) for p in picks):
        body, served = completed[index]
        kind, params, sweep_seed, jobs, _ = validate_sweep_request(json.loads(body))
        if json.dumps(execute_sweep(kind, params, sweep_seed, jobs)) != served:
            tally.reject(f"{kind} result differs from an in-process recompute")
    return len(picks)


def run(seed: int, seconds: float, trace: bool, cfg: dict[str, Any]) -> Outcome:
    params = cfg["sweeps"]
    work = work_dir("sweeps")
    out = Outcome()
    serve_args = ["--cache-dir", str(work / "cache"), *params["serve_args"]]
    # Set-up probes get a cache directory of their own, empty before and
    # after the load alike.
    probe_args = ["--cache-dir", str(work / "probe-cache"), *params["serve_args"]]
    before = params["setups"] // 2
    setups = spawn_setups(work, probe_args, before, trace)
    server = start_server(work, serve_args, trace)
    setups.append(server.setup_s)
    try:
        client = _Client(schedule.sweep_schedule(seed, params["mix"]), server.port,
                         params["poll_interval_s"], params["timeout_s"])
        started = time.perf_counter()
        client.run(started + seconds)
        elapsed = time.perf_counter() - started
        if client.error is not None:
            raise client.error
        client.probe_hits()
        samples = server.scrape()
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    setups += spawn_setups(work, probe_args, params["setups"] - before - 1, trace)

    out.tally.merge(client.tally)
    recomputed = _recompute(client.completed, params["recompute_sample"], seed, out.tally)

    misses = summarize(client.miss_s)
    hits = summarize(client.probe_s)
    done = len(client.miss_s) + len(client.hit_s)
    tail = f"sweep_p{misses.tail_pct:g}_s" if misses.tail_pct else "sweep_max_s"
    out.e2e = {
        "setup_s": (statistics.median(setups), len(setups), "server spawn to /healthz"),
        "peak_rss_mb": (rss, 1, "server peak RSS"),
        "p50_ms": (misses.median * 1e3, misses.n, "sweep_p50_s x 1000"),
        "tail_ms": (misses.tail * 1e3, misses.n, f"{tail} x 1000"),
        "light_p50_ms": (hits.median * 1e3, hits.n,
                         "sweep_hit_p50_ms, every miss re-submitted after the window"),
        "throughput_per_s": (done / elapsed, done, "sweeps_per_s"),
    }

    posts, gets, windows = client.posts, client.gets, client.windows
    n_misses, n_hits, refused = client.misses, client.hits, client.refused
    ep = 'endpoint="{}"'
    out.check(metric(samples, "repro_requests_total", ep.format(SUBMIT)) == posts,
              "repro_requests_total for /v1/sweeps disagrees with the client")
    out.check(metric(samples, "repro_requests_total", ep.format(POLL)) == gets,
              "repro_requests_total for /v1/sweeps/{id} disagrees with the client")
    out.check(metric(samples, "repro_cache_hits_total") == n_hits,
              "repro_cache_hits_total disagrees with the hits the client saw")
    out.check(metric(samples, "repro_cache_misses_total") == n_misses,
              "repro_cache_misses_total disagrees with the misses the client saw")
    out.check(metric(samples, "repro_queue_rejections_total") == refused,
              "repro_queue_rejections_total disagrees with the 429s the client saw")
    out.check(recomputed > 0, "no completed sweep to recompute")

    layers = service_layers(samples)
    layers.update({
        "frame.stream_bytes": float(client.stream_bytes),
        "http.polls_per_sweep": windows / n_misses if n_misses else 0.0,
        "queue.wait_p50_ms": hist_quantile(samples, "repro_queue_wait_seconds", 0.5) * 1e3,
        "queue.wait_p90_ms": hist_quantile(samples, "repro_queue_wait_seconds", 0.9) * 1e3,
        "queue.rejected": float(refused),
    })
    if trace:
        spans, counters = tracing.load([server.trace_out])
        layers.update(tracing.metrics(spans, counters))
        layers["cache.disk_bytes"] = disk_bytes(work / "cache")
        out.check(counters.get("catalog.validate_calls", 0.0) == posts,
                  "traced SweepKind.validate calls disagree with submissions")
        out.check(counters.get("cache.lookups", 0.0)
                  == posts + counters.get("cluster.chunks", 0.0),
                  "traced cache lookups are not one per submission plus one "
                  "per cluster chunk")
    out.layers = layers
    return out
