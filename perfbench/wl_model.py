"""The ``model`` workload: closed-form model endpoints over HTTP.

Phase one is open loop, for a fixed share of ``--seconds`` before the
timed window: seeded Poisson arrivals at a fixed rate, sent by two
threads with one keep-alive connection each, every request timed from
the moment it was due, so a stall also charges the requests queued
behind it.  Its latencies are per-layer figures (``loadgen.*``), and are
not recorded at all when the generator itself fell behind its schedule.
Phase two is the timed window, ``--seconds`` long: a closed loop on one
connection over a fixed pool of batch POSTs, which gives the end-to-end
numbers: request latency, and saturation throughput in model points per
second.  One connection needs one virtual CPU at a time, so losing the
other to a neighbour on the host does not queue requests behind each
other.  A scalar GET waits out the micro-batch window on a timer, so its
latency is mostly how late an idle virtual CPU wakes up; it is printed,
and reported as a per-layer figure, but not bounded.  Every response
body must equal the bytes computed in process from ``repro.core`` before
the run.
"""

from __future__ import annotations

import hashlib
import statistics
import threading
import time
from typing import Any, Optional

from perfbench import expect, schedule, tracing
from perfbench.common import (
    HTTP_ENDPOINTS,
    Connection,
    Outcome,
    metric,
    service_layers,
    spawn_setups,
    start_server,
    work_dir,
)
from perfbench.stats import Tally, summarize

CONNECTIONS = 2


class _Sender:
    """Sends requests on one connection and checks every answer."""

    def __init__(self, port: int, timeout_s: float) -> None:
        self.conn = Connection("127.0.0.1", port, timeout=timeout_s)
        self.tally = Tally()
        self.sent: dict[str, int] = {}
        self.points: dict[str, int] = {}
        self.error: Optional[BaseException] = None

    def send(self, req: schedule.ModelRequest, digest: bytes) -> bool:
        endpoint = req.endpoint
        self.sent[endpoint] = self.sent.get(endpoint, 0) + 1
        try:
            resp = self.conn.request(req.method, req.target, req.body)
        except OSError as exc:
            self.tally.fail(f"transport: {type(exc).__name__}")
            return False
        if resp.status != 200:
            self.tally.fail(f"{endpoint} answered {resp.status}")
            return False
        self.points[endpoint] = self.points.get(endpoint, 0) + req.points
        if hashlib.sha256(resp.body).digest() != digest:
            self.tally.fail(f"{endpoint} {req.method} body differs from repro.core")
            return False
        self.tally.ok()
        return True


def _open_loop(senders: list[_Sender], requests: list[schedule.ModelRequest],
               digests: list[bytes], arrivals: Any) -> tuple[list, list, list]:
    """Send each request at its due time.

    Returns the latency of every correct answer from its due time, the
    generator's lateness per request, and the latency of every correct
    scalar GET from the moment it was sent.
    """
    lock = threading.Lock()
    cursor = iter(range(len(requests)))
    latency: list[float] = []
    late: list[float] = []
    scalar_latency: list[float] = []
    start = time.perf_counter() + 0.05

    def loop(sender: _Sender) -> None:
        try:
            free_at = time.perf_counter()
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                due = start + float(arrivals[i])
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                sent_at = time.perf_counter()
                late.append(sent_at - max(due, free_at))
                if sender.send(requests[i], digests[i]):
                    done = time.perf_counter()
                    latency.append(done - due)
                    if requests[i].method == "GET":
                        scalar_latency.append(done - sent_at)
                free_at = time.perf_counter()
        except BaseException as exc:  # reported by the caller, never lost
            sender.error = exc

    threads = [threading.Thread(target=loop, args=(s,), daemon=True) for s in senders]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return latency, late, scalar_latency


def _closed_loop(sender: _Sender, requests: list[schedule.ModelRequest],
                 digests: list[bytes], seconds: float) -> tuple[float, list[float]]:
    """One connection back to back over the pool for ``seconds``.

    Returns the model points per second answered correctly over the
    whole phase, and the latency of every correct answer.  The host's
    speed flips between two levels every few seconds, so the rate is
    taken over the whole phase: it moves smoothly with the share of time
    spent at each level.
    """
    points = 0
    latency: list[float] = []
    start = time.perf_counter()
    deadline = start + seconds
    j = 0
    while time.perf_counter() < deadline:
        i = j % len(requests)
        j += 1
        sent_at = time.perf_counter()
        if sender.send(requests[i], digests[i]):
            latency.append(time.perf_counter() - sent_at)
            points += requests[i].points
    return points / (time.perf_counter() - start), latency


def run(seed: int, seconds: float, trace: bool, cfg: dict[str, Any]) -> Outcome:
    params = cfg["model"]
    work = work_dir("model")
    out = Outcome()
    open_s = seconds * params["open_share"]
    arrivals = schedule.open_loop_arrivals(seed, params["rate_per_s"], open_s)
    requests = schedule.model_requests(seed, 0, len(arrivals), params["mix"])
    pool = schedule.model_requests(seed, 1, params["saturation_pool"],
                                   {**params["mix"], **params["saturation_mix"]})
    digests = [expect.expected_digest(r.endpoint, r.method, r.params) for r in requests]
    pool_digests = [expect.expected_digest(r.endpoint, r.method, r.params) for r in pool]

    before = params["setups"] // 2
    setups = spawn_setups(work, [], before, trace)
    server = start_server(work, [], trace)
    setups.append(server.setup_s)
    try:
        senders = [_Sender(server.port, params["timeout_s"]) for _ in range(CONNECTIONS)]
        open_latency, late, scalar_latency = _open_loop(
            senders, requests, digests, arrivals
        )
        rate, latency = _closed_loop(senders[0], pool, pool_digests, seconds)
        for s in senders:
            s.conn.close()
            if s.error is not None:
                raise s.error
        samples = server.scrape()
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    setups += spawn_setups(work, [], params["setups"] - before - 1, trace)

    for s in senders:
        out.tally.merge(s.tally)
    # The saturation loop answers 3 000-4 000 batch POSTs; a program
    # 2.5 times faster would reach the p99.9 rung, so the tail is pinned
    # at p99 to keep runs before and after such a change comparable.
    lat = summarize(latency, ceiling=99.0)
    light = summarize(scalar_latency)
    tail = f"p{lat.tail_pct:g}" if lat.tail_pct else "max"
    out.e2e = {
        "setup_s": (statistics.median(setups), len(setups), "server spawn to /healthz"),
        "peak_rss_mb": (rss, 1, "server peak RSS"),
        "p50_ms": (lat.median * 1e3, lat.n, "model_p50_ms, saturation loop"),
        "tail_ms": (lat.tail * 1e3, lat.n, f"model_{tail}_ms, saturation loop"),
        "light_p50_ms": (light.median * 1e3, light.n,
                         "scalar GET p50 from send, open loop"),
        "throughput_per_s": (rate, lat.n, "model_points_per_s, saturation loop"),
    }

    layers = service_layers(samples)
    late_stats = summarize(late)
    layers["loadgen.late_p99_ms"] = late_ms = late_stats.tail * 1e3
    if late_ms <= params["late_p99_limit_ms"]:
        opened = summarize(open_latency)
        layers["loadgen.open_p50_ms"] = opened.median * 1e3
        layers["loadgen.open_p99_ms"] = opened.tail * 1e3
    else:
        # The generator missed its own schedule: its latencies would
        # charge the server with the generator's delay, so none are kept.
        print(f"[model] open loop invalid: generator p{late_stats.tail_pct:g} "
              f"lateness {late_ms:.3f} ms > {params['late_p99_limit_ms']} ms; "
              "open-loop latencies not recorded")
        layers["loadgen.open_p50_ms"] = layers["loadgen.open_p99_ms"] = 0.0

    for key, endpoint in HTTP_ENDPOINTS.items():
        if key not in ("conflict", "sizing", "capacity", "birthday"):
            continue
        label = f'endpoint="{endpoint}"'
        sent = sum(s.sent.get(key, 0) for s in senders)
        served = sum(s.points.get(key, 0) for s in senders)
        out.check(metric(samples, "repro_requests_total", label) == sent,
                  f"repro_requests_total for {endpoint} disagrees with the client")
        out.check(metric(samples, "repro_model_points_total", label) == served,
                  f"repro_model_points_total for {endpoint} disagrees with the client")

    if trace:
        spans, counters = tracing.load([server.trace_out])
        layers.update(tracing.metrics(spans, counters))
        flushes = metric(samples, "repro_microbatch_flushes_total")
        out.check(
            sum(1 for sp in spans if sp.name == "core") >= flushes,
            "fewer traced repro.core calls than micro-batch flushes",
        )
    out.layers = layers
    return out
