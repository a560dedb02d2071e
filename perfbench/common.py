"""Shared plumbing: checkout paths, the server process, ``/metrics``."""

from __future__ import annotations

import http.client
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from perfbench.stats import Tally

__all__ = [
    "CONFIG",
    "Connection",
    "HTTP_ENDPOINTS",
    "Outcome",
    "POLL",
    "SUBMIT",
    "ROOT",
    "Response",
    "ServerProcess",
    "child_env",
    "disk_bytes",
    "hist_mean",
    "hist_quantile",
    "load_config",
    "metric",
    "parse_metrics",
    "service_layers",
    "spawn_setups",
    "start_server",
    "warm_imports",
    "work_dir",
    "work_root",
]

ROOT = Path(__file__).resolve().parent.parent
CONFIG = Path(__file__).resolve().parent / "config.json"


@dataclass
class Outcome:
    """What one workload run measured and checked.

    ``e2e`` maps each end-to-end metric to ``(value, samples, label)``,
    where the label names what the metric measures on this workload.
    ``problems`` lists failed whole-run checks (an artifact digest, a
    counter that disagrees); each makes the run incorrect.
    """

    e2e: dict[str, tuple[float, int, str]] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    tally: Tally = field(default_factory=Tally)
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, problem: str) -> None:
        """Record ``problem`` unless ``ok``."""
        if not ok:
            self.problems.append(problem)


def load_config() -> dict[str, Any]:
    """The benchmark's fixed parameters (mix, rate, grids, digests)."""
    return json.loads(CONFIG.read_text(encoding="utf-8"))


def child_env() -> dict[str, str]:
    """Environment for child processes: the checkout's own sources first."""
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def warm_imports() -> None:
    """Import the program once, untimed, so bytecode caches exist.

    Set-up time is then what a user with an installed program waits
    for, the same on the first run in a checkout as on the tenth.
    """
    subprocess.run(
        [sys.executable, "-c",
         "import repro.cli, repro.service.server, repro.experiments.runner, "
         "repro.cluster.coordinator, repro.sim.parallel, perfbench.tracing"],
        cwd=ROOT, env=child_env(), check=True, timeout=120,
    )


def work_root() -> Path:
    """This process's working area inside the checkout."""
    return ROOT / ".perfbench_work" / str(os.getpid())


def work_dir(name: str) -> Path:
    """A fresh working directory under :func:`work_root`."""
    path = work_root() / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


@dataclass(frozen=True)
class Response:
    """Status, headers (case-insensitive) and raw body of one response."""

    status: int
    headers: http.client.HTTPMessage
    body: bytes

    def json(self) -> Any:
        return json.loads(self.body)


class Connection:
    """One keep-alive ``http.client`` connection (``TCP_NODELAY`` set by it).

    After any transport failure the socket is closed and the next
    request reconnects.  Protocol errors surface as ``ConnectionError``,
    so callers handle every transport failure as one ``OSError``.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self._http = http.client.HTTPConnection(host, port, timeout=timeout)

    def close(self) -> None:
        self._http.close()

    def request(self, method: str, target: str, body: Optional[bytes] = None
                ) -> Response:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        try:
            self._http.request(method, target, body, headers)
            resp = self._http.getresponse()
            return Response(resp.status, resp.headers, resp.read())
        except http.client.HTTPException as exc:
            self._http.close()
            raise ConnectionError(f"{type(exc).__name__}: {exc}") from exc
        except OSError:
            self._http.close()
            raise


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size of a live process, from ``VmHWM``."""
    status = Path(f"/proc/{pid}/status").read_text()
    kb = int(re.search(r"^VmHWM:\s+(\d+) kB", status, re.M).group(1))
    return kb / 1024.0


_SAMPLE = re.compile(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)$')


def parse_metrics(text: str) -> dict[tuple[str, str], float]:
    """Prometheus text -> ``{(name, labels): value}``; labels kept verbatim."""
    out: dict[tuple[str, str], float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match:
            name, labels, value = match.groups()
            out[(name, labels or "")] = float(value)
    return out


def metric(samples: dict[tuple[str, str], float], name: str,
           labels: str = "") -> float:
    """One sample's value, 0.0 when the series was never touched."""
    return samples.get((name, labels), 0.0)


def hist_mean(samples: dict[tuple[str, str], float], name: str,
              labels: str = "") -> float:
    """Mean of a histogram series (``_sum / _count``), 0.0 when empty."""
    count = metric(samples, f"{name}_count", labels)
    return metric(samples, f"{name}_sum", labels) / count if count else 0.0


def hist_quantile(samples: dict[tuple[str, str], float], name: str, q: float,
                  labels: str = "") -> float:
    """Quantile of a histogram series, linear within its bucket."""
    buckets = []
    for (series, lab), value in samples.items():
        if series != f"{name}_bucket":
            continue
        match = re.search(r'le="([^"]+)"', lab)
        rest = re.sub(r',?le="[^"]+"', "", lab)
        if match and rest == labels:
            buckets.append((float(match.group(1)), value))
    buckets.sort()
    total = buckets[-1][1] if buckets else 0.0
    if total == 0:
        return 0.0
    rank = q * total
    prev_bound, prev_count = 0.0, 0.0
    for bound, cumulative in buckets:
        if cumulative >= rank:
            if bound == float("inf"):
                return prev_bound
            span = cumulative - prev_count
            frac = (rank - prev_count) / span if span else 1.0
            return prev_bound + (bound - prev_bound) * frac
        prev_bound, prev_count = bound, cumulative
    return prev_bound


class ServerProcess:
    """``repro serve`` in a child process, through ``perfbench.serve``."""

    def __init__(self, work: Path, serve_args: list[str],
                 trace_out: Optional[Path] = None) -> None:
        self.work = work
        self.trace_out = trace_out
        cmd = [sys.executable, "-m", "perfbench.serve"]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        cmd += ["--", "--host", "127.0.0.1", "--port", "0", *serve_args]
        self._stderr = open(work / f"server-{time.monotonic_ns()}.err", "wb")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=self._stderr, text=True,
        )
        try:
            line = self.proc.stdout.readline()
            match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
            if match is None:
                raise RuntimeError(f"server did not report its port: {line!r}")
            self.port = int(match.group(1))
            self.setup_s = self._wait_healthy(started)
        except BaseException:
            self.stop()
            raise

    def _wait_healthy(self, started: float, timeout: float = 60.0) -> float:
        conn = Connection("127.0.0.1", self.port, timeout=5.0)
        try:
            while time.perf_counter() - started < timeout:
                try:
                    if conn.request("GET", "/healthz").status == 200:
                        return time.perf_counter() - started
                except OSError:
                    pass
                time.sleep(0.002)
        finally:
            conn.close()
        raise RuntimeError("server never answered /healthz")

    def connect(self, timeout: float = 30.0) -> Connection:
        return Connection("127.0.0.1", self.port, timeout=timeout)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def scrape(self) -> dict[tuple[str, str], float]:
        """Parsed ``GET /metrics``."""
        conn = self.connect()
        try:
            resp = conn.request("GET", "/metrics")
        finally:
            conn.close()
        if resp.status != 200:
            raise RuntimeError(f"/metrics answered {resp.status}")
        return parse_metrics(resp.body.decode("utf-8"))

    def stop(self, timeout: float = 30.0) -> None:
        """SIGINT (graceful drain), escalating to SIGKILL; always reaps."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._stderr.close()


SUBMIT = "/v1/sweeps"
POLL = "/v1/sweeps/{id}"

#: Per-layer metric key -> the endpoint label ``/metrics`` uses for it.
HTTP_ENDPOINTS = {
    "conflict": "/v1/model/conflict",
    "sizing": "/v1/model/sizing",
    "capacity": "/v1/model/capacity",
    "birthday": "/v1/birthday",
    "submit": SUBMIT,
    "poll": POLL,
}


def service_layers(samples: dict[tuple[str, str], float]) -> dict[str, float]:
    """The http and batching per-layer metrics, from one ``/metrics`` scrape."""
    non2xx = sum(
        value for (name, labels), value in samples.items()
        if name == "repro_responses_total" and not labels.startswith('status="2')
    )
    out = {"http.non2xx": non2xx}
    for key, endpoint in HTTP_ENDPOINTS.items():
        out[f"http.{key}_mean_ms"] = hist_mean(
            samples, "repro_request_latency_seconds", f'endpoint="{endpoint}"'
        ) * 1e3
    out["batching.flushes"] = metric(samples, "repro_microbatch_flushes_total")
    out["batching.occupancy_mean"] = hist_mean(samples, "repro_microbatch_occupancy")
    out["batching.flush_wait_mean_ms"] = hist_mean(
        samples, "repro_microbatch_flush_wait_seconds"
    ) * 1e3
    return out


def disk_bytes(path: Path) -> float:
    """Bytes in the regular files under ``path`` (0.0 if it is absent)."""
    if not path.exists():
        return 0.0
    return float(sum(p.stat().st_size for p in path.rglob("*") if p.is_file()))


def start_server(work: Path, serve_args: list[str], trace: bool) -> ServerProcess:
    """Spawn the server; a traced one writes its spans to ``trace_out``."""
    trace_out = work / f"server-spans-{time.monotonic_ns()}.jsonl" if trace else None
    return ServerProcess(work, serve_args, trace_out)


def spawn_setups(work: Path, serve_args: list[str], count: int, trace: bool
                 ) -> list[float]:
    """Set-up times of ``count`` servers, each spawned and stopped in turn.

    Workloads take about half of their set-up samples before the load and
    the rest after it, so that the median spans the run, not its first
    seconds.
    """
    setups = []
    for _ in range(count):
        server = start_server(work, serve_args, trace)
        setups.append(server.setup_s)
        server.stop()
    return setups
