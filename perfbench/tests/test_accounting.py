"""Refused, timed-out and wrong answers all count as failures."""

import hashlib
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from perfbench import wl_sweeps
from perfbench.schedule import ModelRequest, SweepOp
from perfbench.wl_model import _Sender

GOOD = b'{"ok": true}\n'


class _Canned(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def _answer(self, status, body, headers=()):
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        if self.path.startswith("/slow"):
            time.sleep(0.5)
        if self.path.startswith("/refuse"):
            self._answer(429, b'{"error": "full"}\n', [("Retry-After", "1")])
        elif self.path.startswith("/wrong"):
            self._answer(200, b'{"ok": false}\n')
        else:
            self._answer(200, GOOD)

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        if self.path == "/v1/sweeps":
            self._answer(429, b'{"error": "queue full"}\n')
        else:
            self.do_GET()

    def log_message(self, *args):
        pass


@pytest.fixture()
def server():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Canned)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield httpd.server_address[1]
    httpd.shutdown()
    httpd.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def _get(target):
    return ModelRequest("conflict", "GET", target, None, 1, {})


def test_model_sender_counts_refusals_timeouts_and_wrong_bodies(server):
    sender = _Sender(server, timeout_s=0.2)
    digest = hashlib.sha256(GOOD).digest()
    assert sender.send(_get("/fine"), digest)
    assert not sender.send(_get("/refuse"), digest)
    assert not sender.send(_get("/slow"), digest)
    assert not sender.send(_get("/wrong"), digest)
    assert sender.send(_get("/fine"), digest)  # reconnects after the timeout
    sender.conn.close()
    tally = sender.tally
    assert (tally.attempted, tally.failed) == (5, 3)
    assert tally.reasons == {
        "conflict answered 429": 1,
        "transport: TimeoutError": 1,
        "conflict GET body differs from repro.core": 1,
    }


def test_sweep_client_counts_a_refused_submission(server):
    body = json.dumps({"kind": "fig4a", "params": {}, "seed": 1}).encode()
    client = wl_sweeps._Client([SweepOp(body, "fig4a", None)], server,
                               poll_s=0.01, timeout_s=1.0)
    client.run(deadline=time.perf_counter() + 5.0)
    assert client.error is None
    assert (client.tally.attempted, client.tally.failed, client.refused) == (1, 1, 1)
    assert client.miss_s == [] and client.hit_s == []
