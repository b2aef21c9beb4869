"""Loopback scorer server for the ``rag-remote`` workload.

It serves a fitted in-process scorer over the protocol ``docidlm.lm``
speaks (POST ``{"context": [...]}``, reply ``{"logprobs": [...]}``), so
``RemoteLm`` decodes exactly what the in-process model decodes. The server
counts what crosses the wire, because the client cannot see it: connections
accepted, request and response body bytes, and time spent serving each call.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, HTTPServer


@dataclass
class WireCounters:
    connections: int = 0
    calls: int = 0
    request_bytes: int = 0
    response_bytes: int = 0
    server_s: float = 0.0


class _Handler(BaseHTTPRequestHandler):
    server: "ScorerStub"

    def setup(self) -> None:
        super().setup()
        self.server.counters.connections += 1

    def do_POST(self) -> None:  # noqa: N802 (http.server naming)
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length)
        start = time.perf_counter()
        context = json.loads(body)["context"]
        data = json.dumps({"logprobs": self.server.scorer.next_logprobs(context).tolist()}).encode()
        # Count before replying: once the client holds the reply, the
        # counters already include this call.
        counters = self.server.counters
        counters.server_s += time.perf_counter() - start
        counters.calls += 1
        counters.request_bytes += length
        counters.response_bytes += len(data)
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args) -> None:
        pass


class ScorerStub(HTTPServer):
    """Single-threaded HTTP server on 127.0.0.1 serving one scorer.

    Use as a context manager: entering starts the serving thread, leaving
    shuts it down and joins it.
    """

    def __init__(self, scorer):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.scorer = scorer
        self.counters = WireCounters()
        self._thread = threading.Thread(target=self.serve_forever, name="scorer-stub")

    @property
    def endpoint(self) -> str:
        return f"http://127.0.0.1:{self.server_port}/"

    def __enter__(self) -> "ScorerStub":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
        self._thread.join(timeout=30)
        self.server_close()
        if self._thread.is_alive():
            raise RuntimeError("scorer stub thread did not stop")
