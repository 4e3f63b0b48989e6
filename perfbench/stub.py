"""Local readership provider for the ``ingest_fetch`` workload.

Speaks the provider contract of ``readscale.fetch``: POST a JSON array of
DOIs to ``/lookup`` and get back ``{doi, readers, match_probability}`` for
every DOI it knows. DOIs it does not know are left out of the answer, which
the client records as failed lookups. It listens on 127.0.0.1 only and
counts requests, retries (a batch it has already been sent) and the DOIs it
was asked for.
"""
from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class StubProvider:
    def __init__(self, responses: dict[str, tuple[int, float]]):
        self.responses = dict(responses)
        self._lock = threading.Lock()
        self.reset_counts()
        provider = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", "0"))
                dois = [str(d) for d in json.loads(self.rfile.read(length))]
                provider._count(dois)
                body = json.dumps(
                    [
                        {"doi": d, "readers": provider.responses[d][0],
                         "match_probability": provider.responses[d][1]}
                        for d in dois
                        if d in provider.responses
                    ]
                ).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._server.daemon_threads = False  # server_close() joins handler threads
        self.url = f"http://127.0.0.1:{self._server.server_port}"
        self._thread = threading.Thread(target=self._server.serve_forever, name="stub-provider")
        self._thread.start()

    def _count(self, dois: list[str]) -> None:
        batch = tuple(dois)
        with self._lock:
            self.requests += 1
            if batch in self._batches:
                self.retries += 1
            self._batches.add(batch)
            self.dois_requested.update(dois)

    def reset_counts(self) -> None:
        with self._lock:
            self.requests = 0
            self.retries = 0
            self.dois_requested: set[str] = set()
            self._batches: set[tuple[str, ...]] = set()

    def counts(self) -> dict[str, int]:
        with self._lock:
            return {
                "requests": self.requests,
                "retries": self.retries,
                "dois": len(self.dois_requested),
            }

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join()
