"""Shared fixtures: frozen count samples, corpus builders, a stub provider,
and ``readscale`` run in a child process pinned to one CPU or two."""
from __future__ import annotations

import json
import logging
import os
import shutil
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from time import monotonic

import numpy as np
import pytest

import readscale
from readscale.corpus import PublicationRecord

# where the readscale under test is imported from, for child processes
SRC = str(Path(readscale.__file__).resolve().parents[1])
# one CPU, where every command runs in its main process, and two, where
# report, ingest and fetch fork a worker
ONE, TWO = {0}, {0, 1}

needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "fork") or not hasattr(os, "sched_setaffinity") or (os.cpu_count() or 1) < 2,
    reason="needs two CPUs to pin a child process to, and fork",
)

# 85 integer counts, mean exactly 527/85 = 6.2, max 17, three zeros: a small
# field with low, heavily tied counts.
MATHS_COUNTS = (
    17, 16, 16, 14, 14, 14, 14, 12, 12, 11, 11, 10, 10, 10, 10, 9, 9, 9,
    8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 7, 7, 7, 7, 7, 6, 6, 6, 6, 6, 6,
    5, 5, 5, 5, 5, 5, 5, 5, 5, 5,
    4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4,
    3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 0, 0, 0,
)

# 96 integer counts, mean 2074/96 = 21.6042 (renders as 21.6), max 101.
SURGERY_COUNTS = (
    101, 100, 64, 60, 56, 55, 52, 49, 44, 42, 42, 40, 39, 37, 35, 35, 32,
    31, 30, 28, 28, 28, 28, 27, 26, 26, 23, 23, 22, 21, 21, 20, 20, 20, 20,
    19, 19, 19, 18, 18, 18, 18, 17, 17, 17, 17, 17, 17, 16, 16, 16, 16, 16,
    16, 16, 16, 15, 15, 14, 14, 14, 14, 13, 13, 12, 12, 12, 12, 12, 11, 11,
    11, 11, 10, 10, 10, 10, 10, 10, 10, 9, 9, 9, 9, 8, 8, 8, 8, 8, 7, 6,
    5, 5, 5, 0, 0,
)

assert sum(MATHS_COUNTS) == 527 and len(MATHS_COUNTS) == 85
assert sum(SURGERY_COUNTS) == 2074 and len(SURGERY_COUNTS) == 96


def mixed_shape_samples():
    """80 seeded samples of size 3..399: normal, lognormal, uniform, tied counts.

    Samples with fewer than two distinct values are skipped.
    """
    rng = np.random.default_rng(77)
    for i in range(80):
        n = int(rng.integers(3, 400))
        kind = i % 4
        if kind == 0:
            x = rng.standard_normal(n)
        elif kind == 1:
            x = rng.lognormal(0.0, 1.0, n)
        elif kind == 2:
            x = rng.uniform(0, 10, n)
        else:
            x = np.round(rng.lognormal(1.3, 1.0, n)) + 1  # ties, like counts
        if np.unique(x).size >= 2:
            yield x


def make_records(counts, field, year, prefix=None):
    """Build one stratum of records from a count sequence."""
    prefix = prefix or field.lower().replace(" ", "-")
    return [
        PublicationRecord(id=f"{prefix}-{i:04d}", field=field, year=year, reads=int(c))
        for i, c in enumerate(counts)
    ]


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages: list[str] = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def ingest_logged(fn, *args):
    """What ``fn(*args)`` returns, and the messages readscale.ingest logged meanwhile."""
    handler = _Messages()
    logger = logging.getLogger("readscale.ingest")
    logger.addHandler(handler)
    try:
        return fn(*args), handler.messages
    finally:
        logger.removeHandler(handler)


def open_fds() -> int | None:
    """How many file descriptors this process holds, where /proc tells."""
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def pinned(cpus: set[int], argv: list[str], cwd: Path, prelude: str = "") -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of ``readscale argv`` run from ``cwd`` in a
    child process pinned to ``cpus`` with :func:`os.sched_setaffinity`;
    ``prelude``, Python source, runs in the child after the pin."""
    code = (
        "import os, sys\n"
        f"os.sched_setaffinity(0, {sorted(cpus)!r})\n"
        + prelude
        + "from readscale.cli import main\n"
        f"sys.exit(main({list(argv)!r}))\n"
    )
    env = dict(
        os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
        NO_PROXY="127.0.0.1", no_proxy="127.0.0.1",
    )
    run = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True, text=True)
    return run.returncode, run.stdout, run.stderr


def pinned_out(cpus: set[int], argv: list[str], cwd: Path) -> tuple:
    """(exit code, stdout, stderr, --out tree) of ``readscale argv --out out``
    run as :func:`pinned` does; the tree is None where the run made no --out.
    ``out`` is removed after, so that every run logs the same --out."""
    code, stdout, stderr = pinned(cpus, [*argv, "--out", "out"], cwd)
    out = cwd / "out"
    made = tree(out) if out.exists() else None
    shutil.rmtree(out, ignore_errors=True)
    return code, stdout, stderr, made


def alike(cwd: Path, argv: list[str]) -> tuple:
    """The :func:`pinned_out` of ``argv`` on one CPU, which the run on two matches."""
    one = pinned_out(ONE, argv, cwd)
    assert pinned_out(TWO, argv, cwd) == one, argv
    return one


def synth_corpus(out: Path, spec: dict) -> Path:
    """The corpus.jsonl that ``readscale synth`` writes to ``out`` for ``spec``,
    run in this process."""
    from readscale.cli import main

    spec_path = out.with_name(f"{out.name}.spec.json")
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 0
    return out / "corpus.jsonl"


def tree(root: Path) -> dict[str, bytes | None]:
    """Each file under ``root`` with its bytes, and each directory with None;
    empty where ``root`` does not exist."""
    return {p.relative_to(root).as_posix(): p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


@pytest.fixture
def maths_records():
    return make_records(MATHS_COUNTS, "Mathematics", 2010)


@pytest.fixture
def surgery_records():
    return make_records(SURGERY_COUNTS, "Surgery", 2010)


class StubProvider:
    """In-process readership provider for client tests.

    ``responses`` maps a DOI to a (readers, match_probability) pair; DOIs
    absent from the map are left out of the response body. ``fail_first``
    makes the server answer ``fail_status`` (500 unless given) to that many
    requests before behaving; ``throttle_first`` answers 429 to that many,
    with ``retry_after`` as the ``Retry-After`` header when given;
    ``deny_status`` answers that status to every request. Each of these
    answers carries a short JSON error body. ``body``, when given, is sent
    as it is in place of every 200 answer's JSON array. Request bodies are
    recorded, and two times of each request on the monotonic clock: its
    arrival, once its body is read, and its entry, as the handler starts.
    """

    def __init__(
        self, responses=None, fail_first=0, throttle_first=0, retry_after=None,
        fail_status=500, deny_status=None, body=None,
    ):
        self.responses = dict(responses or {})
        self.fail_first = fail_first
        self.throttle_first = throttle_first
        self.retry_after = retry_after
        self.fail_status = fail_status
        self.deny_status = deny_status
        self.body = body
        self.requests: list[list[str]] = []
        self.arrivals: list[float] = []
        self.entries: list[float] = []
        self.headers_seen: list[dict] = []
        self._lock = threading.Lock()
        provider = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                entered = monotonic()
                length = int(self.headers.get("Content-Length", "0"))
                dois = json.loads(self.rfile.read(length))
                arrived = monotonic()
                with provider._lock:
                    provider.entries.append(entered)
                    provider.arrivals.append(arrived)
                    provider.requests.append(list(dois))
                    provider.headers_seen.append(dict(self.headers))
                    status = provider.deny_status
                    if status is None and provider.fail_first > 0:
                        provider.fail_first -= 1
                        status = provider.fail_status
                    elif status is None and provider.throttle_first > 0:
                        provider.throttle_first -= 1
                        status = 429
                if status is not None:
                    self._answer(status, json.dumps({"error": status}).encode())
                    return
                if provider.body is not None:
                    self._answer(200, provider.body)
                    return
                out = []
                for doi in dois:
                    if doi in provider.responses:
                        readers, prob = provider.responses[doi]
                        out.append(
                            {"doi": doi, "readers": readers, "match_probability": prob}
                        )
                self._answer(200, json.dumps(out).encode())

            def _answer(self, status, body):
                self.send_response(status)
                if status == 429 and provider.retry_after is not None:
                    self.send_header("Retry-After", provider.retry_after)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self._server.server_port}"
        # a short poll, so that close() returns at once
        self._thread = threading.Thread(target=self._server.serve_forever, args=(0.02,), daemon=True)
        self._thread.start()

    @property
    def request_count(self) -> int:
        with self._lock:
            return len(self.requests)

    def close(self):
        self._server.shutdown()
        self._server.server_close()


@pytest.fixture
def stub_provider():
    servers = []

    def start(responses=None, **options):
        server = StubProvider(responses, **options)
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.close()
