"""Client for a readership-count provider endpoint.

Resolves DOIs to reader counts over a small HTTP contract: POST a JSON
array of DOIs to ``{base_url}/lookup``, get back a JSON array of
``{doi, readers, match_probability}``. A count is accepted only when the
provider's match probability is strictly above the configured threshold;
otherwise the DOI is kept with ``reads=None`` so downstream code can see
it was looked up and rejected.

Results land in an append-only line-JSON cache (one object per line,
latest ``fetched_at`` wins), which makes reruns cheap and crash-safe:
a warm cache answers without any network traffic, and a torn write
corrupts at most its own line. The cache keeps the provider's count
whatever its match probability, and the threshold applies when
:func:`fetch_counts` answers, so a rerun with a lower threshold uses the
counts already paid for. Failures are returned but never cached, so a
transient outage does not poison later runs.

Batches go out over a few worker threads behind one :class:`RateLimiter`:
up to ceil(rate_limit) requests at once, never more than that in any one-second
window, and rate_limit per second in the long run. A rerun whose misses fit in
ceil(rate_limit) batches therefore sends them without waiting.

Requests go out through the standard library's ``urllib.request``, which
honours the proxy environment variables and verifies HTTPS against the
system's trust store. It and the thread pool load only when a DOI is
missing from the cache (or on :func:`load_client`), so a warm cache is
read without them. A batch that fails with a 429, a 5xx, a connection
error or a timeout is retried with exponential backoff. A 429 that carries
``Retry-After`` in seconds waits at least that long, up to
``RETRY_AFTER_CAP``; an HTTP-date or unreadable value leaves the backoff
alone. Any other 4xx, or a 2xx whose body is not a JSON array, marks the
batch failed without a retry.
"""
from __future__ import annotations

import json
import logging
import math
import os
import threading
import time
from collections import deque
from itertools import repeat
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

from .ingest import _types, as_int, decode_line_chunks, gc_paused, read_lines

__all__ = [
    "Cache",
    "FetchError",
    "FetchResult",
    "ProviderConfig",
    "RateLimiter",
    "fetch_counts",
    "load_client",
]

log = logging.getLogger(__name__)

REQUEST_TIMEOUT = 30.0  # seconds per HTTP attempt
WORKERS = 4  # threads posting batches at once, all behind one rate limiter
BACKOFF_BASE = 0.5  # first retry delay, doubled per attempt
BACKOFF_CAP = 8.0
# Longest wait a provider's Retry-After can impose before a retry, in seconds.
# A provider asking for more is down for this run as far as it is concerned;
# waiting longer would only stall the run without a word.
RETRY_AFTER_CAP = 60.0
CACHE_KEYS = ("doi", "reads", "match_probability", "fetched_at")
# Extra time per grant in the rate limiter's window, in seconds: grant k waits
# until ceil(rate) * (1/rate + GRANT_GUARD) after grant k - ceil(rate). A
# request reaches the provider some time after its grant, and that time differs
# between worker threads (by about 2 ms, at times 13 ms, against a local stub on
# a 2-core VM). A window of ceil(rate)/rate alone leaves no room for that at an
# integer rate, where it spans exactly one second; the guard leaves ceil(rate)
# times its size.
GRANT_GUARD = 0.002
# fetch's main process decodes the head of a large cache while a forked reader
# decodes the tail. Before the head it loads the client, which takes about as
# long as decoding CLIENT_BYTES of cache, and parses the corpus and the DOI
# list, at about the cost per byte of the cache (12 against 10 ns on two cores
# of a Xeon VM). Both finish together when the head is half of the cache left
# over after that work; a head below HEAD_MIN_BYTES saves less than it costs.
CLIENT_BYTES = 1_400_000
HEAD_MIN_BYTES = 2**18


class FetchError(RuntimeError):
    """Provider unreachable after all retries; partial cache is intact."""


class _ProviderConfig(NamedTuple):
    base_url: str
    api_key_env: str = "READSCALE_API_KEY"
    batch_size: int = 50
    rate_limit: float = 5.0
    max_retries: int = 3
    min_match_probability: float = 0.90


class ProviderConfig(_ProviderConfig):
    """Where and how to talk to the provider.

    api_key_env names an environment variable; the key itself never
    appears in config files or flags. rate_limit bounds the requests of
    all worker threads together: at most ceil(rate_limit) in any one-second
    window, rate_limit per second in the long run, and up to
    ceil(rate_limit) at once (see :class:`RateLimiter`). It must be finite.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "ProviderConfig":
        self = super().__new__(cls, *args, **kwargs)
        if not self.base_url:
            raise ValueError("base_url must be non-empty")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not self.rate_limit > 0:
            raise ValueError("rate_limit must be > 0")
        if not math.isfinite(self.rate_limit):
            raise ValueError("rate_limit must be finite")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not 0.0 <= self.min_match_probability <= 1.0:
            raise ValueError("min_match_probability must lie in [0, 1]")
        return self

    @classmethod
    def _make(cls, values) -> "ProviderConfig":  # so that _replace checks too
        return cls(*values)


class FetchResult(NamedTuple):
    """Outcome for one DOI.

    In what :func:`fetch_counts` returns, reads is None either because the
    match probability did not clear the threshold or because the lookup
    failed; ``error`` distinguishes the two. Only error-free results are
    cache-eligible, and the cache keeps the provider's count.
    """

    doi: str
    reads: int | None
    match_probability: float
    fetched_at: float
    error: str | None = None


class RateLimiter:
    """At most ceil(rate) grants in any half-open one-second window.

    With n = ceil(rate), grant k waits until n * (1/rate + GRANT_GUARD)
    seconds after grant k - n on the monotonic clock, and no longer: up to n
    grants go at once, and the long-run rate is 1 / (1/rate + GRANT_GUARD).
    Any n + 1 consecutive grants thus span more than n/rate >= 1 second; the
    guard keeps that true of the requests' arrivals while their delays after
    the grant differ by less than n * GRANT_GUARD. At a rate of 1 or less,
    n = 1 and grants are spaced by 1/rate + GRANT_GUARD.

    acquire() blocks, holding the lock so that grants are serialized, until
    its grant is due. Only the times of the last min(n, grants made) grants
    are kept, so a huge rate costs nothing.
    """

    def __init__(self, rate: float):
        if not rate > 0:
            raise ValueError("rate must be > 0")
        if not math.isfinite(rate):
            raise ValueError("rate must be finite")
        self._burst = math.ceil(rate)
        self._window = self._burst * (1.0 / rate + GRANT_GUARD)
        self._lock = threading.Lock()
        self._grants: deque[float] = deque()  # the last grants' times, oldest first

    def acquire(self) -> None:
        with self._lock:
            now = time.monotonic()
            if len(self._grants) == self._burst:
                wait = self._grants.popleft() + self._window - now
                if wait > 0:
                    time.sleep(wait)
                    now = time.monotonic()
            self._grants.append(now)


class Cache:
    """Append-only line-JSON store of fetch results, keyed by DOI."""

    def __init__(self, path):
        self.path = Path(path)
        self._lock = threading.Lock()

    @gc_paused
    def read_columns(self, start: int = 0, stop: int | None = None) -> tuple[list, list, list, list]:
        """The (doi, reads, match_probability, fetched_at) columns of the
        readable lines, in line order; malformed lines are skipped with a
        warning, and a missing file has no lines. With ``start`` or ``stop``,
        only the lines from byte ``start``, which must open a line, up to byte
        ``stop`` are read (see :func:`readscale.ingest.read_lines`), numbered
        as in the whole file: the columns and warnings of two adjacent parts
        are those of the whole, the first part's first.

        Lines are decoded a chunk at a time (see
        :func:`readscale.ingest.decode_line_chunks`). A chunk of flat entries
        holding the types :meth:`append` writes -- a string DOI, integer or
        null reads, float probability and time -- is taken in bulk; any other
        chunk is read line by line.
        """
        columns: tuple[list, list, list, list] = ([], [], [], [])
        if start == stop or not self.path.exists():
            return columns
        first = _lines_before(self.path, start) + 1 if start else 1
        lines = read_lines(self.path, start, stop)
        for numbers, chunk, rows in decode_line_chunks(lines, frozenset(CACHE_KEYS), first):
            entries = None if rows is None else _plain_entries(rows)
            if entries is None:
                read = []
                for lineno, line in zip(numbers, chunk):
                    try:
                        read.append(_cache_entry(json.loads(line.strip())))
                    except (KeyError, TypeError, ValueError, OverflowError):
                        log.warning("%s:%d: unreadable cache line skipped", self.path, lineno)
                entries = tuple(zip(*read)) or ((),) * len(CACHE_KEYS)
            for column, values in zip(columns, entries):
                column.extend(values)
        return columns

    def head(self, ahead: int) -> int:
        """Where the head of a split read ends, when ``ahead`` bytes of input
        are parsed before it (see :data:`CLIENT_BYTES`): the start of the line
        after the one that holds byte (size - ahead - CLIENT_BYTES) // 2 of the
        cache; 0, no head, when that byte lies below :data:`HEAD_MIN_BYTES` or
        the cache is no file."""
        try:
            size = self.path.stat().st_size if self.path.is_file() else 0
            end = (size - ahead - CLIENT_BYTES) // 2
            return _line_after(self.path, end) if end >= HEAD_MIN_BYTES else 0
        except OSError:  # the read reports it in its turn
            return 0

    @staticmethod
    @gc_paused
    def latest(columns: Sequence[Sequence]) -> dict[str, FetchResult]:
        """The latest entry per DOI of :meth:`read_columns`'s columns, a tie
        going to the later line."""
        dois, _, _, times = columns
        latest: dict[str, int] = {}  # DOI -> line of its latest entry
        for k, (doi, fetched_at) in enumerate(zip(dois, times)):
            prior = latest.get(doi)
            if prior is None or fetched_at >= times[prior]:
                latest[doi] = k
        kept = zip(*(map(column.__getitem__, latest.values()) for column in columns), repeat(None))
        # FetchResult._make without its per-call length check
        return dict(zip(latest, map(tuple.__new__, repeat(FetchResult), kept)))

    def append(self, results: Iterable[FetchResult]) -> None:
        """Serialize writes; one JSON object per line, flushed per call."""
        lines = [
            json.dumps(
                {
                    "doi": r.doi,
                    "reads": r.reads,
                    "match_probability": r.match_probability,
                    "fetched_at": r.fetched_at,
                },
                sort_keys=True,
            )
            for r in results
            if r.error is None
        ]
        if not lines:
            return
        with self._lock:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write("".join(line + "\n" for line in lines))


def _line_after(path: Path, offset: int) -> int:
    """Where the line after the first "\\r\\n", "\\r" or "\\n" at or past
    byte ``offset`` of ``path`` opens; the file's size when no break is there."""
    with open(path, "rb") as fh:
        fh.seek(offset)
        while block := fh.read(2**16):
            ends = [at for at in map(block.find, (b"\n", b"\r")) if at >= 0]
            if ends:
                at = offset + min(ends)
                fh.seek(at)
                return at + (2 if fh.read(2) == b"\r\n" else 1)
            offset += len(block)
    return offset


def _lines_before(path: Path, offset: int) -> int:
    """The number of lines of ``path`` that end before byte ``offset``, which opens a line."""
    with open(path, "rb") as fh:
        data = fh.read(offset)
    return data.count(b"\n") + data.count(b"\r") - data.count(b"\r\n")


def _real(value) -> float:
    """``float(value)`` of a probability or time; a bool raises TypeError."""
    if type(value) is bool:
        raise TypeError(f"not a number: {value!r}")
    return float(value)


def _cache_entry(raw) -> tuple:
    """(doi, reads, match_probability, fetched_at) of one decoded cache line;
    KeyError, TypeError, ValueError or OverflowError when it is not an entry."""
    return (
        str(raw["doi"]),
        None if raw["reads"] is None else as_int(raw["reads"]),
        _real(raw["match_probability"]),
        _real(raw["fetched_at"]),
    )


def _plain_entries(rows: list[dict]) -> tuple[list, ...] | None:
    """The (doi, reads, match_probability, fetched_at) columns of decoded cache
    lines, when each line holds every key with a value that
    :func:`_cache_entry` would keep as it is."""
    try:
        entries = tuple([row[key] for row in rows] for key in CACHE_KEYS)
    except KeyError:
        return None
    wanted = ({str}, {int, type(None)}, {float}, {float})
    plain = all(_types(column) <= types for column, types in zip(entries, wanted))
    return entries if plain else None


def _retry_after(value: str | None) -> float:
    """Seconds a 429's ``Retry-After`` asks to wait, capped at
    ``RETRY_AFTER_CAP``; 0 for an HTTP-date, an absent or an unreadable value."""
    value = (value or "").strip()
    if value.isascii() and value.isdigit():
        return min(float(value), RETRY_AFTER_CAP)
    return 0.0


def _provider_entry(raw: dict) -> FetchResult:
    """Turn one provider response object into a FetchResult with the
    provider's count, whatever its match probability."""
    doi = str(raw["doi"])
    prob = _real(raw["match_probability"])
    if not 0.0 <= prob <= 1.0:
        raise ValueError(f"match probability {prob} outside [0, 1]")
    readers = as_int(raw["readers"])
    if readers < 0:
        raise ValueError(f"negative reader count {readers}")
    return FetchResult(doi=doi, reads=readers, match_probability=prob, fetched_at=time.time())


def _cleared(results: Iterable[FetchResult], threshold: float) -> dict[str, FetchResult]:
    """The results by DOI, each keeping its count only where its match
    probability is strictly above ``threshold``."""
    return {
        r.doi: r if r.reads is None or r.match_probability > threshold else r._replace(reads=None)
        for r in results
    }


def _failure(doi: str, reason: str) -> FetchResult:
    return FetchResult(
        doi=doi, reads=None, match_probability=0.0, fetched_at=time.time(), error=reason
    )


def load_client() -> None:
    """Import the standard-library modules that posting batches takes:
    ``urllib.request`` (with ``http.client``) and the thread pool.
    :func:`fetch_counts` imports them itself when a DOI is missing."""
    import concurrent.futures.thread  # noqa: F401
    import urllib.request  # noqa: F401


def _post(url: str, body: bytes, headers: dict[str, str]) -> tuple[int, str | None, bytes]:
    """POST a JSON body: the response's status, its ``Retry-After`` header
    and, for a 2xx, its body. Raises OSError, ValueError or
    ``http.client.HTTPException`` when no response arrives."""
    import urllib.error
    import urllib.request

    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json", **headers}, method="POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=REQUEST_TIMEOUT) as response:
            return response.status, None, response.read()
    except urllib.error.HTTPError as exc:  # a status outside 2xx that urllib does not follow
        exc.close()
        return exc.code, exc.headers.get("Retry-After"), b""


def _post_batch(
    batch: Sequence[str],
    config: ProviderConfig,
    limiter: RateLimiter,
    headers: dict[str, str],
) -> list[FetchResult]:
    """One batch: POST with retries, map responses, fill in failures."""
    import http.client

    url = config.base_url.rstrip("/") + "/lookup"
    body = json.dumps(list(batch)).encode()
    last_error = "no attempt made"
    retry_after = 0.0
    for attempt in range(config.max_retries + 1):
        if attempt > 0:
            time.sleep(max(min(BACKOFF_BASE * 2 ** (attempt - 1), BACKOFF_CAP), retry_after))
            retry_after = 0.0
        limiter.acquire()
        try:
            status, retry_header, payload = _post(url, body, headers)
        except (OSError, ValueError, http.client.HTTPException) as exc:
            last_error = f"connection failed: {exc}"
            log.warning("attempt %d/%d: %s", attempt + 1, config.max_retries + 1, last_error)
            continue
        if status == 429 or status >= 500:
            last_error = f"HTTP {status}"
            if status == 429:
                retry_after = _retry_after(retry_header)
            log.warning("attempt %d/%d: %s", attempt + 1, config.max_retries + 1, last_error)
            continue
        if status >= 400:
            # A well-formed refusal: mark the batch failed, let the run go on.
            return [_failure(doi, f"HTTP {status}") for doi in batch]
        try:
            items = json.loads(payload)
            if not isinstance(items, list):
                raise TypeError(f"expected a JSON array, got {type(items).__name__}")
            by_doi = {str(item["doi"]): item for item in items}
        except (ValueError, KeyError, TypeError) as exc:
            return [_failure(doi, f"unreadable response: {exc}") for doi in batch]
        results = []
        for doi in batch:
            item = by_doi.get(doi)
            if item is None:
                results.append(_failure(doi, "missing from response"))
                continue
            try:
                results.append(_provider_entry(item))
            except (KeyError, TypeError, ValueError) as exc:
                results.append(_failure(doi, f"bad response entry: {exc}"))
        return results
    raise FetchError(f"provider unreachable: {last_error} (after {config.max_retries + 1} attempts)")


def fetch_counts(
    dois: Sequence[str],
    config: ProviderConfig,
    cache: Cache,
    cached: Sequence[Sequence] | None = None,
    on_cached: Callable[[dict[str, FetchResult]], None] | None = None,
) -> list[FetchResult]:
    """Resolve DOIs to reader counts, one FetchResult per input DOI.

    Cached DOIs are answered locally; the rest are queried in batches of
    config.batch_size over at most ``WORKERS`` worker threads sharing
    one rate limiter. Every successful lookup (matched or below
    threshold) is appended to the cache with the provider's count as its
    batch completes, so an interrupted run keeps what it already paid for.
    The latest cached entry per DOI is picked while the provider answers.
    A count, cached or fresh, is returned only where its match probability
    is strictly above ``config.min_match_probability``.

    ``cached`` is what :meth:`Cache.read_columns` returned, when the caller
    has read the cache already; by default it is read here. ``on_cached``,
    if given, is called with the cache's answers by DOI, each count kept only
    above the threshold, once the requests are out (or, when every DOI is
    cached, just before returning), so that the caller's work on them
    overlaps the provider's answers. The callable must not keep the dict:
    the provider's answers are added to it once the call returns.

    Raises FetchError if the provider cannot be reached at all for some
    batch; results cached before that point remain on disk.
    """
    if cached is None:
        cached = cache.read_columns()
    threshold = config.min_match_probability
    missing = sorted(set(dois).difference(cached[0]))
    if not missing:
        known = _cleared(cache.latest(cached).values(), threshold)
        if on_cached is not None:
            on_cached(known)
        return list(map(known.__getitem__, dois))

    load_client()  # before the first grant, so that no request waits for an import
    from concurrent.futures import ThreadPoolExecutor

    key = os.environ.get(config.api_key_env, "")
    headers = {"Authorization": f"Bearer {key}"} if key else {}
    limiter = RateLimiter(config.rate_limit)
    batches = [
        missing[i : i + config.batch_size]
        for i in range(0, len(missing), config.batch_size)
    ]

    def run_batch(batch: Sequence[str]) -> list[FetchResult]:
        results = _post_batch(batch, config, limiter, headers)
        cache.append(results)  # failures are filtered out inside
        return results

    with ThreadPoolExecutor(max_workers=min(WORKERS, len(batches))) as pool:
        answers = pool.map(run_batch, batches)
        known = _cleared(cache.latest(cached).values(), threshold)  # while the provider answers
        if on_cached is not None:
            on_cached(known)
        for batch_results in answers:
            known.update(_cleared(batch_results, threshold))
    return list(map(known.__getitem__, dois))
