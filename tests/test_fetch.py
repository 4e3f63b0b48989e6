"""Provider client: threshold filter, cache semantics, retries, rate limit."""
from __future__ import annotations

import bisect
import json
import logging
import math
import socket
import sys
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import readscale.fetch as fetch_mod
from readscale import ingest
from readscale.fetch import (
    Cache,
    FetchError,
    FetchResult,
    ProviderConfig,
    RateLimiter,
    answer_from_cache,
    fetch_counts,
    fetch_missing,
)
from readscale.worker import held_records, replay


@pytest.fixture(autouse=True)
def fast_backoff(monkeypatch):
    monkeypatch.setattr(fetch_mod, "BACKOFF_BASE", 0.01)
    monkeypatch.setattr(fetch_mod, "BACKOFF_CAP", 0.05)


def _config(url, **kwargs):
    defaults = dict(base_url=url, batch_size=50, rate_limit=200.0, max_retries=2)
    defaults.update(kwargs)
    return ProviderConfig(**defaults)


def test_match_probability_filter(stub_provider, tmp_path):
    server = stub_provider(
        {
            "10.1/high": (31, 0.95),
            "10.1/low": (99, 0.80),
            "10.1/edge": (50, 0.90),  # exactly at the threshold: not enough
        }
    )
    cache = Cache(tmp_path / "cache.jsonl")
    results = {
        r.doi: r
        for r in fetch_counts(["10.1/high", "10.1/low", "10.1/edge"], _config(server.url), cache)
    }
    assert results["10.1/high"].reads == 31
    assert results["10.1/low"].reads is None
    assert results["10.1/edge"].reads is None
    assert results["10.1/low"].match_probability == 0.80


def test_raising_threshold_never_adds_reads(stub_provider, tmp_path):
    probs = [0.05, 0.3, 0.5, 0.7, 0.85, 0.92, 0.99]
    server = stub_provider({f"10.2/{i}": (10 + i, p) for i, p in enumerate(probs)})
    dois = [f"10.2/{i}" for i in range(len(probs))]
    previous = None
    for threshold in (0.0, 0.4, 0.9, 0.95):
        cache = Cache(tmp_path / f"c{threshold}.jsonl")
        results = fetch_counts(
            dois, _config(server.url, min_match_probability=threshold), cache
        )
        present = {r.doi for r in results if r.reads is not None}
        if previous is not None:
            assert present <= previous
        previous = present


def test_warm_cache_issues_zero_requests(stub_provider, tmp_path):
    server = stub_provider({"10.3/a": (5, 0.99), "10.3/b": (7, 0.2)})
    cache = Cache(tmp_path / "cache.jsonl")
    first = fetch_counts(["10.3/a", "10.3/b"], _config(server.url), cache)
    assert server.request_count == 1
    second = fetch_counts(["10.3/a", "10.3/b"], _config(server.url), cache)
    assert server.request_count == 1  # nothing hit the network
    assert {(r.doi, r.reads) for r in second} == {(r.doi, r.reads) for r in first}


def test_below_threshold_results_are_cached_but_failures_are_not(stub_provider, tmp_path):
    server = stub_provider({"10.4/low": (4, 0.5)})  # "10.4/gone" never answered
    cache = Cache(tmp_path / "cache.jsonl")
    results = {r.doi: r for r in fetch_counts(["10.4/low", "10.4/gone"], _config(server.url), cache)}
    assert results["10.4/gone"].error == "missing from response"
    cached = Cache.latest(cache.read_columns())
    assert "10.4/low" in cached and "10.4/gone" not in cached
    # the failed DOI is queried again on the next run
    before = server.request_count
    fetch_counts(["10.4/low", "10.4/gone"], _config(server.url), cache)
    assert server.request_count == before + 1


def test_a_below_threshold_count_serves_a_lower_threshold_from_the_cache(stub_provider, tmp_path):
    server = stub_provider({"10.4/low": (17, 0.80)})
    cache = Cache(tmp_path / "cache.jsonl")
    (strict,) = fetch_counts(["10.4/low"], _config(server.url, min_match_probability=0.90), cache)
    assert strict.reads is None and strict.error is None
    assert Cache.latest(cache.read_columns())["10.4/low"].reads == 17  # the provider's count is cached
    (lenient,) = fetch_counts(["10.4/low"], _config(server.url, min_match_probability=0.50), cache)
    assert lenient.reads == 17 and lenient.match_probability == 0.80
    (edge,) = fetch_counts(["10.4/low"], _config(server.url, min_match_probability=0.80), cache)
    assert edge.reads is None  # strictly above, for cached counts too
    assert server.request_count == 1


def test_an_old_null_cache_line_stays_below_threshold(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text(
        json.dumps({"doi": "10.4/old", "reads": None, "match_probability": 0.8, "fetched_at": 1.0}) + "\n",
        encoding="utf-8",
    )
    dead = _config("http://127.0.0.1:9", min_match_probability=0.5)  # a request would fail
    (result,) = fetch_counts(["10.4/old"], dead, Cache(path))
    assert result == FetchResult("10.4/old", None, 0.8, 1.0)


def test_retry_then_success(stub_provider, tmp_path):
    server = stub_provider({"10.5/x": (12, 0.97)}, fail_first=2)
    cache = Cache(tmp_path / "cache.jsonl")
    results = fetch_counts(["10.5/x"], _config(server.url, max_retries=3), cache)
    assert results[0].reads == 12
    assert server.request_count == 3  # two 500s, then the answer


def test_server_down_is_fatal_with_cache_intact(stub_provider, tmp_path):
    server = stub_provider({"10.6/a": (3, 0.95)})
    cache = Cache(tmp_path / "cache.jsonl")
    fetch_counts(["10.6/a"], _config(server.url), cache)
    dead = _config("http://127.0.0.1:9", max_retries=1)
    with pytest.raises(FetchError):
        fetch_counts(["10.6/a", "10.6/new"], dead, cache)
    assert Cache.latest(cache.read_columns()).get("10.6/a").reads == 3  # prior cache untouched


def test_http_4xx_marks_batch_failed_without_abort(stub_provider, tmp_path):
    server = stub_provider({"10.7/x": (5, 0.95)}, deny_status=403)
    results = fetch_counts(["10.7/x"], _config(server.url), Cache(tmp_path / "c.jsonl"))
    assert results[0].error == "HTTP 403"
    assert results[0].reads is None
    assert server.request_count == 1  # a refusal is not retried


@pytest.mark.parametrize(
    "body", [b"not json", b"", b"{}", b'{"doi": "10.19/a"}', b'"10.19/a"', b"7", b"\xff\xfe["]
)
def test_body_that_is_not_a_json_array_marks_batch_unreadable(stub_provider, tmp_path, body):
    server = stub_provider({"10.19/a": (5, 0.95)}, body=body)
    cache = Cache(tmp_path / "c.jsonl")
    results = fetch_counts(["10.19/a", "10.19/b"], _config(server.url), cache)
    assert [r.error.split(":")[0] for r in results] == ["unreadable response"] * 2
    assert all(r.reads is None for r in results)
    assert server.request_count == 1
    assert Cache.latest(cache.read_columns()) == {}


def test_5xx_with_a_body_is_retried(stub_provider, tmp_path):
    server = stub_provider({"10.20/x": (9, 0.95)}, fail_first=1, fail_status=503)
    results = fetch_counts(["10.20/x"], _config(server.url), Cache(tmp_path / "c.jsonl"))
    assert results[0].reads == 9 and results[0].error is None
    assert server.request_count == 2


def test_request_posts_a_json_array(stub_provider, tmp_path):
    server = stub_provider({"10.21/a": (1, 0.95)})
    fetch_counts(["10.21/a", "10.21/ä"], _config(server.url), Cache(tmp_path / "c.jsonl"))
    assert server.headers_seen[-1]["Content-Type"] == "application/json"
    assert server.requests == [["10.21/a", "10.21/ä"]]


def test_timeout_is_retried_as_connection_failure(tmp_path, monkeypatch, caplog):
    monkeypatch.setattr(fetch_mod, "REQUEST_TIMEOUT", 0.2)
    with socket.socket() as silent:  # accepts connections, never answers
        silent.bind(("127.0.0.1", 0))
        silent.listen(4)
        url = "http://127.0.0.1:%d" % silent.getsockname()[1]
        with pytest.raises(FetchError, match="connection failed"):
            fetch_counts(["10.22/x"], _config(url, max_retries=1), Cache(tmp_path / "c.jsonl"))
    assert caplog.text.count("connection failed") == 2


def test_fetch_result_is_an_immutable_record():
    result = FetchResult("10.23/a", 3, 0.95, 1.5)
    assert FetchResult._fields == ("doi", "reads", "match_probability", "fetched_at", "error")
    assert result.error is None
    assert repr(result) == (
        "FetchResult(doi='10.23/a', reads=3, match_probability=0.95, fetched_at=1.5, error=None)"
    )
    with pytest.raises(AttributeError):
        result.reads = 4
    same = FetchResult(doi="10.23/a", reads=3, match_probability=0.95, fetched_at=1.5, error=None)
    assert result == same and hash(result) == hash(same)
    assert result != result._replace(error="HTTP 403")


def test_cache_latest_entry_wins(tmp_path):
    path = tmp_path / "cache.jsonl"
    rows = [
        {"doi": "10.8/x", "reads": 1, "match_probability": 0.95, "fetched_at": 100.0},
        {"doi": "10.8/x", "reads": 2, "match_probability": 0.95, "fetched_at": 300.0},
        {"doi": "10.8/x", "reads": 3, "match_probability": 0.95, "fetched_at": 200.0},
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    assert Cache.latest(Cache(path).read_columns()).get("10.8/x").reads == 2


def test_cache_tied_timestamps_prefer_later_line(tmp_path):
    path = tmp_path / "cache.jsonl"
    rows = [
        {"doi": "10.8/y", "reads": 5, "match_probability": 0.95, "fetched_at": 100.0},
        {"doi": "10.8/y", "reads": 6, "match_probability": 0.95, "fetched_at": 100.0},
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    assert Cache.latest(Cache(path).read_columns()).get("10.8/y").reads == 6


def test_corrupt_cache_line_skipped_with_warning(tmp_path, caplog):
    path = tmp_path / "cache.jsonl"
    lines = [
        json.dumps({"doi": f"10.9/{i}", "reads": i, "match_probability": 0.95, "fetched_at": 1.0})
        for i in range(10)
    ]
    lines[4] = '{"doi": "broken"'
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with caplog.at_level("WARNING"):
        entries = Cache.latest(Cache(path).read_columns())
    assert len(entries) == 9
    assert "unreadable cache line" in caplog.text


def test_a_torn_last_line_costs_only_itself(stub_provider, tmp_path, caplog):
    server = stub_provider({"10.9/fresh": (5, 0.95)})
    path = tmp_path / "cache.jsonl"
    cache = Cache(path)
    cache.append([FetchResult("10.9/old", 3, 0.95, 1.0)])
    with open(path, "ab") as fh:  # a write cut off mid-line
        fh.write(b'{"doi": "10.9/torn", "fetched_at": 2.0, "match_pro')
    assert [r.reads for r in fetch_counts(["10.9/old", "10.9/fresh"], _config(server.url), cache)] == [3, 5]
    caplog.clear()
    with caplog.at_level("WARNING"):
        entries = Cache.latest(Cache(path).read_columns())
    assert {doi: r.reads for doi, r in entries.items()} == {"10.9/old": 3, "10.9/fresh": 5}
    assert [r.getMessage() for r in caplog.records] == [f"{path}:2: unreadable cache line skipped"]


@pytest.mark.parametrize("ending", [b"\n", b"\r\n", b"\r"])
def test_an_append_adds_no_line_break_after_a_whole_line(tmp_path, ending):
    path = tmp_path / "cache.jsonl"
    line = json.dumps({"doi": "a", "fetched_at": 1.0, "match_probability": 0.95, "reads": 3}, sort_keys=True)
    path.write_bytes(line.encode() + ending)
    Cache(path).append([FetchResult("b", 4, 0.95, 2.0)])
    assert path.read_bytes() == (line + ending.decode() + line.replace('"a"', '"b"').replace("1.0", "2.0")
                                 .replace(": 3", ": 4") + "\n").encode()


def test_cache_append_only(stub_provider, tmp_path):
    server = stub_provider({"10.10/a": (1, 0.95), "10.10/b": (2, 0.95)})
    path = tmp_path / "cache.jsonl"
    cache = Cache(path)
    fetch_counts(["10.10/a"], _config(server.url), cache)
    first_content = path.read_text(encoding="utf-8")
    fetch_counts(["10.10/a"], _config(server.url), cache)  # warm: no change
    assert path.read_text(encoding="utf-8") == first_content
    fetch_counts(["10.10/a", "10.10/b"], _config(server.url), cache)
    assert path.read_text(encoding="utf-8").startswith(first_content)


def test_empty_cache_lookup_absent(tmp_path):
    assert Cache.latest(Cache(tmp_path / "missing.jsonl").read_columns()).get("10.11/none") is None


def test_batching_splits_requests(stub_provider, tmp_path):
    server = stub_provider({f"10.12/{i}": (i, 0.95) for i in range(5)})
    dois = [f"10.12/{i}" for i in range(5)]
    fetch_counts(dois, _config(server.url, batch_size=2), Cache(tmp_path / "c.jsonl"))
    assert sorted(len(b) for b in server.requests) == [1, 2, 2]
    assert sorted(d for b in server.requests for d in b) == sorted(dois)


def test_bearer_key_read_from_environment(stub_provider, tmp_path, monkeypatch):
    server = stub_provider({"10.13/a": (1, 0.95)})
    monkeypatch.setenv("TEST_PROVIDER_KEY", "k123")
    config = _config(server.url, api_key_env="TEST_PROVIDER_KEY")
    fetch_counts(["10.13/a"], config, Cache(tmp_path / "c1.jsonl"))
    assert server.headers_seen[-1].get("Authorization") == "Bearer k123"
    monkeypatch.delenv("TEST_PROVIDER_KEY")
    fetch_counts(["10.13/b"], config, Cache(tmp_path / "c2.jsonl"))
    # missing key: request goes out without the header rather than failing
    assert "Authorization" not in server.headers_seen[-1]


class _FakeTime:
    """A monotonic clock that moves only when slept on or advanced."""

    def __init__(self):
        self.now = 0.0
        self.sleeps = 0

    def monotonic(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps += 1
        self.now += seconds


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.sampled_from([0.3, 0.5, 1.0, 2.5, 5.0, 7.5, 100.0]), st.floats(0.3, 110.0)),
    st.lists(st.one_of(st.just(0.0), st.floats(0.0, 0.05), st.floats(0.0, 3.0)), max_size=250),
)
@example(5.0, [0.0] * 12)
@example(0.5, [0.0, 0.0, 3.0, 0.0])
def test_rate_limiter_window(rate, gaps):
    clock = _FakeTime()
    with mock.patch.object(fetch_mod, "time", clock):
        limiter = RateLimiter(rate)
        n = math.ceil(rate)
        window = n / rate + fetch_mod.WINDOW_GUARD
        grants = []
        for k, gap in enumerate(gaps):
            clock.now += gap  # the next ask comes this long after the last grant
            earliest = clock.now if k < n else max(clock.now, grants[k - n] + window)
            limiter.acquire()
            grants.append(clock.now)
            # each grant comes as soon as the rule allows; the first n never sleep
            assert grants[k] == pytest.approx(earliest, rel=0, abs=1e-9)
            assert k >= n or clock.sleeps == 0
    for k in range(len(grants) - n):
        assert grants[k + n] - grants[k] >= window - 1e-9
    for i, start in enumerate(grants):
        assert bisect.bisect_left(grants, start + 1.0) - i <= n  # grants in [start, start + 1)


def test_rate_limiter_under_contention():
    limiter = RateLimiter(200.0)
    stamps = []
    lock = threading.Lock()

    def worker():
        for _ in range(5):
            limiter.acquire()
            with lock:
                stamps.append(time.monotonic())

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    stamps.sort()
    # any 1-second window holds at most ceil(rate) grants
    for i, t0 in enumerate(stamps):
        in_window = sum(1 for t in stamps if t0 <= t < t0 + 1.0)
        assert in_window <= 200


def test_rate_limiter_window_holds_under_contention():
    rate = 20.0
    n = math.ceil(rate)
    read = threading.local()

    def monotonic():
        read.last = time.monotonic()
        return read.last

    limiter = RateLimiter(rate)
    grants = []
    lock = threading.Lock()

    def worker():
        for _ in range(5):
            limiter.acquire()
            with lock:
                grants.append(read.last)  # the clock's last reading in acquire: the grant

    threads = [threading.Thread(target=worker) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(fetch_mod, "time", SimpleNamespace(monotonic=monotonic, sleep=time.sleep)):
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    grants.sort()
    assert len(grants) == 40
    window = n / rate + fetch_mod.WINDOW_GUARD
    assert all(later - earlier >= window - 1e-6 for earlier, later in zip(grants, grants[n:]))


def test_request_rate_within_limit_window(stub_provider, tmp_path):
    rate = 25.0
    server = stub_provider({f"10.14/{i}": (i, 0.95) for i in range(31)})
    # Warm the connection path so setup cost does not skew the first arrival.
    fetch_counts(["10.14/30"], _config(server.url), Cache(tmp_path / "warm.jsonl"))
    with server._lock:
        server.arrivals.clear()
    dois = [f"10.14/{i}" for i in range(30)]
    fetch_counts(
        dois, _config(server.url, batch_size=1, rate_limit=rate), Cache(tmp_path / "c.jsonl")
    )
    arrivals = sorted(server.arrivals)
    assert len(arrivals) == 30
    limit = math.ceil(rate)
    for t0 in arrivals:
        in_window = sum(1 for t in arrivals if t0 <= t < t0 + 1.0)
        assert in_window <= limit


def test_provider_config_validation():
    with pytest.raises(ValueError):
        ProviderConfig(base_url="")
    with pytest.raises(ValueError):
        ProviderConfig(base_url="http://x", batch_size=0)
    with pytest.raises(ValueError):
        ProviderConfig(base_url="http://x", rate_limit=0.0)
    with pytest.raises(ValueError):
        ProviderConfig(base_url="http://x", max_retries=-1)
    with pytest.raises(ValueError):
        ProviderConfig(base_url="http://x", min_match_probability=1.5)
    with pytest.raises(ValueError):
        RateLimiter(0.0)


@pytest.mark.parametrize("rate, message", [
    (float("inf"), "must be finite"), (float("-inf"), "must be > 0"), (float("nan"), "must be > 0"),
])
def test_a_rate_that_is_not_finite_and_positive_is_refused(rate, message):
    with pytest.raises(ValueError, match=message):
        ProviderConfig(base_url="http://x", rate_limit=rate)
    with pytest.raises(ValueError, match=message):
        RateLimiter(rate)


def test_a_huge_rate_keeps_only_the_grants_made():
    clock = _FakeTime()
    tracemalloc.start()
    try:
        with mock.patch.object(fetch_mod, "time", clock):
            limiter = RateLimiter(1e300)
            for _ in range(100):
                limiter.acquire()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert clock.sleeps == 0
    assert peak < 2**16


@pytest.mark.parametrize("batches, sleeps", [(5, 0), (6, 1)])
def test_up_to_ceil_rate_batches_go_without_a_limiter_sleep(stub_provider, tmp_path, monkeypatch, batches, sleeps):
    server = stub_provider({f"10.22/{i}": (i, 0.95) for i in range(2 * batches)})
    slept = []
    real_sleep = time.sleep

    def sleep(seconds):
        slept.append(seconds)
        real_sleep(seconds)

    monkeypatch.setattr(fetch_mod.time, "sleep", sleep)
    dois = [f"10.22/{i}" for i in range(2 * batches)]
    results = fetch_counts(dois, _config(server.url, batch_size=2, rate_limit=5), Cache(tmp_path / "c.jsonl"))
    assert [r.reads for r in results] == list(range(2 * batches))
    assert server.request_count == batches
    assert len(slept) == sleeps


def test_result_order_matches_input(stub_provider, tmp_path):
    server = stub_provider({f"10.15/{i}": (i, 0.95) for i in range(6)})
    dois = [f"10.15/{i}" for i in (4, 0, 5, 2, 2, 1)]
    results = fetch_counts(dois, _config(server.url, batch_size=2), Cache(tmp_path / "c.jsonl"))
    assert [r.doi for r in results] == dois


def test_negative_reader_count_is_a_failure(stub_provider, tmp_path):
    server = stub_provider({"10.16/bad": (-3, 0.95)})
    results = fetch_counts(["10.16/bad"], _config(server.url), Cache(tmp_path / "c.jsonl"))
    assert results[0].error is not None and results[0].reads is None
    assert Cache.latest(Cache(tmp_path / "c.jsonl").read_columns()).get("10.16/bad") is None


def test_match_probability_outside_unit_interval_is_a_bad_entry(stub_provider, tmp_path):
    server = stub_provider({"10.16/odd": (4, 1.5), "10.16/ok": (5, 0.95)})
    results = fetch_counts(["10.16/odd", "10.16/ok"], _config(server.url), Cache(tmp_path / "c.jsonl"))
    assert results[0].error == "bad response entry: match probability 1.5 outside [0, 1]"
    assert results[0].reads is None and results[1].reads == 5
    assert set(Cache.latest(Cache(tmp_path / "c.jsonl").read_columns())) == {"10.16/ok"}


@pytest.mark.parametrize("readers, probability, reason", [
    (3.7, 0.95, "not an integer: 3.7"),
    (True, 0.95, "not an integer: True"),
    (3, True, "not a number: True"),
])
def test_a_count_or_probability_of_another_type_is_a_bad_entry(
    stub_provider, tmp_path, readers, probability, reason
):
    server = stub_provider({"10.16/odd": (readers, probability), "10.16/whole": (6.0, 0.95)})
    results = fetch_counts(["10.16/odd", "10.16/whole"], _config(server.url), Cache(tmp_path / "c.jsonl"))
    assert results[0].error == f"bad response entry: {reason}" and results[0].reads is None
    assert results[1].reads == 6 and type(results[1].reads) is int
    assert set(Cache.latest(Cache(tmp_path / "c.jsonl").read_columns())) == {"10.16/whole"}


# ---------------------------------------------------------------------------
# Retry-After on 429


def test_429_retry_waits_for_retry_after(stub_provider, tmp_path):
    server = stub_provider({"10.17/x": (4, 0.95)}, throttle_first=1, retry_after="1")
    results = fetch_counts(["10.17/x"], _config(server.url), Cache(tmp_path / "c.jsonl"))
    assert results[0].reads == 4
    assert server.request_count == 2
    assert server.arrivals[1] - server.arrivals[0] >= 1.0  # backoff alone is 0.01 s here


def test_429_with_http_date_retries_after_backoff(stub_provider, tmp_path):
    server = stub_provider(
        {"10.18/x": (4, 0.95)}, throttle_first=2, retry_after="Wed, 21 Oct 2015 07:28:00 GMT"
    )
    results = fetch_counts(["10.18/x"], _config(server.url), Cache(tmp_path / "c.jsonl"))
    assert results[0].reads == 4
    assert server.request_count == 3
    assert server.arrivals[2] - server.arrivals[0] < 0.9


@pytest.mark.parametrize(
    "value, seconds",
    [
        ("2", 2.0), (" 3 ", 3.0), ("0", 0.0), ("86400", fetch_mod.RETRY_AFTER_CAP),
        ("1.5", 0.0), ("-1", 0.0), ("", 0.0), (None, 0.0), ("٣", 0.0),
        ("Wed, 21 Oct 2015 07:28:00 GMT", 0.0),
    ],
)
def test_retry_after_header_values(value, seconds):
    assert fetch_mod._retry_after(value) == seconds


# ---------------------------------------------------------------------------
# cache read: the bulk path against a line-by-line reference


def _number(value, integral=False):
    """float(value), or int(value) if ``integral``; a bool, or a fraction
    where an integer belongs, is no number."""
    if isinstance(value, bool) or integral and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"not a number: {value!r}")
    return int(value) if integral else float(value)


def _read_lines(path):
    """Cache.latest of Cache.read_columns, one line at a time: the latest
    entry per DOI (a tie goes to the later line) and the warning for each
    unreadable line."""
    entries, warnings = {}, []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line)
                result = FetchResult(
                    doi=str(raw["doi"]),
                    reads=None if raw["reads"] is None else _number(raw["reads"], integral=True),
                    match_probability=_number(raw["match_probability"]),
                    fetched_at=_number(raw["fetched_at"]),
                )
            except (KeyError, TypeError, ValueError, OverflowError):
                warnings.append(f"{path}:{lineno}: unreadable cache line skipped")
                continue
            prior = entries.get(result.doi)
            if prior is None or result.fetched_at >= prior.fetched_at:
                entries[result.doi] = result
    return entries, warnings


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages: list[str] = []

    def emit(self, record):
        self.messages.append(record.getMessage())


_PLAIN_ENTRY = st.fixed_dictionaries({
    "doi": st.sampled_from(["10.1/a", "10.1/b", "10.1/ä", 'q"\\']),
    "reads": st.one_of(st.none(), st.integers(0, 10**6)),
    "match_probability": st.floats(0, 1),
    "fetched_at": st.sampled_from([1.0, 2.0, 3.5]),
})
# per key, values Cache.append never writes
_ODD_VALUES = {
    "doi": st.integers(0, 3),
    "reads": st.one_of(
        st.booleans(), st.floats(allow_nan=True), st.sampled_from(["12", "x", "1.5"]), st.just([1]),
    ),
    "match_probability": st.one_of(
        st.integers(0, 1), st.booleans(), st.sampled_from(["0.9", "p"]), st.none(),
    ),
    "fetched_at": st.one_of(st.integers(0, 3), st.booleans(), st.just(float("nan")), st.just("4.0")),
}


@st.composite
def _odd_cache_line(draw):
    """A cache line with a key dropped or given a value Cache.append never
    writes, an extra key, padding that is not JSON whitespace, or no entry."""
    entry = draw(_PLAIN_ENTRY)
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return draw(st.sampled_from(["", "  ", "{", "not json", "[1]", "7", '{"doi": "z"} {"doi": "y"}']))
    if kind == 1:
        pad = draw(st.sampled_from(["\x0c", "\u00a0", "\u2028"]))
        return pad + json.dumps(entry) + pad
    if kind == 2:
        entry["note"] = draw(st.sampled_from(["x", 1, None, {"a": 1}, [2]]))
    else:
        key = draw(st.sampled_from(sorted(_ODD_VALUES)))
        if kind == 3:
            del entry[key]
        else:
            entry[key] = draw(_ODD_VALUES[key])
    return json.dumps(entry, sort_keys=draw(st.booleans()))


@st.composite
def _cache_lines(draw):
    """Lines as Cache.append writes them, with up to two odd ones mixed in."""
    lines = draw(st.lists(
        st.builds(json.dumps, _PLAIN_ENTRY, sort_keys=st.booleans()), max_size=12,
    ))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_odd_cache_line()))
    return lines


inf, nan = float("inf"), float("nan")


def _entry_line(doi, reads, fetched_at=2.0, probability=0.95):
    return json.dumps(
        {"doi": doi, "reads": reads, "match_probability": probability, "fetched_at": fetched_at}
    )


@settings(max_examples=400, deadline=None)
@given(_cache_lines(), st.sampled_from(["\n", "\r\n"]), st.sampled_from([4096, 3]))
# one odd value among plain lines, in a chunk of its own and not
@example([_entry_line("a", 1), _entry_line("b", True)], "\n", 4096)
@example([_entry_line("a", 1), _entry_line("b", 7, fetched_at=3)], "\n", 4096)
@example([_entry_line("a", 1), _entry_line("b", 7, probability=1)], "\n", 4096)
@example([_entry_line("a", 1), _entry_line("b", 2.0)], "\n", 4096)
@example([_entry_line("a", 1), _entry_line("b", 3.7), _entry_line("c", 2, probability=True)], "\n", 4096)
@example([_entry_line(7, 1), _entry_line("b", 2)], "\n", 4096)
@example([_entry_line("a", 1)] * 3 + [_entry_line("b", False)], "\n", 3)
# fetched_at edges: infinities, NaN before and after a finite time, a signed-zero tie
@example([_entry_line("a", 1, inf), _entry_line("a", 2, -inf), _entry_line("a", 3, inf)], "\n", 4096)
@example([_entry_line("b", 1, -inf), _entry_line("b", 2, -inf), _entry_line("b", 3, nan)], "\n", 4096)
@example([_entry_line("a", 1, nan), _entry_line("a", 2), _entry_line("a", 3, nan)], "\n", 4096)
@example([_entry_line("b", 1), _entry_line("b", 2, nan), _entry_line("b", 3, 1.0)], "\n", 4096)
@example([_entry_line("a", 1, 0.0), _entry_line("a", 2, -0.0), _entry_line("b", 3, -0.0),
          _entry_line("b", 4, 0.0)], "\n", 4096)
# one DOI's entries on both sides of a chunk boundary, the later chunk plain or not
@example([_entry_line("a", 1), _entry_line("b", 2), _entry_line("c", 3, 3.0),
          _entry_line("c", 4, 1.0), _entry_line("c", 5, 3.0)], "\n", 3)
@example([_entry_line("a", 1), _entry_line("b", 2), _entry_line("c", 3, 3.0),
          _entry_line("c", 4, 5.0), _entry_line("d", True)], "\n", 3)
def test_cache_latest_equals_line_by_line_reference(lines, newline, chunk_lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cache.jsonl"
        path.write_bytes(newline.join(lines).encode() + b"\n")
        handler = _Messages()
        logger = logging.getLogger("readscale.fetch")
        logger.addHandler(handler)
        try:
            with mock.patch.object(ingest, "_CHUNK_LINES", chunk_lines):
                entries = Cache.latest(Cache(path).read_columns())
        finally:
            logger.removeHandler(handler)
        expected, warnings = _read_lines(path)
    # repr tells nan apart from a missing value and 1 from 1.0
    assert [(doi, repr(r)) for doi, r in entries.items()] == [
        (doi, repr(r)) for doi, r in expected.items()
    ]
    assert handler.messages == warnings


def test_cache_line_with_infinite_reads_is_skipped(tmp_path, caplog):
    path = tmp_path / "cache.jsonl"
    path.write_text(
        '{"doi": "a", "reads": Infinity, "match_probability": 0.95, "fetched_at": 1.0}\n'
        '{"doi": "b", "reads": 3, "match_probability": 0.95, "fetched_at": 1.0}\n',
        encoding="utf-8",
    )
    with caplog.at_level("WARNING"):
        entries = Cache.latest(Cache(path).read_columns())
    assert list(entries) == ["b"]
    assert "cache.jsonl:1: unreadable cache line skipped" in caplog.text


def test_cache_line_whose_count_or_probability_has_another_type_is_skipped(tmp_path, caplog):
    path = tmp_path / "cache.jsonl"
    lines = [
        _entry_line("a", 3.7), _entry_line("b", True), _entry_line("c", 2, probability=True),
        _entry_line("d", 4.0), _entry_line("e", 5),
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with caplog.at_level("WARNING"):
        entries = Cache.latest(Cache(path).read_columns())
    assert {doi: r.reads for doi, r in entries.items()} == {"d": 4, "e": 5}
    assert type(entries["d"].reads) is int
    assert [r.getMessage() for r in caplog.records] == [
        f"{path}:{n}: unreadable cache line skipped" for n in (1, 2, 3)
    ]


# ---------------------------------------------------------------------------
# the cache read in two parts, as fetch splits it between two processes


@st.composite
def _cache_bytes(draw):
    """A cache's bytes and an offset in them: lines as Cache.append writes
    them with up to two odd ones, broken by "\\n", "\\r\\n" or "\\r", maybe after
    a byte-order mark, and maybe with a U+FEFF or bytes that are not UTF-8
    put in a line."""
    lines = [line.encode() for line in draw(_cache_lines())]
    if lines and draw(st.booleans()):
        k = draw(st.integers(0, len(lines) - 1))
        at = draw(st.integers(0, len(lines[k])))
        odd = draw(st.sampled_from([b"\xef\xbb\xbf", b"\xff", b"\xe2\x82"]))
        lines[k] = lines[k][:at] + odd + lines[k][at:]
    newline = draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))
    data = draw(st.sampled_from([b"", b"\xef\xbb\xbf"])) + newline.join(lines)
    data += draw(st.sampled_from([newline, b""]))
    return data, draw(st.integers(0, len(data)))


def _logged(read) -> tuple[str, list[str]]:
    """What ``read()`` returned, or the text of its IngestError, and the
    messages logged meanwhile."""
    handler = _Messages()
    root = logging.getLogger()
    root.addHandler(handler)
    try:
        try:
            outcome = repr(read())  # repr tells nan apart from None and 1 from 1.0
        except ingest.IngestError as exc:
            outcome = str(exc)
    finally:
        root.removeHandler(handler)
    return outcome, handler.messages


def _read_in_parts(cache: Cache, cut: int) -> tuple[list, ...]:
    """The head here, then the tail, as fetch reads them: the head's records
    held until the tail is read, and dropped if it fails."""
    with held_records() as records:
        columns = cache.read_columns(0, cut)
        for column, part in zip(columns, cache.read_columns(cut)):
            column.extend(part)
    replay(records)
    return columns


_A, _B = _entry_line("a", 1).encode(), _entry_line("b", 2, fetched_at=3.0).encode()
_BAD = b"{not json"


@settings(max_examples=300, deadline=None)
@given(_cache_bytes())
# unreadable lines in the head, in the tail and where the cut falls
@example((b"\n".join([_BAD, _A, _BAD, _B, _BAD]) + b"\n", 0))
@example((b"\n".join([_BAD, _A, _BAD, _B, _BAD]) + b"\n", len(_BAD) + len(_A) + 5))
@example((b"\n".join([_A, _B, _BAD]) + b"\n", len(_A) + len(_B) + 1))
# the cut falls inside a "\r\n", before its "\n" or on it
@example((b"\r\n".join([_A, _BAD, _B]) + b"\r\n", len(_A)))
@example((b"\r\n".join([_A, _BAD, _B]) + b"\r\n", len(_A) + 1))
@example((b"\r\n".join([_A, b"", _B]) + b"\r\n", len(_A) + 1))
# "\r" alone breaks the lines
@example((b"\r".join([_A, _BAD, _B, _BAD]) + b"\r", len(_A) + 2))
# a byte-order mark at the start, and a U+FEFF that opens a tail line
@example((b"\xef\xbb\xbf" + _A + b"\n" + _B + b"\n", 1))
@example((_A + b"\n\xef\xbb\xbf" + _B + b"\n" + _A + b"\n", 0))
# an empty cache and a cache of one line, with and without its break
@example((b"", 0))
@example((_A, 0))
@example((_A + b"\n", len(_A)))
# bytes that are not UTF-8 in the head or in the tail, after an unreadable line
@example((b"\n".join([_BAD, b"\xff" + _A, _B]) + b"\n", len(_BAD) + 2))
@example((b"\n".join([_BAD, _A, _B + b"\xe2\x82"]) + b"\n", 0))
@example((b"\xef\xbb\xbf" + b"\n".join([_BAD, _A, b"\xff" + _B]) + b"\n", 0))
def test_a_cache_read_in_two_parts_is_one_read(case):
    data, offset = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cache.jsonl"
        path.write_bytes(data)
        cut = fetch_mod._line_after(path, offset)
        assert cut == len(data) or data[cut - 1:cut] in (b"\n", b"\r") and data[cut - 1:cut + 1] != b"\r\n"
        whole = _logged(Cache(path).read_columns)
        parts = _logged(lambda: _read_in_parts(Cache(path), cut))
    assert parts == whole


def test_a_missing_cache_read_in_two_parts_has_no_lines(tmp_path):
    cache = Cache(tmp_path / "absent.jsonl")
    assert cache.head(0) == 0
    assert _read_in_parts(cache, 0) == cache.read_columns(5) == ([], [], [], [])


def test_the_head_grows_with_the_cache_beyond_the_work_before_it(tmp_path, monkeypatch):
    monkeypatch.setattr(fetch_mod, "CLIENT_BYTES", 1000)
    monkeypatch.setattr(fetch_mod, "HEAD_MIN_BYTES", 500)
    path = tmp_path / "cache.jsonl"
    line = _entry_line("10.1/x", 1).encode() + b"\r\n"
    path.write_bytes(line * 100)
    size = len(line) * 100
    cache = Cache(path)
    for ahead in (0, 2000, size - 2000, size):
        end = (size - ahead - 1000) // 2
        # the head ends at the line after the one that holds its middle byte
        expected = (end // len(line) + 1) * len(line) if end >= 500 else 0
        assert cache.head(ahead) == expected
    assert Cache(tmp_path).head(0) == 0  # a directory: the read reports it


def test_cached_answers_take_each_dois_latest_entry_above_the_threshold(tmp_path):
    cache = Cache(tmp_path / "c.jsonl")
    cache.append([FetchResult("a", 7, 0.95, 1.0), FetchResult("b", 8, 0.5, 1.0), FetchResult("a", 9, 0.99, 0.5)])
    assert fetch_missing([], _config("http://127.0.0.1:9"), cache) == {}  # nothing missing, nothing asked
    threshold = _config("http://unused").min_match_probability
    assert answer_from_cache(["a", "b", "a"], cache.read_columns(), threshold) == ([0, 1, 0], [7, None, 7])
