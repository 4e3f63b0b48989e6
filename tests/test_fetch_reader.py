"""``fetch`` with its cache decoded in a forked reader: the same results,
stdout, log, exit code and appended cache lines as the steps in sequence, and
no process left behind."""
from __future__ import annotations

import functools
import json
import logging
import os
import signal
import threading
import time
from pathlib import Path

import pytest

import readscale.cli as cli_mod
import readscale.fetch as fetch_mod
import readscale.worker as worker_mod
from conftest import make_records, tree
from readscale.cli import main
from readscale.fetch import Cache
from readscale.ingest import write_records

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the reader is forked")

DEAD_PROVIDER = "http://127.0.0.1:9"  # nothing listens there: a request would fail the run


def _entry(doi, reads, probability=0.95, fetched_at=1.0) -> str:
    return json.dumps(
        {"doi": doi, "fetched_at": fetched_at, "match_probability": probability, "reads": reads},
        sort_keys=True,
    )


@pytest.fixture
def corpus(tmp_path):
    """Five records and one line that is skipped as malformed."""
    path = tmp_path / "corpus.jsonl"
    write_records(make_records([3, 4, 5, 6, 7], "Bio", 2010, prefix="10.1/bio"), path, format="line-json")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"id": "10.1/bad", "field": "Bio", "year": 2010, "reads": -1}\n')
    return path


@pytest.fixture
def cache_lines():
    """Entries for three of the corpus's five ids, one of them below the
    threshold and one superseded, and a line that is unreadable."""
    return [
        _entry("10.1/bio-0000", 30),
        _entry("10.1/bio-0001", 41, fetched_at=2.0),
        "{not json",
        _entry("10.1/bio-0001", 40, fetched_at=1.0),
        _entry("10.1/bio-0002", None, probability=0.6),
    ]


@pytest.fixture
def reader_pids(tmp_path, monkeypatch):
    """The pid of each process that decoded a part of the cache with bytes
    in it, read back after the run."""
    path = tmp_path / "reader_pids"
    original = Cache.read_columns

    @functools.wraps(original)
    def read_columns(self, start=0, stop=None):
        if start != stop:
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
        return original(self, start, stop)

    monkeypatch.setattr(Cache, "read_columns", read_columns)
    return lambda: [int(pid) for pid in path.read_text(encoding="utf-8").split()]


def _forks(monkeypatch, forks: bool):
    monkeypatch.setattr(worker_mod, "forks", lambda: forks)


def _fetch(argv, out: Path, capsys, caplog):
    """(exit code, stdout, log records) of one fetch, its --out as OUT."""
    caplog.clear()
    code = main(["fetch", *argv, "--out", str(out)])
    stdout = capsys.readouterr().out
    records = [(r.name, r.levelname, r.getMessage().replace(str(out), "OUT")) for r in caplog.records]
    return code, stdout, records


def _reaped(pid: int) -> bool:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_forked_and_sequential_fetches_match(
    corpus, cache_lines, tmp_path, stub_provider, capsys, caplog, monkeypatch, reader_pids
):
    caplog.set_level(logging.INFO)
    # the two ids missing from the cache: one matched, one below the threshold
    server = stub_provider({"10.1/bio-0003": (70, 0.99), "10.1/bio-0004": (80, 0.7)})
    runs = {}
    for forks in (True, False):
        cache = tmp_path / f"cache-{forks}.jsonl"
        cache.write_text("\n".join(cache_lines) + "\n", encoding="utf-8")
        _forks(monkeypatch, forks)
        code, stdout, records = _fetch(
            ["--input", str(corpus), "--provider-url", server.url, "--cache", str(cache)],
            tmp_path / f"out-{forks}", capsys, caplog,
        )
        records = [(name, level, message.replace(str(cache), "CACHE")) for name, level, message in records]
        appended = [json.loads(line) for line in cache.read_text(encoding="utf-8").splitlines()[len(cache_lines):]]
        for entry in appended:
            del entry["fetched_at"]
        runs[forks] = (code, stdout, records, sorted(appended, key=str), tree(tmp_path / f"out-{forks}"))

    reader, sequential = reader_pids()
    assert reader != os.getpid() and sequential == os.getpid()
    assert _reaped(reader)
    assert runs[True] == runs[False]
    code, stdout, records, appended, out = runs[True]
    assert code == 0
    assert stdout == "resolved 5 dois: 3 matched, 2 below threshold, 0 failed, 3 merged\n"
    warnings = [message for _, level, message in records if level == "WARNING"]
    assert warnings == [
        f"{corpus}: skipped 1 malformed rows",
        "CACHE:3: unreadable cache line skipped",
    ]
    # the cache keeps the count of a below-threshold answer
    assert appended == [
        {"doi": "10.1/bio-0003", "match_probability": 0.99, "reads": 70},
        {"doi": "10.1/bio-0004", "match_probability": 0.7, "reads": 80},
    ]
    merged = [json.loads(line)["reads"] for line in out["corpus.jsonl"].decode().splitlines()]
    assert merged == [30, 41, 5, 70, 7]
    assert server.request_count == 2


def test_killed_reader_fails_the_run(corpus, tmp_path, capsys, caplog, monkeypatch, reader_pids):
    _forks(monkeypatch, True)
    original = Cache.read_columns

    def read_columns(self, start=0, stop=None):
        original(self, start, stop)  # records the pid
        if start != stop:
            os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(Cache, "read_columns", read_columns)
    code, stdout, records = _fetch(
        ["--input", str(corpus), "--provider-url", DEAD_PROVIDER, "--cache", str(tmp_path / "cache.jsonl")],
        tmp_path / "out", capsys, caplog,
    )
    assert code == 1 and stdout == ""
    assert records[-1] == (
        "readscale.cli", "ERROR", f"the cache reader was killed by signal {int(signal.SIGKILL)}",
    )
    (reader,) = reader_pids()
    assert reader != os.getpid() and _reaped(reader)
    assert not (tmp_path / "out").exists()


def test_corpus_failure_stops_the_reader(tmp_path, capsys, caplog, monkeypatch):
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b'{"id": "\xff"}\n')  # not UTF-8: the parse fails
    argv = ["--input", str(bad), "--provider-url", DEAD_PROVIDER, "--cache", str(tmp_path / "cache.jsonl")]
    _forks(monkeypatch, False)
    sequential = _fetch(argv, tmp_path / "out", capsys, caplog)

    started = tmp_path / "reader_started"

    def read_columns(self, start=0, stop=None):
        started.write_text(str(os.getpid()), encoding="utf-8")
        time.sleep(60)  # still decoding when the corpus fails: the reader is killed

    original_load = cli_mod._load_columns

    def load_after_the_reader_started(paths, years):
        deadline = time.monotonic() + 30
        while not started.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        return original_load(paths, years)

    monkeypatch.setattr(Cache, "read_columns", read_columns)
    monkeypatch.setattr(cli_mod, "_load_columns", load_after_the_reader_started)
    _forks(monkeypatch, True)
    begun = time.monotonic()
    forked = _fetch(argv, tmp_path / "out", capsys, caplog)
    assert time.monotonic() - begun < 30

    assert forked == sequential
    assert forked[0] == 1 and "input is not valid UTF-8" in forked[2][-1][2]
    reader = int(started.read_text(encoding="utf-8"))
    assert reader != os.getpid() and _reaped(reader)


@pytest.mark.parametrize("kind", ["directory", "not utf-8"])
def test_unreadable_cache_fails_as_in_sequence(kind, corpus, tmp_path, capsys, caplog, monkeypatch, reader_pids):
    cache = tmp_path / "cache.jsonl"
    if kind == "directory":
        cache.mkdir()
    else:
        cache.write_bytes(_entry("10.1/bio-0000", 30).encode() + b"\n\xff\xfe\n")
    argv = ["--input", str(corpus), "--provider-url", DEAD_PROVIDER, "--cache", str(cache)]
    runs = []
    for forks in (True, False):
        _forks(monkeypatch, forks)
        runs.append(_fetch(argv, tmp_path / "out", capsys, caplog))
    assert runs[0] == runs[1]
    code, stdout, records = runs[0]
    assert code == 1 and stdout == ""
    assert records[-1][:2] == ("readscale.cli", "ERROR")
    assert ("Is a directory" if kind == "directory" else "can't decode byte") in records[-1][2]
    reader, sequential = reader_pids()
    assert sequential == os.getpid() and reader != os.getpid() and _reaped(reader)


def test_a_running_thread_keeps_fetch_in_one_process(corpus, cache_lines, tmp_path, monkeypatch, reader_pids):
    monkeypatch.setattr(worker_mod, "_cpus", lambda: 2)
    cache = tmp_path / "cache.jsonl"
    # every id cached: the dead provider is never asked
    cache.write_text("\n".join(cache_lines + [_entry(f"10.1/bio-000{i}", i) for i in (3, 4)]) + "\n", encoding="utf-8")
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    thread.start()
    try:
        argv = ["fetch", "--input", str(corpus), "--provider-url", DEAD_PROVIDER, "--cache", str(cache)]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
    finally:
        release.set()
        thread.join(10)
    assert not thread.is_alive()
    assert reader_pids() == [os.getpid()]


@pytest.fixture
def split_caches(monkeypatch):
    """A cache of a few kB is split: the client counts for no bytes, and a
    head of one byte is worth it."""
    monkeypatch.setattr(fetch_mod, "CLIENT_BYTES", 0)
    monkeypatch.setattr(fetch_mod, "HEAD_MIN_BYTES", 1)


def _large_cache(path: Path, odd: dict[int, bytes]) -> None:
    """A cache of 200 entries for ids outside the corpus, then an entry for
    each corpus id (the third below the threshold) and a torn last line, with
    CRLF breaks; line ``k`` (from 1) is ``odd[k]`` where given."""
    lines = [_entry(f"10.9/other-{k:04d}", k).encode() for k in range(200)]
    lines += [_entry(f"10.1/bio-{k:04d}", 10 * k, 0.6 if k == 2 else 0.95).encode() for k in range(5)]
    lines.append(b'{"doi": "10.1/bio-0000"')
    for k, line in odd.items():
        lines[k - 1] = line
    path.write_bytes(b"\r\n".join(lines) + b"\r\n")


def test_a_split_read_logs_and_merges_as_one_read(
    corpus, tmp_path, capsys, caplog, monkeypatch, reader_pids, split_caches
):
    caplog.set_level(logging.INFO)
    bad = {2: b"{not json", 50: b"[1]", 150: b'{"doi": 7}'}
    runs = {}
    for forks in (True, False):
        cache = tmp_path / f"cache-{forks}.jsonl"
        _large_cache(cache, bad)
        _forks(monkeypatch, forks)
        argv = ["--input", str(corpus), "--provider-url", DEAD_PROVIDER, "--cache", str(cache)]
        code, stdout, records = _fetch(argv, tmp_path / f"out-{forks}", capsys, caplog)
        records = [(name, level, message.replace(str(cache), "CACHE")) for name, level, message in records]
        runs[forks] = (code, stdout, records, tree(tmp_path / f"out-{forks}"))

    # the head ends between the unreadable lines 50 and 150
    data = (tmp_path / "cache-True.jsonl").read_bytes()
    cut = Cache(tmp_path / "cache-True.jsonl").head(corpus.stat().st_size)
    assert b"\r\n[1]\r\n" in data[:cut] and b'{"doi": 7}' in data[cut:]
    # forked, the head is decoded here and the tail in the reader; in sequence, the whole cache here
    pids = reader_pids()
    assert len(pids) == 3 and pids.count(os.getpid()) == 2
    assert runs[True] == runs[False]
    code, stdout, records, out = runs[True]
    assert code == 0 and stdout == "resolved 5 dois: 4 matched, 1 below threshold, 0 failed, 4 merged\n"
    warnings = [message for _, level, message in records if level == "WARNING"]
    assert warnings == [f"{corpus}: skipped 1 malformed rows"] + [
        f"CACHE:{k}: unreadable cache line skipped" for k in (2, 50, 150, 206)
    ]
    merged = [json.loads(line)["reads"] for line in out["corpus.jsonl"].decode().splitlines()]
    assert merged == [0, 10, 5, 30, 40]


def test_a_tail_that_is_not_utf8_fails_without_the_heads_warnings(
    corpus, tmp_path, capsys, caplog, monkeypatch, reader_pids, split_caches
):
    runs = []
    for forks in (True, False):
        cache = tmp_path / "cache.jsonl"
        _large_cache(cache, {2: b"{not json", 180: b"\xff" + _entry("10.9/x", 1).encode()})
        _forks(monkeypatch, forks)
        argv = ["--input", str(corpus), "--provider-url", DEAD_PROVIDER, "--cache", str(cache)]
        runs.append(_fetch(argv, tmp_path / "out", capsys, caplog))
    data = cache.read_bytes()
    cut = Cache(cache).head(corpus.stat().st_size)
    assert b"{not json" in data[:cut] and b"\xff" in data[cut:]
    assert runs[0] == runs[1]
    code, stdout, records = runs[0]
    assert code == 1 and stdout == ""
    position = data.index(b"\xff")  # in the whole file
    assert [message for _, _, message in records] == [
        f"{corpus}: skipped 1 malformed rows",
        f"input is not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position {position}: invalid start byte",
    ]
    pids = reader_pids()
    assert len(pids) == 3 and pids.count(os.getpid()) == 2
