"""``fetch`` answering from the cache's columns: the merged corpus, summary and
cache lines that a line-by-line reading of the cache gives, and the counts of
:func:`~readscale.fetch.fetch_counts` on the same cache, on one CPU and on
two, where the cache is read in a forked reader; and fetch end to end on one
CPU and on two, from a large warm cache and against a stub provider."""
from __future__ import annotations

import bisect
import json
import os
import pickle
import shutil
import subprocess
import sys
import tempfile
import zlib
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import ONE, SRC, TWO, alike, needs_two_cpus, pinned, synth_corpus
from readscale.fetch import Cache, FetchResult, ProviderConfig, fetch_counts, latest_lines
from readscale.ingest import Columns, write_records

pytestmark = needs_two_cpus  # the cache reader forks on two CPUs

DOIS = [f"10.1/{i}" for i in range(8)]
THRESHOLD = ProviderConfig(base_url="http://unused").min_match_probability


def _entry(doi: str, reads, probability: float, fetched_at: float) -> str:
    return json.dumps(
        {"doi": doi, "fetched_at": fetched_at, "match_probability": probability, "reads": reads},
        sort_keys=True,
    )


def _without_times(lines: list[str]) -> list[dict]:
    """Cache lines with the time of the fetch, which differs run to run, left out."""
    return [{k: v for k, v in json.loads(line).items() if k != "fetched_at"} for line in lines]


# probabilities below, at and above the threshold; times that tie
_ENTRIES = st.lists(
    st.tuples(
        st.sampled_from(DOIS),
        st.sampled_from([None, 0, 5, 12]),
        st.sampled_from([0.5, THRESHOLD, 0.95]),
        st.sampled_from([1.0, 2.0]),
    ),
    max_size=14,
)
# what the provider answers for a DOI the cache lacks: a count above or below
# the threshold, or nothing, a failed lookup
_ANSWERS = st.dictionaries(
    st.sampled_from(DOIS), st.tuples(st.integers(0, 50), st.sampled_from([0.5, THRESHOLD, 0.97])),
)


def _expected(entries: list[tuple], dois: list[str], answers: dict) -> tuple[list, int, list[dict]]:
    """A line-by-line reading of what fetch gives: each DOI's count, None where
    none clears the threshold, the number of failed lookups, and the cache
    lines appended, without their times. A DOI takes its latest cache entry,
    a tie going to the later line; the provider is asked about the others in
    sorted order, and a DOI it leaves out fails."""
    latest = {}
    for doi, reads, probability, fetched_at in entries:
        if doi not in latest or fetched_at >= latest[doi][2]:
            latest[doi] = (reads, probability, fetched_at)
    counts, failed = [], 0
    for doi in dois:
        reads, probability, _ = latest.get(doi) or (*answers.get(doi, (None, 0.0)), None)
        counts.append(reads if probability > THRESHOLD else None)
        failed += doi not in latest and doi not in answers
    asked = sorted(set(dois).difference(latest))
    appended = [
        {"doi": doi, "match_probability": answers[doi][1], "reads": answers[doi][0]}
        for doi in asked if doi in answers
    ]
    return counts, failed, appended


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    _ENTRIES,
    st.lists(st.sampled_from(DOIS), unique=True, max_size=6),
    st.lists(st.sampled_from(DOIS), max_size=5),
    _ANSWERS,
)
def test_fetch_answers_from_columns_as_fetch_counts_does(
    tmp_path, stub_provider, entries, corpus_ids, extra_dois, answers
):
    server = stub_provider(answers)
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    cache_lines = [_entry(*entry) for entry in entries]
    (work / "cache.jsonl").write_text("".join(line + "\n" for line in cache_lines))
    old_reads = [100 + i for i in range(len(corpus_ids))]
    corpus = Columns(corpus_ids, ["Bio"] * len(corpus_ids), [2010] * len(corpus_ids), old_reads,
                     [None] * len(corpus_ids))
    write_records(corpus, work / "corpus.jsonl", format="line-json")
    (work / "dois.txt").write_text("".join(doi + "\n" for doi in extra_dois))

    dois = [*corpus_ids, *extra_dois]
    counts, failed, appended = _expected(entries, dois, answers)
    # fetch_counts on a copy of the cache gives the same counts and cache lines
    shutil.copyfile(work / "cache.jsonl", work / "library-cache.jsonl")
    results = fetch_counts(dois, ProviderConfig(base_url=server.url), Cache(work / "library-cache.jsonl"))
    assert [r.reads for r in results] == counts
    assert len(results) - [r.error for r in results].count(None) == failed
    assert _without_times((work / "library-cache.jsonl").read_text().splitlines()[len(entries):]) == appended

    matched = len(counts) - counts.count(None)
    fetched = counts[:len(corpus_ids)]
    summary = (
        f"resolved {len(dois)} dois: {matched} matched, {len(dois) - matched - failed} below threshold, "
        f"{failed} failed" + (f", {len(fetched) - fetched.count(None)} merged" if corpus_ids else "")
    )
    merged = [old if new is None else new for old, new in zip(old_reads, fetched)]
    write_records(corpus._replace(reads=merged), work / "expected.jsonl", format="line-json")

    runs = {}
    for label, cpus in (("one", ONE), ("two", TWO)):
        cache = work / f"cache-{label}.jsonl"
        shutil.copyfile(work / "cache.jsonl", cache)
        argv = ["fetch", "--provider-url", server.url, "--cache", cache.name, "--dois", "dois.txt"]
        if corpus_ids:
            argv += ["--input", "corpus.jsonl"]
        code, stdout, stderr = pinned(cpus, [*argv, "--out", f"out-{label}"], work)
        assert (code, stdout) == (0, summary + "\n"), stderr
        lines = cache.read_text().splitlines()
        assert lines[:len(entries)] == cache_lines
        assert _without_times(lines[len(entries):]) == appended
        if corpus_ids:
            assert (work / f"out-{label}" / "corpus.jsonl").read_bytes() == (work / "expected.jsonl").read_bytes()
        runs[label] = stderr
    assert runs["one"] == runs["two"]


def test_the_latest_line_wins_and_a_tie_goes_to_the_later_line():
    dois = ["a", "b", "a", "c", "b", "a"]
    times = [2.0, 1.0, 1.0, 5.0, 1.0, 2.0]
    assert latest_lines(dois, times) == {"a": 5, "b": 4, "c": 3}
    assert list(latest_lines(dois, times)) == ["a", "b", "c"]  # in order of first sight


def test_cache_columns_pickled_in_another_process_load_as_read(tmp_path):
    path = tmp_path / "cache.jsonl"
    Cache(path).append([FetchResult("a", 3, 0.95, 1.5), FetchResult("b", None, 0.25, 2.0),
                        FetchResult("c", 2**70, 1.0, float("nan"))])
    code = (
        "import pickle, sys\n"
        "from readscale.fetch import Cache\n"
        f"sys.stdout.buffer.write(pickle.dumps(Cache({str(path)!r}).read_columns()))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    packed = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True).stdout
    dois, reads, probabilities, times = pickle.loads(packed)
    assert (dois, reads, list(probabilities), times[:2].tolist()) == (
        ["a", "b", "c"], [3, None, 2**70], [0.95, 0.25, 1.0], [1.5, 2.0],
    )
    assert times[2] != times[2]  # NaN


def _fetch_corpus(path: Path, seed: int, fields: list[tuple[str, int, float, float]]) -> list[str]:
    """The ids of a ``readscale synth`` corpus of 2015 written under ``path``."""
    spec = {"year": 2015, "seed": seed, "zero_inflation": 0.05, "fields": [
        {"label": label, "n": n, "mu": mu, "sigma2": sigma2} for label, n, mu, sigma2 in fields]}
    return [json.loads(line)["id"] for line in synth_corpus(path, spec).read_text().splitlines()]


def test_a_warm_cache_fetch_reads_alike_on_one_and_two_cpus(tmp_path):
    # every id of the corpus is cached, so the provider (a port where nothing
    # listens) is never asked; on two CPUs fetch decodes the cache's head
    # itself and its tail in a forked reader. The cache holds about 4 MB of
    # entries, mostly for other DOIs, with CRLF breaks and a byte-order mark,
    # which costs its first entry nothing, and unreadable lines near its
    # start, near 20% and at its end, each named by its line in the whole
    # file, in order. The --dois list has a byte-order mark and CRLF breaks
    ids = _fetch_corpus(tmp_path / "corpus", 5, [("Astro", 300, 2.0, 1.1), ("Maths", 40, 1.2, 0.6)])
    lines = [_entry(f"10.9/other-{k:05d}", k, 0.95, 1.0) for k in range(40000)]
    for k, doi in enumerate(ids):  # every 100th line; some below the match threshold
        lines[100 * k + 50] = _entry(doi, k, 0.5 if k % 7 == 0 else 0.95, 1.0)
    bad = [2, len(lines) // 5, len(lines) + 1]  # line numbers
    lines[bad[0] - 1] = lines[bad[1] - 1] = "{not json"
    lines.append("{not json")
    cache = tmp_path / "cache.jsonl"
    with open(cache, "w", encoding="utf-8-sig", newline="\r\n") as fh:
        fh.write("".join(line + "\n" for line in lines))
    with open(tmp_path / "dois.txt", "w", encoding="utf-8-sig", newline="\r\n") as fh:
        fh.write("".join(doi + "\n" for doi in ["# cached DOIs", *ids[:3]]))
    # on two CPUs, the cache is cut between the second and the third
    ahead = os.path.getsize(tmp_path / "corpus" / "corpus.jsonl") + os.path.getsize(tmp_path / "dois.txt")
    head = Cache(cache).head(ahead)
    assert os.path.getsize(cache) * 0.2 < head < os.path.getsize(cache) * 0.9, head
    before = cache.read_bytes()
    argv = ["fetch", "--input", "corpus/corpus.jsonl", "--dois", "dois.txt",
            "--provider-url", "http://127.0.0.1:9", "--cache", "cache.jsonl"]
    code, stdout, stderr, _ = alike(tmp_path, argv)
    assert code == 0, stderr
    assert cache.read_bytes() == before
    assert "resolved 343 dois: 293 matched, 50 below threshold, 0 failed, 291 merged" in stdout
    assert [line for line in stderr.splitlines() if "unreadable cache line" in line] == [
        f"WARNING readscale.fetch: cache.jsonl:{n}: unreadable cache line skipped" for n in bad
    ]


def test_a_cold_fetch_holds_the_rate_limit_on_one_and_two_cpus(tmp_path, stub_provider):
    # 350 corpus ids and an empty cache: seven batches of 50 go out under the
    # default rate limit of 5 requests per second, up to 5 at once. The stub
    # stamps each request as its handler starts; no half-open one-second
    # window may hold more than 5 of them. No lower bound on the time taken is
    # checked: shared machines are too noisy for one
    ids = _fetch_corpus(tmp_path / "corpus", 11, [("Astro", 200, 2.0, 1.1), ("Maths", 150, 1.2, 0.6)])
    answers = {}
    for doi in ids:  # every DOI answered, one in nine below the match threshold
        code = zlib.crc32(doi.encode())
        answers[doi] = code % 500, 0.5 if code % 9 == 0 else 0.95
    runs = {}
    for label, cpus in (("one", ONE), ("two", TWO)):
        server = stub_provider(answers)
        argv = ["fetch", "--input", "corpus/corpus.jsonl", "--provider-url", server.url,
                "--cache", f"cache-{label}.jsonl", "--out", f"out-{label}"]
        code, stdout, stderr = pinned(cpus, argv, tmp_path)
        assert code == 0, stderr
        runs[label] = stdout, stderr, (tmp_path / f"out-{label}" / "corpus.jsonl").read_bytes()
        entries = sorted(server.entries)
        assert len(entries) == 7, entries
        # the most entries in any half-open window [t, t + 1)
        most = max(bisect.bisect_left(entries, t + 1.0) - i for i, t in enumerate(entries))
        assert most <= 5, (label, most, entries)
    assert runs["one"] == runs["two"]
    summary = runs["one"][0]
    assert summary.startswith("resolved 350 dois: ") and " 0 failed" in summary
