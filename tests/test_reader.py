"""One reader for every text input: corpora, the fetch cache and the DOI list
break lines alike, whatever the byte-order mark and line breaks of the file,
and a caller's byte stream stays open."""
from __future__ import annotations

import gc
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import readscale.fetch as fetch_mod
import readscale.worker as worker_mod
from readscale.cli import main
from readscale.fetch import Cache, FetchResult, answer_from_cache
from readscale.ingest import IngestError, parse_columns, parse_corpus, parse_records, read_lines

BREAKS = ("\n", "\r\n", "\r")
# characters that str.splitlines breaks at and the reader does not
NOT_BREAKS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_LINE = st.text(st.one_of(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n\ufeff"),
                          st.sampled_from(NOT_BREAKS)), max_size=12)


def _file_text(lines: list[str], breaks: list[str], last: bool) -> str:
    """``lines`` joined by ``breaks`` in turn, with a break after the last if
    ``last``; a "\\r" that a "\\n" would follow is written "\\r\\n", one break."""
    text = ""
    for i in reversed(range(len(lines))):
        cut = breaks[i % len(breaks)] if i < len(lines) - 1 or last else ""
        if cut == "\r" and text.startswith("\n"):
            cut = "\r\n"
        text = lines[i] + cut + text
    return text


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_LINE, min_size=1, max_size=8),
    st.lists(st.sampled_from(BREAKS), min_size=1, max_size=3),
    st.booleans(),
    st.booleans(),
)
def test_a_path_a_byte_stream_and_a_text_stream_give_the_same_lines(lines, breaks, last, bom):
    text = _file_text(lines, breaks, last)
    data = ("\ufeff" if bom else "").encode() + text.encode("utf-8")
    expected = lines + [""] if last else lines  # a final break leaves an empty last line
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lines.txt"
        path.write_bytes(data)
        assert read_lines(path) == read_lines(str(path)) == expected
    stream = io.BytesIO(data)
    assert read_lines(stream) == expected
    assert not stream.closed
    # a caller's text stream is iterated: its lines keep their breaks, and
    # no empty line follows the last break
    iterated = read_lines(io.StringIO(text, newline=""))
    assert [line.rstrip("\r\n") for line in iterated] == (expected[:-1] if expected[-1] == "" else expected)


def _cache_line(doi: str, reads, probability: float, fetched_at: float) -> str:
    entry = {"doi": doi, "reads": reads, "match_probability": probability, "fetched_at": fetched_at}
    return json.dumps(entry, ensure_ascii=False, sort_keys=True)


_CACHE_LINE = st.one_of(
    st.builds(
        _cache_line, st.sampled_from(["10.1/a", "10.1/ä", "10.1/\u2028x", "10.1/\x85"]),
        st.one_of(st.none(), st.integers(0, 99)), st.sampled_from([0.5, 0.95]),
        st.sampled_from([1.0, 2.0]),
    ),
    st.sampled_from(["", "  ", "{not json"]),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_CACHE_LINE, min_size=1, max_size=8),
    st.lists(st.sampled_from(BREAKS), min_size=1, max_size=3),
    st.booleans(),
)
def test_cache_reads_as_its_plain_lf_twin(lines, breaks, bom):
    with tempfile.TemporaryDirectory() as tmp:
        odd, plain = Path(tmp) / "odd.jsonl", Path(tmp) / "plain.jsonl"
        odd.write_bytes(("\ufeff" if bom else "").encode() + _file_text(lines, breaks, True).encode("utf-8"))
        plain.write_bytes("".join(line + "\n" for line in lines).encode("utf-8"))
        assert repr(Cache(odd).read_columns()) == repr(Cache(plain).read_columns())


def test_cache_keeps_a_first_entry_after_a_byte_order_mark(tmp_path, caplog):
    path = tmp_path / "cache.jsonl"
    lines = [_cache_line("10.1/a", 3, 0.95, 1.0), _cache_line("10.1/b", 4, 0.95, 1.0)]
    path.write_bytes(b"\xef\xbb\xbf" + "\r\n".join(lines).encode() + b"\r\n")
    with caplog.at_level("WARNING"):
        entries = Cache.latest(Cache(path).read_columns())
    assert {doi: r.reads for doi, r in entries.items()} == {"10.1/a": 3, "10.1/b": 4}
    assert caplog.records == []


def test_undecodable_cache_fails_as_a_corpus_does(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_bytes(_cache_line("10.1/a", 3, 0.95, 1.0).encode() + b"\n\xff\xfe\n")
    with pytest.raises(IngestError, match="input is not valid UTF-8: .*can't decode byte"):
        Cache(path).read_columns()


def _dois_read(argv: list[str], monkeypatch) -> list[str]:
    """The DOIs ``fetch`` answers, in order: those it looks up in the cache,
    none of which the provider client is asked about."""
    read = []

    def answered(dois, columns, threshold):
        read.extend(dois)
        return answer_from_cache(dois, columns, threshold)

    def fetch_missing(missing, config, cache):
        return {doi: FetchResult(doi, None, 0.0, 0.0) for doi in missing}

    monkeypatch.setattr(fetch_mod, "answer_from_cache", answered)
    monkeypatch.setattr(fetch_mod, "fetch_missing", fetch_missing)
    monkeypatch.setattr(worker_mod, "_cpus", lambda: 1)
    assert main(["fetch", "--provider-url", "http://127.0.0.1:9", *argv]) == 0
    return read


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.lists(st.one_of(_LINE, st.just("# a comment")), min_size=1, max_size=6),
    st.lists(st.sampled_from(BREAKS), min_size=1, max_size=3),
    st.booleans(),
)
def test_fetch_reads_the_dois_of_its_plain_lf_twin(tmp_path, monkeypatch, lines, breaks, bom):
    odd, plain = tmp_path / "odd.txt", tmp_path / "plain.txt"
    odd.write_bytes(("\ufeff" if bom else "").encode() + _file_text(lines, breaks, True).encode("utf-8"))
    plain.write_bytes("".join(line + "\n" for line in lines).encode("utf-8"))
    cache = ["--cache", str(tmp_path / "none.jsonl")]
    read = _dois_read(["--dois", str(odd), *cache], monkeypatch)
    assert read == _dois_read(["--dois", str(plain), *cache], monkeypatch)
    assert read == [d for d in map(str.strip, lines) if d and not d.startswith("#")]


def test_fetch_breaks_a_doi_list_at_line_breaks_alone(tmp_path, monkeypatch):
    dois = tmp_path / "dois.txt"
    dois.write_bytes("\ufeff10.1/a\r\n10.1/b\u2028c\r\n# note\r\n10.1/d\x85e\r\n".encode("utf-8"))
    read = _dois_read(["--dois", str(dois), "--cache", str(tmp_path / "none.jsonl")], monkeypatch)
    assert read == ["10.1/a", "10.1/b\u2028c", "10.1/d\x85e"]


CSV = b"id,field,year,reads\na,A,2010,3\n"
LINE_JSON = b'{"id": "a", "field": "A", "year": 2010, "reads": 3}\n'


@pytest.mark.parametrize("parse", [parse_columns, parse_corpus, parse_records])
@pytest.mark.parametrize("format, data", [
    ("delimited", CSV), ("line-json", LINE_JSON),
    ("delimited", CSV + b"b,\xff,2010,4\n"), ("line-json", LINE_JSON + b'{"id": "\xff"}\n'),
])
def test_a_callers_byte_stream_stays_open(parse, format, data):
    stream = io.BytesIO(data)
    if b"\xff" in data:
        with pytest.raises(IngestError, match="input is not valid UTF-8"):
            parse(stream, format)
    else:
        assert parse(stream, format)[1].accepted == 1
    gc.collect()  # the wrapper put around the stream is gone
    assert not stream.closed
    stream.seek(0)
    assert stream.read() == data
