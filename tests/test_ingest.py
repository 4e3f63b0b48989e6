"""Parsing, validation and round-trip serialization of corpus files."""
from __future__ import annotations

import csv
import io
import json
import logging
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from readscale import ingest
from readscale.corpus import Corpus, PublicationRecord
from readscale.ingest import (
    Columns,
    IngestError,
    IngestReport,
    SchemaError,
    parse_columns,
    parse_corpus,
    parse_into,
    parse_records,
    validate,
    write_diagnostics,
    write_records,
)
from conftest import ingest_logged, make_records

CSV_OK = """id,field,year,reads,cites
p1,Mathematics,2010,5,1
p2,Mathematics,2010,0,
p3,Surgery,2011,12,44
"""


def test_parse_csv_happy_path():
    records, report = parse_records(io.StringIO(CSV_OK))
    assert report.accepted == 3 and report.rejected == 0
    assert records[0] == PublicationRecord("p1", "Mathematics", 2010, 5, cites=1)
    assert records[1].cites is None
    assert records[2].reads == 12


def test_parse_tsv_delimiter():
    text = CSV_OK.replace(",", "\t")
    records, report = parse_records(io.StringIO(text), delimiter="\t")
    assert report.accepted == 3
    assert records[1].reads == 0


def test_malformed_rows_skipped_with_line_numbers():
    text = (
        "id,field,year,reads\n"
        "g1,A,2010,5\n"
        "g2,A,not-a-year,5\n"
        "g3,A,2010,-4\n"
        "g4,A,2010,\n"
        "g5,A,2010,6\n"
    )
    records, report = parse_records(io.StringIO(text))
    assert [r.id for r in records] == ["g1", "g5"]
    assert report.accepted == 2 and report.rejected == 3
    lines = [line for line, _ in report.diagnostics]
    assert lines == [3, 4, 5]
    reasons = " | ".join(reason for _, reason in report.diagnostics)
    assert "year" in reasons and "negative reads" in reasons and "empty reads" in reasons


def test_missing_mandatory_column_is_fatal():
    with pytest.raises(SchemaError) as err:
        parse_records(io.StringIO("id,field,year\np1,A,2010\n"))
    assert err.value.column == "reads"


def test_empty_delimited_file_lacks_the_id_column():
    with pytest.raises(SchemaError) as err:
        ingest.parse_columns(io.StringIO(""))
    assert err.value.column == "id"


def test_binary_stream_is_read_as_utf8():
    text = CSV_OK.replace("Surgery", "Chirurgie générale")
    columns, report = ingest.parse_columns(io.BytesIO(text.encode("utf-8")))
    assert (columns, report) == ingest.parse_columns(io.StringIO(text))
    assert columns.fields[2] == "Chirurgie générale"


@pytest.mark.parametrize("as_path", [True, False])
def test_csv_byte_order_mark_is_not_part_of_the_header(tmp_path, as_path):
    path = tmp_path / "bom.csv"
    path.write_text("\ufeff" + CSV_OK, encoding="utf-8")
    source = path if as_path else io.BytesIO(path.read_bytes())
    records, report = parse_records(source)
    assert records == parse_records(io.StringIO(CSV_OK))[0]
    assert report == IngestReport(3, 0)


def test_line_json_byte_order_mark_is_not_part_of_line_one(tmp_path):
    path = tmp_path / "bom.jsonl"
    path.write_text(
        "\ufeff" + '{"id": "p1", "field": "A", "year": 2010, "reads": 5}\n', encoding="utf-8"
    )
    records, report = parse_records(path, format="line-json")
    assert records == [PublicationRecord("p1", "A", 2010, 5)]
    assert report == IngestReport(1, 0)


def test_unknown_columns_ignored(caplog):
    text = "id,field,year,reads,shelf\np1,A,2010,3,x\n"
    with caplog.at_level("WARNING"):
        records, report = parse_records(io.StringIO(text))
    assert report.accepted == 1
    assert "shelf" in caplog.text


def test_parse_line_json():
    text = (
        '{"id": "j1", "field": "A", "year": 2010, "reads": 4}\n'
        "\n"
        "not json\n"
        '{"id": "j2", "field": "A", "year": 2010, "reads": 2.5}\n'
        '["a", "list"]\n'
    )
    records, report = parse_records(io.StringIO(text), format="line-json")
    assert [r.id for r in records] == ["j1", "j2"]
    assert records[1].reads == 2.5  # real-valued counts survive for oracle corpora
    assert report.rejected == 2
    assert report.diagnostics[0][0] == 3 and report.diagnostics[1][0] == 5


def test_line_json_infinite_year_or_cites_is_rejected_not_fatal():
    text = (
        '{"id": "a", "field": "A", "year": Infinity, "reads": 4}\n'
        '{"id": "b", "field": "A", "year": 2010, "reads": 4, "cites": -Infinity}\n'
        '{"id": "c", "field": "A", "year": 2010, "reads": 4}\n'
    )
    records, report = parse_records(io.StringIO(text), format="line-json")
    assert [r.id for r in records] == ["c"]
    assert report.diagnostics == ((1, "invalid year inf"), (2, "invalid cites -inf"))


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        parse_records(io.StringIO(""), format="parquet")


def test_write_records_refuses_an_unknown_format():
    with pytest.raises(ValueError, match="unknown format 'parquet'"):
        write_records(make_records([1], "A", 2010), io.StringIO(), format="parquet")


def test_validate_flags_duplicates_and_ranges():
    records = [
        PublicationRecord("d1", "A", 2010, 5),
        PublicationRecord("d1", "A", 2010, 7),
        PublicationRecord("d2", "A", 1850, 3),
        PublicationRecord("d3", "A", 2010, 4),
    ]
    report = validate(records)
    assert report.accepted == 2 and report.rejected == 2
    assert {pos for pos, _ in report.diagnostics} == {2, 3}


def test_validate_custom_year_range():
    records = [PublicationRecord("y1", "A", 2004, 1), PublicationRecord("y2", "A", 2013, 1)]
    report = validate(records, year_range=(2004, 2012))
    assert report.accepted == 1
    assert "2013" in report.diagnostics[0][1]


def test_validate_acceptance_ratio_of_large_mixed_batch():
    # A large batch with a realistic rejection tail: 42,291 raw rows of
    # which 1,659 are flawed leaves 40,632 accepted.
    rng = np.random.default_rng(2024)
    n_total, n_bad = 42_291, 1_659
    records = []
    bad_positions = set(rng.choice(n_total, size=n_bad, replace=False).tolist())
    for i in range(n_total):
        if i in bad_positions:
            records.append(PublicationRecord(f"r{i}", "F", 1492, int(rng.integers(0, 40))))
        else:
            records.append(PublicationRecord(f"r{i}", "F", 2010, int(rng.integers(0, 40))))
    report = validate(records)
    assert report.accepted == 40_632
    assert report.rejected == 1_659


@pytest.mark.parametrize("format", ["delimited", "line-json"])
def test_write_then_parse_roundtrip(tmp_path, format):
    rng = np.random.default_rng(5)
    records = []
    for i in range(200):
        records.append(
            PublicationRecord(
                id=f"rt-{i}",
                field=rng.choice(["Mathematics", "Cell Biology", "Surgery"]).item(),
                year=int(rng.integers(2004, 2013)),
                reads=int(rng.integers(0, 400)),
                cites=None if rng.random() < 0.3 else int(rng.integers(0, 50)),
            )
        )
    path = tmp_path / ("c.csv" if format == "delimited" else "c.jsonl")
    write_records(records, path, format=format)
    back, report = parse_records(path, format=format)
    assert report.rejected == 0
    assert back == records


def test_roundtrip_preserves_real_valued_reads(tmp_path):
    records = [PublicationRecord("f1", "A", 2010, 3.25), PublicationRecord("f2", "A", 2010, 7)]
    path = tmp_path / "c.jsonl"
    write_records(records, path, format="line-json")
    back, _ = parse_records(path, format="line-json")
    assert back[0].reads == 3.25 and isinstance(back[1].reads, int)


def test_non_utf8_input_is_fatal(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"id,field,year,reads\n\xff\xfe,A,2010,1\n")
    with pytest.raises(IngestError):
        parse_records(path)


@pytest.mark.parametrize(
    "format, text, numbers",
    [
        # blank rows are not numbered, and a rejected row's number is left out
        ("delimited", "id,field,year,reads\na,B,2010,1\n\nb,B,2010,2\nc,B,frog,3\nd,B,2010,4\n", [2, 3, 5]),
        # every line is numbered, blank ones too: in bulk ...
        ("line-json", '{"id": "a", "field": "B", "year": 2010, "reads": 1}\n\n'
         '{"id": "b", "field": "B", "year": 2010, "reads": 2}\n\n', [1, 3]),
        # ... and row by row
        ("line-json", '{"id": "a", "field": "B", "year": 2010, "reads": 1}\nnot json\n\n'
         '{"id": "b", "field": "B", "year": 2010, "reads": 2}\n', [1, 4]),
    ],
)
def test_parse_into_gives_each_record_its_line(format, text, numbers):
    columns = Columns([], [], [], [], [])
    report, lines = parse_into(columns, io.StringIO(text), format=format)
    assert (columns, report) == parse_columns(io.StringIO(text), format=format)
    assert list(lines) == numbers and len(columns.ids) == len(numbers)


def test_write_diagnostics_line_json(tmp_path):
    _, report = parse_records(io.StringIO("id,field,year,reads\nq1,A,2010,-2\n"))
    path = tmp_path / "diag.jsonl"
    write_diagnostics(report, path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows == [{"line": 2, "reason": "negative reads"}]


# ---------------------------------------------------------------------------
# line-JSON fast path: one json.loads per file, the per-row path as reference


_PLAIN = {
    "id": st.text(min_size=1, max_size=6).filter(str.strip),  # blanks alone are no id
    "field": st.sampled_from(["A", "Bio Chem", " Ärzte ", "日本"]),
    "year": st.integers(1800, 2200),
    "reads": st.one_of(st.integers(0, 10**18), st.floats(0, 1e12)),
}
# per key, values the per-row path rejects, coerces or reads otherwise than
# the fast path would
_FAULTS = {
    "id": st.sampled_from(["", " ", "\t ", None, 7, True]),
    "field": st.sampled_from(["", " ", None, 3, False]),
    "year": st.sampled_from([2010.0, 2010.5, float("inf"), "2010", True, None, 10**400]),
    "reads": st.sampled_from([-1, -0.5, True, False, None, "12", "", float("nan"), float("inf"), 10**400]),
    "cites": st.sampled_from([-1, 2.5, 3.0, "4", "", True, float("inf")]),
    "source": st.sampled_from([[1, 2], {"a": 1}]),
}


@st.composite
def _row(draw, odd: bool):
    """A well-formed row; with ``odd``, one of its keys dropped or given a faulty value."""
    row = {key: draw(value) for key, value in _PLAIN.items()}
    if draw(st.booleans()):
        row["cites"] = draw(st.one_of(st.none(), st.integers(0, 500)))
    if draw(st.integers(0, 3)) == 0:
        row[draw(st.sampled_from(["source", "note"]))] = draw(st.text(max_size=3))
    if odd:
        key = draw(st.sampled_from(list(_FAULTS)))
        if key in _PLAIN and draw(st.integers(0, 5)) == 0:
            del row[key]
        else:
            row[key] = draw(_FAULTS[key])
    return row


_CLEAN_LINE = _row(odd=False).map(json.dumps)
_FAULTY_LINE = st.one_of(
    _row(odd=True).map(json.dumps),
    st.sampled_from([
        "", "  ", "{", "not json", "[1, 2]", "5", '{"id": "x"} {"id": "y"}',
        '{"id": "p", "field": "A", "year": 2010, "reads": 1}, '
        '{"id": "q", "field": "A", "year": 2010, "reads": 2}',
    ]),
)


@st.composite
def _lines(draw):
    """Well-formed lines with up to two faulty ones mixed in."""
    lines = draw(st.lists(_CLEAN_LINE, max_size=10))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_FAULTY_LINE))
    return lines


def _numbered(lines):
    """``_parse_line_json_rows``'s arguments for a file of ``lines``."""
    return lines, range(1, len(lines) + 1), False


def _line_json(lines, end):
    return "\n".join(lines) + end


def _reads_line(reads) -> str:
    return json.dumps({"id": "r", "field": "A", "year": 2010, "reads": reads})


@settings(max_examples=300, deadline=None)
@given(_lines(), st.sampled_from(["", "\n", "\r\n"]))
# reads the fast path's checks must leave to the per-row path: an int beyond
# float range, a bool and a NaN, each beside a clean row
@example([_reads_line(1), _reads_line(10**400)], "\n")
@example([_reads_line(True), _reads_line(2)], "\n")
@example([_reads_line(3.5), _reads_line(float("nan"))], "\n")
@pytest.mark.parametrize("chunk_lines", [ingest._CHUNK_LINES, 3])
def test_line_json_fast_path_equals_per_row_path(chunk_lines, lines, end):
    text = _line_json(lines, end)
    with mock.patch.object(ingest, "_CHUNK_LINES", chunk_lines):
        (records, report), fast_log = ingest_logged(parse_records, io.StringIO(text), "line-json")
    (columns, diagnostics, _), row_log = ingest_logged(
        ingest._parse_line_json_rows, *_numbered(io.StringIO(text).readlines())
    )
    # repr tells 12 from 12.0 and -0.0 from 0.0
    assert list(map(repr, records)) == list(map(repr, map(PublicationRecord, *columns)))
    assert report == IngestReport(len(records), len(diagnostics), tuple(diagnostics))
    assert fast_log == row_log


def _corpus_or_error(fn, *args):
    """The corpus's columns, dtypes and bits included (repr tells -0.0 from
    0.0, tobytes tells NaNs apart), or the ValueError ``fn`` raised."""
    try:
        corpus = fn(*args)
    except ValueError as exc:
        return repr(exc)
    if isinstance(corpus, tuple):
        corpus, report = corpus
        assert report.accepted == len(corpus)
    columns = (corpus.ids, corpus.fields, corpus.years, corpus.reads, corpus.real, corpus.cites)
    return (
        corpus.labels, [(c.dtype.str, c.shape, repr(c.tolist()), c.tobytes()) for c in columns[1:]],
        repr(corpus.ids.tolist()),
    )


@settings(max_examples=300, deadline=None)
@given(_lines(), st.sampled_from(["\n", "\r\n", "\r"]), st.booleans())
# values the one-pass corpus build must leave to the per-row path or read as
# it does: bool reads beside ints, ints beyond int64 and beyond float range,
# a bool year and bool cites (which the per-row path rejects), and ints
# beside reals, whose rows alone are flagged real
@example([_reads_line(1), _reads_line(True)], "\n", True)
@example([_reads_line(2**63), _reads_line(2**70), _reads_line(10**400)], "\n", True)
@example([_reads_line(1), _reads_line(2.5), _reads_line(-0.0)], "\r\n", False)
@example([json.dumps({"id": "y", "field": "A", "year": True, "reads": 1, "cites": True})], "\n", True)
@pytest.mark.parametrize("chunk_lines", [ingest._CHUNK_LINES, 3])
def test_line_json_corpus_equals_per_row_corpus(chunk_lines, lines, newline, last):
    text = newline.join(lines) + (newline if last else "")
    with mock.patch.object(ingest, "_CHUNK_LINES", chunk_lines):
        fast, fast_log = ingest_logged(
            _corpus_or_error, parse_corpus, io.BytesIO(text.encode("utf-8")), "line-json"
        )
    # a file read with newline="" breaks lines at "\r\n", "\r" and "\n"
    (columns, _, _), row_log = ingest_logged(
        ingest._parse_line_json_rows, *_numbered(io.StringIO(text, newline="").readlines())
    )
    assert fast == _corpus_or_error(Corpus.from_columns, *columns)
    assert fast_log == row_log


def test_line_json_corpus_reports_per_row_rejections_with_line_numbers(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(
        _reads_line(1) + "\r\n" + _reads_line(True) + "\r" + "\r\n" + _reads_line(-1) + "\n",
        encoding="utf-8",
    )
    corpus, report = parse_corpus(path, format="line-json")
    assert corpus.reads.tolist() == [1.0]
    assert report == IngestReport(1, 2, ((2, "invalid reads True"), (4, "negative reads")))


def test_line_json_corpus_flags_the_real_beside_ints_that_sum_past_float_range():
    # twenty integers of 10**307 sum past float range, beside a real number:
    # only the row of 1.5 is flagged real
    lines = [_reads_line(10**307)] * 20 + [_reads_line(1.5)]
    text = "".join(line + "\n" for line in lines)
    corpus, report = parse_corpus(io.StringIO(text), format="line-json")
    assert report == IngestReport(21, 0)
    assert corpus.real.tolist() == [False] * 20 + [True]
    columns, _ = parse_columns(io.StringIO(text), format="line-json")
    assert _corpus_or_error(lambda: corpus) == _corpus_or_error(Corpus.from_columns, *columns)


def _bulk_parts(lines):
    """The :class:`Columns` of each chunk's values as the line-JSON reader
    decodes them, None for a chunk left to the per-row path."""
    return [
        rows and ingest.Columns.from_json_columns(*ingest._chunk_values(rows))
        for _, _, rows in ingest.decode_line_chunks(lines, ingest.KNOWN_COLUMNS)
    ]


@settings(max_examples=100, deadline=None)
@given(st.lists(_CLEAN_LINE, min_size=1, max_size=12))
def test_line_json_fast_path_takes_clean_files(lines):
    for chunk_lines in (ingest._CHUNK_LINES, 3):
        with mock.patch.object(ingest, "_CHUNK_LINES", chunk_lines):
            parts = _bulk_parts([line + "\n" for line in lines])
        assert parts and None not in parts


def test_line_json_fast_path_declines_rows_spanning_lines():
    # every line opens with "{", and the file decodes as three rows for three
    # lines, but the first row spans two lines through a nested value and the
    # third line holds two rows: the per-row path must judge them
    text = (
        '{"id": "a", "field": "F", "year": 2010, "reads": 1, "x": [1\n'
        '{"b": 2}]}\n'
        '{"id": "c", "field": "F", "year": 2010, "reads": 1}, '
        '{"id": "d", "field": "F", "year": 2010, "reads": 2}\n'
    )
    lines = io.StringIO(text).readlines()
    assert len(json.loads("[" + ",".join(lines) + "]")) == len(lines)
    assert _bulk_parts(lines) == [None]
    records, report = parse_records(io.StringIO(text), format="line-json")
    assert records == [] and [line for line, _ in report.diagnostics] == [1, 2, 3]


@pytest.mark.parametrize("parse", [parse_columns, parse_corpus])
def test_line_json_malformed_line_sends_only_its_chunk_to_the_per_row_path(parse):
    lines = [
        json.dumps({"id": f"r{i}", "field": "A", "year": 2010, "reads": i}) for i in range(1, 10)
    ]
    lines[4] = _reads_line(-1)  # line 5, in the second chunk of three lines
    text = "\n".join(lines) + "\n"
    spy = mock.patch.object(ingest, "_row_values", wraps=ingest._row_values)
    with mock.patch.object(ingest, "_CHUNK_LINES", 3), spy as row_values:
        parsed, report = parse(io.StringIO(text), format="line-json")
    assert row_values.call_count == 3  # lines 4 to 6
    assert report == IngestReport(8, 1, ((5, "negative reads"),))
    assert list(parsed.ids) == ["r1", "r2", "r3", "r4", "r6", "r7", "r8", "r9"]


def test_line_json_reader_numbers_lines_across_chunks_blank_lines_and_rejections():
    text = "\n".join([_reads_line(1), "", _reads_line(2), "  ", "", _reads_line(-1), _reads_line(3)])
    with mock.patch.object(ingest, "_CHUNK_LINES", 2):
        columns = Columns([], [], [], [], [])
        report, numbers = parse_into(columns, io.StringIO(text), format="line-json")
    assert list(numbers) == [1, 3, 7]
    assert report.diagnostics == ((6, "negative reads"),)
    assert list(columns.reads) == [1, 2, 3]


@pytest.mark.parametrize("parse", [parse_columns, parse_corpus])
@pytest.mark.parametrize("line, reason", [
    ('"  ",A,2010,3', "empty id"),
    ('p3,\t,2010,3', "empty field"),
])
def test_delimited_blank_id_or_field_is_rejected(parse, line, reason):
    text = "id,field,year,reads\np1,A,2010,1\n" + line + "\np4,A,2010,4\n"
    parsed, report = parse(io.StringIO(text))
    assert report == IngestReport(2, 1, ((3, reason),))
    assert list(parsed.ids) == ["p1", "p4"]


@pytest.mark.parametrize("parse", [parse_columns, parse_corpus])
@pytest.mark.parametrize("key, reason", [("id", "empty id"), ("field", "empty field")])
def test_line_json_blank_id_or_field_is_rejected(parse, key, reason):
    rows = [{"id": f"p{i}", "field": "A", "year": 2010, "reads": i} for i in range(3)]
    rows[1][key] = " "
    text = "".join(json.dumps(row) + "\n" for row in rows)
    parsed, report = parse(io.StringIO(text), format="line-json")
    assert report == IngestReport(2, 1, ((2, reason),))
    assert list(parsed.ids) == ["p0", "p2"]


# ---------------------------------------------------------------------------
# delimited bulk path against the per-row DictReader path


def _parse_delimited_rows(stream, delimiter):
    """Delimited parsing one csv.DictReader row at a time: the reference for
    the bulk path, as (columns, diagnostics)."""
    reader = csv.DictReader(stream, delimiter=delimiter)
    if reader.fieldnames is None:
        raise SchemaError("id")
    header = [h.strip() for h in reader.fieldnames]
    for col in ingest.MANDATORY_COLUMNS:
        if col not in header:
            raise SchemaError(col)
    unknown = [h for h in header if h not in ingest.KNOWN_COLUMNS]
    if unknown:
        logging.getLogger("readscale.ingest").warning(
            "ignoring unknown columns: %s", ", ".join(unknown)
        )
    rows, diagnostics = [], []
    for lineno, raw in enumerate(reader, start=2):
        row = {k.strip(): v for k, v in raw.items() if k is not None}
        try:
            rows.append(ingest._row_values(row))
        except ValueError as exc:
            diagnostics.append((lineno, str(exc)))
    return ingest._columns(rows), diagnostics


# per trimmed column name, values the bulk path takes as they are
_PLAIN_CELLS = {
    "id": st.sampled_from(["a1", "a2", " b ", "ä", 'q"x', "a,b", "line\nbreak"]),
    "field": st.sampled_from(["Bio", " Chem ", "Ärzte", "tab\there"]),
    "year": st.sampled_from(["2010", "1850", "٢٠١٠", "0", "9" * 18]),
    "reads": st.sampled_from(["0", "7", "00", "٣", "9" * 18]),
    "cites": st.sampled_from(["", "0", "12", "9" * 18]),
    "note": st.text(max_size=3),
}
# values the bulk path must leave to the per-row path
_ODD_CELLS = st.one_of(
    st.sampled_from([
        "", " ", " 7 ", "1_000", "+5", "-3", "1e3", "1E3", "2.5", "3.0", "nan", "inf", "²",
        "9" * 19, "9" * 400, "x", "0x10",
    ]),
    st.text(max_size=4),
)
_NAMES = st.sampled_from(["id", "field", "year", "reads", "cites", " id", "reads ", "note", "id"])


@st.composite
def _delimited(draw):
    """Text of a delimited file: a header that usually has the mandatory
    columns, rows that are plain but for at most one odd value and now and
    then of another width, blank lines and quoted line breaks."""
    names = draw(st.lists(_NAMES, max_size=3))
    if draw(st.integers(0, 5)):
        names = list(ingest.MANDATORY_COLUMNS) + names
        if draw(st.booleans()):
            names.append("cites")
    names = draw(st.permutations(names))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        row = [draw(_PLAIN_CELLS[name.strip()]) for name in names]
        if row and draw(st.booleans()):
            row[draw(st.integers(0, len(row) - 1))] = draw(_ODD_CELLS)
        if draw(st.integers(0, 4)) == 0:
            row = row[:draw(st.integers(0, len(row)))] + draw(st.lists(_ODD_CELLS, max_size=2))
        rows.append(row)
    delimiter = draw(st.sampled_from([",", "\t"]))
    out = io.StringIO()
    writer = csv.writer(out, delimiter=delimiter, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    writer.writerow(names)
    for row in rows:
        if draw(st.integers(0, 4)) == 0:
            out.write("\n")
        writer.writerow(row)
    return out.getvalue(), delimiter


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SchemaError as exc:
        return ("schema", exc.column)


@settings(max_examples=400, deadline=None)
@given(_delimited())
def test_delimited_bulk_path_equals_per_row_path(case):
    text, delimiter = case
    fast, fast_log = ingest_logged(
        _outcome, lambda: parse_records(io.StringIO(text, newline=""), delimiter=delimiter)
    )
    slow, slow_log = ingest_logged(
        _outcome, lambda: _parse_delimited_rows(io.StringIO(text, newline=""), delimiter)
    )
    assert fast_log == slow_log
    if isinstance(slow, tuple) and slow[0] == "schema":
        assert fast == slow
        return
    (records, report), (columns, diagnostics) = fast, slow
    assert list(map(repr, records)) == list(map(repr, map(PublicationRecord, *columns)))
    assert report == IngestReport(len(records), len(diagnostics), tuple(diagnostics))


def test_delimited_line_numbers_count_rows_not_lines():
    # blank lines and a quoted line break do not advance the row count
    text = 'id,field,year,reads\n\na1,A,2010,x\n"a\n2",A,2010,-1\n\n\na3,A,2010,\n'
    records, report = parse_records(io.StringIO(text, newline=""))
    assert records == []
    assert report.diagnostics == (
        (2, "invalid reads 'x'"), (3, "negative reads"), (4, "empty reads"),
    )


# ---------------------------------------------------------------------------
# line-JSON writer against json.dumps


_WRITER_RECORDS = st.lists(
    st.builds(
        PublicationRecord,
        id=st.text(),
        field=st.one_of(st.sampled_from(["A", 'Bio "Chem"', "C\\D", "\x00\x1f\x7f", "Ärzte 日本"]), st.text()),
        year=st.integers(-(10**20), 10**20),
        reads=st.one_of(st.integers(0, 10**30), st.floats(allow_nan=True, allow_infinity=True)),
        cites=st.one_of(st.none(), st.integers(-5, 10**20)),
    ),
    max_size=12,
)


@settings(max_examples=300, deadline=None)
@given(_WRITER_RECORDS)
def test_line_json_writer_bytes_equal_json_dumps(records):
    expected = "".join(
        json.dumps(
            {"id": r.id, "field": r.field, "year": r.year, "reads": r.reads,
             **({} if r.cites is None else {"cites": r.cites})},
            ensure_ascii=False,
        ) + "\n"
        for r in records
    )
    for source in (records, ingest.Columns.from_records(records)):
        out = io.StringIO()
        write_records(source, out, format="line-json")
        assert out.getvalue() == expected


# ---------------------------------------------------------------------------
# validate over columns against the per-record loop


def _validate_rows(records, lo, hi):
    seen, diagnostics = set(), []
    for pos, r in enumerate(records, start=1):
        if r.id in seen:
            diagnostics.append((pos, f"duplicate id {r.id}"))
        seen.add(r.id)
        if not lo <= r.year <= hi:
            diagnostics.append((pos, f"year out of range: {r.year}"))
        if r.reads < 0:
            diagnostics.append((pos, f"negative reads: {r.reads}"))
        if r.cites is not None and r.cites < 0:
            diagnostics.append((pos, f"negative cites: {r.cites}"))
    flagged = len({pos for pos, _ in diagnostics})
    return IngestReport(len(records) - flagged, flagged, tuple(diagnostics))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.builds(
            PublicationRecord,
            id=st.sampled_from(["a", "b", "c", "é"]),
            field=st.just("F"),
            year=st.integers(1890, 2110),
            reads=st.one_of(st.integers(-3, 5), st.floats(-2, 5)),
            cites=st.one_of(st.none(), st.integers(-3, 5)),
        ),
        max_size=12,
    )
)
def test_validate_columns_equals_per_record_loop(records):
    expected = _validate_rows(records, 1900, 2100)
    assert validate(records) == expected
    assert validate(ingest.Columns.from_records(records)) == expected
