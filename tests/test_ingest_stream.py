"""``ingest`` with its parse streamed into the writer a part at a time: from a
forked parser on two CPUs, in this process on one. Both give the --out tree,
stdout, stderr and exit code of a reference that parses every input whole and
then checks, filters and writes them at once, and a failed run leaves no
corpus.jsonl."""
from __future__ import annotations

import csv
import inspect
import io
import json
import logging
import os
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import readscale.cli as cli_mod
import readscale.worker as worker_mod
from conftest import ONE, TWO, alike, needs_two_cpus, pinned, tree
from readscale import ingest
from readscale.cli import main
from readscale.ingest import parse_columns, write_records

pytestmark = needs_two_cpus  # the parser forks on two CPUs


def _reference_ingest(args) -> int:
    """``ingest`` with every input parsed whole before one check of them all:
    the files joined, validated, their rows filtered and written at once."""
    import logging
    from bisect import bisect_left
    from itertools import accumulate
    from pathlib import Path

    from readscale.ingest import Columns, IngestReport, parse_into, validate, write_diagnostics, write_records

    log = logging.getLogger("readscale.cli")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    columns = Columns([], [], [], [], [])
    files = []
    for name in args.input:
        path = Path(name)
        fmt = "line-json" if path.suffix == ".jsonl" else "delimited"
        report, lines = parse_into(columns, path, fmt, "\t" if path.suffix == ".tsv" else ",")
        if report.rejected:
            log.warning("%s: skipped %d malformed rows", path, report.rejected)
        files.append((path, report, lines))
    diagnostics = [(line, f"{path.name}: {reason}") for path, report, _ in files for line, reason in report.diagnostics]
    check = validate(columns)
    ends = list(accumulate(report.accepted for _, report, _ in files))
    for pos, reason in check.diagnostics:
        i = bisect_left(ends, pos)
        path, _, lines = files[i]
        diagnostics.append((lines[pos - 1 - (ends[i - 1] if i else 0)], f"{path.name}: {reason}"))
    flagged = {pos for pos, _ in check.diagnostics}
    years = set(args.year or ())
    kept = columns.take(
        pos not in flagged and (not years or year in years) for pos, year in enumerate(columns.years, start=1)
    )
    left_out = len(columns.ids) - check.rejected - len(kept.ids)
    if left_out:
        log.info("%d rows of other years left out", left_out)
    write_records(kept, out_dir / "corpus.jsonl", format="line-json")
    rejected = sum(report.rejected for _, report, _ in files) + check.rejected
    combined = IngestReport(accepted=len(kept.ids), rejected=rejected, diagnostics=tuple(diagnostics))
    write_diagnostics(combined, out_dir / "ingest_diagnostics.jsonl")
    if combined.rejected:
        log.warning("%d rows rejected; see ingest_diagnostics.jsonl", combined.rejected)
    print(f"accepted {combined.accepted} rejected {combined.rejected}")
    return 0


def _ingest_parts(cpus: set[int], argv: list[str], cwd: Path, chunk_lines: int | None = None) -> tuple:
    """(exit code, stdout, stderr, parts streamed) of ``readscale`` run in a
    child process pinned to ``cpus`` (see :func:`conftest.pinned`), its parts
    of ``chunk_lines`` rows, or, with none given, with :func:`_reference_ingest`
    for ``ingest``; "parts streamed" counts the parts that crossed a forked
    parser's stream."""
    streamed = cwd / f"streamed-{os.getpid()}-{len(os.listdir(cwd))}"
    prelude = (
        "from readscale import cli, ingest\n"
        + (f"ingest._CHUNK_LINES = {chunk_lines}\n" if chunk_lines else "")
        + ("" if chunk_lines else inspect.getsource(_reference_ingest) + "cli.cmd_ingest = _reference_ingest\n")
        + "receive = cli._IngestWriter.receive\n"
        "def counted(self, *args):\n"
        f"    with open({str(streamed)!r}, 'a') as fh:\n"
        "        fh.write('.')\n"
        "    receive(self, *args)\n"
        "cli._IngestWriter.receive = counted\n"
    )
    run = pinned(cpus, argv, cwd, prelude)
    parts = len(streamed.read_text()) if streamed.exists() else 0
    streamed.unlink(missing_ok=True)
    return (*run, parts)


# values drawn from small pools, so that ids repeat within and across files
# and parts, and every kind of bad row turns up
_ROWS = st.lists(
    st.tuples(
        st.sampled_from(["a1", "a2", "b1", " b2 ", "cé3", "d4", "e5"]),
        st.sampled_from(["Bio", "Chem", "line\nbreak", 'quo"te', "comma,tab\t", " "]),
        st.sampled_from(["2010", "2011", "2012", "1850", "n.d.", ""]),
        st.sampled_from(["0", "3", "17", "007", "-2", "", "2.5", "x"]),
        st.sampled_from(["", "0", "4", "-1", "y"]),
    ),
    max_size=12,
)


@st.composite
def _delimited(draw, delimiter: str) -> bytes:
    """A delimited file: quoted fields with line breaks, blank, short and
    long rows, and now and then a byte-order mark or "\\r\\n" breaks."""
    end = draw(st.sampled_from(["\n", "\r\n"]))
    out = io.StringIO()
    writer = csv.writer(out, delimiter=delimiter, lineterminator=end)
    writer.writerow(["id", "field", "year", "reads", "cites"])
    for row in draw(_ROWS):
        shape = draw(st.integers(0, 7))
        if shape == 0:
            out.write(end)  # a blank row
        elif shape == 1:
            row = row[:draw(st.integers(1, 4))]
        elif shape == 2:
            row = (*row, "surplus")
        writer.writerow(row)
    return ("\ufeff" if draw(st.booleans()) else "").encode() + out.getvalue().encode()


def _json_value(text: str):
    return int(text) if text.lstrip("-").isdigit() else text


@st.composite
def _line_json(draw) -> bytes:
    """A line-JSON file: objects with good and bad values, blank lines,
    invalid JSON and a line that is no object."""
    lines = []
    for id, field, year, reads, cites in draw(_ROWS):
        shape = draw(st.integers(0, 7))
        if shape == 0:
            lines.append("")
        elif shape == 1:
            lines.append('{"id": "broken"')
        elif shape == 2:
            lines.append("[1, 2]")
        else:
            row = {"id": id, "field": field, "year": _json_value(year), "reads": _json_value(reads)}
            if cites:
                row["cites"] = _json_value(cites)
            lines.append(json.dumps(row, ensure_ascii=draw(st.booleans())))
    return "".join(line + "\n" for line in lines).encode()


_FILES = st.lists(
    st.one_of(
        st.tuples(st.just(".csv"), _delimited(",")),
        st.tuples(st.just(".tsv"), _delimited("\t")),
        st.tuples(st.just(".jsonl"), _line_json()),
    ),
    min_size=1, max_size=3,
)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_FILES, st.one_of(st.none(), st.sampled_from([[2010], [2011, 2012], [1850]])))
def test_ingest_on_one_cpu_equals_two_and_the_reference(tmp_path, files, years):
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    inputs = []
    for i, (suffix, data) in enumerate(files):
        (work / f"in{i}{suffix}").write_bytes(data)
        inputs += ["--input", f"in{i}{suffix}"]
    flags = [arg for year in years or () for arg in ("--year", str(year))]
    runs = {}
    for label, cpus, chunk_lines in (("one", ONE, 2), ("two", TWO, 2), ("reference", ONE, None)):
        argv = ["ingest", *inputs, *flags, "--out", f"out-{label}"]
        *runs[label], parts = _ingest_parts(cpus, argv, work, chunk_lines)
        runs[label].append(tree(work / f"out-{label}"))
        assert parts == 0 or label == "two"
    assert runs["one"] == runs["two"] == runs["reference"]
    code, _, stderr, out = runs["one"]
    assert code == 0, stderr
    assert set(out) == {"corpus.jsonl", "ingest_diagnostics.jsonl"}


def test_edge_inputs_ingest_alike_on_one_and_two_cpus(tmp_path):
    # a CSV row with two findings counts as one rejected row, --year logs the
    # rows it leaves out, and a two-file ingest names a repeated id by its own
    # file and line
    (tmp_path / "rows.csv").write_text("id,field,year,reads\na1,Bio,2010,1\na2,Bio,2010,2\na1,Bio,1850,3\n")
    (tmp_path / "years.csv").write_text("id,field,year,reads\na1,Bio,2010,1\na2,Bio,2011,2\na3,Bio,1850,3\n")
    (tmp_path / "first.csv").write_text("id,field,year,reads\nb1,Bio,2010,1\nb2,Bio,2010,2\n")
    (tmp_path / "second.jsonl").write_text(
        '{"id": "b3", "field": "Bio", "year": 2010, "reads": 3}\n'
        '{"id": "b2", "field": "Bio", "year": 2010, "reads": 4}\n'
    )
    code, stdout, _, _ = alike(tmp_path, ["ingest", "--input", "rows.csv"])
    assert code == 0 and "accepted 2 rejected 1" in stdout.splitlines()
    code, stdout, stderr, _ = alike(tmp_path, ["ingest", "--input", "years.csv", "--year", "2010"])
    assert code == 0 and "accepted 1 rejected 1" in stdout.splitlines()
    assert "1 rows of other years left out" in stderr
    code, _, _, out = alike(tmp_path, ["ingest", "--input", "first.csv", "--input", "second.jsonl"])
    assert code == 0
    assert b'{"line": 2, "reason": "second.jsonl: duplicate id b2"}' in out["ingest_diagnostics.jsonl"].splitlines()


def test_a_forked_parser_streams_every_part(tmp_path):
    rows = "".join(f"r{i},Bio,2010,{i}\n" for i in range(10))
    (tmp_path / "rows.csv").write_text("id,field,year,reads\n" + rows)
    code, stdout, _, parts = _ingest_parts(TWO, ["ingest", "--input", "rows.csv", "--out", "out"], tmp_path, 3)
    assert (code, stdout, parts) == (0, "accepted 10 rejected 0\n", 4)


def _failure_case(tmp_path: Path, kind: str) -> list[str]:
    if kind == "invalid UTF-8 in a later part":
        # past the first block that the text stream decodes
        rows = b"".join(b"r%d,Bio,2010,%d\n" % (i, i) for i in range(1000))
        (tmp_path / "first.csv").write_bytes(b"id,field,year,reads\n" + rows + b"x,\xff,2010,1\n" + rows)
        return ["first.csv"]
    (tmp_path / "first.csv").write_text("id,field,year,reads\na,Bio,2010,1\nb,Bio,2010,-1\nc,Bio,2010,3\n")
    (tmp_path / "second.csv").write_text("id,field,year\nd,Bio,2010\n")
    return ["first.csv", "second.csv"]


@pytest.mark.parametrize("kind, stderr", [
    ("invalid UTF-8 in a later part",
     r"ERROR readscale\.cli: input is not valid UTF-8: 'utf-8' codec can't decode byte 0xff "
     r"in position \d+: invalid start byte\n"),
    ("a missing column in the second file",
     r"WARNING readscale\.cli: first\.csv: skipped 1 malformed rows\n"
     r"ERROR readscale\.cli: missing mandatory column: 'reads'\n"),
])
def test_a_failed_parse_leaves_no_corpus_and_logs_as_the_reference(tmp_path, kind, stderr):
    inputs = [arg for name in _failure_case(tmp_path, kind) for arg in ("--input", name)]
    runs = {}
    for label, cpus, chunk_lines in (("one", ONE, 3), ("two", TWO, 3), ("reference", ONE, None)):
        out = tmp_path / f"out-{label}"
        *runs[label], parts = _ingest_parts(cpus, ["ingest", *inputs, "--out", out.name], tmp_path, chunk_lines)
        assert os.listdir(out) == []
        if label == "two" and kind.startswith("invalid"):
            assert parts > 100  # written, and then dropped
    assert runs["one"] == runs["two"] == runs["reference"]
    code, stdout, logged = runs["one"]
    assert (code, stdout) == (1, "")
    assert re.fullmatch(stderr, logged)


@pytest.fixture(params=[True, False], ids=["forked", "in-process"])
def forks(request, monkeypatch):
    monkeypatch.setattr(worker_mod, "forks", lambda: request.param)
    return request.param


def test_every_part_is_checked_and_written_in_order(tmp_path, monkeypatch, forks):
    monkeypatch.setattr(ingest, "_CHUNK_LINES", 2)
    rows = [f"r{i % 7},Bio,{2009 + i % 3},{i}" for i in range(11)]
    (tmp_path / "rows.csv").write_text("id,field,year,reads\n" + "\n".join(rows) + "\n")
    parts = []
    extend = cli_mod._IngestWriter.extend
    monkeypatch.setattr(cli_mod._IngestWriter, "extend", lambda self, part: parts.append(part) or extend(self, part))
    out = tmp_path / "out"
    assert main(["ingest", "--input", str(tmp_path / "rows.csv"), "--year", "2010", "--out", str(out)]) == 0
    assert [len(part.ids) for part in parts] == [2, 2, 2, 2, 2, 1]
    # the rows of 2010 whose id no earlier row has
    columns, _ = parse_columns(tmp_path / "rows.csv")
    seen, keep = set(), []
    for i, year in zip(columns.ids, columns.years):
        keep.append(i not in seen and year == 2010)
        seen.add(i)
    write_records(columns.take(keep), tmp_path / "expected.jsonl", format="line-json")
    assert (out / "corpus.jsonl").read_bytes() == (tmp_path / "expected.jsonl").read_bytes()
    assert sorted(os.listdir(out)) == ["corpus.jsonl", "ingest_diagnostics.jsonl"]


def _failing(*args, **kwargs):
    raise OSError("no space left on the test's device")


@pytest.mark.parametrize("failing", ["_json_lines", "open"])
def test_a_failed_write_fails_the_run_once_the_parse_has_logged(tmp_path, monkeypatch, caplog, forks, failing):
    monkeypatch.setattr(ingest, "_CHUNK_LINES", 2)
    (tmp_path / "first.csv").write_text("id,field,year,reads\na,Bio,2010,1\nb,Bio,2010,2\nc,Bio,2010,x\n")
    (tmp_path / "second.csv").write_text("id,field,year,reads\nd,Bio,2011,4\ne,Bio,2010,y\n")
    # a failed open or write of the corpus, held until every input is read
    working = getattr(cli_mod, failing, open)
    monkeypatch.setattr(cli_mod, failing, _failing, raising=False)
    out = tmp_path / "out"
    old = out / "corpus.jsonl"
    out.mkdir()
    old.write_text("an earlier run's corpus\n")
    caplog.set_level(logging.INFO)
    argv = ["ingest", "--input", str(tmp_path / "first.csv"), "--input", str(tmp_path / "second.csv")]
    assert main([*argv, "--year", "2010", "--out", str(out)]) == 1
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
        ("WARNING", f"{tmp_path / 'first.csv'}: skipped 1 malformed rows"),
        ("WARNING", f"{tmp_path / 'second.csv'}: skipped 1 malformed rows"),
        ("INFO", "1 rows of other years left out"),
        ("ERROR", "no space left on the test's device"),
    ]
    assert os.listdir(out) == ["corpus.jsonl"] and old.read_text() == "an earlier run's corpus\n"
    monkeypatch.setattr(cli_mod, failing, working)
    assert main([*argv, "--out", str(out)]) == 0
    assert old.read_text().startswith('{"id": "a"')
