"""The analysis commands' corpus loader: forked or in process, the corpus,
log and failures of a parse in this process."""
from __future__ import annotations

import csv
import io
import json
import os
from itertools import chain
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import readscale.cli as cli_mod
import readscale.ingest as ingest
import readscale.worker as worker_mod
from conftest import ingest_logged
from readscale.cli import main
from readscale.corpus import Corpus
from readscale.ingest import parse_columns

MODES = [pytest.param("forked", marks=pytest.mark.skipif(not hasattr(os, "fork"), reason="forks")), "in process"]


@pytest.fixture
def loader_pids(tmp_path, monkeypatch):
    """The pid of each process that ran the loader, read back after the load."""
    path = tmp_path / "loader_pids"
    original = cli_mod._load_buffers

    def load(paths):
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return original(paths)

    monkeypatch.setattr(cli_mod, "_load_buffers", load)

    def pids():
        pids = [int(pid) for pid in path.read_text(encoding="utf-8").split()]
        path.unlink()
        return pids

    return pids


def _set_mode(monkeypatch, mode):
    monkeypatch.setattr(worker_mod, "_cpus", lambda: 2 if mode == "forked" else 1)


def _columns(corpus: Corpus) -> tuple:
    """Every column of ``corpus``, dtypes and bits included (repr tells -0.0
    from 0.0, tobytes tells NaNs apart)."""
    arrays = (corpus.fields, corpus.years, corpus.reads, corpus.real, corpus.cites)
    return (
        repr(corpus.ids.tolist()), corpus.ids.dtype.str, corpus.labels,
        [(a.dtype.str, a.shape, repr(a.tolist()), a.tobytes()) for a in arrays],
    )


_ROW = st.fixed_dictionaries(
    {
        "id": st.text(min_size=1, max_size=5),
        "field": st.sampled_from(["A", "Bio Chem", " Ärzte ", "日本", " ", True]),
        "year": st.one_of(st.integers(1900, 2100), st.sampled_from([True, 2010.0, None, "2010"])),
        "reads": st.one_of(
            st.integers(0, 10**18), st.floats(0, 1e12), st.sampled_from([True, None, -1, "7", 2**70])
        ),
    },
    optional={
        "cites": st.one_of(st.none(), st.integers(0, 500), st.sampled_from([False, -2, 1.5])),
        "note": st.text(max_size=3),
    },
)
_LINE = st.one_of(_ROW.map(json.dumps), st.sampled_from(["", "  ", "{", "[1]", "null"]))


def _csv_text(rows: list[dict], header: list[str]) -> str:
    """Rows as delimited text; a row of None is a blank line."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        if row is None:
            out.write("\n")
        else:
            writer.writerow(["" if row.get(name) is None else row.get(name) for name in header])
    return out.getvalue()


_CSV_HEADER = st.sampled_from([
    ["id", "field", "year", "reads"],
    ["id", "field", "year", "reads", "cites"],
    ["reads", "note", "id", "year", "field", "cites"],
])


@st.composite
def _inputs(draw):
    """(file name, text): line-JSON or CSV of plain and odd rows and blank lines."""
    if draw(st.booleans()):
        return "c.jsonl", "\n".join(draw(st.lists(_LINE, max_size=12))) + draw(st.sampled_from(["", "\n"]))
    rows = draw(st.lists(st.one_of(st.none(), _ROW), max_size=12))
    return "c.csv", _csv_text(rows, draw(_CSV_HEADER))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(_inputs(), min_size=1, max_size=2), st.sampled_from([ingest._CHUNK_LINES, 3]))
@example([("c.jsonl", '{"id": "a", "field": "A", "year": 2010, "reads": 1, "note": "x"}\n')], 3)
@example([("c.csv", "id,field,year,reads,cites\na,A,2010,3,\nb,B,2011,2.5,4\n")], 3)
# the second file brings a label that sorts first, beside one the first file had
@example([("c.csv", "id,field,year,reads\nz0,Zeta,2010,1\nz1,Zeta,2010,2\n"),
          ("c.jsonl", '{"id": "a", "field": "Alpha", "year": 2010, "reads": 3}\n'
                      '{"id": "y", "field": "Zeta", "year": 2011, "reads": 4}\n')], 3)
@pytest.mark.parametrize("mode", MODES)
def test_loader_corpus_equals_the_parsed_columns(mode, tmp_path, monkeypatch, loader_pids, inputs, chunk_lines):
    paths = []
    for i, (name, text) in enumerate(inputs):
        paths.append(tmp_path / f"{i}{name}")
        paths[-1].write_text(text, encoding="utf-8")
    _set_mode(monkeypatch, mode)
    with mock.patch.object(ingest, "_CHUNK_LINES", chunk_lines):
        parsed, expected_log = ingest_logged(lambda: [
            parse_columns(path, "line-json" if path.suffix == ".jsonl" else "delimited")[0]
            for path in paths
        ])
        loaded, log = ingest_logged(cli_mod._load_corpus, list(map(str, paths)))
    assert (loader_pids()[0] != os.getpid()) is (mode == "forked")
    joined = [list(chain(*column)) for column in zip(*parsed)]  # the files' rows, in order
    assert _columns(loaded) == _columns(Corpus.from_columns(*joined))
    assert log == expected_log


def _report(argv, out, capsys, caplog):
    caplog.clear()
    code = main(["report", *argv, "--out", str(out)])
    records = [(r.name, r.levelname, r.getMessage()) for r in caplog.records]
    return code, capsys.readouterr().out, records


def _plain_line(i: int, **extra) -> str:
    return json.dumps({"id": f"r{i}", "field": "A", "year": 2010, "reads": i, **extra})


@pytest.mark.parametrize("mode", MODES)
def test_year_beyond_64_bits_fails_after_the_later_chunks_warning(
    mode, tmp_path, capsys, caplog, monkeypatch, loader_pids
):
    first = tmp_path / "a.jsonl"  # loads cleanly, but for one malformed line
    first.write_text(_plain_line(0) + "\n{\n", encoding="utf-8")
    second = tmp_path / "b.jsonl"
    lines = [_plain_line(i) for i in range(1, 10)]
    lines[1] = json.dumps({"id": "big", "field": "A", "year": 10**19, "reads": 1})  # chunk 1
    lines[7] = _plain_line(8, extra=1)  # chunk 3
    second.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _set_mode(monkeypatch, mode)
    monkeypatch.setattr(ingest, "_CHUNK_LINES", 3)
    code, stdout, records = _report(["--input", str(first), "--input", str(second)], tmp_path / "out", capsys, caplog)
    assert (loader_pids()[0] != os.getpid()) is (mode == "forked")
    assert code == 1 and stdout == ""
    assert records == [
        ("readscale.cli", "WARNING", f"{first}: skipped 1 malformed rows"),
        ("readscale.ingest", "WARNING", "ignoring unknown keys: extra"),
        ("readscale.cli", "ERROR", "a year does not fit in 64 bits"),
    ]


@pytest.mark.parametrize("mode", MODES)
def test_missing_column_reads_as_in_process(mode, tmp_path, capsys, caplog, monkeypatch, loader_pids):
    path = tmp_path / "c.csv"
    path.write_text("id,field,year,cites\na,A,2010,1\n", encoding="utf-8")
    _set_mode(monkeypatch, mode)
    code, stdout, records = _report(["--input", str(path)], tmp_path / "out", capsys, caplog)
    assert (loader_pids()[0] != os.getpid()) is (mode == "forked")
    assert (code, stdout) == (1, "")
    assert records == [("readscale.cli", "ERROR", "missing mandatory column: 'reads'")]


def test_large_inputs_load_in_process(tmp_path, monkeypatch, loader_pids):
    path = tmp_path / "c.jsonl"
    path.write_text(_plain_line(1) + "\n" + _plain_line(2) + "\n", encoding="utf-8")
    _set_mode(monkeypatch, "forked")
    monkeypatch.setattr(cli_mod, "LOADER_FORK_BYTES", path.stat().st_size - 1)
    assert cli_mod._load_corpus([str(path)]).ids.tolist() == ["r1", "r2"]
    assert loader_pids() == [os.getpid()]


_HUGE_CITES = int("9" * 401)  # beyond float range, which a corpus holds cites in


@pytest.mark.parametrize("name", ["c.jsonl", "c.csv"])
def test_cites_beyond_float_range_is_skipped_alike_on_one_and_two_cpus(
    name, tmp_path, capsys, caplog, monkeypatch
):
    path = tmp_path / name
    rows = [("a", 1, 2), ("b", 2, _HUGE_CITES), ("c", 3, 4), ("d", 5, None)]
    if name.endswith(".jsonl"):
        path.write_text("".join(
            json.dumps({"id": i, "field": "A", "year": 2010, "reads": r, **({"cites": c} if c else {})}) + "\n"
            for i, r, c in rows
        ), encoding="utf-8")
    else:
        path.write_text("id,field,year,reads,cites\n" + "".join(
            f"{i},A,2010,{r},{'' if c is None else c}\n" for i, r, c in rows
        ), encoding="utf-8")
    runs = []
    for mode in ("forked", "in process"):
        _set_mode(monkeypatch, mode)
        runs.append(_report(["--input", str(path)], tmp_path / mode, capsys, caplog))
    code, stdout, records = runs[0]
    assert runs[1] == (code, stdout.replace("forked", "in process"), records)
    assert code == 0
    assert records[0] == ("readscale.cli", "WARNING", f"{path}: skipped 1 malformed rows")
    assert "ERROR" not in [level for _, level, _ in records]
    if name.endswith(".jsonl"):
        expected = (2, f"invalid cites {_HUGE_CITES}")
    else:  # the line after the header
        expected = (3, f"invalid cites '{_HUGE_CITES}'")
    assert parse_columns(path, "line-json" if name.endswith(".jsonl") else "delimited")[1].diagnostics == (expected,)


def test_a_year_or_cites_that_is_no_integer_is_skipped_alike_on_one_and_two_cpus(
    tmp_path, capsys, caplog, monkeypatch
):
    path = tmp_path / "c.jsonl"
    odd = [{"year": 2010.7}, {"year": True}, {"cites": 2.9}]
    lines = [_plain_line(i) for i in range(1, 6)] + [_plain_line(9, **values) for values in odd]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    runs = []
    for mode in ("forked", "in process"):
        _set_mode(monkeypatch, mode)
        runs.append(_report(["--input", str(path)], tmp_path / mode, capsys, caplog))
    code, stdout, records = runs[0]
    assert runs[1] == (code, stdout.replace("forked", "in process"), records)
    assert code == 0
    assert records[0] == ("readscale.cli", "WARNING", f"{path}: skipped 3 malformed rows")
    assert parse_columns(path, "line-json")[1].diagnostics == (
        (6, "invalid year 2010.7"), (7, "invalid year True"), (8, "invalid cites 2.9"),
    )
