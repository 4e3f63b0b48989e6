"""Table and CCDF writers against the per-cell and per-point code they replaced.

``write_table`` builds its line-JSON rows from per-type encoders and
``write_ccdf_tsv`` writes a curve's text at once; both must give the bytes the
earlier writers gave, which are copied here as the reference.
"""
from __future__ import annotations

import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from readscale.cli import _fmt1, _fmt3, _fmt_bool, _fmt_int, _fmt_num, write_table
from readscale.rescale import CcdfCurve, ccdf, write_ccdf_tsv

# ---------------------------------------------------------------------------
# the reference writers


def _reference_table(rows, columns, renderers) -> tuple[str, str]:
    lines = ["\t".join(columns)]
    for row in rows:
        cells = []
        for col in columns:
            v = row.get(col)
            render = renderers.get(col)
            text = "NA" if v is None else (render or str)(v)
            if render is None:  # a label or note: its backslash, tab, LF and CR escaped in the TSV
                text = text.replace("\\", "\\\\")
                text = text.replace("\t", "\\t").replace("\n", "\\n").replace("\r", "\\r")
            cells.append(text)
        lines.append("\t".join(cells))
    tsv_text = "\n".join(lines) + "\n"
    jsonl_text = "".join(
        json.dumps({c: row.get(c) for c in columns}) + "\n" for row in rows
    )
    return tsv_text, jsonl_text


def _reference_ccdf(values) -> np.ndarray:
    arr = np.sort(np.asarray(values, dtype=float))
    xs = np.unique(arr)
    first = np.searchsorted(arr, xs, side="left")
    ps = (arr.size - first) / arr.size
    return np.column_stack([xs, ps])


def _reference_ccdf_text(points) -> str:
    stream = io.StringIO()
    stream.write("x\tp\n")
    for x, p in points:
        stream.write(f"{float(x)!r}\t{float(p)!r}\n")
    return stream.getvalue()


# ---------------------------------------------------------------------------
# write_table

# the Python values the stages put in a table; write_table refuses any other
ANY_CELL = st.one_of(
    st.none(),
    st.floats(),  # NaN and both infinities included
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.text(),  # non-ASCII and control characters included
)
FLOAT_CELL = st.one_of(st.none(), st.floats())
INT_CELL = st.one_of(st.none(), st.integers(-(2**62), 2**62))
BOOL_CELL = st.one_of(st.none(), st.booleans())

# column -> (renderer or None for the default str, cell strategy)
COLUMNS = {
    "field": (None, ANY_CELL),
    "naïveé": (None, ANY_CELL),
    "tab\x07\"q\"": (None, st.text()),
    "r0": (_fmt1, FLOAT_CELL),
    "mu": (_fmt3, FLOAT_CELL),
    "obs": (_fmt_int, INT_CELL),
    "r_max": (_fmt_num, st.one_of(INT_CELL, FLOAT_CELL)),
    "reject": (_fmt_bool, BOOL_CELL),
}
RENDER = {col: render for col, (render, _) in COLUMNS.items() if render is not None}
ROW = st.fixed_dictionaries({}, optional={col: cells for col, (_, cells) in COLUMNS.items()})


def _written_table(rows, columns) -> tuple[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        write_table(rows, columns, RENDER, Path(tmp), "t", None)
        return tuple(
            (Path(tmp) / f"t.{ext}").read_bytes().decode("utf-8") for ext in ("tsv", "jsonl")
        )


@settings(max_examples=300, deadline=None)
@given(st.lists(ROW, max_size=6), st.lists(st.sampled_from(sorted(COLUMNS)), max_size=10))
def test_write_table_matches_per_cell_writer(rows, columns):
    assert _written_table(rows, columns) == _reference_table(rows, columns, RENDER)


def test_write_table_special_values():
    rows = [
        {"field": None, "mu": float("nan"), "r0": float("inf"), "r_max": -float("inf")},
        {"field": "Bioé ☃\n\x00", "mu": float("nan"), "obs": -3, "reject": True, "naïveé": 0.1},
        {"field": -0.0, "mu": 1e-300, "obs": 2**64, "reject": False, "naïveé": 7},
        {},
    ]
    columns = ["field", "mu", "r0", "r_max", "obs", "reject", "naïveé", "field"]
    tsv_text, jsonl_text = _written_table(rows, columns)
    assert (tsv_text, jsonl_text) == _reference_table(rows, columns, RENDER)
    assert jsonl_text.splitlines()[0] == (
        '{"field": null, "mu": NaN, "r0": Infinity, "r_max": -Infinity, "obs": null, '
        '"reject": null, "na\\u00efve\\u00e9": null}'
    )


# labels and notes made of the characters that break a TSV row, and others
BREAKING_TEXT = st.lists(
    st.sampled_from(["a", "é", " ", "\\", "\\t", "\t", "\n", "\r", "\r\n"]), max_size=6,
).map("".join)
BREAKING_ROW = st.fixed_dictionaries({"field": BREAKING_TEXT, "obs": INT_CELL, "note": BREAKING_TEXT})


@settings(max_examples=200, deadline=None)
@given(st.lists(BREAKING_ROW, max_size=6))
def test_write_table_keeps_a_tsv_row_on_one_line(rows):
    columns = ["field", "obs", "note"]
    tsv_text, jsonl_text = _written_table(rows, columns)
    lines = tsv_text.splitlines()
    assert len(lines) == len(rows) + 1
    assert all(len(line.split("\t")) == len(columns) for line in lines)
    assert [json.loads(line) for line in jsonl_text.splitlines()] == rows  # the line-JSON keeps every character


_UNESCAPE = re.compile(r"\\(.)")
_UNESCAPED = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}


@settings(max_examples=200, deadline=None)
@given(st.lists(BREAKING_ROW, max_size=6))
@example([{"field": "\\t", "obs": None, "note": "\t"}])  # a backslash and a t, then a tab
@example([{"field": "C:\\temp", "obs": 1, "note": "C:\temp"}])
def test_write_table_tsv_escapes_can_be_undone(rows):
    tsv_text, _ = _written_table(rows, ["field", "obs", "note"])
    for row, line in zip(rows, tsv_text.split("\n")[1:-1], strict=True):
        field, _, note = line.split("\t")
        back = [_UNESCAPE.sub(lambda m: _UNESCAPED[m.group(1)], cell) for cell in (field, note)]
        assert back == [row["field"], row["note"]]


def test_write_table_refuses_a_cell_type_without_encoder(tmp_path):
    for cell in (np.float64(1.5), np.int64(3), np.bool_(True), [1], {"a": 1}):
        with pytest.raises(TypeError, match="no line-JSON encoder"):
            write_table([{"field": cell}], ["field"], {}, tmp_path, "t", None)


# ---------------------------------------------------------------------------
# ccdf and write_ccdf_tsv

SAMPLES = st.one_of(
    st.lists(st.integers(0, 6), min_size=1, max_size=60),  # counts with ties
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=60),
    st.lists(st.floats(), min_size=1, max_size=30),  # NaN and infinities
    st.floats().map(lambda v: [v]),  # a single value
    st.tuples(st.integers(1, 400), st.integers(0, 2**32 - 1)).map(
        lambda t: (np.random.default_rng(t[1]).lognormal(0.0, 1.2, t[0]) / 1.7).tolist()
    ),
)


NAN, INF = float("nan"), float("inf")


@settings(max_examples=400, deadline=None)
@given(SAMPLES)
@example([NAN, 1.0, NAN, INF, -INF, NAN])  # NaNs count as one value
@example([NAN, NAN])
@example([0.0, -0.0, 0.0])
def test_ccdf_matches_unique_and_searchsorted(values):
    points = ccdf(values).points
    reference = _reference_ccdf(values)
    assert points.dtype == reference.dtype and points.shape == reference.shape
    assert points.tobytes() == reference.tobytes()


@settings(max_examples=200, deadline=None)
@given(SAMPLES)
@example([NAN, 2.5, NAN, INF])
def test_write_ccdf_tsv_matches_per_point_writer(values):
    curve = ccdf(values)
    expected = _reference_ccdf_text(curve.points)
    stream = io.StringIO()
    write_ccdf_tsv(curve, stream)
    assert stream.getvalue() == expected
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.tsv"
        write_ccdf_tsv(curve, path)
        assert path.read_bytes() == expected.encode("utf-8")
        write_ccdf_tsv(curve, str(path))
        assert path.read_bytes() == expected.encode("utf-8")


def test_write_ccdf_tsv_of_a_curve_built_by_hand():
    # integer and float32 points are written as the floats they hold
    for points in (np.array([[1, 1], [3, 0]]), np.array([[0.1, 1.0]], dtype=np.float32)):
        stream = io.StringIO()
        write_ccdf_tsv(CcdfCurve(points=points), stream)
        assert stream.getvalue() == _reference_ccdf_text(points)
