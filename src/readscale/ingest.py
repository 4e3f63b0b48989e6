"""Parsing, validation and serialization of publication records.

Two on-disk formats are supported:

* delimited text (default comma), UTF-8, with a header row naming at least
  the mandatory columns ``id``, ``field``, ``year``, ``reads`` (``cites``
  optional, unknown columns ignored);
* line-JSON, one object per line with the same keys.

Malformed rows never abort a batch: they are skipped and reported with their
line number and a reason. Only an unreadable stream or a missing mandatory
column is fatal. Rows with an empty ``reads`` value are rejected, not imputed.
"""
from __future__ import annotations

import csv
import io
import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

from .corpus import YEAR_MAX, YEAR_MIN, Corpus, PublicationRecord

log = logging.getLogger(__name__)

MANDATORY_COLUMNS = ("id", "field", "year", "reads")
KNOWN_COLUMNS = frozenset(MANDATORY_COLUMNS + ("cites",))
FORMATS = ("delimited", "line-json")
# lines decoded per json.loads call on the line-JSON fast path
_CHUNK_LINES = 4096


class IngestError(Exception):
    """Fatal ingestion failure: unreadable stream or broken schema."""


class SchemaError(IngestError):
    """A mandatory column is missing from the input."""

    def __init__(self, column: str):
        self.column = column
        super().__init__(f"missing mandatory column: {column!r}")


@dataclass(frozen=True)
class IngestReport:
    """Outcome of a parse or validation pass.

    ``accepted + rejected`` equals the number of input rows, and
    ``diagnostics`` holds one ``(line_number, reason)`` pair per rejected or
    flagged row.
    """

    accepted: int
    rejected: int
    diagnostics: tuple[tuple[int, str], ...] = ()


def _coerce_reads(text: str) -> int | float:
    # Counts are integers in real corpora; synthetic oracle corpora may be
    # real-valued, so integral text stays int and anything else stays float.
    value = float(text)
    if not value == value or value in (float("inf"), float("-inf")):
        raise ValueError("non-finite")
    if value.is_integer() and "." not in text and "e" not in text.lower():
        return int(text)
    return value


def _row_values(row: dict) -> tuple:
    """(id, field, year, reads, cites) of one row, or ValueError naming the fault."""
    for col in MANDATORY_COLUMNS:
        if row.get(col) in (None, ""):
            raise ValueError(f"empty {col}")
    try:
        year = int(row["year"])
    except (TypeError, ValueError, OverflowError):  # OverflowError: a JSON Infinity
        raise ValueError(f"invalid year {row['year']!r}")
    try:
        reads = _coerce_reads(str(row["reads"]))
    except (TypeError, ValueError):
        raise ValueError(f"invalid reads {row['reads']!r}")
    if reads < 0:
        raise ValueError("negative reads")
    cites_raw = row.get("cites")
    cites = None
    if cites_raw not in (None, ""):
        try:
            cites = int(cites_raw)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"invalid cites {cites_raw!r}")
        if cites < 0:
            raise ValueError("negative cites")
    return str(row["id"]).strip(), str(row["field"]).strip(), year, reads, cites


def _open_text(source) -> IO[str]:
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8", newline="")
    if isinstance(source, io.TextIOBase):
        return source
    return io.TextIOWrapper(source, encoding="utf-8", newline="")


def _parse(source, format: str, delimiter: str) -> tuple[tuple[Sequence, ...], IngestReport]:
    """The (id, field, year, reads, cites) columns of the well-formed rows, in
    input order, and the report of every skipped row."""
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}, expected one of {FORMATS}")
    stream = _open_text(source)
    try:
        if format == "delimited":
            columns, diagnostics = _parse_delimited(stream, delimiter)
        else:
            columns, diagnostics = _parse_line_json(list(stream))
    except UnicodeDecodeError as exc:
        raise IngestError(f"input is not valid UTF-8: {exc}") from exc
    finally:
        if isinstance(source, (str, Path)):
            stream.close()
    return columns, IngestReport(
        accepted=len(columns[0]), rejected=len(diagnostics), diagnostics=tuple(diagnostics)
    )


def parse_records(
    source,
    format: str = "delimited",
    delimiter: str = ",",
) -> tuple[list[PublicationRecord], IngestReport]:
    """Parse records from a path or byte/text stream.

    Returns the well-formed records in input order together with an
    :class:`IngestReport` listing every skipped row. Raises
    :class:`SchemaError` if a mandatory column is absent and
    :class:`IngestError` if the stream cannot be decoded as UTF-8.
    """
    columns, report = _parse(source, format, delimiter)
    return list(map(PublicationRecord, *columns)), report


def parse_corpus(
    source,
    format: str = "delimited",
    delimiter: str = ",",
) -> tuple[Corpus, IngestReport]:
    """:func:`parse_records`, with the records as the columns of a :class:`Corpus`."""
    columns, report = _parse(source, format, delimiter)
    return Corpus.from_columns(*columns), report


def _columns(rows: list[tuple]) -> tuple[Sequence, ...]:
    return tuple(zip(*rows)) or ((),) * 5


def _parse_delimited(stream, delimiter: str) -> tuple[tuple[Sequence, ...], list]:
    reader = csv.DictReader(stream, delimiter=delimiter)
    if reader.fieldnames is None:
        raise SchemaError("id")
    header = [h.strip() for h in reader.fieldnames]
    for col in MANDATORY_COLUMNS:
        if col not in header:
            raise SchemaError(col)
    unknown = [h for h in header if h not in KNOWN_COLUMNS]
    if unknown:
        log.warning("ignoring unknown columns: %s", ", ".join(unknown))

    rows: list[tuple] = []
    diagnostics: list[tuple[int, str]] = []
    for lineno, raw in enumerate(reader, start=2):  # line 1 is the header
        row = {k.strip(): v for k, v in raw.items() if k is not None}
        try:
            rows.append(_row_values(row))
        except ValueError as exc:
            diagnostics.append((lineno, str(exc)))
    return _columns(rows), diagnostics


def _parse_line_json(lines: list[str]) -> tuple[tuple[Sequence, ...], list]:
    columns = _decode_line_json(lines)
    if columns is not None:
        return columns, []
    return _parse_line_json_rows(lines)


def _decode_line_json(lines: list[str]) -> tuple[list, ...] | None:
    """The columns of a line-JSON file decoded with one ``json.loads`` per
    chunk of lines and checked in bulk, or None when some row needs the
    per-row path: invalid JSON, a non-object, a missing or empty value, a
    value of another type than a plain string id and field, integer year,
    integer or float reads and integer cites (so a bool, a null, a numeric
    string or a float year), a negative or non-finite count, or a nested value.

    Each line keeps its line break, which no JSON token can contain, and opens
    with "{"; with only flat objects and as many as there are lines, each line
    holds exactly one of them. Chunks keep the decoded objects, which take
    several times the memory of the columns, from adding up.
    """
    lines = [line for line in lines if line.strip()]
    if not all(line.lstrip().startswith("{") for line in lines):
        return None
    columns: tuple[list, ...] = ([], [], [], [], [])
    unknown: set[str] = set()
    for start in range(0, len(lines), _CHUNK_LINES):
        chunk = lines[start:start + _CHUNK_LINES]
        try:
            rows = json.loads("[" + ",".join(chunk) + "]")
            if len(rows) != len(chunk):
                return None
            for column, key in zip(columns, MANDATORY_COLUMNS):
                column.extend([row[key] for row in rows])
        except (KeyError, TypeError, ValueError):
            return None
        columns[4].extend([row.get("cites") for row in rows])
        extra = [row for row in rows if not row.keys() <= KNOWN_COLUMNS]
        if any(isinstance(v, (dict, list)) for row in extra for v in row.values()):
            return None
        if extra and not unknown:
            unknown = extra[0].keys() - KNOWN_COLUMNS
    ids, fields, years, reads, cites = columns
    try:
        counts = np.array(reads, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None
    plain = (
        _types(ids) <= {str} and all(ids)
        and _types(fields) <= {str} and all(fields)
        and _types(years) <= {int}
        and _types(reads) <= {int, float} and np.isfinite(counts).all() and (counts >= 0).all()
        and _types(cites) <= {int, type(None)} and all(c >= 0 for c in cites if c is not None)
    )
    if not plain:
        return None
    if unknown:
        log.warning("ignoring unknown keys: %s", ", ".join(sorted(unknown)))
    return [i.strip() for i in ids], [f.strip() for f in fields], years, reads, cites


def _types(values: list) -> set[type]:
    return set(map(type, values))


def _parse_line_json_rows(lines: list[str]) -> tuple[tuple[Sequence, ...], list]:
    rows: list[tuple] = []
    diagnostics: list[tuple[int, str]] = []
    warned_unknown = False
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            diagnostics.append((lineno, f"invalid JSON: {exc.msg}"))
            continue
        if not isinstance(row, dict):
            diagnostics.append((lineno, "not a JSON object"))
            continue
        unknown = set(row) - KNOWN_COLUMNS
        if unknown and not warned_unknown:
            log.warning("ignoring unknown keys: %s", ", ".join(sorted(unknown)))
            warned_unknown = True
        try:
            rows.append(_row_values(row))
        except ValueError as exc:
            diagnostics.append((lineno, str(exc)))
    return _columns(rows), diagnostics


def validate(
    records: Sequence[PublicationRecord],
    year_range: tuple[int, int] = (YEAR_MIN, YEAR_MAX),
) -> IngestReport:
    """Flag duplicate ids, out-of-range years and negative counts.

    Purely a reporting pass: the input is never mutated and nothing raises.
    Diagnostic line numbers are 1-based positions in ``records``.
    """
    lo, hi = year_range
    seen: set[str] = set()
    diagnostics: list[tuple[int, str]] = []
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
    flagged = {pos for pos, _ in diagnostics}
    return IngestReport(
        accepted=len(records) - len(flagged),
        rejected=len(flagged),
        diagnostics=tuple(diagnostics),
    )


def write_records(
    records: Iterable[PublicationRecord],
    target,
    format: str = "delimited",
    delimiter: str = ",",
) -> None:
    """Serialize records so that :func:`parse_records` reproduces them exactly."""
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}, expected one of {FORMATS}")
    own = isinstance(target, (str, Path))
    stream = open(target, "w", encoding="utf-8", newline="") if own else target
    try:
        if format == "delimited":
            writer = csv.writer(stream, delimiter=delimiter, lineterminator="\n")
            writer.writerow(["id", "field", "year", "reads", "cites"])
            for r in records:
                writer.writerow(
                    [r.id, r.field, r.year, r.reads, "" if r.cites is None else r.cites]
                )
        else:
            for r in records:
                obj = {"id": r.id, "field": r.field, "year": r.year, "reads": r.reads}
                if r.cites is not None:
                    obj["cites"] = r.cites
                stream.write(json.dumps(obj, ensure_ascii=False) + "\n")
    finally:
        if own:
            stream.close()


def write_diagnostics(report: IngestReport, target) -> None:
    """Write a report's diagnostics as line-JSON, one object per rejected row."""
    own = isinstance(target, (str, Path))
    stream = open(target, "w", encoding="utf-8", newline="") if own else target
    try:
        for lineno, reason in report.diagnostics:
            stream.write(json.dumps({"line": lineno, "reason": reason}) + "\n")
    finally:
        if own:
            stream.close()
