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

from .corpus import YEAR_MAX, YEAR_MIN, PublicationRecord

log = logging.getLogger(__name__)

MANDATORY_COLUMNS = ("id", "field", "year", "reads")
FORMATS = ("delimited", "line-json")


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


def _row_to_record(row: dict) -> PublicationRecord:
    for col in MANDATORY_COLUMNS:
        if row.get(col) in (None, ""):
            raise ValueError(f"empty {col}")
    try:
        year = int(row["year"])
    except (TypeError, ValueError):
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
        except (TypeError, ValueError):
            raise ValueError(f"invalid cites {cites_raw!r}")
        if cites < 0:
            raise ValueError("negative cites")
    return PublicationRecord(
        id=str(row["id"]).strip(),
        field=str(row["field"]).strip(),
        year=year,
        reads=reads,
        cites=cites,
    )


def _open_text(source) -> IO[str]:
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8", newline="")
    if isinstance(source, io.TextIOBase):
        return source
    return io.TextIOWrapper(source, encoding="utf-8", newline="")


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
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}, expected one of {FORMATS}")
    stream = _open_text(source)
    try:
        if format == "delimited":
            records, diagnostics = _parse_delimited(stream, delimiter)
        else:
            records, diagnostics = _parse_line_json(stream)
    except UnicodeDecodeError as exc:
        raise IngestError(f"input is not valid UTF-8: {exc}") from exc
    finally:
        if isinstance(source, (str, Path)):
            stream.close()
    return records, IngestReport(
        accepted=len(records), rejected=len(diagnostics), diagnostics=tuple(diagnostics)
    )


def _parse_delimited(stream, delimiter: str) -> tuple[list[PublicationRecord], list]:
    reader = csv.DictReader(stream, delimiter=delimiter)
    if reader.fieldnames is None:
        raise SchemaError("id")
    header = [h.strip() for h in reader.fieldnames]
    for col in MANDATORY_COLUMNS:
        if col not in header:
            raise SchemaError(col)
    unknown = [h for h in header if h not in MANDATORY_COLUMNS + ("cites",)]
    if unknown:
        log.warning("ignoring unknown columns: %s", ", ".join(unknown))

    records: list[PublicationRecord] = []
    diagnostics: list[tuple[int, str]] = []
    for lineno, raw in enumerate(reader, start=2):  # line 1 is the header
        row = {k.strip(): v for k, v in raw.items() if k is not None}
        try:
            records.append(_row_to_record(row))
        except ValueError as exc:
            diagnostics.append((lineno, str(exc)))
    return records, diagnostics


def _parse_line_json(stream) -> tuple[list[PublicationRecord], list]:
    records: list[PublicationRecord] = []
    diagnostics: list[tuple[int, str]] = []
    warned_unknown = False
    for lineno, line in enumerate(stream, start=1):
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
        unknown = set(row) - set(MANDATORY_COLUMNS) - {"cites"}
        if unknown and not warned_unknown:
            log.warning("ignoring unknown keys: %s", ", ".join(sorted(unknown)))
            warned_unknown = True
        try:
            records.append(_row_to_record(row))
        except ValueError as exc:
            diagnostics.append((lineno, str(exc)))
    return records, diagnostics


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
