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

import contextlib
import csv
import functools
import gc
import io
import json
import logging
import marshal
import math
from array import array
from itertools import chain, compress, filterfalse, islice, repeat
from operator import itemgetter, not_
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

if TYPE_CHECKING:  # readscale.corpus loads numpy, which ingest itself never needs
    from .corpus import Corpus, PublicationRecord

log = logging.getLogger(__name__)

# Default bounds for a plausible publication year; validation uses these
# unless the caller overrides them.
YEAR_MIN = 1900
YEAR_MAX = 2100

MANDATORY_COLUMNS = ("id", "field", "year", "reads")
KNOWN_COLUMNS = frozenset(MANDATORY_COLUMNS + ("cites",))
FORMATS = ("delimited", "line-json")
# the rows or lines of one part of a parse: a delimited part, or the lines
# decoded per json.loads call on the line-JSON fast path
_CHUNK_LINES = 4096


class IngestError(Exception):
    """Fatal ingestion failure: unreadable stream or broken schema."""


class EmptyCorpusError(ValueError):
    """Raised when an operation requires at least one record."""


class SchemaError(IngestError):
    """A mandatory column is missing from the input."""

    def __init__(self, column: str):
        self.column = column
        super().__init__(f"missing mandatory column: {column!r}")

    def __reduce__(self):  # rebuilt from the column, not from the message
        return type(self), (self.column,), self.__dict__


class IngestReport(NamedTuple):
    """Outcome of a parse or validation pass.

    ``accepted + rejected`` equals the number of input rows, and
    ``diagnostics`` holds one ``(line_number, reason)`` pair per finding: one
    per rejected row of a parse, one or more per flagged row of a validation.
    ``ingest --year`` leaves the unflagged rows of other years out of both
    counts, and logs how many it left out.
    """

    accepted: int
    rejected: int
    diagnostics: tuple[tuple[int, str], ...] = ()


class Columns(NamedTuple):
    """Records as one sequence per attribute, in input order, each value as parsed:
    ``reads`` keeps an integer apart from a real number (and every digit of a
    large integer), ``cites`` holds None where a record has none.

    :func:`parse_columns` builds them, and :func:`validate` and
    :func:`write_records` read them without one object per record.
    """

    ids: Sequence[str]
    fields: Sequence[str]
    years: Sequence[int]
    reads: Sequence[int | float]
    cites: Sequence[int | None]

    @classmethod
    def from_records(cls, records: Iterable[PublicationRecord]) -> "Columns":
        records = list(records)
        return cls(
            [r.id for r in records], [r.field for r in records], [r.year for r in records],
            [r.reads for r in records], [r.cites for r in records],
        )

    @classmethod
    def from_json_columns(cls, ids, fields, years, reads, cites) -> "Columns | None":
        """Line-JSON values as decoded, ids and fields trimmed; None when a row
        needs the per-row path: an id or field of blanks alone, or a value of
        another type than a string id and field, integer year, integer or
        float reads and integer cites, a negative or non-finite count, or cites
        beyond float range."""
        try:
            ids, fields = list(map(str.strip, ids)), list(map(str.strip, fields))
        except TypeError:  # a value that is not a string
            return None
        try:
            plain = (
                all(ids) and all(fields) and _types(years) <= {int}
                # a sum is finite only if every term is; finite reads whose
                # sum overflows merely leave the rows to the per-row path
                and _types(reads) <= {int, float} and math.isfinite(sum(reads))
                and min(reads, default=0) >= 0
                and (cites.count(None) == len(cites) or _types(cites) <= {int, type(None)}
                     and min(filter(None, cites), default=0) >= 0
                     and math.isfinite(sum(filter(None, cites))))
            )
        except OverflowError:  # an int beyond float range, which the per-row path rejects
            return None
        return cls(ids, fields, years, reads, cites) if plain else None

    def take(self, keep: Iterable[bool]) -> "Columns":
        """The rows whose ``keep`` flag is true."""
        keep = list(keep)
        return Columns(*(list(compress(column, keep)) for column in self))

    def extend(self, part: "Columns") -> None:
        """Append the rows of ``part`` to these columns, which must be lists."""
        for column, values in zip(self, part):
            column.extend(values)


class CorpusBuffers:
    """The columns of a :class:`~readscale.corpus.Corpus`, built without numpy
    in growing standard-library buffers that :meth:`Corpus.from_buffers`
    adopts: ids as a list of str, each field's code into ``labels`` (trimmed
    label -> code, in order of first sight), years as int64, reads as
    float64 with a flag per row that marks a real number, and cites as
    float64, NaN where a record has none.

    A part whose years do not all fit in 64 bits is left out and sets
    :attr:`overflow`; :func:`parse_into` raises once the file is read, so
    that the file's warnings come first, as they would from a corpus built
    at the end. Pickled, the ids go through :mod:`marshal`, several times
    faster than pickle on a list of str.
    """

    def __init__(self) -> None:
        self.ids: list[str] = []
        self.labels: dict[str, int] = {}
        self.fields = array("q")
        self.years = array("q")
        self.reads = array("d")
        self.real = bytearray()
        self.cites = array("d")
        self.overflow = False

    def __getstate__(self) -> dict:
        return {**vars(self), "ids": marshal.dumps(self.ids)}

    def __setstate__(self, state: dict) -> None:
        vars(self).update(state, ids=marshal.loads(state["ids"]))

    def extend(self, part: Columns) -> None:
        """Append the rows of ``part``: fields trimmed, years int, reads int or
        float, cites int or None, as :class:`Columns` hold them."""
        try:
            years = array("q", part.years)
        except OverflowError:
            self.overflow = True
            return
        labels = self.labels
        try:
            codes = array("q", list(map(labels.__getitem__, part.fields)))
        except KeyError:  # a label first seen here
            for label in sorted(set(part.fields) - labels.keys()):
                labels[label] = len(labels)
            codes = array("q", list(map(labels.__getitem__, part.fields)))
        # arrays built whole and then joined: extend takes a list value by value
        self.fields += codes
        self.ids += part.ids
        self.years += years
        reads = part.reads
        self.reads += array("d", reads)
        try:
            real = type(sum(reads)) is float  # ints sum to an int, and a float makes it a float
        except OverflowError:  # ints beyond float range, then a float
            real = True
        self.real += bytes(map(isinstance, reads, repeat(float))) if real else bytes(len(reads))
        cites = part.cites
        if cites.count(None) == len(cites):
            self.cites += array("d", [math.nan]) * len(cites)
        else:
            self.cites += array("d", [math.nan if c is None else c for c in cites])


def gc_paused(fn):
    """``fn`` run with the cyclic garbage collector paused.

    A bulk parse makes an object or more per line and no reference cycles,
    yet each 700 new objects start a collection, and some of those walk the
    whole heap: about a fifth of the time of a cache read or a CSV parse,
    with nothing to free. A collector paused by the caller stays paused.
    """

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused


def _coerce_reads(text: str) -> int | float:
    # Counts are integers in real corpora; synthetic oracle corpora may be
    # real-valued, so integral text stays int and anything else stays float.
    value = float(text)
    if not value == value or value in (float("inf"), float("-inf")):
        raise ValueError("non-finite")
    if value.is_integer() and "." not in text and "e" not in text.lower():
        return int(text)
    return value


def as_int(value) -> int:
    """``int(value)`` of a year or count, which must be an integer: an integral
    float or a digit string gives its int, a bool or a float with a
    fractional part raises ValueError."""
    if type(value) is bool or type(value) is float and not value.is_integer():
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


def _row_values(row: dict) -> tuple:
    """(id, field, year, reads, cites) of one row, or ValueError naming the fault."""
    for col in MANDATORY_COLUMNS:
        if row.get(col) in (None, "") or col in ("id", "field") and not str(row[col]).strip():
            raise ValueError(f"empty {col}")
    try:
        year = as_int(row["year"])
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
            cites = as_int(cites_raw)
            float(cites)  # a corpus holds cites as floats, as it holds reads
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"invalid cites {cites_raw!r}")
        if cites < 0:
            raise ValueError("negative cites")
    return str(row["id"]).strip(), str(row["field"]).strip(), year, reads, cites


@contextlib.contextmanager
def _text(source) -> Iterator[IO[str]]:
    """A text stream over ``source``; paths and byte streams are read as UTF-8
    without the byte-order mark that spreadsheet exports often start with,
    and a caller's own text stream as it is. A file opened here is closed
    after, and the wrapper put around a caller's byte stream detached, so
    that the caller's stream stays open. Bytes that are not UTF-8 raise
    :class:`IngestError`."""
    if isinstance(source, io.TextIOBase):
        stream = source
    elif isinstance(source, (str, Path)):
        stream = open(source, "r", encoding="utf-8-sig", newline="")
    else:
        stream = io.TextIOWrapper(source, encoding="utf-8-sig", newline="")
    try:
        yield stream
    except UnicodeDecodeError as exc:
        raise IngestError(f"input is not valid UTF-8: {exc}") from exc
    finally:
        if isinstance(source, (str, Path)):
            stream.close()
        elif stream is not source:
            stream.detach()


def read_lines(source, start: int = 0, stop: int | None = None) -> list[str]:
    """The lines of ``source`` (see :func:`_text`), read in one call and broken
    at "\\r\\n", "\\r" and "\\n"; a caller's own text stream, whose line
    breaks are its own choice, is iterated. Of a path, the bytes from
    ``start``, which must open a line, up to ``stop`` may be read alone: a
    byte-order mark is dropped only at the file's start, and invalid UTF-8
    raises what a read from the file's start raises. Line-JSON corpora, the
    fetch cache and the DOI list are read here, delimited records through
    :func:`_text`."""
    if start or stop is not None:
        with open(source, "rb") as fh:
            fh.seek(start)
            data = fh.read(-1 if stop is None else stop - start)
        try:
            text = data.decode("utf-8" if start else "utf-8-sig")
        except UnicodeDecodeError as exc:
            if start:  # its position counts from the file's start
                read_lines(source, 0, stop)
            raise IngestError(f"input is not valid UTF-8: {exc}") from exc
    else:
        with _text(source) as stream:
            if stream is source:
                return list(stream)
            text = stream.read()
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def _parse_line_json(lines: list[str], sink) -> tuple[list, Sequence[int]]:
    """:func:`parse_into` of line-JSON ``lines`` a chunk at a time: what
    :meth:`Columns.from_json_columns` makes of a chunk's decoded values, or
    else what :func:`_parse_line_json_rows` makes of its lines, goes to
    ``sink`` before the next chunk is decoded."""
    diagnostics, numbers = [], []  # numbers: each chunk's lines
    warned = False
    for chunk_numbers, chunk, rows in decode_line_chunks(lines, KNOWN_COLUMNS):
        values = None if rows is None else _chunk_values(rows)
        part = None if values is None else Columns.from_json_columns(*values)
        if part is None:
            part, skipped, warned = _parse_line_json_rows(chunk, chunk_numbers, warned)
            diagnostics += skipped
            chunk_numbers = _unnamed(chunk_numbers, skipped)
        elif not warned:
            warned = _warn_unknown(rows, values[4])
        numbers.append(chunk_numbers)
        sink.extend(part)
    count = sum(map(len, numbers))
    last = next((n[-1] for n in reversed(numbers) if n), 0)
    # ascending numbers from 1 up that end at their count are 1 to count
    numbered = range(1, count + 1) if last == count else list(chain(*numbers))
    return diagnostics, numbered


def _unnamed(numbers: Sequence[int], diagnostics: list) -> Sequence[int]:
    """The line numbers in ``numbers`` that no diagnostic names."""
    if not diagnostics:
        return numbers
    rejected = set(map(itemgetter(0), diagnostics))
    return list(filterfalse(rejected.__contains__, numbers))


@gc_paused
def parse_into(
    sink,
    source,
    format: str = "delimited",
    delimiter: str = ",",
) -> tuple[IngestReport, Sequence[int]]:
    """Append the records of a path or byte/text stream to ``sink``, a
    :class:`Columns` of lists, a :class:`CorpusBuffers` or any object whose
    ``extend`` takes :class:`Columns`, a part of at most ``_CHUNK_LINES``
    rows or lines at a time.

    Returns the :class:`IngestReport` of this source's rows alone, and each
    record's line number as the report numbers the skipped rows: a line-JSON
    file counts every line, a delimited file its header and each non-blank
    record. Raises :class:`SchemaError` if a mandatory column is absent,
    :class:`IngestError` if the stream is not UTF-8, and, after the source's
    warnings, :class:`ValueError` if a year overflows a ``CorpusBuffers``.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}, expected one of {FORMATS}")
    if format == "line-json":
        diagnostics, numbers = _parse_line_json(read_lines(source), sink)
    else:
        with _text(source) as stream:
            diagnostics, count = _parse_delimited(stream, delimiter, sink)
        # line 1 is the header, and blank rows are not numbered
        numbers = _unnamed(range(2, count + 2), diagnostics)
    if isinstance(sink, CorpusBuffers) and sink.overflow:
        raise ValueError("a year does not fit in 64 bits")
    return IngestReport(len(numbers), len(diagnostics), tuple(diagnostics)), numbers


def parse_columns(
    source,
    format: str = "delimited",
    delimiter: str = ",",
) -> tuple[Columns, IngestReport]:
    """Parse records from a path or byte/text stream into :class:`Columns`.

    Returns the well-formed records in input order together with an
    :class:`IngestReport` listing every skipped row; raises as
    :func:`parse_into` does.
    """
    columns = Columns([], [], [], [], [])
    report, _ = parse_into(columns, source, format, delimiter)
    return columns, report


def parse_records(
    source,
    format: str = "delimited",
    delimiter: str = ",",
) -> tuple[list[PublicationRecord], IngestReport]:
    """:func:`parse_columns`, with the records as :class:`PublicationRecord` objects."""
    from .corpus import PublicationRecord

    columns, report = parse_columns(source, format, delimiter)
    return list(map(PublicationRecord, *columns)), report


def parse_corpus(
    source,
    format: str = "delimited",
    delimiter: str = ",",
) -> tuple[Corpus, IngestReport]:
    """:func:`parse_columns`, with the records as a :class:`Corpus`: the
    buffers that :func:`parse_into` fills, adopted."""
    from .corpus import Corpus

    buffers = CorpusBuffers()
    report, _ = parse_into(buffers, source, format, delimiter)
    return Corpus.from_buffers(buffers), report


def _columns(rows: list[tuple]) -> Columns:
    return Columns(*(zip(*rows) if rows else ((),) * len(Columns._fields)))


def _parse_delimited(stream, delimiter: str, sink) -> tuple[list, int]:
    """Rows as ``csv.DictReader`` reads them, with its keys trimmed: blank rows
    are skipped and not numbered, of header names equal once trimmed the last
    column wins, a short row lacks its last values and a long row's surplus is
    dropped. Each part of ``_CHUNK_LINES`` rows goes to ``sink`` before the
    next is read. Returns the ``(line, reason)`` pairs of the rows rejected
    and the number of rows read.

    Rows of the header's width whose values are plain -- an id and field of
    more than blanks, a year and reads of at most 18 decimal digits, cites
    empty or such digits -- are converted a column at a time; every other row
    goes through :func:`_row_values`, which judges it exactly.
    """
    reader = csv.reader(stream, delimiter=delimiter)
    names = next(reader, None)
    if names is None:
        raise SchemaError("id")
    header = [h.strip() for h in names]
    for col in MANDATORY_COLUMNS:
        if col not in header:
            raise SchemaError(col)
    unknown = [h for h in header if h not in KNOWN_COLUMNS]
    if unknown:
        log.warning("ignoring unknown columns: %s", ", ".join(unknown))

    # trimmed name -> the column a DictReader row takes its value from
    source = {name.strip(): i for name, i in {name: i for i, name in enumerate(names)}.items()}
    filled = filter(None, reader)
    diagnostics: list[tuple[int, str]] = []
    count = 0
    while rows := list(islice(filled, _CHUNK_LINES)):
        sink.extend(_delimited_part(rows, source, len(names), count + 2, diagnostics))
        count += len(rows)
    return diagnostics, count


def _delimited_part(rows: list[list[str]], source: dict[str, int], width: int, first: int,
                    diagnostics: list) -> Columns:
    """The :class:`Columns` of the accepted ``rows`` of a delimited file, the
    first of them numbered ``first``; the rejected rows' ``(line, reason)``
    pairs go to ``diagnostics``."""
    misfit = [""] * width  # stands in for a row of another width; its empty id is not plain
    table = list(zip(*(row if len(row) == width else misfit for row in rows))) or [()] * width
    ids, fields, years, reads = (table[source[col]] for col in MANDATORY_COLUMNS)
    cites = table[source["cites"]] if "cites" in source else ("",) * len(rows)
    # a text of 1 to 18 decimal digits is what _row_values returns int(text)
    # for, as year, cites and reads alike (its float is finite and integral,
    # so _coerce_reads keeps the int)
    plain = [
        i.strip() and f.strip() and y.isdecimal() and len(y) <= 18
        and r.isdecimal() and len(r) <= 18 and (not c or c.isdecimal() and len(c) <= 18)
        for i, f, y, r, c in zip(ids, fields, years, reads, cites)
    ]
    columns = Columns(
        list(map(str.strip, compress(ids, plain))),
        list(map(str.strip, compress(fields, plain))),
        list(map(int, compress(years, plain))),
        list(map(int, compress(reads, plain))),
        [int(c) if c else None for c in compress(cites, plain)],
    )

    taken: dict[int, tuple] = {}
    for pos in compress(range(len(rows)), map(not_, plain)):
        row = rows[pos]
        values = {name: row[i] if i < len(row) else None for name, i in source.items()}
        try:
            taken[pos] = _row_values(values)
        except ValueError as exc:
            diagnostics.append((first + pos, str(exc)))
    if taken:
        at = [*compress(range(len(rows)), plain), *taken]
        order = sorted(range(len(at)), key=at.__getitem__)
        extra = _columns(list(taken.values()))
        columns = Columns(*(
            list(map([*column, *more].__getitem__, order)) for column, more in zip(columns, extra)
        ))
    return columns


def decode_line_chunks(lines: list[str], keys: frozenset[str], first: int = 1) -> Iterator[tuple]:
    """Decode line-JSON objects with one ``json.loads`` per chunk of
    ``_CHUNK_LINES`` lines. Yields the numbers of a chunk's non-blank lines,
    counted from ``first``, those lines, and their objects, or None when the
    chunk holds anything but one flat object per line: invalid JSON, a
    non-object, a line with two objects, or a nested value under a key outside
    ``keys`` (the caller checks the values under ``keys``, and must reject
    nested ones).

    The lines are decoded joined by line breaks, which no JSON token can
    contain, and each opens with "{"; with only flat objects and as many as
    there are lines, each line holds exactly one of them. Chunks keep the
    decoded objects, several times the size of the values kept, from adding up."""
    for start in range(0, len(lines), _CHUNK_LINES):
        chunk = lines[start:start + _CHUNK_LINES]
        numbers: Sequence[int] = range(first + start, first + start + len(chunk))
        # first characters alone tell, unless some line is blank or opens with blanks
        if not all(chunk) or set(map(itemgetter(0), chunk)) != {"{"}:
            filled = [bool(line.strip()) for line in chunk]
            numbers, chunk = list(compress(numbers, filled)), list(compress(chunk, filled))
            if not chunk:
                continue
            if not all(map(str.startswith, map(str.lstrip, chunk), repeat("{"))):
                yield numbers, chunk, None
                continue
        yield numbers, chunk, _flat_objects(chunk, keys)


def _flat_objects(lines: list[str], keys: frozenset[str]) -> list[dict] | None:
    text = ",\n".join(lines)
    try:
        rows = json.loads("[" + text + "]")
    except ValueError:
        return None
    if len(rows) != len(lines):
        return None
    # a "{" per line and no "[" at all leave no room for a nested value
    if text.count("{") != len(lines) or "[" in text:
        extra = (row for row in rows if not row.keys() <= keys)
        if any(isinstance(v, (dict, list)) for row in extra for v in row.values()):
            return None
    return rows


def _chunk_values(rows: list[dict]) -> list[list] | None:
    """The (ids, fields, years, reads, cites) values of decoded rows, cites None
    where a row has none; None when a row lacks a mandatory key."""
    try:
        values = [list(map(itemgetter(key), rows)) for key in MANDATORY_COLUMNS]
    except KeyError:
        return None
    values.append(list(map(dict.get, rows, repeat("cites"))))
    return values


def _warn_unknown(rows: list[dict], cites: list) -> bool:
    """Warn of the unknown keys of the first row with any, as per row; whether one has."""
    width = len(MANDATORY_COLUMNS) + 1  # the keys of a row with cites and no other
    # a null cites, counted as no cites, sends the rows to the key scan too
    if sum(map(len, rows)) == width * len(rows) - cites.count(None):
        return False
    extra = next(filter(None, (row.keys() - KNOWN_COLUMNS for row in rows)), None)
    if extra:
        log.warning("ignoring unknown keys: %s", ", ".join(sorted(extra)))
    return bool(extra)


def _types(values: list) -> set[type]:
    return set(map(type, values))


def _parse_line_json_rows(lines: list[str], numbers: Sequence[int], warned: bool) -> tuple:
    """The :class:`Columns` of line-JSON ``lines`` judged one at a time, the
    ``(line, reason)`` pairs of the rows rejected, numbered by ``numbers``,
    and whether this call or (``warned``) an earlier one logged the
    unknown-keys warning."""
    rows: list[tuple] = []
    diagnostics: list[tuple[int, str]] = []
    for lineno, line in zip(numbers, lines):
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
        if unknown and not warned:
            log.warning("ignoring unknown keys: %s", ", ".join(sorted(unknown)))
            warned = True
        try:
            rows.append(_row_values(row))
        except ValueError as exc:
            diagnostics.append((lineno, str(exc)))
    return _columns(rows), diagnostics, warned


def repeated_positions(ids: Sequence[str], seen: set[str] | None = None) -> list[int]:
    """The 0-based positions of the ids that repeat an earlier one, ascending;
    ``seen``, if given, holds the ids of earlier rows and gains these."""
    seen = set() if seen is None else seen
    # set.add returns None: a first occurrence is recorded and passed over
    return [pos for pos, i in enumerate(ids) if i in seen or seen.add(i)]


def findings(
    columns: Columns,
    year_range: tuple[int, int] = (YEAR_MIN, YEAR_MAX),
    seen: set[str] | None = None,
) -> list[tuple[int, str]]:
    """The ``(position, reason)`` pairs of :func:`validate`, positions 0-based
    in ``columns``, ascending, a row's reasons in check order. ``seen``, if
    given, holds the ids of the rows before ``columns``, and gains theirs, so
    that a check a part at a time finds what one check of the whole finds."""
    ids, _, years, reads, cites = columns
    lo, hi = year_range
    # a stable sort on position keeps each row's diagnostics in check order
    return sorted(
        [(pos, f"duplicate id {ids[pos]}") for pos in repeated_positions(ids, seen)]
        + [(pos, f"year out of range: {y}") for pos, y in enumerate(years) if not lo <= y <= hi]
        + [(pos, f"negative reads: {r}") for pos, r in enumerate(reads) if r < 0]
        + [(pos, f"negative cites: {c}") for pos, c in enumerate(cites) if c is not None and c < 0],
        key=itemgetter(0),
    )


def validate(
    records: Sequence[PublicationRecord] | Columns,
    year_range: tuple[int, int] = (YEAR_MIN, YEAR_MAX),
) -> IngestReport:
    """Flag duplicate ids, out-of-range years and negative counts.

    ``records`` are :class:`PublicationRecord` objects or :class:`Columns`.
    Purely a reporting pass: the input is never mutated and nothing raises.
    Diagnostic line numbers are 1-based positions in ``records``; a row's
    diagnostics come in the order duplicate id, year, reads, cites.
    """
    columns = records if isinstance(records, Columns) else Columns.from_records(records)
    found = findings(columns, year_range)
    flagged = len({pos for pos, _ in found})
    return IngestReport(
        accepted=len(columns.ids) - flagged,
        rejected=flagged,
        diagnostics=tuple((pos + 1, reason) for pos, reason in found),
    )


def write_records(
    records: Iterable[PublicationRecord] | Columns,
    target,
    format: str = "delimited",
    delimiter: str = ",",
) -> None:
    """Serialize records (:class:`PublicationRecord` objects or :class:`Columns`)
    so that :func:`parse_records` reproduces them exactly."""
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}, expected one of {FORMATS}")
    columns = records if isinstance(records, Columns) else Columns.from_records(records)
    own = isinstance(target, (str, Path))
    stream = open(target, "w", encoding="utf-8", newline="") if own else target
    try:
        if format == "delimited":
            ids, fields, years, reads, cites = columns
            writer = csv.writer(stream, delimiter=delimiter, lineterminator="\n")
            writer.writerow(["id", "field", "year", "reads", "cites"])
            writer.writerows(zip(ids, fields, years, reads, ["" if c is None else c for c in cites]))
        else:
            stream.writelines(_json_lines(columns))
    finally:
        if own:
            stream.close()


def _json_object(id, field, year, reads, cites) -> dict:
    obj = {"id": id, "field": field, "year": year, "reads": reads}
    if cites is not None:
        obj["cites"] = cites
    return obj


def _json_lines(columns: Columns) -> Iterator[str]:
    """``json.dumps(obj, ensure_ascii=False)`` of each row's object, one line
    each, built from the columns: ids are encoded once each and field labels
    once per label, with the string encoder ``json.dumps`` itself uses.

    Columns holding another type than str ids and fields, int years, int or
    finite float reads and int or None cites go through ``json.dumps``.
    """
    ids, fields, years, reads, cites = columns
    plain = (
        _types(ids) <= {str} and _types(fields) <= {str} and _types(years) <= {int}
        and _types(reads) <= {int, float} and _types(cites) <= {int, type(None)}
        and all(map(math.isfinite, [r for r in reads if type(r) is float]))
    )
    if not plain:
        for row in zip(*columns):
            yield json.dumps(_json_object(*row), ensure_ascii=False) + "\n"
        return
    encode = json.encoder.encode_basestring  # what ensure_ascii=False encodes strings with
    label = {f: encode(f) for f in set(fields)}
    for i, f, y, r, c in zip(map(encode, ids), fields, years, reads, cites):
        tail = "}\n" if c is None else f', "cites": {c}}}\n'
        yield f'{{"id": {i}, "field": {label[f]}, "year": {y}, "reads": {r!r}{tail}'


def write_diagnostics(report: IngestReport, target) -> None:
    """Write a report's diagnostics as line-JSON, one object per finding."""
    own = isinstance(target, (str, Path))
    stream = open(target, "w", encoding="utf-8", newline="") if own else target
    try:
        for lineno, reason in report.diagnostics:
            stream.write(json.dumps({"line": lineno, "reason": reason}) + "\n")
    finally:
        if own:
            stream.close()
