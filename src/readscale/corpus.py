"""Canonical in-memory model for publication records and their (field, year) strata.

Analyses operate on groups: all records sharing one subject-category label
and one publication year. A corpus is held as a :class:`Corpus` of parallel
columns, and :func:`stratify` groups it with one stable sort on (year, field
label) into :class:`Strata`, where every year and every stratum is a
contiguous run of rows, so that one year's strata are slices of the whole.
:class:`PublicationRecord` and :class:`Group` are the record-level API at the
library edge; :func:`group_by_field_year` groups records through the same
sort. Everything here is immutable once built; every operation is a pure
function, safe to run concurrently on shared snapshots.

Field labels are opaque strings. They are compared exactly after whitespace
trimming, case preserved, so distinct categories never merge silently.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cached_property
from itertools import repeat
from operator import attrgetter
from typing import Iterator, NamedTuple, Sequence

import numpy as np

# exported here too; EmptyCorpusError lives in ingest, so that the commands raise it without numpy
from .ingest import (  # noqa: F401
    YEAR_MAX, YEAR_MIN, Columns, CorpusBuffers, EmptyCorpusError, repeated_positions,
)


class DuplicateIdError(ValueError):
    """Raised when record ids collide; carries the offending ids."""

    def __init__(self, ids: Sequence[str]):
        self.ids = tuple(ids)
        super().__init__(f"duplicate record ids: {', '.join(self.ids)}")

    def __reduce__(self):  # rebuilt from the ids, not from the message
        return type(self), (self.ids,), self.__dict__


class SumOverflowError(ValueError):
    """Values that sum beyond float range: their mean is no number."""

    def __init__(self, message: str = "sum beyond float range"):
        super().__init__(message)


class PublicationRecord(NamedTuple):
    """One article.

    Attributes
    ----------
    id : str
        Opaque unique identifier (a DOI in fetch workflows).
    field : str
        Subject-category label.
    year : int
        Publication year.
    reads : int
        Readership count, >= 0. Real corpora carry integers; synthetic
        corpora generated without discretization may carry non-negative
        reals for oracle use.
    cites : int or None
        Citation count, >= 0 when present.

    Validation happens at the ingestion boundary (see :mod:`readscale.ingest`);
    instances are expected to satisfy the invariants above.
    """

    id: str
    field: str
    year: int
    reads: int
    cites: int | None = None


class _GroupKey(NamedTuple):
    field: str
    year: int


class GroupKey(_GroupKey):
    """A (field, year) stratum key, ordered by field, then year. Field labels
    are trimmed, nothing more."""

    __slots__ = ()

    def __new__(cls, field: str, year: int) -> "GroupKey":
        return super().__new__(cls, field.strip(), year)

    @classmethod
    def _make(cls, values) -> "GroupKey":  # so that _replace trims too
        return cls(*values)


class Group:
    """The records of one (field, year) stratum, in input order."""

    __slots__ = ("key", "records")

    def __init__(self, key: GroupKey, records: tuple[PublicationRecord, ...]):
        self.key = key
        self.records = records

    @property
    def reads(self) -> np.ndarray:
        return np.asarray([r.reads for r in self.records])

    @property
    def real(self) -> bool:
        """Whether any count is a real number rather than an integer."""
        return any(isinstance(r.reads, (float, np.floating)) for r in self.records)

    @property
    def cites(self) -> np.ndarray:
        """Citation counts; records without one contribute NaN."""
        return np.asarray(
            [np.nan if r.cites is None else r.cites for r in self.records],
            dtype=float,
        )

    def __len__(self) -> int:
        return len(self.records)


class GroupStats(NamedTuple):
    """Summary statistics of one stratum.

    ``r_mean`` is the arithmetic mean of all reads in the group, zeros
    included, None where they sum beyond float range; it is the divisor used
    for rescaling. ``r_max`` is the largest count: an int unless the group
    holds a real count, then a float.
    ``zero_share`` is the fraction of records with zero reads.
    """

    n: int
    r_mean: float | None
    r_max: int | float
    zero_share: float


class Corpus:
    """Publication records as parallel columns, one row per record.

    ``labels`` is the sorted table of trimmed field labels and ``fields`` holds
    each row's index into it, so code order is label order. ``reads`` is
    float64 (integer counts above 2**53 lose precision); ``real`` marks the
    rows whose count was a real number rather than an integer. ``cites`` is
    NaN where a record has none.
    """

    def __init__(
        self,
        ids: np.ndarray,
        fields: np.ndarray,
        labels: tuple[str, ...],
        years: np.ndarray,
        reads: np.ndarray,
        real: np.ndarray,
        cites: np.ndarray,
    ):
        self.ids = ids
        self.fields = fields
        self.labels = labels
        self.years = years
        self.reads = reads
        self.real = real
        self.cites = cites

    @classmethod
    def from_columns(
        cls,
        ids: Sequence[str],
        fields: Sequence[str],
        years: Sequence[int],
        reads: Sequence[float],
        cites: Sequence[int | None],
    ) -> "Corpus":
        """Build from one sequence per record attribute (``cites`` may hold None)."""
        codes, labels = _coded(fields)
        try:
            year_column = np.array(years, dtype=np.int64)
        except OverflowError:
            raise ValueError("a year does not fit in 64 bits") from None
        return cls(
            ids=np.array(ids, dtype=object),
            fields=codes,
            labels=labels,
            years=year_column,
            reads=np.array(reads, dtype=float),
            real=np.fromiter(map(isinstance, reads, repeat((float, np.floating))), bool, len(ids)),
            cites=np.array(cites, dtype=float),  # None becomes NaN
        )

    @classmethod
    def from_buffers(cls, buffers: CorpusBuffers) -> "Corpus":
        """Adopt the columns that :mod:`readscale.ingest` built without numpy,
        the field codes renumbered into the sorted label table."""
        names = list(buffers.labels)  # in code order
        labels = tuple(sorted(names))
        code = {label: i for i, label in enumerate(labels)}
        recode = np.fromiter(map(code.__getitem__, names), np.int64, len(names))
        return cls(
            ids=np.array(buffers.ids, dtype=object),
            fields=recode[np.frombuffer(buffers.fields, np.int64)],
            labels=labels,
            years=np.frombuffer(buffers.years, np.int64),
            reads=np.frombuffer(buffers.reads, np.float64),
            real=np.frombuffer(buffers.real, bool),
            cites=np.frombuffer(buffers.cites, np.float64),
        )

    @classmethod
    def from_records(cls, records: Sequence[PublicationRecord]) -> "Corpus":
        return cls.from_columns(*Columns.from_records(records))

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, rows) -> "Corpus":
        """The selected rows (an index array, a boolean mask, or a slice,
        which gives views of these columns), label table kept."""
        return Corpus(
            ids=self.ids[rows], fields=self.fields[rows], labels=self.labels,
            years=self.years[rows], reads=self.reads[rows], real=self.real[rows],
            cites=self.cites[rows],
        )

    @cached_property
    def id_rank(self) -> np.ndarray:
        """Each row's place in ascending id order (code point order, as ``sorted``)."""
        ids = self.ids.tolist()
        rank = np.empty(len(ids), dtype=np.int64)
        rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
        return rank


def _coded(fields: Sequence[str]) -> tuple[np.ndarray, tuple[str, ...]]:
    """Each field's code into the sorted table of trimmed labels, and the table."""
    trimmed = {f: f.strip() for f in set(fields)}
    labels = tuple(sorted(set(trimmed.values())))
    code = {label: i for i, label in enumerate(labels)}
    codes = {f: code[label] for f, label in trimmed.items()}
    return np.fromiter(map(codes.__getitem__, fields), np.int64, len(fields)), labels


class Stratum:
    """One stratum of a :class:`Strata`: its key, its reads, a read-only
    float64 view of the strata's ``corpus.reads``, and ``real``, whether any
    of them was parsed as a real number rather than an integer."""

    __slots__ = ("key", "reads", "real")

    def __init__(self, key: GroupKey, reads: np.ndarray, real: bool):
        self.key = key
        self.reads = reads
        self.real = real

    def __len__(self) -> int:
        return self.reads.size


_year = attrgetter("year")


class Strata:
    """A corpus grouped by (field, year).

    ``corpus`` holds the rows in one stable sort on (year, field label):
    stratum ``i`` is the run of rows ``bounds[i]:bounds[i + 1]``, each year's
    strata are one run of strata, in field order, and each stratum keeps its
    input order. ``positions`` gives each row's input position.
    ``corpus.reads`` is read-only, and each pass over the strata yields a
    fresh :class:`Stratum` per stratum whose reads are a view of it.
    """

    def __init__(
        self, corpus: Corpus, keys: tuple[GroupKey, ...], bounds: np.ndarray, positions: np.ndarray
    ):
        self.corpus = corpus
        self.keys = keys
        self.bounds = bounds
        self.positions = positions

    def __iter__(self) -> Iterator[Stratum]:
        reads = self.corpus.reads
        bounds = self.bounds.tolist()
        real = np.logical_or.reduceat(self.corpus.real, self.bounds[:-1]).tolist()
        for key, a, b, any_real in zip(self.keys, bounds, bounds[1:], real):
            yield Stratum(key, reads[a:b], any_real)

    def years(self) -> list[int]:
        """The years, ascending."""
        return list(dict.fromkeys(key.year for key in self.keys))

    @cached_property
    def rankings(self) -> dict:
        """The top-z% rankings of these rows by variant, each built once by
        :mod:`readscale.topz` and reused for every z."""
        return {}

    def of_year(self, year: int) -> "Strata":
        """The strata of one year, a view: their rows are a slice of these
        columns, each with its input position; empty for a year these lack."""
        i = bisect_left(self.keys, year, key=_year)
        j = bisect_right(self.keys, year, key=_year)
        a, b = self.bounds[i], self.bounds[j]
        return Strata(
            self.corpus.take(slice(a, b)), self.keys[i:j], self.bounds[i:j + 1] - a,
            self.positions[a:b],
        )


def stratify(corpus: Corpus) -> Strata:
    """Group a corpus by (field, year) with one stable sort on (year, field
    label), so that each year's rows and strata are one run.

    Raises
    ------
    EmptyCorpusError
        If the corpus has no rows.
    DuplicateIdError
        If two rows share an id; the error lists the offending ids.
    """
    if not len(corpus):
        raise EmptyCorpusError("cannot group an empty corpus")
    ids = corpus.ids.tolist()
    if len(set(ids)) < len(ids):
        repeats = repeated_positions(ids)
        raise DuplicateIdError(list(dict.fromkeys(ids[pos] for pos in repeats)))
    order = np.lexsort((corpus.fields, corpus.years))
    rows = corpus.take(order)
    rows.reads.flags.writeable = False  # and so is every stratum's view of it
    change = (rows.fields[1:] != rows.fields[:-1]) | (rows.years[1:] != rows.years[:-1])
    starts = np.concatenate(([0], np.flatnonzero(change) + 1))
    keys = tuple(
        GroupKey(rows.labels[f], y)
        for f, y in zip(rows.fields[starts].tolist(), rows.years[starts].tolist())
    )
    return Strata(rows, keys, np.append(starts, len(rows)), order)


def group_by_field_year(
    records: Sequence[PublicationRecord],
) -> dict[GroupKey, Group]:
    """Partition records into (field, year) groups.

    Every record lands in exactly one group and within-group order preserves
    input order. Groups appear in first-encounter order. The grouping is
    :func:`stratify` on the records' columns.

    Raises
    ------
    EmptyCorpusError
        If ``records`` is empty.
    DuplicateIdError
        If two records share an id; the error lists the offending ids.
    """
    strata = stratify(Corpus.from_records(records))
    bounds = strata.bounds.tolist()
    groups: dict[GroupKey, Group] = {}
    for i in np.argsort(strata.positions[bounds[:-1]], kind="stable").tolist():
        rows = strata.positions[bounds[i]:bounds[i + 1]].tolist()
        groups[strata.keys[i]] = Group(strata.keys[i], tuple(records[j] for j in rows))
    return groups


def field_slug(label: str) -> str:
    """File-name-safe form of a field label; "Bio Chem" and "bio-chem" share one."""
    return "".join(c if c.isalnum() else "_" for c in label.strip()).strip("_").lower()


def mean(values: np.ndarray) -> float:
    """The mean of a non-empty 1-D int64 or float64 array, bit for bit what
    ``values.mean()`` gives: the same pairwise float64 sum over the size,
    without ``ndarray.mean``'s Python wrapper, which takes longer than the
    sum itself on a stratum of a few hundred values. A sum beyond float range
    raises :class:`SumOverflowError`, without numpy's warning."""
    with np.errstate(over="ignore"):
        total = np.add.reduce(values, dtype=np.float64)
    if np.isinf(total):
        raise SumOverflowError
    return float(total / values.size)


def group_stats(group: Group | Stratum) -> GroupStats:
    """Compute n, mean reads, max reads and the zero-read share of a group;
    max reads is the exact int of the largest count unless ``group.real``."""
    if len(group) == 0:
        raise EmptyCorpusError("cannot summarize an empty group")
    reads = group.reads
    top = reads.max()
    try:
        r_mean = mean(reads)
    except SumOverflowError:
        r_mean = None
    return GroupStats(
        n=len(group),
        r_mean=r_mean,
        r_max=float(top) if group.real else int(top),
        zero_share=float(np.count_nonzero(reads == 0) / len(group)),
    )
