"""Canonical in-memory model for publication records and their (field, year) strata.

A corpus is a flat sequence of :class:`PublicationRecord`. Analyses operate on
groups: all records sharing one subject-category label and one publication
year. Records and groups are immutable once built; every operation here is a
pure function, safe to run concurrently on shared snapshots.

Field labels are opaque strings. They are compared exactly after whitespace
trimming, case preserved, so distinct categories never merge silently.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Default bounds for a plausible publication year; ingest validation uses
# these unless the caller overrides them.
YEAR_MIN = 1900
YEAR_MAX = 2100


class EmptyCorpusError(ValueError):
    """Raised when an operation requires at least one record."""


class DuplicateIdError(ValueError):
    """Raised when record ids collide; carries the offending ids."""

    def __init__(self, ids: Sequence[str]):
        self.ids = tuple(ids)
        super().__init__(f"duplicate record ids: {', '.join(self.ids)}")


@dataclass(frozen=True)
class PublicationRecord:
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


@dataclass(frozen=True, order=True)
class GroupKey:
    """A (field, year) stratum key. Field labels are trimmed, nothing more."""

    field: str
    year: int

    def __post_init__(self):
        object.__setattr__(self, "field", self.field.strip())


@dataclass(frozen=True)
class Group:
    """The records of one (field, year) stratum, in input order."""

    key: GroupKey
    records: tuple[PublicationRecord, ...]

    @property
    def reads(self) -> np.ndarray:
        return np.asarray([r.reads for r in self.records])

    @property
    def cites(self) -> np.ndarray:
        """Citation counts; records without one contribute NaN."""
        return np.asarray(
            [np.nan if r.cites is None else r.cites for r in self.records],
            dtype=float,
        )

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class GroupStats:
    """Summary statistics of one stratum.

    ``r_mean`` is the arithmetic mean of all reads in the group, zeros
    included; it is the divisor used for rescaling. ``zero_share`` is the
    fraction of records with zero reads.
    """

    n: int
    r_mean: float
    r_max: int
    zero_share: float


def group_by_field_year(
    records: Sequence[PublicationRecord],
) -> dict[GroupKey, Group]:
    """Partition records into (field, year) groups.

    Every record lands in exactly one group and within-group order preserves
    input order. Groups appear in first-encounter order.

    Raises
    ------
    EmptyCorpusError
        If ``records`` is empty.
    DuplicateIdError
        If two records share an id; the error lists the offending ids.
    """
    if not records:
        raise EmptyCorpusError("cannot group an empty corpus")
    seen: set[str] = set()
    dupes: list[str] = []
    for r in records:
        if r.id in seen and r.id not in dupes:
            dupes.append(r.id)
        seen.add(r.id)
    if dupes:
        raise DuplicateIdError(dupes)

    buckets: dict[GroupKey, list[PublicationRecord]] = {}
    for r in records:
        buckets.setdefault(GroupKey(r.field, r.year), []).append(r)
    return {k: Group(k, tuple(v)) for k, v in buckets.items()}


def field_slug(label: str) -> str:
    """File-name-safe form of a field label; "Bio Chem" and "bio-chem" share one."""
    return "".join(c if c.isalnum() else "_" for c in label.strip()).strip("_").lower()


def group_stats(group: Group) -> GroupStats:
    """Compute n, mean reads, max reads and the zero-read share of a group."""
    if len(group) == 0:
        raise EmptyCorpusError("cannot summarize an empty group")
    reads = group.reads
    return GroupStats(
        n=len(group),
        r_mean=float(reads.mean()),
        r_max=reads.max().item(),
        zero_share=float(np.count_nonzero(reads == 0) / len(group)),
    )
