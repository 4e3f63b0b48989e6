"""Global top-z% membership per field and its tolerance band.

Ranking all publications of one year globally by reads (or by mean-rescaled
reads), each field should hold about z% of its own publications in the
global top z% if the rescaled distributions really share one form. "About"
means within one standard deviation, with half-width

    sigma_z = sqrt( z * (100 - z) / N_c * sum_i 1 / N_i )

for N_c fields of sizes N_i, in percentage points. The report counts how
many fields fall inside the band, before and after rescaling.
"""
from __future__ import annotations

import logging
import math
from operator import attrgetter
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .choices import TIE_RULES
from .corpus import Corpus, PublicationRecord, Strata, stratify
from .rescale import rescale_group

__all__ = ["TopZReport", "sigma_z", "top_membership", "top_share_report"]

log = logging.getLogger(__name__)

VARIANTS = ("original", "rescaled")


class TopZReport(NamedTuple):
    """Per-field shares of the global top z% and the tolerance verdict."""

    z: float
    variant: str
    per_field_share: Mapping[str, float]
    sigma_z: float
    n_c: int
    n_i: Mapping[str, int]
    within_tolerance: int


def sigma_z(z: float, sizes: Sequence[int]) -> float:
    """Tolerance half-width around z, in percentage points."""
    if not 0.0 < z < 100.0:
        raise ValueError(f"z must lie in (0, 100), got {z}")
    sizes = list(sizes)
    if not sizes:
        raise ValueError("need at least one field size")
    if min(sizes) < 1:
        raise ValueError("field sizes must be >= 1")
    n_c = len(sizes)
    return math.sqrt(z * (100.0 - z) / n_c * sum(1.0 / n for n in sizes))


def _cut_size(z: float, n: int) -> int:
    """Exact for integer z; ``z / 100 * n`` cuts the top 29% of 100 at 28."""
    return math.floor(z * n / 100)


def _values(strata: Strata, variant: str) -> np.ndarray:
    """Each row's ranking value: its reads, or its reads over its stratum's
    mean. The strata are rescaled in (field, year) order, so an all-zero
    stratum is reported as the first in that order."""
    if variant == "original":
        return strata.corpus.reads
    if variant != "rescaled":
        raise ValueError(f"unknown value selector {variant!r}, expected one of {VARIANTS}")
    rescaled = {s.key: rescale_group(s).values for s in sorted(strata, key=attrgetter("key"))}
    return np.concatenate([rescaled[key] for key in strata.keys])


def _ranking(strata: Strata, variant: str) -> tuple[np.ndarray, np.ndarray]:
    """Each row's ranking value and the rows ordered by value descending, id
    ascending; computed once per strata and variant, since no z changes them."""
    ranking = strata.rankings.get(variant)
    if ranking is None:
        values = _values(strata, variant)
        ranking = strata.rankings[variant] = values, np.lexsort((strata.corpus.id_rank, -values))
    return ranking


def _select(values: np.ndarray, order: np.ndarray, z: float, tie_rule: str) -> np.ndarray:
    """Mask of the rows in the top z% of a ranking."""
    if not 0.0 < z < 100.0:
        raise ValueError(f"z must lie in (0, 100), got {z}")
    if tie_rule not in TIE_RULES:
        raise ValueError(f"unknown tie rule {tie_rule!r}, expected one of {TIE_RULES}")
    selected = np.zeros(values.size, dtype=bool)
    k = _cut_size(z, values.size)
    if k == 0:
        log.warning("top %s%% of %d records selects nothing", z, values.size)
        return selected
    if tie_rule == "threshold":
        return values >= values[order[k - 1]]
    selected[order[:k]] = True
    return selected


def top_membership(
    records: Sequence[PublicationRecord],
    value_selector: str = "original",
    z: float = 10.0,
    tie_rule: str = "rank",
) -> set[str]:
    """Ids of the records in the global top z% by the selected value.

    The total order is value descending with ties broken by ascending id, so
    selection is deterministic. Under ``tie_rule="rank"`` exactly
    floor(z * N / 100) records are selected; ``"threshold"`` additionally
    admits every record tied with the value at the cut. Ids must be unique.
    """
    if not records:
        raise ValueError("no records to rank")
    strata = stratify(Corpus.from_records(records))
    return set(strata.corpus.ids[_select(*_ranking(strata, value_selector), z, tie_rule)].tolist())


def top_share_report(
    records: Strata | Sequence[PublicationRecord],
    z: float,
    variant: str = "original",
    tie_rule: str = "rank",
) -> TopZReport:
    """Per-field share of the global top z% of one year and the within-band count.

    Shares are percentages of each field's own size; a field is inside the
    band when |share - z| <= sigma_z. ``records`` are the records of one
    year, or their :class:`Strata`.
    """
    strata = records if isinstance(records, Strata) else stratify(Corpus.from_records(list(records)))
    years = strata.years()
    if len(years) > 1:
        raise ValueError(
            f"top-share analysis needs records of one year, got {', '.join(map(str, years))}"
        )
    fields = [key.field for key in strata.keys]  # one stratum per field, in label order
    if len(fields) < 2:
        raise ValueError("top-share analysis needs at least 2 fields")
    selected = _select(*_ranking(strata, variant), z, tie_rule)

    sizes = np.diff(strata.bounds).tolist()
    hits = np.add.reduceat(selected, strata.bounds[:-1], dtype=np.int64).tolist()
    shares = {f: 100.0 * h / n for f, h, n in zip(fields, hits, sizes)}
    tol = sigma_z(z, sizes)
    within = sum(1 for f in fields if abs(shares[f] - z) <= tol)
    return TopZReport(
        z=z, variant=variant, per_field_share=shares, sigma_z=tol,
        n_c=len(fields), n_i=dict(zip(fields, sizes)), within_tolerance=within,
    )
