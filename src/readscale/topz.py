"""Global top-z% membership per field and its tolerance band.

Ranking all publications of one year globally by reads (or by mean-rescaled
reads), each field should hold about z% of its own publications in the
global top z% if the rescaled distributions really share one form. "About"
means within one standard deviation, with half-width

    sigma_z = sqrt( z * (100 - z) / N_c * sum_i 1 / N_i )

for N_c fields of sizes N_i, in percentage points. The report counts how
many fields fall inside the band, before and after rescaling.
The rescaled ranking skips a stratum that cannot be rescaled, as
``collapse`` does, so N_c and sigma_z count the fields ranked; the original
ranking keeps every field.
"""
from __future__ import annotations

import logging
import math
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .choices import TIE_RULES
from .corpus import Corpus, PublicationRecord, Strata, stratify
from .rescale import UnscalableGroupError, rescale_group, skip_notes

__all__ = ["TopZReport", "sigma_z", "top_membership", "top_share_report"]

log = logging.getLogger(__name__)

VARIANTS = ("original", "rescaled")


class TopZReport(NamedTuple):
    """Per-field shares of the global top z% and the tolerance verdict;
    ``skipped`` maps each field left out of the ranking to why."""

    z: float
    variant: str
    per_field_share: Mapping[str, float]
    sigma_z: float
    n_c: int
    n_i: Mapping[str, int]
    within_tolerance: int
    skipped: Mapping[str, UnscalableGroupError]


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


def _values(strata: Strata, variant: str) -> tuple[np.ndarray, dict[str, UnscalableGroupError]]:
    """Each row's ranking value: its reads, or its reads over its stratum's
    mean, NaN where that cannot be rescaled; and the fields of those strata."""
    if variant == "original":
        return strata.corpus.reads, {}
    if variant != "rescaled":
        raise ValueError(f"unknown value selector {variant!r}, expected one of {VARIANTS}")
    values, skipped = [], {}
    for stratum in strata:  # in (year, field) order
        try:
            values.append(rescale_group(stratum).values)
        except UnscalableGroupError as exc:
            values.append(np.full(len(stratum), np.nan))
            skipped[stratum.key.field] = exc
    return np.concatenate(values), skipped


def _ranking(strata: Strata, variant: str) -> tuple[np.ndarray, np.ndarray, dict]:
    """:func:`_values` and the rows ranked, by value descending and id
    ascending; computed once per strata and variant, since no z changes them."""
    ranking = strata.rankings.get(variant)
    if ranking is None:
        values, skipped = _values(strata, variant)
        order = np.lexsort((strata.corpus.id_rank, -values))
        order = order[:order.size - np.isnan(values).sum()] if skipped else order  # NaNs sort last
        ranking = strata.rankings[variant] = values, order, skipped
    return ranking


def _select(values: np.ndarray, order: np.ndarray, z: float, tie_rule: str) -> np.ndarray:
    """Mask of the rows in the top z% of a ranking."""
    if not 0.0 < z < 100.0:
        raise ValueError(f"z must lie in (0, 100), got {z}")
    if tie_rule not in TIE_RULES:
        raise ValueError(f"unknown tie rule {tie_rule!r}, expected one of {TIE_RULES}")
    selected = np.zeros(values.size, dtype=bool)
    k = _cut_size(z, order.size)
    if k == 0:
        log.warning("top %s%% of %d records selects nothing", z, order.size)
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
    values, order, _ = _ranking(strata, value_selector)
    return set(strata.corpus.ids[_select(values, order, z, tie_rule)].tolist())


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
    values, order, skipped = _ranking(strata, variant)
    if len(fields) - len(skipped) < 2:
        raise ValueError("; ".join([*skip_notes(skipped), "top-share analysis needs at least 2 fields"]))
    selected = _select(values, order, z, tie_rule)

    hits = np.add.reduceat(selected, strata.bounds[:-1], dtype=np.int64).tolist()
    sizes = {f: n for f, n in zip(fields, np.diff(strata.bounds).tolist()) if f not in skipped}
    shares = {f: 100.0 * h / sizes[f] for f, h in zip(fields, hits) if f in sizes}
    tol = sigma_z(z, sizes.values())
    within = sum(1 for share in shares.values() if abs(share - z) <= tol)
    return TopZReport(
        z=z, variant=variant, per_field_share=shares, sigma_z=tol,
        n_c=len(sizes), n_i=sizes, within_tolerance=within, skipped=skipped,
    )
