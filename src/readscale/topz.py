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
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .corpus import Group, GroupKey, PublicationRecord, group_by_field_year
from .rescale import rescale_group

__all__ = ["TopZReport", "sigma_z", "top_membership", "top_share_report"]

log = logging.getLogger(__name__)

VARIANTS = ("original", "rescaled")
TIE_RULES = ("rank", "threshold")


@dataclass(frozen=True)
class TopZReport:
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


def _rescaled_values(groups: Mapping[GroupKey, Group]) -> dict[str, float]:
    return {rec.id: float(v) for group in groups.values()
            for rec, v in zip(group.records, rescale_group(group).values)}


def _rank_cut(values: Mapping[str, float], n: int, z: float, tie_rule: str) -> set[str]:
    """Ids in the top z% of ``n`` records, ranked by value descending, id ascending."""
    if not 0.0 < z < 100.0:
        raise ValueError(f"z must lie in (0, 100), got {z}")
    if tie_rule not in TIE_RULES:
        raise ValueError(f"unknown tie rule {tie_rule!r}, expected one of {TIE_RULES}")
    k = _cut_size(z, n)
    if k == 0:
        log.warning("top %s%% of %d records selects nothing", z, n)
        return set()
    ranked = sorted(values.items(), key=lambda item: (-item[1], item[0]))
    if tie_rule == "threshold":
        cut = ranked[k - 1][1]
        return {rid for rid, v in ranked if v >= cut}
    return {rid for rid, _ in ranked[:k]}


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
    admits every record tied with the value at the cut.
    """
    if not records:
        raise ValueError("no records to rank")
    if value_selector == "original":
        values = {r.id: float(r.reads) for r in records}
    elif value_selector == "rescaled":
        values = _rescaled_values(group_by_field_year(list(records)))
    else:
        raise ValueError(f"unknown value selector {value_selector!r}, expected one of {VARIANTS}")
    return _rank_cut(values, len(records), z, tie_rule)


def top_share_report(
    records: Sequence[PublicationRecord],
    z: float,
    variant: str = "original",
    tie_rule: str = "rank",
) -> TopZReport:
    """Per-field share of the global top z% and the within-band count.

    Shares are percentages of each field's own size; a field is inside the
    band when |share - z| <= sigma_z.
    """
    groups = group_by_field_year(list(records))
    fields = sorted({key.field for key in groups})
    if len(fields) < 2:
        raise ValueError("top-share analysis needs at least 2 fields")
    if variant == "rescaled":
        selected = _rank_cut(_rescaled_values(groups), len(records), z, tie_rule)
    else:
        selected = top_membership(records, variant, z, tie_rule)

    sizes = dict.fromkeys(fields, 0)
    hits = dict.fromkeys(fields, 0)
    for key, group in groups.items():
        sizes[key.field] += len(group)
        hits[key.field] += sum(r.id in selected for r in group.records)
    shares = {f: 100.0 * hits[f] / sizes[f] for f in fields}
    tol = sigma_z(z, [sizes[f] for f in fields])
    within = sum(1 for f in fields if abs(shares[f] - z) <= tol)
    return TopZReport(
        z=z, variant=variant, per_field_share=shares, sigma_z=tol,
        n_c=len(fields), n_i=sizes, within_tolerance=within,
    )
