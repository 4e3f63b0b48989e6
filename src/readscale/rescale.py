"""Mean-rescaling of counts, cross-stratum collapse and empirical CCDFs.

Rescaling divides every count in a stratum by the stratum's own mean
(computed on the sample at hand, zeros included), so each rescaled stratum
has mean 1 and strata of very different intensity become directly
comparable. Collapsing concatenates the rescaled strata of one year into a
single distribution. CCDFs are the plot-ready form: the fraction of the
sample at least as large as each distinct value.
"""
from __future__ import annotations

from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .corpus import Group, GroupKey, Stratum, SumOverflowError, field_slug, mean

__all__ = [
    "AllUnreadGroupError",
    "UnscalableGroupError",
    "RescaledSample",
    "CcdfCurve",
    "rescale_group",
    "collapse",
    "ccdf",
    "ccdf_filename",
    "write_ccdf_tsv",
]


class UnscalableGroupError(ValueError):
    """The group's reads sum beyond float range, so its mean is no rescaling
    divisor. Stages skip such a group and name it: ``reason`` says why, and
    :func:`skip_notes` groups the names by ``kind``."""

    kind, reason = "strata summing beyond float range", "has reads that sum beyond float range"


class AllUnreadGroupError(UnscalableGroupError):
    """Every count in the group is zero, so the rescaling divisor vanishes."""

    kind, reason = "all-zero strata", "has only zero counts"


class RescaledSample(NamedTuple):
    """One stratum's counts divided by its internal mean ``r0``."""

    key: GroupKey
    values: np.ndarray
    r0: float


class CcdfCurve(NamedTuple):
    """Empirical complementary CDF.

    ``points`` has one row (x, p) per distinct sample value, ascending in x,
    where p is the fraction of the sample >= x. The first row has p = 1 and
    p never increases along the curve.
    """

    points: np.ndarray

    @property
    def x(self) -> np.ndarray:
        return self.points[:, 0]

    @property
    def p(self) -> np.ndarray:
        return self.points[:, 1]

    def fraction_at_least(self, threshold: float) -> float:
        """Empirical fraction of the sample >= the smallest point x >= threshold.

        Returns 0.0 when the threshold exceeds every sample value.
        """
        idx = np.searchsorted(self.x, threshold, side="left")
        if idx == len(self.points):
            return 0.0
        return float(self.points[idx, 1])


def rescale_group(group: Group | Stratum) -> RescaledSample:
    """Divide each member's count by the group mean; rank order is preserved.
    Raises :class:`UnscalableGroupError` where the mean is no divisor."""
    reads = np.asarray(group.reads, dtype=float)
    if reads.size == 0:
        raise ValueError("cannot rescale an empty group")
    try:
        r0 = mean(reads)
    except SumOverflowError:
        raise UnscalableGroupError(f"group {group.key} {UnscalableGroupError.reason}") from None
    if r0 == 0.0:
        raise AllUnreadGroupError(f"group {group.key} {AllUnreadGroupError.reason}")
    return RescaledSample(key=group.key, values=reads / r0, r0=r0)


def skip_notes(skipped: Mapping[str, UnscalableGroupError]) -> list[str]:
    """``skipped all-zero strata: A, B``: a note per kind of group skipped, its fields in order."""
    kinds = dict.fromkeys(exc.kind for exc in skipped.values())
    return [f"skipped {kind}: {', '.join(f for f, exc in skipped.items() if exc.kind == kind)}" for kind in kinds]


def collapse(samples: Sequence[RescaledSample]) -> np.ndarray:
    """Pool rescaled strata into one distribution.

    Unweighted concatenation (each publication counts once) in GroupKey
    order, so the output is reproducible regardless of input ordering.
    """
    if not samples:
        raise ValueError("nothing to collapse")
    ordered = sorted(samples, key=lambda s: s.key)
    return np.concatenate([s.values for s in ordered])


def ccdf(values: Sequence[float]) -> CcdfCurve:
    """Empirical CCDF with one point per distinct value.

    p at x is the fraction of values >= x (inclusive, matching survival-style
    plots of count data).
    """
    arr = np.sort(np.asarray(values, dtype=float))
    if arr.size == 0:
        raise ValueError("cannot compute the CCDF of an empty sample")
    # the first index of each distinct value; the NaNs, sorted last, count as
    # one value, as in np.unique
    new = np.empty(arr.size, dtype=bool)
    new[0] = True
    np.not_equal(arr[1:], arr[:-1], out=new[1:])
    if np.isnan(arr[-1]):
        new[np.argmax(np.isnan(arr)) + 1:] = False
    first = np.flatnonzero(new)
    xs = arr[first]
    if np.isnan(arr[-1]) or np.signbit(arr).any():
        # -0.0 and 0.0 are one value, as are NaNs of differing bits; which of
        # them a sort puts first is not fixed, so x is the one np.unique keeps
        xs = np.unique(arr)
    # fraction >= x: everything from the first index where arr == x onwards
    ps = (arr.size - first) / arr.size
    return CcdfCurve(points=np.column_stack([xs, ps]))


def ccdf_filename(year: int, field: str | None = None) -> str:
    """Per-stratum curves are ``ccdf_<field_slug(field)>_<year>.tsv`` (distinct
    fields can share one); the pooled curve is ``ccdf_merged_<year>.tsv``."""
    if field is None:
        return f"ccdf_merged_{year}.tsv"
    return f"ccdf_{field_slug(field)}_{year}.tsv"


def write_ccdf_tsv(curve: CcdfCurve, target) -> None:
    """Write a curve as two-column TSV (x, p), full precision."""
    points = np.asarray(curve.points, dtype=float)
    # one %-format over every point's x and p, row after row
    text = "x\tp\n" + ("%r\t%r\n" * len(points)) % tuple(points.ravel().tolist())
    if isinstance(target, (str, Path)):
        Path(target).write_text(text, encoding="utf-8", newline="")
    else:
        target.write(text)
