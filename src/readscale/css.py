"""Characteristic scores and the class partition they induce.

The scores come from iterated mean-truncation: the first score is the mean
of the whole sample, the next is the mean of the subsample at or above the
previous score, and so on. With three scores the sample splits into four
classes, from barely-read up to outstandingly read, on half-open intervals
[0, b1), [b1, b2), [b2, b3), [b3, inf). Empirically the four class shares
land near 69-70%, 20-21%, 6-7% and 2-3% for broad families of skewed count
distributions, largely independent of field and year.
"""
from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .choices import TRUNCATION_RULES
from .corpus import mean
from .swilk import identical

__all__ = [
    "CssResult",
    "characteristic_scores",
    "classify",
    "class_labels",
    "CLASS_NAMES",
]

# Roman labels for up to four classes, outermost first.
CLASS_NAMES = ("I", "II", "III", "IV")


class CssResult(NamedTuple):
    """Class partition induced by a set of characteristic scores.

    ``thresholds`` holds the k+1 half-open intervals, ``class_counts`` and
    ``class_shares`` the per-class occupancy; counts sum to the sample size
    and shares to 1.
    """

    betas: tuple[float, ...]
    class_counts: tuple[int, ...]
    class_shares: tuple[float, ...]
    thresholds: tuple[tuple[float, float], ...]


def characteristic_scores(
    reads: Sequence[float],
    k: int = 3,
    rule: str = "ge",
) -> list[float]:
    """Iterated truncation means b1..bk.

    b1 is the mean of all values; b_{j+1} the mean of values >= b_j (or
    > b_j under ``rule="gt"``). Iteration stops early, returning a shorter
    list, when the truncated subsample is empty or the next score fails to
    strictly increase.

    A (sub)sample whose values are all the same, as :func:`~readscale.swilk.identical`
    decides, scores exactly its value, which a float mean can miss either way:
    its values then open their class. Raises ValueError on an empty sample,
    k < 1 or values that sum beyond float range.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if rule not in TRUNCATION_RULES:
        raise ValueError(f"unknown truncation rule {rule!r}, expected one of {TRUNCATION_RULES}")
    values = np.asarray(reads, dtype=float)
    if values.size == 0:
        raise ValueError("cannot compute characteristic scores of an empty sample")

    betas: list[float] = []
    current = values
    for _ in range(k):
        if current.size == 0:
            break
        beta = float(current[0]) if identical(current) else mean(current)
        if betas and beta <= betas[-1]:
            break
        betas.append(beta)
        current = current[current >= beta] if rule == "ge" else current[current > beta]
    return betas


def classify(reads: Sequence[float], betas: Sequence[float]) -> CssResult:
    """Count and share per class for the k+1 half-open intervals of ``betas``.

    Raises when the scores are not strictly increasing.
    """
    betas = tuple(float(b) for b in betas)
    if any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
        raise ValueError(f"characteristic scores must strictly increase, got {betas}")
    values = np.asarray(reads, dtype=float)
    n = values.size
    if n == 0:
        raise ValueError("cannot classify an empty sample")

    idx = class_labels(values, betas)
    counts = np.bincount(idx, minlength=len(betas) + 1)
    edges = (0.0,) + betas + (math.inf,)
    return CssResult(
        betas=betas,
        class_counts=tuple(int(c) for c in counts),
        class_shares=tuple(float(c) / n for c in counts),
        thresholds=tuple(zip(edges[:-1], edges[1:])),
    )


def class_labels(reads: Sequence[float], betas: Sequence[float]) -> np.ndarray:
    """Per-observation class index (0 = lowest class). ``CLASS_NAMES[i]``
    gives the conventional roman label for up to four classes."""
    values = np.asarray(reads, dtype=float)
    return np.searchsorted(np.asarray(betas, dtype=float), values, side="right")
