"""Shapiro-Wilk W test of normality, Royston's AS R94 approximation.

The W statistic is the squared correlation between the sorted sample and a
set of weights derived from expected normal order statistics (Blom scores
with Royston's polynomial corrections to the two outermost weights). The
p-value comes from a normal approximation of a transformed W: exact for
n = 3, a three-parameter transform for 4 <= n <= 11 and a log-log transform
for larger samples. Validity range: 3 <= n <= 5000.

``scipy.stats.shapiro`` runs the same algorithm. The normal quantile behind
the Blom scores and the normal CDF behind the p-value come from
:mod:`readscale.normal`, ports of the Cephes routines that scipy runs, which
give bit-identical results (``tests/test_normal.py``), so no command loads
scipy; its polynomials go through the same module's Horner rule, ``polevl``.
"""
from __future__ import annotations

import threading
from collections import OrderedDict
from typing import NamedTuple, Sequence

import numpy as np

from .corpus import mean
from .normal import ndtr, ndtri, polevl

__all__ = ["SwTestResult", "shapiro_wilk", "UnsupportedSizeError", "ZeroVarianceError"]

N_MIN = 3
N_MAX = 5000

# Royston (1995) polynomial coefficients, highest degree first.
_C1 = (-2.706056, 4.434685, -2.071190, -0.147981, 0.221157, 0.0)
_C2 = (-3.582633, 5.682633, -1.752461, -0.293762, 0.042981, 0.0)
_C3 = (-0.0006714, 0.025054, -0.39978, 0.544)
_C4 = (-0.0020322, 0.062767, -0.77857, 1.3822)
_C5 = (0.0038915, -0.083751, -0.31082, -1.5861)
_C6 = (0.0030302, -0.082676, -0.4803)
_G = (0.459, -2.273)

# Weight vectors kept by n, least recently used dropped first once they hold
# more than this many values (4 MiB; every n up to 5000 would take 100 MB).
_CACHE_VALUES = 1 << 19

_PI6 = 1.90985931710274  # 6/pi
_STQR = 1.04719755119660  # arcsin(sqrt(3/4))


class UnsupportedSizeError(ValueError):
    """Sample size outside the approximation's validity range [3, 5000]."""


class ZeroVarianceError(ValueError):
    """All sample values identical; W is undefined."""


def identical(values: np.ndarray) -> bool:
    """Whether every value of a non-empty sample is the same, decided
    exactly: its largest equals its smallest. A sample's mean can miss the
    value by an ulp, so its variance is no test of this."""
    return bool(values.max() == values.min())


class SwTestResult(NamedTuple):
    """W statistic, p-value, sample size and the rejection decision.

    ``reject`` is evaluated against the threshold the caller supplied
    (``alpha / m`` after a Bonferroni correction; plain ``alpha`` when m=1).
    """

    w: float
    p: float
    n: int
    reject: bool


def _compute_weights(n: int) -> np.ndarray:
    """Full antisymmetric weight vector a, normalized so sum(a^2) ~= 1."""
    n2 = n // 2
    if n == 3:
        half = np.array([np.sqrt(0.5)])
    else:
        # Blom scores of the lower half (all negative).
        m = ndtri((np.arange(1, n2 + 1) - 0.375) / (n + 0.25))
        summ2 = 2.0 * np.dot(m, m)
        ssumm2 = np.sqrt(summ2)
        rsn = float(1.0 / np.sqrt(n))
        a1 = polevl(rsn, _C1) - m[0] / ssumm2
        half = np.empty(n2)
        if n > 5:
            a2 = polevl(rsn, _C2) - m[1] / ssumm2
            fac = np.sqrt(
                (summ2 - 2.0 * m[0] ** 2 - 2.0 * m[1] ** 2)
                / (1.0 - 2.0 * a1**2 - 2.0 * a2**2)
            )
            half[0], half[1] = a1, a2
            half[2:] = -m[2:] / fac
        else:
            fac = np.sqrt((summ2 - 2.0 * m[0] ** 2) / (1.0 - 2.0 * a1**2))
            half[0] = a1
            half[1:] = -m[1:] / fac
    a = np.zeros(n)
    a[:n2] = -half
    a[n - n2:] = half[::-1]
    a.flags.writeable = False
    return a


_cache: OrderedDict[int, np.ndarray] = OrderedDict()
_cache_lock = threading.Lock()
_cache_held = 0  # values held by the arrays in _cache


def _weights(n: int) -> np.ndarray:
    """:func:`_compute_weights` of n, computed once per n while it stays in a
    bounded cache; the array is read-only."""
    global _cache_held
    with _cache_lock:
        a = _cache.get(n)
        if a is not None:
            _cache.move_to_end(n)
            return a
    a = _compute_weights(n)
    with _cache_lock:
        if n not in _cache:
            _cache[n] = a
            _cache_held += n
        while _cache_held > _CACHE_VALUES:
            _cache_held -= _cache.popitem(last=False)[0]
    return a


def shapiro_wilk(values: Sequence[float], alpha: float = 0.05) -> SwTestResult:
    """Test a sample against the normal family (location and scale free).

    Parameters
    ----------
    values : sequence of float
        Sample of size 3..5000, not all equal. Order is irrelevant.
    alpha : float
        Significance level for the uncorrected ``reject`` flag.

    Returns
    -------
    SwTestResult
        W in (0, 1], the approximate p-value, and ``reject = p < alpha``.

    Raises
    ------
    UnsupportedSizeError
        When the sample size falls outside [3, 5000].
    ZeroVarianceError
        When every value is identical.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    if n < N_MIN or n > N_MAX:
        raise UnsupportedSizeError(f"sample size {n} outside [{N_MIN}, {N_MAX}]")
    if identical(x):
        raise ZeroVarianceError("all values are identical")

    a = _weights(n)
    xc = x - mean(x)
    w = float(np.dot(a, x) ** 2 / np.dot(xc, xc))
    w = min(w, 1.0)

    if n == 3:
        p = _PI6 * (np.arcsin(np.sqrt(w)) - _STQR)
        return SwTestResult(w, float(min(max(p, 0.0), 1.0)), n, bool(p < alpha))

    y = np.log1p(-w)  # log(1 - W)
    if n <= 11:
        gamma = polevl(n, _G)
        if y >= gamma:
            return SwTestResult(w, 0.0, n, True)
        y = -np.log(gamma - y)
        mu = polevl(n, _C3)
        sigma = np.exp(polevl(n, _C4))
    else:
        logn = float(np.log(n))
        mu = polevl(logn, _C5)
        sigma = np.exp(polevl(logn, _C6))
    p = float(1.0 - ndtr((y - mu) / sigma))
    return SwTestResult(w, p, n, bool(p < alpha))
