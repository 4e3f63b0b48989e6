"""Lognormal maximum-likelihood fitting and log-normality testing.

The model is the lognormal density in the count variable r:

    f(r) = 1 / (sigma * r * sqrt(2*pi)) * exp(-(ln r - mu)^2 / (2 sigma^2))

whose ML estimates are the plain mean and variance (divisor n) of ln r.
Zero counts lie outside the support; a :class:`ZeroPolicy` decides whether
they are dropped (default) or the whole sample is shifted by one. Counts are
fitted as-is by the continuous model, with no discretization bias
correction.

Log-normality is tested with the Shapiro-Wilk test on ln r (see
:mod:`readscale.swilk`), Bonferroni-corrected across a family of m strata.
Integer counts produce tied logs; the raw AS R94 statistic is used anyway,
ties and all.
"""
from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .corpus import mean
from .swilk import SwTestResult, UnsupportedSizeError, ZeroVarianceError, identical, shapiro_wilk

__all__ = [
    "ZeroPolicy",
    "LognormalFit",
    "DegenerateSampleError",
    "fit_lognormal",
    "shapiro_wilk",
    "test_lognormality",
]

ZERO_POLICIES = ("exclude", "shift-one")


class DegenerateSampleError(ValueError):
    """Too few usable values remain after applying the zero policy."""


class _ZeroPolicy(NamedTuple):
    mode: str = "exclude"


class ZeroPolicy(_ZeroPolicy):
    """How zero counts are treated before taking logs.

    ``exclude`` drops them; ``shift-one`` replaces every count r by r + 1.
    """

    __slots__ = ()

    def __new__(cls, mode: str = "exclude") -> "ZeroPolicy":
        if mode not in ZERO_POLICIES:
            raise ValueError(f"unknown zero policy {mode!r}, expected one of {ZERO_POLICIES}")
        return super().__new__(cls, mode)

    @classmethod
    def _make(cls, values) -> "ZeroPolicy":  # so that _replace checks too
        return cls(*values)

    def apply(self, values: np.ndarray) -> tuple[np.ndarray, int]:
        """Return (retained values, number dropped)."""
        if self.mode == "shift-one":
            return values + 1, 0
        kept = values[values > 0]
        return kept, values.size - kept.size


class LognormalFit(NamedTuple):
    """ML fit of the lognormal model.

    ``mu`` and ``sigma2`` are the mean and (divisor-n) variance of ln r over
    the ``n_used`` retained values; ``loglik`` is the log-likelihood at the
    optimum.
    """

    mu: float
    sigma2: float
    loglik: float
    n_used: int
    n_dropped: int

    @property
    def se_mu(self) -> float:
        """Observed-information standard error of mu (a reconstruction:
        the estimator behind published table standard errors is unknown)."""
        return math.sqrt(self.sigma2 / self.n_used)

    @property
    def se_sigma2(self) -> float:
        """Observed-information standard error of sigma2 (reconstruction)."""
        return self.sigma2 * math.sqrt(2.0 / self.n_used)


def log_sample(reads: Sequence[float], policy: ZeroPolicy = ZeroPolicy()) -> tuple[np.ndarray, int]:
    """ln r of the counts that ``policy`` retains, and how many it dropped:
    the sample that :func:`fit_lognormal` fits and :func:`test_lognormality`
    tests, for a caller that does both to compute once.

    Raises
    ------
    ValueError
        A count is negative.
    """
    values = np.asarray(reads, dtype=float)
    if values.size and values.min() < 0:
        raise ValueError("reads must be non-negative")
    kept, n_dropped = policy.apply(values)
    return np.log(kept), int(n_dropped)


def fit_logs(logs: np.ndarray, n_dropped: int = 0) -> LognormalFit:
    """:func:`fit_lognormal` of the sample that :func:`log_sample` returns."""
    n = logs.size
    if n < 2:
        raise DegenerateSampleError(
            f"need at least 2 positive values after zero policy, have {n}"
        )
    if identical(logs):
        raise ZeroVarianceError("all retained values are identical")
    mu = mean(logs)
    sigma2 = mean((logs - mu) ** 2)
    # At the optimum the quadratic term collapses to n/2.
    loglik = -0.5 * n * math.log(2.0 * math.pi * sigma2) - float(logs.sum()) - 0.5 * n
    return LognormalFit(mu=mu, sigma2=sigma2, loglik=float(loglik), n_used=n, n_dropped=n_dropped)


def fit_lognormal(
    reads: Sequence[float],
    policy: ZeroPolicy = ZeroPolicy(),
) -> LognormalFit:
    """Fit the lognormal model by maximum likelihood.

    Parameters
    ----------
    reads : sequence of non-negative numbers
        Counts in normal use; real-valued samples are accepted so oracle
        fits on continuous draws work identically.
    policy : ZeroPolicy
        Zero-count treatment applied before the log transform.

    Raises
    ------
    DegenerateSampleError
        Fewer than two positive values remain after the policy.
    ZeroVarianceError
        All retained logs are identical.
    """
    return fit_logs(*log_sample(reads, policy))


def test_lognormality(
    reads: Sequence[float],
    policy: ZeroPolicy = ZeroPolicy(),
    alpha: float = 0.05,
    m: int = 1,
) -> SwTestResult:
    """Shapiro-Wilk test of ln r with a Bonferroni-corrected threshold.

    ``reject`` is true when p < alpha / m, for a family of m hypotheses.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    logs, _ = log_sample(reads, policy)
    result = shapiro_wilk(logs)
    return SwTestResult(
        w=result.w, p=result.p, n=result.n, reject=bool(result.p < alpha / m)
    )
