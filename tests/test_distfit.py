"""Lognormal ML fitting, zero policies and the corrected normality test."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from readscale.distfit import test_lognormality as lognormality_test
from readscale.distfit import (
    ZERO_POLICIES,
    DegenerateSampleError,
    ZeroPolicy,
    ZeroVarianceError,
    fit_lognormal,
)
from conftest import MATHS_COUNTS


def _direct_loglik(values, mu, sigma2):
    logs = np.log(np.asarray(values, dtype=float))
    n = logs.size
    return float(
        -0.5 * n * math.log(2.0 * math.pi * sigma2)
        - logs.sum()
        - np.sum((logs - mu) ** 2) / (2.0 * sigma2)
    )


def test_closed_form_three_points():
    # ln r = {0, 1, 2}: mean 1, divisor-n variance 2/3
    sample = [1.0, math.e, math.e**2]
    fit = fit_lognormal(sample)
    assert fit.mu == pytest.approx(1.0, abs=1e-12)
    assert fit.sigma2 == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert fit.n_used == 3 and fit.n_dropped == 0
    assert fit.loglik == pytest.approx(_direct_loglik(sample, fit.mu, fit.sigma2), abs=1e-10)


def test_loglik_is_a_local_maximum():
    rng = np.random.default_rng(42)
    sample = rng.lognormal(1.0, 0.9, 300)
    fit = fit_lognormal(sample)
    base = _direct_loglik(sample, fit.mu, fit.sigma2)
    assert fit.loglik == pytest.approx(base, rel=1e-12)
    for dmu, ds2 in ((1e-3, 0.0), (-1e-3, 0.0), (0.0, 1e-3), (0.0, -1e-3)):
        assert _direct_loglik(sample, fit.mu + dmu, fit.sigma2 + ds2) < base


def test_parameter_recovery_seeded_trials():
    mu, sigma2 = 0.8, 1.1
    hits = 0
    trials = 40
    n = 2500
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence((917, t)))
        sample = np.exp(mu + math.sqrt(sigma2) * rng.standard_normal(n))
        fit = fit_lognormal(sample)
        if (
            abs(fit.mu - mu) <= 3 * math.sqrt(sigma2 / n)
            and abs(fit.sigma2 - sigma2) <= 3 * sigma2 * math.sqrt(2.0 / n)
        ):
            hits += 1
    assert hits >= trials - 2


def test_scale_equivariance():
    rng = np.random.default_rng(3)
    sample = rng.lognormal(0.4, 1.2, 500)
    base = fit_lognormal(sample)
    for c in (2.0, 7.0, 123.0):
        scaled = fit_lognormal(c * sample)
        assert scaled.mu - base.mu == pytest.approx(math.log(c), abs=1e-10)
        assert scaled.sigma2 == pytest.approx(base.sigma2, abs=1e-10)


def test_zero_policy_exclude_drops_and_counts():
    fit = fit_lognormal([0, 0, 1, math.e, math.e**2, 0])
    assert fit.n_used == 3 and fit.n_dropped == 3
    assert fit.mu == pytest.approx(1.0, abs=1e-12)


def test_zero_policy_shift_one():
    values = np.array([0.0, 1.0, 3.0, 7.0])
    fit = fit_lognormal(values, ZeroPolicy("shift-one"))
    assert fit.n_used == 4 and fit.n_dropped == 0
    logs = np.log(values + 1)
    assert fit.mu == pytest.approx(float(logs.mean()), abs=1e-12)
    assert fit.sigma2 == pytest.approx(float(np.mean((logs - logs.mean()) ** 2)), abs=1e-12)


def test_unknown_policy_rejected():
    with pytest.raises(ValueError):
        ZeroPolicy("impute")


def test_policies_agree_without_zeros_up_to_shift():
    sample = np.array([2.0, 5.0, 9.0, 40.0])
    excl = fit_lognormal(sample)
    shift = fit_lognormal(sample, ZeroPolicy("shift-one"))
    # not equal (the shift moves every log), but both use all four values
    assert excl.n_used == shift.n_used == 4
    assert shift.mu != excl.mu


def test_degenerate_samples_raise():
    with pytest.raises(DegenerateSampleError):
        fit_lognormal([0, 0, 0, 5])
    with pytest.raises(DegenerateSampleError):
        fit_lognormal([3.0])
    with pytest.raises(ZeroVarianceError):
        fit_lognormal([4.0, 4.0, 4.0])
    with pytest.raises(ValueError):
        fit_lognormal([-1.0, 2.0, 3.0])


def test_standard_error_arithmetic():
    fit = fit_lognormal(np.exp(np.random.default_rng(0).standard_normal(400)))
    assert fit.se_mu == pytest.approx(math.sqrt(fit.sigma2 / fit.n_used), abs=1e-15)
    assert fit.se_sigma2 == pytest.approx(fit.sigma2 * math.sqrt(2.0 / fit.n_used), abs=1e-15)


def test_lognormality_family_correction():
    # Uncorrected p of this fixture sits between 0.05/240 and 0.05, so the
    # verdict flips once the family-size correction is applied.
    single = lognormality_test(MATHS_COUNTS, alpha=0.05, m=1)
    family = lognormality_test(MATHS_COUNTS, alpha=0.05, m=240)
    assert single.p == family.p == pytest.approx(0.025923585, abs=1e-6)
    assert single.reject
    assert not family.reject
    assert 0.05 / 240 < family.p < 0.05


def test_lognormality_threshold_boundary():
    result = lognormality_test(MATHS_COUNTS, alpha=0.05, m=1)
    eps = 1e-12
    assert lognormality_test(MATHS_COUNTS, alpha=result.p + eps, m=1).reject
    assert not lognormality_test(MATHS_COUNTS, alpha=result.p - eps, m=1).reject


def test_lognormality_respects_zero_policy():
    shifted = lognormality_test(MATHS_COUNTS, ZeroPolicy("shift-one"))
    excluded = lognormality_test(MATHS_COUNTS)
    assert shifted.n == 85       # zeros kept via the shift
    assert excluded.n == 82      # three zeros dropped
    assert shifted.p != excluded.p


def test_lognormality_validates_arguments():
    with pytest.raises(ValueError):
        lognormality_test(MATHS_COUNTS, alpha=0.0)
    with pytest.raises(ValueError):
        lognormality_test(MATHS_COUNTS, alpha=1.0)
    with pytest.raises(ValueError):
        lognormality_test(MATHS_COUNTS, m=0)
    with pytest.raises(ValueError):
        lognormality_test([-2, 5, 6])


def test_lognormal_draws_usually_pass():
    rng = np.random.default_rng(1234)
    rejections = sum(
        lognormality_test(rng.lognormal(1.0, 1.0, 120)).reject for _ in range(100)
    )
    assert rejections <= 15


def test_ten_reads_of_three_get_no_fit():
    # their logs' pairwise mean misses ln 3 by an ulp, which left a variance of 4.9e-32
    with pytest.raises(ZeroVarianceError, match="all retained values are identical"):
        fit_lognormal([3] * 10)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(2, 6000),
    st.one_of(st.integers(1, 10**9), st.floats(min_value=1e-300, max_value=1e300)),
    st.sampled_from(ZERO_POLICIES),
)
def test_a_constant_sample_is_refused_by_the_fit_and_the_test_alike(n, count, policy):
    reads = [count] * n
    with pytest.raises(ZeroVarianceError, match="^all retained values are identical$"):
        fit_lognormal(reads, ZeroPolicy(policy))
    if 3 <= n <= 5000:
        with pytest.raises(ZeroVarianceError, match="^all values are identical$"):
            lognormality_test(reads, ZeroPolicy(policy))
