"""Shapiro-Wilk statistic and p-value against an independent reference.

The frozen (W, p) pairs below were computed beforehand with
scipy.stats.shapiro, an independent implementation of the same AS R94
algorithm, and pasted in as constants. A live cross-check against scipy
runs as well, over a seeded mix of sample shapes and sizes.
"""
from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtri

import readscale.swilk as swilk
from readscale.normal import ndtri as readscale_ndtri, polevl
from readscale.swilk import UnsupportedSizeError, ZeroVarianceError, shapiro_wilk
from conftest import MATHS_COUNTS, mixed_shape_samples


def _reference_samples() -> dict[str, np.ndarray]:
    return {
        "A_n12_skewed_ints": np.array([1, 2, 2, 3, 3, 3, 4, 4, 5, 6, 8, 13.0]),
        "B_log_maths_ties": np.log(np.array([v for v in MATHS_COUNTS if v > 0], dtype=float)),
        "C_n50_blom_quantiles": ndtri((np.arange(1, 51) - 0.375) / (50 + 0.25)),
        "D_n500_seeded_normal": np.random.default_rng(123).standard_normal(500),
        "E_n3_minimal": np.array([1.0, 2.5, 9.0]),
    }


# (name, W, p) computed once with scipy.stats.shapiro and frozen.
REFERENCE_VALUES = (
    ("A_n12_skewed_ints", 0.8308399071788765, 0.0214646322096434),
    ("B_log_maths_ties", 0.9653679111090115, 0.025923585149348997),
    ("C_n50_blom_quantiles", 0.9984740698028733, 0.999999990349777),
    ("D_n500_seeded_normal", 0.9963210298387806, 0.30418904063858065),
    ("E_n3_minimal", 0.8847926267281107, 0.33861099287473395),
)


@pytest.mark.parametrize("name,w_ref,p_ref", REFERENCE_VALUES)
def test_frozen_reference_values(name, w_ref, p_ref):
    sample = _reference_samples()[name]
    result = shapiro_wilk(sample)
    assert result.w == pytest.approx(w_ref, abs=1e-6)
    assert result.p == pytest.approx(p_ref, abs=1e-5)
    assert result.n == len(sample)


def test_live_cross_check_against_scipy():
    worst_w = worst_p = 0.0
    for x in mixed_shape_samples():
        ours = shapiro_wilk(x)
        w_ref, p_ref = stats.shapiro(x)
        worst_w = max(worst_w, abs(ours.w - w_ref))
        worst_p = max(worst_p, abs(ours.p - p_ref))
    assert worst_w < 1e-6
    assert worst_p < 1e-5


def test_affine_invariance_of_w():
    rng = np.random.default_rng(31)
    for _ in range(50):
        x = rng.lognormal(0.5, 0.8, int(rng.integers(5, 200)))
        a = float(rng.uniform(0.1, 50.0))
        b = float(rng.uniform(-100.0, 100.0))
        assert shapiro_wilk(a * x + b).w == pytest.approx(shapiro_wilk(x).w, abs=1e-12)


def test_p_is_a_probability():
    rng = np.random.default_rng(8)
    for _ in range(40):
        x = rng.standard_t(3, size=int(rng.integers(3, 60)))
        p = shapiro_wilk(x).p
        assert 0.0 <= p <= 1.0


def test_reject_flag_uses_alpha():
    x = np.exp(np.random.default_rng(5).standard_normal(40) * 1.2)  # clearly non-normal
    result = shapiro_wilk(x, alpha=0.05)
    assert result.p < 0.05 and result.reject
    assert not shapiro_wilk(x, alpha=result.p / 2).reject


def test_normal_samples_rarely_rejected():
    rng = np.random.default_rng(99)
    rejections = sum(
        shapiro_wilk(rng.standard_normal(100)).reject for _ in range(200)
    )
    # 5% expected rejection rate at alpha=0.05; allow a wide band
    assert rejections <= 25


def test_size_limits():
    with pytest.raises(UnsupportedSizeError):
        shapiro_wilk([1.0, 2.0])
    with pytest.raises(UnsupportedSizeError):
        shapiro_wilk(np.arange(5001, dtype=float))
    # boundaries are inside the supported range
    assert 0.0 <= shapiro_wilk([1.0, 2.0, 4.0]).p <= 1.0
    assert 0.0 <= shapiro_wilk(np.random.default_rng(1).standard_normal(5000)).p <= 1.0


def test_constant_sample_raises():
    with pytest.raises(ZeroVarianceError):
        shapiro_wilk([4.0] * 10)


def test_w_at_most_one():
    # near-perfectly normal scores push W against its upper bound
    x = ndtri((np.arange(1, 201) - 0.375) / (200 + 0.25))
    assert shapiro_wilk(x).w <= 1.0


def _uncached_weights(n):
    """The weight vector as shapiro_wilk computed it for every test before the
    weights were cached by n, with ``np.polyval`` for the polynomials."""
    n2 = n // 2
    if n == 3:
        half = np.array([np.sqrt(0.5)])
    else:
        m = readscale_ndtri((np.arange(1, n2 + 1) - 0.375) / (n + 0.25))
        summ2 = 2.0 * np.dot(m, m)
        ssumm2 = np.sqrt(summ2)
        rsn = 1.0 / np.sqrt(n)
        a1 = np.polyval(swilk._C1, rsn) - m[0] / ssumm2
        half = np.empty(n2)
        if n > 5:
            a2 = np.polyval(swilk._C2, rsn) - m[1] / ssumm2
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
    return a


def test_cached_weights_equal_the_uncached_computation_for_every_n():
    for n in range(swilk.N_MIN, swilk.N_MAX + 1):
        assert np.array_equal(swilk._weights(n), _uncached_weights(n)), n
    # a second pass over sizes the cache still holds hands back the same arrays
    recent = list(swilk._cache)[-20:]
    assert all(swilk._weights(n) is swilk._cache[n] for n in recent)


def test_cached_weights_are_read_only():
    a = swilk._weights(40)
    with pytest.raises(ValueError):
        a[0] = 0.0
    with pytest.raises(ValueError):
        a.sort()
    assert np.array_equal(swilk._weights(40), _uncached_weights(40))


def test_weights_cache_stays_bounded():
    for n in range(swilk.N_MAX, swilk.N_MAX - 400, -1):  # 2 M values asked for
        swilk._weights(n)
    held = sum(a.size for a in swilk._cache.values())
    assert held == swilk._cache_held
    assert held <= swilk._CACHE_VALUES
    assert sum(a.nbytes for a in swilk._cache.values()) <= 4 * 2**20
    # the least recently used sizes went first
    assert swilk.N_MAX - 399 in swilk._cache and swilk.N_MAX not in swilk._cache


def test_weights_cache_under_concurrent_callers(monkeypatch):
    # a small bound, so that threads evict while others insert and read
    monkeypatch.setattr(swilk, "_CACHE_VALUES", 3000)
    sizes = list(range(3, 300))
    expected = {n: _uncached_weights(n) for n in sizes}
    wrong = []

    def worker(k):
        for n in sizes[k:] + sizes[:k]:
            try:
                if not np.array_equal(swilk._weights(n), expected[n]):
                    wrong.append(n)
            except Exception as exc:  # a lost update can surface as a KeyError
                wrong.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(37 * k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert swilk._cache_held == sum(a.size for a in swilk._cache.values()) <= 3000


@pytest.mark.parametrize("coeffs", ["_C1", "_C2", "_C3", "_C4", "_C5", "_C6", "_G"])
def test_horner_is_bit_identical_to_polyval(coeffs):
    # normal.polevl at each argument swilk passes it: 1/sqrt(n), n and log n
    c = getattr(swilk, coeffs)
    points = [float(1.0 / np.sqrt(n)) for n in range(3, 5001)] + list(range(3, 5001))
    points += [float(np.log(n)) for n in range(3, 5001)]
    for x in points:
        assert polevl(x, c) == np.polyval(c, x), x
