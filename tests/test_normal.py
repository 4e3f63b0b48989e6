"""The in-house normal CDF and quantile against scipy.special, bit for bit.

readscale.normal ports the Cephes routines behind scipy.special.ndtr and
ndtri, so every comparison here is exact equality, never a tolerance.
"""
from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

import readscale.swilk as swilk_mod
from conftest import mixed_shape_samples
from readscale.normal import ndtr, ndtri
from readscale.swilk import shapiro_wilk

EXPM2 = 0.1353352832366127  # exp(-2): ndtri's central branch is (EXPM2, 1 - EXPM2)


def _around(v):
    return [np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)]


def _same(a, b) -> bool:
    return np.array_equal(np.asarray(a, dtype=float), np.asarray(b, dtype=float), equal_nan=True)


def test_ndtri_every_blom_score_up_to_5000():
    # the lower-half Blom scores shapiro_wilk asks for, n = 4..5000
    p = np.concatenate([(np.arange(1, n // 2 + 1) - 0.375) / (n + 0.25) for n in range(4, 5001)])
    assert p.size == 6_249_998
    assert _same(ndtri(p), special.ndtri(p))


def test_ndtri_edges_and_branch_points():
    p = np.array(
        [0.0, 1.0, 5e-324, 1e-300, 0.5, 1.0 - 2.0**-53, math.exp(-32), -0.1, 1.1, np.nan]
        + _around(EXPM2)
        + _around(1.0 - EXPM2)
        + _around(math.exp(-32))
    )
    ours = ndtri(p)
    assert _same(ours, special.ndtri(p))
    assert ours[0] == -np.inf and ours[1] == np.inf
    assert np.isnan(ours[7:10]).all()  # -0.1, 1.1 and NaN


def test_ndtri_seeded_uniforms_and_shapes():
    u = np.random.default_rng(2024).random(200_000)
    assert _same(ndtri(u), special.ndtri(u))
    grid = u[:12].reshape(3, 4)
    assert ndtri(grid).shape == (3, 4) and _same(ndtri(grid), special.ndtri(grid))
    assert ndtri(0.025) == special.ndtri(0.025)
    assert ndtri([]).shape == (0,)


def test_ndtri_far_tails():
    # below exp(-32) ndtri switches to its second tail polynomial; above
    # 1 - exp(-32) only the last few hundred doubles before 1 are left
    p = 10.0 ** -np.random.default_rng(3).uniform(13.5, 323.0, 200_000)
    p = np.concatenate([p, 1.0 - np.arange(1, 400) * 2.0**-53])
    assert _same(ndtri(p), special.ndtri(p))


@settings(max_examples=500, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0))
def test_ndtri_matches_scipy_on_any_probability(p):
    assert _same(ndtri(p), special.ndtri(p))


def _ndtr_all(x: np.ndarray) -> np.ndarray:
    return np.array([ndtr(v) for v in x.tolist()])


def test_ndtr_seeded_normals_and_a_dense_grid():
    x = np.random.default_rng(11).standard_normal(100_000) * 6.0
    assert _same(_ndtr_all(x), special.ndtr(x))
    grid = np.linspace(-40.0, 40.0, 100_001)
    assert _same(_ndtr_all(grid), special.ndtr(grid))


def test_ndtr_branch_points_underflow_and_infinities():
    # |x| = 1 (erf/erfc in ndtr), sqrt(2) (erfc falls back on erf), 8 sqrt(2)
    # (erfc's second polynomial) and 38.5 (exp(-x^2/2) underflows)
    edges = []
    for v in (1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), 38.5):
        edges += _around(v) + _around(-v)
    x = np.array(edges + [0.0, -0.0, 5e-324, np.inf, -np.inf, np.nan])
    ours = _ndtr_all(x)
    assert _same(ours, special.ndtr(x))
    assert ours[-3] == 1.0 and ours[-2] == 0.0 and math.isnan(ours[-1])


def _reference_shapiro_wilk(monkeypatch, x):
    """shapiro_wilk run on scipy.special's ndtr and ndtri."""
    with monkeypatch.context() as m:
        m.setattr(swilk_mod, "ndtr", special.ndtr)
        m.setattr(swilk_mod, "ndtri", special.ndtri)
        return shapiro_wilk(x)


def test_shapiro_wilk_equals_the_scipy_special_reference(monkeypatch):
    rng = np.random.default_rng(5)
    samples = list(mixed_shape_samples())
    samples += [rng.standard_normal(n) for n in (4, 5, 6, 11, 12, 5000)]
    for x in samples:
        ours = shapiro_wilk(x)
        ref = _reference_shapiro_wilk(monkeypatch, x)
        assert (ours.w, ours.p, ours.reject) == (ref.w, ref.p, ref.reject)
