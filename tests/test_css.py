"""Characteristic scores by iterated truncation, and the induced classes."""
from __future__ import annotations

import math

import numpy as np
import pytest

from readscale.css import (
    CLASS_NAMES,
    characteristic_scores,
    class_labels,
    classify,
)


def _oracle_scores(values, k, rule="ge"):
    """Brute-force reference: plain python, no shortcuts."""
    betas = []
    current = [float(v) for v in values]
    for _ in range(k):
        if not current:
            break
        beta = sum(current) / len(current)
        if betas and beta <= betas[-1]:
            break
        betas.append(beta)
        if rule == "ge":
            current = [v for v in current if v >= beta]
        else:
            current = [v for v in current if v > beta]
    return betas


def _oracle_counts(values, betas):
    edges = list(betas) + [math.inf]
    counts = [0] * (len(betas) + 1)
    for v in values:
        idx = 0
        while v >= edges[idx]:
            idx += 1
        counts[idx] += 1
    return counts


def test_hand_case():
    betas = characteristic_scores([1, 2, 3, 4, 10])
    assert betas == [4.0, 7.0, 10.0]
    result = classify([1, 2, 3, 4, 10], betas)
    assert result.class_counts == (3, 1, 0, 1)
    assert result.class_shares == pytest.approx((0.6, 0.2, 0.0, 0.2))
    assert result.thresholds[0] == (0.0, 4.0)
    assert result.thresholds[-1] == (10.0, math.inf)


def test_strict_truncation_variant():
    # under "gt" the subsample above 4 is {10} alone, so the ladder shortens
    assert characteristic_scores([1, 2, 3, 4, 10], rule="gt") == [4.0, 10.0]


def test_constant_sample_stops_after_first_score():
    assert characteristic_scores([6, 6, 6, 6]) == [6.0]
    assert characteristic_scores([0, 0, 0]) == [0.0]


# a constant sample whose float mean rounds above its value, below it, and to it
CONSTANT = [(0.1, 3), (0.7, 3), (3.0, 10)]


@pytest.mark.parametrize("value, n", CONSTANT)
@pytest.mark.parametrize("rule", ["ge", "gt"])
def test_a_constant_sample_or_subsample_scores_its_value_and_opens_its_class(value, n, rule):
    means = [float(np.add.reduce(np.full(n, v)) / n) for v, n in CONSTANT]
    assert [(m > v) - (m < v) for m, (v, _) in zip(means, CONSTANT)] == [1, -1, 0]
    assert characteristic_scores([value] * n, rule=rule) == [value]
    assert classify([value] * n, [value]).class_counts == (0, n)
    # a subsample at or above the first score that is constant
    below = value / 4
    betas = characteristic_scores([below] + [value] * n, rule=rule)
    assert betas[1:] == [value]
    assert classify([below] + [value] * n, betas).class_counts == (1, 0, n)


def test_scores_strictly_increase():
    rng = np.random.default_rng(19)
    for _ in range(50):
        values = np.round(rng.lognormal(2.0, 1.1, int(rng.integers(2, 400))))
        betas = characteristic_scores(values, k=5)
        assert all(b2 > b1 for b1, b2 in zip(betas, betas[1:]))


def test_boundary_values_go_to_the_upper_class():
    result = classify([0, 2, 4], betas=(2.0,))
    assert result.class_counts == (1, 2)  # 2 sits in [2, inf)
    assert class_labels([1.9999, 2.0, 2.0001], (2.0,)).tolist() == [0, 1, 1]


def test_classify_validates_scores():
    with pytest.raises(ValueError):
        classify([1, 2, 3], betas=(5.0, 5.0))
    with pytest.raises(ValueError):
        classify([1, 2, 3], betas=(5.0, 4.0))
    with pytest.raises(ValueError):
        classify([], betas=(1.0,))


def test_characteristic_scores_validation():
    with pytest.raises(ValueError):
        characteristic_scores([], k=3)
    with pytest.raises(ValueError):
        characteristic_scores([1, 2], k=0)
    with pytest.raises(ValueError):
        characteristic_scores([1, 2], rule="geq")


def test_counts_sum_and_shares_sum():
    rng = np.random.default_rng(7)
    for _ in range(30):
        values = np.round(rng.lognormal(2.5, 1.0, int(rng.integers(5, 300))))
        betas = characteristic_scores(values)
        result = classify(values, betas)
        assert sum(result.class_counts) == values.size
        assert sum(result.class_shares) == pytest.approx(1.0, abs=1e-12)


def test_matches_brute_force_oracle():
    rng = np.random.default_rng(55)
    for _ in range(2000):
        n = int(rng.integers(1, 9))
        values = rng.integers(0, 11, size=n).tolist()
        for rule in ("ge", "gt"):
            betas = characteristic_scores(values, k=3, rule=rule)
            assert betas == _oracle_scores(values, 3, rule)
            result = classify(values, betas) if betas else None
            if result is not None:
                assert list(result.class_counts) == _oracle_counts(values, betas)


def test_scale_invariance_of_shares():
    rng = np.random.default_rng(88)
    values = np.round(rng.lognormal(2.0, 1.0, 500))
    base = classify(values, characteristic_scores(values))
    for c in (3, 10, 250):  # integer scaling keeps the arithmetic exact
        scaled = classify(values * c, characteristic_scores(values * c))
        assert scaled.class_counts == base.class_counts
        assert [b / c for b in scaled.betas] == pytest.approx(list(base.betas), rel=1e-12)


def test_deeper_ladders():
    rng = np.random.default_rng(21)
    values = np.round(rng.lognormal(3.0, 1.2, 5000))
    betas = characteristic_scores(values, k=6)
    result = classify(values, betas)
    assert len(result.class_counts) == len(betas) + 1
    # occupancy thins toward the top classes on skewed data
    assert result.class_counts[0] > result.class_counts[-1]


def test_class_names_cover_default_depth():
    assert len(CLASS_NAMES) == 4
