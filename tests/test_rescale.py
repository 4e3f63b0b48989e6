"""Mean-rescaling, cross-stratum collapse and CCDF construction."""
from __future__ import annotations

import warnings

import numpy as np
import pytest

from readscale.corpus import GroupKey, PublicationRecord, group_by_field_year, group_stats
from readscale.rescale import (
    AllUnreadGroupError,
    RescaledSample,
    UnscalableGroupError,
    ccdf,
    ccdf_filename,
    collapse,
    rescale_group,
    write_ccdf_tsv,
)
from conftest import make_records


def _group(counts, field="F", year=2010, prefix=None):
    groups = group_by_field_year(make_records(counts, field, year, prefix))
    return groups[GroupKey(field, year)]


def test_hand_case():
    sample = rescale_group(_group([2, 4, 6]))
    assert sample.r0 == pytest.approx(4.0)
    assert sample.values.tolist() == [0.5, 1.0, 1.5]


def test_divisor_includes_zeros():
    sample = rescale_group(_group([0, 5, 5]))
    assert sample.r0 == pytest.approx(10.0 / 3.0)
    assert sample.values[0] == 0.0


def test_value_equal_to_the_mean_maps_to_one():
    # counts sum to 313 over 5 records: the mean is exactly 62.6 and the
    # record with 62.6 reads lands exactly on 1.0 after rescaling
    counts = [16.0, 45.0, 62.6, 86.4, 103.0]
    records = [
        PublicationRecord(f"v-{i}", "Virology", 2010, c) for i, c in enumerate(counts)
    ]
    group = group_by_field_year(records)[GroupKey("Virology", 2010)]
    sample = rescale_group(group)
    assert sample.r0 == 62.6
    assert sample.values[2] == 1.0


def test_rescaled_mean_is_one_random():
    rng = np.random.default_rng(11)
    for _ in range(30):
        counts = rng.integers(0, 300, size=int(rng.integers(2, 80))).tolist()
        if sum(counts) == 0:
            continue
        assert rescale_group(_group(counts)).values.mean() == pytest.approx(1.0, abs=1e-9)


def test_rank_order_preserved():
    counts = [7, 1, 19, 4, 4, 120]
    group = _group(counts)
    sample = rescale_group(group)
    assert np.argsort(sample.values, kind="stable").tolist() == np.argsort(
        np.asarray(counts, dtype=float), kind="stable"
    ).tolist()


def test_a_group_summing_beyond_float_range_is_unscalable_without_a_numpy_warning():
    group = _group([1e308, 1e308, 5e307])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnscalableGroupError, match="has reads that sum beyond float range") as err:
            rescale_group(group)
        assert group_stats(group).r_mean is None
    assert type(err.value) is UnscalableGroupError


def test_all_zero_group_raises():
    with pytest.raises(AllUnreadGroupError):
        rescale_group(_group([0, 0, 0]))


def test_collapse_is_order_independent_and_sorted_by_key():
    a = RescaledSample(GroupKey("A", 2010), np.array([1.0, 2.0]), 5.0)
    b = RescaledSample(GroupKey("B", 2010), np.array([3.0]), 6.0)
    c = RescaledSample(GroupKey("A", 2009), np.array([4.0]), 7.0)
    pooled = collapse([b, a, c])
    assert pooled.tolist() == [4.0, 1.0, 2.0, 3.0]  # A/2009, A/2010, B/2010
    assert collapse([c, b, a]).tolist() == pooled.tolist()


def test_collapse_counts_each_publication_once():
    sizes = (1644, 1645, 1644)  # pooled year of 4,933 publications
    samples = []
    rng = np.random.default_rng(9)
    for i, n in enumerate(sizes):
        counts = rng.integers(1, 50, size=n)
        group = _group(counts.tolist(), field=f"F{i}", prefix=f"f{i}")
        samples.append(rescale_group(group))
    pooled = collapse(samples)
    assert pooled.size == 4933


def test_collapse_empty_raises():
    with pytest.raises(ValueError):
        collapse([])


def test_ccdf_hand_case():
    curve = ccdf([1, 2, 2, 5])
    assert curve.points.tolist() == [[1.0, 1.0], [2.0, 0.75], [5.0, 0.25]]


def test_ccdf_starts_at_one_and_never_increases():
    rng = np.random.default_rng(23)
    for _ in range(25):
        values = rng.lognormal(1.0, 1.0, int(rng.integers(1, 500)))
        curve = ccdf(values)
        assert curve.p[0] == 1.0
        assert np.all(np.diff(curve.p) < 0)
        assert np.all(np.diff(curve.x) > 0)


def test_ccdf_matches_direct_fractions():
    rng = np.random.default_rng(4)
    values = np.round(rng.lognormal(1.2, 1.0, 400))
    curve = ccdf(values)
    for x, p in curve.points:
        assert p == pytest.approx(np.mean(values >= x), abs=1e-15)


def test_fraction_at_least():
    curve = ccdf([1, 2, 2, 5])
    assert curve.fraction_at_least(2.0) == 0.75
    assert curve.fraction_at_least(3.0) == 0.25  # next point with mass is 5
    assert curve.fraction_at_least(0.5) == 1.0
    assert curve.fraction_at_least(6.0) == 0.0


def test_ccdf_empty_raises():
    with pytest.raises(ValueError):
        ccdf([])


def test_ccdf_filenames():
    assert ccdf_filename(2010) == "ccdf_merged_2010.tsv"
    assert ccdf_filename(2008, "Cell Biology") == "ccdf_cell_biology_2008.tsv"
    assert ccdf_filename(2008, "  Clinical Psychology ") == "ccdf_clinical_psychology_2008.tsv"


def test_write_ccdf_tsv_full_precision(tmp_path):
    curve = ccdf([1, 2, 2, 5, 9, 9, 9])
    path = tmp_path / "c.tsv"
    write_ccdf_tsv(curve, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x\tp"
    assert len(lines) == 1 + len(curve.points)
    x0, p0 = lines[1].split("\t")
    assert float(x0) == curve.x[0] and float(p0) == 1.0
    # values survive a text round-trip exactly
    back = np.array([[float(a), float(b)] for a, b in (ln.split("\t") for ln in lines[1:])])
    assert np.array_equal(back, curve.points)
