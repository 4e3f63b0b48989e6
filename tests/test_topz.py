"""Tolerance bands and global top-z% membership per field."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from readscale.corpus import Corpus, PublicationRecord, stratify
from readscale.rescale import AllUnreadGroupError
from readscale.topz import (
    TIE_RULES,
    VARIANTS,
    _cut_size,
    sigma_z,
    top_membership,
    top_share_report,
)
from conftest import make_records


def test_sigma_z_exact_two_equal_fields():
    assert sigma_z(10.0, [100, 100]) == pytest.approx(3.0, abs=1e-12)


def test_sigma_z_symmetric_about_fifty():
    sizes = [60, 120, 300]
    for z in (1, 7, 23, 49.5):
        assert sigma_z(z, sizes) == pytest.approx(sigma_z(100 - z, sizes), abs=1e-12)


def test_sigma_z_scaling_with_field_sizes():
    sizes = [77, 140, 260, 300]
    doubled = [2 * n for n in sizes]
    assert sigma_z(15.0, doubled) == pytest.approx(sigma_z(15.0, sizes) / math.sqrt(2), abs=1e-12)


def test_sigma_z_formula_direct():
    z, sizes = 12.5, [50, 80, 200]
    expected = math.sqrt(z * (100 - z) / 3 * (1 / 50 + 1 / 80 + 1 / 200))
    assert sigma_z(z, sizes) == pytest.approx(expected, abs=1e-15)


def test_sigma_z_validation():
    with pytest.raises(ValueError):
        sigma_z(0.0, [10])
    with pytest.raises(ValueError):
        sigma_z(100.0, [10])
    with pytest.raises(ValueError):
        sigma_z(10.0, [])
    with pytest.raises(ValueError):
        sigma_z(10.0, [10, 0])


def test_top_membership_floor_rule():
    records = make_records(range(10, 0, -1), "A", 2010)  # reads 10..1
    assert top_membership(records, z=10) == {"a-0000"}
    assert top_membership(records, z=25) == {"a-0000", "a-0001"}  # floor(2.5) = 2
    assert top_membership(records, z=39.9) == {"a-0000", "a-0001", "a-0002"}


def test_cut_size_is_exact_for_integer_percentages():
    mismatches = [
        (z, n) for z in range(1, 100) for n in range(1, 2001) if _cut_size(z, n) != z * n // 100
    ]
    assert mismatches == []
    records = make_records(range(100, 0, -1), "A", 2010)
    assert len(top_membership(records, z=29)) == 29  # 29 / 100.0 * 100 is 28.999...


def test_top_membership_empty_selection_warns(caplog):
    records = make_records([5, 4, 3], "A", 2010)
    with caplog.at_level("WARNING"):
        selected = top_membership(records, z=10)  # floor(0.3) = 0
    assert selected == set()
    assert "selects nothing" in caplog.text


def test_tie_break_is_deterministic_by_id():
    records = [
        PublicationRecord("idC", "A", 2010, 5),
        PublicationRecord("idA", "A", 2010, 5),
        PublicationRecord("idB", "A", 2010, 3),
    ]
    assert top_membership(records, z=34) == {"idA"}  # k=1, lowest id among the tied
    assert top_membership(records, z=34, tie_rule="threshold") == {"idA", "idC"}


def test_tie_break_is_by_code_point_with_non_ascii_ids():
    # code point order: "a" < "a\x00" < "zeta" < "Émile" < "émile" < "ß" < "日本"
    ids = ["日本", "émile", "ß", "zeta", "Émile", "a\x00", "a"]
    records = [PublicationRecord(i, "A", 2010, 5) for i in ids]
    records += [PublicationRecord(f"low-{j}", "A", 2010, 1) for j in range(3)]
    ranked = sorted(ids)
    for k in range(1, len(ids) + 1):
        assert top_membership(records, z=10 * k) == set(ranked[:k])
    assert top_membership(records, z=10, tie_rule="threshold") == set(ids)


def test_share_report_skips_all_zero_strata_and_names_them_in_field_order():
    # "Zulu" comes first in the input, "Alpha" first in (field, year) order;
    # the records and their strata, whole or of one year, name both, in that order
    zero = make_records([0, 0, 0], "Zulu", 2010, prefix="z") + make_records([0, 0], "Alpha", 2010, prefix="a")
    ranked = make_records([4, 3, 2], "Mid", 2010, prefix="m")
    strata = stratify(Corpus.from_records(zero + ranked))
    for source in (zero + ranked, strata, strata.of_year(2010)):
        with pytest.raises(ValueError) as err:
            top_share_report(source, z=20.0, variant="rescaled")
        assert str(err.value) == (
            "skipped all-zero strata: Alpha, Zulu; top-share analysis needs at least 2 fields"
        )
    with pytest.raises(ValueError) as err:
        top_share_report(make_records([0, 0], "Alpha", 2010), z=20.0, variant="original")
    assert str(err.value) == "top-share analysis needs at least 2 fields"
    # with two fields ranked, the report is that of the year without the skipped strata
    ranked += make_records([9, 0, 5, 1, 1, 7], "Other", 2010, prefix="o")
    for tie_rule in ("rank", "threshold"):
        for z in (10.0, 20.0, 50.0):
            report = top_share_report(zero + ranked, z, "rescaled", tie_rule)
            assert list(report.skipped) == ["Alpha", "Zulu"]
            assert all(type(exc) is AllUnreadGroupError for exc in report.skipped.values())
            assert report == top_share_report(ranked, z, "rescaled", tie_rule)._replace(skipped=report.skipped)
            # the original ranking keeps every field
            original = top_share_report(zero + ranked, z, "original", tie_rule)
            assert (original.n_c, original.skipped) == (4, {})


def test_threshold_rule_superset_of_rank_rule():
    rng = np.random.default_rng(41)
    records = make_records(rng.integers(0, 12, size=60).tolist(), "A", 2010)
    for z in (5, 10, 20, 50):
        rank_set = top_membership(records, z=z)
        thr_set = top_membership(records, z=z, tie_rule="threshold")
        assert rank_set <= thr_set


def test_top_membership_validation():
    records = make_records([3, 2, 1], "A", 2010)
    with pytest.raises(ValueError):
        top_membership(records, z=0)
    with pytest.raises(ValueError):
        top_membership(records, z=100)
    with pytest.raises(ValueError):
        top_membership(records, value_selector="log")
    with pytest.raises(ValueError):
        top_membership(records, tie_rule="coinflip")
    with pytest.raises(ValueError):
        top_membership([], z=10)


def test_share_report_hand_case():
    records = make_records([10, 9, 8, 1, 1], "A", 2010, prefix="a") + make_records(
        [7, 6, 2, 1, 1], "B", 2010, prefix="b"
    )
    report = top_share_report(records, z=20.0)
    assert report.n_c == 2 and report.n_i == {"A": 5, "B": 5}
    # global top-2 by reads is {10, 9}, both in field A
    assert report.per_field_share == {"A": 40.0, "B": 0.0}
    assert report.sigma_z == pytest.approx(math.sqrt(20 * 80 / 2 * (2 / 5)), abs=1e-12)


def test_shares_account_for_every_selected_record():
    rng = np.random.default_rng(13)
    records = []
    for i, n in enumerate((40, 90, 160)):
        records += make_records(
            rng.integers(0, 500, size=n).tolist(), f"F{i}", 2010, prefix=f"f{i}"
        )
    for z in (5, 10, 20):
        report = top_share_report(records, z=z)
        selected = top_membership(records, z=z)
        total = sum(report.per_field_share[f] * report.n_i[f] / 100.0 for f in report.n_i)
        assert total == pytest.approx(len(selected), abs=1e-9)


def test_extreme_concentration_fails_tolerance():
    records = make_records([1000 + i for i in range(10)], "Hot", 2010, prefix="h")
    records += make_records([1] * 90, "Cold", 2010, prefix="c")
    report = top_share_report(records, z=10.0)
    assert report.per_field_share["Hot"] == 100.0
    assert report.per_field_share["Cold"] == 0.0
    assert report.within_tolerance == 0


def test_identical_fields_sit_inside_the_band():
    # two fields with the same counts: each holds exactly z% of the top
    counts = list(range(1, 101))
    records = make_records(counts, "A", 2010, prefix="a") + make_records(
        counts, "B", 2010, prefix="b"
    )
    for z in (5, 10, 20):
        report = top_share_report(records, z=float(z), variant="rescaled")
        assert report.within_tolerance == 2


def test_rescaled_variant_normalizes_intensity_differences():
    rng = np.random.default_rng(29)
    base = rng.lognormal(0.0, 1.0, 150)
    records = []
    for i, scale in enumerate((1.0, 9.0, 40.0)):
        vals = base * scale  # identical shape, very different means
        records += [
            PublicationRecord(f"s{i}-{j:03d}", f"F{i}", 2010, float(v))
            for j, v in enumerate(vals)
        ]
    for z in (5, 10, 20):
        original = top_share_report(records, z=float(z), variant="original")
        rescaled = top_share_report(records, z=float(z), variant="rescaled")
        assert rescaled.within_tolerance == 3
        assert original.within_tolerance < 3


def test_per_field_rescaling_invariance_of_membership():
    rng = np.random.default_rng(61)
    records = []
    for i in range(4):
        vals = rng.lognormal(1.0 + 0.5 * i, 1.0, 80)
        records += [
            PublicationRecord(f"g{i}-{j:03d}", f"F{i}", 2010, float(v))
            for j, v in enumerate(vals)
        ]
    base = top_membership(records, "rescaled", z=10)
    boosted = [
        PublicationRecord(r.id, r.field, r.year, r.reads * 7.0 if r.field == "F2" else r.reads)
        for r in records
    ]
    assert top_membership(boosted, "rescaled", z=10) == base


def test_share_report_needs_two_fields():
    records = make_records([5, 3, 2], "Solo", 2010)
    with pytest.raises(ValueError):
        top_share_report(records, z=10.0)


def test_share_report_rejects_mixed_years():
    records = make_records([5, 3, 1], "A", 2010, prefix="a") + make_records(
        [4, 2, 1], "B", 2011, prefix="b"
    )
    with pytest.raises(ValueError, match="needs records of one year, got 2010, 2011"):
        top_share_report(records, z=50.0)
    with pytest.raises(ValueError, match="got 2010, 2011"):
        top_share_report(records, z=50.0, variant="rescaled")


def _reference_membership(records, variant, z, tie_rule):
    """Top z% ids by a plain sort on (-value, id)."""
    values = {r.id: float(r.reads) for r in records}
    if variant == "rescaled":  # an all-zero stratum is left out of the ranking
        by_stratum = {}
        for r in records:
            by_stratum.setdefault((r.field, r.year), []).append(r)
        for members in by_stratum.values():
            mean = np.asarray([r.reads for r in members], dtype=float).mean()
            for r in members:
                if mean:
                    values[r.id] = float(r.reads) / mean
                else:
                    del values[r.id]
    ranked = sorted(values.items(), key=lambda item: (-item[1], item[0]))
    k = math.floor(z * len(ranked) / 100)
    if k == 0:
        return set()
    if tie_rule == "threshold":
        return {i for i, v in ranked if v >= ranked[k - 1][1]}
    return {i for i, _ in ranked[:k]}


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["A", "B", "Ç"]),
            st.one_of(st.integers(0, 6), st.floats(0, 6)),
            st.sampled_from([2010, 2011]),
        ),
        min_size=1, max_size=40,
    ),
    st.data(),
    st.floats(0, 100, exclude_min=True, exclude_max=True),
    st.sampled_from(TIE_RULES),
    st.sampled_from(VARIANTS),
)
def test_top_membership_equals_sort_reference(rows, data, z, tie_rule, variant):
    ids = data.draw(st.lists(st.text(max_size=4), min_size=len(rows), max_size=len(rows), unique=True))
    records = [PublicationRecord(i, f, y, v) for i, (f, v, y) in zip(ids, rows)]
    assert top_membership(records, variant, z, tie_rule) == _reference_membership(
        records, variant, z, tie_rule
    )


def test_top_membership_leaves_all_zero_strata_out_of_the_rescaled_ranking():
    ranked = make_records([4, 1], "A", 2010, prefix="a10") + make_records([2, 5], "B", 2011, prefix="b11")
    zero = make_records([0, 0], "B", 2010, prefix="b10") + make_records([0, 0, 0], "A", 2011, prefix="a11")
    for z in (25.0, 50.0, 75.0):
        assert top_membership(zero + ranked, "rescaled", z) == top_membership(ranked, "rescaled", z)


def _reference_shares(records, variant, z, tie_rule):
    """Per-field shares of the top z% by a plain sort, recomputed for this z."""
    members = _reference_membership(records, variant, z, tie_rule)
    sizes, hits = {}, {}
    for r in records:
        sizes[r.field] = sizes.get(r.field, 0) + 1
        hits[r.field] = hits.get(r.field, 0) + (r.id in members)
    return {f: 100.0 * hits[f] / sizes[f] for f in sizes}


def test_share_report_ranks_once_and_cuts_every_z():
    rng = np.random.default_rng(12)
    records = []
    for j, field in enumerate(["Bio", "Chem", "Ëcon", "Maths", "Zoo"]):
        counts = np.round(rng.lognormal(1.0 + 0.4 * j, 1.0, 30 + 17 * j)).astype(int)
        records += make_records(counts, field, 2012, prefix=f"{j}-{field}")
    strata = stratify(Corpus.from_records(records))
    zs = [0.5, 1.0, 2.5, 5.0, 7.3, 10.0, 12.5, 20.0, 33.3, 50.0, 75.0, 99.9]
    for variant in VARIANTS:
        for tie_rule in TIE_RULES:
            for z in zs:
                report = top_share_report(strata, z, variant, tie_rule)
                assert report.per_field_share == _reference_shares(records, variant, z, tie_rule)
                assert report.sigma_z == sigma_z(z, list(report.n_i.values()))
                assert report == top_share_report(records, z, variant, tie_rule)
    # one ranking per variant, kept on the strata and reused for every z
    assert sorted(strata.rankings) == sorted(VARIANTS)


def test_share_report_all_zero_and_empty_cut_repeat_for_every_z(caplog):
    records = (
        make_records([0, 0, 0], "Alpha", 2010, prefix="a")
        + make_records([5, 3, 1, 1, 2], "Mid", 2010, prefix="m")
        + make_records([4, 0, 2, 7], "Zulu", 2010, prefix="z")
    )
    strata = stratify(Corpus.from_records(records))
    with caplog.at_level("WARNING", logger="readscale.topz"):
        for z in (5.0, 8.0, 10.0):
            for variant in VARIANTS:
                report = top_share_report(strata, z, variant)
                assert list(report.skipped) == (["Alpha"] if variant == "rescaled" else [])
                assert report.within_tolerance == sum(
                    abs(s - z) <= report.sigma_z for s in report.per_field_share.values()
                )
    # the rescaled ranking holds the 9 records of the two fields ranked
    assert [r.getMessage() for r in caplog.records] == [
        "top 5.0% of 12 records selects nothing",
        "top 5.0% of 9 records selects nothing",
        "top 8.0% of 12 records selects nothing",
        "top 8.0% of 9 records selects nothing",
        "top 10.0% of 9 records selects nothing",
    ]
