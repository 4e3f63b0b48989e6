"""Grouping and summary statistics over publication records."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from readscale.choices import TRUNCATION_RULES
from readscale.corpus import (
    Corpus,
    DuplicateIdError,
    EmptyCorpusError,
    GroupKey,
    PublicationRecord,
    Stratum,
    group_by_field_year,
    group_stats,
    mean,
    stratify,
)
from readscale.css import characteristic_scores, classify
from readscale.distfit import ZERO_POLICIES, ZeroPolicy, fit_logs, log_sample
from readscale.rescale import rescale_group
from readscale.swilk import shapiro_wilk
from conftest import make_records


def test_grouping_partitions_and_preserves_order():
    records = (
        make_records([3, 1], "A", 2010, prefix="a10")
        + make_records([5], "B", 2010, prefix="b10")
        + make_records([2, 8, 4], "A", 2011, prefix="a11")
    )
    groups = group_by_field_year(records)
    assert set(groups) == {GroupKey("A", 2010), GroupKey("B", 2010), GroupKey("A", 2011)}
    assert sum(len(g) for g in groups.values()) == len(records)
    assert [r.reads for r in groups[GroupKey("A", 2011)].records] == [2, 8, 4]
    # first-encounter group order
    assert list(groups) == [GroupKey("A", 2010), GroupKey("B", 2010), GroupKey("A", 2011)]


def test_field_labels_are_trimmed_not_casefolded():
    records = [
        PublicationRecord("x1", " Surgery ", 2010, 4),
        PublicationRecord("x2", "Surgery", 2010, 5),
        PublicationRecord("x3", "surgery", 2010, 6),
    ]
    groups = group_by_field_year(records)
    assert GroupKey("Surgery", 2010) in groups
    assert len(groups[GroupKey("Surgery", 2010)]) == 2
    assert len(groups[GroupKey("surgery", 2010)]) == 1


def test_empty_corpus_raises():
    with pytest.raises(EmptyCorpusError):
        group_by_field_year([])


def test_duplicate_ids_raise_and_name_offenders():
    records = make_records([1, 2], "A", 2010) + make_records([3, 4], "A", 2010)
    with pytest.raises(DuplicateIdError) as err:
        group_by_field_year(records)
    assert "a-0000" in str(err.value) and "a-0001" in str(err.value)


def test_group_key_ordering_is_field_then_year():
    keys = [GroupKey("B", 2009), GroupKey("A", 2011), GroupKey("A", 2009)]
    assert sorted(keys) == [GroupKey("A", 2009), GroupKey("A", 2011), GroupKey("B", 2009)]


def test_group_stats_hand_case():
    records = make_records([0, 3, 6, 0, 11], "A", 2010)
    stats = group_stats(group_by_field_year(records)[GroupKey("A", 2010)])
    assert stats.n == 5
    assert stats.r_mean == pytest.approx(4.0)
    assert stats.r_max == 11
    assert stats.zero_share == pytest.approx(0.4)


def test_group_stats_mean_includes_zeros():
    records = make_records([0, 0, 0, 12], "A", 2010)
    stats = group_stats(group_by_field_year(records)[GroupKey("A", 2010)])
    assert stats.r_mean == pytest.approx(3.0)


def test_reads_array_roundtrip_random(seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(20):
        counts = rng.integers(0, 50, size=rng.integers(1, 30)).tolist()
        group = next(iter(group_by_field_year(make_records(counts, "F", 2012)).values()))
        assert group.reads.tolist() == counts


def test_cites_array_uses_nan_for_missing():
    records = [
        PublicationRecord("c1", "A", 2010, 4, cites=7),
        PublicationRecord("c2", "A", 2010, 5),
    ]
    cites = group_by_field_year(records)[GroupKey("A", 2010)].cites
    assert cites[0] == 7.0 and np.isnan(cites[1])


def test_stratify_runs_follow_year_then_field_and_keep_input_order():
    records = (
        make_records([3, 1], "B", 2011, prefix="b11")
        + make_records([9], "A", 2012, prefix="a12")
        + make_records([5, 7], "B", 2010, prefix="b10")
        + make_records([2, 8, 4], "A", 2012, prefix="a12x")
        + make_records([6], "A", 2010, prefix="a10")
    )
    strata = stratify(Corpus.from_records(records))
    assert strata.keys == (
        GroupKey("A", 2010), GroupKey("B", 2010), GroupKey("B", 2011), GroupKey("A", 2012)
    )
    assert strata.years() == [2010, 2011, 2012]
    assert strata.bounds.tolist() == [0, 1, 3, 5, 9]
    assert strata.corpus.ids.tolist() == [
        "a10-0000", "b10-0000", "b10-0001", "b11-0000", "b11-0001", "a12-0000",
        "a12x-0000", "a12x-0001", "a12x-0002",
    ]
    assert [s.reads.tolist() for s in strata] == [[6], [5, 7], [3, 1], [9, 2, 8, 4]]
    assert strata.positions.tolist() == [8, 3, 4, 0, 1, 2, 5, 6, 7]
    year = strata.of_year(2012)
    assert year.keys == (GroupKey("A", 2012),) and year.corpus.reads.tolist() == [9, 2, 8, 4]


def test_stratum_reads_are_real_once_any_value_is():
    records = [
        PublicationRecord("i1", "Ints", 2010, 12),
        PublicationRecord("r1", "Reals", 2010, 12),
        PublicationRecord("r2", "Reals", 2010, 4.5),
    ]
    strata = {s.key.field: s for s in stratify(Corpus.from_records(records))}
    groups = {key.field: group for key, group in group_by_field_year(records).items()}
    assert strata["Ints"].reads.dtype == strata["Reals"].reads.dtype == np.float64
    for both in (strata, groups):
        assert not both["Ints"].real and both["Reals"].real
        ints, reals = group_stats(both["Ints"]).r_max, group_stats(both["Reals"]).r_max
        assert ints == 12 and type(ints) is int
        assert reals == 12 and type(reals) is float


def test_strata_are_read_only_views_of_the_corpus_reads():
    records = make_records([3, 1], "Ints", 2010, prefix="i") + [
        PublicationRecord("r1", "Reals", 2010, 4.5)
    ]
    corpus = Corpus.from_records(records)
    strata = stratify(corpus)
    assert corpus.reads.flags.writeable  # the caller's columns are left as they are
    assert not strata.corpus.reads.flags.writeable
    for stratum in strata:
        assert stratum.reads.dtype == np.float64
        assert np.shares_memory(stratum.reads, strata.corpus.reads)
        assert not stratum.reads.flags.writeable
        with pytest.raises(ValueError):
            stratum.reads[0] = 0
    # every pass makes the same strata afresh
    assert [(s.key.field, s.reads.tolist(), s.real) for s in strata] == [
        ("Ints", [3, 1], False), ("Reals", [4.5], True),
    ]


def test_year_beyond_64_bits_is_a_value_error():
    with pytest.raises(ValueError, match="64 bits"):
        Corpus.from_records([PublicationRecord("y1", "A", 10**19, 3)])


def test_of_year_is_a_view_of_the_strata_rows():
    records = (
        make_records([3, 1], "A", 2010, prefix="a10")
        + make_records([5], "B", 2011, prefix="b11")
        + make_records([2, 8], "A", 2011, prefix="a11")
    )
    strata = stratify(Corpus.from_records(records))
    year = strata.of_year(2011)
    assert year.keys == (GroupKey("A", 2011), GroupKey("B", 2011))
    assert year.corpus.ids.tolist() == ["a11-0000", "a11-0001", "b11-0000"]
    # each row keeps its position in the whole input
    assert year.bounds.tolist() == [0, 2, 3] and year.positions.tolist() == [3, 4, 2]
    assert [s.reads.tolist() for s in year] == [[2, 8], [5]]
    for stratum in year:
        assert np.shares_memory(stratum.reads, strata.corpus.reads)
        assert not stratum.reads.flags.writeable
    missing = strata.of_year(2012)
    assert missing.keys == () and len(missing.corpus) == 0 and list(missing) == []
    assert missing.bounds.tolist() == [0] and missing.years() == []


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([2011, 2009, 2010]),
            st.sampled_from(["A", " A", "B ", "  B\t", "Ç", "b"]),
            st.one_of(st.integers(0, 50), st.floats(0, 50)),
        ),
        min_size=1, max_size=40,
    )
)
def test_of_year_equals_stratify_of_the_years_rows(rows):
    ids = [f"r{i}" for i in range(len(rows))]
    years, fields, reads = (list(column) for column in zip(*rows))
    strata = stratify(Corpus.from_columns(ids, fields, years, reads, [None] * len(rows)))
    assert strata.years() == sorted(set(years))
    for year in set(years):
        picked = [i for i, y in enumerate(years) if y == year]
        alone = stratify(Corpus.from_columns(
            [ids[i] for i in picked], [fields[i] for i in picked], [year] * len(picked),
            [reads[i] for i in picked], [None] * len(picked),
        ))
        view = strata.of_year(year)
        assert view.keys == alone.keys
        assert view.bounds.tolist() == alone.bounds.tolist()
        assert view.corpus.ids.tolist() == alone.corpus.ids.tolist()
        assert view.corpus.reads.tolist() == alone.corpus.reads.tolist()
        assert [s.real for s in view] == [s.real for s in alone]
        assert [s.reads.tolist() for s in view] == [s.reads.tolist() for s in alone]
        assert view.positions.tolist() == np.asarray(picked)[alone.positions].tolist()
        assert view.years() == [year]
        # no column is copied, and each stratum's reads are the whole's own
        for name in ("ids", "fields", "years", "reads", "real", "cites"):
            assert np.shares_memory(getattr(view.corpus, name), getattr(strata.corpus, name))
        assert np.shares_memory(view.positions, strata.positions)
        assert all(np.shares_memory(s.reads, strata.corpus.reads) for s in view)
        assert [(s.key, s.real) for s in view] == [(s.key, s.real) for s in strata if s.key.year == year]


@st.composite
def _mean_samples(draw):
    """1-D int64 arrays of values up to 2**53 and float64 arrays of 1 to
    10,000 values: drawn value by value when short, else from a drawn seed."""
    n = draw(st.integers(1, 10_000))
    if n <= 60:
        if draw(st.booleans()):
            return draw(arrays(np.int64, n, elements=st.integers(-(2**53), 2**53)))
        return draw(arrays(np.float64, n, elements=st.floats(-1e300, 1e300)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["counts", "wide ints", "logs", "rescaled", "wide floats"]))
    if kind == "counts":
        return rng.poisson(rng.lognormal(1.5, 1.2, n)).astype(np.int64)
    if kind == "wide ints":
        return rng.integers(0, 2**53, n, dtype=np.int64, endpoint=True)
    if kind == "logs":
        return np.log(rng.poisson(20.0, n) + 1.0)
    if kind == "rescaled":
        reads = rng.poisson(rng.lognormal(1.5, 1.2, n)).astype(float) + 1.0
        return reads / reads.mean()
    return rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)


@settings(max_examples=300, deadline=None)
@given(_mean_samples())
def test_mean_is_ndarray_mean_bit_for_bit(values):
    expected = values.mean()
    assert np.float64(mean(values)).tobytes() == expected.tobytes()


def _counts(values: np.ndarray) -> np.ndarray:
    """A sample of ``_mean_samples`` as non-negative int64 counts whose sum
    stays below 2**53, so that every order of summing them is exact."""
    counts = np.minimum(np.rint(np.abs(values.astype(float))), 2.0**53).astype(np.int64)
    return counts >> max(0, (int(counts.max()) * counts.size).bit_length() - 53)


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc)


def _bits(result):
    """``result`` in a form that compares equal only bit for bit and type for
    type: arrays as their bytes, numbers by their repr."""
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.tobytes()
    if isinstance(result, (tuple, list)):
        return type(result).__name__, [_bits(item) for item in result]
    return repr(result)


@settings(max_examples=150, deadline=None)
@given(_mean_samples())
@example(np.random.default_rng(5).integers(0, 2**39, 9000))  # past numpy's 8192-value cast buffer
def test_statistics_read_a_float64_view_as_an_int64_copy(values):
    counts = _counts(values)
    column = np.concatenate(([1.0], counts, [2.0]))  # a stratum is a slice of the corpus column
    column.flags.writeable = False
    view = column[1:-1]
    results = []
    for reads in (view, counts):
        stratum = Stratum(GroupKey("A", 2010), reads, False)
        outcome = [group_stats(stratum), _outcome(rescale_group, stratum), _outcome(shapiro_wilk, reads)]
        for policy in map(ZeroPolicy, ZERO_POLICIES):
            logs, dropped = log_sample(reads, policy)
            outcome += [logs, dropped, _outcome(fit_logs, logs, dropped), _outcome(shapiro_wilk, logs)]
        for rule in TRUNCATION_RULES:
            betas = characteristic_scores(reads, rule=rule)
            outcome += [betas, classify(reads, betas)]
        results.append(_bits(outcome))
    assert results[0] == results[1]
