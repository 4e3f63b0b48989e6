"""Seeded synthetic corpora: determinism, calibration, serialization."""
from __future__ import annotations

import json
import math

import numpy as np
import pytest
from scipy import special

import readscale.synth as synth_mod
from readscale.distfit import fit_lognormal
from readscale.synth import (
    DISCRETIZATIONS,
    GENERATOR_ID,
    FieldSpec,
    SynthSpec,
    field_values,
    generate_columns,
    generate_corpus,
    generator_metadata,
    lognormal_mean,
)


def _spec(**kwargs):
    defaults = dict(
        fields=(
            FieldSpec("Mathematics", 120, math.log(6.2) - 0.53, 1.06),
            FieldSpec("Cell Biology", 200, math.log(44.7) - 0.53, 1.06),
        ),
        year=2010,
        seed=7,
    )
    defaults.update(kwargs)
    return SynthSpec(**defaults)


def test_same_seed_same_corpus():
    spec = _spec()
    assert generate_corpus(spec) == generate_corpus(spec)


def test_different_seeds_differ():
    a = generate_corpus(_spec(seed=1))
    b = generate_corpus(_spec(seed=2))
    assert [r.reads for r in a] != [r.reads for r in b]


def test_fields_are_independent_streams():
    # a field's draws depend on (seed, index) and its own parameters only
    spec_a = _spec()
    spec_b = _spec(
        fields=(spec_a.fields[0], FieldSpec("Surgery", 50, math.log(21.6) - 0.53, 1.06))
    )
    assert np.array_equal(field_values(spec_a, 0), field_values(spec_b, 0))


def test_record_identity_and_shape():
    records = generate_corpus(_spec())
    assert len(records) == 320
    assert len({r.id for r in records}) == 320
    maths = [r for r in records if r.field == "Mathematics"]
    assert len(maths) == 120
    assert all(r.year == 2010 for r in records)
    assert all(isinstance(r.reads, int) and r.reads >= 0 for r in records)
    assert records[0].id.startswith("mathematics-2010-")


def test_discretization_modes():
    rounded = generate_corpus(_spec(discretization="round"))
    ceiled = generate_corpus(_spec(discretization="ceil"))
    raw = generate_corpus(_spec(discretization="none"))
    assert all(isinstance(r.reads, float) for r in raw)
    assert all(r.reads >= 1 for r in ceiled)
    for ro, ce, ra in zip(rounded, ceiled, raw):
        assert ro.reads == math.floor(ra.reads + 0.5)
        assert ce.reads == math.ceil(ra.reads)


def test_zero_inflation_positions_are_a_union():
    base = generate_corpus(_spec(seed=3))
    inflated = generate_corpus(_spec(seed=3, zero_inflation=0.25))
    flipped = 0
    for b, i in zip(base, inflated):
        if b.reads == 0:
            assert i.reads == 0  # inflation never resurrects a zero
        elif i.reads == 0:
            flipped += 1
    n = len(base)
    assert abs(flipped / n - 0.25 * sum(b.reads != 0 for b in base) / n) < 0.08


def test_zero_inflation_rate_matches_probability():
    spec = _spec(
        fields=(FieldSpec("F", 20000, 2.0, 1.0),), seed=10, zero_inflation=0.2
    )
    records = generate_corpus(spec)
    base = generate_corpus(
        _spec(fields=(FieldSpec("F", 20000, 2.0, 1.0),), seed=10, zero_inflation=0.0)
    )
    base_zero = sum(r.reads == 0 for r in base) / 20000
    expected = 0.2 + (1 - 0.2) * base_zero
    observed = sum(r.reads == 0 for r in records) / 20000
    assert observed == pytest.approx(expected, abs=0.015)


def test_empirical_mean_converges():
    mu, sigma2 = -0.53, 1.06
    spec = SynthSpec(
        fields=(FieldSpec("F", 100_000, mu, sigma2),),
        year=2010, seed=101, discretization="none",
    )
    values = field_values(spec, 0)
    target = lognormal_mean(mu, sigma2)
    assert abs(values.mean() - target) / target < 0.02


@pytest.mark.parametrize("discretization", DISCRETIZATIONS)
def test_field_values_equal_the_scipy_quantile_recipe(monkeypatch, discretization):
    spec = _spec(
        fields=(FieldSpec("F", 34_000, 2.0, 1.3), FieldSpec("G", 500, -1.0, 2.5)),
        seed=19, discretization=discretization, zero_inflation=0.05,
    )
    ours = [field_values(spec, i) for i in range(len(spec.fields))]
    reads = [r.reads for r in generate_corpus(spec)]
    monkeypatch.setattr(synth_mod, "ndtri", special.ndtri)
    reference = [field_values(spec, i) for i in range(len(spec.fields))]
    for values, expected in zip(ours, reference):
        assert values.tobytes() == expected.tobytes()
    assert reads == np.concatenate(reference).tolist()


class _ZeroFirstDraw:
    """Generator stand-in whose first uniform draw is exactly 0.0."""

    _generator = np.random.Generator

    def __init__(self, bit_generator):
        self._rng = self._generator(bit_generator)
        self._first = True

    def random(self, n):
        u = self._rng.random(n)
        if self._first:
            u[0], self._first = 0.0, False
        return u


def test_a_uniform_draw_of_zero_gives_a_read_of_zero(monkeypatch):
    spec = _spec(fields=(FieldSpec("F", 10, 2.0, 1.0),))
    expected = field_values(spec, 0)
    monkeypatch.setattr(np.random, "Generator", _ZeroFirstDraw)
    values = field_values(spec, 0)
    assert values[0] == 0.0 and expected[0] != 0.0
    assert np.array_equal(values[1:], expected[1:])
    assert [r.reads for r in generate_corpus(spec)] == values.tolist()


def test_a_count_beyond_float_range_raises():
    # exp(800) overflows to inf, which no integer count can hold
    with np.errstate(over="ignore"), pytest.raises(OverflowError):
        generate_columns(_spec(fields=(FieldSpec("F", 10, 800.0, 1.0),)))


@pytest.mark.parametrize("discretization", DISCRETIZATIONS)
def test_columns_hold_each_fields_values(discretization):
    spec = _spec(discretization=discretization, zero_inflation=0.1)
    columns = generate_columns(spec)
    expected = np.concatenate([field_values(spec, i) for i in range(len(spec.fields))])
    assert columns.reads == expected.tolist()
    assert {type(r) for r in columns.reads} == {float if discretization == "none" else int}
    assert set(columns.years) == {2010} and set(columns.cites) == {None}


def test_fit_recovers_parameters_on_undiscretized_fields():
    mu, sigma2 = 1.2, 0.9
    n = 2000
    hits = 0
    for t in range(50):
        spec = SynthSpec(
            fields=(FieldSpec("F", n, mu, sigma2),),
            year=2010, seed=t, discretization="none",
        )
        fit = fit_lognormal(field_values(spec, 0))
        if (
            abs(fit.mu - mu) <= 3 * math.sqrt(sigma2 / n)
            and abs(fit.sigma2 - sigma2) <= 3 * sigma2 * math.sqrt(2 / n)
        ):
            hits += 1
    assert hits >= 48


def test_degenerate_concentration_limit():
    spec = SynthSpec(
        fields=(FieldSpec("F", 5, math.log(4.0), 1e-6),), year=2010, seed=4
    )
    assert all(r.reads == 4 for r in generate_corpus(spec))


def test_lognormal_mean_identities():
    assert lognormal_mean(0.0, 0.0) == 1.0
    assert lognormal_mean(-0.53, 1.06) == 1.0  # exp(-0.53 + 0.53)
    assert lognormal_mean(math.log(4.0), 0.0) == pytest.approx(4.0, rel=1e-15)
    with pytest.raises(ValueError):
        lognormal_mean(0.0, -0.1)


def test_spec_json_roundtrip():
    spec = _spec(discretization="ceil", zero_inflation=0.05)
    assert SynthSpec.from_json(spec.to_json()) == spec


def test_spec_load_from_file(tmp_path):
    spec = _spec()
    path = tmp_path / "spec.json"
    path.write_text(spec.to_json(), encoding="utf-8")
    assert SynthSpec.load(path) == spec


def test_spec_defaults_in_json():
    spec = SynthSpec.from_json(
        '{"year": 2010, "seed": 1, "fields": [{"label": "F", "n": 3, "mu": 0.0, "sigma2": 1.0}]}'
    )
    assert spec.discretization == "round" and spec.zero_inflation == 0.0


def _spec_text(year=2010, seed=1, n=3) -> str:
    return json.dumps({"year": year, "seed": seed, "fields": [{"label": "F", "n": n, "mu": 0.0, "sigma2": 1.0}]})


@pytest.mark.parametrize(
    "key, value", [("year", 2015.7), ("seed", True), ("n", 30.9), ("seed", 7.5), ("n", False)],
)
def test_spec_refuses_an_integer_that_is_not_one(key, value):
    with pytest.raises(ValueError, match=f"not an integer: {value!r}"):
        SynthSpec.from_json(_spec_text(**{key: value}))


def test_spec_reads_an_integral_float_or_digit_string_as_its_int():
    spec = SynthSpec.from_json(_spec_text(year=2015.0, seed="7", n="30"))
    assert (spec.year, spec.seed, spec.fields[0].n) == (2015, 7, 30)
    assert type(spec.year) is type(spec.seed) is type(spec.fields[0].n) is int


def test_spec_validation():
    good = FieldSpec("F", 10, 0.0, 1.0)
    with pytest.raises(ValueError):
        SynthSpec(fields=(), year=2010, seed=1)
    with pytest.raises(ValueError):
        SynthSpec(fields=(good, FieldSpec("F", 5, 0.0, 1.0)), year=2010, seed=1)
    with pytest.raises(ValueError):
        SynthSpec(fields=(good,), year=2010, seed=1, discretization="floor")
    with pytest.raises(ValueError):
        SynthSpec(fields=(good,), year=2010, seed=1, zero_inflation=1.0)
    with pytest.raises(ValueError):
        FieldSpec("F", 0, 0.0, 1.0)
    with pytest.raises(ValueError):
        FieldSpec("F", 10, 0.0, 0.0)


def test_spec_rejects_labels_with_colliding_slugs():
    # ids are <slug>-<year>-<index>, so these fields would share ids
    for other in ("Bio-Chem", "bio chem", " Bio Chem!"):
        fields = (FieldSpec("Bio Chem", 10, 1.0, 1.0), FieldSpec(other, 10, 1.0, 1.0))
        with pytest.raises(ValueError, match="slug"):
            SynthSpec(fields=fields, year=2010, seed=1)


def test_generator_metadata():
    spec = _spec()
    meta = generator_metadata(spec)
    assert meta["generator"] == GENERATOR_ID
    assert meta["seed"] == 7
    assert meta["n_fields"] == 2 and meta["n_records"] == 320
