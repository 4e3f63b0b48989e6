"""Seeded synthetic corpora of lognormal field samples.

Stands in for a real publication sample when exercising the pipeline:
every field draws n_i counts from exp(Normal(mu_i, sigma2_i)), optionally
discretized to integers and zero-inflated. Generation is fully determined
by the seed. Normal variates come from the inverse CDF applied to uniform
draws (no rejection sampling), so the number of draws per field is fixed
and every field uses an independent child stream derived from
(seed, field index) -- fields can be generated in any order, or in
parallel, with identical output.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import PublicationRecord, field_slug
from .ingest import Columns, as_int
from .normal import ndtri

__all__ = [
    "GENERATOR_ID",
    "FieldSpec",
    "SynthSpec",
    "generate_columns",
    "generate_corpus",
    "generator_metadata",
    "lognormal_mean",
]

# Recorded in corpus metadata so a corpus can be regenerated bit-for-bit.
GENERATOR_ID = "pcg64:seedseq(seed,field_index):inverse-cdf-normal"

DISCRETIZATIONS = ("round", "ceil", "none")


@dataclass(frozen=True)
class FieldSpec:
    """One synthetic field: label, size and lognormal parameters."""

    label: str
    n: int
    mu: float
    sigma2: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"field {self.label!r}: n must be >= 1")
        if self.sigma2 <= 0:
            raise ValueError(f"field {self.label!r}: sigma2 must be > 0")


@dataclass(frozen=True)
class SynthSpec:
    """Full recipe for a synthetic corpus.

    ``discretization``: ``round`` (half-up, floored at 0, the default since
    real counts are integers), ``ceil`` (up to >= 1, so no zeros) or
    ``none`` (keep continuous values, for oracle fits).
    ``zero_inflation``: probability of forcing a count to zero, applied
    after discretization.
    """

    fields: tuple[FieldSpec, ...]
    year: int
    seed: int
    discretization: str = "round"
    zero_inflation: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "fields", tuple(self.fields))
        if not self.fields:
            raise ValueError("spec needs at least one field")
        if len({field_slug(f.label) for f in self.fields}) != len(self.fields):
            raise ValueError("field labels must be unique, also as slugs (ids use the slug)")
        if self.discretization not in DISCRETIZATIONS:
            raise ValueError(
                f"unknown discretization {self.discretization!r}, "
                f"expected one of {DISCRETIZATIONS}"
            )
        if not 0.0 <= self.zero_inflation < 1.0:
            raise ValueError("zero_inflation must lie in [0, 1)")

    def to_json(self) -> str:
        return json.dumps(
            {
                "year": self.year,
                "seed": self.seed,
                "discretization": self.discretization,
                "zero_inflation": self.zero_inflation,
                "fields": [
                    {"label": f.label, "n": f.n, "mu": f.mu, "sigma2": f.sigma2}
                    for f in self.fields
                ],
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "SynthSpec":
        raw = json.loads(text)
        return cls(
            fields=tuple(
                FieldSpec(f["label"], as_int(f["n"]), float(f["mu"]), float(f["sigma2"]))
                for f in raw["fields"]
            ),
            year=as_int(raw["year"]),
            seed=as_int(raw["seed"]),
            discretization=raw.get("discretization", "round"),
            zero_inflation=float(raw.get("zero_inflation", 0.0)),
        )

    @classmethod
    def load(cls, path) -> "SynthSpec":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


def lognormal_mean(mu: float, sigma2: float) -> float:
    """Mean of exp(Normal(mu, sigma2)): exp(mu + sigma2 / 2).

    Links a field's target mean count to its fit parameters; sigma2 = 0 is
    the point-mass limit exp(mu).
    """
    if sigma2 < 0:
        raise ValueError("sigma2 must be >= 0")
    return math.exp(mu + sigma2 / 2.0)


def _draws(spec: SynthSpec, index: int) -> tuple[np.ndarray, np.ndarray]:
    """One field's uniforms and zero-inflation draws, from its own child stream."""
    n = spec.fields[index].n
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((spec.seed, index))))
    uniforms = rng.random(n)
    inflate = rng.random(n)  # always drawn, keeps the stream layout fixed
    return uniforms, inflate


def _counts(spec: SynthSpec, fs: FieldSpec, normals: np.ndarray, inflate: np.ndarray) -> np.ndarray:
    """A field's counts from its standard normal draws and zero-inflation draws."""
    values = np.exp(fs.mu + math.sqrt(fs.sigma2) * normals)
    if spec.discretization == "round":
        values = np.floor(values + 0.5)
    elif spec.discretization == "ceil":
        values = np.ceil(values)
    if spec.zero_inflation > 0.0:
        values = np.where(inflate < spec.zero_inflation, 0.0, values)
    return values


def field_values(spec: SynthSpec, index: int) -> np.ndarray:
    """Draw one field's counts; depends only on (seed, index, field spec)."""
    uniforms, inflate = _draws(spec, index)
    return _counts(spec, spec.fields[index], ndtri(uniforms), inflate)


def generate_columns(spec: SynthSpec) -> Columns:
    """Materialize the corpus as :class:`Columns`: same spec and seed,
    byte-identical records. Reads are ints unless the spec keeps continuous
    values; no record has cites."""
    draws = [_draws(spec, i) for i in range(len(spec.fields))]
    # ndtri is elementwise with a fixed cost per call, so one call serves every field
    normals = ndtri(np.concatenate([uniforms for uniforms, _ in draws]))
    ids: list[str] = []
    fields: list[str] = []
    reads: list[int | float] = []
    start = 0
    for fs, (_, inflate) in zip(spec.fields, draws):
        values = _counts(spec, fs, normals[start:start + fs.n], inflate).tolist()
        start += fs.n
        slug = field_slug(fs.label)
        ids.extend([f"{slug}-{spec.year}-{j:05d}" for j in range(fs.n)])
        fields.extend(repeat(fs.label, fs.n))
        # int() of an infinite draw raises, as it should
        reads.extend(values if spec.discretization == "none" else map(int, values))
    return Columns(ids, fields, [spec.year] * len(ids), reads, [None] * len(ids))


def generate_corpus(spec: SynthSpec) -> list[PublicationRecord]:
    """:func:`generate_columns`, with the records as :class:`PublicationRecord` objects."""
    return list(map(PublicationRecord, *generate_columns(spec)))


def generator_metadata(spec: SynthSpec) -> dict:
    """Sidecar metadata identifying the generator, for reproducibility."""
    return {
        "generator": GENERATOR_ID,
        "seed": spec.seed,
        "year": spec.year,
        "discretization": spec.discretization,
        "zero_inflation": spec.zero_inflation,
        "n_fields": len(spec.fields),
        "n_records": sum(f.n for f in spec.fields),
    }
