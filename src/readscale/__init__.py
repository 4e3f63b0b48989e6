"""Cross-field readership and citation count distributions.

A toolkit for testing whether count distributions from very different
fields share one underlying shape: lognormal maximum-likelihood fits,
Shapiro-Wilk log-normality testing, mean-rescaling with distribution
collapse and CCDF export, characteristic-score classes, global top-z%
shares with their tolerance bands, seeded synthetic corpora, file
ingestion and a readership-provider client. The ``readscale`` command
exposes the pipeline end to end.
"""
from .corpus import (
    Corpus,
    DuplicateIdError,
    EmptyCorpusError,
    Group,
    GroupKey,
    GroupStats,
    PublicationRecord,
    Strata,
    Stratum,
    group_by_field_year,
    group_stats,
    stratify,
)
from .css import CLASS_NAMES, CssResult, characteristic_scores, class_labels, classify
from .distfit import (
    DegenerateSampleError,
    LognormalFit,
    ZeroPolicy,
    fit_lognormal,
    test_lognormality,
)
from .ingest import (
    Columns,
    IngestError,
    IngestReport,
    SchemaError,
    parse_columns,
    parse_corpus,
    parse_records,
    validate,
    write_records,
)
from .rescale import (
    AllUnreadGroupError,
    CcdfCurve,
    RescaledSample,
    ccdf,
    ccdf_filename,
    collapse,
    rescale_group,
    write_ccdf_tsv,
)
from .swilk import SwTestResult, UnsupportedSizeError, ZeroVarianceError, shapiro_wilk
from .synth import FieldSpec, SynthSpec, generate_corpus, generator_metadata, lognormal_mean
from .topz import TopZReport, sigma_z, top_membership, top_share_report

__version__ = "0.1.0"

# readscale.fetch loads the standard library's HTTP client, which only the provider client needs
_FETCH_NAMES = ("Cache", "FetchError", "FetchResult", "ProviderConfig", "RateLimiter", "fetch_counts")


def __getattr__(name: str):
    if name in _FETCH_NAMES:
        from . import fetch

        return getattr(fetch, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AllUnreadGroupError",
    "CLASS_NAMES",
    "Cache",
    "CcdfCurve",
    "Columns",
    "Corpus",
    "CssResult",
    "DegenerateSampleError",
    "DuplicateIdError",
    "EmptyCorpusError",
    "FetchError",
    "FetchResult",
    "FieldSpec",
    "Group",
    "GroupKey",
    "GroupStats",
    "IngestError",
    "IngestReport",
    "LognormalFit",
    "ProviderConfig",
    "PublicationRecord",
    "RateLimiter",
    "RescaledSample",
    "SchemaError",
    "Strata",
    "Stratum",
    "SwTestResult",
    "SynthSpec",
    "TopZReport",
    "UnsupportedSizeError",
    "ZeroPolicy",
    "ZeroVarianceError",
    "ccdf",
    "ccdf_filename",
    "characteristic_scores",
    "class_labels",
    "classify",
    "collapse",
    "fetch_counts",
    "fit_lognormal",
    "generate_corpus",
    "generator_metadata",
    "group_by_field_year",
    "group_stats",
    "lognormal_mean",
    "parse_columns",
    "parse_corpus",
    "parse_records",
    "rescale_group",
    "shapiro_wilk",
    "sigma_z",
    "stratify",
    "test_lognormality",
    "top_membership",
    "top_share_report",
    "validate",
    "write_ccdf_tsv",
    "write_records",
    "__version__",
]
