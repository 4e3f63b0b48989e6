"""Cross-field readership and citation count distributions.

A toolkit for testing whether count distributions from very different
fields share one underlying shape: lognormal maximum-likelihood fits,
Shapiro-Wilk log-normality testing, mean-rescaling with distribution
collapse and CCDF export, characteristic-score classes, global top-z%
shares with their tolerance bands, seeded synthetic corpora, file
ingestion and a readership-provider client. The ``readscale`` command
exposes the pipeline end to end.
"""
import importlib

__version__ = "0.1.0"

# each public name's home module, imported when the name is first asked for,
# so that importing the package loads neither numpy, which most of them need,
# nor the standard library's HTTP client, which readscale.fetch loads
_HOMES = {
    "corpus": (
        "Corpus", "DuplicateIdError", "Group", "GroupKey", "GroupStats",
        "PublicationRecord", "Strata", "Stratum", "group_by_field_year", "group_stats", "stratify",
    ),
    "css": ("CLASS_NAMES", "CssResult", "characteristic_scores", "class_labels", "classify"),
    "distfit": (
        "DegenerateSampleError", "LognormalFit", "ZeroPolicy", "fit_lognormal", "test_lognormality",
    ),
    "fetch": ("Cache", "FetchError", "FetchResult", "ProviderConfig", "RateLimiter", "fetch_counts"),
    "ingest": (
        "Columns", "EmptyCorpusError", "IngestError", "IngestReport", "SchemaError", "parse_columns",
        "parse_corpus", "parse_records", "validate", "write_records",
    ),
    "rescale": (
        "AllUnreadGroupError", "CcdfCurve", "RescaledSample", "UnscalableGroupError", "ccdf",
        "ccdf_filename", "collapse", "rescale_group", "write_ccdf_tsv",
    ),
    "swilk": ("SwTestResult", "UnsupportedSizeError", "ZeroVarianceError", "shapiro_wilk"),
    "synth": ("FieldSpec", "SynthSpec", "generate_corpus", "generator_metadata", "lognormal_mean"),
    "topz": ("TopZReport", "sigma_z", "top_membership", "top_share_report"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{home}"), name)


__all__ = [*sorted(_HOME), "__version__"]
