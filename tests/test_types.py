"""The value types are named tuples: fields, defaults, equality, order and
checks; the exceptions come back from a pickle as they went in."""
from __future__ import annotations

import pickle

import pytest

import readscale
from readscale.corpus import GroupKey, GroupStats, PublicationRecord
from readscale.css import CssResult
from readscale.distfit import LognormalFit, ZeroPolicy
from readscale.fetch import ProviderConfig
from readscale.ingest import IngestReport
from readscale.rescale import AllUnreadGroupError, CcdfCurve, RescaledSample
from readscale.swilk import SwTestResult
from readscale.topz import TopZReport

# type, its fields in order, its defaults, the values of one instance and
# of another that differs from it in every field
TYPES = [
    (PublicationRecord, ("id", "field", "year", "reads", "cites"), {"cites": None},
     ("p1", "Surgery", 2010, 5, 3), ("p2", "Bio", 2011, 6.5, None)),
    (GroupKey, ("field", "year"), {}, ("Surgery", 2010), ("Bio", 2011)),
    (GroupStats, ("n", "r_mean", "r_max", "zero_share"), {}, (4, 2.5, 7, 0.25), (5, 2.0, 8, 0.0)),
    (IngestReport, ("accepted", "rejected", "diagnostics"), {"diagnostics": ()},
     (3, 1, ((2, "empty id"),)), (4, 0, ())),
    (ProviderConfig,
     ("base_url", "api_key_env", "batch_size", "rate_limit", "max_retries", "min_match_probability"),
     {"api_key_env": "READSCALE_API_KEY", "batch_size": 50, "rate_limit": 5.0, "max_retries": 3,
      "min_match_probability": 0.90},
     ("http://127.0.0.1:1", "KEY", 10, 2.0, 1, 0.5), ("http://127.0.0.1:2", "OTHER", 20, 4.0, 0, 1.0)),
    (ZeroPolicy, ("mode",), {"mode": "exclude"}, ("shift-one",), ("exclude",)),
    (LognormalFit, ("mu", "sigma2", "loglik", "n_used", "n_dropped"), {},
     (1.5, 0.5, -20.0, 9, 1), (1.0, 0.25, -10.0, 8, 0)),
    (SwTestResult, ("w", "p", "n", "reject"), {}, (0.98, 0.4, 30, False), (0.9, 0.01, 31, True)),
    (CssResult, ("betas", "class_counts", "class_shares", "thresholds"), {},
     ((1.0,), (3, 1), (0.75, 0.25), ((0.0, 1.0), (1.0, float("inf")))), ((2.0,), (2, 2), (0.5, 0.5), ())),
    (RescaledSample, ("key", "values", "r0"), {},
     (GroupKey("A", 2010), (0.5, 1.5), 2.0), (GroupKey("B", 2010), (1.0,), 3.0)),
    (CcdfCurve, ("points",), {}, (((1.0, 1.0), (2.0, 0.5)),), (((1.0, 1.0),),)),
    (TopZReport, ("z", "variant", "per_field_share", "sigma_z", "n_c", "n_i", "within_tolerance", "skipped"), {},
     (10.0, "original", {"A": 10.0}, 1.5, 1, {"A": 40}, 1, {}),
     (5.0, "rescaled", {"A": 5.0}, 2.5, 2, {"A": 20}, 0, {"B": AllUnreadGroupError("group B has only zero counts")})),
]


@pytest.mark.parametrize("cls, fields, defaults, values, other", TYPES, ids=[t[0].__name__ for t in TYPES])
def test_value_type_keeps_fields_defaults_and_equality(cls, fields, defaults, values, other):
    assert issubclass(cls, tuple)
    assert cls._fields == fields
    assert cls._field_defaults == defaults
    value = cls(*values)
    assert tuple(value) == values
    assert value == cls(**dict(zip(fields, values)))
    assert repr(value).startswith(f"{cls.__name__}({fields[0]}=")
    assert pickle.loads(pickle.dumps(value)) == value
    for name, changed in zip(fields, other):
        assert value._replace(**{name: changed}) != value, name
        assert type(value._replace(**{name: changed})) is cls
    with pytest.raises(AttributeError):
        setattr(value, fields[0], values[0])


def test_group_key_trims_sorts_and_reads_as_before():
    key = GroupKey(" Surgery ", 2010)
    assert key == GroupKey("Surgery", 2010) and key.field == "Surgery"
    assert str(key) == repr(key) == "GroupKey(field='Surgery', year=2010)"
    assert f"group {key} has only zero counts" == (
        "group GroupKey(field='Surgery', year=2010) has only zero counts"
    )
    assert key._replace(field=" Bio ") == GroupKey("Bio", 2010)
    assert GroupKey._make([" Bio ", 2011]).field == "Bio"
    keys = [GroupKey("B", 2009), GroupKey("A", 2011), GroupKey("A", 2009), GroupKey("a", 2000)]
    assert sorted(keys) == [GroupKey("A", 2009), GroupKey("A", 2011), GroupKey("B", 2009), GroupKey("a", 2000)]
    assert len({GroupKey("A", 2009), GroupKey(" A", 2009)}) == 1


def test_zero_policy_rejects_an_unknown_mode():
    assert ZeroPolicy() == ZeroPolicy("exclude")
    with pytest.raises(ValueError, match="unknown zero policy 'drop'"):
        ZeroPolicy("drop")
    with pytest.raises(ValueError, match="unknown zero policy 'drop'"):
        ZeroPolicy()._replace(mode="drop")


@pytest.mark.parametrize(
    "change, message",
    [
        ({"base_url": ""}, "base_url must be non-empty"),
        ({"batch_size": 0}, "batch_size must be >= 1"),
        ({"rate_limit": 0.0}, "rate_limit must be > 0"),
        ({"rate_limit": float("nan")}, "rate_limit must be > 0"),
        ({"rate_limit": float("inf")}, "rate_limit must be finite"),
        ({"rate_limit": float("-inf")}, "rate_limit must be > 0"),
        ({"max_retries": -1}, "max_retries must be >= 0"),
        ({"min_match_probability": 1.5}, r"min_match_probability must lie in \[0, 1\]"),
    ],
)
def test_provider_config_checks_every_field(change, message):
    fields = {"base_url": "http://127.0.0.1:1", **change}
    with pytest.raises(ValueError, match=message):
        ProviderConfig(**fields)
    with pytest.raises(ValueError, match=message):
        ProviderConfig("http://127.0.0.1:1")._replace(**change)


def test_provider_config_takes_a_huge_finite_rate():
    assert ProviderConfig("http://127.0.0.1:1", rate_limit=1e300).rate_limit == 1e300
    assert ProviderConfig("http://127.0.0.1:1")._replace(rate_limit=1e300).rate_limit == 1e300


# each public exception, built as readscale raises it, and the attributes it carries
EXCEPTIONS = {
    "AllUnreadGroupError": (("stratum Surgery/2010 has only zero counts",), ()),
    "DegenerateSampleError": (("fewer than 2 values remain",), ()),
    "DuplicateIdError": ((["a", "b"],), ("ids",)),
    "EmptyCorpusError": (("no records loaded",), ()),
    "FetchError": (("provider unreachable",), ()),
    "IngestError": (("input is not valid UTF-8",), ()),
    "SchemaError": (("reads",), ("column",)),
    "UnscalableGroupError": (("stratum Huge/2010 has reads that sum beyond float range",), ()),
    "UnsupportedSizeError": (("n=2 outside [3, 5000]",), ()),
    "ZeroVarianceError": (("all values identical",), ()),
}


def test_every_public_exception_is_listed():
    public = {
        name for name in readscale.__all__
        if isinstance(getattr(readscale, name), type) and issubclass(getattr(readscale, name), BaseException)
    }
    assert public == set(EXCEPTIONS)


@pytest.mark.parametrize("name", sorted(EXCEPTIONS))
def test_exception_survives_pickle(name):
    # a forked worker sends its failure to the parent as a pickle
    args, attributes = EXCEPTIONS[name]
    exc = getattr(readscale, name)(*args)
    exc.where = "in a worker"  # an attribute set after the exception was made
    again = pickle.loads(pickle.dumps(exc))
    assert type(again) is type(exc)
    assert str(again) == str(exc) and again.args == exc.args
    assert again.where == "in a worker"
    for attribute in attributes:
        assert getattr(again, attribute) == getattr(exc, attribute)
