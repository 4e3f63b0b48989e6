"""The package namespace: every public name, resolved from its home module."""
from __future__ import annotations

import sys

import pytest

import readscale
from readscale import css


def _home(obj):
    # CLASS_NAMES, a tuple, is the one public name that carries no __module__
    return getattr(obj, "__module__", None) or css.__name__


def test_every_public_name_is_its_home_modules_object():
    for name in readscale.__all__:
        if name == "__version__":
            continue
        obj = getattr(readscale, name)
        home = _home(obj)
        assert home.startswith("readscale."), (name, home)
        assert getattr(sys.modules[home], name) is obj, name


def test_star_import_binds_all_of_all():
    namespace: dict = {}
    exec("from readscale import *", namespace)
    assert set(readscale.__all__) <= namespace.keys()
    for name in readscale.__all__:
        assert namespace[name] is getattr(readscale, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        readscale.no_such_name
    assert not hasattr(readscale, "parse_csv")
