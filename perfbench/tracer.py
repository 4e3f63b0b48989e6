"""Outside-in tracing of readscale's public functions.

The tracer wraps each function named in ``TRACED`` and rebinds the wrapper
in every ``readscale`` module namespace that holds the original, because
modules import with ``from .x import y`` (``cli`` binds most functions,
``distfit`` binds ``shapiro_wilk``, ``topz`` binds ``group_by_field_year``
and ``rescale_group``). Methods are rebound on their class.

A span records name, start, end, parent span and run id. The parent comes
from a thread-local stack, because ``fetch`` runs batches on worker threads;
a span opened on a worker thread has no parent. Spans stay in memory and are
written out once, when the traced process ends. A function the program no
longer defines or calls simply yields no spans, so its ``calls`` reads 0.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time

# module -> public functions (or Class.method) whose calls become spans
TRACED = {
    "readscale.ingest": ("parse_records", "validate", "write_records"),
    "readscale.corpus": ("group_by_field_year",),
    "readscale.distfit": ("fit_lognormal", "test_lognormality"),
    "readscale.swilk": ("shapiro_wilk",),
    "readscale.rescale": ("rescale_group", "ccdf", "write_ccdf_tsv"),
    "readscale.css": ("characteristic_scores", "classify"),
    "readscale.topz": ("top_share_report", "top_membership"),
    "readscale.cli": ("write_table", "main"),
    "readscale.fetch": ("Cache.read_all", "Cache.append", "fetch_counts", "RateLimiter.acquire"),
    "readscale.synth": ("generate_corpus",),
}


def _parse_attrs(args, kwargs, result):
    report = result[1]
    return {"rows": report.accepted + report.rejected, "rejected": report.rejected}


def _validate_attrs(args, kwargs, result):
    return {"rejected": result.rejected}


def _group_attrs(args, kwargs, result):
    return {"strata": len(result)}


def _ccdf_write_attrs(args, kwargs, result):
    target = args[1] if len(args) > 1 else kwargs["target"]
    return {"bytes": os.path.getsize(target)}


def _fetch_attrs(args, kwargs, result):
    return {"dois": len(args[0] if args else kwargs["dois"])}


def _synth_attrs(args, kwargs, result):
    return {"records": len(result)}


# Counts read off a call's arguments or result, beside its span. A hook that
# no longer fits the program's signature records nothing rather than failing.
HOOKS = {
    "ingest.parse_records": _parse_attrs,
    "ingest.validate": _validate_attrs,
    "corpus.group_by_field_year": _group_attrs,
    "rescale.write_ccdf_tsv": _ccdf_write_attrs,
    "fetch.fetch_counts": _fetch_attrs,
    "synth.generate_corpus": _synth_attrs,
}


class Tracer:
    """Collects spans in memory; one instance per traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = {
                "id": next(self._ids),
                "name": name,
                "parent": stack[-1] if stack else None,
                "run": self.run_id,
                "error": False,
                "attrs": {},
            }
            stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            else:
                if hook is not None:
                    try:
                        span["attrs"] = hook(args, kwargs, result)
                    except (AttributeError, IndexError, KeyError, TypeError, ValueError, OSError):
                        pass
                return result
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                self.spans.append(span)

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run": self.run_id, "spans": self.spans}, fh)


def install(tracer: Tracer, modules=TRACED) -> None:
    """Wrap every listed function and rebind it wherever readscale holds it."""
    replacements: dict[int, object] = {}
    for module_name, names in modules.items():
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        short = module_name.rsplit(".", 1)[-1]
        for qualname in names:
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            wrapper = tracer.wrap(f"{short}.{qualname}", original)
            if owner_name:
                setattr(owner, attr, wrapper)
            else:
                replacements[id(original)] = wrapper
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "readscale" or name.startswith("readscale.")):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = replacements.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)


def self_times(spans: list[dict]) -> list[tuple[dict, float]]:
    """Pair each span with its self time: duration minus its children's.

    Children run nested on the parent's thread, so their intervals do not
    overlap and their durations simply add up.
    """
    child_total: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            child_total[span["parent"]] = (
                child_total.get(span["parent"], 0.0) + span["end"] - span["start"]
            )
    return [
        (span, span["end"] - span["start"] - child_total.get(span["id"], 0.0))
        for span in spans
    ]
