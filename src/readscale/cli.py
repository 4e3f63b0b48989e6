"""Command-line pipeline over the library.

Subcommands mirror the analysis stages: ``ingest`` normalizes raw input
files, ``synth`` generates seeded corpora, ``fetch`` resolves DOIs to
reader counts against a provider endpoint, and ``fit``, ``collapse``,
``css`` and ``topz`` emit the analysis tables. ``report`` runs the four
analysis stages in one go.

Every table is written twice: a display-rounded TSV and a full-precision
line-JSON mirror with the same rows. Outputs are deterministic -- the same
inputs, flags and seeds produce byte-identical files -- so diffs between
runs mean the data changed, not the clock. A stratum that fails a
computation gets an error note in its row and the run continues; only
unreadable inputs, broken schemas or an unreachable provider abort.
"""
from __future__ import annotations

import argparse
import atexit
import gc
import json
import logging
import marshal
import os
import re
import sys
from bisect import bisect_left
from itertools import accumulate
from json.encoder import encode_basestring_ascii
from operator import itemgetter, methodcaller
from pathlib import Path
from typing import IO, TYPE_CHECKING, Callable, NamedTuple, Sequence

# numpy and the analysis modules load only for the commands that use them,
# so that ingest and fetch start on the standard library alone
from .choices import TIE_RULES, TRUNCATION_RULES
from .ingest import (
    Columns,
    CorpusBuffers,
    EmptyCorpusError,
    IngestError,
    IngestReport,
    _json_lines,
    findings,
    gc_paused,
    parse_into,
    read_lines,
    write_diagnostics,
    write_records,
)

if TYPE_CHECKING:
    import numpy as np

    from .corpus import Corpus, Strata

__all__ = ["main", "build_parser"]

# named outright: run as ``python -m readscale.cli``, __name__ is "__main__"
log = logging.getLogger("readscale.cli")

# CLI flag tokens -> distfit policy modes
ZERO_POLICY_FLAGS = {"exclude": "exclude", "shift1": "shift-one"}

DEFAULT_Z = (5.0, 10.0, 20.0)

# the most input bytes the analysis commands parse in a forked loader: past
# about this size, handing the parsed columns over to the main process costs
# more than the imports the loader hides (on two cores of a Xeon VM, the fork
# still gained on 18.6 MB of line-JSON, 240k records, and lost on 23 MB, 300k)
LOADER_FORK_BYTES = 16 * 2**20

# the variables by which a user sets the threads of numpy's OpenBLAS
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


# ---------------------------------------------------------------------------
# rendering


_fmt1 = "{:.1f}".format
_fmt2 = "{:.2f}".format
_fmt3 = "{:.3f}".format


def _fmt_int(v) -> str:
    return str(int(v))


def _fmt_num(v) -> str:
    """Counts that are usually integers but may be real on synthetic data."""
    return str(v) if type(v) is int else f"{v:g}"


def _fmt_bool(v) -> str:
    return "true" if v else "false"


# json.dumps's text for the floats whose repr is not JSON
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(v) -> str:
    text = float.__repr__(v)
    return _NONFINITE.get(text, text)


# the characters that would break a TSV row or its escapes, and the text each
# is written as
_TSV_BREAKS = re.compile(r"[\\\t\n\r]")
_TSV_ESCAPES = str.maketrans({"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"})


# a cell's line-JSON text by its exact type, as json.dumps writes it: the
# stages put no other type in a table
_JSON_CELL: dict[type, Callable] = {
    str: encode_basestring_ascii,
    float: _json_float,
    int: int.__repr__,
    bool: _fmt_bool,
    type(None): lambda v: "null",
}


def write_table(
    rows: Sequence[dict],
    columns: Sequence[str],
    renderers: dict[str, Callable],
    out_dir: Path,
    name: str,
    echo: str | None,
) -> None:
    """Write ``<name>.tsv`` (display-rounded) and ``<name>.jsonl`` (full
    precision), optionally echoing one of them to stdout. Missing values
    render as NA in the TSV and null in the line-JSON, whose rows are what
    ``json.dumps`` makes of ``{column: value}``; a cell that is not a str,
    int, float, bool or None raises TypeError. A backslash, tab, line feed
    or carriage return in a TSV cell rendered by ``str`` is written as
    ``\\\\``, ``\\t``, ``\\n`` or ``\\r``. ``out_dir`` must exist. The text
    is built a column at a time."""
    cells = {col: list(map(methodcaller("get", col), rows)) for col in dict.fromkeys(columns)}
    tsv_columns = []
    for col in columns:
        render = renderers.get(col, str)
        texts = ["NA" if v is None else render(v) for v in cells[col]]
        if render is str and _TSV_BREAKS.search("".join(texts)):
            texts = [text.translate(_TSV_ESCAPES) for text in texts]
        tsv_columns.append(texts)
    # without columns, every row is an empty line
    lines = list(map("\t".join, zip(*tsv_columns))) or [""] * len(rows)
    tsv_text = "\n".join(["\t".join(columns)] + lines) + "\n"
    (out_dir / f"{name}.tsv").write_text(tsv_text, encoding="utf-8")

    json_columns = []
    for col, values in cells.items():
        key = encode_basestring_ascii(col)
        try:
            json_columns.append([f"{key}: {_JSON_CELL[type(v)](v)}" for v in values])
        except KeyError as exc:
            raise TypeError(f"no line-JSON encoder for a cell of {exc.args[0]}") from None
    json_rows = map("{%s}\n".__mod__, map(", ".join, zip(*json_columns)))
    jsonl_text = "".join(json_rows) or "{}\n" * len(rows)
    (out_dir / f"{name}.jsonl").write_text(jsonl_text, encoding="utf-8")
    log.info("wrote %s.tsv and %s.jsonl under %s", name, name, out_dir)
    if echo == "tsv":
        sys.stdout.write(tsv_text)
    elif echo == "jsonl":
        sys.stdout.write(jsonl_text)


# ---------------------------------------------------------------------------
# corpus loading


def _input_format(path: Path) -> tuple[str, str]:
    suffix = path.suffix.lower()
    if suffix in (".jsonl", ".ndjson"):
        return "line-json", ","
    if suffix == ".tsv":
        return "delimited", "\t"
    return "delimited", ","


def _parse_inputs(paths: Sequence[str], sink) -> list[tuple]:
    """``(path, report, numbers)`` for each input file, whose records
    :func:`parse_into` appends to ``sink`` a part at a time: its
    :class:`IngestReport` and its records' line numbers."""
    parsed = []
    for p in paths:
        path = Path(p)
        fmt, delimiter = _input_format(path)
        report, numbers = parse_into(sink, path, fmt, delimiter)
        if report.rejected:
            log.warning("%s: skipped %d malformed rows", path, report.rejected)
        parsed.append((path, report, numbers))
    return parsed


def _no_records(years: Sequence[int] | None) -> EmptyCorpusError:
    return EmptyCorpusError("no records loaded" + (" for the requested years" if years else ""))


def _load_columns(paths: Sequence[str], years: Sequence[int] | None) -> Columns:
    """The records of the inputs as parsed, in input order, as :class:`Columns`."""
    columns = Columns([], [], [], [], [])
    _parse_inputs(paths, columns)
    if years:
        wanted = set(years)
        columns = columns.take(year in wanted for year in columns.years)
    if not columns.ids:
        raise _no_records(years)
    return columns


def _one_blas_thread() -> None:
    """Have numpy's OpenBLAS, once numpy loads, start no thread of its own,
    unless the user chose a thread count. OpenBLAS otherwise starts a thread
    per CPU, which spins on the other CPU and which a forked worker lacks,
    while readscale's only BLAS calls, swilk's dot products of at most 5000
    values, run on one thread anyway."""
    if "numpy" not in sys.modules and not any(map(os.environ.__contains__, BLAS_THREAD_VARIABLES)):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"


def _load_buffers(paths: Sequence[str]) -> CorpusBuffers:
    """The records of the inputs, in input order, in one :class:`CorpusBuffers`."""
    buffers = CorpusBuffers()
    _parse_inputs(paths, buffers)
    return buffers


def _load_corpus(paths: Sequence[str]) -> Corpus:
    """The inputs as one columnar corpus. They are parsed in a
    :class:`~readscale.worker.Worker`, which needs no numpy: if it forked,
    this process imports numpy and the analysis modules meanwhile, and then
    adopts the worker's columns; the log and any failure come out as from a
    parse in this process. Inputs of more than :data:`LOADER_FORK_BYTES` in
    all are parsed here, after the imports."""
    from .worker import Worker

    # a path that is no file counts for nothing: the parse reports it in its turn
    size = sum(os.path.getsize(path) for path in paths if os.path.isfile(path))
    loader = Worker("corpus loader", _load_buffers, paths, fork=size <= LOADER_FORK_BYTES)
    try:
        from .corpus import Corpus

        if loader.forked:  # while the loader runs, rather than in the stages
            from . import css, distfit, rescale, swilk, topz  # noqa: F401
        buffers = loader.join()
    finally:
        loader.stop()
    return Corpus.from_buffers(buffers)


@gc_paused
def _load_strata(paths: Sequence[str], years: Sequence[int] | None) -> Strata:
    """The inputs as one columnar corpus (:func:`_load_corpus`), grouped by
    (field, year); loading makes no reference cycles, so it runs with the
    garbage collector paused."""
    corpus = _load_corpus(paths)  # first: it imports numpy while the loader runs
    import numpy as np

    from .corpus import stratify

    if years:
        corpus = corpus.take(np.isin(corpus.years, years))
    if not len(corpus):
        raise _no_records(years)
    return stratify(corpus)


# ---------------------------------------------------------------------------
# subcommands


class _IngestWriter:
    """The sink of ``ingest``'s parse. Each part is checked as :func:`validate`
    checks, with the ids of the parts before it, and its rows that no finding
    flags (with ``--year``, of those years alone) are appended to ``path`` as
    line-JSON, the file opened at the first such row. A failed open or write
    is kept rather than raised, so that the parse runs on and logs as it
    would before a write; :meth:`close` raises it."""

    def __init__(self, path: Path, years: Sequence[int] | None):
        self.path = path
        self.stream: IO[str] | None = None
        self.years = set(years or ())
        self.seen: set[str] = set()  # the ids of the rows checked
        self.rows = 0
        self.findings: list[tuple[int, str]] = []  # by 1-based position among every row
        self.flagged = 0
        self.kept = 0
        self.failure: OSError | None = None

    def extend(self, part: Columns) -> None:
        found = findings(part, seen=self.seen)
        self.findings += [(self.rows + pos + 1, reason) for pos, reason in found]
        self.rows += len(part.ids)
        flagged = {pos for pos, _ in found}
        self.flagged += len(flagged)
        years = self.years
        if flagged or years:
            part = part.take(
                pos not in flagged and (not years or year in years) for pos, year in enumerate(part.years)
            )
        self.kept += len(part.ids)
        if part.ids:
            self._write(part)

    def _write(self, part: Columns | None) -> None:
        """Open the file if it is not, and append the rows of ``part``, if any."""
        if self.failure is None:
            try:
                if self.stream is None:
                    self.stream = open(self.path, "w", encoding="utf-8", newline="")
                if part is not None:
                    self.stream.write("".join(_json_lines(part)))
            except OSError as exc:
                self.failure = exc

    def close(self) -> None:
        """Close the file, made empty if no row was kept, and raise a failed
        open or write."""
        self._write(None)
        if self.stream is not None:
            self.stream.close()
        if self.failure is not None:
            raise self.failure

    def receive(self, tag: int, mark: int, name: str, data: bytes) -> None:
        """:meth:`extend` with a part that :class:`_PartSender` sent."""
        self.extend(Columns(*marshal.loads(data)))


class _PartSender(NamedTuple):
    """The sink of a forked parse: each part goes to ``send`` as the
    :mod:`marshal` bytes of its columns, for :meth:`_IngestWriter.receive`."""

    send: Callable[[int, int, str, bytes], None]

    def extend(self, part: Columns) -> None:
        self.send(0, 0, "", marshal.dumps(tuple(part)))


def _send_inputs(send: Callable, paths: Sequence[str]) -> list[tuple]:
    """:func:`_parse_inputs` in a forked worker, each part sent to the parent."""
    return _parse_inputs(paths, _PartSender(send))


@gc_paused
def cmd_ingest(args) -> int:
    """Normalize raw inputs into one validated line-JSON corpus. With
    ``--year``, the rows of other years that no finding flags are left out,
    counted as neither accepted nor rejected, and their number is logged.

    The inputs are parsed a part at a time into an :class:`_IngestWriter`,
    which checks, filters and writes each part: in a forked
    :class:`~readscale.worker.Worker` that streams the parts to this process,
    or here, where the worker would not fork. ``corpus.jsonl`` is written
    under a temporary name in ``--out`` and takes its name once every input
    is read, so a failed run leaves none. The output, log and exit code are
    those of a parse of every input before the first check."""
    from .worker import Worker, forks

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    writer = _IngestWriter(out_dir / ".corpus.jsonl.partial", args.year)
    try:
        if forks():
            parser = Worker("ingest parser", _send_inputs, args.input, sink=writer.receive)
            try:
                files = parser.join()
            finally:
                parser.stop()
        else:
            files = _parse_inputs(args.input, writer)

        # the writer numbers the rows by position in all inputs; each finding
        # takes its row's file and line, as the parse rejections do
        diagnostics = [
            (line, f"{path.name}: {reason}")
            for path, report, _ in files for line, reason in report.diagnostics
        ]
        ends = list(accumulate(report.accepted for _, report, _ in files))
        for pos, reason in writer.findings:
            i = bisect_left(ends, pos)
            path, _, lines = files[i]
            diagnostics.append((lines[pos - 1 - (ends[i - 1] if i else 0)], f"{path.name}: {reason}"))
        left_out = writer.rows - writer.flagged - writer.kept
        if left_out:
            log.info("%d rows of other years left out", left_out)
        writer.close()
        os.replace(writer.path, out_dir / "corpus.jsonl")
    except BaseException:
        if writer.stream is not None:
            writer.stream.close()
            writer.path.unlink(missing_ok=True)
        raise

    # a row counts once, however many findings it has
    rejected = sum(report.rejected for _, report, _ in files) + writer.flagged
    combined = IngestReport(accepted=writer.kept, rejected=rejected, diagnostics=tuple(diagnostics))
    write_diagnostics(combined, out_dir / "ingest_diagnostics.jsonl")
    if combined.rejected:
        log.warning("%d rows rejected; see ingest_diagnostics.jsonl", combined.rejected)
    print(f"accepted {combined.accepted} rejected {combined.rejected}")
    return 0


def cmd_synth(args) -> int:
    """Generate a corpus from a JSON spec; same spec + seed = same bytes."""
    import dataclasses

    from .synth import SynthSpec, generate_columns, generator_metadata

    spec = SynthSpec.load(args.spec)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    columns = generate_columns(spec)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_records(columns, out_dir / "corpus.jsonl", format="line-json")
    meta = generator_metadata(spec)
    meta["spec"] = json.loads(spec.to_json())
    (out_dir / "corpus.meta.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"generated {len(columns.ids)} records in {len(spec.fields)} fields")
    return 0


def cmd_fetch(args) -> int:
    """Resolve DOIs to reader counts; optionally merge them into a corpus.

    The cache's tail is decoded in a :class:`~readscale.worker.Worker`; if it
    forked, this process meanwhile loads the client, parses the corpus and
    the DOI list and decodes the cache's head (:meth:`~readscale.fetch.Cache.head`).
    Each DOI is answered from the cache's columns, at the line of its latest
    entry (:func:`~readscale.fetch.answer_from_cache`), and the DOIs the cache
    lacks go to :func:`~readscale.fetch.fetch_missing`. The merged corpus is
    rendered once the provider has answered. The output, log and exit code
    are those of the steps in sequence, and of
    :func:`~readscale.fetch.fetch_counts` over every DOI."""
    # the provider client loads urllib.request and a thread pool only for a
    # DOI missing from the cache; fetch is the only command that imports it
    from .fetch import Cache, FetchError, ProviderConfig, answer_from_cache, fetch_missing, load_client
    from .worker import Worker, forks, held_records, replay

    if not args.input and not args.dois:
        log.error("fetch needs --input and/or --dois")
        return 2
    config = ProviderConfig(base_url=args.provider_url)
    cache = Cache(args.cache)
    ahead = sum(os.path.getsize(p) for p in [*(args.input or ()), args.dois] if p and os.path.isfile(p))
    cut = cache.head(ahead) if forks() else 0
    reader = Worker("cache reader", cache.read_columns, cut)
    try:
        if reader.forked:
            load_client()  # while the reader runs, rather than after it
        columns: Columns | None = None
        dois: list[str] = []
        if args.input:
            columns = _load_columns(args.input, args.year)
            dois.extend(columns.ids)
        if args.dois:
            for line in read_lines(args.dois):
                line = line.strip()
                if line and not line.startswith("#"):
                    dois.append(line)
        # the cache's records come after the corpus's, the head's before the
        # tail's, as in sequence; a tail that fails drops the head's, as a
        # whole read that fails logs none
        with held_records() as records:
            cached = cache.read_columns(0, cut)
            for column, part in zip(cached, reader.join()):
                column.extend(part)
        replay(records)
    finally:
        reader.stop()

    # the DOIs the cache lacks go to the provider
    at, counts = answer_from_cache(dois, cached, config.min_match_probability)
    missed = [i for i, k in enumerate(at) if k is None]
    try:
        answers = fetch_missing(sorted(set(map(dois.__getitem__, missed))), config, cache)
    except FetchError as exc:
        log.error("%s", exc)
        return 1
    failed = 0
    for i in missed:
        result = answers[dois[i]]
        counts[i] = result.reads
        failed += result.error is not None
    matched = len(counts) - counts.count(None)
    below = len(counts) - matched - failed

    merged = 0
    if columns is not None:
        fetched = counts[:len(columns.ids)]  # the corpus ids lead ``dois``
        merged = len(fetched) - fetched.count(None)
        if merged == 0:
            log.warning("no fetched count cleared the match threshold; corpus unchanged")
        reads = [old if new is None else new for old, new in zip(columns.reads, fetched)]
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        text = "".join(_json_lines(columns._replace(reads=reads)))
        (out_dir / "corpus.jsonl").write_text(text, encoding="utf-8", newline="")

    summary = f"resolved {len(dois)} dois: {matched} matched, {below} below threshold, {failed} failed"
    if columns is not None:
        summary += f", {merged} merged"
    print(summary)
    return 0


# The analysis stages. Each runs as one task per year of the corpus: a
# function of the year's strata and of a _TaskOut for --out, which returns the
# year's rows and writes its files there. A second function merges the rows of
# every year into the stage's tables and writes them. STAGES declares them.


class _TaskOut(NamedTuple):
    """The ``--out`` directory, or one file in it, as a task writes to it: in
    place of a :class:`Path` for ``write_table`` and ``write_ccdf_tsv``, it
    hands each file to ``send`` with the task's number and the count of the
    task's log records made before it. The runner has created the directory."""

    path: Path
    task: int
    records: list
    send: Callable[[int, int, str, bytes], None]
    name: str = ""

    def __str__(self) -> str:
        return str(self.path)

    def __truediv__(self, name: str) -> "_TaskOut":
        return self._replace(name=name)

    def write(self, text: str) -> None:
        self.send(self.task, len(self.records), self.name, text.encode())

    def write_text(self, text: str, encoding: str = "utf-8") -> None:
        self.write(text)


def _in_stratum_order(parts: dict[int, list]) -> list:
    """Each year's rows, one per stratum, merged into :class:`GroupKey`
    order: by field, then year."""
    return sorted((row for part in parts.values() for row in part), key=itemgetter("field", "year"))


_FIT_COLUMNS = (
    "field", "year", "obs", "r0", "r_max", "sw_p", "mu", "sigma2", "loglik", "reject", "note",
)
_FIT_RENDER = {
    "year": _fmt_int, "obs": _fmt_int, "r0": _fmt1, "r_max": _fmt_num,
    "sw_p": _fmt3, "mu": _fmt3, "sigma2": _fmt3, "loglik": _fmt1, "reject": _fmt_bool,
}


def _fit_year(args, strata: Strata, out: _TaskOut) -> list[dict]:
    """Per-stratum lognormal fits and normality tests."""
    from .corpus import SumOverflowError, group_stats
    from .distfit import DegenerateSampleError, ZeroPolicy, fit_logs, log_sample
    from .swilk import UnsupportedSizeError, ZeroVarianceError, shapiro_wilk

    policy = ZeroPolicy(ZERO_POLICY_FLAGS[args.zero_policy])
    rows: list[dict] = []
    for stratum in strata:
        key = stratum.key
        stats = group_stats(stratum)
        row: dict = {
            "field": key.field, "year": key.year, "obs": stats.n,
            "r0": stats.r_mean, "r_max": stats.r_max,
        }
        notes = [] if stats.r_mean is not None else [f"r0 failed: {SumOverflowError()}"]
        # the fit and the normality test take the same logs
        logs, n_dropped = log_sample(stratum.reads, policy)
        try:
            fit = fit_logs(logs, n_dropped)
            row.update(mu=fit.mu, sigma2=fit.sigma2, loglik=fit.loglik)
        except (DegenerateSampleError, ZeroVarianceError) as exc:
            notes.append(f"fit failed: {exc}")
        try:
            row["sw_p"] = shapiro_wilk(logs).p
        except (UnsupportedSizeError, ZeroVarianceError) as exc:
            notes.append(f"normality test failed: {exc}")
        row["note"] = "; ".join(notes)
        rows.append(row)
    return rows


def _fit_tables(args, parts: dict[int, list]) -> None:
    """The fit table, its normality tests Bonferroni-corrected over all strata."""
    rows = _in_stratum_order(parts)
    tested = [row for row in rows if "sw_p" in row]
    threshold = args.alpha / (args.m if args.m is not None else max(len(tested), 1))
    for row in tested:
        row["reject"] = bool(row["sw_p"] < threshold)
    write_table(rows, _FIT_COLUMNS, _FIT_RENDER, Path(args.out), "fit", args.format)


_COLLAPSE_COLUMNS = ("year", "n_strata", "obs", "mu", "sigma2", "loglik", "note")
_COLLAPSE_RENDER = {
    "year": _fmt_int, "n_strata": _fmt_int, "obs": _fmt_int,
    "mu": _fmt3, "sigma2": _fmt3, "loglik": _fmt1,
}


def _collapse_year(args, strata: Strata, out: _TaskOut) -> dict:
    """Pool the year's mean-rescaled strata; the pooled fit, and CCDF files."""
    from .distfit import DegenerateSampleError, ZeroPolicy, fit_lognormal
    from .rescale import UnscalableGroupError, ccdf, ccdf_filename, collapse, rescale_group, skip_notes, write_ccdf_tsv
    from .swilk import ZeroVarianceError

    policy = ZeroPolicy(ZERO_POLICY_FLAGS[args.zero_policy])
    (year,) = strata.years()
    samples = []
    skipped = {}
    clashes = []
    # CCDF file name -> the curve it holds; distinct labels can share a name
    written = {ccdf_filename(year): "the pooled curve"}
    for stratum in strata:
        key = stratum.key
        try:
            sample = rescale_group(stratum)
        except UnscalableGroupError as exc:
            log.warning("stratum %s/%d %s; skipped", key.field, year, exc.reason)
            skipped[key.field] = exc
            continue
        samples.append(sample)
        name = ccdf_filename(year, key.field)
        if name in written:
            clashes.append(f"ccdf of {key.field!r} not written: {name} holds {written[name]}")
            log.warning("stratum %s/%d: %s", key.field, year, clashes[-1])
            continue
        written[name] = repr(key.field)
        write_ccdf_tsv(ccdf(sample.values), out / name)
    row: dict = {"year": year, "n_strata": len(samples)}
    notes = skip_notes(skipped) + clashes
    if samples:
        pooled = collapse(samples)
        write_ccdf_tsv(ccdf(pooled), out / ccdf_filename(year))
        row["obs"] = int(pooled.size)
        try:
            fit = fit_lognormal(pooled, policy)
            row.update(mu=fit.mu, sigma2=fit.sigma2, loglik=fit.loglik)
        except (DegenerateSampleError, ZeroVarianceError) as exc:
            notes.append(f"pooled fit failed: {exc}")
    else:
        notes.append("no usable strata")
    row["note"] = "; ".join(notes)
    return row


def _collapse_tables(args, parts: dict[int, dict]) -> None:
    rows = list(parts.values())
    write_table(rows, _COLLAPSE_COLUMNS, _COLLAPSE_RENDER, Path(args.out), "collapse", args.format)


def _css_class_labels(k: int) -> list[str]:
    from .css import CLASS_NAMES

    if k + 1 <= len(CLASS_NAMES):
        return list(CLASS_NAMES[: k + 1])
    return [str(i + 1) for i in range(k + 1)]


def _css_row(head: dict, values: np.ndarray, k: int, rule: str, labels: Sequence[str]) -> dict:
    from .css import characteristic_scores, classify

    row = dict(head)
    row["obs"] = int(values.size)
    notes = []
    try:
        betas = characteristic_scores(values, k=k, rule=rule)
        result = classify(values, betas)
    except ValueError as exc:
        row["note"] = f"scores failed: {exc}"
        return row
    for j, beta in enumerate(betas):
        row[f"beta{j + 1}"] = beta
    if len(betas) < k:
        notes.append(f"scores stopped after {len(betas)}")
    for i, (count, share) in enumerate(zip(result.class_counts, result.class_shares)):
        row[f"count_{labels[i]}"] = count
        row[f"share_{labels[i]}"] = 100.0 * share
    row["note"] = "; ".join(notes)
    return row


def _css_year(args, strata: Strata, out: _TaskOut) -> tuple[dict, list[dict]]:
    """Characteristic-score classes of the pooled year, and of each stratum."""
    k, rule = args.k, args.css_strict
    labels = _css_class_labels(k)
    (year,) = strata.years()
    overall = _css_row({"year": year}, strata.corpus.reads, k, rule, labels)
    rows = [_css_row({"field": s.key.field, "year": s.key.year}, s.reads, k, rule, labels) for s in strata]
    return overall, rows


def _css_tables(args, parts: dict[int, tuple]) -> None:
    k = args.k
    labels = _css_class_labels(k)
    columns = (
        ["year", "obs"]
        + [f"beta{j + 1}" for j in range(k)]
        + [f"count_{name}" for name in labels]
        + [f"share_{name}" for name in labels]
        + ["note"]
    )
    render: dict[str, Callable] = {"year": _fmt_int, "obs": _fmt_int}
    for j in range(k):
        render[f"beta{j + 1}"] = _fmt1
    for name in labels:
        render[f"count_{name}"] = _fmt_int
        render[f"share_{name}"] = _fmt1

    overall_rows = [overall for overall, _ in parts.values()]
    strata_rows = _in_stratum_order({year: rows for year, (_, rows) in parts.items()})
    out_dir = Path(args.out)
    write_table(overall_rows, columns, render, out_dir, "css_overall", args.format)
    write_table(strata_rows, ["field"] + columns, render, out_dir, "css_strata", args.format)


_TOPZ_COLUMNS = ("year", "z", "variant", "n_fields", "sigma_z", "within_tolerance", "note")
_TOPZ_RENDER = {
    "year": _fmt_int, "z": _fmt_num, "n_fields": _fmt_int,
    "sigma_z": _fmt3, "within_tolerance": _fmt_int,
}
_SHARE_COLUMNS = ("field", "n", "share", "lower", "upper", "inside")
_SHARE_RENDER = {
    "n": _fmt_int, "share": _fmt2, "lower": _fmt2, "upper": _fmt2, "inside": _fmt_bool,
}


def _topz_year(args, strata: Strata, out: _TaskOut) -> list[dict]:
    """Per-field share of the year's top z%, before and after rescaling."""
    from .rescale import skip_notes
    from .topz import VARIANTS, top_share_report

    zs = tuple(args.z) if args.z else DEFAULT_Z
    (year,) = strata.years()
    rows: list[dict] = []
    for z in zs:
        for variant in VARIANTS:
            head = {"year": year, "z": z, "variant": variant}
            try:
                report = top_share_report(strata, z, variant, args.tie_rule)
            except ValueError as exc:
                log.warning("topz %d z=%g %s: %s", year, z, variant, exc)
                rows.append({**head, "note": str(exc)})
                continue
            note = "; ".join(skip_notes(report.skipped))
            if note:
                log.warning("topz %d z=%g %s: %s", year, z, variant, note)
            rows.append({**head, "n_fields": report.n_c, "sigma_z": report.sigma_z,
                         "within_tolerance": report.within_tolerance, "note": note})
            share_rows = [
                {
                    "field": field,
                    "n": report.n_i[field],
                    "share": share,
                    "lower": z - report.sigma_z,
                    "upper": z + report.sigma_z,
                    "inside": abs(share - z) <= report.sigma_z,
                }
                for field, share in sorted(report.per_field_share.items())
            ]
            write_table(
                share_rows, _SHARE_COLUMNS, _SHARE_RENDER, out,
                f"topz_shares_{year}_z{z:g}_{variant}", None,
            )
    return rows


def _topz_tables(args, parts: dict[int, list]) -> None:
    rows = [row for part in parts.values() for row in part]
    write_table(rows, _TOPZ_COLUMNS, _TOPZ_RENDER, Path(args.out), "topz", args.format)


# the order in which tasks are claimed: those that make files first, so that
# the parent, which writes every file, has files to write early on
CLAIM_ORDER = ("collapse", "topz", "fit", "css")


def _run_task(args, strata: Strata, stage: str, year: int, task: int, send: Callable) -> tuple:
    """One stage's task for one year: its rows, its log records, held back,
    and the exception it raised, if any, with its traceback; its files go to
    ``send``."""
    import traceback

    from .worker import held_records

    with held_records() as records:
        try:
            out = _TaskOut(Path(args.out), task, records, send)
            return STAGES[stage].run(args, strata.of_year(year), out), records, None
        except Exception as exc:  # raised once the tasks before it in sequence are replayed
            return None, records, (exc, traceback.format_exc())


def _work(send: Callable, args, strata: Strata, tasks: list, queue, before: Callable | None = None) -> dict:
    """Claim tasks from ``queue`` and run them until none is left, calling
    ``before`` ahead of each claim; each task's outcome by its number."""
    outcomes = {}
    while True:
        if before is not None:
            before()
        task = queue.claim()
        if task is None:
            return outcomes
        outcomes[task] = _run_task(args, strata, *tasks[task], task, send)


def run_stages(args, strata: Strata) -> int:
    """The stages ``args.stages`` over the strata, as (stage, year) tasks
    shared with a :class:`~readscale.worker.Worker` where it forks.

    This process creates every file. Between its own tasks it writes the
    files that the worker streams to it, and it claims a task only when none
    is waiting: where creating a file is slow it becomes a writer alone, and
    where it is cheap it computes as much as the worker. It then merges each
    stage's rows into its tables. Log records, failures and tables come out
    as in sequence: fit's, collapse's, css's, then topz's, each by year; a
    task's failed write fails the run after the records made before it.
    ``--out`` is created first, so the worker's stream carries files only."""
    from .worker import TaskQueue, Worker, replay, reraise

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    years = strata.years()
    tasks = [(stage, year) for stage in CLAIM_ORDER if stage in args.stages for year in years]
    failed: dict[int, tuple] = {}  # task -> the record count before its first failed write, and the failure

    def put(task: int, mark: int, name: str, data: bytes) -> None:
        if task in failed:  # in sequence the task would have stopped there
            return
        try:
            with open(out_dir / name, "wb") as fh:
                fh.write(data)
        except OSError as exc:
            failed[task] = mark, (exc, "")

    queue = TaskQueue(len(tasks))
    try:
        worker = Worker(
            "stage worker", _work, args, strata, tasks, queue, fork=queue.shared, sink=put,
        )
        try:
            outcomes = _work(put, args, strata, tasks, queue, worker.drain)
            outcomes.update(worker.join())
        finally:
            worker.stop()
    finally:
        queue.close()

    number = {task: i for i, task in enumerate(tasks)}
    for stage in args.stages:
        parts = {}
        for year in years:
            task = number[stage, year]
            rows, records, failure = outcomes[task]
            if task in failed:
                mark, failure = failed[task]
                records = records[:mark]
            replay(records)
            if failure is not None:
                reraise(*failure)
            parts[year] = rows
        STAGES[stage].tables(args, parts)
    if args.command == "report":
        print(f"report written to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_io_options(p: argparse.ArgumentParser, input_required: bool = True) -> None:
    p.add_argument(
        "--input", action="append", required=input_required, metavar="PATH",
        help="corpus file (.csv, .tsv or .jsonl by extension); repeatable",
    )
    p.add_argument("--out", default="out", metavar="DIR", help="output directory (default: out)")
    p.add_argument(
        "--year", action="append", type=int, metavar="YYYY",
        help="restrict to this publication year; repeatable",
    )


def _add_table_options(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format", choices=("tsv", "jsonl"), default="tsv",
        help="stdout rendering; both file formats are always written",
    )


def _add_fit_options(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--zero-policy", choices=tuple(ZERO_POLICY_FLAGS), default="exclude",
        help="zero counts: drop them (exclude) or shift the sample by one (shift1)",
    )
    p.add_argument("--alpha", type=float, default=0.05, help="significance level (default 0.05)")
    p.add_argument(
        "--m", type=int, default=None, metavar="M",
        help="hypothesis-family size for the Bonferroni correction "
        "(default: number of strata actually tested)",
    )


def _add_css_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, default=3, help="number of characteristic scores (default 3)")
    p.add_argument(
        "--css-strict", choices=TRUNCATION_RULES, default="ge",
        help="truncation rule: subsample at-or-above (ge) or strictly above (gt) the last score",
    )


def _add_topz_options(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--z", action="append", type=float, metavar="Z",
        help="top percentage to analyse, in (0, 100); repeatable (default: 5 10 20)",
    )
    p.add_argument(
        "--tie-rule", choices=TIE_RULES, default="rank",
        help="cut ties by rank (exactly floor(zN/100) selected) or admit all at the threshold",
    )


class Stage(NamedTuple):
    """An analysis stage: its task for one year's strata, its tables from
    every year's rows, and its subcommand's help and options of its own."""

    run: Callable
    tables: Callable
    help: str
    options: Callable


# the stages in sequence: the order of their log records, failures and tables
STAGES: dict[str, Stage] = {
    "fit": Stage(_fit_year, _fit_tables, "per-stratum lognormal fits and normality tests", _add_fit_options),
    "collapse": Stage(
        _collapse_year, _collapse_tables,
        "pool rescaled strata per year; pooled fits and CCDFs", _add_fit_options,
    ),
    "css": Stage(_css_year, _css_tables, "characteristic scores and class shares", _add_css_options),
    "topz": Stage(_topz_year, _topz_tables, "per-field share of the global top z%%", _add_topz_options),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="readscale",
        description="Readership-count distributions across fields: fits, rescaling, "
        "collapse diagnostics, characteristic scores and top-z% shares.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("ingest", help="validate and normalize raw corpus files")
    _add_io_options(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", help="generate a seeded synthetic corpus from a JSON spec")
    p.add_argument("--spec", required=True, metavar="PATH", help="synthesis spec (JSON)")
    p.add_argument("--out", default="out", metavar="DIR", help="output directory (default: out)")
    p.add_argument("--seed", type=int, default=None, help="override the spec's seed")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fetch", help="resolve DOIs to reader counts via a provider endpoint")
    _add_io_options(p, input_required=False)
    p.add_argument("--provider-url", required=True, metavar="URL", help="provider base URL")
    p.add_argument("--cache", required=True, metavar="PATH", help="line-JSON result cache")
    p.add_argument("--dois", metavar="PATH", help="extra DOIs to resolve, one per line")
    p.set_defaults(func=cmd_fetch)

    for name, stage in STAGES.items():
        p = sub.add_parser(name, help=stage.help)
        _add_io_options(p)
        _add_table_options(p)
        stage.options(p)
        p.set_defaults(func=run_stages, stages=(name,))

    p = sub.add_parser("report", help="run fit, collapse, css and topz together")
    _add_io_options(p)
    for add_options in dict.fromkeys(stage.options for stage in STAGES.values()):
        add_options(p)
    p.set_defaults(func=run_stages, stages=tuple(STAGES), format=None)

    return parser


def _validate_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    if getattr(args, "z", None):
        labels: dict[str, float] = {}  # the z label of the topz_shares file names -> its --z
        for z in args.z:
            if not 0.0 < z < 100.0:
                parser.error(f"--z must lie in (0, 100), got {z:g}")
            label = f"{z:g}"
            if label in labels:
                parser.error(f"--z {labels[label]!r} and --z {z!r} would both write the z{label} tables")
            labels[label] = z
    alpha = getattr(args, "alpha", None)
    if alpha is not None and not 0.0 < alpha < 1.0:
        parser.error(f"--alpha must lie in (0, 1), got {alpha:g}")
    m = getattr(args, "m", None)
    if m is not None and m < 1:
        parser.error(f"--m must be >= 1, got {m}")
    k = getattr(args, "k", None)
    if k is not None and k < 1:
        parser.error(f"--k must be >= 1, got {k}")


def main(argv: Sequence[str] | None = None) -> int:
    # the collector's last walks over every object at exit free nothing that
    # the exit needs: every --out file is closed when a command returns
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    _validate_args(parser, args)
    try:
        if args.func is run_stages:
            _one_blas_thread()
            return run_stages(args, _load_strata(args.input, args.year))
        return args.func(args)
    except (IngestError, OSError, ValueError) as exc:
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
