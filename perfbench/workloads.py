"""Seeded inputs for the benchmark workloads, and the checks on their outputs.

Every input derives from the workload seed: the synth specs, the planted bad
rows, the fetch cache and the set of cache misses. The same seed gives the
same input bytes. Synth ids are ``<slug>-<year>-<index>``, so every synth run
here has its own year; the only duplicate ids are the planted ones.

Why each workload exists:

* ``report_wide`` -- the paper's analysis shape (one year, a few dozen
  fields) at a size the per-run time allows. It loads the parse (four times,
  once per stage), the grouping and the global top-z% sort. Field sizes
  straddle the 5000-record Shapiro-Wilk limit. It has few strata, so fits,
  normality tests and CCDF writing do little here.
* ``report_strata`` -- many small, uneven strata over eight years, so the
  per-stratum path dominates: fits and normality tests, one CCDF file per
  stratum, tables with a row per stratum and per-year scans. Strata of one
  to three records and a planted all-zero stratum make the degenerate
  branches run as they do on real dumps.
* ``ingest_fetch`` -- the layers the report workloads never touch: the
  delimited parser, ``validate``, ``write_records`` and the fetch cache,
  HTTP and rate-limiter path, against a local stub provider and a warm
  append-only cache.

The output checks recompute sampled ``fit``, ``collapse`` and ``css`` values
with numpy (and the normality p-value with scipy) straight from the input
files, without calling readscale. They accept either outcome where a known
open defect or a planned change may legitimately alter the output: a
normality p-value for strata above 5000 records, and top-z% rows of a year
holding an all-zero stratum. They never check the top-z% cut size.
"""
from __future__ import annotations

import csv
import json
import math
import shutil
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import stats

from readscale import ingest, synth

Z_VALUES = (5.0, 10.0, 20.0)  # the report's default --z
VARIANTS = ("original", "rescaled")
ALPHA = 0.05  # the report's default --alpha
CSS_K = 3  # the report's default --k
# cache misses: two batches of ProviderConfig's default batch_size (50), so
# fetch's worker threads and the stub's connections stay within two cores
MISSES = 90


def _rng(seed: int, workload: str) -> np.random.Generator:
    tag = sum(ord(c) << (8 * (i % 4)) for i, c in enumerate(workload))
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


def _slug(label: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in label.strip()).strip("_").lower()


def _synth_file(spec: synth.SynthSpec, path: Path) -> None:
    """What ``readscale synth`` does: generate, then write line-JSON."""
    records = synth.generate_corpus(spec)
    ingest.write_records(records, path, format="line-json")


@dataclass
class Case:
    """One workload's prepared inputs, its commands and its output checks."""

    workload: str
    records: int
    inputs: list[Path]
    stub_responses: dict[str, tuple[int, float]] | None = None

    @property
    def input_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.inputs)

    def before_iteration(self) -> None:
        """Restore state a command changes (the fetch cache)."""

    def commands(self, out: Path, provider_url: str | None) -> list[tuple[str, list[str]]]:
        raise NotImplementedError

    def check(self, out: Path, stdout: dict[str, str]) -> list[str]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# report workloads


def _read_strata(paths: list[Path]) -> dict[tuple[str, int], np.ndarray]:
    strata: dict[tuple[str, int], list[float]] = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                row = json.loads(line)
                strata.setdefault((row["field"], int(row["year"])), []).append(float(row["reads"]))
    return {key: np.asarray(v, dtype=float) for key, v in strata.items()}


def _read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _close(actual, expected: float, rtol: float = 1e-9, atol: float = 0.0) -> bool:
    return actual is not None and math.isclose(actual, expected, rel_tol=rtol, abs_tol=atol)


def _lognormal_fit(x: np.ndarray):
    """(mu, sigma2, loglik) of the ML lognormal fit over the positive values,
    or None when it is undefined or too close to degenerate to compare."""
    kept = x[x > 0]
    if kept.size < 2 or np.all(kept == kept[0]):
        return None
    logs = np.log(kept)
    mu = logs.mean()
    sigma2 = np.mean((logs - mu) ** 2)
    n = kept.size
    loglik = -0.5 * n * math.log(2 * math.pi * sigma2) - logs.sum() - 0.5 * n
    return float(mu), float(sigma2), float(loglik)


def _css(values: np.ndarray, k: int = CSS_K) -> tuple[list[float], np.ndarray]:
    """Characteristic scores by iterated mean truncation (>=), and class counts."""
    betas: list[float] = []
    current = values
    for _ in range(k):
        if current.size == 0:
            break
        beta = float(current.mean())
        if betas and beta <= betas[-1]:
            break
        betas.append(beta)
        current = current[current >= beta]
    counts = np.bincount(np.searchsorted(betas, values, side="right"), minlength=len(betas) + 1)
    return betas, counts


def _check_css_row(row: dict, values: np.ndarray, label: str) -> list[str]:
    errors = []
    betas, counts = _css(values)
    got = [row.get(f"beta{j + 1}") for j in range(CSS_K)]
    if row.get("obs") != values.size:
        errors.append(f"css {label}: obs {row.get('obs')} != {values.size}")
    for j in range(CSS_K):
        want = betas[j] if j < len(betas) else None
        if (want is None) != (got[j] is None) or (want is not None and not _close(got[j], want)):
            errors.append(f"css {label}: beta{j + 1} {got[j]} != {want}")
    near_cut = any(np.any(np.abs(values - b) <= 1e-9 * max(abs(b), 1.0)) for b in betas)
    names = ("I", "II", "III", "IV")
    for i, count in enumerate(counts):
        got_count = row.get(f"count_{names[i]}")
        if not near_cut and got_count != int(count):
            errors.append(f"css {label}: count_{names[i]} {got_count} != {int(count)}")
        if not near_cut and not _close(row.get(f"share_{names[i]}"), 100.0 * count / values.size):
            errors.append(f"css {label}: share_{names[i]} {row.get(f'share_{names[i]}')}")
    return errors


def _check_ccdf(path: Path, values: np.ndarray) -> list[str]:
    if not path.is_file():
        return [f"missing {path.name}"]
    rows = path.read_text(encoding="utf-8").splitlines()[1:]
    got = np.array([[float(c) for c in line.split("\t")] for line in rows])
    arr = np.sort(values)
    xs = np.unique(arr)
    ps = (arr.size - np.searchsorted(arr, xs, side="left")) / arr.size
    want = np.column_stack([xs, ps])
    if got.shape != want.shape or not np.allclose(got, want, rtol=1e-12, atol=0.0):
        return [f"{path.name}: CCDF differs from recomputation"]
    return []


@dataclass
class ReportCase(Case):
    sample_seed: int = 0
    planted_zero: tuple[str, int] | None = None

    def commands(self, out, provider_url):
        argv = ["report"]
        for path in self.inputs:
            argv += ["--input", str(path)]
        return [("report", argv + ["--out", str(out / "report")])]

    def _sampled(self, strata: dict[tuple[str, int], np.ndarray]) -> list[tuple[str, int]]:
        keys = sorted(strata)
        rng = np.random.default_rng(self.sample_seed)
        chosen = {keys[i] for i in rng.choice(len(keys), size=min(10, len(keys)), replace=False)}
        by_size = sorted(keys, key=lambda k: (strata[k].size, k))
        chosen.update([by_size[0], by_size[-1]])
        if self.planted_zero is not None:
            chosen.add(self.planted_zero)
        return sorted(chosen)

    def check(self, out, stdout):
        out = out / "report"
        strata = _read_strata(self.inputs)
        errors: list[str] = []
        names = ["fit", "collapse", "css_overall", "css_strata", "topz"]
        for name in names:
            for ext in ("tsv", "jsonl"):
                if not (out / f"{name}.{ext}").is_file():
                    errors.append(f"missing {name}.{ext}")
        if errors:
            return errors
        years = sorted({y for _, y in strata})
        zero = {k for k, x in strata.items() if not np.any(x)}

        # every stratum and year gets its CCDF file
        for (f, y) in strata:
            if (f, y) not in zero and not (out / f"ccdf_{_slug(f)}_{y}.tsv").is_file():
                errors.append(f"missing ccdf_{_slug(f)}_{y}.tsv")
        for y in years:
            if not (out / f"ccdf_merged_{y}.tsv").is_file():
                errors.append(f"missing ccdf_merged_{y}.tsv")

        fit = {(r["field"], r["year"]): r for r in _read_jsonl(out / "fit.jsonl")}
        if set(fit) != set(strata):
            errors.append(f"fit rows cover {len(fit)} strata, input has {len(strata)}")
            return errors
        m = sum(1 for r in fit.values() if r["sw_p"] is not None)
        css_strata = {(r["field"], r["year"]): r for r in _read_jsonl(out / "css_strata.jsonl")}
        for key in self._sampled(strata):
            x = strata[key]
            label = f"{key[0]}/{key[1]}"
            row = fit[key]
            if row["obs"] != x.size or not _close(row["r0"], x.mean(), 1e-12) or row["r_max"] != x.max():
                errors.append(f"fit {label}: obs/r0/r_max {row['obs']} {row['r0']} {row['r_max']}")
            want = _lognormal_fit(x)
            kept = x[x > 0]
            if want is None:
                if kept.size < 2 and row["mu"] is not None:
                    errors.append(f"fit {label}: fitted a degenerate stratum")
            else:
                for name, value in zip(("mu", "sigma2", "loglik"), want):
                    if not _close(row[name], value):
                        errors.append(f"fit {label}: {name} {row[name]} != {value}")
            if kept.size < 3:
                if row["sw_p"] is not None:
                    errors.append(f"fit {label}: sw_p on {kept.size} values")
            elif not np.all(kept == kept[0]):
                with warnings.catch_warnings():  # scipy warns above n = 5000
                    warnings.simplefilter("ignore", UserWarning)
                    p = float(stats.shapiro(np.log(kept)).pvalue)
                above_limit = kept.size > 5000  # refused today; computing it is a planned change
                if not (_close(row["sw_p"], p, 0.0, 1e-6) or (above_limit and row["sw_p"] is None)):
                    errors.append(f"fit {label}: sw_p {row['sw_p']} != scipy {p}")
            if row["sw_p"] is not None and row["reject"] != (row["sw_p"] < ALPHA / m):
                errors.append(f"fit {label}: reject flag disagrees with p and m={m}")
            errors += _check_css_row(css_strata[key], x, label)
            if key not in zero:
                errors += _check_ccdf(out / f"ccdf_{_slug(key[0])}_{key[1]}.tsv", x / x.mean())

        collapse = {r["year"]: r for r in _read_jsonl(out / "collapse.jsonl")}
        css_overall = {r["year"]: r for r in _read_jsonl(out / "css_overall.jsonl")}
        topz = {(r["year"], r["z"], r["variant"]): r for r in _read_jsonl(out / "topz.jsonl")}
        for y in years:
            keys = sorted(k for k in strata if k[1] == y)
            usable = [k for k in keys if k not in zero]
            pooled = np.concatenate([strata[k] / strata[k].mean() for k in usable])
            row = collapse.get(y)
            if row is None or row["n_strata"] != len(usable) or row["obs"] != pooled.size:
                errors.append(f"collapse {y}: strata/obs differ")
            else:
                for name, value in zip(("mu", "sigma2", "loglik"), _lognormal_fit(pooled)):
                    if not _close(row[name], value):
                        errors.append(f"collapse {y}: {name} {row[name]} != {value}")
            errors += _check_ccdf(out / f"ccdf_merged_{y}.tsv", pooled)
            if y not in css_overall:
                errors.append(f"css_overall: no row for {y}")
            else:
                errors += _check_css_row(
                    css_overall[y], np.concatenate([strata[k] for k in keys]), str(y)
                )
            sizes = [strata[k].size for k in keys]
            for z in Z_VALUES:
                for variant in VARIANTS:
                    errors += self._check_topz(
                        out, topz.get((y, z, variant)), y, z, variant, sizes,
                        any(k in zero for k in keys),
                    )
        return errors

    @staticmethod
    def _check_topz(out, row, year, z, variant, sizes, has_zero_stratum) -> list[str]:
        label = f"topz {year} z={z:g} {variant}"
        if row is None:
            return [f"{label}: no row"]
        if row["note"]:
            # a failed row is accepted only where an all-zero stratum makes
            # rescaling undefined (an open defect of the rescaled variant)
            if variant == "rescaled" and has_zero_stratum:
                return []
            return [f"{label}: failed: {row['note']}"]
        shares_path = out / f"topz_shares_{year}_z{z:g}_{variant}.jsonl"
        if not shares_path.is_file():
            return [f"missing {shares_path.name}"]
        shares = _read_jsonl(shares_path)
        errors = []
        if variant == "original":
            tol = math.sqrt(z * (100 - z) / len(sizes) * sum(1.0 / n for n in sizes))
            if row["n_fields"] != len(sizes) or not _close(row["sigma_z"], tol):
                errors.append(f"{label}: n_fields/sigma_z differ")
            if sorted(s["n"] for s in shares) != sorted(sizes):
                errors.append(f"{label}: field sizes differ")
        inside = sum(1 for s in shares if abs(s["share"] - z) <= row["sigma_z"])
        if row["within_tolerance"] != inside:
            errors.append(f"{label}: within_tolerance {row['within_tolerance']} != {inside}")
        return errors


def prepare_report_wide(seed: int, work: Path) -> ReportCase:
    rng = _rng(seed, "report_wide")
    # 16 fields below the 5000-record Shapiro-Wilk limit and 2 that stay
    # above it after their zeros are dropped
    sizes = np.concatenate([np.linspace(400, 1400, 16), np.linspace(6000, 6600, 2)])
    sizes = rng.permutation(np.rint(sizes * rng.uniform(0.95, 1.05, sizes.size)).astype(int))
    fields = tuple(
        synth.FieldSpec(
            f"Field {i:02d}", int(n), float(rng.uniform(1.5, 3.0)), float(rng.uniform(0.4, 1.2))
        )
        for i, n in enumerate(sizes)
    )
    spec = synth.SynthSpec(
        fields=fields, year=2015, seed=int(rng.integers(2**31)), zero_inflation=0.05
    )
    path = work / "wide_2015.jsonl"
    _synth_file(spec, path)
    return ReportCase("report_wide", int(sizes.sum()), [path], sample_seed=int(rng.integers(2**31)))


STRATA_YEARS = tuple(range(2008, 2016))
STRATA_FIELDS = 80


def prepare_report_strata(seed: int, work: Path) -> ReportCase:
    rng = _rng(seed, "report_strata")
    # log-spaced sizes from 1 to 300 records, shuffled per year
    grid = np.rint(np.exp(np.linspace(0.0, math.log(300), STRATA_FIELDS))).astype(int)
    zero_year = int(rng.choice(STRATA_YEARS))
    zero_field = int(rng.integers(STRATA_FIELDS))
    paths, total = [], 0
    for year in STRATA_YEARS:
        sizes = rng.permutation(grid)
        fields = []
        for i, n in enumerate(sizes):
            mu, sigma2 = float(rng.uniform(1.5, 3.0)), float(rng.uniform(0.3, 1.0))
            if (year, i) == (zero_year, zero_field):
                n, mu, sigma2 = 4, -6.0, 0.05  # every draw rounds to 0
            fields.append(synth.FieldSpec(f"Subject {i:03d}", int(n), mu, sigma2))
            total += int(n)
        spec = synth.SynthSpec(
            fields=tuple(fields), year=year, seed=int(rng.integers(2**31)), zero_inflation=0.05
        )
        path = work / f"strata_{year}.jsonl"
        _synth_file(spec, path)
        paths.append(path)
    return ReportCase(
        "report_strata", total, paths, sample_seed=int(rng.integers(2**31)),
        planted_zero=(f"Subject {zero_field:03d}", zero_year),
    )


# ---------------------------------------------------------------------------
# ingest + fetch workload

FETCH_YEARS = tuple(range(2010, 2016))
FETCH_FIELDS = 10
BAD_KINDS = ("year_text", "year_range", "reads_negative", "reads_empty", "duplicate_id")
BAD_PER_KIND = 70


@dataclass
class IngestFetchCase(Case):
    rows: int = 0
    planted: int = 0
    expected_reads: dict[str, int] = field(default_factory=dict, repr=False)
    expected_summary: dict[str, int] = field(default_factory=dict)
    cache_seed: Path | None = None
    cache: Path | None = None

    def before_iteration(self) -> None:
        shutil.copyfile(self.cache_seed, self.cache)

    def commands(self, out, provider_url):
        ingested = out / "ingest"
        return [
            ("ingest", ["ingest", "--input", str(self.inputs[0]), "--out", str(ingested)]),
            (
                "fetch",
                [
                    "fetch", "--input", str(ingested / "corpus.jsonl"),
                    "--provider-url", provider_url, "--cache", str(self.cache),
                    "--out", str(out / "fetch"),
                ],
            ),
        ]

    def check(self, out, stdout):
        errors = []
        words = stdout.get("ingest", "").split()
        try:
            accepted, rejected = int(words[words.index("accepted") + 1]), int(words[words.index("rejected") + 1])
        except (ValueError, IndexError):
            return [f"ingest: unreadable summary {stdout.get('ingest', '')!r}"]
        if accepted + rejected != self.rows:
            errors.append(f"ingest: accepted {accepted} + rejected {rejected} != {self.rows} rows")
        if rejected != self.planted:
            errors.append(f"ingest: rejected {rejected} != {self.planted} planted bad rows")
        diagnostics = out / "ingest" / "ingest_diagnostics.jsonl"
        if not diagnostics.is_file() or len(_read_jsonl(diagnostics)) != self.planted:
            errors.append("ingest: diagnostics do not list every planted bad row")

        summary = stdout.get("fetch", "")
        want = self.expected_summary
        expected_line = (
            f"resolved {want['resolved']} dois: {want['matched']} matched, "
            f"{want['below']} below threshold, {want['failed']} failed, {want['matched']} merged"
        )
        if expected_line not in summary:
            errors.append(f"fetch: summary {summary.strip()!r}, expected {expected_line!r}")
        fetched = out / "fetch" / "corpus.jsonl"
        if not fetched.is_file():
            return errors + ["fetch: no merged corpus"]
        got = {row["id"]: row["reads"] for row in _read_jsonl(fetched)}
        if got != self.expected_reads:
            wrong = sum(1 for k, v in self.expected_reads.items() if got.get(k) != v)
            errors.append(f"fetch: {wrong} merged read counts differ from cache and stub")
        return errors


def _cache_line(doi: str, reads, probability: float, fetched_at: float) -> str:
    reads_text = "null" if reads is None else str(reads)
    return (
        f'{{"doi": "{doi}", "fetched_at": {fetched_at!r}, '
        f'"match_probability": {probability!r}, "reads": {reads_text}}}'
    )


def prepare_ingest_fetch(seed: int, work: Path) -> IngestFetchCase:
    rng = _rng(seed, "ingest_fetch")
    grid = np.rint(np.linspace(200, 900, FETCH_FIELDS)).astype(int)
    good: list[list] = []
    for year in FETCH_YEARS:
        fields = tuple(
            synth.FieldSpec(
                f"Area {i:02d}", int(n), float(rng.uniform(1.0, 3.0)), float(rng.uniform(0.4, 1.2))
            )
            for i, n in enumerate(rng.permutation(grid))
        )
        spec = synth.SynthSpec(
            fields=fields, year=year, seed=int(rng.integers(2**31)), zero_inflation=0.05
        )
        records = synth.generate_corpus(spec)
        cites = rng.poisson(0.3 * np.array([r.reads for r in records], dtype=float) + 0.5)
        blank = rng.random(len(records)) < 0.1
        for r, c, b in zip(records, cites.tolist(), blank.tolist()):
            good.append([r.id, r.field, r.year, r.reads, "" if b else c])
    n_good = len(good)

    # planted bad rows, one fault each, at seeded positions; a duplicate
    # always comes after the row whose id it repeats
    keyed = [(float(i), row) for i, row in enumerate(good)]
    for kind in BAD_KINDS:
        for j in range(BAD_PER_KIND):
            src = good[int(rng.integers(n_good))]
            row = [f"bad-{kind}-{j:04d}", src[1], src[2], src[3], src[4]]
            pos = float(rng.uniform(0, n_good))
            if kind == "year_text":
                row[2] = "n.d."
            elif kind == "year_range":
                row[2] = 1850
            elif kind == "reads_negative":
                row[3] = -int(rng.integers(1, 50))
            elif kind == "reads_empty":
                row[3] = ""
            else:
                src_pos = int(rng.integers(n_good))
                row = list(good[src_pos])
                pos = float(rng.uniform(src_pos + 0.5, n_good))
            keyed.append((pos, row))
    keyed.sort(key=lambda item: item[0])
    raw = work / "raw.csv"
    with open(raw, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "field", "year", "reads", "cites"])
        writer.writerows(row for _, row in keyed)

    # warm cache: two entries per DOI, in either order, where the later
    # fetched_at wins; about 5% of the winning entries are below the match
    # threshold. The misses are left out of the cache.
    is_miss = np.zeros(n_good, dtype=bool)
    is_miss[rng.permutation(n_good)[:MISSES]] = True
    old_reads = rng.integers(0, 500, n_good).tolist()
    new_matched = (rng.random(n_good) >= 0.05).tolist()
    new_reads = rng.integers(0, 1000, n_good).tolist()
    new_prob = np.where(
        new_matched, rng.uniform(0.91, 1.0, n_good), rng.uniform(0.3, 0.9, n_good)
    ).tolist()
    new_first = (rng.random(n_good) < 0.5).tolist()
    expected_reads = {row[0]: int(row[3]) for row in good}
    lines = []
    matched = below = 0
    for k in np.flatnonzero(~is_miss).tolist():
        doi = good[k][0]
        old = _cache_line(doi, old_reads[k], 0.97, 1.6e9 + k)
        new = _cache_line(doi, new_reads[k] if new_matched[k] else None, new_prob[k], 1.7e9 + k)
        lines += [new, old] if new_first[k] else [old, new]
        if new_matched[k]:
            expected_reads[doi] = new_reads[k]
            matched += 1
        else:
            below += 1
    cache_seed = work / "cache_seed.jsonl"
    cache_seed.write_text("\n".join(lines) + "\n", encoding="utf-8")

    # the stub answers most misses above the threshold, some below, and
    # leaves the rest out of its answer (failed lookups, never cached)
    responses: dict[str, tuple[int, float]] = {}
    failed = 0
    for doi in sorted(good[k][0] for k in np.flatnonzero(is_miss).tolist()):
        u = rng.random()
        if u < 0.1:
            failed += 1
            continue
        readers = int(rng.integers(0, 1000))
        if u < 0.25:
            responses[doi] = (readers, float(rng.uniform(0.5, 0.85)))
            below += 1
        else:
            responses[doi] = (readers, float(rng.uniform(0.95, 0.99)))
            expected_reads[doi] = readers
            matched += 1

    planted = len(BAD_KINDS) * BAD_PER_KIND
    return IngestFetchCase(
        "ingest_fetch", n_good + planted, [raw],
        stub_responses=responses,
        rows=n_good + planted,
        planted=planted,
        expected_reads=expected_reads,
        expected_summary={"resolved": n_good, "matched": matched, "below": below, "failed": failed},
        cache_seed=cache_seed,
        cache=work / "cache.jsonl",
    )


PREPARE = {
    "report_wide": prepare_report_wide,
    "report_strata": prepare_report_strata,
    "ingest_fetch": prepare_ingest_fetch,
}
