"""End-to-end subcommand behaviour: tables, files, exit codes, determinism."""
from __future__ import annotations

import filecmp
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import readscale.cli as cli_mod
import readscale.corpus as corpus_mod
import readscale.fetch as fetch_mod
import readscale.worker as worker_mod
from conftest import MATHS_COUNTS, SURGERY_COUNTS, make_records
from readscale.cli import main
from readscale.corpus import Group, GroupKey, PublicationRecord
from readscale.distfit import ZeroPolicy, fit_lognormal
from readscale.ingest import Columns, CorpusBuffers, write_records
from readscale.rescale import ccdf, collapse, rescale_group, write_ccdf_tsv
from readscale.synth import GENERATOR_ID


@pytest.fixture(autouse=True)
def fast_backoff(monkeypatch):
    monkeypatch.setattr(fetch_mod, "BACKOFF_BASE", 0.01)
    monkeypatch.setattr(fetch_mod, "BACKOFF_CAP", 0.05)


def write_corpus(path, records):
    write_records(records, path, format="line-json")
    return str(path)


def read_tsv(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split("\t")
    return [dict(zip(header, line.split("\t"))) for line in lines[1:]]


def read_jsonl(path):
    return [
        json.loads(line)
        for line in Path(path).read_text(encoding="utf-8").splitlines()
        if line
    ]


@pytest.fixture
def two_field_corpus(tmp_path):
    records = make_records(MATHS_COUNTS, "Mathematics", 2010) + make_records(
        SURGERY_COUNTS, "Surgery", 2010
    )
    return write_corpus(tmp_path / "corpus.jsonl", records)


# ---------------------------------------------------------------------------
# fit


def test_fit_renders_expected_summary_cells(two_field_corpus, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["fit", "--input", two_field_corpus, "--out", str(out)]) == 0
    rows = {r["field"]: r for r in read_tsv(out / "fit.tsv")}
    surgery = rows["Surgery"]
    assert surgery["obs"] == "96"
    assert surgery["r0"] == "21.6"
    assert surgery["r_max"] == "101"
    assert surgery["year"] == "2010"
    maths = rows["Mathematics"]
    assert maths["obs"] == "85"
    assert maths["r0"] == "6.2"
    assert maths["sw_p"] == "0.026"
    # the table is echoed to stdout in TSV form by default
    assert "Surgery\t2010\t96\t21.6\t101" in capsys.readouterr().out


def test_fit_default_family_size_is_number_of_tested_strata(two_field_corpus, tmp_path):
    out_default = tmp_path / "d"
    out_single = tmp_path / "s"
    main(["fit", "--input", two_field_corpus, "--out", str(out_default)])
    main(["fit", "--input", two_field_corpus, "--out", str(out_single), "--m", "1"])
    default_rows = {r["field"]: r for r in read_tsv(out_default / "fit.tsv")}
    single_rows = {r["field"]: r for r in read_tsv(out_single / "fit.tsv")}
    # maths log-counts sit between alpha/2 and alpha: the correction flips the call
    assert single_rows["Mathematics"]["reject"] == "true"
    assert default_rows["Mathematics"]["reject"] == "false"


def test_fit_default_family_size_leaves_out_untested_strata(tmp_path):
    # Tiny's one record is never tested, so the default m is 2; at alpha 0.06
    # maths' p = 0.02592 lies between alpha/3 and alpha/2
    records = (
        make_records(MATHS_COUNTS, "Mathematics", 2010)
        + make_records(SURGERY_COUNTS, "Surgery", 2010)
        + make_records([44], "Tiny", 2010)
    )
    corpus = write_corpus(tmp_path / "c.jsonl", records)
    rejects = {}
    for label, flags in (("default", []), ("m2", ["--m", "2"]), ("m3", ["--m", "3"])):
        out = tmp_path / label
        assert main(["fit", "--input", corpus, "--out", str(out), "--alpha", "0.06", *flags]) == 0
        rows = {r["field"]: r for r in read_jsonl(out / "fit.jsonl")}
        assert rows["Mathematics"]["sw_p"] == pytest.approx(0.02592, abs=5e-6)
        assert rows["Tiny"]["sw_p"] is None and rows["Tiny"]["reject"] is None
        rejects[label] = rows["Mathematics"]["reject"]
    assert rejects == {"default": True, "m2": True, "m3": False}


def test_fit_single_record_stratum_noted_not_fatal(tmp_path):
    records = make_records(SURGERY_COUNTS, "Surgery", 2010) + make_records(
        [44], "Tiny", 2010
    )
    corpus = write_corpus(tmp_path / "c.jsonl", records)
    out = tmp_path / "out"
    assert main(["fit", "--input", corpus, "--out", str(out)]) == 0
    rows = {r["field"]: r for r in read_tsv(out / "fit.tsv")}
    tiny = rows["Tiny"]
    assert tiny["obs"] == "1"
    for column in ("mu", "sigma2", "loglik", "sw_p", "reject"):
        assert tiny[column] == "NA"
    assert tiny["note"] != ""
    assert rows["Surgery"]["mu"] != "NA"


def test_fit_year_filter(tmp_path):
    records = make_records(MATHS_COUNTS, "Mathematics", 2009, prefix="m9") + make_records(
        MATHS_COUNTS, "Mathematics", 2010, prefix="m10"
    )
    corpus = write_corpus(tmp_path / "c.jsonl", records)
    out = tmp_path / "out"
    main(["fit", "--input", corpus, "--out", str(out), "--year", "2010"])
    rows = read_tsv(out / "fit.tsv")
    assert [r["year"] for r in rows] == ["2010"]


def test_fit_row_per_stratum(tmp_path):
    rng = np.random.default_rng(7)
    records = []
    for i in range(30):
        counts = rng.integers(1, 60, size=25)
        records += make_records(counts, f"Field {i:02d}", 2012, prefix=f"f{i:02d}")
    corpus = write_corpus(tmp_path / "c.jsonl", records)
    out = tmp_path / "out"
    main(["fit", "--input", corpus, "--out", str(out)])
    assert len(read_tsv(out / "fit.tsv")) == 30


# ---------------------------------------------------------------------------
# collapse


def test_collapse_single_stratum_equals_direct_rescaled_fit(tmp_path, surgery_records):
    corpus = write_corpus(tmp_path / "c.jsonl", surgery_records)
    out = tmp_path / "out"
    assert main(["collapse", "--input", corpus, "--out", str(out)]) == 0
    row = read_jsonl(out / "collapse.jsonl")[0]
    group = Group(key=GroupKey("Surgery", 2010), records=tuple(surgery_records))
    expected = fit_lognormal(rescale_group(group).values, ZeroPolicy("exclude"))
    assert row["n_strata"] == 1
    assert row["obs"] == 96
    assert row["mu"] == pytest.approx(expected.mu, abs=1e-12)
    assert row["sigma2"] == pytest.approx(expected.sigma2, abs=1e-12)


def test_collapse_pooled_count_and_ccdf_files(tmp_path):
    rng = np.random.default_rng(5)
    sizes = {"Alpha": 1644, "Beta": 1645, "Gamma": 1644}
    records = []
    for field, n in sizes.items():
        counts = rng.integers(1, 300, size=n)
        records += make_records(counts, field, 2010)
    corpus = write_corpus(tmp_path / "c.jsonl", records)
    out = tmp_path / "out"
    main(["collapse", "--input", corpus, "--out", str(out)])
    row = read_tsv(out / "collapse.tsv")[0]
    assert row["obs"] == "4933"
    assert row["n_strata"] == "3"
    merged = (out / "ccdf_merged_2010.tsv").read_text(encoding="utf-8").splitlines()
    first = merged[1].split("\t")
    assert float(first[1]) == 1.0  # CCDF opens at probability one
    for field in sizes:
        assert (out / f"ccdf_{field.lower()}_2010.tsv").exists()


def test_collapse_all_zero_stratum_skipped_with_note(tmp_path, caplog):
    records = make_records(SURGERY_COUNTS, "Surgery", 2010) + make_records(
        [0, 0, 0], "Silent", 2010
    )
    corpus = write_corpus(tmp_path / "c.jsonl", records)
    out = tmp_path / "out"
    with caplog.at_level("WARNING"):
        assert main(["collapse", "--input", corpus, "--out", str(out)]) == 0
    row = read_tsv(out / "collapse.tsv")[0]
    assert row["n_strata"] == "1"
    assert "Silent" in row["note"]
    assert "skipped" in caplog.text


def test_collapse_year_without_a_usable_or_fittable_pool(tmp_path):
    # 2010: only all-zero strata; 2011: one one-record stratum, a pool of one
    records = (
        make_records([0, 0, 0], "Silent", 2010)
        + make_records([7], "Lonely", 2011)
        + make_records(SURGERY_COUNTS, "Surgery", 2012)
    )
    corpus = write_corpus(tmp_path / "c.jsonl", records)
    out = tmp_path / "out"
    assert main(["collapse", "--input", corpus, "--out", str(out)]) == 0
    rows = {r["year"]: r for r in read_tsv(out / "collapse.tsv")}
    assert rows["2010"] == {
        "year": "2010", "n_strata": "0", "obs": "NA", "mu": "NA", "sigma2": "NA", "loglik": "NA",
        "note": "skipped all-zero strata: Silent; no usable strata",
    }
    assert rows["2011"] == {
        "year": "2011", "n_strata": "1", "obs": "1", "mu": "NA", "sigma2": "NA", "loglik": "NA",
        "note": "pooled fit failed: need at least 2 positive values after zero policy, have 1",
    }
    assert rows["2012"]["mu"] != "NA" and rows["2012"]["note"] == ""
    assert read_jsonl(out / "collapse.jsonl")[0]["obs"] is None
    assert not (out / "ccdf_merged_2010.tsv").exists()
    assert (out / "ccdf_merged_2011.tsv").exists()


def test_collapse_slug_collision_keeps_first_curve_and_notes_both(tmp_path, caplog):
    # "Bio Chem" and "Bio-Chem" both map to ccdf_bio_chem_2010.tsv; "Merged"
    # maps to the pooled curve's ccdf_merged_2010.tsv
    strata = {
        "Bio Chem": make_records(SURGERY_COUNTS, "Bio Chem", 2010, prefix="b"),
        "Bio-Chem": make_records(MATHS_COUNTS, "Bio-Chem", 2010, prefix="h"),
        "Merged": make_records(MATHS_COUNTS[:40], "Merged", 2010, prefix="m"),
    }
    corpus = write_corpus(tmp_path / "c.jsonl", [r for recs in strata.values() for r in recs])
    out = tmp_path / "out"
    with caplog.at_level("WARNING"):
        assert main(["collapse", "--input", corpus, "--out", str(out)]) == 0
    row = read_tsv(out / "collapse.tsv")[0]
    assert row["n_strata"] == "3"  # every stratum is still pooled
    assert "'Bio-Chem' not written" in row["note"] and "'Bio Chem'" in row["note"]
    assert "'Merged' not written" in row["note"] and "pooled" in row["note"]
    assert "not written" in caplog.text

    samples = {f: rescale_group(Group(GroupKey(f, 2010), tuple(r))) for f, r in strata.items()}
    for name, values in (
        ("ccdf_bio_chem_2010.tsv", samples["Bio Chem"].values),
        ("ccdf_merged_2010.tsv", collapse(list(samples.values()))),
    ):
        write_ccdf_tsv(ccdf(values), tmp_path / name)
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes()


# ---------------------------------------------------------------------------
# css


def test_css_worked_example(tmp_path):
    corpus = write_corpus(
        tmp_path / "c.jsonl", make_records([1, 2, 3, 4, 10], "Demo", 2010)
    )
    out = tmp_path / "out"
    assert main(["css", "--input", corpus, "--out", str(out)]) == 0
    row = read_tsv(out / "css_overall.tsv")[0]
    assert (row["beta1"], row["beta2"], row["beta3"]) == ("4.0", "7.0", "10.0")
    assert row["share_I"] == "60.0"
    assert row["share_II"] == "20.0"
    assert row["share_III"] == "0.0"
    assert row["share_IV"] == "20.0"
    assert (row["count_I"], row["count_II"], row["count_III"], row["count_IV"]) == (
        "3", "1", "0", "1",
    )
    strata = read_tsv(out / "css_strata.tsv")
    assert len(strata) == 1 and strata[0]["field"] == "Demo"


@pytest.mark.parametrize("value, n", [(0.1, 3), (0.7, 3)])  # the float mean rounds up, and down
@pytest.mark.parametrize("rule", ["ge", "gt"])
def test_css_puts_a_constant_stratum_in_the_class_its_score_opens(tmp_path, value, n, rule):
    corpus = write_corpus(tmp_path / "c.jsonl", [PublicationRecord(f"c{i}", "Flat", 2010, value) for i in range(n)])
    out = tmp_path / "out"
    assert main(["css", "--input", corpus, "--out", str(out), "--css-strict", rule]) == 0
    for table in ("css_strata", "css_overall"):
        (row,) = read_jsonl(out / f"{table}.jsonl")
        assert (row["beta1"], row["count_I"], row["count_II"], row["note"]) == (value, 0, n, "scores stopped after 1")


def test_css_one_row_per_stratum_plus_pooled(two_field_corpus, tmp_path):
    out = tmp_path / "out"
    main(["css", "--input", two_field_corpus, "--out", str(out)])
    assert len(read_tsv(out / "css_overall.tsv")) == 1  # one year pooled
    assert len(read_tsv(out / "css_strata.tsv")) == 2


def test_css_with_four_scores_numbers_its_classes(tmp_path):
    # past the four named classes I-IV, the classes are numbered from 1
    corpus = write_corpus(tmp_path / "c.jsonl", make_records(list(range(1, 101)), "Demo", 2010))
    out = tmp_path / "out"
    assert main(["css", "--input", corpus, "--out", str(out), "--k", "4"]) == 0
    row = read_tsv(out / "css_overall.tsv")[0]
    counts = [f"count_{i}" for i in range(1, 6)]
    assert list(row) == (
        ["year", "obs", "beta1", "beta2", "beta3", "beta4"] + counts + [f"share_{i}" for i in range(1, 6)] + ["note"]
    )
    assert [row[col] for col in counts] == ["50", "25", "12", "6", "7"]  # betas 50.5, 75.5, 88, 94
    assert list(read_tsv(out / "css_strata.tsv")[0]) == ["field", *row]


# ---------------------------------------------------------------------------
# topz


def test_topz_table_and_share_files(tmp_path):
    rng = np.random.default_rng(11)
    records = []
    for i, field in enumerate(("A", "B", "C")):
        counts = np.maximum(rng.poisson(12 * (i + 1), size=40), 1)
        records += make_records(counts, field, 2010)
    corpus = write_corpus(tmp_path / "c.jsonl", records)
    out = tmp_path / "out"
    assert main(["topz", "--input", corpus, "--out", str(out)]) == 0
    rows = read_tsv(out / "topz.tsv")
    # default z grid {5, 10, 20} x {original, rescaled} for the single year
    assert len(rows) == 6
    assert {r["variant"] for r in rows} == {"original", "rescaled"}
    assert {r["z"] for r in rows} == {"5", "10", "20"}
    assert all(r["n_fields"] == "3" for r in rows)
    for z in ("5", "10", "20"):
        for variant in ("original", "rescaled"):
            shares = read_tsv(out / f"topz_shares_2010_z{z}_{variant}.tsv")
            assert [r["field"] for r in shares] == ["A", "B", "C"]
            inside = sum(1 for r in shares if r["inside"] == "true")
            row = next(r for r in rows if r["z"] == z and r["variant"] == variant)
            assert str(inside) == row["within_tolerance"]


def test_topz_out_of_range_z_is_a_usage_error(two_field_corpus, tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["topz", "--input", two_field_corpus, "--out", str(tmp_path), "--z", "120"])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "zs, message",
    [
        (("5", "5.000001"), "--z 5.0 and --z 5.000001 would both write the z5 tables"),
        (("5", "5"), "--z 5.0 and --z 5.0 would both write the z5 tables"),
        (("10", "7", "1e1"), "--z 10.0 and --z 10.0 would both write the z10 tables"),
    ],
)
def test_topz_z_values_sharing_a_file_label_are_a_usage_error(two_field_corpus, tmp_path, capsys, zs, message):
    # both would write topz_shares_<year>_z<label>_<variant>, the second over the first
    with pytest.raises(SystemExit) as info:
        main(["topz", "--input", two_field_corpus, "--out", str(tmp_path / "out")]
             + [arg for z in zs for arg in ("--z", z)])
    assert info.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_alpha_out_of_range_is_a_usage_error(two_field_corpus, tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["fit", "--input", two_field_corpus, "--out", str(tmp_path), "--alpha", "1.5"])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "command, flag, message", [("fit", "--m", "--m must be >= 1, got 0"), ("css", "--k", "--k must be >= 1, got 0")],
)
def test_a_count_flag_below_one_is_a_usage_error(two_field_corpus, tmp_path, capsys, command, flag, message):
    with pytest.raises(SystemExit) as info:
        main([command, "--input", two_field_corpus, "--out", str(tmp_path / "out"), flag, "0"])
    assert info.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# ingest


def test_ingest_reports_accepted_and_rejected(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text(
        "id,field,year,reads\n"
        "a1,Biology,2010,5\n"
        "a2,Biology,2010,7\n"
        "a3,Biology,frog,9\n"
        "a4,Biology,2010,-2\n"
        "a5,Biology,2010,0\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["ingest", "--input", str(raw), "--out", str(out)]) == 0
    assert "accepted 3 rejected 2" in capsys.readouterr().out
    assert len(read_jsonl(out / "corpus.jsonl")) == 3
    diags = read_jsonl(out / "ingest_diagnostics.jsonl")
    assert len(diags) == 2
    assert all("raw.csv" in d["reason"] for d in diags)


def test_ingest_reads_csv_that_starts_with_a_byte_order_mark(tmp_path, capsys):
    # spreadsheet exports often open with U+FEFF, which must not join the first column's name
    raw = tmp_path / "raw.csv"
    raw.write_text("\ufeffid,field,year,reads\na1,Biology,2010,5\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["ingest", "--input", str(raw), "--out", str(out)]) == 0
    assert "accepted 1 rejected 0" in capsys.readouterr().out
    assert read_jsonl(out / "corpus.jsonl") == [
        {"id": "a1", "field": "Biology", "year": 2010, "reads": 5}
    ]


def test_ingest_flags_duplicate_ids(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text(
        "id,field,year,reads\nx1,Bio,2010,5\nx1,Bio,2010,6\n", encoding="utf-8"
    )
    out = tmp_path / "out"
    assert main(["ingest", "--input", str(raw), "--out", str(out)]) == 0
    assert "accepted 1 rejected 1" in capsys.readouterr().out


def test_ingest_joins_inputs_in_order_and_reads_tsv_by_extension(tmp_path, capsys):
    first = tmp_path / "a.csv"
    first.write_text("id,field,year,reads\na1,Bio,2010,5\na2,Bio,frog,1\n", encoding="utf-8")
    second = tmp_path / "b.tsv"
    second.write_text(
        "id\tfield\tyear\treads\tcites\nb1\tBio, Chem\t2011\t7\t2\na1\tBio\t2010\t3\t\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["ingest", "--input", str(first), "--input", str(second), "--out", str(out)]) == 0
    assert "accepted 2 rejected 2" in capsys.readouterr().out
    assert read_jsonl(out / "corpus.jsonl") == [
        {"id": "a1", "field": "Bio", "year": 2010, "reads": 5},
        {"id": "b1", "field": "Bio, Chem", "year": 2011, "reads": 7, "cites": 2},
    ]
    assert read_jsonl(out / "ingest_diagnostics.jsonl") == [
        {"line": 3, "reason": "a.csv: invalid year 'frog'"},
        {"line": 3, "reason": "b.tsv: duplicate id a1"},
    ]


def test_ingest_rejects_cites_beyond_float_range(tmp_path, capsys):
    # the analysis commands hold cites as floats: a row whose cites has no
    # float is listed as the parse rejections are, not written out
    huge = "9" * 401
    (tmp_path / "a.csv").write_text(f"id,field,year,reads,cites\na1,Bio,2010,1,{huge}\na2,Bio,2010,2,3\n", encoding="utf-8")
    (tmp_path / "b.jsonl").write_text(
        '{"id": "b1", "field": "Bio", "year": 2010, "reads": 4}\n'
        f'{{"id": "b2", "field": "Bio", "year": 2010, "reads": 5, "cites": {huge}}}\n',
        encoding="utf-8",
    )
    out = tmp_path / "out"
    io = ["--input", str(tmp_path / "a.csv"), "--input", str(tmp_path / "b.jsonl")]
    assert main(["ingest", *io, "--out", str(out)]) == 0
    assert "accepted 2 rejected 2" in capsys.readouterr().out
    assert [row["id"] for row in read_jsonl(out / "corpus.jsonl")] == ["a2", "b1"]
    assert read_jsonl(out / "ingest_diagnostics.jsonl") == [
        {"line": 2, "reason": f"a.csv: invalid cites {huge!r}"},
        {"line": 2, "reason": f"b.jsonl: invalid cites {huge}"},
    ]


def test_ingest_names_the_file_and_line_of_every_finding(tmp_path, capsys):
    # validate's findings (a duplicate id, a year out of range) read as the
    # parse rejections do: the file's name and the line in that file
    (tmp_path / "a.csv").write_text(
        "id,field,year,reads\na0,Bio,2010,1\na2,Bio,frog,3\na1,Bio,2010,4\na3,Bio,2011,5\n"
        "a1,Bio,2010,6\n",
        encoding="utf-8",
    )
    (tmp_path / "b.csv").write_text("id,field,year,reads\nb1,Bio,1850,1\nb2,Bio,2010,2\n", encoding="utf-8")
    out = tmp_path / "out"
    io = ["--input", str(tmp_path / "a.csv"), "--input", str(tmp_path / "b.csv")]
    assert main(["ingest", *io, "--out", str(out)]) == 0
    assert "accepted 4 rejected 3" in capsys.readouterr().out
    assert read_jsonl(out / "ingest_diagnostics.jsonl") == [
        {"line": 3, "reason": "a.csv: invalid year 'frog'"},
        {"line": 6, "reason": "a.csv: duplicate id a1"},
        {"line": 2, "reason": "b.csv: year out of range: 1850"},
    ]


def test_ingest_counts_a_row_with_two_findings_once(tmp_path, capsys, caplog):
    # accepted + rejected is the number of rows read; the diagnostics keep every finding
    raw = tmp_path / "raw.csv"
    raw.write_text("id,field,year,reads\na1,Bio,2010,1\na2,Bio,2010,2\na1,Bio,1850,3\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["ingest", "--input", str(raw), "--out", str(out)]) == 0
    assert capsys.readouterr().out == "accepted 2 rejected 1\n"
    assert "1 rows rejected; see ingest_diagnostics.jsonl" in caplog.text
    assert read_jsonl(out / "ingest_diagnostics.jsonl") == [
        {"line": 4, "reason": "raw.csv: duplicate id a1"},
        {"line": 4, "reason": "raw.csv: year out of range: 1850"},
    ]


def test_ingest_year_logs_the_rows_it_leaves_out(tmp_path, capsys, caplog):
    # accepted + rejected + left out is the number of rows read; a flagged row
    # of another year counts as rejected
    caplog.set_level(logging.INFO)
    raw = tmp_path / "raw.csv"
    raw.write_text(
        "id,field,year,reads\na1,Bio,2010,1\na2,Bio,2011,2\na3,Bio,1850,3\na4,Bio,2012,4\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["ingest", "--input", str(raw), "--out", str(out), "--year", "2010"]) == 0
    assert capsys.readouterr().out == "accepted 1 rejected 1\n"
    assert [r.getMessage() for r in caplog.records if "left out" in r.getMessage()] == [
        "2 rows of other years left out"
    ]
    assert read_jsonl(out / "corpus.jsonl") == [{"id": "a1", "field": "Bio", "year": 2010, "reads": 1}]


def test_ingest_year_that_keeps_every_row_logs_nothing_left_out(tmp_path, capsys, caplog):
    caplog.set_level(logging.INFO)
    raw = tmp_path / "raw.csv"
    raw.write_text("id,field,year,reads\na1,Bio,2010,1\na2,Bio,2011,2\n", encoding="utf-8")
    years = ["--year", "2010", "--year", "2011"]
    assert main(["ingest", "--input", str(raw), "--out", str(tmp_path / "out"), *years]) == 0
    assert capsys.readouterr().out == "accepted 2 rejected 0\n"
    assert "left out" not in caplog.text


def test_ingest_rejects_a_year_or_cites_that_is_no_integer(tmp_path, capsys):
    # a fraction or a bool is no year or count; an integral float reads as its int
    rows = [
        {"id": "a", "field": "Bio", "year": 2010.7, "reads": 1},
        {"id": "b", "field": "Bio", "year": True, "reads": 2},
        {"id": "c", "field": "Bio", "year": 2010, "reads": 3, "cites": 2.9},
        {"id": "d", "field": "Bio", "year": 2010.0, "reads": 4, "cites": 3.0},
        {"id": "e", "field": "Bio", "year": 2010, "reads": 5, "cites": False},
    ]
    (tmp_path / "c.jsonl").write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["ingest", "--input", str(tmp_path / "c.jsonl"), "--out", str(out)]) == 0
    assert "accepted 1 rejected 4" in capsys.readouterr().out
    assert read_jsonl(out / "corpus.jsonl") == [
        {"id": "d", "field": "Bio", "year": 2010, "reads": 4, "cites": 3}
    ]
    assert read_jsonl(out / "ingest_diagnostics.jsonl") == [
        {"line": 1, "reason": "c.jsonl: invalid year 2010.7"},
        {"line": 2, "reason": "c.jsonl: invalid year True"},
        {"line": 3, "reason": "c.jsonl: invalid cites 2.9"},
        {"line": 5, "reason": "c.jsonl: invalid cites False"},
    ]


# ---------------------------------------------------------------------------
# synth


def _spec_file(tmp_path, seed=42):
    spec = {
        "fields": [
            {"label": "Astro", "n": 120, "mu": 2.0, "sigma2": 1.1},
            {"label": "Micro", "n": 150, "mu": 2.5, "sigma2": 0.9},
        ],
        "year": 2015,
        "seed": seed,
        "discretization": "round",
        "zero_inflation": 0.05,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return str(path)


def test_synth_cli_is_deterministic(tmp_path, capsys):
    spec = _spec_file(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["synth", "--spec", spec, "--out", str(out1)]) == 0
    assert "generated 270 records in 2 fields" in capsys.readouterr().out
    assert main(["synth", "--spec", spec, "--out", str(out2)]) == 0
    assert (out1 / "corpus.jsonl").read_bytes() == (out2 / "corpus.jsonl").read_bytes()
    assert (out1 / "corpus.meta.json").read_bytes() == (out2 / "corpus.meta.json").read_bytes()
    meta = json.loads((out1 / "corpus.meta.json").read_text(encoding="utf-8"))
    assert meta["generator"] == GENERATOR_ID
    assert meta["spec"]["seed"] == 42


def test_synth_seed_override_changes_output(tmp_path):
    spec = _spec_file(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    main(["synth", "--spec", spec, "--out", str(out1)])
    main(["synth", "--spec", spec, "--out", str(out2), "--seed", "43"])
    assert (out1 / "corpus.jsonl").read_bytes() != (out2 / "corpus.jsonl").read_bytes()
    meta = json.loads((out2 / "corpus.meta.json").read_text(encoding="utf-8"))
    assert meta["spec"]["seed"] == 43


def test_synth_refuses_a_fractional_year(tmp_path, capsys, caplog):
    path = tmp_path / "spec.json"
    spec = json.loads(Path(_spec_file(tmp_path)).read_text(encoding="utf-8"))
    path.write_text(json.dumps({**spec, "year": 2015.7}), encoding="utf-8")
    assert main(["synth", "--spec", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().out == ""
    assert "not an integer: 2015.7" in caplog.text
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# fetch


def test_fetch_cli_merges_matched_counts(tmp_path, stub_provider, capsys):
    records = make_records([3, 4, 5], "Bio", 2010, prefix="10.1/bio")
    corpus = write_corpus(tmp_path / "c.jsonl", records)
    server = stub_provider(
        {"10.1/bio-0000": (50, 0.99), "10.1/bio-0001": (9, 0.50)}
    )
    out = tmp_path / "out"
    code = main(
        [
            "fetch", "--input", corpus, "--out", str(out),
            "--provider-url", server.url, "--cache", str(tmp_path / "cache.jsonl"),
        ]
    )
    assert code == 0
    assert (
        "resolved 3 dois: 1 matched, 1 below threshold, 1 failed, 1 merged"
        in capsys.readouterr().out
    )
    merged = {r["id"]: r["reads"] for r in read_jsonl(out / "corpus.jsonl")}
    assert merged["10.1/bio-0000"] == 50
    assert merged["10.1/bio-0001"] == 4  # below threshold: original count kept
    assert merged["10.1/bio-0002"] == 5


def _cache_entry(doi, reads, probability, fetched_at=1.0) -> str:
    return json.dumps(
        {"doi": doi, "fetched_at": fetched_at, "match_probability": probability, "reads": reads}, sort_keys=True,
    )


@pytest.mark.parametrize("kind", ["plain", "float reads, non-ASCII ids", "float cites"])
def test_fetch_cli_writes_the_merged_corpus_as_write_records_does(kind, tmp_path, stub_provider, capsys, monkeypatch):
    plain = kind == "plain"
    ids = [f"10.5/{'a' if plain else 'é'}-{i}" for i in range(8)]
    fields = ["Bio" if plain or i < 4 else "Géo" for i in range(8)]
    reads = [i if plain or i % 2 else i + 0.5 for i in range(8)]
    columns = Columns(ids, fields, [2010] * 8, reads, [None if i % 3 == 0 else i for i in range(8)])
    corpus = tmp_path / "corpus.jsonl"
    write_records(columns, corpus, format="line-json")
    if kind == "float cites":  # columns of a type the fast renderer leaves to json.dumps
        columns = columns._replace(cites=[None if c is None else float(c) for c in columns.cites])
        monkeypatch.setattr(cli_mod, "_load_columns", lambda paths, years: columns)
    cache = tmp_path / "cache.jsonl"
    # cached: 0 matched, 1 below the threshold, 2 superseded by a match, 3 by a null
    cache.write_text("\n".join([
        _cache_entry(ids[0], 100, 0.99), _cache_entry(ids[1], 110, 0.5), _cache_entry(ids[2], 1, 0.99),
        _cache_entry(ids[2], 120, 0.95, 2.0), _cache_entry(ids[3], 130, 0.99), _cache_entry(ids[3], None, 0.6, 2.0),
    ]) + "\n", encoding="utf-8")
    # the provider: 4 matched, 5 below the threshold, 6 matched, 7 left out (failed)
    server = stub_provider({ids[4]: (40, 0.99), ids[5]: (50, 0.5), ids[6]: (60, 0.95)})
    out = tmp_path / "out"
    argv = ["fetch", "--input", str(corpus), "--out", str(out), "--provider-url", server.url, "--cache", str(cache)]
    assert main(argv) == 0
    assert capsys.readouterr().out == "resolved 8 dois: 4 matched, 3 below threshold, 1 failed, 4 merged\n"
    counts = {ids[0]: 100, ids[2]: 120, ids[4]: 40, ids[6]: 60}
    write_records(
        columns._replace(reads=[counts.get(i, r) for i, r in zip(ids, columns.reads)]),
        tmp_path / "expected.jsonl", format="line-json",
    )
    assert (out / "corpus.jsonl").read_bytes() == (tmp_path / "expected.jsonl").read_bytes()


def test_fetch_cli_failing_provider_renders_and_writes_nothing(tmp_path, stub_provider, capsys, caplog, monkeypatch):
    monkeypatch.setattr(fetch_mod, "BACKOFF_BASE", 0.01)
    rendered = []
    monkeypatch.setattr(cli_mod, "_json_lines", lambda columns: rendered.append(columns) or iter(()))
    corpus = write_corpus(tmp_path / "c.jsonl", make_records([3, 4], "Bio", 2010, prefix="10.1/bio"))
    cache = tmp_path / "cache.jsonl"
    cache.write_text(_cache_entry("10.1/bio-0000", 30, 0.99) + "\n", encoding="utf-8")
    server = stub_provider(fail_first=100)
    out = tmp_path / "out"
    argv = ["fetch", "--input", corpus, "--out", str(out), "--provider-url", server.url, "--cache", str(cache)]
    assert main(argv) == 1
    assert rendered == []  # the corpus is rendered only once the provider has answered
    assert capsys.readouterr().out == "" and not out.exists()
    assert caplog.records[-1].getMessage().startswith("provider unreachable: HTTP 500")


def test_fetch_cli_warns_when_nothing_merges(tmp_path, stub_provider, caplog):
    records = make_records([3, 4], "Bio", 2010, prefix="10.2/bio")
    corpus = write_corpus(tmp_path / "c.jsonl", records)
    server = stub_provider(
        {"10.2/bio-0000": (50, 0.10), "10.2/bio-0001": (9, 0.20)}
    )
    with caplog.at_level("WARNING"):
        code = main(
            [
                "fetch", "--input", corpus, "--out", str(tmp_path / "out"),
                "--provider-url", server.url, "--cache", str(tmp_path / "cache.jsonl"),
            ]
        )
    assert code == 0
    assert "no fetched count cleared the match threshold" in caplog.text


def test_fetch_cli_doi_list_only(tmp_path, stub_provider, capsys):
    dois = tmp_path / "dois.txt"
    dois.write_text("# comment\n10.3/a\n10.3/b\n\n", encoding="utf-8")
    server = stub_provider({"10.3/a": (7, 0.95), "10.3/b": (8, 0.95)})
    code = main(
        [
            "fetch", "--dois", str(dois), "--provider-url", server.url,
            "--cache", str(tmp_path / "cache.jsonl"),
        ]
    )
    assert code == 0
    assert "resolved 2 dois: 2 matched, 0 below threshold, 0 failed" in capsys.readouterr().out


def test_fetch_cli_doi_list_with_a_byte_order_mark(tmp_path, stub_provider, capsys):
    dois = tmp_path / "dois.txt"
    dois.write_text("\ufeff10.3/a\n10.3/b\n", encoding="utf-8")
    server = stub_provider({"10.3/a": (7, 0.95), "10.3/b": (8, 0.95)})
    code = main(
        [
            "fetch", "--dois", str(dois), "--provider-url", server.url,
            "--cache", str(tmp_path / "cache.jsonl"),
        ]
    )
    assert code == 0
    assert "resolved 2 dois: 2 matched, 0 below threshold, 0 failed" in capsys.readouterr().out


def test_fetch_cli_requires_input_or_dois(tmp_path):
    code = main(
        ["fetch", "--provider-url", "http://x", "--cache", str(tmp_path / "cache.jsonl")]
    )
    assert code == 2


def test_fetch_cli_year_filter_resolves_and_writes_only_that_year(
    tmp_path, stub_provider, capsys, caplog
):
    records = make_records([3, 4], "Bio", 2010, prefix="10.7/a") + make_records(
        [5], "Bio", 2011, prefix="10.7/b"
    )
    corpus = write_corpus(tmp_path / "c.jsonl", records)
    server = stub_provider({"10.7/a-0000": (30, 0.99), "10.7/b-0000": (50, 0.99)})
    fetch = [
        "fetch", "--input", corpus, "--provider-url", server.url,
        "--cache", str(tmp_path / "cache.jsonl"),
    ]
    out = tmp_path / "out"
    assert main([*fetch, "--out", str(out), "--year", "2011"]) == 0
    assert "resolved 1 dois: 1 matched, 0 below threshold, 0 failed, 1 merged" in capsys.readouterr().out
    assert read_jsonl(out / "corpus.jsonl") == [
        {"id": "10.7/b-0000", "field": "Bio", "year": 2011, "reads": 50},
    ]
    assert server.requests == [["10.7/b-0000"]]

    with caplog.at_level("ERROR"):
        assert main([*fetch, "--out", str(tmp_path / "none"), "--year", "1999"]) == 1
    assert "no records loaded for the requested years" in caplog.text
    assert len(server.requests) == 1


def test_fetch_cli_unreachable_provider_exits_1(tmp_path):
    dois = tmp_path / "dois.txt"
    dois.write_text("10.4/a\n", encoding="utf-8")
    code = main(
        [
            "fetch", "--dois", str(dois), "--provider-url", "http://127.0.0.1:9",
            "--cache", str(tmp_path / "cache.jsonl"),
        ]
    )
    assert code == 1


# ---------------------------------------------------------------------------
# report, mirrors, exit codes


def test_report_writes_all_tables_quietly(two_field_corpus, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["report", "--input", two_field_corpus, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert stdout.strip() == f"report written to {out}"
    for name in ("fit", "collapse", "css_overall", "css_strata", "topz"):
        assert (out / f"{name}.tsv").exists()
        assert (out / f"{name}.jsonl").exists()
    assert (out / "ccdf_merged_2010.tsv").exists()


def test_report_has_no_format_option(two_field_corpus, tmp_path, capsys):
    # report echoes no table, so it offers no choice of echo format
    with pytest.raises(SystemExit) as info:
        main(["report", "--input", two_field_corpus, "--out", str(tmp_path), "--format", "tsv"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["report", "--help"])
    assert info.value.code == 0
    assert "--format" not in capsys.readouterr().out


def test_report_rerun_is_byte_identical(two_field_corpus, tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    main(["report", "--input", two_field_corpus, "--out", str(out1)])
    main(["report", "--input", two_field_corpus, "--out", str(out2)])
    names1 = sorted(p.name for p in out1.iterdir())
    names2 = sorted(p.name for p in out2.iterdir())
    assert names1 == names2
    match, mismatch, errors = filecmp.cmpfiles(out1, out2, names1, shallow=False)
    assert mismatch == [] and errors == []
    assert match == names1


def _two_year_corpus(tmp_path):
    """Two files, two years, an all-zero stratum and a one-record stratum."""
    first = make_records(MATHS_COUNTS, "Mathematics", 2010) + make_records(
        SURGERY_COUNTS, "Surgery", 2010
    )
    second = (
        make_records(SURGERY_COUNTS[::2], "Surgery", 2011, prefix="s11")
        + make_records(MATHS_COUNTS[1::2], "Mathematics", 2011, prefix="m11")
        + make_records([0, 0, 0, 0], "Silent", 2011)
        + make_records([7], "Lonely", 2011)
    )
    write_records(second, tmp_path / "b.csv")
    return [write_corpus(tmp_path / "a.jsonl", first), str(tmp_path / "b.csv")]


def _counting(monkeypatch, name, module=cli_mod):
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_report_parses_each_input_once_and_groups_once(tmp_path, monkeypatch):
    inputs = _two_year_corpus(tmp_path)
    # on one CPU the loader parses in this process, where its calls are counted
    monkeypatch.setattr(worker_mod, "_cpus", lambda: 1)
    parses = _counting(monkeypatch, "parse_into")
    # the cli imports stratify where it groups, so it is counted at home
    groupings = _counting(monkeypatch, "stratify", corpus_mod)
    io = [arg for path in inputs for arg in ("--input", path)]
    assert main(["report", *io, "--out", str(tmp_path / "out")]) == 0
    assert len(parses) == len(inputs)
    assert all(isinstance(sink, CorpusBuffers) for sink, *_ in parses)
    assert len(groupings) == 1


def test_report_equals_standalone_stages(tmp_path):
    inputs = _two_year_corpus(tmp_path)
    io = [arg for path in inputs for arg in ("--input", path)]
    fit = ["--zero-policy", "shift1", "--alpha", "0.01", "--m", "3"]
    css = ["--k", "2", "--css-strict", "gt"]
    topz = ["--z", "7", "--z", "30", "--tie-rule", "threshold"]
    joint, staged = tmp_path / "joint", tmp_path / "staged"
    assert main(["report", *io, "--out", str(joint), *fit, *css, *topz]) == 0
    for stage, flags in (("fit", fit), ("collapse", fit), ("css", css), ("topz", topz)):
        assert main([stage, *io, "--out", str(staged), *flags]) == 0
    names = sorted(p.name for p in joint.iterdir())
    assert names == sorted(p.name for p in staged.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(joint, staged, names, shallow=False)
    assert mismatch == [] and errors == [] and match == names


def test_topz_rows_are_in_year_order(tmp_path):
    # "Lonely" has only 2011 yet sorts before every field present in 2010.
    inputs = _two_year_corpus(tmp_path)
    io = [arg for path in inputs for arg in ("--input", path)]
    out = tmp_path / "out"
    assert main(["topz", *io, "--out", str(out)]) == 0
    years = [int(row["year"]) for row in read_tsv(out / "topz.tsv")]
    assert set(years) == {2010, 2011}
    assert years == sorted(years)


def _write_lines(path, rows):
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    return str(path)


def test_integer_and_real_strata_keep_their_reads_type(tmp_path, stub_provider):
    # one value parsed as a float makes its whole stratum real-valued
    rows = [
        {"id": "i-0", "field": "Ints", "year": 2010, "reads": 12},
        {"id": "r-0", "field": "Reals", "year": 2010, "reads": 12},
        {"id": "i-1", "field": "Ints", "year": 2010, "reads": 3},
        {"id": "r-1", "field": "Reals", "year": 2010, "reads": 4.5},
        {"id": "i-2", "field": "Ints", "year": 2010, "reads": 5},
        {"id": "r-2", "field": "Reals", "year": 2010, "reads": 7.0},
    ]
    corpus = _write_lines(tmp_path / "c.jsonl", rows)
    out = tmp_path / "out"
    assert main(["fit", "--input", corpus, "--out", str(out)]) == 0
    fit = {row["field"]: row for row in read_jsonl(out / "fit.jsonl")}
    assert fit["Ints"]["r_max"] == 12 and isinstance(fit["Ints"]["r_max"], int)
    assert fit["Reals"]["r_max"] == 12 and isinstance(fit["Reals"]["r_max"], float)
    assert {row["field"]: row["r_max"] for row in read_tsv(out / "fit.tsv")} == {
        "Ints": "12", "Reals": "12",
    }

    server = stub_provider({})
    assert main([
        "fetch", "--input", corpus, "--out", str(tmp_path / "fetched"),
        "--provider-url", server.url, "--cache", str(tmp_path / "cache.jsonl"),
    ]) == 0
    fetched = (tmp_path / "fetched" / "corpus.jsonl").read_text(encoding="utf-8")
    assert fetched == Path(corpus).read_text(encoding="utf-8")
    assert '"id": "r-0", "field": "Reals", "year": 2010, "reads": 12}' in fetched
    assert '"reads": 7.0}' in fetched


@pytest.mark.parametrize("big", [10**20, 2**63])
def test_integer_counts_from_2_to_the_63_keep_their_value(tmp_path, big):
    # an integer count that int64 cannot hold: r_max keeps it exactly, and
    # the statistics read it as the float64 the corpus holds
    counts = {"A": [big, 3, 5], "B": [4, 9]}
    rows = [
        {"id": f"{field}-{i}", "field": field, "year": 2010, "reads": value}
        for field, values in counts.items() for i, value in enumerate(values)
    ]
    corpus = _write_lines(tmp_path / "c.jsonl", rows)
    out = tmp_path / "out"
    src = str(Path(cli_mod.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-m", "readscale.cli", "report", "--input", corpus, "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert "RuntimeWarning" not in run.stderr
    mean = float(np.mean(np.array(counts["A"], dtype=float)))
    fit = {row["field"]: row for row in read_jsonl(out / "fit.jsonl")}
    assert fit["A"]["r_max"] == big and type(fit["A"]["r_max"]) is int
    assert fit["A"]["r0"] == mean and fit["B"]["r_max"] == 9
    css = {row["field"]: row for row in read_jsonl(out / "css_strata.jsonl")}
    assert css["A"]["beta1"] == mean


def test_within_stratum_input_order_reaches_collapse_and_ccdfs(tmp_path):
    # real values whose mean depends on summation order; each stratum is
    # split over two files and interleaved with the other stratum
    rng = np.random.default_rng(21)
    values = {"Alpha": rng.lognormal(1.0, 1.2, 300), "Beta": rng.lognormal(2.0, 0.8, 260)}
    for v in values.values():
        assert np.sort(v).mean() != v.mean()

    def rows(field, part):
        return [
            {"id": f"{field}-{i:03d}", "field": field, "year": 2010, "reads": float(values[field][i])}
            for i in part
        ]

    first = [r for pair in zip(rows("Alpha", range(150)), rows("Beta", range(150))) for r in pair]
    second = rows("Beta", range(150, 260)) + rows("Alpha", range(150, 300))
    inputs = [_write_lines(tmp_path / "a.jsonl", first), _write_lines(tmp_path / "b.jsonl", second)]
    io = [arg for path in inputs for arg in ("--input", path)]
    out = tmp_path / "out"
    assert main(["report", *io, "--out", str(out)]) == 0

    fit = {row["field"]: row for row in read_jsonl(out / "fit.jsonl")}
    rescaled = {}
    for field, v in values.items():
        assert fit[field]["r0"] == v.mean()
        rescaled[field] = v / v.mean()
        expected = tmp_path / f"{field}.tsv"
        write_ccdf_tsv(ccdf(rescaled[field]), expected)
        assert (out / f"ccdf_{field.lower()}_2010.tsv").read_bytes() == expected.read_bytes()
    pooled = np.concatenate([rescaled["Alpha"], rescaled["Beta"]])
    expected_fit = fit_lognormal(pooled, ZeroPolicy("exclude"))
    row = read_jsonl(out / "collapse.jsonl")[0]
    assert (row["mu"], row["sigma2"], row["loglik"]) == (
        expected_fit.mu, expected_fit.sigma2, expected_fit.loglik,
    )
    write_ccdf_tsv(ccdf(pooled), tmp_path / "merged.tsv")
    assert (out / "ccdf_merged_2010.tsv").read_bytes() == (tmp_path / "merged.tsv").read_bytes()


def test_topz_all_zero_note_names_every_skipped_stratum_in_field_order(tmp_path):
    # 2010: two all-zero strata, "Zulu" before "Alpha" in the input, beside
    # one field ranked; topz names both in (field, year) order.
    # 2011: one field only, which is all zero.
    records = (
        make_records([0, 0, 0], "Zulu", 2010, prefix="z")
        + make_records(SURGERY_COUNTS, "Surgery", 2010)
        + make_records([0, 0], "Alpha", 2010, prefix="a")
        + make_records([0, 0, 0, 0], "Alpha", 2011, prefix="a11")
    )
    corpus = write_corpus(tmp_path / "c.jsonl", records)
    out = tmp_path / "out"
    assert main(["topz", "--input", corpus, "--out", str(out), "--z", "10"]) == 0
    notes = {(row["year"], row["variant"]): row["note"] for row in read_jsonl(out / "topz.jsonl")}
    assert notes == {
        (2010, "original"): "",
        (2010, "rescaled"): "skipped all-zero strata: Alpha, Zulu; top-share analysis needs at least 2 fields",
        (2011, "original"): "top-share analysis needs at least 2 fields",
        (2011, "rescaled"): "skipped all-zero strata: Alpha; top-share analysis needs at least 2 fields",
    }


def test_topz_all_zero_and_empty_cut_are_reported_for_every_z(tmp_path, caplog):
    # the rescaled ranking of 2010 skips the all-zero "Alpha" and ranks the 9
    # records of the other two fields, as their year alone gives; 12 records
    # leave the top 5% and 8% empty, and 9 the top 10% too
    ranked = make_records([5, 3, 1, 1, 2], "Mid", 2010, prefix="m")
    ranked += make_records([4, 0, 2, 7], "Zulu", 2010, prefix="z")
    zs = ("5", "8", "10", "25")
    out = {}
    for name, records in (("ranked", ranked), ("all", make_records([0, 0, 0], "Alpha", 2010, prefix="a") + ranked)):
        corpus = write_corpus(tmp_path / f"{name}.jsonl", records)
        out[name] = tmp_path / name
        caplog.clear()
        with caplog.at_level("WARNING"):
            assert main(["topz", "--input", corpus, "--out", str(out[name])]
                        + [arg for z in zs for arg in ("--z", z)]) == 0
    skipped = "skipped all-zero strata: Alpha"
    rows = read_jsonl(out["all"] / "topz.jsonl")
    assert [(row["z"], row["variant"], row["note"]) for row in rows] == [
        (float(z), variant, skipped if variant == "rescaled" else "")
        for z in zs for variant in ("original", "rescaled")
    ]
    alone = {row["z"]: row for row in read_jsonl(out["ranked"] / "topz.jsonl") if row["variant"] == "rescaled"}
    for row in rows[1::2]:
        assert {**row, "note": ""} == alone[row["z"]]
        name = f"topz_shares_2010_z{row['z']:g}_rescaled.tsv"
        assert (out["all"] / name).read_bytes() == (out["ranked"] / name).read_bytes()
    messages = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert messages == [
        "top 5.0% of 12 records selects nothing",
        "top 5.0% of 9 records selects nothing",
        f"topz 2010 z=5 rescaled: {skipped}",
        "top 8.0% of 12 records selects nothing",
        "top 8.0% of 9 records selects nothing",
        f"topz 2010 z=8 rescaled: {skipped}",
        "top 10.0% of 9 records selects nothing",
        f"topz 2010 z=10 rescaled: {skipped}",
        f"topz 2010 z=25 rescaled: {skipped}",
    ]


def test_jsonl_mirror_has_full_precision(two_field_corpus, tmp_path):
    out = tmp_path / "out"
    main(["fit", "--input", two_field_corpus, "--out", str(out)])
    tsv_rows = read_tsv(out / "fit.tsv")
    json_rows = read_jsonl(out / "fit.jsonl")
    assert len(tsv_rows) == len(json_rows)
    surgery = next(r for r in json_rows if r["field"] == "Surgery")
    assert surgery["r0"] == 2074 / 96  # exact, not the rounded display value
    assert surgery["obs"] == 96
    assert isinstance(surgery["reject"], bool)


def test_format_flag_switches_stdout_echo(two_field_corpus, tmp_path, capsys):
    out = tmp_path / "out"
    main(["fit", "--input", two_field_corpus, "--out", str(out), "--format", "jsonl"])
    stdout_lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("{")]
    assert [json.loads(l) for l in stdout_lines] == read_jsonl(out / "fit.jsonl")


@pytest.mark.parametrize(
    "argv",
    [["--help"]]
    + [[c, "--help"] for c in ("ingest", "synth", "fetch", "fit", "collapse", "css", "topz", "report")],
)
def test_help_renders_cleanly(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_missing_input_file_exits_1(tmp_path):
    assert main(["fit", "--input", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path)]) == 1


def test_empty_year_filter_exits_1(two_field_corpus, tmp_path):
    code = main(
        ["fit", "--input", two_field_corpus, "--out", str(tmp_path), "--year", "1999"]
    )
    assert code == 1


def test_cli_run_as_a_module_logs_as_readscale_cli(two_field_corpus, tmp_path):
    src = str(Path(cli_mod.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    corpus = Path(two_field_corpus)
    with corpus.open("a", encoding="utf-8") as fh:
        fh.write('{"id": "bad", "field": "Surgery", "year": 2010, "reads": -1}\n')
    out = tmp_path / "out"
    run = subprocess.run(
        [sys.executable, "-m", "readscale.cli", "report", "--input", str(corpus), "--out", str(out)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert f"WARNING readscale.cli: {corpus}: skipped 1 malformed rows" in run.stderr
    assert f"INFO readscale.cli: wrote fit.tsv and fit.jsonl under {out}" in run.stderr
    assert "__main__" not in run.stderr


def test_importing_the_cli_leaves_scipy_special_unloaded():
    # scipy.special costs every command about 0.3 s; only normality tests need it
    src = str(Path(cli_mod.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import readscale.cli, sys; assert 'scipy.special' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_report_and_synth_runs_load_no_scipy(two_field_corpus, tmp_path):
    # Shapiro-Wilk and synth take ndtr/ndtri from readscale.normal, not scipy.special
    src = str(Path(cli_mod.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    report = ["report", "--input", two_field_corpus, "--out", str(tmp_path / "r")]
    synth = ["synth", "--spec", _spec_file(tmp_path), "--out", str(tmp_path / "s")]
    code = (
        "import sys; from readscale.cli import main\n"
        f"assert main({report!r}) == 0 and main({synth!r}) == 0\n"
        "assert 'readscale.normal' in sys.modules\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "assert not loaded, loaded\n"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    assert (tmp_path / "r" / "fit.tsv").exists() and (tmp_path / "s" / "corpus.jsonl").exists()


def test_importing_the_cli_leaves_requests_unloaded():
    # requests costs every command about 0.13 s; only fetch talks to a provider
    src = str(Path(cli_mod.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import readscale.cli, sys; assert 'requests' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


# every module that loads numpy
ANALYSIS_MODULES = ("corpus", "css", "distfit", "swilk", "normal", "rescale", "topz", "synth")


def test_importing_the_cli_loads_neither_numpy_nor_an_analysis_module():
    # numpy and the analysis modules cost every command about 0.1 s of start-up
    src = str(Path(cli_mod.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    modules = ["numpy"] + [f"readscale.{name}" for name in ANALYSIS_MODULES]
    code = (
        "import readscale.cli, sys\n"
        f"loaded = [m for m in {modules!r} if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_command_imports_leave_dataclasses_unloaded():
    # building dataclasses costs start-up 10-15 ms, and importing dataclasses
    # loads inspect; ingest and fetch load neither, the analysis commands no
    # dataclasses (numpy itself imports inspect)
    src = str(Path(cli_mod.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    analysis = ", ".join(f"readscale.{name}" for name in ANALYSIS_MODULES if name != "synth")
    code = (
        "import sys\n"
        "import readscale.cli, readscale.ingest, readscale.fetch\n"
        "loaded = [m for m in ('dataclasses', 'inspect') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
        f"import {analysis}\n"
        "assert 'dataclasses' not in sys.modules\n"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


@pytest.mark.parametrize("setup, expected", [
    ("", "1"),  # numpy not yet loaded: OpenBLAS is held to one thread
    ("os.environ['OMP_NUM_THREADS'] = '2'\n", None),  # the user's choice stands
    ("import numpy\n", None),  # too late to tell OpenBLAS
])
def test_one_blas_thread_only_before_numpy_and_without_a_user_choice(setup, expected):
    src = str(Path(cli_mod.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in cli_mod.BLAS_THREAD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import os\n"
        + setup
        + "import readscale.cli\n"
        "readscale.cli._one_blas_thread()\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    )
    run = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True)
    assert run.stdout == f"{expected}\n"


def test_report_reads_every_stratum_as_a_view_of_the_grouped_reads(tmp_path, monkeypatch):
    # each stage takes every year's strata; each stratum's reads are a
    # read-only float64 view of the grouped corpus's column, never a copy
    loaded, made = [], []
    load, init = cli_mod._load_strata, corpus_mod.Stratum.__init__

    def loading(*args):
        loaded.append(load(*args))
        return loaded[-1]

    def making(self, key, reads, real):
        made.append((key, reads, real))
        init(self, key, reads, real)

    monkeypatch.setattr(cli_mod, "_load_strata", loading)
    monkeypatch.setattr(corpus_mod.Stratum, "__init__", making)
    monkeypatch.setattr(worker_mod, "forks", lambda: False)  # every task runs in this process
    records = [
        r for year in (2010, 2011) for field in ("A", "B", "C")
        for r in make_records([1, 4, 2, 7], field, year, prefix=f"{field}{year}")
    ] + [PublicationRecord("C2011-real", "C", 2011, 2.5)]
    corpus = write_corpus(tmp_path / "c.jsonl", records)
    assert main(["report", "--input", corpus, "--out", str(tmp_path / "out")]) == 0
    (strata,) = loaded
    assert {key for key, _, _ in made} == {GroupKey(f, y) for f in ("A", "B", "C") for y in (2010, 2011)}
    for key, reads, real in made:
        assert reads.dtype == np.float64 and not reads.flags.writeable
        assert np.shares_memory(reads, strata.corpus.reads)
        assert real == (key == GroupKey("C", 2011))


def test_ingest_and_fetch_run_without_numpy(tmp_path, stub_provider):
    src = str(Path(cli_mod.__file__).resolve().parents[1])
    env = dict(
        os.environ, NO_PROXY="127.0.0.1", no_proxy="127.0.0.1",
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    )
    raw = tmp_path / "raw.csv"
    raw.write_text(
        "id,field,year,reads,cites\n10.6/bio-0000,Bio,2010,3,1\n10.6/bio-0001,Bio,2010,4,\n"
        "10.6/bio-0002,Bio,frog,5,\n10.6/bio-0000,Bio,2010,6,\n",
        encoding="utf-8",
    )
    server = stub_provider({"10.6/bio-0000": (30, 0.99), "10.6/bio-0001": (40, 0.5)})
    ingest = ["ingest", "--input", str(raw), "--out", str(tmp_path / "in")]
    fetch = [
        "fetch", "--input", str(tmp_path / "in" / "corpus.jsonl"), "--out", str(tmp_path / "out"),
        "--provider-url", server.url, "--cache", str(tmp_path / "cache.jsonl"),
    ]
    code = (
        "import sys; sys.modules['numpy'] = None  # import numpy now fails\n"
        "from readscale.cli import main\n"
        f"assert main({ingest!r}) == 0 and main({fetch!r}) == 0\n"
    )
    run = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True)
    assert run.stdout.splitlines() == [
        "accepted 2 rejected 2",
        "resolved 2 dois: 1 matched, 1 below threshold, 0 failed, 1 merged",
    ]
    assert read_jsonl(tmp_path / "out" / "corpus.jsonl") == [
        {"id": "10.6/bio-0000", "field": "Bio", "year": 2010, "reads": 30, "cites": 1},
        {"id": "10.6/bio-0001", "field": "Bio", "year": 2010, "reads": 4},
    ]


@pytest.mark.parametrize("content, years, message", [
    ("", [], "no records loaded"),
    ('{"id": "10.6/a", "field": "Bio", "year": 2010, "reads": 3}\n', ["--year", "2011"],
     "no records loaded for the requested years"),
])
def test_fetch_of_no_records_fails_cleanly_without_numpy(tmp_path, content, years, message):
    src = str(Path(cli_mod.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(content, encoding="utf-8")
    fetch = [
        "fetch", "--input", str(corpus), *years, "--out", str(tmp_path / "out"),
        "--provider-url", "http://127.0.0.1:9", "--cache", str(tmp_path / "cache.jsonl"),
    ]
    code = (
        "import sys; sys.modules['numpy'] = None  # import numpy now fails\n"
        "from readscale.cli import main\n"
        f"sys.exit(main({fetch!r}))\n"
    )
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stdout, run.stderr) == (1, "", f"ERROR readscale.cli: {message}\n")
    assert not (tmp_path / "out").exists()


def test_empty_corpus_error_is_one_class_and_needs_no_numpy():
    import readscale
    from readscale import ingest

    assert readscale.EmptyCorpusError is corpus_mod.EmptyCorpusError is ingest.EmptyCorpusError


def test_fetch_run_leaves_requests_unloaded(tmp_path, stub_provider):
    # the provider client speaks HTTP through the standard library
    src = str(Path(cli_mod.__file__).resolve().parents[1])
    env = dict(
        os.environ, NO_PROXY="127.0.0.1", no_proxy="127.0.0.1",
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    )
    corpus = write_corpus(tmp_path / "c.jsonl", make_records([3, 4], "Bio", 2010, prefix="10.6/bio"))
    server = stub_provider({"10.6/bio-0000": (30, 0.99), "10.6/bio-0001": (40, 0.5)})
    fetch = [
        "fetch", "--input", corpus, "--out", str(tmp_path / "out"),
        "--provider-url", server.url, "--cache", str(tmp_path / "cache.jsonl"),
    ]
    code = (
        "import sys; from readscale.cli import main\n"
        f"assert main({fetch!r}) == 0\n"
        "assert 'readscale.fetch' in sys.modules and 'requests' not in sys.modules\n"
    )
    run = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True)
    assert "resolved 2 dois: 1 matched, 1 below threshold, 0 failed, 1 merged" in run.stdout
    assert server.request_count == 1


def test_a_warm_cache_loads_no_http_client(tmp_path):
    src = str(Path(cli_mod.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    corpus = write_corpus(tmp_path / "c.jsonl", make_records([3, 4], "Bio", 2010, prefix="10.6/bio"))
    cache = tmp_path / "cache.jsonl"
    cache.write_text(
        "".join(
            json.dumps({"doi": f"10.6/bio-000{i}", "reads": 30 + i, "match_probability": 0.95, "fetched_at": 1.0})
            + "\n"
            for i in range(2)
        ),
        encoding="utf-8",
    )
    fetch = [
        "fetch", "--input", corpus, "--out", str(tmp_path / "out"),
        "--provider-url", "http://127.0.0.1:9", "--cache", str(cache),
    ]
    code = (
        "import sys\n"
        "client = {'urllib.request', 'http.client', 'concurrent.futures'}\n"
        "import readscale.fetch\n"
        "assert not client & set(sys.modules), client & set(sys.modules)\n"
        "import readscale.cli as cli\n"
        "import readscale.worker as worker\n"
        "worker.forks = lambda: False  # in sequence: a forked reader's parent loads the client meanwhile\n"
        f"assert cli.main({fetch!r}) == 0\n"
        "assert not client & set(sys.modules), client & set(sys.modules)\n"
    )
    run = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True)
    assert run.stdout == "resolved 2 dois: 2 matched, 0 below threshold, 0 failed, 2 merged\n"


def test_fetch_cli_merges_only_corpus_rows_with_extra_dois(tmp_path, stub_provider, capsys):
    records = make_records([3, 4], "Bio", 2010, prefix="10.5/bio")
    corpus = write_corpus(tmp_path / "c.jsonl", records)
    dois = tmp_path / "dois.txt"
    dois.write_text("10.5/extra\n10.5/bio-0001\n", encoding="utf-8")
    server = stub_provider({"10.5/bio-0001": (40, 0.99), "10.5/extra": (7, 0.99)})
    out = tmp_path / "out"
    code = main([
        "fetch", "--input", corpus, "--dois", str(dois), "--out", str(out),
        "--provider-url", server.url, "--cache", str(tmp_path / "cache.jsonl"),
    ])
    assert code == 0
    assert (
        "resolved 4 dois: 3 matched, 0 below threshold, 1 failed, 1 merged"
        in capsys.readouterr().out
    )
    assert {r["id"]: r["reads"] for r in read_jsonl(out / "corpus.jsonl")} == {
        "10.5/bio-0000": 3, "10.5/bio-0001": 40,
    }
