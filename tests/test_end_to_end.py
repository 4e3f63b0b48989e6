"""The analysis commands end to end, each run in a child process pinned to one
CPU and to two (see :func:`conftest.pinned`). On one CPU report runs its tasks
and loads its inputs in its main process; on two it shares the tasks with a
forked worker and parses small inputs in a forked loader. The --out tree,
stdout, stderr and exit code of the two runs match byte for byte, and each
case checks what the commands say about its inputs.

The fetch and ingest cases are in test_fetch_columns.py and
test_ingest_stream.py. All of them run offline with one command:

    PYTHONPATH=src python -m pytest tests/test_end_to_end.py tests/test_fetch_columns.py tests/test_ingest_stream.py
"""
from __future__ import annotations

import json
from pathlib import Path

from conftest import ONE, TWO, alike, needs_two_cpus, pinned, pinned_out, synth_corpus

pytestmark = needs_two_cpus

THREE_FIELDS = Path(__file__).parent / "data" / "three_fields.json"
ASTRO = {"label": "Astro", "n": 300, "mu": 2.0, "sigma2": 1.1}
BIO_CHEM = {"label": "Bio Chem", "n": 250, "mu": 2.5, "sigma2": 0.9}
MATHS = {"label": "Maths", "n": 40, "mu": 1.2, "sigma2": 0.6}


def _rows(data: bytes) -> list[dict]:
    return [json.loads(line) for line in data.decode().splitlines()]


def test_report_reruns_alike_on_one_and_two_cpus(tmp_path):
    synth_corpus(tmp_path / "corpus", json.loads(THREE_FIELDS.read_text()))
    argv = ["report", "--input", "corpus/corpus.jsonl"]
    first = pinned_out(TWO, argv, tmp_path)
    assert first == pinned_out(TWO, argv, tmp_path)  # a rerun writes the same bytes
    code, _, _, out = first
    assert code == 0 and out["fit.tsv"] and out["topz.tsv"]
    assert pinned_out(ONE, argv, tmp_path) == first


def test_multi_year_report_and_collapse_read_alike_on_one_and_two_cpus(tmp_path):
    # three synth years, each with an all-zero field and a label, "bio-chem",
    # whose CCDF file name "Bio Chem" already has
    years = []
    for year in (2013, 2014, 2015):
        spec = {"year": year, "seed": year, "zero_inflation": 0.05, "fields": [ASTRO, BIO_CHEM, MATHS]}
        lines = synth_corpus(tmp_path / f"synth{year}", spec).read_text().splitlines(keepends=True)
        for i in range(1, 6):
            lines.append(f'{{"id": "silent-{year}-{i}", "field": "Silent", "year": {year}, "reads": 0}}\n')
            lines.append(f'{{"id": "bc-{year}-{i}", "field": "bio-chem", "year": {year}, "reads": {i}}}\n')
        years.append(lines)
    (tmp_path / "corpus.jsonl").write_text("".join(line for lines in years for line in lines))
    # the years' lines round-robin: each stratum's lines keep their order, so
    # the grouping sort moves rows across years and every output matches
    (tmp_path / "interleaved.jsonl").write_text("".join(map("".join, zip(*years, strict=True))))
    for command in ("report", "collapse"):
        run = alike(tmp_path, [command, "--input", "corpus.jsonl"])
        code, _, stderr, _ = run
        assert code == 0
        assert "stratum Silent/2014 has only zero counts; skipped" in stderr
        assert "ccdf of 'bio-chem' not written" in stderr
        if command == "report":
            for cpus in (ONE, TWO):
                assert pinned_out(cpus, [command, "--input", "interleaved.jsonl"], tmp_path) == run
    # --out a regular file: the run fails before any stage logs
    (tmp_path / "outfile").touch()
    runs = [pinned(cpus, ["topz", "--input", "corpus.jsonl", "--out", "outfile"], tmp_path) for cpus in (ONE, TWO)]
    assert [code for code, _, _ in runs] == [1, 1]
    assert runs[0][2] == runs[1][2]
    assert "File exists" in runs[0][2]


def _fit_table(out: dict) -> list[list[str]]:
    return [line.split("\t") for line in out["fit.tsv"].decode().split("\n")[:-1]]


def test_edge_inputs_read_alike_on_one_and_two_cpus(tmp_path):
    # labels with a tab and a line feed, and labels with a backslash and a tab
    for name, labels in (("labels", (("Alpha\tBeta", 1), ("Gamma\nDelta", 3))),
                         ("slashes", (("C:\\temp", 1), ("C:\temp", 3)))):
        rows = [{"id": f"{base}-{i}", "field": label, "year": 2010, "reads": base + i}
                for label, base in labels for i in range(12)]
        (tmp_path / f"{name}.jsonl").write_text("".join(json.dumps(row) + "\n" for row in rows))
    # an integer count beyond 2^63
    (tmp_path / "big.jsonl").write_text("".join(
        f'{{"id": "{i}", "field": "{f}", "year": 2010, "reads": {r}}}\n'
        for i, f, r in (("a1", "A", 10**20), ("a2", "A", 3), ("a3", "A", 5), ("b1", "B", 4), ("b2", "B", 9))
    ))
    # a stratum whose reads sum beyond float range, beside two that can be rescaled
    huge = [("Huge", 1e308)] * 3 + [("Mid", r) for r in (3, 0, 5, 1, 8, 2)] + [("Top", r) for r in (9, 4, 7, 12)]
    (tmp_path / "huge.jsonl").write_text("".join(
        json.dumps({"id": f"h{i}", "field": f, "year": 2010, "reads": r}) + "\n" for i, (f, r) in enumerate(huge)
    ))
    (tmp_path / "spec.json").write_text(
        '{"year": 2015.7, "seed": 7, "fields": [{"label": "Astro", "n": 30, "mu": 2.0, "sigma2": 1.1}]}'
    )
    runs = {name: alike(tmp_path, argv) for name, argv in {
        "labels": ["fit", "--input", "labels.jsonl"],
        "slashes": ["fit", "--input", "slashes.jsonl"],
        "big": ["report", "--input", "big.jsonl"],
        "huge": ["report", "--input", "huge.jsonl"],
        "synth": ["synth", "--spec", "spec.json"],
    }.items()}
    for name in ("labels", "slashes", "big", "huge"):
        assert runs[name][0] == 0, runs[name][2]
    # one fit.tsv row per stratum, each on one line with every cell
    for name in ("labels", "slashes"):
        table = _fit_table(runs[name][3])
        assert len(table) == 3 and {len(row) for row in table} == {len(table[0])}
    assert [row[0] for row in _fit_table(runs["slashes"][3])] == ["field", "C:\\temp", "C:\\\\temp"]
    # the exact r_max, and no numpy warning
    assert b'"r_max": 100000000000000000000' in runs["big"][3]["fit.jsonl"]
    assert "RuntimeWarning" not in runs["big"][2]
    # the sum beyond float range: no numpy warning, no infinite mean reported
    # or divided by; collapse and the rescaled top-z% skip the stratum
    _, _, stderr, out = runs["huge"]
    assert "Warning:" not in stderr
    assert "stratum Huge/2010 has reads that sum beyond float range; skipped" in stderr
    fit = {row["field"]: row for row in _rows(out["fit.jsonl"])}
    assert fit["Huge"]["r0"] is None and fit["Huge"]["note"].startswith("r0 failed: sum beyond float range")
    assert fit["Mid"]["r0"] == 19 / 6 and fit["Mid"]["note"] == ""
    (collapse,) = _rows(out["collapse.jsonl"])
    skipped = "skipped strata summing beyond float range: Huge"
    assert (collapse["n_strata"], collapse["obs"], collapse["note"]) == (2, 10, skipped)
    assert "ccdf_huge_2010.tsv" not in out
    css = {row["field"]: row for row in _rows(out["css_strata.jsonl"])}
    assert (css["Huge"]["beta1"], css["Huge"]["count_I"], css["Huge"]["count_II"]) == (1e308, 0, 3)
    (overall,) = _rows(out["css_overall.jsonl"])
    assert overall["beta1"] is None and overall["note"] == "scores failed: sum beyond float range"
    for row in _rows(out["topz.jsonl"]):
        expected = (3, "") if row["variant"] == "original" else (2, skipped)
        assert (row["n_fields"], row["note"]) == expected
    # a fractional year is refused, and no --out made
    code, _, stderr, out = runs["synth"]
    assert (code, out) == (1, None) and "not an integer: 2015.7" in stderr


def test_dirty_and_mixed_inputs_load_alike_in_a_forked_loader_and_in_process(tmp_path):
    spec = {"year": 2015, "seed": 3, "zero_inflation": 0.05, "fields": [
        {"label": "Astro", "n": 3000, "mu": 2.0, "sigma2": 1.1},
        {"label": "Bio Chem", "n": 2500, "mu": 2.5, "sigma2": 0.9}]}
    lines = synth_corpus(tmp_path / "corpus", spec).read_text().splitlines(keepends=True)
    # one negative-reads line in the middle of more than one 4096-line chunk
    dirty = [*lines[:2750], '{"id": "bad-1", "field": "Astro", "year": 2015, "reads": -1}\n', *lines[2750:]]
    assert len(dirty) == 5501
    (tmp_path / "dirty.jsonl").write_text("".join(dirty))
    part = [*lines[:5], '{"id": "odd", "field": "Astro", "year": 2015, "reads": 1, "note": "x"}\n', *lines[5:400]]
    (tmp_path / "part.jsonl").write_text("".join(part))
    (tmp_path / "part.csv").write_text(
        "id,field,year,reads,junk\nc1,Maths,2015,3,x\nc2,Maths,2015,5,x\nc3,Maths,2015,-1,x\nc4,Maths,2015,0,x\n"
    )
    (tmp_path / "noreads.csv").write_text("id,field,year,cites\na,Astro,2015,1\n")
    clean = alike(tmp_path, ["report", "--input", "corpus/corpus.jsonl"])
    code, _, stderr, out = alike(tmp_path, ["report", "--input", "dirty.jsonl"])
    # the bad line is skipped and named, and the tables are the clean corpus's
    assert clean[0] == code == 0 and out == clean[3]
    assert "dirty.jsonl: skipped 1 malformed rows" in stderr
    alike(tmp_path, ["report", "--input", "part.jsonl", "--input", "part.csv"])
    _, _, stderr, _ = alike(tmp_path, ["report", "--input", "noreads.csv"])
    assert "ERROR readscale.cli: missing mandatory column: 'reads'" in stderr.splitlines()
