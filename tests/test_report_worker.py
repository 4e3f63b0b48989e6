"""``report`` with collapse in a forked worker: the same tables, stdout, log
and exit code as the four stages in sequence, and no process left behind."""
from __future__ import annotations

import errno
import functools
import logging
import os
import signal
import threading
import time
from pathlib import Path

import pytest

import readscale.cli as cli_mod
import readscale.worker as worker_mod
from conftest import MATHS_COUNTS, SURGERY_COUNTS, make_records, open_fds
from readscale.cli import main
from readscale.ingest import write_records

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the worker is forked")


@pytest.fixture
def inputs(tmp_path):
    """Two years in two files, with an all-zero stratum and two labels that
    share a CCDF file name, so that collapse logs warnings."""
    first = (
        make_records(MATHS_COUNTS, "Mathematics", 2010)
        + make_records(SURGERY_COUNTS, "Bio Chem", 2010, prefix="bc")
        + make_records(SURGERY_COUNTS[::3], "bio-chem", 2010, prefix="bc2")
        + make_records([0, 0, 0], "Silent", 2010)
    )
    second = (
        make_records(SURGERY_COUNTS[::2], "Surgery", 2011)
        + make_records(MATHS_COUNTS[1::2], "Mathematics", 2011, prefix="m11")
        + make_records([0, 0, 0, 0], "Silent", 2011, prefix="s11")
    )
    write_records(first, tmp_path / "a.jsonl", format="line-json")
    write_records(second, tmp_path / "b.csv")
    return ["--input", str(tmp_path / "a.jsonl"), "--input", str(tmp_path / "b.csv")]


@pytest.fixture
def collapse_pids(tmp_path, monkeypatch):
    """The pid of each process that ran collapse, read back after the run."""
    path = tmp_path / "collapse_pids"
    original = cli_mod.cmd_collapse

    @functools.wraps(original)
    def cmd_collapse(args, strata):
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return original(args, strata)

    monkeypatch.setattr(cli_mod, "cmd_collapse", cmd_collapse)
    return lambda: [int(pid) for pid in path.read_text(encoding="utf-8").split()]


def _cpus(monkeypatch, n):
    monkeypatch.setattr(worker_mod, "_cpus", lambda: n)


def _report(argv, out: Path, capsys, caplog):
    """(exit code, stdout, log records) of one report, its --out as OUT."""
    caplog.clear()
    code = main(["report", *argv, "--out", str(out)])
    stdout = capsys.readouterr().out.replace(str(out), "OUT")
    records = [(r.name, r.levelname, r.getMessage().replace(str(out), "OUT")) for r in caplog.records]
    return code, stdout, records


def _tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_forked_and_sequential_reports_match(inputs, tmp_path, capsys, caplog, monkeypatch, collapse_pids):
    caplog.set_level(logging.INFO)
    _cpus(monkeypatch, 2)
    forked = _report(inputs, tmp_path / "forked", capsys, caplog)
    (worker,) = collapse_pids()
    assert worker != os.getpid()

    _cpus(monkeypatch, 1)
    sequential = _report(inputs, tmp_path / "sequential", capsys, caplog)
    assert collapse_pids()[1:] == [os.getpid()]

    assert forked == sequential
    code, stdout, records = forked
    assert code == 0 and stdout == "report written to OUT\n"
    warnings = [message for _, level, message in records if level == "WARNING"]
    assert "stratum Silent/2010 has only zero counts; skipped" in warnings
    assert any("ccdf of 'bio-chem' not written" in message for message in warnings)
    assert _tree(tmp_path / "forked") == _tree(tmp_path / "sequential")
    with pytest.raises(ChildProcessError):  # the worker was reaped
        os.waitpid(worker, os.WNOHANG)


def test_a_running_thread_keeps_report_in_one_process(inputs, tmp_path, monkeypatch, collapse_pids):
    _cpus(monkeypatch, 2)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    thread.start()
    try:
        assert main(["report", *inputs, "--out", str(tmp_path / "out")]) == 0
    finally:
        release.set()
        thread.join(10)
    assert not thread.is_alive()
    assert collapse_pids() == [os.getpid()]


def test_killed_worker_fails_the_run(inputs, tmp_path, capsys, caplog, monkeypatch):
    _cpus(monkeypatch, 2)

    def cmd_collapse(args, strata):
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(cli_mod, "cmd_collapse", cmd_collapse)
    code, stdout, records = _report(inputs, tmp_path / "out", capsys, caplog)
    assert code == 1 and stdout == ""
    assert records[-1] == (
        "readscale.cli", "ERROR", f"the collapse worker was killed by signal {int(signal.SIGKILL)}",
    )


def test_collapse_failure_reads_as_in_sequence(inputs, tmp_path, capsys, caplog, monkeypatch):
    caplog.set_level(logging.INFO)
    original = cli_mod.cmd_collapse

    @functools.wraps(original)
    def cmd_collapse(args, strata):
        original(args, strata)
        raise OSError(28, "No space left on device", str(Path(args.out) / "collapse.tsv"))

    monkeypatch.setattr(cli_mod, "cmd_collapse", cmd_collapse)
    runs = []
    for cpus in (2, 1):
        _cpus(monkeypatch, cpus)
        runs.append(_report(inputs, tmp_path / "out", capsys, caplog))
    assert runs[0] == runs[1]
    code, stdout, records = runs[0]
    assert code == 1 and stdout == ""
    assert records[-1] == (
        "readscale.cli", "ERROR", "[Errno 28] No space left on device: 'OUT/collapse.tsv'",
    )


@pytest.mark.parametrize("stage", ["cmd_fit", "cmd_css"])
def test_parent_stage_failure_reaps_the_worker(stage, inputs, tmp_path, capsys, caplog, monkeypatch):
    caplog.set_level(logging.INFO)
    original = getattr(cli_mod, stage)

    def failing(args, strata):
        original(args, strata)
        raise ValueError(f"{stage} failed")

    monkeypatch.setattr(cli_mod, stage, failing)
    _cpus(monkeypatch, 1)
    sequential = _report(inputs, tmp_path / "out", capsys, caplog)

    _cpus(monkeypatch, 2)
    started = tmp_path / "collapse_started"
    original_collapse = cli_mod.cmd_collapse

    @functools.wraps(original_collapse)
    def cmd_collapse(args, strata):
        started.write_text(str(os.getpid()), encoding="utf-8")
        if stage == "cmd_fit":  # collapse is still running when fit fails: the worker is killed
            time.sleep(60)
        return original_collapse(args, strata)

    def failing_after_collapse_started(args, strata):
        deadline = time.monotonic() + 30
        while not started.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        return failing(args, strata)

    monkeypatch.setattr(cli_mod, "cmd_collapse", cmd_collapse)
    monkeypatch.setattr(cli_mod, stage, failing_after_collapse_started)
    begun = time.monotonic()
    forked = _report(inputs, tmp_path / "out", capsys, caplog)
    assert time.monotonic() - begun < 30

    assert forked == sequential
    assert forked[0] == 1 and forked[2][-1] == ("readscale.cli", "ERROR", f"{stage} failed")
    worker = int(started.read_text(encoding="utf-8"))
    assert worker != os.getpid()
    with pytest.raises(ChildProcessError):  # reaped: neither running nor left unwaited
        os.waitpid(worker, os.WNOHANG)


def test_failed_fork_runs_collapse_in_process(inputs, tmp_path, capsys, caplog, monkeypatch, collapse_pids):
    caplog.set_level(logging.INFO)
    _cpus(monkeypatch, 1)
    sequential = _report(inputs, tmp_path / "sequential", capsys, caplog)

    def fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork)
    _cpus(monkeypatch, 2)
    fds = open_fds()
    failed_fork = _report(inputs, tmp_path / "failed_fork", capsys, caplog)
    assert open_fds() == fds  # the pipe to the worker that never was is closed

    assert failed_fork == sequential and failed_fork[0] == 0
    assert collapse_pids() == [os.getpid(), os.getpid()]
    assert _tree(tmp_path / "failed_fork") == _tree(tmp_path / "sequential")


def test_failed_channel_runs_every_worker_in_process(inputs, tmp_path, capsys, caplog, monkeypatch, collapse_pids):
    caplog.set_level(logging.INFO)
    _cpus(monkeypatch, 1)
    sequential = _report(inputs, tmp_path / "sequential", capsys, caplog)

    def channel():
        raise OSError(errno.EMFILE, "Too many open files")

    monkeypatch.setattr(worker_mod, "_channel", channel)
    _cpus(monkeypatch, 2)
    fds = open_fds()
    failed_channel = _report(inputs, tmp_path / "failed_channel", capsys, caplog)
    assert open_fds() == fds

    assert failed_channel == sequential and failed_channel[0] == 0
    assert collapse_pids() == [os.getpid(), os.getpid()]
    assert _tree(tmp_path / "failed_channel") == _tree(tmp_path / "sequential")
