"""The analysis commands with their (stage, year) tasks shared between the
main process and a forked worker: the same tables, stdout, log and exit code
as on one CPU, every ``--out`` file created by the main process, failures
that read as in sequence, and no process or descriptor left behind."""
from __future__ import annotations

import builtins
import errno
import io
import json
import logging
import os
import signal
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import readscale.cli as cli_mod
import readscale.worker as worker_mod
from conftest import MATHS_COUNTS, SURGERY_COUNTS, make_records, open_fds, tree
from readscale.cli import main
from readscale.ingest import Columns, write_records

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


class TaskLog:
    """Which process ran each (stage, year) task, read back from a file that
    the stages' year functions append to. With :attr:`meet` set, a task
    waits (up to 30 s) until both processes have started one, so that a
    forked worker surely takes part; :attr:`fail` maps a task to the
    exception it raises after it has run."""

    def __init__(self, path: Path):
        self.path = path
        self.meet = False
        self.fail: dict[tuple[str, int], BaseException] = {}

    def wrap(self, stage, fn):
        def year_fn(args, strata, out):
            (year,) = strata.years()
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(f"{stage} {year} {os.getpid()}\n")
            deadline = time.monotonic() + 30
            while self.meet and len(self.pids()) < 2 and time.monotonic() < deadline:
                time.sleep(0.002)
            rows = fn(args, strata, out)
            if (stage, year) in self.fail:
                raise self.fail[stage, year]
            return rows

        return year_fn

    def ran(self) -> list[tuple[str, int, int]]:
        if not self.path.exists():
            return []
        lines = self.path.read_text(encoding="utf-8").split("\n")
        return [(stage, int(year), int(pid)) for stage, year, pid in map(str.split, filter(None, lines))]

    def pids(self) -> set[int]:
        return {pid for *_, pid in self.ran()}

    def take(self) -> list[tuple[str, int, int]]:
        """The tasks run since the last take."""
        ran = self.ran()
        self.path.unlink(missing_ok=True)
        return ran


@pytest.fixture
def task_log(tmp_path, monkeypatch):
    log = TaskLog(tmp_path / "task_log")
    for name, stage in list(cli_mod.STAGES.items()):
        monkeypatch.setitem(cli_mod.STAGES, name, stage._replace(run=log.wrap(name, stage.run)))
    return log


def _cpus(monkeypatch, n):
    monkeypatch.setattr(worker_mod, "_cpus", lambda: n)


def _run(argv, out: Path, capsys, caplog, command="report"):
    """(exit code, stdout, log records) of one command, its --out as OUT."""
    caplog.clear()
    code = main([command, *argv, "--out", str(out)])
    stdout = capsys.readouterr().out.replace(str(out), "OUT")
    records = [(r.name, r.levelname, r.getMessage().replace(str(out), "OUT")) for r in caplog.records]
    return code, stdout, records


def _reaped(pid: int) -> bool:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_forked_and_sequential_reports_match(inputs, tmp_path, capsys, caplog, monkeypatch, task_log):
    caplog.set_level(logging.INFO)
    _cpus(monkeypatch, 2)
    task_log.meet = True
    shared = _run(inputs, tmp_path / "shared", capsys, caplog)
    ran = task_log.take()
    (worker,) = {pid for *_, pid in ran} - {os.getpid()}
    assert {pid for *_, pid in ran} == {worker, os.getpid()}
    assert sorted(task for *task, _ in ran) == sorted(
        [stage, year] for stage in cli_mod.STAGES for year in (2010, 2011)
    )

    _cpus(monkeypatch, 1)
    task_log.meet = False
    sequential = _run(inputs, tmp_path / "sequential", capsys, caplog)
    assert {pid for *_, pid in task_log.take()} == {os.getpid()}

    assert shared == sequential
    code, stdout, records = shared
    assert code == 0 and stdout == "report written to OUT\n"
    warnings = [message for _, level, message in records if level == "WARNING"]
    assert "stratum Silent/2010 has only zero counts; skipped" in warnings
    assert any("ccdf of 'bio-chem' not written" in message for message in warnings)
    assert tree(tmp_path / "shared") == tree(tmp_path / "sequential")
    assert _reaped(worker)


def _rows(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def test_per_stratum_rows_merge_into_field_then_year_order(inputs, tmp_path, monkeypatch, task_log):
    _cpus(monkeypatch, 2)
    task_log.meet = True
    assert main(["report", *inputs, "--out", str(tmp_path)]) == 0
    for table in ("fit", "css_strata"):
        keys = [(row["field"], row["year"]) for row in _rows(tmp_path / f"{table}.jsonl")]
        assert keys == [
            ("Bio Chem", 2010), ("Mathematics", 2010), ("Mathematics", 2011),
            ("Silent", 2010), ("Silent", 2011), ("Surgery", 2011), ("bio-chem", 2010),
        ]
    for table in ("collapse", "css_overall"):
        assert [row["year"] for row in _rows(tmp_path / f"{table}.jsonl")] == [2010, 2011]


@pytest.mark.parametrize("command", ["fit", "collapse", "css", "topz"])
@pytest.mark.parametrize("fmt", ["tsv", "jsonl"])
def test_single_stage_shared_and_sequential_match(command, fmt, inputs, tmp_path, capsys, caplog, monkeypatch, task_log):
    caplog.set_level(logging.INFO)
    runs = []
    for cpus in (2, 1):
        _cpus(monkeypatch, cpus)
        task_log.meet = cpus == 2  # two years: a task for each process
        runs.append(_run([*inputs, "--format", fmt], tmp_path / f"cpus{cpus}", capsys, caplog, command))
        assert len({pid for *_, pid in task_log.take()}) == cpus
    assert runs[0] == runs[1] and runs[0][0] == 0 and runs[0][1]
    assert tree(tmp_path / "cpus2") == tree(tmp_path / "cpus1")


@pytest.fixture
def creators(tmp_path, monkeypatch):
    """Each (pid, path) that the run opened for writing, through ``open``,
    ``io.open`` (``Path.write_text``) or ``os.open``, in any process."""
    path = tmp_path / "creators"
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    original_open, original_os_open = io.open, os.open

    def note(file):
        os.write(fd, f"{os.getpid()}\t{file}\n".encode())

    def opener(file, mode="r", *args, **kwargs):
        if set(mode) & set("wax+"):
            note(file)
        return original_open(file, mode, *args, **kwargs)

    def os_open(file, flags, *args, **kwargs):
        if flags & (os.O_WRONLY | os.O_RDWR | os.O_CREAT):
            note(file)
        return original_os_open(file, flags, *args, **kwargs)

    monkeypatch.setattr(io, "open", opener)
    monkeypatch.setattr(builtins, "open", opener)
    monkeypatch.setattr(os, "open", os_open)
    yield lambda: [(int(pid), name) for pid, name in (line.split("\t") for line in path.read_text().splitlines())]
    os.close(fd)


def test_every_out_file_is_created_by_the_main_process(inputs, tmp_path, capsys, caplog, monkeypatch, task_log, creators):
    _cpus(monkeypatch, 2)
    task_log.meet = True
    out = tmp_path / "out"
    assert _run(inputs, out, capsys, caplog)[0] == 0
    assert len(task_log.pids()) == 2  # the worker ran tasks, CCDF files among them
    created = {(pid, name) for pid, name in creators() if name.startswith(str(out))}
    assert {pid for pid, _ in created} == {os.getpid()}
    assert {name for _, name in created} == {str(p) for p in out.rglob("*") if p.is_file()}


def test_a_running_thread_keeps_report_in_one_process(inputs, tmp_path, monkeypatch, task_log):
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
    assert task_log.pids() == {os.getpid()}


def test_killed_worker_fails_the_run(inputs, tmp_path, capsys, caplog, monkeypatch, task_log):
    _cpus(monkeypatch, 2)
    task_log.meet = True
    parent = os.getpid()
    for name, stage in list(cli_mod.STAGES.items()):
        def killing(args, strata, out, year_fn=stage.run):
            rows = year_fn(args, strata, out)
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return rows

        monkeypatch.setitem(cli_mod.STAGES, name, stage._replace(run=killing))
    fds = open_fds()
    code, stdout, records = _run(inputs, tmp_path / "out", capsys, caplog)
    assert open_fds() == fds
    assert code == 1 and stdout == ""
    assert records[-1] == (
        "readscale.cli", "ERROR", f"the stage worker was killed by signal {int(signal.SIGKILL)}",
    )
    (worker,) = task_log.pids() - {parent}
    assert _reaped(worker)


def _check_stage_failure(stage, year, inputs, tmp_path, capsys, caplog, monkeypatch, task_log):
    """A stage's task for a year fails, after it has run, on two CPUs and
    on one: the same log, which stops at the failure, and no child left."""
    caplog.set_level(logging.INFO)
    task_log.fail = {(stage, year): OSError(28, "No space left on device", str(tmp_path / "out" / f"{stage}.tsv"))}
    runs = []
    for cpus in (2, 1):
        _cpus(monkeypatch, cpus)
        task_log.meet = cpus == 2
        fds = open_fds()
        runs.append(_run(inputs, tmp_path / "out", capsys, caplog))
        assert open_fds() == fds
        pids = task_log.pids() - {os.getpid()}
        assert len(pids) == cpus - 1 and all(map(_reaped, pids))
        task_log.take()
    assert runs[0] == runs[1]
    code, stdout, records = runs[0]
    assert code == 1 and stdout == ""
    assert records[-1] == (
        "readscale.cli", "ERROR", f"[Errno 28] No space left on device: 'OUT/{stage}.tsv'",
    )
    # the tables of the stages before the failing one were written, no other
    wrote = [message.split()[1] for _, level, message in records if message.startswith("wrote ")]
    tables = {"fit": ["fit.tsv"], "collapse": ["collapse.tsv"], "css": ["css_overall.tsv", "css_strata.tsv"]}
    sequence = tuple(cli_mod.STAGES)
    before = sequence[:sequence.index(stage)]
    assert [name for name in wrote if not name.startswith("topz_shares")] == [
        name for earlier in before for name in tables[earlier]
    ]


def test_collapse_failure_reads_as_in_sequence(inputs, tmp_path, capsys, caplog, monkeypatch, task_log):
    for year in (2010, 2011):
        _check_stage_failure("collapse", year, inputs, tmp_path, capsys, caplog, monkeypatch, task_log)


@pytest.mark.parametrize("stage", ["fit", "css", "topz"])
@pytest.mark.parametrize("year", [2010, 2011])
def test_stage_failure_reads_as_in_sequence_and_reaps_the_worker(
    stage, year, inputs, tmp_path, capsys, caplog, monkeypatch, task_log
):
    _check_stage_failure(stage, year, inputs, tmp_path, capsys, caplog, monkeypatch, task_log)


def test_a_failure_in_the_worker_keeps_its_traceback(inputs, tmp_path, monkeypatch, task_log):
    # an error main does not report: raised here, the worker's traceback its cause
    _cpus(monkeypatch, 2)
    task_log.meet = True
    parent = os.getpid()
    for name, stage in list(cli_mod.STAGES.items()):
        def failing_in_the_worker(args, strata, out, year_fn=stage.run):
            rows = year_fn(args, strata, out)
            if os.getpid() != parent:
                raise RuntimeError("a defect")
            return rows

        monkeypatch.setitem(cli_mod.STAGES, name, stage._replace(run=failing_in_the_worker))
    with pytest.raises(RuntimeError, match="a defect") as raised:
        main(["report", *inputs, "--out", str(tmp_path / "out")])
    cause = raised.value.__cause__
    assert isinstance(cause, worker_mod._WorkerTraceback) and "failing_in_the_worker" in str(cause)
    assert all(map(_reaped, task_log.pids() - {parent}))


def test_failed_write_reads_as_in_sequence(inputs, tmp_path, capsys, caplog, monkeypatch, task_log):
    caplog.set_level(logging.INFO)
    runs = []
    for cpus in (2, 1):
        out = tmp_path / f"cpus{cpus}"
        (out / "ccdf_silent_2011.tsv").mkdir(parents=True)  # no such file: Silent is all zero
        (out / "ccdf_mathematics_2011.tsv").mkdir()  # the year's first file
        _cpus(monkeypatch, cpus)
        task_log.meet = cpus == 2
        runs.append(_run(inputs, out, capsys, caplog))
    assert runs[0] == runs[1]
    code, stdout, records = runs[0]
    assert code == 1 and stdout == ""
    # fit's table, collapse's 2010 records, and none of 2011's after the failed file
    assert records == [
        ("readscale.cli", "INFO", "wrote fit.tsv and fit.jsonl under OUT"),
        ("readscale.cli", "WARNING", "stratum Silent/2010 has only zero counts; skipped"),
        ("readscale.cli", "WARNING", "stratum bio-chem/2010: ccdf of 'bio-chem' not written: "
                                     "ccdf_bio_chem_2010.tsv holds 'Bio Chem'"),
        ("readscale.cli", "ERROR", "[Errno 21] Is a directory: 'OUT/ccdf_mathematics_2011.tsv'"),
    ]


def test_failed_fork_runs_collapse_in_process(inputs, tmp_path, capsys, caplog, monkeypatch, task_log):
    caplog.set_level(logging.INFO)
    _cpus(monkeypatch, 1)
    sequential = _run(inputs, tmp_path / "sequential", capsys, caplog)
    task_log.take()

    def fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork)
    _cpus(monkeypatch, 2)
    fds = open_fds()
    failed_fork = _run(inputs, tmp_path / "failed_fork", capsys, caplog)
    assert open_fds() == fds  # the pipes to the worker that never was are closed

    assert failed_fork == sequential and failed_fork[0] == 0
    assert task_log.pids() == {os.getpid()}
    assert tree(tmp_path / "failed_fork") == tree(tmp_path / "sequential")


def _runs_in_process(failing, inputs, tmp_path, capsys, caplog, monkeypatch, task_log):
    """With ``failing`` failing for want of descriptors, the run on two CPUs
    reads as on one, and every task runs in this process."""
    caplog.set_level(logging.INFO)
    _cpus(monkeypatch, 1)
    sequential = _run(inputs, tmp_path / "sequential", capsys, caplog)
    task_log.take()

    def fails():
        raise OSError(errno.EMFILE, "Too many open files")

    monkeypatch.setattr(worker_mod, failing, fails)
    _cpus(monkeypatch, 2)
    fds = open_fds()
    failed = _run(inputs, tmp_path / "failed", capsys, caplog)
    assert open_fds() == fds

    assert failed == sequential and failed[0] == 0
    assert task_log.pids() == {os.getpid()}
    assert tree(tmp_path / "failed") == tree(tmp_path / "sequential")


def test_failed_channel_runs_every_worker_in_process(inputs, tmp_path, capsys, caplog, monkeypatch, task_log):
    _runs_in_process("_channel", inputs, tmp_path, capsys, caplog, monkeypatch, task_log)


def test_failed_pipe_runs_every_task_in_process(inputs, tmp_path, capsys, caplog, monkeypatch, task_log):
    _runs_in_process("_pipe", inputs, tmp_path, capsys, caplog, monkeypatch, task_log)


# ---------------------------------------------------------------------------
# properties of task sharing


@st.composite
def _corpora(draw):
    """(files, flags): a corpus of 1 to 12 years in one or two line-JSON
    files, of strata of 1 to 300 records, some all zero, among labels that
    share a slug and a label ``Merged``, whose CCDF file name is the pooled
    curve's; and the report's --z and --tie-rule flags."""
    years = draw(st.lists(st.integers(1990, 2030), min_size=1, max_size=12, unique=True))
    labels = ["Astro", "Bio Chem", "bio-chem", "Merged", "Maths"]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids, fields, in_years, reads = [], [], [], []
    for year in years:
        for label in draw(st.lists(st.sampled_from(labels), min_size=1, max_size=5, unique=True)):
            n = draw(st.one_of(st.integers(1, 5), st.integers(1, 300)))
            counts = [0] * n if draw(st.integers(0, 5)) == 0 else rng.poisson(rng.lognormal(1.0, 1.0, n)).tolist()
            ids += [f"{label}-{year}-{i}" for i in range(n)]
            fields += [label] * n
            in_years += [year] * n
            reads += counts
    order = rng.permutation(len(ids)).tolist()
    columns = Columns(*([column[i] for i in order] for column in (ids, fields, in_years, reads)), [None] * len(ids))
    zs = draw(st.sampled_from([[], ["--z", "5"], ["--z", "10", "--z", "50"], ["--z", "1", "--z", "99.5"]]))
    tie = draw(st.sampled_from(["rank", "threshold"]))
    split = draw(st.integers(0, len(ids)))
    parts = [columns.take(i < split for i in range(len(ids))), columns.take(i >= split for i in range(len(ids)))]
    return [part for part in parts if part.ids], [*zs, "--tie-rule", tie]


def _write_inputs(root: Path, parts) -> list[str]:
    argv = []
    for i, part in enumerate(parts):
        write_records(part, root / f"in{i}.jsonl", format="line-json")
        argv += ["--input", str(root / f"in{i}.jsonl")]
    return argv


_PROPERTY = settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow, HealthCheck.data_too_large],
)


@_PROPERTY
@given(corpus=_corpora())
def test_shared_tasks_read_as_one_process(corpus, capsys, caplog, monkeypatch, task_log):
    caplog.set_level(logging.INFO)
    parts, flags = corpus
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        argv = _write_inputs(root, parts) + flags
        runs = []
        for cpus in (2, 1):
            _cpus(monkeypatch, cpus)
            task_log.meet = cpus == 2
            runs.append(_run(argv, root / f"cpus{cpus}", capsys, caplog))
            assert len(task_log.pids()) == cpus
            task_log.take()
        assert runs[0] == runs[1] and runs[0][0] == 0
        assert tree(root / "cpus2") == tree(root / "cpus1")


@_PROPERTY
@given(corpus=_corpora(), data=st.data())
def test_a_failure_in_either_process_reads_as_in_sequence(corpus, data, capsys, caplog, monkeypatch, task_log):
    """A stage's failure at a drawn task, or a failed write of a drawn CCDF
    file (a directory in its place): the log is the clean run's up to the
    failing point, then the error, on two CPUs as on one."""
    caplog.set_level(logging.INFO)
    parts, flags = corpus
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        argv = _write_inputs(root, parts) + flags
        task_log.fail.clear()  # the fixture outlives an example
        _cpus(monkeypatch, 1)
        clean = _run(argv, root / "clean", capsys, caplog)
        task_log.take()
        ccdfs = sorted(name for name in tree(root / "clean") if name.startswith("ccdf_"))
        if not ccdfs or data.draw(st.booleans()):
            years = sorted({year for part in parts for year in part.years})
            task = data.draw(st.tuples(st.sampled_from(tuple(cli_mod.STAGES)), st.sampled_from(years)))
            task_log.fail[task] = ValueError(f"{task[0]} {task[1]} failed")
            error = f"{task[0]} {task[1]} failed"
            blocked = None
        else:
            blocked = data.draw(st.sampled_from(ccdfs))
            error = f"[Errno 21] Is a directory: 'OUT/{blocked}'"
        runs = []
        for cpus in (2, 1):
            out = root / f"cpus{cpus}"
            if blocked:
                (out / blocked).mkdir(parents=True)
            _cpus(monkeypatch, cpus)
            task_log.meet = cpus == 2
            runs.append(_run(argv, out, capsys, caplog))
            task_log.take()
        assert runs[0] == runs[1]
        code, stdout, records = runs[0]
        assert code == 1 and stdout == ""
        assert records[-1] == ("readscale.cli", "ERROR", error)
        assert records[:-1] == clean[2][:len(records) - 1]
