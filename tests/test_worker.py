"""``Worker`` on its own: forked, or run in this process at ``join`` when it
may not fork or the fork fails."""
from __future__ import annotations

import errno
import logging
import os
import tempfile
import threading
import time

import pytest

import readscale.worker as worker_mod
from conftest import open_fds
from readscale.worker import PIPE_BYTES, TaskQueue, Worker

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the worker is forked")


def _fork_fails():
    raise BlockingIOError(11, "Resource temporarily unavailable")


def _channel_fails():
    raise OSError(errno.EMFILE, "Too many open files")


@pytest.fixture(params=[
    pytest.param("forked", marks=needs_fork),
    "one cpu",
    pytest.param("fork fails", marks=needs_fork),
    pytest.param("channel fails", marks=needs_fork),
])
def mode(request, monkeypatch):
    """Whether a Worker forks: it does on two CPUs, unless the fork or the
    file for its result fails."""
    monkeypatch.setattr(worker_mod, "_cpus", lambda: 1 if request.param == "one cpu" else 2)
    if request.param == "fork fails":
        monkeypatch.setattr(os, "fork", _fork_fails)
    if request.param == "channel fails":
        monkeypatch.setattr(worker_mod, "_channel", _channel_fails)
    return request.param


def test_join_returns_the_value(mode):
    fds = open_fds()
    worker = Worker("test worker", lambda a, b: {"sum": a + b, "pid": os.getpid()}, 2, 3)
    try:
        assert worker.forked is (mode == "forked")
        value = worker.join()
    finally:
        worker.stop()
    assert value["sum"] == 5
    assert (value["pid"] != os.getpid()) is worker.forked
    assert open_fds() == fds


def _file(i: int, name: str) -> bytes:
    # the file at 2 is larger than the stream's pipe: the worker waits for the parent
    return name.encode() * (PIPE_BYTES // 4 if i == 2 else 100)


def _send_files(send, names):
    for i, name in enumerate(names):
        send(i, i * 7, name, _file(i, name))
    return os.getpid()


@pytest.mark.parametrize("pipe_fails", [False, True])
def test_sink_takes_the_files_in_order(mode, pipe_fails, monkeypatch):
    if pipe_fails:  # no pipe for the files: the worker runs here
        monkeypatch.setattr(worker_mod, "_pipe", _channel_fails)
    names = ["a.tsv", "ü/b.tsv", "large.bin", "c" * 300, ""]
    received = []
    fds = open_fds()
    worker = Worker(
        "test worker", _send_files, names, sink=lambda *file: received.append((*file, os.getpid())),
    )
    try:
        assert worker.forked is (mode == "forked" and not pipe_fails)
        worker.drain()
        pid = worker.join()
    finally:
        worker.stop()
    assert (pid != os.getpid()) is worker.forked
    assert len(_file(2, names[2])) > PIPE_BYTES
    assert received == [(i, i * 7, name, _file(i, name), os.getpid()) for i, name in enumerate(names)]
    assert open_fds() == fds


def test_task_queue_gives_each_task_once(mode):
    fds = open_fds()
    queue = TaskQueue(1000)
    try:
        assert queue.shared
        worker = Worker("test worker", lambda: list(iter(queue.claim, None)), fork=queue.shared)
        try:
            mine = list(iter(queue.claim, None))
            theirs = worker.join()
        finally:
            worker.stop()
    finally:
        queue.close()
    assert sorted(mine + theirs) == list(range(1000))
    assert mine == sorted(mine) and theirs == sorted(theirs)
    assert open_fds() == fds


def test_task_queue_too_large_for_its_pipe_is_claimed_here():
    queue = TaskQueue(PIPE_BYTES)  # four times the tokens that its pipe holds
    try:
        assert not queue.shared
        assert [queue.claim() for _ in range(3)] == [0, 1, 2]
    finally:
        queue.close()
    assert queue.claim() is None


@needs_fork
@pytest.mark.skipif(not hasattr(os, "waitid"), reason="waits without reaping")
def test_result_larger_than_a_pipe_does_not_hold_the_worker(monkeypatch):
    monkeypatch.setattr(worker_mod, "_cpus", lambda: 2)
    fds = open_fds()
    value = os.urandom(1 << 20)
    worker = Worker("test worker", lambda: value)
    try:
        assert worker.forked
        # the worker exits with its result written, before anyone joins it
        deadline = time.monotonic() + 30
        while not os.waitid(os.P_PID, worker.pid, os.WEXITED | os.WNOHANG | os.WNOWAIT):
            assert time.monotonic() < deadline
            time.sleep(0.01)
        assert worker.join() == value
    finally:
        worker.stop()
    assert open_fds() == fds


def test_in_process_function_runs_at_join(monkeypatch):
    monkeypatch.setattr(worker_mod, "_cpus", lambda: 1)
    order = []
    worker = Worker("test worker", order.append, "fn")
    order.append("before join")
    worker.join()
    worker.stop()
    assert not worker.forked and order == ["before join", "fn"]


class Boom(Exception):
    pass


def _fail():
    raise Boom("no")


def test_failure_is_raised(mode):
    worker = Worker("test worker", _fail)
    try:
        with pytest.raises(Boom, match="no") as raised:
            worker.join()
    finally:
        worker.stop()
    if worker.forked:  # re-raised here, with the worker's traceback as its cause
        cause = raised.value.__cause__
        assert isinstance(cause, worker_mod._WorkerTraceback) and "_fail" in str(cause)
    else:  # raised as it is
        assert raised.value.__cause__ is None
        assert raised.traceback[-1].name == "_fail"


@needs_fork
def test_a_result_that_does_not_pickle_is_no_result(monkeypatch):
    # the child cannot write a lock to the channel, and exits all the same
    monkeypatch.setattr(worker_mod, "_cpus", lambda: 2)
    fds = open_fds()
    worker = Worker("test worker", threading.Lock)
    try:
        assert worker.forked
        with pytest.raises(ChildProcessError, match="^the test worker ended without a result$"):
            worker.join()
    finally:
        worker.stop()
    assert open_fds() == fds


def test_stop_without_join(mode, tmp_path):
    started = tmp_path / "started"

    def run():
        started.write_text(str(os.getpid()), encoding="utf-8")
        time.sleep(60)

    begun = time.monotonic()
    worker = Worker("test worker", run)
    if worker.forked:
        while not started.exists() and time.monotonic() - begun < 30:
            time.sleep(0.01)
        pid = int(started.read_text(encoding="utf-8"))
        worker.stop()
        with pytest.raises(ChildProcessError):  # killed and reaped
            os.waitpid(pid, os.WNOHANG)
    else:
        worker.stop()
        assert not started.exists()  # never run
    worker.stop()  # a second stop does nothing
    assert time.monotonic() - begun < 30


@needs_fork
def test_task_queue_under_more_claimants_than_cpus(monkeypatch):
    # four forked workers and this process claim at once, on fewer CPUs than
    # claimants: every task goes to exactly one of them
    monkeypatch.setattr(worker_mod, "_cpus", lambda: 2)
    fds = open_fds()
    queue = TaskQueue(10_000)
    workers = []
    try:
        assert queue.shared
        workers = [Worker("test worker", lambda: list(iter(queue.claim, None))) for _ in range(4)]
        assert all(worker.forked for worker in workers)
        claimed = [list(iter(queue.claim, None))] + [worker.join() for worker in workers]
    finally:
        for worker in workers:
            worker.stop()
        queue.close()
    assert sorted(task for part in claimed for task in part) == list(range(10_000))
    assert all(part == sorted(part) for part in claimed)
    assert open_fds() == fds


def _stream_and_exit(send, files):
    for tag, (name, data) in enumerate(files):
        send(tag, tag + 100, name, data)


@needs_fork
def test_a_file_that_spans_reads_reaches_the_sink_whole(monkeypatch):
    # a file three times the pipe's buffer and a byte, between small files,
    # arrives over several reads while this process drains
    monkeypatch.setattr(worker_mod, "_cpus", lambda: 2)
    files = [("a.tsv", b"a\n"), ("empty.tsv", b""), ("big.tsv", os.urandom(3 * PIPE_BYTES + 1)),
             ("ünï.tsv", "é\n".encode()), ("z.tsv", b"z")]
    received = []
    fds = open_fds()
    worker = Worker("test worker", _stream_and_exit, files, sink=lambda *file: received.append(file))
    try:
        assert worker.forked
        deadline = time.monotonic() + 30
        while len(received) < len(files) and time.monotonic() < deadline:
            worker.drain()
            time.sleep(0.001)
        worker.join()
    finally:
        worker.stop()
    assert received == [(tag, tag + 100, name, data) for tag, (name, data) in enumerate(files)]
    assert open_fds() == fds


def _stream_and_wait(send):
    send(0, 0, "a.tsv", b"a\n")
    time.sleep(60)


def _sink_fails(*file):
    raise Boom("sink")


@needs_fork
def test_stop_after_a_failing_sink_closes_the_stream(monkeypatch):
    monkeypatch.setattr(worker_mod, "_cpus", lambda: 2)
    fds = open_fds()
    begun = time.monotonic()
    worker = Worker("test worker", _stream_and_wait, sink=_sink_fails)
    try:
        assert worker.forked
        with pytest.raises(Boom, match="sink"):
            worker.drain(wait=True)
    finally:
        worker.stop()
    assert worker.pid is None and worker._stream is None
    assert open_fds() == fds
    assert time.monotonic() - begun < 30


def _log_and_return(value):
    logging.getLogger("readscale.test").warning("from the worker")
    return value


@needs_fork
def test_without_memfd_the_result_comes_through_a_temporary_file(monkeypatch, caplog):
    monkeypatch.setattr(worker_mod, "_cpus", lambda: 2)
    monkeypatch.delattr(os, "memfd_create", raising=False)
    made = []
    temporary_file = tempfile.TemporaryFile
    monkeypatch.setattr(tempfile, "TemporaryFile", lambda: made.append(1) or temporary_file())
    fds = open_fds()
    worker = Worker("test worker", _log_and_return, {"pid": os.getpid()})
    try:
        assert worker.forked
        value = worker.join()
    finally:
        worker.stop()
    assert value == {"pid": os.getpid()}
    assert [(r.name, r.getMessage()) for r in caplog.records] == [("readscale.test", "from the worker")]
    worker = Worker("test worker", _fail)
    try:
        assert worker.forked
        with pytest.raises(Boom, match="no") as raised:
            worker.join()
    finally:
        worker.stop()
    assert "_fail" in str(raised.value.__cause__)
    assert made == [1, 1]
    assert open_fds() == fds
