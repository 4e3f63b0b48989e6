"""A function run beside the parent's own work, forked where it can be.

The analysis commands parse their inputs in a :class:`Worker` while the
parent imports numpy and the analysis modules, ``report`` runs ``collapse``
in one while the parent runs the other stages, and ``fetch`` decodes its
cache in one while the parent parses the corpus. A forked worker shares what
the parent has loaded copy-on-write and nothing is sent to it. It holds its
log records back from the handlers and, when its function returns or
raises, writes the return value, its records and any failure as one pickle
to an anonymous file, which the parent reads once the worker has exited: a
worker that finishes first never waits for the parent to take its result.
The parent replays the records where the function's records come in
sequence, and re-raises the failure, so a run logs and fails as the steps
run one after another would. A worker that did not fork -- the caller, the
platform or the process ruled it out, or the file or the fork failed -- runs
its function when it is joined, its records going straight to the handlers.
"""
from __future__ import annotations

import contextlib
import logging
import os
import pickle
import threading
import traceback
from typing import IO, Any, Callable, Iterator, Sequence

__all__ = ["Worker", "held_records", "replay"]


class _Held(logging.Handler):
    """Keeps each record it handles, made plain as ``QueueHandler.prepare``
    makes it: the message merged, and nothing left that would not pickle."""

    def __init__(self) -> None:
        super().__init__()
        self.records: list[logging.LogRecord] = []

    def emit(self, record: logging.LogRecord) -> None:
        record.msg = record.message = self.format(record)
        record.args = record.exc_info = record.exc_text = record.stack_info = None
        self.records.append(record)


@contextlib.contextmanager
def held_records() -> Iterator[list[logging.LogRecord]]:
    """The log records of the block, held back from the root logger's
    handlers in a list that is complete once the block ends."""
    root = logging.getLogger()
    handlers = root.handlers[:]
    held = _Held()
    for handler in handlers:
        root.removeHandler(handler)
    root.addHandler(held)
    try:
        yield held.records
    finally:
        root.removeHandler(held)
        for handler in handlers:
            root.addHandler(handler)


def replay(records: Sequence[logging.LogRecord]) -> None:
    """Hand held records to the handlers, each by its own logger."""
    for record in records:
        logging.getLogger(record.name).handle(record)


class _WorkerTraceback(Exception):
    """The traceback of a failure in the worker, as its cause."""


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return 1


def _channel() -> IO[bytes]:
    """An anonymous file for a forked worker's result: in memory where the
    platform has ``memfd_create``, else a temporary file."""
    if hasattr(os, "memfd_create"):
        fd = os.memfd_create("readscale-worker", os.MFD_CLOEXEC)
        try:
            return open(fd, "w+b")
        except BaseException:
            os.close(fd)
            raise
    import tempfile

    return tempfile.TemporaryFile()


def _forks() -> bool:
    """Whether a :class:`Worker` forks: the platform forks, the process may
    run on two CPUs or more, and no other thread runs, which a forked child
    would lack."""
    return hasattr(os, "fork") and _cpus() >= 2 and threading.active_count() == 1


class Worker:
    """``fn(*args)`` run in a forked child of this process where ``fork``
    and :func:`_forks` allow and the fork succeeds, or else here when
    joined; :attr:`forked` tells which. Errors name the worker ``name``.

    The caller must :meth:`join` the worker to take its outcome, and
    :meth:`stop` it in any case, so that no child outlives the caller.
    """

    def __init__(self, name: str, fn: Callable[..., Any], *args, fork: bool = True):
        self.name = name
        self.fn = fn
        self.args = args
        self.pid: int | None = None
        if fork and _forks():
            self._fork()
        self.forked = self.pid is not None

    def _fork(self) -> None:
        try:
            channel = _channel()
        except OSError:  # out of file descriptors or memory: run in this process
            return
        try:
            self.pid = os.fork()
        except OSError:  # out of process ids or memory: run in this process
            channel.close()
            return
        if self.pid == 0:
            # os._exit, whatever happens: the child runs none of the parent's
            # exit handlers and flushes none of the buffers it shares with it
            try:
                with held_records() as records:
                    try:
                        outcome = (self.fn(*self.args), None)
                    except BaseException as exc:
                        outcome = (None, (exc, traceback.format_exc()))
                pickle.dump((*outcome, records), channel)
                channel.flush()
            finally:
                os._exit(0)
        self.channel = channel

    def join(self) -> Any:
        """What the function returned, once a forked worker's log records
        are replayed here; raises the function's failure, or
        :class:`ChildProcessError` if a forked worker died first."""
        if not self.forked:
            return self.fn(*self.args)
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        with self.channel:
            code = os.waitstatus_to_exitcode(status)
            if code < 0:
                raise ChildProcessError(f"the {self.name} was killed by signal {-code}")
            self.channel.seek(0)  # the child's writes moved the offset it shares
            try:
                value, failure, records = pickle.load(self.channel)
            except (EOFError, pickle.UnpicklingError):
                raise ChildProcessError(f"the {self.name} ended without a result") from None
        replay(records)
        if failure is not None:
            exc, text = failure
            raise exc from _WorkerTraceback(text)
        return value

    def stop(self) -> None:
        """Kill and reap a forked worker, unless it was joined."""
        if self.pid is None:
            return
        import signal

        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)
        self.pid = None
        self.channel.close()
