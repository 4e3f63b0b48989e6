"""One stage of ``readscale report`` in a forked worker process.

``report`` runs ``collapse`` in a :class:`Worker` while the parent process
runs the other stages. The worker is forked, so it shares the loaded strata
copy-on-write and nothing is sent to it. It holds its log records back from
the handlers and, when its stage ends, sends its exit code, its records and
any failure to the parent over a pipe as one pickle. The parent replays the
records where the stage's records come in sequence, and re-raises the
failure, so a run logs and fails as the stages run one after another would.
"""
from __future__ import annotations

import contextlib
import logging
import os
import pickle
import traceback
from typing import Callable, Iterator, Sequence

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


class Worker:
    """``stage(args, strata)`` run in a forked child of this process.

    The caller must :meth:`join` the worker to take its outcome, and
    :meth:`stop` it in any case, so that no child outlives the caller.
    """

    def __init__(self, stage: Callable[..., int], args, strata):
        self.name = stage.__name__.removeprefix("cmd_")
        read_end, write_end = os.pipe()
        self.pid: int | None = os.fork()
        if self.pid == 0:
            # os._exit, whatever happens: the child runs none of the parent's
            # exit handlers and flushes none of the buffers it shares with it
            try:
                os.close(read_end)
                with held_records() as records:
                    try:
                        outcome = (stage(args, strata), None)
                    except BaseException as exc:
                        outcome = (None, (exc, traceback.format_exc()))
                with open(write_end, "wb") as pipe:
                    pickle.dump((*outcome, records), pipe)
            finally:
                os._exit(0)
        os.close(write_end)
        self.pipe = open(read_end, "rb")

    def join(self) -> int:
        """The stage's exit code, once its log records are replayed here;
        raises the stage's failure, or :class:`ChildProcessError` if the
        worker died first."""
        with self.pipe:
            payload = self.pipe.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        code = os.waitstatus_to_exitcode(status)
        if code < 0:
            raise ChildProcessError(f"the {self.name} worker was killed by signal {-code}")
        try:
            code, failure, records = pickle.loads(payload)
        except (EOFError, pickle.UnpicklingError):
            raise ChildProcessError(f"the {self.name} worker ended without a result") from None
        replay(records)
        if failure is not None:
            exc, text = failure
            raise exc from _WorkerTraceback(text)
        return code

    def stop(self) -> None:
        """Kill and reap the worker, unless it was joined."""
        if self.pid is None:
            return
        import signal

        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)
        self.pid = None
        self.pipe.close()
