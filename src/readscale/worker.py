"""A function run beside the parent's own work, forked where it can be.

It serves three callers. The analysis commands parse their inputs in a
:class:`Worker` while the parent imports numpy and the analysis modules, then
share their stages' (stage, year) tasks with one through a
:class:`TaskQueue`; ``fetch`` decodes its cache in one while the parent
parses the corpus; and ``ingest`` parses its inputs in one, which streams
each part to the parent, where it is checked and written. A forked worker
shares what the parent has loaded copy-on-write and nothing is sent to it. It
holds its log records back from the handlers and, when its function returns
or raises, writes the return value, its records and any failure as one
pickle to an anonymous file, which the parent reads once the worker has
exited: a worker that finishes first never waits for the parent to take its
result. The parent replays the records where the function's records come in
sequence, and re-raises the failure, so a run logs and fails as the steps
run one after another would. A worker given a sink also streams messages to
the parent while it runs, each two tag numbers, a name and bytes, over a pipe
that the parent drains between its own steps: the files of the stage tasks,
or the parts of ingest's parse. So one process, the parent, creates every
file of the run. A worker that did not fork -- the
caller, the platform or the process ruled it out, or the file, the pipe or
the fork failed, and what was opened for it is closed -- runs its function
when it is joined, its records going straight to the handlers and its files
straight to the sink.
"""
from __future__ import annotations

import contextlib
import functools
import logging
import os
import pickle
import struct
import threading
import traceback
from typing import IO, Any, Callable, Iterator, NoReturn, Sequence

__all__ = ["TaskQueue", "Worker", "forks", "held_records", "replay", "reraise"]

# the buffer asked of a pipe: room for the tokens of a task queue and for the
# files a worker streams while the parent is busy (Linux's default cap for an
# unprivileged process, /proc/sys/fs/pipe-max-size)
PIPE_BYTES = 2**20

# a streamed message's head: the two numbers the sender tags it with, and the
# sizes of its name and of its bytes
_FILE_HEAD = struct.Struct("=IIIQ")


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


def reraise(exc: BaseException, text: str) -> NoReturn:
    """Raise ``exc``, whose traceback is ``text``: one that came from a
    forked worker, and so lost its traceback to pickling, with ``text`` as
    its cause."""
    if exc.__traceback__ is None:
        raise exc from _WorkerTraceback(text)
    raise exc


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


def _pipe() -> tuple[int, int]:
    """A pipe's read and write ends, its buffer raised to :data:`PIPE_BYTES`
    where the platform allows."""
    read, write = os.pipe()
    try:
        import fcntl

        fcntl.fcntl(write, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
    except (ImportError, AttributeError, OSError):  # no such control, or above the cap
        pass
    return read, write


class TaskQueue:
    """Tasks numbered 0 to ``n - 1``, shared by this process and the
    :class:`Worker` it forks next. Each number is a fixed-size token in a
    pipe that is filled, and its write end closed, before the fork. A claim
    is one read of one token, so the tasks go out in order, each to the one
    process whose read takes it, and end of file means that none is left.
    Where the pipe cannot be made or cannot hold every token, the tasks are
    claimed from memory and :attr:`shared` is false: only this process may
    claim them."""

    _TOKEN = struct.Struct("=I")

    def __init__(self, n: int):
        self._left = iter(range(n))  # the tasks, where the pipe does not hold them
        self._fd: int | None = None
        try:
            read, write = _pipe()
        except OSError:  # out of file descriptors
            return
        tokens = b"".join(map(self._TOKEN.pack, range(n)))
        try:
            os.set_blocking(write, False)
            if os.write(write, tokens) == len(tokens):
                self._fd, read = read, None
        except BlockingIOError:  # not one token fits
            pass
        finally:
            os.close(write)
            if read is not None:
                os.close(read)

    @property
    def shared(self) -> bool:
        return self._fd is not None

    def claim(self) -> int | None:
        """The next task's number, or None when every task is claimed."""
        if self._fd is None:
            return next(self._left, None)
        token = os.read(self._fd, self._TOKEN.size)
        return self._TOKEN.unpack(token)[0] if token else None

    def close(self) -> None:
        """Drop the tasks left unclaimed."""
        self._left = iter(())
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


def _send(fd: int, tag: int, mark: int, name: str, data: bytes) -> None:
    """Write one message to a stream: its head, its name and its bytes."""
    encoded = name.encode()
    message = memoryview(_FILE_HEAD.pack(tag, mark, len(encoded), len(data)) + encoded + data)
    while message:
        message = message[os.write(fd, message):]


def forks() -> bool:
    """Whether a :class:`Worker` forks: the platform forks, the process may
    run on two CPUs or more, and no other thread runs, which a forked child
    would lack."""
    return hasattr(os, "fork") and _cpus() >= 2 and threading.active_count() == 1


class Worker:
    """``fn(*args)`` run in a forked child of this process where ``fork``
    and :func:`forks` allow and the fork succeeds, or else here when
    joined; :attr:`forked` tells which. Errors name the worker ``name``.

    With a ``sink``, the call is ``fn(send, *args)``, and each
    ``send(tag, mark, name, data)`` -- two tag numbers, a name and bytes,
    such as a file's -- reaches ``sink`` with the same arguments in this process: at
    once in a worker that did not fork, else when :meth:`drain` or
    :meth:`join` takes it from the stream, in the order sent.

    The caller must :meth:`join` the worker to take its outcome, and
    :meth:`stop` it in any case, so that no child outlives the caller.
    """

    def __init__(
        self, name: str, fn: Callable[..., Any], *args, fork: bool = True,
        sink: Callable[[int, int, str, bytes], None] | None = None,
    ):
        self.name = name
        self.fn = fn
        self.args = args if sink is None else (sink, *args)
        self.sink = sink
        self.pid: int | None = None
        self._stream: int | None = None
        if fork and forks():
            self._fork()
        self.forked = self.pid is not None

    def _fork(self) -> None:
        with contextlib.ExitStack() as opened:
            try:
                channel = opened.enter_context(_channel())
                stream = _pipe() if self.sink is not None else ()
                for fd in stream:
                    opened.callback(os.close, fd)
                self.pid = os.fork()
            except OSError:  # out of file descriptors, memory or process ids: run in this process
                return
            opened.pop_all()
        if self.pid == 0:
            # os._exit, whatever happens: the child runs none of the parent's
            # exit handlers and flushes none of the buffers it shares with it
            try:
                args = self.args
                if stream:
                    os.close(stream[0])
                    args = (functools.partial(_send, stream[1]), *args[1:])
                with held_records() as records:
                    try:
                        outcome = (self.fn(*args), None)
                    except BaseException as exc:
                        outcome = (None, (exc, traceback.format_exc()))
                pickle.dump((*outcome, records), channel)
                channel.flush()
            finally:
                os._exit(0)
        self.channel = channel
        if stream:
            # the child's copy of the write end is the last: end of file is its exit
            os.close(stream[1])
            self._stream = stream[0]
            os.set_blocking(self._stream, False)
            self._buffer = bytearray()

    def drain(self, wait: bool = False) -> None:
        """Hand the messages waiting in a forked worker's stream to the sink;
        with ``wait``, every message until the worker exits."""
        if self._stream is not None and wait:
            os.set_blocking(self._stream, True)
        while self._stream is not None:
            try:
                chunk = os.read(self._stream, PIPE_BYTES)
            except BlockingIOError:
                return
            if not chunk:
                os.close(self._stream)
                self._stream = None
            self._buffer += chunk
            self._deliver()

    def _deliver(self) -> None:
        """Hand every whole message at the head of the buffer to the sink."""
        buffer, at, head = self._buffer, 0, _FILE_HEAD.size
        while len(buffer) - at >= head:
            tag, mark, name_size, size = _FILE_HEAD.unpack_from(buffer, at)
            start = at + head + name_size
            if start + size > len(buffer):
                break
            name = buffer[at + head:start].decode()
            at = start + size
            self.sink(tag, mark, name, bytes(buffer[start:at]))
        del buffer[:at]

    def join(self) -> Any:
        """What the function returned, once a forked worker's log records
        are replayed here and its messages handed to the sink; raises the
        function's failure, or :class:`ChildProcessError` if a forked worker
        died first."""
        if not self.forked:
            return self.fn(*self.args)
        self.drain(wait=True)  # a worker blocked on a full stream would never exit
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
            reraise(*failure)
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
        if self._stream is not None:
            os.close(self._stream)
            self._stream = None
