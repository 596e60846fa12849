"""Indexed work items on every CPU the process may use, by forked processes.

``imap(fn, items)`` yields fn(0), ..., fn(items - 1) in item order. The
items run on W = min(items, CPUs the process may run on) processes, the
caller and W - 1 children made by ``os.fork``, item i on rank i mod W; W
is 1 while another Python thread is alive, whose locks a fork would copy.
Each process runs its items in order, up to the first that raises, so
the caller raises the lowest raising item's exception, as a serial run
would. A child sends each outcome back over its pipe as a length-prefixed
pickle, which waits there until the caller takes it (a child more than a
pipe buffer, 64 KiB on Linux, ahead blocks). The caller runs its next item
when its turn comes and while a child's result it needs has not arrived.
A result or exception that does not pickle arrives as a
``ChildProcessError`` with its repr, as does a child that exits before
sending its items. On any exception, and when the caller closes the
generator early, every child still running is killed and reaped.
"""

from __future__ import annotations

import math
import os
import pickle
import select
import signal
import threading
import warnings


def imap(fn, items: int):
    """Yield fn(i) for i in range(items), in order; see the module docstring."""
    # no affinity call (macOS, Windows): the caller alone
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(items, cpus) if threading.active_count() == 1 else 1
    children = {}  # rank -> (pid, read end) of each child not yet reaped
    done, ahead = {}, 0  # the caller's outcomes not yet taken, its next item
    try:
        for rank in range(1, workers):
            children[rank] = _fork(fn, items, rank, workers)
        for i in range(items):
            rank = i % workers
            if not rank:
                if i == ahead:
                    ahead = _run(fn, i, workers, done)
                ok, value = done.pop(i)
            else:
                pid, r = children[rank]
                # poll, not select, which rejects an fd above 1023; a pipe
                # whose child exited reports POLLHUP, and then EOF below
                waiting = select.poll()
                waiting.register(r, select.POLLIN)
                while ahead < items and not waiting.poll(0):
                    ahead = _run(fn, ahead, workers, done)
                try:
                    ok, value = pickle.loads(_read(r, int.from_bytes(_read(r, 8), "little")))
                except EOFError:
                    del children[rank]
                    os.close(r)
                    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    raise ChildProcessError(f"fan-out process {pid} exited with code {code} "
                                            f"before sending item {i}") from None
            if not ok:
                raise value
            yield value
    finally:
        for pid, r in children.values():
            os.close(r)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _run(fn, i: int, step: int, done: dict):
    """Put (True, fn(i)) or (False, its exception) in ``done``; the next item or inf."""
    try:
        done[i] = (True, fn(i))
        return i + step
    except Exception as exc:
        done[i] = (False, exc)
        return math.inf


def _read(fd: int, n: int) -> bytes:
    """n bytes from the pipe ``fd``; EOFError if its write end closes first."""
    data = b""
    while len(data) < n:
        part = os.read(fd, n - len(data))
        if not part:
            raise EOFError
        data += part
    return data


def _fork(fn, items: int, rank: int, workers: int):
    """Fork a child that runs items rank, rank + workers, ... as the module
    docstring says; returns the child's pid and the pipe's read end."""
    r, w = os.pipe()
    try:
        with warnings.catch_warnings():
            # from 3.12 a fork warns of any second OS thread: here OpenBLAS's
            # pool, which its pthread_atfork handler stops before the fork
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid:
        os.close(w)
        return pid, r
    code = 1
    try:  # the child never returns into the caller's stack
        os.close(r)
        with open(w, "wb") as fh:
            i, done = rank, {}
            while i < items:
                j, i = i, _run(fn, i, workers, done)
                ok, value = out = done.pop(j)
                try:
                    data = pickle.dumps(out, pickle.HIGHEST_PROTOCOL)
                    if not ok:  # an exception may not rebuild from its args
                        pickle.loads(data)
                except Exception:
                    what = "returned" if ok else "raised"
                    data = pickle.dumps((False, ChildProcessError(
                        f"item {j} {what} {value!r}, which does not pickle")))
                    i = items
                fh.write(len(data).to_bytes(8, "little") + data)
                fh.flush()
        code = 0
    finally:
        os._exit(code)
