"""Indexed work items on every CPU the process may use, by forked processes.

``imap(fn, items)`` yields fn(0), ..., fn(items - 1) in item order. The items
run on W = min(items, CPUs the process may run on) processes, the caller and
W - 1 children made by ``os.fork``; W is 1 while another Python thread is
alive, whose locks a fork would copy. The caller runs item 0; a free process
claims the next item with one 8-byte read from a pipe of the indices 1, 2, ...,
which the caller writes in atomic PIPE_BUF pieces as it waits. A child
sends each (index, outcome) back over its own pipe. While the item to yield
next is missing, the caller reads any ready child pipe, or else runs a claim
itself. Claims go in increasing order, so each item below a raising one has an
owner that finishes it, and the caller raises the lowest raising item's
exception, as a serial run would. A result or exception that does not pickle
is a ``ChildProcessError`` with its repr, as is a child that exits, naming the
item the caller waited for. On any exception, and when the caller closes the
generator early, every child is killed and reaped.
"""

from __future__ import annotations

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
    if min(items, cpus) < 2 or threading.active_count() > 1:
        yield from map(fn, range(items))
        return
    unsent = memoryview(b"".join(i.to_bytes(8, "little") for i in range(1, items)))
    children, ready = {}, select.poll()  # read end -> pid of each child not yet reaped
    claims = os.pipe2(os.O_NONBLOCK)  # no process ever blocks on it
    try:
        unsent = _top_up(claims[1], unsent)
        for _ in range(1, min(items, cpus)):
            r, children[r] = _fork(fn, claims)
            ready.register(r, select.POLLIN)  # not select, which rejects an fd > 1023
        done = {0: _run(fn, 0)}  # outcomes not yet yielded
        for i in range(items):
            while i not in done:
                unsent = _top_up(claims[1], unsent)
                if not (events := ready.poll(0)):
                    if (j := _claim(claims[0])) is not None:
                        done[j] = _run(fn, j)
                        continue
                    events = ready.poll()
                for r, _ in events:  # a child that exits reports POLLHUP, then EOF
                    try:
                        j, done[j] = pickle.loads(_read(r, int.from_bytes(_read(r, 8), "little")))
                    except EOFError:
                        os.close(r)
                        code = os.waitstatus_to_exitcode(os.waitpid(pid := children.pop(r), 0)[1])
                        raise ChildProcessError(f"fan-out process {pid} exited with code {code} "
                                                f"before sending item {i}") from None
            ok, value = done.pop(i)
            if not ok:
                raise value
            yield value
    finally:
        for fd in (*claims, *children):
            os.close(fd)
        for pid in children.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _run(fn, i: int):
    """(True, fn(i)), or (False, its exception)."""
    try:
        return True, fn(i)
    except Exception as exc:
        return False, exc


def _top_up(fd: int, unsent: memoryview) -> memoryview:
    """Write the next PIPE_BUF of ``unsent`` to ``fd`` if it fits; what is left."""
    try:
        return unsent[os.write(fd, unsent[:select.PIPE_BUF]):]
    except BlockingIOError:
        return unsent


def _claim(fd: int):
    """The next index in the claims pipe ``fd``, None if it is empty; EOFError at its end."""
    try:
        return int.from_bytes(_read(fd, 8), "little")
    except BlockingIOError:
        return None


def _read(fd: int, n: int) -> bytes:
    """n bytes from the pipe ``fd``; EOFError if its write end closes first."""
    data = b""
    while len(data) < n:
        part = os.read(fd, n - len(data))
        if not part:
            raise EOFError
        data += part
    return data


def _fork(fn, claims: tuple):
    """Fork a child that runs the items it claims; its pipe's read end and pid."""
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
        return r, pid
    try:  # the child never returns into the caller's stack; it ends at the claims' end
        os.close(r)
        os.close(claims[1])  # the caller's close then ends the claims
        idle = select.poll()
        idle.register(claims[0], select.POLLIN)
        with open(w, "wb") as fh:
            while idle.poll():  # until a claim is in, or the claims end
                if (i := _claim(claims[0])) is None:
                    continue  # another process took it
                ok, value = out = _run(fn, i)
                try:
                    data = pickle.dumps((i, out), pickle.HIGHEST_PROTOCOL)
                    if not ok:  # an exception may not rebuild from its args
                        pickle.loads(data)
                except Exception:
                    what = "returned" if ok else "raised"
                    data = pickle.dumps((i, (False, ChildProcessError(
                        f"item {i} {what} {value!r}, which does not pickle"))))
                fh.write(len(data).to_bytes(8, "little") + data)
                fh.flush()
    finally:
        os._exit(1)
