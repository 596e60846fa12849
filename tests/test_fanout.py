"""fanout.imap on plain items, each behaviour once. The ``cpus`` fixture
reports the usable CPUs, so the forked paths run on any machine. Which
process claims which item is a race, so a test that needs an item in a
child picks the process by ``os.getpid()`` and orders the processes with
marker files (``conftest.wait_for``)."""

import errno
import os
import resource
import threading
import time
import tracemalloc
import warnings

import pytest

from conftest import wait_for
from mdconst import fanout


def in_child(tmp_path, child, caller=lambda i: i):
    """An item function for two items at W = 2: the caller's item 0 waits
    until the child has claimed item 1, then returns caller(0); item 1
    returns child(1) in the child."""
    pid, claimed = os.getpid(), tmp_path / "claimed"

    def item(i):
        if os.getpid() == pid:
            wait_for(claimed)
            return caller(i)
        claimed.touch()
        return child(i)

    return item


# -- ordering and process count ----------------------------------------------


@pytest.mark.parametrize("W", [2, 3])
def test_results_come_back_in_item_order(cpus, W):
    forks = cpus(W)
    assert list(fanout.imap(lambda i: i * i, 50)) == [i * i for i in range(50)]
    assert forks == [os.getpid()] * (W - 1)


@pytest.mark.parametrize("items, W, thread", [(0, 2, False), (1, 2, False), (5, 1, False),
                                              (5, 2, True)],
                         ids=["0-items", "1-item", "1-cpu", "another-thread"])
def test_the_caller_runs_alone(cpus, items, W, thread):
    # a fork could copy a lock another thread holds into the child
    forks, release = cpus(W), threading.Event()
    other = threading.Thread(target=release.wait)
    if thread:
        other.start()
    try:
        got = list(fanout.imap(lambda i: (i, os.getpid()), items))
    finally:
        release.set()
        if thread:
            other.join(timeout=10)
    assert not other.is_alive()
    assert got == [(i, os.getpid()) for i in range(items)]
    assert forks == []


def test_the_caller_runs_its_items_while_a_child_works(cpus, tmp_path):
    # the child's item 1 waits for what item 4 writes, and the caller's
    # item 0 until the child has claimed item 1: a caller that waited on
    # item 1 before claiming item 4 itself would time out
    flag, claimed = tmp_path / "item4", tmp_path / "claimed"

    def item(i):
        if i == 0:
            wait_for(claimed)
        elif i == 1:
            claimed.touch()
            wait_for(flag)
        elif i == 4:
            flag.touch()
        return i

    cpus(2)
    assert list(fanout.imap(item, 6)) == list(range(6))


# -- exceptions ---------------------------------------------------------------


def test_a_childs_exception_reaches_the_caller(cpus, tmp_path):
    def child(i):
        raise FloatingPointError(f"item {i} in process {os.getpid()}")

    forks = cpus(2)
    with pytest.raises(FloatingPointError, match=r"^item 1 in process \d+$") as exc:
        list(fanout.imap(in_child(tmp_path, child), 2))
    assert forks and str(os.getpid()) not in str(exc.value)  # raised in the child


def test_a_higher_item_that_fails_first_does_not_preempt_a_lower_one(cpus, tmp_path):
    # three processes: the caller's item 0 waits until the children have
    # claimed items 1 and 2; item 2 raises at once and item 1 a moment
    # later, so item 2's exception reaches the caller first
    raised = tmp_path / "raised"

    def item(i):
        if i == 0:
            wait_for(tmp_path / "claimed1")
            wait_for(tmp_path / "claimed2")
        elif i == 1:
            (tmp_path / "claimed1").touch()
            wait_for(raised)
            time.sleep(0.2)
            raise ValueError("item 1")
        elif i == 2:
            (tmp_path / "claimed2").touch()
            raised.touch()
            raise ValueError("item 2")
        return i

    cpus(3)
    with pytest.raises(ValueError, match="^item 1$"):
        list(fanout.imap(item, 4))
    assert raised.exists()


@pytest.mark.parametrize("what", ["returned", "raised"])
def test_an_outcome_that_does_not_pickle_arrives_as_its_repr(cpus, tmp_path, what):
    class Local(Exception):  # a local class does not pickle
        pass

    def child(i):
        if what == "raised":
            raise Local(f"item {i}")
        return Local(f"item {i}")

    cpus(2)
    with pytest.raises(ChildProcessError,
                       match=rf"^item 1 {what} Local\('item 1'\), which does not pickle$"):
        list(fanout.imap(in_child(tmp_path, child), 2))


# -- child processes ----------------------------------------------------------


@pytest.mark.parametrize("high", [False, True], ids=["fds-below-1024", "fds-above-1023"])
def test_a_child_that_exits_is_reported(cpus, tmp_path, high):
    # select.select rejects an fd above 1023 with a ValueError, which the
    # CLI would take for bad input
    if high and resource.getrlimit(resource.RLIMIT_NOFILE)[0] < 1200:
        pytest.skip("needs about 1,200 open files")
    fds = []
    try:
        while high and len(fds) < 1100:
            fds.append(os.open(os.devnull, os.O_RDONLY))
        assert not high or fds[-1] > 1023
        cpus(2)
        with pytest.raises(ChildProcessError, match=r"^fan-out process \d+ exited with "
                                                    r"code 7 before sending item 1$"):
            list(fanout.imap(in_child(tmp_path, lambda i: os._exit(7)), 2))
    finally:
        for fd in fds:
            os.close(fd)


@pytest.mark.parametrize("stop", ["close", "interrupt"])
def test_a_stalled_child_is_killed_and_reaped(cpus, tmp_path, stop):
    # the child sleeps a minute in item 1; the caller closes the generator
    # after item 0, or its item 0 is interrupted
    def caller(i):
        if stop == "interrupt":
            raise KeyboardInterrupt
        return i

    forks = cpus(2)
    results = fanout.imap(in_child(tmp_path, lambda i: time.sleep(60), caller), 2)
    t0 = time.perf_counter()
    if stop == "close":
        assert next(results) == 0
        results.close()
    else:
        with pytest.raises(KeyboardInterrupt):
            next(results)
    assert forks and time.perf_counter() - t0 < 10
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # no child left, reaped or not


# -- pipes and forks ----------------------------------------------------------


def test_results_past_a_pipe_buffer(cpus):
    # 1 MiB results, 16 pipe buffers each, on three processes: the caller
    # reads whichever child's pipe is ready, so neither child stalls
    cpus(3)
    got = list(fanout.imap(lambda i: bytes([i]) * 2**20, 7))
    assert [(len(v), v[0], v[-1]) for v in got] == [(2**20, i, i) for i in range(7)]


def test_more_claims_than_a_pipe_holds(cpus):
    # 19,999 claims of 8 bytes, 160 kB, where a pipe holds 64 KiB: the
    # caller writes the next claims as outcomes come in, so the pipe
    # refills some 40 times
    cpus(2)
    assert list(fanout.imap(lambda i: i, 20_000)) == list(range(20_000))


def test_claims_are_not_built_up_front(cpus):
    # a million items, of which the caller yields one: it writes no more
    # than a pipe buffer of claims, not 8 MB of indices before item 0
    cpus(2)
    tracemalloc.start()
    try:
        results = fanout.imap(lambda i: i, 10**6)
        assert next(results) == 0
        results.close()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_a_fork_that_warns_as_from_python_3_12(cpus, monkeypatch):
    # from 3.12 os.fork warns in the caller when OpenBLAS's threads are
    # alive; under filterwarnings = error that must not end the run
    forks = cpus(2)
    counted = os.fork

    def warning_fork():
        pid = counted()
        if pid:
            warnings.warn("This process is multi-threaded, use of fork() may "
                          "lead to deadlocks in the child.", DeprecationWarning)
        return pid

    monkeypatch.setattr(os, "fork", warning_fork)
    assert list(fanout.imap(lambda i: i, 4)) == [0, 1, 2, 3]
    assert forks


def test_a_fork_that_fails_names_the_fan_out(cpus, monkeypatch):
    cpus(2)

    def fork():
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", fork)
    fds = len(os.listdir("/proc/self/fd"))
    with pytest.raises(ChildProcessError, match=r"^fan-out could not start a process: "
                                                rf"\[Errno {errno.EAGAIN}\] "):
        list(fanout.imap(lambda i: i, 2))
    assert len(os.listdir("/proc/self/fd")) == fds
