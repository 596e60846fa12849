"""Shared test helpers: random inputs, brute-force oracles and a check that
no test leaves a child process behind."""

from __future__ import annotations

import math
import os
import time

import numpy as np
import pytest

from mdconst import constellation as cn
from mdconst import qforms, socp


def random_constellation(rng: np.random.Generator, K: int, M: int) -> cn.Constellation:
    pts = rng.standard_normal((K, M)) + 1j * rng.standard_normal((K, M))
    return cn.Constellation(points=pts)


def pair_forms(K: int, M: int):
    """The constraint forms as ``QuadFormIndex`` lists, in the row order of
    ``cccp.linearize`` (pairs lexicographic, then dimension)."""
    med_idx = [qforms.euclidean_pair(i, j, K, M) for i, j in cn.pair_indices(M)]
    ew_idx = [
        qforms.elementwise(i, j, k, K, M)
        for i, j in cn.pair_indices(M)
        for k in range(K)
    ]
    return med_idx, ew_idx


def random_tiny_spec(rng: np.random.Generator) -> socp.SubproblemSpec:
    """Random bounded instance with n <= 4 and <= 5 rows.

    Construction guarantees a strictly interior start and a bounded
    optimum: row gradients are capped at norm 1.5 and lam <= 0.5, so the
    eta reward can never outrun the objective's ||z||. The first
    row is a pair row with a positive bound, as every pair row of a CCCP
    linearization is, so z = 0 is infeasible.
    """
    n = int(rng.integers(1, 5))
    n_med = int(rng.integers(1, 3))  # row 0 keeps z = 0 infeasible
    n_ew = int(rng.integers(1, 6 - n_med))  # at least one row bounds eta
    lam = float(rng.uniform(0.05, 0.5))
    x0 = rng.standard_normal(n)

    def rand_row():
        g = rng.standard_normal(n)
        norm = np.linalg.norm(g)
        g *= rng.uniform(0.3, 1.5) / norm
        return g

    # rows over x = (z, eta): pair rows first, then element-wise rows
    A = np.zeros((n_med + n_ew, n + 1))
    b = np.empty(n_med + n_ew)
    A[n_med:, -1] = -1.0
    eta0_cap = np.inf
    for r in range(n_med + n_ew):
        g = rand_row()
        slack = rng.uniform(0.1, 2.0)  # strict slack at x0
        if r == 0:  # a positive bound: move x0 along g to keep the slack
            h = float(rng.uniform(0.1, 2.0))
            x0 += g * (h + slack - float(g @ x0)) / float(g @ g)
        else:
            h = float(g @ x0 - slack)
        A[r, :-1], b[r] = g, h
        if r >= n_med:
            eta0_cap = min(eta0_cap, float(g @ x0 - h))
    eta0 = eta0_cap - 0.05
    return socp.SubproblemSpec(lam=lam, A=A, b=b, start=np.append(x0, eta0))


def oracle_objective(spec: socp.SubproblemSpec, iters: int = 4000) -> float:
    """Independent minimum of ||z|| - lam*eta via bisection / ellipsoid method.

    For fixed z the optimal eta is the smallest element-wise row slack, so
    the problem reduces to n <= 4 dimensions:
        f(z) = ||z|| - lam * min_i (g_i^T z - h_i)   over med-feasible z.
    f is convex; n = 1 is solved by subgradient-sign bisection, n >= 2 by
    the ellipsoid method with feasibility cuts. Instances generated by
    random_tiny_spec are coercive (lam * ||g|| <= 0.75 < 1), which bounds
    the minimizer inside the initial ball.
    """
    n = spec.A.shape[1] - 1
    lam = spec.lam
    ew = spec.A[:, -1] < 0.0  # element-wise rows carry -eta
    Gm, hm = spec.A[~ew, :-1], spec.b[~ew]
    Ge, he = spec.A[ew, :-1], spec.b[ew]

    def fval(x):
        if Gm.size and (Gm @ x - hm).min() < -1e-15:
            return np.inf
        return float(np.linalg.norm(x) - lam * np.min(Ge @ x - he))

    def subgrad(x):
        if Gm.size:
            viol = Gm @ x - hm
            if viol.min() < 0:  # feasibility cut on the most violated row
                return -Gm[int(np.argmin(viol))], True
        imin = int(np.argmin(Ge @ x - he))
        nz = np.linalg.norm(x)
        return (x / nz if nz > 1e-14 else np.zeros(n)) - lam * Ge[imin], False

    x0 = np.asarray(spec.start[:-1], dtype=np.float64)
    f0 = fval(x0)
    radius = (
        4.0 * (abs(f0) + lam * float(np.abs(he).max()))
        + float(np.linalg.norm(x0))
        + 2.0
    )
    best = f0

    if n == 1:
        lo, hi = x0[0] - radius, x0[0] + radius
        for _ in range(200):
            x = np.array([0.5 * (lo + hi)])
            best = min(best, fval(x))
            g, _ = subgrad(x)
            if g[0] > 0:
                hi = x[0]
            elif g[0] < 0:
                lo = x[0]
            else:
                break
        return best

    x = x0.copy()
    P = np.eye(n) * radius**2
    for _ in range(iters):
        g, infeasible = subgrad(x)
        if not infeasible:
            best = min(best, fval(x))
        Pg = P @ g
        denom = float(g @ Pg)
        if denom <= 0:
            break
        gtil = Pg / math.sqrt(denom)
        x = x - gtil / (n + 1)
        P = (n * n / (n * n - 1.0)) * (P - (2.0 / (n + 1)) * np.outer(gtil, gtil))
    return best


def wait_for(*paths, seconds: float = 20.0) -> None:
    """Wait until one of the files ``paths`` exists: how a test orders work
    in forked processes, which share no memory. An AssertionError naming
    the files after ``seconds``; in a child it is the item's exception."""
    deadline = time.monotonic() + seconds
    while not any(p.exists() for p in paths):
        if time.monotonic() > deadline:
            raise AssertionError(f"waited {seconds:g} s for {' or '.join(map(str, paths))}")
        time.sleep(0.001)


@pytest.fixture()
def cpus(monkeypatch):
    """cpus(W) reports W usable CPUs; the list of the caller's os.fork calls."""
    real_fork, forks = os.fork, []

    def counted():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", counted)

    def set_cpus(W):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(W)))
        return forks

    return set_cpus


@pytest.fixture()
def umask_forbidden(monkeypatch):
    """Make ``os.umask`` raise. It sets the umask of every thread in the
    process, so the program leaves applying the umask to the kernel."""
    def umask(mask):
        raise AssertionError("os.umask called")

    monkeypatch.setattr(os, "umask", umask)


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process unreaped, running or not."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# -- acceptance reporting ---------------------------------------------------

# test_acceptance.py appends one line per criterion; the terminal-summary
# hook replays them after the run, outside pytest's output capture.
ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
