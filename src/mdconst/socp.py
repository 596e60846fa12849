"""Primal-dual interior-point solver for the linearized subproblem.

Each CCCP subproblem minimizes f(x) = ||z|| - lam*eta over x = (z, eta)
subject to affine rows, held in ``SubproblemSpec`` as A x >= b:

    g^T z           >= h     (linearized pair-distance constraints)
    g^T z - eta     >= h     (linearized element-wise constraints)

A pair row with h > 0, as every one CCCP builds has (h = 1 + q(z_q)),
keeps z = 0 infeasible, so f is smooth on the feasible set: its gradient
is (u, -lam) and its Hessian (I - u u^T)/||z|| on the z block, u = z/||z||.
The KKT conditions of this smooth convex program with linear rows are
grad f = A^T y, s = A x - b >= 0, y >= 0 and s o y = 0.

The method is Mehrotra's predictor-corrector (Vanderbei & Shanno 1999).
Every iteration factors the normal matrix A^T diag(y/s) A + Hessian and
solves with it twice, for the affine-scaling direction and for the centred
one with the second-order correction. The primal iterate starts from the
given strict start with eta pushed down by ``PUSH``. The slacks s are
tracked as s + alpha*ds, not recomputed from A x - b, and s and y stay
strictly positive; ``solve`` describes the dual start and what holds of
the point it returns.

With r = grad f - A^T y, the one residual is
max(|s^T y + z^T r_z|, ||r_z||, |r_eta|): the gap, with the z-part of the
stationarity residual folded in, and the stationarity residual itself.
The solver stops when it is at most ``TOL``, or as unbounded once the
Newton direction d it has just computed certifies that f is unbounded
below: f falls along d, ||dz|| - lam*deta < 0, and A d >= 0 to ``TOL``
times max(||dz||, |deta|), so every point x + t d, t >= 0, is feasible
and f(x + t d) <= f(x) + t (||dz|| - lam*deta) has no lower bound
(a recession direction; Rockafellar 1970, section 8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: Stopping tolerance on the residual named in the module docstring.
TOL = 1e-8
#: Interior-point iteration cap, far above the <= 14 a Table-1 subproblem
#: takes; a CCCP solve that reaches it ends its chain as "failed".
MAX_ITER = 800
#: Share of the largest step to the boundary of the orthant (s, y) >= 0
#: taken per iteration, applied after the ``Z_STEP`` cap. Seed-0 Table-1
#: takes 5,558 IPM iterations with 0.985, 6,678 with 0.95, 6,073 with 0.97,
#: 5,828 with 0.98 and 5,383 with 0.99; at 0.995 one solve stalls for all
#: ``MAX_ITER`` iterations, and so does one at 0.99 with ``WARM_SHIFT`` 0.01.
STEP = 0.985
#: Largest move of z per iteration, as a share of ||z||, since the Hessian
#: models ||z|| only near z: without it 112 of 1,000 ``random_tiny_spec``
#: instances (``default_rng(0)``) ended non-optimal, with it none, in at
#: most 21 iterations. A direction with ||dz|| < lam*deta lowers f along
#: its whole length whatever the model and is not capped; capped, the four
#: unbounded K=1 test subproblems took 15-32 iterations to reach a direction
#: that certifies it, uncapped 3-7.
Z_STEP = 0.5
#: Push of eta off the element-wise rows at the start, as a share of
#: 1 + |eta|. Seed-0 Table-1 takes 5,558 IPM iterations with 0.01, 5,582
#: with 0.001 and 5,893 with 0.1.
PUSH = 0.01
#: How far inside the orthant a warm dual start is moved: each row
#: multiplier is clipped at 0 and raised by this. Seed-0 Table-1 takes
#: 5,558 IPM iterations with 0.003, 5,677 with 0.001, 5,634 with 0.01,
#: 6,065 with 0.1 and 6,569 with 1.
WARM_SHIFT = 0.003
#: Largest size max(||z||, |eta|) an iterate may reach; past it the
#: products an iteration forms (s o y, ds o dy, A dx) near the overflow of
#: a double, and the solve ends as "numerical_failure". At lam = 1e5 a
#: (2,4) solve drives eta down past it in ~500 iterations, where it used
#: to overflow after ~750.
MAX_SIZE = 1e150


@dataclass(frozen=True)
class SubproblemSpec:
    """One linearized convex subproblem: minimize ||z|| - lam*eta subject
    to A x >= b over x = (z, eta)."""

    lam: float
    A: np.ndarray  # (m, n+1); an element-wise row has a negative eta coefficient
    b: np.ndarray  # (m,)
    start: np.ndarray  # (n+1,), strictly interior


@dataclass
class SubproblemSolution:
    z: np.ndarray
    eta: float
    status: str  # "optimal" | "max_iter" | "unbounded" | "numerical_failure"
    newton_iters: int  # interior-point iterations
    kkt_residual: float
    objective: float
    trace: list = field(default_factory=list)  # (degree / mu, iteration, mu)
    y: np.ndarray = field(default_factory=lambda: np.empty(0))  # row multipliers


class NotStrictlyFeasible(ValueError):
    """Raised when the provided start violates strict interior feasibility."""


def _boundary_step(X, dX) -> float:
    """Largest alpha keeping X + alpha dX non-negative."""
    shrink = -(dX / X).min()
    return 1.0 / shrink if shrink > 0.0 else math.inf


def _newton(N, rhs) -> np.ndarray:
    """``np.linalg.solve(N, rhs)``, raising ``LinAlgError`` if it is not finite."""
    dx = np.linalg.solve(N, rhs)
    if not np.isfinite(dx).all():
        raise np.linalg.LinAlgError("Newton direction is not finite")
    return dx


def solve(spec: SubproblemSpec, trace: bool = False,
          warm: SubproblemSolution | None = None) -> SubproblemSolution:
    """Minimize ||z|| - lam*eta subject to the affine rows A x >= b.

    The rows must include an element-wise row and a pair row with a
    positive bound; without either the subproblem is not the smooth one
    this solver handles, and ``ValueError`` is raised. Returns the primal
    point, its row multipliers ``y`` and the residual of the pair.

    The dual starts at y = 1 without ``warm``. ``warm`` is the previous
    solution of the same CCCP chain, whose rows match these one to one; its
    ``y`` starts the dual instead, clipped at 0 and raised by
    ``WARM_SHIFT``. A ``warm`` whose ``y`` does not have one entry per row
    raises ``ValueError``. Either way eta starts ``PUSH`` * (1 + |eta|)
    below the start's.

    ``kkt_residual`` is the residual at the returned point, and status
    "optimal" means it is at most ``TOL``; "max_iter" means ``MAX_ITER``
    iterations came first, and "unbounded" that the Newton direction d from
    the returned point is a recession direction as the module docstring
    states it: A d >= 0 to ``TOL`` and ||dz|| - lam*deta < 0, so the
    subproblem has no minimum. "numerical_failure" means the normal matrix
    could not be solved, a Newton direction or a step was not finite, it
    would have put the iterate on the boundary of the orthant, or the
    iterate's size reached ``MAX_SIZE``. Whatever the status, the point
    returned is the last iterate, and ``objective`` is ||z|| - lam*eta
    there. Its tracked slacks are positive, but A x - b recomputed there
    can be negative by rounding (about 1e-14 has been seen). For a CCCP
    iterate the feasibility check is the next subproblem's strict-start
    test, which recomputes the slacks of its own rows at that point.
    """
    A, b = spec.A, spec.b
    x0 = np.asarray(spec.start, dtype=np.float64)
    m, n = A.shape[0], A.shape[1] - 1  # z has n entries; x = (z, eta) has n + 1
    if b.shape != (m,) or x0.shape != (n + 1,):
        raise ValueError("spec dimension mismatch: need A (m, n+1), b (m,), start (n+1,)")
    if not np.any(A[:, n] < 0.0):
        raise ValueError("need an element-wise row: without one eta is unbounded")
    if not np.any((A[:, n] == 0.0) & (b > 0.0)):
        raise ValueError(
            "need a pair row with a positive bound (an eta-free row with b > 0): "
            "without one z = 0 is feasible, where ||z|| is not smooth")
    s0 = A @ x0 - b
    if s0.min() <= 0.0:
        raise NotStrictlyFeasible(f"start point's smallest row slack is {s0.min():.3e}")

    if warm is not None and warm.y.shape != (m,):
        raise ValueError(
            f"warm start has {warm.y.shape} row multipliers; the spec needs ({m},)")
    x = x0.copy()
    z = x[:n]  # a view
    # Lowering eta keeps every row feasible and gives the element-wise rows room.
    x[n] -= PUSH * (1.0 + abs(x[n]))
    # X holds the slacks s = A x - b over the row multipliers y, and dX
    # their step (ds, dy), so one ratio test and one update serve both
    X = np.stack((A @ x - b, np.ones(m) if warm is None else np.maximum(warm.y, 0.0) + WARM_SHIFT))
    s, y = X
    dX = np.empty((2, m))
    ds, dy = dX
    grad = np.append(np.zeros(n), -spec.lam)  # grad f = (z/||z||, -lam); z part set below
    # The one transposed copy of A, with a last column (u, 0), u = z/||z||,
    # for the Hessian's rank-one term: with d = (y/s, -1/||z||), GT diag(d) GT^T
    # is A^T diag(y/s) A - u u^T/||z||, and the view AT serves A^T y and A^T w.
    GT = np.concatenate((A.T, np.zeros((n + 1, 1))), axis=1)
    AT = GT[:, :m]
    d = np.empty(m + 1)
    d_row = d[:m]
    N = np.empty((n + 1, n + 1))
    N_diag = N.reshape(-1)[:n * (n + 2):n + 2]  # the z block's diagonal

    status, rows, iters = "max_iter", [], 0
    while True:
        nz = math.hypot(*z.tolist())  # overflows only where ||z|| does, unlike z^T z
        grad[:n] = GT[:n, m] = z / nz
        r = grad - AT @ y  # r and res as in the module docstring
        gap = s @ y
        res = max(abs(gap + z @ r[:n]), math.sqrt(r[:n] @ r[:n]), abs(r[n]))
        if res <= TOL:
            status = "optimal"
            break
        if iters >= MAX_ITER:
            break
        if not max(nz, abs(x[n])) < MAX_SIZE:
            status = "numerical_failure"
            break

        np.divide(y, s, out=d_row)
        d[m] = -1.0 / nz
        np.matmul(GT * d, GT.T, out=N)
        N_diag += 1.0 / nz  # the Hessian's I/||z||
        try:
            # Predictor: affine-scaling direction, target s o y -> 0.
            dx = _newton(N, -grad)
            np.matmul(A, dx, out=ds)
            np.subtract(-y, d_row * ds, out=dy)
            alpha = min(1.0, _boundary_step(X, dX))
            X_aff = X + alpha * dX
            sigma = min(1.0, max(0.0, X_aff[0] @ X_aff[1] / gap)) ** 3

            # Corrector: centring to sigma * mu, mu = gap / m, plus the
            # second-order term of the predictor.
            w = (sigma * gap / m - ds * dy) / s
            dx = _newton(N, AT @ w - grad)
        except np.linalg.LinAlgError:
            status = "numerical_failure"
            break
        np.matmul(A, dx, out=ds)
        np.subtract(w - y, d_row * ds, out=dy)
        dz_norm = math.hypot(*dx[:n].tolist())
        falls = dz_norm - spec.lam * dx[n] < 0.0
        alpha = _boundary_step(X, dX)
        if not falls and alpha * dz_norm > Z_STEP * nz:
            alpha = Z_STEP * nz / dz_norm
        alpha = min(1.0, STEP * alpha)
        if not (math.isfinite(alpha) and math.isfinite(dz_norm + dx[n])):
            status = "numerical_failure"
            break
        # f falls along dx and A dx >= 0 to TOL: dx is a recession direction
        # of the subproblem, and it starts at the iterate returned
        if falls and ds.min() >= -TOL * max(dz_norm, abs(dx[n])):
            status = "unbounded"
            break
        # Rounding can put an iterate on the boundary, where y/s is undefined;
        # such a step is not taken, so the tracked s and y stay positive.
        X_new = X + alpha * dX
        if X_new.min() <= 0.0:
            status = "numerical_failure"
            break
        x += alpha * dx
        X = X_new
        s, y = X
        iters += 1
        if trace:
            mu = float(s @ y) / m
            rows.append((m / mu, iters, mu))

    return SubproblemSolution(
        z=z.copy(), eta=float(x[n]), status=status, newton_iters=iters,
        kkt_residual=float(res), objective=float(nz - spec.lam * x[n]), trace=rows,
        y=y.copy())
