"""Primal-dual interior-point solver for the linearized subproblem.

Each CCCP subproblem minimizes f(x) = ||z|| - lam*eta over x = (z, eta)
subject to affine rows, held in ``SubproblemSpec`` as A x >= b:

    g^T z           >= h     (linearized pair-distance constraints)
    g^T z - eta     >= h     (linearized element-wise constraints)

A pair row with h > 0, as every one CCCP builds has (h = D_E^2 + q(z_q)),
keeps z = 0 infeasible, so f is smooth on the feasible set: its gradient
is (u, -lam) and its Hessian (I - u u^T)/||z|| on the z block, u = z/||z||.
The KKT conditions of this smooth convex program with linear rows are
grad f = A^T y, s = A x - b >= 0, y >= 0 and s o y = 0.

The method is Mehrotra's predictor-corrector (Vanderbei & Shanno 1999).
Every iteration factors the normal matrix A^T diag(y/s) A + Hessian and
solves with it twice, for the affine-scaling direction and for the centred
one with the second-order correction. The primal iterate starts from the
given strict start with eta pushed down and stays feasible, and s and y
stay strictly positive; ``solve`` describes the two dual starts.

With r = grad f - A^T y, the one residual is
max(|s^T y + z^T r_z|, ||r_z||, |r_eta|): the gap, with the z-part of the
stationarity residual folded in, and the stationarity residual itself.
The solver stops when it is at most ``TOL``, or as unbounded once the
displacement d = x - x_0 from the start has A d >= 0 and
||d_z|| - lam*d_eta < 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: Stopping tolerance on the residual (see ``_residual``).
TOL = 1e-8
#: Interior-point iteration cap, far above the <= 17 a Table-1 subproblem takes.
MAX_ITER = 800
#: Share of the largest step to the boundary of the orthant (s, y) >= 0
#: taken per iteration, applied after the ``Z_STEP`` cap.
STEP = 0.95
#: Largest move of z per iteration, as a share of ||z||, since the Hessian
#: models ||z|| only near z: without it 132 of 1,000 ``random_tiny_spec``
#: instances diverged and ended non-optimal, with it none. A direction
#: with ||dz|| < lam*d_eta lowers f along its whole length whatever the
#: model and is not capped; capped, the unbounded K=1 test subproblems
#: took 72-158 iterations to leave the start along a ray, uncapped 4-20.
Z_STEP = 0.5
#: Push of eta off the element-wise rows for a warm start, in place of the
#: cold 0.1. Seed-0 Table-1 takes 6,746 IPM iterations with 0.01, 6,813
#: with 0.001 and 6,901 with 0.1.
WARM_PUSH = 0.01
#: How far inside the orthant a warm dual start is moved: each row
#: multiplier is clipped at 0 and raised by this. Seed-0 Table-1 takes
#: 6,746 IPM iterations with 0.01, 6,607 with 0.001, 7,319 with 0.1 and
#: 8,038 with 1.
WARM_SHIFT = 0.01


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


def _residual(A, x, s, y, grad) -> float:
    """max(|s^T y + z^T r_z|, ||r_z||, |r_eta|) with r = grad f - A^T y."""
    r = grad - A.T @ y
    r_z = r[:-1]
    return max(abs(float(s @ y) + float(x[:-1] @ r_z)), math.sqrt(float(r_z @ r_z)),
               abs(float(r[-1])))


def _is_ray(A, lam, d, slack=0.0) -> bool:
    """Whether d = x - x_0 is a ray along which f falls: A d >= 0 to TOL
    times size = max(||d_z||, |d_eta|) plus ``slack``, and
    ||d_z|| - lam*d_eta < -TOL*size."""
    dz_norm = math.sqrt(float(d[:-1] @ d[:-1]))
    size = max(dz_norm, abs(float(d[-1])))
    return (float((A @ d).min()) >= -(TOL * size + slack)
            and dz_norm - lam * d[-1] < -TOL * size)


def _boundary_step(s, ds, y, dy) -> float:
    """Largest alpha keeping s + alpha ds and y + alpha dy non-negative."""
    shrink = -min(float((ds / s).min()), float((dy / y).min()))
    return 1.0 / shrink if shrink > 0.0 else math.inf


def solve(spec: SubproblemSpec, trace: bool = False,
          warm: SubproblemSolution | None = None) -> SubproblemSolution:
    """Minimize ||z|| - lam*eta subject to the affine rows A x >= b.

    The rows must include an element-wise row and a pair row with a
    positive bound; without either the subproblem is not the smooth one
    this solver handles, and ``ValueError`` is raised. Returns the primal
    point, its row multipliers ``y`` and the residual of the pair.

    Without ``warm`` the dual starts cold: the least-norm solution of
    A^T y = grad f at the start, shifted 1 inside the orthant, with eta
    pushed 0.1 off the element-wise rows. ``warm`` is the previous solution
    of the same CCCP chain, whose rows match these one to one; its ``y``
    starts the dual instead, clipped at 0 and raised by ``WARM_SHIFT``, and
    the push is ``WARM_PUSH``. A ``warm`` whose ``y`` does not have one
    entry per row raises ``ValueError``.

    ``kkt_residual`` is the residual at the returned point, and status
    "optimal" means it is at most ``TOL``; "max_iter" means ``MAX_ITER``
    iterations came first, and "unbounded" that the iterate left the start
    along a ray d = x - x_0 that keeps the rows to ``TOL`` and lowers the
    objective; the point returned is the start plus that ray.
    "numerical_failure" means the normal matrix could not be solved, a
    step was not finite, or it would have put the iterate on the boundary
    of the orthant; the last iterate is returned. Such an exit that is a
    ray once ``TOL`` is widened by the start's slack over the distance
    travelled reports "unbounded". ``objective`` is ||z|| - lam*eta at the
    returned point, and every point returned is primal feasible.
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
    if float(s0.min()) <= 0.0:
        raise NotStrictlyFeasible(f"start point's smallest row slack is {s0.min():.3e}")

    x = x0.copy()
    z = x[:n]  # a view
    grad = np.append(z / math.sqrt(float(z @ z)), -spec.lam)  # grad f
    if warm is None:
        push = 0.1
        y = np.linalg.lstsq(A.T, grad, rcond=None)[0]
        y += max(0.0, 1.0 - float(y.min()))
    else:
        if warm.y.shape != (m,):
            raise ValueError(
                f"warm start has {warm.y.shape} row multipliers; the spec needs ({m},)")
        push = WARM_PUSH
        y = np.maximum(warm.y, 0.0) + WARM_SHIFT
    # Lowering eta keeps every row feasible and gives the element-wise rows room.
    x[n] -= push * (1.0 + abs(x[n]))
    s = A @ x - b

    diag = np.arange(n) * (n + 2)  # flat positions of the z block's diagonal
    status = "max_iter"
    rows = []
    iters = 0
    while True:
        nz = math.sqrt(float(z @ z))
        grad[:n] = z / nz
        if _residual(A, x, s, y, grad) <= TOL:
            status = "optimal"
            break
        if iters >= MAX_ITER:
            break
        gap = float(s @ y)

        d_row = y / s
        N = (A.T * d_row) @ A
        N[:n, :n] -= (grad[:n] / nz)[:, None] * grad[:n]
        N.flat[diag] += 1.0 / nz
        try:
            # Predictor: affine-scaling direction, target s o y -> 0.
            dx = np.linalg.solve(N, -grad)
            ds = A @ dx
            dy = -y - d_row * ds
            alpha = min(1.0, _boundary_step(s, ds, y, dy))
            sigma = min(1.0, max(0.0, float((s + alpha * ds) @ (y + alpha * dy)) / gap)) ** 3

            # Corrector: centring to sigma * mu, mu = gap / m, plus the
            # second-order term of the predictor.
            w = (sigma * gap / m - ds * dy) / s
            dx = np.linalg.solve(N, A.T @ w - grad)
        except np.linalg.LinAlgError:
            status = "numerical_failure"
            break
        ds = A @ dx
        dy = w - y - d_row * ds
        dz_norm = math.sqrt(float(dx[:n] @ dx[:n]))
        falls = dz_norm - spec.lam * dx[n] < 0.0
        alpha = _boundary_step(s, ds, y, dy)
        if not falls and alpha * dz_norm > Z_STEP * nz:
            alpha = Z_STEP * nz / dz_norm
        alpha = min(1.0, STEP * alpha)
        if not (math.isfinite(alpha) and math.isfinite(dz_norm + dx[n])):
            status = "numerical_failure"
            break
        # Rounding can put an iterate on the boundary, where y/s is undefined;
        # such a step is not taken, so the point returned stays feasible.
        s_new, y_new = s + alpha * ds, y + alpha * dy
        if min(float(s_new.min()), float(y_new.min())) <= 0.0:
            status = "numerical_failure"
            break
        x += alpha * dx
        s, y = s_new, y_new
        iters += 1
        if trace:
            mu = float(s @ y) / m
            rows.append((m / mu, iters, mu))
        if falls and _is_ray(A, spec.lam, x - x0):
            status = "unbounded"
            break

    # Rounding can end a barely unbounded run before x - x0 is a ray to TOL;
    # seen from there, the start's own slack, its largest row slack or
    # ||z_0||, still shifts A d.
    if status == "numerical_failure" and _is_ray(
            A, spec.lam, x - x0, max(float(s0.max()), math.sqrt(float(x0[:n] @ x0[:n])))):
        status = "unbounded"
    nz = math.sqrt(float(z @ z))
    grad[:n] = z / nz

    return SubproblemSolution(
        z=z.copy(),
        eta=float(x[n]),
        status=status,
        newton_iters=iters,
        kkt_residual=_residual(A, x, s, y, grad),
        objective=nz - spec.lam * float(x[n]),
        trace=rows,
        y=y.copy(),
    )
