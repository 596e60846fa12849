"""Primal-dual interior-point solver for the linearized subproblem.

Each CCCP subproblem minimizes f(x) = ||z|| - lam*eta over x = (z, eta)
subject to affine rows. ``SubproblemSpec`` holds them as A v >= b over
v = (t, z, eta); the t column of A is zero, and A' is A without it:

    g^T z           >= h     (linearized pair-distance constraints)
    g^T z - eta     >= h     (linearized element-wise constraints)

A pair row with h > 0, as every one CCCP builds has (h = D_E^2 + q(z_q)),
keeps z = 0 infeasible, so f is smooth on the feasible set: its gradient
is (u, -lam) and its Hessian (I - u u^T)/||z|| on the z block, u = z/||z||.
The KKT conditions of this smooth convex program with linear rows are
grad f = A'^T y, s = A' x - b >= 0, y >= 0 and s o y = 0.

The method is Mehrotra's predictor-corrector (Vanderbei & Shanno 1999).
Every iteration factors the normal matrix A'^T diag(y/s) A' + Hessian and
solves with it twice, for the affine-scaling direction and for the centred
one with the second-order correction. The primal iterate starts from the
given strict start with eta pushed down and stays feasible; ``solve``
describes the two dual starts.

Results are those of the equivalent cone program, minimize t - lam*eta
subject to ||z|| <= t and A v >= b: t = ||z|| and the cone multiplier
y_cone = (1, -A_z^T y). With r = grad f - A'^T y, that pair's gap is
s^T y + z^T r_z, its dual-cone infeasibility at most ||r_z|| and its
stationarity residual |r_eta|. The solver stops when all three are at
most ``TOL``, or as unbounded once the displacement from the start, lifted
to d = (||d_z||, d_z, d_eta), has A d >= 0 and ||d_z|| - lam*d_eta < 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: Stopping tolerance: the conic gap, dual-cone and stationarity residuals.
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
    """One linearized convex subproblem: minimize t - lam*eta subject to
    ||z|| <= t and A v >= b over v = (t, z, eta)."""

    lam: float
    A: np.ndarray  # (m, n+2); an element-wise row has a negative eta coefficient
    b: np.ndarray  # (m,)
    start: np.ndarray  # (n+2,), strictly interior


@dataclass
class SubproblemSolution:
    z: np.ndarray
    t: float
    eta: float
    status: str  # "optimal" | "max_iter" | "unbounded" | "numerical_failure"
    newton_iters: int  # interior-point iterations
    kkt_residual: float
    objective: float
    trace: list = field(default_factory=list)  # (degree / mu, iteration, mu)
    y: np.ndarray = field(default_factory=lambda: np.empty(0))  # row multipliers
    y_cone: np.ndarray = field(default_factory=lambda: np.empty(0))  # (y_t, y_z)


class NotStrictlyFeasible(ValueError):
    """Raised when the provided start violates strict interior feasibility."""


def _cone_margin(u: np.ndarray, m: int) -> float:
    """How far u = (rows, cone) lies outside R^m_+ x Q, where
    Q = {(u_0, u_1): ||u_1|| <= u_0}; negative inside."""
    return max(-float(np.min(u[:m])), float(np.linalg.norm(u[m + 1:])) - u[m])


def _lift(x: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """The displacement x - x0 over (z, eta) as a ray over v = (t, z, eta),
    with t moving by ||d_z||, so that it stays on the cone's boundary."""
    d = x - x0
    return np.concatenate([[math.sqrt(float(d[:-1] @ d[:-1]))], d])


def _is_ray(G, c, d, m, slack=0.0) -> bool:
    """Whether d, scaled to unit max-norm, has G d in K to TOL plus ``slack``
    over that norm, and c^T d < -TOL: a ray along which the objective falls."""
    size = float(np.abs(d).max())
    d = d / size
    return _cone_margin(G @ d, m) <= TOL + slack / size and float(c @ d) < -TOL


def _kkt_residual(G, h, c, v, Y) -> float:
    """max(stationarity, primal infeasibility, dual-cone infeasibility, gap)
    of the conic primal-dual pair (v, Y), with G = [A; I 0] and h = (b, 0)."""
    m = G.shape[0] - G.shape[1] + 1
    S = G @ v - h
    stat = float(np.max(np.abs(c - G.T @ Y)))
    return max(stat, _cone_margin(S, m), _cone_margin(Y, m), abs(float(S @ Y)))


def _boundary_step(s, ds, y, dy) -> float:
    """Largest alpha keeping s + alpha ds and y + alpha dy non-negative."""
    shrink = -min(float((ds / s).min()), float((dy / y).min()))
    return 1.0 / shrink if shrink > 0.0 else math.inf


def solve(spec: SubproblemSpec, trace: bool = False,
          warm: SubproblemSolution | None = None) -> SubproblemSolution:
    """Minimize t - lam*eta subject to ||z|| <= t and the affine rows.

    The rows must include an element-wise row and a pair row with a
    positive bound; without either the subproblem is not the smooth one
    this solver handles, and ``ValueError`` is raised. Returns the primal
    point with t = ||z||, its row multipliers ``y`` and the cone multiplier
    ``y_cone`` = (1, -A_z^T y) derived from them.

    Without ``warm`` the dual starts cold: the least-norm solution of
    A'^T y = grad f at the start, shifted 1 inside the orthant, with eta
    pushed 0.1 off the element-wise rows. ``warm`` is the previous solution
    of the same CCCP chain, whose rows match these one to one; its ``y``
    starts the dual instead, clipped at 0 and raised by ``WARM_SHIFT``, and
    the push is ``WARM_PUSH``. A ``warm``
    whose multiplier shapes do not match the spec raises ``ValueError``.

    Status "optimal" means the conic gap, dual-cone and stationarity
    residuals are at most ``TOL``; "max_iter" means ``MAX_ITER``
    iterations came first, and "unbounded" that the iterate left the start
    along a ray that, lifted to (||d_z||, d_z, d_eta), stays in the cones
    to ``TOL`` and lowers the objective; the point returned is the start
    plus that ray, t = t_0 + ||z - z_0||. "numerical_failure" means the
    normal matrix could not be solved, a step was not finite, or it would
    have put the iterate on the boundary of the orthant; the last iterate
    is returned. Such an exit that is a ray once ``TOL`` is widened by the
    start's slack over the distance travelled reports "unbounded". Every
    point returned is primal feasible.
    """
    A, b = spec.A, spec.b
    v0 = np.asarray(spec.start, dtype=np.float64)
    m, k = A.shape[0], A.shape[1] - 1
    if b.shape != (m,) or v0.shape != (k + 1,):
        raise ValueError("spec dimension mismatch: need A (m, n+2), b (m,), start (n+2,)")
    if not np.any(A[:, k] < 0.0):
        raise ValueError("need an element-wise row: without one eta is unbounded")
    if not np.any((A[:, k] == 0.0) & (b > 0.0)):
        raise ValueError(
            "need a pair row with a positive bound (an eta-free row with b > 0): "
            "without one z = 0 is feasible, where ||z|| is not smooth")

    G = np.concatenate([A, np.eye(k, k + 1)])
    h = np.concatenate([b, np.zeros(k)])
    margin = _cone_margin(G @ v0 - h, m)
    if margin >= 0.0:
        raise NotStrictlyFeasible(f"start point lies {margin:.3e} outside the cones")
    c = np.zeros(k + 1)
    c[[0, k]] = 1.0, -spec.lam

    n = k - 1  # z has n entries; x = (z, eta) has k
    Ax = np.ascontiguousarray(A[:, 1:])  # A'
    x0 = v0[1:]
    x = x0.copy()
    z = x[:n]  # a view
    grad = np.append(z / math.sqrt(float(z @ z)), -spec.lam)  # grad f
    if warm is None:
        push = 0.1
        y = np.linalg.lstsq(Ax.T, grad, rcond=None)[0]
        y += max(0.0, 1.0 - float(y.min()))
    else:
        if warm.y.shape != (m,) or warm.y_cone.shape != (k,):
            raise ValueError(
                f"warm start has {warm.y.shape} row and {warm.y_cone.shape} cone "
                f"multipliers; the spec needs ({m},) and ({k},)")
        push = WARM_PUSH
        y = np.maximum(warm.y, 0.0) + WARM_SHIFT
    # Lowering eta keeps every row feasible and gives the element-wise rows room.
    x[n] -= push * (1.0 + abs(x[n]))
    s = Ax @ x - b

    diag = np.arange(n) * (k + 1)  # flat positions of the z block's diagonal
    status = "max_iter"
    rows = []
    iters = 0
    while True:
        nz = math.sqrt(float(z @ z))
        grad[:n] = z / nz
        r = grad - Ax.T @ y
        r_z = r[:n]
        gap = float(s @ y)
        if (abs(gap + float(z @ r_z)) <= TOL and math.sqrt(float(r_z @ r_z)) <= TOL
                and abs(r[n]) <= TOL):
            status = "optimal"
            break
        if iters >= MAX_ITER:
            break

        d_row = y / s
        N = (Ax.T * d_row) @ Ax
        N[:n, :n] -= (grad[:n] / nz)[:, None] * grad[:n]
        N.flat[diag] += 1.0 / nz
        try:
            # Predictor: affine-scaling direction, target s o y -> 0.
            dx = np.linalg.solve(N, -grad)
            ds = Ax @ dx
            dy = -y - d_row * ds
            alpha = min(1.0, _boundary_step(s, ds, y, dy))
            sigma = min(1.0, max(0.0, float((s + alpha * ds) @ (y + alpha * dy)) / gap)) ** 3

            # Corrector: centring to sigma * mu, mu = gap / m, plus the
            # second-order term of the predictor.
            w = (sigma * gap / m - ds * dy) / s
            dx = np.linalg.solve(N, Ax.T @ w - grad)
        except np.linalg.LinAlgError:
            status = "numerical_failure"
            break
        ds = Ax @ dx
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
        if falls and _is_ray(G, c, _lift(x, x0), m):
            status = "unbounded"
            break

    v = np.concatenate([[math.sqrt(float(z @ z))], x])
    ray = _lift(x, x0)
    # Rounding can end a barely unbounded run before x - x0 is a ray to TOL;
    # seen from there, the start's own slack G v0 - (b, 0) still shifts G d.
    if status == "numerical_failure" and _is_ray(
            G, c, ray, m, float(np.abs(G @ v0 - h).max())):
        status = "unbounded"
    if status == "unbounded":
        v[0] = v0[0] + ray[0]
    Y = np.concatenate([y, [1.0], -(Ax[:, :n].T @ y)])

    return SubproblemSolution(
        z=z.copy(),
        t=float(v[0]),
        eta=float(v[k]),
        status=status,
        newton_iters=iters,
        kkt_residual=_kkt_residual(G, h, c, v, Y),
        objective=float(c @ v),
        trace=rows,
        y=y.copy(),
        y_cone=Y[m:].copy(),
    )
