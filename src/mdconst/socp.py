"""Primal-dual interior-point solver for the linearized subproblem.

Everything is over v = (t, z, eta). Each subproblem minimizes
c^T v = t - lam*eta subject to the second-order cone ||z||_2 <= t and the
affine rows A v >= b. The t column of A is zero; the rows come in two
families:

    g^T z           >= h     (linearized pair-distance constraints)
    g^T z - eta     >= h     (linearized element-wise constraints)

With the row slack s = A v - b >= 0 and the cone slack P v = (t, z), the
first n+1 entries of v, the dual problem is

    maximize b^T y   subject to   A^T y + P^T y_c = c,   y >= 0,   y_c in Q,

where c = (1, 0, -lam) and Q = {(u_0, u_1): ||u_1|| <= u_0}.
The duality gap of a primal-dual pair is s^T y + (t, z)^T y_c.

The method is Mehrotra's predictor-corrector with Nesterov-Todd scaling
(as in CVXOPT and ECOS). Every iteration factors the (n+2) x (n+2) normal
matrix A^T diag(y/s) A + P^T W^-2 P, with W the scaling of the cone, and
solves with it twice: once for the affine-scaling direction and once for
the centred direction with the second-order correction. The primal
iterate starts from the given strict start, moved off the cone boundary,
and stays feasible; the dual starts from the least-squares solution of
the stationarity equation, shifted into the cone, and becomes feasible as
the iterations proceed. The solver stops when the gap and the largest
stationarity residual are both at most ``TOL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: Stopping tolerance: the gap and the largest stationarity residual.
TOL = 1e-8
#: Interior-point iteration cap, far above the ~10-20 a CCCP subproblem takes.
MAX_ITER = 800
#: Share of the largest step to the cone boundary taken per iteration.
#: 0.99 lost dual-cone centrality on 1 of ~3,000 Table-1 solves; 0.95 on none.
STEP = 0.95


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
    status: str  # "optimal" | "max_iter" | "numerical_failure"
    newton_iters: int  # interior-point iterations
    kkt_residual: float
    objective: float
    trace: list = field(default_factory=list)  # (degree / mu, iteration, mu)
    y: np.ndarray = field(default_factory=lambda: np.empty(0))  # row multipliers
    y_cone: np.ndarray = field(default_factory=lambda: np.empty(0))  # (y_t, y_z)


class NotStrictlyFeasible(ValueError):
    """Raised when the provided start violates strict interior feasibility."""


# -- the second-order cone as a Jordan algebra: u = (u_0, u_1) ---------------


def _soc_det(u: np.ndarray) -> float:
    """u_0^2 - ||u_1||^2, as a product so that digits survive near the boundary."""
    r = math.sqrt(float(u[1:] @ u[1:]))
    return (u[0] - r) * (u[0] + r)


def _soc_prod(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Jordan product u o v = (u^T v, u_0 v_1 + v_0 u_1)."""
    out = u[0] * v + v[0] * u
    out[0] = u @ v
    return out


def _soc_div(lam: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The w with lam o w = d, for lam in the interior of Q."""
    w = np.empty_like(d)
    w[0] = (lam[0] * d[0] - lam[1:] @ d[1:]) / _soc_det(lam)
    w[1:] = (d[1:] - w[0] * lam[1:]) / lam[0]
    return w


def _soc_max_step(u: np.ndarray, du: np.ndarray) -> float:
    """Largest alpha with u + alpha du in Q, for u in the interior of Q.

    The hyperbolic rotation that maps u / sqrt(det u) to e = (1, 0) keeps Q,
    and e + alpha rho lies in Q while alpha (||rho_1|| - rho_0) <= 1.
    """
    d = math.sqrt(_soc_det(u))
    ub = u / d
    dd = du / d
    rho0 = ub[0] * dd[0] - ub[1:] @ dd[1:]
    rho1 = dd[1:] - (rho0 + dd[0]) / (ub[0] + 1.0) * ub[1:]
    gap = math.sqrt(float(rho1 @ rho1)) - rho0
    return 1.0 / gap if gap > 0.0 else math.inf


def _nt_scaling(s: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nesterov-Todd scaling W of the cone and its inverse: W y = W^-1 s.

    W = beta [[w_0, w_1^T], [w_1, I + w_1 w_1^T / (1 + w_0)]] with
    w = (s/sqrt(det s) + J y/sqrt(det y)) / (2 gamma), J = diag(1, -I),
    beta = (det s / det y)^(1/4); W^-1 flips the sign of w_1.
    """
    ds, dy = math.sqrt(_soc_det(s)), math.sqrt(_soc_det(y))
    sb, yb = s / ds, y / dy
    gamma = math.sqrt((1.0 + float(sb @ yb)) / 2.0)
    w = sb.copy()
    w[0] += yb[0]
    w[1:] -= yb[1:]
    w /= 2.0 * gamma
    k = s.size
    W = np.empty((k, k))
    W[0, 0] = w[0]
    W[0, 1:] = W[1:, 0] = w[1:]
    W[1:, 1:] = np.outer(w[1:], w[1:]) / (1.0 + w[0])
    W[1:, 1:] += np.eye(k - 1)
    W_inv = W.copy()
    W_inv[0, 1:] *= -1.0
    W_inv[1:, 0] *= -1.0
    beta = math.sqrt(ds / dy)
    return beta * W, W_inv / beta


def _max_step(s, y, s_c, y_c, ds, dy, ds_c, dy_c) -> float:
    """Largest step keeping (s, y) >= 0 and (s_c, y_c) in Q."""
    alpha = min(_soc_max_step(s_c, ds_c), _soc_max_step(y_c, dy_c))
    shrink = max(float(np.max(-ds / s)), float(np.max(-dy / y)))
    return min(alpha, 1.0 / shrink) if shrink > 0.0 else alpha


def _kkt_residual(A, b, c, v, y, y_c) -> float:
    """max(stationarity, primal infeasibility, dual-cone infeasibility, gap)
    of the primal-dual pair, over v = (t, z, eta)."""
    k = y_c.size
    r_stat = c - A.T @ y
    r_stat[:k] -= y_c
    s = A @ v - b
    s_c = v[:k]
    primal = max(0.0, -float(np.min(s)), float(np.linalg.norm(s_c[1:])) - s_c[0])
    dual = max(0.0, -float(np.min(y)), float(np.linalg.norm(y_c[1:])) - y_c[0])
    gap = abs(float(s @ y) + float(s_c @ y_c))
    return max(float(np.max(np.abs(r_stat))), primal, dual, gap)


def solve(spec: SubproblemSpec, trace: bool = False) -> SubproblemSolution:
    """Minimize t - lam*eta subject to the cone and the affine rows.

    Returns the primal point with its row multipliers ``y`` and cone
    multiplier ``y_cone``.

    Status "optimal" means gap and stationarity residual are at most
    ``TOL``; "max_iter" means ``MAX_ITER`` iterations came first (the
    point is still primal feasible); "numerical_failure" means the normal
    matrix could not be solved, a step was not finite, or rounding put an
    iterate on the boundary of its cone.
    """
    A, b = spec.A, spec.b
    v = np.array(spec.start, dtype=np.float64)
    m, k = A.shape[0], A.shape[1] - 1
    if b.shape != (m,) or v.shape != (k + 1,):
        raise ValueError("spec dimension mismatch: need A (m, n+2), b (m,), start (n+2,)")
    if not np.any(A[:, k] < 0.0):
        raise ValueError("need an element-wise row: without one eta is unbounded")

    # The cone slack is the view v[:k].
    s = A @ v - b
    if _soc_det(v[:k]) <= 0.0 or v[0] <= 0.0 or np.any(s <= 0.0):
        raise NotStrictlyFeasible(
            "start point is not strictly interior "
            f"(min row slack {np.min(s):.3e}, cone gap {_soc_det(v[:k]):.3e})"
        )
    c = np.zeros(k + 1)
    c[0] = 1.0
    c[k] = -spec.lam

    # Primal start off the boundary: raising t and lowering eta keeps every
    # row feasible and gives the cone and the element-wise rows room.
    v[0] = 1.1 * v[0] + 0.1
    v[k] -= 0.1 * (1.0 + abs(v[k]))
    s = A @ v - b

    # Dual start: least-norm solution of A^T y + P^T y_c = c, shifted into
    # the interior of both cones.
    G = np.concatenate([A, np.eye(k, k + 1)])
    y_all = G @ np.linalg.solve(G.T @ G, c)
    y, y_c = y_all[:m], y_all[m:]
    shift = max(-float(np.min(y)), float(np.linalg.norm(y_c[1:])) - y_c[0])
    shift = max(0.0, 1.0 + shift)
    y = y + shift
    y_c = y_c.copy()
    y_c[0] += shift

    degree = m + 1
    status = "max_iter"
    rows = []
    iters = 0
    while True:
        r_dual = c - A.T @ y
        r_dual[:k] -= y_c
        gap = float(s @ y) + float(v[:k] @ y_c)
        if gap <= TOL and float(np.max(np.abs(r_dual))) <= TOL:
            status = "optimal"
            break
        if iters >= MAX_ITER:
            break

        # Scaling: W = diag(sqrt(s/y)) on the rows, NT scaling on the cone.
        s_c = v[:k]
        d_row = y / s
        sq_row = np.sqrt(d_row)
        lam_row = np.sqrt(s * y)
        W_c, W_c_inv = _nt_scaling(s_c, y_c)
        lam_c = W_c @ y_c
        D_c = W_c_inv @ W_c_inv
        H = (A.T * d_row) @ A
        H[:k, :k] += D_c

        def direction(u_row, u_c):
            # Newton direction with W^-1 ds + W dy = u (u = lam \ the target
            # complementarity), A^T dy + P^T dy_c = r_dual, and the rows and
            # the cone kept primal feasible: ds = A dv, ds_c = dv[:k].
            wu_row = sq_row * u_row
            wu_c = W_c_inv @ u_c
            rhs = A.T @ wu_row - r_dual
            rhs[:k] += wu_c
            dv = np.linalg.solve(H, rhs)
            ds = A @ dv
            ds_c = dv[:k]
            return dv, ds, ds_c, wu_row - d_row * ds, wu_c - D_c @ ds_c

        try:
            # Predictor: affine-scaling direction, u = -lam.
            dv, ds, ds_c, dy, dy_c = direction(-lam_row, -lam_c)
            alpha = min(1.0, _max_step(s, y, s_c, y_c, ds, dy, ds_c, dy_c))
            gap_aff = float((s + alpha * ds) @ (y + alpha * dy)) + float(
                (s_c + alpha * ds_c) @ (y_c + alpha * dy_c)
            )
            sigma = min(1.0, max(0.0, gap_aff / gap)) ** 3
            mu = gap / degree

            # Corrector: centring plus the second-order term of the predictor.
            corr_row = sigma * mu - ds * dy
            corr_c = -_soc_prod(W_c_inv @ ds_c, W_c @ dy_c)
            corr_c[0] += sigma * mu
            dv, ds, ds_c, dy, dy_c = direction(
                corr_row / lam_row - lam_row, _soc_div(lam_c, corr_c) - lam_c
            )
            alpha = min(1.0, STEP * _max_step(s, y, s_c, y_c, ds, dy, ds_c, dy_c))
        except np.linalg.LinAlgError:
            status = "numerical_failure"
            break
        if not (math.isfinite(alpha) and np.all(np.isfinite(dv))):
            status = "numerical_failure"
            break
        v = v + alpha * dv
        s = s + alpha * ds
        y = y + alpha * dy
        y_c = y_c + alpha * dy_c
        iters += 1
        # Rounding can put a cone iterate on the boundary, where the scaling
        # is undefined.
        if min(_soc_det(v[:k]), _soc_det(y_c), float(np.min(s)), float(np.min(y))) <= 0.0:
            status = "numerical_failure"
            break
        if trace:
            mu = (float(s @ y) + float(v[:k] @ y_c)) / degree
            rows.append((degree / mu, iters, mu))

    return SubproblemSolution(
        z=v[1:k].copy(),
        t=float(v[0]),
        eta=float(v[k]),
        status=status,
        newton_iters=iters,
        kkt_residual=_kkt_residual(A, b, c, v, y, y_c),
        objective=float(c @ v),
        trace=rows,
        y=y,
        y_cone=y_c,
    )
