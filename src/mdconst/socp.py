"""Primal-dual interior-point solver for the linearized subproblem.

Everything is over v = (t, z, eta). Each subproblem minimizes
c^T v = t - lam*eta subject to the second-order cone ||z||_2 <= t and the
affine rows A v >= b. The t column of A is zero; the rows come in two
families:

    g^T z           >= h     (linearized pair-distance constraints)
    g^T z - eta     >= h     (linearized element-wise constraints)

With G = [A; I_k 0], whose last k rows pick (t, z), the first k = n+1
entries of v, both constraints read S = G v - (b, 0) in K = R^m_+ x Q,
where Q = {(u_0, u_1): ||u_1|| <= u_0}. The dual problem is

    maximize b^T y   subject to   G^T Y = c,   Y = (y, y_c) in K,

where c = (1, 0, -lam). The solver keeps S and Y as the two rows of one
(2, m+k) array; the duality gap of a primal-dual pair is S^T Y.

The method is Mehrotra's predictor-corrector with Nesterov-Todd scaling
(as in CVXOPT and ECOS). Every iteration factors the (n+2) x (n+2) normal
matrix G^T W^-2 G, with W the scaling of K, and solves with it twice: once
for the affine-scaling direction and once for the centred direction with
the second-order correction. The primal iterate starts from the given
strict start, moved off the cone boundary, and stays feasible. A cold dual
start is the least-squares solution of G^T Y = c, shifted into K; a warm
one is the multiplier of the previous subproblem of the same CCCP chain,
whose rows match these one to one, moved ``WARM_SHIFT`` inside K. Either
becomes feasible as the iterations proceed. A cold start pushes the primal
start 0.1 off the boundary, a warm one only ``WARM_PUSH``, so that the
iterate stays near the previous optimum. The solver stops when the gap
and the largest stationarity residual are both at most ``TOL``, or as
unbounded once the iterate has left the start along a recession ray d,
one with G d in K and c^T d < 0.
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
#: Primal push off the boundary for a warm start, in place of the cold 0.1.
#: Seed-0 Table-1 took 7,252 IPM iterations with 0.01, 7,686 with 0.001 and
#: 8,188 with 0.1 (cold starts throughout: 9,889).
WARM_PUSH = 0.01
#: How far inside K a warm dual start is moved: each row multiplier is
#: clipped at 0 and raised by this, and y_t raised until the cone multiplier
#: sits this far inside Q. Seed-0 Table-1 took 7,252 IPM iterations with
#: 0.01, 7,696 with 0.001, 8,285 with 0.1 and 9,189 with 1; seeds 7, 1000
#: and 2000 took 27-29% fewer than with cold starts.
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


def _nt_scaling(s: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nesterov-Todd scaling W of the cone, W^-1 and W^-2: W y = W^-1 s.

    With J = diag(1, -I), w = (s/sqrt(det s) + J y/sqrt(det y)) / (2 gamma)
    scaled to det w = 1, u = (w + e) / sqrt(1 + w_0) and
    beta = (det s / det y)^(1/4): W = beta (u u^T - J), W^-1 = J W J / beta^2
    and W^-2 = (2 (J w)(J w)^T - J) / beta^2.
    """
    ds, dy = math.sqrt(_soc_det(s)), math.sqrt(_soc_det(y))
    j = np.full(s.size, -1.0)
    j[0] = 1.0  # the diagonal of J
    w = s / ds + j * y / dy
    w /= math.sqrt(2.0 + 2.0 * float(s @ y) / (ds * dy))  # 2 gamma
    u = w.copy()
    u[0] += 1.0
    u /= math.sqrt(u[0])
    J = np.diag(j)
    beta2 = ds / dy
    W = math.sqrt(beta2) * (u[:, None] * u - J)
    jw = j * w
    return W, W * (j[:, None] * j) / beta2, (2.0 * jw[:, None] * jw - J) / beta2


def _cone_margin(u: np.ndarray, m: int) -> float:
    """How far u = (rows, cone) lies outside R^m_+ x Q; negative inside."""
    return max(-float(np.min(u[:m])), float(np.linalg.norm(u[m + 1:])) - u[m])


def _max_step(X: np.ndarray, dX: np.ndarray, m: int) -> float:
    """Largest step keeping both rows of X in R^m_+ x Q."""
    alpha = min(_soc_max_step(X[0, m:], dX[0, m:]), _soc_max_step(X[1, m:], dX[1, m:]))
    shrink = float((-dX[:, :m] / X[:, :m]).max())
    return min(alpha, 1.0 / shrink) if shrink > 0.0 else alpha


def _is_ray(G, c, d, m, slack=0.0) -> bool:
    """Whether d, scaled to unit max-norm, has G d in K to TOL plus ``slack``
    over that norm, and c^T d < -TOL: a ray along which the objective falls."""
    size = float(np.abs(d).max())
    d = d / size
    return _cone_margin(G @ d, m) <= TOL + slack / size and float(c @ d) < -TOL


def _kkt_residual(G, h, c, v, Y) -> float:
    """max(stationarity, primal infeasibility, dual-cone infeasibility, gap)
    of the primal-dual pair (v, Y)."""
    m = G.shape[0] - G.shape[1] + 1
    S = G @ v - h
    stat = float(np.max(np.abs(c - G.T @ Y)))
    return max(stat, _cone_margin(S, m), _cone_margin(Y, m), abs(float(S @ Y)))


def solve(spec: SubproblemSpec, trace: bool = False,
          warm: SubproblemSolution | None = None) -> SubproblemSolution:
    """Minimize t - lam*eta subject to the cone and the affine rows.

    Returns the primal point with its row multipliers ``y`` and cone
    multiplier ``y_cone``.

    Without ``warm`` the dual starts cold: the least-norm solution of
    G^T Y = c, shifted 1 inside K, with the primal start pushed 0.1 off
    the boundary. ``warm`` is the previous solution of the same CCCP chain;
    its ``(y, y_cone)`` start the dual instead, each row multiplier clipped
    at 0 and raised by ``WARM_SHIFT`` and y_t raised until the cone
    multiplier sits ``WARM_SHIFT`` inside Q, and the primal push is
    ``WARM_PUSH``. A ``warm`` whose multiplier shapes do not match the spec
    raises ``ValueError``.

    Status "optimal" means gap and stationarity residual are at most
    ``TOL``; "max_iter" means ``MAX_ITER`` iterations came first, and
    "unbounded" that the iterate left the start along a ray that stays in
    the cones, to ``TOL``, and lowers the objective (with both, the point
    is still primal feasible); "numerical_failure" means the normal matrix
    could not be solved, a step was not finite, or rounding put an iterate
    on the boundary of its cone. Such an exit that is a ray once ``TOL``
    is widened by the start's slack over the distance travelled reports
    "unbounded".
    """
    A, b = spec.A, spec.b
    v = np.array(spec.start, dtype=np.float64)
    m, k = A.shape[0], A.shape[1] - 1
    if b.shape != (m,) or v.shape != (k + 1,):
        raise ValueError("spec dimension mismatch: need A (m, n+2), b (m,), start (n+2,)")
    if not np.any(A[:, k] < 0.0):
        raise ValueError("need an element-wise row: without one eta is unbounded")

    G = np.concatenate([A, np.eye(k, k + 1)])
    h = np.concatenate([b, np.zeros(k)])
    margin = _cone_margin(G @ v - h, m)
    if margin >= 0.0:
        raise NotStrictlyFeasible(f"start point lies {margin:.3e} outside the cones")
    c = np.zeros(k + 1)
    c[0] = 1.0
    c[k] = -spec.lam

    if warm is None:
        push = 0.1
        # Dual start: least-norm solution of G^T Y = c, shifted into the
        # interior of K.
        Y = G @ np.linalg.solve(G.T @ G, c)
        shift = max(0.0, 1.0 + _cone_margin(Y, m))
        Y[: m + 1] += shift
    else:
        if warm.y.shape != (m,) or warm.y_cone.shape != (k,):
            raise ValueError(
                f"warm start has {warm.y.shape} row and {warm.y_cone.shape} cone "
                f"multipliers; the spec needs ({m},) and ({k},)")
        push = WARM_PUSH
        Y = np.concatenate([np.maximum(warm.y, 0.0) + WARM_SHIFT, warm.y_cone])
        Y[m] = max(Y[m], math.sqrt(float(Y[m + 1:] @ Y[m + 1:])) + WARM_SHIFT)

    # Primal start off the boundary: raising t and lowering eta keeps every
    # row feasible and gives the cone and the element-wise rows room.
    v[0] = (1.0 + push) * v[0] + push
    v[k] -= push * (1.0 + abs(v[k]))
    X = np.array((G @ v - h, Y))
    S, Y = X  # views of the slack and the multiplier

    degree = m + 1
    status = "max_iter"
    last_gap = math.inf
    rows = []
    iters = 0
    while True:
        r_dual = c - G.T @ Y
        gap = float(S @ Y)
        if gap <= TOL and float(np.max(np.abs(r_dual))) <= TOL:
            status = "optimal"
            break
        # The gap fell at every iteration of every Table-1 solve (seeds 0 and
        # 1000). Once it grows, test whether the iterate has left the start
        # along a ray d with G d in K and c^T d < 0, to TOL: such a ray makes
        # the subproblem unbounded below.
        if gap > last_gap and _is_ray(G, c, v - spec.start, m):
            status = "unbounded"
            break
        if iters >= MAX_ITER:
            break
        last_gap = gap

        # Scaling: W = diag(sqrt(s/y)) on the rows, NT scaling on the cone;
        # lam = W^-1 S = W Y is the scaled point.
        d_row = Y[:m] / S[:m]
        sq_row = np.sqrt(d_row)
        W_c, W_c_inv, W_c_inv2 = _nt_scaling(S[m:], Y[m:])
        lam = np.concatenate([np.sqrt(S[:m] * Y[:m]), W_c @ Y[m:]])
        W2G = np.concatenate([d_row[:, None] * A, W_c_inv2 @ G[m:]])  # W^-2 G
        H = G.T @ W2G

        def direction(u):
            # Newton direction with W^-1 dS + W dY = u (u = lam \ the target
            # complementarity), G^T dY = r_dual and dS = G dv.
            wu = np.concatenate([sq_row * u[:m], W_c_inv @ u[m:]])
            dv = np.linalg.solve(H, G.T @ wu - r_dual)
            return dv, np.array((G @ dv, wu - W2G @ dv))

        try:
            # Predictor: affine-scaling direction, u = -lam.
            dv, dX = direction(-lam)
            alpha = min(1.0, _max_step(X, dX, m))
            S_aff, Y_aff = X + alpha * dX
            sigma = min(1.0, max(0.0, float(S_aff @ Y_aff) / gap)) ** 3
            mu = gap / degree

            # Corrector: centring plus the second-order term of the predictor.
            dS, dY = dX
            corr_c = -_soc_prod(W_c_inv @ dS[m:], W_c @ dY[m:])
            corr_c[0] += sigma * mu
            corr_row = (sigma * mu - dS[:m] * dY[:m]) / lam[:m]
            dv, dX = direction(np.concatenate([corr_row, _soc_div(lam[m:], corr_c)]) - lam)
            alpha = min(1.0, STEP * _max_step(X, dX, m))
        except np.linalg.LinAlgError:
            status = "numerical_failure"
            break
        if not (math.isfinite(alpha) and np.all(np.isfinite(dv))):
            status = "numerical_failure"
            break
        v += alpha * dv
        X += alpha * dX
        iters += 1
        # Rounding can put a cone iterate on the boundary, where the scaling
        # is undefined.
        if min(_soc_det(S[m:]), _soc_det(Y[m:]), float(X[:, :m].min())) <= 0.0:
            status = "numerical_failure"
            break
        if trace:
            mu = float(S @ Y) / degree
            rows.append((degree / mu, iters, mu))

    # Rounding can end a barely unbounded run before v - v0 is a ray to TOL;
    # seen from there, the start's own slack G v0 - (b, 0) still shifts G d.
    if status == "numerical_failure" and _is_ray(
            G, c, v - spec.start, m, float(np.abs(G @ spec.start - h).max())):
        status = "unbounded"

    return SubproblemSolution(
        z=v[1:k].copy(),
        t=float(v[0]),
        eta=float(v[k]),
        status=status,
        newton_iters=iters,
        kkt_residual=_kkt_residual(G, h, c, v, Y),
        objective=float(c @ v),
        trace=rows,
        y=Y[:m].copy(),
        y_cone=Y[m:].copy(),
    )
