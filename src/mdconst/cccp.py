"""Convex-concave procedure for joint MED / element-wise distance design.

The non-convex program (minimize constellation energy, keep every pairwise
squared Euclidean distance above a threshold and every per-dimension
squared gap above an auxiliary level that is itself maximized) is solved
by repeatedly replacing each quadratic constraint with its affine tangent
at the current iterate and solving the resulting convex subproblem,
minimize ||z|| - lam * eta over the tangent rows, which ``linearize``
builds as one row matrix over x = (z, eta) with the strict start
(z_q, eta_0) for ``socp.solve``. Each iterate stays feasible for the
original quadratic constraints, and the composite objective
F(z) = ||z|| - lam * min_ew(z) is non-increasing, where
min_ew(z) is the smallest per-dimension squared gap. Per step, since z_q
with eta = min_ew(z_q) is feasible for the q-th subproblem,
||z_{q+1}|| - ||z_q|| <= lam * (eta_{q+1} - min_ew(z_q)), with eta_{q+1}
the subproblem's optimal level. The energy ||z||^2 alone is not monotone:
an iterate may spend energy when the element-wise level gains more.

The start is a complex Gaussian draw rescaled to MED = INIT_MARGIN * D_E,
redrawn at most INIT_RESAMPLES times; every subproblem is solved to
``socp.TOL`` within ``socp.MAX_ITER`` interior-point iterations. Consecutive
linearizations have the same rows in the same order, so every subproblem
after a chain's first starts from the previous one's multipliers
(``socp.solve(..., warm=...)``), which saves about a fifth of the
interior-point iterations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import constellation as cn
from . import socp

INIT_MARGIN = 1.05  # start MED as a multiple of d_e_threshold
INIT_RESAMPLES = 100  # draws before init_feasible gives up
RESTART_KEYS = (
    "chain_index", "status", "iterations", "final_energy", "med", "mpd",
    "max_kkt", "non_optimal_solves", "failure", "ipm_iters",
)


@dataclass(frozen=True)
class CCCPConfig:
    K: int
    M: int
    lam: float = 0.5
    d_e_threshold: float = 1.0
    epsilon: float = 1e-4
    max_iters: int = 100
    restarts: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.K < 1 or self.M < 2:
            raise ValueError("need K >= 1 and M >= 2")
        # a range test, not "<= 0": a NaN fails every comparison
        positive = (self.lam, self.d_e_threshold, self.epsilon)
        if not all(0 < v < math.inf for v in positive):
            raise ValueError("lam, d_e_threshold and epsilon must be finite and > 0")
        # linearize needs D_E^2; a float product overflows to inf, where ** raises
        if not self.d_e_threshold * self.d_e_threshold < math.inf:
            raise ValueError(f"d_e_threshold squared must be finite, got {self.d_e_threshold}")
        if self.max_iters < 1 or self.restarts < 1:
            raise ValueError("max_iters and restarts must be >= 1")


@dataclass
class ChainResult:
    """Outcome of one CCCP restart chain."""

    chain_index: int
    status: str  # "converged" | "max_iter" | "failed"
    iterations: int
    c_final: np.ndarray | None
    trace: list  # per-iteration dicts
    final_energy: float
    med: float  # after unit-power normalization
    mpd: float
    max_kkt: float
    failure: str = ""
    non_optimal_solves: int = 0  # accepted subproblem solves that hit max_iter

    @property
    def ipm_iters(self) -> int:
        """Interior-point iterations of the chain's recorded solves."""
        return sum(rec["newton_iters"] for rec in self.trace)


@dataclass
class OptimizeResult:
    best: cn.Constellation
    trace: list
    all_restarts: list = field(default_factory=list)


@functools.lru_cache(maxsize=None)
def _form_index(K: int, M: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays of the distance forms over z = [Re(c); Im(c)].

    Returns (pi, pj), the (P, K) positions of x_i and x_j in Re(c) for the
    P = M(M-1)/2 pairs i < j, and ``flat``: where the gradient entries
    [2 dr, -2 dr, 2 di, -2 di] of the P pair rows and then of the P*K
    element-wise rows land in the raveled (P(K+1), 2KM+1) row matrix over
    x = (z, eta). The arrays are read-only.
    """
    width = 2 * K * M + 1
    pairs = np.array(cn.pair_indices(M)).reshape(-1, 2)
    P = pairs.shape[0]
    ks = np.arange(K)
    pi = pairs[:, :1] * K + ks
    pj = pairs[:, 1:] * K + ks
    cols = np.stack([pi, pj, pi + K * M, pj + K * M])  # (4, P, K)
    r_pair = np.arange(P)[:, None]
    r_ew = P + np.arange(P * K).reshape(P, K)
    flat = np.concatenate([(r_pair * width + cols).ravel(), (r_ew * width + cols).ravel()])
    for arr in (pi, pj, flat):
        arr.setflags(write=False)
    return pi, pj, flat


def _form_values(z: np.ndarray, K: int, M: int):
    """Pair values (P,), element-wise values (P, K) and the real and
    imaginary differences x_i - x_j (P, K) at the realified z."""
    pi, pj, _ = _form_index(K, M)
    h = K * M
    dr = z[pi] - z[pj]
    di = z[h + pi] - z[h + pj]
    ew = dr * dr + di * di
    return ew.sum(axis=1), ew, dr, di


def realify(c: np.ndarray) -> np.ndarray:
    """z = [Re(c); Im(c)], length 2KM."""
    c = np.asarray(c, dtype=np.complex128).ravel()
    return np.concatenate([c.real, c.imag])


def unrealify(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64).ravel()
    if z.size % 2:
        raise ValueError("realified vector must have even length")
    h = z.size // 2
    return z[:h] + 1j * z[h:]


def init_feasible(K: int, M: int, d_e: float, rng: np.random.Generator) -> np.ndarray:
    """Random complex Gaussian start rescaled to MED = INIT_MARGIN * d_e.

    Redraws (at most INIT_RESAMPLES times) if any element-wise gap
    collapses below 1e-9 after scaling, so the auxiliary level can start
    strictly positive.
    """
    for _ in range(INIT_RESAMPLES):
        c = (rng.standard_normal(K * M) + 1j * rng.standard_normal(K * M)) / math.sqrt(2)
        X = c.reshape(M, K).T  # column m is vector x_m
        C = cn.Constellation(points=X)
        dmin = cn.med(C)
        if dmin <= 0.0:
            continue
        scale = INIT_MARGIN * d_e / dmin
        c_scaled = c * scale
        if cn.min_elementwise(cn.Constellation(points=X * scale)) > 1e-9:
            return c_scaled
    raise RuntimeError(f"init_feasible: resample cap ({INIT_RESAMPLES}) exceeded")


def c_to_constellation(c: np.ndarray, K: int, M: int) -> cn.Constellation:
    return cn.Constellation(points=np.asarray(c).reshape(M, K).T)


def linearize(z_q: np.ndarray, config: CCCPConfig) -> socp.SubproblemSpec:
    """Tangent subproblem at z_q; z_q itself is strictly interior for it.

    The row of a form q(z) = z^T Q z has g = 2 Q z_q and h = q(z_q), plus
    D_E^2 for a pair row, so that it reads q(z_q) + g^T (z - z_q) >= D_E^2
    for a pair and >= eta for an element-wise form. A pair row's bound
    D_E^2 + q(z_q) is positive, so z = 0 is infeasible, as ``socp.solve``
    requires.
    """
    K, M = config.K, config.M
    de2 = config.d_e_threshold**2
    med_vals, ew_vals, dr, di = _form_values(z_q, K, M)
    if np.min(med_vals) <= de2 or np.min(ew_vals) <= 0.0:
        raise ValueError(
            "CCCP invariant violated: iterate lost strict feasibility "
            f"(min pair qf {np.min(med_vals):.6e}, min elem qf {np.min(ew_vals):.6e})"
        )

    n, P = 2 * K * M, med_vals.size
    grad = np.concatenate([2.0 * dr, -2.0 * dr, 2.0 * di, -2.0 * di], axis=None)
    A = np.zeros((P * (K + 1), n + 1))
    A.ravel()[_form_index(K, M)[2]] = np.tile(grad, 2)
    A[P:, -1] = -1.0
    eta0 = float(np.min(ew_vals)) * (1.0 - 1e-6)
    return socp.SubproblemSpec(
        lam=config.lam,
        A=A,
        b=np.concatenate([de2 + med_vals, ew_vals], axis=None),
        start=np.append(z_q, eta0),
    )


def run_chain(config: CCCPConfig, chain_index: int) -> ChainResult:
    """One restart: feasible init, iterate linearize/solve until the
    step norm drops below epsilon or the iteration cap is hit.

    A start that cannot be drawn, an iterate that loses strict
    feasibility, or an unbounded or unsolvable subproblem ends the chain
    as "failed", keeping the iterations it completed.
    """
    K, M = config.K, config.M
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, chain_index]))
    de2 = config.d_e_threshold**2
    trace = []
    status, failure = "max_iter", ""
    non_optimal = 0

    try:
        z = realify(init_feasible(K, M, config.d_e_threshold, rng))
        sol = None
        for q in range(1, config.max_iters + 1):
            # warm by keyword: a traced wrapper passes trace=True as one
            sol = socp.solve(linearize(z, config), warm=sol)
            if sol.status in ("unbounded", "numerical_failure"):
                raise ValueError(f"subproblem {sol.status}")
            non_optimal += sol.status != "optimal"
            step = float(np.linalg.norm(sol.z - z))
            med_vals, ew_vals, _, _ = _form_values(sol.z, K, M)
            trace.append(
                {
                    "q": q,
                    "energy": float(sol.z @ sol.z),
                    "objective": sol.objective,
                    "eta": sol.eta,
                    "step_norm": step,
                    "min_med_slack": float(np.min(med_vals) - de2),
                    "min_ew_margin": float(np.min(ew_vals) - sol.eta),
                    "kkt_residual": sol.kkt_residual,
                    "newton_iters": sol.newton_iters,
                }
            )
            z = sol.z
            if step <= config.epsilon:
                status = "converged"
                break
    except (RuntimeError, ValueError) as exc:
        status, failure = "failed", str(exc)

    max_kkt = max((rec["kkt_residual"] for rec in trace), default=math.nan)
    if status == "failed":
        return ChainResult(chain_index, status, len(trace), None, trace, math.nan,
                           math.nan, math.nan, max_kkt, failure=failure,
                           non_optimal_solves=non_optimal)
    c_final = unrealify(z)
    raw = c_to_constellation(c_final, K, M)
    norm = cn.normalize(raw)
    return ChainResult(
        chain_index=chain_index,
        status=status,
        iterations=len(trace),
        c_final=c_final,
        trace=trace,
        final_energy=float(z @ z),
        med=cn.med(norm),
        mpd=cn.mpd(norm),
        max_kkt=max_kkt,
        non_optimal_solves=non_optimal,
    )


def select_best(chains: list[ChainResult]) -> ChainResult:
    """Lexicographic pick: MED rounded to 3 decimals first, then MPD."""
    ok = [ch for ch in chains if ch.status != "failed"]
    if not ok:
        raise RuntimeError(
            "all CCCP restarts failed: "
            + "; ".join(f"chain {ch.chain_index}: {ch.failure}" for ch in chains)
        )
    return max(ok, key=lambda ch: (round(ch.med, 3), ch.mpd))


def optimize(config: CCCPConfig) -> OptimizeResult:
    chains = [run_chain(config, idx) for idx in range(config.restarts)]
    best_chain = select_best(chains)
    raw = c_to_constellation(best_chain.c_final, config.K, config.M)
    meta = {
        "lambda": config.lam,
        "d_e_threshold": config.d_e_threshold,
        "epsilon": config.epsilon,
        "max_iters": config.max_iters,
        "seed": config.seed,
        "chain_index": best_chain.chain_index,
        "iterations_used": best_chain.iterations,
        "final_energy": best_chain.final_energy,
        "med": best_chain.med,
        "mpd": best_chain.mpd,
    }
    best = cn.Constellation(points=cn.normalize(raw).points, meta=meta)
    return OptimizeResult(
        best=best,
        trace=best_chain.trace,
        all_restarts=[{k: getattr(ch, k) for k in RESTART_KEYS} for ch in chains],
    )

