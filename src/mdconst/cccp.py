"""Convex-concave procedure for joint MED / element-wise distance design.

The non-convex program (minimize constellation energy, keep every pairwise
squared Euclidean distance at least 1 and every per-dimension squared
gap above an auxiliary level that is itself maximized) is solved
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

The MED threshold is 1 and lam the only scale: every design ends at unit
power, and a threshold D_E scales the rows' gradients by D_E and bounds by
D_E^2, so (lam, D_E, epsilon) designs as (lam * D_E, 1, epsilon / D_E).

Every form is read through one cached pair-difference matrix D, whose row
p*K + k takes x_{i,k} - x_{j,k} of the p-th pair (i, j): it gives the form
values, the tangent rows and the start, one complex Gaussian draw rescaled
to MED = INIT_MARGIN. A chain works on the realified z from that
draw to its design, the last iterate scaled once to unit average power, and
``optimize`` returns every chain with the winner's design. A chain steps
only to an "optimal" solve, one certified to ``socp.TOL`` within
``socp.MAX_ITER`` interior-point iterations, on which the bound above
rests; any other status ends the chain. After a chain's first, a solve
starts from the previous one's multipliers (``socp.solve(..., warm=...)``):
consecutive linearizations have the same rows in the same order. The warm
start saves about a sixth of the interior-point iterations: seed-0 Table-1
takes 5,558 with it and 6,579 with every solve cold.

``optimize`` runs chain i as item i of ``fanout.imap``, in whichever
process claims it first. Chain i draws from SeedSequence([seed, i]) and
reads no other chain, so no result depends on the process count or on the
process that ran it; it records its own seconds (``chain_s``, ``solve_s``).
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import constellation as cn
from . import fanout, socp

INIT_MARGIN = 1.05  # start MED, as a multiple of the unit threshold
#: Largest row matrix, P(K+1) rows of 2KM+1 doubles, a config may ask for; a
#: chain peaks at ~4-5x it (4.2x at (2, 64)). Admits M <= 256 at K = 1.
MAX_ROW_BYTES = 256 << 20
#: Largest lam: no measured chain outlived its first solve above ~3, and from
#: 1e12 ((1, 4), seed 1) a diverging solve's Newton direction overflows,
#: ending it "numerical_failure" before ``socp.MAX_SIZE``; none did at 1e6-1e11.
LAM_MAX = 1e6
RESTART_KEYS = (
    "chain_index", "status", "iterations", "final_energy", "med", "mpd",
    "max_kkt", "failure", "ipm_iters", "chain_s", "solve_s",
)


@dataclass(frozen=True)
class CCCPConfig:
    K: int
    M: int
    lam: float = 0.5
    epsilon: float = 1e-4
    max_iters: int = 100
    restarts: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.K < 1 or self.M < 2:
            raise ValueError("need K >= 1 and M >= 2")
        row_bytes = 4 * self.M * (self.M - 1) * (self.K + 1) * (2 * self.K * self.M + 1)
        if row_bytes > MAX_ROW_BYTES:
            raise ValueError(
                f"K={self.K}, M={self.M} needs a {row_bytes / 2**20:,.1f} MiB subproblem "
                f"row matrix, over the {MAX_ROW_BYTES >> 20} MiB bound")
        # a range test, not "<= 0": a NaN fails every comparison
        if not (0 < self.lam <= LAM_MAX and 0 < self.epsilon < math.inf):
            raise ValueError(f"need 0 < lam <= {LAM_MAX:g} and epsilon finite and > 0, "
                             f"got lam={self.lam:g}, epsilon={self.epsilon:g}")
        if self.max_iters < 1 or self.restarts < 1:
            raise ValueError("max_iters and restarts must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class ChainResult:
    """Outcome of one CCCP restart chain; every recorded solve ended "optimal"."""

    chain_index: int
    status: str  # "converged" | "max_iter" | "failed"
    design: cn.Constellation | None  # last iterate at unit average power
    trace: list  # per-iteration dicts
    med: float  # of the design
    mpd: float
    failure: str = ""
    chain_s: float = 0.0  # perf_counter seconds of the whole chain
    solve_s: float = 0.0  # and of its socp.solve calls

    @property
    def final_energy(self) -> float:
        """||z||^2 of the last iterate; NaN for a failed chain."""
        return math.nan if self.design is None else self.trace[-1]["energy"]

    @property
    def iterations(self) -> int:
        """Completed CCCP iterations, one per recorded solve."""
        return len(self.trace)

    @property
    def max_kkt(self) -> float:
        """Largest KKT residual of the recorded solves; NaN if none."""
        return max((rec["kkt_residual"] for rec in self.trace), default=math.nan)

    @property
    def ipm_iters(self) -> int:
        """Interior-point iterations of the chain's recorded solves."""
        return sum(rec["newton_iters"] for rec in self.trace)


@dataclass
class OptimizeResult:
    best: cn.Constellation  # the winning chain's design, with run facts in meta
    chains: list  # every ChainResult, in chain order

    @property
    def trace(self) -> list:
        """The winning chain's per-iteration trace."""
        return self.chains[self.best.meta["chain_index"]].trace

    @property
    def all_restarts(self) -> list:
        """One RESTART_KEYS row per chain."""
        return [{k: getattr(ch, k) for k in RESTART_KEYS} for ch in self.chains]


@functools.lru_cache(maxsize=None)
def _pair_differences(K: int, M: int) -> np.ndarray:
    """The read-only (P*K, K*M) pair-difference matrix D.

    Row p*K + k holds +1 at x_{i,k} and -1 at x_{j,k} of the p-th of the
    P = M(M-1)/2 pairs i < j, columns in vec(C) order (x_{m,k} at m*K + k),
    so D Re(c) and D Im(c) are every per-dimension difference x_{i,k} - x_{j,k}.
    """
    i, j = np.triu_indices(M, k=1)
    # D = E (x) I_K, with e_i - e_j the pair's row of E
    D = np.kron(np.eye(M)[i] - np.eye(M)[j], np.eye(K))
    D.setflags(write=False)
    return D


def _form_values(z: np.ndarray, K: int, M: int):
    """Pair values (P,), element-wise values (P, K) and the differences
    x_{i,k} - x_{j,k} (2, P*K), real row then imaginary, at the realified z."""
    d = z.reshape(2, -1) @ _pair_differences(K, M).T
    sq = d * d
    ew = (sq[0] + sq[1]).reshape(-1, K)
    return ew.sum(axis=1), ew, d


def realify(c: np.ndarray) -> np.ndarray:
    """z = [Re(c); Im(c)], length 2KM."""
    c = np.asarray(c, dtype=np.complex128).ravel()
    return np.concatenate([c.real, c.imag])


def init_feasible(K: int, M: int, rng: np.random.Generator) -> np.ndarray:
    """Realified z of one complex Gaussian draw rescaled to MED = INIT_MARGIN.

    Its per-dimension gaps are nonzero almost surely; a draw with a zero gap
    fails ``socp.solve``'s strict-start check and so ends its chain.
    """
    c = (rng.standard_normal(K * M) + 1j * rng.standard_normal(K * M)) / math.sqrt(2)
    z = realify(c)
    med2 = float(_form_values(z, K, M)[0].min())
    return z * (INIT_MARGIN / math.sqrt(med2))


def c_to_constellation(z: np.ndarray, K: int, M: int) -> cn.Constellation:
    """The constellation of the realified z; vector m is the m-th K-block of c."""
    re, im = z.reshape(2, M, K)
    return cn.Constellation(points=(re + 1j * im).T)


def linearize(z_q: np.ndarray, config: CCCPConfig) -> socp.SubproblemSpec:
    """Tangent subproblem at z_q, with the start (z_q, min_ew(z_q) * (1 - 1e-6)).

    The row of a form q(z) = z^T Q z has g = 2 Q z_q and h = q(z_q), plus
    1 for a pair row, so that it reads q(z_q) + g^T (z - z_q) >= 1 for a
    pair and >= eta for an element-wise form. A pair row's bound 1 + q(z_q)
    is positive, so z = 0 is infeasible, as ``socp.solve`` requires. The
    start's pair-row slacks are q(z_q) - 1 and its least element-wise slack
    1e-6 * min_ew(z_q), so ``socp.solve``'s strict-start check
    (``NotStrictlyFeasible``) is the check that z_q is strictly feasible.
    """
    K, M = config.K, config.M
    D = _pair_differences(K, M)
    med_vals, ew_vals, d = _form_values(z_q, K, M)
    P, h = med_vals.size, K * M
    A = np.empty((P * (K + 1), 2 * h + 1))
    ew_rows = A[P:]
    g = 2.0 * d[:, :, None]
    np.multiply(g[0], D, out=ew_rows[:, :h])
    np.multiply(g[1], D, out=ew_rows[:, h:-1])
    ew_rows[:, -1] = -1.0
    # a pair row is the sum of its K element-wise rows, whose columns differ
    np.add.reduce(ew_rows.reshape(P, K, -1), axis=1, out=A[:P])
    A[:P, -1] = 0.0
    eta0 = float(ew_vals.min()) * (1.0 - 1e-6)
    return socp.SubproblemSpec(
        lam=config.lam,
        A=A,
        b=np.concatenate([1.0 + med_vals, ew_vals], axis=None),
        start=np.append(z_q, eta0),
    )


def run_chain(config: CCCPConfig, chain_index: int) -> ChainResult:
    """One restart: feasible init, iterate linearize/solve until the
    step norm drops below epsilon or the iteration cap is hit.

    An iterate that is not strictly feasible (the start included), or a
    subproblem solve with any status but "optimal", ends the chain as
    "failed" with "subproblem <status>", keeping the iterations it completed.
    """
    t0 = time.perf_counter()
    K, M = config.K, config.M
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, chain_index]))
    trace = []
    status, failure, solve_s = "max_iter", "", 0.0

    try:
        z = init_feasible(K, M, rng)
        sol = None
        for _ in range(config.max_iters):
            spec = linearize(z, config)
            t_solve = time.perf_counter()
            # warm by keyword: a traced wrapper passes trace=True as one
            sol = socp.solve(spec, warm=sol)
            solve_s += time.perf_counter() - t_solve
            if sol.status != "optimal":
                raise ValueError(f"subproblem {sol.status}")
            step = float(np.linalg.norm(sol.z - z))
            med_vals, ew_vals, _ = _form_values(sol.z, K, M)
            trace.append(
                {
                    "energy": float(sol.z @ sol.z),
                    "objective": sol.objective,
                    "eta": sol.eta,
                    "step_norm": step,
                    "min_med_slack": float(np.min(med_vals) - 1.0),
                    "min_ew_margin": float(np.min(ew_vals) - sol.eta),
                    "kkt_residual": sol.kkt_residual,
                    "newton_iters": sol.newton_iters,
                }
            )
            z = sol.z
            if step <= config.epsilon:
                status = "converged"
                break
    except ValueError as exc:
        status, failure = "failed", str(exc)

    if status == "failed":
        return ChainResult(chain_index, status, None, trace, math.nan, math.nan, failure,
                           time.perf_counter() - t0, solve_s)
    design = cn.normalize(c_to_constellation(z, K, M))
    prof = cn.distance_profile(design)
    return ChainResult(chain_index, status, design, trace, prof.med, prof.mpd, "",
                       time.perf_counter() - t0, solve_s)


class RestartsFailed(RuntimeError):
    """Every restart chain ended ``failed``; the message names each one's failure."""


def select_best(chains: list[ChainResult]) -> ChainResult:
    """Lexicographic pick: MED rounded to 3 decimals first, then MPD.

    Raises ``RestartsFailed`` when no chain is left to pick.
    """
    ok = [ch for ch in chains if ch.status != "failed"]
    if not ok:
        raise RestartsFailed(
            "all CCCP restarts failed: "
            + "; ".join(f"chain {ch.chain_index}: {ch.failure}" for ch in chains)
        )
    return max(ok, key=lambda ch: (round(ch.med, 3), ch.mpd))


def optimize(config: CCCPConfig) -> OptimizeResult:
    """Run every restart, on W processes as the module docstring says, and
    pick the best design; of chains that raise, the lowest one's exception
    is raised, as a serial run would."""
    # run_chain is looked up per chain, so a wrapped or patched one is called
    chains = list(fanout.imap(lambda i: run_chain(config, i), config.restarts))
    best_chain = select_best(chains)
    meta = {
        "lambda": config.lam,
        "epsilon": config.epsilon,
        "max_iters": config.max_iters,
        "seed": config.seed,
        "chain_index": best_chain.chain_index,
        "iterations_used": best_chain.iterations,
        "final_energy": best_chain.final_energy,
        "med": best_chain.med,
        "mpd": best_chain.mpd,
    }
    best = cn.Constellation(points=best_chain.design.points, meta=meta)
    return OptimizeResult(best, chains)
