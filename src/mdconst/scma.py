"""SCMA codebook construction and MPA multiuser detection.

J users share N orthogonal resources (J > N). A binary N x J indicator
matrix marks which user occupies which resource; each user's codebook is
the base K-dimensional constellation, phase-rotated by a per-user diagonal
operator and embedded into the N resources its indicator column selects.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .constellation import (
    Constellation,
    average_power,
    require_keys,
    write_json_atomic,
)

#: The widely used 4 resources x 6 users indicator matrix (column weight 2,
#: row weight 3).
DEFAULT_INDICATOR_ROWS = (
    (0, 1, 1, 0, 1, 0),
    (1, 0, 1, 0, 0, 1),
    (0, 1, 0, 1, 0, 1),
    (1, 0, 0, 1, 1, 0),
)


@dataclass(frozen=True)
class IndicatorMatrix:
    rows: np.ndarray  # (N, J) binary

    def __post_init__(self):
        F = np.asarray(self.rows, dtype=np.int64)
        if F.ndim != 2:
            raise ValueError("indicator matrix must be 2-D")
        if not np.all((F == 0) | (F == 1)):
            raise ValueError("indicator entries must be 0/1")
        w = F.sum(axis=0)
        if np.any(w < 1):
            raise ValueError("every user must occupy at least one resource")
        if np.any(w != w[0]):
            raise ValueError("all indicator columns must have equal weight")
        F = np.ascontiguousarray(F)
        F.flags.writeable = False
        object.__setattr__(self, "rows", F)

    @property
    def N(self) -> int:
        return self.rows.shape[0]

    @property
    def J(self) -> int:
        return self.rows.shape[1]

    @property
    def column_weight(self) -> int:
        return int(self.rows[:, 0].sum())

    def row_weights(self) -> np.ndarray:
        return self.rows.sum(axis=1)

    def to_json_dict(self) -> dict:
        return {"N": self.N, "J": self.J, "rows": self.rows.tolist()}

    @classmethod
    def from_json_dict(cls, d: dict) -> "IndicatorMatrix":
        require_keys(d, "N", "J", "rows")
        F = cls(rows=np.asarray(d["rows"]))
        if (F.N, F.J) != (d["N"], d["J"]):
            raise ValueError("indicator matrix N/J fields disagree with rows")
        return F

    def save(self, path: str) -> None:
        write_json_atomic(path, self.to_json_dict())

    @classmethod
    def load(cls, path: str) -> "IndicatorMatrix":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def default_indicator() -> IndicatorMatrix:
    return IndicatorMatrix(rows=np.array(DEFAULT_INDICATOR_ROWS))


def overloading_factor(F: IndicatorMatrix) -> float:
    """Users per resource, J/N."""
    return F.J / F.N


def mapping_from_indicator(F: IndicatorMatrix, j: int) -> np.ndarray:
    """Binary N x K selection matrix for user j (0-based).

    Constellation dimension k lands on the k-th occupied resource of the
    user, in increasing resource order; diag(V V^T) equals column j of F.
    """
    if not (0 <= j < F.J):
        raise IndexError(f"user index {j} out of range for J={F.J}")
    res = np.flatnonzero(F.rows[:, j])
    V = np.zeros((F.N, res.size), dtype=np.int64)
    V[res, np.arange(res.size)] = 1
    return V


@dataclass(frozen=True)
class OperatorSet:
    """Per-user diagonal unit-modulus operators, stored as phase angles."""

    phases: np.ndarray  # (J, K) radians

    def __post_init__(self):
        ph = np.ascontiguousarray(np.asarray(self.phases, dtype=np.float64))
        if ph.ndim != 2:
            raise ValueError("phases must be (J, K)")
        if not np.all(np.isfinite(ph)):
            raise ValueError("phases must be finite (a JSON null is NaN)")
        ph.flags.writeable = False
        object.__setattr__(self, "phases", ph)

    def operator(self, j: int) -> np.ndarray:
        return np.diag(np.exp(1j * self.phases[j]))

    def to_json_dict(self) -> dict:
        return {"phases": self.phases.tolist()}

    @classmethod
    def from_json_dict(cls, d: dict) -> "OperatorSet":
        require_keys(d, "phases")
        return cls(phases=np.asarray(d["phases"]))

    def save(self, path: str) -> None:
        write_json_atomic(path, self.to_json_dict())

    @classmethod
    def load(cls, path: str) -> "OperatorSet":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def default_operators(F: IndicatorMatrix, M: int) -> OperatorSet:
    """Phase scheme separating colliding users on every resource.

    On resource n the colliding users, ordered by user index, apply phases
    2*pi*r / (d_f * M) for rank r = 0, 1, ..., on whichever of their own
    dimensions maps to that resource.
    """
    K = F.column_weight
    phases = np.zeros((F.J, K))
    for n in range(F.N):
        users = np.flatnonzero(F.rows[n])
        d_f = users.size
        for rank, j in enumerate(users):
            k = int(np.flatnonzero(np.flatnonzero(F.rows[:, j]) == n)[0])
            phases[j, k] = 2.0 * math.pi * rank / (d_f * M)
    return OperatorSet(phases=phases)


@dataclass(frozen=True)
class SCMACodebookSet:
    """J sparse codebooks; codebooks[j] is N x M, column m a codeword."""

    codebooks: np.ndarray  # (J, N, M) complex
    indicator: IndicatorMatrix
    operators: OperatorSet
    base: Constellation
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        cb = np.ascontiguousarray(np.asarray(self.codebooks, dtype=np.complex128))
        cb.flags.writeable = False
        object.__setattr__(self, "codebooks", cb)

    @property
    def J(self) -> int:
        return self.codebooks.shape[0]

    @property
    def N(self) -> int:
        return self.codebooks.shape[1]

    @property
    def M(self) -> int:
        return self.codebooks.shape[2]

    def to_json_list(self) -> list:
        out = []
        for j in range(self.J):
            cbj = self.codebooks[j]
            nz = np.flatnonzero(np.any(np.abs(cbj) > 0, axis=1))
            out.append(
                {
                    "K": self.N,
                    "M": self.M,
                    "points": [
                        [[float(z.real), float(z.imag)] for z in cbj[:, m]]
                        for m in range(self.M)
                    ],
                    "sparsity": nz.tolist(),
                    "meta": {"user": j, **self.meta},
                }
            )
        return out

    def save(self, path: str) -> None:
        write_json_atomic(
            path,
            {
                "codebooks": self.to_json_list(),
                "indicator": self.indicator.to_json_dict(),
                "operators": self.operators.to_json_dict(),
                "base": self.base.to_json_dict(),
            },
        )

    @classmethod
    def load(cls, path: str) -> "SCMACodebookSet":
        with open(path) as fh:
            d = json.load(fh)
        require_keys(d, "indicator", "operators", "base")
        F = IndicatorMatrix.from_json_dict(d["indicator"])
        ops = OperatorSet.from_json_dict(d["operators"])
        base = Constellation.from_json_dict(d["base"])
        return build_codebooks(F, base, ops)


def build_codebooks(
    F: IndicatorMatrix, base: Constellation, ops: OperatorSet | None = None
) -> SCMACodebookSet:
    """Codebook of user j = V_j diag(e^{i phi_j}) (base constellation)."""
    K = F.column_weight
    if base.K != K:
        raise ValueError(
            f"base constellation has K={base.K} but indicator column weight is {K}"
        )
    if ops is None:
        ops = default_operators(F, base.M)
    if ops.phases.shape != (F.J, K):
        raise ValueError(
            f"operator set shape {ops.phases.shape} does not match (J, K)=({F.J}, {K})"
        )
    cb = np.zeros((F.J, F.N, base.M), dtype=np.complex128)
    for j in range(F.J):
        V = mapping_from_indicator(F, j)
        cb[j] = V @ (ops.operator(j) @ base.points)
    return SCMACodebookSet(codebooks=cb, indicator=F, operators=ops, base=base)


def per_user_power(cbs: SCMACodebookSet) -> np.ndarray:
    """Average codeword energy per user."""
    return np.sum(np.abs(cbs.codebooks) ** 2, axis=(1, 2)) / cbs.M


def _graph_arrays(F: IndicatorMatrix):
    dmax = int(np.max(F.row_weights()))
    res_users = np.full((F.N, dmax), -1, dtype=np.int64)
    res_deg = np.zeros(F.N, dtype=np.int64)
    for n in range(F.N):
        users = np.flatnonzero(F.rows[n])
        res_deg[n] = users.size
        res_users[n, : users.size] = users
    user_res = np.zeros((F.J, F.column_weight), dtype=np.int64)
    for j in range(F.J):
        user_res[j] = np.flatnonzero(F.rows[:, j])
    return res_users, res_deg, user_res


def mpa_detect(
    y: np.ndarray,
    H: np.ndarray,
    cbs: SCMACodebookSet,
    n0: float,
    iters: int = 10,
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior (J, M) and hard decisions (J,) for one received vector."""
    post, hard = mpa_detect_batch(y[None, :], H[None, :, :], cbs, n0, iters)
    return post[0], hard[0]


def mpa_detect_batch(
    y: np.ndarray,
    H: np.ndarray,
    cbs: SCMACodebookSet,
    n0: float,
    iters: int = 10,
) -> tuple[np.ndarray, np.ndarray]:
    """Batch MPA: y (B, N), H (B, N, J) -> posteriors (B, J, M), hard (B, J).

    Raises ``ValueError`` unless iters >= 1 (with no iteration the
    posteriors stay uniform) and 0 < n0 < inf.
    """
    if iters < 1:
        raise ValueError(f"MPA iters must be >= 1, got {iters}")
    if not (math.isfinite(n0) and n0 > 0):
        raise ValueError(f"MPA noise variance n0 must be finite and > 0, got {n0}")
    y = np.asarray(y, dtype=np.complex128)
    H = np.asarray(H, dtype=np.complex128)
    if y.shape[1] != cbs.N or H.shape[1:] != (cbs.N, cbs.J):
        raise ValueError("y/H dimensions do not match the codebook set")
    res_users, res_deg, user_res = _graph_arrays(cbs.indicator)
    return kernels.mpa_detect_batch(
        y, H, cbs.codebooks, res_users, res_deg, user_res, n0, iters
    )


def joint_ml_marginals(
    y: np.ndarray, H: np.ndarray, cbs: SCMACodebookSet, n0: float
) -> np.ndarray:
    """Exact per-user posteriors by enumerating all M^J transmit tuples.

    Brute-force oracle for MPA; only feasible for tiny systems.
    """
    J, N, M = cbs.J, cbs.N, cbs.M
    w = np.zeros((M,) * J)
    for tup in np.ndindex(*(M,) * J):
        s = np.zeros(N, dtype=np.complex128)
        for j in range(J):
            s += H[:, j] * cbs.codebooks[j, :, tup[j]]
        w[tup] = -float(np.sum(np.abs(y - s) ** 2)) / n0
    w -= np.max(w)
    p = np.exp(w)
    post = np.empty((J, M))
    for j in range(J):
        axes = tuple(a for a in range(J) if a != j)
        post[j] = p.sum(axis=axes)
        post[j] /= post[j].sum()
    return post
