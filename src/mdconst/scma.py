"""SCMA codebook construction and MPA multiuser detection.

J users share N orthogonal resources (J > N). A binary N x J indicator
matrix marks which user occupies which resource; each user's codebook is
the base K-dimensional constellation, phase-rotated by a per-user diagonal
operator and embedded into the N resources its indicator column selects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .constellation import Constellation, JsonFile, json_floats, require_keys

#: The widely used 4 resources x 6 users indicator matrix (column weight 2,
#: row weight 3).
DEFAULT_INDICATOR_ROWS = (
    (0, 1, 1, 0, 1, 0),
    (1, 0, 1, 0, 0, 1),
    (0, 1, 0, 1, 0, 1),
    (1, 0, 0, 1, 1, 0),
)


@dataclass(frozen=True)
class IndicatorMatrix(JsonFile):
    rows: np.ndarray  # (N, J) binary
    # the factor graph, read-only like rows; -1 pads res_edges, whose entry
    # j * K + k is the edge from user j to its k-th resource user_res[j, k]
    user_res: np.ndarray = field(init=False, repr=False, compare=False)  # (J, K)
    res_edges: np.ndarray = field(init=False, repr=False, compare=False)  # (N, dmax)
    res_deg: np.ndarray = field(init=False, repr=False, compare=False)  # (N,)

    def __post_init__(self):
        F = np.asarray(self.rows)
        if F.ndim != 2:
            raise ValueError("indicator matrix must be 2-D")
        if F.shape[1] < 1:
            raise ValueError("indicator matrix must have at least one user")
        if not np.all((F == 0) | (F == 1)):  # before the cast, which truncates
            raise ValueError("indicator entries must be 0/1")
        F = F.astype(np.int64)
        w = F.sum(axis=0)
        if np.any(w < 1):
            raise ValueError("every user must occupy at least one resource")
        if np.any(w != w[0]):
            raise ValueError("all indicator columns must have equal weight")
        # The factor graph, built once. A stable argsort of 1 - F.T lists each
        # user's resources in increasing order, and a stable argsort of the
        # edges' resources lists each resource's edges, users ascending.
        user_res = np.argsort(1 - F.T, axis=1, kind="stable")[:, : w[0]]
        res_deg = F.sum(axis=1)
        res_edges = np.full((F.shape[0], res_deg.max()), -1)
        res_edges[np.arange(res_deg.max()) < res_deg[:, None]] = np.argsort(
            user_res.ravel(), kind="stable")
        for name, arr in (("rows", F), ("user_res", user_res),
                          ("res_edges", res_edges), ("res_deg", res_deg)):
            arr = np.ascontiguousarray(arr, dtype=np.int64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def N(self) -> int:
        return self.rows.shape[0]

    @property
    def J(self) -> int:
        return self.rows.shape[1]

    @property
    def column_weight(self) -> int:
        return self.user_res.shape[1]

    def to_json_dict(self) -> dict:
        return {"N": self.N, "J": self.J, "rows": self.rows.tolist()}

    @classmethod
    def from_json_dict(cls, d: dict) -> "IndicatorMatrix":
        require_keys(d, "N", "J", "rows")
        F = cls(rows=json_floats(d["rows"], "indicator rows"))
        if (F.N, F.J) != (d["N"], d["J"]):
            raise ValueError("indicator matrix N/J fields disagree with rows")
        return F


def default_indicator() -> IndicatorMatrix:
    return IndicatorMatrix(rows=np.array(DEFAULT_INDICATOR_ROWS))


def overloading_factor(F: IndicatorMatrix) -> float:
    """Users per resource, J/N."""
    return F.J / F.N


@dataclass(frozen=True)
class OperatorSet(JsonFile):
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

    def to_json_dict(self) -> dict:
        return {"phases": self.phases.tolist()}

    @classmethod
    def from_json_dict(cls, d: dict) -> "OperatorSet":
        require_keys(d, "phases")
        return cls(phases=json_floats(d["phases"], "phases"))


def default_operators(F: IndicatorMatrix, M: int) -> OperatorSet:
    """Phase scheme separating colliding users on every resource.

    On resource n the colliding users, ordered by user index, apply phases
    2*pi*r / (d_f * M) for rank r = 0, 1, ..., on whichever of their own
    dimensions maps to that resource.
    """
    phases = np.zeros((F.J, F.column_weight))
    for n in range(F.N):
        d_f = int(F.res_deg[n])
        for rank, e in enumerate(F.res_edges[n, :d_f]):
            phases[divmod(int(e), F.column_weight)] = 2.0 * math.pi * rank / (d_f * M)
    return OperatorSet(phases=phases)


@dataclass(frozen=True)
class SCMACodebookSet(JsonFile):
    """J sparse codebooks; codebooks[j] (N x M, column m a codeword) is
    V_j diag(e^{i phi_j}) (base), the rotated base written into rows
    ``user_res[j]``, built from the other fields and read-only."""

    indicator: IndicatorMatrix
    operators: OperatorSet
    base: Constellation
    codebooks: np.ndarray = field(init=False, repr=False, compare=False)  # (J, N, M)

    def __post_init__(self):
        F, base, phases = self.indicator, self.base, self.operators.phases
        K = F.column_weight
        if base.K != K:
            raise ValueError(
                f"base constellation has K={base.K} but indicator column weight is {K}"
            )
        if phases.shape != (F.J, K):
            raise ValueError(
                f"operator set shape {phases.shape} does not match (J, K)=({F.J}, {K})"
            )
        cb = np.zeros((F.J, F.N, base.M), dtype=np.complex128)
        rotated = np.exp(1j * phases)[:, :, None] * base.points  # (J, K, M)
        cb[np.arange(F.J)[:, None], F.user_res] = rotated
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

    def to_json_dict(self) -> dict:
        # each record is an N x M Constellation; "sparsity" goes before "meta"
        records = [
            Constellation(points=cb, meta={"user": j}).to_json_dict()
            for j, cb in enumerate(self.codebooks)
        ]
        for rec, res in zip(records, self.indicator.user_res):
            rec["sparsity"] = res.tolist()
            rec["meta"] = rec.pop("meta")
        return {
            "codebooks": records,
            "indicator": self.indicator.to_json_dict(),
            "operators": self.operators.to_json_dict(),
            "base": self.base.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "SCMACodebookSet":
        """Rebuilt from indicator, operators and base; "codebooks" is not read."""
        require_keys(d, "indicator", "operators", "base")
        return cls(
            IndicatorMatrix.from_json_dict(d["indicator"]),
            OperatorSet.from_json_dict(d["operators"]),
            Constellation.from_json_dict(d["base"]),
        )


def build_codebooks(
    F: IndicatorMatrix, base: Constellation, ops: OperatorSet | None = None
) -> SCMACodebookSet:
    """``SCMACodebookSet(F, ops, base)``, ``ops`` by ``default_operators`` if None."""
    if ops is None:
        ops = default_operators(F, base.M)
    return SCMACodebookSet(F, ops, base)


def mpa_detect_batch(
    y: np.ndarray,
    H: np.ndarray,
    cbs: SCMACodebookSet,
    n0: float,
    iters: int = 10,
) -> tuple[np.ndarray, np.ndarray]:
    """Batch MPA: y (B, N), H (B, N, J) -> posteriors (B, J, M), hard (B, J).

    Raises ``ValueError`` unless iters >= 1 (with no iteration the
    posteriors stay uniform), 0 < n0 < inf and y and H have these shapes
    with one batch size B.
    """
    if iters < 1:
        raise ValueError(f"MPA iters must be >= 1, got {iters}")
    if not (math.isfinite(n0) and n0 > 0):
        raise ValueError(f"MPA noise variance n0 must be finite and > 0, got {n0}")
    y = np.asarray(y, dtype=np.complex128)
    H = np.asarray(H, dtype=np.complex128)
    if (
        y.ndim != 2
        or H.ndim != 3
        or y.shape[0] != H.shape[0]
        or y.shape[1] != cbs.N
        or H.shape[1:] != (cbs.N, cbs.J)
    ):
        raise ValueError(
            f"y/H dimensions do not match the codebook set: y {y.shape} and "
            f"H {H.shape} must be (B, N) and (B, N, J) with N={cbs.N}, J={cbs.J}"
        )
    F = cbs.indicator
    return kernels.mpa_detect_batch(
        y, H, cbs.codebooks, F.res_edges, F.res_deg, F.user_res, n0, iters
    )
