"""Multi-dimensional complex constellations and their distance metrics.

A constellation is a K x M complex matrix whose columns are the M vectors.
The two figures of merit are the minimum Euclidean distance (MED), which
governs Gaussian-channel performance, and the minimum product distance
(MPD), which governs Rayleigh-fading performance through signal space
diversity.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

#: Absolute tolerance below which two complex entries count as equal when
#: deciding which dimensions enter a product distance.
ZERO_TOL = 1e-12

#: Relative tolerance for counting pairs at the minimum distance.
KISSING_REL_TOL = 1e-6


@dataclass(frozen=True)
class Constellation:
    """K x M complex constellation; column i is the vector x_i."""

    points: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.complex128)
        if pts.ndim != 2:
            raise ValueError("points must be a 2-D (K x M) array")
        K, M = pts.shape
        if K < 1:
            raise ValueError("K must be >= 1")
        if M < 2:
            raise ValueError("M must be >= 2")
        if not np.all(np.isfinite(pts.real)) or not np.all(np.isfinite(pts.imag)):
            raise ValueError("points must be finite (no NaN/Inf)")
        pts = np.ascontiguousarray(pts)
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def K(self) -> int:
        return self.points.shape[0]

    @property
    def M(self) -> int:
        return self.points.shape[1]

    def column(self, i: int) -> np.ndarray:
        return self.points[:, i]

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        pts = [
            [[float(z.real), float(z.imag)] for z in self.points[:, m]]
            for m in range(self.M)
        ]
        return {"K": self.K, "M": self.M, "points": pts, "meta": dict(self.meta)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "Constellation":
        require_keys(d, "K", "M", "points")
        K, M = int(d["K"]), int(d["M"])
        raw = d["points"]
        if len(raw) != M or any(len(col) != K for col in raw):
            raise ValueError("points shape does not match K/M")
        pts = np.empty((K, M), dtype=np.complex128)
        for m, col in enumerate(raw):
            for k, (re, im) in enumerate(col):
                pts[k, m] = complex(re, im)
        return cls(points=pts, meta=dict(d.get("meta", {})))

    def save(self, path: str) -> None:
        write_json_atomic(path, self.to_json_dict())

    @classmethod
    def load(cls, path: str) -> "Constellation":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def _nonfinite_to_null(obj):
    if isinstance(obj, float) and not math.isfinite(obj):
        # JSON has no NaN/Inf; null keeps the files strictly parseable.
        return None
    if isinstance(obj, dict):
        return {k: _nonfinite_to_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_nonfinite_to_null(v) for v in obj]
    return obj


def require_keys(d, *keys) -> None:
    """ValueError naming what a loaded JSON object lacks, not a KeyError."""
    if not isinstance(d, dict):
        raise ValueError(f"expected a JSON object, got {type(d).__name__}")
    missing = [k for k in keys if k not in d]
    if missing:
        raise ValueError(f"JSON object is missing key(s): {', '.join(missing)}")


def write_text_atomic(path: str, text: str) -> None:
    """Write text via a temp file in the same directory + rename, so a
    reader never sees a partial file; the temp file goes on any error."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(path: str, data: dict) -> None:
    """Write JSON atomically; floats keep Python's shortest round-trip repr,
    NaN and inf become null."""
    write_text_atomic(path, json.dumps(_nonfinite_to_null(data), indent=1) + "\n")


def pair_indices(M: int) -> list[tuple[int, int]]:
    """All (i, j) with 0 <= i < j < M, lexicographic order."""
    return [(i, j) for i in range(M - 1) for j in range(i + 1, M)]


# -- metrics -------------------------------------------------------------


def pairwise_euclidean(C: Constellation) -> np.ndarray:
    """Euclidean distances ||x_i - x_j|| for all i < j, pair order."""
    diffs = C.points[:, :, None] - C.points[:, None, :]
    d = np.sqrt(np.sum(np.abs(diffs) ** 2, axis=0))
    iu = np.triu_indices(C.M, k=1)
    return d[iu]


def med(C: Constellation) -> float:
    """Minimum Euclidean distance over all vector pairs."""
    return float(np.min(pairwise_euclidean(C)))


def product_distance(
    C: Constellation, i: int, j: int, zero_tol: float = ZERO_TOL
) -> float:
    """Product of |x_{i,k} - x_{j,k}| over dimensions where the vectors differ.

    Indices are 0-based. Dimensions with gap <= zero_tol are excluded; if
    every dimension is excluded (identical vectors) the pair has no product
    distance and +inf is returned as a sentinel.
    """
    if not (0 <= i < j < C.M):
        raise IndexError(f"need 0 <= i < j < M, got i={i}, j={j}, M={C.M}")
    if zero_tol < 0:
        raise ValueError("zero_tol must be >= 0")
    gaps = np.abs(C.points[:, i] - C.points[:, j])
    admissible = gaps > zero_tol
    if not np.any(admissible):
        return math.inf
    return float(np.prod(gaps[admissible]))


def pairwise_product(C: Constellation, zero_tol: float = ZERO_TOL) -> np.ndarray:
    """Product distances for all pairs, +inf for identical pairs."""
    return np.array(
        [product_distance(C, i, j, zero_tol) for i, j in pair_indices(C.M)]
    )


def mpd(C: Constellation, zero_tol: float = ZERO_TOL) -> float:
    """Minimum product distance over pairs with at least one differing dim."""
    pp = pairwise_product(C, zero_tol)
    finite = pp[np.isfinite(pp)]
    if finite.size == 0:
        raise ValueError("degenerate constellation: all vector pairs identical")
    return float(np.min(finite))


def average_power(C: Constellation) -> float:
    """tr(C^H C) / M, the average vector energy."""
    return float(np.sum(np.abs(C.points) ** 2) / C.M)


def normalize(C: Constellation) -> Constellation:
    """Scale to unit average power, tr(C^H C)/M = 1."""
    p = average_power(C)
    if p <= 0.0:
        raise ValueError("cannot normalize an all-zero constellation")
    return Constellation(points=C.points / math.sqrt(p), meta=dict(C.meta))


def min_elementwise(C: Constellation) -> float:
    """Smallest per-dimension gap |x_{i,k} - x_{j,k}| over all pairs (delta)."""
    diffs = np.abs(C.points[:, :, None] - C.points[:, None, :])
    iu = np.triu_indices(C.M, k=1)
    return float(np.min(diffs[:, iu[0], iu[1]]))


def kissing_number(
    C: Constellation, metric: str = "euclidean", rel_tol: float = KISSING_REL_TOL
) -> int:
    """Number of pairs within rel_tol (relative) of the minimum distance."""
    if rel_tol <= 0:
        raise ValueError("rel_tol must be > 0")
    if metric == "euclidean":
        d = pairwise_euclidean(C)
    elif metric == "product":
        d = pairwise_product(C)
        d = d[np.isfinite(d)]
        if d.size == 0:
            raise ValueError("degenerate constellation: all vector pairs identical")
    else:
        raise ValueError(f"unknown metric {metric!r}")
    dmin = float(np.min(d))
    return int(np.sum(d <= dmin * (1.0 + rel_tol)))


def amgm_check(C: Constellation, eq_tol: float = 1e-6) -> list[dict]:
    """AM-GM diagnostic: d_P^2 <= ||x_i - x_j||^(2K) / K^K for every pair.

    The bound holds with equality exactly when all per-dimension gaps of
    the pair are equal; pairs within eq_tol relative spread are flagged.
    Negative slack beyond -1e-9 signals a metric bug, not a bad input.
    """
    out = []
    K = C.K
    for i, j in pair_indices(C.M):
        gaps = np.abs(C.points[:, i] - C.points[:, j])
        lhs = float(np.prod(gaps**2))
        e2 = float(np.sum(gaps**2))
        rhs = (e2 / K) ** K
        gmax = float(np.max(gaps))
        spread = 0.0 if gmax == 0.0 else float((gmax - np.min(gaps)) / gmax)
        out.append(
            {
                "pair": (i, j),
                "lhs": lhs,
                "rhs": rhs,
                "slack": rhs - lhs,
                "equality": spread <= eq_tol,
            }
        )
    return out


@dataclass(frozen=True)
class DistanceProfile:
    """All pairwise distances plus the derived minima and kissing counts."""

    pairwise_euclidean: np.ndarray
    pairwise_product: np.ndarray
    med: float
    mpd: float
    kissing_med: int
    kissing_mpd: int
    min_elementwise: float
    identical_pairs: tuple

    def to_json_dict(self) -> dict:
        return {
            "med": self.med,
            "mpd": self.mpd,
            "kissing_med": self.kissing_med,
            "kissing_mpd": self.kissing_mpd,
            "min_elementwise": self.min_elementwise,
            "pairwise_euclidean": [float(x) for x in self.pairwise_euclidean],
            "pairwise_product": [
                None if math.isinf(x) else float(x) for x in self.pairwise_product
            ],
            "identical_pairs": [list(p) for p in self.identical_pairs],
        }


def distance_profile(
    C: Constellation, zero_tol: float = ZERO_TOL, rel_tol: float = KISSING_REL_TOL
) -> DistanceProfile:
    pe = pairwise_euclidean(C)
    pp = pairwise_product(C, zero_tol)
    identical = tuple(
        pair for pair, d in zip(pair_indices(C.M), pp) if math.isinf(d)
    )
    return DistanceProfile(
        pairwise_euclidean=pe,
        pairwise_product=pp,
        med=med(C),
        mpd=mpd(C, zero_tol),
        kissing_med=kissing_number(C, "euclidean", rel_tol),
        kissing_mpd=kissing_number(C, "product", rel_tol),
        min_elementwise=min_elementwise(C),
        identical_pairs=identical,
    )


def cartesian_qpsk(K: int) -> Constellation:
    """Cartesian product of K unit-power QPSK alphabets, unit vector power.

    Gives M = 4^K vectors; the classic diversity-one reference whose MPD
    is governed by pairs differing in a single dimension.
    """
    base = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / math.sqrt(2)
    M = 4**K
    pts = np.empty((K, M), dtype=np.complex128)
    for m in range(M):
        idx = m
        for k in range(K - 1, -1, -1):
            pts[k, m] = base[idx % 4]
            idx //= 4
    return normalize(Constellation(points=pts, meta={"family": "cartesian_qpsk"}))
