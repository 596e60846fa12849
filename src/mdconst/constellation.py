"""Multi-dimensional complex constellations and their distance metrics.

A constellation is a K x M complex matrix whose columns are the M vectors.
The two figures of merit are the minimum Euclidean distance (MED), which
governs Gaussian-channel performance, and the minimum product distance
(MPD), which governs Rayleigh-fading performance through signal space
diversity.

Every metric is a reduction over k of one (K, P) array, ``pair_gaps``, of
the per-dimension gaps |x_{i,k} - x_{j,k}| of the P = M(M-1)/2 pairs: MED
from sqrt(sum_k g^2), MPD from prod_k g, delta from min g, and the AM-GM
bound d_P^2 <= (d_E^2/K)^K from both. The tolerances are module constants.
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

#: Relative gap spread up to which a pair meets the AM-GM bound with equality.
AMGM_EQ_TOL = 1e-6


# -- JSON files ------------------------------------------------------------


def _nonfinite_to_null(obj):
    if isinstance(obj, float) and not math.isfinite(obj):
        # JSON has no NaN/Inf; null keeps the files strictly parseable.
        return None
    if isinstance(obj, dict):
        return {k: _nonfinite_to_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_nonfinite_to_null(v) for v in obj]
    return obj


def json_floats(value, name: str) -> np.ndarray:
    """A loaded JSON array as float64 (null -> NaN); a ValueError naming
    ``name``, not a TypeError, if it holds a string, a boolean, an object
    or another non-number. numpy would read "1" and true as 1.0."""
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, list):
            stack.extend(v)
        elif isinstance(v, (str, bool)):
            raise ValueError(f"{name} must hold numbers, not {json.dumps(v)}")
    try:
        return np.asarray(value, dtype=np.float64)
    except TypeError as exc:
        raise ValueError(f"{name} must hold numbers: {exc}") from exc


def require_keys(d, *keys) -> None:
    """ValueError naming what a loaded JSON object lacks, not a KeyError."""
    if not isinstance(d, dict):
        raise ValueError(f"expected a JSON object, got {type(d).__name__}")
    missing = [k for k in keys if k not in d]
    if missing:
        raise ValueError(f"JSON object is missing key(s): {', '.join(missing)}")


def write_text_atomic(path: str, text: str) -> None:
    """Write text via a temp file in the same directory + rename, so a
    reader never sees a partial file; the temp file goes on any error, and
    an ``OSError`` is raised again naming ``path``, not the temp file.
    The file gets mode 0666 less the umask, as open() would give it."""
    d = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0)
    os.umask(umask)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def write_json_atomic(path: str, data: dict) -> None:
    """Write JSON atomically; floats keep Python's shortest round-trip repr,
    NaN and inf become null."""
    write_text_atomic(path, json.dumps(_nonfinite_to_null(data), indent=1) + "\n")


class JsonFile:
    """``save``/``load`` for a type stored as one JSON object, through its
    ``to_json_dict`` and ``from_json_dict``."""

    def save(self, path: str) -> None:
        write_json_atomic(path, self.to_json_dict())

    @classmethod
    def load(cls, path: str):
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


@dataclass(frozen=True)
class Constellation(JsonFile):
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
        raw = json_floats(d["points"], "points")
        if raw.shape != (d["M"], d["K"], 2):
            raise ValueError("points shape does not match K/M")
        meta = d.get("meta", {})
        if not isinstance(meta, dict):
            raise ValueError("meta must be a JSON object")
        # each [re, im] pair is one complex128 in memory: exact, keeps -0.0
        pts = raw.view(np.complex128)[:, :, 0].T
        return cls(points=pts, meta=dict(meta))


def pair_indices(M: int) -> list[tuple[int, int]]:
    """All (i, j) with 0 <= i < j < M, lexicographic order."""
    return [(i, j) for i in range(M - 1) for j in range(i + 1, M)]


# -- metrics -------------------------------------------------------------


def pair_gaps(C: Constellation) -> np.ndarray:
    """(K, P) per-dimension gaps |x_{i,k} - x_{j,k}|, pairs in pair_indices order."""
    i, j = np.triu_indices(C.M, k=1)
    return np.abs(C.points[:, i] - C.points[:, j])


def _euclidean(g: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(g**2, axis=0))


def _product(g: np.ndarray) -> np.ndarray:
    """Product over the dimensions where a pair differs; +inf where none does."""
    differs = g > ZERO_TOL
    prod = np.prod(np.where(differs, g, 1.0), axis=0)
    return np.where(differs.any(axis=0), prod, math.inf)


def _finite(pp: np.ndarray) -> np.ndarray:
    finite = pp[np.isfinite(pp)]
    if finite.size == 0:
        raise ValueError("degenerate constellation: all vector pairs identical")
    return finite


def _kissing(d: np.ndarray) -> int:
    """Number of distances within KISSING_REL_TOL (relative) of the minimum."""
    return int(np.sum(d <= d.min() * (1.0 + KISSING_REL_TOL)))


def med(C: Constellation) -> float:
    """Minimum Euclidean distance over all vector pairs."""
    return float(_euclidean(pair_gaps(C)).min())


def mpd(C: Constellation) -> float:
    """Minimum product distance over pairs with at least one differing dim."""
    return float(_finite(_product(pair_gaps(C))).min())


def min_elementwise(C: Constellation) -> float:
    """Smallest per-dimension gap |x_{i,k} - x_{j,k}| over all pairs (delta)."""
    return float(pair_gaps(C).min())


def average_power(C: Constellation) -> float:
    """tr(C^H C) / M, the average vector energy."""
    return float(np.sum(np.abs(C.points) ** 2) / C.M)


def normalize(C: Constellation) -> Constellation:
    """Scale to unit average power, tr(C^H C)/M = 1."""
    p = average_power(C)
    if p <= 0.0:
        raise ValueError("cannot normalize an all-zero constellation")
    return Constellation(points=C.points / math.sqrt(p), meta=dict(C.meta))


def amgm_check(C: Constellation) -> list[dict]:
    """AM-GM diagnostic: d_P^2 <= ||x_i - x_j||^(2K) / K^K for every pair.

    The bound holds with equality exactly when all per-dimension gaps of
    the pair are equal; pairs within AMGM_EQ_TOL relative spread are
    flagged. Negative slack beyond -1e-9 signals a metric bug, not a bad
    input.
    """
    g = pair_gaps(C)
    lhs = np.prod(g**2, axis=0)
    rhs = (np.sum(g**2, axis=0) / C.K) ** C.K
    gmax = g.max(axis=0)
    spread = np.divide(
        gmax - g.min(axis=0), gmax, out=np.zeros_like(gmax), where=gmax > 0
    )
    equality = (spread <= AMGM_EQ_TOL).tolist()
    return [
        {"pair": pair, "lhs": l, "rhs": r, "slack": r - l, "equality": eq}
        for pair, l, r, eq in zip(pair_indices(C.M), lhs.tolist(), rhs.tolist(), equality)
    ]


@dataclass(frozen=True)
class DistanceProfile:
    """The distance minima and kissing counts of a constellation."""

    med: float
    mpd: float
    kissing_med: int
    kissing_mpd: int
    min_elementwise: float


def distance_profile(C: Constellation) -> DistanceProfile:
    """Every metric above, reduced from one pair_gaps array."""
    g = pair_gaps(C)
    pe, pp = _euclidean(g), _product(g)
    finite = _finite(pp)
    return DistanceProfile(
        med=float(pe.min()),
        mpd=float(finite.min()),
        kissing_med=_kissing(pe),
        kissing_mpd=_kissing(finite),
        min_elementwise=float(g.min()),
    )


def cartesian_qpsk(K: int) -> Constellation:
    """Cartesian product of K unit-power QPSK alphabets, unit vector power.

    Gives M = 4^K vectors; the classic diversity-one reference whose MPD
    is governed by pairs differing in a single dimension.
    """
    base = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / math.sqrt(2)
    M = 4**K
    # entry k of vector m is base-4 digit k of m, most significant first
    pts = base[np.arange(M) // 4 ** np.arange(K - 1, -1, -1)[:, None] % 4]
    return normalize(Constellation(points=pts, meta={"family": "cartesian_qpsk"}))
