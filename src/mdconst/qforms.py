"""Sparse quadratic forms behind the distance constraints.

With c = vec(C) in C^(KM), the squared Euclidean distance of a vector pair
is c^H E_ij c and the squared per-dimension gap is c^H B_ijk c, where both
matrices are sparse, symmetric, and carry only +/-1 entries. The solver
works over the realified vector z = [Re(c); Im(c)] (``cccp.realify``), for
which c^H A c = z^T blockdiag(A, A) z.

Forms are evaluated one at a time from their index structure (O(K) per
pair form, O(1) per element-wise form), or built as explicit matrices for
inspecting the patterns. The CCCP hot path evaluates all forms at once from
index arrays (``cccp.linearize``); this module is only its test oracle, and
nothing else in the package imports it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QuadFormIndex:
    """Identifies one quadratic form. Indices are 0-based, i < j."""

    kind: str  # "euclidean_pair" | "elementwise"
    i: int
    j: int
    K: int
    M: int
    k: int = -1  # dimension, elementwise only

    def __post_init__(self):
        if self.kind not in ("euclidean_pair", "elementwise"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if not (0 <= self.i < self.j < self.M):
            raise IndexError(f"need 0 <= i < j < M, got ({self.i}, {self.j})")
        if self.kind == "elementwise" and not (0 <= self.k < self.K):
            raise IndexError(f"dimension k={self.k} out of range for K={self.K}")


def euclidean_pair(i: int, j: int, K: int, M: int) -> QuadFormIndex:
    return QuadFormIndex(kind="euclidean_pair", i=i, j=j, K=K, M=M)


def elementwise(i: int, j: int, k: int, K: int, M: int) -> QuadFormIndex:
    return QuadFormIndex(kind="elementwise", i=i, j=j, K=K, M=M, k=k)


@dataclass(frozen=True)
class SparseSymMatrix:
    """Symmetric matrix stored as (row, col, value) triples, values +/-1."""

    order: int
    entries: tuple

    def to_dense(self) -> np.ndarray:
        A = np.zeros((self.order, self.order))
        for r, c, v in self.entries:
            A[r, c] = v
        return A


def build_E(i: int, j: int, K: int, M: int) -> SparseSymMatrix:
    """KM x KM matrix with c^H E c = ||x_i - x_j||^2. 0-based i < j."""
    if not (0 <= i < j < M):
        raise IndexError(f"need 0 <= i < j < M, got ({i}, {j})")
    entries = []
    for k in range(K):
        p, q = i * K + k, j * K + k
        entries += [(p, p, 1), (q, q, 1), (p, q, -1), (q, p, -1)]
    return SparseSymMatrix(order=K * M, entries=tuple(entries))


def build_B(i: int, j: int, k: int, K: int, M: int) -> SparseSymMatrix:
    """KM x KM matrix with c^H B c = |x_{i,k} - x_{j,k}|^2. 0-based."""
    if not (0 <= i < j < M):
        raise IndexError(f"need 0 <= i < j < M, got ({i}, {j})")
    if not (0 <= k < K):
        raise IndexError(f"dimension k={k} out of range for K={K}")
    p, q = i * K + k, j * K + k
    return SparseSymMatrix(
        order=K * M, entries=((p, p, 1), (q, q, 1), (p, q, -1), (q, p, -1))
    )


def _positions(idx: QuadFormIndex) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the i-block and j-block components touched by the form."""
    if idx.kind == "euclidean_pair":
        ks = np.arange(idx.K)
    else:
        ks = np.array([idx.k])
    return idx.i * idx.K + ks, idx.j * idx.K + ks


def qf_value(idx: QuadFormIndex, z: np.ndarray) -> float:
    """z^T blockdiag(A, A) z without materializing A."""
    z = np.asarray(z, dtype=np.float64).ravel()
    n = 2 * idx.K * idx.M
    if z.size != n:
        raise ValueError(f"z has length {z.size}, expected {n}")
    h = n // 2
    pi, pj = _positions(idx)
    dr = z[pi] - z[pj]
    di = z[h + pi] - z[h + pj]
    return float(np.sum(dr * dr) + np.sum(di * di))


def qf_gradient(idx: QuadFormIndex, z: np.ndarray) -> np.ndarray:
    """Gradient 2 blockdiag(A, A) z; nonzero only on 4K (or 4) entries."""
    z = np.asarray(z, dtype=np.float64).ravel()
    n = 2 * idx.K * idx.M
    if z.size != n:
        raise ValueError(f"z has length {z.size}, expected {n}")
    h = n // 2
    pi, pj = _positions(idx)
    g = np.zeros(n)
    dr = 2.0 * (z[pi] - z[pj])
    di = 2.0 * (z[h + pi] - z[h + pj])
    g[pi] = dr
    g[pj] = -dr
    g[h + pi] = di
    g[h + pj] = -di
    return g


def qf_matrix(idx: QuadFormIndex) -> SparseSymMatrix:
    """Explicit complex-domain matrix of the form (oracle path)."""
    if idx.kind == "euclidean_pair":
        return build_E(idx.i, idx.j, idx.K, idx.M)
    return build_B(idx.i, idx.j, idx.k, idx.K, idx.M)
