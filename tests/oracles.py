"""Scalar reference detectors, the oracles the batch kernels are tested against.

``ml_detect_loops`` and ``mpa_detect_loops`` spell out, one vector at a
time, the algorithms of ``kernels.ml_detect_batch`` and
``kernels.mpa_detect_batch`` (same layouts, same message schedule), and
``joint_ml_marginals`` computes exact per-user posteriors by brute force.
``p2p_ber_bounds`` bounds the point-to-point ML bit error rate analytically.
None of them is on a runtime path.
"""

from __future__ import annotations

import math

import numpy as np

from mdconst import scma


def ml_detect_loops(y, h, points):
    B, K = y.shape
    M = points.shape[1]
    out = np.empty(B, dtype=np.int64)
    for b in range(B):
        best = math.inf
        arg = 0
        for m in range(M):
            d = 0.0
            for k in range(K):
                r = y[b, k] - h[b, k] * points[k, m]
                d += r.real * r.real + r.imag * r.imag
            if d < best:
                best = d
                arg = m
        out[b] = arg
    return out


def maxstar(a: float, b: float) -> float:
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    hi = a if a > b else b
    lo = b if a > b else a
    return hi + math.log1p(math.exp(lo - hi))


def mpa_detect_loops(y, H, cb, res_edges, res_deg, user_res, n0, iters):
    B, N = y.shape
    J, _, M = cb.shape
    K = user_res.shape[1]
    dmax = res_edges.shape[1]
    NEG = -1e30

    post = np.zeros((B, J, M))
    hard = np.zeros((B, J), dtype=np.int64)
    fv = np.zeros((N, dmax, M))
    vf = np.zeros((N, dmax, M))
    combo = np.zeros(dmax, dtype=np.int64)
    vals = np.zeros((dmax, M), dtype=np.complex128)

    for b in range(B):
        fv[:] = 0.0
        vf[:] = 0.0
        for _ in range(iters):
            # function-node update per resource
            for n in range(N):
                deg = res_deg[n]
                for p in range(deg):
                    u = res_edges[n, p] // K
                    for m in range(M):
                        vals[p, m] = H[b, n, u] * cb[u, n, m]
                for p in range(deg):
                    for m in range(M):
                        fv[n, p, m] = NEG
                ncombo = M**deg
                for c in range(ncombo):
                    cc = c
                    for p in range(deg):
                        combo[p] = cc % M
                        cc //= M
                    s = 0.0 + 0.0j
                    vsum = 0.0
                    for p in range(deg):
                        s += vals[p, combo[p]]
                        vsum += vf[n, p, combo[p]]
                    r = y[b, n] - s
                    base = -(r.real * r.real + r.imag * r.imag) / n0 + vsum
                    for p in range(deg):
                        w = base - vf[n, p, combo[p]]
                        fv[n, p, combo[p]] = maxstar(fv[n, p, combo[p]], w)
            # variable-node update per user
            for j in range(J):
                for ki in range(K):
                    n = user_res[j, ki]
                    p = 0
                    while res_edges[n, p] != j * K + ki:
                        p += 1
                    for m in range(M):
                        tot = 0.0
                        for ki2 in range(K):
                            if ki2 == ki:
                                continue
                            n2 = user_res[j, ki2]
                            p2 = 0
                            while res_edges[n2, p2] != j * K + ki2:
                                p2 += 1
                            tot += fv[n2, p2, m]
                        vf[n, p, m] = tot
                    # normalize in log domain
                    mx = NEG
                    for m in range(M):
                        if vf[n, p, m] > mx:
                            mx = vf[n, p, m]
                    acc = 0.0
                    for m in range(M):
                        acc += math.exp(vf[n, p, m] - mx)
                    lse = mx + math.log(acc)
                    for m in range(M):
                        vf[n, p, m] -= lse

        for j in range(J):
            best = NEG
            arg = 0
            for m in range(M):
                tot = 0.0
                for ki in range(K):
                    n = user_res[j, ki]
                    p = 0
                    while res_edges[n, p] != j * K + ki:
                        p += 1
                    tot += fv[n, p, m]
                post[b, j, m] = tot
                if tot > best:
                    best = tot
                    arg = m
            hard[b, j] = arg
            # normalize posterior to probabilities
            acc = 0.0
            for m in range(M):
                acc += math.exp(post[b, j, m] - best)
            lse = best + math.log(acc)
            for m in range(M):
                post[b, j, m] = math.exp(post[b, j, m] - lse)
    return post, hard


def joint_ml_marginals(
    y: np.ndarray, H: np.ndarray, cbs: scma.SCMACodebookSet, n0: float
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


def pairwise_error_probabilities(points, n0, channel):
    """(M, M) PEP(i -> j) of ML detection with a known channel; 0 on the diagonal.

    n0 is the noise variance per complex dimension. AWGN:
    Q(||x_i - x_j|| / sqrt(2 n0)). i.i.d. unit-variance Rayleigh fading per
    dimension, from Craig's form of Q (Simon & Alouini):
    (1/pi) int_0^{pi/2} prod_k (1 + |x_ik - x_jk|^2 / (4 n0 sin^2 t))^-1 dt,
    on a 64-node Gauss-Legendre rule in t.
    """
    X = np.asarray(points, dtype=np.complex128)
    d2 = np.abs(X[:, :, None] - X[:, None, :]) ** 2  # (K, M, M) per dimension
    if channel == "awgn":
        pep = np.vectorize(lambda x: 0.5 * math.erfc(x / 2.0))(np.sqrt(d2.sum(axis=0) / n0))
    else:
        u, w = np.polynomial.legendre.leggauss(64)
        t = (u + 1.0) * math.pi / 4.0  # nodes on (0, pi/2), weights times pi/4
        s2 = np.sin(t) ** 2
        f = np.prod(1.0 / (1.0 + d2[..., None] / (4.0 * n0 * s2)), axis=0)
        pep = f @ w / 4.0
    np.fill_diagonal(pep, 0.0)
    return pep


def p2p_ber_bounds(points, n0, channel):
    """(lower, union) bounds on the ML bit error rate under natural labeling.

    union: (1 / (M log2 M)) sum_{i != j} popcount(i ^ j) PEP(i -> j).
    lower: (1 / (M log2 M)) sum_i max_j PEP(i -> j), since each symbol error
    costs at least one bit and ML errs at least as often as toward any one j.
    """
    pep = pairwise_error_probabilities(points, n0, channel)
    M = pep.shape[0]
    nbits = int(round(math.log2(M)))
    idx = np.arange(M)
    hamming = np.array([[bin(i ^ j).count("1") for j in idx] for i in idx])
    scale = 1.0 / (M * nbits)
    return scale * pep.max(axis=1).sum(), scale * (hamming * pep).sum()
