"""Batch-vectorized numpy detection kernels plus scalar loop references.

``ml_detect_batch`` and ``mpa_detect_batch`` are the only runtime paths.
``_ml_detect_loops`` and ``_mpa_detect_loops`` spell out the same
algorithms one vector at a time; they are the oracles the tests compare
the vectorized kernels against. RNG always lives outside the kernels.

Layouts:
  ML detection: y (B, K), h (B, K), points (K, M) -> (B,) symbol indices.
  MPA detection: y (B, N), H (B, N, J), codebooks (J, N, M),
    res_users (N, dmax) padded with -1, res_deg (N,), user_res (J, K)
    -> posteriors (B, J, M), hard decisions (B, J).
"""

from __future__ import annotations

import math

import numpy as np

#: Name of the detection path, recorded in run manifests.
BACKEND = "numpy"


# -- maximum-likelihood detection -----------------------------------------


def ml_detect_batch(y, h, points):
    """Nearest-codeword detection, argmin of sum_k |y_k - h_k x_{m,k}|^2."""
    y = np.ascontiguousarray(y, dtype=np.complex128)
    h = np.ascontiguousarray(h, dtype=np.complex128)
    points = np.ascontiguousarray(points, dtype=np.complex128)
    # residual tensor (B, K, M); memory is the caller's chunking problem
    r = y[:, :, None] - h[:, :, None] * points[None, :, :]
    d = np.sum(r.real**2 + r.imag**2, axis=1)
    return np.argmin(d, axis=1).astype(np.int64)


def _ml_detect_loops(y, h, points):
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


# -- message passing detection --------------------------------------------


def _maxstar(a: float, b: float) -> float:
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    hi = a if a > b else b
    lo = b if a > b else a
    return hi + math.log1p(math.exp(lo - hi))


def _mpa_detect_loops(y, H, cb, res_users, res_deg, user_res, n0, iters):
    B, N = y.shape
    J, _, M = cb.shape
    K = user_res.shape[1]
    dmax = res_users.shape[1]
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
                    u = res_users[n, p]
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
                        fv[n, p, combo[p]] = _maxstar(fv[n, p, combo[p]], w)
            # variable-node update per user
            for j in range(J):
                for ki in range(K):
                    n = user_res[j, ki]
                    p = 0
                    while res_users[n, p] != j:
                        p += 1
                    for m in range(M):
                        tot = 0.0
                        for ki2 in range(K):
                            if ki2 == ki:
                                continue
                            n2 = user_res[j, ki2]
                            p2 = 0
                            while res_users[n2, p2] != j:
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
                    while res_users[n, p] != j:
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


def mpa_detect_batch(y, H, cb, res_users, res_deg, user_res, n0, iters):
    """Log-domain MPA over the indicator factor graph; exact max-star sums.

    Same message schedule as ``_mpa_detect_loops``, vectorized over B.
    """
    y = np.ascontiguousarray(y, dtype=np.complex128)
    H = np.ascontiguousarray(H, dtype=np.complex128)
    cb = np.ascontiguousarray(cb, dtype=np.complex128)
    n0 = float(n0)
    B, N = y.shape
    J, _, M = cb.shape
    dmax = res_users.shape[1]

    # per-resource combo tables
    combos = []
    for n in range(N):
        deg = int(res_deg[n])
        g = np.indices((M,) * deg).reshape(deg, -1)[::-1]  # axis p varies fastest
        combos.append(np.ascontiguousarray(g))

    fv = np.full((B, N, dmax, M), 0.0)
    vf = np.zeros((B, N, dmax, M))

    for _ in range(iters):
        for n in range(N):
            deg = int(res_deg[n])
            users = res_users[n, :deg]
            g = combos[n]  # (deg, ncombo)
            vals = H[:, n, users][:, :, None] * cb[users, n, :][None]  # (B, deg, M)
            s = np.zeros((B, g.shape[1]), dtype=np.complex128)
            vsum = np.zeros((B, g.shape[1]))
            for p in range(deg):
                s += vals[:, p, g[p]]
                vsum += vf[:, n, p, g[p]]
            r = y[:, n, None] - s
            base = -(r.real**2 + r.imag**2) / n0 + vsum  # (B, ncombo)
            for p in range(deg):
                w = base - vf[:, n, p, g[p]]
                for m in range(M):
                    sel = g[p] == m
                    fv[:, n, p, m] = _logsumexp_cols(w[:, sel])
        for j in range(J):
            pos = [
                (int(n), int(np.where(res_users[n, : res_deg[n]] == j)[0][0]))
                for n in user_res[j]
            ]
            tot = np.zeros((B, M))
            for n, p in pos:
                tot += fv[:, n, p, :]
            for n, p in pos:
                msg = tot - fv[:, n, p, :]
                mx = np.max(msg, axis=1, keepdims=True)
                lse = mx + np.log(np.sum(np.exp(msg - mx), axis=1, keepdims=True))
                vf[:, n, p, :] = msg - lse

    post = np.zeros((B, J, M))
    for j in range(J):
        pos = [
            (int(n), int(np.where(res_users[n, : res_deg[n]] == j)[0][0]))
            for n in user_res[j]
        ]
        tot = np.zeros((B, M))
        for n, p in pos:
            tot += fv[:, n, p, :]
        mx = np.max(tot, axis=1, keepdims=True)
        lse = mx + np.log(np.sum(np.exp(tot - mx), axis=1, keepdims=True))
        post[:, j, :] = np.exp(tot - lse)
    hard = np.argmax(post, axis=2).astype(np.int64)
    return post, hard


def _logsumexp_cols(w: np.ndarray) -> np.ndarray:
    """logsumexp along the last axis, guarding empty selections."""
    if w.shape[-1] == 0:
        return np.full(w.shape[:-1], -1e30)
    mx = np.max(w, axis=-1)
    return mx + np.log(np.sum(np.exp(w - mx[..., None]), axis=-1))
