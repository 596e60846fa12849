"""Batch-vectorized numpy detection kernels plus scalar loop references.

``ml_detect_batch`` and ``mpa_detect_batch`` are the only runtime paths.
``_ml_detect_loops`` and ``_mpa_detect_loops`` spell out the same
algorithms one vector at a time; they are the oracles the tests compare
the vectorized kernels against. RNG always lives outside the kernels.

Layouts:
  ML detection: y (B, K), h (B, K), points (K, M) -> (B,) symbol indices.
  MPA detection: y (B, N), H (B, N, J), codebooks (J, N, M),
    res_users (N, dmax) padded with -1, res_deg (N,), user_res (J, K)
    -> posteriors (B, J, M), hard decisions (B, J). The three graph
    arrays are those ``scma.IndicatorMatrix`` builds once per indicator.

ML detection. Expanding the squared norm,

  ||y - h x_m||^2 = ||y||^2 + sum_k |h_k|^2 |x_{k,m}|^2
                    - 2 Re sum_k conj(y_k) h_k x_{k,m}.

||y||^2 is the same for every m, so it cannot change the argmin and is
dropped. With g = conj(y) h, the rest is one real product
F @ W of the features F = [|h|^2, Re g, Im g] (B, 3K) and the weights
W = [|X|^2; -2 Re X; 2 Im X] (3K, M); no (B, K, M) residual is built.
Ties go to the lowest index m, as ``np.argmin`` returns the first
minimum.

MPA function-node update. For resource n with users p = 0..d-1, every
combination of their symbols is one cell of a tensor with one axis per
user and the batch last, (M, ..., M, B):

  base = -|y_n - sum_p h_p x_p|^2 / n0 + sum_p vf_p.

The distance term is built once per call and the incoming messages are
added by broadcasting each iteration. The message to user p at symbol m
is the log-sum-exp of base over the slice with user p at m, minus
vf_p[m], which is constant on that slice. One row maximum ``mx`` and one
``e = exp(base - mx)`` serve all d edges: slice p, m sums to
``mx + log(sum of e over the other d-1 axes)``.

Underflow rule: the slice maxima are taken first (max reductions, no
``exp``). A row whose smallest slice maximum sits more than 700 below
``mx`` would lose whole slices to 0 under the shared shift, as at the
noise-free n0 = 1e-9 the simulator passes. Such a row skips the shared
``exp`` and shifts each edge's tensor by that edge's own slice maxima
instead, so every message stays finite and exact.
"""

from __future__ import annotations

import math

import numpy as np

#: Name of the detection path, recorded in run manifests.
BACKEND = "numpy"


# -- maximum-likelihood detection -----------------------------------------


def ml_detect_batch(y, h, points):
    """Nearest-codeword detection, argmin of sum_k |y_k - h_k x_{m,k}|^2.

    The distances less ||y||^2, as one product (B, 3K) @ (3K, M); see the
    module docstring.
    """
    y = np.asarray(y, dtype=np.complex128)
    h = np.asarray(h, dtype=np.complex128)
    X = np.asarray(points, dtype=np.complex128)
    K = X.shape[0]
    # F is filled in place: stacking its three parts with np.hstack made
    # the kernel ~1.5x slower at M=4
    F = np.empty((y.shape[0], 3 * K))
    F[:, :K] = h.real**2 + h.imag**2
    g = y.conj()
    g *= h
    F[:, K:2 * K] = g.real
    F[:, 2 * K:] = g.imag
    W = np.concatenate([np.abs(X) ** 2, -2.0 * X.real, 2.0 * X.imag])
    return np.argmin(F @ W, axis=1).astype(np.int64, copy=False)


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
    y = np.asarray(y, dtype=np.complex128)
    H = np.asarray(H, dtype=np.complex128)
    cb = np.asarray(cb, dtype=np.complex128)
    n0 = float(n0)
    B, N = y.shape
    J, _, M = cb.shape
    dmax = res_users.shape[1]
    # pos[j]: the (resource, edge slot) pairs of user j
    pos = [
        [(int(n), int(np.flatnonzero(res_users[n] == j)[0])) for n in user_res[j]]
        for j in range(J)
    ]
    # messages and tensors keep the batch last, so every reduction below
    # runs over outer axes
    fv = np.zeros((N, dmax, M, B))
    vf = np.zeros((N, dmax, M, B))

    # a resource no user occupies sends no message
    used = [n for n in range(N) if res_deg[n] > 0]
    # -|y_n - sum_p h_p x_p|^2 / n0 on (M, ..., M, B), axis p for edge p;
    # it does not change across iterations
    dist = {}
    for n in used:
        deg = int(res_deg[n])
        users = res_users[n, :deg]
        vals = cb[users, n, :, None] * H[:, n, users].T[:, None, :]  # (deg, M, B)
        re = y[:, n].real - vals[0].real
        im = y[:, n].imag - vals[0].imag
        for p in range(1, deg):
            re = re[..., None, :] - vals[p].real
            im = im[..., None, :] - vals[p].imag
        re *= re
        im *= im
        re += im
        re /= -n0
        dist[n] = re

    for _ in range(iters):
        for n in used:
            deg = int(res_deg[n])
            w = vf[n, 0]
            for p in range(1, deg):
                w = w[..., None, :] + vf[n, p]
            base = dist[n] + w
            fv[n, :deg] = _function_node(base) - vf[n, :deg]
        for j in range(J):
            tot = sum(fv[n, p] for n, p in pos[j])
            for n, p in pos[j]:
                msg = tot - fv[n, p]
                mx = np.max(msg, axis=0)
                vf[n, p] = msg - (mx + np.log(np.sum(np.exp(msg - mx), axis=0)))

    post = np.empty((B, J, M))
    for j in range(J):
        tot = sum(fv[n, p] for n, p in pos[j])
        mx = np.max(tot, axis=0)
        post[:, j, :] = np.exp(tot - (mx + np.log(np.sum(np.exp(tot - mx), axis=0)))).T
    hard = np.argmax(post, axis=2).astype(np.int64)
    return post, hard


#: Widest gap below the row maximum that the shared ``exp`` may shift a
#: slice maximum by: exp(-700) is still a normal double (exp(-708.4) is not).
_EXP_GAP = 700.0


def _marginals(t, ufunc):
    """``ufunc``-reduce (M, ..., M, B) over every user axis but one, per axis.

    Returns d arrays of shape (M, B), the p-th keeping axis p.
    """
    if t.ndim == 2:
        return [t]
    M, B = t.shape[0], t.shape[-1]
    first = ufunc.reduce(t.reshape(M, -1, B), axis=1)
    return [first] + _marginals(ufunc.reduce(t, axis=0), ufunc)


def _function_node(base):
    """Log-sum-exp of ``base`` (M, ..., M, B) over the other users, per edge.

    Returns (d, M, B): entry [p, m, b] is log sum exp of base[..., b] over
    all combinations with user p at symbol m. Rows whose slice maxima all
    sit within ``_EXP_GAP`` of the row maximum share one ``exp``; the
    others are shifted by each slice's own maximum, edge by edge, so no
    row computes ``exp`` twice. ``base`` may be overwritten.
    """
    smax = np.stack(_marginals(base, np.maximum))  # (d, M, B)
    mx = smax[0].max(axis=0)
    wide = mx - smax.min(axis=(0, 1)) > _EXP_GAP
    if not wide.any():
        return _shared_lse(base, mx)
    if wide.all():
        return _per_edge_lse(base, smax)
    out = np.empty(smax.shape)
    out[..., wide] = _per_edge_lse(base[..., wide], smax[..., wide])
    out[..., ~wide] = _shared_lse(base[..., ~wide], mx[~wide])
    return out


def _shared_lse(base, mx):
    base -= mx
    e = np.exp(base, out=base)
    out = np.log(np.stack(_marginals(e, np.add)))
    out += mx
    return out


def _per_edge_lse(base, smax):
    deg, M, B = smax.shape
    out = np.empty(smax.shape)
    e = np.empty(base.shape)
    for p in range(deg):
        np.subtract(base, smax[p].reshape(*(1,) * p, M, *(1,) * (deg - 1 - p), B), out=e)
        np.exp(e, out=e)
        others = tuple(a for a in range(deg) if a != p)
        out[p] = smax[p] + np.log(np.add.reduce(e, axis=others))
    return out
