"""Batch-vectorized numpy detection kernels.

``ml_detect_batch`` and ``mpa_detect_batch`` are the detection paths. The
scalar loops that spell out the same algorithms one vector at a time, the
oracles the tests compare these kernels against, live with the tests, in
``tests/oracles.py``. RNG always lives outside the kernels.

Layouts:
  ML detection: y (B, K), h (B, K), points (K, M) -> (B,) symbol indices.
  MPA detection: y (B, N), H (B, N, J), codebooks (J, N, M),
    res_edges (N, dmax) padded with -1, res_deg (N,), user_res (J, K)
    -> posteriors (B, J, M), hard decisions (B, J). Edge j * K + k joins
    user j to its k-th resource user_res[j, k]; the three graph arrays are
    those ``scma.IndicatorMatrix`` builds once per indicator.

ML detection. Expanding the squared norm,

  ||y - h x_m||^2 = ||y||^2 + sum_k |h_k|^2 |x_{k,m}|^2
                    - 2 Re sum_k conj(y_k) h_k x_{k,m}.

||y||^2 is the same for every m, so it cannot change the argmin and is
dropped. With g = conj(y) h, the rest is one real product
F @ W of the features F = [|h|^2, Re g, Im g] (B, 3K) and the weights
W = [|X|^2; -2 Re X; 2 Im X] (3K, M); no (B, K, M) residual is built.
Ties go to the lowest index m, as ``np.argmin`` returns the first
minimum. The product runs in row blocks of at most ``_ML_CELLS`` // (3K M)
rows, F and g built per block, which OpenBLAS runs on the calling thread
alone; a chunk's whole product started a second, competing BLAS thread.

MPA function-node update (sum-product in the probability domain,
Kschischang, Frey & Loeliger 2001). For resource n with users
p = 0..d-1, every combination of their symbols is one cell of a tensor
with one axis per user and the batch last, (M, ..., M, B):

  dist = -|y_n - sum_p h_p x_p|^2 / n0.

dist does not change across iterations. Once per call, each row is
shifted by its maximum r and exponentiated in place, E = exp(dist - r).
With a_q = exp(vf_q) for the incoming messages, the message to user p at
symbol m is

  fv_p[m] = log(sum of E * prod_{q != p} a_q over the slice with p at m) + r,

a tensor contraction (``_sum_product``): at d = 3, two contractions of E
and two of an (M, M, B) partial per iteration, with no per-iteration
``exp`` of the tensor. The variable-node update stays in the log domain
and normalizes each vf so that sum_m a_q[m] = 1.

Underflow rule: every row starts on the probability path and leaves it,
for that resource and the rest of the call, when one of its slice sums
is not a normal double. A slice more than ~745 below its row maximum,
as at the noise-free n0 = 1e-9 the simulator passes, is all zeros in E
and sums to 0 in the first iteration, before any of its messages are
used; later, small incoming a_q can drive a whole slice below the double
range. Such rows run the exact log-domain update instead
(``_function_node``): base = dist + sum_p vf_p, each edge's tensor
shifted by that edge's own slice maxima, so every message stays finite.
The fallback rebuilds dist for the rows it takes over. Either path's
rows can then be a single row of a larger block; a one-row subset runs as
two copies of its row, as a one-row block does (below), since numpy adds
a one-row batch's sums in another order.

The messages of every edge are kept as (J, K, M, B) arrays fv (function
to variable) and vf; each function node reads and writes its resource's
``res_edges`` rows of their (J * K, M, B) views. Rows are independent in
exact arithmetic, so the kernel runs them in blocks of two or more rows
whose E tensors fit in ``_BLOCK_BYTES``. The call allocates the E, fv
and vf buffers once, and one loop over the blocks builds each block's
function nodes in them, runs its iterations and writes its posteriors.
The schedule of a block:

  - ``iters`` function-node passes, each writing every fv entry from vf
    (all zeros before the first pass);
  - ``iters - 1`` variable updates, one between each two passes: vf from
    fv, normalized by a log-sum-exp whose exp pass uses fv as its
    scratch, since the next pass rewrites every fv entry (edge j * K + k
    belongs to exactly one occupied resource). No update follows the
    last pass: nothing would read it;
  - the posteriors, the sum over k of fv normalized over m, built in
    vf[:, 0] with fv's memory as the scratch: neither is read again.
"""

from __future__ import annotations

from functools import partial

import numpy as np

#: Name of the detection path; no CLI manifest records it, only mdbench's run record.
BACKEND = "numpy"


# -- maximum-likelihood detection -----------------------------------------


#: Cells of the (rows, M) distance product per row block; see the module
#: docstring.
_ML_CELLS = 1 << 17


def ml_detect_batch(y, h, points):
    """Nearest-codeword detection, argmin of sum_k |y_k - h_k x_{m,k}|^2.

    The distances less ||y||^2, as products (rows, 3K) @ (3K, M) in row
    blocks of at most ``_ML_CELLS`` // (3K M) rows; see the module
    docstring.
    """
    y = np.asarray(y, dtype=np.complex128)
    h = np.asarray(h, dtype=np.complex128)
    X = np.asarray(points, dtype=np.complex128)
    K, M = X.shape
    B = y.shape[0]
    # re^2 + im^2, not abs()**2, which rounds: abs(1+1j)**2 is 2.0000000000000004
    W = np.concatenate([X.real**2 + X.imag**2, -2.0 * X.real, 2.0 * X.imag])
    rows = max(2, _ML_CELLS // (3 * K * M))
    # F and g are filled in place, once per block: stacking F's three
    # parts with np.hstack made the kernel ~1.5x slower at M=4
    F = np.empty((max(2, min(rows, B)), 3 * K))
    g = np.empty((len(F), K), dtype=np.complex128)
    out = np.empty(B, dtype=np.int64)
    for start in range(0, B, rows):
        n = min(rows, B - start)
        # one row runs as two: a one-row product takes a BLAS path that rounds otherwise
        block = slice(start, start + n) if n > 1 else [start, start]
        yb, hb = y[block], h[block]
        f, gb = F[:len(yb)], g[:len(yb)]
        f[:, :K] = hb.real**2 + hb.imag**2
        np.conjugate(yb, out=gb)
        gb *= hb
        f[:, K:2 * K] = gb.real
        f[:, 2 * K:] = gb.imag
        out[start:start + n] = np.argmin(f @ W, axis=1)[:n]
    return out


# -- message passing detection --------------------------------------------


def mpa_detect_batch(y, H, cb, res_edges, res_deg, user_res, n0, iters):
    """Sum-product MPA over the indicator factor graph, exact in double.

    The message schedule of the loop oracle, vectorized over B.
    Function nodes run in the probability domain, with the log-domain
    fallback of the module docstring; variable nodes run in the log domain.
    Rows run in blocks of at most ``_BLOCK_BYTES`` of E tensors; raises
    ``ValueError`` when two rows' tensors exceed it.
    """
    y = np.asarray(y, dtype=np.complex128)
    H = np.asarray(H, dtype=np.complex128)
    cb = np.asarray(cb, dtype=np.complex128)
    n0 = float(n0)
    B = y.shape[0]
    J, _, M = cb.shape
    K = user_res.shape[1]
    # Python ints: M**d wraps around in int64 (16**16 is 0)
    cells = sum(M ** int(d) for d in res_deg)
    if 16 * cells > _BLOCK_BYTES:
        raise ValueError(
            f"MPA needs {8 * cells} bytes of tensors per received vector, over half "
            f"the {_BLOCK_BYTES}-byte block of two rows; lower M or the resource degrees"
        )
    block = _BLOCK_BYTES // (8 * cells)
    # every block builds its E tensors and its messages in these buffers:
    # fresh pages for each block's tensors cost ~15% of the kernel at M=16
    n = max(2, min(block, B))
    E, fv_buf, vf_buf = np.empty(n * cells), np.empty(n * J * K * M), np.empty(n * J * K * M)
    post = np.empty((B, J, M))
    for b in range(0, B, block):
        stop = min(b + block, B)
        # one row runs as two: at one row einsum adds _sum_product's sums otherwise
        yb, Hb = (y[b:stop], H[b:stop]) if stop - b > 1 else (y[[b, b]], H[[b, b]])
        n = len(yb)
        # the batch last, so every reduction below runs over outer axes
        fv = fv_buf[:J * K * M * n].reshape(J, K, M, n)
        vf = vf_buf[:fv.size].reshape(fv.shape)
        vf[...] = 0.0
        fv_edges, vf_edges = fv.reshape(-1, M, n), vf.reshape(-1, M, n)
        # a resource no user occupies sends no message
        nodes, free = [], E
        for r in np.flatnonzero(res_deg):
            edges = res_edges[r, :res_deg[r]]
            users = edges // K
            dist = free[:M ** len(users) * n].reshape((M,) * len(users) + (n,))
            free = free[dist.size:]
            distance = partial(_distance, yb[:, r], Hb[:, r, users], cb[users, r], n0)
            nodes.append((edges, _FunctionNode(distance(slice(None), dist), distance)))
        for it in range(iters):
            if it:  # fv is the scratch: the pass below rewrites all of it
                np.subtract(fv.sum(axis=1, keepdims=True), fv, out=vf)
                vf -= _logsumexp(vf, 2, fv_buf)
            for edges, node in nodes:
                fv_edges[edges] = node.messages(vf_edges[edges])
        # vf is not read again: its k = 0 slice holds the posteriors
        tot = np.sum(fv, axis=1, out=vf[:, 0])  # (J, M, n)
        tot -= _logsumexp(tot, 1, fv_buf)
        post[b:stop] = np.exp(tot, out=tot).transpose(2, 0, 1)[:stop - b]
    hard = np.argmax(post, axis=2).astype(np.int64)
    return post, hard


#: Bytes of E tensors (one (M, ..., M) tensor per resource and row) that one
#: block of rows may hold. Measured at M=16 and 10 dB, 16 MiB blocks ran
#: ~1.2x faster than one block at B=200 and ~1.6x at B=2,000; 4 MiB blocks
#: (32 rows of the default 4x6 graph, 128 KiB each) lost to per-block Python
#: overhead. At M=4 every chunk the simulator passes fits in one block.
_BLOCK_BYTES = 16 << 20


def _logsumexp(x, axis, buf):
    """log sum exp(x) over ``axis``, with exp(x - max) written to the flat
    scratch ``buf`` (at least x.size doubles). The kernel's x has two or
    more rows on its last, contiguous axis, so the sum adds whole slices in
    axis order; along a contiguous axis ``np.sum`` would pair its adds up."""
    mx = np.max(x, axis=axis, keepdims=True)
    e = buf[:x.size].reshape(x.shape)
    np.exp(np.subtract(x, mx, out=e), out=e)
    return mx + np.log(e.sum(axis=axis, keepdims=True))


#: Smallest normal double; a slice sum below it has lost precision.
_TINY = np.finfo(np.float64).tiny


def _distance(yn, hn, cbn, n0, rows, out=None):
    """-|y_n - sum_p h_p x_p|^2 / n0 on (M, ..., M, b), axis p for edge p.

    For one resource: ``yn`` (B,) its received samples, ``hn`` (B, d) the
    colliding users' channel gains and ``cbn`` (d, M) their symbols on it;
    ``rows`` (an index array or slice) picks the b rows to build, into
    ``out`` if given.
    """
    hx = cbn[:, :, None] * hn[rows].T[:, None, :]  # (d, M, b)
    re, im = yn[rows].real, yn[rows].imag
    for p in range(len(hx) - 1):
        re = re[..., None, :] - hx[p].real
        im = im[..., None, :] - hx[p].imag
    # the last user's axis is filled one symbol at a time: no full-size
    # temporaries, and ~1.6x faster than broadcasting it at M=4 and M=16
    if out is None:
        out = np.empty(re.shape[:-1] + hx.shape[1:])
    for k, v in enumerate(hx[-1]):
        r = re - v.real
        r *= r
        i = im - v.imag
        i *= i
        r += i
        r /= -n0
        out[..., k, :] = r
    return out


class _FunctionNode:
    """One resource's function node over a batch of received vectors.

    Every row starts on the probability path, which keeps
    E = exp(dist - rowmax) (M, ..., M, Bp) and the row maxima; rows on the
    log-domain fallback keep dist itself. A row moves to the fallback, for
    the rest of the call, only when ``messages`` finds one of its slice
    sums below the smallest normal double. No slice sum can overflow:
    E <= 1 and every a_q <= 1, so each is at most M**(d-1).
    """

    def __init__(self, dist, distance):
        """``dist`` is the distance tensor of every row, overwritten here;
        ``distance(rows)`` builds it again for some rows."""
        self.distance = distance
        self.deg = dist.ndim - 1
        self.rowmax = dist.max(axis=tuple(range(self.deg)))
        dist -= self.rowmax
        self.E = np.exp(dist, out=dist)
        self.prob = np.arange(dist.shape[-1])
        self.log = self.prob[:0]
        self.dist = np.empty(dist.shape[:-1] + (0,))

    def messages(self, vf):
        """Messages (d, M, B) to the d users from their incoming ``vf`` (d, M, B).

        Entry [p, m, b] is the log of the sum of exp(dist + sum_{q != p} vf_q)
        over every combination with user p at symbol m.
        """
        out = np.empty(vf.shape)
        if self.prob.size:
            a = _twice(np.exp(np.take(vf, self.prob, axis=-1)))
            s = _sum_product(_twice(self.E), a)[..., :self.prob.size]
            ok = (s >= _TINY).all(axis=(0, 1))
            if not ok.all():
                self._reroute(~ok)
                s = np.compress(ok, s, axis=-1)
            out[..., self.prob] = np.log(s) + self.rowmax
        if self.log.size:
            v = _twice(np.take(vf, self.log, axis=-1))
            w = v[0]
            for p in range(1, self.deg):
                w = w[..., None, :] + v[p]
            out[..., self.log] = (_function_node(_twice(self.dist) + w) - v)[..., :self.log.size]
        return out

    def _reroute(self, bad):
        """Move the probability-path rows ``bad`` (a mask) to the fallback."""
        rows = self.prob[bad]
        self.dist = np.concatenate([self.dist, self.distance(rows)], axis=-1)
        self.log = np.concatenate([self.log, rows])
        self.prob = self.prob[~bad]
        # np.compress keeps E C-contiguous, which indexing the last axis
        # does not, and einsum needs that for speed
        self.E = np.compress(~bad, self.E, axis=-1)
        self.rowmax = self.rowmax[~bad]


def _twice(a):
    """``a``, or its one row twice: numpy adds a one-row batch's sums
    otherwise, so a row's messages would depend on the rows beside it."""
    return a if a.shape[-1] != 1 else np.repeat(a, 2, axis=-1)


def _sum_product(E, a):
    """Sum of E·prod_{q != p} a_q over every user axis but p, for each p.

    ``E`` is (M, ..., M, B) with d user axes and ``a`` is (d, M, B); the
    result is (d, M, B). Each step contracts the last user axis of the
    running tensor: once with the outer product of the other users' a
    (the sum for the last user), once with its own a (the tensor the
    remaining users share). At d = 3 that is two contractions of E and
    two of an (M, M, B) tensor.
    """
    d, M, B = a.shape
    out = np.empty(a.shape)
    t = E.reshape(-1, M, B)
    for p in range(d - 1, 0, -1):
        w = a[0]
        for q in range(1, p):
            w = w[..., None, :] * a[q]
        out[p] = np.einsum("xkb,xb->kb", t, w.reshape(-1, B))
        t = np.einsum("xkb,kb->xb", t, a[p]).reshape(-1, M, B)
    out[0] = t[0]
    return out


def _slice_max(t):
    """Maxima of (M, ..., M, B) over every user axis but p, for each p: (d, M, B)."""
    out = []
    while t.ndim > 2:
        M, B = t.shape[0], t.shape[-1]
        out.append(np.max(t.reshape(M, -1, B), axis=1))
        t = np.max(t, axis=0)
    return np.stack(out + [t])


def _function_node(base):
    """Log-sum-exp of ``base`` (M, ..., M, B) over the other users, per edge.

    Returns (d, M, B): entry [p, m, b] is log sum exp of base[..., b] over
    all combinations with user p at symbol m. Each edge's tensor is
    shifted by its own slice maxima, so every slice keeps an exp(0) term
    and every message is finite and exact whatever the gaps in the row.
    """
    smax = _slice_max(base)
    deg, M, B = smax.shape
    out = np.empty(smax.shape)
    e = np.empty(base.shape)
    for p in range(deg):
        np.subtract(base, smax[p].reshape(*(1,) * p, M, *(1,) * (deg - 1 - p), B), out=e)
        np.exp(e, out=e)
        others = tuple(a for a in range(deg) if a != p)
        out[p] = smax[p] + np.log(np.add.reduce(e, axis=others))
    return out
