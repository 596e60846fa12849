"""Monte Carlo BER evaluation over AWGN and i.i.d. Rayleigh fading.

SNR convention: the x-axis is Eb/N0 with unit average vector energy
(Es = 1) and Eb = 1/log2(M), so the per-complex-dimension noise variance
is n0 = 1 / (log2(M) * 10^(EbN0_dB/10)). Fading is unit-variance circular
complex Gaussian, drawn independently per dimension and per transmitted
vector (fast fading / ideal interleaving), and known at the receiver.

Each SNR point runs on its own RNG substream seeded from (seed, point
index), so points are independent and the sweep is reproducible.

A simulation runs in chunks as a two-stage pipeline. The normal draws
of chunk i + 1 (fading and noise) run on one worker thread, which lives
for the call, while the calling thread detects chunk i; the sent symbols
are drawn, and y built, on the calling thread. Every RNG call is made in
the order of drawing and detecting one chunk after the other, so every
draw, decision and CSV byte is that order's. A point that stops on its
error count has drawn at most one chunk past its stop (~2.5 ms at K=2),
which changes no result. The detection kernels, which ``mdbench``'s
tracer wraps, run on the calling thread only, and
``kernels.ml_detect_batch`` runs its product in row blocks that OpenBLAS
keeps on that thread, so no BLAS thread competes with the two stages.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels
from .constellation import Constellation, average_power, write_text_atomic
from .scma import SCMACodebookSet, mpa_detect_batch

#: Vectors simulated per RNG draw; fixed so seeds determine draw order.
P2P_CHUNK = 20_000
#: MPA builds a real (M**d_f, rows) tensor per resource, in row blocks of at
#: most 16 MiB (``kernels._BLOCK_BYTES``), so its memory no longer grows with
#: the chunk: a tracemalloc peak of ~23 MiB per 2,000-vector call at M=16,
#: d_f=3 and 10 dB, ~44 MiB at 25 dB, where more rows move to the
#: log-domain update, and ~8 MiB at M=4 (~13 MiB at 25 dB).
SCMA_CHUNK = 2_000


def bits_per_symbol(M: int) -> int:
    b = int(round(math.log2(M)))
    if 2**b != M:
        raise ValueError(f"M={M} is not a power of 2; natural labeling needs one")
    return b


def _popcount_table(nbits: int) -> np.ndarray:
    return np.array([bin(v).count("1") for v in range(2**nbits)], dtype=np.int64)


@dataclass(frozen=True)
class SNRSpec:
    ebn0_db_list: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.ebn0_db_list)
        # noise_variance divides by 10^(x/10): it must be finite, and at least
        # 1e-300 (about -3000 dB) so that n0 <= 1e300 and the detectors'
        # squared distances stay finite
        try:
            ok = all(1e-300 <= 10.0 ** (v / 10.0) < math.inf for v in vals)
        except OverflowError:
            ok = False
        if not vals or not ok:
            raise ValueError("need one or more finite Eb/N0 values, each in about "
                             f"-3000 to 3082 dB, got {vals}")
        object.__setattr__(self, "ebn0_db_list", vals)

    def noise_variance(self, M: int, ebn0_db: float) -> float:
        """n0 per complex dimension for unit vector energy."""
        return 1.0 / (bits_per_symbol(M) * 10.0 ** (ebn0_db / 10.0))


@dataclass
class BERCurve:
    points: list  # dicts: ebn0_db, errors, bits, ber, vectors, seed

    def to_csv(self) -> str:
        lines = ["ebn0_db,errors,bits,ber,vectors,seed"]
        for p in self.points:
            lines.append(
                f"{p['ebn0_db']:g},{p['errors']},{p['bits']},"
                f"{p['ber']:.10e},{p['vectors']},{p['seed']}"
            )
        return "\n".join(lines) + "\n"

    def save_csv(self, path: str) -> None:
        write_text_atomic(path, self.to_csv())


def _point_rng(seed: int, point_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, point_index]))


def _draw_complex(rng: np.random.Generator, out: np.ndarray, scale: float,
                  scratch: np.ndarray) -> np.ndarray:
    """Fill ``out`` with scale * (a + 1j * b), a then b drawn as standard normals.

    a and b take the values of ``rng.standard_normal(out.shape)`` and of one
    more such call, each drawn into ``scratch`` (at least ``out.size``
    doubles). Each part is one exact product, so ``out`` is bitwise
    scale * (a + 1j * b), which is (a + 1j * b) / d for scale = 1 / d: numpy
    divides by a real scalar as a product with its reciprocal.
    """
    draw = scratch[:out.size].reshape(out.shape)
    for part in (out.real, out.imag):
        np.multiply(rng.standard_normal(out=draw), scale, out=part)
    return out


def _draws(rows, fading, received, rayleigh=True):
    """The worker's ``draw`` over two sets of buffers for ``rows`` vectors.

    A set holds each vector's fading gains, shape ``fading`` (all ones
    when not ``rayleigh``), and noise, shape ``received``; one set is
    drawn while the caller reads the other.
    """
    scratch = np.empty(rows * max(math.prod(fading), math.prod(received)))
    noise = np.empty((2, rows, *received), dtype=np.complex128)
    h = (np.empty((2, rows, *fading), dtype=np.complex128) if rayleigh
         else [np.ones((rows, *fading), dtype=np.complex128)] * 2)

    def draw(rng, B, n0, s):
        if rayleigh:
            _draw_complex(rng, h[s][:B], 1 / math.sqrt(2), scratch)
        if n0 == 0.0:
            return h[s][:B], None
        return h[s][:B], _draw_complex(rng, noise[s][:B], math.sqrt(n0 / 2), scratch)

    return draw


def _simulate(snr, M, seed, min_bit_errors, max_vectors, noise_free, chunk, users, trial):
    """Monte Carlo loop shared by the simulators; see the module docstring.

    A chunk of B vectors sends ``rng.integers(0, M, size=(B, *users))``.
    ``trial(rows)`` makes the call's buffers for chunks of up to ``rows``
    vectors and returns ``(draw, detect)``. ``draw(rng, B, n0, s)``, run on
    the worker, makes the chunk's normal draws at noise variance n0 (0 when
    noise-free) into buffer set s (0 or 1); ``detect(tx, drawn, n0)``
    returns the detected symbols for the sent ``tx``. Labeling is natural:
    the bit errors of a decision are the popcount of sent XOR detected.
    """
    if max_vectors < 1 or min_bit_errors < 1:
        raise ValueError("max_vectors and min_bit_errors must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    # imported here: concurrent.futures brings in logging, ~0.7 MB that a
    # process which only designs never needs
    from concurrent.futures import ThreadPoolExecutor

    nbits = bits_per_symbol(M)
    pop = _popcount_table(nbits)
    draw, detect = trial(min(chunk, max_vectors))
    pts = []
    s = 0  # the buffer set of the latest draw
    with ThreadPoolExecutor(max_workers=1) as worker:
        for pi, ebn0 in enumerate(snr.ebn0_db_list):
            n0 = 0.0 if noise_free else snr.noise_variance(M, ebn0)
            rng = _point_rng(seed, pi)
            errors = 0
            bits = 0
            vectors = 0
            B = min(chunk, max_vectors)
            tx = rng.integers(0, M, size=(B, *users))
            ahead = worker.submit(draw, rng, B, n0, s)
            while True:
                drawn = ahead.result()
                vectors += B
                if vectors < max_vectors:  # the next chunk may be needed
                    B = min(chunk, max_vectors - vectors)
                    s ^= 1
                    tx_next = rng.integers(0, M, size=(B, *users))
                    ahead = worker.submit(draw, rng, B, n0, s)
                errors += int(pop[np.bitwise_xor(tx, detect(tx, drawn, n0))].sum())
                bits += tx.size * nbits
                if vectors >= max_vectors or errors >= min_bit_errors:
                    break
                tx = tx_next
            pts.append({
                "ebn0_db": ebn0,
                "errors": errors,
                "bits": bits,
                "ber": errors / bits,
                "vectors": vectors,
                "seed": seed,
            })
    return BERCurve(points=pts)


def simulate_p2p(
    C: Constellation,
    channel: str,
    snr: SNRSpec,
    seed: int,
    min_bit_errors: int = 200,
    max_vectors: int = 10_000_000,
    noise_free: bool = False,
) -> BERCurve:
    """Point-to-point transmission with per-vector ML detection."""
    if channel not in ("awgn", "rayleigh_iid"):
        raise ValueError(f"unknown channel {channel!r}")
    K, M = C.K, C.M
    if abs(average_power(C) - 1.0) > 1e-9:
        warnings.warn(
            f"constellation average power is {average_power(C):.6f}, not 1; "
            "Eb/N0 calibration assumes unit power"
        )

    X = C.points
    rayleigh = channel == "rayleigh_iid"

    def trial(rows):
        ybuf = np.empty((rows, K), dtype=np.complex128)

        def detect(tx, drawn, n0):
            hb, nb = drawn
            # h times the sent points, in place and in that operand order:
            # so it rounds as the serial h * X[:, tx].T does, where numpy's
            # complex product into a third array or with the operands
            # swapped rounds some parts differently
            y = np.take(X.T, tx, axis=0, out=ybuf[:len(tx)])
            np.multiply(hb, y, out=y)
            if nb is not None:
                y += nb
            return kernels.ml_detect_batch(y, hb, X)

        return _draws(rows, (K,), (K,), rayleigh), detect

    return _simulate(snr, M, seed, min_bit_errors, max_vectors, noise_free, P2P_CHUNK, (),
                     trial)


def simulate_scma_uplink(
    cbs: SCMACodebookSet,
    snr: SNRSpec,
    seed: int,
    min_bit_errors: int = 200,
    max_vectors: int = 1_000_000,
    mpa_iters: int = 10,
    noise_free: bool = False,
) -> BERCurve:
    """Uplink SCMA over i.i.d. Rayleigh fading with MPA detection.

    Every user-resource link fades independently per transmitted vector;
    bit errors are counted across all users.
    """
    J, N, M = cbs.J, cbs.N, cbs.M
    users = np.arange(J)

    def trial(rows):
        def detect(tx, drawn, n0):
            Hb, nb = drawn
            y = np.einsum("bnj,bjn->bn", Hb, cbs.codebooks[users, :, tx])
            if nb is not None:
                y += nb
            return mpa_detect_batch(y, Hb, cbs, max(n0, 1e-9), mpa_iters)[1]

        return _draws(rows, (N, J), (N,)), detect

    return _simulate(snr, M, seed, min_bit_errors, max_vectors, noise_free, SCMA_CHUNK, (J,),
                     trial)
