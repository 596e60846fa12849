"""Monte Carlo BER evaluation over AWGN and i.i.d. Rayleigh fading.

SNR convention: the x-axis is Eb/N0 with unit average vector energy
(Es = 1) and Eb = 1/log2(M), so the per-complex-dimension noise variance
is n0 = 1 / (log2(M) * 10^(EbN0_dB/10)). Fading is unit-variance circular
complex Gaussian, drawn independently per dimension and per transmitted
vector (fast fading / ideal interleaving), and known at the receiver.

Each SNR point p runs in chunks, and chunk c draws its sent symbols, then
its fading, then its noise from its own RNG substream, SeedSequence(seed,
spawn_key=(p, c)) (L'Ecuyer et al. 2017, "Random numbers for parallel
computers"). numpy mixes a spawn key in after the seed's zero-padded
entropy pool, so no chunk shares its stream with a CCCP restart chain,
which draws from SeedSequence([seed, i]). Each complex Gaussian buffer is
filled through its float64 view: a coefficient's real and imaginary parts
are two consecutive draws.
A point's counts are those of chunks 0..c*, c* the first chunk at which
the bit errors reach ``min_bit_errors`` or the vectors ``max_vectors``, so
every count is a function of (seed, point, chunk size) alone.

One Monte Carlo driver, ``_simulate``, runs both simulators and owns every
buffer of a call. A simulator gives ``transmit(tx, h, y)``, which writes
the noiseless received vectors of the sent symbols into y, and
``detect(y, h, n0)``. The chunks of a point are the items of one
``fanout.imap``: a process claims the next chunk when it is free and draws
into its own copy of the buffers, and the caller stops the others once c*
is known; a traced run (``mdbench``) sees only the chunks the caller ran.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import fanout, kernels
from .constellation import Constellation, average_power, write_text_atomic
from .scma import SCMACodebookSet, mpa_detect_batch

#: Vectors per chunk, each chunk on its own substream: CSV bytes depend on it.
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


def _draw_complex(rng: np.random.Generator, out: np.ndarray, scale: float) -> np.ndarray:
    """Fill the contiguous ``out`` with scale * (a + 1j * b), each a and b
    two consecutive standard normals, drawn in place through its float64 view."""
    parts = rng.standard_normal(out=out.view(np.float64))
    parts *= scale
    return out


def _simulate(snr, M, seed, min_bit_errors, max_vectors, noise_free, chunk, shapes,
              transmit, detect, rayleigh=True):
    """Monte Carlo loop shared by the simulators; see the module docstring.

    ``shapes`` is (users, fading, received): a chunk of B vectors sends
    ``rng.integers(0, M, size=(B, *users))`` over gains h (B, *fading), all
    ones unless ``rayleigh``, and is received as y (B, *received).
    ``detect`` gets n0 = 0 when noise-free. Labeling is natural: the bit
    errors of a decision are the popcount of sent XOR detected.
    """
    if max_vectors < 1 or min_bit_errors < 1:
        raise ValueError("max_vectors and min_bit_errors must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    nbits = bits_per_symbol(M)
    pop = _popcount_table(nbits)
    users, fading, received = shapes
    rows = min(chunk, max_vectors)
    noise = np.empty((rows, *received), dtype=np.complex128)
    h = (np.empty if rayleigh else np.ones)((rows, *fading), dtype=np.complex128)
    y = np.empty((rows, *received), dtype=np.complex128)

    def bit_errors(point, n0, c):
        """The bit errors of chunk c of the point, drawn and detected."""
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(point, c)))
        B = min(chunk, max_vectors - c * chunk)
        tx = rng.integers(0, M, size=(B, *users))
        if rayleigh:
            _draw_complex(rng, h[:B], 1 / math.sqrt(2))
        transmit(tx, h[:B], y[:B])
        if n0:
            y[:B] += _draw_complex(rng, noise[:B], math.sqrt(n0 / 2))
        return int(pop[np.bitwise_xor(tx, detect(y[:B], h[:B], n0))].sum())

    pts = []
    for pi, ebn0 in enumerate(snr.ebn0_db_list):
        n0 = 0.0 if noise_free else snr.noise_variance(M, ebn0)
        errors = vectors = 0
        chunks = fanout.imap(functools.partial(bit_errors, pi, n0), -(-max_vectors // chunk))
        for e in chunks:
            errors += e
            vectors = min(vectors + chunk, max_vectors)
            if errors >= min_bit_errors:
                chunks.close()  # stops the point's other processes
                break
        bits = vectors * math.prod(users) * nbits
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

    def transmit(tx, h, y):
        # h times the sent points, in place and in that operand order: so
        # it rounds as the serial h * X[:, tx].T does, where numpy's complex
        # product into a third array or with the operands swapped rounds
        # some parts differently
        np.take(X.T, tx, axis=0, out=y)
        np.multiply(h, y, out=y)

    return _simulate(snr, M, seed, min_bit_errors, max_vectors, noise_free, P2P_CHUNK,
                     ((), (K,), (K,)), transmit,
                     lambda y, h, n0: kernels.ml_detect_batch(y, h, X),
                     channel == "rayleigh_iid")


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

    def transmit(tx, H, y):
        np.einsum("bnj,bjn->bn", H, cbs.codebooks[users, :, tx], out=y)

    return _simulate(snr, M, seed, min_bit_errors, max_vectors, noise_free, SCMA_CHUNK,
                     ((J,), (N, J), (N,)), transmit,
                     lambda y, H, n0: mpa_detect_batch(y, H, cbs, max(n0, 1e-9), mpa_iters)[1])
