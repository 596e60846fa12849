"""Monte Carlo BER evaluation over AWGN and i.i.d. Rayleigh fading.

SNR convention: the x-axis is Eb/N0 with unit average vector energy
(Es = 1) and Eb = 1/log2(M), so the per-complex-dimension noise variance
is n0 = 1 / (log2(M) * 10^(EbN0_dB/10)). Fading is unit-variance circular
complex Gaussian, drawn independently per dimension and per transmitted
vector (fast fading / ideal interleaving), and known at the receiver.

Each SNR point runs on its own RNG substream seeded from (seed, point
index), so points are independent and the sweep is reproducible.
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
#: log-domain update, and ~9 MiB at M=4 (~15 MiB at 25 dB).
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


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _add_noise(rng: np.random.Generator, y: np.ndarray, n0: float) -> np.ndarray:
    """Circular Gaussian noise of variance n0; n0 == 0 draws nothing."""
    if n0 == 0.0:
        return y
    return y + math.sqrt(n0 / 2) * _complex_normal(rng, y.shape)


def _simulate(snr, M, seed, min_bit_errors, max_vectors, noise_free, chunk, trial):
    """Monte Carlo loop shared by the simulators.

    ``trial(rng, B, n0)`` sends B vectors at noise variance n0 (0 when
    noise-free) and returns sent and detected symbol indices, shape (B,)
    or (B, users). Labeling is natural: a symbol's bits are its index in
    binary, so the bit errors of a decision are the popcount of sent XOR
    detected.
    """
    if max_vectors < 1 or min_bit_errors < 1:
        raise ValueError("max_vectors and min_bit_errors must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    nbits = bits_per_symbol(M)
    pop = _popcount_table(nbits)
    pts = []
    for pi, ebn0 in enumerate(snr.ebn0_db_list):
        n0 = 0.0 if noise_free else snr.noise_variance(M, ebn0)
        rng = _point_rng(seed, pi)
        errors = 0
        bits = 0
        vectors = 0
        while vectors < max_vectors and errors < min_bit_errors:
            B = min(chunk, max_vectors - vectors)
            tx, rx = trial(rng, B, n0)
            errors += int(pop[np.bitwise_xor(tx, rx)].sum())
            bits += tx.size * nbits
            vectors += B
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

    def trial(rng, B, n0):
        tx = rng.integers(0, M, size=B)
        if channel == "rayleigh_iid":
            h = _complex_normal(rng, (B, K)) / math.sqrt(2)
        else:
            h = np.ones((B, K), dtype=np.complex128)
        y = _add_noise(rng, h * C.points[:, tx].T, n0)
        return tx, kernels.ml_detect_batch(y, h, C.points)

    return _simulate(snr, M, seed, min_bit_errors, max_vectors, noise_free, P2P_CHUNK, trial)


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

    def trial(rng, B, n0):
        tx = rng.integers(0, M, size=(B, J))
        H = _complex_normal(rng, (B, N, J)) / math.sqrt(2)
        y = np.einsum("bnj,bjn->bn", H, cbs.codebooks[np.arange(J), :, tx])
        y = _add_noise(rng, y, n0)
        return tx, mpa_detect_batch(y, H, cbs, max(n0, 1e-9), mpa_iters)[1]

    return _simulate(snr, M, seed, min_bit_errors, max_vectors, noise_free, SCMA_CHUNK, trial)
