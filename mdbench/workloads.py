"""The three workloads: set-up, one job, and the correctness gate.

A job is the fixed unit of work a run repeats. Job ``p`` of a run with
seed ``s`` uses seed ``s + JOB_SEED_STRIDE * p``, so the inputs depend on
the seed alone. Every call into the package (one ``optimize`` or one
``simulate_*``) is an operation; the gate checks each one after its timed
call and a failed check marks the operation failed without stopping the
run.
"""

from __future__ import annotations

import importlib
import math
import os
import sys
import time
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "fixtures", "c24_seed0.json")

JOB_SEED_STRIDE = 1000

#: Table-1 MED/MPD of the seed-0 designs, checked to TABLE1_TOL.
TABLE1 = {(2, 4): (1.6330, 1.1926), (2, 8): (1.4142, 0.8165), (3, 4): (1.6330, 0.7698)}
TABLE1_TOL = 1e-4
#: MED floors at other seeds, the values of tests/test_acceptance.py::CASES.
MED_FLOORS = {(2, 4): 1.55, (2, 8): 1.34, (3, 4): 1.55}
#: MPD floor at other seeds, as a share of Table 1. MPD only breaks ties
#: between restarts of equal MED: 46 of 240 sampled (3,4) chains reach
#: 0.7698 and the rest stop at 0.59-0.65 with the same MED, so 20
#: restarts miss the Table-1 MPD (and the 0.69 of CASES, a seed-0 floor)
#: on about 1.5% of seeds, and the best of 20 then sits at 0.6462.
MPD_SHARE = 0.8
#: Largest gap between the returned design's MED/MPD and the best restart's.
SELECT_TOL = 1e-6
#: Criterion-5 bound on the subproblem KKT residual.
KKT_MAX = 1e-7
TABLE1_RESTARTS = 20

EBN0_DB = 10.0
#: BER bands are reference +- BAND_Z cross-seed standard deviations,
#: scaled by sqrt(reference bits / simulated bits) for smaller runs.
#: Reference and deviation are the mean and standard deviation of the BER
#: over 34-41 job seeds at full size. The seed-0 BER is up to 2.6
#: deviations off that mean, so the band is not centred on it.
BAND_Z = 6.0

PACKAGE_MODULES = ("constellation", "qforms", "socp", "cccp", "kernels", "scma", "sim")


@dataclass(frozen=True)
class Band:
    """Reference BER and its cross-seed standard deviation at ``bits``."""

    ref: float
    sd: float
    bits: int

    def half_width(self, bits: int) -> float:
        return BAND_Z * self.sd * math.sqrt(self.bits / bits)


@dataclass(frozen=True)
class Workload:
    name: str
    restarts: int = 0
    base: str = ""  # "fixture" | "cartesian_qpsk2"
    p2p_vectors: int = 0
    scma_vectors: int = 0
    bands: dict = field(default_factory=dict)  # "p2p" / "scma" -> Band

    @property
    def is_design(self) -> bool:
        return self.restarts > 0

    def smoke(self) -> "Workload":
        """A tiny version for the smoke test: 1 restart, a few hundred vectors."""
        return replace(
            self,
            restarts=min(self.restarts, 1),
            p2p_vectors=min(self.p2p_vectors, 500),
            scma_vectors=min(self.scma_vectors, 40),
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("design-table1", restarts=TABLE1_RESTARTS),
        Workload(
            "ber-m4",
            base="fixture",
            p2p_vectors=4_000_000,
            scma_vectors=10_000,
            bands={
                "p2p": Band(ref=6.4069e-3, sd=3.35e-5, bits=8_000_000),
                "scma": Band(ref=1.4347e-2, sd=5.72e-4, bits=120_000),
            },
        ),
        Workload(
            "ber-m16",
            base="cartesian_qpsk2",
            p2p_vectors=2_000_000,
            scma_vectors=200,
            bands={
                "p2p": Band(ref=2.3260e-2, sd=5.41e-5, bits=8_000_000),
                "scma": Band(ref=1.3141e-1, sd=7.04e-3, bits=4_800),
            },
        ),
    )
}


@dataclass
class Op:
    label: str
    seconds: float
    ok: bool
    detail: str


def med_mpd(points: np.ndarray) -> tuple[float, float]:
    """MED and MPD computed here, independently of the package's metrics."""
    M = points.shape[1]
    i, j = np.triu_indices(M, k=1)
    gaps = np.abs(points[:, i] - points[:, j])  # (K, pairs)
    return float(np.sqrt(np.sum(gaps**2, axis=0)).min()), float(np.prod(gaps, axis=0).min())


def import_package() -> SimpleNamespace:
    """Import every package module afresh (drops earlier imports first)."""
    for name in [n for n in sys.modules if n == "mdconst" or n.startswith("mdconst.")]:
        del sys.modules[name]
    return SimpleNamespace(
        **{n: importlib.import_module(f"mdconst.{n}") for n in PACKAGE_MODULES}
    )


def setup(w: Workload) -> tuple[SimpleNamespace, list[Op]]:
    """Import the package and build the workload's fixed inputs.

    Returns the context and the set-up's own checked operations (the
    fixture's MED/MPD against Table 1).
    """
    pkg = import_package()
    ctx = SimpleNamespace(pkg=pkg)
    ops = []
    if w.is_design:
        return ctx, ops
    cn, scma, sim = pkg.constellation, pkg.scma, pkg.sim
    if w.base == "fixture":
        C = cn.Constellation.load(FIXTURE)
        med, mpd = med_mpd(C.points)
        want = TABLE1[(2, 4)]
        ok = abs(med - want[0]) <= TABLE1_TOL and abs(mpd - want[1]) <= TABLE1_TOL
        ops.append(Op("fixture(2,4)", 0.0, ok, f"MED {med:.6f} MPD {mpd:.6f}, want {want}"))
    else:
        C = cn.cartesian_qpsk(2)
    ctx.C = C
    ctx.cbs = scma.build_codebooks(scma.default_indicator(), C)
    ctx.snr = sim.SNRSpec((EBN0_DB,))
    return ctx, ops


def _check_design(w: Workload, K: int, M: int, seed: int, res) -> tuple[bool, str]:
    med, mpd = med_mpd(res.best.points)
    power = float(np.sum(np.abs(res.best.points) ** 2) / M)
    ok = [s for s in res.all_restarts if s["status"] != "failed"]
    kkt = max((s["max_kkt"] for s in ok), default=math.inf)
    problems = []
    if abs(power - 1.0) > 1e-9:
        problems.append(f"average power {power:.12f}")
    if not kkt <= KKT_MAX:
        problems.append(f"max KKT {kkt:.3e} > {KKT_MAX:g}")
    top = max(ok, key=lambda s: (round(s["med"], 3), s["mpd"])) if ok else None
    if top is None or abs(med - top["med"]) > SELECT_TOL or abs(mpd - top["mpd"]) > SELECT_TOL:
        problems.append(f"MED/MPD {med:.6f}/{mpd:.6f} is not the best restart's")
    if w.restarts == TABLE1_RESTARTS:
        want = TABLE1[(K, M)]
        if seed == 0:
            if abs(med - want[0]) > TABLE1_TOL or abs(mpd - want[1]) > TABLE1_TOL:
                problems.append(f"MED/MPD {med:.6f}/{mpd:.6f} != Table 1 {want}")
        else:
            floors = (MED_FLOORS[(K, M)], MPD_SHARE * want[1])
            if med < floors[0] or mpd < floors[1]:
                problems.append(f"MED/MPD {med:.6f}/{mpd:.6f} below floors "
                                f"{floors[0]:.4f}/{floors[1]:.4f}")
    return not problems, "; ".join(problems) or f"MED {med:.6f} MPD {mpd:.6f} KKT {kkt:.2e}"


def _check_ber(point: dict, vectors: int, bits: int, band: Band) -> tuple[bool, str]:
    problems = []
    if point["vectors"] != vectors or point["bits"] != bits:
        problems.append(f"ran {point['vectors']} vectors / {point['bits']} bits, "
                        f"asked {vectors} / {bits}")
    half = band.half_width(bits)
    if not abs(point["ber"] - band.ref) <= half:
        problems.append(f"BER {point['ber']:.6e} outside {band.ref:.6e} +- {half:.3e}")
    return not problems, "; ".join(problems) or f"BER {point['ber']:.6e}"


def _timed(label, call, check) -> Op:
    t0 = time.perf_counter()
    try:
        out = call()
        dt = time.perf_counter() - t0
        ok, detail = check(out)
    except Exception as exc:  # a failing operation is counted, not fatal
        return Op(label, time.perf_counter() - t0, False, f"{type(exc).__name__}: {exc}")
    return Op(label, dt, ok, detail)


def run_job(w: Workload, ctx: SimpleNamespace, seed: int) -> list[Op]:
    """One job at ``seed``: the timed operations, each checked."""
    pkg = ctx.pkg
    if w.is_design:
        ops = []
        for K, M in TABLE1:
            cfg = pkg.cccp.CCCPConfig(K=K, M=M, restarts=w.restarts, seed=seed)
            ops.append(_timed(
                f"optimize({K},{M})",
                lambda cfg=cfg: pkg.cccp.optimize(cfg),
                lambda res, K=K, M=M: _check_design(w, K, M, seed, res),
            ))
        return ops

    sim, cbs = pkg.sim, ctx.cbs
    nbits = int(round(math.log2(ctx.C.M)))
    p2p_bits = w.p2p_vectors * nbits
    scma_bits = w.scma_vectors * cbs.J * nbits
    # min_bit_errors above the bit count is out of reach, so the work is fixed
    return [
        _timed(
            "simulate_p2p",
            lambda: sim.simulate_p2p(ctx.C, "rayleigh_iid", ctx.snr, seed,
                                     min_bit_errors=p2p_bits + 1,
                                     max_vectors=w.p2p_vectors),
            lambda c: _check_ber(c.points[0], w.p2p_vectors, p2p_bits, w.bands["p2p"]),
        ),
        _timed(
            "simulate_scma_uplink",
            lambda: sim.simulate_scma_uplink(cbs, ctx.snr, seed,
                                             min_bit_errors=scma_bits + 1,
                                             max_vectors=w.scma_vectors),
            lambda c: _check_ber(c.points[0], w.scma_vectors, scma_bits, w.bands["scma"]),
        ),
    ]
