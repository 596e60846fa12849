"""Command-line driver: optimize constellations, inspect metrics, build
SCMA codebooks, and run BER simulations.

Exit codes: 0 success, 2 validation error (bad input, or an input or
output path that cannot be read or written), 3 numerical failure.
Every output file gets a sibling <name>.manifest.json recording the
command, resolved configuration, seed, input/output digests and wall
clock, so runs can be reproduced exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
import time

import numpy as np

from . import __version__, cccp, scma, sim
from . import constellation as cn
from .constellation import write_json_atomic, write_text_atomic

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


class ValidationError(Exception):
    pass


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items() if k != "func"}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (int, float, str, bool)) or obj is None:
        return obj
    return str(obj)


def _write_manifest(out_path, command, config, seed, inputs, outputs, t0):
    manifest = {
        "command": command,
        "config": _jsonable(config),
        "seed": seed,
        "version": __version__,
        "inputs": {p: _sha256(p) for p in inputs},
        "outputs": {p: _sha256(p) for p in outputs},
        "wall_clock_s": round(time.time() - t0, 3),
    }
    write_json_atomic(out_path + ".manifest.json", manifest)


def _parse_ebn0(text: str) -> list[float]:
    """Either a comma list '0,5,10' or a colon sweep 'start:step:stop'."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValidationError(f"bad sweep {text!r}, expected start:step:stop")
        start, step, stop = (float(p) for p in parts)
        if not all(math.isfinite(v) for v in (start, step, stop)):
            raise ValidationError(f"sweep {text!r} needs finite numbers")
        if step <= 0:
            raise ValidationError("sweep step must be > 0")
        n = int(math.floor((stop - start) / step + 1e-9)) + 1
        return [start + i * step for i in range(n)]
    return [float(p) for p in text.split(",") if p.strip()]


# -- subcommands -----------------------------------------------------------


def cmd_optimize(args) -> int:
    t0 = time.time()
    if args.M < 2:
        raise ValidationError("M must be >= 2")
    cfg = cccp.CCCPConfig(
        K=args.K,
        M=args.M,
        lam=args.lam,
        d_e_threshold=args.de,
        epsilon=args.epsilon,
        max_iters=args.max_iters,
        restarts=args.restarts,
        seed=args.seed,
    )
    try:
        result = cccp.optimize(cfg)
    except RuntimeError as exc:
        print(f"optimization failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    best = result.best
    out = args.out
    d = best.to_json_dict()
    d["meta"]["restarts"] = [
        {k: v for k, v in s.items() if k != "failure"} for s in result.all_restarts
    ]
    write_json_atomic(out, d)
    outputs = [out]
    if args.trace:
        rows = ["q,energy,objective,eta,step_norm\n"] + [
            f"{rec['q']},{rec['energy']:.17g},{rec['objective']:.17g},"
            f"{rec['eta']:.17g},{rec['step_norm']:.17g}\n"
            for rec in result.trace
        ]
        write_text_atomic(args.trace, "".join(rows))
        outputs.append(args.trace)
    _write_manifest(
        out, "optimize",
        vars(args) | {"config": cfg.__dict__, "restarts": result.all_restarts},
        args.seed,
        [], outputs, t0,
    )
    print(
        f"K={cfg.K} M={cfg.M}: med={cn.med(best):.4f} mpd={cn.mpd(best):.4f} "
        f"(chain {best.meta['chain_index']}, {best.meta['iterations_used']} iters)"
    )
    return EXIT_OK


def cmd_metrics(args) -> int:
    C = cn.Constellation.load(args.file)
    power = cn.average_power(C)
    if abs(power - 1.0) > 1e-9:
        print(f"warning: average power is {power:.6f}, not 1; reporting both raw "
              "and normalized metrics", file=sys.stderr)
        variants = [("raw", C), ("normalized", cn.normalize(C))]
    else:
        variants = [("", C)]
    report = {}
    for label, Cv in variants:
        prof = cn.distance_profile(Cv)
        amgm = cn.amgm_check(Cv)
        entry = {
            "average_power": cn.average_power(Cv),
            "med": prof.med,
            "mpd": prof.mpd,
            "kissing_med": prof.kissing_med,
            "kissing_mpd": prof.kissing_mpd,
            "min_elementwise": prof.min_elementwise,
            "amgm_min_slack": min(ch["slack"] for ch in amgm),
            "amgm_equality_pairs": [list(ch["pair"]) for ch in amgm if ch["equality"]],
        }
        report[label or "metrics"] = entry
        tag = f" [{label}]" if label else ""
        print(f"average_power{tag}: {entry['average_power']:.6f}")
        print(f"med{tag}: {entry['med']:.6f}")
        print(f"mpd{tag}: {entry['mpd']:.6f}")
        print(f"kissing_med{tag}: {entry['kissing_med']}")
        print(f"kissing_mpd{tag}: {entry['kissing_mpd']}")
        print(f"min_elementwise{tag}: {entry['min_elementwise']:.6f}")
        print(f"amgm_min_slack{tag}: {entry['amgm_min_slack']:.3e}")
    if args.json:
        write_json_atomic(args.json, report)
    return EXIT_OK


def cmd_scma_build(args) -> int:
    t0 = time.time()
    F = (
        scma.IndicatorMatrix.load(args.indicator)
        if args.indicator
        else scma.default_indicator()
    )
    base = cn.Constellation.load(args.base)
    ops = scma.OperatorSet.load(args.operators) if args.operators else None
    try:
        cbs = scma.build_codebooks(F, base, ops)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    cbs.save(args.out)
    inputs = [args.base] + ([args.indicator] if args.indicator else []) + (
        [args.operators] if args.operators else []
    )
    _write_manifest(args.out, "scma-build", vars(args), None, inputs, [args.out], t0)
    print(
        f"built {cbs.J} codebooks on {cbs.N} resources (M={cbs.M}), "
        f"overloading {scma.overloading_factor(F):.2f}"
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    t0 = time.time()
    ebn0 = _parse_ebn0(args.ebn0)
    spec = sim.SNRSpec(ebn0_db_list=tuple(ebn0))
    if (args.constellation is None) == (args.codebook is None):
        raise ValidationError("pass exactly one of --constellation / --codebook")
    if args.constellation:
        C = cn.Constellation.load(args.constellation)
        if 2 ** int(round(math.log2(C.M))) != C.M:
            raise ValidationError(
                "M must be >= 2 and a power of 2 for simulation; "
                "optimization allows any M >= 2"
            )
        curve = sim.simulate_p2p(
            C,
            channel=args.channel,
            snr=spec,
            seed=args.seed,
            min_bit_errors=args.min_errors,
            max_vectors=args.max_vectors,
            noise_free=args.noise_free,
        )
        inputs = [args.constellation]
    else:
        cbs = scma.SCMACodebookSet.load(args.codebook)
        if args.channel != "rayleigh_iid":
            raise ValidationError("SCMA uplink simulation supports rayleigh_iid only")
        curve = sim.simulate_scma_uplink(
            cbs,
            snr=spec,
            seed=args.seed,
            min_bit_errors=args.min_errors,
            max_vectors=args.max_vectors,
            mpa_iters=args.mpa_iters,
            noise_free=args.noise_free,
        )
        inputs = [args.codebook]
    curve.save_csv(args.out)
    _write_manifest(args.out, "simulate", vars(args), args.seed, inputs, [args.out], t0)
    for p in curve.points:
        print(f"Eb/N0 {p['ebn0_db']:g} dB: ber={p['ber']:.3e} ({p['errors']} errors)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mdconst", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optimize", help="design a constellation")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=0.5)
    p.add_argument("--de", type=float, default=1.0)
    p.add_argument("--epsilon", type=float, default=1e-4)
    p.add_argument("--max-iters", type=int, default=100)
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", help="per-iteration CSV for the winning chain")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("metrics", help="distance metrics of a constellation file")
    p.add_argument("file")
    p.add_argument("--json", help="also write the report as JSON")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("scma-build", help="assemble SCMA codebooks")
    p.add_argument("--base", required=True, help="base constellation JSON")
    p.add_argument("--indicator", help="indicator matrix JSON (default: 4x6)")
    p.add_argument("--operators", help="operator phase JSON (default scheme)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_scma_build)

    p = sub.add_parser("simulate", help="Monte Carlo BER")
    p.add_argument("--constellation", help="point-to-point over a constellation")
    p.add_argument("--codebook", help="SCMA uplink over a codebook set")
    p.add_argument("--channel", choices=["awgn", "rayleigh_iid"], default="awgn")
    p.add_argument("--ebn0", required=True, help="'0,5,10' or 'start:step:stop' dB")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--min-errors", type=int, default=200)
    p.add_argument("--max-vectors", type=int, default=1_000_000)
    p.add_argument("--mpa-iters", type=int, default=10)
    p.add_argument("--noise-free", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except np.linalg.LinAlgError as exc:  # a ValueError, so caught first
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValidationError, ValueError, OSError) as exc:
        # JSONDecodeError is a ValueError; FileNotFoundError and an
        # unwritable output path are OSErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
