"""Command-line driver: optimize constellations, inspect metrics, build
SCMA codebooks, and run BER simulations.

Exit codes: 0 success; 1 a ``fanout`` process of ``optimize`` or ``simulate``
that could not start, died or sent back what does not pickle (``error: ...``,
one line), or a bug, any other uncaught exception, which Python reports with
its traceback; 2 validation error (bad input, an input or output path that
cannot be read or written, or two of a run's files that are one file);
3 every ``optimize`` restart failed (``cccp.RestartsFailed``), its only
cause. Every output file gets a sibling <name>.manifest.json recording the
command, resolved configuration, seed, the SHA-256 of each input file and of
the bytes written to each output, and wall clock, so runs can be reproduced
exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import math
import os
import sys
import time

from . import __version__, cccp, scma, sim
from . import constellation as cn
from .constellation import json_text, write_text_atomic

EXIT_OK = 0
EXIT_PROCESS = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
#: Most points an Eb/N0 sweep may ask for; each one is a simulation.
MAX_EBN0_POINTS = 1000
#: The file arguments a subcommand may read, in the manifest's order, and
#: those it may write; the manifest goes beside the first output given.
INPUT_ARGS = ("file", "--base", "--indicator", "--operators", "--constellation",
              "--codebook")
OUTPUT_ARGS = ("--out", "--json", "--trace")


def _given(args, names):
    """(name, path) of each of these file arguments that the run was given."""
    return [(n, p) for n in names if (p := getattr(args, n.lstrip("-"), None))]


def _check_distinct(args):
    """Raise ValueError if a file the run writes, an output or the manifest,
    is also a file it reads or another file it writes."""
    outputs = _given(args, OUTPUT_ARGS)
    if outputs:
        name, path = outputs[0]
        outputs.append((f"the {name} manifest", path + ".manifest.json"))
    seen = {os.path.realpath(p): n for n, p in _given(args, INPUT_ARGS)}
    for name, path in outputs:
        real = os.path.realpath(path)
        if real in seen:
            raise ValueError(f"{seen[real]} and {name} are the same file, {path!r}")
        seen[real] = name


def _sha256(path: str) -> str:
    """SHA-256 of an input file's bytes."""
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _write_outputs(args, outputs, extra, t0):
    """Write each (path, text) output, then the manifest beside the first:
    the command, its arguments with ``extra``, the seed, the SHA-256 of
    each input file and of the bytes written to each output. If a write
    fails, the outputs already written are removed, so a run that exits 2
    leaves no partial output set."""
    digests = {}
    try:
        for path, text in outputs:
            digests[path] = hashlib.sha256(write_text_atomic(path, text)).hexdigest()
        manifest = {
            "command": args.command,
            "config": {k: v for k, v in vars(args).items() if k != "func"} | extra,
            "seed": getattr(args, "seed", None),
            "version": __version__,
            "inputs": {p: _sha256(p) for _, p in _given(args, INPUT_ARGS)},
            "outputs": digests,
            "wall_clock_s": round(time.time() - t0, 3),
        }
        write_text_atomic(outputs[0][0] + ".manifest.json", json_text(manifest))
    except BaseException:
        for path in digests:
            with contextlib.suppress(OSError):
                os.unlink(path)
        raise


def _parse_ebn0(text: str) -> list[float]:
    """Either a comma list '0,5,10' or a colon sweep 'start:step:stop'."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"bad sweep {text!r}, expected start:step:stop")
        start, step, stop = (float(p) for p in parts)
        if not all(math.isfinite(v) for v in (start, step, stop)):
            raise ValueError(f"sweep {text!r} needs finite numbers")
        if step <= 0:
            raise ValueError("sweep step must be > 0")
        # count before building: 0:1e-12:1 would ask for 10^12 points
        span = (stop - start) / step + 1e-9
        if not span < MAX_EBN0_POINTS:  # inf too, where floor raises
            raise ValueError(f"sweep {text!r} has {span + 1:.4g} points, "
                             f"more than {MAX_EBN0_POINTS}")
        return [start + i * step for i in range(int(math.floor(span)) + 1)]
    return [float(p) for p in text.split(",") if p.strip()]


# -- subcommands: each returns its (path, text) outputs, its manifest extras
# and its stdout lines, and main writes, records and prints them -----------


def cmd_optimize(args):
    # every CCCPConfig field is the optimize argument of the same name
    fields = dataclasses.fields(cccp.CCCPConfig)
    cfg = cccp.CCCPConfig(**{f.name: getattr(args, f.name) for f in fields})
    result = cccp.optimize(cfg)
    best, restarts = result.best, result.all_restarts
    d = best.to_json_dict()
    # only the manifest keeps each chain's failure and seconds, so that
    # reruns write the same bytes
    dropped = ("failure", "chain_s", "solve_s")
    d["meta"]["restarts"] = [{k: v for k, v in s.items() if k not in dropped} for s in restarts]
    outputs = [(args.out, json_text(d))]
    if args.trace:
        rows = ["q,energy,objective,eta,step_norm\n"] + [
            f"{q},{rec['energy']:.17g},{rec['objective']:.17g},"
            f"{rec['eta']:.17g},{rec['step_norm']:.17g}\n"
            for q, rec in enumerate(result.trace, 1)
        ]
        outputs.append((args.trace, "".join(rows)))
    return outputs, {"config": cfg.__dict__, "restarts": restarts}, [
        f"K={cfg.K} M={cfg.M}: med={best.meta['med']:.4f} mpd={best.meta['mpd']:.4f} "
        f"(chain {best.meta['chain_index']}, {best.meta['iterations_used']} iters)"
    ]


def cmd_metrics(args):
    C = cn.Constellation.load(args.file)
    power = cn.average_power(C)
    if abs(power - 1.0) > 1e-9:
        print(f"warning: average power is {power:.6f}, not 1; reporting both raw "
              "and normalized metrics", file=sys.stderr)
        variants = [("raw", C), ("normalized", cn.normalize(C))]
    else:
        variants = [("", C)]
    printed = (("average_power", ".6f"), ("med", ".6f"), ("mpd", ".6f"), ("kissing_med", ""),
               ("kissing_mpd", ""), ("min_elementwise", ".6f"), ("amgm_min_slack", ".3e"))
    report, lines = {}, []
    for label, Cv in variants:
        amgm = cn.amgm_check(Cv)
        entry = {
            "average_power": cn.average_power(Cv),
            **dataclasses.asdict(cn.distance_profile(Cv)),
            "amgm_min_slack": min(ch["slack"] for ch in amgm),
            "amgm_equality_pairs": [list(ch["pair"]) for ch in amgm if ch["equality"]],
        }
        report[label or "metrics"] = entry
        tag = f" [{label}]" if label else ""
        lines += [f"{key}{tag}: {entry[key]:{fmt}}" for key, fmt in printed]
    return [(args.json, json_text(report))] if args.json else [], {}, lines


def cmd_scma_build(args):
    F = (
        scma.IndicatorMatrix.load(args.indicator)
        if args.indicator
        else scma.default_indicator()
    )
    base = cn.Constellation.load(args.base)
    ops = scma.OperatorSet.load(args.operators) if args.operators else None
    cbs = scma.build_codebooks(F, base, ops)
    return [(args.out, json_text(cbs.to_json_dict()))], {}, [
        f"built {cbs.J} codebooks on {cbs.N} resources (M={cbs.M}), "
        f"overloading {scma.overloading_factor(F):.2f}"
    ]


def cmd_simulate(args):
    ebn0 = _parse_ebn0(args.ebn0)
    spec = sim.SNRSpec(ebn0_db_list=tuple(ebn0))
    if (args.constellation is None) == (args.codebook is None):
        raise ValueError("pass exactly one of --constellation / --codebook")
    shared = dict(snr=spec, seed=args.seed, min_bit_errors=args.min_errors,
                  max_vectors=args.max_vectors, noise_free=args.noise_free)
    if args.constellation:
        C = cn.Constellation.load(args.constellation)
        curve = sim.simulate_p2p(C, channel=args.channel, **shared)
    else:
        cbs = scma.SCMACodebookSet.load(args.codebook)
        if args.channel != "rayleigh_iid":
            raise ValueError("SCMA uplink simulation supports rayleigh_iid only")
        curve = sim.simulate_scma_uplink(cbs, mpa_iters=args.mpa_iters, **shared)
    return [(args.out, curve.to_csv())], {}, [
        f"Eb/N0 {p['ebn0_db']:g} dB: ber={p['ber']:.3e} ({p['errors']} errors)"
        for p in curve.points
    ]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mdconst", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optimize", help="design a constellation")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    defaults = cccp.CCCPConfig
    p.add_argument("--lambda", dest="lam", type=float, default=defaults.lam)
    p.add_argument("--epsilon", type=float, default=defaults.epsilon)
    p.add_argument("--max-iters", type=int, default=defaults.max_iters)
    p.add_argument("--restarts", type=int, default=defaults.restarts)
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
    args = build_parser().parse_args(argv)
    t0 = time.time()
    try:
        _check_distinct(args)
        outputs, extra, lines = args.func(args)
        if outputs:
            _write_outputs(args, outputs, extra, t0)
    except cccp.RestartsFailed as exc:
        print(f"optimization failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ChildProcessError as exc:  # an OSError, but no path's or input's fault
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROCESS
    except (ValueError, OSError) as exc:
        # JSONDecodeError is a ValueError; FileNotFoundError and an
        # unwritable output path are OSErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    for line in lines:
        print(line)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
