"""Where the traced run wraps the package, and the per-layer metrics.

Every wrap replaces a module attribute that the package looks up at call
time: cccp reaches socp.solve, qforms.qf_* and the constellation metrics
through module attributes, and linearize/run_chain as module globals;
sim calls kernels.ml_detect_batch through the module and its own imported
name mpa_detect_batch, which calls kernels.mpa_detect_batch.
"""

from __future__ import annotations

from tracer import Tracer

CN_FUNCS = ("med", "mpd", "normalize", "distance_profile", "min_elementwise")

UNITS = {
    "cccp.chains": "count",
    "cccp.outer_iters": "count",
    "cccp.chain_s": "s",
    "cccp.linearize_calls": "count",
    "cccp.linearize_s": "s",
    "cccp.self_s": "s",
    "cccp.failed_chains": "count",
    "qforms.calls": "count",
    "qforms.s": "s",
    "socp.solves": "count",
    "socp.solve_s": "s",
    "socp.newton_steps": "count",
    "socp.newton_per_solve": "count",
    "socp.us_per_newton": "us",
    "socp.stage1_newton": "count",
    "socp.tail_newton": "count",
    "socp.non_optimal": "count",
    "socp.max_kkt": "residual",
    "constellation.s": "s",
    "kernels.ml_calls": "count",
    "kernels.ml_s": "s",
    "kernels.ml_ns_per_vec": "ns",
    "kernels.mpa_calls": "count",
    "kernels.mpa_s": "s",
    "kernels.mpa_us_per_vec": "us",
    "kernels.mpa_combos_per_vec": "count",
    "scma.self_s": "s",
    "sim.p2p_self_s": "s",
    "sim.scma_self_s": "s",
    "sim.chunks": "count",
    "trace.overhead_s": "s",
}


def _solve_with_trace(fn, args, kwargs):
    return fn(*args, **{**kwargs, "trace": True})


def _chain_hook(tr, args, kwargs, res):
    tr.counters["cccp.outer_iters"] += res.iterations
    tr.counters["cccp.failed_chains"] += res.status == "failed"


def _solve_hook(tr, args, kwargs, sol):
    # sol.trace rows are (tau, step, decrement), one per Newton step
    k = tr.counters
    k["socp.newton_steps"] += sol.newton_iters
    k["socp.stage1_newton"] += sum(1 for tau, _, _ in sol.trace if tau == 1.0)
    k["socp.tail_newton"] += sum(1 for tau, _, _ in sol.trace if tau >= 1e9)
    k["socp.non_optimal"] += sol.status != "optimal"
    k["socp.max_kkt"] = max(k["socp.max_kkt"], sol.kkt_residual)


def _ml_hook(tr, args, kwargs, out):
    tr.counters["kernels.ml_vectors"] += len(out)


def _mpa_hook(tr, args, kwargs, out):
    y, cb, res_deg, iters = args[0], args[2], args[4], args[7]
    M = cb.shape[2]
    tr.counters["kernels.mpa_vectors"] += y.shape[0]
    tr.counters["kernels.mpa_combos"] += y.shape[0] * iters * sum(M ** int(d) for d in res_deg)


def install(tr: Tracer, pkg) -> None:
    tr.wrap(pkg.cccp, "optimize", "cccp.optimize")
    tr.wrap(pkg.cccp, "run_chain", "cccp.run_chain", hook=_chain_hook)
    tr.wrap(pkg.cccp, "linearize", "cccp.linearize")
    tr.wrap(pkg.socp, "solve", "socp.solve", call=_solve_with_trace, hook=_solve_hook)
    for f in ("qf_value", "qf_gradient"):
        tr.wrap(pkg.qforms, f, f"qforms.{f}", span=False)
    for f in CN_FUNCS:
        tr.wrap(pkg.constellation, f, f"constellation.{f}", span=False)
    tr.wrap(pkg.sim, "simulate_p2p", "sim.simulate_p2p")
    tr.wrap(pkg.sim, "simulate_scma_uplink", "sim.simulate_scma_uplink")
    tr.wrap(pkg.sim, "mpa_detect_batch", "sim.mpa_detect_batch")
    tr.wrap(pkg.kernels, "ml_detect_batch", "kernels.ml_detect_batch", hook=_ml_hook)
    tr.wrap(pkg.kernels, "mpa_detect_batch", "kernels.mpa_detect_batch", hook=_mpa_hook)


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def metrics(tr: Tracer) -> dict:
    """Per-layer numbers of one traced job, named after their module."""
    n, incl, own, k = tr.calls, tr.incl_s, tr.self_s, tr.counters
    newton = k["socp.newton_steps"]
    solve_s = incl["socp.solve"]
    ml_s = incl["kernels.ml_detect_batch"]
    mpa_s = incl["kernels.mpa_detect_batch"]
    return {
        "cccp.chains": n["cccp.run_chain"],
        "cccp.outer_iters": k["cccp.outer_iters"],
        "cccp.chain_s": incl["cccp.run_chain"],
        "cccp.linearize_calls": n["cccp.linearize"],
        "cccp.linearize_s": incl["cccp.linearize"],
        "cccp.self_s": own["cccp.run_chain"] + own["cccp.linearize"],
        "cccp.failed_chains": k["cccp.failed_chains"],
        "qforms.calls": n["qforms.qf_value"] + n["qforms.qf_gradient"],
        "qforms.s": own["qforms.qf_value"] + own["qforms.qf_gradient"],
        "socp.solves": n["socp.solve"],
        "socp.solve_s": solve_s,
        "socp.newton_steps": newton,
        "socp.newton_per_solve": _ratio(newton, n["socp.solve"]),
        "socp.us_per_newton": _ratio(solve_s, newton, 1e6),
        "socp.stage1_newton": k["socp.stage1_newton"],
        "socp.tail_newton": k["socp.tail_newton"],
        "socp.non_optimal": k["socp.non_optimal"],
        "socp.max_kkt": k["socp.max_kkt"],
        "constellation.s": sum(own[f"constellation.{f}"] for f in CN_FUNCS),
        "kernels.ml_calls": n["kernels.ml_detect_batch"],
        "kernels.ml_s": ml_s,
        "kernels.ml_ns_per_vec": _ratio(ml_s, k["kernels.ml_vectors"], 1e9),
        "kernels.mpa_calls": n["kernels.mpa_detect_batch"],
        "kernels.mpa_s": mpa_s,
        "kernels.mpa_us_per_vec": _ratio(mpa_s, k["kernels.mpa_vectors"], 1e6),
        "kernels.mpa_combos_per_vec": _ratio(k["kernels.mpa_combos"], k["kernels.mpa_vectors"]),
        "scma.self_s": own["sim.mpa_detect_batch"],
        "sim.p2p_self_s": own["sim.simulate_p2p"],
        "sim.scma_self_s": own["sim.simulate_scma_uplink"],
        "sim.chunks": n["kernels.ml_detect_batch"] + n["sim.mpa_detect_batch"],
    }
