"""Smoke test of the benchmark at a tiny size (1 restart, a few hundred vectors).

    python3 -m pytest mdbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import os
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _surviving_wrappers() -> list[str]:
    return [
        f"{mod}.{attr}"
        for mod, m in list(sys.modules.items())
        if mod.startswith("mdconst")
        for attr, v in vars(m).items()
        if hasattr(v, "mdbench_wraps")
    ]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_with_its_unit(workload, trace):
    record = run.run_benchmark(workload, seed=0, seconds=0.0, trace=bool(trace), smoke=True)
    res = json.loads(json.dumps(record["result"]))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2
    declared = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in res["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    assert _surviving_wrappers() == []
    if trace:
        assert record["spans"], "traced run kept no spans"


def test_design_counts_repeat_exactly():
    a, b = (
        run.run_benchmark("design-table1", seed=0, seconds=0.0, trace=True, smoke=True)
        for _ in range(2)
    )
    for name in ("cccp.outer_iters", "socp.newton_steps", "qforms.calls"):
        assert a["result"]["metrics"][name] == b["result"]["metrics"][name]
        assert a["result"]["metrics"][name]["value"] > 0


def test_self_time_excludes_wrapped_children():
    mod = types.SimpleNamespace()
    mod.inner = lambda: sum(range(20_000))
    mod.outer = lambda: [mod.inner() for _ in range(5)]
    originals = dict(vars(mod))
    tr = Tracer()
    tr.wrap(mod, "outer", "outer")
    tr.wrap(mod, "inner", "inner", span=False)
    try:
        mod.outer()
    finally:
        tr.restore()
    assert vars(mod) == originals
    assert tr.calls["inner"] == 5 and tr.calls["outer"] == 1
    assert tr.self_s["outer"] == pytest.approx(tr.incl_s["outer"] - tr.incl_s["inner"])
    assert [s[3] for s in tr.spans] == ["outer"]


def test_wraps_restored_when_the_job_raises():
    ctx, _ = wl.setup(wl.WORKLOADS["ber-m4"].smoke())
    tr = Tracer()
    layers.install(tr, ctx.pkg)
    try:
        with pytest.raises(TypeError):
            ctx.pkg.sim.simulate_p2p()
    finally:
        tr.restore()
    assert _surviving_wrappers() == []


def test_broken_detector_fails_the_gate_without_crashing(monkeypatch):
    w = wl.WORKLOADS["ber-m4"].smoke()
    ctx, _ = wl.setup(w)
    monkeypatch.setattr(ctx.pkg.kernels, "ml_detect_batch",
                        lambda y, h, points: (y[:, 0].real > 9).astype(int))
    p2p, scma = wl.run_job(w, ctx, 0)
    assert not p2p.ok and "outside" in p2p.detail
    assert scma.ok


def test_exits_nonzero_without_package_source(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path))
    assert run.main(["--workload", "ber-m4", "--seed", "0", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_design_gate_checks_selection_and_floors():
    w = wl.WORKLOADS["design-table1"]
    ctx, _ = wl.setup(wl.WORKLOADS["ber-m4"])
    med, mpd = wl.med_mpd(ctx.C.points)

    def result(*restarts, points=ctx.C.points):
        summaries = [{"status": "converged", "med": m, "mpd": p, "max_kkt": 1e-12}
                     for m, p in restarts]
        best = types.SimpleNamespace(points=points)
        return types.SimpleNamespace(best=best, all_restarts=summaries)

    ok, detail = wl._check_design(w, 2, 4, 7, result((med, mpd), (1.41, 1.3)))
    assert ok, detail
    ok, detail = wl._check_design(w, 2, 4, 7, result((med, mpd), (med, mpd + 0.1)))
    assert not ok and "best restart" in detail
    squeezed = ctx.C.points.copy()
    squeezed[0, 1] = 0.9 * squeezed[0, 0] + 0.1 * squeezed[0, 1]
    squeezed /= np.sqrt(np.sum(np.abs(squeezed) ** 2) / 4)
    ok, detail = wl._check_design(w, 2, 4, 7, result(wl.med_mpd(squeezed), points=squeezed))
    assert not ok and "below floors" in detail
