"""The benchmark's traced run still sees the package's layers.

``mdbench/layers.py`` replaces module attributes (``cccp.run_chain``,
``socp.solve``, ``kernels.mpa_detect_batch``, ...) and reads some call
arguments by position. A change that renames one of those names, calls it
past the module attribute, or reorders the arguments a hook reads would
leave those per-layer counts at zero without failing the benchmark; this
test fails instead.
"""

import math
import os
import sys
import threading
from types import SimpleNamespace

from mdconst import cccp, constellation, kernels, qforms, scma, sim, socp

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "mdbench")
)
import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

WRAPPED = (cccp, constellation, kernels, qforms, scma, sim, socp)


def test_wrapped_layers_count_calls():
    pkg = SimpleNamespace(**{m.__name__.rsplit(".", 1)[1]: m for m in WRAPPED})
    tr = Tracer()
    layers.install(tr, pkg)
    try:
        C = cccp.optimize(cccp.CCCPConfig(K=2, M=4, restarts=1, max_iters=3)).best
        snr = sim.SNRSpec((10.0,))
        sim.simulate_p2p(C, "rayleigh_iid", snr, 0, min_bit_errors=10**6, max_vectors=100)
        cbs = scma.build_codebooks(scma.default_indicator(), C)
        sim.simulate_scma_uplink(cbs, snr, 0, min_bit_errors=10**6, max_vectors=20)
    finally:
        tr.restore()
    assert not hasattr(cccp.run_chain, "mdbench_wraps")
    got = layers.metrics(tr)
    # cccp.outer_iters reads ChainResult.iterations, socp.newton_steps
    # SubproblemSolution.newton_iters
    for name in ("cccp.chains", "cccp.outer_iters", "socp.solves", "socp.newton_steps",
                 "kernels.ml_calls", "kernels.mpa_calls", "kernels.mpa_combos_per_vec"):
        assert got[name] > 0, name
    # 10 MPA iterations x 4 resources x 4**3 symbol combinations each
    assert got["kernels.mpa_combos_per_vec"] == 10 * 4 * 4**3 == 2560


def test_one_detection_call_per_chunk_on_the_calling_thread():
    # the draws run on a worker thread; every wrapped detection call, which
    # the tracer records, must still run on the calling thread, once per chunk
    C = cccp.optimize(cccp.CCCPConfig(K=2, M=4, restarts=1, max_iters=3)).best
    cbs = scma.build_codebooks(scma.default_indicator(), C)
    snr = sim.SNRSpec((10.0,))
    p2p_vectors, scma_vectors = 45_000, 2_100
    pkg = SimpleNamespace(**{m.__name__.rsplit(".", 1)[1]: m for m in WRAPPED})
    tr, spy = Tracer(), Tracer()
    threads = []
    layers.install(tr, pkg)
    for module, attr in ((kernels, "ml_detect_batch"), (kernels, "mpa_detect_batch"),
                         (sim, "mpa_detect_batch")):
        spy.wrap(module, attr, attr, span=False,
                 hook=lambda *_: threads.append(threading.current_thread()))
    try:
        sim.simulate_p2p(C, "rayleigh_iid", snr, 0, min_bit_errors=10**9,
                         max_vectors=p2p_vectors)
        sim.simulate_scma_uplink(cbs, snr, 0, min_bit_errors=10**9, max_vectors=scma_vectors)
    finally:
        spy.restore()
        tr.restore()
    got = layers.metrics(tr)
    p2p_chunks = math.ceil(p2p_vectors / sim.P2P_CHUNK)
    scma_chunks = math.ceil(scma_vectors / sim.SCMA_CHUNK)
    assert got["kernels.ml_calls"] == p2p_chunks == 3
    assert got["kernels.mpa_calls"] == scma_chunks == 2
    assert got["sim.chunks"] == p2p_chunks + scma_chunks
    assert threads == [threading.main_thread()] * (p2p_chunks + 2 * scma_chunks)


def test_design_gate_passes_optimize():
    # the gate reads best.points and each restart row's status, max_kkt,
    # med and mpd
    res = cccp.optimize(cccp.CCCPConfig(K=2, M=4, restarts=2, max_iters=5))
    w = workloads.WORKLOADS["design-table1"].smoke()
    ok, detail = workloads._check_design(w, 2, 4, 0, res)
    assert ok, detail
