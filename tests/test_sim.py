import math
import os
import pathlib
import resource
import time

import numpy as np
import pytest

import oracles
from conftest import wait_for
from mdconst import cccp, cli, fanout, kernels, scma, sim
from mdconst import constellation as cn


@pytest.fixture(scope="module")
def qpsk2():
    # K=2 Cartesian QPSK: M=16, unit power
    return cn.cartesian_qpsk(2)


class TestBitMapping:
    def test_validation(self):
        with pytest.raises(ValueError, match="power of 2"):
            sim.bits_per_symbol(3)

    def test_bits_per_symbol(self):
        assert sim.bits_per_symbol(4) == 2
        assert sim.bits_per_symbol(16) == 4


class TestSNR:
    def test_noise_variance_unit_energy(self):
        # Es = 1, so n0 = 1 / (log2(M) * 10^(EbN0/10))
        s = sim.SNRSpec(ebn0_db_list=(0.0,))
        assert s.noise_variance(4, 0.0) == pytest.approx(0.5)
        assert s.noise_variance(16, 10.0) == pytest.approx(1.0 / 40.0)

    @pytest.mark.parametrize("values", [(), (math.nan,), (0.0, math.inf), (-math.inf,)])
    def test_empty_or_nonfinite_rejected(self, values):
        # an empty sweep would write a header-only CSV; NaN simulated BER 0.5
        with pytest.raises(ValueError, match="finite Eb/N0"):
            sim.SNRSpec(values)


class TestMLDetect:
    def test_exact_point_recovered(self, qpsk2):
        for m in (0, 5, 15):
            y = qpsk2.points[:, m]
            h = np.ones(2, dtype=complex)
            assert kernels.ml_detect_batch(y[None], h[None], qpsk2.points)[0] == m

    def test_fading_compensated(self, qpsk2):
        rng = np.random.default_rng(3)
        h = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        y = h * qpsk2.points[:, 9]
        assert kernels.ml_detect_batch(y[None], h[None], qpsk2.points)[0] == 9

    def test_tie_breaks_to_lowest_index(self):
        # two identical points: y equidistant, index 0 must win
        C = cn.Constellation(points=np.array([[1.0 + 0j, 1.0 + 0j]]))
        y, h = np.array([[0.0 + 0j]]), np.ones((1, 1), dtype=complex)
        assert kernels.ml_detect_batch(y, h, C.points)[0] == 0


class TestP2P:
    def test_noise_free_ber_zero(self, qpsk2):
        for ch in ("awgn", "rayleigh_iid"):
            curve = sim.simulate_p2p(
                qpsk2, ch, sim.SNRSpec((0.0,)), seed=1,
                max_vectors=5_000, noise_free=True,
            )
            assert curve.points[0]["errors"] == 0
            assert curve.points[0]["ber"] == 0.0

    def test_determinism(self, qpsk2):
        kw = dict(min_bit_errors=100, max_vectors=50_000)
        a = sim.simulate_p2p(qpsk2, "awgn", sim.SNRSpec((4.0,)), seed=7, **kw)
        b = sim.simulate_p2p(qpsk2, "awgn", sim.SNRSpec((4.0,)), seed=7, **kw)
        assert a.points == b.points

    def test_counters_consistent(self, qpsk2):
        curve = sim.simulate_p2p(
            qpsk2, "rayleigh_iid", sim.SNRSpec((0.0, 8.0)), seed=2,
            min_bit_errors=50, max_vectors=40_000,
        )
        for p in curve.points:
            assert 0 <= p["errors"] <= p["bits"]
            assert p["bits"] == p["vectors"] * sim.bits_per_symbol(16)
            assert 0.0 <= p["ber"] <= 1.0
            assert p["vectors"] <= 40_000

    def test_awgn_qpsk_matches_theory(self):
        # K=1 QPSK over AWGN: BER = Q(sqrt(2 Eb/N0))
        from math import erfc, sqrt

        C = cn.cartesian_qpsk(1)
        ebn0 = 4.0
        curve = sim.simulate_p2p(
            C, "awgn", sim.SNRSpec((ebn0,)), seed=5,
            min_bit_errors=4_000, max_vectors=2_000_000,
        )
        p = curve.points[0]
        theory = 0.5 * erfc(sqrt(10 ** (ebn0 / 10)))
        sigma = sqrt(theory * (1 - theory) / p["bits"])
        assert abs(p["ber"] - theory) < 4 * sigma

    @pytest.mark.parametrize("kw", [dict(max_vectors=0), dict(min_bit_errors=0)])
    def test_stop_rule_below_one_rejected(self, qpsk2, kw):
        # zero vectors gave 0 bits and a ZeroDivisionError for the BER
        with pytest.raises(ValueError, match=">= 1"):
            sim.simulate_p2p(qpsk2, "awgn", sim.SNRSpec((0.0,)), seed=0, **kw)

    def test_unknown_channel_rejected(self, qpsk2):
        with pytest.raises(ValueError, match="unknown channel"):
            sim.simulate_p2p(qpsk2, "rician", sim.SNRSpec((0.0,)), seed=0)

    def test_nonunit_power_warns(self):
        C = cn.Constellation(points=2.0 * cn.cartesian_qpsk(1).points)
        with pytest.warns(UserWarning, match="unit power"):
            sim.simulate_p2p(C, "awgn", sim.SNRSpec((0.0,)), seed=0,
                             max_vectors=100, noise_free=True)

    def test_rayleigh_fading_statistics(self):
        # the fading of chunk 0 of point 0, drawn as the simulator draws it:
        # mean power 1 per coefficient, and no correlation between the
        # dimensions' powers or between a coefficient's consecutively drawn
        # real and imaginary parts
        rng = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(0, 0)))
        n = 100_000
        h = sim._draw_complex(rng, np.empty((n, 2), dtype=complex), 1 / np.sqrt(2))
        g = np.abs(h) ** 2
        assert g.mean() == pytest.approx(1.0, abs=0.02)
        assert abs(np.corrcoef(g[:, 0], g[:, 1])[0, 1]) < 0.01
        assert abs(np.corrcoef(h.real.ravel(), h.imag.ravel())[0, 1]) < 0.01

    def test_no_chunk_replays_a_restart_chain(self, cpus, monkeypatch):
        # a design and a simulation at one seed draw from distinct streams;
        # numpy pads a short entropy list with zero words, so a chunk stream
        # SeedSequence([seed, p, 0]) would be restart chain p's SeedSequence([seed, p])
        cpus(1)
        states, default_rng = [], np.random.default_rng

        def recording(seq=None):
            if isinstance(seq, np.random.SeedSequence):
                states.append(tuple(seq.generate_state(4)))
            return default_rng(seq)

        monkeypatch.setattr(np.random, "default_rng", recording)
        cccp.optimize(cccp.CCCPConfig(K=2, M=4, restarts=3, max_iters=2, seed=5))
        assert len(states) == 3
        sim.simulate_p2p(_base24(), "awgn", sim.SNRSpec((0.0, 3.0, 6.0)), seed=5,
                         min_bit_errors=10**9, max_vectors=2 * sim.P2P_CHUNK + 1)
        assert len(states) == 3 + 3 * 3
        assert len(set(states)) == len(states)


@pytest.fixture(scope="module")
def cbs():
    # unit-power K=2, M=4 base for the 4x6 default indicator
    pts = cn.cartesian_qpsk(1).points
    base = cn.Constellation(points=np.vstack([pts, pts * np.exp(0.3j)]) / np.sqrt(2))
    return scma.build_codebooks(scma.default_indicator(), base)


class TestSCMASim:

    def test_noise_free_ber_zero(self, cbs):
        curve = sim.simulate_scma_uplink(
            cbs, sim.SNRSpec((0.0,)), seed=3, max_vectors=200,
            mpa_iters=6, noise_free=True,
        )
        assert curve.points[0]["ber"] == 0.0

    def test_zero_mpa_iters_rejected(self, cbs):
        # no iteration leaves the posteriors uniform: a blind detector
        with pytest.raises(ValueError, match="iters"):
            sim.simulate_scma_uplink(
                cbs, sim.SNRSpec((10.0,)), seed=3, max_vectors=200, mpa_iters=0
            )

    @pytest.mark.parametrize("kw", [dict(max_vectors=0), dict(min_bit_errors=0)])
    def test_stop_rule_below_one_rejected(self, cbs, kw):
        with pytest.raises(ValueError, match=">= 1"):
            sim.simulate_scma_uplink(cbs, sim.SNRSpec((10.0,)), seed=3, **kw)

    def test_determinism_and_counters(self, cbs):
        kw = dict(min_bit_errors=40, max_vectors=2_000, mpa_iters=4)
        a = sim.simulate_scma_uplink(cbs, sim.SNRSpec((6.0,)), seed=4, **kw)
        b = sim.simulate_scma_uplink(cbs, sim.SNRSpec((6.0,)), seed=4, **kw)
        assert a.points == b.points
        p = a.points[0]
        assert p["bits"] == p["vectors"] * cbs.J * sim.bits_per_symbol(cbs.M)


class TestCSV:
    def test_header_and_roundtrip(self, qpsk2, tmp_path):
        curve = sim.simulate_p2p(
            qpsk2, "awgn", sim.SNRSpec((0.0, 2.0)), seed=1,
            max_vectors=1_000, noise_free=True,
        )
        path = tmp_path / "ber.csv"
        curve.save_csv(str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "ebn0_db,errors,bits,ber,vectors,seed"
        assert len(lines) == 3
        row = lines[1].split(",")
        assert float(row[0]) == 0.0
        assert int(row[1]) == 0


def _base24():
    pts = cn.cartesian_qpsk(1).points
    return cn.Constellation(points=np.vstack([pts, pts * np.exp(0.3j)]) / np.sqrt(2))


def _golden_run(case, seed):
    C = cn.cartesian_qpsk(2) if "m16" in case else _base24()
    if case.startswith("scma"):
        cbs = scma.build_codebooks(scma.default_indicator(), C)
        return sim.simulate_scma_uplink(cbs, sim.SNRSpec((4.0, 10.0)), seed, min_bit_errors=1_500,
                                        max_vectors=300 if "m16" in case else 4_100)
    channel = "awgn" if "awgn" in case else "rayleigh_iid"
    if case.endswith("noise-free"):
        return sim.simulate_p2p(C, channel, sim.SNRSpec((0.0,)), seed,
                                max_vectors=25_000, noise_free=True)
    return sim.simulate_p2p(C, channel, sim.SNRSpec((0.0, 6.0, 12.0)), seed,
                            min_bit_errors=400, max_vectors=45_000)


#: CSV rows of the chunk streams: chunk c of point p draws from
#: SeedSequence(seed, spawn_key=(p, c)), each complex Gaussian as consecutive
#: (real, imaginary) pairs, and a point counts chunks 0..c*. The sweeps stop
#: points on their error count partway through their chunks and run partial
#: last chunks; the M=4 SCMA sweep runs three chunks at 10 dB and the M=16
#: one a partial chunk per point.
GOLDEN = {
    ("p2p-awgn-m4", 0): ("0,3135,40000,7.8375000000e-02,20000,0",
                         "6,194,90000,2.1555555556e-03,45000,0",
                         "12,0,90000,0.0000000000e+00,45000,0"),
    ("p2p-awgn-m4", 1000): ("0,3138,40000,7.8450000000e-02,20000,1000",
                            "6,225,90000,2.5000000000e-03,45000,1000",
                            "12,0,90000,0.0000000000e+00,45000,1000"),
    ("p2p-rayleigh-m4", 0): ("0,4643,40000,1.1607500000e-01,20000,0",
                             "6,979,40000,2.4475000000e-02,20000,0",
                             "12,219,90000,2.4333333333e-03,45000,0"),
    ("p2p-rayleigh-m4", 1000): ("0,4771,40000,1.1927500000e-01,20000,1000",
                                "6,978,40000,2.4450000000e-02,20000,1000",
                                "12,235,90000,2.6111111111e-03,45000,1000"),
    ("p2p-awgn-m16", 0): ("0,6380,80000,7.9750000000e-02,20000,0",
                          "6,407,160000,2.5437500000e-03,40000,0",
                          "12,0,180000,0.0000000000e+00,45000,0"),
    ("p2p-awgn-m16", 1000): ("0,6317,80000,7.8962500000e-02,20000,1000",
                             "6,405,160000,2.5312500000e-03,40000,1000",
                             "12,0,180000,0.0000000000e+00,45000,1000"),
    ("p2p-rayleigh-m16", 0): ("0,11692,80000,1.4615000000e-01,20000,0",
                              "6,4233,80000,5.2912500000e-02,20000,0",
                              "12,1202,80000,1.5025000000e-02,20000,0"),
    ("p2p-rayleigh-m16", 1000): ("0,11736,80000,1.4670000000e-01,20000,1000",
                                 "6,4187,80000,5.2337500000e-02,20000,1000",
                                 "12,1242,80000,1.5525000000e-02,20000,1000"),
    ("p2p-rayleigh-m16-noise-free", 0): ("0,0,100000,0.0000000000e+00,25000,0",),
    ("p2p-rayleigh-m16-noise-free", 1000): ("0,0,100000,0.0000000000e+00,25000,1000",),
    ("scma-m4", 0): ("4,2473,24000,1.0304166667e-01,2000,0",
                     "10,668,49200,1.3577235772e-02,4100,0"),
    ("scma-m4", 1000): ("4,2402,24000,1.0008333333e-01,2000,1000",
                        "10,606,49200,1.2317073171e-02,4100,1000"),
    ("scma-m16", 0): ("4,1629,7200,2.2625000000e-01,300,0",
                      "10,917,7200,1.2736111111e-01,300,0"),
    ("scma-m16", 1000): ("4,1677,7200,2.3291666667e-01,300,1000",
                         "10,878,7200,1.2194444444e-01,300,1000"),
}


@pytest.mark.parametrize("case, seed", GOLDEN, ids=[f"{c}-seed{s}" for c, s in GOLDEN])
def test_csv_bytes_of_the_serial_draw_order(case, seed):
    # the chunk streams' rows, whichever process ran a chunk: any change to
    # the draws, their order or the detectors' inputs moves some of these counts
    want = "ebn0_db,errors,bits,ber,vectors,seed\n" + "".join(
        row + "\n" for row in GOLDEN[case, seed])
    assert _golden_run(case, seed).to_csv() == want


@pytest.fixture()
def cpus(monkeypatch):
    """cpus(W) reports W usable CPUs; the list of the caller's os.fork calls."""
    real_fork, forks = os.fork, []

    def counted():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", counted)

    def set_cpus(W):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(W)))
        return forks

    return set_cpus


@pytest.mark.parametrize("W", [1, 2, 3])
def test_csv_bytes_do_not_depend_on_the_process_count(cpus, W):
    # the sweeps stop points on their error count partway through their
    # chunks, after chunk 0 (p2p-rayleigh-m4, scma-m4) and after chunk 1
    # (p2p-awgn-m16 at 6 dB), and end points on a partial chunk
    forks = cpus(W)
    for case, seed in (("p2p-rayleigh-m4", 0), ("p2p-awgn-m16", 1000), ("scma-m4", 0)):
        want = "".join(row + "\n" for row in GOLDEN[case, seed])
        assert _golden_run(case, seed).to_csv().split("\n", 1)[1] == want
    assert bool(forks) == (W > 1)


def test_golden_p2p_points_within_analytic_bounds():
    # an independent check of the chunk streams: each simulated point with
    # >= 200 bit errors lies between the lower and union bounds on the ML
    # BER, widened by 4 standard errors; a vector's bit errors come together,
    # so the variance over bits is at most log2(M) times the binomial one
    z, checked = 4.0, set()
    for (case, seed), rows in GOLDEN.items():
        if not case.startswith("p2p") or case.endswith("noise-free"):
            continue
        C = cn.cartesian_qpsk(2) if "m16" in case else _base24()
        nbits = sim.bits_per_symbol(C.M)
        channel = "awgn" if "awgn" in case else "rayleigh_iid"
        for row in rows:
            ebn0, errors, bits = (float(v) for v in row.split(",")[:3])
            if errors < 200:
                continue
            lower, union = oracles.p2p_ber_bounds(
                C.points, sim.SNRSpec((ebn0,)).noise_variance(C.M, ebn0), channel)
            ber = errors / bits
            half = z * math.sqrt(nbits * ber / bits)
            assert lower - half <= ber <= union + half, (case, seed, row, lower, union)
            checked.add((channel, C.M))
    assert checked == {(ch, M) for ch in ("awgn", "rayleigh_iid") for M in (4, 16)}


def test_analytic_bounds_oracle():
    # K=1 QPSK over AWGN: the exact BER Q(sqrt(2 Eb/N0)) lies between the
    # bounds; the stored (2,4) design over Rayleigh fading at 10 dB
    ebn0 = 10 ** 0.4
    lower, union = oracles.p2p_ber_bounds(cn.cartesian_qpsk(1).points, 1 / (2 * ebn0), "awgn")
    assert lower < 0.5 * math.erfc(math.sqrt(ebn0)) < union
    C = cn.Constellation.load(str(pathlib.Path(__file__).parents[1] / "mdbench" / "fixtures"
                                  / "c24_seed0.json"))
    bounds = oracles.p2p_ber_bounds(C.points, 1 / (2 * 10.0), "rayleigh_iid")
    assert bounds == pytest.approx((1.985e-3, 7.941e-3), rel=1e-3)


class TestFanOut:
    """simulate's chunks, and fanout.imap's items, on two CPUs whatever the
    machine has: the caller runs item 0 and the processes claim the rest, a
    failure in either process reaches the caller, and no child outlives its
    point."""

    @staticmethod
    def lockstep_detection(monkeypatch, tmp_path, fail):
        """Patch the ML kernel to call fail(c) as it starts chunk c, in the
        process that claimed it, and then wait (at most 20 s) until chunk
        c + 1 starts, unless c is the last chunk or a chunk has raised or
        touched tmp_path / "stop". A process busy with chunk c cannot claim
        c + 1, so at W = 2 the caller runs the even chunks and the child the
        odd ones until a chunk stops the lockstep; fail picks its process by
        os.getpid()."""
        imap, ml, chunk, stop = fanout.imap, kernels.ml_detect_batch, [], tmp_path / "stop"

        def tagged(fn, items):
            def run(c):
                chunk[:] = c, items
                return fn(c)
            return imap(run, items)

        def detect(*args):
            c, items = chunk
            (tmp_path / f"chunk{c}").touch()
            try:
                fail(c)
            except BaseException:
                stop.touch()
                raise
            if c + 1 < items:
                wait_for(tmp_path / f"chunk{c + 1}", stop)
            return ml(*args)

        monkeypatch.setattr(fanout, "imap", tagged)
        monkeypatch.setattr(kernels, "ml_detect_batch", detect)

    @staticmethod
    def run(max_vectors=100_000, min_bit_errors=10**9):
        return sim.simulate_p2p(_base24(), "rayleigh_iid", sim.SNRSpec((0.0,)), seed=0,
                                min_bit_errors=min_bit_errors, max_vectors=max_vectors)

    def test_detection_error_reaches_caller(self, cpus, monkeypatch, tmp_path):
        caller = os.getpid()

        def fail(c):
            if os.getpid() != caller and c == 3:
                raise FloatingPointError(f"chunk 3 in process {os.getpid()}")

        forks = cpus(2)
        self.lockstep_detection(monkeypatch, tmp_path, fail)
        with pytest.raises(FloatingPointError, match=r"chunk 3 in process \d+") as exc:
            self.run()
        assert forks and str(os.getpid()) not in str(exc.value)  # raised in the child

    @pytest.mark.parametrize("bad, first", [({(True, 3), (False, 4)}, 3),
                                            ({(False, 2), (True, 3)}, 2)])
    def test_the_lowest_raising_chunk_wins(self, cpus, monkeypatch, tmp_path, bad, first):
        # (in the child, chunk): the child's chunk 3 and the caller's chunk 4,
        # then the caller's chunk 2 and the child's chunk 3: the serial run's
        # exception, whichever process raised first
        caller = os.getpid()

        def fail(c):
            if (os.getpid() != caller, c) in bad:
                raise ValueError(f"chunk {c}")

        cpus(2)
        self.lockstep_detection(monkeypatch, tmp_path, fail)
        with pytest.raises(ValueError, match=f"^chunk {first}$"):
            self.run()

    def test_a_child_that_dies_is_reported(self, cpus, monkeypatch, tmp_path):
        # the child dies on its first chunk, 1, while the caller runs chunk 0
        caller = os.getpid()

        def die(c):
            if os.getpid() != caller:
                (tmp_path / "stop").touch()
                os._exit(7)

        cpus(2)
        self.lockstep_detection(monkeypatch, tmp_path, die)
        with pytest.raises(ChildProcessError, match="exited with code 7 before sending item 1"):
            self.run()

    def test_a_stopped_point_kills_its_children(self, cpus, monkeypatch, tmp_path):
        # the caller's chunk 0 reaches the error count; the child, stalled on
        # chunk 1 for a minute, is killed and reaped at once
        caller = os.getpid()

        def stall(c):
            if os.getpid() != caller and c >= 1:
                time.sleep(60)

        forks = cpus(2)
        self.lockstep_detection(monkeypatch, tmp_path, stall)
        t0 = time.perf_counter()
        point = self.run(min_bit_errors=1).points[0]
        assert forks and time.perf_counter() - t0 < 30
        assert point["vectors"] == sim.P2P_CHUNK and point["errors"] > 0

    def test_a_result_that_does_not_pickle_arrives_as_its_repr(self, cpus, tmp_path):
        # the caller's item 0 waits until the child has claimed item 1
        caller, claimed = os.getpid(), tmp_path / "claimed"

        def item(i):
            if os.getpid() == caller:
                wait_for(claimed)
                return i
            claimed.touch()
            return lambda: i

        cpus(2)
        with pytest.raises(ChildProcessError, match=r"item 1 returned <function .*pickle"):
            list(fanout.imap(item, 2))

    def test_the_caller_runs_its_items_while_a_child_works(self, cpus, tmp_path):
        # the child's item 1 waits for what item 4 writes, and the caller's
        # item 0 until the child has claimed item 1: a caller that waited on
        # item 1 before claiming item 4 itself would time out
        flag, claimed = tmp_path / "item4", tmp_path / "claimed"

        def item(i):
            if i == 1:
                claimed.touch()
            if i == 0:
                wait_for(claimed)
            if i == 4:
                flag.touch()
            deadline = time.monotonic() + 20
            while i == 1 and not flag.exists() and time.monotonic() < deadline:
                time.sleep(0.001)
            return i, flag.exists()

        cpus(2)
        assert list(fanout.imap(item, 6))[1] == (1, True)

    def test_a_higher_item_that_fails_first_does_not_preempt_a_lower_one(self, cpus, tmp_path):
        # three processes: the caller's item 0 waits until the children have
        # claimed items 1 and 2; item 2 raises at once and item 1 a moment
        # later, so item 2's exception reaches the caller first
        raised = tmp_path / "raised"

        def item(i):
            if i == 0:
                wait_for(tmp_path / "claimed1")
                wait_for(tmp_path / "claimed2")
            elif i == 1:
                (tmp_path / "claimed1").touch()
                wait_for(raised)
                time.sleep(0.2)
                raise ValueError("item 1")
            elif i == 2:
                (tmp_path / "claimed2").touch()
                raised.touch()
                raise ValueError("item 2")
            return i

        cpus(3)
        with pytest.raises(ValueError, match="^item 1$"):
            list(fanout.imap(item, 4))
        assert raised.exists()

    def test_results_past_a_pipe_buffer(self, cpus):
        # 1 MiB results, 16 pipe buffers each, on three processes: the caller
        # reads whichever child's pipe is ready, so neither child stalls
        cpus(3)
        got = list(fanout.imap(lambda i: bytes([i]) * 2**20, 7))
        assert [(len(v), v[0], v[-1]) for v in got] == [(2**20, i, i) for i in range(7)]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)  # no child left, reaped or not

    def test_more_claims_than_a_pipe_holds(self, cpus):
        # 19,999 claims of 8 bytes, 160 kB, where a pipe holds 64 KiB: the
        # caller tops the pipe up as it waits
        cpus(2)
        assert list(fanout.imap(lambda i: i, 20_000)) == list(range(20_000))

    @pytest.mark.parametrize("die", [False, True])
    def test_pipes_past_fd_1023(self, cpus, tmp_path, die):
        # select.select rejects an fd above 1023 with a ValueError, which the
        # CLI would take for bad input; a child that exits first is reported
        if resource.getrlimit(resource.RLIMIT_NOFILE)[0] < 1200:
            pytest.skip("needs about 1,200 open files")
        caller, died = os.getpid(), tmp_path / "died"

        def item(i):
            if die and os.getpid() != caller:  # on its first claim, item 1
                died.touch()
                os._exit(7)
            if die:
                wait_for(died)
            return i * i

        fds = []
        try:
            while len(fds) < 1100:
                fds.append(os.open(os.devnull, os.O_RDONLY))
            assert fds[-1] > 1023
            cpus(2)
            if die:
                with pytest.raises(ChildProcessError, match="code 7 before sending item 1"):
                    list(fanout.imap(item, 5))
            else:
                assert list(fanout.imap(item, 5)) == [0, 1, 4, 9, 16]
        finally:
            for fd in fds:
                os.close(fd)

    def test_cli_failure_keeps_exit_code(self, cpus, monkeypatch, tmp_path, capsys):
        # a ValueError in the child's chunk, 1, is an input error: exit 2, no output
        caller = os.getpid()

        def fail(c):
            if os.getpid() != caller:
                raise ValueError(f"chunk {c}")

        cpus(2)
        self.lockstep_detection(monkeypatch, tmp_path, fail)
        base = tmp_path / "base.json"
        _base24().save(str(base))
        out = tmp_path / "ber.csv"
        rc = cli.main(["simulate", "--constellation", str(base), "--ebn0", "0",
                       "--seed", "0", "--min-errors", "1000000000",
                       "--max-vectors", "100000", "--out", str(out)])
        assert rc == 2
        assert "chunk 1" in capsys.readouterr().err
        assert not out.exists()
