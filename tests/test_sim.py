import math
import pathlib

import numpy as np
import pytest

import oracles
from mdconst import cccp, cli, kernels, scma, sim
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
        cn.write_text_atomic(str(path), curve.to_csv())
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


def test_a_vector_cap_no_point_reaches_costs_nothing(cpus, tmp_path):
    # a 0 dB Rayleigh point stops at chunk 0 whatever its cap; a cap of
    # 5 million chunks must not cost their claims up front
    cpus(2)
    const = tmp_path / "qpsk2.json"
    cn.cartesian_qpsk(2).save(str(const))
    csv = {}
    for cap in ("1000000", "100000000000"):
        out = tmp_path / f"ber{cap}.csv"
        assert cli.main(["simulate", "--constellation", str(const), "--ebn0", "0",
                         "--channel", "rayleigh_iid", "--seed", "0",
                         "--max-vectors", cap, "--out", str(out)]) == 0
        csv[cap] = out.read_text()
    assert csv["100000000000"] == csv["1000000"]
    assert csv["1000000"].split("\n")[1].split(",")[4] == str(sim.P2P_CHUNK)
