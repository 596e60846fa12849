import math
import os
import pathlib
import subprocess
import sys
import threading

import numpy as np
import pytest

from mdconst import cli, kernels, scma, sim
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

    def test_rayleigh_fading_statistics(self, qpsk2):
        # per-dimension fading must be independent: correlation of |h_k|^2
        # across dimensions should vanish; mean power 1 per coefficient
        rng = sim._point_rng(0, 0)
        n = 100_000
        h = (rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))) / np.sqrt(2)
        g = np.abs(h) ** 2
        assert g.mean() == pytest.approx(1.0, abs=0.02)
        corr = np.corrcoef(g[:, 0], g[:, 1])[0, 1]
        assert abs(corr) < 0.01


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


#: CSV rows of drawing and detecting one chunk after the other, recorded
#: before the draws moved to a worker thread. The sweeps stop points on
#: their error count after one chunk, with the next one drawn, and run
#: partial last chunks; the M=4 SCMA sweep runs three chunks at 10 dB. The
#: M=16 SCMA rows, one partial chunk per point, were recorded later from
#: the pipelined simulator, itself byte-identical to the serial order.
GOLDEN = {
    ("p2p-awgn-m4", 0): ("0,3168,40000,7.9200000000e-02,20000,0",
                         "6,224,90000,2.4888888889e-03,45000,0",
                         "12,0,90000,0.0000000000e+00,45000,0"),
    ("p2p-awgn-m4", 1000): ("0,3186,40000,7.9650000000e-02,20000,1000",
                            "6,218,90000,2.4222222222e-03,45000,1000",
                            "12,0,90000,0.0000000000e+00,45000,1000"),
    ("p2p-rayleigh-m4", 0): ("0,4668,40000,1.1670000000e-01,20000,0",
                             "6,932,40000,2.3300000000e-02,20000,0",
                             "12,241,90000,2.6777777778e-03,45000,0"),
    ("p2p-rayleigh-m4", 1000): ("0,4617,40000,1.1542500000e-01,20000,1000",
                                "6,943,40000,2.3575000000e-02,20000,1000",
                                "12,191,90000,2.1222222222e-03,45000,1000"),
    ("p2p-awgn-m16", 0): ("0,6235,80000,7.7937500000e-02,20000,0",
                          "6,440,180000,2.4444444444e-03,45000,0",
                          "12,0,180000,0.0000000000e+00,45000,0"),
    ("p2p-awgn-m16", 1000): ("0,6248,80000,7.8100000000e-02,20000,1000",
                             "6,408,180000,2.2666666667e-03,45000,1000",
                             "12,0,180000,0.0000000000e+00,45000,1000"),
    ("p2p-rayleigh-m16", 0): ("0,11848,80000,1.4810000000e-01,20000,0",
                              "6,4179,80000,5.2237500000e-02,20000,0",
                              "12,1234,80000,1.5425000000e-02,20000,0"),
    ("p2p-rayleigh-m16", 1000): ("0,11729,80000,1.4661250000e-01,20000,1000",
                                 "6,4179,80000,5.2237500000e-02,20000,1000",
                                 "12,1165,80000,1.4562500000e-02,20000,1000"),
    ("p2p-rayleigh-m16-noise-free", 0): ("0,0,100000,0.0000000000e+00,25000,0",),
    ("p2p-rayleigh-m16-noise-free", 1000): ("0,0,100000,0.0000000000e+00,25000,1000",),
    ("scma-m4", 0): ("4,2500,24000,1.0416666667e-01,2000,0",
                     "10,592,49200,1.2032520325e-02,4100,0"),
    ("scma-m4", 1000): ("4,2440,24000,1.0166666667e-01,2000,1000",
                        "10,608,49200,1.2357723577e-02,4100,1000"),
    ("scma-m16", 0): ("4,1654,7200,2.2972222222e-01,300,0",
                      "10,975,7200,1.3541666667e-01,300,0"),
    ("scma-m16", 1000): ("4,1711,7200,2.3763888889e-01,300,1000",
                         "10,899,7200,1.2486111111e-01,300,1000"),
}


@pytest.mark.parametrize("case, seed", GOLDEN, ids=[f"{c}-seed{s}" for c, s in GOLDEN])
def test_csv_bytes_of_the_serial_draw_order(case, seed):
    # any change to the draws, their order or the detectors' inputs moves
    # some of these counts
    want = "ebn0_db,errors,bits,ber,vectors,seed\n" + "".join(
        row + "\n" for row in GOLDEN[case, seed])
    assert _golden_run(case, seed).to_csv() == want


class TestDrawAhead:
    """The draw worker lives for one call and takes no failure with it."""

    @pytest.fixture()
    def threads(self):
        before = threading.active_count()
        yield
        assert threading.active_count() == before

    def test_detection_error_reaches_caller(self, monkeypatch, threads):
        calls = []
        ml = kernels.ml_detect_batch

        def failing(*args):
            calls.append(threading.current_thread())
            if len(calls) == 3:
                raise FloatingPointError("third chunk")
            return ml(*args)

        monkeypatch.setattr(kernels, "ml_detect_batch", failing)
        with pytest.raises(FloatingPointError, match="third chunk"):
            sim.simulate_p2p(_base24(), "rayleigh_iid", sim.SNRSpec((0.0,)), seed=0,
                             min_bit_errors=10**9, max_vectors=100_000)
        assert calls == [threading.main_thread()] * 3

    def test_draw_error_reaches_caller(self, monkeypatch, threads):
        class FailingRNG:
            """Draws as the point's generator does until its 6th normal fill."""

            def __init__(self, rng):
                self.rng, self.fills = rng, 0

            def integers(self, *args, **kwargs):
                return self.rng.integers(*args, **kwargs)

            def standard_normal(self, out):
                self.fills += 1
                if self.fills == 6:
                    raise MemoryError("sixth fill")
                return self.rng.standard_normal(out=out)

        point_rng = sim._point_rng
        monkeypatch.setattr(sim, "_point_rng", lambda seed, i: FailingRNG(point_rng(seed, i)))
        with pytest.raises(MemoryError, match="sixth fill"):
            sim.simulate_p2p(_base24(), "rayleigh_iid", sim.SNRSpec((0.0,)), seed=0,
                             min_bit_errors=10**9, max_vectors=100_000)

    def test_import_starts_no_thread(self):
        env = dict(os.environ)
        src = str(pathlib.Path(__file__).parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = "import threading, mdconst.sim; print(threading.active_count())"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "1"

    def test_cli_failure_keeps_exit_code(self, monkeypatch, tmp_path, capsys, threads):
        # the second chunk's detection fails while the third is drawn
        calls = []
        ml = kernels.ml_detect_batch

        def failing(*args):
            calls.append(1)
            if len(calls) == 2:
                raise ValueError("second chunk")
            return ml(*args)

        base = tmp_path / "base.json"
        _base24().save(str(base))
        out = tmp_path / "ber.csv"
        monkeypatch.setattr(kernels, "ml_detect_batch", failing)
        rc = cli.main(["simulate", "--constellation", str(base), "--ebn0", "0",
                       "--seed", "0", "--min-errors", "1000000000",
                       "--max-vectors", "100000", "--out", str(out)])
        assert rc == 2
        assert "second chunk" in capsys.readouterr().err
        assert not out.exists()
