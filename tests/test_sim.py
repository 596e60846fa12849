import math

import numpy as np
import pytest

from mdconst import kernels, scma, sim
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
