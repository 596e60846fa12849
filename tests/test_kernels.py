import math
import pathlib
import tracemalloc

import numpy as np
import pytest

import oracles
from mdconst import kernels, scma
from mdconst import constellation as cn

FIXTURE_C24 = pathlib.Path(__file__).parents[1] / "mdbench" / "fixtures" / "c24_seed0.json"


def _ml_constellation(name):
    """The stored (2,4) design (M=4) or Cartesian QPSK^2 (M=16)."""
    if name == "c24":
        return cn.Constellation.load(str(FIXTURE_C24))
    return cn.cartesian_qpsk(2)


def _rand_p2p(rng, B=500, K=3, M=8):
    pts = rng.standard_normal((K, M)) + 1j * rng.standard_normal((K, M))
    y = rng.standard_normal((B, K)) + 1j * rng.standard_normal((B, K))
    h = rng.standard_normal((B, K)) + 1j * rng.standard_normal((B, K))
    return y, h, pts


def _rand_base24(rng):
    pts = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    return cn.normalize(cn.Constellation(points=pts))


def _rand_scma(rng, B=8):
    cbs = scma.build_codebooks(scma.default_indicator(), _rand_base24(rng))
    y = rng.standard_normal((B, 4)) + 1j * rng.standard_normal((B, 4))
    H = (rng.standard_normal((B, 4, 6)) + 1j * rng.standard_normal((B, 4, 6))) / np.sqrt(2)
    return cbs, y, H


def _sent_scma(rng, base, B, n0):
    """B vectors of the 4x6 SCMA uplink over Rayleigh fading; noise-free if n0 is None."""
    cbs = scma.build_codebooks(scma.default_indicator(), base)
    tx = rng.integers(0, cbs.M, size=(B, cbs.J))
    H = (rng.standard_normal((B, 4, 6)) + 1j * rng.standard_normal((B, 4, 6))) / np.sqrt(2)
    y = np.einsum("bnj,bjn->bn", H, cbs.codebooks[np.arange(cbs.J), :, tx])
    if n0 is not None:
        y = y + np.sqrt(n0 / 2) * (rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape))
    return cbs, y, H, tx


@pytest.fixture()
def lse_paths(monkeypatch):
    """Batch sizes handed to the probability-domain and the log-domain
    (per-edge) function-node paths."""
    seen = {"prob": [], "per_edge": []}
    for name, key in (("_sum_product", "prob"), ("_function_node", "per_edge")):
        fn = getattr(kernels, name)

        def spy(base, *rest, fn=fn, key=key):
            seen[key].append(base.shape[-1])
            return fn(base, *rest)

        monkeypatch.setattr(kernels, name, spy)
    return seen


def _assert_matches_loops(cbs, y, H, n0, iters):
    F = cbs.indicator
    args = (F.res_edges, F.res_deg, F.user_res)
    pa, ha = kernels.mpa_detect_batch(y, H, cbs.codebooks, *args, n0, iters)
    pb, hb = oracles.mpa_detect_loops(y, H, cbs.codebooks, *args, n0, iters)
    assert np.all(np.isfinite(pa))
    assert pa == pytest.approx(pb, abs=1e-10)
    assert np.array_equal(ha, hb)
    return ha


class TestLoopOracles:
    """The scalar loop kernels are the spec of the vectorized ones."""

    def test_ml_matches_loops(self):
        rng = np.random.default_rng(0)
        y, h, pts = _rand_p2p(rng, B=200)
        assert np.array_equal(
            kernels.ml_detect_batch(y, h, pts), oracles.ml_detect_loops(y, h, pts)
        )

    def test_mpa_posteriors_close_hard_equal(self):
        rng = np.random.default_rng(1)
        cbs, y, H = _rand_scma(rng)
        _assert_matches_loops(cbs, y, H, 0.5, 8)

    def test_mpa_m16(self, lse_paths):
        rng = np.random.default_rng(5)
        cbs, y, H, _ = _sent_scma(rng, cn.cartesian_qpsk(2), B=2, n0=0.025)
        _assert_matches_loops(cbs, y, H, 0.025, 3)
        assert lse_paths["prob"]

    @pytest.mark.parametrize("M", [4, 16])
    def test_mpa_noise_free(self, M, lse_paths):
        # the n0 the simulator passes when noise-free: whole slices of E
        # underflow, so every row leaves the probability path in its first
        # update, one per occupied resource, and stays on the log path
        rng = np.random.default_rng(6)
        base = cn.cartesian_qpsk(2) if M == 16 else _rand_base24(rng)
        B, iters = (2, 2) if M == 16 else (8, 6)
        cbs, y, H, tx = _sent_scma(rng, base, B=B, n0=None)
        hard = _assert_matches_loops(cbs, y, H, 1e-9, iters)
        assert np.array_equal(hard, tx)
        assert lse_paths["prob"] == [B] * 4
        assert lse_paths["per_edge"] == [B] * (4 * iters)

    def test_mpa_mixed_underflow_rows(self, lse_paths):
        rng = np.random.default_rng(7)
        cbs, y, H, _ = _sent_scma(rng, _rand_base24(rng), B=6, n0=0.05)
        y[2] *= 100.0
        _assert_matches_loops(cbs, y, H, 0.05, 6)
        mixed = [b for b in lse_paths["per_edge"] if 0 < b < 6]
        assert mixed and lse_paths["prob"]

    @pytest.mark.parametrize("ebn0_db", [15.0, 20.0, 25.0])
    @pytest.mark.parametrize("name", ["c24", "qpsk2"])
    def test_mpa_high_snr(self, name, ebn0_db, lse_paths):
        # whole slices of E = exp(dist - rowmax), or of its products with
        # the incoming messages, fall below the double range in some rows:
        # those rows must take the log-domain path, the others stay. At
        # qpsk2 and 15 dB no slice sum does: the widest slice sits ~701
        # below its row maximum, and its sum is still a normal double
        base = _ml_constellation(name)
        M = base.M
        n0 = 1.0 / (math.log2(M) * 10.0 ** (ebn0_db / 10.0))
        # the loop oracle takes ~3 ms per vector-iteration at M=4 and
        # ~160 ms at M=16; at 15 dB ~1% of M=4 rows need the fallback
        B, iters = ((150 if ebn0_db == 15.0 else 20), 3) if M == 4 else (3, 2)
        cbs, y, H, _ = _sent_scma(np.random.default_rng(20), base, B=B, n0=n0)
        _assert_matches_loops(cbs, y, H, n0, iters)
        assert lse_paths["prob"]
        assert bool(lse_paths["per_edge"]) == ((name, ebn0_db) != ("qpsk2", 15.0))

    def test_mpa_row_blocks(self, monkeypatch):
        # 4 resources of degree 3 at M=4 hold 256 cells per row: blocks of
        # 3, 3 and 2 rows
        monkeypatch.setattr(kernels, "_BLOCK_BYTES", 3 * 8 * 256)
        rng = np.random.default_rng(1)
        cbs, y, H = _rand_scma(rng)
        _assert_matches_loops(cbs, y, H, 0.5, 8)

    def test_mpa_resource_without_users(self):
        # column weights equal, so the indicator is valid; resource 1 is idle
        rng = np.random.default_rng(9)
        F = scma.IndicatorMatrix(rows=np.array([[1, 1, 1], [0, 0, 0], [1, 1, 1]]))
        cbs = scma.build_codebooks(F, _rand_base24(rng))
        y = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        H = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
        _assert_matches_loops(cbs, y, H, 0.5, 4)

    @pytest.mark.parametrize("n0", [0.5, 1e-3])
    def test_mpa_resource_degrees_0_to_4(self, n0, lse_paths):
        # resources of degree 4, 1, 2, 1 and 0; column weight 2
        rng = np.random.default_rng(15)
        F = scma.IndicatorMatrix(rows=np.array([
            [1, 1, 1, 1], [1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0],
        ]))
        cbs = scma.build_codebooks(F, _rand_base24(rng))
        H = (rng.standard_normal((12, 5, 4)) + 1j * rng.standard_normal((12, 5, 4))) / np.sqrt(2)
        tx = rng.integers(0, 4, size=(12, 4))
        y = np.einsum("bnj,bjn->bn", H, cbs.codebooks[np.arange(4), :, tx])
        y += np.sqrt(n0 / 2) * (rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape))
        _assert_matches_loops(cbs, y, H, n0, 4)
        assert lse_paths["prob"]
        if n0 < 0.5:
            assert lse_paths["per_edge"]


class TestMLDetect:
    """The expanded-norm product against the residual-form loop oracle."""

    @pytest.mark.parametrize("name", ["c24", "qpsk2"])
    def test_noise_free_exact_recovery(self, name):
        pts = _ml_constellation(name).points
        K, M = pts.shape
        rng = np.random.default_rng(10)
        for m in range(M):
            h = (rng.standard_normal((200, K)) + 1j * rng.standard_normal((200, K))) / math.sqrt(2)
            out = kernels.ml_detect_batch(h * pts[:, m], h, pts)
            assert np.all(out == m)

    @pytest.mark.parametrize("channel", ["rayleigh", "awgn"])
    @pytest.mark.parametrize("ebn0_db", [0.0, 20.0])
    @pytest.mark.parametrize("name", ["c24", "qpsk2"])
    def test_matches_loops(self, name, ebn0_db, channel):
        pts = _ml_constellation(name).points
        K, M = pts.shape
        B = 2000
        rng = np.random.default_rng(11)
        if channel == "rayleigh":
            h = (rng.standard_normal((B, K)) + 1j * rng.standard_normal((B, K))) / math.sqrt(2)
        else:
            h = np.ones((B, K), dtype=complex)
        n0 = 1.0 / (math.log2(M) * 10.0 ** (ebn0_db / 10.0))
        noise = rng.standard_normal((B, K)) + 1j * rng.standard_normal((B, K))
        y = h * pts[:, rng.integers(0, M, size=B)].T + math.sqrt(n0 / 2) * noise
        assert np.array_equal(
            kernels.ml_detect_batch(y, h, pts), oracles.ml_detect_loops(y, h, pts)
        )

    def test_row_blocks_match_whole_product_and_loops(self):
        # 3 full blocks and a partial one; integer and half-integer values,
        # with each point on an axis so that |x|^2 is exact, make every
        # distance exact, so equal distances tie exactly, both between
        # repeated points and between distinct ones
        K, M = 2, 64
        rows = kernels._ML_CELLS // (3 * K * M)
        B = 3 * rows + rows // 3
        rng = np.random.default_rng(15)
        pts = rng.integers(-3, 4, (K, M)) * rng.choice([1, 1j], (K, M))
        pts[:, 40], pts[:, 63] = pts[:, 3], pts[:, 0]
        h = rng.integers(-2, 3, (B, K)) + 1j * rng.integers(-2, 3, (B, K))
        y = h * pts[:, rng.integers(0, M, size=B)].T
        y[::2] = (rng.integers(-8, 9, (B, K)) + 1j * rng.integers(-8, 9, (B, K)))[::2] / 2
        g = y.conj() * h
        F = np.hstack([h.real**2 + h.imag**2, g.real, g.imag])
        W = np.vstack([np.abs(pts) ** 2, -2 * pts.real, 2 * pts.imag])
        d = F @ W
        got = kernels.ml_detect_batch(y, h, pts)
        assert np.array_equal(got, np.argmin(d, axis=1))
        assert np.array_equal(got, oracles.ml_detect_loops(y, h, pts))
        # repeated points and ties between distinct points both occur
        assert np.isin([3, 0], got).all() and not np.isin([40, 63], got).any()
        assert (np.sum(d == d.min(axis=1, keepdims=True), axis=1) > 1).sum() > B // 10

    def test_off_axis_lattice_ties_match_loops(self):
        # integer points off the axes, integer h and half-integer y make
        # every distance and |x|^2 exact, so ties are exact; |x|^2 taken as
        # abs(x)**2 rounds (2.0000000000000004 at 1+1j), which broke 69 of
        # these 4,000 ties differently from the loops
        K, M, B = 2, 16, 4000
        rng = np.random.default_rng(0)
        pts = rng.integers(-3, 4, (K, M)) + 1j * rng.integers(-3, 4, (K, M))
        h = rng.integers(-2, 3, (B, K)) + 1j * rng.integers(-2, 3, (B, K))
        y = (rng.integers(-8, 9, (B, K)) + 1j * rng.integers(-8, 9, (B, K))) / 2
        assert np.array_equal(
            kernels.ml_detect_batch(y, h, pts), oracles.ml_detect_loops(y, h, pts)
        )

    def test_peak_memory_has_no_residual_tensor(self):
        # a (B, K, M) complex residual alone is 10 MiB here, and the whole
        # (B, 3K) features and (B, M) metrics ~4 MiB; row blocks of at most
        # 2**17 metric cells hold ~1.3 MiB with the (B,) result
        rng = np.random.default_rng(12)
        B, K = 20_000, 2
        pts = cn.cartesian_qpsk(K).points
        y = rng.standard_normal((B, K)) + 1j * rng.standard_normal((B, K))
        h = rng.standard_normal((B, K)) + 1j * rng.standard_normal((B, K))
        tracemalloc.start()
        try:
            kernels.ml_detect_batch(y, h, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestFunctionNode:
    def test_slice_sum_underflow_reroutes_row(self):
        # row 0's lowest slice maximum sits ~600 below the row max, so its
        # slices of E stay normal doubles, but the incoming message -200 on
        # user 1 drives the whole slice of user 0 at symbol 1 to ~e^-800,
        # which is 0 in double: the row must move to the log-domain path
        rng = np.random.default_rng(8)
        dist = rng.standard_normal((4, 4, 4, 2))
        dist[1, :, :, 0] -= 2000.0
        dist[1, 0, 0, 0] += 1400.0
        node = kernels._FunctionNode(dist.copy(), lambda rows: dist[..., rows].copy())
        assert node.log.size == 0
        vf = np.zeros((3, 4, 2))
        vf[1, 0, 0] = -200.0

        def spread(v, p):  # (4, 2) message on axis p of the (4, 4, 4, 2) tensor
            return v.reshape(*(1,) * p, 4, *(1,) * (2 - p), 2)

        want = np.stack([
            np.logaddexp.reduce(
                np.moveaxis(dist + sum(spread(vf[q], q) for q in range(3) if q != p), p, 0)
                .reshape(4, -1, 2),
                axis=1,
            )
            for p in range(3)
        ])
        got = node.messages(vf)
        assert list(node.log) == [0] and list(node.prob) == [1]
        assert np.all(np.isfinite(got))
        assert got == pytest.approx(want, rel=1e-13, abs=1e-12)
        # the rerouted row stays on the log-domain path
        assert node.messages(vf) == pytest.approx(want, rel=1e-13, abs=1e-12)
        assert list(node.log) == [0]

    def test_empty_slice_reroutes_row_in_first_update(self):
        # row 0 has one symbol whose whole slice sits 800 below its row max:
        # that slice is all zeros in E, so its first slice sum is 0 and the
        # row moves to the log-domain path before any message is used
        rng = np.random.default_rng(8)
        dist = rng.standard_normal((4, 4, 4, 2))
        dist[1, :, :, 0] -= 800.0
        node = kernels._FunctionNode(dist.copy(), lambda rows: dist[..., rows].copy())
        assert node.log.size == 0
        want = np.stack([
            np.logaddexp.reduce(np.moveaxis(dist, p, 0).reshape(4, -1, 2), axis=1)
            for p in range(3)
        ])
        got = node.messages(np.zeros((3, 4, 2)))
        assert list(node.log) == [0] and list(node.prob) == [1]
        assert got == pytest.approx(want, rel=1e-13, abs=1e-12)

    @pytest.mark.parametrize("gap", [650.0, 750.0])
    def test_slice_far_below_row_max(self, gap):
        # row 0 has one symbol whose whole slice sits `gap` below the row max:
        # exp under the row max is 0 beyond ~745, so the log-domain update
        # shifts each edge by its own slice maxima
        rng = np.random.default_rng(8)
        base = rng.standard_normal((4, 4, 4, 2))
        base[1, :, :, 0] -= gap
        want = np.stack([
            np.logaddexp.reduce(np.moveaxis(base, p, 0).reshape(4, -1, 2), axis=1)
            for p in range(3)
        ])
        got = kernels._function_node(base.copy())
        assert np.all(np.isfinite(got))
        assert got == pytest.approx(want, rel=1e-13, abs=1e-12)


class TestMPAMemory:
    def test_m16_call_peak_and_probability_path(self, lse_paths):
        # the four (M^3, B) tensors alone are 25 MiB at B=200, and a kernel
        # holding them all plus per-iteration full-size temporaries peaks
        # near 51 MiB; row blocks keep the E tensors within 16 MiB
        rng = np.random.default_rng(14)
        n0 = 1.0 / (4 * 10.0)  # 10 dB at M=16
        cbs, y, H, _ = _sent_scma(rng, cn.cartesian_qpsk(2), B=200, n0=n0)
        F = cbs.indicator
        tracemalloc.start()
        try:
            kernels.mpa_detect_batch(
                y, H, cbs.codebooks, F.res_edges, F.res_deg, F.user_res, n0, 10
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20
        # every row of every resource update takes the probability path
        assert sum(lse_paths["prob"]) == 200 * 40 and not lse_paths["per_edge"]

    @pytest.mark.parametrize("J, base", [(16, "qpsk2"), (13, "c24")])
    def test_mpa_tensors_over_block_rejected(self, J, base):
        # every user on both resources: one row holds 2 * M**J cells, and
        # 16**16 wraps to 0 in int64; 2 * 4**13 cells are 1 GiB
        F = scma.IndicatorMatrix(rows=np.ones((2, J), dtype=np.int64))
        cbs = scma.build_codebooks(F, _ml_constellation(base))
        y = np.ones((1, 2), dtype=complex)
        H = np.ones((1, 2, J), dtype=complex)
        with pytest.raises(ValueError, match="bytes of tensors per received vector"):
            kernels.mpa_detect_batch(
                y, H, cbs.codebooks, F.res_edges, F.res_deg, F.user_res, 0.1, 1
            )


class TestDispatch:
    def test_public_wrappers_run(self):
        rng = np.random.default_rng(3)
        y, h, pts = _rand_p2p(rng, B=20)
        out = kernels.ml_detect_batch(y, h, pts)
        assert out.shape == (20,) and out.dtype == np.int64
