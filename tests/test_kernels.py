import math
import pathlib
import tracemalloc

import numpy as np
import pytest

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
    """Batch sizes handed to the shared and the per-edge function-node paths."""
    seen = {"shared": [], "per_edge": []}
    for name, key in (("_shared_lse", "shared"), ("_per_edge_lse", "per_edge")):
        fn = getattr(kernels, name)

        def spy(base, *rest, fn=fn, key=key):
            seen[key].append(base.shape[-1])
            return fn(base, *rest)

        monkeypatch.setattr(kernels, name, spy)
    return seen


def _assert_matches_loops(cbs, y, H, n0, iters):
    F = cbs.indicator
    args = (F.res_users, F.res_deg, F.user_res)
    pa, ha = kernels.mpa_detect_batch(y, H, cbs.codebooks, *args, n0, iters)
    pb, hb = kernels._mpa_detect_loops(y, H, cbs.codebooks, *args, n0, iters)
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
            kernels.ml_detect_batch(y, h, pts), kernels._ml_detect_loops(y, h, pts)
        )

    def test_mpa_posteriors_close_hard_equal(self):
        rng = np.random.default_rng(1)
        cbs, y, H = _rand_scma(rng)
        _assert_matches_loops(cbs, y, H, 0.5, 8)

    def test_mpa_m16(self, lse_paths):
        rng = np.random.default_rng(5)
        cbs, y, H, _ = _sent_scma(rng, cn.cartesian_qpsk(2), B=2, n0=0.025)
        _assert_matches_loops(cbs, y, H, 0.025, 3)
        assert lse_paths["shared"]

    @pytest.mark.parametrize("M", [4, 16])
    def test_mpa_noise_free(self, M, lse_paths):
        # the n0 the simulator passes when noise-free: whole slices underflow
        rng = np.random.default_rng(6)
        base = cn.cartesian_qpsk(2) if M == 16 else _rand_base24(rng)
        B, iters = (2, 2) if M == 16 else (8, 6)
        cbs, y, H, tx = _sent_scma(rng, base, B=B, n0=None)
        hard = _assert_matches_loops(cbs, y, H, 1e-9, iters)
        assert np.array_equal(hard, tx)
        assert lse_paths["per_edge"] and not lse_paths["shared"]

    def test_mpa_mixed_underflow_rows(self, lse_paths):
        rng = np.random.default_rng(7)
        cbs, y, H, _ = _sent_scma(rng, _rand_base24(rng), B=6, n0=0.05)
        y[2] *= 100.0
        _assert_matches_loops(cbs, y, H, 0.05, 6)
        mixed = [b for b in lse_paths["per_edge"] if 0 < b < 6]
        assert mixed and lse_paths["shared"]

    def test_mpa_resource_without_users(self):
        # column weights equal, so the indicator is valid; resource 1 is idle
        rng = np.random.default_rng(9)
        F = scma.IndicatorMatrix(rows=np.array([[1, 1, 1], [0, 0, 0], [1, 1, 1]]))
        cbs = scma.build_codebooks(F, _rand_base24(rng))
        y = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        H = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
        _assert_matches_loops(cbs, y, H, 0.5, 4)


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
            kernels.ml_detect_batch(y, h, pts), kernels._ml_detect_loops(y, h, pts)
        )

    def test_peak_memory_has_no_residual_tensor(self):
        # a (B, K, M) complex residual alone is 10 MiB here; the product
        # needs the (B, 3K) features and the (B, M) metrics, ~4 MiB
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
        assert peak < 8 * 2**20


class TestFunctionNode:
    @pytest.mark.parametrize("gap", [650.0, 750.0])
    def test_slice_far_below_row_max(self, gap):
        # row 0 has one symbol whose whole slice sits `gap` below the row max:
        # exp under the shared max is 0 beyond ~745, so that row must take
        # the per-edge path; row 1 stays on the shared path
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


class TestDispatch:
    def test_public_wrappers_run(self):
        rng = np.random.default_rng(3)
        y, h, pts = _rand_p2p(rng, B=20)
        out = kernels.ml_detect_batch(y, h, pts)
        assert out.shape == (20,) and out.dtype == np.int64
