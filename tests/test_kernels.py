import numpy as np
import pytest

from mdconst import kernels, scma
from mdconst import constellation as cn


def _rand_p2p(rng, B=500, K=3, M=8):
    pts = rng.standard_normal((K, M)) + 1j * rng.standard_normal((K, M))
    y = rng.standard_normal((B, K)) + 1j * rng.standard_normal((B, K))
    h = rng.standard_normal((B, K)) + 1j * rng.standard_normal((B, K))
    return y, h, pts


def _rand_scma(rng, B=8):
    F = scma.default_indicator()
    base = cn.Constellation(
        points=(rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4)))
    )
    cbs = scma.build_codebooks(F, cn.normalize(base))
    y = rng.standard_normal((B, 4)) + 1j * rng.standard_normal((B, 4))
    H = (rng.standard_normal((B, 4, 6)) + 1j * rng.standard_normal((B, 4, 6))) / np.sqrt(2)
    return cbs, y, H


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
        args = scma._graph_arrays(cbs.indicator)
        pa, ha = kernels.mpa_detect_batch(y, H, cbs.codebooks, *args, 0.5, 8)
        pb, hb = kernels._mpa_detect_loops(y, H, cbs.codebooks, *args, 0.5, 8)
        assert pa == pytest.approx(pb, abs=1e-10)
        assert np.array_equal(ha, hb)


class TestDispatch:
    def test_public_wrappers_run(self):
        rng = np.random.default_rng(3)
        y, h, pts = _rand_p2p(rng, B=20)
        out = kernels.ml_detect_batch(y, h, pts)
        assert out.shape == (20,) and out.dtype == np.int64
