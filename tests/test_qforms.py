import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_constellation
from mdconst import constellation as cn
from mdconst import cccp, qforms

E12_K2_M4 = np.zeros((8, 8))
E12_K2_M4[:4, :4] = [
    [1, 0, -1, 0],
    [0, 1, 0, -1],
    [-1, 0, 1, 0],
    [0, -1, 0, 1],
]

B121_K2_M4 = np.zeros((8, 8))
B121_K2_M4[0, 0] = B121_K2_M4[2, 2] = 1
B121_K2_M4[0, 2] = B121_K2_M4[2, 0] = -1


def test_build_E_displayed_pattern():
    assert np.array_equal(qforms.build_E(0, 1, 2, 4).to_dense(), E12_K2_M4)


def test_build_B_displayed_pattern():
    assert np.array_equal(qforms.build_B(0, 1, 0, 2, 4).to_dense(), B121_K2_M4)


def test_index_validation():
    with pytest.raises(IndexError):
        qforms.build_E(1, 1, 2, 4)
    with pytest.raises(IndexError):
        qforms.build_B(0, 1, 2, 2, 4)
    with pytest.raises(ValueError):
        qforms.QuadFormIndex(kind="bogus", i=0, j=1, K=2, M=4)


@pytest.mark.parametrize("K,M", [(1, 2), (2, 4), (3, 4), (4, 6)])
def test_matrices_symmetric_psd(K, M):
    for i, j in cn.pair_indices(M):
        E = qforms.build_E(i, j, K, M).to_dense()
        assert np.array_equal(E, E.T)
        ev = np.linalg.eigvalsh(E)
        assert np.allclose(np.sort(np.unique(np.round(ev, 10))), [0, 2])
        for k in range(K):
            B = qforms.build_B(i, j, k, K, M).to_dense()
            assert np.array_equal(B, B.T)
            evb = np.linalg.eigvalsh(B)
            assert np.allclose(np.sort(np.unique(np.round(evb, 10))), [0, 2])


@pytest.mark.parametrize("K,M", [(2, 4), (3, 5)])
def test_elementwise_forms_sum_to_pair_form(K, M):
    for i, j in cn.pair_indices(M):
        E = qforms.build_E(i, j, K, M).to_dense()
        S = sum(qforms.build_B(i, j, k, K, M).to_dense() for k in range(K))
        assert np.array_equal(E, S)


def _blockdiag(A):
    n = A.shape[0]
    Z = np.zeros((2 * n, 2 * n))
    Z[:n, :n] = A
    Z[n:, n:] = A
    return Z


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([(2, 4), (3, 8), (4, 16)]),
    st.integers(0, 2**32 - 1),
)
def test_implicit_explicit_direct_agree(km, seed):
    K, M = km
    rng = np.random.default_rng(seed)
    C = random_constellation(rng, K, M)
    c = C.points.T.ravel()  # vec convention: column m occupies block m
    z = cccp.realify(c)
    for i, j in cn.pair_indices(M):
        idx = qforms.euclidean_pair(i, j, K, M)
        direct = float(np.sum(np.abs(C.points[:, i] - C.points[:, j]) ** 2))
        implicit = qforms.qf_value(idx, z)
        explicit = float(z @ _blockdiag(qforms.qf_matrix(idx).to_dense()) @ z)
        assert implicit == pytest.approx(direct, abs=1e-10)
        assert implicit == pytest.approx(explicit, abs=1e-10)
        for k in range(K):
            idxb = qforms.elementwise(i, j, k, K, M)
            directb = float(np.abs(C.points[k, i] - C.points[k, j]) ** 2)
            implicitb = qforms.qf_value(idxb, z)
            explicitb = float(z @ _blockdiag(qforms.qf_matrix(idxb).to_dense()) @ z)
            assert implicitb == pytest.approx(directb, abs=1e-10)
            assert implicitb == pytest.approx(explicitb, abs=1e-10)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_qf_value_nonnegative_and_gradient_matches(seed):
    rng = np.random.default_rng(seed)
    K, M = 2, 4
    z = rng.standard_normal(2 * K * M)
    for idx in (
        qforms.euclidean_pair(0, 2, K, M),
        qforms.elementwise(1, 3, 1, K, M),
    ):
        assert qforms.qf_value(idx, z) >= 0.0
        A = _blockdiag(qforms.qf_matrix(idx).to_dense())
        assert np.allclose(qforms.qf_gradient(idx, z), 2.0 * A @ z, atol=1e-12)
