import numpy as np
import pytest

from mdconst import scma
from mdconst import constellation as cn
from mdconst.cccp import CCCPConfig, optimize


@pytest.fixture(scope="module")
def base24():
    return optimize(CCCPConfig(K=2, M=4, restarts=3, max_iters=40, seed=11)).best


@pytest.fixture(scope="module")
def cbs24(base24):
    return scma.build_codebooks(scma.default_indicator(), base24)


class TestIndicator:
    def test_default_shape_and_overloading(self):
        F = scma.default_indicator()
        assert (F.N, F.J) == (4, 6)
        assert F.column_weight == 2
        assert np.all(F.row_weights() == 3)
        assert scma.overloading_factor(F) == pytest.approx(1.5)

    def test_validation(self):
        with pytest.raises(ValueError, match="0/1"):
            scma.IndicatorMatrix(rows=np.array([[2, 0], [0, 1]]))
        with pytest.raises(ValueError, match="equal weight"):
            scma.IndicatorMatrix(rows=np.array([[1, 1], [1, 0]]))
        with pytest.raises(ValueError, match="at least one resource"):
            scma.IndicatorMatrix(rows=np.array([[1, 0], [1, 0]]))
        with pytest.raises(ValueError, match="2-D"):
            scma.IndicatorMatrix(rows=np.array([1, 0]))
        rows = [[1, 0], [0, 1]]
        for n, j in [(None, 2), (2, None), (3, 2)]:
            with pytest.raises(ValueError, match="N/J"):
                scma.IndicatorMatrix.from_json_dict({"N": n, "J": j, "rows": rows})

    def test_json_roundtrip(self, tmp_path):
        F = scma.default_indicator()
        p = tmp_path / "F.json"
        F.save(str(p))
        G = scma.IndicatorMatrix.load(str(p))
        assert np.array_equal(F.rows, G.rows)


class TestMapping:
    def test_diag_vvt_is_indicator_column(self):
        F = scma.default_indicator()
        for j in range(F.J):
            V = scma.mapping_from_indicator(F, j)
            assert np.array_equal(np.diag(V @ V.T), F.rows[:, j])
            # columns of V are orthonormal
            assert np.array_equal(V.T @ V, np.eye(F.column_weight, dtype=np.int64))

    def test_index_validation(self):
        F = scma.default_indicator()
        with pytest.raises(IndexError):
            scma.mapping_from_indicator(F, 6)
        with pytest.raises(IndexError):
            scma.mapping_from_indicator(F, -1)


class TestOperators:
    def test_default_phase_ranks(self):
        F = scma.default_indicator()
        M = 4
        ops = scma.default_operators(F, M)
        # colliding users on each resource get distinct phases
        # 2*pi*rank/(d_f*M) in user-index order
        for n in range(F.N):
            users = np.flatnonzero(F.rows[n])
            d_f = users.size
            got = []
            for j in users:
                k = int(np.flatnonzero(np.flatnonzero(F.rows[:, j]) == n)[0])
                got.append(ops.phases[j, k])
            expect = [2 * np.pi * r / (d_f * M) for r in range(d_f)]
            assert got == pytest.approx(expect)

    def test_operator_unit_modulus(self):
        ops = scma.default_operators(scma.default_indicator(), 4)
        U = ops.operator(2)
        assert np.allclose(np.abs(np.diag(U)), 1.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match=r"\(J, K\)"):
            scma.OperatorSet(phases=np.zeros(5))

    def test_null_phase_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            scma.OperatorSet.from_json_dict({"phases": [[0.0, None]]})


class TestCodebooks:
    def test_sparsity_matches_indicator(self, cbs24):
        F = cbs24.indicator
        occupied = np.any(np.abs(cbs24.codebooks) > 1e-12, axis=2)
        assert np.array_equal(occupied.T.astype(np.int64), F.rows)

    def test_per_user_power_unit(self, cbs24):
        assert scma.per_user_power(cbs24) == pytest.approx(
            np.ones(cbs24.J), abs=1e-9
        )

    def test_linearity_in_base(self, base24):
        F = scma.default_indicator()
        scaled = cn.Constellation(points=2.0 * base24.points)
        a = scma.build_codebooks(F, base24)
        b = scma.build_codebooks(F, scaled)
        assert np.allclose(b.codebooks, 2.0 * a.codebooks)

    def test_user_permutation_property(self, base24):
        # permuting indicator columns with matching operator rows permutes
        # the per-user codebooks
        F = scma.default_indicator()
        perm = np.array([3, 0, 5, 1, 4, 2])
        ops = scma.default_operators(F, base24.M)
        Fp = scma.IndicatorMatrix(rows=F.rows[:, perm])
        opsp = scma.OperatorSet(phases=ops.phases[perm])
        a = scma.build_codebooks(F, base24, ops)
        b = scma.build_codebooks(Fp, base24, opsp)
        assert np.allclose(b.codebooks, a.codebooks[perm])

    def test_base_dimension_validation(self):
        F = scma.default_indicator()
        with pytest.raises(ValueError, match="column weight"):
            scma.build_codebooks(F, cn.cartesian_qpsk(3))

    def test_save_load_roundtrip(self, cbs24, tmp_path):
        p = tmp_path / "cb.json"
        cbs24.save(str(p))
        back = scma.SCMACodebookSet.load(str(p))
        assert np.array_equal(back.codebooks, cbs24.codebooks)
        assert np.array_equal(back.indicator.rows, cbs24.indicator.rows)


class TestDetection:
    def _tiny_system(self):
        # two users sharing a single resource: MPA with one iteration is
        # exact because the factor graph has a single function node
        F = scma.IndicatorMatrix(rows=np.array([[1, 1]]))
        base = cn.Constellation(points=np.array([[1.0, 1.0j, -1.0, -1.0j]]))
        ops = scma.OperatorSet(phases=np.array([[0.0], [np.pi / 8]]))
        return scma.build_codebooks(F, base, ops)

    def test_mpa_matches_joint_ml_single_resource(self):
        cbs = self._tiny_system()
        rng = np.random.default_rng(5)
        for _ in range(20):
            y = rng.standard_normal(1) + 1j * rng.standard_normal(1)
            H = rng.standard_normal((1, 2)) + 1j * rng.standard_normal((1, 2))
            post, hard = scma.mpa_detect(y, H, cbs, n0=0.5, iters=1)
            exact = scma.joint_ml_marginals(y, H, cbs, n0=0.5)
            assert post == pytest.approx(exact, abs=1e-10)
            assert np.array_equal(hard, np.argmax(exact, axis=1))

    def test_mpa_4x6_close_to_joint_ml(self, cbs24):
        rng = np.random.default_rng(9)
        y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        H = (rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))) / np.sqrt(2)
        post, hard = scma.mpa_detect(y, H, cbs24, n0=1.0, iters=30)
        exact = scma.joint_ml_marginals(y, H, cbs24, n0=1.0)
        assert np.array_equal(hard, np.argmax(post, axis=1))
        # loopy but typically accurate; hard decisions should agree here
        assert np.array_equal(hard, np.argmax(exact, axis=1))

    def test_posteriors_normalized(self, cbs24):
        rng = np.random.default_rng(13)
        y = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        H = rng.standard_normal((3, 4, 6)) + 1j * rng.standard_normal((3, 4, 6))
        post, _ = scma.mpa_detect_batch(y, H, cbs24, n0=0.7, iters=5)
        assert post.sum(axis=2) == pytest.approx(np.ones((3, 6)), abs=1e-12)
        assert np.min(post) >= 0.0

    def test_validation(self, cbs24):
        y = np.zeros(4, dtype=complex)
        H = np.zeros((4, 6), dtype=complex)
        with pytest.raises(ValueError, match="iters"):
            scma.mpa_detect(y, H, cbs24, n0=1.0, iters=0)
        with pytest.raises(ValueError, match="n0"):
            scma.mpa_detect(y, H, cbs24, n0=0.0)
        for bad in (np.inf, np.nan, -1.0):
            with pytest.raises(ValueError, match="n0"):
                scma.mpa_detect_batch(y[None], H[None], cbs24, n0=bad)
        with pytest.raises(ValueError, match="iters"):
            scma.mpa_detect_batch(y[None], H[None], cbs24, n0=1.0, iters=0)
        with pytest.raises(ValueError, match="dimensions"):
            scma.mpa_detect_batch(np.zeros((1, 3), dtype=complex),
                                  np.zeros((1, 3, 6), dtype=complex),
                                  cbs24, n0=1.0)
