import pathlib

import numpy as np
import pytest

from mdconst import scma
from mdconst import constellation as cn
from mdconst.cccp import CCCPConfig, optimize

FIXTURE_C24 = pathlib.Path(__file__).parents[1] / "mdbench" / "fixtures" / "c24_seed0.json"


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
        assert np.all(F.res_deg == 3)
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
        # a null, an object or a fraction in the rows is an error, not a
        # TypeError and not silently truncated to an integer
        for bad, msg in [(None, "0/1"), ({}, "numbers"), (0.5, "0/1")]:
            with pytest.raises(ValueError, match=msg):
                scma.IndicatorMatrix.from_json_dict(
                    {"N": 2, "J": 2, "rows": [[bad, 1], [1, 0]]})

    @pytest.mark.parametrize("bad", ["1", True])
    def test_string_or_bool_row_rejected(self, bad):
        # numpy would read both as 1 and load the identity
        with pytest.raises(ValueError, match="indicator rows must hold numbers"):
            scma.IndicatorMatrix.from_json_dict(
                {"N": 2, "J": 2, "rows": [[bad, 0], [0, 1]]})

    def test_no_users_rejected(self):
        # a (2, 0) indicator passed the 0/1 check and failed at w[0]
        with pytest.raises(ValueError, match="at least one user"):
            scma.IndicatorMatrix(rows=np.zeros((2, 0)))

    def test_json_roundtrip(self, tmp_path):
        F = scma.default_indicator()
        p = tmp_path / "F.json"
        F.save(str(p))
        G = scma.IndicatorMatrix.load(str(p))
        assert np.array_equal(F.rows, G.rows)


def _graph_by_loops(rows):
    """user_res, res_edges (padded with -1) and res_deg, read off the rows.

    Edge j * K + k joins user j to its k-th resource."""
    N, J = rows.shape
    user_res = [[n for n in range(N) if rows[n, j]] for j in range(J)]
    K = len(user_res[0])
    res_edges = [[j * K + k for j in range(J) for k in range(K) if user_res[j][k] == n]
                 for n in range(N)]
    dmax = max(len(e) for e in res_edges)
    padded = [e + [-1] * (dmax - len(e)) for e in res_edges]
    return user_res, padded, [len(e) for e in res_edges]


GRAPH_INDICATORS = {
    "default": np.array(scma.DEFAULT_INDICATOR_ROWS),
    "permuted": np.array(scma.DEFAULT_INDICATOR_ROWS)[:, [3, 0, 5, 1, 4, 2]],
    # resource 1 is idle and the others carry 3, 2 and 3 users
    "idle-resource": np.array([[1, 1, 1, 0], [0, 0, 0, 0], [1, 0, 0, 1], [0, 1, 1, 1]]),
}


class TestFactorGraph:
    @pytest.mark.parametrize("name", list(GRAPH_INDICATORS))
    def test_arrays_match_loops(self, name):
        rows = GRAPH_INDICATORS[name]
        F = scma.IndicatorMatrix(rows=rows)
        user_res, res_edges, res_deg = _graph_by_loops(rows)
        assert F.user_res.tolist() == user_res
        assert F.res_edges.tolist() == res_edges
        assert F.res_deg.tolist() == res_deg
        assert F.column_weight == len(user_res[0])

    @pytest.mark.parametrize("name", list(GRAPH_INDICATORS))
    def test_arrays_read_only(self, name):
        F = scma.IndicatorMatrix(rows=GRAPH_INDICATORS[name])
        for arr in (F.rows, F.user_res, F.res_edges, F.res_deg):
            assert arr.dtype == np.int64
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0


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

    def test_shape_validation(self):
        with pytest.raises(ValueError, match=r"\(J, K\)"):
            scma.OperatorSet(phases=np.zeros(5))

    def test_null_phase_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            scma.OperatorSet.from_json_dict({"phases": [[0.0, None]]})
        with pytest.raises(ValueError, match="numbers"):
            scma.OperatorSet.from_json_dict({"phases": [[0.0, {}]]})

    @pytest.mark.parametrize("bad", ["0.5", True])
    def test_string_or_bool_phase_rejected(self, bad):
        with pytest.raises(ValueError, match="phases must hold numbers"):
            scma.OperatorSet.from_json_dict({"phases": [[0.0, bad]]})


class TestCodebooks:
    def test_sparsity_matches_indicator(self, cbs24):
        F = cbs24.indicator
        occupied = np.any(np.abs(cbs24.codebooks) > 1e-12, axis=2)
        assert np.array_equal(occupied.T.astype(np.int64), F.rows)

    def test_json_sparsity_from_indicator(self):
        # a zero base dimension leaves an occupied resource at 0 in every
        # codeword; the JSON still lists it, as the indicator does
        F = scma.default_indicator()
        base = cn.Constellation(points=np.array([[1, 1j, -1, -1j], [0, 0, 0, 0]]))
        records = scma.build_codebooks(F, base).to_json_dict()["codebooks"]
        assert records[0]["sparsity"] == [1, 3]
        for j, rec in enumerate(records):
            assert rec["sparsity"] == np.flatnonzero(F.rows[:, j]).tolist()

    def test_per_user_power_unit(self, cbs24):
        power = np.sum(np.abs(cbs24.codebooks) ** 2, axis=(1, 2)) / cbs24.M
        assert power == pytest.approx(np.ones(cbs24.J), abs=1e-9)

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
            post, hard = scma.mpa_detect_batch(y[None], H[None], cbs, n0=0.5, iters=1)
            post, hard = post[0], hard[0]
            exact = scma.joint_ml_marginals(y, H, cbs, n0=0.5)
            assert post == pytest.approx(exact, abs=1e-10)
            assert np.array_equal(hard, np.argmax(exact, axis=1))

    def test_mpa_4x6_close_to_joint_ml(self, cbs24):
        rng = np.random.default_rng(9)
        y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        H = (rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))) / np.sqrt(2)
        post, hard = scma.mpa_detect_batch(y[None], H[None], cbs24, n0=1.0, iters=30)
        post, hard = post[0], hard[0]
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
            scma.mpa_detect_batch(y[None], H[None], cbs24, n0=1.0, iters=0)
        with pytest.raises(ValueError, match="n0"):
            scma.mpa_detect_batch(y[None], H[None], cbs24, n0=0.0)
        for bad in (np.inf, np.nan, -1.0):
            with pytest.raises(ValueError, match="n0"):
                scma.mpa_detect_batch(y[None], H[None], cbs24, n0=bad)
        with pytest.raises(ValueError, match="iters"):
            scma.mpa_detect_batch(y[None], H[None], cbs24, n0=1.0, iters=0)
        with pytest.raises(ValueError, match="dimensions"):
            scma.mpa_detect_batch(np.zeros((1, 3), dtype=complex),
                                  np.zeros((1, 3, 6), dtype=complex),
                                  cbs24, n0=1.0)

    @pytest.mark.parametrize("y_shape,H_shape", [
        ((4,), (1, 4, 6)),      # 1-D y
        ((1, 4), (4, 6)),       # 2-D H
        ((5, 4), (3, 4, 6)),    # batch sizes differ
    ])
    def test_shape_errors_name_the_shapes(self, cbs24, y_shape, H_shape):
        y = np.zeros(y_shape, dtype=complex)
        H = np.zeros(H_shape, dtype=complex)
        match = rf"y \({y_shape[0]},.*H \({H_shape[0]},"
        with pytest.raises(ValueError, match=match):
            scma.mpa_detect_batch(y, H, cbs24, n0=1.0)


@pytest.mark.parametrize("cls", [
    cn.Constellation, scma.IndicatorMatrix, scma.OperatorSet, scma.SCMACodebookSet,
], ids=lambda c: c.__name__)
def test_load_save_keeps_bytes(cls, tmp_path):
    # every file type goes through one codec: load, then save, gives back
    # the original bytes (key order, float repr, "sparsity" before "meta")
    base = cn.Constellation.load(str(FIXTURE_C24))
    F = scma.IndicatorMatrix(rows=np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1]]))
    ops = scma.OperatorSet(phases=np.linspace(-np.pi, 0.3, 6).reshape(3, 2))
    objects = {
        cn.Constellation: base,
        scma.IndicatorMatrix: F,
        scma.OperatorSet: ops,
        scma.SCMACodebookSet: scma.build_codebooks(F, base, ops),
    }
    orig, again = tmp_path / "orig.json", tmp_path / "again.json"
    if cls is cn.Constellation:
        orig.write_bytes(FIXTURE_C24.read_bytes())
    else:
        objects[cls].save(str(orig))
    loaded = cls.load(str(orig))
    assert type(loaded) is cls
    loaded.save(str(again))
    assert again.read_bytes() == orig.read_bytes()
