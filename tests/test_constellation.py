import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_constellation
from mdconst import constellation as cn


def dims():
    return st.tuples(st.integers(1, 4), st.integers(2, 8))


def constellations():
    return st.tuples(dims(), st.integers(0, 2**32 - 1)).map(
        lambda t: random_constellation(np.random.default_rng(t[1]), *t[0])
    )


class TestValidation:
    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            cn.Constellation(points=np.ones(4, dtype=complex))

    def test_rejects_single_vector(self):
        with pytest.raises(ValueError):
            cn.Constellation(points=np.ones((2, 1), dtype=complex))

    def test_rejects_nan(self):
        pts = np.ones((2, 3), dtype=complex)
        pts[0, 0] = complex(np.nan, 0)
        with pytest.raises(ValueError):
            cn.Constellation(points=pts)

    def test_points_immutable(self):
        C = random_constellation(np.random.default_rng(0), 2, 4)
        with pytest.raises(ValueError):
            C.points[0, 0] = 0


class TestMetrics:
    def test_qpsk_known_values(self):
        # unit-power QPSK: neighbors at sqrt(2), diagonals at 2
        C = cn.cartesian_qpsk(1)
        assert cn.med(C) == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert cn.mpd(C) == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert cn.distance_profile(C).kissing_med == 4
        assert cn.average_power(C) == pytest.approx(1.0, abs=1e-12)

    def test_cartesian_qpsk_k2_known_values(self):
        # product of two QPSKs at unit vector power: per-dimension min gap 1
        C = cn.cartesian_qpsk(2)
        assert C.M == 16
        assert cn.med(C) == pytest.approx(1.0, abs=1e-12)
        assert cn.mpd(C) == pytest.approx(1.0, abs=1e-12)
        assert cn.min_elementwise(C) == 0.0  # pairs equal in one dimension

    def test_product_distance_identical_pair_is_inf(self):
        pts = np.array([[1 + 1j, 1 + 1j, 2.0], [1j, 1j, 3.0]])
        C = cn.Constellation(points=pts)
        assert math.isinf(cn._product(cn.pair_gaps(C))[0])
        # the identical pair is excluded from the minimum
        assert math.isfinite(cn.mpd(C))

    def test_mpd_degenerate_raises(self):
        pts = np.ones((2, 3), dtype=complex)
        C = cn.Constellation(points=pts)
        with pytest.raises(ValueError, match="degenerate"):
            cn.mpd(C)

    def test_partial_dimension_product(self):
        # vectors equal in dim 0, gap 2 in dim 1: product over admissible dims
        pts = np.array([[1.0, 1.0], [1.0, 3.0]], dtype=complex)
        C = cn.Constellation(points=pts)
        assert cn._product(cn.pair_gaps(C))[0] == pytest.approx(2.0)

    def test_pair_indices_order(self):
        assert cn.pair_indices(4) == [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
        ]


def _kissing_bruteforce(d):
    dmin = min(d)
    return sum(1 for x in d if x <= dmin * (1.0 + cn.KISSING_REL_TOL))


def assert_profile_matches_bruteforce(C):
    prof = cn.distance_profile(C)
    g = cn.pair_gaps(C)
    pairwise_euclidean, pairwise_product = cn._euclidean(g), cn._product(g)
    amgm = cn.amgm_check(C)
    K, M = C.K, C.M
    pe, pp, gap_min, n = [], [], math.inf, 0
    for i in range(M):
        for j in range(i + 1, M):
            gaps = [abs(C.points[k, i] - C.points[k, j]) for k in range(K)]
            gap_min = min(gap_min, *gaps)
            pe.append(math.sqrt(sum(g**2 for g in gaps)))
            prod, any_dim = 1.0, False
            for gap in gaps:
                if gap > cn.ZERO_TOL:
                    prod *= gap
                    any_dim = True
            pp.append(prod if any_dim else math.inf)
            lhs = math.prod(g**2 for g in gaps)
            rhs = (sum(g**2 for g in gaps) / K) ** K
            gmax = max(gaps)
            spread = 0.0 if gmax == 0.0 else (gmax - min(gaps)) / gmax
            chk = amgm[n]
            assert chk["pair"] == (i, j)
            assert chk["lhs"] == pytest.approx(lhs, rel=1e-12, abs=0)
            assert chk["rhs"] == pytest.approx(rhs, rel=1e-12, abs=0)
            assert chk["equality"] == (spread <= cn.AMGM_EQ_TOL)
            n += 1
    assert len(amgm) == n
    assert np.allclose(pairwise_euclidean, pe, rtol=1e-12, atol=0)
    assert np.array_equal(np.isinf(pairwise_product), np.isinf(pp))
    assert prof.med == pytest.approx(min(pe), rel=1e-12)
    assert prof.kissing_med == _kissing_bruteforce(pe)
    assert prof.min_elementwise == pytest.approx(gap_min, rel=1e-12, abs=0)
    finite = [p for p in pp if math.isfinite(p)]
    assert np.allclose(pairwise_product[np.isfinite(pp)], finite, rtol=1e-12, atol=0)
    assert prof.mpd == pytest.approx(min(finite), rel=1e-12)
    assert prof.kissing_mpd == _kissing_bruteforce(finite)


class TestProfileBruteForce:
    @settings(max_examples=20, deadline=None)
    @given(constellations())
    def test_profile_matches_bruteforce(self, C):
        assert_profile_matches_bruteforce(C)

    @pytest.mark.parametrize(
        "pts",
        [
            cn.cartesian_qpsk(1).points,  # ties: kissing numbers above 1
            cn.cartesian_qpsk(2).points,  # pairs equal in one dimension
            np.array([[1 + 1j, 1 + 1j, 2.0, 0.0], [1j, 1j, 3.0, 1.0]]),  # identical pair
            np.array([[0.0, 1.0, -1.0], [0.0, 1.0, 1.0]], dtype=complex),  # AM-GM equality
        ],
    )
    def test_structured_profiles_match_bruteforce(self, pts):
        assert_profile_matches_bruteforce(cn.Constellation(points=pts))


class TestInvariances:
    @settings(max_examples=25, deadline=None)
    @given(constellations(), st.integers(0, 2**32 - 1))
    def test_phase_rotation_invariance(self, C, seed):
        rng = np.random.default_rng(seed)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, C.K))
        C2 = cn.Constellation(points=phases[:, None] * C.points)
        assert cn.med(C2) == pytest.approx(cn.med(C), rel=1e-12)
        assert cn.mpd(C2) == pytest.approx(cn.mpd(C), rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(constellations(), st.integers(0, 2**32 - 1))
    def test_permutation_invariance(self, C, seed):
        rng = np.random.default_rng(seed)
        dperm = rng.permutation(C.K)
        vperm = rng.permutation(C.M)
        C2 = cn.Constellation(points=C.points[np.ix_(dperm, vperm)])
        assert cn.med(C2) == pytest.approx(cn.med(C), rel=1e-12)
        assert cn.mpd(C2) == pytest.approx(cn.mpd(C), rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(constellations())
    def test_normalize_idempotent(self, C):
        C1 = cn.normalize(C)
        C2 = cn.normalize(C1)
        assert cn.average_power(C1) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(C2.points - C1.points)) < 1e-12


class TestBounds:
    @settings(max_examples=25, deadline=None)
    @given(constellations())
    def test_amgm_upper_bound(self, C):
        for chk in cn.amgm_check(C):
            assert chk["slack"] >= -1e-9 * max(1.0, chk["rhs"])

    def test_amgm_equality_flag(self):
        # equal per-dimension gaps: the bound is tight
        pts = np.array([[0.0, 1.0], [0.0, 1.0]], dtype=complex)
        C = cn.Constellation(points=pts)
        chk = cn.amgm_check(C)[0]
        assert chk["equality"]
        assert chk["lhs"] == pytest.approx(chk["rhs"], rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(constellations())
    def test_mpd_delta_power_k_bound(self, C):
        delta = cn.min_elementwise(C)
        if delta > cn.ZERO_TOL:
            assert cn.mpd(C) >= delta**C.K * (1.0 - 1e-9)


class TestSerialization:
    def test_roundtrip_exact(self, tmp_path):
        C = random_constellation(np.random.default_rng(3), 3, 5)
        p = str(tmp_path / "c.json")
        C.save(p)
        C2 = cn.Constellation.load(p)
        assert np.array_equal(C.points, C2.points)

    def test_roundtrip_keeps_signed_zero(self):
        pts = np.array([[complex(-0.0, 1.0), complex(1.0, -0.0)]])
        C = cn.Constellation.from_json_dict(cn.Constellation(points=pts).to_json_dict())
        assert np.signbit(C.points.real).tolist() == [[True, False]]
        assert np.signbit(C.points.imag).tolist() == [[False, True]]

    def test_atomic_write_no_partial_file(self, tmp_path):
        target = tmp_path / "out.json"
        cn.write_json_atomic(str(target), {"x": 1.0 / 3.0})
        with open(target) as fh:
            d = json.load(fh)
        assert d["x"] == 1.0 / 3.0
        assert list(tmp_path.iterdir()) == [target]

    def test_atomic_text_write_removes_temp_on_error(self, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()  # the rename onto a directory fails
        with pytest.raises(IsADirectoryError) as info:
            cn.write_text_atomic(str(target), "q\n")
        assert info.value.filename == str(target)  # not the temp file
        assert list(tmp_path.iterdir()) == [target]

    def test_nonfinite_floats_become_null(self, tmp_path):
        target = tmp_path / "out.json"
        cn.write_json_atomic(str(target), {"x": math.nan, "y": math.inf})
        with open(target) as fh:
            d = json.load(fh)
        assert d["x"] is None and d["y"] is None

    def test_output_mode_honours_umask(self, tmp_path):
        target = tmp_path / "out.json"
        old = os.umask(0o022)
        try:
            cn.write_json_atomic(str(target), {"x": 1})
        finally:
            os.umask(old)
        assert target.stat().st_mode & 0o777 == 0o644

    @pytest.mark.parametrize("bad", ["1", "0.5", True, False])
    def test_string_or_bool_point_rejected(self, bad):
        # numpy would read "1" and true as 1.0
        with pytest.raises(ValueError, match="points must hold numbers"):
            cn.Constellation.from_json_dict(
                {"K": 1, "M": 2, "points": [[[0.0, 0.0]], [[bad, 0.0]]]}
            )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cn.Constellation.from_json_dict(
                {"K": 2, "M": 2, "points": [[[0.0, 0.0]]] * 2}
            )
