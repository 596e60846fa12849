import math

import numpy as np
import pytest

from conftest import pair_forms
from mdconst import cccp, qforms, socp
from mdconst import constellation as cn


def small_config(**kw):
    defaults = dict(K=2, M=3, restarts=1, seed=7)
    defaults.update(kw)
    return cccp.CCCPConfig(**defaults)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            cccp.CCCPConfig(K=0, M=4)
        with pytest.raises(ValueError):
            cccp.CCCPConfig(K=2, M=1)
        with pytest.raises(ValueError):
            cccp.CCCPConfig(K=2, M=4, lam=0.0)
        with pytest.raises(ValueError):
            cccp.CCCPConfig(K=2, M=4, restarts=0)

    @pytest.mark.parametrize("field", ["lam", "d_e_threshold", "epsilon"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, field, value):
        # NaN passed a "<= 0" check: a NaN epsilon switched off the
        # step-norm stop and a NaN or infinite lam or threshold ended in a
        # numerical failure
        with pytest.raises(ValueError, match="finite and > 0"):
            cccp.CCCPConfig(K=2, M=4, **{field: value})

    @pytest.mark.parametrize("value", [1e160, 1.4e154])
    def test_threshold_square_overflow_rejected(self, value):
        # run_chain squares D_E before its try, and float ** raises OverflowError
        with pytest.raises(ValueError, match="d_e_threshold squared"):
            cccp.CCCPConfig(K=2, M=4, d_e_threshold=value)

    def test_defaults(self):
        cfg = cccp.CCCPConfig(K=2, M=4)
        assert cfg.lam == 0.5
        assert cfg.d_e_threshold == 1.0
        assert cfg.epsilon == 1e-4
        assert cfg.max_iters == 100
        assert cfg.restarts == 20


class TestInit:
    def test_init_feasible_margins(self):
        rng = np.random.default_rng(0)
        c0 = cccp.init_feasible(2, 4, 1.0, rng)
        C = cccp.c_to_constellation(c0, 2, 4)
        assert cn.med(C) == pytest.approx(cccp.INIT_MARGIN, rel=1e-9)
        assert cn.min_elementwise(C) > 1e-9

    def test_realify_roundtrip(self):
        rng = np.random.default_rng(0)
        c = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        assert np.array_equal(cccp.unrealify(cccp.realify(c)), c)
        with pytest.raises(ValueError):
            cccp.unrealify(np.zeros(3))

    def test_vec_convention(self):
        # column m of the constellation is the m-th K-block of c
        c = np.arange(6, dtype=complex)
        C = cccp.c_to_constellation(c, 2, 3)
        assert np.array_equal(C.points[:, 1], np.array([2.0, 3.0], dtype=complex))


class TestLinearize:
    def test_row_counts_and_start(self):
        K, M = 2, 4
        cfg = cccp.CCCPConfig(K=K, M=M)
        rng = np.random.default_rng(1)
        z = cccp.realify(cccp.init_feasible(K, M, 1.0, rng))
        spec = cccp.linearize(z, cfg)
        P = M * (M - 1) // 2
        assert spec.A.shape == (P + K * P, 2 * K * M + 1)
        assert spec.b.shape == (P + K * P,)
        assert np.count_nonzero(spec.A[:, -1]) == K * P
        x0 = spec.start
        assert np.array_equal(x0[:-1], z)
        assert np.min(spec.A @ x0 - spec.b) > 0.0

    def test_tangent_touches_quadratic(self):
        # at the expansion point the affine row value equals the quadratic
        K, M = 2, 3
        cfg = cccp.CCCPConfig(K=K, M=M)
        rng = np.random.default_rng(2)
        z = cccp.realify(cccp.init_feasible(K, M, 1.0, rng))
        spec = cccp.linearize(z, cfg)
        med_idx, _ = pair_forms(K, M)
        for g, h, idx in zip(spec.A[:, :-1], spec.b, med_idx):
            # g = 2 A z_q and h = D_E^2 + z_q^T A z_q, so g.z_q - h =
            # z_q^T A z_q - D_E^2 (the current slack of the quadratic)
            assert float(g @ z) - h == pytest.approx(
                qforms.qf_value(idx, z) - 1.0, rel=1e-9
            )

    @pytest.mark.parametrize("K, M", [(2, 4), (2, 8), (3, 4)])
    def test_rows_match_quadratic_form_oracle(self, K, M):
        # the index-array rows equal those built form by form with qforms,
        # over x = (z, eta)
        cfg = cccp.CCCPConfig(K=K, M=M)
        rng = np.random.default_rng(K * 10 + M)
        med_idx, ew_idx = pair_forms(K, M)
        P, n = len(med_idx), 2 * K * M
        assert len(ew_idx) == P * K
        for _ in range(5):
            z = cccp.realify(cccp.init_feasible(K, M, 1.0, rng))
            spec = cccp.linearize(z, cfg)
            A_ref = np.zeros((P + len(ew_idx), n + 1))
            b_ref = np.empty(len(A_ref))
            for r, idx in enumerate(med_idx + ew_idx):
                A_ref[r, :n] = qforms.qf_gradient(idx, z)
                b_ref[r] = qforms.qf_value(idx, z)
            A_ref[P:, n] = -1.0
            b_ref[:P] += cfg.d_e_threshold**2
            assert spec.A.shape == A_ref.shape and spec.b.shape == b_ref.shape
            assert np.max(np.abs(spec.A - A_ref)) <= 1e-12
            assert np.max(np.abs(spec.b - b_ref)) <= 1e-12
            assert np.array_equal(spec.A[:P, -1], np.zeros(P))
            assert np.array_equal(spec.A[P:, -1], -np.ones(P * K))

    def test_infeasible_iterate_rejected(self):
        cfg = cccp.CCCPConfig(K=2, M=3)
        z = np.zeros(12)
        with pytest.raises(ValueError, match="CCCP invariant"):
            cccp.linearize(z, cfg)


class TestChains:
    def test_chain_runs_and_preserves_feasibility(self):
        cfg = small_config(max_iters=20)
        ch = cccp.run_chain(cfg, 0)
        assert ch.status in ("converged", "max_iter")
        assert ch.iterations >= 1
        de2 = cfg.d_e_threshold**2
        for rec in ch.trace:
            assert rec["min_med_slack"] >= -1e-9 * de2
            assert rec["min_ew_margin"] >= -1e-9

    def test_chain_determinism(self):
        cfg = small_config(max_iters=10)
        a = cccp.run_chain(cfg, 3)
        b = cccp.run_chain(cfg, 3)
        assert np.array_equal(a.c_final, b.c_final)
        assert a.trace == b.trace

    def test_distinct_chains_differ(self):
        cfg = small_config(max_iters=5)
        a = cccp.run_chain(cfg, 0)
        b = cccp.run_chain(cfg, 1)
        assert not np.array_equal(a.c_final, b.c_final)

    def test_init_failure_is_a_failed_chain(self, monkeypatch):
        def no_start(*args):
            raise RuntimeError("init_feasible: resample cap (100) exceeded")

        monkeypatch.setattr(cccp, "init_feasible", no_start)
        ch = cccp.run_chain(small_config(), 0)
        assert ch.status == "failed"
        assert (ch.iterations, ch.trace, ch.c_final) == (0, [], None)
        assert math.isnan(ch.max_kkt)
        assert "resample cap" in ch.failure

    def test_linearize_failure_keeps_completed_iterations(self, monkeypatch):
        real_linearize = cccp.linearize
        calls = []

        def third_fails(z, config):
            calls.append(1)
            if len(calls) == 3:
                raise ValueError("CCCP invariant violated: test")
            return real_linearize(z, config)

        monkeypatch.setattr(cccp, "linearize", third_fails)
        ch = cccp.run_chain(small_config(max_iters=20, epsilon=1e-12), 0)
        assert ch.status == "failed"
        assert ch.iterations == 2 and len(ch.trace) == 2
        assert ch.max_kkt == max(rec["kkt_residual"] for rec in ch.trace)
        assert "CCCP invariant violated: test" in ch.failure
        assert ch.c_final is None and math.isnan(ch.med)

    def test_unbounded_subproblem_is_a_failed_chain(self):
        ch = cccp.run_chain(cccp.CCCPConfig(K=1, M=2), 0)
        assert ch.status == "failed"
        assert (ch.iterations, ch.c_final) == (0, None)
        assert ch.failure == "subproblem unbounded"

    @pytest.mark.parametrize("chain", [2, 16])
    def test_barely_unbounded_subproblem_is_unbounded(self, chain):
        # lam times the pair row's gradient norm is ~1.01 here: rounding ends
        # the solve while the displacement still misses the cones by ~2e-8,
        # more than TOL but less than the start's own slack seen from there
        ch = cccp.run_chain(cccp.CCCPConfig(K=1, M=2, lam=0.34), chain)
        assert ch.failure == "subproblem unbounded"

    def test_termination_rule(self):
        cfg = small_config(max_iters=100)
        ch = cccp.run_chain(cfg, 0)
        if ch.status == "converged":
            assert ch.trace[-1]["step_norm"] <= cfg.epsilon
        else:
            assert ch.iterations == cfg.max_iters


class TestSelection:
    def _mk(self, idx, med, mpd, status="converged"):
        return cccp.ChainResult(
            chain_index=idx, status=status, iterations=1, c_final=np.zeros(1),
            trace=[], final_energy=1.0, med=med, mpd=mpd, max_kkt=0.0,
        )

    def test_lexicographic_med_then_mpd(self):
        chains = [
            self._mk(0, 1.6329, 0.5),
            self._mk(1, 1.6331, 0.9),  # same rounded MED, higher MPD
            self._mk(2, 1.5, 2.0),
        ]
        assert cccp.select_best(chains).chain_index == 1

    def test_all_failed_raises(self):
        bad = self._mk(0, math.nan, math.nan, status="failed")
        with pytest.raises(RuntimeError, match="all CCCP restarts failed"):
            cccp.select_best([bad])


class TestOptimize:
    def test_optimize_small(self):
        cfg = small_config(restarts=2, max_iters=30)
        res = cccp.optimize(cfg)
        assert cn.average_power(res.best) == pytest.approx(1.0, abs=1e-9)
        assert len(res.all_restarts) == 2
        assert res.best.meta["seed"] == cfg.seed
        # scaling arithmetic: raw MED >= D_E, so normalized MED >=
        # D_E / sqrt(raw average power)
        raw_power = res.best.meta["final_energy"] / cfg.M
        assert cn.med(res.best) >= cfg.d_e_threshold / math.sqrt(raw_power) * (
            1 - 1e-9
        )

    def test_solver_statuses_surface_as_failed_chain(self, monkeypatch):
        def boom(spec, **kw):
            return socp.SubproblemSolution(
                z=np.zeros(spec.A.shape[1] - 1), eta=0.0, status="numerical_failure",
                newton_iters=0, kkt_residual=math.inf, objective=math.nan,
            )

        monkeypatch.setattr(socp, "solve", boom)
        ch = cccp.run_chain(small_config(), 0)
        assert ch.status == "failed"
        assert "numerical_failure" in ch.failure

    def test_max_iter_solves_are_counted(self, monkeypatch):
        real_solve = socp.solve

        def capped(spec, **kw):
            sol = real_solve(spec, **kw)
            sol.status = "max_iter"
            return sol

        monkeypatch.setattr(socp, "solve", capped)
        cfg = small_config(restarts=2, max_iters=4)
        ch = cccp.run_chain(cfg, 0)
        assert ch.status != "failed"
        assert ch.non_optimal_solves == ch.iterations >= 1
        res = cccp.optimize(cfg)
        assert [s["non_optimal_solves"] for s in res.all_restarts] == [
            cccp.run_chain(cfg, i).iterations for i in range(2)
        ]

    def test_failed_chain_keeps_non_optimal_count(self, monkeypatch):
        real_solve = socp.solve
        calls = []

        def capped_then_fail(spec, **kw):
            sol = real_solve(spec, **kw)
            calls.append(sol)
            sol.status = "max_iter" if len(calls) <= 2 else "numerical_failure"
            return sol

        monkeypatch.setattr(socp, "solve", capped_then_fail)
        ch = cccp.run_chain(small_config(max_iters=10), 0)
        assert len(calls) == 3
        assert ch.status == "failed"
        assert ch.iterations == 2
        assert ch.non_optimal_solves == 2

    def test_each_solve_warm_starts_from_the_previous(self, monkeypatch):
        real_solve = socp.solve
        warms, sols = [], []

        def spy(spec, **kw):
            warms.append(kw.get("warm"))
            sols.append(real_solve(spec, **kw))
            return sols[-1]

        monkeypatch.setattr(socp, "solve", spy)
        ch = cccp.run_chain(small_config(max_iters=6), 0)
        assert ch.iterations == len(sols) >= 2
        assert warms[0] is None
        assert all(w is s for w, s in zip(warms[1:], sols))
        assert ch.ipm_iters == sum(s.newton_iters for s in sols)
