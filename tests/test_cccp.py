import dataclasses
import math
import os
import threading
import time
import warnings

import numpy as np
import pytest

from conftest import pair_forms, wait_for
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
        with pytest.raises(ValueError, match="seed"):
            cccp.CCCPConfig(K=2, M=4, seed=-1)

    @pytest.mark.parametrize("field", ["lam", "epsilon"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, field, value):
        # NaN passed a "<= 0" check: a NaN epsilon switched off the
        # step-norm stop and a NaN or infinite lam ended in a numerical failure
        with pytest.raises(ValueError, match="finite and > 0"):
            cccp.CCCPConfig(K=2, M=4, **{field: value})

    def test_lam_bound(self):
        cccp.CCCPConfig(K=2, M=4, lam=cccp.LAM_MAX)
        with pytest.raises(ValueError, match="lam <= 1e"):
            cccp.CCCPConfig(K=2, M=4, lam=float(np.nextafter(cccp.LAM_MAX, math.inf)))

    def test_row_matrix_bound(self):
        # 255.5 MiB of rows at (1, 256); (2, 3000) asked numpy for 101 GiB
        # in _pair_differences and raised its MemoryError
        cccp.CCCPConfig(K=1, M=256)
        for K, M, size in [(2, 178, "257.1"), (2, 3000, "1,235,652.9")]:
            with pytest.raises(ValueError, match=f"{size} MiB"):
                cccp.CCCPConfig(K=K, M=M)

    def test_defaults(self):
        cfg = cccp.CCCPConfig(K=2, M=4)
        assert cfg.lam == 0.5
        assert cfg.epsilon == 1e-4
        assert cfg.max_iters == 100
        assert cfg.restarts == 20
        assert len(dataclasses.fields(cccp.CCCPConfig)) == 7


class TestInit:
    def test_init_feasible_margins(self):
        rng = np.random.default_rng(0)
        z0 = cccp.init_feasible(2, 4, rng)
        C = cccp.c_to_constellation(z0, 2, 4)
        assert cn.med(C) == pytest.approx(cccp.INIT_MARGIN, rel=1e-9)
        assert cn.min_elementwise(C) > 1e-9

    def test_realify_roundtrip(self):
        rng = np.random.default_rng(0)
        c = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        C = cccp.c_to_constellation(cccp.realify(c), 2, 6)
        assert np.array_equal(C.points.T.ravel(), c)

    def test_vec_convention(self):
        # column m of the constellation is the m-th K-block of c
        c = np.arange(6, dtype=complex)
        C = cccp.c_to_constellation(cccp.realify(c), 2, 3)
        assert np.array_equal(C.points[:, 1], np.array([2.0, 3.0], dtype=complex))


class TestLinearize:
    def test_row_counts_and_start(self):
        K, M = 2, 4
        cfg = cccp.CCCPConfig(K=K, M=M)
        rng = np.random.default_rng(1)
        z = cccp.init_feasible(K, M, rng)
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
        z = cccp.init_feasible(K, M, rng)
        spec = cccp.linearize(z, cfg)
        med_idx, _ = pair_forms(K, M)
        for g, h, idx in zip(spec.A[:, :-1], spec.b, med_idx):
            # g = 2 A z_q and h = 1 + z_q^T A z_q, so g.z_q - h =
            # z_q^T A z_q - 1 (the current slack of the quadratic)
            assert float(g @ z) - h == pytest.approx(
                qforms.qf_value(idx, z) - 1.0, rel=1e-9
            )

    @pytest.mark.parametrize("K, M", [(2, 4), (2, 8), (3, 4)])
    def test_rows_match_quadratic_form_oracle(self, K, M):
        # the rows from the pair-difference matrix equal those built form
        # by form with qforms, over x = (z, eta)
        cfg = cccp.CCCPConfig(K=K, M=M)
        rng = np.random.default_rng(K * 10 + M)
        med_idx, ew_idx = pair_forms(K, M)
        P, n = len(med_idx), 2 * K * M
        assert len(ew_idx) == P * K
        for _ in range(5):
            z = cccp.init_feasible(K, M, rng)
            spec = cccp.linearize(z, cfg)
            A_ref = np.zeros((P + len(ew_idx), n + 1))
            b_ref = np.empty(len(A_ref))
            for r, idx in enumerate(med_idx + ew_idx):
                A_ref[r, :n] = qforms.qf_gradient(idx, z)
                b_ref[r] = qforms.qf_value(idx, z)
            A_ref[P:, n] = -1.0
            b_ref[:P] += 1.0
            assert spec.A.shape == A_ref.shape and spec.b.shape == b_ref.shape
            assert np.array_equal(spec.A, A_ref)
            assert np.max(np.abs(spec.b - b_ref)) <= 1e-12
            assert np.array_equal(spec.A[:P, -1], np.zeros(P))
            assert np.array_equal(spec.A[P:, -1], -np.ones(P * K))

    # K=2, M=3 iterates [x_0, x_1, x_2] with dyadic entries, so every form
    # value and row slack is exact: z = 0, a closest pair at exactly MED 1,
    # and MED 2 with a zero element-wise gap between x_1 and x_2
    BOUNDARY_ITERATES = {
        "zero": [0, 0, 0, 0, 0, 0],
        "pair_at_de": [0, 0, 0.5 + 0.5j, 0.5 + 0.5j, 2, -2j],
        "zero_ew_gap": [0, 0, 1 + 1j, 1 + 1j, 3, 1 + 1j],
    }

    @pytest.mark.parametrize("name", BOUNDARY_ITERATES)
    def test_infeasible_iterate_rejected(self, name, monkeypatch):
        # the start linearize builds is strictly interior just when the
        # iterate is strictly feasible, so solve's check is the one check
        c = np.array(self.BOUNDARY_ITERATES[name], dtype=complex)
        cfg = cccp.CCCPConfig(K=2, M=3)
        with pytest.raises(socp.NotStrictlyFeasible) as exc:
            socp.solve(cccp.linearize(cccp.realify(c), cfg))
        monkeypatch.setattr(cccp, "init_feasible", lambda *args: cccp.realify(c))
        ch = cccp.run_chain(cfg, 0)
        assert (ch.status, ch.failure, ch.iterations) == ("failed", str(exc.value), 0)
        assert (ch.trace, ch.design) == ([], None)
        assert math.isnan(ch.max_kkt)

    def test_iterate_just_inside_is_accepted(self):
        c = np.array(self.BOUNDARY_ITERATES["pair_at_de"], dtype=complex)
        spec = cccp.linearize(cccp.realify(c * (1 + 1e-12)), cccp.CCCPConfig(K=2, M=3))
        assert socp.solve(spec).status == "optimal"


class TestChains:
    def test_chain_runs_and_preserves_feasibility(self):
        cfg = small_config(max_iters=20)
        ch = cccp.run_chain(cfg, 0)
        assert ch.status in ("converged", "max_iter")
        assert ch.iterations >= 1
        for rec in ch.trace:
            assert rec["min_med_slack"] >= -1e-9
            assert rec["min_ew_margin"] >= -1e-9

    def test_chain_determinism(self):
        cfg = small_config(max_iters=10)
        a = cccp.run_chain(cfg, 3)
        b = cccp.run_chain(cfg, 3)
        assert np.array_equal(a.design.points, b.design.points)
        assert a.trace == b.trace

    def test_distinct_chains_differ(self):
        cfg = small_config(max_iters=5)
        a = cccp.run_chain(cfg, 0)
        b = cccp.run_chain(cfg, 1)
        assert not np.array_equal(a.design.points, b.design.points)

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
        assert ch.design is None and math.isnan(ch.med)
        assert math.isnan(ch.final_energy)

    def test_unbounded_subproblem_is_a_failed_chain(self):
        ch = cccp.run_chain(cccp.CCCPConfig(K=1, M=2), 0)
        assert ch.status == "failed"
        assert (ch.iterations, ch.design) == (0, None)
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
            chain_index=idx, status=status, design=None, trace=[], med=med, mpd=mpd,
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
        # scaling arithmetic: raw MED >= 1, so normalized MED >=
        # 1 / sqrt(raw average power)
        raw_power = res.best.meta["final_energy"] / cfg.M
        assert cn.med(res.best) >= 1.0 / math.sqrt(raw_power) * (1 - 1e-9)

    def test_best_is_the_winning_chains_design(self):
        cfg = small_config(restarts=3, max_iters=30, seed=2)
        res = cccp.optimize(cfg)
        meta = res.best.meta
        win = res.chains[meta["chain_index"]]
        assert [ch.chain_index for ch in res.chains] == [0, 1, 2]
        assert np.array_equal(res.best.points, win.design.points)
        assert meta["final_energy"] == win.trace[-1]["energy"]
        assert (meta["med"], meta["mpd"]) == (win.med, win.mpd)
        assert res.trace is win.trace
        failed = cccp.run_chain(cccp.CCCPConfig(K=1, M=2), 0)
        assert failed.status == "failed"
        assert failed.design is None and math.isnan(failed.final_energy)

    @pytest.mark.parametrize("status", ["max_iter", "unbounded", "numerical_failure"])
    def test_solver_statuses_surface_as_failed_chain(self, monkeypatch, status):
        # two real solves, then one that ends with the status: the chain keeps
        # the two iterations and ends without stepping to the third solve
        real_solve = socp.solve
        calls = []

        def third_fails(spec, **kw):
            sol = real_solve(spec, **kw)
            calls.append(sol)
            if len(calls) == 3:
                sol.status = status
            return sol

        monkeypatch.setattr(socp, "solve", third_fails)
        ch = cccp.run_chain(small_config(max_iters=10), 0)
        assert len(calls) == 3
        assert ch.status == "failed"
        assert ch.iterations == 2
        assert ch.failure == f"subproblem {status}"

    def test_diverging_solve_ends_its_chain(self, monkeypatch):
        # at lam = 1e4 chain 1's first solve drives |eta| to ~1e139 and ends
        # "max_iter"; no linearization is built from that iterate
        real_solve = socp.solve
        statuses = []

        def spy(spec, **kw):
            sol = real_solve(spec, **kw)
            statuses.append(sol.status)
            return sol

        monkeypatch.setattr(socp, "solve", spy)
        ch = cccp.run_chain(cccp.CCCPConfig(K=2, M=4, lam=1e4), 1)
        assert statuses == ["max_iter"]
        assert ch.status == "failed"
        assert ch.iterations == 0
        assert ch.failure == "subproblem max_iter"

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

    def test_each_chain_states_its_seconds(self, monkeypatch):
        # perf_counter sums in the chain's own process: the whole chain and
        # the socp.solve calls inside it
        real_solve = socp.solve
        spans = []

        def timed(spec, **kw):
            t0 = time.perf_counter()
            sol = real_solve(spec, **kw)
            spans.append(time.perf_counter() - t0)
            return sol

        monkeypatch.setattr(socp, "solve", timed)
        t0 = time.perf_counter()
        ch = cccp.run_chain(small_config(max_iters=6), 0)
        wall = time.perf_counter() - t0
        assert sum(spans) <= ch.solve_s <= ch.chain_s <= wall
        assert ch.solve_s > 0


class TestRestartProcesses:
    """optimize's split of the chains over the caller and forked children,
    on two CPUs whatever the machine has."""

    @pytest.fixture()
    def forks(self, monkeypatch):
        """Two usable CPUs; the list of the caller's os.fork calls."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        real_fork, calls = os.fork, []

        def counted():
            calls.append(os.getpid())
            return real_fork()

        monkeypatch.setattr(os, "fork", counted)
        return calls

    @staticmethod
    def failing_chain(monkeypatch, bad, fail):
        """Patch run_chain to call fail(index) for each chain in bad."""
        real = cccp.run_chain

        def run_chain(config, idx):
            if idx in bad:
                fail(idx)
            return real(config, idx)

        monkeypatch.setattr(cccp, "run_chain", run_chain)

    @staticmethod
    def failing_child(monkeypatch, tmp_path, fail):
        """Patch run_chain to call fail(index) as a child starts a chain. The
        caller's chains first wait, at most 20 s, until a child has started
        one, so at two CPUs the child's first chain is chain 1."""
        real, caller, started = cccp.run_chain, os.getpid(), tmp_path / "started"

        def run_chain(config, idx):
            if os.getpid() == caller:
                wait_for(started)
            else:
                started.touch()
                fail(idx)
            return real(config, idx)

        monkeypatch.setattr(cccp, "run_chain", run_chain)

    def test_chains_equal_the_serial_run(self, forks):
        cfg = cccp.CCCPConfig(K=2, M=4, restarts=4)
        got = cccp.optimize(cfg).chains
        want = [cccp.run_chain(cfg, i) for i in range(4)]
        assert forks == [os.getpid()]
        for a, b in zip(got, want, strict=True):
            assert (a.chain_index, a.status, a.iterations, a.ipm_iters, a.trace) == (
                b.chain_index, b.status, b.iterations, b.ipm_iters, b.trace)
            assert np.array_equal(a.design.points, b.design.points)
            assert 0 < a.solve_s <= a.chain_s

    def test_a_child_chains_exception_reaches_the_caller(self, forks, monkeypatch, tmp_path):
        def fail(idx):
            raise RuntimeError(f"chain {idx} broke in process {os.getpid()}")

        self.failing_child(monkeypatch, tmp_path, fail)
        with pytest.raises(RuntimeError, match=r"chain 1 broke in process \d+") as exc:
            cccp.optimize(small_config(restarts=4, max_iters=3))
        assert forks and str(os.getpid()) not in str(exc.value)  # raised in the child

    @pytest.mark.parametrize("bad, first", [({1, 2}, 1), ({2, 3}, 2)])
    def test_the_lowest_raising_chain_wins(self, forks, monkeypatch, bad, first):
        # the serial run's exception, whichever process claimed and raised
        # which chain first
        def fail(idx):
            raise RuntimeError(f"chain {idx}")

        self.failing_chain(monkeypatch, bad, fail)
        with pytest.raises(RuntimeError, match=f"^chain {first}$"):
            cccp.optimize(small_config(restarts=4, max_iters=3))

    def test_an_exception_that_does_not_pickle_arrives_as_its_repr(self, forks, monkeypatch,
                                                                   tmp_path):
        class Local(Exception):
            pass

        def fail(idx):
            raise Local(f"chain {idx}")

        self.failing_child(monkeypatch, tmp_path, fail)
        with pytest.raises(ChildProcessError, match=r"item 1 raised .*Local\('chain 1'\)"):
            cccp.optimize(small_config(restarts=2, max_iters=3))

    def test_a_child_that_dies_is_reported(self, forks, monkeypatch, tmp_path):
        caller = os.getpid()

        def die(idx):
            assert os.getpid() != caller, "chain 1 ran in the caller"
            os._exit(7)

        self.failing_child(monkeypatch, tmp_path, die)
        with pytest.raises(ChildProcessError, match="exited with code 7"):
            cccp.optimize(small_config(restarts=2, max_iters=3))

    def test_interrupted_caller_kills_its_children(self, forks, monkeypatch):
        # chain 1 would keep its child busy for a minute; the caller's chain 0
        # is interrupted, and optimize kills and reaps the child at once
        def stall_or_interrupt(idx):
            if idx == 0:
                raise KeyboardInterrupt
            time.sleep(60)

        self.failing_chain(monkeypatch, {0, 1}, stall_or_interrupt)
        t0 = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            cccp.optimize(small_config(restarts=2, max_iters=3))
        assert forks and time.perf_counter() - t0 < 30

    def test_a_fork_that_warns_as_from_python_3_12(self, forks, monkeypatch):
        # from 3.12 os.fork warns in the caller when OpenBLAS's threads are
        # alive; under filterwarnings = error that must not end the run
        counted = os.fork

        def warning_fork():
            pid = counted()
            if pid:
                warnings.warn("This process is multi-threaded, use of fork() may "
                              "lead to deadlocks in the child.", DeprecationWarning)
            return pid

        monkeypatch.setattr(os, "fork", warning_fork)
        cfg = small_config(restarts=2, max_iters=3)
        assert cccp.optimize(cfg).all_restarts[1]["ipm_iters"] == cccp.run_chain(cfg, 1).ipm_iters
        assert forks

    @pytest.fixture()
    def no_fork(self, monkeypatch):
        """Two usable CPUs and an os.fork that fails."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

        def fork():
            raise BlockingIOError("fork: resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fork)

    def test_a_failed_fork_closes_its_pipe(self, no_fork):
        fds = len(os.listdir("/proc/self/fd"))
        with pytest.raises(BlockingIOError):
            cccp.optimize(small_config(restarts=2, max_iters=3))
        assert len(os.listdir("/proc/self/fd")) == fds

    def test_one_restart_runs_in_the_caller(self, no_fork):
        assert cccp.optimize(small_config(max_iters=3)).chains[0].status != "failed"

    def test_another_live_thread_keeps_every_chain_in_the_caller(self, no_fork):
        # a fork could copy a lock the other thread holds into the child
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            cfg = small_config(restarts=2, max_iters=3)
            got = cccp.optimize(cfg).chains
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert [ch.trace for ch in got] == [cccp.run_chain(cfg, i).trace for i in range(2)]
