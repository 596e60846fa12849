import dataclasses
import math

import numpy as np
import pytest

from conftest import oracle_objective, random_tiny_spec
from mdconst import cccp, socp


def simple_spec(lam=0.25):
    # minimize ||z|| - lam*eta in 2-D with one med row and two ew rows; the
    # columns are x = (z_1, z_2, eta)
    A = np.array([
        [1.0, 0.0, 0.0],
        [0.0, 1.0, -1.0],
        [0.6, 0.6, -1.0],
    ])
    b = np.array([1.0, 0.5, 0.2])
    return socp.SubproblemSpec(lam=lam, A=A, b=b, start=np.array([2.0, 2.0, 0.1]))


class TestValidation:
    def test_dimension_mismatch(self):
        spec = simple_spec()
        for start in (spec.start[:-1], np.append(spec.start, 0.0)):
            bad = dataclasses.replace(spec, start=start)
            with pytest.raises(ValueError, match="dimension mismatch"):
                socp.solve(bad)
        bad = dataclasses.replace(spec, b=spec.b[:-1])
        with pytest.raises(ValueError, match="dimension mismatch"):
            socp.solve(bad)

    def test_not_strictly_feasible(self):
        bad = dataclasses.replace(simple_spec(), start=np.array([0.0, 0.0, 0.0]))
        with pytest.raises(socp.NotStrictlyFeasible):
            socp.solve(bad)

    def test_no_elementwise_row(self):
        # eta is bounded only by a row with a negative eta coefficient
        spec = simple_spec()
        for eta_coef in (0.0, 1.0):
            A = spec.A.copy()
            A[:, -1] = eta_coef
            with pytest.raises(ValueError, match="element-wise row"):
                socp.solve(dataclasses.replace(spec, A=A))

    def test_no_positive_pair_row(self):
        # with every eta-free bound at or below 0, z = 0 is feasible and
        # ||z|| is not smooth there
        spec = simple_spec()
        for bound in (0.0, -1.0):
            b = spec.b.copy()
            b[0] = bound
            with pytest.raises(ValueError, match="pair row with a positive bound"):
                socp.solve(dataclasses.replace(spec, b=b))


class TestSolve:
    def test_simple_instance_against_oracle(self):
        spec = simple_spec()
        sol = socp.solve(spec)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(oracle_objective(spec), abs=1e-6)

    def test_solution_feasible_and_kkt(self):
        spec = simple_spec()
        sol = socp.solve(spec)
        x = np.append(sol.z, sol.eta)
        assert np.min(spec.A @ x - spec.b) >= -1e-9
        assert sol.kkt_residual <= 1e-7  # 10 * socp.TOL

    def test_random_tiny_instances_match_oracle(self):
        rng = np.random.default_rng(20240817)
        for _ in range(50):
            spec = random_tiny_spec(rng)
            sol = socp.solve(spec)
            assert sol.status == "optimal"
            oracle = oracle_objective(spec)
            assert sol.objective == pytest.approx(oracle, abs=1e-6)
            assert sol.kkt_residual <= 1e-7

    def test_trace_duality_measure(self):
        # one (degree / mu, iteration, mu) row per iteration; the duality
        # measure stays positive and ends at or below the tolerance
        sol = socp.solve(simple_spec(), trace=True)
        assert len(sol.trace) == sol.newton_iters > 0
        for tau, it, mu in sol.trace:
            assert mu > 0.0
            assert tau == pytest.approx(3 / mu)  # degree: 3 rows, no cone
        assert [it for _, it, _ in sol.trace] == list(range(1, sol.newton_iters + 1))
        assert sol.trace[-1][2] <= socp.TOL

    def test_deterministic(self):
        s1 = socp.solve(simple_spec())
        s2 = socp.solve(simple_spec())
        assert np.array_equal(s1.z, s2.z)
        assert s1.eta == s2.eta


def kkt_violations(spec, sol):
    """Stationarity, primal and dual feasibility and complementarity of the
    returned pair, from the rows and the returned x and multipliers alone."""
    A, b, y = spec.A, spec.b, sol.y
    x = np.append(sol.z, sol.eta)
    grad = np.append(sol.z / np.linalg.norm(sol.z), -spec.lam)
    r = grad - A.T @ y
    slack = A @ x - b
    return {
        "stationarity_z": float(np.linalg.norm(r[:-1])),
        "stationarity_eta": abs(float(r[-1])),
        "primal_rows": max(0.0, -float(np.min(slack))),
        "dual_rows": max(0.0, -float(np.min(y))),
        "complementarity": abs(float(slack @ y) + float(sol.z @ r[:-1])),
    }


def optimal_iff_certified(sol):
    """The status is "optimal" exactly when the reported residual is at
    most TOL: the stop rule and the report measure the same thing."""
    return (sol.status == "optimal") == (sol.kkt_residual <= socp.TOL)


def captured_28_spec(step=4):
    """The linearization a (2,8) chain solves at its ``step``-th CCCP step."""
    cfg = cccp.CCCPConfig(K=2, M=8)
    rng = np.random.default_rng(np.random.SeedSequence([0, 0]))
    z = cccp.init_feasible(2, 8, rng)
    for _ in range(step - 1):
        z = socp.solve(cccp.linearize(z, cfg)).z
    return cccp.linearize(z, cfg)


class TestKKT:
    def _check(self, spec):
        sol = socp.solve(spec)
        assert sol.status == "optimal"
        assert optimal_iff_certified(sol)
        assert sol.y.shape == (spec.A.shape[0],)
        viol = kkt_violations(spec, sol)
        assert max(viol.values()) <= 10 * socp.TOL, viol
        assert sol.kkt_residual == pytest.approx(max(viol.values()), abs=1e-12)

    def test_simple_spec(self):
        self._check(simple_spec())

    def test_random_tiny_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            self._check(random_tiny_spec(rng))

    def test_captured_28_linearization(self):
        self._check(captured_28_spec())

    def test_iteration_cap_returns_max_iter(self, monkeypatch):
        specs = (simple_spec(), captured_28_spec())
        monkeypatch.setattr(socp, "MAX_ITER", 1)
        for spec in specs:
            sol = socp.solve(spec)
            assert sol.status == "max_iter"
            assert sol.newton_iters == 1
            assert optimal_iff_certified(sol)
            assert np.all(np.isfinite(sol.z))
            assert math.isfinite(sol.eta)

    def test_step_out_of_the_cone_is_numerical_failure(self, monkeypatch):
        # a step past the boundary must end in a status, not an exception
        monkeypatch.setattr(socp, "STEP", 2.0)
        for spec in (simple_spec(), captured_28_spec()):
            sol = socp.solve(spec)
            assert sol.status == "numerical_failure"
            assert np.all(np.isfinite(sol.z))

    def test_numerical_failure_keeps_the_last_feasible_point(self, monkeypatch):
        # the step that would leave the orthant is not taken, so the point
        # returned is strictly feasible and the next linearization exists
        monkeypatch.setattr(socp, "STEP", 2.0)
        for spec in (simple_spec(), captured_28_spec()):
            sol = socp.solve(spec)
            assert sol.status == "numerical_failure"
            x = np.append(sol.z, sol.eta)
            assert np.min(spec.A @ x - spec.b) > 0.0

    def test_non_finite_newton_direction_is_numerical_failure(self):
        # At this lam the corrector's direction overflows at iteration 426,
        # while the iterate is still below MAX_SIZE; using it warned
        # "invalid value" (an error under pytest's filterwarnings)
        config = cccp.CCCPConfig(K=1, M=4, seed=1)
        z = cccp.init_feasible(1, 4, np.random.default_rng(np.random.SeedSequence([1, 0])))
        spec = dataclasses.replace(cccp.linearize(z, config), lam=1e12)
        sol = socp.solve(spec)
        assert sol.status == "numerical_failure"
        assert max(np.abs(sol.z).max(), abs(sol.eta)) < socp.MAX_SIZE


class TestWarmStart:
    def test_warm_from_previous_linearization(self):
        # The subproblems are degenerate: here the warm solve's z is ~1e-6
        # from the cold one's, so the two are compared by objective.
        prev = socp.solve(captured_28_spec(3))
        spec = captured_28_spec(4)
        warm, cold = socp.solve(spec, warm=prev), socp.solve(spec)
        for sol in (warm, cold):
            assert sol.status == "optimal"
            viol = kkt_violations(spec, sol)
            assert max(viol.values()) <= socp.TOL, viol
        assert warm.objective == pytest.approx(cold.objective, abs=1e-7)
        assert warm.newton_iters < cold.newton_iters

    def test_no_stall_in_the_seed0_24_chain0(self):
        # With STEP = 0.99 and WARM_SHIFT = 0.01 this chain's third solve ran
        # all 800 iterations and ended "max_iter"; its solves take
        # [8, 6, 7, 7, 6, 4, 4] iterations at the module's constants.
        ch = cccp.run_chain(cccp.CCCPConfig(K=2, M=4), 0)
        assert ch.status == "converged"
        assert max(rec["newton_iters"] for rec in ch.trace) <= 15

    def test_mismatched_warm_raises(self):
        spec = simple_spec()
        prev = socp.solve(spec)
        bad = dataclasses.replace(prev, y=prev.y[:-1])
        with pytest.raises(ValueError, match="warm start"):
            socp.solve(spec, warm=bad)


def first_subproblem(K, M, chain):
    """The linearization at the start of a seed-0 chain."""
    rng = np.random.default_rng(np.random.SeedSequence([0, chain]))
    z = cccp.init_feasible(K, M, rng)
    return cccp.linearize(z, cccp.CCCPConfig(K=K, M=M))


def threshold_spec(dims, lam):
    """min ||z|| - lam*eta over rows sum(z) >= 1 and z_k - eta >= 0 for
    k < dims, from a start with equal z_k. Unbounded below exactly when
    lam exceeds sqrt(dims): along z = t*1, eta = t the objective is
    (sqrt(dims) - lam)*t, while at eta > 0 every z_k >= eta gives
    ||z|| >= sqrt(dims)*eta, so the objective is at least 0 otherwise."""
    A = np.hstack((np.eye(dims), -np.ones((dims, 1))))
    A = np.vstack((np.append(np.ones(dims), 0.0), A))
    start = np.append(np.full(dims, 2.0 / dims), 1.0 / dims)
    return socp.SubproblemSpec(lam=lam, A=A, b=np.append(1.0, np.zeros(dims)), start=start)


class TestUnbounded:
    # At K=1 the element-wise row of a pair is the pair's distance form. Its
    # gradient has norm 2 sqrt(2) |x_i - x_j| > 1/lam, so moving z along it
    # raises eta faster than it raises ||z||: the subproblem is unbounded below.
    @pytest.mark.parametrize("K, M, chain", [(1, 2, 0), (1, 2, 1), (1, 3, 1), (1, 4, 1)])
    def test_recession_ray_reported(self, K, M, chain):
        spec = first_subproblem(K, M, chain)
        sol = socp.solve(spec)
        assert sol.status == "unbounded"
        assert sol.newton_iters < 50
        x = np.append(sol.z, sol.eta)
        assert np.min(spec.A @ x - spec.b) > 0.0
        # d = (z, min_ew g^T z) from the returned z: its pair rows are the
        # returned point's g^T z > h > 0 and its element-wise rows are >= 0,
        # so A d >= 0 by construction; what is tested is that f falls along d
        ew = spec.A[:, -1] < 0.0
        d = np.append(sol.z, np.min(spec.A[ew, :-1] @ sol.z))
        d /= np.linalg.norm(d)
        assert np.min(spec.A @ d) >= -socp.TOL
        assert np.linalg.norm(d[:-1]) - spec.lam * d[-1] < -0.01

    @pytest.mark.parametrize("dims, bounded, unbounded", [
        (1, (0.9, 0.99), (1.01, 1.1, 2.0)),
        (2, (1.0, 1.4), (1.42, 1.5, 3.0)),
    ], ids=["1-D", "2-D"])
    def test_analytic_threshold(self, dims, bounded, unbounded):
        # the threshold is lam = sqrt(dims): 1 in 1-D, sqrt(2) in 2-D
        for lam in bounded + unbounded:
            spec = threshold_spec(dims, lam)
            sol = socp.solve(spec)
            assert sol.status == ("optimal" if lam in bounded else "unbounded"), lam
            x = np.append(sol.z, sol.eta)
            assert np.min(spec.A @ x - spec.b) > 0.0
