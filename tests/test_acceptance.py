"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

The fixtures run the three reference design cases once per session with the
production configuration (lambda=0.5, MED threshold 1, step tolerance 1e-4,
100 iterations, 20 restarts) and every criterion checks against those runs.
Lines are printed to the real stdout so they survive pytest capture.
"""

import math
import sys

import numpy as np
import pytest

import conftest
import oracles
from conftest import oracle_objective, random_constellation, random_tiny_spec
from mdconst import cccp, qforms, scma, sim, socp
from mdconst import constellation as cn

CASES = {
    (2, 4): {"med": 1.55, "mpd": 0.98, "seed": 0},
    (2, 8): {"med": 1.34, "mpd": 0.74, "seed": 0},
    (3, 4): {"med": 1.55, "mpd": 0.69, "seed": 0},
}
RESTARTS = 20


def _report(num: str, ok: bool, detail: str) -> None:
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} — {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def _config(K, M):
    return cccp.CCCPConfig(K=K, M=M, restarts=RESTARTS, seed=CASES[(K, M)]["seed"])


@pytest.fixture(scope="session")
def table1():
    """Run the three design cases, keeping every chain's full trace."""
    out = {}
    for K, M in CASES:
        cfg = _config(K, M)
        res = cccp.optimize(cfg)
        out[(K, M)] = {"config": cfg, "chains": res.chains, "best": res.best}
    return out


@pytest.fixture(scope="session")
def best24(table1):
    return table1[(2, 4)]["best"]


def test_criterion_1_reference_designs(table1):
    fails = []
    got = []
    for (K, M), case in CASES.items():
        C = table1[(K, M)]["best"]
        med, mpd = cn.med(C), cn.mpd(C)
        got.append(f"({K},{M}) MED {med:.4f} MPD {mpd:.4f}")
        if med < case["med"] or mpd < case["mpd"]:
            fails.append(f"({K},{M}) got MED {med:.4f} / MPD {mpd:.4f}, "
                         f"need >= {case['med']} / {case['mpd']}")
    _report("1", not fails, "; ".join(fails or got))


def test_criterion_2_med_upper_bound(table1):
    meds = [ch.med for ch in table1[(2, 4)]["chains"] if ch.status != "failed"]
    worst = max(meds)
    _report("2", worst <= 1.634,
            f"max normalized MED over {len(meds)} (2,4) restarts = {worst:.6f} "
            "(bound 1.634)")


def test_criterion_3_cccp_structure(table1):
    """Every CCCP step obeys the energy bound the method guarantees;
    original quadratic constraints hold at every iterate within 1e-9;
    termination by step norm or cap.

    The iterate z_q, taken with eta = min_ew(z_q), is feasible for the q-th
    subproblem (minimize ||z|| - lam*eta), so its optimum obeys

        ||z_{q+1}|| - ||z_q|| <= lam * (eta_{q+1} - min_ew(z_q)) + 1e-8 ||z_q||

    at every step, the first one from the initial point z_0 included, where
    min_ew(z) is the smallest element-wise squared gap. Energy may rise only
    by what the element-wise level pays for, and wherever the level does not
    gain, energy is monotone within 1e-8. Raw energy is not monotone (up-ticks
    of 4.7e-2 relative on the seed-0 runs, all at level-gain steps), so the
    worst raw up-tick is reported for information only.
    """
    worst_uptick = 0.0  # raw relative energy rise, reported only
    free_upticks = 0  # rises beyond 1e-8 at steps without a level gain
    worst_excess = -math.inf  # rise minus lam * level gain
    bound_ok = True
    feas_viol = 0.0
    term_ok = True
    for (K, M), data in table1.items():
        cfg = data["config"]
        for ch in data["chains"]:
            if ch.status == "failed":
                term_ok = False
                continue
            # z_0 and min_ew(z_0) exactly as run_chain draws them
            rng = np.random.default_rng(
                np.random.SeedSequence([cfg.seed, ch.chain_index]))
            z0 = cccp.init_feasible(K, M, rng)
            norm = float(np.linalg.norm(z0))
            min_ew = cn.min_elementwise(cccp.c_to_constellation(z0, K, M)) ** 2
            for rec in ch.trace:
                norm_new = math.sqrt(rec["energy"])
                rise = norm_new - norm
                excess = rise - cfg.lam * (rec["eta"] - min_ew)
                worst_uptick = max(worst_uptick, (norm_new**2 - norm**2) / norm**2)
                worst_excess = max(worst_excess, excess)
                bound_ok &= excess <= 1e-8 * norm
                if rec["eta"] <= min_ew and rise > 1e-8 * norm:
                    free_upticks += 1
                feas_viol = max(feas_viol, -rec["min_med_slack"],
                                -rec["min_ew_margin"])
                norm, min_ew = norm_new, rec["min_ew_margin"] + rec["eta"]
            if ch.status == "converged":
                term_ok &= ch.trace[-1]["step_norm"] <= cfg.epsilon
            else:
                term_ok &= ch.iterations == cfg.max_iters
    energy_ok = bound_ok and free_upticks == 0
    feas_ok = feas_viol <= 1e-9
    _report(
        "3", energy_ok and feas_ok and term_ok,
        f"energy bound: {'yes' if energy_ok else 'NO'} "
        f"(worst excess over lam * level gain {worst_excess:.3e}, "
        f"tolerance 1e-8 ||z_q||; up-ticks without level gain {free_upticks}; "
        f"worst raw relative up-tick {worst_uptick:.3e}, reported only); "
        f"iterate feasibility: {'yes' if feas_ok else 'NO'} "
        f"(worst violation {feas_viol:.3e}); "
        f"termination rule: {'yes' if term_ok else 'NO'}",
    )


def test_cccp_composite_objective_non_increasing(table1):
    """The invariant CCCP guarantees: F(z) = ||z|| - lam * min_ew(z) never
    increases along a chain, where min_ew(z) is the smallest element-wise
    squared gap (trace: min_ew_margin + eta)."""
    worst = -math.inf
    for data in table1.values():
        lam = data["config"].lam
        for ch in data["chains"]:
            F = [
                math.sqrt(rec["energy"]) - lam * (rec["min_ew_margin"] + rec["eta"])
                for rec in ch.trace
            ]
            worst = max([worst] + [b - a for a, b in zip(F, F[1:])])
    assert worst <= 1e-8, f"composite objective rose by {worst:.3e}"


def test_solver_iteration_counts(table1):
    """Solver cost guard without timing: iteration counts repeat exactly, so
    a slower interior-point method or a lost warm start shows on any machine."""
    chains = [ch for data in table1.values() for ch in data["chains"]]
    iters = [rec["newton_iters"] for ch in chains for rec in ch.trace]
    # seed 0: at most 14 and 6.06 on average over all 917 solves; the means'
    # bounds leave ~12% headroom, the integer maximum's ~14%
    assert max(iters) <= 16, f"a subproblem took {max(iters)} iterations"
    assert np.mean(iters) <= 6.8, f"mean {np.mean(iters):.2f} iterations per subproblem"
    # every solve after a chain's first starts from the previous multipliers:
    # 5.81 iterations on average at seed 0, and 7.01 with every solve cold,
    # so a lost warm start fails
    warm = [rec["newton_iters"] for ch in chains for rec in ch.trace[1:]]
    assert np.mean(warm) <= 6.5, f"mean {np.mean(warm):.2f} iterations per warm-started subproblem"
    # a chain's first solve starts cold, at y = 1: 9.70 on average over the
    # 60 seed-0 chains
    cold = [ch.trace[0]["newton_iters"] for ch in chains if ch.trace]
    assert np.mean(cold) <= 10.9, f"mean {np.mean(cold):.2f} iterations per cold-started subproblem"


def test_optimal_solves_are_certified(table1):
    """A chain records only "optimal" solves, so every reported KKT residual
    is at most socp.TOL: the stop rule tests the residual it reports (at
    most 9.996e-9 at seeds 0 and 1000)."""
    for data in table1.values():
        for ch in data["chains"]:
            if ch.trace:
                assert ch.max_kkt <= socp.TOL, (ch.chain_index, ch.max_kkt)


def test_criterion_4_quadratic_form_oracles():
    # The runtime forms, cccp._form_values, against the explicit E/B
    # matrices (contracted over all draws at once) and the direct distances.
    shapes = [(2, 4), (3, 8), (4, 16)]
    counts = [334, 333, 333]
    worst = 0.0
    for (K, M), count in zip(shapes, counts):
        pairs = cn.pair_indices(M)
        idxs = [qforms.euclidean_pair(i, j, K, M) for i, j in pairs]
        idxs += [qforms.elementwise(i, j, k, K, M) for i, j in pairs for k in range(K)]
        dense = np.stack([qforms.qf_matrix(ix).to_dense() for ix in idxs])  # (F, KM, KM)
        rng = np.random.default_rng(K * 100 + M)
        pts = np.stack([random_constellation(rng, K, M).points for _ in range(count)])
        c = pts.transpose(0, 2, 1).reshape(count, K * M)
        explicit = np.einsum("ta,fab,tb->tf", c.conj(), dense, c, optimize=True).real
        i, j = np.array(pairs).T
        gaps = np.abs(pts[:, :, i] - pts[:, :, j]) ** 2  # (count, K, P)
        elem_gaps = gaps.transpose(0, 2, 1).reshape(count, -1)  # pair-major, as the rows
        direct = np.concatenate([gaps.sum(axis=1), elem_gaps], axis=1)
        runtime = np.array([
            np.concatenate([med, ew.ravel()])
            for med, ew, _ in (cccp._form_values(cccp.realify(ct), K, M) for ct in c)
        ])
        worst = max(worst, float(np.max(np.abs(runtime - direct))),
                    float(np.max(np.abs(runtime - explicit))))

    # displayed reference patterns for K=2, M=4 (0-based pair (0,1), dim 0)
    E = qforms.build_E(0, 1, 2, 4).to_dense()
    E_expect = np.zeros((8, 8))
    E_expect[:4, :4] = [[1, 0, -1, 0], [0, 1, 0, -1], [-1, 0, 1, 0], [0, -1, 0, 1]]
    B = qforms.build_B(0, 1, 0, 2, 4).to_dense()
    B_expect = np.zeros((8, 8))
    B_expect[0, 0] = B_expect[2, 2] = 1
    B_expect[0, 2] = B_expect[2, 0] = -1
    patterns_ok = np.array_equal(E, E_expect) and np.array_equal(B, B_expect)

    _report("4", worst <= 1e-10 and patterns_ok,
            f"1000 random constellations: max |runtime - direct/explicit| = "
            f"{worst:.3e} (tol 1e-10); displayed patterns exact: {patterns_ok}")


def test_criterion_5_subproblem_solver(table1, monkeypatch):
    rng = np.random.default_rng(2024)
    worst_obj = 0.0
    monkeypatch.setattr(socp, "TOL", 1e-9)
    for _ in range(50):
        spec = random_tiny_spec(rng)
        sol = socp.solve(spec)
        ref = oracle_objective(spec)
        worst_obj = max(worst_obj, abs(sol.objective - ref))
    worst_kkt = max(
        ch.max_kkt
        for data in table1.values()
        for ch in data["chains"]
        if ch.status != "failed"
    )
    _report("5", worst_obj <= 1e-6 and worst_kkt <= 1e-7,
            f"50 tiny instances: max objective deviation from oracle = "
            f"{worst_obj:.3e} (tol 1e-6); max KKT residual on criterion-1 "
            f"solves = {worst_kkt:.3e} (tol 1e-7)")


def test_criterion_6_amgm_and_power_bounds(table1):
    worst_slack = math.inf
    mpd_ok = True
    for data in table1.values():
        C = data["best"]
        for chk in cn.amgm_check(C):
            worst_slack = min(worst_slack, chk["slack"])
        delta = cn.min_elementwise(C)
        mpd_ok &= cn.mpd(C) >= delta ** C.K * (1 - 1e-9)
    _report("6", worst_slack >= -1e-9 and mpd_ok,
            f"min AM-GM slack over optimized constellations = {worst_slack:.3e} "
            f"(>= -1e-9); MPD >= (min element-wise gap)^K: {mpd_ok}")


def test_criterion_7_scma_correctness(best24):
    F = scma.default_indicator()
    of = scma.overloading_factor(F)
    cbs = scma.build_codebooks(F, best24)
    J, N, M = cbs.J, cbs.N, cbs.M

    # exhaustive noise-free unambiguity over all M^J transmit tuples
    tuples = np.array(list(np.ndindex(*(M,) * J)))  # (4096, 6)
    y = np.zeros((len(tuples), N), dtype=np.complex128)
    for j in range(J):
        y += cbs.codebooks[j][:, tuples[:, j]].T
    H = np.ones((len(tuples), N, J), dtype=np.complex128)
    _, hard = scma.mpa_detect_batch(y, H, cbs, n0=1e-3, iters=10)
    n_bad = int(np.sum(np.any(hard != tuples, axis=1)))

    # MPA equals exact joint-ML marginalization on a single-resource system
    F1 = scma.IndicatorMatrix(rows=np.array([[1, 1]]))
    base1 = cn.Constellation(points=np.array([[1.0, 1.0j, -1.0, -1.0j]]))
    cbs1 = scma.build_codebooks(F1, base1,
                                scma.OperatorSet(phases=np.array([[0.0], [0.3]])))
    rng = np.random.default_rng(7)
    worst_post = 0.0
    for _ in range(10):
        y1 = rng.standard_normal(1) + 1j * rng.standard_normal(1)
        H1 = rng.standard_normal((1, 2)) + 1j * rng.standard_normal((1, 2))
        post, _ = scma.mpa_detect_batch(y1[None], H1[None], cbs1, n0=0.5, iters=1)
        exact = oracles.joint_ml_marginals(y1, H1, cbs1, n0=0.5)
        worst_post = max(worst_post, float(np.max(np.abs(post[0] - exact))))

    _report("7", n_bad == 0 and of == 1.5 and worst_post <= 1e-8,
            f"noise-free unambiguity: {len(tuples) - n_bad}/{len(tuples)} tuples "
            f"recovered; overloading factor = {of}; max |MPA - joint ML| on "
            f"single-resource = {worst_post:.3e} (tol 1e-8)")


@pytest.fixture(scope="session")
def ber_curves(best24):
    """Criterion-8 simulations, reused by the determinism criterion."""
    curves = {}
    snr = sim.SNRSpec((0.0, 4.0, 8.0, 12.0, 16.0))
    curves["awgn"] = sim.simulate_p2p(best24, "awgn", snr, seed=42,
                                      min_bit_errors=400, max_vectors=400_000)
    curves["rayleigh"] = sim.simulate_p2p(best24, "rayleigh_iid", snr, seed=43,
                                          min_bit_errors=400, max_vectors=400_000)
    hi = sim.SNRSpec((30.0,))
    curves["opt24_30db"] = sim.simulate_p2p(
        best24, "rayleigh_iid", hi, seed=44,
        min_bit_errors=10**9, max_vectors=1_000_000)
    curves["qpsk_30db"] = sim.simulate_p2p(
        cn.cartesian_qpsk(2), "rayleigh_iid", hi, seed=44,
        min_bit_errors=10**9, max_vectors=1_000_000)
    return curves


def _monotone_within_2sigma(curve):
    pts = curve.points
    for a, b in zip(pts, pts[1:]):
        sa = math.sqrt(max(a["ber"] * (1 - a["ber"]), 1e-30) / a["bits"])
        sb = math.sqrt(max(b["ber"] * (1 - b["ber"]), 1e-30) / b["bits"])
        if b["ber"] > a["ber"] + 2 * (sa + sb):
            return False, f"{a['ebn0_db']}→{b['ebn0_db']} dB: {a['ber']:.3e}→{b['ber']:.3e}"
    return True, ""


def _within_bounds(C, channel, pt):
    """(inside, lower, union): the lower and union bounds on the ML BER at
    the point's Eb/N0, and whether its BER lies between them widened by 4
    standard errors, as test_sim checks the golden rows; a vector's bit
    errors come together, so the variance over bits is at most log2(M)
    times the binomial one."""
    n0 = sim.SNRSpec((pt["ebn0_db"],)).noise_variance(C.M, pt["ebn0_db"])
    lower, union = oracles.p2p_ber_bounds(C.points, n0, channel)
    half = 4.0 * math.sqrt(sim.bits_per_symbol(C.M) * pt["ber"] / pt["bits"])
    return lower - half <= pt["ber"] <= union + half, lower, union


def test_criterion_8_ber_properties(best24, ber_curves):
    ok_a = True
    why_a = []
    for name in ("awgn", "rayleigh"):
        ok, why = _monotone_within_2sigma(ber_curves[name])
        ok_a &= ok
        if why:
            why_a.append(f"{name} {why}")

    opt = ber_curves["opt24_30db"].points[0]
    ref = ber_curves["qpsk_30db"].points[0]
    # each 30 dB point also lies within its bounds
    bounds = [_within_bounds(C, "rayleigh_iid", pt)
              for C, pt in ((best24, opt), (cn.cartesian_qpsk(2), ref))]
    # the (2,4) point rests on a few bit errors, so its band admits almost
    # any count: every point of the two sweeps with >= 200 errors is
    # checked against its bounds too
    swept = [(name, pt, _within_bounds(best24, channel, pt)[0])
             for name, channel in (("awgn", "awgn"), ("rayleigh", "rayleigh_iid"))
             for pt in ber_curves[name].points if pt["errors"] >= 200]
    outside = "".join(f", not {name} {pt['ebn0_db']:g} dB" for name, pt, within in swept
                      if not within)
    ok_b = (opt["ber"] < ref["ber"] and opt["vectors"] >= 10**6
            and all(within for within, _, _ in bounds) and bool(swept) and not outside)

    nf_p2p = sim.simulate_p2p(best24, "rayleigh_iid", sim.SNRSpec((0.0,)),
                              seed=5, max_vectors=20_000, noise_free=True)
    cbs = scma.build_codebooks(scma.default_indicator(), best24)
    nf_scma = sim.simulate_scma_uplink(cbs, sim.SNRSpec((0.0,)), seed=5,
                                       max_vectors=500, noise_free=True)
    ok_c = nf_p2p.points[0]["ber"] == 0.0 and nf_scma.points[0]["ber"] == 0.0

    _report("8", ok_a and ok_b and ok_c,
            f"(a) curves monotone within 2σ: {ok_a} {'; '.join(why_a)}"
            f"(b) 30 dB Rayleigh BER optimized {opt['ber']:.3e} ({opt['errors']} bit "
            f"errors) vs Cartesian QPSK {ref['ber']:.3e} over {opt['vectors']} "
            f"vectors/point, within bounds [{bounds[0][1]:.3e}, {bounds[0][2]:.3e}] and "
            f"[{bounds[1][1]:.3e}, {bounds[1][2]:.3e}] ± 4σ: {bounds[0][0] and bounds[1][0]}; "
            f"sweep points with >= 200 errors within their bounds ± 4σ: "
            f"{sum(within for _, _, within in swept)}/{len(swept)}{outside}; "
            f"(c) noise-free BER p2p={nf_p2p.points[0]['ber']} "
            f"scma={nf_scma.points[0]['ber']}")


def test_criterion_9_determinism(table1, ber_curves, tmp_path):
    # repeat the criterion-1 design runs and compare serialized bytes
    design_ok = True
    for (K, M), data in table1.items():
        best = cccp.optimize(data["config"]).best
        a, b = tmp_path / f"a{K}{M}.json", tmp_path / f"b{K}{M}.json"
        data["best"].save(str(a))
        best.save(str(b))
        design_ok &= a.read_bytes() == b.read_bytes()

    # repeat the criterion-8 simulations and compare CSV bytes
    best24 = table1[(2, 4)]["best"]
    snr = sim.SNRSpec((0.0, 4.0, 8.0, 12.0, 16.0))
    rerun = {
        "awgn": sim.simulate_p2p(best24, "awgn", snr, seed=42,
                                 min_bit_errors=400, max_vectors=400_000),
        "rayleigh": sim.simulate_p2p(best24, "rayleigh_iid", snr, seed=43,
                                     min_bit_errors=400, max_vectors=400_000),
        "opt24_30db": sim.simulate_p2p(
            best24, "rayleigh_iid", sim.SNRSpec((30.0,)), seed=44,
            min_bit_errors=10**9, max_vectors=1_000_000),
    }
    sim_ok = all(rerun[k].to_csv() == ber_curves[k].to_csv() for k in rerun)

    _report("9", design_ok and sim_ok,
            f"design reruns byte-identical: {design_ok}; "
            f"simulation reruns byte-identical: {sim_ok}")
