"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete. Analytic criteria are exact and fast; statistical
criteria use fixed seeds and stated tolerances, with per-criterion runtime
budgets printed alongside.
"""

import math
import time

import numpy as np

from wdmt import (
    AntennaProfile,
    LpInstance,
    Scenario,
    curve_for_scenario,
    dmt_different,
    fit_slope,
    lp_greedy,
    lp_grid,
    lp_vertex,
    optimal_weights,
    outage_probability,
    validate_gain_distribution,
    validate_weights,
)
from wdmt.cli import main as cli_main


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_identical_pair_corners_and_dominance():
    def pair(weights):
        w = validate_weights(weights)
        return curve_for_scenario(Scenario(kind="parallel-identical", weights=w, n_t=2))

    uniform = pair((0.5, 0.5))
    unbalanced = pair((0.75, 0.25))
    ok = uniform.corners == ((0.0, 4.0), (1.0, 2.0), (2.0, 0.0))
    ok &= unbalanced.corners == ((0.0, 4.0), (0.5, 2.0), (2.0, 0.0))
    dominated = all(
        unbalanced.evaluate(j / 100) <= uniform.evaluate(j / 100) + 1e-12
        for j in range(201)
    )
    ok &= dominated
    assert report(
        1, ok, "uniform and unbalanced 2x(2x1) corners exact, unbalanced never above"
    )


def test_criterion_2_matched_weights_straight_line():
    curve = dmt_different(AntennaProfile((2, 1)), validate_weights((2 / 3, 1 / 3)))
    max_gap = max(
        abs(curve.evaluate(j / 100) - 3.0 * (1.0 - (j / 100) / 2.0)) for j in range(201)
    )
    mu_star = optimal_weights(AntennaProfile((2, 1)))
    ok = max_gap <= 1e-12 and mu_star.mu == (2 / 3, 1 / 3)
    assert report(
        2, ok, f"(2,1) matched-weight curve equals 3(1-r/2), max gap {max_gap:.2e}; "
        f"optimal weights exact"
    )


def test_criterion_3_broadcast_endpoints():
    def broadcast(kind, weights):
        return curve_for_scenario(Scenario(kind=kind, weights=validate_weights(weights), m=3))

    dpc = broadcast("bc-dpc", (0.6, 0.4))
    zf = broadcast("bc-zf", (0.5, 0.5))
    ok = dpc.max_diversity == 5.0 and zf.max_diversity == 4.0
    ok &= dpc.evaluate(2.0) == 0.0 and zf.evaluate(2.0) == 0.0
    ok &= dpc.max_rate == zf.max_rate == 2.0
    assert report(
        3, ok, "M=3 K=2 broadcast: DPC d(0)=5, ZF d(0)=4, both reach r=2 with d=0"
    )


def test_criterion_4_lp_certification():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    greedy_bad = grid_bad = 0
    for _ in range(1000):
        k = int(rng.integers(1, 5))
        profile = AntennaProfile(tuple(int(x) for x in rng.integers(1, 5, k)))
        raw = rng.random(k) + 0.02
        weights = validate_weights(tuple(raw / raw.sum()))
        grid_slack = k * max(profile.n) / 200 + 1e-9
        for r in np.linspace(0.0, k, 21):
            r = float(r)
            inst = LpInstance.alpha_form(profile, weights, r)
            exact = lp_vertex(inst).d
            if abs(lp_greedy(profile, weights, r).d - exact) > 1e-9:
                greedy_bad += 1
            lattice = lp_grid(inst, 200)
            if not (exact - 1e-9 <= lattice <= exact + grid_slack):
                grid_bad += 1
    elapsed = time.perf_counter() - start
    ok = greedy_bad == 0 and grid_bad == 0 and elapsed < 60.0
    assert report(
        4, ok,
        f"21000 LP cases: greedy/vertex mismatches {greedy_bad}, "
        f"grid bound violations {grid_bad}, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_5_endpoints_weight_independent():
    rng = np.random.default_rng(99)
    ok = True
    for counts in ((2, 2), (2, 1), (3, 2, 1)):
        profile = AntennaProfile(counts)
        k = len(counts)
        for _ in range(100):
            raw = rng.random(k) + 0.02
            curve = dmt_different(profile, validate_weights(tuple(raw / raw.sum())))
            ok &= curve.evaluate(0.0) == float(profile.total_diversity())
            ok &= curve.evaluate(float(k)) == 0.0
    assert report(
        5, ok, "d(0) = total antennas and d(K) = 0 exactly for 300 random weightings"
    )


def test_criterion_6_gain_distributions():
    start = time.perf_counter()
    zf = Scenario(kind="bc-zf", weights=validate_weights((0.5, 0.5)), m=3)
    dpc = Scenario(kind="bc-dpc", weights=validate_weights((0.5, 0.5)), m=3)
    ok = True
    details = []
    for scenario, label in ((zf, "zf"), (dpc, "dpc")):
        for index in range(2):
            rep = validate_gain_distribution(
                scenario, index, n_samples=1_000_000, seed=10 * index + (0 if label == "zf" else 1)
            )
            ok &= rep.mean_rel_err <= 0.01 and rep.var_rel_err <= 0.03
            details.append(
                f"{label}[{index}]~Gamma({rep.shape},1) mean_err {rep.mean_rel_err:.3%} "
                f"var_err {rep.var_rel_err:.3%}"
            )
    elapsed = time.perf_counter() - start
    ok &= elapsed < 120.0
    assert report(6, ok, "; ".join(details) + f"; {elapsed:.1f}s (< 120s)")


def test_criterion_7_scalar_outage_oracle_coverage():
    start = time.perf_counter()
    scalar = Scenario(kind="parallel-identical", weights=validate_weights((1.0,)), n_t=1)
    covered = 0
    for i, db in enumerate((10, 20, 30)):
        for j, r in enumerate((0.25, 0.5, 0.75)):
            rho = 10.0 ** (db / 10.0)
            est = outage_probability(
                scalar, r=r, rho=rho, n_samples=1_000_000, seed=300 + 3 * i + j
            )
            truth = 1.0 - math.exp(-((rho**r) - 1.0) / rho)
            covered += est.ci_low <= truth <= est.ci_high
    elapsed = time.perf_counter() - start
    ok = covered >= 8 and elapsed < 120.0
    assert report(
        7, ok, f"closed-form coverage {covered}/9 points (need >= 8); "
        f"{elapsed:.1f}s (< 120s)"
    )


def _simulate_slope(scenario, r, db_points, n_samples, seed_base, window):
    estimates = [
        outage_probability(
            scenario, r=r, rho=10.0 ** (db / 10.0), n_samples=n_samples,
            seed=seed_base + i, shards=8,
        )
        for i, db in enumerate(db_points)
    ]
    return fit_slope(estimates, window)


def test_criterion_8a_scalar_slope():
    start = time.perf_counter()
    scalar = Scenario(kind="parallel-identical", weights=validate_weights((1.0,)), n_t=1)
    fit = _simulate_slope(scalar, 0.5, (20, 25, 30, 35, 40), 10_000_000, 8100, (20, 40))
    elapsed = time.perf_counter() - start
    ok = abs(fit.d_hat - 0.5) <= 0.15 * 0.5
    assert report(
        8, ok,
        f"(a) 1x1 at r=0.5 over 20-40 dB: d_hat {fit.d_hat:.4f} vs 0.5 "
        f"(within 15%); {elapsed:.0f}s",
    )


def test_criterion_8b_parallel_pair_slope():
    start = time.perf_counter()
    pair = Scenario(kind="parallel-identical", weights=validate_weights((0.5, 0.5)), n_t=2)
    fit = _simulate_slope(pair, 1.0, (15, 18, 21, 24, 27, 30), 10_000_000, 8200, (15, 30))
    elapsed = time.perf_counter() - start
    ok = abs(fit.d_hat - 2.0) <= 0.20 * 2.0
    report(
        8, ok,
        f"(b) 2x(2x1) uniform at r=1 over 15-30 dB: d_hat {fit.d_hat:.4f} vs 2 "
        f"(within 20%); {elapsed:.0f}s",
    )
    assert ok, (
        f"d_hat = {fit.d_hat:.4f} (stderr {fit.stderr:.4f}), outside [1.6, 2.4]. "
        "This shortfall is a property of the exact finite-SNR outage curve, not "
        "of sampling noise: quadrature on the true curve (independently "
        "cross-checked by simulation) puts the weighted-least-squares slope "
        "over an even 15-30 dB grid at about 1.41, and at about 1.59 even for "
        "a 20-35 dB window; the asymptotic value 2 is approached only tens of "
        "dB higher. No sample budget can close a curvature gap, so this "
        "criterion is not attainable as stated. README.md ('Install and test') "
        "reproduces the 1.41 from the exact outage curve."
    )


def test_criterion_8c_precoder_slope_ordering():
    start = time.perf_counter()
    weights = validate_weights((0.55, 0.45))
    zf = Scenario(kind="bc-zf", weights=weights, m=3)
    dpc = Scenario(kind="bc-dpc", weights=weights, m=3)
    db_points = (10, 13, 16, 19, 22)
    fit_zf = _simulate_slope(zf, 1.5, db_points, 10_000_000, 8300, (10, 22))
    fit_dpc = _simulate_slope(dpc, 1.5, db_points, 10_000_000, 8400, (10, 22))
    elapsed = time.perf_counter() - start
    margin = fit_dpc.d_hat - fit_zf.d_hat
    noise = 2.0 * (fit_dpc.stderr + fit_zf.stderr)
    ok = margin > noise
    assert report(
        8, ok,
        f"(c) M=3 K=2 at r=1.5, 10-22 dB: d_hat DPC {fit_dpc.d_hat:.4f} > "
        f"ZF {fit_zf.d_hat:.4f} (margin {margin:.4f} > noise {noise:.4f}); "
        f"{elapsed:.0f}s",
    )


def test_criterion_9_simulation_determinism(tmp_path):
    args = [
        "simulate", "--scenario", "bc-dpc", "--m", "3", "--k", "2",
        "--weights", "0.6,0.4", "--r", "0.5,1.5", "--snr-db", "5:15:5",
        "--samples", "50000", "--seed", "4242", "--shards", "3",
    ]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    code1 = cli_main(args + ["--out", str(first)])
    code2 = cli_main(args + ["--out", str(second)])
    ok = code1 == code2 == 0 and first.read_bytes() == second.read_bytes()
    assert report(9, ok, "identical (seed, shards) rerun is byte-identical")
