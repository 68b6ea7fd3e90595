"""Correctness checks applied to the result of every benchmark operation.

Each check returns ``None`` when the result is right and a short reason
when it is wrong; the caller counts a reason as a failed operation.
Statistical checks compare against exact references, never
against a particular random stream, so a sampler may change its draws.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats

Z_LIMIT = 5.0
# Two-sided mass of a normal law beyond 5 sigma. The exact binomial test used
# for small outage counts rejects at the same level.
TAIL_LEVEL = float(2.0 * stats.norm.sf(Z_LIMIT))
# sqrt(n) * KS distance exceeds this with probability TAIL_LEVEL under the null.
KS_LIMIT = float(stats.kstwobign.isf(TAIL_LEVEL))
# Tolerance for quantities two exact methods compute in different float order.
EXACT_TOL = 1e-9
# Tolerance for corner points rebuilt here from their closed form.
CORNER_TOL = 1e-12
# Minimum outage events for a point to enter a slope fit (exponent_fit.MIN_EVENTS).
MIN_EVENTS = 20
# The CLI prints d_hat and d_analytic with four decimals.
PRINT_TOL = 5e-5 + 1e-9

SIMULATE_COLUMNS = (
    "scenario,K,M,weights,r,rho_db,n_samples,n_outages,p_hat,ci_low,ci_high,seed,shards"
).split(",")


# --------------------------------------------------------------- estimates

def check_estimate(est, n_requested: int, p_ref: float):
    """One ``OutageEstimate`` against an exact reference probability.

    Fails when samples went missing, when the CI does not cover p_hat, or
    when p_hat is more than 5 binomial sigma at p_ref from p_ref.
    """
    if est.n_samples + est.n_discarded != n_requested:
        return f"{est.n_samples} used + {est.n_discarded} discarded != {n_requested}"
    if not est.ci_low <= est.p_hat <= est.ci_high:
        return f"CI [{est.ci_low}, {est.ci_high}] misses p_hat {est.p_hat}"
    sigma = math.sqrt(p_ref * (1.0 - p_ref) / est.n_samples)
    z = (est.p_hat - p_ref) / sigma
    if abs(z) > Z_LIMIT:
        return f"p_hat {est.p_hat:.6g} is {z:+.1f} sigma from reference {p_ref:.6g}"
    return None


def check_count(n_outages: int, n_samples: int, p_ref: float):
    """An outage count against an exact probability by the exact binomial
    test, for counts too small for a normal approximation."""
    if p_ref <= 0.0:
        return None if n_outages == 0 else f"{n_outages} outages where P_out = 0"
    tail = min(
        stats.binom.cdf(n_outages, n_samples, p_ref),
        stats.binom.sf(n_outages - 1, n_samples, p_ref),
    )
    if tail < TAIL_LEVEL / 2.0:
        return f"{n_outages}/{n_samples} outages; tail {tail:.2g} at reference {p_ref:.6g}"
    return None


# ------------------------------------------------------------------- fits

def wls_slope(points, window):
    """Weighted least-squares slope of -log10(p) against log10(rho), rebuilt
    from the documented fit contract.

    ``points`` are (rho_db, n_samples, n_outages). Returns
    (d_hat, points_used, points_dropped), or None when fewer than two
    points in the window have ``MIN_EVENTS`` outages.
    """
    low, high = window
    inside = [p for p in points if low - 1e-9 <= p[0] <= high + 1e-9]
    usable = np.array([p for p in inside if p[2] >= MIN_EVENTS], dtype=float).reshape(-1, 3)
    if len(usable) < 2:
        return None
    db, n, k = usable.T
    p = k / n
    p_eff = np.minimum(p, 1.0 - 0.5 / n)
    weight = n * p_eff * math.log(10.0) ** 2 / (1.0 - p_eff)
    x = db / 10.0
    y = -np.log10(p)
    x_bar = np.sum(weight * x) / np.sum(weight)
    slope = np.sum(weight * (x - x_bar) * y) / np.sum(weight * (x - x_bar) ** 2)
    return float(slope), len(usable), len(inside) - len(usable)


def check_fit(fit, points, window):
    """A ``SlopeFit`` against the slope rebuilt from its input points."""
    expected = wls_slope(points, window)
    if expected is None:
        return "fit returned a slope from fewer than two usable points"
    d_hat, used, dropped = expected
    if abs(fit.d_hat - d_hat) > EXACT_TOL * max(1.0, abs(d_hat)):
        return f"d_hat {fit.d_hat!r} vs rebuilt {d_hat!r}"
    if fit.points_used != used or len(fit.dropped) != dropped:
        return f"used/dropped {fit.points_used}/{len(fit.dropped)} vs {used}/{dropped}"
    return None


def check_compare(report, fit, corners, r: float, tol: float):
    """A ``CompareReport`` against the closed-form curve and its own rule."""
    d = curve_value(corners, r)
    if abs(report.d_analytic - d) > CORNER_TOL:
        return f"d_analytic {report.d_analytic!r} vs closed form {d!r}"
    passed = abs(fit.d_hat - d) <= tol * d + 2.0 * fit.stderr
    if report.passed != passed:
        return f"verdict {report.passed} vs rule {passed}"
    return None


# ------------------------------------------------------------------- gains

def check_gain_report(report, shape: int, n_samples: int):
    """A ``GainDistributionReport`` against the Gamma(shape, 1) law: mean and
    variance within 5 sigma, KS distance within the same tail level."""
    if report.shape != shape or report.n_samples != n_samples:
        return f"shape/n {report.shape}/{report.n_samples} vs {shape}/{n_samples}"
    sd_mean = math.sqrt(shape / n_samples)
    if abs(report.mean - shape) > Z_LIMIT * sd_mean:
        return f"mean {report.mean:.6g} vs {shape}"
    # var(sample variance) ~ (mu4 - sigma^4) / n with mu4 = 3k^2 + 6k for Gamma(k)
    sd_var = math.sqrt((2.0 * shape**2 + 6.0 * shape) / n_samples)
    if abs(report.variance - shape) > Z_LIMIT * sd_var:
        return f"variance {report.variance:.6g} vs {shape}"
    if report.ks_stat > KS_LIMIT / math.sqrt(n_samples):
        return f"KS distance {report.ks_stat:.3g} above {KS_LIMIT / math.sqrt(n_samples):.3g}"
    return None


# ------------------------------------------------------------------ curves

def closed_form_corners(shapes, mu):
    """Corners of the DMT curve of K parallel channels with Gamma(shapes[i])
    gains and weights mu, from the closed form: channels ordered by
    mu_i / n_i descending; r_i = K * (sum of the last i ordered weights),
    d_i = sum of the first K - i ordered antenna counts."""
    k = len(mu)
    order = sorted(range(k), key=lambda i: (-mu[i] / shapes[i], i))
    mu_hat = [mu[i] for i in order]
    n_hat = [shapes[i] for i in order]
    corners = [(0.0, float(sum(n_hat)))]
    for i in range(1, k):
        corners.append((k * math.fsum(mu_hat[k - i:]), float(sum(n_hat[: k - i]))))
    corners.append((float(k), 0.0))
    return corners


def curve_value(corners, r: float) -> float:
    rs, ds = zip(*corners)
    return float(np.interp(r, rs, ds))


def check_curve_csv(text: str, corners, resolution: float = 0.01):
    """Output of ``wdmt curve --format csv``: corners equal the closed form
    and every dense row lies on the interpolated curve."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != "section,r,d":
        return "missing header"
    got_corners, dense = [], []
    for line in lines[1:]:
        section, r, d = line.split(",")
        (got_corners if section == "corner" else dense).append((float(r), float(d)))
    if len(got_corners) != len(corners):
        return f"{len(got_corners)} corners vs {len(corners)}"
    for got, want in zip(got_corners, corners):
        if abs(got[0] - want[0]) > CORNER_TOL or abs(got[1] - want[1]) > CORNER_TOL:
            return f"corner {got} vs closed form {want}"
    k = corners[-1][0]
    if len(dense) != round(k / resolution) + 1:
        return f"{len(dense)} dense rows"
    for r, d in dense:
        if abs(d - curve_value(corners, r)) > EXACT_TOL:
            return f"dense row ({r}, {d}) off the curve"
    return None


def check_case(result, k: int, max_cost: int):
    """One certification case: greedy, vertex, lattice and curve values.

    The greedy and curve values must equal the vertex optimum; the lattice
    value must lie between it and its stated bound k * max_cost / 200.
    """
    exact, greedy, lattice, curve_d = result
    if abs(greedy - exact) > EXACT_TOL:
        return f"greedy {greedy!r} vs vertex {exact!r}"
    if abs(curve_d - exact) > EXACT_TOL:
        return f"curve {curve_d!r} vs vertex {exact!r}"
    if not exact - EXACT_TOL <= lattice <= exact + k * max_cost / 200 + EXACT_TOL:
        return f"lattice {lattice!r} outside bound of vertex {exact!r}"
    return None


# --------------------------------------------------------------- CLI tables

def parse_simulate_csv(text: str):
    lines = text.strip().splitlines()
    if not lines or lines[0].split(",") != SIMULATE_COLUMNS:
        raise ValueError("unexpected header")
    return [dict(zip(SIMULATE_COLUMNS, line.split(","))) for line in lines[1:]]


def check_simulate_csv(text: str, expect: dict, refs: dict):
    """Output of ``wdmt simulate --format csv`` against the command that made
    it and the exact outage probability of every (r, SNR) point.

    ``expect`` holds kind, K, r_list, snr_db, samples, seed and shards;
    ``refs`` maps (r, snr_db) to P_out.
    """
    rows = parse_simulate_csv(text)
    grid = [(r, db) for r in expect["r_list"] for db in expect["snr_db"]]
    if len(rows) != len(grid):
        return f"{len(rows)} rows for {len(grid)} points"
    for row, (r, db) in zip(rows, grid):
        fixed = (row["scenario"], int(row["K"]), int(row["seed"]), int(row["shards"]))
        if fixed != (expect["kind"], expect["K"], expect["seed"], expect["shards"]):
            return f"row fields {fixed}"
        if abs(float(row["r"]) - r) > EXACT_TOL or abs(float(row["rho_db"]) - db) > EXACT_TOL:
            return f"row at ({row['r']}, {row['rho_db']}) where ({r}, {db}) expected"
        n, k = int(row["n_samples"]), int(row["n_outages"])
        if n != expect["samples"]:
            return f"{n} samples at ({r}, {db})"
        p_hat = float(row["p_hat"])
        if p_hat != k / n or not float(row["ci_low"]) <= p_hat <= float(row["ci_high"]):
            return f"p_hat/CI inconsistent at ({r}, {db})"
        reason = check_count(k, n, refs[(r, db)])
        if reason:
            return f"({r}, {db} dB): {reason}"
    return None


def check_fit_output(stdout: str, code: int, rows, window, corners):
    """Output of ``wdmt fit`` against slopes rebuilt from its input table.

    Every r gets one line: ``FAIL (...)`` when fewer than two points are
    usable, else d_hat and d_analytic matching the rebuilt slope and the
    closed-form curve to print precision. Exit code 3 exactly when some
    line says FAIL.
    """
    if code not in (0, 3):
        return f"exit code {code}"
    by_r: dict[float, list] = {}
    for row in rows:
        by_r.setdefault(float(row["r"]), []).append(
            (float(row["rho_db"]), int(row["n_samples"]), int(row["n_outages"]))
        )
    lines = stdout.strip().splitlines()
    if len(lines) != len(by_r):
        return f"{len(lines)} lines for {len(by_r)} rates"
    any_fail = False
    for line, r in zip(lines, sorted(by_r)):
        if not line.startswith(f"r={r:g}: "):
            return f"line {line!r} for r={r:g}"
        expected = wls_slope(by_r[r], window)
        if expected is None:
            if "FAIL (" not in line:
                return f"r={r:g}: fit without two usable points"
            any_fail = True
            continue
        fields = dict(tok.split("=", 1) for tok in line.split()[1:] if "=" in tok)
        if abs(float(fields["d_hat"]) - expected[0]) > PRINT_TOL:
            return f"r={r:g}: d_hat {fields['d_hat']} vs rebuilt {expected[0]:.6f}"
        if fields["d_analytic"] != f"{curve_value(corners, r):.4f}":
            return f"r={r:g}: d_analytic {fields['d_analytic']}"
        if int(fields["points"]) != expected[1]:
            return f"r={r:g}: {fields['points']} points vs {expected[1]}"
        any_fail |= fields["verdict"] == "FAIL"
    if (code == 3) != any_fail:
        return f"exit code {code} with FAIL lines: {any_fail}"
    return None
