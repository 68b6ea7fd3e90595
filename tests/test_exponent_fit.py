import math

import pytest

from wdmt import (
    InsufficientDataError,
    InsufficientEventsError,
    OutOfRangeError,
    OutageEstimate,
    Scenario,
    SlopeFit,
    compare,
    confidence_interval,
    curve_for_scenario,
    fit_slope,
    outage_probability,
    validate_weights,
)


def synthetic_estimate(rho_db, n_samples, n_outages, r=0.5):
    lo, hi = confidence_interval(n_outages, n_samples)
    return OutageEstimate(
        rho=10.0 ** (rho_db / 10.0),
        r=r,
        n_samples=n_samples,
        n_outages=n_outages,
        ci_low=lo,
        ci_high=hi,
    )


def power_law_table(d, scale, db_points, n_samples):
    """Estimates following p = scale * rho^(-d) with exact integer counts."""
    table = []
    for db in db_points:
        p = scale * (10.0 ** (db / 10.0)) ** (-d)
        count = p * n_samples
        assert abs(count - round(count)) < 1e-6, "pick points with integer counts"
        table.append(synthetic_estimate(db, n_samples, int(round(count))))
    return table


class TestFitSlope:
    def test_exact_power_law_recovered(self):
        table = power_law_table(2.0, 1.0, (10, 20, 30), 10**8)
        fit = fit_slope(table, (10, 30))
        assert fit.d_hat == pytest.approx(2.0, abs=1e-9)
        assert fit.stderr == pytest.approx(0.0, abs=1e-6)
        assert fit.points_used == 3
        assert fit.dropped == ()

    def test_prefactor_absorbed_by_intercept(self):
        table = power_law_table(3.0, 7.0, (10, 20, 30), 10**10)
        fit = fit_slope(table, (10, 30))
        assert fit.d_hat == pytest.approx(3.0, abs=1e-9)

    def test_scale_change_leaves_slope_alone(self):
        base = fit_slope(power_law_table(2.0, 1.0, (10, 20, 30), 10**8), (10, 30))
        scaled = fit_slope(power_law_table(2.0, 5.0, (10, 20, 30), 10**8), (10, 30))
        assert scaled.d_hat == pytest.approx(base.d_hat, abs=1e-9)

    def test_window_excludes_outside_points(self):
        table = power_law_table(2.0, 1.0, (10, 20, 30), 10**8)
        fit = fit_slope(table, (15, 35))
        assert fit.points_used == 2

    def test_too_few_points_in_window(self):
        table = power_law_table(2.0, 1.0, (10, 20, 30), 10**8)
        with pytest.raises(InsufficientDataError):
            fit_slope(table, (25, 35))

    def test_two_points_at_one_snr(self):
        table = [synthetic_estimate(20, 10**4, 100), synthetic_estimate(20, 10**4, 90)]
        with pytest.raises(InsufficientDataError, match="one SNR"):
            fit_slope(table, (10, 30))

    def test_low_event_points_dropped_and_reported(self):
        table = [
            synthetic_estimate(10, 10**4, 100),
            synthetic_estimate(20, 10**4, 40),
            synthetic_estimate(30, 10**4, 7),  # below the 20-event floor
        ]
        fit = fit_slope(table, (10, 30))
        assert fit.points_used == 2
        assert fit.dropped == ((30.0, 7),)

    def test_error_when_drops_leave_one_point(self):
        table = [
            synthetic_estimate(10, 10**4, 100),
            synthetic_estimate(20, 10**4, 12),
            synthetic_estimate(30, 10**4, 3),
        ]
        with pytest.raises(InsufficientEventsError) as err:
            fit_slope(table, (10, 30))
        assert len(err.value.dropped) == 2

    def test_scalar_channel_slope_near_half(self):
        # r = 0.5 on a 1x1 channel: asymptotic exponent 0.5, finite-SNR
        # fits sit slightly below it
        scalar = Scenario(
            kind="parallel-identical", weights=validate_weights((1.0,)), n_t=1
        )
        table = [
            outage_probability(scalar, r=0.5, rho=10.0 ** (db / 10.0),
                               n_samples=1_000_000, seed=80 + db)
            for db in (20, 25, 30, 35, 40)
        ]
        fit = fit_slope(table, (20, 40))
        assert abs(fit.d_hat - 0.5) <= 0.15 * 0.5

    def test_sliding_window_climbs_toward_asymptote(self):
        # exact closed-form curve, no sampling noise: higher windows fit
        # steeper slopes, approaching 0.5 from below
        def exact_estimate(db):
            rho = 10.0 ** (db / 10.0)
            p = 1.0 - math.exp(-((rho**0.5) - 1.0) / rho)
            n = 10**12
            return synthetic_estimate(db, n, int(round(p * n)))

        table = [exact_estimate(db) for db in range(10, 61, 5)]
        slopes = [
            fit_slope(table, window).d_hat
            for window in ((10, 25), (20, 35), (30, 45), (45, 60))
        ]
        assert all(b > a for a, b in zip(slopes, slopes[1:]))
        assert all(s < 0.5 for s in slopes)


class TestCompare:
    curve = curve_for_scenario(
        Scenario(kind="parallel-identical", weights=validate_weights((0.5, 0.5)), n_t=2)
    )

    def test_close_fit_passes(self):
        fit = SlopeFit(d_hat=1.9, stderr=0.05, window=(10.0, 30.0), points_used=3)
        report = compare(fit, self.curve, 1.0, tol=0.15)
        assert report.passed
        assert report.d_analytic == 2.0
        assert report.rel_error == pytest.approx(0.05)

    def test_distant_fit_fails(self):
        fit = SlopeFit(d_hat=1.0, stderr=0.0, window=(10.0, 30.0), points_used=3)
        assert not compare(fit, self.curve, 1.0, tol=0.15).passed

    def test_corner_abscissa_uses_exact_ordinate(self):
        fit = SlopeFit(d_hat=2.0, stderr=0.0, window=(10.0, 30.0), points_used=2)
        report = compare(fit, self.curve, 1.0, tol=0.15)
        assert report.d_analytic == 2.0
        assert report.passed
        assert report.rel_error == 0.0

    def test_zero_diversity_at_full_multiplexing(self):
        # d(K) = 0: only an exact zero has a finite relative error
        exact = SlopeFit(d_hat=0.0, stderr=0.0, window=(10.0, 30.0), points_used=2)
        report = compare(exact, self.curve, 2.0)
        assert (report.d_analytic, report.rel_error, report.passed) == (0.0, 0.0, True)
        off = SlopeFit(d_hat=0.3, stderr=0.0, window=(10.0, 30.0), points_used=2)
        report = compare(off, self.curve, 2.0)
        assert (report.rel_error, report.passed) == (math.inf, False)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -0.1])
    def test_tolerance_must_be_finite_and_non_negative(self, tol):
        fit = SlopeFit(d_hat=2.0, stderr=0.0, window=(10.0, 30.0), points_used=2)
        with pytest.raises(OutOfRangeError, match="tol"):
            compare(fit, self.curve, 1.0, tol=tol)

    def test_nan_stderr_rejected(self):
        with pytest.raises(OutOfRangeError, match="stderr"):
            SlopeFit(d_hat=1.0, stderr=math.nan, window=(0, 1), points_used=2)

    def test_stderr_widens_acceptance(self):
        loose = SlopeFit(d_hat=1.5, stderr=0.2, window=(10.0, 30.0), points_used=3)
        tight = SlopeFit(d_hat=1.5, stderr=0.0, window=(10.0, 30.0), points_used=3)
        assert compare(loose, self.curve, 1.0, tol=0.15).passed
        assert not compare(tight, self.curve, 1.0, tol=0.15).passed
