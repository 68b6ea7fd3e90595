"""Empirical diversity exponent estimation.

The outage probability decays as rho^(-d) at high SNR, so d is the slope
of -log10(p) against log10(rho). :func:`fit_slope` estimates it by
weighted least squares, weighting each point by the inverse delta-method
variance of log10(p_hat); points with fewer than 20 outage events are
dropped (and reported), since the log-domain variance approximation is
unreliable below that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import DmtCurve, DmtError, check_count, check_real, check_sequence, check_window

__all__ = [
    "MIN_EVENTS",
    "InsufficientDataError",
    "InsufficientEventsError",
    "SlopeFit",
    "CompareReport",
    "fit_slope",
    "compare",
]

MIN_EVENTS = 20
_LN10_SQ = math.log(10.0) ** 2


class InsufficientDataError(DmtError):
    """Fewer than two estimates fall inside the fitting window."""


class InsufficientEventsError(DmtError):
    """Dropping low-event points left fewer than two usable estimates."""

    def __init__(self, dropped):
        self.dropped = tuple(dropped)
        points = ", ".join(f"{db:.6g} dB ({k} events)" for db, k in self.dropped)
        super().__init__(
            f"fewer than 2 points with >= {MIN_EVENTS} outage events; dropped: {points}"
        )


@dataclass(frozen=True)
class SlopeFit:
    """Fitted diversity exponent with its regression standard error.

    ``window`` is the fit's (low, high) SNR range in dB, checked as
    :func:`fit_slope` checks it. ``dropped`` lists (rho_db, n_outages) of
    in-window points excluded for having fewer than ``MIN_EVENTS`` outage
    events.
    """

    d_hat: float
    stderr: float
    window: tuple[float, float]
    points_used: int
    dropped: tuple[tuple[float, int], ...] = ()

    def __post_init__(self):
        check_count("points_used", self.points_used, 2)
        object.__setattr__(self, "d_hat", check_real("d_hat", self.d_hat))
        object.__setattr__(self, "stderr", check_real("stderr", self.stderr, 0.0))
        object.__setattr__(self, "window", check_window(*check_sequence("window", self.window, 2)))


@dataclass(frozen=True)
class CompareReport:
    """Fitted exponent against the analytic curve at one multiplexing gain."""

    r: float
    d_hat: float
    stderr: float
    d_analytic: float
    rel_error: float
    tol: float
    passed: bool


def fit_slope(estimates, window: tuple[float, float]) -> SlopeFit:
    """Weighted least-squares slope of -log10(p_hat) vs log10(rho).

    ``window`` is a finite, inclusive (low, high) SNR range in dB. Weights are the
    inverse delta-method variances var(log10 p_hat) ~ (1-p) / (n p ln^2 10);
    the standard error comes from the weighted residuals (zero for an exact
    power law).

    Raises
    ------
    InsufficientDataError
        If fewer than two estimates lie inside the window.
    InsufficientEventsError
        If dropping points with fewer than ``MIN_EVENTS`` outage events
        leaves fewer than two.
    """
    low, high = check_window(*check_sequence("window", window, 2))
    inside = [e for e in estimates if low - 1e-9 <= e.rho_db <= high + 1e-9]
    if len(inside) < 2:
        raise InsufficientDataError(
            f"{len(inside)} estimates inside [{low}, {high}] dB; need >= 2"
        )
    usable = [e for e in inside if e.n_outages >= MIN_EVENTS]
    dropped = tuple(
        (e.rho_db, e.n_outages) for e in inside if e.n_outages < MIN_EVENTS
    )
    if len(usable) < 2:
        raise InsufficientEventsError(dropped)

    xs, ys, ws = [], [], []
    for e in usable:
        p = e.p_hat
        # keep the variance finite when every sample was in outage
        p_eff = min(p, 1.0 - 0.5 / e.n_samples)
        var = (1.0 - p_eff) / (e.n_samples * p_eff) / _LN10_SQ
        xs.append(math.log10(e.rho))
        ys.append(-math.log10(p))
        ws.append(1.0 / var)

    w_total = math.fsum(ws)
    x_bar = math.fsum(w * x for w, x in zip(ws, xs)) / w_total
    s_xx = math.fsum(w * (x - x_bar) ** 2 for w, x in zip(ws, xs))
    if s_xx == 0.0:
        raise InsufficientDataError("all usable points share one SNR value")
    slope = math.fsum(w * (x - x_bar) * y for w, x, y in zip(ws, xs, ys)) / s_xx

    if len(usable) == 2:
        stderr = 0.0
    else:
        y_bar = math.fsum(w * y for w, y in zip(ws, ys)) / w_total
        intercept = y_bar - slope * x_bar
        rss = math.fsum(
            w * (y - intercept - slope * x) ** 2 for w, x, y in zip(ws, xs, ys)
        )
        stderr = math.sqrt(max(rss / (len(usable) - 2), 0.0) / s_xx)

    return SlopeFit(
        d_hat=slope,
        stderr=stderr,
        window=(low, high),
        points_used=len(usable),
        dropped=dropped,
    )


def compare(fit: SlopeFit, curve: DmtCurve, r: float, tol: float = 0.15) -> CompareReport:
    """Verdict on whether the fitted exponent matches the analytic value.

    Passes when |d_hat - d(r)| <= tol * d(r) + 2 * stderr, for a finite tol >= 0.
    ``rel_error`` is the gap over d(r), and ``inf`` where d(r) = 0 < |d_hat|.
    """
    tol = check_real("tolerance", tol, 0.0)
    d = curve.evaluate(r)
    gap = abs(fit.d_hat - d)
    if d > 0.0:
        rel = gap / d
    else:
        rel = 0.0 if gap == 0.0 else math.inf
    return CompareReport(
        r=float(r),
        d_hat=fit.d_hat,
        stderr=fit.stderr,
        d_analytic=d,
        rel_error=rel,
        tol=tol,
        passed=gap <= tol * d + 2.0 * fit.stderr,
    )
