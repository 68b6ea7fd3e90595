"""Closed-form DMT curves for weighted parallel channels and for MISO
broadcast channels under zero-forcing and dirty-paper precoding.

The diversity exponent at multiplexing gain r solves the linear program

    minimize    sum_k n_k * alpha_k
    subject to  sum_k mu_k * alpha_k >= 1 - r/K,   0 <= alpha_k <= 1.

Its value as a function of r is piecewise linear; :func:`dmt_different`
emits the corner points directly and :func:`lp_greedy` returns the
minimizing exponent vector via the sequential clipping rule. Both are
certified against the independent solvers in :mod:`wdmt.lp_oracle`.

Every scenario kind is read off the same parallel-channel curve: at high
SNR the ZF and DPC weighted sum rates behave as K parallel single-user
channels whose antenna counts are the Gamma shapes of
``Scenario.gain_shapes()``, so :func:`curve_for_scenario` is the one
constructor for all four kinds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .core import (
    AntennaProfile,
    DmtCurve,
    Scenario,
    Weights,
    check_real,
    check_sequence,
    ordering,
    validate_weights,
)

__all__ = [
    "ExponentSolution",
    "dmt_different",
    "lp_greedy",
    "optimal_weights",
    "curve_for_scenario",
]


@dataclass(frozen=True)
class ExponentSolution:
    """Optimal per-channel outage exponents alpha (in [0,1]) and the
    resulting finite diversity value d = sum_k n_k * alpha_k."""

    alpha: tuple[float, ...]
    d: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(check_real("alpha", x, 0.0, 1.0)
                                                 for x in check_sequence("alpha", self.alpha)))
        object.__setattr__(self, "d", check_real("d", self.d))


def _corner_rates(k: int, mu_desc) -> list[float]:
    """Corner abscissae r(i) = K * (sum of the i smallest ordered weights).

    Computing the tail sum instead of 1 minus the head sum makes r(0) = 0
    exact; r(K) = K is pinned exactly as its own case.
    """
    rates = [0.0]
    for i in range(1, k):
        rates.append(k * math.fsum(mu_desc[k - i :]))
    rates.append(float(k))
    return rates


def dmt_different(profile: AntennaProfile, weights: Weights) -> DmtCurve:
    """DMT of K parallel MISO channels with per-channel antenna counts.

    The weights mu_hat and counts n_hat are read by index in the order of
    :func:`~wdmt.core.ordering` (weight-per-antenna, descending, stable),
    and the corners are
    r(i) = K(1 - sum_{j<=K-i} mu_hat_j) and d(i) = sum_{j<=K-i} n_hat_j,
    with r(K) = K and d(K) = 0. A uniform profile n_t gives the identical
    channels' corners r(i) = K(sum of the i smallest weights),
    d(i) = n_t(K-i). Raises ``DimensionMismatchError`` if the lengths differ.
    """
    order = ordering(weights, profile)
    k = len(profile)
    mu_hat = [weights.mu[i] for i in order]
    n_hat = [profile.n[i] for i in order]
    rates = _corner_rates(k, mu_hat)
    corners = tuple((rates[i], float(sum(n_hat[: k - i]))) for i in range(k + 1))
    return DmtCurve(corners)


def lp_greedy(profile: AntennaProfile, weights: Weights, r: float) -> ExponentSolution:
    """Minimizing exponent vector by greedy sequential clipping.

    In weight-per-antenna order, each channel absorbs as much of the rate
    constraint 1 - r/K as its box allows:

        x_hat_i = min[ (1 - r/K - sum_{j<i} mu_hat_j)^+ / mubar_hat_i , n_hat_i ]

    with alpha = x / n returned in the original channel indexing. The
    objective equals the curve value: ``dmt_different(...).evaluate(r)``.
    Raises ``DimensionMismatchError`` if the lengths differ, at every r.
    """
    order = ordering(weights, profile)
    k = len(profile)
    r = check_real("r", r, 0.0, k)
    if r == 0.0:
        return ExponentSolution((1.0,) * k, float(profile.total_diversity()))
    mu, n = weights.mu, profile.n
    bound = 1.0 - r / k
    x = [0.0] * k  # by original index, filled in weight-per-antenna order
    consumed = 0.0  # sum of mu over fully saturated channels
    for i in order:
        per_antenna = mu[i] / n[i]
        residual = bound - consumed
        x[i] = min(max(residual, 0.0) / per_antenna, float(n[i]))
        consumed += mu[i]
    return ExponentSolution(tuple(x_i / n_i for x_i, n_i in zip(x, n)), math.fsum(x))


def optimal_weights(profile: AntennaProfile) -> Weights:
    """Weights proportional to antenna counts, mu_i = n_i / sum_j n_j.

    These maximize the DMT pointwise: the resulting curve is the straight
    line d(r) = d(0) (1 - r/K).
    """
    total = profile.total_diversity()
    return validate_weights(tuple(n / total for n in profile.n))


@lru_cache(maxsize=128)
def curve_for_scenario(scenario: Scenario) -> DmtCurve:
    """Analytic DMT curve for any scenario kind.

    The scenario's equivalent parallel model: one channel per gain, with
    ``scenario.gain_shapes()`` as antenna counts and
    ``scenario.encoded_weights()`` as weights. For bc-zf that is K channels of
    m - K + 1 antennas; for bc-dpc the user encoded j-th (0-based) gets
    m - j antennas.

    Cached by the frozen scenario, so a sweep over the rate builds its curve
    once and equal scenarios share one (immutable) curve.
    """
    return dmt_different(
        AntennaProfile(scenario.gain_shapes()), Weights(scenario.encoded_weights())
    )
