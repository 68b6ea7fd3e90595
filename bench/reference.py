"""Exact finite-SNR outage probabilities for the benchmark's K = 2 scenarios.

Outage is the event K * sum_i mu_i log(1 + mu_i rho gamma_i) <= r log rho,
the definition ``wdmt.channel_sim.outage_probability`` estimates. The
references here depend on no random stream, so a sampler may change its
draws without the benchmark calling its estimates wrong.

* Independent gains (``parallel-*`` and ``bc-dpc``): gamma_i ~ Gamma(a_i, 1)
  independent, in encode order. Conditioning on gamma_1 leaves a regularized
  incomplete gamma function, so P_out is a 1-D integral.
* ``bc-zf`` with K = 2 and M antennas: gamma_i = X_i * s with X_i ~ Gamma(M)
  the squared row norms and s = 1 - |<h1/|h1|, h2/|h2|>|^2 ~ Beta(M - 1, 1),
  all independent. Conditioning on s reduces to the independent case, so
  P_out is a 2-D integral.
"""

from __future__ import annotations

import math

from scipy import integrate, special

_EPSREL = 1e-9


def outage_independent(
    shapes, mu, threshold: float, gain_scale: float, epsrel: float = _EPSREL
) -> float:
    """P{2 sum_i mu_i log(1 + mu_i gain_scale gamma_i) <= threshold} for two
    independent Gamma(shapes[i], 1) gains."""
    (a1, a2), (m1, m2) = shapes, mu
    k = 2
    if threshold <= 0.0:
        return 0.0
    # Beyond a1 + 60 the Gamma(a1) density is below e^-50 for every shape
    # the benchmark uses, so capping keeps quad on the region with mass.
    g_max = min(math.expm1(threshold / (k * m1)) / (m1 * gain_scale), a1 + 60.0)

    def integrand(g: float) -> float:
        if g <= 0.0:
            return 0.0
        rest = threshold - k * m1 * math.log1p(m1 * gain_scale * g)
        h = math.expm1(rest / (k * m2)) / (m2 * gain_scale)
        density = math.exp((a1 - 1) * math.log(g) - g - math.lgamma(a1))
        return density * float(special.gammainc(a2, max(h, 0.0)))

    value, _ = integrate.quad(integrand, 0.0, g_max, epsabs=0.0, epsrel=epsrel, limit=200)
    return value


def outage_zf(m: int, mu, threshold: float, rho: float, epsrel: float = _EPSREL) -> float:
    """Zero-forcing outage for K = 2 users and ``m`` transmit antennas."""

    def integrand(s: float) -> float:
        if s <= 0.0:
            return 0.0
        density = (m - 1) * s ** (m - 2)
        return density * outage_independent((m, m), mu, threshold, rho * s, epsrel)

    value, _ = integrate.quad(integrand, 0.0, 1.0, epsabs=0.0, epsrel=epsrel, limit=200)
    return value


def exact_outage(scenario, r: float, rho: float, epsrel: float = _EPSREL) -> float:
    """Exact outage probability of a K = 2 ``wdmt.Scenario`` at (r, rho),
    to relative accuracy ``epsrel``."""
    if scenario.k != 2:
        raise ValueError(f"exact reference covers K = 2 only, got K = {scenario.k}")
    threshold = r * math.log(rho)
    mu = tuple(scenario.weights.mu[i] for i in scenario.encode_order())
    if scenario.kind == "bc-zf":
        return outage_zf(scenario.m, mu, threshold, rho, epsrel)
    return outage_independent(scenario.gain_shapes(), mu, threshold, rho, epsrel)
