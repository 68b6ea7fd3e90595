import math
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import special, stats

from wdmt import (
    AntennaProfile,
    ChannelMatrix,
    DimensionMismatchError,
    EffectiveGains,
    OutOfRangeError,
    OutageEstimate,
    RankDeficientError,
    Scenario,
    TooManyUsersError,
    confidence_interval,
    dpc_gains,
    outage_probability,
    sample_channel,
    validate_gain_distribution,
    validate_weights,
    weighted_capacity,
    zf_gains,
)
from wdmt.channel_sim import (
    _BLOCK,
    _ERLANG_MAX_SHAPE,
    _SQRT_HALF,
    _Workspace,
    _chunk_gains,
    _matrix_gains,
)


def k1_outage_oracle(rho, r):
    """P(|h|^2 <= (rho^r - 1)/rho) for a scalar Rayleigh channel."""
    return 1.0 - math.exp(-((rho**r) - 1.0) / rho)


def projection_residual_sq(target, onto):
    """Independent least-squares oracle: squared norm of target minus its
    projection onto the row span of `onto` (empty span allowed)."""
    if onto.shape[0] == 0:
        return float(np.vdot(target, target).real)
    coef, *_ = np.linalg.lstsq(onto.T, target, rcond=None)
    resid = target - onto.T @ coef
    return float(np.vdot(resid, resid).real)


def reference_gamma_rows(rng, shapes, n):
    """(k, n) Gamma(shape, 1) rows, drawn one row after another: shape
    a <= ``_ERLANG_MAX_SHAPE`` as -log of the product over the first axis
    of an (a, n) block of 1 - U factors, a larger shape by one
    ``standard_gamma`` call."""
    return np.stack([
        -np.log(np.prod(1.0 - rng.random((a, n)), axis=0))
        if a <= _ERLANG_MAX_SHAPE
        else rng.standard_gamma(a, n)
        for a in shapes
    ])


def chunk_gains(scenario, rng, n):
    """``_chunk_gains`` in a workspace of its own, as an (n, k) array."""
    return _chunk_gains(scenario, rng, n, _Workspace(scenario, n)).T


def reference_chunk_gains(scenario, rng, n):
    """Reference for ``_chunk_gains``, same draws in the same order: Gamma
    rows by ``reference_gamma_rows``, and for bc-zf the forward
    substitution on complex (k, k, n) arrays with an einsum."""
    k = scenario.k
    if scenario.kind != "bc-zf":
        return reference_gamma_rows(rng, scenario.gain_shapes(), n).T
    inv_diag = 1.0 / np.sqrt(reference_gamma_rows(rng, range(scenario.m, scenario.m - k, -1), n))
    z = rng.standard_normal((2, k * (k - 1) // 2, n))
    below = (z[0] + 1j * z[1]) * _SQRT_HALF
    inv = np.zeros((k, k, n), dtype=complex)
    start = 0
    for i in range(k):
        l_row = below[start : start + i]
        start += i
        inv[i, :i] = -np.einsum("jn,jcn->cn", l_row, inv[:i, :i]) * inv_diag[i]
        inv[i, i] = inv_diag[i]
    return 1.0 / (inv.real**2 + inv.imag**2).sum(axis=0).T


def reference_confidence_interval(n_outages, n_samples, level=0.95):
    """Reference for ``confidence_interval`` on scipy.stats distributions."""
    p = n_outages / n_samples
    if n_outages >= 20:
        half = stats.norm.ppf(0.5 + level / 2) * math.sqrt(p * (1.0 - p) / n_samples)
        return max(0.0, p - half), min(1.0, p + half)
    alpha = 1.0 - level
    low = 0.0
    if n_outages > 0:
        low = float(stats.beta.ppf(alpha / 2, n_outages, n_samples - n_outages + 1))
    high = 1.0
    if n_outages < n_samples:
        high = float(stats.beta.ppf(1 - alpha / 2, n_outages + 1, n_samples - n_outages))
    return low, high


def gamma_scenario(kind, m, k):
    """A scenario with M = m antennas and K = k channels; the parallel kinds
    take the broadcast kinds' equivalent gains (ZF: m - k + 1 each; DPC:
    m, m - 1, ...)."""
    w = validate_weights(tuple(np.arange(k, 0, -1) / (k * (k + 1) / 2)))
    if kind == "parallel-identical":
        return Scenario(kind=kind, weights=w, n_t=m - k + 1)
    if kind == "parallel-different":
        return Scenario(kind=kind, weights=w, profile=AntennaProfile(tuple(range(m, m - k, -1))))
    return Scenario(kind=kind, weights=w, m=m)


class TestSampleChannel:
    def test_same_seed_same_matrix(self):
        a = sample_channel(4, 2, 123)
        b = sample_channel(4, 2, 123)
        assert np.array_equal(a.h, b.h)

    def test_shape_and_convention(self):
        ch = sample_channel(5, 3, 0)
        assert ch.h.shape == (3, 5)
        assert ch.n_users == 3 and ch.n_tx == 5

    def test_entry_power_is_unit(self):
        ch = sample_channel(50_000, 2, 7)  # 1e5 entries
        assert abs(np.mean(np.abs(ch.h) ** 2) - 1.0) < 0.02

    def test_row_norm_mean_matches_antenna_count(self):
        rep = validate_gain_distribution(
            Scenario(kind="parallel-identical", weights=validate_weights((1.0,)), n_t=3),
            index=0,
            n_samples=1_000_000,
            seed=11,
        )
        assert abs(rep.mean - 3.0) < 0.01

    def test_entry_power_is_unit_exponential(self):
        # |entry|^2 of a scalar channel is Exp(1); KS below the 1% critical
        # value at 1e5 samples
        rep = validate_gain_distribution(
            Scenario(kind="parallel-identical", weights=validate_weights((1.0,)), n_t=1),
            index=0,
            n_samples=100_000,
            seed=13,
        )
        assert rep.ks_stat < 1.63 / math.sqrt(100_000)

    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            sample_channel(0, 2, 1)


class TestZfGains:
    def test_single_user_keeps_full_norm(self):
        ch = sample_channel(4, 1, 3)
        g = zf_gains(ch)
        assert g.gamma[0] == pytest.approx(np.vdot(ch.h[0], ch.h[0]).real, rel=1e-12)

    def test_orthogonal_rows_unchanged(self):
        h = np.zeros((2, 3), dtype=complex)
        h[0, 0] = 1 + 2j
        h[1, 1] = 3 - 1j
        g = zf_gains(ChannelMatrix(h))
        assert g.gamma == pytest.approx((5.0, 10.0), rel=1e-12)

    def test_matches_least_squares_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            k = int(rng.integers(1, 5))
            m = int(rng.integers(k, k + 3))
            ch = sample_channel(m, k, rng)
            g = zf_gains(ch)
            for i in range(k):
                others = np.delete(ch.h, i, axis=0)
                expected = projection_residual_sq(ch.h[i], others)
                assert abs(g.gamma[i] - expected) <= 1e-10 * max(expected, 1.0)

    def test_mean_gain_is_residual_dimension(self):
        # M=3, K=2 leaves one complex dimension free: Gamma(2,1), mean 2
        s = Scenario(kind="bc-zf", weights=validate_weights((0.5, 0.5)), m=3)
        for index in (0, 1):
            rep = validate_gain_distribution(s, index, 1_000_000, seed=19 + index)
            assert abs(rep.mean - 2.0) < 0.01

    def test_rank_deficient_detected(self):
        h = np.array([[1.0, 2.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 1.0]], dtype=complex)
        with pytest.raises(RankDeficientError):
            zf_gains(ChannelMatrix(h))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_non_finite_channel_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ChannelMatrix([[bad, 1.0, 0.0], [0.0, 1.0, 0.0]])

    @pytest.mark.parametrize(
        "h",
        [[[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]], [[1.0, 0.0], [2.0, 0.0]]],
        ids=["near-zero-pivot", "exact-zero-pivot"],
    )
    def test_collinear_pair_rank_deficient(self, h):
        # each interferer set is a single nonzero row, yet H itself is singular
        with pytest.raises(RankDeficientError):
            zf_gains(ChannelMatrix(np.array(h, dtype=complex)))

    def test_too_many_users(self):
        with pytest.raises(TooManyUsersError):
            zf_gains(sample_channel(2, 3, 5))


class TestDpcGains:
    def test_first_user_keeps_full_norm(self):
        ch = sample_channel(4, 3, 23)
        g = dpc_gains(ch, (1, 0, 2))
        assert g.gamma[1] == pytest.approx(np.vdot(ch.h[1], ch.h[1]).real, rel=1e-12)

    def test_orthogonal_square_system_unchanged(self):
        h = np.diag([1 + 1j, 2.0, 3j]).astype(complex)
        g = dpc_gains(ChannelMatrix(h), (0, 1, 2))
        assert g.gamma == pytest.approx((2.0, 4.0, 9.0), rel=1e-12)

    def test_matches_least_squares_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            k = int(rng.integers(1, 5))
            m = int(rng.integers(k, k + 3))
            ch = sample_channel(m, k, rng)
            order = tuple(rng.permutation(k))
            g = dpc_gains(ch, order)
            for pos, user in enumerate(order):
                prior = ch.h[list(order[:pos])]
                expected = projection_residual_sq(ch.h[user], prior)
                assert abs(g.gamma[user] - expected) <= 1e-10 * max(expected, 1.0)

    def test_mean_gains_shrink_along_encode_order(self):
        s = Scenario(kind="bc-dpc", weights=validate_weights((0.5, 0.5)), m=3)
        rep0 = validate_gain_distribution(s, 0, 1_000_000, seed=31)
        rep1 = validate_gain_distribution(s, 1, 1_000_000, seed=37)
        assert abs(rep0.mean - 3.0) < 0.015
        assert abs(rep1.mean - 2.0) < 0.01

    def test_bad_order_rejected(self):
        ch = sample_channel(3, 2, 41)
        with pytest.raises(ValueError):
            dpc_gains(ch, (0, 0))

    def test_rank_deficient_detected(self):
        h = np.array([[0.0, 0.0, 1.0], [1.0, 2.0, 0.0], [2.0, 4.0, 0.0]], dtype=complex)
        with pytest.raises(RankDeficientError):
            dpc_gains(ChannelMatrix(h), (1, 2, 0))

    def test_collinear_last_row_keeps_zero_gain(self):
        # the last-encoded row is never projected against, so its ~0 gain stands
        h = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 1.0], [2.0, 4.0, 0.0]], dtype=complex)
        g = dpc_gains(ChannelMatrix(h), (0, 1, 2))
        assert g.gamma[:2] == pytest.approx((5.0, 1.0), rel=1e-12)
        assert g.gamma[2] == pytest.approx(0.0, abs=1e-20)


class TestWeightedCapacity:
    def test_one_nat_identity(self):
        cap = weighted_capacity(
            EffectiveGains((1.0,)), validate_weights((1.0,)), math.e - 1.0
        )
        assert cap == pytest.approx(1.0, abs=1e-15)

    def test_zero_gains_zero_rate(self):
        cap = weighted_capacity(
            EffectiveGains((0.0, 0.0)), validate_weights((0.5, 0.5)), 10.0
        )
        assert cap == 0.0

    def test_uniform_pair_closed_form(self):
        cap = weighted_capacity(
            EffectiveGains((1.0, 1.0)), validate_weights((0.5, 0.5)), 10.0
        )
        assert cap == pytest.approx(2.0 * math.log(6.0), rel=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            weighted_capacity(EffectiveGains((1.0,)), validate_weights((0.5, 0.5)), 1.0)

    def test_bad_snr(self):
        with pytest.raises(OutOfRangeError):
            weighted_capacity(EffectiveGains((1.0,)), validate_weights((1.0,)), 0.0)

    def test_nan_snr(self):
        with pytest.raises(OutOfRangeError):
            weighted_capacity(EffectiveGains((1.0,)), validate_weights((1.0,)), math.nan)

    @pytest.mark.parametrize("gamma", [(math.inf, 1.0), (math.nan,), (-1.0,)])
    def test_bad_gains_rejected(self, gamma):
        with pytest.raises(ValueError, match="finite and >= 0"):
            EffectiveGains(gamma)


class TestOutageProbability:
    scalar = Scenario(kind="parallel-identical", weights=validate_weights((1.0,)), n_t=1)

    def test_matches_closed_form_oracle(self):
        est = outage_probability(self.scalar, r=0.5, rho=10.0, n_samples=1_000_000, seed=43)
        truth = k1_outage_oracle(10.0, 0.5)
        assert truth == pytest.approx(0.1945, abs=5e-4)
        assert est.ci_low <= truth <= est.ci_high

    def test_zero_rate_never_in_outage(self):
        est = outage_probability(self.scalar, r=0.0, rho=1e4, n_samples=100_000, seed=47)
        assert est.n_outages == 0
        assert est.p_hat == 0.0

    def test_deterministic_given_seed_and_shards(self):
        s = Scenario(kind="bc-dpc", weights=validate_weights((0.6, 0.4)), m=3)
        a = outage_probability(s, r=1.0, rho=100.0, n_samples=30_000, seed=53, shards=4)
        b = outage_probability(s, r=1.0, rho=100.0, n_samples=30_000, seed=53, shards=4)
        assert a == b

    def test_monotone_in_snr_and_rate(self):
        ests_rho = [
            outage_probability(self.scalar, r=0.5, rho=10.0**e, n_samples=100_000, seed=59)
            for e in (1, 2, 3)
        ]
        for lo, hi in zip(ests_rho[1:], ests_rho[:-1]):
            assert lo.p_hat <= hi.p_hat or lo.ci_low <= hi.ci_high
        ests_r = [
            outage_probability(self.scalar, r=r, rho=100.0, n_samples=100_000, seed=61)
            for r in (0.25, 0.5, 0.75)
        ]
        for lo, hi in zip(ests_r[:-1], ests_r[1:]):
            assert lo.p_hat <= hi.p_hat or lo.ci_low <= hi.ci_high

    def test_oracle_coverage_across_grid(self):
        # 95% intervals should cover the closed form at nearly all points
        covered = 0
        points = [(5 + 2 * i, 0.1 + 0.08 * j) for i in range(10) for j in range(10)]
        for idx, (db, r) in enumerate(points):
            rho = 10.0 ** (db / 10.0)
            est = outage_probability(
                self.scalar, r=r, rho=rho, n_samples=20_000, seed=1000 + idx
            )
            covered += est.ci_low <= k1_outage_oracle(rho, r) <= est.ci_high
        assert covered >= 93

    def test_r_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            outage_probability(self.scalar, r=1.5, rho=10.0, n_samples=10, seed=1)
        with pytest.raises(OutOfRangeError):
            outage_probability(self.scalar, r=0.5, rho=0.0, n_samples=10, seed=1)

    def test_parallel_different_runs(self):
        s = Scenario(
            kind="parallel-different",
            weights=validate_weights((2 / 3, 1 / 3)),
            profile=__import__("wdmt").AntennaProfile((2, 1)),
        )
        est = outage_probability(s, r=1.0, rho=100.0, n_samples=50_000, seed=67)
        assert 0.0 < est.p_hat < 1.0

    def test_nan_snr_rejected(self):
        with pytest.raises(OutOfRangeError):
            outage_probability(self.scalar, r=0.5, rho=math.nan, n_samples=10, seed=1)

    def test_infinite_snr_rejected(self):
        with pytest.raises(OutOfRangeError):
            outage_probability(self.scalar, r=0.5, rho=math.inf, n_samples=10, seed=1)

    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
    def test_non_finite_rate_rejected(self, r):
        with pytest.raises(OutOfRangeError):
            outage_probability(self.scalar, r=r, rho=10.0, n_samples=10, seed=1)

    def test_non_integer_sample_count_rejected(self):
        with pytest.raises(OutOfRangeError):
            outage_probability(self.scalar, r=0.5, rho=10.0, n_samples=1e3, seed=1)

    def test_non_integer_shard_count_rejected(self):
        with pytest.raises(OutOfRangeError):
            outage_probability(self.scalar, r=0.5, rho=10.0, n_samples=10, seed=1, shards=2.0)

    @pytest.mark.parametrize("kind", ["parallel-identical", "parallel-different", "bc-zf", "bc-dpc"])
    def test_uses_every_requested_sample(self, kind):
        est = outage_probability(
            gamma_scenario(kind, 3, 2), r=1.0, rho=100.0, n_samples=10_007, seed=73, shards=3
        )
        assert est.n_samples == 10_007
        assert est.n_discarded == 0


class TestGammaSampler:
    """The Monte Carlo sampler (Gamma draws, Bartlett factor for ZF) against
    the QR matrix path (gains read off the R factor of drawn H* = QR), by
    two-sample KS tests on independent seeds. The sampler draws shapes up
    to ``_ERLANG_MAX_SHAPE`` as -log of products of uniforms and larger
    shapes by ``standard_gamma``; the cases below use shapes 1-4, so they
    test the products, and ``TestGammaLaw`` tests both methods. ZF gains are
    dependent, so the joint statistics min_i gamma_i and prod_i gamma_i are
    tested as well as each column."""

    N = 50_000
    P_FLOOR = 1e-4  # about 30 comparisons in all

    @pytest.mark.parametrize(
        "kind, m, k",
        [
            ("parallel-identical", 3, 2),
            ("parallel-different", 3, 2),
            ("bc-dpc", 3, 2),
            ("bc-zf", 3, 2),
            ("bc-zf", 2, 1),
            ("bc-zf", 4, 3),
            ("bc-zf", 4, 4),
        ],
    )
    def test_matches_matrix_path(self, kind, m, k):
        s = gamma_scenario(kind, m, k)
        fast = chunk_gains(s, np.random.default_rng(83), self.N)
        oracle, ok = _matrix_gains(s, np.random.default_rng(89), self.N)
        assert fast.shape == (self.N, k) and ok.all()
        columns = [(f"gamma_{i}", fast[:, i], oracle[:, i]) for i in range(k)]
        joint = [
            ("min", fast.min(axis=1), oracle.min(axis=1)),
            ("prod", fast.prod(axis=1), oracle.prod(axis=1)),
        ]
        for name, a, b in columns + joint:
            p = stats.ks_2samp(a, b).pvalue
            assert p >= self.P_FLOOR, f"{kind} M={m} K={k} {name}: KS p = {p:.2e}"


class TestGammaLaw:
    """Each ``_chunk_gains`` column against its exact Gamma(shape, 1) CDF
    (``special.gammainc``) by a one-sample KS test. Shapes 1-7 sit on both
    sides of ``_ERLANG_MAX_SHAPE``, so both the products of uniforms and the
    ``standard_gamma`` draws are tested; bc-zf columns are the Gamma(m - k + 1)
    marginals, built from Bartlett diagonals of shapes up to 6."""

    N = 50_000
    P_FLOOR = 1e-4  # 34 comparisons in all

    @pytest.mark.parametrize(
        "scenario",
        [
            *(gamma_scenario("parallel-identical", n_t + 1, 2) for n_t in range(1, 8)),
            gamma_scenario("parallel-different", 5, 5),
            gamma_scenario("bc-dpc", 5, 5),
            *(gamma_scenario("bc-zf", m, 2) for m in range(2, 7)),
        ],
        ids=lambda s: f"{s.kind}-shapes{'-'.join(map(str, s.gain_shapes()))}",
    )
    def test_columns_follow_gamma_law(self, scenario):
        gains = chunk_gains(scenario, np.random.default_rng(97), self.N)
        for i, shape in enumerate(scenario.gain_shapes()):
            p = stats.kstest(gains[:, i], lambda x: special.gammainc(shape, x)).pvalue
            assert p >= self.P_FLOOR, f"gamma_{i} ~ Gamma({shape}, 1): KS p = {p:.2e}"


class TestSamplerMatchesReference:
    """``_chunk_gains`` against ``reference_chunk_gains`` on the same
    generator state: the gains must be equal, not merely close."""

    @pytest.mark.parametrize("kind", ["parallel-identical", "parallel-different", "bc-dpc", "bc-zf"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_bit_identical(self, kind, k):
        for m in (k, k + 2):
            s = gamma_scenario(kind, m, k)
            for n in (1, 7, 1000, 30_000):
                rng_fast, rng_ref = np.random.default_rng(k * n + m), np.random.default_rng(k * n + m)
                fast = chunk_gains(s, rng_fast, n)
                assert np.array_equal(fast, reference_chunk_gains(s, rng_ref, n)), (m, n)
                # both leave the stream at the same place
                assert rng_fast.random() == rng_ref.random()


class TestOutageKernel:
    """The blocked, in-place outage kernel against a rebuild of its count
    from ``reference_chunk_gains``, block by block, with the capacity
    formula K * (log1p(mu rho gamma) @ mu). The two formulas add the K terms
    in different orders, so a sample whose reference capacity lies within
    4 K eps (relative) of the threshold may fall on either side."""

    @pytest.mark.parametrize("kind", ["parallel-identical", "parallel-different", "bc-dpc", "bc-zf"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_count_matches_reference(self, kind, k):
        s = gamma_scenario(kind, k + 1, k)
        r, rho, seed, shards = 0.75 * k, 10.0, 103, 3
        n_samples = shards * (_BLOCK + 777) + 2  # uneven shards, a short last block
        mu = np.asarray([s.weights.mu[i] for i in s.encode_order()])
        threshold = r * math.log(rho)
        tol = 4 * k * np.finfo(float).eps * threshold
        quota, extra = divmod(n_samples, shards)
        below = near = 0
        for index, child in enumerate(np.random.SeedSequence(seed).spawn(shards)):
            rng = np.random.default_rng(child)
            remaining = quota + (index < extra)
            while remaining > 0:
                n = min(_BLOCK, remaining)
                remaining -= n
                capacity = k * (np.log1p(mu * rho * reference_chunk_gains(s, rng, n)) @ mu)
                close = np.abs(capacity - threshold) <= tol
                below += int((capacity[~close] <= threshold).sum())
                near += int(close.sum())
        est = outage_probability(s, r, rho, n_samples, seed, shards)
        assert 0 < below and below <= est.n_outages <= below + near

    def test_peak_memory_is_one_workspace(self):
        # one block's buffers, not 2^20-sample temporaries (18 MB before blocking)
        s = gamma_scenario("bc-zf", 3, 2)
        tracemalloc.start()
        try:
            outage_probability(s, r=1.0, rho=100.0, n_samples=1 << 20, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    class ZeroUniforms:
        """A generator stub whose uniforms are all exactly 0.0."""

        def random(self, size=None, dtype=np.float64, out=None):
            out.fill(0.0)
            return out

    # bc-zf is left out: a zero Bartlett diagonal is a singular Gram matrix.
    @pytest.mark.parametrize("kind", ["parallel-identical", "parallel-different", "bc-dpc"])
    def test_zero_uniform_gives_zero_gain(self, kind):
        s = gamma_scenario(kind, _ERLANG_MAX_SHAPE, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            gains = chunk_gains(s, self.ZeroUniforms(), 100)
        assert np.isfinite(gains).all() and (gains == 0.0).all()


class TestConfidenceInterval:
    def test_normal_regime(self):
        lo, hi = confidence_interval(500, 10_000)
        p = 0.05
        half = 1.959963984540054 * math.sqrt(p * (1 - p) / 10_000)
        assert lo == pytest.approx(p - half, rel=1e-9)
        assert hi == pytest.approx(p + half, rel=1e-9)

    def test_clopper_pearson_regime(self):
        lo, hi = confidence_interval(0, 1000)
        assert lo == 0.0
        assert hi == pytest.approx(1 - 0.025 ** (1 / 1000), rel=1e-6)
        lo, hi = confidence_interval(5, 1000)
        assert 0.0 < lo < 5 / 1000 < hi < 1.0

    def test_equals_scipy_stats_reference(self):
        for n_samples in (1, 2, 19, 20, 21, 1000, 5000, 10**7):
            for n_outages in {0, 1, 2, 7, 19, 20, 21, n_samples // 2, n_samples - 1, n_samples}:
                if not 0 <= n_outages <= n_samples:
                    continue
                for level in (0.95, 0.9, 0.99, 0.5):
                    assert confidence_interval(n_outages, n_samples, level) == (
                        reference_confidence_interval(n_outages, n_samples, level)
                    ), (n_outages, n_samples, level)

    @pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.5, math.nan, math.inf])
    def test_level_outside_unit_interval_rejected(self, level):
        for n_outages, n_samples in ((5, 10), (50, 100)):
            with pytest.raises(OutOfRangeError):
                confidence_interval(n_outages, n_samples, level=level)

    @pytest.mark.parametrize("n_outages, n_samples", [(5, 0), (-3, 10), (12, 10), (2.5, 10)])
    def test_bad_counts_rejected(self, n_outages, n_samples):
        with pytest.raises(OutOfRangeError):
            confidence_interval(n_outages, n_samples)

    def test_estimate_invariants(self):
        with pytest.raises(ValueError):
            OutageEstimate(rho=10.0, r=0.5, n_samples=100, n_outages=200,
                           ci_low=0.0, ci_high=1.0)
        with pytest.raises(ValueError):
            OutageEstimate(rho=10.0, r=0.5, n_samples=100, n_outages=50,
                           ci_low=0.9, ci_high=1.0)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("n_samples", 10.5),
            ("n_outages", 2.5),
            ("n_outages", True),
            ("rho", math.nan),
            ("rho", math.inf),
            ("rho", 0.0),
            ("r", math.nan),
            ("r", math.inf),
            ("r", -0.5),
        ],
    )
    def test_estimate_rejects_bad_fields(self, name, value):
        fields = dict(rho=10.0, r=0.5, n_samples=10, n_outages=1, ci_low=0.0, ci_high=1.0)
        with pytest.raises(ValueError):
            OutageEstimate(**{**fields, name: value})


class TestValidateGainDistribution:
    def test_scalar_channel_is_unit_exponential(self):
        s = Scenario(kind="parallel-identical", weights=validate_weights((1.0,)), n_t=1)
        rep = validate_gain_distribution(s, 0, 200_000, seed=71)
        assert rep.shape == 1
        assert rep.mean_rel_err < 0.01
        assert rep.var_rel_err < 0.03

    @pytest.mark.parametrize("kind", ["parallel-different", "bc-dpc", "bc-zf"])
    def test_statistics_equal_scipy_stats_reference(self, kind):
        s = gamma_scenario(kind, 3, 2)
        for index in range(2):
            rep = validate_gain_distribution(s, index, 5000, seed=17)
            gains, ok = _matrix_gains(s, np.random.default_rng(17), 5000)
            sample = gains[ok, index]
            assert rep.mean == sample.mean() and rep.variance == sample.var()
            assert rep.ks_stat == stats.kstest(sample, stats.gamma(rep.shape).cdf).statistic

    def test_index_out_of_range(self):
        s = Scenario(kind="bc-zf", weights=validate_weights((0.5, 0.5)), m=3)
        with pytest.raises(OutOfRangeError):
            validate_gain_distribution(s, 2, 1000, seed=1)


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes about a second to import; the package needs only scipy.special
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import wdmt, wdmt.cli; "
        "print('scipy.stats' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"
