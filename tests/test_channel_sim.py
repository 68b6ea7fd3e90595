import copy
import itertools
import math
import os
import select
import signal
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special, stats

from wdmt import (
    SCENARIO_KINDS,
    AntennaProfile,
    OutOfRangeError,
    OutageEstimate,
    Scenario,
    TooManyUsersError,
    confidence_interval,
    outage_probability,
    outage_table,
    validate_gain_distribution,
    validate_weights,
)
from wdmt import channel_sim
from wdmt.channel_sim import (
    _BLOCK,
    _ERLANG_MAX_SHAPE,
    _SQRT_HALF,
    _Workspace,
    _blocks,
    _capacity,
    _chunk_gains,
    _generator,
    _matrix_gains,
    _qr_gains,
    _root,
    _sample_rows,
    _shard_states,
)
from wdmt.core import _MAX_RHO


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


def sq_norms(rows):
    """Squared norm of each row, summed independently of the package."""
    return (rows.real**2 + rows.imag**2).sum(axis=-1)


def one_matrix_gains(h, zf):
    """``_qr_gains`` of a single K x M matrix: (gains (k,), ok)."""
    gains, ok = _qr_gains(np.asarray(h, dtype=complex)[None], zf)
    return gains[0], bool(ok[0])


def capacity(mu, rho, gains):
    """``_capacity`` of one gain vector."""
    column = np.array(gains, dtype=float)[:, None]
    return float(_capacity(np.asarray(mu), [(rho, slice(0, 1))], column, np.empty(1))[0])


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
    return _chunk_gains(scenario, [(rng, slice(0, n))], _Workspace(scenario, n)).T


def reference_chunk_gains(scenario, rng, n):
    """Reference for ``_chunk_gains``, same draws in the same order: Gamma
    rows by ``reference_gamma_rows``; for bc-zf at K = 2 the rows X_0, X_1,
    E of shapes M, M - 1, 1 and the gains (X_0 X_1 / (X_1 + E), X_1); for
    bc-zf at K >= 3 the forward substitution on complex (k, k, n) arrays
    with an einsum."""
    k = scenario.k
    if scenario.kind != "bc-zf":
        return reference_gamma_rows(rng, scenario.gain_shapes(), n).T
    if k == 2:
        x0, x1, e = reference_gamma_rows(rng, (scenario.m, scenario.m - 1, 1), n)
        return np.stack([x0 * x1 / (x1 + e), x1]).T
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


def shard_generators(roots, shards):
    """The generators of ``_shard_states``, as a table's kernel builds them."""
    return [_generator(words) for words in _shard_states(roots, shards)]


def reference_confidence_interval(n_outages, n_samples):
    """Reference for ``confidence_interval`` on scipy.stats distributions."""
    level = 0.95
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
        a = _sample_rows(np.random.default_rng(123), 5, 2, 4)
        b = _sample_rows(np.random.default_rng(123), 5, 2, 4)
        assert np.array_equal(a, b)

    def test_shape_and_convention(self):
        # n stacked K x M channels; row i of each is user i's channel
        rows = _sample_rows(np.random.default_rng(0), 4, 3, 5)
        assert rows.shape == (4, 3, 5) and rows.dtype == complex

    def test_entry_power_is_unit(self):
        rows = _sample_rows(np.random.default_rng(7), 1, 2, 50_000)  # 1e5 entries
        assert abs(np.mean(np.abs(rows) ** 2) - 1.0) < 0.02

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


class TestZfGains:
    """ZF gains of the QR oracle, ``_qr_gains(rows, zf=True)``."""

    def test_single_user_keeps_full_norm(self):
        rows = _sample_rows(np.random.default_rng(3), 50, 1, 4)
        gains, ok = _qr_gains(rows, zf=True)
        assert ok.all()
        np.testing.assert_allclose(gains, sq_norms(rows), rtol=1e-12)

    def test_orthogonal_rows_unchanged(self):
        gains, ok = one_matrix_gains([[1 + 2j, 0, 0], [0, 3 - 1j, 0]], zf=True)
        assert ok and gains == pytest.approx((5.0, 10.0), rel=1e-12)

    def test_matches_least_squares_oracle(self):
        rng = np.random.default_rng(17)
        for k in range(1, 5):
            for m in range(k, k + 3):
                rows = _sample_rows(rng, 10, k, m)
                gains, ok = _qr_gains(rows, zf=True)
                assert ok.all()
                for h, g in zip(rows, gains):
                    for i in range(k):
                        expected = projection_residual_sq(h[i], np.delete(h, i, axis=0))
                        assert abs(g[i] - expected) <= 1e-10 * max(expected, 1.0), (k, m)

    def test_mean_gain_is_residual_dimension(self):
        # M=3, K=2 leaves one complex dimension free: Gamma(2,1), mean 2
        s = Scenario(kind="bc-zf", weights=validate_weights((0.5, 0.5)), m=3)
        for index in (0, 1):
            rep = validate_gain_distribution(s, index, 1_000_000, seed=19 + index)
            assert abs(rep.mean - 2.0) < 0.01

    def test_too_many_users(self):
        # the oracle sees only a Scenario's K x M draws, and Scenario refuses K > M
        with pytest.raises(TooManyUsersError):
            Scenario(kind="bc-zf", weights=validate_weights((0.4, 0.3, 0.3)), m=2)

    def test_rank_deficient_detected(self):
        # ok masks the singular draw only, not the regular one stacked after it
        singular = [[1.0, 2.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 1.0]]
        gains, ok = _qr_gains(np.array([singular, np.eye(3)], dtype=complex), zf=True)
        assert ok.tolist() == [False, True]
        assert np.isfinite(gains).all() and gains[1].tolist() == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize(
        "h",
        [[[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]], [[1.0, 0.0], [2.0, 0.0]]],
        ids=["near-zero-pivot", "exact-zero-pivot"],
    )
    def test_collinear_pair_rank_deficient(self, h):
        # each interferer set is a single nonzero row, yet H itself is
        # singular; the unit pivot keeps the inverse (and the gains) finite
        gains, ok = one_matrix_gains(h, zf=True)
        assert not ok and np.isfinite(gains).all()


class TestDpcGains:
    """DPC gains of the QR oracle, ``_qr_gains(rows, zf=False)`` with the
    rows in encode order; gain j belongs to the user encoded j-th."""

    def test_first_user_keeps_full_norm(self):
        rows = _sample_rows(np.random.default_rng(23), 50, 3, 4)
        gains, ok = _qr_gains(rows[:, [1, 0, 2]], zf=False)
        assert ok.all()
        np.testing.assert_allclose(gains[:, 0], sq_norms(rows[:, 1]), rtol=1e-12)

    def test_orthogonal_square_system_unchanged(self):
        gains, ok = one_matrix_gains(np.diag([1 + 1j, 2.0, 3j]), zf=False)
        assert ok and gains == pytest.approx((2.0, 4.0, 9.0), rel=1e-12)

    def test_matches_least_squares_oracle(self):
        rng = np.random.default_rng(29)
        for k in range(1, 5):
            for m in range(k, k + 3):
                rows = _sample_rows(rng, 10, k, m)
                order = list(rng.permutation(k))
                gains, ok = _qr_gains(rows[:, order], zf=False)
                assert ok.all()
                for h, g in zip(rows, gains):
                    for pos, user in enumerate(order):
                        expected = projection_residual_sq(h[user], h[order[:pos]])
                        assert abs(g[pos] - expected) <= 1e-10 * max(expected, 1.0), (k, m)

    def test_mean_gains_shrink_along_encode_order(self):
        s = Scenario(kind="bc-dpc", weights=validate_weights((0.5, 0.5)), m=3)
        rep0 = validate_gain_distribution(s, 0, 1_000_000, seed=31)
        rep1 = validate_gain_distribution(s, 1, 1_000_000, seed=37)
        assert abs(rep0.mean - 3.0) < 0.015
        assert abs(rep1.mean - 2.0) < 0.01

    def test_rank_deficient_detected(self):
        # encode order (1, 2, 0): the second-encoded row repeats the first's direction
        h = np.array([[0.0, 0.0, 1.0], [1.0, 2.0, 0.0], [2.0, 4.0, 0.0]])
        gains, ok = one_matrix_gains(h[[1, 2, 0]], zf=False)
        assert not ok and np.isfinite(gains).all()

    def test_collinear_last_row_keeps_zero_gain(self):
        # the last-encoded row is never projected against, so its ~0 gain stands
        h = [[1.0, 2.0, 0.0], [0.0, 0.0, 1.0], [2.0, 4.0, 0.0]]
        gains, ok = one_matrix_gains(h, zf=False)
        assert ok
        assert gains[:2] == pytest.approx((5.0, 1.0), rel=1e-12)
        assert gains[2] == pytest.approx(0.0, abs=1e-20)


class TestWeightedCapacity:
    """Closed forms of K * sum_i mu_i log(1 + mu_i rho gamma_i) on
    ``_capacity``, and the SNR range that keeps it finite."""

    def test_one_nat_identity(self):
        assert capacity((1.0,), math.e - 1.0, (1.0,)) == pytest.approx(1.0, abs=1e-15)

    def test_zero_gains_zero_rate(self):
        assert capacity((0.5, 0.5), 10.0, (0.0, 0.0)) == 0.0

    def test_uniform_pair_closed_form(self):
        assert capacity((0.5, 0.5), 10.0, (1.0, 1.0)) == pytest.approx(
            2.0 * math.log(6.0), rel=1e-14
        )

    def test_bad_snr(self):
        # outage_probability, the one caller of _capacity, checks rho; rho =
        # 1e308 would overflow the capacity
        scalar = Scenario(kind="parallel-identical", weights=validate_weights((1.0,)), n_t=1)
        for rho in (0.0, -1.0, np.nextafter(_MAX_RHO, math.inf), 1e308):
            with pytest.raises(OutOfRangeError):
                outage_probability(scalar, r=0.5, rho=rho, n_samples=10, seed=1)


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

    def test_seed_sequence_object_is_not_advanced(self):
        s = gamma_scenario("bc-zf", 3, 2)
        seed = np.random.SeedSequence(5)
        a = outage_probability(s, r=1.0, rho=100.0, n_samples=20_000, seed=seed, shards=2)
        b = outage_probability(s, r=1.0, rho=100.0, n_samples=20_000, seed=seed, shards=2)
        assert a == b
        assert seed.n_children_spawned == 0
        assert a == outage_probability(s, r=1.0, rho=100.0, n_samples=20_000, seed=5, shards=2)

    def test_spawned_seed_sequence_is_only_read(self):
        # a root that has spawned children keeps its count and pool, so a
        # second call gives the same estimate
        s = gamma_scenario("bc-zf", 3, 2)
        root = np.random.SeedSequence(5)
        root.spawn(3)
        pool = root.pool.copy()
        (a,) = outage_table(s, (1.0,), [(100.0, root)], 20_000, shards=2)
        validate_gain_distribution(s, 0, 1000, root)
        assert root.n_children_spawned == 3 and np.array_equal(root.pool, pool)
        assert a == outage_table(s, (1.0,), [(100.0, root)], 20_000, shards=2)[0]

    @pytest.mark.parametrize("kind", ["parallel-identical", "bc-zf"])
    def test_shards_beyond_samples_match_one_sample_per_shard(self, kind):
        s = gamma_scenario(kind, 3, 2)
        many = outage_probability(s, r=1.5, rho=10.0, n_samples=10, seed=7, shards=10**4)
        assert many == outage_probability(s, r=1.5, rho=10.0, n_samples=10, seed=7, shards=10)

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

    @pytest.mark.parametrize(
        "scenario",
        [
            gamma_scenario("bc-zf", 3, 2),
            gamma_scenario("bc-dpc", 40, 2),
            gamma_scenario("parallel-identical", 61, 2),  # n_t = 60
        ],
        ids=lambda s: s.kind,
    )
    def test_capacity_finite_at_snr_bound(self, scenario):
        # pytest turns a RuntimeWarning (an overflow) into an error
        est = outage_probability(scenario, r=1.0, rho=_MAX_RHO, n_samples=20_000, seed=3)
        assert est.n_outages == 0

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
    shapes by ``standard_gamma``; bc-zf at K = 2 runs at M = 2, 3, 6 and 7,
    so its X_0 and X_1 rows are drawn on both sides of that cutoff. ZF gains
    are dependent, so the joint statistics min_i gamma_i, prod_i gamma_i and
    gamma_0 / gamma_1 are tested as well as each column."""

    N = 50_000
    P_FLOOR = 1e-4  # about 50 comparisons in all

    @pytest.mark.parametrize(
        "kind, m, k",
        [
            ("parallel-identical", 3, 2),
            ("parallel-different", 3, 2),
            ("bc-dpc", 3, 2),
            *(("bc-zf", m, 2) for m in (2, 3, 6, 7)),
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
        if k > 1:
            joint.append(("ratio", fast[:, 0] / fast[:, 1], oracle[:, 0] / oracle[:, 1]))
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

    @pytest.mark.parametrize("kind", ["parallel-identical", "parallel-different", "bc-dpc", "bc-zf"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_segments_equal_separate_draws(self, kind, k):
        # one block of several generators' segments, as _blocks packs shards
        lengths = (1, 7, 1000, 1, 2)
        stops = np.cumsum(lengths)
        for m in (k, k + 2):
            s = gamma_scenario(kind, m, k)
            seeds = [(k, m, i) for i in range(len(lengths))]
            packed = [np.random.default_rng(seed) for seed in seeds]
            segments = [(rng, slice(stop - n, stop)) for rng, n, stop in zip(packed, lengths, stops)]
            block = _chunk_gains(s, segments, _Workspace(s, int(stops[-1]))).T
            for rng, seed, n, (_, part) in zip(packed, seeds, lengths, segments):
                alone = np.random.default_rng(seed)
                assert np.array_equal(block[part], chunk_gains(s, alone, n)), (m, n)
                assert rng.random() == alone.random()


def spawned_children(root, shards):
    """``copy.copy(root).spawn(shards)``. numpy counts children in 32 bits
    and never returns from a spawn whose count would pass 2^32 - 1, so such
    children are built as its spawn builds them, key index and all."""
    if root.n_children_spawned + shards < 2**32:
        return copy.copy(root).spawn(shards)
    return [np.random.SeedSequence(root.entropy, spawn_key=root.spawn_key + (i,),
                                   pool_size=root.pool_size)
            for i in range(root.n_children_spawned, root.n_children_spawned + shards)]


seed_sequences = st.builds(
    np.random.SeedSequence,
    st.one_of(
        st.integers(0, 2**256 - 1),
        st.tuples(st.integers(0, 2**64), st.just(0), st.integers(0, 100)),  # the CLI's points
        st.lists(st.integers(0, 2**32 - 1), max_size=12).map(lambda v: np.array(v, np.uint32)),
        st.lists(st.integers(0, 2**70).flatmap(lambda x: st.sampled_from([x, hex(x), str(x)])),
                 max_size=5),  # numpy also reads hex and decimal strings in a sequence
    ),
    spawn_key=st.lists(st.one_of(st.integers(0, 9), st.integers(2**32, 2**96)), max_size=3),
    pool_size=st.sampled_from([4, 5, 8]),
    n_children_spawned=st.one_of(st.just(0), st.integers(1, 20), st.just(2**32 - 2)),
)


class TestShardGenerators:
    """``_shard_states`` computes the states of numpy's ``SeedSequence``
    children without spawning; its hash constants are checked here."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(roots=st.lists(seed_sequences, min_size=1, max_size=4), shards=st.integers(1, 9))
    @example(roots=[np.random.SeedSequence(11, n_children_spawned=2**32 - 2)], shards=4)
    def test_states_equal_default_rng_of_spawned_children(self, roots, shards):
        # the example's children 2^32 and 2^32 + 1 take two key words each
        pools = [root.pool.copy() for root in roots]
        counts = [root.n_children_spawned for root in roots]
        states = [rng.bit_generator.state for rng in shard_generators(roots, shards)]
        assert states == [np.random.default_rng(child).bit_generator.state
                          for root in roots for child in spawned_children(root, shards)]
        assert [root.n_children_spawned for root in roots] == counts
        assert all(np.array_equal(root.pool, pool) for root, pool in zip(roots, pools))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(entropy=st.one_of(
        st.integers(0, 2**256 - 1),
        st.lists(st.integers(0, 2**70), max_size=5),
        st.lists(st.integers(0, 2**32 - 1), max_size=5).map(tuple),
        st.lists(st.integers(0, 2**64 - 1), max_size=5).map(lambda v: np.array(v, np.uint64)),
    ))
    def test_a_checked_seed_keeps_numpys_streams(self, entropy):
        # _root rejects what is not a count; what it takes seeds as numpy's SeedSequence does
        assert np.array_equal(_shard_states([_root(entropy)], 3),
                              _shard_states([np.random.SeedSequence(entropy)], 3))

    def test_generators_cannot_spawn(self):
        (rng,) = shard_generators([np.random.SeedSequence(3)], 1)
        with pytest.raises(TypeError):
            rng.spawn(1)


class TestOutageKernel:
    """The blocked, in-place outage kernel against a rebuild of its count
    from ``reference_chunk_gains``, block by block, with the capacity
    formula K * (log1p(mu rho gamma) @ mu). The two formulas add the K terms
    in different orders, so a sample whose reference capacity lies within
    4 K eps (relative) of the threshold may fall on either side."""

    @pytest.mark.parametrize("kind", ["parallel-identical", "parallel-different", "bc-dpc", "bc-zf"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_count_matches_reference(self, kind, k):
        # the reference draws from numpy's own spawn, of a plain seed and of a
        # copy of a SeedSequence with a spawn key and children already spawned
        s = gamma_scenario(kind, k + 1, k)
        r, rho, shards = 0.75 * k, 10.0, 3
        n_samples = shards * (_BLOCK + 777) + 2  # uneven shards, a short last block
        mu = np.asarray([s.weights.mu[i] for i in s.encode_order()])
        threshold = r * math.log(rho)
        tol = 4 * k * np.finfo(float).eps * threshold
        quota, extra = divmod(n_samples, shards)
        spawned = np.random.SeedSequence(103, spawn_key=(2, 2**40), n_children_spawned=5)
        for seed, root in ((103, np.random.SeedSequence(103)), (spawned, copy.copy(spawned))):
            below = near = 0
            for index, child in enumerate(root.spawn(shards)):
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
            assert 0 < below and below <= est.n_outages <= below + near, seed

    # Counts recorded before one block held pieces of several shards. The
    # (n_samples, shards) pairs put four shards in one block, pack pieces
    # into several blocks, split shards longer than a block, and give each
    # sample its own shard. parallel-different and bc-dpc share shapes
    # (3, 2) and weight order here, so their counts agree.
    @pytest.mark.parametrize(
        "kind, k, n_samples, shards, expected",
        [
            ("parallel-identical", 2, 5000, 4, 755),
            ("parallel-identical", 2, 40001, 5, 6073),
            ("parallel-identical", 2, 3 * (_BLOCK + 777) + 2, 3, 7818),
            ("parallel-identical", 2, 100, 100, 15),
            ("parallel-different", 2, 5000, 4, 198),
            ("parallel-different", 2, 40001, 5, 1503),
            ("parallel-different", 2, 3 * (_BLOCK + 777) + 2, 3, 2037),
            ("parallel-different", 2, 100, 100, 5),
            ("bc-zf", 2, 5000, 4, 874),
            ("bc-zf", 2, 40001, 5, 6854),
            ("bc-zf", 2, 3 * (_BLOCK + 777) + 2, 3, 9062),
            ("bc-zf", 2, 100, 100, 21),
            ("bc-dpc", 2, 5000, 4, 198),
            ("bc-dpc", 2, 40001, 5, 1503),
            ("bc-dpc", 2, 3 * (_BLOCK + 777) + 2, 3, 2037),
            ("bc-dpc", 2, 100, 100, 5),
            ("bc-zf", 3, 5000, 4, 1509),
            ("bc-zf", 3, 40001, 5, 12340),
            ("bc-zf", 3, 3 * (_BLOCK + 777) + 2, 3, 15885),
            ("bc-zf", 3, 100, 100, 32),
            # Tables whose every block is one shard piece: 2^16 samples in one
            # shard, or a shard quota above _BLOCK / 2. bc-zf draws normals from
            # K = 3 on; at K = 5 bc-dpc and bc-zf draw a shape-6 row by
            # standard_gamma ahead of their Erlang rows.
            ("parallel-identical", 1, 1 << 16, 1, 5298),
            ("parallel-identical", 2, 1 << 16, 1, 10069),
            ("parallel-different", 2, 1 << 16, 1, 2631),
            ("bc-zf", 2, 1 << 16, 1, 11379),
            ("bc-dpc", 2, 1 << 16, 1, 2631),
            ("bc-zf", 3, 1 << 16, 1, 20029),
            ("bc-zf", 4, 1 << 16, 1, 30444),
            ("bc-zf", 4, 3 * (_BLOCK + 777) + 2, 3, 23867),
            ("bc-zf", 5, 1 << 16, 1, 40956),
            ("bc-dpc", 5, 1 << 16, 1, 159),
            ("bc-dpc", 5, 3 * (_BLOCK + 777) + 2, 3, 131),
        ],
    )
    def test_counts_pinned(self, kind, k, n_samples, shards, expected):
        s = gamma_scenario(kind, k + 1, k)
        est = outage_probability(s, r=0.75 * k, rho=10.0, n_samples=n_samples, seed=109,
                                 shards=shards)
        assert est.n_outages == expected

    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("shards", [1, 3])
    def test_several_rates_equal_one_rate_calls(self, kind, k, shards):
        # one capacity sample read at every threshold; rates 0, K and a repeat included
        s = gamma_scenario(kind, k + 1, k)
        rates = (0.0, 0.5 * k, float(k), 0.25, 0.5 * k)
        rho, n_samples, seed = 30.0, _BLOCK + 777, 113  # two blocks at one shard
        (estimates,) = outage_table(s, rates, [(rho, seed)], n_samples, shards)
        assert estimates == tuple(
            outage_probability(s, r, rho, n_samples, seed, shards) for r in rates
        )
        assert [e.r for e in estimates] == list(rates) and estimates[1] == estimates[4]

    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_table_equals_one_point_calls(self, kind, k):
        # blocks that span SNR points give every point the estimates of its own call
        s = gamma_scenario(kind, k + 1, k)
        rates = (0.0, 0.5 * k, float(k))
        grid = [(10.0 ** (db / 10.0), np.random.SeedSequence((29, 0, i)))
                for i, db in enumerate(range(0, 41, 2))]
        for n_samples, shards in ((7, 3), (5000, 4), (_BLOCK + 777, 1), (40001, 5)):
            for points in (grid[-1:], [(3.0, 8), grid[7]], grid):
                assert outage_table(s, rates, points, n_samples, shards) == tuple(
                    outage_table(s, rates, [point], n_samples, shards)[0] for point in points
                ), (n_samples, shards, len(points))

    def test_grid_points_straddle_blocks(self):
        # the grid above at (5000, 4): a block ends inside a point's pieces
        roots = [np.random.SeedSequence(i) for i in range(21)]
        blocks = _blocks(zip(shard_generators(roots, 4), [1250] * 84))
        ends = np.cumsum([block[-1][1].stop for block in blocks])
        assert len(ends) == 7 and any(end % 5000 for end in ends[:-1])

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(SCENARIO_KINDS), k=st.integers(1, 3),
           fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
           db=st.floats(0.0, 40.0, exclude_min=True), seed=st.integers(0, 2**32 - 1))
    def test_counts_never_fall_as_r_grows(self, kind, k, fractions, db, seed):
        # above 0 dB the threshold r log rho grows with r, and every rate reads one sample
        s = gamma_scenario(kind, k + 1, k)
        rates = sorted(k * f for f in fractions)
        (estimates,) = outage_table(s, rates, [(10.0 ** (db / 10.0), seed)], 500, shards=2)
        counts = [e.n_outages for e in estimates]
        assert counts == sorted(counts)

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

    def test_peak_memory_of_a_table_is_one_workspace(self):
        # one 2^14-sample workspace is about 0.53 MB at K = 2; a buffer per
        # point, or one for the grid's 105000 samples, would take about 3.4 MB
        s = gamma_scenario("bc-zf", 3, 2)
        points = [(10.0 ** (db / 10.0), db) for db in range(0, 41, 2)]
        tracemalloc.start()
        try:
            outage_table(s, (0.5, 1.0, 1.5), points, 5000, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    class ZeroUniforms:
        """A generator stub whose uniforms are all exactly 0.0."""

        def random(self, size=None, dtype=np.float64, out=None):
            out.fill(0.0)
            return out

    # bc-zf is left out. At K = 2 zero uniforms give X_0 = X_1 = E = 0, so
    # gamma_1 = 0 and gamma_0 = 0 / 0 is NaN with an invalid-value
    # RuntimeWarning (real uniforms give X_1 = E = 0 with probability at most
    # 2^-106); at K >= 3 a zero Bartlett diagonal is a singular Gram matrix.
    @pytest.mark.parametrize("kind", ["parallel-identical", "parallel-different", "bc-dpc"])
    def test_zero_uniform_gives_zero_gain(self, kind):
        s = gamma_scenario(kind, _ERLANG_MAX_SHAPE, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            gains = chunk_gains(s, self.ZeroUniforms(), 100)
        assert np.isfinite(gains).all() and (gains == 0.0).all()


def alive(pid):
    """Whether process ``pid`` exists and has not exited (a zombie has)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def run_python(code, **kwargs):
    """Start ``code`` in a fresh interpreter that imports this checkout's
    package and lets a table split on one CPU."""
    src = Path(__file__).resolve().parents[1] / "src"
    prelude = (f"import sys; sys.path.insert(0, {str(src)!r}); "
               "from wdmt import channel_sim; channel_sim._several_cpus = lambda: True; ")
    return subprocess.Popen([sys.executable, "-c", prelude + code], text=True, **kwargs)


# one 2^18-sample, one-shard bc-zf table (M = 3, K = 2) in a fresh
# interpreter, then the worker's pid on stdout
ONE_TABLE = ("from wdmt import Scenario, validate_weights; "
             "s = Scenario(kind='bc-zf', weights=validate_weights((0.55, 0.45)), m=3); "
             "channel_sim.outage_probability(s, 1.5, 10.0, 1 << 18, 1); "
             "print(channel_sim._worker.pid, flush=True); ")


class TestSplitTables:
    """Tables of more than two blocks and at least two units: the caller
    and the worker process claim units from the front until none is left,
    and any fault stops the worker. The ``fresh_worker`` fixture stops the
    worker, so that the next split table forks one from the module as the
    test has patched it, stops it again at the end, and lets tables split
    on a one-CPU machine."""

    SCENARIO = gamma_scenario("bc-zf", 3, 2)
    COUNT = 11379  # TestOutageKernel's recorded count of this call
    # cli-sweep's table: 21 points of 5000 samples in 4 shards, 84 pieces of
    # 1250 samples, 13 to a block and 6 in the last of its 7 blocks
    GRID = [(10.0 ** (db / 10.0), (7, 0, i)) for i, db in enumerate(range(0, 41, 2))]

    def count(self):
        return outage_probability(self.SCENARIO, 1.5, 10.0, 1 << 16, 109).n_outages

    @staticmethod
    def in_line(*table):
        with channel_sim._worker.lock:  # a busy worker: the table runs in line
            return outage_table(*table)

    @pytest.fixture
    def fresh_worker(self, monkeypatch):
        channel_sim._worker.stop()
        monkeypatch.setattr(channel_sim, "_several_cpus", lambda: True)
        yield
        channel_sim._worker.stop()

    @pytest.fixture
    def shares(self, fresh_worker, monkeypatch, tmp_path):
        """Patch ``_count`` to log, from whichever process runs it, a line
        "pid index start samples" for each unit it claims and "pid end" at
        the end; return a function that reads the log and empties it."""
        log, count = tmp_path / "shares.log", channel_sim._count

        def write(line):
            with open(log, "a") as f:
                f.write(f"{os.getpid()} {line}\n")

        def logged(*args):
            *table, states, units, claims = args

            def logged_claims():
                for i in claims:
                    start, pieces = units[i]
                    write(f"{i} {start} {sum(samples for _, _, samples in pieces)}")
                    yield i

            counts = count(*table, states, units, logged_claims())
            write("end")
            return counts

        def read():
            lines = [line.split() for line in log.read_text().splitlines()]
            log.unlink()
            return lines

        monkeypatch.setattr(channel_sim, "_count", logged)
        return read

    @staticmethod
    def claimed(lines, pid):
        """The (index, start, samples) of each unit that process ``pid`` claimed, in order."""
        return [tuple(map(int, line[1:])) for line in lines
                if line[0] == str(pid) and len(line) == 4]

    def test_every_unit_is_counted_once(self, shares):
        # one shard of 16 one-piece blocks, then cli-sweep's multi-piece table
        here = os.getpid()
        for table, n_units in (((self.SCENARIO, (1.0,), [(100.0, 5)], 1 << 18, 1), 16),
                               ((self.SCENARIO, (0.5, 1.0, 1.5), self.GRID, 5000, 4), 7)):
            expected = self.in_line(*table)
            assert [line[1] for line in shares()] == [*map(str, range(n_units)), "end"]
            assert outage_table(*table) == expected
            lines, worker = shares(), channel_sim._worker.pid
            mine, theirs = self.claimed(lines, here), self.claimed(lines, worker)
            for side in (mine, theirs):
                assert [i for i, _, _ in side] == sorted({i for i, _, _ in side})
            assert sorted(i for i, _, _ in mine + theirs) == list(range(n_units))
            assert [str(here), "end"] in lines and [str(worker), "end"] in lines
            units = sorted(mine + theirs)
            ends = [start + samples for _, start, samples in units]
            assert [start for _, start, _ in units] == [0, *ends[:-1]]
            assert ends[-1] == table[3] * len(table[2])

    def test_slow_worker_leaves_most_units_to_the_caller(self, shares, monkeypatch, tmp_path):
        # after a first table, the worker sleeps in its first unit of the
        # second, whichever it claimed; the caller counts the other 15
        gains, here, slow = channel_sim._chunk_gains, os.getpid(), tmp_path / "slow"

        def worker_sleeps_once(*args):
            if os.getpid() != here and slow.exists():
                slow.unlink()
                time.sleep(0.5)
            return gains(*args)

        monkeypatch.setattr(channel_sim, "_chunk_gains", worker_sleeps_once)
        table = (self.SCENARIO, (0.5, 1.0), [(100.0, 5)], 1 << 18, 1)
        expected = self.in_line(*table)
        assert outage_table(*table) == expected
        shares()
        slow.touch()
        assert outage_table(*table) == expected
        lines = shares()
        mine, theirs = self.claimed(lines, here), self.claimed(lines, channel_sim._worker.pid)
        assert len(theirs) <= 1
        assert sorted(i for i, _, _ in mine + theirs) == list(range(16))

    def test_small_one_unit_and_one_cpu_tables_run_in_line(self, shares, monkeypatch):
        # two blocks; one unit (bc-zf's normals at K = 3, one shard of three
        # blocks); then the one-CPU rule
        outage_probability(self.SCENARIO, 1.5, 10.0, 2 * _BLOCK, 109)
        outage_probability(gamma_scenario("bc-zf", 4, 3), 2.0, 10.0, 3 * _BLOCK, 109)
        monkeypatch.setattr(channel_sim, "_several_cpus", lambda: False)
        assert self.count() == self.COUNT
        here = str(os.getpid())
        assert shares() == [[here, "0", "0", str(_BLOCK)], [here, "1", str(_BLOCK), str(_BLOCK)],
                            [here, "end"],
                            [here, "0", "0", str(3 * _BLOCK)], [here, "end"],
                            *([here, str(i), str(i * _BLOCK), str(_BLOCK)] for i in range(4)),
                            [here, "end"]]
        assert channel_sim._worker.pid is None

    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_split_equals_in_line(self, fresh_worker, monkeypatch, kind, k):
        # A standard_gamma row (every Gamma row at m = k + 6) or bc-zf's
        # normals (k >= 3) join a generator's blocks into one unit. Tables:
        # two points of two blocks each, the second short; 3 uneven shards of
        # two pieces; two blocks, which stay in line; three blocks in one
        # generator, which stay in line as one unit; cli-sweep's table; 4
        # shards of 8193 samples, one piece a block, and 6 of 8192, two a block
        units, unit_list = [], channel_sim._units
        monkeypatch.setattr(channel_sim, "_units",
                            lambda *a: units.append(len(unit_list(*a))) or unit_list(*a))
        rates = (0.25 * k, 0.75 * k)
        two_points = [(10.0, 1), (100.0, np.random.SeedSequence(2, spawn_key=(3,)))]
        expected = []
        for m in (k + 1, k + 6):
            s = gamma_scenario(kind, m, k)
            uniform = max(s.gain_shapes()) <= _ERLANG_MAX_SHAPE and not (kind == "bc-zf" and k > 2)
            expected += [4, 6, 2, 3] if uniform else [2, 3, 1, 1]
            expected += [7, 4, 3]
            for points, n_samples, shards in ((two_points, _BLOCK + 777, 1),
                                              ([(10.0, 5)], 3 * (_BLOCK + 777) + 2, 3),
                                              ([(30.0, 7)], 2 * _BLOCK, 1),
                                              ([(30.0, 7)], 2 * _BLOCK + 1, 1),
                                              (self.GRID, 5000, 4),
                                              ([(30.0, 9)], 4 * 8193, 4),
                                              ([(30.0, 9)], 6 * 8192, 6)):
                table = (s, rates, points, n_samples, shards)
                assert outage_table(*table) == self.in_line(*table), (m, n_samples, shards)
        assert units[::2] == expected
        assert not channel_sim._worker.lock.locked()

    def test_a_worker_fault_leaves_the_table_to_the_caller(
            self, fresh_worker, monkeypatch, tmp_path):
        # the worker's first block fails, and only there: the caller counts
        # the table in line, and the next split table forks a new worker
        gains, here, fail = channel_sim._chunk_gains, os.getpid(), tmp_path / "fail"

        def worker_fails_once(*args):
            if os.getpid() != here and fail.exists():
                fail.unlink()
                raise LookupError("no gains")
            return gains(*args)

        monkeypatch.setattr(channel_sim, "_chunk_gains", worker_fails_once)
        assert self.count() == self.COUNT
        worker = channel_sim._worker.pid
        fail.touch()
        assert self.count() == self.COUNT
        assert channel_sim._worker.pid is None and not Path(f"/proc/{worker}").exists()
        assert not fail.exists() and not channel_sim._worker.lock.locked()
        assert self.count() == self.COUNT and channel_sim._worker.pid not in (None, worker)

    def test_a_fault_on_both_sides_reaches_the_caller(self, fresh_worker, monkeypatch):
        def no_gains(*args):
            raise LookupError("no gains")

        assert self.count() == self.COUNT
        worker = channel_sim._worker.pid
        monkeypatch.setattr(channel_sim, "_chunk_gains", no_gains)
        with pytest.raises(LookupError, match="no gains"):
            self.count()
        assert channel_sim._worker.pid is None and not Path(f"/proc/{worker}").exists()
        assert not channel_sim._worker.lock.locked()

    def test_caller_error_is_raised_and_the_worker_reaped(self, fresh_worker, monkeypatch):
        capacity, here, calls = channel_sim._capacity, os.getpid(), []

        def caller_fails_second(*args):
            if os.getpid() == here:
                calls.append(args)
                if len(calls) == 2:
                    raise ArithmeticError("capacity failed")
            return capacity(*args)

        assert self.count() == self.COUNT
        worker = channel_sim._worker.pid
        monkeypatch.setattr(channel_sim, "_capacity", caller_fails_second)
        with pytest.raises(ArithmeticError, match="capacity failed"):
            self.count()
        assert channel_sim._worker.pid is None and not Path(f"/proc/{worker}").exists()
        assert not channel_sim._worker.lock.locked()
        assert self.count() == self.COUNT and channel_sim._worker.pid not in (None, worker)

    def test_an_interrupt_reaches_the_caller_at_once(self, fresh_worker, monkeypatch):
        # the worker takes 0.3 s a unit, so counting the rest of the 16-unit
        # table alone would take it seconds
        gains, here, calls = channel_sim._chunk_gains, os.getpid(), []

        def slow_worker_interrupted_caller(*args):
            if os.getpid() != here:
                time.sleep(0.3)
            elif len(calls) == 1:
                raise KeyboardInterrupt
            else:
                calls.append(channel_sim._worker.pid)
            return gains(*args)

        monkeypatch.setattr(channel_sim, "_chunk_gains", slow_worker_interrupted_caller)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            outage_probability(self.SCENARIO, 1.0, 100.0, 1 << 18, 5)
        assert time.monotonic() - start < 1.0
        (worker,) = calls
        assert channel_sim._worker.pid is None and not Path(f"/proc/{worker}").exists()
        assert not channel_sim._worker.lock.locked()

    def test_concurrent_tables_get_sequential_counts(self, fresh_worker):
        # more threads than CPUs, switching often; one holds the worker, the
        # others run in line while it is busy
        calls = [(gamma_scenario(kind, 3, 2), seed)
                 for seed, kind in enumerate(SCENARIO_KINDS * 2)]
        expected = [outage_probability(s, 1.5, 10.0, 1 << 16, seed) for s, seed in calls]
        got = [None] * len(calls)

        def run(i):
            got[i] = outage_probability(calls[i][0], 1.5, 10.0, 1 << 16, calls[i][1])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(calls))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == expected and not channel_sim._worker.lock.locked()

    def test_forked_child_gets_the_parents_count(self, fresh_worker):
        assert self.count() == self.COUNT
        parent_worker = channel_sim._worker.pid
        reader, writer = os.pipe()
        child = os.fork()
        if child == 0:  # never returns to the test runner
            try:
                os.close(reader)
                count = self.count()
                child_worker = channel_sim._worker.pid
                channel_sim._worker.stop()
                os.write(writer, f"{count} {child_worker}".encode())
            finally:
                os._exit(0)
        os.close(writer)
        try:
            with open(reader, "rb") as pipe:
                count, child_worker = pipe.read().split()
        finally:
            _, status = os.waitpid(child, 0)
        assert status == 0 and int(count) == self.COUNT
        assert int(child_worker) not in (parent_worker, None) and not alive(int(child_worker))
        assert self.count() == self.COUNT and channel_sim._worker.pid == parent_worker

    def test_peak_memory_of_the_caller_is_one_workspace(self, fresh_worker):
        # the caller's workspace (0.53 MB) and its messages; the thread that
        # drew ahead needed two staging buffers more (2076 KiB here)
        tracemalloc.start()
        try:
            outage_probability(self.SCENARIO, 1.0, 100.0, 1 << 18, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert channel_sim._worker.pid is not None
        assert peak < 2.5 * (1 << 20)

    def test_worker_share_is_the_in_line_count_in_one_workspace(self):
        # the worker's job function, run here: the back half of the 16 units
        # of a 2^18-sample table, each generator advanced past its earlier
        # blocks' six uniform rows
        n, seed = 1 << 18, 5
        rhos, thresholds = [100.0], [[math.log(100.0)]]
        states = channel_sim._shard_states([np.random.SeedSequence(seed)], 1)
        units = channel_sim._units(self.SCENARIO, [n])
        assert [pieces for _, pieces in units] == [[(0, 6 * i * _BLOCK, _BLOCK)]
                                                   for i in range(16)]
        table = (self.SCENARIO, rhos, thresholds, n, states, units)
        tracemalloc.start()
        try:
            (second,) = channel_sim._count(*table, range(15, 7, -1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (first,) = channel_sim._count(*table, range(8))
        with channel_sim._worker.lock:
            in_line = outage_probability(self.SCENARIO, 1.0, 100.0, n, seed)
        assert first[0] + second[0] == in_line.n_outages
        assert peak < 1 << 20

    def test_a_killed_worker_leaves_the_next_table_to_the_caller(self, fresh_worker):
        assert self.count() == self.COUNT
        worker = channel_sim._worker.pid
        os.kill(worker, signal.SIGKILL)
        deadline = time.monotonic() + 5
        while alive(worker) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert self.count() == self.COUNT  # the send fails: the caller counts every unit
        assert channel_sim._worker.pid is None and not Path(f"/proc/{worker}").exists()
        assert self.count() == self.COUNT and channel_sim._worker.pid not in (None, worker)

    def test_a_worker_that_dies_in_a_unit_leaves_its_units_to_the_caller(
            self, fresh_worker, monkeypatch, tmp_path):
        # a worker that exits in its first unit of the second table: its reply
        # reaches end of file, and the caller counts the table in line. The
        # caller waits in its first unit, so that the worker claims one.
        gains, here, die = channel_sim._chunk_gains, os.getpid(), tmp_path / "die"

        def worker_exits(*args):
            if die.exists():
                if os.getpid() != here:
                    os._exit(3)
                if not (tmp_path / "waited").exists():
                    (tmp_path / "waited").touch()
                    time.sleep(0.5)
            return gains(*args)

        monkeypatch.setattr(channel_sim, "_chunk_gains", worker_exits)
        table = (self.SCENARIO, (0.5, 1.0), [(100.0, 5)], 1 << 18, 1)
        expected = self.in_line(*table)
        assert outage_table(*table) == expected
        worker = channel_sim._worker.pid
        die.touch()
        assert outage_table(*table) == expected
        assert channel_sim._worker.pid is None and not Path(f"/proc/{worker}").exists()

    def test_a_worker_that_dies_holding_the_claim_lock_leaves_the_table_to_the_caller(
            self, fresh_worker, monkeypatch):
        # the worker exits inside its first claim, between lockf's lock and
        # unlock; the kernel releases the lock, so the caller claims on
        pwrite, here, workers = os.pwrite, os.getpid(), set()

        def worker_exits(*args):
            if os.getpid() != here:
                os._exit(3)
            workers.add(channel_sim._worker.pid)
            return pwrite(*args)

        table = (self.SCENARIO, (0.5, 1.0), [(100.0, 5)], 1 << 18, 1)
        expected = self.in_line(*table)
        monkeypatch.setattr(os, "pwrite", worker_exits)
        assert outage_table(*table) == expected
        (worker,) = workers
        assert channel_sim._worker.pid is None and not Path(f"/proc/{worker}").exists()

    def test_worker_keeps_no_descriptor_of_the_caller(self, fresh_worker):
        # a pipe opened before the worker is forked reaches end of file once
        # the caller closes its write end
        reader, writer = os.pipe()
        try:
            assert self.count() == self.COUNT
            worker = channel_sim._worker.pid
            os.close(writer)
            writer = None
            assert select.select([reader], [], [], 2)[0] == [reader]
            assert os.read(reader, 1) == b""
            assert len(os.listdir(f"/proc/{worker}/fd")) == 5  # stdio, its pipe, the claims
        finally:
            os.close(reader)
            if writer is not None:
                os.close(writer)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 50), st.lists(st.booleans(), max_size=120))
    def test_two_sides_claim_each_unit_once_in_ascending_order(self, n, turns):
        # two iterators over one zeroed claims file, advanced in the order
        # ``turns`` gives, then each to its end
        with tempfile.TemporaryFile() as claims:
            os.pwrite(claims.fileno(), bytes(8), 0)
            sides = [channel_sim._claims(claims, n), channel_sim._claims(claims, n)]
            got = [[], []]
            for side in turns:
                got[side] += itertools.islice(sides[side], 1)
            for side in (0, 1):
                got[side] += sides[side]
        for indices in got:
            assert indices == sorted(set(indices))
        assert sorted(got[0] + got[1]) == list(range(n))

    def test_worker_ends_when_its_parent_is_killed(self):
        parent = run_python(ONE_TABLE + "import time; time.sleep(60)", stdout=subprocess.PIPE)
        try:
            worker = int(parent.stdout.readline())
        finally:
            parent.kill()
            parent.wait()
            parent.stdout.close()
        deadline = time.monotonic() + 5
        while alive(worker) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not alive(worker)

    def test_no_process_outlives_a_run(self):
        run = run_python(ONE_TABLE, stdout=subprocess.PIPE)
        try:
            out, _ = run.communicate(timeout=60)
        finally:
            run.kill()
        worker = int(out)
        assert run.returncode == 0 and not Path(f"/proc/{worker}").exists()


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
                assert confidence_interval(n_outages, n_samples) == (
                    reference_confidence_interval(n_outages, n_samples)
                ), (n_outages, n_samples)

    def test_exact_bounds_equal_the_direct_expression_when_cached(self):
        # each count pair's bounds are computed once; a repeat reads the cache
        alpha = 1.0 - 0.95
        for n_samples in (1, 2, 19, 20, 5000, 10**7):
            for n_outages in range(min(n_samples, 19) + 1):
                low = high = None
                if n_outages > 0:
                    low = special.betaincinv(n_outages, n_samples - n_outages + 1, alpha / 2)
                if n_outages < n_samples:
                    high = special.betaincinv(n_outages + 1, n_samples - n_outages, 1 - alpha / 2)
                direct = (0.0 if low is None else float(low), 1.0 if high is None else float(high))
                for _ in range(2):
                    assert confidence_interval(n_outages, n_samples) == direct, n_outages

    def test_table_estimates_carry_the_scalar_intervals(self):
        # the cli-sweep workload's table: 21 points of 5000 samples in 4 shards
        s = Scenario("bc-zf", validate_weights((0.6, 0.4)), m=3)
        points = [(10.0 ** (db / 10), np.random.SeedSequence((1, 0, i)))
                  for i, db in enumerate(range(0, 42, 2))]
        table = outage_table(s, (0.5, 1.0, 1.5), points, 5000, 4)
        estimates = [est for row in table for est in row]
        assert len(estimates) == 63
        assert {est.n_outages < 20 for est in estimates} == {True, False}  # both formulas
        for est in estimates:
            scalar = confidence_interval(est.n_outages, est.n_samples)
            assert (est.ci_low.hex(), est.ci_high.hex()) == tuple(x.hex() for x in scalar)

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
        n = 2 * _BLOCK + 5000  # three blocks, the last one short
        for index in range(2):
            rep = validate_gain_distribution(s, index, n, seed=17)
            parts = []
            (rng,) = shard_generators([np.random.SeedSequence(17)], 1)
            for [(rng, piece)] in _blocks([(rng, n)]):
                gains, ok = _matrix_gains(s, rng, piece.stop - piece.start)
                parts.append(gains[ok, index])
            sample = np.concatenate(parts)
            assert rep.mean == sample.mean() and rep.variance == sample.var()
            assert rep.ks_stat == stats.kstest(sample, stats.gamma(rep.shape).cdf).statistic

    def test_peak_memory_is_one_block_plus_the_sample(self):
        # 2^17 matrices were drawn in one step (48 MB traced); one block of
        # 2^14 and the kept sample take about 7 MB
        s = gamma_scenario("bc-zf", 3, 2)
        tracemalloc.start()
        try:
            validate_gain_distribution(s, 0, 1 << 17, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20

    def test_seed_rule_is_the_kernel_rule(self):
        # a caller's SeedSequence is copied, not advanced, and a plain seed
        # gives the report of its SeedSequence
        s = gamma_scenario("bc-zf", 3, 2)
        seq = np.random.SeedSequence(5)
        first = validate_gain_distribution(s, 0, 1000, seq)
        assert seq.n_children_spawned == 0
        assert validate_gain_distribution(s, 0, 1000, seq) == first
        assert validate_gain_distribution(s, 0, 1000, 5) == first

    def test_index_out_of_range(self):
        s = Scenario(kind="bc-zf", weights=validate_weights((0.5, 0.5)), m=3)
        with pytest.raises(OutOfRangeError):
            validate_gain_distribution(s, 2, 1000, seed=1)

    @pytest.mark.parametrize("index", [True, 1.0, -1, "0"])
    def test_index_must_be_an_integer(self, index):
        s = Scenario(kind="bc-zf", weights=validate_weights((0.5, 0.5)), m=3)
        with pytest.raises(OutOfRangeError):
            validate_gain_distribution(s, index, 1000, seed=1)


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats and scipy.optimize each add a large part of a second to
    # every start of the CLI; the package and its CLI need only scipy.special
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import wdmt.cli; "
        "print([m for m in ('scipy.stats', 'scipy.optimize', 'scipy.special') if m in sys.modules])"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "['scipy.special']\n"
