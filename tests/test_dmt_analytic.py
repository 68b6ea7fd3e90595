import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wdmt import (
    AntennaProfile,
    DimensionMismatchError,
    ExponentSolution,
    OutOfRangeError,
    curve_for_scenario,
    dmt_different,
    lp_greedy,
    lp_vertex,
    LpInstance,
    optimal_weights,
    Scenario,
    Weights,
    validate_weights,
)


def random_weights(rng, k):
    raw = rng.random(k) + 0.02
    return validate_weights(tuple(raw / raw.sum()))


def random_profile(rng, k, n_max=4):
    return AntennaProfile(tuple(int(x) for x in rng.integers(1, n_max + 1, k)))


def paper_corners(counts, mu):
    """The paper's closed-form corners, written out independently of the
    package: channels sorted by weight-per-antenna (exactly, larger weight
    first on a tie), r(i) = K * fsum(weights of the i last channels) and
    d(i) = sum of the K - i first counts. With one count n for every
    channel this is r(i) = K * fsum(the i smallest weights), d(i) = n(K - i).
    """
    k = len(mu)
    order = sorted(range(k), key=lambda i: (mu[i] / counts[i], mu[i]), reverse=True)
    mu_hat = [mu[i] for i in order]
    n_hat = [counts[i] for i in order]
    rates = [0.0] + [k * math.fsum(mu_hat[k - i :]) for i in range(1, k)] + [float(k)]
    return tuple((rates[i], float(sum(n_hat[: k - i]))) for i in range(k + 1))


@st.composite
def antennas_and_weights(draw, min_k=1, max_k=5):
    """(m, weights) with K = min_k..max_k users and m = K..K+3 antennas."""
    k = draw(st.integers(min_k, max_k))
    m = draw(st.integers(k, k + 3))
    raw = draw(st.lists(st.floats(1e-3, 1.0), min_size=k, max_size=k))
    total = math.fsum(raw)
    return m, validate_weights(tuple(x / total for x in raw))


def identical(n_t, weights):
    return curve_for_scenario(
        Scenario(kind="parallel-identical", weights=validate_weights(weights), n_t=n_t)
    )


def broadcast(kind, m, weights):
    return curve_for_scenario(Scenario(kind=kind, weights=validate_weights(weights), m=m))


class TestIdentical:
    def test_two_uniform_channels(self):
        curve = identical(2, (0.5, 0.5))
        assert curve.corners == ((0.0, 4.0), (1.0, 2.0), (2.0, 0.0))

    def test_two_unbalanced_channels(self):
        curve = identical(2, (0.75, 0.25))
        assert curve.corners == ((0.0, 4.0), (0.5, 2.0), (2.0, 0.0))

    def test_single_channel(self):
        curve = identical(3, (1.0,))
        assert curve.corners == ((0.0, 3.0), (1.0, 0.0))

    def test_weight_order_is_irrelevant(self):
        up = identical(2, (0.2, 0.3, 0.5))
        down = identical(2, (0.5, 0.3, 0.2))
        assert up.corners == down.corners

    def test_near_tie_follows_the_shared_tie_rule(self):
        # two weights unequal but within the ordering's relative tie
        # tolerance keep index order, as in lp_greedy and the bc-dpc encode
        # order: r(1) is K times the second weight, not the smaller one.
        # The corner moves by less than K^2 * 1e-12 from the value-sorted
        # one, and the curve follows lp_greedy to the last ulps, where the
        # value-sorted corner is 1.5e-13 off it; lp_vertex sits on the
        # value-sorted corner
        w = Weights((0.49999999999992467, 0.5000000000000753))
        curve = curve_for_scenario(Scenario(kind="parallel-identical", weights=w, n_t=1))
        assert curve.corners == ((0.0, 2.0), (2 * w.mu[1], 1.0), (2.0, 0.0))
        assert abs(curve.corners[1][0] - paper_corners((1, 1), w.mu)[1][0]) <= 4e-12
        profile = AntennaProfile((1, 1))
        for r in (0.5, 1.0, 1.5):
            d = curve.evaluate(r)
            assert lp_greedy(profile, w, r).d == pytest.approx(d, rel=0, abs=1e-15)
            assert lp_vertex(LpInstance.alpha_form(profile, w, r)).d == pytest.approx(
                d, rel=0, abs=1e-12
            )


class TestDifferent:
    def test_matched_weights_give_straight_line(self):
        curve = dmt_different(AntennaProfile((2, 1)), validate_weights((2 / 3, 1 / 3)))
        assert curve.corners == ((0.0, 3.0), (2 / 3, 2.0), (2.0, 0.0))
        for j in range(201):
            r = j / 100
            assert curve.evaluate(r) == pytest.approx(3 * (1 - r / 2), abs=1e-12)

    def test_uniform_weights_bend_the_curve(self):
        curve = dmt_different(AntennaProfile((2, 1)), validate_weights((0.5, 0.5)))
        assert curve.corners == ((0.0, 3.0), (1.0, 1.0), (2.0, 0.0))

    def test_uniform_profile_reduces_to_identical(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            k = int(rng.integers(1, 6))
            n_t = int(rng.integers(1, 5))
            w = random_weights(rng, k)
            curve = dmt_different(AntennaProfile((n_t,) * k), w)
            assert curve.corners == paper_corners((n_t,) * k, w.mu)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            dmt_different(AntennaProfile((2, 1, 1)), validate_weights((0.5, 0.5)))


class TestBroadcast:
    def test_zf_three_antennas_two_users(self):
        curve = broadcast("bc-zf", 3, (0.5, 0.5))
        assert curve.corners == ((0.0, 4.0), (1.0, 2.0), (2.0, 0.0))

    def test_zf_square_system_skewed_weights(self):
        curve = broadcast("bc-zf", 2, (0.9, 0.1))
        assert curve.corners == ((0.0, 2.0), (0.2, 1.0), (2.0, 0.0))

    def test_zf_single_user_full_array_gain(self):
        curve = broadcast("bc-zf", 4, (1.0,))
        assert curve.corners == ((0.0, 4.0), (1.0, 0.0))

    def test_dpc_matched_weights_straight_line(self):
        curve = broadcast("bc-dpc", 3, (0.6, 0.4))
        assert curve.corners == ((0.0, 5.0), (0.8, 3.0), (2.0, 0.0))
        for j in range(201):
            r = j / 100
            assert curve.evaluate(r) == pytest.approx(5 * (1 - r / 2), abs=1e-12)

    def test_dpc_uniform_weights(self):
        curve = broadcast("bc-dpc", 3, (0.5, 0.5))
        assert curve.corners == ((0.0, 5.0), (1.0, 2.0), (2.0, 0.0))

    def test_dpc_scalar_channel(self):
        curve = broadcast("bc-dpc", 1, (1.0,))
        assert curve.corners == ((0.0, 1.0), (1.0, 0.0))

    def test_zf_reduction_holds_corner_for_corner(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            k = int(rng.integers(1, 5))
            m = int(rng.integers(k, k + 4))
            w = random_weights(rng, k)
            curve = curve_for_scenario(Scenario(kind="bc-zf", weights=w, m=m))
            assert curve.corners == paper_corners((m - k + 1,) * k, w.mu)

    def test_dpc_reduction_to_staircase_profile(self):
        # the user encoded j-th (0-based, by decreasing weight) sees m - j
        # antennas
        rng = np.random.default_rng(32)
        for _ in range(100):
            k = int(rng.integers(1, 5))
            m = int(rng.integers(k, k + 4))
            w = random_weights(rng, k)
            curve = curve_for_scenario(Scenario(kind="bc-dpc", weights=w, m=m))
            mu_desc = sorted(w.mu, reverse=True)
            assert curve.corners == paper_corners(tuple(m - j for j in range(k)), mu_desc)


@pytest.mark.parametrize("kind", ["parallel-identical", "parallel-different", "bc-zf", "bc-dpc"])
def test_curve_is_the_parallel_curve_of_the_scenarios_gains(kind):
    # one channel per gain: its Gamma shape as antenna count, its encode-order weight
    rng = np.random.default_rng(33)
    for _ in range(50):
        k = int(rng.integers(1, 5))
        w = random_weights(rng, k)
        field = {"parallel-identical": {"n_t": int(rng.integers(1, 4))},
                 "parallel-different": {"profile": random_profile(rng, k)}}.get(
                     kind, {"m": int(rng.integers(k, k + 4))})
        scenario = Scenario(kind=kind, weights=w, **field)
        reduced = dmt_different(AntennaProfile(scenario.gain_shapes()),
                                Weights(scenario.encoded_weights()))
        assert curve_for_scenario(scenario).corners == reduced.corners


class TestEvalDmt:
    def test_midpoint_of_uniform_curve(self):
        curve = identical(2, (0.5, 0.5))
        assert curve.evaluate(0.5) == pytest.approx(3.0, abs=1e-15)

    def test_endpoints(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            k = int(rng.integers(1, 6))
            p = random_profile(rng, k)
            curve = dmt_different(p, random_weights(rng, k))
            assert curve.evaluate(0.0) == float(p.total_diversity())
            assert curve.evaluate(float(k)) == 0.0

    def test_out_of_range(self):
        curve = identical(2, (0.5, 0.5))
        with pytest.raises(OutOfRangeError):
            curve.evaluate(-0.1)
        with pytest.raises(OutOfRangeError):
            curve.evaluate(2.0000001)

    def test_exact_at_every_corner(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            k = int(rng.integers(1, 6))
            curve = dmt_different(random_profile(rng, k), random_weights(rng, k))
            for r, d in curve.corners:
                assert curve.evaluate(r) == d


class TestExponentSolution:
    @pytest.mark.parametrize(
        "alpha, d", [((math.nan,), 1.0), ((0.5,), math.nan), ((0.5,), math.inf), ((1.5,), 1.0),
                     ((-1e-13,), 1.0), ((1.0 + 1e-13,), 1.0)]
    )
    def test_rejects_non_finite_or_out_of_box_values(self, alpha, d):
        # a NaN alpha used to be clamped to 0.0, and d = nan was kept
        with pytest.raises(OutOfRangeError):
            ExponentSolution(alpha, d)


class TestLpGreedy:
    def test_zero_rate_saturates_everything(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            k = int(rng.integers(1, 6))
            p = random_profile(rng, k)
            sol = lp_greedy(p, random_weights(rng, k), 0.0)
            assert sol.alpha == (1.0,) * k
            assert sol.d == float(p.total_diversity())

    def test_uniform_pair_midpoint(self):
        sol = lp_greedy(AntennaProfile((2, 2)), validate_weights((0.5, 0.5)), 1.0)
        assert sol.d == pytest.approx(2.0, abs=1e-12)

    def test_asymmetric_pair(self):
        sol = lp_greedy(AntennaProfile((2, 1)), validate_weights((0.5, 0.5)), 1.0)
        assert sol.d == pytest.approx(1.0, abs=1e-12)
        assert sol.alpha == pytest.approx((0.0, 1.0), abs=1e-12)

    def test_out_of_range(self):
        p = AntennaProfile((2, 1))
        w = validate_weights((0.5, 0.5))
        with pytest.raises(OutOfRangeError):
            lp_greedy(p, w, -0.5)
        with pytest.raises(OutOfRangeError):
            lp_greedy(p, w, 2.5)

    def test_nan_rate_rejected(self):
        with pytest.raises(OutOfRangeError):
            lp_greedy(AntennaProfile((2, 1)), validate_weights((0.5, 0.5)), math.nan)

    @pytest.mark.parametrize("r", [0.0, 1.0])
    def test_dimension_mismatch(self, r):
        # the r = 0 shortcut must not skip the length check
        with pytest.raises(DimensionMismatchError):
            lp_greedy(AntennaProfile((2, 1, 1)), validate_weights((0.5, 0.5)), r)

    def test_objective_matches_curve_everywhere(self):
        rng = np.random.default_rng(52)
        for _ in range(100):
            k = int(rng.integers(1, 6))
            p = random_profile(rng, k)
            w = random_weights(rng, k)
            curve = dmt_different(p, w)
            for r in np.linspace(0.0, k, 21):
                sol = lp_greedy(p, w, float(r))
                assert abs(sol.d - curve.evaluate(float(r))) <= 1e-9

    def test_solution_is_feasible(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            k = int(rng.integers(1, 6))
            p = random_profile(rng, k)
            w = random_weights(rng, k)
            r = float(rng.uniform(0, k))
            sol = lp_greedy(p, w, r)
            assert math.fsum(m * a for m, a in zip(w.mu, sol.alpha)) >= 1 - r / k - 1e-12


class TestOptimalWeights:
    def test_proportional_to_antennas(self):
        assert optimal_weights(AntennaProfile((2, 1))).mu == (2 / 3, 1 / 3)
        assert optimal_weights(AntennaProfile((3, 2))).mu == (0.6, 0.4)
        assert optimal_weights(AntennaProfile((2, 2))).mu == (0.5, 0.5)

    def test_bound_curve_is_straight(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            k = int(rng.integers(1, 6))
            p = random_profile(rng, k)
            curve = dmt_different(p, optimal_weights(p))
            d0 = p.total_diversity()
            for r in np.linspace(0, k, 41):
                assert curve.evaluate(float(r)) == pytest.approx(
                    d0 * (1 - r / k), abs=1e-12
                )

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    def test_optimal_weights_give_the_straight_line(self, counts):
        # every profile at K = 1..4 with counts 1..6, on 201 rates: the
        # exhaustive largest gap over this range is 3.6e-15
        p = AntennaProfile(tuple(counts))
        k, d0 = len(p), p.total_diversity()
        curve = dmt_different(p, optimal_weights(p))
        for j in range(201):
            r = j * k / 200
            assert abs(curve.evaluate(r) - d0 * (1 - r / k)) <= 1e-12, (counts, r)

    def test_dominates_every_other_weighting(self):
        rng = np.random.default_rng(62)
        for _ in range(100):
            k = int(rng.integers(1, 6))
            p = random_profile(rng, k)
            best = dmt_different(p, optimal_weights(p))
            other = dmt_different(p, random_weights(rng, k))
            for r in np.linspace(0, k, 21):
                assert other.evaluate(float(r)) <= best.evaluate(float(r)) + 1e-12


class TestCurveProperties:
    def test_unbalanced_weights_never_help_identical_pair(self):
        # on K=2, majorization is the total order of the larger weight
        rng = np.random.default_rng(71)
        for _ in range(200):
            hi = float(rng.uniform(0.5, 0.999))
            lo = float(rng.uniform(0.5, hi))
            more = identical(2, (hi, 1 - hi))
            less = identical(2, (lo, 1 - lo))
            for r in np.linspace(0, 2, 21):
                assert more.evaluate(float(r)) <= less.evaluate(float(r)) + 1e-12

    def test_generated_curves_satisfy_type_invariants(self):
        rng = np.random.default_rng(72)
        for _ in range(300):
            k = int(rng.integers(1, 7))
            p = random_profile(rng, k)
            w = random_weights(rng, k)
            curve = dmt_different(p, w)
            assert len(curve.corners) == k + 1
            assert curve.corners[0] == (0.0, float(p.total_diversity()))
            assert curve.corners[-1] == (float(k), 0.0)
            rates = [c[0] for c in curve.corners]
            divs = [c[1] for c in curve.corners]
            assert all(b > a for a, b in zip(rates, rates[1:]))
            assert all(b <= a for a, b in zip(divs, divs[1:]))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(antennas_and_weights())
    @example((2, validate_weights((0.49999999999999994, 0.5)))).xfail(
        raises=AssertionError,
        reason="known near-tie defect: stable_desc_order ties the two weights, so "
        "ZF keeps index order and puts its corner at r = 1.0, while DPC's shapes "
        "(2, 1) order the channels exactly and put it one ulp lower; DPC then "
        "reads 0.9999999999999999 against ZF's 1.0 at r = 1.0",
    )
    def test_dpc_on_or_above_zf(self, case):
        # the paper's ordering of the precoders, compared exactly at every
        # corner rate of either curve
        m, w = case
        dpc, zf = broadcast("bc-dpc", m, w.mu), broadcast("bc-zf", m, w.mu)
        for r in sorted({c[0] for c in dpc.corners + zf.corners}):
            assert dpc.evaluate(r) >= zf.evaluate(r), (m, w.mu, r)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(antennas_and_weights(min_k=2, max_k=4))
    def test_dpc_decreasing_weight_order_is_optimal(self, case):
        # the paper's encode order (decreasing weight) against all K! orders:
        # the user encoded j-th gets m - j antennas, and no order beats the
        # curve that curve_for_scenario builds, at any of 201 rates
        m, w = case
        k = len(w)
        curve = broadcast("bc-dpc", m, w.mu)
        profile = AntennaProfile(tuple(range(m, m - k, -1)))
        rates = np.linspace(0.0, k, 201)
        best = [curve.evaluate(float(r)) for r in rates]
        for order in itertools.permutations(w.mu):
            other = dmt_different(profile, Weights(order))
            for r, d in zip(rates, best):
                assert other.evaluate(float(r)) <= d + 1e-12, (m, w.mu, order, r)

    def test_equal_scenarios_share_one_cached_curve(self):
        a, b = (Scenario(kind="bc-dpc", weights=validate_weights((0.3, 0.7)), m=3)
                for _ in range(2))
        assert a is not b and a == b
        assert curve_for_scenario(b) is curve_for_scenario(a)
        assert curve_for_scenario.cache_info().maxsize == 128

    def test_curve_for_scenario_dispatch(self):
        # every kind is the closed form over its gain shapes, with the
        # weights in encode order (bc-dpc encodes the larger weight first)
        for mu in ((0.5, 0.5), (0.3, 0.7)):
            w = validate_weights(mu)
            cases = [
                (Scenario(kind="parallel-identical", weights=w, n_t=2), (2, 2), mu),
                (
                    Scenario(kind="parallel-different", weights=w, profile=AntennaProfile((2, 1))),
                    (2, 1),
                    mu,
                ),
                (Scenario(kind="bc-zf", weights=w, m=3), (2, 2), mu),
                (Scenario(kind="bc-dpc", weights=w, m=3), (3, 2), sorted(mu, reverse=True)),
            ]
            for scenario, counts, mu_encoded in cases:
                assert curve_for_scenario(scenario).corners == paper_corners(counts, mu_encoded)
