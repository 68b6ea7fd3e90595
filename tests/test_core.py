import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wdmt import (
    SCENARIO_KINDS,
    AntennaProfile,
    BadSumError,
    DimensionMismatchError,
    DmtCurve,
    DmtError,
    NonPositiveWeightError,
    OutOfRangeError,
    Scenario,
    TooManyUsersError,
    Weights,
    ordering,
    validate_weights,
)
from wdmt.core import _TIE_RTOL, ANTENNA_FIELD


class TestValidateWeights:
    def test_uniform_pair(self):
        w = validate_weights((0.5, 0.5))
        assert w.mu == (0.5, 0.5)

    def test_unbalanced_pair_accepted(self):
        w = validate_weights((0.6, 0.4))
        assert w.mu == (0.6, 0.4)

    def test_bad_sum_rejected(self):
        with pytest.raises(BadSumError):
            validate_weights((0.7, 0.4))

    def test_zero_and_negative_rejected(self):
        with pytest.raises(NonPositiveWeightError):
            validate_weights((1.0, 0.0))
        with pytest.raises(NonPositiveWeightError):
            validate_weights((1.2, -0.2))

    def test_non_finite_rejected(self):
        # NaN passes neither the positivity nor the sum check; an infinite
        # entry, or finite entries whose sum overflows, fails the sum check
        with pytest.raises(NonPositiveWeightError):
            validate_weights((math.nan, 1.0))
        with pytest.raises(NonPositiveWeightError):
            Weights((math.nan,))
        with pytest.raises(NonPositiveWeightError):
            validate_weights((-math.inf, 1.0))
        with pytest.raises(BadSumError):
            validate_weights((math.inf, 1.0))
        with pytest.raises(BadSumError):
            validate_weights((1e308, 1e308))

    def test_empty_rejected(self):
        with pytest.raises(BadSumError):
            validate_weights(())

    def test_single_weight(self):
        assert validate_weights((1.0,)).mu == (1.0,)
        assert validate_weights((0.9999999999,)).mu == (1.0,)

    def test_near_one_sum_renormalized_exactly(self):
        # 2/3 + 1/3 already rounds to 1.0; a slightly off pair must come
        # back with float sum exactly 1.0
        w = validate_weights((2 / 3, 1 / 3))
        assert w.mu == (2 / 3, 1 / 3)
        rng = np.random.default_rng(11)
        for _ in range(2000):
            k = int(rng.integers(1, 7))
            raw = rng.random(k) + 0.01
            raw /= raw.sum()
            w = validate_weights(tuple(raw))
            assert math.fsum(w.mu) == 1.0

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            k = int(rng.integers(1, 7))
            raw = rng.random(k) + 0.01
            raw /= raw.sum()
            once = validate_weights(tuple(raw))
            twice = validate_weights(once.mu)
            assert once == twice

    def test_direct_construction_validates(self):
        with pytest.raises(BadSumError):
            Weights((0.5, 0.6))
        with pytest.raises(NonPositiveWeightError):
            Weights((-0.5, 1.5))


class TestAntennaProfile:
    def test_total_diversity(self):
        assert AntennaProfile((2, 1)).total_diversity() == 3
        assert AntennaProfile((3, 2, 1)).total_diversity() == 6

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            AntennaProfile((2, 0))
        with pytest.raises(ValueError):
            AntennaProfile(())
        with pytest.raises(ValueError):
            AntennaProfile((1.5, 2))
        with pytest.raises(ValueError):
            AntennaProfile((math.inf, 2))
        for flag in (True, np.True_):  # a bool is not the count 1
            with pytest.raises(ValueError):
                AntennaProfile((flag, 2))


class TestOrdering:
    def test_sorts_by_weight_per_antenna(self):
        # mu/n = (1/4, 1/2): the single-antenna channel leads
        t = ordering(validate_weights((0.5, 0.5)), AntennaProfile((2, 1)))
        assert t == (1, 0)

    def test_tie_broken_by_ascending_index(self):
        # mu/n = (1/3, 1/3): exact tie keeps the original order
        t = ordering(validate_weights((2 / 3, 1 / 3)), AntennaProfile((2, 1)))
        assert t == (0, 1)

    def test_tie_detected_despite_float_rounding(self):
        # 0.6/3 and 0.4/2 differ only by rounding noise; still a tie
        t = ordering(validate_weights((0.6, 0.4)), AntennaProfile((3, 2)))
        assert t == (0, 1)

    def test_single_channel(self):
        assert ordering(validate_weights((1.0,)), AntennaProfile((3,))) == (0,)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            ordering(validate_weights((0.5, 0.5)), AntennaProfile((2,)))

    def test_dimension_mismatch_raises_on_every_call(self):
        # a raised error is not cached
        w, p = validate_weights((0.5, 0.5)), AntennaProfile((2,))
        for _ in range(3):
            with pytest.raises(DimensionMismatchError):
                ordering(w, p)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(st.integers(1, 4), st.sampled_from([0.5, 1.0, 1.7]),
                              st.sampled_from([0.0, 0.4, -0.4, 0.9, -0.9, 1.1, 3.0])),
                    min_size=1, max_size=6))
    def test_cached_equals_uncached_near_ties_included(self, channels):
        # each channel: its count n, a base weight per antenna shared with
        # others, and an offset from that base in units of _TIE_RTOL
        n = tuple(c[0] for c in channels)
        raw = [c[0] * c[1] * (1.0 + c[2] * _TIE_RTOL) for c in channels]
        w = validate_weights(tuple(x / sum(raw) for x in raw))
        p = AntennaProfile(n)
        expected = ordering.__wrapped__(w, p)
        assert ordering(w, p) == expected
        assert ordering(Weights(w.mu), AntennaProfile(n)) == expected  # a cache hit

    def test_is_a_permutation_of_indices(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            k = int(rng.integers(1, 7))
            raw = rng.random(k) + 0.01
            w = validate_weights(tuple(raw / raw.sum()))
            p = AntennaProfile(tuple(int(x) for x in rng.integers(1, 5, k)))
            t = ordering(w, p)
            assert isinstance(t, tuple)
            assert sorted(t) == list(range(k))

    def test_sorted_per_antenna_weights_non_increasing(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            k = int(rng.integers(1, 7))
            raw = rng.random(k) + 0.01
            w = validate_weights(tuple(raw / raw.sum()))
            p = AntennaProfile(tuple(int(x) for x in rng.integers(1, 5, k)))
            ordered = [w.mu[i] / p.n[i] for i in ordering(w, p)]
            for a, b in zip(ordered, ordered[1:]):
                assert b <= a * (1 + 1e-12)


class TestDmtCurve:
    def test_rejects_malformed_corners(self):
        with pytest.raises(ValueError):
            DmtCurve(((0.5, 4.0), (2.0, 0.0)))  # first corner not at r=0
        with pytest.raises(ValueError):
            DmtCurve(((0.0, 4.0), (1.0, 2.0), (1.0, 1.0)))  # repeated r
        with pytest.raises(ValueError):
            DmtCurve(((0.0, 2.0), (1.0, 3.0), (2.0, 0.0)))  # d increases
        with pytest.raises(ValueError):
            DmtCurve(((0.0, 4.0), (2.0, 1.0)))  # last d nonzero
        with pytest.raises(ValueError):
            DmtCurve(((0.0, 0.0),))  # single corner
        for corners in (((0, math.nan), (1, 0)), ((0, math.inf), (1, 0)), ((0, 1), (math.inf, 0))):
            with pytest.raises(ValueError):
                DmtCurve(corners)  # non-finite corner

    def test_evaluate_exact_at_corners(self):
        curve = DmtCurve(((0.0, 4.0), (1.0, 2.0), (2.0, 0.0)))
        assert curve.evaluate(0.0) == 4.0
        assert curve.evaluate(1.0) == 2.0
        assert curve.evaluate(2.0) == 0.0

    def test_evaluate_interpolates(self):
        curve = DmtCurve(((0.0, 4.0), (1.0, 2.0), (2.0, 0.0)))
        assert curve.evaluate(0.5) == pytest.approx(3.0, abs=1e-15)
        assert curve.evaluate(1.5) == pytest.approx(1.0, abs=1e-15)

    def test_evaluate_out_of_range(self):
        curve = DmtCurve(((0.0, 4.0), (2.0, 0.0)))
        with pytest.raises(OutOfRangeError):
            curve.evaluate(-0.01)
        with pytest.raises(OutOfRangeError):
            curve.evaluate(2.01)

    def test_evaluate_nan_rejected(self):
        with pytest.raises(OutOfRangeError):
            DmtCurve(((0.0, 4.0), (2.0, 0.0))).evaluate(math.nan)

    def test_evaluate_non_number_rejected(self):
        with pytest.raises(OutOfRangeError):
            DmtCurve(((0.0, 4.0), (2.0, 0.0))).evaluate("x")

    def test_max_properties(self):
        curve = DmtCurve(((0.0, 4.0), (1.0, 2.0), (2.0, 0.0)))
        assert curve.max_rate == 2.0
        assert curve.max_diversity == 4.0


class TestScenario:
    def test_bc_requires_enough_antennas(self):
        w = validate_weights((0.5, 0.3, 0.2))
        with pytest.raises(TooManyUsersError):
            Scenario(kind="bc-zf", weights=w, m=2)
        with pytest.raises(TooManyUsersError):
            Scenario(kind="bc-dpc", weights=w, m=2)

    def test_parallel_identical_needs_nt(self):
        with pytest.raises(ValueError):
            Scenario(kind="parallel-identical", weights=validate_weights((1.0,)))

    @pytest.mark.parametrize("n_t", [2.7, 0.5, 0, math.nan, math.inf, "2", True, np.True_])
    def test_parallel_identical_rejects_non_integer_nt(self, n_t):
        w = validate_weights((1.0,))
        with pytest.raises(ValueError):
            Scenario(kind="parallel-identical", weights=w, n_t=n_t)

    @pytest.mark.parametrize("kind", ["bc-zf", "bc-dpc"])
    @pytest.mark.parametrize("m", [3.9, 0, math.nan, math.inf, True])
    def test_broadcast_rejects_non_integer_m(self, kind, m):
        with pytest.raises(ValueError):
            Scenario(kind=kind, weights=validate_weights((1.0,)), m=m)

    def test_integral_float_counts_rejected(self):
        w = validate_weights((1.0,))
        with pytest.raises(OutOfRangeError):  # 2.0 is a float, not a count
            Scenario(kind="parallel-identical", weights=w, n_t=2.0)
        assert Scenario(kind="bc-zf", weights=w, m=np.int64(3)).m == 3

    @pytest.mark.parametrize(
        "kind, fields",
        [
            ("parallel-identical", {"n_t": 2, "m": 3}),
            ("parallel-identical", {"n_t": 2, "profile": AntennaProfile((2, 2))}),
            ("parallel-different", {"profile": AntennaProfile((2, 2)), "n_t": 2}),
            ("parallel-different", {"profile": AntennaProfile((2, 2)), "m": 3}),
            ("bc-zf", {"m": 3, "n_t": 7}),
            ("bc-dpc", {"m": 3, "profile": AntennaProfile((9, 9))}),
            ("bc-zf", {"m": 3, "n_t": 7, "profile": AntennaProfile((9, 9))}),
        ],
    )
    def test_rejects_antenna_field_its_kind_does_not_use(self, kind, fields):
        with pytest.raises(ValueError, match="only"):
            Scenario(kind=kind, weights=validate_weights((0.5, 0.5)), **fields)

    def test_weights_must_be_a_weights(self):
        # raw weights summing to 1.2 used to build and fail later with AttributeError
        with pytest.raises(DmtError, match="Weights"):
            Scenario(kind="bc-dpc", weights=(0.9, 0.3), m=3)

    def test_parallel_different_needs_matching_profile(self):
        w = validate_weights((0.5, 0.5))
        with pytest.raises(DimensionMismatchError):
            Scenario(kind="parallel-different", weights=w, profile=AntennaProfile((2,)))

    def test_parallel_different_needs_an_antenna_profile(self):
        w = validate_weights((0.5, 0.5))
        with pytest.raises(DmtError, match="AntennaProfile"):
            Scenario(kind="parallel-different", weights=w, profile=(2, 1))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Scenario(kind="bc-mmse", weights=validate_weights((1.0,)), m=2)

    def test_gain_shapes(self):
        w = validate_weights((0.5, 0.5))
        s = Scenario(kind="parallel-identical", weights=w, n_t=2)
        assert s.gain_shapes() == (2, 2)
        s = Scenario(kind="parallel-different", weights=w, profile=AntennaProfile((2, 1)))
        assert s.gain_shapes() == (2, 1)
        s = Scenario(kind="bc-zf", weights=w, m=3)
        assert s.gain_shapes() == (2, 2)
        s = Scenario(kind="bc-dpc", weights=w, m=3)
        assert s.gain_shapes() == (3, 2)

    def test_antenna_field_names_every_kind_once(self):
        assert sorted(ANTENNA_FIELD) == sorted(SCENARIO_KINDS)

    def test_encoded_weights_follow_the_encode_order(self):
        w = validate_weights((0.2, 0.5, 0.3))
        assert Scenario(kind="bc-dpc", weights=w, m=4).encoded_weights() == (0.5, 0.3, 0.2)
        for kind, field in [("parallel-identical", {"n_t": 2}), ("bc-zf", {"m": 4}),
                            ("parallel-different", {"profile": AntennaProfile((2, 1, 3))})]:
            assert Scenario(kind=kind, weights=w, **field).encoded_weights() == w.mu

    def test_dpc_encode_order_by_decreasing_weight(self):
        s = Scenario(kind="bc-dpc", weights=validate_weights((0.3, 0.7)), m=2)
        assert s.encode_order() == (1, 0)
        s = Scenario(kind="bc-dpc", weights=validate_weights((0.5, 0.5)), m=2)
        assert s.encode_order() == (0, 1)
