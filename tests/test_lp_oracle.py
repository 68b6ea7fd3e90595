import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wdmt import (
    AntennaProfile,
    DimensionMismatchError,
    DmtError,
    ExponentSolution,
    LpInstance,
    OutOfRangeError,
    TooLargeError,
    lp_greedy,
    lp_grid,
    lp_vertex,
    validate_weights,
)
from wdmt.lp_oracle import (
    _FEAS_EPS,
    _GRID_MAX_POINTS,
    _VERTEX_CACHE,
    _grid_tables,
    _staircase,
    _untraded,
    _vertex_sums,
    _vertex_table,
)


def random_instance(rng, k_max=4, n_max=4):
    k = int(rng.integers(1, k_max + 1))
    profile = AntennaProfile(tuple(int(x) for x in rng.integers(1, n_max + 1, k)))
    raw = rng.random(k) + 0.02
    weights = validate_weights(tuple(raw / raw.sum()))
    return profile, weights


def unit_box(costs, weights, bound, upper):
    """The instance with box limits 0 <= x_i <= u_i as the unit-box instance
    in z_i = x_i / u_i: costs c_i u_i and weights w_i u_i."""
    return LpInstance(tuple(float(c) * u for c, u in zip(costs, upper)),
                      tuple(float(w) * u for w, u in zip(weights, upper)), float(bound))


def x_form(profile, weights, r):
    """The instance in the substituted variables x_i = n_i alpha_i in [0, n_i]
    (unit costs, weights mu_i / n_i, limits n_i) on the unit box: costs n_i
    and weights (mu_i / n_i) n_i, which may differ from mu_i in the last bit."""
    a = LpInstance.alpha_form(profile, weights, r)
    return unit_box((1.0,) * a.k, tuple(m / n for m, n in zip(a.weights, a.costs)), a.bound,
                    a.costs)


class TestLpInstance:
    def test_alpha_form_fields(self):
        inst = LpInstance.alpha_form(
            AntennaProfile((2, 1)), validate_weights((0.5, 0.5)), 1.0
        )
        assert inst.costs == (2.0, 1.0)
        assert inst.weights == (0.5, 0.5)
        assert inst.bound == 0.5
        assert inst.upper == (1.0, 1.0)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_upper_is_the_unit_box(self, k):
        inst = LpInstance((2.0,) * k, (1.0 / k,) * k, 0.5)
        assert inst.upper == (1.0,) * k
        with pytest.raises(AttributeError):
            inst.upper = (2.0,) * k

    def test_rejects_nonpositive_coefficients(self):
        with pytest.raises(ValueError):
            LpInstance(costs=(1.0, 0.0), weights=(0.5, 0.5), bound=0.5)

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            LpInstance(costs=(1.0,), weights=(1.0,), bound=1.5)

    def test_rejects_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            LpInstance((1.0, 2.0), (0.2,), 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_coefficients_and_bound(self, bad):
        ok = dict(costs=(1.0, 1.0), weights=(0.5, 0.5), bound=0.5)
        for field in ("costs", "weights"):
            with pytest.raises(ValueError):
                LpInstance(**{**ok, field: (1.0, bad)})
        with pytest.raises(ValueError):
            LpInstance(**{**ok, "bound": bad})

    @pytest.mark.parametrize("form", [LpInstance.alpha_form])
    def test_nan_rate_rejected(self, form):
        with pytest.raises(OutOfRangeError):
            form(AntennaProfile((2, 1)), validate_weights((0.5, 0.5)), math.nan)

    @pytest.mark.parametrize("k", range(1, 5))
    def test_alpha_form_equals_the_instance_built_and_checked_whole(self, k):
        rng = np.random.default_rng(700 + k)
        for _ in range(5):
            profile = AntennaProfile(tuple(int(n) for n in rng.integers(1, 5, k)))
            raw = rng.random(k) + 0.02
            weights = validate_weights(tuple(raw / raw.sum()))
            for r in np.linspace(0.0, k, 21):
                got = LpInstance.alpha_form(profile, weights, float(r))
                whole = LpInstance(tuple(float(n) for n in profile.n), weights.mu,
                                   1.0 - float(r) / k)
                assert type(got) is LpInstance
                assert got == whole and hash(got) == hash(whole)

    @pytest.mark.parametrize("call", [
        lambda: LpInstance.alpha_form(AntennaProfile((2, 1)), validate_weights((0.5, 0.3, 0.2)),
                                      1.0),
        lambda: LpInstance((1.0, 2.0), (0.2,), 0.5),
        lambda: LpInstance((), (), 0.5),
    ], ids=["alpha-form", "mismatch", "empty"])
    def test_length_mismatch_names_costs_and_weights(self, call):
        with pytest.raises(DimensionMismatchError,
                           match="^costs and weights must share a length >= 1$"):
            call()

    def test_rate_is_checked_before_the_vectors(self):
        # as when alpha_form built its instance whole: a bad r is named first
        with pytest.raises(OutOfRangeError, match="^r must be"):
            LpInstance.alpha_form(AntennaProfile((2, 1)), validate_weights((0.5, 0.3, 0.2)),
                                  5.0)


class TestLpVertex:
    def test_uniform_pair_midpoint(self):
        inst = LpInstance.alpha_form(
            AntennaProfile((2, 2)), validate_weights((0.5, 0.5)), 1.0
        )
        assert lp_vertex(inst).d == pytest.approx(2.0, abs=1e-12)

    def test_asymmetric_pair_shuts_the_wide_channel(self):
        # four boundary patterns by hand: (0,0) infeasible, (1,0) d=2,
        # (0,1) d=1, (1,1) d=3; plus fractional candidates; optimum is (0,1)
        inst = LpInstance.alpha_form(
            AntennaProfile((2, 1)), validate_weights((0.5, 0.5)), 1.0
        )
        sol = lp_vertex(inst)
        assert sol.d == pytest.approx(1.0, abs=1e-12)
        assert sol.alpha == pytest.approx((0.0, 1.0), abs=1e-12)

    def test_zero_bound_gives_zero_vector(self):
        inst = LpInstance.alpha_form(
            AntennaProfile((2, 1)), validate_weights((0.5, 0.5)), 2.0
        )
        sol = lp_vertex(inst)
        assert sol.d == 0.0
        assert sol.alpha == (0.0, 0.0)

    def test_size_limit(self):
        k = 17
        with pytest.raises(TooLargeError):
            lp_vertex(
                LpInstance(
                    costs=(1.0,) * k,
                    weights=(1.0 / k,) * k,
                    bound=0.5,
                )
            )

    def test_infeasible_bound(self):
        # the weights sum to 0.6 < 0.9, so no point of the box meets the bound
        inst = LpInstance((1.0, 2.0, 1.0), (0.2, 0.3, 0.1), 0.9)
        with pytest.raises(DmtError, match="no feasible vertex"):
            lp_vertex(inst)

    def test_alpha_and_x_forms_agree(self):
        rng = np.random.default_rng(81)
        for _ in range(200):
            profile, weights = random_instance(rng)
            r = float(rng.uniform(0, len(profile)))
            a = lp_vertex(LpInstance.alpha_form(profile, weights, r))
            b = lp_vertex(x_form(profile, weights, r))
            assert abs(a.d - b.d) <= 1e-9

    def test_complementary_slackness(self):
        # either the rate inequality is tight or every exponent saturates at 1
        rng = np.random.default_rng(82)
        for _ in range(200):
            profile, weights = random_instance(rng)
            r = float(rng.uniform(0, len(profile)))
            inst = LpInstance.alpha_form(profile, weights, r)
            sol = lp_vertex(inst)
            slack = math.fsum(
                w * a for w, a in zip(inst.weights, sol.alpha)
            ) - inst.bound
            assert slack >= -1e-9
            assert slack <= 1e-9 or all(a == 1.0 for a in sol.alpha)

    def test_matches_greedy(self):
        rng = np.random.default_rng(83)
        for _ in range(300):
            profile, weights = random_instance(rng)
            k = len(profile)
            for r in np.linspace(0, k, 11):
                greedy = lp_greedy(profile, weights, float(r))
                vertex = lp_vertex(LpInstance.alpha_form(profile, weights, float(r)))
                assert abs(greedy.d - vertex.d) <= 1e-9


def reference_lp_vertex(instance):
    """lp_vertex as a loop over the fractional coordinate: the box vertices
    first, then each f in turn, a later candidate winning only when it is
    strictly cheaper."""
    k = instance.k
    c = np.asarray(instance.costs)
    w = np.asarray(instance.weights)
    b = instance.bound

    masks = np.arange(1 << k, dtype=np.int64)
    bits = ((masks[:, None] >> np.arange(k)) & 1).astype(float)  # (2^k, k)
    vertex_w = bits @ w
    vertex_c = bits @ c

    best_obj = np.inf
    best = None  # (mask_row, frac_index, frac_value)

    feasible = vertex_w >= b - _FEAS_EPS
    if feasible.any():
        i = int(np.flatnonzero(feasible)[np.argmin(vertex_c[feasible])])
        best_obj = float(vertex_c[i])
        best = (i, None, 0.0)

    for f in range(k):
        z_f = (b - vertex_w) / w[f]
        ok = (bits[:, f] == 0.0) & (z_f > _FEAS_EPS) & (z_f <= 1.0 + _FEAS_EPS)
        if not ok.any():
            continue
        obj = vertex_c[ok] + c[f] * np.minimum(z_f[ok], 1.0)
        j = int(np.argmin(obj))
        if obj[j] < best_obj:
            best_obj = float(obj[j])
            row = int(np.flatnonzero(ok)[j])
            best = (row, f, float(min(z_f[row], 1.0)))

    if best is None:
        raise DmtError("no feasible vertex; bound exceeds the box capacity")

    row, f, z_frac = best
    z = bits[row].copy()
    if f is not None:
        z[f] = z_frac
    return ExponentSolution(tuple(z), float(z @ c))


def tie_instances():
    """Instances built to tie, as unit-box instances of boxes with limits u:
    equal c_i u_i, equal w_i u_i, bounds that land exactly on a vertex
    weight, and the bounds 0 and 1."""
    for k in (2, 3, 4, 5):
        for costs, upper in (((2.0,) * k, (1.0,) * k), ((1.0, 2.0, 4.0, 0.5, 1.0)[:k],
                                                       (2.0, 1.0, 0.5, 4.0, 2.0)[:k])):
            cu = [ci * ui for ci, ui in zip(costs, upper)]
            assert len(set(cu)) == 1  # equal c_i u_i
            for weights in ((1.0 / k,) * k, tuple(0.5 / (k * ui) for ui in upper)):
                wu = [wi * ui for wi, ui in zip(weights, upper)]
                # every partial sum of the w_i u_i is a vertex weight
                for bound in {0.0, 1.0, *(float(sum(wu[:j])) for j in range(k + 1))}:
                    if bound <= 1.0:
                        yield unit_box(costs, weights, bound, upper)
        dyadic = tuple(float(2 ** -(i % 3 + 1)) for i in range(k))
        for bound in (0.0, 0.25, 0.5, 0.75, 1.0):
            yield LpInstance(dyadic, tuple(x / sum(dyadic) for x in dyadic), bound)


class TestLpVertexMatchesReference:
    """The one-pass lp_vertex returns what the per-f loop returns, bit for
    bit, ties included."""

    @staticmethod
    def assert_same(inst):
        try:
            expected = reference_lp_vertex(inst)
        except DmtError:
            with pytest.raises(DmtError, match="no feasible vertex"):
                lp_vertex(inst)
            return
        got = lp_vertex(inst)
        assert got.alpha == expected.alpha and got.d == expected.d, inst

    @pytest.mark.parametrize("k", range(1, 9))
    def test_random_instances(self, k):
        rng = np.random.default_rng(200 + k)
        for _ in range(40):
            upper = tuple(rng.uniform(0.3, 4.0, k))
            weights = tuple(rng.uniform(0.05, 1.0, k) / (k * max(upper)))
            costs = tuple(rng.uniform(0.1, 3.0, k))
            for bound in (0.0, 1.0, *rng.uniform(0.0, 1.0, 3)):
                self.assert_same(unit_box(costs, weights, bound, upper))
            profile = AntennaProfile(tuple(int(n) for n in rng.integers(1, 5, k)))
            raw = rng.random(k) + 0.02
            mu = validate_weights(tuple(raw / raw.sum()))
            for r in np.linspace(0.0, k, 5):
                self.assert_same(LpInstance.alpha_form(profile, mu, float(r)))
                self.assert_same(x_form(profile, mu, float(r)))

    def test_fractional_value_at_each_end_of_its_slack(self):
        # w = 2 and b = 2 eps give the fractional value eps, which is refused;
        # w = 1/2 and b = (1 + eps) / 2 give exactly 1 + eps, which is
        # accepted and ties with the vertex z = 1, which wins the tie
        low = LpInstance((1.0,), (2.0,), 2 * _FEAS_EPS)
        high = LpInstance((1.0,), (0.5,), 0.5 * (1.0 + _FEAS_EPS))
        assert (2 * _FEAS_EPS - 0.0) / 2.0 == _FEAS_EPS
        assert high.bound / 0.5 == 1.0 + _FEAS_EPS
        # the box 0 <= z <= 1/8 with w = 4 and b = 4 (1/8 + eps) on the unit
        # box: its fractional value is 1 + 8 eps, and no point meets b
        scaled = unit_box((1.0,), (4.0,), 4 * (0.125 + _FEAS_EPS), (0.125,))
        for inst in (low, high, scaled):
            self.assert_same(inst)
        assert lp_vertex(low) == ExponentSolution((1.0,), 1.0)
        assert lp_vertex(high) == ExponentSolution((1.0,), 1.0)
        with pytest.raises(DmtError, match="no feasible vertex"):
            lp_vertex(scaled)

    def test_k16_instance(self):
        rng = np.random.default_rng(216)
        k = 16
        inst = unit_box(rng.uniform(0.1, 3.0, k), rng.uniform(0.01, 0.1, k), 0.4,
                        rng.uniform(0.5, 2.0, k))
        self.assert_same(inst)

    def test_tied_instances(self):
        for inst in tie_instances():
            self.assert_same(inst)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_bounds_at_a_vertex_weight_sum_and_one_eps_off(self, k):
        # the feasibility tests of a box vertex and of a fractional value
        # flip at these bounds
        rng = np.random.default_rng(650 + k)
        for _ in range(4):
            upper = tuple(rng.uniform(0.3, 4.0, k))
            weights = tuple(rng.uniform(0.05, 1.0, k) / (k * max(upper)))
            costs = tuple(rng.uniform(0.1, 3.0, k))
            inst = unit_box(costs, weights, 0.0, upper)
            bits = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
            for s in (bits @ np.array(inst.weights)).tolist():
                for bound in (s - _FEAS_EPS, s, s + _FEAS_EPS):
                    if -_FEAS_EPS <= bound <= 1.0 + _FEAS_EPS:
                        self.assert_same(LpInstance(inst.costs, inst.weights, bound))

    def test_k16_peak_memory_below_twice_the_reference(self):
        k = 16
        inst = LpInstance(tuple(np.linspace(1.0, 2.0, k)), (1.0 / k,) * k, 0.5)

        def peak(solve):
            tracemalloc.start()
            try:
                solve(inst)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        _vertex_table.cache_clear()  # the first call at a K builds its table too
        assert peak(lp_vertex) < 2 * peak(reference_lp_vertex)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_rate_sweeps_cold_and_warm(self, k):
        # a sweep moves only the bound, so every rate after the first reads
        # the cached vertex sums; the first sweep starts cold, the second warm
        rng = np.random.default_rng(600 + k)
        for _ in range(6):
            profile = AntennaProfile(tuple(int(n) for n in rng.integers(1, 5, k)))
            raw = rng.random(k) + 0.02
            mu = validate_weights(tuple(raw / raw.sum()))
            upper = tuple(rng.uniform(0.3, 4.0, k))
            costs = tuple(rng.uniform(0.1, 3.0, k))
            weights = tuple(rng.uniform(0.05, 1.0, k) / (k * max(upper)))
            _vertex_sums.cache_clear()
            for _ in range(2):
                for r in np.linspace(0.0, k, 21):
                    self.assert_same(LpInstance.alpha_form(profile, mu, float(r)))
                    self.assert_same(x_form(profile, mu, float(r)))
                    self.assert_same(unit_box(costs, weights, 1.0 - float(r) / k, upper))

    def test_cached_vertex_sums_refuse_writes(self):
        inst = unit_box((2.0, 1.0, 3.0), (0.5, 0.3, 0.2), 0.5, (1.0, 2.0, 0.5))
        lp_vertex(inst)
        arrays = _vertex_sums(inst.costs, inst.weights)
        for a in arrays:
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 1.0
        assert _vertex_sums(inst.costs, inst.weights) is arrays
        assert lp_vertex(inst) == reference_lp_vertex(inst)

    def test_vertex_sum_cache_is_bounded_at_about_1_mb_an_entry_at_k16(self):
        assert _vertex_sums.cache_info().maxsize == _VERTEX_CACHE == 16
        k = 16
        arrays = _vertex_sums(tuple(np.linspace(1.0, 2.0, k)), (1.0 / k,) * k)
        assert 2**20 <= sum(a.nbytes for a in arrays) < 1.01 * 2**20

    def test_cached_tables_refuse_writes(self):
        bits, taken = _vertex_table(3)
        with pytest.raises(ValueError):
            bits[0, 0] = 1.0
        with pytest.raises(ValueError):
            taken[0, 0] = False
        assert _vertex_table(3)[0] is bits
        assert np.array_equal(taken, bits.T == 1.0)


class TestLpVertexOnExtremeCoefficients:
    """Valid instances whose refused candidates overflowed: a RuntimeWarning,
    an error under pytest's filter and ``-W error``, though lp_greedy,
    lp_grid and the curve were silent."""

    @staticmethod
    def assert_quiet_and_same(inst):
        """lp_vertex raises no warning and returns what the per-f loop
        returns, whose own overflows on refused candidates are silenced."""
        with np.errstate(all="ignore"):
            try:
                expected = reference_lp_vertex(inst)
            except DmtError:
                expected = None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if expected is None:
                with pytest.raises(DmtError, match="no feasible vertex"):
                    lp_vertex(inst)
            else:
                got = lp_vertex(inst)
                assert got.alpha == expected.alpha and got.d == expected.d, inst

    @pytest.mark.parametrize("make", [
        # b / 1e-320 in the divide
        lambda: LpInstance.alpha_form(AntennaProfile((1, 1)), validate_weights((1e-320, 1.0)),
                                      0.5),
        # (0.5 - 1.25) / 0.25 = -3 times 1e308 in the multiply
        lambda: LpInstance((1e308, 1.0), (0.25, 1.0), 0.5),
        # -5e9 times 1e300 in the multiply
        lambda: LpInstance((1e300, 1.0), (1e-10, 1.0), 0.5),
        # 1e308 twice, for z = 1 and again as its own fractional value, in the add
        lambda: LpInstance((1e308,), (0.5,), 1.0),
    ], ids=["divide", "multiply", "multiply-1e300", "add"])
    def test_no_warning(self, make):
        self.assert_quiet_and_same(make())

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), k=st.integers(1, 6))
    def test_no_warning_on_unit_box_instances(self, data, k):
        def draw(low, high):
            return tuple(data.draw(st.lists(st.floats(low, high), min_size=k, max_size=k)))

        costs, weights = draw(1e-300, 1e308), draw(5e-324, 1e308)
        bound = data.draw(st.floats(0.0, 1.0))
        try:
            inst = LpInstance(costs, weights, bound)
        except OutOfRangeError:  # a sum past the float range
            assume(False)
        self.assert_quiet_and_same(inst)


def dominance_filter(wsum, csum):
    """_staircase by brute force: each distinct (weight, cost) pair that no
    other pair beats in both (weight at least, cost at most), by weight."""
    pairs = set(zip(wsum.tolist(), csum.tolist()))
    kept = sorted(
        (w, c) for w, c in pairs
        if not any(w2 >= w and c2 <= c and (w2, c2) != (w, c) for w2, c2 in pairs)
    )
    return np.array([w for w, _ in kept]), np.array([c for _, c in kept])


class TestStaircase:
    def test_matches_dominance_filter_with_repeated_weights(self):
        rng = np.random.default_rng(95)
        for n in (1, 2, 5, 30, 200):
            for _ in range(20):
                wsum = rng.integers(0, 6, n) / 4  # few distinct weights: many ties
                csum = rng.integers(0, 5, n) / 2
                w, c = _staircase(wsum, csum)
                w_ref, c_ref = dominance_filter(wsum, csum)
                assert np.array_equal(w, w_ref) and np.array_equal(c, c_ref)
                perm = rng.permutation(n)
                w_perm, c_perm = _staircase(wsum[perm], csum[perm])
                assert np.array_equal(w_perm, w) and np.array_equal(c_perm, c)


class TestLpGrid:
    def test_within_stated_bound_of_vertex(self):
        inst = LpInstance.alpha_form(
            AntennaProfile((2, 1)), validate_weights((0.5, 0.5)), 1.0
        )
        value = lp_grid(inst, 200)
        assert 1.0 - 1e-9 <= value <= 1.0 + 2 * 2 / 200 + 1e-9

    def test_full_bound_is_exact(self):
        # bound 1 forces every lattice exponent to 1, so the value is the
        # total antenna count exactly
        inst = LpInstance.alpha_form(
            AntennaProfile((3, 2, 1)), validate_weights((0.5, 0.3, 0.2)), 0.0
        )
        assert lp_grid(inst, 100) == 6.0

    def test_uniform_pair_close_to_two(self):
        inst = LpInstance.alpha_form(
            AntennaProfile((2, 2)), validate_weights((0.5, 0.5)), 1.0
        )
        assert abs(lp_grid(inst, 200) - 2.0) <= 0.02

    def test_size_and_resolution_limits(self):
        inst5 = LpInstance(
            costs=(1.0,) * 5,
            weights=(0.2,) * 5,
            bound=0.5,
        )
        with pytest.raises(TooLargeError):
            lp_grid(inst5, 100)
        inst = LpInstance.alpha_form(
            AntennaProfile((2, 1)), validate_weights((0.5, 0.5)), 1.0
        )
        with pytest.raises(ValueError):
            lp_grid(inst, 49)

    @pytest.mark.parametrize("k, resolution", [(4, 10**5), (4, 1000), (3, 1000), (2, 10**6)])
    def test_resolution_beyond_point_limit_rejected_before_any_table(self, k, resolution):
        # (resolution + 1)^ceil(K/2) points would exceed the limit; at K = 4,
        # 10^5 would need a 74.5 GiB table, so nothing may be built first
        assert (resolution + 1) ** ((k + 1) // 2) > _GRID_MAX_POINTS
        inst = LpInstance(costs=(1.0,) * k, weights=(1.0 / k,) * k, bound=0.5)
        tracemalloc.start()
        try:
            with pytest.raises(TooLargeError):
                lp_grid(inst, resolution)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("resolution", [50.7, math.nan, "50"])
    def test_non_integer_resolution_rejected(self, resolution):
        inst = LpInstance.alpha_form(
            AntennaProfile((2, 1)), validate_weights((0.5, 0.5)), 1.0
        )
        with pytest.raises(ValueError):
            lp_grid(inst, resolution)
        with pytest.raises(OutOfRangeError):  # 50.0 is a float, not a count
            lp_grid(inst, 50.0)

    def test_never_below_vertex_optimum(self):
        rng = np.random.default_rng(91)
        for _ in range(100):
            profile, weights = random_instance(rng)
            r = float(rng.uniform(0, len(profile)))
            inst = LpInstance.alpha_form(profile, weights, r)
            assert lp_grid(inst, 80) >= lp_vertex(inst).d - 1e-9

    def test_split_independence(self):
        # the lattice minimum must not depend on how dimensions are halved,
        # so reversing the coordinate order must give the same value
        rng = np.random.default_rng(92)
        for _ in range(50):
            profile, weights = random_instance(rng)
            r = float(rng.uniform(0, len(profile)))
            inst = LpInstance.alpha_form(profile, weights, r)
            flipped = LpInstance(
                costs=inst.costs[::-1],
                weights=inst.weights[::-1],
                bound=inst.bound,
            )
            assert lp_grid(inst, 80) == pytest.approx(lp_grid(flipped, 80), abs=1e-12)


def full_lattice_minimum(inst, resolution):
    """lp_grid by brute force: every lattice point, no pruning.

    Each half-sum is accumulated in the coordinate order and with the same
    split and feasibility test as lp_grid, so the two agree with ``==``
    exactly when the pruning drops no optimum."""
    k = inst.k
    levels = np.arange(resolution + 1) / resolution
    axes = np.meshgrid(*([levels] * k), indexing="ij")

    def half_sum(coefs, indices):
        total = 0.0
        for i in indices:
            total = total + coefs[i] * axes[i]
        return total

    half = (k + 1) // 2
    w_a = half_sum(inst.weights, range(half))
    w_b = half_sum(inst.weights, range(half, k))
    cost = half_sum(inst.costs, range(half)) + half_sum(inst.costs, range(half, k))
    feasible = w_b >= inst.bound - w_a - _FEAS_EPS
    if not feasible.any():
        raise DmtError("no feasible lattice point; bound exceeds the box capacity")
    return float(np.min(cost[feasible]))


class TestLpGridMatchesFullLattice:
    """The Pareto-staircase search returns the full-lattice minimum exactly."""

    RES = 50

    def assert_same(self, inst):
        assert lp_grid(inst, self.RES) == full_lattice_minimum(inst, self.RES)

    @pytest.mark.parametrize("form", [LpInstance.alpha_form, x_form])
    def test_random_instances(self, form):
        rng = np.random.default_rng(93)
        for _ in range(25):
            profile, weights = random_instance(rng, k_max=3)
            k = len(profile)
            for r in (0.0, float(k), *rng.uniform(0, k, 3)):
                self.assert_same(form(profile, weights, float(r)))

    def test_integer_costs_with_tied_weights(self):
        # many lattice points share a weight and a cost, so the staircase
        # must keep exactly one of each tie
        for costs in ((1.0, 1.0, 1.0), (2.0, 1.0, 2.0), (3.0, 3.0)):
            k = len(costs)
            for bound in np.linspace(0.0, 1.0, 9):
                self.assert_same(LpInstance(costs, (1.0 / k,) * k, float(bound)))

    def test_box_limits_folded_into_the_unit_box(self):
        rng = np.random.default_rng(94)
        for _ in range(25):
            k = int(rng.integers(1, 4))
            upper = tuple(rng.uniform(0.3, 4.0, k))
            weights = tuple(rng.uniform(0.05, 1.0, k) / (k * max(upper)))
            costs = tuple(rng.uniform(0.1, 3.0, k))
            for bound in rng.uniform(0.0, 1.0, 3):
                inst = unit_box(costs, weights, bound, upper)
                try:
                    expected = full_lattice_minimum(inst, self.RES)
                except DmtError:
                    with pytest.raises(DmtError, match="no feasible lattice point"):
                        lp_grid(inst, self.RES)
                else:
                    assert lp_grid(inst, self.RES) == expected

    def test_infeasible_bound(self):
        inst = LpInstance((1.0, 2.0, 1.0), (0.2, 0.3, 0.1), 0.9)
        with pytest.raises(DmtError, match="no feasible lattice point"):
            full_lattice_minimum(inst, self.RES)
        with pytest.raises(DmtError, match="no feasible lattice point"):
            lp_grid(inst, self.RES)


def reference_lp_grid(instance, resolution):
    """lp_grid's search over the cached staircases as a boolean mask: one
    search per half-A point, lightest first, then the minimum over the
    points with a partner heavy enough."""
    (w_a, c_a), (w_b, c_b) = _grid_tables(instance.costs, instance.weights, resolution)
    pos = np.searchsorted(w_b, instance.bound - w_a - _FEAS_EPS, side="left")
    ok = pos < w_b.size
    if not ok.any():
        raise DmtError("no feasible lattice point; bound exceeds the box capacity")
    return float(np.min(c_a[ok] + c_b[pos[ok]]))


def feasible_half_a(instance, resolution):
    """Which half-A staircase points, lightest first, have a partner."""
    (w_a, _), (w_b, _) = _grid_tables(instance.costs, instance.weights, resolution)
    return np.searchsorted(w_b, instance.bound - w_a - _FEAS_EPS) < w_b.size


class TestLpGridMatchesReference:
    """The ascending search returns what the mask search returns, bit for
    bit, on rate sweeps and at the edges of the feasible prefix."""

    @staticmethod
    def assert_same(inst, resolution):
        try:
            expected = reference_lp_grid(inst, resolution)
        except DmtError:
            with pytest.raises(DmtError, match="no feasible lattice point"):
                lp_grid(inst, resolution)
            return
        assert lp_grid(inst, resolution) == expected, inst

    @pytest.mark.parametrize("k", range(1, 5))
    @pytest.mark.parametrize("resolution", [50, 200])
    def test_rate_sweeps(self, k, resolution):
        rng = np.random.default_rng(800 + 10 * k + resolution)
        for _ in range(4):
            profile = AntennaProfile(tuple(int(n) for n in rng.integers(1, 5, k)))
            raw = rng.random(k) + 0.02
            mu = validate_weights(tuple(raw / raw.sum()))
            upper = tuple(rng.uniform(0.3, 4.0, k))
            costs = tuple(rng.uniform(0.1, 3.0, k))
            weights = tuple(rng.uniform(0.05, 1.0, k) / (k * max(upper)))
            for r in np.linspace(0.0, k, 21):
                self.assert_same(LpInstance.alpha_form(profile, mu, float(r)), resolution)
                self.assert_same(x_form(profile, mu, float(r)), resolution)
                self.assert_same(unit_box(costs, weights, 1.0 - float(r) / k, upper),
                                 resolution)

    @pytest.mark.parametrize("k", range(1, 5))
    @pytest.mark.parametrize("resolution", [50, 200])
    def test_every_none_or_only_the_heaviest_half_a_point_feasible(self, k, resolution):
        # weights sum to 0.6, so every bound up to the capacity is valid
        rng = np.random.default_rng(900 + 10 * k + resolution)
        for _ in range(4):
            costs = tuple(rng.uniform(0.1, 3.0, k))
            raw = rng.random(k) + 0.02
            weights = tuple(0.6 * raw / raw.sum())
            (w_a, _), (w_b, _) = _grid_tables(costs, weights, resolution)
            for bound, feasible in ((0.0, "all"), (float(w_a[-1] + w_b[-1]), "heaviest"),
                                    (0.9, "none")):
                inst = LpInstance(costs, weights, bound)
                ok = feasible_half_a(inst, resolution)
                assert {"all": ok.all(), "heaviest": ok[-1] and ok.sum() == 1,
                        "none": not ok.any()}[feasible]
                self.assert_same(inst, resolution)


def half_table(costs, weights, indices, resolution):
    """One half-lattice table, every point, as _grid_tables lays it out:
    the first coordinate's level major."""
    levels = np.arange(resolution + 1) / resolution
    wsum = np.zeros(1)
    csum = np.zeros(1)
    for i in indices:
        wsum = (wsum[:, None] + (weights[i] * levels)[None, :]).ravel()
        csum = (csum[:, None] + (costs[i] * levels)[None, :]).ravel()
    return wsum, csum


def reference_grid_tables(costs, weights, resolution):
    """_grid_tables without the trade pruning: each half's whole table goes
    to _staircase."""
    k = len(costs)
    half = (k + 1) // 2
    return tuple(_staircase(*half_table(costs, weights, indices, resolution))
                 for indices in (range(half), range(half, k)))


class TestGridTablesMatchReference:
    """Pruning by trades before the sort leaves both staircases unchanged,
    bit for bit."""

    @staticmethod
    def assert_same(costs, weights, resolution):
        costs, weights = (tuple(float(x) for x in v) for v in (costs, weights))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _grid_tables.__wrapped__(costs, weights, resolution)
            expected = reference_grid_tables(costs, weights, resolution)
        for (w, c), (w_ref, c_ref) in zip(got, expected):
            assert np.array_equal(w, w_ref) and np.array_equal(c, c_ref), (
                costs, weights, resolution)

    def assert_instance(self, inst, resolution):
        self.assert_same(inst.costs, inst.weights, resolution)

    @pytest.mark.parametrize("k", [3, 4])
    @pytest.mark.parametrize("resolution", [50, 200])
    @pytest.mark.parametrize("form", [LpInstance.alpha_form, x_form])
    def test_random_instances(self, k, resolution, form):
        rng = np.random.default_rng(300 + 10 * k + resolution)
        for _ in range(12):
            profile = AntennaProfile(tuple(int(n) for n in rng.integers(1, 5, k)))
            raw = rng.random(k) + 0.02
            self.assert_instance(form(profile, validate_weights(tuple(raw / raw.sum())), 1.0),
                                 resolution)

    @pytest.mark.parametrize("k", [3, 4])
    @pytest.mark.parametrize("resolution", [50, 200])
    def test_box_limits_folded_into_the_unit_box(self, k, resolution):
        rng = np.random.default_rng(400 + 10 * k + resolution)
        for _ in range(12):
            upper = rng.uniform(0.3, 4.0, k)
            costs = rng.uniform(0.1, 3.0, k)
            self.assert_same(costs * upper,
                             rng.uniform(0.05, 1.0, k) / (k * upper.max()) * upper, resolution)

    @pytest.mark.parametrize("resolution", [50, 200])
    def test_exactly_tied_ratios(self, resolution):
        # dyadic weights and costs: c_i / w_i ties exactly within each half,
        # so no trade clears the margin
        for costs, weights in (
            ((1.0, 3.0, 2.0, 6.0), (0.125, 0.375, 0.125, 0.375)),
            ((2.0, 2.0, 1.0), (0.25, 0.25, 0.5)),
            ((1.0, 2.0, 1.0, 4.0), (0.125, 0.25, 0.25, 1.0)),
        ):
            self.assert_same(costs, weights, resolution)

    @pytest.mark.parametrize("resolution", [50, 200])
    def test_integer_costs_with_tied_weights(self, resolution):
        for costs in ((1.0, 1.0, 1.0), (2.0, 1.0, 2.0), (1.0, 2.0, 3.0, 1.0), (3.0, 1.0, 1.0, 2.0)):
            k = len(costs)
            self.assert_same(costs, (1.0 / k,) * k, resolution)

    @pytest.mark.parametrize("resolution", [50, 200])
    def test_one_coordinate_at_1e_9_of_the_others_scale(self, resolution):
        base = np.array([0.3, 0.2, 0.25, 0.25]), np.array([2.0, 1.0, 3.0, 1.5])
        for k in (3, 4):
            for j in range(k):
                weights, costs = (v[:k].copy() for v in base)
                weights[j] *= 1e-9
                self.assert_same(costs, weights, resolution)
                costs[j] *= 1e-9
                self.assert_same(costs, weights, resolution)

    def test_resolution_999(self):
        self.assert_instance(
            LpInstance.alpha_form(AntennaProfile((3, 1, 2)), validate_weights((0.5, 0.3, 0.2)),
                                  1.0), 999)

    @pytest.mark.parametrize("k", [3, 4])
    def test_tiny_and_subnormal_coefficients(self, k):
        # LpInstance accepts any positive finite floats, so a weight or cost
        # can be subnormal, and its levels underflow; a half with one outside
        # _TRADE_RANGE is sorted whole, with no warning
        for coefs in (
            ((1e-200, 2.0, 1.5, 1.0), (1e-310, 0.5, 0.4, 0.3)),
            ((1e-310, 2.0, 1.5, 1e-310), (2e-201, 0.5, 0.4, 3e-201)),
            ((1e-200, 1e-200, 1.0, 2.0), (1e-200, 1e-200, 0.5, 0.5)),
        ):
            costs, weights = (v[:k] for v in coefs)
            for resolution in (50, 200):
                self.assert_same(costs, weights, resolution)

    def test_cold_k4_build_peaks_below_a_quarter_of_the_whole_table(self):
        # only the points no trade beats are built, not the (res + 1)^2 table
        inst = LpInstance.alpha_form(AntennaProfile((3, 1, 2, 2)),
                                     validate_weights((0.4, 0.3, 0.2, 0.1)), 1.0)

        def peak(build):
            tracemalloc.start()
            try:
                build(inst.costs, inst.weights, 999)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(_grid_tables.__wrapped__) < peak(reference_grid_tables) / 4

    def test_tiny_and_subnormal_coefficients_keep_the_lattice_minimum(self):
        for costs, weights in (
            ((1e-200, 2.0, 1.5), (1e-310, 0.5, 0.4)),
            ((1e-310, 2.0, 1.5), (2e-201, 0.5, 0.4)),
        ):
            for bound in (0.0, 0.3, 0.85):
                inst = LpInstance(costs, weights, bound)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    assert lp_grid(inst, 50) == full_lattice_minimum(inst, 50)


# two-coordinate halves (weights, costs) at res = 50, cheaper per weight
# coordinate first, then second
CHEAPER_FIRST = [
    ((0.7, 0.3), (1.0, 2.0)),
    ((0.5, 0.5), (1.0, 2.0)),  # tied weights, integer costs
    ((0.7 / 3 * 3.0, 0.3 / 2 * 2.0), (3.0, 2.0)),  # x form on the unit box
    ((0.2 * 3.1, 0.45 * 0.4), (0.3 * 3.1, 2.9 * 0.4)),  # limits (3.1, 0.4)
    ((0.4, 0.6), (1.0, 1.6)),  # ratios 6% apart
]
CHEAPER_SECOND = [tuple(v[::-1] for v in half) for half in CHEAPER_FIRST]


class TestTradePruning:
    """The trade rule by brute force over every point of a half at res = 50."""

    RES = 50

    def table(self, weights, costs):
        return half_table(costs, weights, (0, 1), self.RES)

    def untraded(self, half):
        """_untraded's kept level indices as a mask over the half's table."""
        keep = np.zeros((self.RES + 1, self.RES + 1), dtype=bool)
        keep[_untraded(*half, self.RES)] = True
        return keep.ravel()

    @pytest.mark.parametrize("half", CHEAPER_FIRST + CHEAPER_SECOND)
    def test_every_dropped_point_is_beaten_in_float(self, half):
        wsum, csum = self.table(*half)
        keep = self.untraded(half)
        dropped = np.flatnonzero(~keep)
        assert dropped.size > 0
        beaten = (wsum[None, :] > wsum[dropped, None]) & (csum[None, :] < csum[dropped, None])
        assert beaten.any(axis=1).all()

    @pytest.mark.parametrize("half", CHEAPER_FIRST + CHEAPER_SECOND)
    def test_every_staircase_point_is_kept(self, half):
        wsum, csum = self.table(*half)
        keep = self.untraded(half)
        kept = set(zip(wsum[keep].tolist(), csum[keep].tolist()))
        w, c = _staircase(wsum, csum)
        assert set(zip(w.tolist(), c.tolist())) <= kept

    def test_halves_cover_both_orientations(self):
        for first, second in zip(CHEAPER_FIRST, CHEAPER_SECOND):
            (w0, w1), (c0, c1) = first
            assert c0 / w0 < c1 / w1
            (w0, w1), (c0, c1) = second
            assert c0 / w0 > c1 / w1

    @pytest.mark.parametrize("half", [
        ((0.25, 0.5), (1.0, 2.0)),
        ((0.25, 0.1875), (1.0, 0.75)),
        ((0.5, 0.5), (1.0, 1.0)),
    ])
    def test_tied_ratios_drop_nothing(self, half):
        assert self.untraded(half).all()

    def test_coefficients_outside_the_range_are_not_pruned(self):
        assert _untraded((1e-310, 0.5), (1.0, 2.0), self.RES) is None
        assert _untraded((0.5, 0.5), (1e-200, 2.0), self.RES) is None
        assert _untraded((0.5, 0.5), (1.0, 1e60), self.RES) is None
