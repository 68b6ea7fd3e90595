"""The package's argument checks: every invalid number raises a ``DmtError``.

``wdmt.core`` holds the checks that the entry points and value classes below
and the CLI's converters share: ``check_real`` (a finite real number within
the bounds its caller passes), ``check_count`` (an integer >= a minimum),
``check_window`` and ``check_rho``, both built on ``check_real``, and
``check_weight_sum``. The property feeds each numeric argument NaN,
infinities, negative, out-of-range, non-integral and bool values, and each
real-valued one also non-numbers, an int past the float range and a
two-element array, and expects a ``DmtError`` and nothing else; valid
values, drawn from bounded ranges, must pass.
"""

import ast
import dataclasses
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wdmt
from wdmt import (
    AntennaProfile,
    BadSumError,
    DmtCurve,
    DmtError,
    ExponentSolution,
    LpInstance,
    OutOfRangeError,
    OutageEstimate,
    Scenario,
    SlopeFit,
    Weights,
    compare,
    confidence_interval,
    dmt_different,
    fit_slope,
    lp_greedy,
    lp_grid,
    outage_probabilities,
    outage_probability,
    outage_table,
    validate_gain_distribution,
    validate_weights,
)
from wdmt.core import check_count, check_weight_sum

W2 = validate_weights((0.6, 0.4))
PROFILE = AntennaProfile((2, 1))
CURVE = dmt_different(PROFILE, W2)  # r in [0, 2]
ZF = Scenario(kind="bc-zf", weights=W2, m=3)
INSTANCE = LpInstance.alpha_form(PROFILE, W2, 1.0)
FIT = SlopeFit(d_hat=2.0, stderr=0.1, window=(10.0, 30.0), points_used=3)
ESTIMATES = [
    OutageEstimate(rho=10.0 ** (db / 10.0), r=1.0, n_samples=10_000, n_outages=n,
                   ci_low=0.0, ci_high=1.0)
    for db, n in ((10.0, 1000), (20.0, 100), (30.0, 30))
]

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
NEGATIVE = st.floats(max_value=-math.ulp(0.0))
NOT_NUMBERS = st.sampled_from(["x", "a", "0.5", None, (), 1j])
# not a real number within the float range: what check_real rejects before any bound
NOT_REALS = st.one_of(NOT_NUMBERS, st.just(10**400), st.just(np.array([1.0, 2.0])))
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def bad_counts(minimum):
    # every float is rejected, integral ones (2.0) included
    return st.one_of(NON_FINITE, st.booleans(), st.floats(), st.integers(max_value=minimum - 1))


def bad_rates(k):
    return st.one_of(NON_FINITE, NEGATIVE, st.floats(min_value=k, exclude_min=True))


def estimate(**field):  # p_hat = 0.1
    values = dict(rho=10.0, r=1.0, n_samples=100, n_outages=10, ci_low=0.0, ci_high=1.0)
    return OutageEstimate(**{**values, **field})


def slope_fit(**field):
    return SlopeFit(**{**dict(d_hat=2.0, stderr=0.1, window=(10.0, 30.0), points_used=3), **field})


BAD_POSITIVES = st.one_of(NON_FINITE, st.floats(max_value=0.0))
# outage_probability accepts rho up to 1e300, so that the capacity stays finite.
GOOD_RHO = st.floats(min_value=1e-300, max_value=1e300)

# entry point and argument -> (call with that argument, invalid values, valid values)
SLOTS = {
    "AntennaProfile(n)": (
        lambda v: AntennaProfile((2, v)), bad_counts(1), st.integers(1, 9)),
    "Scenario(n_t)": (
        lambda v: Scenario(kind="parallel-identical", weights=W2, n_t=v),
        bad_counts(1), st.integers(1, 9)),
    "Scenario(m)": (
        lambda v: Scenario(kind="bc-dpc", weights=W2, m=v), bad_counts(2), st.integers(2, 9)),
    "DmtCurve.evaluate(r)": (CURVE.evaluate, bad_rates(2.0), st.floats(0.0, 2.0)),
    "DmtCurve(corner r)": (
        lambda v: DmtCurve(((0.0, 2.0), (v, 0.0))), st.one_of(NON_FINITE, NOT_REALS),
        st.floats(1e-300, 1e300)),
    "DmtCurve(corner d)": (
        lambda v: DmtCurve(((0.0, v), (2.0, 0.0))), st.one_of(NON_FINITE, NOT_REALS),
        st.floats(0.0, 1e300)),
    "LpInstance(bound)": (  # [0, 1] with a 1e-12 feasibility slack
        lambda v: LpInstance((2.0, 1.0), (0.6, 0.4), v),
        st.one_of(NON_FINITE, NOT_REALS, st.floats(max_value=-1e-11),
                  st.floats(min_value=1.0 + 1e-11)),
        st.floats(0.0, 1.0)),
    "ExponentSolution(alpha)": (  # [0, 1] exactly
        lambda v: ExponentSolution((v, 0.5), 1.0),
        st.one_of(NON_FINITE, NOT_REALS, st.floats(max_value=-5e-324),
                  st.floats(min_value=math.nextafter(1.0, 2.0))),
        st.floats(0.0, 1.0)),
    "ExponentSolution(d)": (
        lambda v: ExponentSolution((0.5,), v), st.one_of(NON_FINITE, NOT_REALS), FINITE),
    "SlopeFit(d_hat)": (lambda v: slope_fit(d_hat=v), st.one_of(NON_FINITE, NOT_REALS), FINITE),
    "SlopeFit(stderr)": (
        lambda v: slope_fit(stderr=v), st.one_of(NON_FINITE, NEGATIVE, NOT_REALS),
        st.floats(0.0, 1e300)),
    "Weights(entry)": (  # one entry: it must lie within 1e-9 of 1
        lambda v: Weights((v,)), st.one_of(NON_FINITE, NOT_REALS), st.floats(1 - 1e-10, 1 + 1e-10)),
    "lp_greedy(r)": (
        lambda v: lp_greedy(PROFILE, W2, v), bad_rates(2.0), st.floats(0.0, 2.0)),
    "LpInstance.alpha_form(r)": (
        lambda v: LpInstance.alpha_form(PROFILE, W2, v), bad_rates(2.0), st.floats(0.0, 2.0)),
    "lp_grid(resolution)": (  # K = 2: at most 10^6 points, res + 1, per half-lattice
        lambda v: lp_grid(INSTANCE, v),
        st.one_of(bad_counts(50), st.integers(min_value=10**6)), st.integers(50, 80)),
    "outage_probability(r)": (
        lambda v: outage_probability(ZF, v, 10.0, 16, 0), bad_rates(2.0), st.floats(0.0, 2.0)),
    "outage_probability(rho)": (
        lambda v: outage_probability(ZF, 1.0, v, 16, 0),
        st.one_of(BAD_POSITIVES, st.floats(min_value=1e300, exclude_min=True),
                  st.just(np.array([1.0, 2.0]))),
        GOOD_RHO),
    "outage_probability(n_samples)": (
        lambda v: outage_probability(ZF, 1.0, 10.0, v, 0), bad_counts(1), st.integers(1, 64)),
    "outage_probability(shards)": (
        lambda v: outage_probability(ZF, 1.0, 10.0, 16, 0, shards=v),
        bad_counts(1), st.integers(1, 32)),
    "outage_probabilities(rates)": (  # a bad entry, a non-sequence, an empty sequence
        lambda v: outage_probabilities(ZF, v, 10.0, 16, 0),
        st.one_of(st.tuples(st.floats(0.0, 2.0), bad_rates(2.0)), NON_FINITE, NOT_NUMBERS,
                  st.just([])),
        st.lists(st.floats(0.0, 2.0), min_size=1, max_size=4)),
    "outage_table(points)": (  # a bad rho, a non-pair, a non-sequence, an empty sequence
        lambda v: outage_table(ZF, (1.0,), v, 16),
        st.one_of(st.tuples(st.tuples(GOOD_RHO, st.just(0)), st.tuples(BAD_POSITIVES, st.just(1))),
                  st.tuples(st.sampled_from([(10.0,), 10.0, (10.0, 0, 1)])), NON_FINITE,
                  NOT_NUMBERS, st.just([])),
        st.lists(st.tuples(GOOD_RHO, st.integers(0, 99)), min_size=1, max_size=4)),
    "confidence_interval(n_outages)": (
        lambda v: confidence_interval(v, 100),
        st.one_of(bad_counts(0), st.integers(min_value=101)), st.integers(0, 100)),
    "confidence_interval(n_samples)": (
        lambda v: confidence_interval(10, v),
        st.one_of(bad_counts(1), st.integers(1, 9)), st.integers(10, 10**6)),
    "validate_gain_distribution(index)": (
        lambda v: validate_gain_distribution(ZF, v, 8, 0),
        st.one_of(bad_counts(0), st.integers(min_value=2)), st.integers(0, 1)),
    "validate_gain_distribution(n_samples)": (
        lambda v: validate_gain_distribution(ZF, 0, v, 0), bad_counts(2), st.integers(2, 64)),
    "OutageEstimate(rho)": (lambda v: estimate(rho=v), BAD_POSITIVES, GOOD_RHO),
    "OutageEstimate(r)": (
        lambda v: estimate(r=v), st.one_of(NON_FINITE, NEGATIVE), st.floats(0.0, 1e300)),
    "OutageEstimate(ci_low)": (  # at most p_hat + 1e-12
        lambda v: estimate(ci_low=v),
        st.one_of(NON_FINITE, NOT_REALS, st.floats(min_value=0.1 + 1e-11)), st.floats(-1.0, 0.1)),
    "OutageEstimate(ci_high)": (  # at least p_hat - 1e-12
        lambda v: estimate(ci_high=v),
        st.one_of(NON_FINITE, NOT_REALS, st.floats(max_value=0.1 - 1e-11)), st.floats(0.1, 2.0)),
    "OutageEstimate(n_samples)": (
        lambda v: estimate(n_samples=v),
        st.one_of(bad_counts(1), st.integers(1, 9)), st.integers(10, 10**6)),
    "OutageEstimate(n_outages)": (
        lambda v: estimate(n_outages=v),
        st.one_of(bad_counts(0), st.integers(min_value=101)), st.integers(0, 100)),
    "compare(tol)": (
        lambda v: compare(FIT, CURVE, 1.0, tol=v),
        st.one_of(NON_FINITE, NEGATIVE, NOT_NUMBERS, st.just(np.array([1.0, 2.0]))),
        st.floats(0.0, 10.0)),
    "fit_slope(window)": (
        lambda v: fit_slope(ESTIMATES, v),
        st.one_of(
            st.tuples(st.one_of(NON_FINITE, NOT_NUMBERS), st.floats(0.0, 40.0)),
            st.tuples(st.floats(0.0, 10.0), st.one_of(NON_FINITE, NOT_NUMBERS)),
            st.tuples(st.floats(30.0, 1e300), st.floats(-1e300, 29.0)),  # low > high
            st.sampled_from([(1,), 5, (1, 2, 3), None]),  # not a pair
        ),
        st.tuples(st.floats(-1e300, 10.0), st.floats(30.0, 1e300))),
}

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@pytest.mark.parametrize("slot", sorted(SLOTS))
@PROPERTY
@given(data=st.data())
def test_invalid_number_raises_dmt_error(slot, data):
    call, bad, _ = SLOTS[slot]
    value = data.draw(bad, label=slot)
    with pytest.raises(DmtError):
        call(value)


@pytest.mark.parametrize("slot", sorted(SLOTS))
@PROPERTY
@given(data=st.data())
def test_valid_number_passes(slot, data):
    call, _, good = SLOTS[slot]
    result = call(data.draw(good, label=slot))
    assert all(map(math.isfinite, floats_in(result))), result


def floats_in(value):
    """Every float of ``value``, through tuples, lists and dataclass fields."""
    if isinstance(value, float):  # np.float64 included
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from floats_in(item)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from floats_in(getattr(value, field.name))


class _Count(int):
    pass


@pytest.mark.parametrize("value", [1, 7, 2**70, np.int64(7), np.uint8(7), _Count(7)],
                         ids=["one", "int", "big-int", "int64", "uint8", "int-subclass"])
def test_check_count_returns_an_int(value):
    result = check_count("n", value, 1)
    assert type(result) is int and result == value


@pytest.mark.parametrize("value", [0, -1, np.int64(0), True, False, 2.0, np.float64(2.0), "2",
                                   None, Fraction(2)],
                         ids=["zero", "negative", "int64-zero", "true", "false", "float",
                              "float64", "text", "none", "fraction"])
def test_check_count_rejects_what_is_not_a_count(value):
    with pytest.raises(OutOfRangeError, match=r"^n must be an integer >= 1, got "):
        check_count("n", value, 1)


def test_compare_rel_error_is_inf_where_the_curve_reaches_zero():
    # the one non-finite value that a valid call returns, by design
    report = compare(FIT, CURVE, 2.0)
    assert report.d_analytic == 0.0 and report.rel_error == math.inf
    assert list(floats_in(report)).count(math.inf) == 1


@pytest.mark.parametrize("rates, message", [
    ((1.0, 2.5), "r must be a finite number in [0.0, 2.0], got 2.5"),
    (1.0, "rates must be a sequence, got 1.0"),
    ((), "rates must hold at least one rate"),
], ids=["bad-entry", "non-sequence", "empty"])
def test_outage_probabilities_checks_its_rates_first(rates, message):
    # before rho, n_samples and shards, which are invalid here too
    with pytest.raises(OutOfRangeError) as info:
        outage_probabilities(ZF, rates, math.nan, 0, 0, shards=0)
    assert str(info.value) == message


def test_non_number_window_raises_dmt_error():
    with pytest.raises(DmtError):
        fit_slope([], ("a", 1))


@pytest.mark.parametrize("window, message", [
    ("junk", "window must be a sequence of 2 items, got 'junk'"),
    (None, "window must be a sequence of 2 items, got None"),
    ((30.0, 10.0), "window must have low <= high, got (30.0, 10.0)"),
    ((math.nan, 1.0), "window low must be a finite number in (-inf, inf), got nan"),
], ids=["string", "none", "reversed", "nan"])
def test_slope_fit_and_fit_slope_check_the_window_alike(window, message):
    # each was stored as given
    for call in (lambda: slope_fit(window=window), lambda: fit_slope(ESTIMATES, window)):
        with pytest.raises(OutOfRangeError) as info:
            call()
        assert str(info.value) == message
    assert slope_fit(window=(10, np.float64(30.0))).window == (10.0, 30.0)


@pytest.mark.parametrize("mu", [1.0, None, 5, "0.5", ("0.5", "0.5")])
def test_weights_need_a_sequence_of_real_numbers(mu):
    # ("0.5", "0.5") was accepted, and 1.0 and None escaped as TypeError
    with pytest.raises(DmtError):
        Weights(mu)


@pytest.mark.parametrize("call, field", [
    (lambda: DmtCurve(5), "corners"),
    (lambda: DmtCurve(((0.0, 1.0, 2.0), (1.0, 0.0))), "corner"),
    (lambda: DmtCurve(((0.0, 1.0), (1.0,))), "corner"),
    (lambda: ExponentSolution(0.5, 1.0), "alpha"),
    (lambda: LpInstance(1.0, (1.0,), 0.5), "LP costs"),
    (lambda: LpInstance((1.0,), 1.0, 0.5), "LP weights"),
    (lambda: AntennaProfile(5), "antenna counts"),
    (lambda: AntennaProfile(None), "antenna counts"),
], ids=["curve-number", "corner-triple", "corner-single", "alpha-number", "lp-costs",
        "lp-weights", "profile-number", "profile-none"])
def test_malformed_sequence_is_named_by_its_field(call, field):
    # each escaped as a bare TypeError or ValueError from the iteration
    with pytest.raises(OutOfRangeError, match=f"^{field} must be a sequence"):
        call()


@pytest.mark.parametrize("costs, weights, total", [
    ((1.0, 1.0), (1e308, 1e308), "weights"),
    ((1e308, 1e308), (0.5, 0.5), "costs"),
    ((1.0, 1.0, 1.0), (1.7e308, 1e307, 0.5), "weights"),
    ((1.7e308, 1.0, 1e307), (0.5, 0.3, 0.2), "costs"),
], ids=["sum-of-weights", "sum-of-costs", "sum-of-three-weights", "sum-of-three-costs"])
def test_lp_instance_rejects_totals_past_the_float_range(costs, weights, total):
    # every field is positive and finite; a box vertex's weight or cost past
    # the float range made lp_vertex compare inf and NaN sums
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfRangeError, match=f"^LP sum of {total} must be a finite number"):
            LpInstance(costs, weights, 0.5)


def test_weight_sum_past_the_float_range_reads_inf():
    # the exact Fraction total of --weights 1e400,1 escaped as an OverflowError
    with pytest.raises(BadSumError) as info:
        check_weight_sum(Fraction(10**400) + 1)
    assert str(info.value) == "weights sum to inf; expected 1 within 1e-09"


def test_dmt_error_is_a_value_error():
    assert issubclass(DmtError, ValueError)


def test_package_raises_no_bare_value_or_type_error():
    # a rejected input raises a DmtError subclass (CliError in the CLI
    # converters), never a bare ValueError or TypeError
    offenders = []
    for path in sorted(Path(wdmt.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id in ("ValueError", "TypeError"):
                    offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
