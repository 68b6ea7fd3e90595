"""Core domain types for diversity-multiplexing tradeoff (DMT) analysis of
weighted parallel fading channels and MISO broadcast precoding.

All types are immutable and validated at construction; every operation is
pure, so values can be shared freely across threads and processes.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

__all__ = [
    "WEIGHT_SUM_TOL",
    "SCENARIO_KINDS",
    "DmtError",
    "NonPositiveWeightError",
    "BadSumError",
    "DimensionMismatchError",
    "TooManyUsersError",
    "OutOfRangeError",
    "TooLargeError",
    "Weights",
    "AntennaProfile",
    "DmtCurve",
    "Scenario",
    "validate_weights",
    "ordering",
]

# Acceptable deviation of a raw weight sum from 1 before rejection.
WEIGHT_SUM_TOL = 1e-9

SCENARIO_KINDS = ("parallel-identical", "parallel-different", "bc-zf", "bc-dpc")
# The one Scenario field that holds each kind's transmit antennas
ANTENNA_FIELD = {"parallel-identical": "n_t", "parallel-different": "profile", "bc-zf": "m",
                 "bc-dpc": "m"}


class DmtError(ValueError):
    """Base class for all domain errors raised by this package."""


class NonPositiveWeightError(DmtError):
    """A weight entry is zero or negative."""


class BadSumError(DmtError):
    """Weight entries do not sum to 1 within tolerance."""


class DimensionMismatchError(DmtError):
    """Lengths of weights / antenna profile / LP vectors disagree."""


class TooManyUsersError(DmtError):
    """Broadcast setup with more single-antenna users than transmit antennas."""


class OutOfRangeError(DmtError):
    """A bounded argument (multiplexing gain, SNR, index) is outside its range or
    is not a real number."""


class TooLargeError(DmtError):
    """Problem size exceeds the enforced enumeration limit."""


@dataclass(frozen=True)
class Weights:
    """Positive per-channel (or per-user) weights summing to 1.

    Construction validates the invariants but does not renormalize; use
    :func:`validate_weights` to build from raw input.
    """

    mu: tuple[float, ...]

    def __post_init__(self):
        mu = check_sequence("weights", self.mu)
        try:
            for x in mu:
                math.isnan(x)  # a TypeError unless x is a real number, though float() takes "0.5"
            mu = tuple(map(float, mu))
        except (TypeError, ValueError, OverflowError):
            raise OutOfRangeError(
                f"weights must be real numbers in the float range, got {self.mu!r}"
            ) from None
        object.__setattr__(self, "mu", mu)
        if len(mu) < 1:
            raise BadSumError("weight vector must have at least one entry")
        if not all(x > 0.0 for x in mu):  # NaN fails too
            raise NonPositiveWeightError(f"all weights must be > 0, got {mu}")
        try:
            total = math.fsum(mu)
        except OverflowError:  # finite entries whose sum overflows
            total = math.inf
        check_weight_sum(total)

    def __len__(self) -> int:
        return len(self.mu)


def validate_weights(raw) -> Weights:
    """Validate a raw weight vector and renormalize its sum to exactly 1.0.

    Entries must be strictly positive and sum to 1 within ``WEIGHT_SUM_TOL``.
    After acceptance the vector is rescaled so the float sum lands exactly on
    1.0, which keeps downstream corner-point formulas drift-free and makes
    this function idempotent.

    Raises
    ------
    OutOfRangeError
        If ``raw`` is not a sequence of real numbers.
    NonPositiveWeightError
        If any entry is <= 0 or NaN.
    BadSumError
        If the vector is empty or its sum deviates from 1 beyond tolerance
        (an infinite entry included).
    """
    mu = Weights(raw).mu  # the checks live in Weights
    total = math.fsum(mu)
    if total != 1.0:
        mu = tuple(x / total for x in mu)
        if math.fsum(mu) != 1.0 and len(mu) > 1:
            # Division can leave the sum an ulp off 1.0. Recompute the
            # smallest entry as the complement of the others; since that
            # entry is <= 0.5 the subtraction is exact and the new sum
            # rounds to exactly 1.0.
            j = min(range(len(mu)), key=lambda i: (mu[i], i))
            rest = math.fsum(mu[:j] + mu[j + 1 :])
            adjusted = 1.0 - rest
            if adjusted > 0.0:
                mu = mu[:j] + (adjusted,) + mu[j + 1 :]
    return Weights(mu)


def check_weight_sum(total) -> None:
    """``BadSumError`` unless the weight total, a float or an exact ``Fraction``,
    lies within ``WEIGHT_SUM_TOL`` of 1 (NaN fails too)."""
    if not abs(total - 1) <= WEIGHT_SUM_TOL:
        try:
            shown = float(total)
        except OverflowError:  # a Fraction total past the float range
            shown = math.inf if total > 0 else -math.inf
        raise BadSumError(f"weights sum to {shown!r}; expected 1 within {WEIGHT_SUM_TOL}")


def check_sequence(name: str, value, size: int | None = None) -> tuple:
    """The items of ``value`` as a tuple if it is iterable and, when ``size``
    is given, holds exactly ``size`` items; else ``OutOfRangeError``."""
    try:
        items = tuple(value)
    except TypeError:
        items = None
    if items is None or size not in (None, len(items)):
        length = "" if size is None else f" of {size} items"
        raise OutOfRangeError(f"{name} must be a sequence{length}, got {value!r}")
    return items


def check_count(name: str, value, minimum: int) -> int:
    """``value`` as an int if it is an integer (not a bool) >= ``minimum``, else
    ``OutOfRangeError``; 2.0, 2.5, ``True`` and ``"2"`` are not counts."""
    if type(value) is int and value >= minimum:  # the common case, before the ABC check
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise OutOfRangeError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def check_real(name: str, value, low=-math.inf, high=math.inf, *, open_low=False) -> float:
    """``value`` as a float if it is a finite real number in [low, high], or in
    (low, high] with ``open_low``; else ``OutOfRangeError``. A string, a complex,
    a multi-element array, NaN, an infinity and an int past the float range fail."""
    try:
        if math.isfinite(value) and (low < value if open_low else low <= value) and value <= high:
            return float(value)
    except (TypeError, ValueError, OverflowError):
        pass
    left = "(" if open_low or low == -math.inf else "["
    right = ")" if high == math.inf else "]"
    raise OutOfRangeError(
        f"{name} must be a finite number in {left}{float(low)!r}, {float(high)!r}{right}, "
        f"got {value!r}"
    )


def check_window(low, high) -> tuple[float, float]:
    """A fit window's ends as floats if both are finite and low <= high."""
    low, high = check_real("window low", low), check_real("window high", high)
    if low > high:
        raise OutOfRangeError(f"window must have low <= high, got ({low}, {high})")
    return low, high


# Largest linear SNR (3000 dB) that check_rho accepts: the capacity multiplies each
# gain g by mu * rho, and at rho = 1e308 that overflows for gains of order 1.
_MAX_RHO = 1e300


def check_rho(rho) -> float:
    """Linear SNR ``rho`` as a float if it lies in (0, ``_MAX_RHO``]."""
    return check_real("linear SNR rho", rho, 0.0, _MAX_RHO, open_low=True)


@dataclass(frozen=True)
class AntennaProfile:
    """Transmit antenna count per parallel channel (all counts >= 1)."""

    n: tuple[int, ...]

    def __post_init__(self):
        counts = check_sequence("antenna counts", self.n)
        counts = tuple(check_count("antenna count", x, 1) for x in counts)
        if len(counts) < 1:
            raise DmtError("antenna profile must have at least one channel")
        object.__setattr__(self, "n", counts)

    def total_diversity(self) -> int:
        """Sum of all antenna counts, the diversity available at zero rate."""
        return sum(self.n)

    def __len__(self) -> int:
        return len(self.n)


# Relative gap below which two sort keys count as tied. Exact rational ties
# (e.g. 0.6/3 vs 0.4/2) survive float rounding only to within a few ulps, so
# ties must be detected with slack or the stable tie-break never fires.
_TIE_RTOL = 1e-12


def stable_desc_order(values) -> tuple[int, ...]:
    """Indices sorting ``values`` descending; near-ties by ascending index.

    Values within relative ``_TIE_RTOL`` of the head of their run are grouped
    as tied and emitted in ascending original order.
    """
    vals = [float(v) for v in values]
    by_value = sorted(range(len(vals)), key=lambda i: (-vals[i], i))
    groups: list[list[int]] = []
    for i in by_value:
        if groups:
            head = vals[groups[-1][0]]
            if abs(vals[i] - head) <= _TIE_RTOL * max(abs(vals[i]), abs(head)):
                groups[-1].append(i)
                continue
        groups.append([i])
    return tuple(i for group in groups for i in sorted(group))


@lru_cache(maxsize=128)  # an entry is a few short tuples; a rate sweep needs one
def ordering(weights: Weights, profile: AntennaProfile) -> tuple[int, ...]:
    """Channel indices sorted by mu_i / n_i, descending: entry j is the
    original 0-based index of the channel at sorted position j. Channels
    with equal weight-per-antenna (up to float noise) keep index order.

    Cached by the frozen weights and profile, so a rate sweep sorts once;
    equal arguments share one (immutable) tuple, and a raised error is not
    cached.

    Raises
    ------
    DimensionMismatchError
        If the weight and profile lengths differ.
    """
    if len(weights) != len(profile):
        raise DimensionMismatchError(
            f"{len(weights)} weights vs {len(profile)} antenna counts"
        )
    per_antenna = [m / n for m, n in zip(weights.mu, profile.n)]
    return stable_desc_order(per_antenna)


_RATE = itemgetter(0)  # the rate of a corner (r, d)


@dataclass(frozen=True)
class DmtCurve:
    """Piecewise-linear diversity-multiplexing tradeoff.

    ``corners`` are the breakpoints (r_i, d_i) with r strictly increasing
    from 0, d non-increasing, and d = 0 at the final corner, so d >= 0.
    Collinear corners are retained on purpose: they carry the structural
    breakpoints of the generating formulas and keep corner counts deterministic.
    """

    corners: tuple[tuple[float, float], ...]

    def __post_init__(self):
        pairs = [check_sequence("corner", c, 2) for c in check_sequence("corners", self.corners)]
        pts = tuple((check_real("corner r", r), check_real("corner d", d)) for r, d in pairs)
        if len(pts) < 2:
            raise DmtError("a DMT curve needs at least two corners")
        if pts[0][0] != 0.0:
            raise DmtError(f"first corner must be at r = 0, got {pts[0]}")
        if any(b[0] <= a[0] for a, b in zip(pts, pts[1:])):
            raise DmtError(f"corner rates must be strictly increasing: {pts}")
        if any(b[1] > a[1] for a, b in zip(pts, pts[1:])):
            raise DmtError(f"corner diversities must be non-increasing: {pts}")
        if pts[-1][1] != 0.0:
            raise DmtError(f"last corner must have d = 0, got {pts[-1]}")
        object.__setattr__(self, "corners", pts)

    @property
    def max_rate(self) -> float:
        """Largest supported multiplexing gain (r at the final corner)."""
        return self.corners[-1][0]

    @property
    def max_diversity(self) -> float:
        """Diversity at r = 0."""
        return self.corners[0][1]

    def evaluate(self, r: float) -> float:
        """Diversity at multiplexing gain ``r`` by linear interpolation.

        Exact at the corner abscissae. Raises ``OutOfRangeError`` outside
        [0, max_rate].
        """
        r = check_real("r", r, 0.0, self.max_rate)
        i = bisect_right(self.corners, r, key=_RATE) - 1
        r0, d0 = self.corners[i]
        if r == r0:
            return d0
        r1, d1 = self.corners[i + 1]
        t = (r - r0) / (r1 - r0)
        return d0 + t * (d1 - d0)


@dataclass(frozen=True)
class Scenario:
    """One analyzable configuration: channel layout plus weights.

    kinds
    -----
    parallel-identical
        K parallel MISO channels, ``n_t`` transmit antennas each.
    parallel-different
        K parallel MISO channels with per-channel counts from ``profile``.
    bc-zf / bc-dpc
        Broadcast channel, ``m`` transmit antennas, K single-antenna users,
        zero-forcing or dirty-paper precoding.

    Each kind sets exactly one of ``n_t``, ``profile`` and ``m``, the one
    that ``ANTENNA_FIELD`` names; setting another is an error.
    """

    kind: str
    weights: Weights
    n_t: int | None = None
    profile: AntennaProfile | None = None
    m: int | None = None

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise DmtError(f"unknown scenario kind {self.kind!r}")
        if not isinstance(self.weights, Weights):
            raise DmtError(f"weights must be a Weights, got {self.weights!r}")
        used = ANTENNA_FIELD[self.kind]
        unused = [f for f in ("n_t", "profile", "m") if f != used and getattr(self, f) is not None]
        if unused:
            raise DmtError(f"{self.kind} uses {used} only, got {', '.join(unused)} too")
        k = len(self.weights)
        if used == "profile":
            if not isinstance(self.profile, AntennaProfile):
                raise DmtError(f"parallel-different needs an AntennaProfile, got {self.profile!r}")
            if len(self.profile) != k:
                raise DimensionMismatchError(
                    f"{k} weights vs {len(self.profile)} antenna counts"
                )
        else:
            object.__setattr__(self, used, check_count(used, getattr(self, used), 1))
            if used == "m" and k > self.m:
                raise TooManyUsersError(
                    f"{k} single-antenna users exceed {self.m} transmit antennas"
                )

    @property
    def k(self) -> int:
        return len(self.weights)

    def encode_order(self) -> tuple[int, ...]:
        """Per-user processing order for gain computation.

        For bc-dpc this is decreasing weight (ties by ascending index), the
        order in which users are successively encoded. All other kinds use
        the natural order.
        """
        if self.kind == "bc-dpc":
            return stable_desc_order(self.weights.mu)
        return tuple(range(self.k))

    def encoded_weights(self) -> tuple[float, ...]:
        """The weights in ``encode_order()``: entry j weighs the effective
        gain of entry j of ``gain_shapes()``."""
        mu = self.weights.mu
        return tuple(mu[i] for i in self.encode_order())

    def gain_shapes(self) -> tuple[int, ...]:
        """Gamma shape parameter of each effective gain, in encode order.

        Effective gains are Gamma(shape, 1) distributed: shape ``n_t`` or
        ``n_i`` for parallel channels, ``m - k + 1`` for zero forcing, and
        ``m - j`` for the user encoded at position j (0-based) under DPC.
        """
        if self.kind == "parallel-identical":
            return (self.n_t,) * self.k
        if self.kind == "parallel-different":
            return self.profile.n
        if self.kind == "bc-zf":
            return (self.m - self.k + 1,) * self.k
        return tuple(self.m - j for j in range(self.k))
