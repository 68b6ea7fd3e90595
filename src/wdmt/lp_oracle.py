"""Independent solvers for the outage-exponent linear program on the unit box

    minimize    sum_i c_i z_i
    subject to  sum_i w_i z_i >= b,    0 <= z_i <= 1

with all coefficients positive: the paper's LP in the exponents alpha, with
costs n_i, weights mu_i and b = 1 - r/K (:meth:`LpInstance.alpha_form`). A
box 0 <= x_i <= u_i is this box in z_i = x_i / u_i, with costs c_i u_i and
weights w_i u_i. These certify the greedy closed form and the corner
formulas in :mod:`wdmt.dmt_analytic` by two structurally different routes:
exact vertex enumeration (:func:`lp_vertex`) and an exhaustive lattice
search with a stated approximation bound (:func:`lp_grid`). Two independent
methods guard against a shared indexing bug.

Both cache, per (costs, weights), the work that does not depend on the
bound b: a sweep over the rate moves only b, so it pays that work once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    AntennaProfile,
    DimensionMismatchError,
    DmtError,
    TooLargeError,
    Weights,
    check_count,
    check_real,
    check_sequence,
)
from .dmt_analytic import ExponentSolution

__all__ = ["LpInstance", "lp_vertex", "lp_grid"]

_FEAS_EPS = 1e-12
_VERTEX_MAX_K = 16
# A rate sweep reuses one instance's entry; at K = 16 an entry holds about
# 1 MB (two 2^16 vertex sums), so the cache stays below about 16 MB.
_VERTEX_CACHE = 16
_GRID_MAX_K = 4
_GRID_MIN_RES = 50
_GRID_MAX_POINTS = 10**6  # (res + 1)^ceil(K/2) per half-lattice; res = 200 has 40 401
_TRADE_MARGIN = 1e-12  # of a half's largest weight and cost; rounding is ~1e-15
_TRADE_RANGE = (1e-50, 1e50)  # every w and c of a pruned half: no subnormal, no overflow


@dataclass(frozen=True)
class LpInstance:
    """One instance on the unit box: objective costs, constraint weights and
    right-hand bound b = 1 - r/K."""

    costs: tuple[float, ...]
    weights: tuple[float, ...]
    bound: float

    def __post_init__(self):
        costs = tuple(check_real("LP cost", x, 0.0, open_low=True)
                      for x in check_sequence("LP costs", self.costs))
        weights = tuple(check_real("LP weight", x, 0.0, open_low=True)
                        for x in check_sequence("LP weights", self.weights))
        if len(costs) != len(weights) or not costs:
            raise DimensionMismatchError("costs and weights must share a length >= 1")
        object.__setattr__(self, "costs", costs)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(
            self, "bound", check_real("LP bound", self.bound, -_FEAS_EPS, 1.0 + _FEAS_EPS)
        )
        # every box vertex's weight and cost sums some of these; a sum past
        # the float range would make lp_vertex compare inf and NaN sums
        check_real("LP sum of weights", sum(weights))
        check_real("LP sum of costs", sum(costs))

    @property
    def k(self) -> int:
        return len(self.costs)

    @property
    def upper(self) -> tuple[float, ...]:
        """The box's upper limits, all 1; ``bench/spans.py`` keys its
        ``lp_grid`` spans on them."""
        return (1.0,) * self.k

    @classmethod
    def alpha_form(
        cls, profile: AntennaProfile, weights: Weights, r: float
    ) -> "LpInstance":
        """Exponent variables alpha_i in [0, 1]: costs n_i, weights mu_i."""
        k = len(profile)
        return cls(tuple(float(n) for n in profile.n), weights.mu,
                   1.0 - check_real("r", r, 0.0, k) / k)


def lp_vertex(instance: LpInstance) -> ExponentSolution:
    """Exact optimum by vertex enumeration.

    With one inequality plus a box, a minimizer exists at a point where
    every coordinate sits on a box bound except at most one, which
    saturates the inequality. All 2^K box patterns are enumerated, each
    combined with every choice of fractional coordinate: O(K 2^K)
    candidates, K <= 16 enforced. Every candidate is scored, in one pass.

    The candidates are laid out in this order: the 2^K box vertices by
    pattern, then for each fractional coordinate f = 0, ..., K-1 the 2^K
    patterns again. A candidate that breaks the bound or its box, or whose
    pattern already sets coordinate f to 1, scores +inf. The first
    candidate of least score wins, so a tie goes to a box vertex, then to
    the lower f, then to the lower pattern. Only the scores depend on the
    bound; the vertex sums come from a per-instance cache (:func:`_vertex_sums`).

    Returns the solution with ``alpha = z`` and ``d = sum_i c_i z_i``.
    """
    k = instance.k
    if k > _VERTEX_MAX_K:
        raise TooLargeError(f"vertex enumeration limited to K <= {_VERTEX_MAX_K}")
    c, w, vertex_w, vertex_c, w_col, cap_col, c_col = _vertex_sums(
        instance.costs, instance.weights
    )
    b = instance.bound
    bits, taken = _vertex_table(k)

    score = np.empty((k + 1, 1 << k))
    score[0] = vertex_c
    # row f + 1: coordinate f takes the fractional value (b - vertex_w) / w_f.
    # The numerator is at most b <= 1 + eps; zeroed where f is taken and kept
    # in [0, cap_f], cap_f = 2 min(w_f, 1), it moves only for a value out of
    # the box, which stays out, and no value or cost overflows
    frac = score[1:]
    np.subtract(b, vertex_w, out=frac)
    np.copyto(frac, 0.0, where=taken)
    np.maximum(frac, 0.0, out=frac)
    np.minimum(frac, cap_col, out=frac)
    frac /= w_col
    # LpInstance keeps w > 0 and every sum finite, so nothing here is NaN
    # and each test is the exact negation of a feasibility test
    bad = np.empty(score.shape, dtype=bool)
    np.less(vertex_w, b - _FEAS_EPS, out=bad[0])
    np.less_equal(frac, _FEAS_EPS, out=bad[1:])
    bad[1:] |= frac > 1.0 + _FEAS_EPS
    np.minimum(frac, 1.0, out=frac)
    frac *= c_col
    frac += vertex_c
    np.copyto(score, np.inf, where=bad)

    best = int(score.argmin())
    if score.flat[best] == np.inf:
        raise DmtError("no feasible vertex; bound exceeds the box capacity")
    f, row = divmod(best, 1 << k)
    z = bits[row].copy()
    if f:
        f -= 1
        z[f] = min((b - vertex_w[row]) / w[f], 1.0)
    return ExponentSolution(tuple(z.tolist()), float(z @ c))


@lru_cache(maxsize=_VERTEX_CACHE)
def _vertex_sums(costs, weights):
    """What :func:`lp_vertex` needs of an instance apart from its bound: c,
    w, each box vertex's weight and cost, and the columns w, cap and c that
    broadcast over the patterns. Cached per (costs, weights), so a rate
    sweep builds them once; all read-only."""
    c, w = np.array((costs, weights))
    bits, _ = _vertex_table(len(costs))
    arrays = (c, w, bits @ w, bits @ c, w[:, None], 2 * np.minimum(w, 1.0)[:, None], c[:, None])
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=_VERTEX_MAX_K)
def _vertex_table(k):
    """Row j of ``bits`` is box pattern j as 0.0/1.0 (bit i of j is
    coordinate i); ``taken[f, j]`` says coordinate f is 1 in pattern j, so
    it cannot take the fractional value, and :func:`lp_vertex` zeroes its
    numerator there. Both are read-only: they are cached and shared by
    every call at this K."""
    bits = (np.arange(1 << k, dtype=np.uint32)[:, None] >> np.arange(k, dtype=np.uint32)) & 1
    taken = np.ascontiguousarray(bits.T == 1)
    bits = bits.astype(float)
    bits.flags.writeable = taken.flags.writeable = False
    return bits, taken


def lp_grid(instance: LpInstance, resolution: int) -> float:
    """Minimum objective over the lattice alpha_i in {0, 1/res, ..., 1}.

    The lattice restricts the feasible set, so the value upper-bounds the
    true optimum; rounding the true minimizer outward (up) stays feasible
    and costs at most sum_i c_i / res <= K max_i c_i / res, which
    bounds the gap. The lattice is split into two halves searched
    meet-in-the-middle over each half's Pareto staircase (see
    :func:`_grid_tables`): for every half-A point, the first half-B point
    heavy enough to meet the bound is the cheapest one that does. The
    minimum is identical to full enumeration, bit for bit, and independent
    of the split.

    K <= 4 and an integer resolution >= 50 enforced (50.0 and 50.7 are not),
    with at most 10^6 points per half-lattice (res <= 999 at K = 3, 4).
    """
    k = instance.k
    if k > _GRID_MAX_K:
        raise TooLargeError(f"grid search limited to K <= {_GRID_MAX_K}")
    res = check_count("resolution", resolution, _GRID_MIN_RES)
    if (res + 1) ** ((k + 1) // 2) > _GRID_MAX_POINTS:
        raise TooLargeError(f"resolution {res} exceeds {_GRID_MAX_POINTS} half-lattice points")

    (w_a, c_a), (w_b, c_b) = _grid_tables(instance.costs, instance.weights, res)
    # heaviest half-A point first, so the keys ascend and each search starts
    # where the last one ended; the feasible points are then a prefix
    pos = w_b.searchsorted(instance.bound - w_a[::-1] - _FEAS_EPS)
    n = pos.searchsorted(w_b.size)
    if not n:
        raise DmtError("no feasible lattice point; bound exceeds the box capacity")
    return float((c_a[::-1][:n] + c_b[pos[:n]]).min())


@lru_cache(maxsize=128)
def _grid_tables(costs, weights, resolution):
    """Pareto staircases of the two half-lattices, bound-independent and
    cached so sweeps over the rate (which only moves the bound) pay the
    build once per instance. Returned arrays are never mutated.

    Dropping a point that another point of its half dominates leaves the
    lattice minimum unchanged bit for bit. Float subtraction and addition
    are monotone, so a dominating half-A point needs no heavier half-B
    partner and its sum is no larger; and the first half-B staircase point
    heavy enough costs exactly the least of all half-B points heavy enough.
    The staircase keeps, of points tied in weight, only the tie's least
    cost, so it depends neither on the order its points come in nor on how
    the sort orders ties: its stable sort gives the same arrays as any
    other sort would.

    A two-coordinate half builds only the points that no trade of levels
    inside it beats by a margin (:func:`_untraded`). With every w and c of
    the half in ``_TRADE_RANGE``, each table entry is within a few ulps
    of its exact value, far inside the margin, so a point left out is
    beaten in float too and is off the staircase. A trade adds levels of
    one coordinate, so every chain of trades ends at a kept point, which
    beats the whole chain: every staircase point is kept. A kept point's
    sums are the whole table's, (0 + a) + b with 0 + a == a, so the
    staircases and every :func:`lp_grid` value are unchanged, bit for bit.
    """
    k = len(costs)
    levels = np.arange(resolution + 1) / resolution
    # each coordinate's weight and cost at every level
    w_lv, c_lv = ([v[i] * levels for i in range(k)] for v in (weights, costs))

    def table(indices):
        if len(indices) == 2:
            kept = _untraded(*([v[i] for i in indices] for v in (weights, costs)), resolution)
            if kept is not None:
                (i, j), (x, y) = indices, kept
                return _staircase(w_lv[i][x] + w_lv[j][y], c_lv[i][x] + c_lv[j][y])
        wsum = csum = np.zeros(1)
        for i in indices:
            wsum = (wsum[:, None] + w_lv[i][None, :]).ravel()
            csum = (csum[:, None] + c_lv[i][None, :]).ravel()
        return _staircase(wsum, csum)

    half = (k + 1) // 2
    return table(range(half)), table(range(half, k))


def _untraded(w, c, res):
    """Level indices (of the first coordinate, of the second) of the points
    of a two-coordinate half that no trade inside it beats; None, to build
    the half whole, if a w or c is outside ``_TRADE_RANGE``.

    With i the coordinate of lower cost per weight, s(t) is the least count
    of i's levels outweighing t of j's by 1e-12 of the half's largest
    weight; the trade counts if it is also cheaper by 1e-12 of the largest
    cost, which tied ratios never are. (x_i, y_j) loses to (x + s, y - t)
    when x + m(y) <= res, m(y) the least counted s over t <= y, so at each
    level y the kept x are the top run x > res - m(y)."""
    lo, hi = _TRADE_RANGE
    if not all(lo <= v <= hi for v in (*w, *c)):
        return None
    i, j = (1, 0) if c[1] / w[1] < c[0] / w[0] else (0, 1)
    t = np.arange(1.0, res + 1)
    # w_i and c_i are the weight and cost of all res levels of i
    s = np.ceil((t * w[j] + res * _TRADE_MARGIN * (w[i] + w[j])) / w[i])
    s[s * c[i] > t * c[j] - res * _TRADE_MARGIN * (c[i] + c[j])] = np.inf
    m = np.minimum.accumulate(np.r_[np.inf, s])
    low = np.maximum(res + 1 - m, 0).astype(np.intp)  # least kept x at each y
    run = res + 1 - low
    y = np.repeat(np.arange(res + 1), run)
    x = np.arange(y.size) - np.repeat(np.cumsum(run) - run - low, run)
    return (y, x) if i else (x, y)


def _staircase(wsum, csum):
    """The points of a half-lattice table that no other point dominates
    (weight at least as large and cost at most as large), by strictly
    ascending weight and so strictly ascending cost.

    The result does not depend on the order of points tied in weight: of a
    tie, only the cheapest can survive, with the tie's weight and least
    cost. So a stable sort is exact. A two-coordinate half reaches it
    already pruned by :func:`_untraded`, so the sort is of the survivors,
    not of the (res + 1)^2 table; ``BENCH_19.json`` measured numpy's
    default argsort as fast as the stable one on a whole table."""
    order = np.argsort(wsum, kind="stable")[::-1]  # heaviest first
    cmin = np.minimum.accumulate(csum[order])
    # the points that lower the running minimum, lightest first; within a
    # tie in weight the cheapest comes first, and the others are dominated
    idx = order[np.r_[True, cmin[1:] < cmin[:-1]]][::-1]
    w = wsum[idx]
    first = np.r_[True, w[1:] > w[:-1]]
    return w[first], csum[idx][first]
