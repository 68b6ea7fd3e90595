"""Independent solvers for the outage-exponent linear program

    minimize    sum_i c_i z_i
    subject to  sum_i w_i z_i >= b,    0 <= z_i <= u_i

with all coefficients positive. These certify the greedy closed form and
the corner formulas in :mod:`wdmt.dmt_analytic` by two structurally
different routes: exact vertex enumeration (:func:`lp_vertex`) and an
exhaustive lattice search with a stated approximation bound
(:func:`lp_grid`). Two independent methods guard against a shared
indexing bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    AntennaProfile,
    DimensionMismatchError,
    DmtError,
    OutOfRangeError,
    TooLargeError,
    Weights,
    check_count,
    check_positive,
    check_rate,
)
from .dmt_analytic import ExponentSolution

__all__ = ["LpInstance", "lp_vertex", "lp_grid"]

_FEAS_EPS = 1e-12
_VERTEX_MAX_K = 16
_GRID_MAX_K = 4
_GRID_MIN_RES = 50
_GRID_MAX_POINTS = 10**6  # (res + 1)^ceil(K/2) per half-lattice; res = 200 has 40 401


@dataclass(frozen=True)
class LpInstance:
    """One instance: objective costs, constraint weights, right-hand bound
    b = 1 - r/K, and per-coordinate upper box limits."""

    costs: tuple[float, ...]
    weights: tuple[float, ...]
    bound: float
    upper: tuple[float, ...]

    def __post_init__(self):
        costs = tuple(check_positive("LP cost", x) for x in self.costs)
        weights = tuple(check_positive("LP weight", x) for x in self.weights)
        upper = tuple(check_positive("LP upper limit", x) for x in self.upper)
        if not (len(costs) == len(weights) == len(upper)) or len(costs) < 1:
            raise DimensionMismatchError("costs, weights, upper must share a length >= 1")
        b = float(self.bound)
        if not -_FEAS_EPS <= b <= 1.0 + _FEAS_EPS:  # NaN fails too
            raise OutOfRangeError(f"bound must lie in [0, 1], got {b}")
        object.__setattr__(self, "costs", costs)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "bound", b)

    @property
    def k(self) -> int:
        return len(self.costs)

    @classmethod
    def alpha_form(
        cls, profile: AntennaProfile, weights: Weights, r: float
    ) -> "LpInstance":
        """Exponent variables alpha_i in [0, 1]: costs n_i, weights mu_i."""
        k = len(profile)
        return cls(
            costs=tuple(float(n) for n in profile.n),
            weights=weights.mu,
            bound=1.0 - check_rate(r, k) / k,
            upper=(1.0,) * k,
        )


def lp_vertex(instance: LpInstance) -> ExponentSolution:
    """Exact optimum by vertex enumeration.

    With one inequality plus a box, a minimizer exists at a point where
    every coordinate sits on a box bound except at most one, which
    saturates the inequality. All 2^K box patterns are enumerated, each
    combined with every choice of fractional coordinate: O(K 2^K)
    candidates, K <= 16 enforced.

    Returns the solution with ``alpha = z / u`` (so alpha is the exponent
    vector also for an instance in the substituted variables
    x_i = n_i alpha_i in [0, n_i]) and ``d = sum_i c_i z_i``.
    """
    k = instance.k
    if k > _VERTEX_MAX_K:
        raise TooLargeError(f"vertex enumeration limited to K <= {_VERTEX_MAX_K}")
    c = np.asarray(instance.costs)
    w = np.asarray(instance.weights)
    u = np.asarray(instance.upper)
    b = instance.bound

    masks = np.arange(1 << k, dtype=np.int64)
    bits = ((masks[:, None] >> np.arange(k)) & 1).astype(float)  # (2^k, k)
    vertex_w = bits @ (w * u)
    vertex_c = bits @ (c * u)

    best_obj = np.inf
    best = None  # (mask_row, frac_index, frac_value)

    feasible = vertex_w >= b - _FEAS_EPS
    if feasible.any():
        i = int(np.flatnonzero(feasible)[np.argmin(vertex_c[feasible])])
        best_obj = float(vertex_c[i])
        best = (i, None, 0.0)

    for f in range(k):
        z_f = (b - vertex_w) / w[f]
        ok = (bits[:, f] == 0.0) & (z_f > _FEAS_EPS) & (z_f <= u[f] + _FEAS_EPS)
        if not ok.any():
            continue
        obj = vertex_c[ok] + c[f] * np.minimum(z_f[ok], u[f])
        j = int(np.argmin(obj))
        if obj[j] < best_obj:
            best_obj = float(obj[j])
            row = int(np.flatnonzero(ok)[j])
            best = (row, f, float(min(z_f[row], u[f])))

    if best is None:
        raise DmtError("no feasible vertex; bound exceeds the box capacity")

    row, f, z_frac = best
    z = bits[row] * u
    if f is not None:
        z[f] = z_frac
    return ExponentSolution(tuple(z / u), float(z @ c))


def lp_grid(instance: LpInstance, resolution: int) -> float:
    """Minimum objective over the lattice alpha_i in {0, 1/res, ..., 1}.

    The lattice restricts the feasible set, so the value upper-bounds the
    true optimum; rounding the true minimizer outward (up) stays feasible
    and costs at most sum_i c_i u_i / res <= K max_i(c_i u_i) / res, which
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

    (w_a, c_a), (w_b, c_b) = _grid_tables(
        instance.costs, instance.weights, instance.upper, res
    )
    pos = np.searchsorted(w_b, instance.bound - w_a - _FEAS_EPS, side="left")
    ok = pos < w_b.size
    if not ok.any():
        raise DmtError("no feasible lattice point; bound exceeds the box capacity")
    return float(np.min(c_a[ok] + c_b[pos[ok]]))


@lru_cache(maxsize=128)
def _grid_tables(costs, weights, upper, resolution):
    """Pareto staircases of the two half-lattices, bound-independent and
    cached so sweeps over the rate (which only moves the bound) pay the
    build once per instance. Returned arrays are never mutated.

    Dropping a point that another point of its half dominates leaves the
    lattice minimum unchanged bit for bit. Float subtraction and addition
    are monotone, so a dominating half-A point needs no heavier half-B
    partner and its sum is no larger; and the first half-B staircase point
    heavy enough costs exactly the least of all half-B points heavy enough.
    """
    k = len(costs)
    levels = np.arange(resolution + 1) / resolution

    def table(indices):
        wsum = np.zeros(1)
        csum = np.zeros(1)
        for i in indices:
            z_i = upper[i] * levels
            wsum = (wsum[:, None] + (weights[i] * z_i)[None, :]).ravel()
            csum = (csum[:, None] + (costs[i] * z_i)[None, :]).ravel()
        return _staircase(wsum, csum)

    half = (k + 1) // 2
    return table(range(half)), table(range(half, k))


def _staircase(wsum, csum):
    """The points of a half-lattice table that no other point dominates
    (weight at least as large and cost at most as large), by strictly
    ascending weight and so strictly ascending cost."""
    order = np.argsort(wsum)[::-1]  # heaviest first
    cmin = np.minimum.accumulate(csum[order])
    # the points that lower the running minimum, lightest first; within a
    # tie in weight the cheapest comes first, and the others are dominated
    idx = order[np.r_[True, cmin[1:] < cmin[:-1]]][::-1]
    w = wsum[idx]
    first = np.r_[True, w[1:] > w[:-1]]
    return w[first], csum[idx][first]
