"""Rayleigh channel sampling, precoder effective gains from a QR
factorization, finite-SNR weighted sum capacity, and sharded Monte Carlo
outage estimation.

Conventions
-----------
* Channel entries are CN(0,1): real and imaginary parts independent
  N(0, 1/2), so |entry|^2 ~ Exp(1) and a squared row norm over m entries
  is Gamma(m, 1).
* Monte Carlo outage draws come from the equivalent parallel model, not
  from channel matrices: parallel and DPC gains are independent
  Gamma(shape_i, 1) draws with the shapes of ``Scenario.gain_shapes()``,
  and ZF gains come from the Bartlett factor of the Wishart Gram matrix
  HH* (Goodman 1963), inverted by forward substitution in real arithmetic.
  A Gamma draw of integer shape a <= 5 is -log prod_{j<a} (1 - U_j) for
  uniforms U_j in [0, 1) (Knuth's product form of the Erlang law: a sum
  of a Exp(1) draws, as a squared norm over a CN(0,1) entries is); larger
  shapes use numpy's ``standard_gamma``, which is the faster of the two
  there.
  The R factor of H* = QR for drawn K x M matrices (one stacked LAPACK
  call) remains as the independent oracle behind ``zf_gains``,
  ``dpc_gains`` and ``validate_gain_distribution``.
* The outage kernel draws and reduces samples in blocks of 2^14 inside
  one workspace per call, sized for the L2 cache, and accumulates the
  capacity row by row in place; ``weighted_capacity`` runs the same
  formula.
* The normal quantile, the Clopper-Pearson bounds and the Gamma CDF of
  the KS distance come from ``scipy.special``; importing ``scipy.stats``
  would add about a second to every start of the CLI.
* Capacities are in nats; SNR ``rho`` is linear here (the CLI converts
  from dB exactly once).
* The finite-SNR capacity keeps the weights inside the logarithm,
  K * sum_i mu_i log(1 + mu_i rho gamma_i), so simulations test the
  asymptotic slope claims instead of assuming them.
* Monte Carlo runs are split into shards with independently derived
  deterministic substreams; shard counts combine by addition, so results
  are a pure function of (scenario, r, rho, n_samples, seed, shards) and
  never depend on scheduling.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy import special

from .core import (
    DimensionMismatchError,
    OutOfRangeError,
    RankDeficientError,
    Scenario,
    TooManyUsersError,
    Weights,
)

__all__ = [
    "ChannelMatrix",
    "EffectiveGains",
    "OutageEstimate",
    "GainDistributionReport",
    "sample_channel",
    "zf_gains",
    "dpc_gains",
    "weighted_capacity",
    "outage_probability",
    "validate_gain_distribution",
    "confidence_interval",
]

# Samples per block of the outage kernel. One block's workspace, k + 2
# float64 rows of this length and a bool row (0.5 MB at K = 2, 0.75 MB with
# the bc-zf normals), stays inside a 2 MB per-core L2 cache. Repeating one
# scenario, 2^15 and 2^16 ran up to 10% faster, but in the interleaved
# mc-deep benchmark 2^15 gained less over the parent (BENCH_10.json).
_BLOCK = 1 << 14
_CHUNK = 1 << 18  # channel matrices per step of validate_gain_distribution
# Largest integer Gamma shape a drawn as -log of a product of a uniforms.
# Per draw, that beats numpy's Marsaglia-Tsang standard_gamma at shapes 1-5
# and is no faster from shape 6 on, since its cost grows with the shape and
# standard_gamma's does not (table in BENCH_10.json). Must stay <= 19, so that
# the product, at least 2^(-53 a), cannot underflow.
_ERLANG_MAX_SHAPE = 5
# Ratio |R_ii|^2 / ||h_i||^2 at or below which row i counts as linearly
# dependent on rows 0..i-1 (a measure-zero event for CN(0,1) rows).
_RANK_EPS = 1e-24
_SQRT_HALF = 1.0 / math.sqrt(2.0)
_MIN_NORMAL_EVENTS = 20  # below this the normal CI is replaced by Clopper-Pearson


@dataclass(frozen=True)
class ChannelMatrix:
    """K x M complex fading realization; rows are the per-user channels."""

    h: np.ndarray

    def __post_init__(self):
        h = np.array(self.h, dtype=complex)
        if h.ndim != 2 or h.size == 0:
            raise ValueError(f"expected a K x M matrix, got shape {h.shape}")
        if not np.isfinite(h).all():
            raise ValueError("channel entries must be finite")
        h.setflags(write=False)
        object.__setattr__(self, "h", h)

    @property
    def n_users(self) -> int:
        return self.h.shape[0]

    @property
    def n_tx(self) -> int:
        return self.h.shape[1]


@dataclass(frozen=True)
class EffectiveGains:
    """Finite, nonnegative per-channel effective power gains."""

    gamma: tuple[float, ...]

    def __post_init__(self):
        g = tuple(float(x) for x in self.gamma)
        if not all(0.0 <= x < math.inf for x in g):
            raise ValueError(f"gains must be finite and >= 0, got {g}")
        object.__setattr__(self, "gamma", g)

    def __len__(self) -> int:
        return len(self.gamma)


@dataclass(frozen=True)
class OutageEstimate:
    """Empirical outage probability at one (SNR, multiplexing gain) point."""

    rho: float
    r: float
    n_samples: int
    n_outages: int
    ci_low: float
    ci_high: float
    n_discarded: int = 0

    def __post_init__(self):
        for count in (self.n_samples, self.n_outages):
            if isinstance(count, bool) or not isinstance(count, numbers.Integral):
                raise ValueError(f"counts must be integers, got {count!r}")
        if not (math.isfinite(self.rho) and self.rho > 0.0):
            raise ValueError(f"rho must be finite and > 0, got {self.rho}")
        if not (math.isfinite(self.r) and self.r >= 0.0):
            raise ValueError(f"r must be finite and >= 0, got {self.r}")
        if self.n_samples < 1 or not 0 <= self.n_outages <= self.n_samples:
            raise ValueError(
                f"bad counts: {self.n_outages} outages of {self.n_samples}"
            )
        if not self.ci_low - 1e-12 <= self.p_hat <= self.ci_high + 1e-12:
            raise ValueError("confidence interval does not cover the estimate")

    @property
    def p_hat(self) -> float:
        return self.n_outages / self.n_samples

    @property
    def rho_db(self) -> float:
        return 10.0 * math.log10(self.rho)


@dataclass(frozen=True)
class GainDistributionReport:
    """Empirical moments and KS distance of one gain against Gamma(shape, 1)."""

    index: int
    shape: int
    n_samples: int
    mean: float
    variance: float
    mean_rel_err: float
    var_rel_err: float
    ks_stat: float


def sample_channel(m: int, k: int, rng) -> ChannelMatrix:
    """Draw a K x M channel with i.i.d. CN(0,1) entries.

    ``rng`` may be an integer seed, a SeedSequence, or a Generator; the
    same generator state always yields the same matrix.
    """
    if m < 1 or k < 1:
        raise ValueError(f"need m >= 1 and k >= 1, got m={m}, k={k}")
    return ChannelMatrix(_sample_rows(np.random.default_rng(rng), 1, k, m)[0])


def _sample_rows(rng: np.random.Generator, n: int, k: int, m: int) -> np.ndarray:
    re = rng.standard_normal((n, k, m))
    im = rng.standard_normal((n, k, m))
    return (re + 1j * im) * _SQRT_HALF


def _sq_norm(v: np.ndarray) -> np.ndarray:
    """Squared Euclidean norms along the last axis."""
    return np.einsum("...m,...m->...", v.conj(), v).real


def _qr_gains(rows: np.ndarray, zf: bool) -> tuple[np.ndarray, np.ndarray]:
    """Effective gains of stacked channels from the R factor of H* = QR.

    rows: (n, k, m) -> (gains (n, k), ok (n,)). |R_ii|^2 is the squared
    residual of row i after removing rows 0..i-1, the DPC gain when users
    are encoded in row order. Since HH* = R*R, the ZF gain
    1 / [(HH*)^-1]_ii is 1 / ||row i of R^-1||^2. ``ok`` is False where
    |R_ii|^2 <= _RANK_EPS ||h_i||^2 on any row for ZF, or on any row but
    the last for DPC (no DPC gain depends on the last row's direction).
    """
    _, k, m = rows.shape
    if k > m:
        raise TooManyUsersError(f"{k} users exceed {m} transmit antennas")
    r = np.linalg.qr(rows.conj().swapaxes(1, 2), mode="r")
    diag = np.diagonal(r, axis1=1, axis2=2)
    residual = np.abs(diag) ** 2
    tiny = residual <= _RANK_EPS * _sq_norm(rows)
    if not zf:
        return residual, ~tiny[:, :-1].any(axis=1)
    # A unit pivot keeps the inverse finite where R is singular; ok masks it.
    r[:, range(k), range(k)] = np.where(tiny, 1.0, diag)
    return 1.0 / _sq_norm(np.linalg.inv(r)), ~tiny.any(axis=1)


def zf_gains(channel: ChannelMatrix) -> EffectiveGains:
    """Zero-forcing effective gains of one realization.

    gamma_i = 1 / [(HH*)^-1]_ii, the squared residual of row i after
    removing the other K-1 rows, read off the R factor of H* = QR.

    Raises ``RankDeficientError`` if the rows are numerically dependent
    and ``TooManyUsersError`` if K > M.
    """
    gains, ok = _qr_gains(channel.h[None, :, :], zf=True)
    if not ok[0]:
        raise RankDeficientError("channel rows are numerically dependent")
    return EffectiveGains(tuple(gains[0]))


def dpc_gains(channel: ChannelMatrix, encode_order) -> EffectiveGains:
    """Dirty-paper effective gains of one realization under ``encode_order``.

    The gain of the user encoded at position j is |R_jj|^2 from H* = QR
    with the rows in encode order: the first user keeps its full squared
    row norm, and each later user the squared residual after removing all
    previously encoded rows. Gains are returned indexed by user (not by
    encode position).

    Raises ``RankDeficientError`` if the previously encoded rows are
    numerically dependent and ``TooManyUsersError`` if K > M.
    """
    order = [int(i) for i in encode_order]
    if sorted(order) != list(range(channel.n_users)):
        raise ValueError(f"encode_order must permute 0..{channel.n_users - 1}")
    gains, ok = _qr_gains(channel.h[None, order, :], zf=False)
    if not ok[0]:
        raise RankDeficientError("previously encoded rows are numerically dependent")
    gamma = np.empty(channel.n_users)
    gamma[order] = gains[0]
    return EffectiveGains(tuple(gamma))


def _check_rho(rho) -> None:
    if not (math.isfinite(rho) and rho > 0.0):
        raise OutOfRangeError(f"rho must be finite and > 0, got {rho}")


def _check_count(name: str, value, minimum: int) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise OutOfRangeError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _capacity(mu: np.ndarray, rho: float, gains: np.ndarray, out: np.ndarray) -> np.ndarray:
    """K * sum_i mu_i log(1 + mu_i rho gamma_i) for each column of the (k, n)
    ``gains``, accumulated row by row into ``out`` (n,); ``gains`` is
    overwritten."""
    for i, (row, w) in enumerate(zip(gains, mu)):
        np.multiply(row, w * rho, out=row)
        np.log1p(row, out=row)
        if i == 0:
            np.multiply(row, w, out=out)
        else:
            row *= w
            out += row
    out *= mu.size
    return out


def weighted_capacity(gains: EffectiveGains, weights: Weights, rho: float) -> float:
    """Weighted sum rate K * sum_i mu_i log(1 + mu_i rho gamma_i), in nats.

    Power is allocated proportionally to the weights, which is what places
    mu_i inside the logarithm; the leading K matches the outage definition
    used throughout (multiplexing gain ranges over [0, K]).
    """
    if len(gains) != len(weights):
        raise DimensionMismatchError(f"{len(gains)} gains vs {len(weights)} weights")
    _check_rho(rho)
    column = np.array(gains.gamma)[:, None]
    return float(_capacity(np.asarray(weights.mu), rho, column, np.empty(1))[0])


def _mu_columns(scenario: Scenario) -> np.ndarray:
    """Weights aligned with the gain rows of ``_chunk_gains`` (encode order
    for bc-dpc)."""
    mu = scenario.weights.mu
    return np.asarray([mu[i] for i in scenario.encode_order()])


class _Workspace:
    """Buffers that the outage kernel reuses for every block of at most
    ``size`` samples: the (k, n) gain rows, a spare row, the capacity
    accumulator, the outage mask and, for bc-zf, the Bartlett normals.
    Buffers are flat, so a shorter block's leading slice reshapes into a
    contiguous array."""

    def __init__(self, scenario: Scenario, size: int):
        k = scenario.k
        self.draws = np.empty(k * size)
        self.term = np.empty(size)
        self.acc = np.empty(size)
        self.hit = np.empty(size, dtype=bool)
        self.normals = np.empty(k * (k - 1) * size if scenario.kind == "bc-zf" else 0)


def _chunk_gains(
    scenario: Scenario, rng: np.random.Generator, n: int, work: _Workspace
) -> np.ndarray:
    """Draw n effective-gain vectors from the equivalent parallel model into
    ``work`` and return them as a (k, n) view, rows in
    ``scenario.encode_order()``.

    Parallel and DPC gains are independent Gamma(shape_i, 1), drawn one row
    at a time: a row of shape a <= ``_ERLANG_MAX_SHAPE`` is
    -log prod_{j<a} (1 - U_j) for uniforms U_j from ``rng.random``,
    multiplied in place (the factors lie in (0, 1], so a zero uniform can
    never give -log 0), and a row of larger shape one ``standard_gamma``
    call. ZF gains are
    gamma_i = 1 / [G^-1]_ii for the Gram matrix G = HH*, whose Bartlett
    factor L (G = LL*) has independent entries: |L_ii|^2 ~ Gamma(m - i, 1),
    drawn by the same per-shape rule, and CN(0,1) below the diagonal.
    [G^-1]_ii is the squared norm of column i of L^-1, built row
    by row by forward substitution in real arithmetic: each off-diagonal
    entry of L^-1 is a pair of real (n,) arrays, and the diagonal
    1 / |L_ii| stays real. Products accumulate over j ascending and column
    norms over rows ascending, as in the complex (k, k, n) formulation
    that the tests keep as the reference, so the gains equal its gains
    bit for bit.
    """
    k = scenario.k
    zf = scenario.kind == "bc-zf"
    shapes = range(scenario.m, scenario.m - k, -1) if zf else scenario.gain_shapes()
    draws, term = work.draws[: k * n].reshape(k, n), work.term[:n]
    for row, shape in zip(draws, shapes):
        if shape > _ERLANG_MAX_SHAPE:
            rng.standard_gamma(float(shape), size=n, out=row)
            continue
        np.subtract(1.0, rng.random(out=row), out=row)
        for _ in range(shape - 1):
            row *= np.subtract(1.0, rng.random(out=term), out=term)
        np.log(row, out=row)
        np.negative(row, out=row)
    if not zf:
        return draws
    # The draws buffer becomes 1 / |L_ii|, then the column norms, then the gains.
    inv_diag = np.sqrt(draws, out=draws)
    np.divide(1.0, inv_diag, out=inv_diag)
    pairs = k * (k - 1) // 2
    z = rng.standard_normal(out=work.normals[: 2 * pairs * n].reshape(2, pairs, n))
    z *= _SQRT_HALF
    below_re, below_im = z  # strict lower triangle of L, row by row
    inv = {}  # (i, c) -> (real, imaginary) parts of entry (i, c < i) of L^-1
    start = 0
    for i in range(k):
        l_re, l_im = below_re[start : start + i], below_im[start : start + i]
        start += i
        scale = -inv_diag[i]
        for c in range(i):
            re, im = l_re[c] * inv_diag[c], l_im[c] * inv_diag[c]
            for j in range(c + 1, i):
                x_re, x_im = inv[j, c]
                re += l_re[j] * x_re - l_im[j] * x_im
                im += l_re[j] * x_im + l_im[j] * x_re
            re *= scale
            im *= scale
            inv[i, c] = re, im
    gains = np.square(inv_diag, out=inv_diag)
    for (_, c), (re, im) in inv.items():  # insertion order: rows ascending in each column
        np.square(re, out=re)
        np.square(im, out=im)
        re += im
        gains[c] += re
    np.divide(1.0, gains, out=gains)
    return gains


def _matrix_gains(
    scenario: Scenario, rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Oracle path: draw n channel matrices and read their gains off the
    R factor of a stacked QR factorization.

    Returns (gains (n, k), valid mask (n,)), the columns in the order of
    the rows of ``_chunk_gains``.
    """
    if scenario.kind.startswith("parallel"):
        gains = [_sq_norm(_sample_rows(rng, n, 1, n_i)) for n_i in scenario.gain_shapes()]
        return np.concatenate(gains, axis=1), np.ones(n, dtype=bool)
    rows = _sample_rows(rng, n, scenario.k, scenario.m)[:, list(scenario.encode_order()), :]
    return _qr_gains(rows, zf=scenario.kind == "bc-zf")


def confidence_interval(
    n_outages: int, n_samples: int, level: float = 0.95
) -> tuple[float, float]:
    """Binomial CI for the outage probability.

    Normal approximation on the count; exact Clopper-Pearson whenever
    fewer than 20 outages were observed. ``n_samples`` must be an integer
    >= 1, ``n_outages`` an integer in [0, n_samples], and ``level`` must
    lie strictly between 0 and 1.
    """
    _check_count("n_samples", n_samples, 1)
    _check_count("n_outages", n_outages, 0)
    if n_outages > n_samples:
        raise OutOfRangeError(f"{n_outages} outages exceed {n_samples} samples")
    if not 0.0 < level < 1.0:  # NaN fails too
        raise OutOfRangeError(f"confidence level {level} outside (0, 1)")
    p = n_outages / n_samples
    if n_outages >= _MIN_NORMAL_EVENTS:
        half = float(special.ndtri(0.5 + level / 2)) * math.sqrt(p * (1.0 - p) / n_samples)
        return max(0.0, p - half), min(1.0, p + half)
    alpha = 1.0 - level
    low = 0.0
    if n_outages > 0:
        low = float(special.betaincinv(n_outages, n_samples - n_outages + 1, alpha / 2))
    high = 1.0
    if n_outages < n_samples:
        high = float(special.betaincinv(n_outages + 1, n_samples - n_outages, 1 - alpha / 2))
    return low, high


def outage_probability(
    scenario: Scenario,
    r: float,
    rho: float,
    n_samples: int,
    seed,
    shards: int = 1,
) -> OutageEstimate:
    """Monte Carlo estimate of P{weighted sum capacity <= r log rho}.

    Gains are drawn from the equivalent parallel model (Gamma draws, and
    the Bartlett factor of the Gram matrix for bc-zf), so no draw is ever
    rank deficient and ``n_discarded`` is always 0. A Gamma draw of shape
    a <= ``_ERLANG_MAX_SHAPE`` is -log of a product of a uniforms in
    (0, 1] and one of larger shape comes from ``standard_gamma``; both give
    the exact Gamma(a, 1) law, so the estimate's distribution does not
    depend on the split. Samples are drawn and reduced in blocks of at most
    ``_BLOCK``: each call allocates one cache-sized workspace, and every
    block of every shard reuses it for the draws, the capacity and the
    outage count. The sample budget is split across ``shards``
    deterministic substreams derived from ``seed``; outage counts are
    summed, so the estimate is a pure function of
    (scenario, r, rho, n_samples, seed, shards).
    """
    k = scenario.k
    if not (math.isfinite(r) and 0.0 <= r <= k):
        raise OutOfRangeError(f"r = {r} outside [0, {k}]")
    _check_rho(rho)
    _check_count("n_samples", n_samples, 1)
    _check_count("shards", shards, 1)
    n_samples, shards = int(n_samples), int(shards)

    threshold = r * math.log(rho)
    mu = _mu_columns(scenario)
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    quota, extra = divmod(n_samples, shards)

    work = _Workspace(scenario, min(_BLOCK, quota + (1 if extra else 0)))
    outages = 0
    for shard_index, child in enumerate(root.spawn(shards)):
        remaining = quota + (1 if shard_index < extra else 0)
        if remaining == 0:
            continue
        rng = np.random.default_rng(child)
        while remaining > 0:
            n = min(_BLOCK, remaining)
            remaining -= n
            capacity = _capacity(mu, rho, _chunk_gains(scenario, rng, n, work), work.acc[:n])
            hit = np.less_equal(capacity, threshold, out=work.hit[:n])
            outages += int(np.count_nonzero(hit))

    ci_low, ci_high = confidence_interval(outages, n_samples)
    return OutageEstimate(
        rho=float(rho),
        r=float(r),
        n_samples=n_samples,
        n_outages=outages,
        ci_low=ci_low,
        ci_high=ci_high,
    )


def validate_gain_distribution(
    scenario: Scenario, index: int, n_samples: int, seed
) -> GainDistributionReport:
    """Compare one empirical gain against its Gamma(shape, 1) law.

    ``index`` selects the gain column in encode order (for bc-dpc, position
    0 is the first-encoded, largest-weight user). Gains come from drawn
    channel matrices through the R factor of H* = QR, so this checks the
    Gamma reduction that ``outage_probability`` samples from. Reports
    relative errors of mean and variance plus the Kolmogorov-Smirnov
    distance.
    """
    if not 0 <= index < scenario.k:
        raise OutOfRangeError(f"index {index} outside 0..{scenario.k - 1}")
    _check_count("n_samples", n_samples, 2)
    shape = scenario.gain_shapes()[index]
    rng = np.random.default_rng(seed)
    parts = []
    remaining = n_samples
    while remaining > 0:
        n = min(_CHUNK, remaining)
        remaining -= n
        gains, ok = _matrix_gains(scenario, rng, n)
        parts.append(gains[ok, index])
    sample = np.concatenate(parts)
    mean = float(sample.mean())
    variance = float(sample.var())
    # One-sample KS distance, max(D+, D-), as scipy.stats.kstest computes it.
    cdf = special.gammainc(shape, np.sort(sample))
    size = cdf.size
    d_plus = (np.arange(1.0, size + 1) / size - cdf).max()
    d_minus = (cdf - np.arange(0.0, size) / size).max()
    ks = float(max(d_plus, d_minus))
    return GainDistributionReport(
        index=index,
        shape=shape,
        n_samples=int(sample.size),
        mean=mean,
        variance=variance,
        mean_rel_err=abs(mean - shape) / shape,
        var_rel_err=abs(variance - shape) / shape,
        ks_stat=ks,
    )
