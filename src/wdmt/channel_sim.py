"""Rayleigh channel sampling, finite-SNR weighted sum capacity, sharded
Monte Carlo outage estimation, and the QR oracle that checks the gains it
draws.

Conventions
-----------
* Channel entries are CN(0,1): real and imaginary parts independent
  N(0, 1/2), so |entry|^2 ~ Exp(1) and a squared row norm over m entries
  is Gamma(m, 1).
* Monte Carlo outage draws come from the equivalent parallel model, not
  from channel matrices, in encode order, each gain weighted by its entry
  of ``Scenario.encoded_weights()``: parallel and DPC gains are
  independent Gamma(shape_i, 1) draws with the shapes of
  ``Scenario.gain_shapes()``, and ZF gains come from the Bartlett factor
  of the Wishart Gram matrix HH* (Goodman 1963), at K = 2 two parallel
  channels X_1 and X_0 X_1 / (X_1 + E); ``_chunk_gains`` describes the
  draw and ``_Workspace`` the buffers it reuses. The R factor of H* = QR for drawn
  K x M matrices (``_qr_gains``, one stacked LAPACK call) remains as the
  independent oracle of that reduction, reached only through
  ``validate_gain_distribution``; its ``ok`` mask drops rank-deficient
  draws. The oracle draws through the kernel's ``_blocks``, in pieces of
  ``_BLOCK`` matrices from the seed's first child.
* The normal quantile, the Clopper-Pearson bounds and the Gamma CDF of
  the KS distance come from ``scipy.special``; importing ``scipy.stats``
  would add about a second to every start of the CLI.
* Capacities are in nats; SNR ``rho`` is linear here (the CLI converts
  from dB exactly once) and at most 1e300 (``core.check_rho``).
* The finite-SNR capacity keeps the weights inside the logarithm,
  K * sum_i mu_i log(1 + mu_i rho gamma_i), so simulations test the
  asymptotic slope claims instead of assuming them.
* Monte Carlo runs are split into shards, shard i drawing from the state
  ``default_rng`` gives the seed's i-th ``SeedSequence`` child, computed for
  a whole table in one pass without spawning; shard counts add, so results
  are a pure function of (scenario, r, rho, n_samples, seed, shards).
* ``outage_table`` runs the kernel once over several (rho, seed) points,
  its blocks spanning points, and reads the counts of several rates off
  each point's sample, one threshold r log rho each. Its one-point,
  one-rate case is ``outage_probability``.
  Estimates at one (rho, seed) share their draws: each keeps its binomial
  law, and counts never fall as r grows.
* On two CPUs, a table of more than two blocks, each one shard piece, is
  split (``_split``): the caller counts its first blocks and a persistent
  forked worker process (``_WorkerProcess``) the rest from their generators'
  state words, and the counts add, bit for bit those of the in-line path.
  Other tables, and those that find the worker busy, run in line. The
  worker runs the module as it was when forked.
"""

from __future__ import annotations

import atexit
import contextlib
import math
import os
import signal
import threading
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence
from scipy import special

from .core import (
    OutOfRangeError, Scenario, check_count, check_real, check_rho, check_sequence,
)

__all__ = [
    "OutageEstimate",
    "GainDistributionReport",
    "outage_probability",
    "outage_table",
    "validate_gain_distribution",
    "confidence_interval",
]

# Samples per block of the outage kernel. One block's workspace, k + 2
# float64 rows of this length and a bool row (0.5 MB at K = 2; bc-zf adds
# normals at K >= 3), stays inside a 2 MB per-core L2 cache. Repeating one
# scenario, 2^15 and 2^16 ran up to 10% faster, but in the interleaved
# mc-deep benchmark 2^15 gained less over the parent (BENCH_10.json).
_BLOCK = 1 << 14
# Largest integer Gamma shape a drawn as -log of a product of a uniforms.
# Per draw, that beats numpy's Marsaglia-Tsang standard_gamma at shapes 1-5
# and is no faster from shape 6 on, since its cost grows with the shape and
# standard_gamma's does not (table in BENCH_10.json). Must stay <= 19, so that
# the product, at least 2^(-53 a), cannot underflow.
_ERLANG_MAX_SHAPE = 5
# Fewest samples of a table split with the worker process. In-line over split
# time (median per-call ratio, alternating calls, mc-deep's four kinds, one
# shard): 0.94-0.98 at 16385 samples, 0.98-1.17 at 32768 (two blocks, 86-153
# of 183 pairs won), 1.19-1.24 at 49152 (three blocks, 104-121 of 122 won).
_SPLIT_SAMPLES = 2 * _BLOCK + 1
# Ratio |R_ii|^2 / ||h_i||^2 at or below which row i counts as linearly
# dependent on rows 0..i-1 (a measure-zero event for CN(0,1) rows).
_RANK_EPS = 1e-24
_SQRT_HALF = 1.0 / math.sqrt(2.0)
_MIN_NORMAL_EVENTS = 20  # below this the normal CI is replaced by Clopper-Pearson
_CI_LEVEL = 0.95  # two-sided level of confidence_interval
_Z = float(special.ndtri(0.5 + _CI_LEVEL / 2))  # its normal quantile


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
        _check_counts(self.n_outages, self.n_samples)
        p = self.p_hat
        object.__setattr__(self, "rho", check_real("linear SNR rho", self.rho, 0.0, open_low=True))
        object.__setattr__(self, "r", check_real("r", self.r, 0.0))  # the estimate does not know K
        # the confidence interval covers the estimate
        object.__setattr__(self, "ci_low", check_real("ci_low", self.ci_low, high=p + 1e-12))
        object.__setattr__(self, "ci_high", check_real("ci_high", self.ci_high, p - 1e-12))

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


def _sample_rows(rng: np.random.Generator, n: int, k: int, m: int) -> np.ndarray:
    re = rng.standard_normal((n, k, m))
    im = rng.standard_normal((n, k, m))
    return (re + 1j * im) * _SQRT_HALF


def _sq_norm(v: np.ndarray) -> np.ndarray:
    """Squared Euclidean norms along the last axis."""
    return np.einsum("...m,...m->...", v.conj(), v).real


def _qr_gains(rows: np.ndarray, zf: bool) -> tuple[np.ndarray, np.ndarray]:
    """Effective gains of stacked channels from the R factor of H* = QR.

    rows: (n, k, m), k <= m -> (gains (n, k), ok (n,)). |R_ii|^2 is the
    squared residual of row i after removing rows 0..i-1, the DPC gain when
    users are encoded in row order. Since HH* = R*R, the ZF gain
    1 / [(HH*)^-1]_ii is 1 / ||row i of R^-1||^2. ``ok`` is False where
    |R_ii|^2 <= _RANK_EPS ||h_i||^2 on any row for ZF, or on any row but
    the last for DPC (no DPC gain depends on the last row's direction).
    """
    k = rows.shape[1]
    r = np.linalg.qr(rows.conj().swapaxes(1, 2), mode="r")
    diag = np.diagonal(r, axis1=1, axis2=2)
    residual = np.abs(diag) ** 2
    tiny = residual <= _RANK_EPS * _sq_norm(rows)
    if not zf:
        return residual, ~tiny[:, :-1].any(axis=1)
    # A unit pivot keeps the inverse finite where R is singular; ok masks it.
    r[:, range(k), range(k)] = np.where(tiny, 1.0, diag)
    return 1.0 / _sq_norm(np.linalg.inv(r)), ~tiny.any(axis=1)


def _capacity(mu: np.ndarray, spans, gains: np.ndarray, out: np.ndarray) -> np.ndarray:
    """K * sum_i mu_i log(1 + mu_i rho gamma_i) for each column of the (k, n)
    ``gains``, accumulated row by row into ``out`` (n,); ``gains`` is
    overwritten. ``spans`` lists (rho, slice) pairs whose slices tile the
    columns, one per SNR point; a block of one point has one span."""
    for i, (row, w) in enumerate(zip(gains, mu)):
        for rho, cols in spans:
            np.multiply(row[cols], w * rho, out=row[cols])
        np.log1p(row, out=row)
        if i == 0:
            np.multiply(row, w, out=out)
        else:
            row *= w
            out += row
    out *= mu.size
    return out


class _Workspace:
    """Buffers that the outage kernel reuses for every block of at most
    ``size`` samples: the (k, n) gain rows, a spare row (bc-zf at K = 2
    draws E there), the capacity accumulator, the outage mask and, for
    bc-zf at K >= 3, the Bartlett normals, which the off-diagonal entries
    of L^-1 overwrite in place. A block holds whole pieces of one or more
    shards, of one or more SNR points, side by side, each in its own
    columns; one workspace serves a whole table, or each share of a split
    one. Buffers are flat, so a shorter block's leading slice reshapes into
    a contiguous array."""

    def __init__(self, scenario: Scenario, size: int):
        k = scenario.k
        self.draws = np.empty(k * size)
        self.term = np.empty(size)
        self.acc = np.empty(size)
        self.hit = np.empty(size, dtype=bool)
        self.normals = np.empty(k * (k - 1) * size if scenario.kind == "bc-zf" and k > 2 else 0)


def _gamma_row(segments, row: np.ndarray, shape: int, scratch) -> np.ndarray:
    """Fill ``row`` with Gamma(shape, 1) draws, each generator of the
    (generator, slice) ``segments`` into its own slice of the row: shape
    a <= ``_ERLANG_MAX_SHAPE`` as -log prod_{j<a} (1 - U_j), multiplied in
    place through the spare row ``scratch`` (unused at a = 1; the factors
    lie in (0, 1], so a zero uniform never gives -log 0), a larger shape by
    ``standard_gamma``. Only the draws run per segment; the products and
    the log run once over the whole row."""
    if shape > _ERLANG_MAX_SHAPE:
        for rng, part in segments:
            rng.standard_gamma(float(shape), out=row[part])
        return row
    for rng, part in segments:
        rng.random(out=row[part])
    np.subtract(1.0, row, out=row)
    for _ in range(shape - 1):
        for rng, part in segments:
            rng.random(out=scratch[part])
        row *= np.subtract(1.0, scratch, out=scratch)
    return np.negative(np.log(row, out=row), out=row)


def _shapes(scenario: Scenario):
    """The shapes of the Gamma rows of ``_chunk_gains``, in order."""
    if scenario.kind == "bc-zf":  # the Bartlett diagonal
        return range(scenario.m, scenario.m - scenario.k, -1)
    return scenario.gain_shapes()


def _chunk_gains(scenario: Scenario, segments, work: _Workspace) -> np.ndarray:
    """Draw one block of effective-gain vectors from the equivalent parallel
    model into ``work`` and return them as a (k, n) view, rows in
    ``scenario.encode_order()``. ``segments`` lists (generator, slice)
    pairs whose slices tile the block's n columns in order; each generator
    fills its own columns with exactly the draws, in the same order, that a
    block of its columns alone would take from it.

    Parallel and DPC gains are independent Gamma(shape_i, 1), drawn one row
    at a time by ``_gamma_row``. ZF gains are gamma_i = 1 / [G^-1]_ii for
    the Gram matrix G = HH*, whose Bartlett factor L (G = LL*) has
    independent entries: X_i = |L_ii|^2 ~ Gamma(m - i, 1), drawn by the same
    rule, and CN(0,1) below the diagonal. [G^-1]_ii is the squared norm of
    column i of L^-1. At K = 2 column 0 has (X_1 + E) / (X_0 X_1) with
    E = |L_10|^2 ~ Exp(1), drawn third into the spare row, and column 1 has
    1 / X_1: gamma_0 = X_0 X_1 / (X_1 + E), gamma_1 = X_1. At K >= 3, L^-1
    is built row by row by forward substitution in real arithmetic, in
    place of L in the normals buffer: each off-diagonal entry is a pair of
    real (n,) rows, and the diagonal 1 / |L_ii| stays real. Products
    accumulate over j ascending and column norms over rows ascending, as in
    the complex (k, k, n) formulation that the tests keep as the reference,
    so the gains equal its gains bit for bit.
    """
    k = scenario.k
    zf = scenario.kind == "bc-zf"
    n = segments[-1][1].stop
    draws, term = work.draws[: k * n].reshape(k, n), work.term[:n]
    for row, shape in zip(draws, _shapes(scenario)):
        _gamma_row(segments, row, shape, term)
    if not zf:
        return draws
    if k == 2:
        x0, x1 = draws
        np.add(_gamma_row(segments, term, 1, None), x1, out=term)  # E + X_1
        np.divide(np.multiply(x0, x1, out=x0), term, out=x0)
        return draws
    # The draws buffer becomes 1 / |L_ii|, then the column norms, then the gains.
    inv_diag = np.sqrt(draws, out=draws)
    np.divide(1.0, inv_diag, out=inv_diag)
    pairs = k * (k - 1) // 2
    z = work.normals[: 2 * pairs * n].reshape(2, pairs, n)
    for rng, part in segments:  # a generator fills only a contiguous array
        z[:, :, part] = rng.standard_normal((2, pairs, part.stop - part.start))
    z *= _SQRT_HALF
    # z[:, i(i - 1)/2 + c] holds the real and imaginary parts of entry
    # (i, c < i) of L; entry (i, c) of L^-1 overwrites it, as no later entry
    # of row i reads it.
    l_re, l_im = z
    for i in range(1, k):
        row, scale = i * (i - 1) // 2, -inv_diag[i]
        for c in range(i):
            entry = z[:, row + c]
            entry *= inv_diag[c]
            re, im = entry
            for j in range(c + 1, i):
                x = j * (j - 1) // 2 + c
                re += l_re[row + j] * l_re[x] - l_im[row + j] * l_im[x]
                im += l_re[row + j] * l_im[x] + l_im[row + j] * l_re[x]
            entry *= scale
    gains = np.square(inv_diag, out=inv_diag)
    for slot, c in enumerate(c for i in range(k) for c in range(i)):  # rows ascending
        re, im = np.square(z[:, slot], out=z[:, slot])
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


def _check_counts(n_outages, n_samples) -> None:
    """Integers n_samples >= 1 and 0 <= n_outages <= n_samples, else ``OutOfRangeError``."""
    check_count("n_samples", n_samples, 1)
    if check_count("n_outages", n_outages, 0) > n_samples:
        raise OutOfRangeError(f"{n_outages} outages exceed {n_samples} samples")


def confidence_interval(n_outages: int, n_samples: int) -> tuple[float, float]:
    """95% binomial CI for the outage probability.

    Normal approximation on the count; exact Clopper-Pearson whenever
    fewer than 20 outages were observed. ``n_samples`` must be an integer
    >= 1 and ``n_outages`` an integer in [0, n_samples].
    """
    _check_counts(n_outages, n_samples)
    p = n_outages / n_samples
    if n_outages >= _MIN_NORMAL_EVENTS:
        half = _Z * math.sqrt(p * (1.0 - p) / n_samples)
        return max(0.0, p - half), min(1.0, p + half)
    alpha = 1.0 - _CI_LEVEL
    low = 0.0
    if n_outages > 0:
        low = float(special.betaincinv(n_outages, n_samples - n_outages + 1, alpha / 2))
    high = 1.0
    if n_outages < n_samples:
        high = float(special.betaincinv(n_outages + 1, n_samples - n_outages, 1 - alpha / 2))
    return low, high


def _root(seed) -> np.random.SeedSequence:
    """``seed`` as a ``SeedSequence``, checked before any draw: a caller's is
    only read, never advanced; an integer >= 0, or a list, tuple, range or
    array of them, is its entropy; anything else is an ``OutOfRangeError``."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, np.ndarray):
        seed = seed.tolist()
    if isinstance(seed, (list, tuple, range)):
        return np.random.SeedSequence([check_count("seed", word, 0) for word in seed])
    return np.random.SeedSequence(check_count("seed", seed, 0))


# numpy's SeedSequence hash, M. E. O'Neill's seed_seq_fe, with the constants of
# numpy/random/bit_generator.pyx, pinned by TestShardGenerators against numpy's
# spawn; _HASH_B is INIT_B MULT_B^j mod 2^32 for generate_state's 8 words.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _MASK = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF
_HASH_B = np.array([_INIT_B * pow(_MULT_B, j, 1 << 32) & _MASK for j in range(9)], np.uint32)


class _StateWords(ISeedSequence):
    """Hands a ``PCG64`` its four precomputed state words; it cannot spawn."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _word_count(x) -> int:
    """Length in uint32 words of numpy's coercion of entropy or a spawn key."""
    if isinstance(x, str):
        x = int(x, 16) if x.startswith("0x") else int(x)
    if isinstance(x, (int, np.integer)):
        return max(1, -(-int(x).bit_length() // 32))
    if isinstance(x, np.ndarray) and x.dtype == np.uint32:
        return x.size
    return sum(map(_word_count, x))


def _shard_states(roots, shards: int) -> np.ndarray:
    """The (len(roots) * shards, 4) uint64 state words, for each
    ``SeedSequence`` of ``roots`` in turn, of shard i < ``shards``: the
    words from which ``default_rng`` of the i-th child of
    ``root.spawn(shards)`` seeds its ``PCG64``. One pass builds no child and
    advances no root: key word(s) n_children_spawned + i are mixed into a
    copy of the root's pool, then hashed by generate_state(4, uint64)."""
    if len(sizes := {root.pool_size for root in roots}) > 1:  # mixed pool sizes: root by root
        return np.concatenate([_shard_states([root], shards) for root in roots])
    (size,) = sizes
    index = [root.n_children_spawned + i for root in roots for i in range(shards)]
    pool = np.repeat(np.array([root.pool for root in roots], np.uint32).T, shards, axis=1)
    # a pool of P words has taken P^2 + P max(0, L - P) hashmix steps from L entropy words
    runs = [max(0, _word_count(r.entropy) - size) + _word_count(r.spawn_key) for r in roots]
    const = np.array([_INIT_A * pow(_MULT_A, size * (size + n), 1 << 32) & _MASK
                      for n in runs for _ in range(shards)], np.uint32)
    steps = np.array([pow(_MULT_A, j, 1 << 32) for j in range(size + 1)], np.uint32)[:, None]
    for w in range(-(-max(max(index).bit_length(), 1) // 32)):  # index >= 2^32 takes two words
        high = [i >> 32 * w for i in index]
        hashes = const * steps
        mixed = (np.array([h & _MASK for h in high], np.uint32) ^ hashes[:-1]) * hashes[1:]
        mixed ^= mixed >> 16
        mixed = _MIX_L * pool - _MIX_R * mixed
        mixed ^= mixed >> 16
        pool = np.where([w == 0 or h > 0 for h in high], mixed, pool)
        const = hashes[-1]
    state = (pool[np.arange(8) % size] ^ _HASH_B[:-1, None]) * _HASH_B[1:, None]
    state ^= state >> 16
    return np.ascontiguousarray(state.T, "<u4").view("<u8").astype(np.uint64)


def _generator(words: np.ndarray) -> np.random.Generator:
    """A generator of four state words, whose ``spawn`` raises."""
    return np.random.Generator(np.random.PCG64(_StateWords(words)))


def _blocks(draws):
    """Yield the kernel's blocks, lists of (generator, slice) segments, of the
    (generator, samples) pairs of ``draws``: pieces of at most ``_BLOCK``
    samples share a block while their sum stays at most ``_BLOCK``. Only a
    generator's last piece can be shorter, so no block holds two pieces of
    one generator, and each meets its pieces in order."""
    block, size = [], 0
    for rng, remaining in draws:
        while remaining > 0:
            n = min(_BLOCK, remaining)
            remaining -= n
            if size + n > _BLOCK:
                yield block
                block, size = [], 0
            block.append((rng, slice(size, size + n)))
            size += n
    yield block


class _WorkerProcess:
    """The forked process that counts a split table's second share, started
    at first use, forgotten by a forked child, reaped at exit. ``lock`` is
    held by the table it serves."""

    def __init__(self):
        """Also a forked child's reset, which closes its copy of the parent's pipe."""
        if getattr(self, "pipe", None) is not None:
            self.pipe.close()
        self.lock, self.pid, self.pipe = threading.Lock(), None, None

    def stop(self) -> None:
        """Close the pipe, kill the worker and reap it."""
        pid, self.pid = self.pid, None
        if pid is not None:
            self.pipe.close()
            with contextlib.suppress(ProcessLookupError, ChildProcessError):  # reaped elsewhere
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)

    def share(self, job, own):
        """The sums of ``_count(*job)`` in the worker and ``_count(*own)`` here,
        or the first error, once both shares have ended. A worker whose reply
        was not read is out of step and is replaced at next use."""
        if self.pid is None:
            from multiprocessing import Pipe

            self.pipe, theirs = Pipe()
            self.pid = os.fork()
            if self.pid == 0:  # the worker; the fork reset closed its copy of our end
                _serve(theirs)
            theirs.close()
        reply = None
        try:
            self.pipe.send(job)
            try:
                mine = _count(*own)
            finally:
                reply = self.pipe.recv()
        finally:
            if reply is None:
                self.stop()
        if isinstance(reply, BaseException):
            raise reply
        return [[a + b for a, b in zip(*counts)] for counts in zip(mine, reply)]


def _serve(pipe) -> None:
    """The worker, never to return: answer each job from ``pipe`` with its
    ``_count``, or its error, and exit once the parent's end closes. SIGINT
    is the parent's."""
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        while True:
            job = pipe.recv()  # EOFError once the parent's end closes
            try:
                reply = _count(*job)
            except Exception as error:  # the caller raises it
                reply = error
            pipe.send(reply)
    finally:
        os._exit(0)


_worker = _WorkerProcess()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_worker.__init__)
atexit.register(_worker.stop)


def _several_cpus() -> bool:
    """Whether this process may run on two CPUs, where a split table is faster."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return hasattr(os, "fork") and (os.cpu_count() or 1) > 1  # no fork, no worker


def _split(scenario: Scenario, quotas):
    """(g, head, skip): of a table that draws ``quotas`` samples from its
    generators in turn, the caller counts the generators before g and
    ``head`` samples of generator g, up to the block boundary nearest half
    the samples, and the worker the rest, generator g advanced past ``skip``
    outputs: a cut inside a generator needs rows of uniforms, one output a
    draw. None for a table under ``_SPLIT_SAMPLES`` samples, of multi-piece
    blocks (a quota of at most ``_BLOCK / 2``) or with no cut."""
    if min(quotas) <= _BLOCK // 2 or sum(quotas) < _SPLIT_SAMPLES:
        return None
    zf, k = scenario.kind == "bc-zf", scenario.k
    rows = [*_shapes(scenario), *([1] if zf and k == 2 else [])]  # Erlang rows, bc-zf's E
    uniform = max(rows) <= _ERLANG_MAX_SHAPE and not (zf and k > 2)  # no gamma or normal row
    cuts, total = [], 0  # (samples before the cut, g, head)
    for g, quota in enumerate(quotas):
        cuts += [(total + head, g, head) for head in (range(0, quota, _BLOCK) if uniform else [0])]
        total += quota
    # on a tie the caller takes the larger share, as the worker starts later
    best = min(cuts[1:], key=lambda cut: (abs(2 * cut[0] - total), -cut[0]), default=None)
    return None if best is None else (*best[1:], best[2] * sum(rows))


def _count(scenario, rhos, thresholds, n_samples, start, states, skip, quotas):
    """Outage counts, per point one per threshold, of the blocks that draw
    ``quotas`` samples from generators of the words ``states``, the first
    advanced past ``skip`` outputs, from sample ``start`` of the table (its
    points laid end to end), in one ``_Workspace``."""
    rngs = [_generator(words) for words in states[: len(quotas)]]
    rngs[0].bit_generator.advance(skip)
    mu = np.asarray(scenario.encoded_weights())
    work = _Workspace(scenario, min(_BLOCK, len(rhos) * n_samples))
    outages = [[0] * len(row) for row in thresholds]
    for block in _blocks(zip(rngs, quotas)):
        n = block[-1][1].stop
        spans = [
            (p, slice(max(p * n_samples - start, 0), min((p + 1) * n_samples - start, n)))
            for p in range(start // n_samples, (start + n - 1) // n_samples + 1)
        ]
        gains = _chunk_gains(scenario, block, work)
        capacity = _capacity(mu, [(rhos[p], cols) for p, cols in spans], gains, work.acc[:n])
        for p, cols in spans:
            for j, threshold in enumerate(thresholds[p]):
                hit = np.less_equal(capacity[cols], threshold, out=work.hit[cols])
                outages[p][j] += int(np.count_nonzero(hit))
        start += n
    return outages


def outage_table(
    scenario: Scenario,
    rates,
    points,
    n_samples: int,
    shards: int = 1,
) -> tuple[tuple[OutageEstimate, ...], ...]:
    """Monte Carlo estimates of P{weighted sum capacity <= r log rho}: one
    tuple per (rho, seed) pair of ``points``, in order, of one estimate per
    rate r of ``rates``, in order, all read off the point's capacity sample.

    Gains are drawn from the equivalent parallel model by
    ``_chunk_gains``, so no draw is ever rank deficient and
    ``n_discarded`` is always 0. Each point's budget is split across
    min(shards, n_samples) deterministic substreams, the children of
    ``_root(seed)``, whose pieces ``_blocks`` packs, point after point,
    into blocks of at most ``_BLOCK`` samples, held by one ``_Workspace``
    per table or per share of a split table. Each piece gets the same draws
    as in a block of its own; the capacity runs once per block, each point's
    columns at its own rho, then one comparison and count per rate over each
    point's columns. Counts are summed, so each estimate is a pure function
    of (scenario, r, rho, n_samples, seed, shards). The estimates of one
    point share their draws: each has its own binomial law, but they are not
    independent, and a count never falls as r grows. Every rate must lie in [0, K], and
    every rho in (0, 1e300], so that the capacity stays finite; every seed
    is a ``SeedSequence``, an integer >= 0 or a sequence of them.
    """
    rates = check_sequence("rates", rates)
    if not rates:
        raise OutOfRangeError("rates must hold at least one rate")
    rates = [check_real("r", r, 0.0, scenario.k) for r in rates]
    points = [check_sequence("point", point, 2) for point in check_sequence("points", points)]
    if not points:
        raise OutOfRangeError("points must hold at least one (rho, seed) pair")
    rhos = [check_rho(rho) for rho, _ in points]
    n_samples = check_count("n_samples", n_samples, 1)
    shards = min(check_count("shards", shards, 1), n_samples)

    table = (scenario, rhos, [[r * math.log(rho) for r in rates] for rho in rhos], n_samples)
    states = _shard_states([_root(seed) for _, seed in points], shards)
    quota, extra = divmod(n_samples, shards)  # the first n_samples % shards shards draw one more
    quotas = [quota + (i < extra) for i in range(shards)] * len(points)
    cut = _split(scenario, quotas)
    if cut is None or not _several_cpus() or not _worker.lock.acquire(blocking=False):
        outages = _count(*table, 0, states, 0, quotas)  # in line
    else:
        g, head, skip = cut
        mine = [*quotas[:g], head]
        job = (*table, sum(mine), states[g:], skip, [quotas[g] - head, *quotas[g + 1 :]])
        try:
            outages = _worker.share(job, (*table, 0, states, 0, mine))
        finally:
            _worker.lock.release()
    return tuple(
        tuple(OutageEstimate(rho, r, n_samples, count, *confidence_interval(count, n_samples))
              for r, count in zip(rates, counts))
        for rho, counts in zip(rhos, outages)
    )


def outage_probability(
    scenario: Scenario,
    r: float,
    rho: float,
    n_samples: int,
    seed,
    shards: int = 1,
) -> OutageEstimate:
    """Monte Carlo estimate of P{weighted sum capacity <= r log rho}: the
    one-point, one-rate case of :func:`outage_table`, with its checks, draws
    and count."""
    ((estimate,),) = outage_table(scenario, (r,), [(rho, seed)], n_samples, shards)
    return estimate


def validate_gain_distribution(
    scenario: Scenario, index: int, n_samples: int, seed
) -> GainDistributionReport:
    """Compare one empirical gain against its Gamma(shape, 1) law.

    ``index`` selects the gain column in encode order (for bc-dpc, position
    0 is the first-encoded, largest-weight user). Gains come from drawn
    channel matrices through the R factor of H* = QR, so this checks the
    Gamma reduction that ``outage_probability`` samples from. They are
    drawn through ``_blocks`` as one shard, in ``_BLOCK``-matrix pieces
    from the first child of ``_root(seed)``, so memory holds one piece plus
    the kept sample. Reports relative errors of mean and variance plus the
    Kolmogorov-Smirnov distance.
    """
    check_count("index", index, 0)
    if index >= scenario.k:
        raise OutOfRangeError(f"index {index} outside 0..{scenario.k - 1}")
    check_count("n_samples", n_samples, 2)
    shape = scenario.gain_shapes()[index]
    parts = []
    rng = _generator(_shard_states([_root(seed)], 1)[0])
    for [(rng, piece)] in _blocks([(rng, n_samples)]):  # one piece per block
        gains, ok = _matrix_gains(scenario, rng, piece.stop - piece.start)
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
