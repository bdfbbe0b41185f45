"""Poisson spin paths in flat batches and their exact path functionals.

A path is a piecewise-constant sign trajectory: an initial sign at the left
end of the horizon plus the ordered jump times of a Poisson clock.  A batch
of paths is stored flat: the jump times of every path concatenated in path
order, plus ``offsets`` with path i owning ``jumps[offsets[i]:offsets[i+1]]``.
Every functional the estimators need is integrated in closed form over the
piecewise-constant sign pattern, so the only randomness is in the jump times
themselves: the square pair interaction int int T_s T_r e^{-|s-r|} and the
damped sign integral int T_s e^{-|s|} ds come from one block pass (every
horizon of a path from one decomposition), and the vacuum suppression damps
jumpy paths in the vacuum element.  Samplers form them stream by stream.

The importance weight of a path on [-T, T] is exp((g^2/2) * J) with J the
full square interaction, and the effective sample size is tracked from the
log weights.

Every sampler of the package draws through ``_seed_streams``: its samples
are split into ``N_STREAMS`` fixed chunks, chunk i draws from
``SeedSequence(seed, spawn_key=(*key, i))``, and results are reduced in
stream order, so a fixed (seed, n_samples, params) gives identical bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import logsumexp

from .errors import DomainError, ParameterError
from .model import ModelParams

#: Default master seed: determinism by default, overridable everywhere.
DEFAULT_SEED = 20240915
#: Number of independent seed streams every sampler splits its draws over.
N_STREAMS = 8


def _check_draws(seed: int, n_samples: int) -> None:
    """Reject a sample count below 1 or a negative seed with ``ParameterError``."""
    if n_samples < 1:
        raise ParameterError(f"n_samples must be positive, got {n_samples}")
    if seed < 0:
        raise ParameterError(f"seed must be a nonnegative integer, got {seed}")


def _seed_streams(seed: int, n_samples: int, *key: int):
    """Yield ``(chunk, rng)`` for every stream of one sampler call.

    ``n_samples`` is split into ``N_STREAMS`` fixed, order-stable chunks;
    streams that would draw nothing are dropped, so fewer than ``N_STREAMS``
    samples use one stream each.  Stream i draws from
    ``SeedSequence(seed, spawn_key=(*key, i))``.  A sampler that makes several
    independent Monte Carlo averages from one seed gives each its own ``key``
    (the kernels use the flip order m), so their streams never coincide and
    their variances add.
    """
    _check_draws(seed, n_samples)
    base, extra = divmod(n_samples, N_STREAMS)
    for stream in range(min(n_samples, N_STREAMS)):
        sequence = np.random.SeedSequence(seed, spawn_key=(*key, stream))
        yield base + (stream < extra), np.random.Generator(np.random.PCG64(sequence))


# ---------------------------------------------------------------------------
# Batched sampling and segment reductions
# ---------------------------------------------------------------------------


def _sample_segments(rng, rate: float, length: float, n: int, lo: float):
    """Jumps of n independent Poisson paths on [lo, lo+length], flat + offsets."""
    counts = rng.poisson(rate * length, size=n) if rate > 0 else np.zeros(n, dtype=np.int64)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    total = int(offsets[-1])
    u = rng.uniform(0.0, length, size=total)
    if total:
        seg = np.repeat(np.arange(n), counts)
        span = length + 1.0
        u = np.sort(u + seg * span) - seg * span
        np.clip(u, 0.0, length, out=u)
    return lo + u, offsets


def _segment_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment sums for a flat array described by ``offsets``."""
    n = len(offsets) - 1
    out = np.zeros(n)
    if values.size == 0:
        return out
    nonempty = offsets[:-1] < offsets[1:]
    sums = np.add.reduceat(values, offsets[:-1][nonempty])
    out[nonempty] = sums
    return out


def _exclusive_prefix(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Within-segment exclusive prefix sums of a flat array."""
    if values.size == 0:
        return values.copy()
    cs = np.cumsum(values)
    cs -= values
    counts = np.diff(offsets)
    cs -= np.repeat(cs[offsets[:-1][counts > 0]], counts[counts > 0])
    return cs


def _jump_capacity(rate: float, length: float, n: int) -> int:
    """Room for the jumps of n rate-``rate`` Poisson paths on ``length``.

    The Poisson mean plus ten standard deviations.  Pages of an ``np.empty``
    buffer that are never written are never resident, so the margin costs
    no resident memory, and ``_write_batch`` grows a buffer it overflows.
    """
    mean = rate * length * n
    return int(mean + 10.0 * np.sqrt(mean)) + 1


def _write_batch(buffer, offsets, first, jumps, batch_offsets) -> np.ndarray:
    """Write a batch as paths ``first:`` of a flat batch; return the buffer.

    The batch's jumps go to ``buffer`` from ``offsets[first]`` on, and its
    offsets, shifted there, to ``offsets[first + 1:]``.  A buffer without
    room is replaced by one at least twice its size holding the same jumps.
    """
    filled = int(offsets[first])
    end = filled + jumps.size
    if end > buffer.size:
        grown = np.empty(max(2 * buffer.size, end))
        grown[:filled] = buffer[:filled]
        buffer = grown
    buffer[filled:end] = jumps
    offsets[first + 1:first + batch_offsets.size] = batch_offsets[1:] + filled
    return buffer


def _count_upto(jumps: np.ndarray, offsets: np.ndarray, time: float) -> np.ndarray:
    """Per-path number of jumps at or before ``time``.

    Jumps are sorted within each path, so these are also the first jumps of
    each path, and one binary search over every path at once finds their
    number: a path takes ``step`` more jumps when the last of them is still
    at or before ``time``.  O(paths) memory and log2(most jumps) passes.
    """
    start, stop = offsets[:-1], offsets[1:]
    end = start.copy()  # one past each path's last jump at or before ``time``
    if jumps.size == 0:
        return end - start
    step = 1 << (int((stop - start).max()).bit_length() - 1)
    while step:
        probe = end + (step - 1)
        take = probe < stop
        take &= jumps.take(probe, mode="clip") <= time
        end += take * step
        step >>= 1
    return end - start


def _block_terms(jumps, offsets, lo, hi, alpha0):
    """Blocks of every path on [lo, hi] and their closed-form terms.

    Path i owns blocks ``bo[i]:bo[i+1]``: they start at ``lo`` and at its
    jumps, end at its jumps and at ``hi``, and their signs alternate from
    ``alpha0[i]``.  A block of sign c on [s, e], l = e - s, has ``same`` =
    2 (l - 1 + e^{-l}), the integral over its own square, and the factors
    ``a`` = c (1 - e^{-l}) e^e and ``b`` = c (1 - e^{-l}) e^{-s}: blocks i
    before j add 2 a_i b_j to the square interaction.  On [0, hi] the block's
    damped integral c int e^{-s} ds is ``b``; on [lo, 0] it is ``a``.
    Returns ``(starts, signs, bo, same, a, b)``.  The terms are formed in
    place, so a pass holds six arrays of blocks at once.
    """
    bo = offsets + np.arange(len(offsets))
    starts = np.insert(jumps, offsets[:-1], lo)
    ends = np.append(starts[1:], hi)  # a block ends where the next one starts,
    ends[bo[1:] - 1] = hi  # except the last block of each path
    lengths = ends - starts
    first = np.asarray(alpha0, dtype=float) * np.where(bo[:-1] & 1, -1.0, 1.0)
    signs = np.repeat(first, np.diff(bo))
    signs[1::2] *= -1.0  # signs alternate from each path's first block
    weight = np.negative(lengths)
    np.expm1(weight, out=weight)  # e^{-length} - 1
    same = lengths  # 2 (length - 1 + e^{-length})
    same += weight
    same *= 2.0
    np.negative(weight, out=weight)
    weight *= signs  # c (1 - e^{-length})
    a = np.exp(ends, out=ends)
    a *= weight
    b = np.negative(starts)
    np.exp(b, out=b)
    b *= weight
    return starts, signs, bo, same, a, b


def _square_functionals(jumps, offsets, lo, hi, alpha0):
    """Per-path square interaction over [lo, hi]^2 and sums of ``a`` and ``b``.

    One block pass, O(total jumps).  For a horizon on one side of 0 the sum
    of ``b`` (``lo >= 0``) or of ``a`` (``hi <= 0``) is int T_s e^{-|s|} ds.
    """
    _, _, bo, same, a, b = _block_terms(jumps, offsets, lo, hi, alpha0)
    sum_a, sum_b = _segment_sums(a, bo), _segment_sums(b, bo)
    pairs = _pair_terms(same, b, _exclusive_prefix(a, bo))
    return _segment_sums(pairs, bo), sum_a, sum_b


def _pair_terms(same, b, before):
    """``same + 2 b before`` per block, formed in ``b``, which is spent.

    With ``before`` the within-path exclusive prefix sums of ``a``, each
    block's own square plus its pairs with every earlier block.
    """
    b *= 2.0
    b *= before
    b += same
    return b


def _horizon_interactions(jumps, offsets, horizons):
    """Per-path square interaction over [0, t]^2 for every t, sign +1 at 0.

    The paths lie on [0, max(horizons)], and one block decomposition there
    serves every horizon: for each t the within-path prefix sums at the
    block holding t give every block that ends before t, and that block,
    clipped at t, is added in closed form.
    """
    n = len(offsets) - 1
    starts, signs, bo, same, a, b = _block_terms(jumps, offsets, 0.0, max(horizons), np.ones(n))
    before = _exclusive_prefix(a, bo)
    done = _exclusive_prefix(_pair_terms(same, b, before), bo)
    out = []
    for t in horizons:
        last = bo[:-1] + _count_upto(jumps, offsets, t)
        start = starts[last]
        length = t - start
        clipped_b = signs[last] * -np.expm1(-length) * np.exp(-start)
        out.append(done[last] + 2.0 * (length + np.expm1(-length)) + 2.0 * clipped_b * before[last])
    return out


def _vacuum_suppression_batch(jumps, offsets) -> np.ndarray:
    """Per-path vacuum suppression for paths on [0, t]."""
    within = np.arange(jumps.size) - np.repeat(offsets[:-1], np.diff(offsets))
    signs = np.where(within & 1, -1.0, 1.0)
    b = signs * np.exp(-jumps)
    first = _segment_sums(b, offsets)
    diag = _segment_sums(-np.expm1(-2.0 * jumps), offsets)
    a = signs * 2.0 * np.sinh(jumps)
    cross = 2.0 * _segment_sums(b * _exclusive_prefix(a, offsets), offsets)
    return first**2 + diag + cross


# ---------------------------------------------------------------------------
# Weighted two-sided ensembles
# ---------------------------------------------------------------------------


def default_horizon(delta: float) -> float:
    """Half-width T of the sampling window, max(8, 6/delta)."""
    if delta <= 0:
        raise ParameterError("the two-sided spin process requires delta > 0")
    return max(8.0, 6.0 / delta)


@dataclass
class WeightedPathEnsemble:
    """Independent two-sided spin paths with importance log-weights.

    Weights tilt the symmetric Poisson law by exp((g^2/2) * J) with J the
    pair-interaction integral over the full square; expectations under the
    tilted law follow from ``weighted_mean``.  ``n_eff`` collapses when
    g^2 * T grows; consumers should compare against the sample count.
    """

    params: ModelParams
    half_width: float
    alpha0: np.ndarray
    left_jumps: np.ndarray
    left_offsets: np.ndarray
    right_jumps: np.ndarray
    right_offsets: np.ndarray
    log_weights: np.ndarray
    interaction_full: np.ndarray
    damped_left: np.ndarray
    damped_right: np.ndarray
    seed: int
    note: str = ""

    @property
    def n_samples(self) -> int:
        return len(self.log_weights)

    @property
    def cross_interaction(self) -> np.ndarray:
        """Pair interaction restricted to the mixed quadrant [-T,0] x [0,T]."""
        return self.damped_left * self.damped_right

    @cached_property
    def n_eff(self) -> float:
        """Effective sample size of the log-weights, computed on first read."""
        lw = self.log_weights
        return float(np.exp(2.0 * logsumexp(lw) - logsumexp(2.0 * lw)))

    def normalized_weights(self) -> np.ndarray:
        lw = self.log_weights
        w = np.exp(lw - lw.max())
        return w / w.sum()

    def weighted_mean(self, values: np.ndarray) -> tuple[complex, float]:
        """Self-normalized importance mean and linearized standard error.

        A constant estimand is exact regardless of the weights and is
        reported with zero error.
        """
        values = np.asarray(values)
        if np.all(values == values.flat[0]):
            return values.flat[0], 0.0
        w = self.normalized_weights()
        mean = np.sum(w * values)
        resid = values - mean
        var = np.sum((w * np.abs(resid)) ** 2)
        return mean, float(np.sqrt(var))

    def signs_at(self, time: float) -> np.ndarray:
        """Sign of every path at a fixed time in [-T, T]."""
        T = self.half_width
        if not -T <= time <= T:
            raise DomainError(f"time {time} outside [-{T}, {T}]")
        if time >= 0.0:
            flips = _count_upto(self.right_jumps, self.right_offsets, time)
        else:
            left = _count_upto(self.left_jumps, self.left_offsets, time)
            flips = np.diff(self.left_offsets) - left
        return np.where(flips % 2 == 0, 1.0, -1.0)


def build_ground_ensemble(
    params: ModelParams,
    n_samples: int,
    T: float | None = None,
    seed: int = DEFAULT_SEED,
) -> WeightedPathEnsemble:
    """Sample the weighted two-sided ensemble representing the ground measure.

    Paths are rate-delta Poisson sign paths on [-T, T] built from independent
    halves glued at 0 (sign fixed to +1 there); weights are
    exp((g^2/2) * J_full).  An n_eff below 100 is flagged in ``note`` with a
    resampling recommendation.

    Every per-path array is allocated once, at ``n_samples``, and the jumps
    of each side go to one buffer: each seed stream writes its slice, so
    each path is written once and the jump arrays returned are views.
    """
    if params.delta <= 0:
        raise ParameterError("a rate-delta spin process requires delta > 0")
    if T is None:
        T = default_horizon(params.delta)
    if T <= 0:
        raise ParameterError("T must be positive")
    capacity = _jump_capacity(params.delta, T, n_samples)
    left_jumps, right_jumps = np.empty(capacity), np.empty(capacity)
    left_offsets = np.zeros(n_samples + 1, dtype=np.int64)
    right_offsets = np.zeros(n_samples + 1, dtype=np.int64)
    alpha0 = np.empty(n_samples, dtype=int)
    j_full, u_left, v_right = np.empty(n_samples), np.empty(n_samples), np.empty(n_samples)
    first = 0
    for chunk, rng in _seed_streams(seed, n_samples):
        rows = slice(first, first + chunk)
        left = _sample_segments(rng, params.delta, T, chunk, -T)
        right = _sample_segments(rng, params.delta, T, chunk, 0.0)
        left_jumps = _write_batch(left_jumps, left_offsets, first, *left)
        right_jumps = _write_batch(right_jumps, right_offsets, first, *right)
        alpha0[rows] = np.where(np.diff(left[1]) % 2 == 0, 1, -1)  # sign at -T; sign at 0 is +1
        j_left, u_left[rows], _ = _square_functionals(*left, -T, 0.0, alpha0[rows])
        j_right, _, v_right[rows] = _square_functionals(*right, 0.0, T, np.ones(chunk))
        j_full[rows] = j_left + j_right + 2.0 * u_left[rows] * v_right[rows]
        del left, right, j_left, j_right  # freed before the next stream draws
        first += chunk
    log_weights = 0.5 * params.g**2 * j_full

    ens = WeightedPathEnsemble(
        params=params,
        half_width=float(T),
        alpha0=alpha0,
        left_jumps=left_jumps[:left_offsets[-1]],
        left_offsets=left_offsets,
        right_jumps=right_jumps[:right_offsets[-1]],
        right_offsets=right_offsets,
        log_weights=log_weights,
        interaction_full=j_full,
        damped_left=u_left,
        damped_right=v_right,
        seed=seed,
    )
    if ens.n_eff < 100:
        ens.note = (
            f"effective sample size {ens.n_eff:.1f} < 100; "
            "increase n_samples or reduce T (importance weights degenerate)"
        )
    return ens
