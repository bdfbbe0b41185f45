"""Poisson spin paths in flat batches and their exact path functionals.

A path is a piecewise-constant sign trajectory: an initial sign at the left
end of the horizon plus the ordered jump times of a Poisson clock.  A batch
of paths is stored flat: the jump times of every path concatenated in path
order, plus ``offsets`` with path i owning ``jumps[offsets[i]:offsets[i+1]]``.
Every functional the estimators need is integrated in closed form over the
piecewise-constant sign pattern, one pass over the flat arrays, so the only
randomness is in the jump times themselves: the square pair interaction
int int T_s T_r e^{-|s-r|}, the damped sign integral int T_s e^{-|s|} ds,
and the vacuum suppression that damps jumpy paths in the vacuum element.

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

import numpy as np
from scipy.special import logsumexp

from .errors import DomainError, ParameterError
from .model import ModelParams

#: Default master seed: determinism by default, overridable everywhere.
DEFAULT_SEED = 20240915
#: Number of independent seed streams every sampler splits its draws over.
N_STREAMS = 8


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
    if n_samples < 1:
        raise ParameterError(f"n_samples must be positive, got {n_samples}")
    if seed < 0:
        raise ParameterError(f"seed must be a nonnegative integer, got {seed}")
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
        keyed = np.sort(u + seg * span)
        u = keyed - np.repeat(np.arange(n), counts) * span
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
    cs = np.cumsum(values) - values
    counts = np.diff(offsets)
    base = cs[offsets[:-1][counts > 0]]
    correction = np.zeros_like(values)
    correction[:] = np.repeat(base, counts[counts > 0])
    return cs - correction


def _concat_batches(batches) -> tuple[np.ndarray, np.ndarray]:
    """One flat batch from a sequence of ``(jumps, offsets)`` batches, in order."""
    counts = np.concatenate([np.diff(offsets) for _, offsets in batches])
    offsets = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return np.concatenate([jumps for jumps, _ in batches]), offsets


def _count_upto(jumps: np.ndarray, offsets: np.ndarray, time: float) -> np.ndarray:
    """Per-path number of jumps at or before ``time``.

    Jumps are sorted within each path, so these are also the first jumps of
    each path: the batch restricted to ``(-inf, time]`` is
    ``jumps[jumps <= time]`` with offsets from the cumulative counts.
    """
    upto = np.zeros(jumps.size + 1, dtype=np.int64)
    np.cumsum(jumps <= time, out=upto[1:])
    return upto[offsets[1:]] - upto[offsets[:-1]]


def _block_arrays(jumps: np.ndarray, offsets: np.ndarray, lo: float, hi: float, alpha0):
    """Block starts/ends/signs and block offsets for one-sided horizons."""
    counts = np.diff(offsets)
    nblocks = counts + 1
    bo = np.zeros(len(offsets), dtype=np.int64)
    np.cumsum(nblocks, out=bo[1:])
    total = int(bo[-1])
    starts = np.empty(total)
    ends = np.empty(total)
    first = bo[:-1]
    last = bo[1:] - 1
    starts[first] = lo
    mask = np.ones(total, dtype=bool)
    mask[first] = False
    starts[mask] = jumps
    ends[last] = hi
    mask = np.ones(total, dtype=bool)
    mask[last] = False
    ends[mask] = jumps
    within = np.arange(total) - np.repeat(first, nblocks)
    signs = np.repeat(np.asarray(alpha0, dtype=float), nblocks) * np.where(within % 2 == 0, 1.0, -1.0)
    return starts, ends, signs, bo


def _square_interaction_batch(jumps, offsets, lo, hi, alpha0) -> np.ndarray:
    """Per-path interaction integral over [lo, hi]^2 (exact, O(total jumps))."""
    starts, ends, signs, bo = _block_arrays(jumps, offsets, lo, hi, alpha0)
    lengths = ends - starts
    shrink = -np.expm1(-lengths)  # 1 - e^{-length}
    same = 2.0 * (lengths + np.expm1(-lengths))
    a = signs * shrink * np.exp(ends)
    b = signs * shrink * np.exp(-starts)
    cross = b * _exclusive_prefix(a, bo)
    return _segment_sums(same, bo) + 2.0 * _segment_sums(cross, bo)


def _damped_batch(jumps, offsets, lo, hi, alpha0) -> np.ndarray:
    """Per-path int T_s e^{-|s|} ds for horizons entirely on one side of 0."""
    starts, ends, signs, bo = _block_arrays(jumps, offsets, lo, hi, alpha0)
    if lo >= 0.0:
        pieces = np.exp(-starts) - np.exp(-ends)
    elif hi <= 0.0:
        pieces = np.exp(ends) - np.exp(starts)
    else:
        raise ParameterError("damped batch requires a one-sided horizon")
    return _segment_sums(signs * pieces, bo)


def _vacuum_suppression_batch(jumps, offsets) -> np.ndarray:
    """Per-path vacuum suppression for paths on [0, t]."""
    counts = np.diff(offsets)
    within = np.arange(jumps.size) - np.repeat(offsets[:-1], counts)
    signs = np.where(within % 2 == 0, 1.0, -1.0)
    first = _segment_sums(signs * np.exp(-jumps), offsets)
    diag = _segment_sums(-np.expm1(-2.0 * jumps), offsets)
    a = signs * 2.0 * np.sinh(jumps)
    b = signs * np.exp(-jumps)
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

    @property
    def n_eff(self) -> float:
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
    """
    params.require_spin_rate()
    if T is None:
        T = default_horizon(params.delta)
    if T <= 0:
        raise ParameterError("T must be positive")
    left, right = [], []
    for chunk, rng in _seed_streams(seed, n_samples):
        left.append(_sample_segments(rng, params.delta, T, chunk, -T))
        right.append(_sample_segments(rng, params.delta, T, chunk, 0.0))
    left_jumps, left_offsets = _concat_batches(left)
    right_jumps, right_offsets = _concat_batches(right)

    left_counts = np.diff(left_offsets)
    alpha0 = np.where(left_counts % 2 == 0, 1, -1)  # sign at -T; sign at 0 is +1

    j_left = _square_interaction_batch(left_jumps, left_offsets, -T, 0.0, alpha0)
    j_right = _square_interaction_batch(right_jumps, right_offsets, 0.0, T, np.ones_like(alpha0))
    u_left = _damped_batch(left_jumps, left_offsets, -T, 0.0, alpha0)
    v_right = _damped_batch(right_jumps, right_offsets, 0.0, T, np.ones_like(alpha0))
    j_full = j_left + j_right + 2.0 * u_left * v_right
    log_weights = 0.5 * params.g**2 * j_full

    ens = WeightedPathEnsemble(
        params=params,
        half_width=float(T),
        alpha0=alpha0,
        left_jumps=left_jumps,
        left_offsets=left_offsets,
        right_jumps=right_jumps,
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
