"""Poisson spin paths in flat batches and their exact path functionals.

A path is a piecewise-constant sign trajectory: an initial sign at the left
end of the horizon plus the ordered jump times of a Poisson clock.  A batch
of paths is stored flat: the jump times of every path concatenated in path
order, plus ``offsets`` with path i owning ``jumps[offsets[i]:offsets[i+1]]``.
Every functional the estimators need is integrated in closed form over the
piecewise-constant sign pattern, so the only randomness is in the jump times
themselves: the square pair interaction int int T_s T_r e^{-|s-r|} (at every
horizon of a path), the damped sign integral int T_s e^{-|s|} ds and the
vacuum suppression that damps jumpy paths in the vacuum element.  They come
from one forward pass over jump rank, ``_rank_pass``, which carries a few
numbers per path through recurrences whose terms stay of size about 1, so a
path's value rounds at its own scale, not at that of its stream.  Samplers
form them stream by stream.

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


def _rank_pass(jumps, offsets, lo, horizons, suppression=False):
    """Per-path functionals of a flat batch on [lo, hi], hi = ``horizons[-1]``.

    One forward pass over jump rank.  The paths are ranked by jump count,
    most first and stably, so the paths that still have a k-th jump are a
    prefix of the ranking.  Step k gathers that prefix's k-th jumps and
    advances each path by one block (or one jump), on contiguous slices of
    the rows of one array; the results return to path order once, at the
    end.  A path carries a few numbers, each updated by terms of size at
    most about 1: no array over the jumps is formed, and nothing grows like
    e^{hi - lo}.

    Path i has blocks j = 0..k_i on [s_j, e_j], with s_0 = lo, e_{k_i} = hi
    and its jumps between, of sign c_j = (-1)^j times that of the first.
    The interaction is even in the signs; the damped integral is odd, and is
    taken with the sign +1 at 0, on the block that touches it.  Let
    l_j = e_j - s_j and m_j = 1 - e^{-l_j}, formed as -expm1(-l_j).

    * Interaction J = int int T_s T_r e^{-|s-r|} over [lo, hi]^2.  A block's
      own square gives 2 (l_j - m_j).  Blocks i < j give
      2 c_i c_j int int e^{r-s} = 2 a_i b_j, with a_i = c_i m_i e^{e_i} and
      b_j = c_j m_j e^{-s_j}.  With A_j = e^{-s_j} sum_{i<j} a_i the pairs
      of block j sum to 2 c_j m_j A_j, and e^{-s_{j+1}} = (1 - m_j) e^{-s_j}
      gives A_0 = 0 and A_{j+1} = (1 - m_j) A_j + c_j m_j.  Each A_{j+1} is a
      convex combination of A_j and c_j, so |A_j| <= 1, and a rounding error
      of A is damped, never amplified.  The pass carries B_j = c_j A_j, for
      which B_{j+1} = m_j (1 - B_j) - B_j; the l_j sum to hi - lo, so
      J = 2 (hi - lo) - 2 sum_j m_j (1 - B_j), with terms in [0, 2].
    * Damped integral int T_s e^{-|s|} ds, for [lo, hi] on one side of 0:
      on [0, hi] it is sum_j b_j with c_0 = 1, and e^{-s_j} is carried as the
      product of the 1 - m_i; its terms are at most e^{-s_j} - e^{-e_j},
      which sum to at most 1.  On [lo, 0] it is sum_j a_j = A after the last
      block, with c_{k_i} = 1, so c_{k_i + 1} = -1 and it is -B.
    * Horizons h < hi in ``horizons``: the block j that holds h, the last
      with s_j <= h, clipped to [s_j, h], ends the path, so
      J_h = 2 (h - lo) - 2 sum_{i<j} m_i (1 - B_i) - 2 m' (1 - B_j), with
      m' = 1 - e^{-(h - s_j)}.  j is the number of jumps at or before h,
      counted over the ranks before the pass, so step j keeps s_j, the
      partial sum and B_j of the path for h, and every horizon comes from
      the one pass.
    * Vacuum suppression, with ``suppression``: for jumps x_1 < ... < x_k,
      xi = sum_{j,k} (-1)^{j+k} e^{-|x_j - x_k|} is the variance of
      S_k = sum_j (-1)^{j-1} X_{x_j} for a stationary Ornstein-Uhlenbeck
      process X of unit variance.  Time reversal gives
      X_{x_{j-1}} = rho_j X_{x_j} + sqrt(1 - rho_j^2) Z_j with
      rho_j = e^{-(x_j - x_{j-1})} and Z_j independent of X on [x_j, oo).
      So S_j = R_j X_{x_j} + N_j with N_j independent of X_{x_j}, where
      R_1 = 1, Var N_1 = Q_1 = 0, R_j = rho_j R_{j-1} + (-1)^{j-1} and
      Q_j = Q_{j-1} + (1 - rho_j^2) R_{j-1}^2; xi = Q_k + R_k^2, and 0 for
      a path without jumps.  Every term is nonnegative, so near-coincident
      jumps lose nothing to cancellation.

    Returns the suppression with ``suppression``, else ``(interactions,
    damped)``: one row per h of ``horizons`` (ascending) of the interaction
    over [lo, h]^2, and the damped integral over [lo, hi].
    """
    n = offsets.size - 1
    counts = np.diff(offsets)
    most = int(counts.max(initial=0))
    key = np.min_scalar_type(most)
    # a stable radix sort of a small unsigned key: most jumps first
    order = np.argsort((most - counts).astype(key), kind="stable")
    more = (n - np.cumsum(np.bincount(counts, minlength=most + 1))).tolist()  # paths with > k jumps
    position = offsets[:-1][order]  # each ranked path's next jump
    hi, right = horizons[-1], lo >= 0.0
    below = len(horizons) - 1  # horizons before hi
    state = np.zeros((4 * below + 9, n))  # every row of the pass, in one array
    start, total, prefix, damped, decay, end, shrink = state[:7]  # prefix: B, or R
    out = state[7:9 + below]  # the interaction at each horizon, the damped integral
    kept = state[9 + below:].reshape(below, 3, n)  # start, total and B at each h < hi
    # the block that holds each h < hi: the jumps at or before h, counted by rank
    cuts = np.reshape(horizons[:-1], (-1, 1))
    blocks = np.zeros((below, n), key)
    for k, ahead in enumerate(more[:-1] if below else ()):
        blocks[:, :ahead] += jumps.take(position[:ahead] + k) <= cuts
    held = []  # per horizon h < hi: the ranked paths by block, and where each block's run starts
    for block in blocks:
        bounds = [0] + np.cumsum(np.bincount(block, minlength=most + 1)).tolist()
        held.append((np.argsort(block, kind="stable"), bounds))
    start[:] = lo
    decay[:] = np.exp(-lo) if right else 0.0
    reach = n  # paths with at least k jumps: a block (or a jump) k to take
    for k, ahead in enumerate(more):
        for (by_block, bounds), keep in zip(held, kept):
            at = slice(bounds[k], bounds[k + 1])
            np.take(state[:3], by_block[at], axis=1, out=keep[:, at])
        np.take(jumps, position[:ahead], out=end[:ahead], mode="clip")
        position[:ahead] += 1
        s = slice(0, ahead if suppression else reach)
        end[ahead:s.stop] = hi
        np.subtract(start[s], end[s], out=shrink[s])  # -l
        start[s] = end[s]
        np.expm1(shrink[s], out=shrink[s])  # -m, or rho - 1
        t = end[s]
        if suppression:  # Q in ``total``, R in ``prefix``
            total[s] -= (shrink[s] + 2.0) * shrink[s] * prefix[s] ** 2  # + (1 - rho^2) R^2
            prefix[s] += shrink[s] * prefix[s] + (-1.0 if k & 1 else 1.0)
        else:
            np.subtract(1.0, prefix[s], out=t)
            t *= shrink[s]  # -m (1 - B)
            total[s] += t
            np.subtract(t, prefix[s], out=prefix[s])
            if right:
                np.multiply(shrink[s], decay[s], out=t)  # -m e^{-s}
                (np.add if k & 1 else np.subtract)(damped[s], t, out=damped[s])
                decay[s] += t
        reach = ahead

    if suppression:
        out[0][order] = total + prefix**2
        return out[0]
    for row, h, (by_block, _), (begin, done, signed) in zip(out, horizons, held, kept):
        np.expm1(np.subtract(begin, h, out=begin), out=begin)  # -m', as a pass that ends at h
        np.subtract(1.0, signed, out=signed)
        signed *= begin
        done += signed
        done += h - lo
        row[order[by_block]] = done
    total += hi - lo
    out[-2][order] = total
    out[:-1] *= 2.0
    if not right:
        np.negative(prefix, out=damped)
    out[-1][order] = damped
    return out[:-1], out[-1]


# ---------------------------------------------------------------------------
# Weighted two-sided ensembles
# ---------------------------------------------------------------------------


def default_horizon(delta: float) -> float:
    """Half-width T of the sampling window, max(8, 6/delta)."""
    if delta <= 0:
        raise ParameterError("the two-sided spin process requires delta > 0")
    return max(8.0, 6.0 / delta)


def _horizon(delta: float, T: float | None) -> float:
    """The half-width T at rate delta > 0, checked; ``default_horizon(delta)`` when None."""
    if delta <= 0:
        raise ParameterError("a rate-delta spin process requires delta > 0")
    T = default_horizon(delta) if T is None else T
    if not 0.0 < T < np.inf:
        raise ParameterError(f"T must be positive and finite, got {T}")
    return T


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
    T = _horizon(params.delta, T)
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
        (j_left,), u_left[rows] = _rank_pass(*left, -T, (0.0,))
        (j_right,), v_right[rows] = _rank_pass(*right, 0.0, (T,))
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
