"""Poisson spin paths in flat batches and their exact path functionals.

A path is a piecewise-constant sign trajectory: an initial sign at the left
end of the horizon plus the ordered jump times of a Poisson clock.  A batch
of paths is stored flat: the jump times of every path concatenated in path
order, plus ``offsets`` with path i owning ``jumps[offsets[i]:offsets[i+1]]``.
Every functional the estimators need is integrated in closed form over the
piecewise-constant sign pattern, so the only randomness is in the jump times
themselves: the square pair interaction int int T_s T_r e^{-|s-r|} (at every
horizon of a path), the damped sign integral int T_s e^{-|s|} ds, the
vacuum suppression that damps jumpy paths in the vacuum element, and the
X1 and X2 series of ``jumplaw``.  Every path of the package is drawn and
integrated by one sweep, ``_sweep``, which walks a stream's paths out from
0 one exponential wait at a time and advances, in the same step, only the
functionals its caller reads.  Each jump time is its own path's running sum
of waits, and each functional is carried through recurrences whose terms
stay of size about 1, so a path's value rounds at its own scale, not at
that of its stream.

The ground-state ensemble draws its paths on a Poisson clock of rate r, an
estimate of the ground measure's own jump rate (``_clock_rate``), not the
rate delta of the spin term.  The importance weight of a path on [-T, T]
with m jumps is (delta/r)^m * exp((g^2/2) * J), with J the full square
interaction; the effective sample size is tracked from the log weights.
Each path is two halves glued at 0, and both are stored as flat batches in
the one format the sweep records: each path's jumps as ascending distances
from 0.

Every sampler of the package draws through ``_seed_streams``: its samples
are split into ``N_STREAMS`` fixed chunks, chunk i draws from
``SeedSequence(seed, spawn_key=(*prefix, *order, i))`` with the entry
point's prefix from ``_STREAM_KEYS``, and results are reduced in stream
order, so a fixed (seed, n_samples, params) gives identical bits.  This
module only draws and stores paths: every mean and standard error over
them is reduced in ``estimators``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, ParameterError
from .model import ModelParams

#: Default master seed: determinism by default, overridable everywhere.
DEFAULT_SEED = 20240915
#: Number of independent seed streams every sampler splits its draws over.
N_STREAMS = 8


def _check_draws(seed: int, n_samples: int, least: int = 1) -> None:
    """Reject fewer than ``least`` samples or a negative seed with ``ParameterError``.

    Every estimate that draws its own samples asks ``least=2`` before its
    first draw: its standard error divides by n - 1.
    """
    if n_samples < least:
        raise ParameterError(f"n_samples must be at least {least}, got {n_samples}")
    if seed < 0:
        raise ParameterError(f"seed must be a nonnegative integer, got {seed}")


def _check_time(t: float) -> None:
    """Reject a time that is not positive and finite with ``DomainError``."""
    if not 0.0 < t < np.inf:
        raise DomainError(f"t must be positive and finite, got {t}")


#: Spawn-key prefix of every entry point that draws samples, by the name it
#: passes ``_seed_streams``: one entry point, one prefix.  "ensemble" is
#: ``build_ground_ensemble``; "vacuum", "partition" and "energy" are
#: ``vacuum_element_fk``, ``partition_fk`` and ``ground_energy_fk``; "x1" is
#: ``sample_damped_sign_pair``; "heat-kernel" is ``heat_kernel_component``
#: (and ``heat_kernel_flip_sum`` through it) and "overlap"
#: ``gaussian_overlap_element_fk``, each followed by the flip order m >= 1.
#: With the stream index appended, no two entry points can give the same
#: spawn key (the ensemble's keys are one word long, the heat kernel's two),
#: so no two checks of one seed walk the same waits; an entry point draws the
#: same streams at every parameter (X1 at every delta, the flip sums at
#: every g).
_STREAM_KEYS = {"ensemble": (), "vacuum": (0,), "heat-kernel": (), "x1": (0, 1),
                "partition": (0, 2), "energy": (0, 3), "overlap": (0, 4)}


def _seed_streams(seed: int, n_samples: int, sampler: str, *order: int):
    """Yield ``(chunk, rng)`` for every stream of one call of ``sampler``.

    ``n_samples`` is split into ``N_STREAMS`` fixed, order-stable chunks;
    streams that would draw nothing are dropped, so fewer than ``N_STREAMS``
    samples use one stream each.  Stream i draws from
    ``SeedSequence(seed, spawn_key=(*_STREAM_KEYS[sampler], *order, i))``.
    ``sampler`` names the entry point, and is required: no stream is drawn
    under a key the table does not give.  An entry point that makes several
    independent averages from one seed tells them apart by ``order`` (the
    kernels pass the flip order m), so their variances add.
    """
    _check_draws(seed, n_samples)
    for stream, paths in enumerate(_stream_slices(n_samples)):
        sequence = np.random.SeedSequence(seed, spawn_key=(*_STREAM_KEYS[sampler], *order, stream))
        yield paths.stop - paths.start, np.random.Generator(np.random.PCG64(sequence))


def _stream_slices(n_samples: int) -> list[slice]:
    """The samples each stream of ``_seed_streams`` draws, as slices, in stream order."""
    base, extra = divmod(n_samples, N_STREAMS)
    return [slice(i * base + min(i, extra), (i + 1) * base + min(i + 1, extra))
            for i in range(min(n_samples, N_STREAMS))]


# ---------------------------------------------------------------------------
# The Poisson sweep and flat batches
# ---------------------------------------------------------------------------


def _sweep(rng, n: int, rate: float, end: float, *, series=None, interactions=None,
           horizons=(), damped=None, suppression=None, counts=None, jumps=None) -> None:
    """Walk n rate-``rate`` Poisson paths out from 0 to ``end``, one wait at a time.

    Every sampler of the package draws its jump times here.  Each path is
    held in a slot of buffers the sweep reuses, in path order.  One step
    draws ``standard_exponential()`` for every held slot, in slot order,
    times 1 / rate (the value ``exponential(1 / rate)`` draws), and adds it
    to the slot's time, so a jump time is its own path's running sum of
    waits.  A time at or past ``end`` retires its slot, which keeps drawing
    and adding exact zeros until the slots are compacted, through one
    ``flatnonzero``, once at most half of them are live: a step draws at
    most about twice the live paths.  Rate 0 draws nothing; every path
    retires at its first step.

    The same step advances only the functionals given an output row, and
    writes each path's value there, by path, when its slot is compacted:

    * ``series`` (2, n): the sums of (-1)^k e^{-t_k} and of
      (-1)^k (1 + t_k) e^{-t_k} over the jumps t_k < ``end``, each term
      masked by ``t_k < end``; the X1 and X2 series of ``jumplaw``.
    * ``interactions`` (len(horizons), n): J_h = int int T_s T_r e^{-|s-r|}
      over [0, h]^2 at each h of ``horizons`` (ascending, the last one
      ``end``).
    * ``damped`` (n): int_0^end T_s e^{-s} ds, with the sign +1 at 0.
    * ``suppression`` (n): the vacuum suppression
      xi = sum_{j,k} (-1)^{j+k} e^{-|x_j - x_k|} of the jumps x_j < ``end``;
      not together with ``interactions``, whose two running rows it uses.
    * ``counts`` (n): the number of jumps before ``end``.
    * ``jumps``, a list: each step appends the times of the paths that jumped
      in it, ascending by path, so step k holds the k-th jumps of the paths
      with more than k (``_write_batch`` places them by path).

    Outside ``series`` a time is clipped to ``end``, so the step that
    retires a slot takes its last block [s, end] and every later step a
    block of length 0, which adds exact zeros.  Path i has blocks j on
    [s_j, e_j], from s_0 = 0 to the block that ends at ``end``, of sign
    c_j = (-1)^j, and l_j = e_j - s_j, m_j = 1 - e^{-l_j}, formed as
    -expm1(-l_j).  Every running value is updated by terms of size at most
    about 1, so a path's value rounds at its own scale:

    * J: a block's own square gives 2 (l_j - m_j), and blocks i < j give
      2 c_i c_j int int e^{r-s} = 2 a_i b_j, with a_i = c_i m_i e^{e_i} and
      b_j = c_j m_j e^{-s_j}.  With A_j = e^{-s_j} sum_{i<j} a_i the pairs of
      block j sum to 2 c_j m_j A_j, and e^{-s_{j+1}} = (1 - m_j) e^{-s_j}
      gives A_0 = 0 and A_{j+1} = (1 - m_j) A_j + c_j m_j, a convex
      combination of A_j and c_j, so |A_j| <= 1 and a rounding error of A
      is damped, never amplified.  The sweep carries B_j = c_j A_j, for
      which B_{j+1} = -m_j (1 - B_j) - B_j; the l_j sum to h, so
      J_h = 2 h - 2 sum_j m_j (1 - B_j), with terms in [0, 2].  A horizon
      h < ``end`` is read in the step whose block holds it, s_j <= h < e_j,
      clipped to [s_j, h]: J_h = 2 h - 2 sum_{i<j} m_i (1 - B_i)
      - 2 m' (1 - B_j), with m' = 1 - e^{-(h - s_j)}.  A jump at h starts
      the block that holds h.
    * Damped integral: sum_j b_j = sum_j c_j m_j e^{-s_j}, with e^{-s_j}
      formed from s_j; its terms are e^{-s_j} - e^{-e_j} in size, which sum
      to at most 1.
    * Suppression: xi is the variance of S_k = sum_j (-1)^{j-1} X_{x_j} for
      a stationary Ornstein-Uhlenbeck process X of unit variance.  Time
      reversal gives X_{x_{j-1}} = rho_j X_{x_j} + sqrt(1 - rho_j^2) Z_j with
      rho_j = e^{-(x_j - x_{j-1})} and Z_j independent of X on [x_j, oo).
      So S_j = R_j X_{x_j} + N_j with N_j independent of X_{x_j}, where
      R_1 = 1, Var N_1 = Q_1 = 0, R_j = rho_j R_{j-1} + (-1)^{j-1} and
      Q_j = Q_{j-1} + (1 - rho_j^2) R_{j-1}^2; xi = Q_k + R_k^2, and 0 for
      a path without jumps.  Every term is nonnegative, so near-coincident
      jumps lose nothing to cancellation.  Only a jump advances them: the
      terms of a step without one are masked to 0.
    """
    scale = 1.0 / rate if rate > 0.0 else 1.0
    path = np.arange(n, dtype=np.int32)  # the path held in each slot
    times, fresh, scratch = np.zeros(n), np.empty(n), np.empty(n)
    # each slot's running values, compacted with the slots: the two series,
    # or J's running sum and B (Q and R for the suppression), then the damped integral
    state = np.zeros((2 + (damped is not None), n))
    count = np.zeros(n, dtype=np.int32)
    last = interactions[-1:] if interactions is not None else None  # J/2 - end at end, then J
    held, k = n, 0
    while held:
        t, w, e = times[:held], fresh[:held], scratch[:held]
        one, two, *rest = state[:, :held]
        if rate > 0.0:
            rng.standard_exponential(out=w)
        else:  # rate 0 draws nothing
            w.fill(np.inf)
        w *= scale
        w += t  # each slot's next time
        lv = w < end
        n_live = np.count_nonzero(lv)
        step = np.add if k & 1 else np.subtract  # -(-1)^k: jump k + 1's sign, less block k's
        if series is not None:
            np.exp(np.negative(w, out=e), out=e)
            if n_live < held:
                e *= lv
            np.add(w, 1.0, out=t)
            t *= e
            step(one, e, out=one)
            step(two, t, out=two)
        else:
            np.minimum(w, end, out=w)
            for row, h in zip(interactions if interactions is not None else (), horizons[:-1]):
                at = np.flatnonzero((t <= h) & (h < w))  # the slots whose block holds h
                row[path[at]] = one[at] + (1.0 - two[at]) * np.expm1(t[at] - h) + h
            np.subtract(t, w, out=e)
            np.expm1(e, out=e)  # -m, or rho - 1
            if damped is not None:
                np.exp(np.negative(t, out=t), out=t)  # e^{-s}
                t *= e  # -m e^{-s}
                step(rest[0], t, out=rest[0])
            if suppression is not None:
                e *= lv  # no jump, no term
                one -= (e + 2.0) * e * two**2  # + (1 - rho^2) R^2
                np.multiply(e, two, out=t)
                t += -1.0 if k & 1 else 1.0
                two += t * lv
            if interactions is not None:
                np.subtract(1.0, two, out=t)
                t *= e  # -m (1 - B)
                one += t
                np.subtract(t, two, out=two)
        if counts is not None:
            count[:held] += lv
        if jumps is not None and n_live:
            jumps.append(w[lv])
        times, fresh = fresh, times
        if 2 * n_live <= held:
            slots = path[:held]
            if series is not None:
                series[0, slots], series[1, slots] = one, two
            for out, row in ((last, state[:1]), (damped, state[-1]), (counts, count)):
                if out is not None:
                    out[..., slots] = row[..., :held]
            if suppression is not None:
                suppression[slots] = one + two**2
            keep = np.flatnonzero(lv)
            for row in (path, times, count, *state):
                row[:n_live] = row[keep]
            held = n_live
        k += 1
    if interactions is not None:
        interactions[-1] += end
        interactions *= 2.0


def _jump_capacity(rate: float, length: float, n: int) -> int:
    """Room for the jumps of n rate-``rate`` Poisson paths on ``length``.

    The Poisson mean plus ten standard deviations.  Pages of an ``np.empty``
    buffer that are never written are never resident, so the margin costs
    no resident memory, and ``_write_batch`` grows a buffer it overflows.
    """
    mean = rate * length * n
    return int(mean + 10.0 * np.sqrt(mean)) + 1


def _write_batch(buffer, offsets, steps) -> np.ndarray:
    """Place the jumps a sweep recorded by path in a side's buffer; return the buffer.

    ``offsets`` is the batch's view of the side's offsets: its first entry
    is where the batch starts in ``buffer``, and the rest hold the jump
    counts the sweep wrote, which become the paths' ends in place.
    ``steps[k]`` holds the k-th jumps, ascending by path, of the paths with
    more than k, and each goes straight to its path's next place.  A buffer
    without room is replaced by one at least twice its size holding the
    same jumps; a batch whose jumps would end past the range of
    ``offsets``' integers raises ``ParameterError`` first, with the offsets
    untouched.
    """
    filled = int(offsets[0])
    end = filled + int(offsets[1:].sum(dtype=np.int64))
    if end > buffer.size:
        if end > np.iinfo(offsets.dtype).max:
            raise ParameterError(f"{end} jumps overflow {offsets.dtype} offsets")
        grown = np.empty(max(2 * buffer.size, end))
        grown[:filled] = buffer[:filled]
        buffer = grown
    stop = offsets[1:]
    np.cumsum(stop, out=stop)
    stop += filled
    at = offsets[:-1].copy()  # each path's next place
    for times in steps:
        more = at < stop
        at, stop = at[more], stop[more]
        buffer[at] = times
        at += 1
    return buffer


def _count_upto(jumps: np.ndarray, offsets: np.ndarray, time: float) -> np.ndarray:
    """Per-path number of jumps at or before ``time``.

    One running count, ``np.cumsum`` of ``jumps <= time`` over the jumps of
    the paths of ``offsets``, read at each path's ends: no order within a
    path is needed.  O(jumps) memory for the slice: a boolean row and the
    running count in ``offsets``' integers.
    """
    first, last = offsets[0], offsets[-1]
    seen = np.zeros(last - first + 1, dtype=offsets.dtype)
    np.cumsum(jumps[first:last] <= time, out=seen[1:])
    counts = seen[offsets[1:] - first]
    counts -= seen[offsets[:-1] - first]
    return counts


# ---------------------------------------------------------------------------
# Weighted two-sided ensembles
# ---------------------------------------------------------------------------


def _horizon(delta: float, T: float | None) -> float:
    """The half-width T at rate delta > 0, checked; max(8, 6/delta) when None."""
    if delta <= 0:
        raise ParameterError("a rate-delta spin process requires delta > 0")
    T = max(8.0, 6.0 / delta) if T is None else T
    if not 0.0 < T < np.inf:
        raise ParameterError(f"T must be positive and finite, got {T}")
    return T


def _clock_rate(params: ModelParams) -> float:
    """Rate r of the Poisson clock the ground ensemble is drawn on.

    Under the ground measure on [-T, T] a path with m jumps has weight
    delta^m exp((g^2/2) J), so delta d/d(delta) log Z_T is the mean jump
    count; divided by 2T it tends to the jump rate of the limit measure,
    rho = -delta dE0/d(delta).  Paths drawn at rho leave the weights no
    jump-count mismatch to undo.  The rule takes rho from two perturbative
    limits of E0, with no diagonalization, so the path route stays
    independent of ED:

    * Weak coupling.  The ground state |0, -> at -delta couples through
      g sx (a + a^dag) only to |1, +>, which lies 1 + 2 delta above it, with
      matrix element g.  Second order gives E0 = -delta - g^2/(1 + 2 delta)
      + O(g^4), so rho = delta (1 - 2 g^2/(1 + 2 delta)^2).
    * Strong coupling.  Without the spin term the two displaced oscillators
      of sx = +-1 share the energy -g^2.  delta sz couples the ground state
      of one to level n of the other, n above it, with a squared overlap
      that is Poisson in n with mean 4 g^2; at second order that moves the
      centroid of the pair by -delta^2 sum_{n>=1} P(n)/n, about
      -delta^2/(4 g^2).  So E0 = -g^2 - delta^2/(4 g^2) and
      rho = delta^2/(2 g^2).

    r = delta min(1, max(1 - 2 g^2/(1 + 2 delta)^2, delta/(2 g^2))), and
    delta at g = 0.  Each limit runs off past its regime, the weak one
    toward 0 and the strong one toward infinity, so the larger of the two
    is taken; rho = delta <(-1)^N> never exceeds delta, so neither does r.
    Any r > 0 gives a consistent estimator, so the rule moves only the
    variance.  Against ED's rho on delta in {0.25, 0.5, 1, 1.5} and g from
    0.25 to 3, r/rho stays within 0.42-2.47, and within 0.79-1.15 at
    delta = 0.5.
    """
    delta, g2 = params.delta, params.g**2
    if g2 == 0.0:
        return delta
    return delta * min(1.0, max(1.0 - 2.0 * g2 / (1.0 + 2.0 * delta) ** 2, delta / (2.0 * g2)))


@dataclass
class WeightedPathEnsemble:
    """Independent two-sided spin paths with importance log-weights.

    The paths are drawn on a Poisson clock of rate ``rate`` (r), and the
    weights tilt that law by (delta/r)^m exp((g^2/2) J), with m the path's
    jump count and J the pair-interaction integral over the full square;
    the constant e^{-2T(delta - r)} of the clock change cancels in the
    self-normalized mean.  Expectations under the tilted law are reduced
    by ``estimators._ensemble_estimate``.  ``n_eff`` collapses when g^2 * T
    grows; consumers should compare against the sample count.  The sign at
    0 is +1, so every sign follows from the jumps: no per-path sign is
    stored, and ``alpha0``, the sign at -T, is derived on read.  J is not stored
    either: the log weights are the one per-path weight array, and at
    r = delta they are (g^2/2) J.  So the arrays are the two sides' jumps
    and int32 offsets, the log weights and the two damped integrals:
    8.0 MB at delta = 0.5, g = 1 and 100 000 paths.

    Both sides are stored in one format, a flat batch of each path's jumps
    as ascending distances from 0 in (0, T): a right jump at distance d
    is at time d, a left one at -d.  Only this module reads it; a path's
    jumps on [-T, T] are read whole through ``jump_times``.

    The paths are stored stream by stream, and the functionals read one
    stream's slice of paths at a time (``cross_interaction``, ``signs_at``),
    so an estimate's per-path values need never exist at full length.
    """

    params: ModelParams
    half_width: float
    rate: float
    left_jumps: np.ndarray
    left_offsets: np.ndarray
    right_jumps: np.ndarray
    right_offsets: np.ndarray
    log_weights: np.ndarray
    damped_left: np.ndarray
    damped_right: np.ndarray
    seed: int
    note: str = ""

    @property
    def n_samples(self) -> int:
        return len(self.log_weights)

    @property
    def alpha0(self) -> np.ndarray:
        """Sign of every path at -T: +1 after an even number of left jumps."""
        return np.where(np.diff(self.left_offsets) % 2 == 0, 1, -1)

    def jump_times(self, i: int) -> np.ndarray:
        """Path i's jump times on [-T, T], ascending.

        Its left jumps negated and reversed, then its right ones.
        """
        left = self.left_jumps[self.left_offsets[i]:self.left_offsets[i + 1]]
        right = self.right_jumps[self.right_offsets[i]:self.right_offsets[i + 1]]
        return np.concatenate([np.negative(left[::-1]), right])

    def cross_interaction(self, paths: slice = slice(None)) -> np.ndarray:
        """Pair interaction of ``paths`` restricted to the mixed quadrant [-T,0] x [0,T]."""
        return self.damped_left[paths] * self.damped_right[paths]

    @cached_property
    def n_eff(self) -> float:
        """Effective sample size (sum w)^2 / sum w^2, computed on first read.

        w = exp(lw - max lw), in one array.  Equal log weights give exactly
        ``n_samples``: every w is 1, so both sums are exact and their ratio
        is n^2 / n.
        """
        lw = self.log_weights
        w = np.subtract(lw, lw.max())
        np.exp(w, out=w)
        total = w.sum()
        return float(total**2 / np.square(w, out=w).sum())

    def signs_at(self, time: float, paths: slice = slice(None)) -> np.ndarray:
        """Sign at a fixed time in [-T, T] of every path of ``paths``, +1 or -1 in one array."""
        T = self.half_width
        if not -T <= time <= T:
            raise DomainError(f"time {time} outside [-{T}, {T}]")
        start, stop, _ = paths.indices(self.n_samples)
        if time >= 0.0:
            jumps, offsets, upto = self.right_jumps, self.right_offsets, time
        else:  # the left jumps strictly nearer 0 than time
            jumps, offsets, upto = self.left_jumps, self.left_offsets, np.nextafter(-time, 0.0)
        flips = _count_upto(jumps, offsets[start:stop + 1], upto)
        flips &= 1  # 1 after an odd number of flips
        signs = flips.astype(float)
        signs *= -2.0
        signs += 1.0
        return signs


def build_ground_ensemble(
    params: ModelParams,
    n_samples: int,
    T: float | None = None,
    seed: int = DEFAULT_SEED,
) -> WeightedPathEnsemble:
    """Sample the weighted two-sided ensemble representing the ground measure.

    Paths are Poisson sign paths of rate r = ``_clock_rate(params)`` on
    [-T, T], built from independent halves glued at 0 (sign fixed to +1
    there); a path with m jumps has log weight m log(delta/r) +
    (g^2/2) J_full.  An n_eff below 100 is flagged in ``note`` with a
    resampling recommendation.

    Every per-path array is allocated once, at ``n_samples``, and the jumps
    of each side go to one buffer.  Each seed stream sweeps its left side,
    then its right (``_sweep``), each on [0, T]: the left side is the mirror
    of a right side, since the sign is +1 at 0, the clock is reversible and
    J and the damped integral are even under s -> -s.  A side's sweep writes
    its damped integral and jump counts straight into the ensemble's arrays
    and its J into the log weights, which are then formed in place; its
    jumps go to the buffer by path (``_write_batch``), as distances from 0
    on either side, before the next side draws.  The offsets are int32: a
    sample whose jumps may pass that range raises ``ParameterError`` before
    any draw, and so do fewer than one path and a negative seed, before
    anything is sized.
    """
    T = _horizon(params.delta, T)
    _check_draws(seed, n_samples)
    rate = _clock_rate(params)
    capacity = _jump_capacity(rate, T, n_samples)
    if capacity > np.iinfo(np.int32).max:
        raise ParameterError(f"{n_samples} paths may draw {capacity} jumps a side, "
                             "past the range of int32 offsets")
    jumps = [np.empty(capacity), np.empty(capacity)]  # the left side's, then the right's
    offsets = [np.zeros(n_samples + 1, dtype=np.int32) for _ in jumps]
    damped = [np.empty(n_samples) for _ in jumps]
    log_weights = np.empty(n_samples)  # J first
    streams = _seed_streams(seed, n_samples, "ensemble")
    for rows, (chunk, rng) in zip(_stream_slices(n_samples), streams):
        bounds = slice(rows.start, rows.stop + 1)
        for side in (0, 1):
            j = log_weights[None, rows] if side == 0 else np.empty((1, chunk))
            batch, steps = offsets[side][bounds], []
            _sweep(rng, chunk, rate, T, interactions=j, horizons=(T,),
                   damped=damped[side][rows], counts=batch[1:], jumps=steps)
            jumps[side] = _write_batch(jumps[side], batch, steps)
            if side:
                log_weights[rows] += j[0]
            del j, steps  # before the next draw, and before n_eff's scratch row
        lw = log_weights[rows]
        lw += 2.0 * damped[0][rows] * damped[1][rows]
        lw *= 0.5 * params.g**2
        m = np.diff(offsets[0][bounds]) + np.diff(offsets[1][bounds])
        lw += m * np.log(params.delta / rate)
        del m  # the jump counts, freed before the next stream draws

    ens = WeightedPathEnsemble(
        params=params,
        half_width=float(T),
        rate=rate,
        left_jumps=jumps[0][:offsets[0][-1]],
        left_offsets=offsets[0],
        right_jumps=jumps[1][:offsets[1][-1]],
        right_offsets=offsets[1],
        log_weights=log_weights,
        damped_left=damped[0],
        damped_right=damped[1],
        seed=seed,
    )
    if ens.n_eff < 100:
        ens.note = (
            f"effective sample size {ens.n_eff:.1f} < 100; "
            "increase n_samples or reduce T (importance weights degenerate)"
        )
    return ens
