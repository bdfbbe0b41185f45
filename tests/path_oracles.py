"""Scalar reference implementations of the path functionals.

One path at a time, integrated block pair by block pair in O(k^2), so they
share no code with the sweep of ``rabizeta.paths`` that the tests compare
against them.  ``_rank_pass`` is the batched reference between the two: the
functionals of given jumps, by a forward pass over jump rank, the route the
package took before its sweep drew and integrated the paths in one walk.
``_path_major`` lays a sweep's recorded jumps out by path in an array of
their own, mirrored onto [-T, 0] on request: the layout the rank pass reads.
``reference_ground_ensemble`` checks the ensemble's assembly, not its
functionals, and shares the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rabizeta import paths
from rabizeta.errors import DomainError, ParameterError


@dataclass
class JumpPath:
    """One realization: initial sign at the left end plus sorted jump times.

    The sign at time ``s`` is ``alpha0 * (-1)**(number of jumps <= s)``.
    """

    alpha0: int
    horizon: tuple[float, float]
    jumps: np.ndarray

    def __post_init__(self):
        if self.alpha0 not in (+1, -1):
            raise ParameterError("alpha0 must be +1 or -1")
        lo, hi = self.horizon
        if not hi > lo:
            raise ParameterError("horizon must be a nonempty interval")
        self.jumps = np.asarray(self.jumps, dtype=float)
        if self.jumps.size and (
            np.any(np.diff(self.jumps) <= 0)
            or self.jumps[0] <= lo
            or self.jumps[-1] >= hi
        ):
            raise ParameterError("jumps must be strictly ascending inside the horizon")

    @property
    def n_jumps(self) -> int:
        return int(self.jumps.size)

    def sign_at(self, s: float) -> int:
        lo, hi = self.horizon
        if not lo <= s <= hi:
            raise DomainError(f"time {s} outside horizon {self.horizon}")
        return self.alpha0 * (-1) ** int(np.searchsorted(self.jumps, s, side="right"))


class WaitStub:
    """A generator that hands the sweep known standard-exponential waits.

    ``steps[i]`` is the whole draw of the sweep's i-th step, one wait per
    path still in its buffers, so its length pins the compaction schedule.
    """

    def __init__(self, steps):
        self.steps = [np.asarray(step, dtype=float) for step in steps]
        self.calls = 0

    def standard_exponential(self, out):
        step = self.steps[self.calls]
        self.calls += 1
        assert out.shape == step.shape
        out[:] = step
        return out


def replayed_waits(per_path, end):
    """``WaitStub`` steps that make ``paths._sweep`` at rate 1 walk paths of given waits.

    ``per_path[i]`` holds the waits of path i, whose running sums, its jump
    times, stay below ``end``.  The steps follow the sweep's draw rule:
    every held path draws at every step, in path order, and the held paths
    shrink to the live ones once at most half are live.  The wait after a
    path's last jump is ``end + 1``, which takes it past ``end``, and a
    retired path draws 1 until it is dropped.
    """
    held, steps, k = list(range(len(per_path))), [], 0
    while held:
        steps.append([per_path[i][k] if k < len(per_path[i]) else
                      end + 1.0 if k == len(per_path[i]) else 1.0 for i in held])
        live = [i for i in held if k < len(per_path[i])]
        if 2 * len(live) <= len(held):
            held = live
        k += 1
    return steps


def _path_major(steps, counts, mirror=False):
    """The jumps a sweep recorded, laid out by path: ``(jumps, offsets)``.

    ``steps[k]`` holds the k-th jumps, ascending by path, of the paths with
    more than k jumps, and ``counts`` each path's number.  With ``mirror``
    the times are distances back from 0, and each path's jumps are stored
    negated in ascending order, its k-th jump last but k; the steps are
    negated in place.
    """
    offsets = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    flat = np.empty(int(offsets[-1]))
    at = offsets[1:] - 1 if mirror else offsets[:-1].copy()  # each path's next place
    left = counts  # and its jumps still to place
    for times in steps:
        more = left > 0
        at, left = at[more], left[more] - 1
        flat[at] = np.negative(times, out=times) if mirror else times
        at += -1 if mirror else 1
    return flat, offsets


def mirror_batch(jumps, offsets):
    """A flat batch from 0, reflected through 0: each path's jumps negated and reversed.

    It takes the distances from 0 that the ensemble stores for its left
    side to their ascending times on [-T, 0], the layout ``_rank_pass``
    reads.  ``offsets`` starts at 0.
    """
    counts = np.diff(offsets)
    owner = np.repeat(np.arange(counts.size), counts)
    return np.negative(jumps[(offsets[:-1] + offsets[1:] - 1)[owner] - np.arange(jumps.size)])


def ensemble_paths(ens) -> list[JumpPath]:
    """The paths of a ``WeightedPathEnsemble`` on [-T, T] (left-end convention).

    Read from the stored arrays, independently of ``jump_times``: both
    sides hold each path's jumps as ascending distances from 0.
    """
    T = ens.half_width
    lefts = np.split(ens.left_jumps, ens.left_offsets[1:-1])
    rights = np.split(ens.right_jumps, ens.right_offsets[1:-1])
    return [
        JumpPath(alpha0=int(a), horizon=(-T, T), jumps=np.concatenate([-left[::-1], right]))
        for a, left, right in zip(ens.alpha0, lefts, rights)
    ]


def _square_block(length: float) -> float:
    # integral of e^{-|s-r|} over an aligned square block of side `length`
    return 2.0 * (length + np.expm1(-length))


def _disjoint_block(gap: float, len_a: float, len_b: float) -> float:
    # integral of e^{-|s-r|} over disjoint blocks separated by `gap`
    return np.exp(-gap) * np.expm1(-len_a) * np.expm1(-len_b)


def _axis_blocks(path: JumpPath, lo: float, hi: float, cuts=()) -> tuple[np.ndarray, np.ndarray]:
    """Partition [lo, hi] at jump times and extra cuts; return (edges, signs)."""
    plo, phi = path.horizon
    if lo < plo - 1e-12 or hi > phi + 1e-12:
        raise DomainError(f"square [{lo}, {hi}] exceeds the path horizon {path.horizon}")
    inner = [c for c in cuts if lo < c < hi]
    edges = np.unique(np.concatenate([[lo, hi], path.jumps[(path.jumps > lo) & (path.jumps < hi)], inner]))
    mids = 0.5 * (edges[:-1] + edges[1:])
    signs = np.array([path.sign_at(m) for m in mids], dtype=float)
    return edges, signs


def pair_interaction_energy(path: JumpPath, square=None) -> float:
    """Exact double integral of T_s T_r e^{-|s-r|} over ``square``.

    ``square`` is ((a, b), (c, d)); by default the full horizon squared.
    Both axes are partitioned on the common refinement of jump times and
    square corners, so every block pair is either identical or disjoint and
    integrates in closed form; there is no quadrature error.
    """
    lo, hi = path.horizon
    (a, b), (c, d) = square if square is not None else ((lo, hi), (lo, hi))
    if not (b > a and d > c):
        raise ParameterError("square sides must be nonempty intervals")
    e1, s1 = _axis_blocks(path, a, b, cuts=(c, d))
    e2, s2 = _axis_blocks(path, c, d, cuts=(a, b))
    total = 0.0
    for i in range(len(s1)):
        p, q = e1[i], e1[i + 1]
        for j in range(len(s2)):
            u, v = e2[j], e2[j + 1]
            if p == u and q == v:
                block = _square_block(q - p)
            elif q <= u:
                block = _disjoint_block(u - q, q - p, v - u)
            elif v <= p:
                block = _disjoint_block(p - v, v - u, q - p)
            else:  # pragma: no cover - refinement guarantees no partial overlap
                raise DomainError("partial block overlap; square corners not refined")
            total += s1[i] * s2[j] * block
    return float(total)


def damped_sign_integral(path: JumpPath, lo: float, hi: float) -> float:
    """Exact int_lo^hi T_s e^{-|s|} ds over the piecewise-constant signs."""
    if hi <= lo:
        raise ParameterError("empty integration range")
    edges, signs = _axis_blocks(path, lo, hi, cuts=(0.0,))
    starts, ends = edges[:-1], edges[1:]
    # blocks never straddle 0 because 0 is inserted as a cut
    pieces = np.where(starts >= 0.0, np.exp(-starts) - np.exp(-ends), np.exp(ends) - np.exp(starts))
    return float(np.sum(signs * pieces))


def vacuum_suppression(path: JumpPath) -> float:
    """Nonnegative functional damping jumpy paths in the vacuum element.

    For jumps s_1 < ... < s_k on [0, t] this is

        (sum_j (-1)^(j-1) e^{-s_j})^2
        + sum_{j,k} (-1)^(j+k) e^{-s_j-s_k} min(e^{2 s_j} - 1, e^{2 s_k} - 1),

    which vanishes only on the jump-free event and equals 1 for one jump.

    The two sums collapse to sum_{j,k} (-1)^(j+k) e^{-|s_j - s_k|}, the
    variance of sum_j (-1)^(j-1) X_{s_j} for a stationary Ornstein-Uhlenbeck
    process X.  Writing X_{s_j} = rho_j X_{s_{j-1}} + sqrt(1 - rho_j^2) Z_j with
    rho_j = e^{-(s_j - s_{j-1})} gives the value as b_1^2 + sum_{j>1}
    (1 - rho_j^2) b_j^2, where b_k = 1 and b_j = 1 - rho_{j+1} b_{j+1}.  Every
    term is nonnegative, so near-coincident jumps lose nothing to cancellation
    (the expanded sums round to zero or below once s_2 - s_1 is under an ulp).
    """
    s = path.jumps
    if s.size == 0:
        return 0.0
    gaps = np.diff(s)
    rho = np.exp(-gaps)
    one_minus_rho = -np.expm1(-gaps)
    b = np.ones(s.size)
    for j in range(s.size - 2, -1, -1):
        # 1 - rho_j b_{j+1} = (1 - rho_j) + rho_j (1 - b_{j+1}), with 1 - b_{j+1} = rho_{j+1} b_{j+2}
        rest = rho[j + 1] * b[j + 2] if j + 2 < s.size else 0.0
        b[j] = one_minus_rho[j] + rho[j] * rest
    return float(b[0] ** 2 + np.sum(-np.expm1(-2.0 * gaps) * b[1:] ** 2))


def _rank_pass(jumps, offsets, lo, horizons, suppression=False):
    """Per-path functionals of a flat batch on [lo, hi], hi = ``horizons[-1]``.

    One forward pass over jump rank.  The paths are ranked by jump count,
    most first and stably, so the paths that still have a k-th jump are a
    prefix of the ranking.  Step k gathers that prefix's k-th jumps and
    advances each path by one block (or one jump), on contiguous slices of
    the rows of one array; each result returns to path order once, that at
    a horizon h < hi in the step that reaches h and the rest at the end.  A
    path carries a few numbers, each updated by terms of size at most about
    1: no array over the jumps is formed, and nothing grows like e^{hi - lo}.

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
    * Horizons h < hi in ``horizons``: the block j that holds h,
      s_j <= h < e_j, clipped to [s_j, h], ends the path there, so
      J_h = 2 (h - lo) - 2 sum_{i<j} m_i (1 - B_i) - 2 m' (1 - B_j), with
      m' = 1 - e^{-(h - s_j)}.  Step j reads it off the path's state before
      advancing it: a jump at h starts the block that holds h, and a path
      without jumps holds every h in its one block.
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
    # a stable radix sort of a small unsigned key: most jumps first
    order = np.argsort((most - counts).astype(np.min_scalar_type(most)), kind="stable")
    more = (n - np.cumsum(np.bincount(counts, minlength=most + 1))).tolist()  # paths with > k jumps
    position = offsets[:-1][order]  # each ranked path's next jump
    hi, right = horizons[-1], lo >= 0.0
    state = np.zeros((len(horizons) + 8, n))  # every row of the pass, in one array
    start, total, prefix, damped, decay, end, shrink = state[:7]  # prefix: B, or R
    out = state[7:]  # the interaction at each horizon, the damped integral
    start[:] = lo
    decay[:] = np.exp(-lo) if right else 0.0
    reach = n  # paths with at least k jumps: a block (or a jump) k to take
    for k, ahead in enumerate(more):
        np.take(jumps, position[:ahead], out=end[:ahead], mode="clip")
        position[:ahead] += 1
        s = slice(0, ahead if suppression else reach)
        end[ahead:s.stop] = hi
        for row, h in zip(out, horizons[:-1]):  # the ranked paths whose block k holds h
            held = np.flatnonzero((start[s] <= h) & (h < end[s]))
            cut = np.expm1(start[held] - h)  # -m'
            row[order[held]] = total[held] + (1.0 - prefix[held]) * cut + (h - lo)
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
    total += hi - lo
    out[-2][order] = total
    out[:-1] *= 2.0
    if not right:
        np.negative(prefix, out=damped)
    out[-1][order] = damped
    return out[:-1], out[-1]


def reference_ground_ensemble(params, n_samples: int, T: float | None = None,
                              seed: int = paths.DEFAULT_SEED):
    """``build_ground_ensemble`` as first written: per-stream batches, concatenated.

    Unlike the scalar oracles above it shares the sweep with
    ``rabizeta.paths``: it checks how the ensemble is assembled from its
    streams, not the functionals themselves.  Returns the ensemble, the sign
    of every path at -T and the full square interaction J of every path,
    both formed stream by stream as the ensemble once stored them.  It draws
    on the clock ``paths._clock_rate`` gives and adds the clock change
    m log(delta/r) to the log weights, as the ensemble does.
    """
    if T is None:
        T = paths._horizon(params.delta, None)
    rate = paths._clock_rate(params)
    streams = []
    for chunk, rng in paths._seed_streams(seed, n_samples, "ensemble"):
        sides = []
        for _ in range(2):  # the left side, swept on [0, T], then the right
            j, damped, steps = np.empty((1, chunk)), np.empty(chunk), []
            counts = np.empty(chunk, dtype=int)
            paths._sweep(rng, chunk, rate, T, interactions=j, horizons=(T,), damped=damped,
                         counts=counts, jumps=steps)
            sides.append((_path_major(steps, counts), j[0], damped))
        (left, j_left, u_left), (right, j_right, v_right) = sides
        alpha0 = np.where(np.diff(left[1]) % 2 == 0, 1, -1)
        streams.append((left, right, alpha0, j_left + j_right + 2.0 * u_left * v_right,
                        u_left, v_right))
    lefts, rights, *per_path = zip(*streams)

    def concat_batches(batches):
        counts = np.concatenate([np.diff(offsets) for _, offsets in batches])
        offsets = np.zeros(counts.size + 1, dtype=np.int32)  # as the ensemble stores them
        np.cumsum(counts, out=offsets[1:])
        return np.concatenate([jumps for jumps, _ in batches]), offsets

    left_jumps, left_offsets = concat_batches(lefts)
    right_jumps, right_offsets = concat_batches(rights)
    alpha0, j_full, u_left, v_right = (np.concatenate(values) for values in per_path)
    log_weights = 0.5 * params.g**2 * j_full
    if rate != params.delta:  # the clock change, (delta/r)^m
        counts = np.diff(left_offsets) + np.diff(right_offsets)
        log_weights += counts * np.log(params.delta / rate)
    ens = paths.WeightedPathEnsemble(
        params=params, half_width=float(T), rate=rate,
        left_jumps=left_jumps, left_offsets=left_offsets,
        right_jumps=right_jumps, right_offsets=right_offsets,
        log_weights=log_weights, damped_left=u_left, damped_right=v_right, seed=seed,
    )
    return ens, alpha0, j_full
