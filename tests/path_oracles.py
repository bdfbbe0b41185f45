"""Scalar reference implementations of the path functionals.

One path at a time, integrated block pair by block pair in O(k^2), so they
share no code with the flat batch functionals of ``rabizeta.paths`` that the
tests compare against them.  ``reference_ground_ensemble`` is the one
exception: it checks the ensemble's assembly, not its functionals.
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


def ensemble_paths(ens) -> list[JumpPath]:
    """The paths of a ``WeightedPathEnsemble`` on [-T, T] (left-end convention)."""
    T = ens.half_width
    lefts = np.split(ens.left_jumps, ens.left_offsets[1:-1])
    rights = np.split(ens.right_jumps, ens.right_offsets[1:-1])
    return [
        JumpPath(alpha0=int(a), horizon=(-T, T), jumps=np.concatenate([left, right]))
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


def reference_ground_ensemble(params, n_samples: int, T: float | None = None,
                              seed: int = paths.DEFAULT_SEED):
    """``build_ground_ensemble`` as first written: per-stream batches, concatenated.

    Unlike the scalar oracles above it shares the sampler and the rank pass
    with ``rabizeta.paths``: it checks how the ensemble is assembled from
    its streams, not the functionals themselves.  Returns the ensemble, the
    sign of every path at -T and the full square interaction J of every
    path, both formed stream by stream as the ensemble once stored them.
    It draws on the clock ``paths._clock_rate`` gives and adds the clock
    change m log(delta/r) to the log weights, as the ensemble does.
    """
    if T is None:
        T = paths.default_horizon(params.delta)
    rate = paths._clock_rate(params)
    streams = []
    for chunk, rng in paths._seed_streams(seed, n_samples):
        left = paths._sample_segments(rng, rate, T, chunk, -T)
        right = paths._sample_segments(rng, rate, T, chunk, 0.0)
        alpha0 = np.where(np.diff(left[1]) % 2 == 0, 1, -1)
        (j_left,), u_left = paths._rank_pass(*left, -T, (0.0,))
        (j_right,), v_right = paths._rank_pass(*right, 0.0, (T,))
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
