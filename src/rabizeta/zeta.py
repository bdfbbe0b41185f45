"""Hurwitz and spectral zeta functions with controlled tail completion.

``hurwitz_zeta`` evaluates zeta(s; tau) = sum_{n>=0} (n + tau)^(-s) by
Euler-Maclaurin: a direct sum of ``32 + ceil(|s|)`` terms (``8 + 2 ceil(|s|)``
for Re s < 0) plus the integral, half-term, and six Bernoulli corrections.
This continues the function to all s != 1 and is the closed-form target of
every limit table.

``spectral_zeta`` sums (E_n + shift + tau)^(-s) over computed eigenvalues and
completes the tail with the variant's large-coupling ladder (``_ladder``).
Removing the level-splitting term from the (possibly tilted) Hamiltonian
leaves displaced oscillators whose shifted levels are exactly that ladder, so
by Weyl's inequality every sorted shifted eigenvalue lies within delta of the
ladder point of its rank, at every eps.  The reported ``tail_bound`` is the
worst-case effect of moving each tail level by delta, plus that of moving
each head level within its bracket when the spectrum carries brackets
(``model.refine``).
"""

from __future__ import annotations

import cmath
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, ParameterError
from .model import ModelParams, Spectrum, adaptive_spectrum

# Bernoulli numbers B_2, B_4, ..., B_12 over (2k)! for the correction terms.
_BERNOULLI_OVER_FACT = (
    1.0 / 6.0 / 2.0,
    -1.0 / 30.0 / 24.0,
    1.0 / 42.0 / 720.0,
    -1.0 / 30.0 / 40320.0,
    5.0 / 66.0 / 3628800.0,
    -691.0 / 2730.0 / 479001600.0,
)


@dataclass
class ZetaValue:
    """A zeta value together with its truncation-error bound."""

    value: complex
    tail_bound: float
    n_used: int


def _euler_maclaurin(s: complex, tau: float) -> ZetaValue:
    # For Re s < 0 the terms grow, and the direct sum and the integral term
    # cancel down to the value: their size N^(1 - Re s) times the rounding
    # error bounds the accuracy, so the direct sum is kept shorter there.
    if s.real < 0:
        n_direct = 8 + 2 * int(np.ceil(abs(s)))
    else:
        n_direct = 32 + int(np.ceil(abs(s)))
    n = np.arange(n_direct)
    direct = complex(np.sum(np.exp(-s * np.log(n + tau))))
    edge = n_direct + tau
    log_edge = cmath.log(edge)
    total = direct + cmath.exp((1 - s) * log_edge) / (s - 1) + 0.5 * cmath.exp(-s * log_edge)
    # Bernoulli corrections: B_{2k}/(2k)! * s(s+1)...(s+2k-2) * edge^(-s-2k+1).
    rising = s
    power = cmath.exp((-s - 1) * log_edge)
    last = 0.0
    for k, coeff in enumerate(_BERNOULLI_OVER_FACT, start=1):
        term = coeff * rising * power
        total += term
        last = abs(term)
        rising *= (s + 2 * k - 1) * (s + 2 * k)
        power /= edge * edge
    return ZetaValue(value=total, tail_bound=last, n_used=n_direct)


def _fourier_continuation(s: complex, tau: float) -> ZetaValue:
    """Trigonometric-series continuation, sharp for Re(s) well below 0.

    Uses the forward recurrence to reduce tau into (0, 1] and then the
    classical Fourier expansion of zeta(s; a); the series terms decay like
    n^(Re s - 1), so this branch is reserved for Re(s) <= -2.
    """
    from scipy.special import gamma as _gamma

    m = int(np.ceil(tau - 1)) if tau > 1 else 0
    a = tau - m
    head = 0j
    if m:
        j = np.arange(m)
        head = complex(np.sum(np.exp(-s * np.log(a + j))))
    n_terms = int(np.ceil(1e-17 ** (1.0 / (s.real - 1.0)))) + 8
    n_terms = min(max(n_terms, 16), 2_000_000)
    n = np.arange(1, n_terms + 1)
    weight = np.exp((s - 1) * np.log(n))
    angle = 2.0 * np.pi * a * n
    cos_sum = complex(np.sum(weight * np.cos(angle)))
    sin_sum = complex(np.sum(weight * np.sin(angle)))
    pref = 2.0 * complex(_gamma(1 - s)) * (2.0 * np.pi) ** (s - 1)
    value = pref * (cmath.sin(np.pi * s / 2.0) * cos_sum + cmath.cos(np.pi * s / 2.0) * sin_sum)
    trig_amp = cmath.exp(abs(np.pi * s.imag / 2.0)).real
    tail = abs(pref) * trig_amp * n_terms ** (s.real) / max(-s.real, 1.0)
    return ZetaValue(value=value - head, tail_bound=float(tail), n_used=n_terms)


def hurwitz_zeta(s: complex, tau: float) -> ZetaValue:
    """zeta(s; tau) continued to all finite s != 1 and finite tau > 0.

    Euler-Maclaurin with six Bernoulli corrections for Re(s) > -2, the
    Fourier-series continuation below that.  Accuracy is ~1e-13 absolute
    where |zeta| = O(1) and ~1e-13 relative where the value is large (deep
    in the left half-plane the function grows like a Bernoulli polynomial
    and absolute precision is limited by the double format itself).  Just
    above Re(s) = -2 cancellation costs digits: against mpmath, on 8000
    random points with -2 < Re(s) < 0, |Im(s)| <= 10 and 0.05 <= tau <= 10,
    the error stays below 6e-12 relative to max(1, |zeta|).
    """
    s = complex(s)
    if not cmath.isfinite(s):
        raise DomainError(f"s must be finite, got {s}")
    if not 0 < tau < np.inf:
        raise DomainError(f"tau must be positive and finite, got {tau}")
    if s == 1:
        raise DomainError("zeta(s; tau) has a pole at s = 1")
    if s.real <= -2.0:
        return _fourier_continuation(s, tau)
    return _euler_maclaurin(s, tau)


def _hz(s: complex, tau: float) -> complex:
    return hurwitz_zeta(s, tau).value


def _ladder(params: ModelParams, variant: str) -> tuple[float, ...]:
    """Offsets o of the large-coupling ladder ``{m + o : m >= 0}`` of one zeta variant.

    Without its ``delta sz`` term, K is a pair of displaced oscillators
    split by ``eps sx``: its sorted levels, shifted by g^2, are the sorted
    points of this ladder (the model of ``model._model_floor``), two at each
    integer for ``full``, one per parity sector, and ``m -/+ eps`` for
    ``asymmetric``.  ``delta sz`` has norm delta, so by Weyl's inequality the
    k-th sorted shifted level ``E_k + g^2`` lies within delta of the k-th
    sorted ladder point, at every eps and every k.  The ladder is thus the
    variant's large-coupling limit, and the tail model of radius delta past a
    head of any size.  Only ``asymmetric`` describes levels split by +-eps,
    and it needs eps > 0.
    """
    ladders = {"full": (0.0, 0.0), "parity+": (0.0,), "parity-": (0.0,),
               "asymmetric": (-params.eps, params.eps)}
    if variant not in ladders:
        raise ParameterError(f"variant must be one of {tuple(ladders)}, got {variant!r}")
    if variant != "asymmetric" and params.eps != 0.0:
        raise ParameterError(f"variant {variant!r} needs eps = 0 (got {params.eps}); "
                             f"use 'asymmetric'")
    if variant == "asymmetric" and params.eps == 0.0:
        raise ParameterError("asymmetric variant requires eps > 0")
    return ladders[variant]


def _ladder_points(ladder: tuple[float, ...], n: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``n`` lowest ladder points ``m + o`` ascending, and the offset index of each.

    The points with ``m <= n`` hold them all; of two equal points, the one
    of the larger offset comes first.
    """
    offsets = np.repeat(ladder, n + 1)
    points = np.tile(np.arange(n + 1.0), len(ladder)) + offsets
    order = np.lexsort((-offsets, points))[:n]
    return points[order], np.repeat(np.arange(len(ladder)), n + 1)[order]


def _tail_starts(tau: float, n: int, ladder: tuple[float, ...]) -> list[float]:
    """``tau + o + m_o`` per offset o, where m_o of the ``n`` lowest ladder points carry o."""
    counts = np.bincount(_ladder_points(ladder, n)[1], minlength=len(ladder))
    return [tau + o + int(m) for o, m in zip(ladder, counts)]


def _model_tail(s: complex, tau: float, n: int, ladder: tuple[float, ...]) -> complex:
    """Sum of ``(x + tau)^(-s)`` over the ladder points x past the ``n`` lowest."""
    return sum(_hz(s, start) for start in _tail_starts(tau, n, ladder))


def _tail_bound(
    s: complex, tau: float, n: int, ladder: tuple[float, ...], radius: float
) -> float:
    """Worst-case effect on the sum of moving every level past the ``n`` lowest by ``radius``.

    A level within ``radius`` of its ladder point x moves its term by at most
    ``radius |s| (x + tau - radius)^(-Re s - 1)``; over the points past the
    ``n`` lowest that is ``radius |s| sum_o zeta(Re s + 1; tau + o + m_o -
    radius)``.  The bound falls as ``n`` grows and is exactly 0 when
    ``radius`` is 0.
    """
    edges = [start - radius for start in _tail_starts(tau, n, ladder)]
    if min(edges) <= 0:
        raise DomainError("tail start too small for the stated radius")
    return float(radius * abs(s) * sum(abs(_hz(complex(s.real + 1), edge)) for edge in edges))


def _require_sum(s) -> complex:
    """``s`` as a complex number; the spectral sums converge only for a finite s, Re(s) > 1."""
    s = complex(s)
    if not (cmath.isfinite(s) and s.real > 1):
        raise DomainError(f"spectral zeta sums require a finite s with Re(s) > 1, got {s}")
    return s


def spectral_zeta(
    spectrum: Spectrum,
    s: complex,
    tau: float,
    shift: float,
    *,
    radius: float,
    ladder: tuple[float, ...] = (0.0, 0.0),
    n_use: int | None = None,
) -> ZetaValue:
    """Sum 1/(E_n + shift + tau)^s with a bracketed Hurwitz tail.

    The head sums the lowest ``n_use`` levels (by default every converged
    one), at least one.  The tail sums the ladder points ``m + o`` past the
    ``n_use`` lowest, ``ladder`` holding the offsets o (``_ladder``: two at
    0 for the full model, one for a parity sector, ``-/+ eps`` for the
    asymmetric one).  ``radius`` bounds the distance of every true shifted
    level from the ladder point of its rank, and the tail bound is that of
    ``_tail_bound``.  When the spectrum carries brackets
    (``Spectrum.error_bound``), the bound also holds the worst-case effect of
    each head level's bracket on its term.
    """
    s = _require_sum(s)
    if tau <= 0:
        raise DomainError(f"tau must be positive, got {tau}")
    if radius < 0:
        raise ParameterError("radius must be nonnegative")
    avail = spectrum.converged_count if spectrum.converged_count else len(spectrum)
    if n_use is None:
        n_use = avail
    n_use = min(n_use, avail, len(spectrum))
    if n_use < 1:
        raise ConvergenceError("not enough converged eigenvalues for a head sum")

    shifted = spectrum.eigenvalues[:n_use] + shift + tau
    if np.any(shifted <= 0):
        raise DomainError("every E_n + shift + tau must be positive; increase tau")
    head = complex(np.sum(np.exp(-s * np.log(shifted))))
    tail = _model_tail(s, tau, n_use, ladder)
    bound = _tail_bound(s, tau, n_use, ladder, radius)
    if spectrum.error_bound is not None:
        bound += _head_bound(s, shifted, spectrum.error_bound[:n_use])
    return ZetaValue(value=head + tail, tail_bound=bound, n_used=n_use)


def _head_bound(s: complex, shifted: np.ndarray, brackets: np.ndarray) -> float:
    """Worst-case effect on the head sum of moving each level within its bracket.

    ``|d x^-s / dx| = |s| x^(-Re s - 1)`` falls with x, so a level within
    ``w`` of ``x`` moves its term by at most ``w |s| (x - w)^(-Re s - 1)``.
    """
    low = shifted - brackets
    if np.any(low <= 0):
        raise DomainError("a bracketed level reaches E + shift + tau <= 0; increase tau")
    return float(abs(s) * np.sum(brackets * low ** (-s.real - 1.0)))


# Relative bracket of every level a zeta head sums, and of every level of an
# eigenvalue limit table.
_HEAD_REL_TOL = 1e-9
_LEVEL_REL_TOL = 1e-10


def variant_target(params: ModelParams, s: complex, tau: float, variant: str) -> complex:
    """Large-coupling limit value of the spectral zeta for each variant: the ladder sum."""
    return _model_tail(s, tau, 0, _ladder(params, variant))


def _require_zeta_shift(params: ModelParams, tau: float):
    """Enforce ``tau > delta + eps``: every shifted level of every coupling is positive."""
    if not (np.isfinite(tau) and tau > params.delta + params.eps):
        raise ParameterError(f"zeta evaluation requires a finite tau > delta + eps "
                             f"(tau={tau}, delta={params.delta}, eps={params.eps})")


def _head_for_tail_bound(
    s: complex, tau: float, ladder: tuple[float, ...], radius: float, tol: float, cap: int
) -> int:
    """Smallest head, of at least one level, whose tail bound is <= ``tol``.

    The bound falls as the head grows, so bisection finds the head without
    any eigenvalues.  Heads are searched up to ``cap`` levels, which is
    returned when even it misses ``tol``.
    """
    heads = range(1, cap + 1)
    first = bisect_left(heads, True, key=lambda n: _tail_bound(s, tau, n, ladder, radius) <= tol)
    return heads[min(first, cap - 1)]


def zeta_variant_value(
    params: ModelParams,
    s: complex,
    tau: float,
    variant: str,
    n_head: int,
) -> ZetaValue:
    """Spectral zeta of one variant at the given head size, shift g^2.

    Every one of the ``n_head`` levels summed is enclosed to
    ``_HEAD_REL_TOL``, as ``adaptive_spectrum`` certifies it, and the tail
    bound holds the head's brackets.  The tail is the variant's ladder
    (``_ladder``) past the head, with radius delta.  The variant and its eps
    rule, ``Re(s) > 1`` and a head of at least one level are checked before
    any eigensolve.
    """
    ladder = _ladder(params, variant)
    s = _require_sum(s)
    if n_head < 1:
        raise ParameterError(f"a zeta head needs at least 1 level, got {n_head}")
    spectrum = adaptive_spectrum(params, n_head, _HEAD_REL_TOL,
                                 "full" if variant == "asymmetric" else variant)
    return spectral_zeta(spectrum, s, tau, shift=params.g**2, radius=params.delta,
                         ladder=ladder, n_use=n_head)


@dataclass
class ZetaLimitRow:
    g: float
    value: complex
    target: complex
    deviation: float
    tail_bound: float
    n_used: int


def _predicted_deviation(
    s: complex, tau: float, ladder: tuple[float, ...], run: ModelParams
) -> float:
    """Deviation from the ladder sum that the centroid shift predicts for a limit-table row.

    Every level's centroid moves by ``-delta^2 / (4 g^2)``, so the ladder sum
    at ``tau - delta^2 / (4 g^2)`` predicts the row's value.  The Weyl bound
    of the whole sum caps the prediction and stands in for it at g = 0 or
    where the moved ladder reaches 0.  It only sizes heads; nothing is
    certified from it.
    """
    weyl = _tail_bound(s, tau, 0, ladder, run.delta)
    moved = tau - run.delta**2 / (4.0 * run.g**2) if run.g else -np.inf
    if moved + min(ladder) <= 0:
        return weyl
    return min(abs(_model_tail(s, moved, 0, ladder) - _model_tail(s, tau, 0, ladder)), weyl)


def zeta_limit_table(
    params: ModelParams,
    s: complex,
    tau: float,
    g_grid,
    variant: str = "full",
    n_head: int | None = None,
) -> list[ZetaLimitRow]:
    """Deviation of the spectral zeta from its large-coupling target per g.

    ``Re(s) > 1`` and the hypothesis ``tau > delta (+ eps)`` are enforced up
    front; deviations along an increasing grid shrink toward zero with no
    certified rate, so downstream checks are monotonicity checks up to
    ``tail_bound`` slack:
    ``dev[i] + tail[i] < dev[i-1] - tail[i-1]``.

    With ``n_head`` given, every row sums exactly that many levels; a head
    larger than the default ones gives a fixed, tighter enclosure.  Without
    it, heads are sized, before any eigensolve, from the deviation each row
    is predicted to have (``_predicted_deviation``): row i's head is the
    smallest whose tail bound is at most a quarter of the smallest positive
    predicted gap ``D(g[i-1]) - D(g[i])`` to a neighbour, or of ``D(g[i])``
    where neither gap is positive, so each row is enclosed to about a
    quarter of its predicted gap.  The prediction only sizes heads and never
    certifies: every certificate is the computed slack above, and certifying
    the rate itself would need a proven bound on the prediction's error.

    Then, for every adjacent pair predicted to decrease whose slack is
    missed while its intervals ``dev +- tail`` overlap, both rows are
    evaluated again at tail bound ``|dev[i-1] - dev[i]| / 4``, until no such
    pair is left or its heads have reached the cap.  Tails of a quarter of
    the computed drop separate the intervals in one round, in the right
    order, or in the wrong one where the deviation truly rises.  A row's
    head never shrinks, and never exceeds 2000 levels (1000 for a parity
    sector).  A pair not predicted to decrease (equal g, or a decreasing
    grid) is left as computed.
    """
    ladder = _ladder(params, variant)
    s = _require_sum(s)
    _require_zeta_shift(params, tau)
    target = _model_tail(s, tau, 0, ladder)
    runs = [ModelParams(params.delta, float(g), params.eps) for g in g_grid]

    def row(run: ModelParams, head: int) -> ZetaLimitRow:
        zv = zeta_variant_value(run, s, tau, variant, head)
        return ZetaLimitRow(
            g=run.g,
            value=zv.value,
            target=target,
            deviation=abs(zv.value - target),
            tail_bound=zv.tail_bound,
            n_used=zv.n_used,
        )

    if n_head is not None:
        return [row(run, n_head) for run in runs]

    cap = 1000 * len(ladder)  # 2000 eigenvalues, 1000 per parity sector

    def head(tol: float) -> int:
        return _head_for_tail_bound(s, tau, ladder, params.delta, tol, cap)

    predicted = [_predicted_deviation(s, tau, ladder, run) for run in runs]
    gaps = [a - b for a, b in zip(predicted, predicted[1:])]  # of pair (i, i + 1) at i
    tols = [min((gap for gap in gaps[max(i - 1, 0):i + 1] if gap > 0), default=own) / 4.0
            for i, own in enumerate(predicted)]
    rows = [row(run, head(tol)) for run, tol in zip(runs, tols)]
    while True:
        wanted: dict[int, float] = {}
        for i in range(1, len(rows)):
            a, b = rows[i - 1], rows[i]
            drop = a.deviation - b.deviation
            if gaps[i - 1] > 0 and -drop <= a.tail_bound + b.tail_bound and not (
                b.deviation + b.tail_bound < a.deviation - a.tail_bound
            ):
                tol = abs(drop) / 4.0
                for j in (i - 1, i):
                    wanted[j] = min(wanted.get(j, tol), tol)
        finer = {j: head(tol) for j, tol in wanted.items()}
        finer = {j: n for j, n in finer.items() if n > rows[j].n_used}
        if not finer:
            return rows
        for j, n in finer.items():
            rows[j] = row(runs[j], n)


#: (sector, parity tag of each offset of the sector's ladder) of each level-table
#: variant: an asymmetric pair tags its m - eps member +1 and its m + eps member -1.
_LEVEL_SECTORS = {
    "parity": (("parity+", (+1,)), ("parity-", (-1,))),
    "parity+": (("parity+", (+1,)),),
    "parity-": (("parity-", (-1,)),),
    "asymmetric": (("asymmetric", (+1, -1)),),
}


@dataclass
class LevelLimitRow:
    g: float
    n: int
    parity: int
    shifted: float
    target: float
    deviation: float


def eigenvalue_limit_table(
    params: ModelParams,
    g_grid,
    n_levels: int,
    variant: str = "parity",
) -> list[LevelLimitRow]:
    """Shifted low-lying levels E + g^2 against the sorted points of their ladder.

    ``parity`` rows hold the lowest ``n_levels`` levels of both sectors,
    ``parity+`` and ``parity-`` rows of one, each against the integers;
    ``asymmetric`` rows hold the lowest ``2 n_levels`` levels against the
    sorted points ``m -/+ eps`` of ``_ladder``, within delta of them by its
    proof (parity column reports the pair member as +1/-1 in that case; of
    two equal points, the -1 member comes first).  The eps rule of the zeta
    variants applies, before any eigensolve.
    """
    if variant not in _LEVEL_SECTORS:
        raise ParameterError(f"unknown level-table variant {variant!r}")
    sectors = [(sector, _ladder(params, sector), np.array(tags))
               for sector, tags in _LEVEL_SECTORS[variant]]
    rows = []
    for g in g_grid:
        run = ModelParams(params.delta, float(g), params.eps)
        for sector, ladder, tags in sectors:
            count = n_levels * len(ladder)
            spec = adaptive_spectrum(run, k=count, rel_tol=_LEVEL_REL_TOL,
                                     variant="full" if sector == "asymmetric" else sector)
            targets, index = _ladder_points(ladder, count)
            for n, (target, tag) in enumerate(zip(targets, tags[index])):
                shifted = spec.eigenvalues[n] + g**2
                rows.append(LevelLimitRow(float(g), n, int(tag), float(shifted),
                                          float(target), abs(shifted - target)))
    return rows
