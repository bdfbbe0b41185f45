"""Hurwitz and spectral zeta functions with controlled tail completion.

``hurwitz_zeta`` evaluates zeta(s; tau) = sum_{n>=0} (n + tau)^(-s) by
Euler-Maclaurin: a direct sum of ``32 + ceil(|s|)`` terms (``8 + 2 ceil(|s|)``
for Re s < 0) plus the integral, half-term, and six Bernoulli corrections.
This continues the function to all s != 1 and is the closed-form target of
every limit table.

``spectral_zeta`` sums (E_n + shift + tau)^(-s) over computed eigenvalues and
completes the tail with a model sequence.  The tail model rests on an exact
perturbation bracket: removing the level-splitting term from the (possibly
tilted) Hamiltonian leaves displaced oscillators whose shifted spectrum is
known exactly, so every shifted eigenvalue lies within ``radius`` of its model
value (radius = delta, or sqrt(delta^2 + eps^2) when the tilt cannot be kept
in the model).  The reported ``tail_bound`` is the worst-case effect of moving
each tail level by ``radius``.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, ParameterError
from .model import ModelParams, Spectrum, _refined_spectrum, adaptive_spectrum

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
    """zeta(s; tau) continued to all s != 1, tau > 0.

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
    if tau <= 0:
        raise DomainError(f"tau must be positive, got {tau}")
    if s == 1:
        raise DomainError("zeta(s; tau) has a pole at s = 1")
    if s.real <= -2.0:
        return _fourier_continuation(s, tau)
    return _euler_maclaurin(s, tau)


def _model_tail(s: complex, tau: float, start: int, degeneracy: int, split: float) -> complex:
    """Tail sum over the model sequence from full-spectrum index ``start``."""
    m0 = start // degeneracy
    if degeneracy == 1:
        return _hz(s, tau + m0)
    if split == 0.0:
        return 2.0 * _hz(s, tau + m0)
    return _hz(s, tau + m0 - split) + _hz(s, tau + m0 + split)


def _hz(s: complex, tau: float) -> complex:
    return hurwitz_zeta(s, tau).value


def _tail_bound(
    s: complex, tau: float, m0: int, degeneracy: int, split: float, radius: float
) -> float:
    """Worst-case effect on the sum of moving every tail level by ``radius``.

    The tail starts at model index ``m0`` (full-spectrum index
    ``m0 * degeneracy``); the bound decreases as ``m0`` grows and is exactly 0
    when ``radius`` is 0.
    """
    tail_edge = tau + m0 - radius - split
    if tail_edge <= 0:
        raise DomainError("tail start too small for the stated radius")
    per_level = radius * abs(s) * abs(_hz(complex(s.real + 1), tail_edge))
    return float(degeneracy * per_level)


def spectral_zeta(
    spectrum: Spectrum,
    s: complex,
    tau: float,
    shift: float,
    *,
    radius: float,
    degeneracy: int = 2,
    split: float = 0.0,
    n_use: int | None = None,
) -> ZetaValue:
    """Sum 1/(E_n + shift + tau)^s with a bracketed Hurwitz tail.

    ``degeneracy`` is how many levels the model sequence puts at each integer
    (2 for the full model, 1 for a parity sector) and ``split`` displaces the
    degenerate pair to ``m -/+ split`` (asymmetric model).  ``radius`` bounds
    the distance of every true shifted level from the model; the tail bound is
    ``degeneracy * radius * |s| * |zeta(Re s + 1; tau + M - radius - split)|``
    for a tail that starts at model index M.
    """
    s = complex(s)
    if s.real <= 1:
        raise DomainError(f"spectral zeta sums require Re(s) > 1, got {s}")
    if tau <= 0:
        raise DomainError(f"tau must be positive, got {tau}")
    if radius < 0:
        raise ParameterError("radius must be nonnegative")
    avail = spectrum.converged_count if spectrum.converged_count else len(spectrum)
    if n_use is None:
        n_use = avail
    n_use = min(n_use, avail, len(spectrum))
    n_use -= n_use % degeneracy  # tail must start on a model boundary
    if n_use < degeneracy:
        raise ConvergenceError("not enough converged eigenvalues for a head sum")

    shifted = spectrum.eigenvalues[:n_use] + shift + tau
    if np.any(shifted <= 0):
        raise DomainError("every E_n + shift + tau must be positive; increase tau")
    head = complex(np.sum(np.exp(-s * np.log(shifted))))
    tail = _model_tail(s, tau, n_use, degeneracy, split)
    bound = _tail_bound(s, tau, n_use // degeneracy, degeneracy, split, radius)
    return ZetaValue(value=head + tail, tail_bound=bound, n_used=n_use)


_VARIANTS = ("full", "parity+", "parity-", "asymmetric")

# Relative cutoff stability of every level a zeta head sums, and of every
# level of an eigenvalue limit table.
_HEAD_REL_TOL = 1e-9
_LEVEL_REL_TOL = 1e-10


def _stable_spectrum(params: ModelParams, variant: str, min_levels: int) -> Spectrum:
    """Spectrum with at least ``min_levels`` levels verified stable in the cutoff.

    Zeta heads consume hundreds of levels, so each cutoff is checked against
    one 30% larger rather than a doubled one, growing by that factor on
    failure, at most 8 times.
    """
    tries = iter(range(8))

    def grow(n_max: int) -> int:
        if next(tries, None) is None:
            raise ConvergenceError(
                f"could not stabilize {min_levels} levels for variant {variant!r} "
                f"(reached n_max {n_max})"
            )
        return int(np.ceil(1.3 * n_max))

    return _refined_spectrum(params, variant, min_levels, _HEAD_REL_TOL, grow)


def variant_target(params: ModelParams, s: complex, tau: float, variant: str) -> complex:
    """Large-coupling limit value of the spectral zeta for each variant."""
    if variant == "full":
        return 2.0 * _hz(s, tau)
    if variant in ("parity+", "parity-"):
        return _hz(s, tau)
    if variant == "asymmetric":
        return _hz(s, tau + params.eps) + _hz(s, tau - params.eps)
    raise ParameterError(f"unknown variant {variant!r}")


def _tail_model(params: ModelParams, variant: str) -> tuple[str, int, float, float]:
    """(spectrum variant, degeneracy, split, radius) of one variant's tail model.

    The full and parity tail models are the untilted ladders of radius delta,
    which do not bound levels also split by +-eps, so those variants are
    refused at ``eps != 0``.
    """
    if variant not in _VARIANTS:
        raise ParameterError(f"variant must be one of {_VARIANTS}, got {variant!r}")
    if variant != "asymmetric" and params.eps != 0.0:
        raise ParameterError(
            f"variant {variant!r} needs eps = 0 (got {params.eps}); use 'asymmetric'"
        )
    if variant == "asymmetric":
        if params.eps == 0.0:
            raise ParameterError("asymmetric variant requires eps > 0")
        if params.eps < 0.5:
            return "full", 2, params.eps, params.delta
        return "full", 2, 0.0, float(np.hypot(params.delta, params.eps))
    if variant == "full":
        return "full", 2, 0.0, params.delta
    return variant, 1, 0.0, params.delta


def _head_for_tail_bound(
    s: complex, tau: float, model: tuple[str, int, float, float], tol: float, cap: int
) -> int:
    """Smallest head, a multiple of the degeneracy, whose tail bound is <= ``tol``.

    The bound falls as the tail start grows, so bisection over the model
    index finds the head without any eigenvalues.  Heads are searched up to
    ``cap`` (rounded down to the degeneracy), which is returned when even it
    misses ``tol``.
    """
    _, degeneracy, split, radius = model

    def bound(m0: int) -> float:
        return _tail_bound(s, tau, m0, degeneracy, split, radius)

    lo, hi = 0, cap // degeneracy  # bound(hi) <= tol; model index 0 is no head
    if bound(hi) > tol:
        return hi * degeneracy
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if bound(mid) <= tol:
            hi = mid
        else:
            lo = mid
    return hi * degeneracy


def zeta_variant_value(
    params: ModelParams,
    s: complex,
    tau: float,
    variant: str,
    n_head: int,
) -> ZetaValue:
    """Spectral zeta of one variant at the given head size, shift g^2."""
    spec_variant, degeneracy, split, radius = _tail_model(params, variant)
    spectrum = _stable_spectrum(params, spec_variant, n_head)
    return spectral_zeta(
        spectrum, s, tau, shift=params.g**2,
        radius=radius, degeneracy=degeneracy, split=split, n_use=n_head,
    )


@dataclass
class ZetaLimitRow:
    g: float
    value: complex
    target: complex
    deviation: float
    tail_bound: float
    n_used: int


# Tail-bound target of every row of a limit table before refinement, relative
# to |target|.  At delta = 0.5 the gaps between the deviations of g = 2, 4, ...,
# 12 are at least 4.6e-4 (parity sectors, g = 10 -> 12), 30 times the bound
# this allows, so such tables certify on their first evaluation.
LIMIT_TAIL_REL_TOL = 1e-5

def zeta_limit_table(
    params: ModelParams,
    s: complex,
    tau: float,
    g_grid,
    variant: str = "full",
    n_head: int | None = None,
) -> list[ZetaLimitRow]:
    """Deviation of the spectral zeta from its large-coupling target per g.

    The hypothesis ``tau > delta (+ eps)`` is enforced up front; deviations
    along an increasing grid shrink toward zero with no stated rate, so
    downstream checks are monotonicity checks up to ``tail_bound`` slack:
    ``dev[i] + tail[i] < dev[i-1] - tail[i-1]``.

    With ``n_head`` given, every row sums exactly that many levels.  Without
    it, each row's head is the smallest whose tail bound is at most
    ``LIMIT_TAIL_REL_TOL * |target|``; it is chosen from the bound alone,
    before any eigensolve.  Then, for every adjacent pair whose deviations
    decrease but miss that slack, both rows are evaluated again at tail bound
    ``(dev[i-1] - dev[i]) / 4``, until no such pair is left or its heads
    have reached the cap.  A row's head never shrinks, and never exceeds
    2000 levels (1000 for a parity sector), so a row is never less certified
    than at that fixed head.  A pair whose deviations do not decrease is left
    as computed.
    """
    s = complex(s)
    probe = ModelParams(params.delta, 0.0, params.eps, tau)
    model = _tail_model(probe, variant)
    probe.require_zeta_shift()
    target = variant_target(params, s, tau, variant)
    runs = [ModelParams(params.delta, float(g), params.eps, tau) for g in g_grid]

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

    cap = 1000 * model[1]  # 1000 model levels: 2000 eigenvalues, 1000 per parity sector

    def head(tol: float) -> int:
        return _head_for_tail_bound(s, tau, model, tol, cap)

    first = head(LIMIT_TAIL_REL_TOL * abs(target))
    rows = [row(run, first) for run in runs]
    while True:
        wanted: dict[int, float] = {}
        for i in range(1, len(rows)):
            a, b = rows[i - 1], rows[i]
            if b.deviation < a.deviation and not (
                b.deviation + b.tail_bound < a.deviation - a.tail_bound
            ):
                tol = (a.deviation - b.deviation) / 4.0
                for j in (i - 1, i):
                    wanted[j] = min(wanted.get(j, tol), tol)
        finer = {j: head(tol) for j, tol in wanted.items()}
        finer = {j: n for j, n in finer.items() if n > rows[j].n_used}
        if not finer:
            return rows
        for j, n in finer.items():
            rows[j] = row(runs[j], n)


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
    """Shifted low-lying levels E + g^2 against their integer (or split) limits.

    ``parity`` rows target m per sector; ``asymmetric`` rows target m -/+ eps
    for the even/odd members of each pair (parity column reports the pair
    member as +1/-1 in that case).
    """
    rows = []
    for g in g_grid:
        run = ModelParams(params.delta, float(g), params.eps, params.tau)
        if variant == "parity":
            for parity, tag in ((+1, "parity+"), (-1, "parity-")):
                spec = adaptive_spectrum(run, k=n_levels, rel_tol=_LEVEL_REL_TOL, variant=tag)
                for n in range(n_levels):
                    shifted = spec.eigenvalues[n] + g**2
                    rows.append(
                        LevelLimitRow(float(g), n, parity, float(shifted), float(n),
                                      abs(shifted - n))
                    )
        elif variant == "asymmetric":
            if run.eps <= 0:
                raise ParameterError("asymmetric level table requires eps > 0")
            spec = adaptive_spectrum(run, k=2 * n_levels, rel_tol=_LEVEL_REL_TOL, variant="full")
            for n in range(2 * n_levels):
                m, odd = divmod(n, 2)
                target = m + (run.eps if odd else -run.eps)
                shifted = spec.eigenvalues[n] + g**2
                rows.append(
                    LevelLimitRow(float(g), n, -1 if odd else +1, float(shifted),
                                  float(target), abs(shifted - target))
                )
        else:
            raise ParameterError(f"unknown level-table variant {variant!r}")
    return rows
