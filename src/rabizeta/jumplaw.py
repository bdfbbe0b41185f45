"""Law of the exponentially damped sign integrals of a Poisson sign process.

For a rate-delta Poisson clock with jump times t_1 < t_2 < ... the two
functionals

    X1 = int_0^inf (-1)^(N_t) e^(-t) dt = 1 + 2 sum_k (-1)^k e^(-t_k)
    X2 = int_0^inf t (-1)^(N_t) e^(-t) dt = 1 + 2 sum_k (-1)^k (1 + t_k) e^(-t_k)

have closed moments, and X1 has an affine Beta law on (-1, 1):

    X1 = 2B - 1,  B ~ Beta(delta + 1, delta),
    density(t) = (1 + t) (1 - t^2)^(delta - 1) / B(delta, 1/2).

The two lines agree: with b = (1 + t)/2 the Beta(delta + 1, delta) density
b^delta (1 - b)^(delta - 1) / B(delta + 1, delta), times db/dt = 1/2, is
(1 + t)(1 - t^2)^(delta - 1) / (4^delta B(delta + 1, delta)), and
4^delta B(delta + 1, delta) = B(delta, 1/2).  For the last identity,
B(delta + 1, delta) = Gamma(delta)^2 / (2 Gamma(2 delta)), and Legendre's
duplication Gamma(2 delta) = 2^(2 delta - 1) Gamma(delta) Gamma(delta + 1/2)
/ sqrt(pi) turns it into Gamma(delta) Gamma(1/2) / (4^delta
Gamma(delta + 1/2)) = B(delta, 1/2) / 4^delta.  So the distribution
function of X1 is I_{(1+t)/2}(delta + 1, delta), a regularized incomplete
Beta function.

X2 is the time-weighted partner entering the ground state's mean photon
number.  The samples come from the sweep that draws every path of the
package (``paths._sweep``), so the exact law of X1 checks the sampler of
every path estimate.  A jump at or beyond the cutoff T with (1 + T) e^(-T) <
``_SERIES_EPS`` = 1e-16, so T is about 40.6, is never added: such a path
retires, and its time only grows, so its mask stays false.  Each dropped
term is below ``_SERIES_EPS`` in size, and the dropped tail of an
alternating series with decreasing terms is no larger than its first term,
so the truncation biases each sum by less than one accumulator ulp.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import betainc

from .errors import DomainError, ParameterError
from .estimators import _z_score
from .paths import DEFAULT_SEED, _check_draws, _seed_streams, _sweep


_SERIES_EPS = 1e-16


def _series_cutoff() -> float:
    """Smallest T with (1 + T) e^(-T) < _SERIES_EPS."""
    t = max(4.0, -np.log(_SERIES_EPS))
    for _ in range(8):
        t = -np.log(_SERIES_EPS) + np.log1p(t)
    return t


def sample_damped_sign_pair(
    delta: float,
    n_samples: int,
    seed: int = DEFAULT_SEED,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw (X1, X2) samples; X1 always lands in [-1, 1].

    The draws come from the "x1" streams of ``paths._STREAM_KEYS``, the
    same at every delta, on purpose: X1's rows at several delta then move
    together, and no other sampler of the package walks these waits.
    Each seed stream's paths are walked by the package's one Poisson sweep,
    ``paths._sweep``, at rate delta out to the series cutoff, which forms
    only the two series and writes them straight into the stream's slice of
    one (2, n_samples) array.  Memory is O(chunk) beyond the result.  A
    step of the sweep draws one wait per path it still holds, and it
    compacts them once at most half are live: at 100 000 samples a sample
    costs 1.02 to 1.18 times the ideal delta * cutoff + 1 waits, for delta
    from 20 down to 0.05.  A wait is ``standard_exponential()`` times
    1 / delta, the value ``exponential(1 / delta)`` draws, and a test
    generator can hand the sampler exact waits.  numpy's ziggurat draws its
    tail as r - log1p(-U), with r about 7.697 and U on a 2^-53 grid, so it
    caps a standard exponential at about 44.43, and a wait at
    44.43 / delta, which for delta > 1.094 lies below the series cutoff;
    but the capped mass is e^-44.43, about 5e-20 per draw.  Inversion,
    -log1p(-U) / delta from one uniform, ran about 10% faster in the
    sampler alone, but caps a standard exponential at 36.74, a mass of
    2^-53, about 1.1e-16 per draw, so the ziggurat stays.  Fewer than two
    samples have no standard error, so ``n_samples < 2`` raises
    ``ParameterError`` before any draw.
    """
    if not 0 < delta < np.inf:  # an infinite or NaN rate never reaches the cutoff
        raise ParameterError(f"delta must be positive and finite, got {delta}")
    _check_draws(seed, n_samples, least=2)
    cutoff = _series_cutoff()
    pair = np.empty((2, n_samples))  # X1 and X2: each stream writes its slice
    first = 0
    for chunk, rng in _seed_streams(seed, n_samples, "x1"):
        _sweep(rng, chunk, delta, cutoff, series=pair[:, first:first + chunk])
        first += chunk
    pair *= 2.0
    pair += 1.0
    return tuple(pair)


def damped_sign_moment(delta: float, m: int) -> float:
    """Closed moment of X1: E[X1^(2m-1)] = E[X1^(2m)] = prod (2j-1)/(2j-1+2 delta)."""
    if delta <= 0:
        raise ParameterError(f"delta must be positive, got {delta}")
    if m < 1:
        raise ParameterError(f"m must be >= 1, got {m}")
    j = np.arange(1, m + 1)
    return float(np.prod((2 * j - 1) / (2 * j - 1 + 2 * delta)))


def damped_sign_cdf(delta: float, t) -> np.ndarray:
    """Distribution function of X1, P(2B - 1 <= t) = I_{(1+t)/2}(delta + 1, delta)."""
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1):
        raise DomainError("the law is supported on [-1, 1]")
    if delta <= 0:
        raise ParameterError(f"delta must be positive, got {delta}")
    return betainc(delta + 1.0, delta, (1.0 + t) / 2.0)


def _damped_sign_survival_near_one(delta: float, u: np.ndarray) -> np.ndarray:
    """P(X1 > 1 - u) for 0 <= u <= 1, accurate where 1 - u rounds to 1.

    P(B > 1 - u/2) = 1 - I_{1-u/2}(delta + 1, delta) = I_{u/2}(delta, delta + 1),
    by the symmetry I_x(a, b) = 1 - I_{1-x}(b, a).
    """
    return betainc(delta, delta + 1.0, u / 2.0)


#: Law mass in one rounding cell above which ``damped_sign_ks`` compares the
#: cell's edges rather than its value; far below any KS resolution 1/n.
_CELL_MASS = 1e-12


def _may_be_wide(delta: float, v: np.ndarray) -> np.ndarray:
    """Mask of the values 0 < v <= 1 whose rounding cell can hold more than ``_CELL_MASS``.

    On [0, 1) the density is (1 + t) (1 - t^2)^(delta - 1) / B(delta, 1/2),
    so a cell [lo, hi] holds at most (hi - lo) 2 / B(delta, 1/2) for
    delta >= 1.  For delta < 1 the density is (1 + t)^delta
    (1 - t)^(delta - 1) / B(delta, 1/2), increasing in t, so the cell holds
    at most (hi - lo) 2^delta (1 - hi)^(delta - 1) / B(delta, 1/2), and a
    cell that reaches 1 always may be wide.  The bound is held against
    ``_CELL_MASS / 2``, so its own rounding cannot drop a wide cell.
    """
    log_beta = math.lgamma(delta) + math.lgamma(0.5) - math.lgamma(delta + 0.5)
    scale = 2.0 ** min(delta, 1.0) / 2.0 * math.exp(-log_beta)  # 1/2: hi - lo is half the span
    bound = (np.nextafter(v, 2.0) - np.nextafter(v, -2.0)) * scale
    if delta < 1.0:
        with np.errstate(divide="ignore"):  # inf for a cell that reaches 1
            bound *= np.maximum(1.0 - v - (np.nextafter(v, 2.0) - v) / 2.0, 0.0) ** (delta - 1.0)
    return bound > _CELL_MASS / 2.0


def damped_sign_ks(delta: float, samples: np.ndarray) -> float:
    """Kolmogorov-Smirnov statistic of samples against the closed law, ties included.

    A double stands for every real in its rounding cell, and at small delta
    the law puts much mass in the last cells below 1: about 15% of the
    samples round to exactly 1 at delta = 0.05.  The empirical distribution
    function at each distinct sample value v is compared with the closed law
    at the edges lo < v < hi of v's cell: the statistic is the larger of
    max(F_n(v) - F(hi)) and max(F(lo) - F_n(v-)).  For v > 0 the edges are
    evaluated as 1 - S(1 - u), with u their distance from 1, so no edge
    rounds to 1.  Where the law puts at most ``_CELL_MASS`` in a cell, both
    edges are taken at v itself, and so they are for every v <= 0: the
    density there is at most 1 / B(d, 1/2), so a cell no wider than 2.2e-16
    holds less than ``_CELL_MASS`` for every d below about 6e7.  Without
    wider cells this is the plain statistic, bit for bit as
    ``scipy.stats.kstest`` forms it.

    The edges are evaluated only on the cells that ``_may_be_wide``.  The
    distinct values and their counts come from the run boundaries of one
    sorted copy of the samples.
    """
    n = samples.size
    values = np.sort(samples)
    last = np.empty(n, dtype=bool)  # the last sample of each run of equal values
    np.not_equal(values[1:], values[:-1], out=last[:-1])
    last[-1] = True
    values = values[last]
    law = damped_sign_cdf(delta, values)
    positive = np.searchsorted(values, 0.0, side="right")  # the values are ascending
    upper = positive + np.flatnonzero(_may_be_wide(delta, values[positive:]))
    v = values[upper]
    surv_lo = _damped_sign_survival_near_one(delta, 1.0 - v + (v - np.nextafter(v, -2.0)) / 2.0)
    surv_hi = _damped_sign_survival_near_one(
        delta, np.maximum(1.0 - v - (np.nextafter(v, 2.0) - v) / 2.0, 0.0))
    wide = surv_lo - surv_hi > _CELL_MASS
    cells, law_lo, law_hi = upper[wide], 1.0 - surv_lo[wide], 1.0 - surv_hi[wide]
    del values, upper, v, surv_lo, surv_hi, wide
    ecdf = np.flatnonzero(last)  # each value's last sample: one past it counts those at or below
    del last
    ecdf += 1
    gap = np.divide(ecdf, n, out=np.empty_like(law))  # F_n(v)
    at_cells = gap[cells]
    gap -= law
    gap[cells] = at_cells - law_hi
    above = gap.max()
    gap[0] = 0.0  # F_n(v-): the samples below v are those at or below the value before
    np.divide(ecdf[:-1], n, out=gap[1:])
    at_cells = gap[cells]
    np.subtract(law, gap, out=gap)
    gap[cells] = law_lo - at_cells
    return float(max(above, gap.max()))


def ks_critical_value(n: int, alpha: float = 0.01) -> float:
    """Asymptotic one-sample KS critical value at level alpha."""
    return float(np.sqrt(-np.log(alpha / 2.0) / 2.0) / np.sqrt(n))


def closed_pair_moments(delta: float) -> dict[str, float]:
    """Closed first/second moments of (X1, X2), their covariance and E[X1^2m] for m <= 4."""
    d = delta
    return {
        "E[X1]": 1.0 / (1.0 + 2 * d),
        "E[X1^2]": 1.0 / (1.0 + 2 * d),
        **{f"E[X1^{2 * m}]": damped_sign_moment(d, m) for m in (2, 3, 4)},
        "E[X2]": 1.0 / (1.0 + 2 * d) ** 2,
        "E[X2^2]": (1.0 + d) / (1.0 + 2 * d) ** 2,
        "E[X1*X2]": (1.0 + d) / (1.0 + 2 * d) ** 2,
        "cov(X1,X2)": d * (3.0 + 2 * d) / (1.0 + 2 * d) ** 3,
    }


def pair_moment_table(
    delta: float,
    n_samples: int = 100_000,
    seed: int = DEFAULT_SEED,
) -> list[dict]:
    """Closed moments against sampled ones, with z-scores, one row each."""
    x1, x2 = sample_damped_sign_pair(delta, n_samples, seed)
    return _pair_moment_rows(delta, x1, x2)


def _pair_moment_rows(delta: float, x1: np.ndarray, x2: np.ndarray) -> list[dict]:
    """``pair_moment_table`` rows for draws already made.

    Each moment's draws are formed only while its row is, X1's even powers
    by multiplication from one square: x^4 = (x^2)^2, x^6 = x^4 x^2 and
    x^8 = (x^4)^2.  The centred product (x1 - mean x1)(x2 - mean x2) of the
    covariance row is formed once.  The draws are unweighted and held whole,
    so each row is a plain mean and ``std(ddof=1) / sqrt(n)``, not the
    stream merge of ``estimators._merged_moments``.
    """
    def draws():
        yield "E[X1]", x1
        square = x1 * x1
        yield "E[X1^2]", square
        quartic = square * square
        yield "E[X1^4]", quartic
        yield "E[X1^6]", np.multiply(quartic, square, out=square)
        yield "E[X1^8]", np.multiply(quartic, quartic, out=quartic)
        del square, quartic  # before X2's draws
        yield "E[X2]", x2
        yield "E[X2^2]", x2**2
        yield "E[X1*X2]", x1 * x2

    closed = closed_pair_moments(delta)
    n = float(len(x1))
    sampled = []  # (moment, mean, stderr)
    for name, draw in draws():
        sampled.append((name, draw.mean(), draw.std(ddof=1) / np.sqrt(n)))
        del draw  # before the next moment's draws are formed
    centred = x1 - x1.mean()
    centred *= x2 - x2.mean()
    cov_mc = float(np.mean(centred))
    centred -= cov_mc  # the spread about the covariance, squared in place
    sampled.append(("cov(X1,X2)", cov_mc, np.sqrt(np.mean(np.square(centred, out=centred)) / n)))
    return [{"moment": name, "closed": closed[name], "mc": float(mc), "stderr": float(stderr),
             "z": _z_score(mc, stderr, closed[name])} for name, mc, stderr in sampled]
