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
number.  Sampling sweeps the jump times of every path in a seed stream
together.  A jump at or beyond the cutoff T with (1 + T) e^(-T) <
``_SERIES_EPS`` = 1e-16, so T is about 40.6, is never added: such a path
retires, and its time only grows, so its mask stays false.  Each dropped
term is below ``_SERIES_EPS`` in size, and the dropped tail of an
alternating series with decreasing terms is no larger than its first term,
so the truncation biases each sum by less than one accumulator ulp.
"""

from __future__ import annotations

import numpy as np
from scipy.special import betainc

from .errors import DomainError, ParameterError
from .paths import DEFAULT_SEED, _seed_streams


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

    Each seed stream keeps, in buffers it reuses, every path's running jump
    time and its two partial sums.  One step draws the next wait of every
    path still in the buffers, in buffer order, and adds the jump's signed
    terms masked by ``t < cutoff``, so a retired path adds an exact 0 from
    then on.  The buffers are compacted, through one ``flatnonzero``, only
    once at most half of their paths are live, so a step draws at most
    about twice the live paths: at 100 000 samples a sample costs 1.02 to
    1.18 times the ideal delta * cutoff + 1 waits, for delta from 20 down
    to 0.05.  Memory is O(chunk).  A wait is ``standard_exponential()``
    times 1 / delta, the value ``exponential(1 / delta)`` draws: numpy's
    ziggurat caps no wait, and a test generator can hand the sampler exact
    waits.  Inversion, -log1p(-U) / delta from one uniform, ran about 10%
    faster in the sampler alone, but caps a wait at 36.7 / delta.  Fewer
    than two samples have no standard error, so ``n_samples < 2`` raises
    ``ParameterError`` before any draw.
    """
    if not 0 < delta < np.inf:  # an infinite or NaN rate never reaches the cutoff
        raise ParameterError(f"delta must be positive and finite, got {delta}")
    if n_samples < 2:
        raise ParameterError(f"n_samples must be at least 2, got {n_samples}")
    cutoff, scale = _series_cutoff(), 1.0 / delta
    parts = []
    for chunk, rng in _seed_streams(seed, n_samples):
        sums = np.empty((2, chunk))  # the X1 and X2 series of every path
        path = np.arange(chunk)  # the path held in each buffer slot
        t, acc1, acc2 = np.zeros(chunk), np.zeros(chunk), np.zeros(chunk)
        wait, term, live = np.empty(chunk), np.empty(chunk), np.empty(chunk, dtype=bool)
        n, step = chunk, np.add  # step adds the k-th jump's terms with sign (-1)^k
        while n:
            tn, a1, a2, w, e, lv = (b[:n] for b in (t, acc1, acc2, wait, term, live))
            rng.standard_exponential(out=w)
            w *= scale
            tn += w
            np.less(tn, cutoff, out=lv)
            np.exp(np.negative(tn, out=e), out=e)
            n_live = np.count_nonzero(lv)
            if n_live < n:
                e *= lv
            np.add(tn, 1.0, out=w)
            w *= e
            step = np.subtract if step is np.add else np.add
            step(a1, e, out=a1)
            step(a2, w, out=a2)
            if 2 * n_live <= n:
                sums[0, path[:n]], sums[1, path[:n]] = a1, a2
                keep = np.flatnonzero(lv)
                for buffer in (path, t, acc1, acc2):
                    buffer[:n_live] = buffer[keep]
                n = n_live
        parts.append(1.0 + 2.0 * sums)
    return tuple(np.concatenate(parts, axis=1))


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
    """
    n = samples.size
    values, counts = np.unique(samples, return_counts=True)
    ecdf_below = np.cumsum(counts) - counts  # samples below each value
    law_lo = damped_sign_cdf(delta, values)
    law_hi = law_lo.copy()
    upper = np.flatnonzero(values > 0)
    v = values[upper]
    surv_lo = _damped_sign_survival_near_one(delta, 1.0 - v + (v - np.nextafter(v, -2.0)) / 2.0)
    surv_hi = _damped_sign_survival_near_one(
        delta, np.maximum(1.0 - v - (np.nextafter(v, 2.0) - v) / 2.0, 0.0))
    wide = surv_lo - surv_hi > _CELL_MASS
    law_lo[upper[wide]] = 1.0 - surv_lo[wide]
    law_hi[upper[wide]] = 1.0 - surv_hi[wide]
    above = ((ecdf_below + counts) / n - law_hi).max()
    below = (law_lo - ecdf_below / n).max()
    return float(max(above, below))


def ks_critical_value(n: int, alpha: float = 0.01) -> float:
    """Asymptotic one-sample KS critical value at level alpha."""
    return float(np.sqrt(-np.log(alpha / 2.0) / 2.0) / np.sqrt(n))


def closed_pair_moments(delta: float) -> dict[str, float]:
    """All closed first/second moments of (X1, X2) and their covariance."""
    d = delta
    return {
        "E[X1]": 1.0 / (1.0 + 2 * d),
        "E[X1^2]": 1.0 / (1.0 + 2 * d),
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
    """``pair_moment_table`` rows for draws already made."""
    closed = closed_pair_moments(delta)
    n = float(len(x1))
    samples = {
        "E[X1]": x1,
        "E[X1^2]": x1**2,
        "E[X2]": x2,
        "E[X2^2]": x2**2,
        "E[X1*X2]": x1 * x2,
    }
    rows = []
    for name, draw in samples.items():
        mc = draw.mean()
        stderr = draw.std(ddof=1) / np.sqrt(n)
        z = abs(mc - closed[name]) / stderr if stderr else 0.0
        rows.append({"moment": name, "closed": closed[name], "mc": float(mc),
                     "stderr": float(stderr), "z": float(z)})
    cov_mc = float(np.mean((x1 - x1.mean()) * (x2 - x2.mean())))
    spread = (x1 - x1.mean()) * (x2 - x2.mean()) - cov_mc
    cov_err = float(np.sqrt(np.mean(spread**2) / n))
    rows.append({
        "moment": "cov(X1,X2)", "closed": closed["cov(X1,X2)"], "mc": cov_mc,
        "stderr": cov_err, "z": abs(cov_mc - closed["cov(X1,X2)"]) / cov_err,
    })
    return rows
