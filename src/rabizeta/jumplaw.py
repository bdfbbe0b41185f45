"""Law of the exponentially damped sign integrals of a Poisson sign process.

For a rate-delta Poisson clock with jump times t_1 < t_2 < ... the two
functionals

    X1 = int_0^inf (-1)^(N_t) e^(-t) dt = 1 + 2 sum_k (-1)^k e^(-t_k)
    X2 = int_0^inf t (-1)^(N_t) e^(-t) dt = 1 + 2 sum_k (-1)^k (1 + t_k) e^(-t_k)

have closed moments and, for X1, an explicit Beta-family density on (-1, 1):

    density(t) = (1 + t) (1 - t^2)^(delta - 1) / B(delta, 1/2).

X2 is the time-weighted partner entering the ground state's mean photon
number.  Sampling sweeps the jump times of every path in a seed stream
together and drops a path once its next jump lands at or beyond the cutoff
T with (1 + T) e^(-T) < ``_SERIES_EPS`` = 1e-16, so T is about 40.6.
Each dropped term is below ``_SERIES_EPS`` in size, and the dropped tail of an
alternating series with decreasing terms is no larger than its first term,
so the truncation biases each sum by less than one accumulator ulp.
"""

from __future__ import annotations

import numpy as np
from scipy.special import betainc, betaln

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

    Each seed stream keeps, for every path whose last jump came before the
    cutoff, its running jump time and its two partial sums.  One step draws
    the next wait of every such path, in path order, drops the paths whose
    new time reaches the cutoff, and adds the jump's signed terms to the
    rest.  A stream therefore draws about delta * cutoff + 1 waits per path
    and holds O(chunk) memory.
    """
    if delta <= 0:
        raise ParameterError(f"delta must be positive, got {delta}")
    cutoff = _series_cutoff()
    x1_parts, x2_parts = [], []
    for chunk, rng in _seed_streams(seed, n_samples):
        sum1, sum2 = np.empty(chunk), np.empty(chunk)
        alive = np.arange(chunk)  # paths whose last jump came before the cutoff
        t = np.zeros(chunk)
        acc1, acc2 = np.zeros(chunk), np.zeros(chunk)
        sign = -1.0  # (-1)^k of the k-th jump
        while alive.size:
            t += rng.exponential(1.0 / delta, size=alive.size)
            done = t >= cutoff
            if done.any():
                sum1[alive[done]] = acc1[done]
                sum2[alive[done]] = acc2[done]
                keep = ~done
                alive, t, acc1, acc2 = alive[keep], t[keep], acc1[keep], acc2[keep]
            term = sign * np.exp(-t)
            acc1 += term
            acc2 += (1.0 + t) * term
            sign = -sign
        x1_parts.append(1.0 + 2.0 * sum1)
        x2_parts.append(1.0 + 2.0 * sum2)
    return np.concatenate(x1_parts), np.concatenate(x2_parts)


def damped_sign_moment(delta: float, m: int) -> float:
    """Closed moment of X1: E[X1^(2m-1)] = E[X1^(2m)] = prod (2j-1)/(2j-1+2 delta)."""
    if delta <= 0:
        raise ParameterError(f"delta must be positive, got {delta}")
    if m < 1:
        raise ParameterError(f"m must be >= 1, got {m}")
    j = np.arange(1, m + 1)
    return float(np.prod((2 * j - 1) / (2 * j - 1 + 2 * delta)))


def damped_sign_density(delta: float, t) -> np.ndarray:
    """Density of X1 at t in (-1, 1)."""
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) >= 1):
        raise DomainError("the density lives on (-1, 1)")
    if delta <= 0:
        raise ParameterError(f"delta must be positive, got {delta}")
    log_norm = betaln(delta, 0.5)
    return (1.0 + t) * np.exp((delta - 1.0) * np.log1p(-t * t) - log_norm)


def damped_sign_cdf(delta: float, t) -> np.ndarray:
    """Distribution function of X1 via regularized incomplete Beta pieces.

    Splitting (1 + u)(1 - u^2)^(d-1) into even and odd parts gives
    an I_x(d, d) term plus the exact antiderivative of the odd part.
    """
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1):
        raise DomainError("the law is supported on [-1, 1]")
    if delta <= 0:
        raise ParameterError(f"delta must be positive, got {delta}")
    log_even = (
        np.log(2.0) + (delta - 1.0) * np.log(4.0) + betaln(delta, delta) - betaln(delta, 0.5)
    )
    even = np.exp(log_even) * betainc(delta, delta, (1.0 + t) / 2.0)
    with np.errstate(divide="ignore"):
        odd = -np.exp(delta * np.log1p(-t * t) - betaln(delta, 0.5)) / (2.0 * delta)
    odd = np.where(np.abs(t) == 1.0, 0.0, odd)
    return even + odd


def damped_sign_ks(delta: float, samples: np.ndarray) -> float:
    """Kolmogorov-Smirnov statistic of samples against the closed law.

    The larger of the two one-sided gaps between the empirical and the closed
    distribution functions, formed as ``scipy.stats.kstest`` forms them.
    """
    cdf = damped_sign_cdf(delta, np.sort(samples))
    n = cdf.size
    above = (np.arange(1.0, n + 1) / n - cdf).max()
    below = (cdf - np.arange(0.0, n) / n).max()
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
