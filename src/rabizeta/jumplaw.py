"""Law of the exponentially damped sign integrals of a Poisson sign process.

For a rate-delta Poisson clock with jump times t_1 < t_2 < ... the two
functionals

    X1 = int_0^inf (-1)^(N_t) e^(-t) dt = 1 + 2 sum_k (-1)^k e^(-t_k)
    X2 = int_0^inf t (-1)^(N_t) e^(-t) dt = 1 + 2 sum_k (-1)^k (1 + t_k) e^(-t_k)

have closed moments and, for X1, an explicit Beta-family density on (-1, 1):

    density(t) = (1 + t) (1 - t^2)^(delta - 1) / B(delta, 1/2).

X2 is the time-weighted partner entering the ground state's mean photon
number.  Sampling truncates the alternating series once the running term
drops below ``series_eps`` (default 1e-16), which biases the sum by less
than one accumulator ulp.
"""

from __future__ import annotations

import numpy as np
from scipy.special import betainc, betaln
from scipy.stats import kstest

from .errors import DomainError, NumericalError, ParameterError
from .paths import DEFAULT_SEED, as_seed, stream_chunks


def _series_cutoff(series_eps: float) -> float:
    """Smallest T with (1 + T) e^(-T) < series_eps."""
    t = max(4.0, -np.log(series_eps))
    for _ in range(8):
        t = -np.log(series_eps) + np.log1p(t)
    return t


def sample_damped_sign_pair(
    delta: float,
    n_samples: int,
    seed=DEFAULT_SEED,
    series_eps: float = 1e-16,
    n_streams: int = 8,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw (X1, X2) samples; X1 always lands in [-1, 1]."""
    if delta <= 0:
        raise ParameterError(f"delta must be positive, got {delta}")
    if series_eps <= 0:
        raise ParameterError("series_eps must be positive")
    seed = as_seed(seed)
    cutoff = _series_cutoff(series_eps)
    x1_parts, x2_parts = [], []
    for stream, chunk in enumerate(stream_chunks(n_samples, n_streams)):
        rng = seed.child(stream).generator()
        lam = delta * cutoff
        # 12-sigma column margin: underflow probability ~ 1e-33 per sample
        width = int(lam + 12.0 * np.sqrt(lam + 4.0) + 20)
        waits = rng.exponential(1.0 / delta, size=(chunk, width))
        times = np.cumsum(waits, axis=1)
        if np.any(times[:, -1] < cutoff):
            raise NumericalError(
                "jump-series window underflow; widen the column margin"
            )
        signs = np.where(np.arange(1, width + 1) % 2 == 1, -1.0, 1.0)  # (-1)^k
        live = times < cutoff
        damp = np.exp(-times) * live
        x1 = 1.0 + 2.0 * np.sum(signs * damp, axis=1)
        x2 = 1.0 + 2.0 * np.sum(signs * (1.0 + times) * damp, axis=1)
        x1_parts.append(x1)
        x2_parts.append(x2)
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
    """Kolmogorov-Smirnov statistic of samples against the closed law."""
    return float(kstest(samples, lambda t: damped_sign_cdf(delta, t)).statistic)


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
    seed=DEFAULT_SEED,
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
