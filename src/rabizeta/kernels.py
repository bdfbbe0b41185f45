"""Oscillator heat kernels and the jump expansion of the coupled kernel.

The Mehler kernel is evaluated in closed form.  The coupled two-level/oscillator heat kernel
is expanded over the number of spin flips m: the m-flip component is

    (delta^m t^m / m!) * E[ exp(i g * lam . X_bridge) ] * M_t(x, y)

where the flip times are order statistics of m uniforms on [0, t], the
alternating couplings are lam_j = 2 sqrt(2) g (-1)^(j-1), and the
Gaussian bridge expectation is the characteristic function of the OU bridge
from x to y, available in closed form from the bridge mean and covariance:

    mean(s)      = x sinh(t - s)/sinh(t) + y sinh(s)/sinh(t)
    cov(s, u)    = sinh(min) sinh(t - max) / sinh(t)

Only the flip times are Monte Carlo; everything Gaussian is exact.  One
sweep over each configuration's sorted flip times forms the pieces of that
characteristic function, exp(i(ax + by) - q/2): the linear pieces a and b
and the quadratic q = lam^T C lam by an O(m) recurrence, because the bridge
covariance C is semiseparable.  The flip times are the only
(configurations, m) table held.

The couplings are those of a path that starts in spin +1.  Starting in spin
-1 negates every coupling, and so the bridge's linear pieces a and b but not
its quadratic q: that component is the complex conjugate, which is exactly
the component at (-x, -y), bit for bit on the same draws.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammainc, gammaln, xlogy

from .errors import DomainError, ParameterError
from .model import ModelParams
from .paths import DEFAULT_SEED, _check_draws, _check_time, _seed_streams
from .estimators import MCEstimate, _exp_mean

_MIN_TIME = 1e-8


def _check_points(x, y) -> tuple[np.ndarray, np.ndarray]:
    """``x`` and ``y`` as float arrays; ``DomainError`` unless every point is finite."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DomainError("x and y must be finite")
    return x, y


def mehler_kernel(t: float, x, y) -> np.ndarray:
    """Oscillator heat kernel; symmetric in (x, y)."""
    _check_time(t)
    x, y = _check_points(x, y)
    u = np.exp(-t)
    var = -np.expm1(-2.0 * t)
    quad = ((1.0 + u * u) * (x * x + y * y) - 4.0 * x * y * u) / (2.0 * var)
    return np.exp(-quad) / np.sqrt(np.pi * var)


def _flip_couplings(g: float, m: int) -> np.ndarray:
    j = np.arange(m)
    return 2.0 * np.sqrt(2.0) * g * np.where(j % 2 == 0, 1.0, -1.0)


def _bridge_characteristic(params: ModelParams, t: float, m: int, rng, chunk: int):
    """Per-configuration CF pieces (a, b, q): exp(i(ax + by) - q/2), in one sweep over the flips.

    Draws ``chunk`` configurations of m sorted flip times s_k on [0, t].  With
    D = 1-e^{-2t}, grow_k = 1-e^{-2 s_k} and decay_k = 1-e^{-2(t-s_k)}, each
    formed once per flip:

    * the bridge mean is A(s) x + B(s) y, with the stable hyperbolic ratios
      A_k = e^{-s_k} decay_k / D and B_k = e^{s_k-t} grow_k / D, so
      a = sum_k lam_k A_k and b = sum_k lam_k B_k, added in flip order;
    * q = lam^T C lam for the bridge covariance C, O(m) with no (m, m)
      matrix: C is semiseparable, for j <= k C_jk = e^{s_j-s_k} grow_j
      decay_k / (2D).  With P_k = sum_{j<k} lam_j e^{s_j-s_k} grow_j, built
      by P_{k+1} = e^{s_k-s_{k+1}} (P_k + lam_k grow_k) from factors of at
      most 1, q = sum_k lam_k decay_k (lam_k grow_k + 2 P_k) / (2D).

    Only the flip times are held over all m flips; the rest is a few rows.
    """
    if t <= _MIN_TIME:
        raise DomainError(f"bridge horizon must exceed {_MIN_TIME}")
    s = np.sort(rng.uniform(0.0, t, size=(chunk, m)), axis=1)
    lam = _flip_couplings(params.g, m)
    denom = -np.expm1(-2.0 * t)
    a, b, q, prefix = np.zeros((4, chunk))
    for k in range(m):
        grow = -np.expm1(-2.0 * s[:, k])
        decay = -np.expm1(-2.0 * (t - s[:, k]))
        a += lam[k] * (np.exp(-s[:, k]) * decay / denom)
        b += lam[k] * (np.exp(s[:, k] - t) * grow / denom)
        q += lam[k] * decay * (lam[k] * grow + 2.0 * prefix)
        if k + 1 < m:
            prefix = np.exp(s[:, k] - s[:, k + 1]) * (prefix + lam[k] * grow)
    return a, b, q / (2.0 * denom)


def _flip_average(params: ModelParams, t: float, m: int, n_samples: int, seed: int,
                  sampler: str, log_integrand) -> tuple[complex, float]:
    """Mean and stderr of ``exp(log_integrand(a, b, q))`` over m-flip configurations.

    The draws come from ``sampler``'s streams of the flip order m, so
    averages for different m are independent, and so are those of the two
    kernel samplers.
    """
    return _exp_mean((log_integrand(*_bridge_characteristic(params, t, m, rng, chunk))
                      for chunk, rng in _seed_streams(seed, n_samples, sampler, m)), n_samples)


def _flip_weight(params: ModelParams, t: float, m: int) -> float:
    """Poisson flip weight (delta t)^m / m! of the m-flip component: 1 at m = 0, 0 at delta t = 0."""
    return float(np.exp(xlogy(m, params.delta * t) - gammaln(m + 1)))


def heat_kernel_component(
    params: ModelParams,
    t: float,
    m: int,
    x: float,
    y: float,
    n_samples: int = 50_000,
    seed: int = DEFAULT_SEED,
) -> MCEstimate:
    """m-flip component of the coupled heat kernel at (x, y).

    The zero-flip component is the Mehler kernel itself (exact, zero error),
    and a component whose scale is 0 (at delta t = 0, or where the Mehler
    kernel underflows) is exactly 0; neither draws or counts a sample.  For
    m >= 1 flip times are sampled from the "heat-kernel" streams of order m
    and the bridge expectation is the closed-form Gaussian characteristic
    function.
    """
    if m < 0:
        raise ParameterError(f"m must be >= 0, got {m}")
    _check_draws(seed, n_samples, least=2)
    scale = float(mehler_kernel(t, x, y)) * _flip_weight(params, t, m)
    if m == 0 or scale == 0.0:
        return MCEstimate(scale, 0.0, 0, seed)
    mean, stderr = _flip_average(params, t, m, n_samples, seed, "heat-kernel",
                                 lambda a, b, q: 1j * (a * x + b * y) - q / 2.0)
    return MCEstimate(mean * scale, stderr * scale, n_samples, seed)


def heat_kernel_flip_sum(
    params: ModelParams,
    t: float,
    x: float,
    y: float,
    m_max: int,
    n_samples: int = 50_000,
    seed: int = DEFAULT_SEED,
) -> MCEstimate:
    """Sum of all m >= 1 components: the deviation of the kernel from Mehler.

    Shrinks to zero with growing coupling; evaluate at fixed seed across
    couplings to compare magnitudes within correlated Monte Carlo error:
    the flip times do not depend on g, so every coupling draws the same
    streams, on purpose.  Each flip order draws from its own streams, so the
    per-m variances add; the sample count is the sum of the components'
    counts.
    """
    if m_max < 0:
        raise ParameterError(f"m_max must be >= 0, got {m_max}")
    _check_draws(seed, n_samples, least=2)
    _check_time(t)
    _check_points(x, y)
    total, var, drawn = 0.0 + 0.0j, 0.0, 0
    for m in range(1, m_max + 1):
        est = heat_kernel_component(params, t, m, x, y, n_samples, seed)
        total += est.mean
        var += est.stderr**2
        drawn += est.n_samples
    return MCEstimate(total, float(np.sqrt(var)), drawn, seed)


def gaussian_overlap_element_fk(
    params: ModelParams,
    t: float,
    m_max: int,
    n_samples: int = 50_000,
    seed: int = DEFAULT_SEED,
) -> MCEstimate:
    """Kernel reconstruction of the shifted vacuum element for Gaussian states.

    Integrating the flip expansion against the oscillator ground Gaussian on
    both sides gives, per flip configuration, the closed form
    exp(-(a^2 + b^2 + 2ab e^{-t})/4 - q/2); the m-sum times 2 (spin trace)
    estimates the same quantity as ``observables.vacuum_element_ed``.  The
    truncation error in m is bounded by the remaining (delta t)^m / m! mass.

    Per configuration the log overlap is the path route's log vacuum weight:
    -(a^2 + b^2 + 2ab e^{-t})/4 - q/2 = -2 g^2 xi, with
    xi = sum_{j,k} (-1)^{j+k} e^{-|s_j - s_k|} the vacuum suppression that
    ``paths._sweep`` forms for the same flip times.  So the m = 1 term is
    exact: one flip has xi = 1 at every flip time, the overlap is
    e^{-2 g^2} and the term is 2 delta t e^{-2 g^2}, which draws nothing.
    Only m >= 2 is sampled, from the "overlap" streams of order m, which no
    heat-kernel component draws; an order of weight 0 draws nothing, and
    the sample count is the configurations drawn.
    """
    if m_max < 0:
        raise ParameterError(f"m_max must be >= 0, got {m_max}")
    _check_draws(seed, n_samples, least=2)
    _check_time(t)
    u = np.exp(-t)

    def log_overlap(a, b, q):
        return -(a * a + b * b + 2.0 * a * b * u) / 4.0 - q / 2.0

    total = 2.0  # m = 0 term: Gaussian overlap of the Mehler kernel is exactly 1
    if m_max >= 1:
        total += 2.0 * _flip_weight(params, t, 1) * np.exp(-2.0 * params.g**2)
    var, drawn = 0.0, 0
    for m in range(2, m_max + 1):
        scale = 2.0 * _flip_weight(params, t, m)
        if scale == 0.0:
            continue
        mean, stderr = _flip_average(params, t, m, n_samples, seed, "overlap", log_overlap)
        total += scale * mean.real
        var += (scale * stderr) ** 2
        drawn += n_samples
    # residual mass of the flip expansion beyond m_max (scale bound: |CF| <= 1):
    # 2 sum_{m > m_max} (delta t)^m / m! = 2 e^{delta t} P(m_max + 1, delta t),
    # formed as a logarithm, since e^{delta t} alone overflows past delta t = 709.78
    lam = params.delta * t
    with np.errstate(divide="ignore"):  # where P underflows, log 0 = -inf: the bound reads 0
        log_tail = np.log(2.0) + lam + np.log(gammainc(m_max + 1, lam))
    bound = (f"{np.exp(log_tail):.2e}" if log_tail < np.log(np.finfo(float).max)
             else f"e^{log_tail:.1f}, beyond the double range")
    return MCEstimate(float(total), float(np.sqrt(var)), drawn, seed,
                      note=f"flip-expansion tail bound {bound}")
