"""Monte Carlo estimators over Poisson spin paths.

Each estimator targets a semigroup matrix element or ground-state expectation
for which the Gaussian mode has been integrated out in closed form, leaving
an average over jump paths only:

* ``vacuum_element_fk``:  2 e^t E[ delta^N_t exp(-2 g^2 xi) ]  over unit-rate
  paths on [0, t]; the exact counterpart is ``vacuum_element_ed``.
* ``partition_fk``:  2 e^(delta t) E[ exp((g^2/2) J) ]  over rate-delta
  paths, J the square interaction integral; counterpart ``partition_ed``.
* ``ground_energy_fk``:  log-ratio of two partition estimates on a common
  path sample, cancelling the overlap prefactor.
* Ensemble estimators (Gibbs number weight, number moments, position
  characteristic/Gaussian moments, spin correlation) are weighted means over
  a ``WeightedPathEnsemble``.

Every estimator draws through ``paths._seed_streams`` and reduces in stream
order, so it is reproducible bit for bit from (seed, n_samples, params).
Each stream's path functionals come from one rank pass (``paths._rank_pass``):
``ground_energy_fk`` takes the interaction at every horizon of its grid from
the same pass over paths on [0, max(t_grid)].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import xlogy

from .errors import DomainError, ParameterError
from .model import ModelParams
from .paths import (
    DEFAULT_SEED,
    WeightedPathEnsemble,
    _rank_pass,
    _sample_segments,
    _seed_streams,
)


@dataclass
class MCEstimate:
    """Estimate with standard error, sample count, and seed provenance."""

    mean: complex
    stderr: float
    n_samples: int
    seed: int
    n_eff: float | None = None
    note: str = ""
    extras: dict = field(default_factory=dict)

    @property
    def real(self) -> float:
        return float(np.real(self.mean))

    def z_score(self, reference: complex) -> float:
        """Distance to a reference value in combined standard errors."""
        if self.stderr == 0.0:
            return 0.0 if abs(self.mean - reference) == 0.0 else float("inf")
        return float(abs(self.mean - reference) / self.stderr)


def _mean_stderr(values: np.ndarray) -> tuple[complex, float]:
    mean = values.mean()
    n = values.size
    var = np.sum(np.abs(values - mean) ** 2) / (n * (n - 1)) if n > 1 else 0.0
    return complex(mean), float(np.sqrt(var))


def vacuum_element_fk(
    params: ModelParams,
    t: float,
    n_samples: int,
    seed: int = DEFAULT_SEED,
) -> MCEstimate:
    """Shifted vacuum semigroup element from unit-rate jump paths.

    Every path contributes the nonnegative weight
    2 e^t delta^(jumps) exp(-2 g^2 * suppression), with 0^0 = 1; there is no
    oscillation.
    """
    if not 0.0 < t < np.inf:
        raise DomainError(f"t must be positive and finite, got {t}")
    values = []
    for chunk, rng in _seed_streams(seed, n_samples):
        jumps, offsets = _sample_segments(rng, 1.0, t, chunk, 0.0)
        counts = np.diff(offsets)
        xi = _rank_pass(jumps, offsets, 0.0, (t,), suppression=True)
        values.append(2.0 * np.exp(t + xlogy(counts, params.delta) - 2.0 * params.g**2 * xi))
    mean, stderr = _mean_stderr(np.concatenate(values))
    return MCEstimate(mean.real, stderr, n_samples, seed)


def _partition_samples(params, t, chunk, rng):
    jumps, offsets = _sample_segments(rng, params.delta, t, chunk, 0.0)
    (interaction,), _ = _rank_pass(jumps, offsets, 0.0, (t,))
    return np.log(2.0) + params.delta * t + 0.5 * params.g**2 * interaction


def partition_fk(
    params: ModelParams,
    t: float,
    n_samples: int,
    seed: int = DEFAULT_SEED,
) -> MCEstimate:
    """Flat-state semigroup element 2 e^(delta t) E[exp((g^2/2) J)]."""
    if not 0.0 < t < np.inf:
        raise DomainError(f"t must be positive and finite, got {t}")
    logw = np.concatenate([_partition_samples(params, t, chunk, rng)
                           for chunk, rng in _seed_streams(seed, n_samples)])
    shift = logw.max()
    mean, stderr = _mean_stderr(np.exp(logw - shift))
    scale = np.exp(shift)
    return MCEstimate(mean.real * scale, stderr * scale, n_samples, seed)


# Effective sample size a horizon needs to enter the ground-energy slope.
_MIN_N_EFF = 100.0


def ground_energy_fk(
    params: ModelParams,
    t_grid,
    n_samples: int,
    seed: int = DEFAULT_SEED,
) -> MCEstimate:
    """Ground energy from the decay rate of the flat-state semigroup element.

    Samples one set of paths on [0, max(t_grid)] and evaluates the element on
    every grid horizon from the restriction of the same paths; the returned
    estimate is the log-ratio slope across the last two horizons whose
    effective sample size stays at or above ``_MIN_N_EFF``, which cancels the
    overlap prefactor exactly.  The full horizon series is attached for
    extrapolation diagnostics.
    """
    t_grid = sorted(float(t) for t in t_grid)
    if len(t_grid) < 2:
        raise ParameterError("t_grid needs at least two horizons")
    if not all(0.0 < t < np.inf for t in t_grid):
        raise DomainError(f"all horizons must be positive and finite, got {t_grid}")
    if len(set(t_grid)) < len(t_grid):
        raise ParameterError(f"t_grid repeats a horizon: {t_grid}")
    weights = np.empty((len(t_grid), n_samples))  # the interactions, then the log weights
    first = 0
    for chunk, rng in _seed_streams(seed, n_samples):
        jumps, offsets = _sample_segments(rng, params.delta, t_grid[-1], chunk, 0.0)
        weights[:, first:first + chunk] = _rank_pass(jumps, offsets, 0.0, t_grid)[0]
        first += chunk
    weights *= 0.5 * params.g**2
    weights += params.delta * np.array(t_grid)[:, None]
    weights = dict(zip(t_grid, weights))

    series = []
    stable = []
    for t in t_grid:
        lw = weights[t]
        shift = lw.max()
        w = np.exp(lw - shift)
        n_eff = w.sum() ** 2 / np.sum(w**2)
        log_mean = shift + np.log(w.mean()) + np.log(2.0)
        series.append({"t": t, "log_element": float(log_mean), "n_eff": float(n_eff),
                       "energy_running": float(-log_mean / t)})
        if n_eff >= _MIN_N_EFF:
            stable.append(t)

    note = ""
    if len(stable) < 2:
        note = f"fewer than two horizons kept n_eff >= {_MIN_N_EFF}; using first pair"
        stable = t_grid[:2]
    t1, t2 = stable[-2], stable[-1]
    lw1, lw2 = weights[t1], weights[t2]
    shift1, shift2 = lw1.max(), lw2.max()
    w1, w2 = np.exp(lw1 - shift1), np.exp(lw2 - shift2)
    m1, m2 = w1.mean(), w2.mean()
    energy = -((shift2 + np.log(m2)) - (shift1 + np.log(m1))) / (t2 - t1)
    n = len(w1)
    cov = np.cov(np.stack([w1, w2])) / n
    var = cov[0, 0] / m1**2 + cov[1, 1] / m2**2 - 2.0 * cov[0, 1] / (m1 * m2)
    stderr = float(np.sqrt(max(var, 0.0))) / (t2 - t1)
    n_eff_final = float(w2.sum() ** 2 / np.sum(w2**2))
    return MCEstimate(
        float(energy), stderr, n_samples, seed, n_eff=n_eff_final, note=note,
        extras={"series": series, "pair": (t1, t2)},
    )


# ---------------------------------------------------------------------------
# Ensemble expectations
# ---------------------------------------------------------------------------


def _ensemble_estimate(ens: WeightedPathEnsemble, values: np.ndarray) -> MCEstimate:
    mean, stderr = ens.weighted_mean(values)
    if abs(mean.imag) < 1e-300:
        mean = mean.real
    return MCEstimate(mean, stderr, ens.n_samples, ens.seed, n_eff=ens.n_eff, note=ens.note)


def gibbs_number_fk(ens: WeightedPathEnsemble, params: ModelParams, beta: complex) -> MCEstimate:
    """Gibbs-weighted number expectation <exp(beta n)> from the cross integral.

    Evaluates the weighted mean of exp(-g^2 (1 - e^beta) * Jc) with Jc the
    mixed-quadrant interaction; beta = i pi gives the number parity.
    """
    factor = -params.g**2 * (1.0 - np.exp(beta))
    values = np.exp(factor * ens.cross_interaction)
    return _ensemble_estimate(ens, values)


def stirling2(m: int, l: int) -> int:
    """Stirling set number: ways to partition m labelled items into l blocks."""
    if l < 0 or l > m:
        return 0
    if m == 0:
        return 1 if l == 0 else 0
    table = [[0] * (m + 1) for _ in range(m + 1)]
    table[0][0] = 1
    for i in range(1, m + 1):
        for j in range(1, i + 1):
            table[i][j] = j * table[i - 1][j] + table[i - 1][j - 1]
    return table[m][l]


def _check_moment_order(m: int):
    """Reject a number moment order below 1 (also before any sampling)."""
    if m < 1:
        raise ParameterError(f"moment order must be >= 1, got {m}")


def number_moments_fk(ens: WeightedPathEnsemble, params: ModelParams, m: int) -> MCEstimate:
    """m-th number moment, sum_l S(m,l) g^(2l) <Jc^l> with set-partition counts.

    The per-path composite sum is averaged directly so the standard error
    reflects the full covariance between powers of the cross integral.
    """
    _check_moment_order(m)
    jc = ens.cross_interaction
    values = np.zeros_like(jc)
    for l in range(1, m + 1):
        values += stirling2(m, l) * params.g ** (2 * l) * jc**l
    return _ensemble_estimate(ens, values)


def position_shift(ens: WeightedPathEnsemble, params: ModelParams) -> np.ndarray:
    """Per-path Gaussian shift -(g/sqrt 2) * int T_s e^{-|s|} ds."""
    return -params.g / np.sqrt(2.0) * (ens.damped_left + ens.damped_right)


def x_characteristic_fk(ens: WeightedPathEnsemble, params: ModelParams, beta: float) -> MCEstimate:
    """<exp(i beta x)> = e^(-beta^2/4) <exp(i beta K)> with K the path shift.

    K is odd under a global spin flip while the path weight is even, so the
    two-point spin sum of the underlying measure is carried out explicitly:
    the per-path contribution is cos(beta K), keeping the estimator exactly
    real where the observable is.
    """
    k = position_shift(ens, params)
    values = np.exp(-(beta**2) / 4.0) * np.cos(beta * k) + 0.0j
    return _ensemble_estimate(ens, values)


def gaussian_square_fk(ens: WeightedPathEnsemble, params: ModelParams, beta: float) -> MCEstimate:
    """<exp(beta x^2)> = (1-beta)^(-1/2) <exp(beta K^2/(1-beta))>, |beta| < 1."""
    if abs(beta) >= 1:
        raise DomainError(f"<exp(beta x^2)> requires |beta| < 1, got {beta}")
    k = position_shift(ens, params)
    values = np.exp(beta * k**2 / (1.0 - beta)) / np.sqrt(1.0 - beta)
    return _ensemble_estimate(ens, values)


def _check_edge_guard(half_width: float, t: float, s: float):
    """Reject times beyond half of the window [-T, T] (also before any sampling)."""
    guard = half_width / 2.0
    if abs(t) > guard or abs(s) > guard:
        raise DomainError(
            f"|t|, |s| must be <= T/2 = {guard} (edge-effect guard), got ({t}, {s})"
        )


def spin_correlation_fk(ens: WeightedPathEnsemble, t: float, s: float) -> MCEstimate:
    """Weighted mean of T_t T_s; depends only on |t - s| in distribution.

    Both times must stay within half of the sampled window so edge effects
    of the finite horizon stay negligible.
    """
    _check_edge_guard(ens.half_width, t, s)
    values = ens.signs_at(t) * ens.signs_at(s)
    return _ensemble_estimate(ens, values)


def resolvent_cross_moment_fk(ens: WeightedPathEnsemble) -> MCEstimate:
    """Weighted mean of the mixed-quadrant interaction integral itself.

    Equals the squared resolvent norm of the spin defect in the ground
    state; the exact counterpart is ``observables.resolvent_spin_norm``.
    """
    return _ensemble_estimate(ens, ens.cross_interaction)
