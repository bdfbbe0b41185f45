"""Monte Carlo estimators over Poisson spin paths.

Each estimator targets a semigroup matrix element or ground-state expectation
for which the Gaussian mode has been integrated out in closed form, leaving
an average over jump paths only:

* ``vacuum_element_fk``:  2 e^(delta t) E[ exp(-2 g^2 xi) ]  over rate-delta
  paths on [0, t]; the exact counterpart is ``vacuum_element_ed``.
* ``partition_fk``:  2 e^(delta t) E[ exp((g^2/2) J) ]  over rate-delta
  paths, J the square interaction integral; counterpart ``partition_ed``.
* ``ground_energy_fk``:  log-ratio of two partition estimates on a common
  path sample, cancelling the overlap prefactor.
* Ensemble estimators (Gibbs number weight, number moments, position
  characteristic/Gaussian moments, spin correlation) are self-normalized
  means over a ``WeightedPathEnsemble``, which only draws and stores paths.

Every estimator draws through ``paths._seed_streams``, under its own name
in ``paths._STREAM_KEYS``, and reduces in stream order, so it is
reproducible bit for bit from (seed, n_samples, params), and no two
estimators walk the same waits.
Each stream's paths are drawn and integrated in one sweep (``paths._sweep``),
which forms only the functionals its estimator reads.

Every mean and standard error of these estimators reduces through one
merge, ``_merged_moments``: each seed stream supplies rows of per-path
weights and becomes their sums and centred cross sums, merged by one exact
identity.  (The X1 pair moments of ``jumplaw._pair_moment_rows`` are plain
unweighted means of one array and do not go through it.)
The estimates that draw their own samples supply, through ``_exp_moments``,
the log value L of every path, and the rows are e^L; the L supplied are

* ``vacuum_element_fk``: log 2 + delta t - 2 g^2 xi;
* ``partition_fk`` and ``ground_energy_fk``: delta h + (g^2/2) J_h at each
  horizon h, all horizons from one pass over paths on [0, max h];
* ``kernels._flip_average``: i(ax + by) - q/2 for a heat-kernel component,
  and the log of the Gaussian overlap for the kernel reconstruction.

Each of these refuses ``n_samples < 2`` before any draw, through
``paths._check_draws``: its standard error divides by n - 1.  The ensemble
estimates (``_ensemble_estimate``) supply the importance weights w and
w (v - c) of the values v about a sample value c, whose merged moments
give the self-normalized mean and its standard error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericalError, ParameterError
from .model import _AUTO_REL_TOL, ModelParams
from .paths import (
    DEFAULT_SEED,
    WeightedPathEnsemble,
    _check_draws,
    _check_time,
    _seed_streams,
    _stream_slices,
    _sweep,
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
        return _z_score(self.mean, self.stderr, reference)


def _z_score(mean: complex, stderr: float, reference: complex) -> float:
    """``|mean - reference| / stderr``; at zero stderr 0 within the oracles' tolerance.

    Zero stderr comes from a constant estimand, which ``_ensemble_estimate``
    reports exactly, such as the value 1 of every path at beta = 0 or at
    lag 0, or from a clock that never jumps (delta = 0).  An exact oracle
    is certified only to within ``_AUTO_REL_TOL`` of max(1, |reference|)
    (``observables._refined``), so a difference within that is no sampling
    error and reads 0; any larger difference at zero stderr reads inf.
    """
    diff = abs(mean - reference)
    if stderr == 0.0:
        return 0.0 if diff <= _AUTO_REL_TOL * max(1.0, abs(reference)) else float("inf")
    return float(diff / stderr)


def _merged_moments(parts):
    """Shift, mean of the rows and their centred cross sums, merged over seed streams.

    ``parts`` yields, in stream order, each seed stream's ``(shift, rows)``:
    k real rows, or one complex row, of per-path values w, row i scaled by
    e^(-s_b,i), s_b the stream's shift.  Each is consumed in place as it
    comes: its rows are reduced to their sums and their centred cross sums
    C_b,ij = sum (w_i - m_b,i)(w_j - m_b,j)*, and the streams merge, rescaled
    to the overall shift s = max s_b, by the exact identity
    sum (w_i - m_i)(w_j - m_j)* = sum_b C_b,ij + n_b (m_b,i - m_i)(m_b,j - m_j)*
    of Chan, Golub & LeVeque (1979).  So no per-path row outlives its
    stream.  Every path estimator's mean and standard error comes from this
    one merge: the self-drawing estimates through ``_exp_moments``, the
    ensemble's through ``_ensemble_estimate``.  The X1 pair moment table
    (``jumplaw._pair_moment_rows``) does not: it takes plain means and
    ``std(ddof=1) / sqrt(n)`` of its unweighted draws.
    """
    moments = []  # per stream: its size and, per row, its shift, sum and centred cross sums
    for shift, w in parts:
        total = w.sum(axis=1)
        w -= (total / w.shape[1])[:, None]
        cross = np.array([[np.multiply(a, b.conj()).sum() for b in w] for a in w])
        moments.append((w.shape[1], shift, total, cross))
        del w  # the stream's rows are freed before the next draw

    # every row at the overall shift: stream b's rows times e^(s_b - shift)
    sizes, shifts, totals, crosses = zip(*moments)
    shift = np.max(shifts, axis=0)
    scales = [np.exp(s - shift) for s in shifts]
    mean = sum(f * total for f, total in zip(scales, totals)) / sum(sizes)
    cross = 0.0
    for f, chunk, total, stream_cross in zip(scales, sizes, totals, crosses):
        d = f * total / chunk - mean
        cross = cross + np.outer(f, f) * stream_cross + chunk * np.outer(d, d.conj())
    return shift, mean, cross


def _exp_rows(w):
    """One seed stream's ``(shift, rows)`` of e^L from its log values L, formed in place.

    ``w`` holds k real rows or one complex row of L.  Each row is shifted by
    its largest real part s_b; a row whose every L is -inf (every weight 0)
    takes the smallest double as its shift: it adds zeros, and sets the
    overall shift only where every stream's row is 0.
    """
    w = np.atleast_2d(w)
    shift = np.maximum(w.real.max(axis=1), np.finfo(float).min)
    np.exp(np.subtract(w, shift[:, None], out=w), out=w)
    return shift, w


def _exp_moments(streams):
    """``_merged_moments`` of e^L, from each seed stream's log values L in stream order."""
    return _merged_moments(map(_exp_rows, streams))


def _exp_mean(streams, n: int) -> tuple[complex, float]:
    """Mean and standard error of e^L over the n paths of the one row of ``_exp_moments``.

    Both are formed at the merged shift and scaled back by its exponential;
    one that lands past the double range raises ``NumericalError``.
    """
    shift, mean, cross = _exp_moments(streams)
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.exp(shift[0])
        value = complex(mean[0] * scale)
        stderr = float(np.sqrt(cross[0, 0].real / (n * (n - 1.0))) * scale)
    if not np.isfinite([value, stderr]).all():
        raise NumericalError(f"a Monte Carlo mean of e^L with max Re L = {shift[0]:.6g} "
                             "is past the double range")
    return value, stderr


def vacuum_element_fk(
    params: ModelParams,
    t: float,
    n_samples: int,
    seed: int = DEFAULT_SEED,
) -> MCEstimate:
    """Shifted vacuum semigroup element from rate-delta jump paths.

    The element is 2 e^t E_1[delta^N exp(-2 g^2 xi)] over unit-rate paths
    with N jumps, and E_1[delta^N f] = e^((delta - 1) t) E_delta[f], so
    every rate-delta path contributes the nonnegative weight
    2 e^(delta t) exp(-2 g^2 xi), the form of ``partition_fk``; there is no
    oscillation.  At delta = 0 no path jumps, and the estimate is the exact
    2 with zero error.  The paths come from the streams named ``"vacuum"``
    in ``paths._STREAM_KEYS``, which no other sampler draws.
    """
    _check_draws(seed, n_samples, least=2)
    _check_time(t)

    def logs(chunk, rng):
        xi = np.empty(chunk)
        _sweep(rng, chunk, params.delta, t, suppression=xi)
        return np.log(2.0) + params.delta * t - 2.0 * params.g**2 * xi

    streams = _seed_streams(seed, n_samples, "vacuum")
    mean, stderr = _exp_mean((logs(chunk, rng) for chunk, rng in streams), n_samples)
    return MCEstimate(mean.real, stderr, n_samples, seed)


def _partition_logs(params: ModelParams, horizons: list, n_samples: int, seed: int, sampler: str):
    """Per seed stream of ``sampler``, delta h + (g^2/2) J_h of each path at every horizon h.

    One sweep over paths on [0, max(horizons)] gives every horizon, and
    forms no damped integral.
    """
    for chunk, rng in _seed_streams(seed, n_samples, sampler):
        logs = np.empty((len(horizons), chunk))
        _sweep(rng, chunk, params.delta, horizons[-1], interactions=logs, horizons=horizons)
        logs *= 0.5 * params.g**2
        logs += params.delta * np.array(horizons)[:, None]
        yield logs


def partition_fk(
    params: ModelParams,
    t: float,
    n_samples: int,
    seed: int = DEFAULT_SEED,
) -> MCEstimate:
    """Flat-state semigroup element 2 e^(delta t) E[exp((g^2/2) J)]."""
    _check_draws(seed, n_samples, least=2)
    _check_time(t)
    mean, stderr = _exp_mean(_partition_logs(params, [t], n_samples, seed, "partition"), n_samples)
    return MCEstimate(2.0 * mean.real, 2.0 * stderr, n_samples, seed)


# Effective sample size a horizon needs to enter the ground-energy slope.
_MIN_N_EFF = 100.0


def _check_horizons(t_grid) -> list[float]:
    """``t_grid`` sorted; refused unless it holds two or more distinct positive finite times."""
    t_grid = sorted(float(t) for t in t_grid)
    if len(t_grid) < 2:
        raise ParameterError("t_grid needs at least two horizons")
    for t in t_grid:
        _check_time(t)
    if len(set(t_grid)) < len(t_grid):
        raise ParameterError(f"t_grid repeats a horizon: {t_grid}")
    return t_grid


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
    extrapolation diagnostics.  The weights of every horizon reduce through
    ``_exp_moments``, whose covariance divides by n - 1.
    """
    _check_draws(seed, n_samples, least=2)
    t_grid = _check_horizons(t_grid)
    shift, mean, cross = _exp_moments(_partition_logs(params, t_grid, n_samples, seed, "energy"))
    # (sum w)^2 / sum w^2, with sum w^2 = sum (w - mean)^2 + n mean^2
    n_effs = (n_samples * mean) ** 2 / (np.diagonal(cross) + n_samples * mean**2)

    series, stable = [], []
    for i, t in enumerate(t_grid):
        log_mean = shift[i] + np.log(mean[i]) + np.log(2.0)
        series.append({"t": t, "log_element": float(log_mean), "n_eff": float(n_effs[i]),
                       "energy_running": float(-log_mean / t)})
        if n_effs[i] >= _MIN_N_EFF:
            stable.append(i)

    note = ""
    if len(stable) < 2:
        note = f"fewer than two horizons kept n_eff >= {_MIN_N_EFF}; using first pair"
        stable = [0, 1]
    i, j = stable[-2], stable[-1]
    t1, t2 = t_grid[i], t_grid[j]
    energy = -((shift[j] + np.log(mean[j])) - (shift[i] + np.log(mean[i]))) / (t2 - t1)
    cov = cross / ((n_samples - 1.0) * n_samples)
    var = (cov[i, i] / mean[i] ** 2 + cov[j, j] / mean[j] ** 2
           - 2.0 * cov[i, j] / (mean[i] * mean[j]))
    stderr = float(np.sqrt(max(var, 0.0))) / (t2 - t1)
    return MCEstimate(
        float(energy), stderr, n_samples, seed, n_eff=float(n_effs[j]), note=note,
        extras={"series": series, "pair": (t1, t2)},
    )


# ---------------------------------------------------------------------------
# Ensemble expectations
# ---------------------------------------------------------------------------


def _ensemble_estimate(ens: WeightedPathEnsemble, values) -> MCEstimate:
    """Self-normalized importance mean of ``values(paths)`` and its linearized standard error.

    ``values(paths)`` returns the values v of the paths of one slice, the
    samples of one stream of ``_seed_streams``; it is called once per
    stream, in stream order, and what it returns is left as it is.  With
    w = exp(lw - max lw) the mean is m = sum w v / sum w and the standard
    error sqrt(sum w^2 (v - m)^2) / sum w, complex values taken as their
    real and imaginary parts, whose sums add.

    Each slice becomes the rows a = w and, per part, b = w (v - c), c the
    first value of the first slice, built in one (k, chunk) buffer and
    merged by ``_merged_moments`` with shift 0, as every weight is already
    at most 1.  With the merged means a', b' and centred cross sums C,
    m = c + m', m' = b' / a', and since b - m' a = w (v - m) has mean 0,
    sum w^2 (v - m)^2 = C_bb - 2 m' C_ab + m'^2 C_aa, which divided by
    n a' = sum w gives the standard error.  A constant estimand makes every
    b exactly 0, and so comes back as c exactly with zero error.

    Precision.  The three terms are formed to a few ulps of their sizes,
    at most about sum w^2 (v - c)^2 and (m - c)^2 sum w^2, so they cancel
    by at most a factor of about 1 + (m - c)^2 / s^2, with
    s^2 = sum w^2 (v - m)^2 / sum w^2 the spread of the values under the
    weights w^2.  c is a sample value and every ensemble estimator's values
    are bounded, so where the weight is spread over many paths m - c is a
    few s and the factor is small.  Where a handful of paths holds all the
    weight, s can fall far below |m - c|, and the standard error loses about
    that factor in relative precision (the mean does not).
    """
    lw, top, first = ens.log_weights, ens.log_weights.max(), []

    def rows():
        for paths in _stream_slices(ens.n_samples):
            v = values(paths)
            if not first:
                first.append(v.flat[0])
            parts = (v.real, v.imag) if np.iscomplexobj(v) else (v,)
            r = np.empty((1 + len(parts), paths.stop - paths.start))
            np.exp(np.subtract(lw[paths], top, out=r[0]), out=r[0])
            for row, part, c in zip(r[1:], parts, (first[0].real, first[0].imag)):
                np.subtract(part, c, out=row)
                row *= r[0]
            yield np.zeros(len(r)), r

    _, (a, *b), cross = _merged_moments(rows())
    m = np.array(b) / a
    var = (np.diagonal(cross)[1:] - 2.0 * m * cross[0, 1:] + m**2 * cross[0, 0]).sum()
    stderr = float(np.sqrt(max(var, 0.0)) / (ens.n_samples * a))
    mean = first[0] + (m[0] if m.size == 1 else complex(*m))
    if mean.imag == 0:  # a complex mean stays complex however small its imaginary part
        mean = mean.real
    return MCEstimate(mean, stderr, ens.n_samples, ens.seed, n_eff=ens.n_eff, note=ens.note)


def gibbs_number_fk(ens: WeightedPathEnsemble, params: ModelParams, beta: complex) -> MCEstimate:
    """Gibbs-weighted number expectation <exp(beta n)> from the cross integral.

    Evaluates the weighted mean of exp(-g^2 (1 - e^beta) * Jc) with Jc the
    mixed-quadrant interaction; beta = i pi gives the number parity.
    """
    beta = np.real(beta) if np.imag(beta) == 0 else beta  # a real value takes real arithmetic
    factor = -params.g**2 * (1.0 - np.exp(beta))

    def values(paths):
        v = ens.cross_interaction(paths)
        if np.iscomplexobj(factor):
            v = v * factor
        else:
            v *= factor
        return np.exp(v, out=v)

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

    def values(paths):
        jc = ens.cross_interaction(paths)
        power = jc  # Jc^l, one running power
        v = np.zeros_like(jc)
        for l in range(1, m + 1):
            if l > 1:
                power = power * jc
            coefficient = stirling2(m, l) * params.g ** (2 * l)
            if l < m:
                v += coefficient * power
            else:  # the last power is not needed again: scaled in place
                power *= coefficient
                v += power
        return v

    return _ensemble_estimate(ens, values)


def position_shift(ens: WeightedPathEnsemble, params: ModelParams, paths: slice) -> np.ndarray:
    """Gaussian shift -(g/sqrt 2) * int T_s e^{-|s|} ds of every path of ``paths``."""
    k = np.add(ens.damped_left[paths], ens.damped_right[paths])
    k *= -params.g / np.sqrt(2.0)
    return k


def x_characteristic_fk(ens: WeightedPathEnsemble, params: ModelParams, beta: float) -> MCEstimate:
    """<exp(i beta x)> = e^(-beta^2/4) <exp(i beta K)> with K the path shift.

    K is odd under a global spin flip while the path weight is even, so the
    two-point spin sum of the underlying measure is carried out explicitly:
    the per-path contribution is cos(beta K), keeping the estimator exactly
    real where the observable is.
    """
    def values(paths):
        v = position_shift(ens, params, paths)
        v *= beta
        np.cos(v, out=v)
        v *= np.exp(-(beta**2) / 4.0)
        return v

    return _ensemble_estimate(ens, values)


def gaussian_square_fk(ens: WeightedPathEnsemble, params: ModelParams, beta: float) -> MCEstimate:
    """<exp(beta x^2)> = (1-beta)^(-1/2) <exp(beta K^2/(1-beta))>, |beta| < 1."""
    if abs(beta) >= 1:
        raise DomainError(f"<exp(beta x^2)> requires |beta| < 1, got {beta}")

    def values(paths):
        v = position_shift(ens, params, paths)
        np.square(v, out=v)
        v *= beta
        v /= 1.0 - beta
        np.exp(v, out=v)
        v /= np.sqrt(1.0 - beta)
        return v

    return _ensemble_estimate(ens, values)


def _check_edge_guard(half_width: float, t: float, s: float):
    """Reject times beyond half of the window [-T, T] (also before any sampling)."""
    guard = half_width / 2.0
    if not (abs(t) <= guard and abs(s) <= guard):  # also a NaN time
        raise DomainError(
            f"|t|, |s| must be <= T/2 = {guard} (edge-effect guard), got ({t}, {s})"
        )


def spin_correlation_fk(ens: WeightedPathEnsemble, t: float, s: float) -> MCEstimate:
    """Weighted mean of T_t T_s; depends only on |t - s| in distribution.

    Both times must stay within half of the sampled window so edge effects
    of the finite horizon stay negligible.
    """
    _check_edge_guard(ens.half_width, t, s)

    def values(paths):
        v = ens.signs_at(t, paths)
        v *= ens.signs_at(s, paths)
        return v

    return _ensemble_estimate(ens, values)


def resolvent_cross_moment_fk(ens: WeightedPathEnsemble) -> MCEstimate:
    """Weighted mean of the mixed-quadrant interaction integral itself.

    Equals the squared resolvent norm of the spin defect in the ground
    state; the exact counterpart is ``observables.resolvent_spin_norm``.
    """
    return _ensemble_estimate(ens, ens.cross_interaction)
