"""Exact ground-state observables from the two parity chains.

Everything here is deterministic linear algebra on the truncated matrices of
``model`` and serves as the oracle side for the stochastic estimators: number
moments, Gibbs-weighted number, position characteristic functions, the
pull-through identity, the spin autocorrelation, and semigroup matrix
elements.  All of them exist at ``eps = 0`` only, where the model splits into
the even and odd parity chains and the Monte Carlo side has its quantities.

The ground state of K is the lowest level of the odd chain.  Odd-chain
position n holds boson level n with spin -1 at even n and spin +1 at odd n;
the ground vector is stored in that lab frame over (boson level, spin), spin
column 0 for spin +1 and column 1 for spin -1.  Two exact frame identities
put the other oracles on the chains too.  The Monte Carlo side works in the
spin-boson frame ``-delta*sx + g*sz (x) (b + b^dag) + b^dag b``, whose sz is
the lab sx: it flips the spin at fixed boson level and so carries odd-chain
position n onto even-chain position n.  Its flat spin state on the boson
vacuum is sqrt(2) times the lab state (spin -1, level 0), position 0 of the
odd chain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal, solveh_banded
from scipy.special import logsumexp, roots_hermite

from .errors import ConvergenceError, DomainError, ParameterError
from .model import (
    ModelParams,
    Spectrum,
    SymBandMatrix,
    Truncation,
    build_full_hamiltonian,
    build_parity_tridiagonal,
    coherent_coefficients,
    doubling,
    eigensolve,
    full_basis_labels,
    refine,
    turning_point_cutoff,
)

#: Relative stability every oracle here certifies, in its cutoff and in the
#: level count of ``x_square_exponential_ed``.
_AUTO_REL_TOL = 1e-10

#: Level counts tried by the <exp(beta*x^2)> oracle: 16, 24, 32, ...
_XSQ_START_LEVELS = 16
_XSQ_STEP_LEVELS = 8


@dataclass
class GroundState:
    """Normalized ground vector of K at ``eps = 0``, in the lab frame.

    ``coeffs[n, s]`` is the amplitude on boson level ``n`` and spin
    ``+1 (s=0) / -1 (s=1)``.  It is the odd chain's lowest eigenvector ``v``
    with ``v[0] > 0``, so each level has one nonzero spin amplitude: spin -1
    at even n, spin +1 at odd n.
    """

    energy: float
    coeffs: np.ndarray
    params: ModelParams
    truncation: Truncation

    @property
    def n_levels(self) -> int:
        return self.coeffs.shape[0]

    @property
    def chain(self) -> np.ndarray:
        """The odd-chain vector ``v``: one nonzero amplitude per level."""
        return self.coeffs.sum(axis=1)

    def level_weights(self) -> np.ndarray:
        """Probability of each boson level, summed over spin."""
        return (self.coeffs**2).sum(axis=1)


def _refined(solve, params: ModelParams, what: str, value=lambda result: result):
    """``solve(n_max)`` at the first cutoff where ``value`` of it is stable.

    The cutoff starts at ``turning_point_cutoff(1, g)`` and doubles until the
    value changes by at most ``_AUTO_REL_TOL`` relative (absolute below 1).
    The cap counts the states of the truncated K, two per Fock level, even
    where a solve needs only one chain.  The chains exist only at ``eps = 0``,
    as do the Monte Carlo quantities these oracles check, so any other
    ``eps`` raises ``ParameterError``.
    """
    if params.eps != 0.0:
        raise ParameterError(f"{what} is solved on the parity chains, which need eps = 0 "
                             f"(got {params.eps})")

    def stable(previous, result):
        a, b = value(previous), value(result)
        delta = abs(b - a) / max(1.0, abs(b))
        return delta <= _AUTO_REL_TOL, delta

    grow = doubling(2, what, _AUTO_REL_TOL)
    result, _ = refine(solve, turning_point_cutoff(1, params.g), grow, stable)
    return result


def _ground_state_at(params: ModelParams, n_max: int) -> GroundState:
    """Ground state at the fixed cutoff ``n_max``: the odd chain's lowest eigenpair."""
    trunc = Truncation(n_max)
    spec, vec = eigensolve(build_parity_tridiagonal(params, trunc, -1), k=1, want_vectors=True)
    v = vec[:, 0] if vec[0, 0] > 0 else -vec[:, 0]
    coeffs = np.zeros((n_max + 1, 2))
    n = np.arange(n_max + 1)
    coeffs[n, 1 - n % 2] = v
    return GroundState(float(spec.eigenvalues[0]), coeffs, params, trunc)


def ground_state(params: ModelParams) -> GroundState:
    """Ground state of K at ``eps = 0``, at a cutoff where its energy is stable.

    It is the lowest level of the odd chain, which is simple and lies about 1
    below the next odd level at every coupling, so its vector is as well
    conditioned as its energy.  (In a matrix that holds both chains it sits
    only about delta*exp(-2 g^2) below the even ground level, and a solver
    mixes the two.)  The cutoff starts at ``turning_point_cutoff(1, g)`` and
    doubles until the energy moves by at most ``_AUTO_REL_TOL``;
    ``ConvergenceError`` is raised when that needs more than ``MAX_STATES``
    states, and ``ParameterError`` at ``eps != 0``.
    """
    return _refined(lambda n_max: _ground_state_at(params, n_max), params,
                    "the ground energy", lambda gs: gs.energy)


def parity_expectation_lab(params: ModelParams, trunc: Truncation) -> float:
    """Conserved Z2 charge sz*(-1)^n of the full model's ground vector at ``trunc``.

    An independent check of ``ground_state``: one solve of the matrix that
    holds both chains, whose lowest level is the odd one (charge -1).
    """
    mat = build_full_hamiltonian(params, trunc)
    _, vec = eigensolve(mat, k=1, want_vectors=True)
    _, _, charge = full_basis_labels(trunc.n_max)
    return float(np.sum(charge * vec[:, 0] ** 2))


def number_parity_expectation(gs: GroundState) -> float:
    """<(-1)^n> over boson levels; strictly positive for the ground state."""
    signs = np.where(np.arange(gs.n_levels) % 2 == 0, 1.0, -1.0)
    return float(np.sum(signs * gs.level_weights()))


def number_moment_ed(gs: GroundState, m: int) -> float:
    """m-th moment of the boson number, sum n^m |c_n|^2."""
    if not 0 <= m <= 8:
        raise ParameterError(f"moment order must be in [0, 8], got {m}")
    n = np.arange(gs.n_levels, dtype=float)
    return float(np.sum(n**m * gs.level_weights()))


def gibbs_number_ed(gs: GroundState, beta: complex) -> complex:
    """<exp(beta * n)> over the ground state, for real or imaginary beta."""
    n = np.arange(gs.n_levels, dtype=float)
    return complex(np.sum(np.exp(beta * n) * gs.level_weights()))


def _position_eigensystem(n_levels: int):
    """Eigen-decomposition of the truncated position matrix (b + b^dag)/sqrt(2)."""
    off = np.sqrt((np.arange(n_levels - 1) + 1.0) / 2.0)
    return eigh_tridiagonal(np.zeros(n_levels), off)


def x_characteristic_ed(gs: GroundState, beta: float) -> complex:
    """<exp(i*beta*x)> by diagonalizing the truncated position matrix."""
    nodes, basis = _position_eigensystem(gs.n_levels)
    w = basis.T @ gs.coeffs  # position-eigenbasis amplitudes per spin column
    weights = (w**2).sum(axis=1)
    return complex(np.sum(weights * np.exp(1j * beta * nodes)))


def _hermite_sums(x: np.ndarray, coeffs: np.ndarray):
    """Scaled values of sum_n coeffs[n, s] h_n(x) at the points ``x``.

    ``h_n`` are the Hermite polynomials orthonormal under exp(-x^2), so that
    h_n(x) exp(-x^2/2) are the normalized Hermite functions; they follow the
    recurrence h_{n+1} = sqrt(2/(n+1)) x h_n - sqrt(n/(n+1)) h_{n-1}.  Each
    point carries its own log scale, raised whenever h_n grows past 1e100, so
    nothing overflows at any node.  Returns ``(last, sums, log_scale)`` with
    h_{N-1}(x) = last * exp(log_scale) and the coefficient sums
    sums[:, s] * exp(log_scale), where N = coeffs.shape[0].
    """
    h_prev = np.zeros_like(x)
    h = np.full_like(x, np.pi**-0.25)
    sums = h[:, None] * coeffs[0]
    log_scale = np.zeros_like(x)
    for n in range(1, coeffs.shape[0]):
        h_prev, h = h, np.sqrt(2.0 / n) * x * h - np.sqrt((n - 1) / n) * h_prev
        sums += h[:, None] * coeffs[n]
        big = np.abs(h) > 1e100
        if big.any():
            scale = np.where(big, np.abs(h), 1.0)
            h /= scale
            h_prev /= scale
            sums /= scale[:, None]
            log_scale += np.log(scale)
    return h, sums, log_scale


def _log_x_square_exponential(coeffs: np.ndarray, beta: float) -> float:
    """log <exp(beta*x^2)> of the (level, spin) coefficients, exact for them.

    With y = sqrt(1-beta) x the integrand becomes exp(-y^2) times a polynomial
    of degree 2(N-1) in y, which N-node Gauss-Hermite quadrature integrates
    exactly.  The nodes come from ``roots_hermite`` (Golub & Welsch 1969); the
    weights 1/(N h_{N-1}(y_j)^2) are formed in the log domain, so they keep
    relative accuracy where they fall far below the smallest double.
    """
    n_levels = coeffs.shape[0]
    y, _ = roots_hermite(n_levels)
    last, _, log_scale = _hermite_sums(y, coeffs[:, :0])
    log_w = -np.log(n_levels) - 2.0 * (np.log(np.abs(last)) + log_scale)
    log_w -= logsumexp(log_w) - 0.5 * np.log(np.pi)  # sum of weights is sqrt(pi)
    _, sums, log_scale = _hermite_sums(y / np.sqrt(1.0 - beta), coeffs)
    density = (sums**2).sum(axis=1)
    keep = density > 0.0
    log_terms = log_w[keep] + 2.0 * log_scale[keep] + np.log(density[keep])
    return float(logsumexp(log_terms) - 0.5 * np.log1p(-beta))


def x_square_exponential_ed(gs: GroundState, beta: float) -> float:
    """<exp(beta*x^2)>; defined only for |beta| < 1.

    For the state cut to its first N levels the value is exact: Gauss-Hermite
    quadrature with N nodes rescaled by sqrt(1-beta) integrates it without
    error, with the wave function evaluated by the Hermite-function recurrence
    in the log domain.

    The level count N is chosen by the stability of the value itself.  The
    matrix elements <n|exp(beta*x^2)|n> grow geometrically in n, while the
    computed ground vector stops decaying at a noise floor (about 1e-55 at
    g=1), so summing over every stored level diverges as the cutoff grows.
    N therefore grows from 16 by 8 levels at a time, and the value is
    returned once one step changes it by at most ``_AUTO_REL_TOL``; it does
    not change when ``n_max`` doubles.  Once the changes have fallen below
    the square root of that tolerance the levels cover the state and its
    true changes keep shrinking, so a change larger than the one before
    marks the noise floor.  There, or when the stored levels run out first
    (for example at g=1, beta=0.9, where double-precision coefficients cannot
    carry the value), ``ConvergenceError`` is raised.
    """
    if abs(beta) >= 1:
        raise DomainError(f"<exp(beta*x^2)> diverges for |beta| >= 1, got {beta}")
    tol = _AUTO_REL_TOL
    log_prev = _log_x_square_exponential(gs.coeffs[:_XSQ_START_LEVELS], beta)
    change_prev = np.inf
    for n in range(_XSQ_START_LEVELS + _XSQ_STEP_LEVELS, gs.n_levels + 1, _XSQ_STEP_LEVELS):
        log_value = _log_x_square_exponential(gs.coeffs[:n], beta)
        change = abs(np.expm1(log_prev - log_value))
        if change <= tol:
            return float(np.exp(log_value))
        if change > change_prev and change_prev < np.sqrt(tol):
            raise ConvergenceError(
                f"<exp({beta}*x^2)> hit the coefficient noise floor at {n} levels: "
                f"its change grew from {change_prev:.1e} to {change:.1e} (rel_tol {tol:g})"
            )
        log_prev, change_prev = log_value, change
    raise ConvergenceError(
        f"<exp({beta}*x^2)> is not stable to rel_tol {tol:g} within "
        f"{gs.n_levels} levels (last change {change_prev:.1e})"
    )


def annihilate(coeffs: np.ndarray) -> np.ndarray:
    """Apply the boson annihilation matrix to (level, spin) coefficients."""
    out = np.zeros_like(coeffs)
    n = np.arange(1, coeffs.shape[0], dtype=float)
    out[:-1] = np.sqrt(n)[:, None] * coeffs[1:]
    return out


def _even_chain(gs: GroundState) -> SymBandMatrix:
    return build_parity_tridiagonal(gs.params, gs.truncation, +1)


def resolvent_spin_norm(gs: GroundState) -> float:
    """Squared norm of (M - E + 1)^{-1} sz |ground>, via a banded Cholesky solve.

    M is the spin-boson form and sz its spin operator, the lab sx; sz |ground>
    is the ground chain vector on the even chain, which M leaves invariant.
    """
    shifted = _even_chain(gs).shifted(1.0 - gs.energy)
    sol = solveh_banded(shifted.bands, gs.chain, lower=True)
    return float(sol @ sol)


def pull_through_residual(gs: GroundState) -> float:
    """Relative mismatch of |b psi|^2 = g^2 |(M - E + 1)^{-1} sz psi|^2.

    The identity is exact in the untruncated model; at a converged cutoff the
    relative residual stays below 1e-6.  Returns 0 when both sides vanish.
    """
    lhs = float(np.sum(annihilate(gs.coeffs) ** 2))
    rhs = gs.params.g**2 * resolvent_spin_norm(gs)
    denom = max(lhs, rhs)
    if denom == 0.0:
        return 0.0
    return abs(lhs - rhs) / denom


def spin_autocorrelation_ed(gs: GroundState, lag: float) -> float:
    """<sz exp(-lag*(M - E)) sz> in the spin-boson frame, from the even chain.

    sz |ground> is the ground chain vector on the even chain, so this is the
    even chain's semigroup element in that vector.
    """
    if lag < 0:
        raise DomainError(f"lag must be >= 0, got {lag}")
    v = gs.chain
    return semigroup_matrix_element_ed(_even_chain(gs), v, v, lag, shift=-gs.energy)


def semigroup_matrix_element_ed(
    mat: SymBandMatrix,
    phi: np.ndarray,
    psi: np.ndarray,
    t: float,
    shift: float = 0.0,
) -> float:
    """<phi| exp(-t*(M + shift)) |psi> by full diagonalization."""
    if t < 0:
        raise DomainError(f"t must be >= 0, got {t}")
    spec, vecs = eigensolve(mat, want_vectors=True)
    return float(
        np.sum((vecs.T @ phi) * (vecs.T @ psi) * np.exp(-t * (spec.eigenvalues + shift)))
    )


def semigroup_trace_ed(spectrum: Spectrum, t: float, shift: float = 0.0) -> float:
    """Trace of exp(-t*(M + shift)) over the computed eigenvalues."""
    if t < 0:
        raise DomainError(f"t must be >= 0, got {t}")
    return float(np.sum(np.exp(-t * (spectrum.eigenvalues + shift))))


def _partition_at(params: ModelParams, t: float, n_max: int) -> float:
    odd = build_parity_tridiagonal(params, Truncation(n_max), -1)
    vacuum = np.zeros(n_max + 1)
    vacuum[0] = 1.0
    return 2.0 * semigroup_matrix_element_ed(odd, vacuum, vacuum, t)


def partition_ed(params: ModelParams, t: float) -> float:
    """Flat-state semigroup element of the spin-boson form at time ``t``.

    The flat state is sqrt(2) times odd-chain position 0, so the element is
    2 (exp(-t T_odd))_00.  The cutoff is chosen by the stability of the value.
    """
    return _refined(lambda n_max: _partition_at(params, t, n_max), params,
                    f"the partition element at t={t}")


def displaced_flat_state(params: ModelParams, n_max: int) -> np.ndarray:
    """Image of the flat vacuum state in the full model's basis.

    Rotating the flat spin state from the frame with diagonal coupling back to
    the lab frame turns it into (anti)symmetric combinations of coherent
    states displaced by -g and +g.
    """
    minus = coherent_coefficients(-params.g, n_max)
    plus = coherent_coefficients(+params.g, n_max)
    up_fock = (minus - plus) / np.sqrt(2.0)
    down_fock = (minus + plus) / np.sqrt(2.0)
    spin, fock, _ = full_basis_labels(n_max)
    phi = np.where(spin == 1, up_fock[fock], down_fock[fock])
    return phi


def _vacuum_element_at(params: ModelParams, t: float, n_max: int) -> float:
    phi = displaced_flat_state(params, n_max)
    return sum(
        semigroup_matrix_element_ed(build_parity_tridiagonal(params, Truncation(n_max), parity),
                                    phi[c::2], phi[c::2], t, shift=params.g**2)
        for c, parity in enumerate((+1, -1))
    )


def vacuum_element_ed(params: ModelParams, t: float) -> float:
    """Exact value of the shifted vacuum semigroup element at time ``t``.

    This is the matrix element of exp(-t*(K + g^2)) in the displaced flat
    state, the quantity targeted by the jump-path vacuum estimator.  K keeps
    each parity chain, so the element is the sum of the two chains' elements
    in the state's components on them.  The cutoff is chosen by the
    stability of the value.
    """
    return _refined(lambda n_max: _vacuum_element_at(params, t, n_max), params,
                    f"the vacuum element at t={t}")
