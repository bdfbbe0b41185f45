"""Exact ground-state observables from the two parity chains.

Everything here is deterministic linear algebra on the truncated matrices of
``model`` and serves as the oracle side for the stochastic estimators: number
moments, Gibbs-weighted number, position characteristic functions, the
pull-through identity, the spin autocorrelation, and semigroup matrix
elements.  All of them exist at ``eps = 0`` only, where the model splits into
the even and odd parity chains and the Monte Carlo side has its quantities.
Every cutoff here comes from ``model.refine``: the enclosed oracles go
through ``_refined``, and the two sums over the ground vector that can
outgrow its cutoff, ``gibbs_number_ed`` and ``x_square_exponential_ed``,
through ``_settled``.

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
from scipy.special import exprel, gammainc, gammaln, logsumexp, roots_hermite, xlogy

from .errors import ConvergenceError, DomainError, NumericalError, ParameterError
from .model import (
    ModelParams,
    SymBandMatrix,
    Truncation,
    _variant_spectrum,
    build_full_hamiltonian,
    build_parity_tridiagonal,
    coherent_coefficients,
    eigensolve,
    full_basis_labels,
    refine,
    turning_point_cutoff,
)

#: Relative error every oracle here certifies: the enclosure of its value at
#: the cutoff, the stability of ``x_square_exponential_ed`` in its level
#: count, and the share of ``gibbs_number_ed`` that its last levels carry.
_AUTO_REL_TOL = 1e-10

#: Level counts tried by the <exp(beta*x^2)> oracle: 16, 24, 32, ...; the
#: Gibbs oracle's tail is its last ``_STEP_LEVELS`` levels.
_XSQ_START_LEVELS = 16
_STEP_LEVELS = 8


@dataclass
class GroundState:
    """Normalized ground vector of K at ``eps = 0``, in the lab frame.

    ``coeffs[n, s]`` is the amplitude on boson level ``n`` and spin
    ``+1 (s=0) / -1 (s=1)``.  It is the odd chain's lowest eigenvector ``v``
    with ``v[0] > 0``, so each level has one nonzero spin amplitude: spin -1
    at even n, spin +1 at odd n.  The untruncated ground energy lies within
    ``error_bound`` of ``energy``.
    """

    energy: float
    coeffs: np.ndarray
    params: ModelParams
    truncation: Truncation
    error_bound: float

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


def _refined(solve, params: ModelParams, what: str):
    """``solve(n_max)`` at the first cutoff whose enclosure certifies it.

    ``solve`` returns a tuple whose first two entries are a value and a bound
    on its distance from the untruncated value, proven from that one solve.
    ``refine`` starts the cutoff at ``turning_point_cutoff(1, g)`` and grows
    it until the bound is at most ``_AUTO_REL_TOL`` relative (absolute below
    1).  The cap counts the states of the truncated K, two per Fock level,
    even where a solve needs only one chain.  The chains exist only at
    ``eps = 0``, as do the Monte Carlo quantities these oracles check, so any
    other ``eps`` raises ``ParameterError``.  The bounds cover the cutoff;
    rounding is outside them.  A value past the double range raises
    ``NumericalError`` at once: no cutoff brings it back.
    """
    if params.eps != 0.0:
        raise ParameterError(f"{what} is solved on the parity chains, which need eps = 0 "
                             f"(got {params.eps})")

    def certified(solved):
        if not np.isfinite(solved[0]):
            raise NumericalError(f"{what} is {solved[0]}, past the double range")
        delta = solved[1] / max(1.0, abs(solved[0]))
        return delta <= _AUTO_REL_TOL, delta

    # an overflowing bound grows the cutoff; an overflowing value raises in certified
    with np.errstate(over="ignore", invalid="ignore"):
        solved, _ = refine(solve, turning_point_cutoff(1, params.g), certified, 2, what)
    return solved


def _ground_pair(params: ModelParams, n_max: int) -> tuple[float, np.ndarray]:
    """The odd chain's lowest eigenpair at the cutoff ``n_max``, the vector in the lab frame."""
    spec, vec = eigensolve(build_parity_tridiagonal(params, Truncation(n_max), -1), k=1,
                           want_vectors=True)
    v = vec[:, 0] if vec[0, 0] > 0 else -vec[:, 0]
    coeffs = np.zeros((n_max + 1, 2))
    n = np.arange(n_max + 1)
    coeffs[n, 1 - n % 2] = v
    return float(spec.eigenvalues[0]), coeffs


def _ground_state_at(params: ModelParams, n_max: int) -> GroundState:
    """Ground state at the fixed cutoff ``n_max``, its energy bracketed.

    The bracket is the Kato-Temple one of the odd chain's lowest level, from
    one solve of the chain's spectrum (``model.refine`` has the proof).
    """
    bound = float(_variant_spectrum(params, n_max, "parity-", 1).error_bound[0])
    return GroundState(*_ground_pair(params, n_max), params, Truncation(n_max), bound)


def ground_state(params: ModelParams) -> GroundState:
    """Ground state of K at ``eps = 0``, at a cutoff that encloses its energy.

    It is the lowest level of the odd chain, which is simple and lies about 1
    below the next odd level at every coupling, so its vector is as well
    conditioned as its energy.  (In a matrix that holds both chains it sits
    only about delta*exp(-2 g^2) below the even ground level, and a solver
    mixes the two.)  The cutoff starts at ``turning_point_cutoff(1, g)`` and
    grows until the Kato-Temple bracket of the energy is at most
    ``_AUTO_REL_TOL`` relative; ``ConvergenceError`` is raised when that
    needs more than ``MAX_STATES`` states, and ``ParameterError`` at
    ``eps != 0``.
    """
    def solve(n_max):
        gs = _ground_state_at(params, n_max)
        return gs.energy, gs.error_bound, gs

    return _refined(solve, params, "the ground energy")[2]


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


def _settled(gs: GroundState, settle, what: str):
    """The value ``settle`` accepts, from the stored ground vector or a longer one.

    ``settle(coeffs)`` returns ``(value, delta)``: the value, or None while
    the levels of ``coeffs`` do not settle it, and its measure of the error.
    ``refine`` drives it on ``gs.coeffs`` at the ground state's cutoff, and
    then on the ground vector solved at each larger cutoff of its growth
    rule, within its cap.  A larger cutoff is solved only while the last
    component of the vector is still its smallest past its peak; otherwise
    ``ConvergenceError`` is raised.  The exact eigenvector of a truncated
    chain decays monotonically past its turning point (the backward ratio
    recurrence of ``model._tail_residuals``), so a computed tail that rises
    again has reached the solver's rounding, and no larger cutoff brings
    those digits back.  A tail of exact zeros (g = 0) ties, counts as
    decaying and is solved again; it adds nothing to either sum, so the
    value settles on the next vector.
    """
    value = None

    def solve(n_max):
        return gs.coeffs if n_max == gs.truncation.n_max else _ground_pair(gs.params, n_max)[1]

    def certified(coeffs):
        nonlocal value
        value, delta = settle(coeffs)
        size = np.abs(coeffs).sum(axis=1)
        if value is None and size[-1] > size[np.argmax(size):].min():
            raise ConvergenceError(
                f"{what} did not settle before the ground vector's tail stopped decaying "
                f"at n_max {coeffs.shape[0] - 1}: it has reached rounding")
        return value is not None, delta

    refine(solve, gs.truncation.n_max, certified, 2, what)
    return value


def gibbs_number_ed(gs: GroundState, beta: complex) -> complex:
    """<exp(beta * n)> over the ground state, for real or imaginary beta.

    The sum runs over every stored level, and is accepted once its last
    ``_STEP_LEVELS`` levels carry at most ``_AUTO_REL_TOL`` of it; at real
    beta > 0 the ground state's cutoff, sized by its energy, is often too
    short for that, and ``_settled`` solves the vector at larger cutoffs.
    """
    def settle(coeffs):
        terms = np.exp(beta * np.arange(coeffs.shape[0], dtype=float)) * (coeffs**2).sum(axis=1)
        total, tail = complex(np.sum(terms)), abs(np.sum(terms[-_STEP_LEVELS:]))
        return (total if tail <= _AUTO_REL_TOL * abs(total) else None), tail

    return _settled(gs, settle, f"<exp({beta}*n)>")


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
    computed ground vector stops decaying at its rounding floor (about 1e-50
    at g=1), so summing over every stored level diverges as the cutoff
    grows.  N therefore grows from 16 by 8 levels at a time, and the value is
    returned once one step changes it by at most ``_AUTO_REL_TOL``; it does
    not change when ``n_max`` grows.

    The ground state's cutoff is sized by the enclosure of its energy, which
    can leave too few levels for this value (at delta=0.5, beta=0.5 from
    g=5 on).  When the stored levels run out, ``_settled`` solves the vector
    at a larger cutoff while its tail still decays, and raises
    ``ConvergenceError`` once it has reached rounding (for example at g=1,
    beta=0.9, where double-precision coefficients cannot carry the value).
    The count carries over to the new vector, whose sum at the count before
    is evaluated again.
    """
    if abs(beta) >= 1:
        raise DomainError(f"<exp(beta*x^2)> diverges for |beta| >= 1, got {beta}")
    n = _XSQ_START_LEVELS + _STEP_LEVELS

    def settle(coeffs):
        nonlocal n
        change = np.inf
        if n <= coeffs.shape[0]:
            log_prev = _log_x_square_exponential(coeffs[:n - _STEP_LEVELS], beta)
        while n <= coeffs.shape[0]:
            log_value = _log_x_square_exponential(coeffs[:n], beta)
            change = abs(np.expm1(log_prev - log_value))
            if change <= _AUTO_REL_TOL:
                return float(np.exp(log_value)), change
            log_prev = log_value
            n += _STEP_LEVELS
        return None, change

    return _settled(gs, settle, f"<exp({beta}*x^2)>")


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
    |b psi|^2 is the mean boson number.
    """
    lhs = number_moment_ed(gs, 1)
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


def _odd_chain_element(params: ModelParams, phi: np.ndarray, t: float,
                       shift: float) -> tuple[float, float]:
    """``<phi| exp(-t (T_N + shift)) |phi>`` and its flux J through the last level.

    ``T_N`` is the odd chain cut to the ``len(phi)`` levels of ``phi``, and
    ``T_N + shift`` has eigenpairs ``(lam_k, V[:, k])``; with ``c = V^T phi``,
    ``J = |int_0^t (exp(-s (T_N + shift)) phi)_N ds|
    = |sum_k V[N, k] c_k (1 - exp(-t lam_k)) / lam_k|`` (t V[N, k] c_k where
    ``lam_k = 0``).  One full eigensolve with vectors.
    """
    if t < 0:
        raise DomainError(f"t must be >= 0, got {t}")
    mat = build_parity_tridiagonal(params, Truncation(len(phi) - 1), -1)
    spec, vecs = eigensolve(mat, want_vectors=True)
    lam, c = spec.eigenvalues + shift, vecs.T @ phi
    return (float(np.sum(c * c * np.exp(-t * lam))),
            abs(float(np.sum(vecs[-1] * c * t * exprel(-t * lam)))))


def _partition_at(params: ModelParams, t: float, n_max: int) -> float:
    """``partition_ed`` at the cutoff ``n_max``: the flat state is sqrt(2) coherent(0)."""
    flat = np.sqrt(2.0) * coherent_coefficients(0.0, n_max)
    return _odd_chain_element(params, flat, t, 0.0)[0]


def _partition_bound(params: ModelParams, t: float, n_max: int) -> float:
    """A priori bound of the truncation error of ``_partition_at`` (see ``partition_ed``)."""
    m = n_max + 1.0
    return 2.0 * float(np.exp(t * (params.g**2 + params.delta) + xlogy(2 * m, t * abs(params.g))
                              + gammaln(m + 1) - gammaln(2 * m + 1)))


def partition_ed(params: ModelParams, t: float) -> float:
    """Flat-state semigroup element of the spin-boson form at time ``t``.

    The flat state is sqrt(2) times odd-chain position 0, so the element is
    2 (exp(-t T))_00, T the untruncated odd chain.  The cutoff N is the
    first whose a priori bound below is within ``_AUTO_REL_TOL``.

    Enclosure: T is the Jacobi matrix of the spectral measure mu of position
    0 (its off-diagonals ``b_n = g sqrt(n+1)`` are the recurrence
    coefficients of mu's orthogonal polynomials, and sum 1/b_n diverges, so
    mu is unique), and the value at cutoff N,
    ``2 sum_k V[0, k]^2 exp(-t lam_k)``, is the M-point Gauss rule, M = N+1,
    for ``2 int exp(-t lam) dmu``.  Its error is
    ``int f^(2M)(xi(lam)) / (2M)! pi_M(lam)^2 dmu`` with f = exp(-t lam),
    ``pi_M`` the monic orthogonal polynomial and xi(lam) between lam and the
    nodes, so xi is at least the bottom of the spectrum of T, -(g^2 + delta)
    (a displaced oscillator plus a diagonal of norm delta).
    ``f^(2M) = t^(2M) exp(-t lam)`` is positive and, there, at most
    ``t^(2M) exp(t (g^2 + delta))``, and ``int pi_M^2 dmu = prod_{n<M} b_n^2
    = g^(2M) M!``.  Hence
    ``0 <= exact - value <= 2 exp(t (g^2 + delta)) (t |g|)^(2M) M! / (2M)!``.
    """
    return _refined(lambda n_max: (_partition_at(params, t, n_max),
                                   _partition_bound(params, t, n_max)),
                    params, f"the partition element at t={t}")[0]


def _vacuum_enclosure(params: ModelParams, t: float, n_max: int) -> tuple[float, float]:
    """``vacuum_element_ed`` at the cutoff ``n_max`` and the bound of its truncation error."""
    g2, phi = params.g**2, np.sqrt(2.0) * coherent_coefficients(-params.g, n_max)
    value, flux = _odd_chain_element(params, phi, t, g2)
    tail = np.sqrt(2.0 * gammainc(n_max + 1.0, g2))
    cut = g2 * (n_max + 1) * flux**2
    return value, float(np.exp(t * params.delta) * (cut + (2 * np.linalg.norm(phi) + tail) * tail))


def vacuum_element_ed(params: ModelParams, t: float) -> float:
    """Exact value of the shifted vacuum semigroup element at time ``t``.

    This is the matrix element of exp(-t*(K + g^2)) in the displaced flat
    state, the quantity targeted by the jump-path vacuum estimator.  In the
    lab frame that state is the (anti)symmetric pair of coherent states
    displaced by -g and +g; its even-chain component vanishes, and its
    odd-chain one is ``phi = sqrt(2) coherent(-g)``.  K keeps each chain, so
    the element is ``<phi, exp(-t A) phi>`` with A = T + g^2 >= -delta, T
    the untruncated odd chain.  The cutoff N is the first whose bound below
    is within ``_AUTO_REL_TOL``.

    Enclosure, with ``phi_N`` the first N+1 entries of phi, ``A_N`` the cut
    chain and ``b = g sqrt(N+1)`` its coupling to level N+1:

    * Tail: ``phi - phi_N`` has norm tau, ``tau^2 = 2 P(N+1, g^2)`` (the
      regularized incomplete gamma function, a Poisson tail), and
      ``||exp(-t A)|| <= exp(t delta)``, so the tail moves the element by at
      most ``exp(t delta) (2 ||phi_N|| + tau) tau``.
    * Cut: Duhamel's formula, applied twice across the coupling b, gives
      ``<phi_N, (exp(-t A) - exp(-t A_N)) phi_N> = b^2 int int y(s) y(r)
      <e_{N+1}, exp(-(t - s - r) A) e_{N+1}> dr ds`` over ``s + r <= t``,
      with ``y(s) = (exp(-s A_N) phi_N)_N``.  The middle factor lies in
      ``(0, exp(t delta)]``.  With D = diag((-1)^n) for g > 0 (D = 1 for
      g < 0), ``D A_N D`` has non-positive off-diagonals and ``D phi_N >= 0``,
      so ``D exp(-s A_N) phi_N >= 0`` entrywise and y keeps one sign.  The
      double integral is then at most ``(int_0^t y)^2 = J^2``, the flux of
      ``_odd_chain_element``, and the cut moves the element by at most
      ``exp(t delta) g^2 (N+1) J^2``.
    """
    return _refined(lambda n_max: _vacuum_enclosure(params, t, n_max), params,
                    f"the vacuum element at t={t}")[0]
