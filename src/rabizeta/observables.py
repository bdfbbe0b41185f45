"""Exact ground-state observables from the two parity chains.

Everything here is deterministic linear algebra on the truncated matrices of
``model`` and serves as the oracle side for the stochastic estimators: number
moments, Gibbs-weighted number, position characteristic functions, the
pull-through identity, the spin autocorrelation, and semigroup matrix
elements.  All of them exist at ``eps = 0`` only, where the model splits into
the even and odd parity chains and the Monte Carlo side has its quantities.
Each oracle is a value and a bound on its distance from the untruncated
value, both from one solve at one cutoff, and ``_refined`` grows the cutoff
(through ``model.refine``) until the bound certifies.  The bounds cover the
cutoff and the rounding of the levels and vectors they read
(``_rounding``); the arithmetic of the final sums, a few units in the last
place of their terms, is not bounded apart.  Their proofs are in
``_refined`` (ground vector and level sums), ``x_square_exponential_ed``,
``x_characteristic_ed``, ``spin_autocorrelation_ed``, ``partition_ed`` and
``vacuum_element_ed``.  Every eigenvector here is a chain's, from
``model._chain_vectors``.

The ground state of K is the lowest level of the odd chain; that it lies
below the lowest even level is read from the brackets of the two chains'
levels, as the ``parity`` row of ``rabizeta report`` checks, not from a
vector.  Odd-chain position n holds boson level n with spin -1 at even n
and spin +1 at odd n, so the ground vector is stored as the odd chain's
vector, ``GroundState.chain``, one amplitude per boson level, and that map
reads it in the lab frame.  Two exact frame identities put the other oracles
on the chains too.  The Monte Carlo side works in the spin-boson frame
``-delta*sx + g*sz (x) (b + b^dag) + b^dag b``, whose sz is the lab sx: it
flips the spin at fixed boson level and so carries odd-chain position n onto
even-chain position n.  Its flat spin state on the boson vacuum is sqrt(2)
times the lab state (spin -1, level 0), position 0 of the odd chain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solveh_banded
from scipy.special import exprel, gammainc, gammaln, logsumexp, roots_hermite, xlogy

from .errors import ConvergenceError, DomainError, NumericalError, ParameterError
from .model import (
    _AUTO_REL_TOL,
    ModelParams,
    Truncation,
    _backward_error,
    _chain_vectors,
    _variant_spectrum,
    build_parity_tridiagonal,
    coherent_coefficients,
    eigensolve,
    refine,
    turning_point_cutoff,
)

_TINY = np.finfo(float).tiny


def _rounding(n_levels: int) -> float:
    """Relative error ``kappa`` taken for what the bounds read of chain vectors.

    ``model._chain_vectors`` forms each component as a product of ratios,
    each within a few units in the last place of the ratio for the chain
    and computed level (Dhillon & Parlett).  The bounds read three things of
    a chain with ``n_levels`` levels: the ground vector's components, the
    first component of every level (a Gauss weight), and the overlaps
    ``c_k = V[:, k]^T phi``.  Each is taken within ``kappa`` of its size
    (an overlap: within ``kappa sum_n |V[n, k] phi_n|``), and a component
    below the smallest normal double within that of its value.  This is
    the one premise of the bounds here that is not proven.  Against
    vectors computed with 40 to 50 digits on chains at delta = 0.5, g from 1
    to 8 and up to 201 levels, the errors in units of ``n_levels`` eps were at most 2.6 for the
    ground vector, 8.9 for the first components and 0.13 for the overlaps;
    kappa allows 32.  (Components near a sign change of an excited level
    can be worse, and no bound reads them.)
    """
    return 32.0 * n_levels * np.finfo(float).eps


@dataclass
class GroundState:
    """Normalized ground vector of K at ``eps = 0``, as the odd chain's vector.

    ``chain`` is the odd chain's lowest eigenvector ``v`` with ``v[0] > 0``,
    whose entry n is the amplitude of boson level n (the module docstring
    gives its spin).  The untruncated ground energy lies within
    ``error_bound`` of ``energy``, and the untruncated ground vector within
    ``vector_error`` (l2) of the exact eigenvector of the cut chain, whose
    components the stored ones give to the relative error ``_rounding``.
    """

    energy: float
    chain: np.ndarray
    params: ModelParams
    truncation: Truncation
    error_bound: float
    vector_error: float

    @property
    def n_levels(self) -> int:
        return self.chain.size

    def level_weights(self) -> np.ndarray:
        """Probability of each boson level."""
        return self.chain**2


def _refined(solve, params: ModelParams, what: str, start: int | None = None,
             rate: float = 0.0):
    """``solve(n_max)`` at the first cutoff whose enclosure certifies it.

    ``solve`` returns a tuple whose first two entries are a value and a bound
    on its distance from the untruncated value, proven from that one solve.
    ``refine`` starts the cutoff at ``start`` (by default
    ``turning_point_cutoff(1, g)``) and grows it until the bound is at most
    ``_AUTO_REL_TOL`` relative (absolute below 1).  The cap counts the
    states of the truncated K, two per Fock level, even where a solve needs
    only one chain.  The chains exist only at ``eps = 0``, as do the Monte
    Carlo quantities these oracles check, so any other ``eps`` raises
    ``ParameterError``.  A value past the double range raises
    ``NumericalError`` at once: no cutoff brings it back.  So does
    ``ConvergenceError``, before the solve, where the rounding of
    ``exp(-rate lam)`` at every level, ``expm1(rate eta)`` of the value
    (eta the solver's error bound, ``model._backward_error``), alone misses
    the tolerance: eta only grows with the cutoff.

    The sums over the ground vector rest on two proven facts about the
    ground vector ``psi`` of the untruncated odd chain T (diagonal
    ``a_n >= n - delta``, off-diagonal ``b_n = g sqrt(n+1)``), with ``v``
    the exact ground vector of T cut at level N, ``lam`` its level,
    ``w0`` the computed one, ``eta`` the solver's error bound and ``E``,
    ``U`` the ground energy and an upper bound of it:

    * Distance (Davis & Kahan): zero-padded, ``v`` has residual
      ``(T - lam) v = r e_{N+1}``, ``r = |g| sqrt(N+1) |v[N]|``.  Writing
      ``v = cos(theta) psi + sin(theta) u`` with u orthogonal to psi,
      ``r >= sin(theta) dist(lam, spec(T) - {E})``, and that distance is at
      least ``E1 - w0 - eta`` for any lower bound E1 of level 1, here its
      Kato-Temple end from the same solve (``model.refine``).  So
      ``||v - psi|| <= sqrt(2) sin(theta) <= sqrt(2) r / (E1 - w0 - eta)``,
      ``GroundState.vector_error``; a last component below the smallest
      normal double counts as that.
    * Decay past the cutoff: for j > N, ``|psi_j| <= rho_j |psi_{j-1}|``
      with ``rho_j = c |g| / sqrt(j)``, where c > 1 solves
      ``g^2 c^2 - (N + 1 - delta - U) c + N + 1 = 0`` (its smaller root).
      The ground vector alternates in sign (g > 0; keeps it for g < 0), so
      the ratios ``t_j = |psi_j / psi_{j-1}|`` obey
      ``t_j = |b_{j-1}| / (a_j - E - |b_j| t_{j+1})``, and that c makes rho
      a supersolution for every j > N:
      ``|b_{j-1}| / (a_j - E - |b_j| rho_{j+1}) <= rho_j``.  If
      ``t_j > rho_j`` for one such j, then ``t_{j+1} > rho_{j+1}``, and so on
      for every later row; then ``t_{i+1} = (a_i - E - |b_{i-1}| / t_i) / |b_i|
      > (i (1 - 1/c) - delta - U) / (|g| sqrt(i+1))``, which grows without
      bound, and psi would not be square summable.  So with
      ``|psi_N| <= |v[N]| + ||v - psi||``, a weighted tail
      ``sum_{n>N} |psi_n|^p f_n`` with ``f_{n+1} <= gamma f_n`` is at most
      ``f_N |psi_N|^p q / (1 - q)``, ``q = gamma (c |g| / sqrt(N+1))^p < 1``
      (``_tail``).

    Level sums ``sum_n w(n) psi_n^2`` (``_level_sum``), with
    ``|w(n+1) / w(n)|`` non-increasing past N, then differ from the
    stored sum ``sum_{n<=N} w(n) x_n^2`` by at most
    ``2 W d + 3 kappa sum |w(n)| x_n^2 + |w(N)| tail``: ``W`` the largest
    ``|w(n)|``, n <= N, times ``||psi_N - v|| ||psi_N + v|| <= 2 d``
    (d = ``vector_error``); ``|x_n^2 - v_n^2| <= 3 kappa x_n^2`` for the
    stored x; and the dropped levels.
    """
    if params.eps != 0.0:
        raise ParameterError(f"{what} needs the parity chains, at eps = 0 (got {params.eps})")

    def checked(n_max):
        eta = _backward_error(build_parity_tridiagonal(params, Truncation(n_max), -1))
        if np.expm1(rate * eta) > _AUTO_REL_TOL:
            raise ConvergenceError(f"{what}: level rounding alone misses the tolerance")
        return solve(n_max)

    def certified(solved):
        if not np.isfinite(solved[0]):
            raise NumericalError(f"{what} is {solved[0]}, past the double range")
        delta = solved[1] / max(1.0, abs(solved[0]))
        return delta <= _AUTO_REL_TOL, delta

    # an overflowing bound grows the cutoff; an overflowing value raises in certified
    with np.errstate(all="ignore"):
        solved, _ = refine(checked, start or turning_point_cutoff(1, params.g), certified, 2, what)
    return solved


def _ground_state_at(params: ModelParams, n_max: int) -> GroundState:
    """Ground state at the fixed cutoff ``n_max``, its energy and vector bounded.

    One eigenvalue solve of the odd chain, ``model._variant_spectrum`` of
    ``parity-``: the Kato-Temple brackets of its levels (``model.refine`` has
    the proof) enclose the energy and give the gap of ``vector_error``
    (``_refined`` has the proof), and ``model._chain_vectors`` gives the
    vector at the computed level.
    """
    spec = _variant_spectrum(params, n_max, "parity-", 1)
    w, widths = spec.eigenvalues, spec.error_bound
    v = _chain_vectors(build_parity_tridiagonal(params, Truncation(n_max), -1), w[:1])[:, 0]
    gap = w[1] - widths[1] - w[0] - spec.backward_error
    resid = abs(params.g) * np.sqrt(2.0 * n_max + 2.0) * max(abs(v[-1]), _TINY)  # sqrt(2) r
    return GroundState(float(w[0]), v, params, Truncation(n_max), float(widths[0]),
                       float(resid / gap) if gap > 0 else np.inf)


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
    ``eps != 0``.  The oracles on the vector certify their own values, from
    this cutoff on.
    """
    def solve(n_max):
        gs = _ground_state_at(params, n_max)
        return gs.energy, gs.error_bound, gs

    return _refined(solve, params, "the ground energy")[2]


def _ground_certified(gs: GroundState, evaluate, what: str, rate: float = 0.0):
    """The value of ``evaluate(state) -> (value, bound)`` that ``_refined`` certifies.

    The first state is ``gs`` itself, with no solve; a larger cutoff solves
    the ground state there.
    """
    def solve(n_max):
        return evaluate(gs if n_max == gs.truncation.n_max else _ground_state_at(gs.params, n_max))

    return _refined(solve, gs.params, what, gs.truncation.n_max, rate)[0]


def _tail(gs: GroundState, power: int, growth: float) -> float:
    """``T`` with ``sum_{n>N} |psi_n|^power f_n <= f_N T`` when ``f_{n+1} <= growth f_n``.

    The decay of the untruncated ground vector past the cutoff N, proven in
    ``_refined``; ``inf`` where the proof does not reach (the cutoff is
    short of the turning point, or the weights outgrow the decay).
    """
    g, rows = abs(gs.params.g), gs.truncation.n_max + 1.0
    s = rows - gs.params.delta - gs.energy - gs.error_bound
    disc = s * s - 4.0 * g * g * rows
    c = (s - np.sqrt(max(disc, 0.0))) / (2.0 * g * g) if g else 0.0
    q = growth * (c * g / np.sqrt(rows)) ** power
    if g and (disc <= 0.0 or s <= 2.0 * g * g or c <= 1.0) or q >= 1.0:
        return np.inf
    last = abs(gs.chain[-1]) * (1.0 + 2.0 * _rounding(gs.n_levels)) + _TINY + gs.vector_error
    return last**power * q / (1.0 - q)


def _level_sum(gs: GroundState, weight, what: str) -> complex:
    """``sum_n weight(n) psi_n^2`` over the untruncated ground vector, certified.

    ``|weight(n+1) / weight(n)|`` must not increase with n; the bound is
    proven in ``_refined``.  A weight past the double range counts as the
    largest double in the bound.
    """
    def evaluate(state):
        w = weight(np.arange(state.n_levels + 1.0))
        size = np.minimum(np.abs(w), np.finfo(float).max)
        x2 = state.level_weights()
        return complex(np.sum(w[:-1] * x2)), (
            2.0 * size[:-1].max() * state.vector_error
            + 3.0 * _rounding(state.n_levels) * np.sum(size[:-1] * x2)
            + size[-2] * _tail(state, 2, size[-1] / max(size[-2], _TINY)))

    return _ground_certified(gs, evaluate, what)


def number_parity_expectation(gs: GroundState) -> float:
    """<(-1)^n> over boson levels, ``gibbs_number_ed`` at i*pi; positive for the ground state."""
    return gibbs_number_ed(gs, 1j * np.pi).real


def number_moment_ed(gs: GroundState, m: int) -> float:
    """m-th moment of the boson number, sum n^m |c_n|^2, certified by ``_level_sum``."""
    if not 0 <= m <= 8:
        raise ParameterError(f"moment order must be in [0, 8], got {m}")
    return _level_sum(gs, lambda n: n**m, f"<n^{m}>").real


def gibbs_number_ed(gs: GroundState, beta: complex) -> complex:
    """<exp(beta * n)> over the ground state, for real or imaginary beta.

    Certified by ``_level_sum``; at real beta > 0 the ground state's
    cutoff, sized by its energy, is often too short, and the sum is taken
    over the ground vector solved at a larger one.
    """
    beta = np.real(beta) if np.imag(beta) == 0 else beta  # a real value takes real arithmetic
    return _level_sum(gs, lambda n: np.exp(beta * n), f"<exp({beta}*n)>")


def _hermite_sums(x: np.ndarray, chain: np.ndarray):
    """Scaled values of the two spin components of sum_n chain[n] h_n(x) at the points ``x``.

    ``h_n`` are the Hermite polynomials orthonormal under exp(-x^2), so that
    h_n(x) exp(-x^2/2) are the normalized Hermite functions; they follow the
    recurrence h_{n+1} = sqrt(2/(n+1)) x h_n - sqrt(n/(n+1)) h_{n-1}.  Each
    point carries its own log scale, raised whenever h_n grows past 1e100, so
    nothing overflows at any node.  Returns ``(last, sums, log_scale)`` with
    h_{N-1}(x) = last * exp(log_scale) and the sums over even n (spin -1)
    and over odd n (spin +1), sums[0] and sums[1] times exp(log_scale),
    where N = chain.size.
    """
    h_prev = np.zeros_like(x)
    h = np.full_like(x, np.pi**-0.25)
    sums = np.zeros((2, x.size))
    sums[0] = h * chain[0]
    log_scale = np.zeros_like(x)
    for n in range(1, chain.size):
        h_prev, h = h, np.sqrt(2.0 / n) * x * h - np.sqrt((n - 1) / n) * h_prev
        sums[n % 2] += h * chain[n]
        big = np.abs(h) > 1e100
        if big.any():
            scale = np.where(big, np.abs(h), 1.0)
            h, h_prev = h / scale, h_prev / scale
            sums /= scale
            log_scale += np.log(scale)
    return h, sums, log_scale


def _hermite_density(chain: np.ndarray, n_nodes: int, stretch: float):
    """Gauss-Hermite nodes y_j and ``log(w_j |psi(y_j / stretch)|^2)``, psi the ``chain``'s.

    The ``n_nodes`` nodes come from ``roots_hermite`` (Golub & Welsch 1969);
    the weights ``1/(n_nodes h_{n_nodes-1}(y_j)^2)`` are formed in the log
    domain, so they keep relative accuracy where they fall far below the
    smallest double.  The squared modulus adds the two spin components of
    ``_hermite_sums``.
    """
    y, _ = roots_hermite(n_nodes)
    last, _, log_scale = _hermite_sums(y, np.zeros(n_nodes))
    log_w = -np.log(n_nodes) - 2.0 * (np.log(np.abs(last)) + log_scale)
    log_w -= logsumexp(log_w) - 0.5 * np.log(np.pi)  # sum of weights is sqrt(pi)
    _, sums, log_scale = _hermite_sums(y / stretch, chain)
    return y, log_w + 2.0 * log_scale + np.log(sums[0]**2 + sums[1]**2)


def x_characteristic_ed(gs: GroundState, beta: float) -> complex:
    """<exp(i*beta*x)> over the ground state, by Gauss-Hermite quadrature.

    With N + 1 stored levels, ``P(y) = sum_n x_n h_n(y)`` has degree N, and
    the rule takes M = N + K/2 + 1 nodes, K the even number
    ``2 ceil(max(N + 1, 55 beta^2, 20))``.  Split exp(i beta y) into its Taylor
    polynomial of degree K - 1, which the rule integrates against
    ``P^2 exp(-y^2)`` without error, and a rest of modulus at most
    ``(|beta| |y|)^K / K!``.  The rule is also exact for ``y^K P^2``, and
    ``int y^K P^2 exp(-y^2) = ||X^(K/2) x||^2 <= (2N + K)^(K/2)`` (X, the
    position, raises the level by at most one, with norm at most
    ``sqrt(2 (L + 1))`` on levels up to L), so the rule misses by at most
    ``2 (|beta| sqrt(2N + K))^K / K! <= 2 (e |beta| sqrt(2 / K))^K``
    (2N + K <= 2K and ``K! >= (K / e)^K``), below ``2 exp(-K)`` as
    ``K >= 110 beta^2 > 2 e^4 beta^2``.
    |exp(i beta x)| = 1, so the vector enters as ``2 d + 3 kappa`` (d the
    ``vector_error`` and kappa the ``_rounding`` of the stored vector).
    """
    def evaluate(state):
        half = int(np.ceil(max(state.n_levels, 55.0 * beta * beta, 20.0)))
        y, log_terms = _hermite_density(state.chain, state.n_levels + half, 1.0)
        return complex(np.sum(np.exp(log_terms + 1j * beta * y))), 2.0 * (
            np.exp(-2.0 * half) + state.vector_error + 1.5 * _rounding(state.n_levels))

    return _ground_certified(gs, evaluate, f"<exp(i*{beta}*x)>")


def x_square_exponential_ed(gs: GroundState, beta: float) -> float:
    """<exp(beta*x^2)> over the ground state; defined only for |beta| < 1.

    For the stored state, cut to its N + 1 levels, the value is exact:
    with y = sqrt(1-beta) x the integrand becomes exp(-y^2) times a
    polynomial of degree 2N in y, which Gauss-Hermite quadrature with N + 1
    nodes integrates without error; the wave function comes from the
    Hermite-function recurrence in the log domain.

    Bound.  With A = exp(beta x^2) and ``a_n = ||A^(1/2) e_n||``, the
    Mehler kernel gives ``sum_n a_n^2 t^n = (1 - beta)^(-1/2) (1 - t)^(-1/2)
    (1 - t (1 + beta) / (1 - beta))^(-1/2)``, so a_n^2 is a convolution of
    the central binomial coefficients ``binom(2k, k) / 4^k`` (which sum to 1
    along each antidiagonal) and ``a_n^2 <= (1 - beta)^(-1/2) rho^n``,
    ``rho = max(1, (1 + beta) / (1 - beta))``.  For the stored vector x and
    the untruncated psi, ``|<psi|A|psi> - <x|A|x>| <= D (2 sqrt(value) + D)``
    with ``D >= ||A^(1/2) (psi - x)||``, and D sums, over the levels, three
    parts: the rounding, ``sum_n (kappa |x_n| + tiny) a_n``, with an
    underflowed component counted at the smallest normal double; the cut,
    ``d (sum_{n<=N} a_n^2)^(1/2)`` by Cauchy-Schwarz (d the
    ``vector_error``); and the tail ``sum_{n>N} |psi_n| a_n`` (``_tail``
    with growth sqrt(rho)).  All three are formed in the log domain, since
    a_n passes the double range long before the value does.

    Hopeless cutoffs.  The rounding part holds the floor
    ``F_N = tiny sum_{n<=N} a_n``, which only grows with the cutoff N: near
    beta = 1, rho nears infinity and F_N passes any value.  So
    ``ConvergenceError`` is raised once the solve at N proves that no
    cutoff N' >= N can certify.  Every D' there is at least F_N, and
    ``U = sqrt(value) + D`` bounds ``||A^(1/2) psi||`` from the solve at N.
    A certified value V' at N' has ``D' (2 sqrt(V') + D') <= tau max(1, V')``
    (tau = ``_AUTO_REL_TOL``): below V' = 1 that needs ``D'^2 <= tau``; above
    it, ``sqrt(V') >= 2 D' / tau``, with ``sqrt(V') <= ||A^(1/2) psi|| + D'``,
    so ``U >= D' (2 / tau - 1)``.  Both fail when ``F_N > sqrt(tau)`` and
    ``U < F_N (2 / tau - 1)``.
    """
    if abs(beta) >= 1:
        raise DomainError(f"<exp(beta*x^2)> diverges for |beta| >= 1, got {beta}")
    rho = max(1.0, (1.0 + beta) / (1.0 - beta))

    def evaluate(state):
        log_a = 0.5 * (np.arange(state.n_levels) * np.log(rho) - 0.5 * np.log1p(-beta))
        log_value = (logsumexp(_hermite_density(state.chain, state.n_levels,
                                                np.sqrt(1.0 - beta))[1]) - 0.5 * np.log1p(-beta))
        log_dist = logsumexp([
            logsumexp(log_a + np.log(_rounding(state.n_levels) * np.abs(state.chain) + _TINY)),
            np.log(state.vector_error) + 0.5 * logsumexp(2.0 * log_a),
            log_a[-1] + np.log(_tail(state, 1, np.sqrt(rho)))])
        log_floor = np.log(_TINY) + logsumexp(log_a)
        if (log_floor > 0.5 * np.log(_AUTO_REL_TOL) and np.logaddexp(0.5 * log_value, log_dist)
                < log_floor + np.log(2.0 / _AUTO_REL_TOL - 1.0)):
            raise ConvergenceError(f"<exp({beta}*x^2)>: the rounding floor of underflowed "
                                   "components alone misses the tolerance at every cutoff")
        dist = np.exp(log_dist)
        return float(np.exp(log_value)), dist * (2.0 * np.exp(0.5 * log_value) + dist)

    return _ground_certified(gs, evaluate, f"<exp({beta}*x^2)>")


def resolvent_spin_norm(gs: GroundState) -> float:
    """Squared norm of (M - E + 1)^{-1} sz |ground>, via a banded Cholesky solve.

    M is the spin-boson form and sz its spin operator, the lab sx; sz |ground>
    is the ground chain vector psi on the even chain T+, which M leaves
    invariant, and ``A = T+ - E + 1 >= 1`` (E is the lowest level of K).
    The solve takes ``A' = T+ - w0 + 1`` cut to N + 1 levels, w0 within e
    (``error_bound``) of E, on the stored x, within ``d + kappa`` of psi
    (``vector_error``, ``_rounding``).  With y that solution, zero-padded,
    ``A' y = x + b y[N] e_{N+1}``, ``b = g sqrt(N+1)``, and
    ``||A^-1 - A'^-1|| <= e / (1 - e)``, so ``||A^-1 psi - y|| <= D =
    (e + d + kappa + b |y[N]|) / (1 - e)`` and the value moves by at most
    ``D (2 ||y|| + D)``.
    """
    def evaluate(state):
        bands = build_parity_tridiagonal(state.params, state.truncation, +1).bands
        bands[0] += 1.0 - state.energy
        sol = solveh_banded(bands, state.chain, lower=True)
        e, norm = state.error_bound, float(np.sqrt(sol @ sol))
        dist = (e + state.vector_error + _rounding(state.n_levels)
                + abs(state.params.g * sol[-1]) * np.sqrt(sol.size)) / (1.0 - min(e, 1.0))
        return norm**2, dist * (2.0 * norm + dist)

    return _ground_certified(gs, evaluate, "the spin resolvent norm")


def pull_through_residual(gs: GroundState) -> float:
    """Relative mismatch of |b psi|^2 = g^2 |(M - E + 1)^{-1} sz psi|^2.

    The identity is exact in the untruncated model; at a converged cutoff the
    relative residual stays below 1e-6.  Returns 0 when both sides vanish.
    |b psi|^2 is the mean boson number.
    """
    lhs = number_moment_ed(gs, 1)
    rhs = gs.params.g**2 * resolvent_spin_norm(gs)
    denom = max(lhs, rhs)
    return abs(lhs - rhs) / denom if denom else 0.0


def spin_autocorrelation_ed(gs: GroundState, lag: float) -> float:
    """<sz exp(-lag*(M - E)) sz> in the spin-boson frame, from the even chain.

    sz |ground> is the ground vector psi on the even chain T+, so this is
    ``<psi| B |psi>``, ``B = exp(-lag (T+ - E))``, E the ground energy,
    the lowest level of K, so ``||B|| <= 1``.  The stored energy ``w0`` is
    within ``e`` (its ``error_bound``) of E, so ``B' = exp(-lag (T+ - w0))``
    has norm at most ``exp(lag e)`` and moves the value by at most
    ``expm1(lag e) exp(lag e)``.  The stored vector x is within
    ``d + kappa`` of psi (``vector_error``, ``_rounding``), which moves
    ``<.|B'|.>`` by at most ``exp(lag e) (2 d + 3 kappa)``.  x alternates in
    sign as psi does, so the Duhamel bound of ``vacuum_element_ed`` cuts B'
    to the chain's N + 1 levels at ``exp(lag e) g^2 (N+1) J^2``, and
    ``_chain_element`` bounds its own rounding.
    """
    if not 0.0 <= lag < np.inf:
        raise DomainError(f"lag must be finite and >= 0, got {lag}")

    def evaluate(state):
        value, cut, rounding = _chain_element(state.params, +1, state.chain, lag, -state.energy)
        grow = np.expm1(lag * state.error_bound)
        return value, rounding + (1.0 + grow) * (grow + cut + 2.0 * state.vector_error
                                                 + 3.0 * _rounding(state.n_levels))

    return _ground_certified(gs, evaluate, f"the spin autocorrelation at lag {lag}", lag)


def _chain_element(params: ModelParams, parity: int, phi: np.ndarray, t: float,
                   shift: float) -> tuple[float, float, float]:
    """``<phi| exp(-t (T_N + shift)) |phi>``, its cut ``g^2 (N+1) J^2`` and its rounding.

    ``T_N`` is the chain of ``parity`` cut to the ``len(phi)`` levels of
    ``phi``, and ``T_N + shift`` has eigenpairs ``(lam_k, V[:, k])``; with
    ``c = V^T phi``, ``J = |int_0^t (exp(-s (T_N + shift)) phi)_N ds|
    = |sum_k V[N, k] c_k (1 - exp(-t lam_k)) / lam_k|`` (t V[N, k] c_k where
    ``lam_k = 0``).  One eigenvalue solve; the vectors come from
    ``model._chain_vectors``.

    Rounding: each computed level is within eta, the solver's error bound,
    of the exact one, which moves the value by at most ``expm1(t eta)`` of
    it; each ``c_k`` is within ``kappa s_k`` (``_rounding``) of its exact
    value, ``s = |V|^T |phi|``, which moves it by at most
    ``3 kappa exp(t eta) sum_k s_k^2 exp(-t lam_k)``.
    """
    if t < 0:
        raise DomainError(f"t must be >= 0, got {t}")
    mat = build_parity_tridiagonal(params, Truncation(len(phi) - 1), parity)
    w = eigensolve(mat)
    vecs = _chain_vectors(mat, w)
    lam, c = w + shift, vecs.T @ phi
    decay, eta = np.exp(-t * lam), t * _backward_error(mat)
    value = float(np.sum(c * c * decay))
    rounding = np.expm1(eta) * value + 3.0 * _rounding(len(phi)) * np.exp(eta) * float(
        np.sum((np.abs(vecs).T @ np.abs(phi)) ** 2 * decay))
    flux = float(np.sum(vecs[-1] * c * t * exprel(-t * lam)))
    return value, params.g**2 * len(phi) * flux**2, rounding


def _partition_enclosure(params: ModelParams, t: float, n_max: int) -> tuple[float, float]:
    """``partition_ed`` at the cutoff ``n_max`` and the bound of its error (see ``partition_ed``).

    The flat state is sqrt(2) coherent(0), position 0 of the odd chain.
    """
    flat = np.sqrt(2.0) * coherent_coefficients(0.0, n_max)
    value, duhamel, rounding = _chain_element(params, -1, flat, t, 0.0)
    m, growth = n_max + 1.0, t * (params.g**2 + params.delta)
    gauss = 2.0 * float(np.exp(growth + xlogy(2 * m, t * abs(params.g))
                               + gammaln(m + 1) - gammaln(2 * m + 1)))
    return value, min(gauss, float(np.exp(growth)) * duhamel) + rounding


def partition_ed(params: ModelParams, t: float) -> float:
    """Flat-state semigroup element of the spin-boson form at time ``t``.

    The flat state is sqrt(2) times odd-chain position 0, so the element is
    2 (exp(-t T))_00, T the untruncated odd chain.  The cutoff N is the
    first whose bound below, plus the rounding of ``_chain_element``, is
    within ``_AUTO_REL_TOL``.

    Enclosure: T is the Jacobi matrix of the spectral measure mu of position
    0 (its off-diagonals ``b_n = g sqrt(n+1)`` are the recurrence
    coefficients of mu's orthogonal polynomials, and sum 1/b_n diverges, so
    mu is unique), and the value at cutoff N,
    ``2 sum_k V[0, k]^2 exp(-t lam_k)``, is the M-point Gauss rule, M = N+1,
    for ``2 int exp(-t lam) dmu``; its weights ``V[0, k]^2`` come from
    ``model._chain_vectors`` to a small relative error each, so levels far
    above the ground level with tiny weights still count at their size.  Its
    error is
    ``int f^(2M)(xi(lam)) / (2M)! pi_M(lam)^2 dmu`` with f = exp(-t lam),
    ``pi_M`` the monic orthogonal polynomial and xi(lam) between lam and the
    nodes, so xi is at least the bottom of the spectrum of T, -(g^2 + delta)
    (a displaced oscillator plus a diagonal of norm delta).
    ``f^(2M) = t^(2M) exp(-t lam)`` is positive and, there, at most
    ``t^(2M) exp(t (g^2 + delta))``, and ``int pi_M^2 dmu = prod_{n<M} b_n^2
    = g^(2M) M!``.  Hence
    ``0 <= exact - value <= 2 exp(t (g^2 + delta)) (t |g|)^(2M) M! / (2M)!``.

    The Duhamel cut of ``vacuum_element_ed`` holds too, with A = T and
    ``phi_N`` the flat state: the flat state has no tail, ``D phi_N >= 0``
    as it lies on level 0, and the middle factor lies in
    ``(0, exp(t (g^2 + delta))]``, so
    ``0 <= exact - value <= exp(t (g^2 + delta)) g^2 (N+1) J^2``.  The
    smaller of the two cuts is taken.  The Gauss cut falls only once M
    passes about ``(t g)^2 / 4``: at t = 20, g = 1 and N = 37 it reads about
    4e45 and the Duhamel cut about 2e-10, against a value near 1.07e10.
    At t = 2, g = 5 the Gauss cut is the smaller one.
    """
    return _refined(lambda n_max: _partition_enclosure(params, t, n_max), params,
                    f"the partition element at t={t}", rate=t)[0]


def _vacuum_enclosure(params: ModelParams, t: float, n_max: int) -> tuple[float, float]:
    """``vacuum_element_ed`` at the cutoff ``n_max`` and the bound of its error."""
    g2, phi = params.g**2, np.sqrt(2.0) * coherent_coefficients(-params.g, n_max)
    value, cut, rounding = _chain_element(params, -1, phi, t, g2)
    tail = np.sqrt(2.0 * gammainc(n_max + 1.0, g2))
    return value, float(np.exp(t * params.delta) * (cut + (2 * np.linalg.norm(phi) + tail) * tail)
                        + rounding)


def vacuum_element_ed(params: ModelParams, t: float) -> float:
    """Exact value of the shifted vacuum semigroup element at time ``t``.

    This is the matrix element of exp(-t*(K + g^2)) in the displaced flat
    state, the quantity targeted by the jump-path vacuum estimator.  In the
    lab frame that state is the (anti)symmetric pair of coherent states
    displaced by -g and +g; its even-chain component vanishes, and its
    odd-chain one is ``phi = sqrt(2) coherent(-g)``.  K keeps each chain, so
    the element is ``<phi, exp(-t A) phi>`` with A = T + g^2 >= -delta, T
    the untruncated odd chain.  The cutoff N is the first whose bound below,
    plus the rounding of ``_chain_element``, is within ``_AUTO_REL_TOL``.

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
      ``_chain_element``, and the cut moves the element by at most
      ``exp(t delta) g^2 (N+1) J^2``.
    """
    return _refined(lambda n_max: _vacuum_enclosure(params, t, n_max), params,
                    f"the vacuum element at t={t}", rate=t)[0]
