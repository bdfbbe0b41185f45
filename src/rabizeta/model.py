"""Finite matrix realizations of the quantum Rabi family.

The model couples a two-level system (splitting ``delta``) to a single
bosonic mode (unit frequency) with strength ``g``, optionally tilted by an
asymmetry term ``eps``:

    K = delta*sz (x) 1 + 1 (x) n + g*sx (x) (a + a^dag) + eps*sx (x) 1

All matrices here are real symmetric with bandwidth at most two, obtained by
truncating the Fock ladder at ``n_max``:

* ``build_full_hamiltonian`` realizes K in a parity-interleaved ordering in
  which the even/odd Z2 sectors occupy the even/odd indices.  At ``eps = 0``
  the two sectors decouple exactly into interleaved tridiagonal chains.
* ``build_parity_tridiagonal`` is one such chain on its own: diagonal
  ``n + parity*delta*(-1)**n``, off-diagonal ``g*sqrt(n+1)`` (the parity
  chains of Casanova et al., PRL 105, 263603 (2010)).  Every spectrum at
  ``eps = 0`` comes from the two chains, and so does every exact
  ground-state observable (``observables``).

Eigenvalues are obtained by LAPACK band/tridiagonal solvers behind the
``eigensolve`` contract.  Every cutoff the package chooses for itself goes
through one refiner, ``refine``: it solves at a start cutoff and at growing
ones, ``n -> ceil(1.3 n)``, until two consecutive results agree, and no
cutoff it tries, the start included, may exceed ``MAX_STATES`` states.
``turning_point_cutoff`` sets the start, for eigenvalues and for the
ground-state oracles alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eig_banded, eigh_tridiagonal, eigvals_banded

from .errors import ConvergenceError, NumericalError, ParameterError, UnsupportedConfigError

# Hard cap on matrix dimension for adaptive refinement (2**20 basis states).
MAX_STATES = 1 << 20

# Each cutoff ``refine`` tries after the first is ceil(_GROWTH * the one before).
_GROWTH = 1.3


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters: level splitting, coupling, asymmetry, zeta shift."""

    delta: float
    g: float
    eps: float = 0.0
    tau: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.delta) or self.delta < 0:
            raise ParameterError(f"delta must be a finite nonnegative real, got {self.delta}")
        if not np.isfinite(self.g):
            raise ParameterError(f"g must be finite, got {self.g}")
        if not np.isfinite(self.eps) or self.eps < 0:
            raise ParameterError(f"eps must be a finite nonnegative real, got {self.eps}")
        if not np.isfinite(self.tau) or self.tau <= 0:
            raise ParameterError(f"tau must be positive, got {self.tau}")

    def require_zeta_shift(self):
        """Enforce ``tau > delta + eps`` (positivity of every shifted level)."""
        if self.tau <= self.delta + self.eps:
            raise ParameterError(
                f"zeta evaluation requires tau > delta + |eps| "
                f"(tau={self.tau}, delta={self.delta}, eps={self.eps})"
            )

    def require_spin_rate(self):
        """Enforce ``delta > 0`` where a rate-delta spin process is sampled."""
        if self.delta <= 0:
            raise ParameterError("a rate-delta spin process requires delta > 0")


@dataclass(frozen=True)
class Truncation:
    """Fock cutoff: boson levels 0..n_max are kept."""

    n_max: int

    def __post_init__(self):
        if self.n_max < 1:
            raise ParameterError(f"n_max must be >= 1, got {self.n_max}")


class SymBandMatrix:
    """Real symmetric banded matrix in LAPACK lower form.

    ``bands[k, i]`` holds the entry ``M[i + k, i]``; row 0 is the diagonal.
    """

    def __init__(self, bands: np.ndarray):
        bands = np.ascontiguousarray(np.atleast_2d(np.asarray(bands, dtype=float)))
        if bands.ndim != 2 or bands.shape[1] < 1:
            raise ParameterError("bands must be a (bandwidth+1, dim) array")
        self.bands = bands

    @property
    def dim(self) -> int:
        return self.bands.shape[1]

    @property
    def bandwidth(self) -> int:
        return self.bands.shape[0] - 1

    def to_dense(self) -> np.ndarray:
        n = self.dim
        dense = np.zeros((n, n))
        for k in range(self.bandwidth + 1):
            vals = self.bands[k, : n - k]
            idx = np.arange(n - k)
            dense[idx + k, idx] = vals
            dense[idx, idx + k] = vals
        return dense

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v)
        out = self.bands[0] * v
        for k in range(1, self.bandwidth + 1):
            band = self.bands[k, : self.dim - k]
            out[k:] += band * v[: self.dim - k]
            out[: self.dim - k] += band * v[k:]
        return out

    def shifted(self, c: float) -> "SymBandMatrix":
        bands = self.bands.copy()
        bands[0] += c
        return SymBandMatrix(bands)

    def norm_upper_bound(self) -> float:
        """Infinity-norm bound, cheap scale reference for residual tests."""
        return float(np.sum(np.abs(self.bands), axis=0).max() * 2 - np.abs(self.bands[0]).min())


@dataclass
class Spectrum:
    """Ascending eigenvalues with optional parity tags and cutoff metadata.

    ``converged_count`` is the number of leading eigenvalues that passed the
    cutoff-stability test; 0 means stability was never assessed.
    ``refinement`` holds ``(n_max, delta)`` for each cutoff ``refine`` tried,
    ``delta`` being the largest relative change of the required levels from
    the cutoff before (None for the first); empty when nothing was refined.
    """

    eigenvalues: np.ndarray
    parity: np.ndarray | None = None
    truncation: Truncation | None = None
    converged_count: int = 0
    refinement: tuple = ()

    def __post_init__(self):
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=float)
        if np.any(np.diff(self.eigenvalues) < 0):
            raise NumericalError("eigenvalues must be nondecreasing")
        if self.parity is not None:
            self.parity = np.asarray(self.parity)
            if self.parity.shape != self.eigenvalues.shape:
                raise ParameterError("parity tags must align with eigenvalues")

    def __len__(self) -> int:
        return len(self.eigenvalues)


def full_basis_labels(n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spin, Fock index, and Z2 charge of each basis vector of the full model.

    Index ``i`` maps to chain position ``m = i // 2`` and chain ``c = i % 2``;
    the state is ``(spin, fock) = ((-1)**(m+c), m)`` and its conserved charge
    ``spin * (-1)**fock`` equals ``(-1)**c``.
    """
    i = np.arange(2 * (n_max + 1))
    m, c = i // 2, i % 2
    spin = np.where((m + c) % 2 == 0, 1, -1)
    charge = np.where(c == 0, 1, -1)
    return spin, m, charge


def build_full_hamiltonian(params: ModelParams, trunc: Truncation) -> SymBandMatrix:
    """Truncated matrix of K (or its asymmetric tilt when ``eps != 0``).

    Parity-interleaved ordering: even indices carry the Z2-even chain, odd
    indices the Z2-odd chain, so the coupling sits on the second band and the
    asymmetry term on the first.
    """
    n_max = trunc.n_max
    dim = 2 * (n_max + 1)
    spin, fock, _ = full_basis_labels(n_max)
    bands = np.zeros((3, dim))
    bands[0] = fock + params.delta * spin
    # eps couples (spin, n) <-> (-spin, n): neighbours within one Fock level.
    bands[1, 0 : dim - 1 : 2] = params.eps
    m = np.arange(dim - 2) // 2
    bands[2, : dim - 2] = params.g * np.sqrt(m + 1.0)
    return SymBandMatrix(bands)


def build_parity_tridiagonal(params: ModelParams, trunc: Truncation, parity: int) -> SymBandMatrix:
    """One Z2 sector of the full model as an (n_max+1)-dim tridiagonal chain."""
    if params.eps != 0.0:
        raise UnsupportedConfigError("parity sectors exist only at eps = 0")
    if parity not in (+1, -1):
        raise ParameterError(f"parity must be +1 or -1, got {parity}")
    n = np.arange(trunc.n_max + 1)
    bands = np.zeros((2, trunc.n_max + 1))
    bands[0] = n + parity * params.delta * np.where(n % 2 == 0, 1.0, -1.0)
    bands[1, :-1] = params.g * np.sqrt(n[:-1] + 1.0)
    return SymBandMatrix(bands)


def coherent_coefficients(amplitude: float, n_max: int) -> np.ndarray:
    """Fock coefficients of a coherent state with real displacement amplitude."""
    n = np.arange(n_max + 1)
    with np.errstate(divide="ignore"):
        log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n_max + 1)))))
    if amplitude == 0.0:
        coeffs = np.zeros(n_max + 1)
        coeffs[0] = 1.0
        return coeffs
    sign = np.sign(amplitude) ** n
    log_mag = n * np.log(abs(amplitude)) - 0.5 * log_fact - amplitude**2 / 2.0
    return sign * np.exp(log_mag)


def eigensolve(mat: SymBandMatrix, k: int | None = None, want_vectors: bool = False):
    """Ascending eigenvalues (and optionally vectors) of a symmetric band matrix.

    Eigenvalues alone come from the band solver at any bandwidth; vectors of
    a tridiagonal matrix from the tridiagonal solver, and of a wider one from
    the band solver (LAPACK).  Returned eigenvectors are checked to satisfy
    ``|M v - lam v| <= 1e-10 * scale(M)``.

    Returns ``Spectrum`` or ``(Spectrum, vectors)`` with vectors in columns.
    """
    if k is not None and not 1 <= k <= mat.dim:
        raise ParameterError(f"k must be in [1, {mat.dim}], got {k}")
    select = "a" if k is None else "i"
    select_range = None if k is None else (0, k - 1)
    try:
        if not want_vectors:
            w = eigvals_banded(mat.bands, lower=True, select=select, select_range=select_range)
        elif mat.bandwidth == 1:
            w, v = eigh_tridiagonal(
                mat.bands[0], mat.bands[1, :-1],
                select=select, select_range=select_range,
            )
        else:
            w, v = eig_banded(
                mat.bands, lower=True, select=select, select_range=select_range,
            )
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure path
        raise NumericalError(f"band eigensolver failed to converge: {exc}") from exc

    order = np.argsort(w, kind="stable")
    w = np.asarray(w, dtype=float)[order]
    spectrum = Spectrum(eigenvalues=w)
    if not want_vectors:
        return spectrum
    v = np.asarray(v)[:, order]
    scale = max(mat.norm_upper_bound(), 1.0)
    resid = max(
        float(np.linalg.norm(mat.matvec(v[:, j]) - w[j] * v[:, j])) for j in range(v.shape[1])
    )
    if resid > 1e-10 * scale:
        raise NumericalError(f"eigenpair residual {resid:.3e} exceeds 1e-10 * {scale:.3e}")
    return spectrum, v


def _variant_spectrum(params: ModelParams, n_max: int, variant: str) -> Spectrum:
    """Every eigenvalue of one spectrum variant at the cutoff ``n_max``.

    ``parity+`` and ``parity-`` solve one chain; ``full`` merges the two
    chains with parity tags at ``eps = 0`` and solves the tilted matrix,
    untagged, otherwise.
    """
    trunc = Truncation(n_max)
    if variant == "full" and params.eps != 0.0:
        w = eigensolve(build_full_hamiltonian(params, trunc)).eigenvalues
        return Spectrum(eigenvalues=w, truncation=trunc)
    sectors = {"full": (+1, -1), "parity+": (+1,), "parity-": (-1,)}.get(variant)
    if sectors is None:
        raise ParameterError(f"unknown spectrum variant {variant!r}")
    parts = [eigensolve(build_parity_tridiagonal(params, trunc, p)).eigenvalues for p in sectors]
    w = np.concatenate(parts)
    tags = np.concatenate([np.full(len(part), p) for part, p in zip(parts, sectors)])
    order = np.argsort(w, kind="stable")
    return Spectrum(eigenvalues=w[order], parity=tags[order], truncation=trunc)


def turning_point_cutoff(levels: int, g: float) -> int:
    """First Fock cutoff to try for the lowest ``levels`` levels of one chain.

    A level with shifted energy m is close to a displaced-oscillator state,
    whose Fock support ends near the classical turning point
    ``(sqrt(m) + |g|)**2``.  With ``r = sqrt(levels) + |g|`` the rule is
    ``ceil(r**2 + 4 r + 16)``: the turning point of the highest level needed
    plus a margin for the decaying tail.

    The rule only sets the first cutoff tried.  The stability check of
    ``refine`` is what certifies a result, and a start that is too short just
    costs a growth step.
    """
    r = np.sqrt(levels) + abs(g)
    return int(np.ceil(r * r + 4.0 * r + 16.0))


def _capped(n_max: int, states_per_level: int, what: str) -> int:
    """``n_max`` itself, or ``ConvergenceError`` when it needs over ``MAX_STATES`` states."""
    if states_per_level * (n_max + 1) > MAX_STATES:
        raise ConvergenceError(
            f"cutoff cap of {MAX_STATES} states reached before {what} "
            f"stabilized (n_max {n_max})"
        )
    return n_max


def _next_cutoff(n_max: int, states_per_level: int, what: str) -> int:
    """The cutoff tried after ``n_max``: ``ceil(1.3 n_max)``, within the cap."""
    return _capped(int(np.ceil(_GROWTH * n_max)), states_per_level, what)


def refine(solve, start: int, stable, states_per_level: int, what: str):
    """Solve at growing Fock cutoffs until two consecutive results agree.

    ``solve(n_max)`` computes the result at one cutoff, first at ``start``
    and then at ``ceil(1.3 n_max)`` after each ``n_max``.
    ``stable(previous, result)`` compares the results at two consecutive
    cutoffs and returns ``(ok, delta)``: whether ``result`` is certified, and
    the largest relative change over the quantities the caller requires.
    A cutoff, the start included, is never solved when its matrix would hold
    more than ``MAX_STATES`` states, ``states_per_level`` per Fock level;
    ``ConvergenceError`` naming ``what`` is raised instead.

    Returns ``(result, trail)``; ``trail`` holds ``(n_max, delta)`` for every
    cutoff tried, in order, with ``delta`` None for the first.
    """
    n_max = _capped(start, states_per_level, what)
    result = solve(n_max)
    trail = [(n_max, None)]
    while True:
        previous, n_max = result, _next_cutoff(n_max, states_per_level, what)
        result = solve(n_max)
        ok, delta = stable(previous, result)
        trail.append((n_max, delta))
        if ok:
            return result, tuple(trail)


def adaptive_spectrum(
    params: ModelParams,
    k: int,
    rel_tol: float = 1e-8,
    variant: str = "full",
) -> Spectrum:
    """Spectrum whose lowest ``k`` eigenvalues are stable in the cutoff.

    ``refine`` starts at ``turning_point_cutoff`` of the levels needed per
    chain and grows the cutoff until consecutive cutoffs agree within
    ``rel_tol`` on each of the lowest ``k`` levels.  ``converged_count``
    records how many leading levels of the final spectrum met the tolerance
    (at least ``k``); ``refinement`` lists the cutoffs tried.
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    per_level = 1 if variant in ("parity+", "parity-") else 2
    start = turning_point_cutoff((k + per_level - 1) // per_level, params.g)

    def stable(previous: Spectrum, spec: Spectrum):
        w = spec.eigenvalues[: len(previous)]  # the larger cutoff has more levels
        deltas = np.abs(w - previous.eigenvalues) / np.maximum(1.0, np.abs(w))
        # leading levels within rel_tol: the index of the first one that is not
        spec.converged_count = int(np.argmin(np.append(deltas <= rel_tol, False)))
        return spec.converged_count >= k, float(deltas[:k].max())

    spec, trail = refine(lambda n_max: _variant_spectrum(params, n_max, variant), start,
                         stable, per_level, f"the lowest {k} eigenvalues")
    spec.refinement = trail
    return spec


def lower_bound_gap(params: ModelParams, spectrum: Spectrum) -> float:
    """Slack of the exact bound ``E_0 + g^2 >= -delta - eps`` (negative = violated)."""
    return float(spectrum.eigenvalues[0] + params.g**2 + params.delta + params.eps)
