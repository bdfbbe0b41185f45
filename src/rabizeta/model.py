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

Eigenvalues come from LAPACK's band solver through ``eigensolve``, each
within ``_backward_error`` of an exact one.  Every cutoff the package
chooses for itself goes through one refiner, ``refine``: it solves at a
start cutoff and at growing ones, ``n -> ceil(1.3 n)``, until the caller
certifies the result, and no cutoff it tries, the start included, may
exceed ``MAX_STATES`` states.
Every result certifies from one solve, by an enclosure of the untruncated
value it approximates: a spectrum by one of each level (its proof is in
``refine``), an exact oracle by one of its value, rounding included (the
proofs are in ``observables``).  No two cutoffs are compared, and no other
module grows a cutoff.  Eigenvectors come only from a parity chain's own
ratio recurrences (``_chain_vectors``), with a small relative error also in
their tiny components.
``turning_point_cutoff`` sets the start, for eigenvalues and for the
ground-state oracles alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvals_banded
from scipy.special import gammaln, xlogy

from .errors import ConvergenceError, NumericalError, ParameterError, UnsupportedConfigError

# Hard cap on matrix dimension for adaptive refinement (2**20 basis states).
MAX_STATES = 1 << 20

# Each cutoff ``refine`` tries after the first is ceil(_GROWTH * the one before).
_GROWTH = 1.3


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters: level splitting, coupling, asymmetry."""

    delta: float
    g: float
    eps: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.delta) or self.delta < 0:
            raise ParameterError(f"delta must be a finite nonnegative real, got {self.delta}")
        if not np.isfinite(self.g):
            raise ParameterError(f"g must be finite, got {self.g}")
        if not np.isfinite(self.eps) or self.eps < 0:
            raise ParameterError(f"eps must be a finite nonnegative real, got {self.eps}")


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


@dataclass
class Spectrum:
    """Ascending eigenvalues with optional parity tags, brackets and cutoff metadata.

    ``error_bound[i]`` encloses the untruncated level that ``eigenvalues[i]``
    approximates (the level of the same rank in its parity chain, when
    tagged): it lies within ``error_bound[i]`` of ``eigenvalues[i]``, and at
    most ``backward_error``, the solver's error bound, above it.  None (and
    0) when not bracketed.
    ``converged_count`` is the number of leading levels whose bracket met
    the caller's tolerance; 0 means it was never assessed.  ``refinement``
    holds ``(n_max, delta)`` for each cutoff ``refine`` tried, ``delta``
    being the largest relative bracket of the required levels there; empty
    when nothing was refined.
    """

    eigenvalues: np.ndarray
    parity: np.ndarray | None = None
    truncation: Truncation | None = None
    converged_count: int = 0
    refinement: tuple = ()
    error_bound: np.ndarray | None = None
    backward_error: float = 0.0

    def __post_init__(self):
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=float)
        if np.any(np.diff(self.eigenvalues) < 0):
            raise NumericalError("eigenvalues must be nondecreasing")
        for name in ("parity", "error_bound"):
            tags = getattr(self, name)
            if tags is not None:
                setattr(self, name, np.asarray(tags))
                if getattr(self, name).shape != self.eigenvalues.shape:
                    raise ParameterError(f"{name} must align with eigenvalues")

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
    log_mag = xlogy(n, abs(amplitude)) - 0.5 * gammaln(n + 1.0) - amplitude**2 / 2.0
    return np.sign(amplitude) ** n * np.exp(log_mag)


def eigensolve(mat: SymBandMatrix, k: int | None = None) -> np.ndarray:
    """Ascending eigenvalues of a symmetric band matrix: all of them, or the lowest ``k``.

    LAPACK's band solver at any bandwidth; each value is within
    ``_backward_error(mat)`` of an exact one.  No vectors: a parity chain's
    come from ``_chain_vectors``.
    """
    if k is not None and not 1 <= k <= mat.dim:
        raise ParameterError(f"k must be in [1, {mat.dim}], got {k}")
    select = {} if k is None else {"select": "i", "select_range": (0, k - 1)}
    try:
        return eigvals_banded(mat.bands, lower=True, **select)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure path
        raise NumericalError(f"band eigensolver failed to converge: {exc}") from exc


def _backward_error(mat: SymBandMatrix) -> float:
    """Error bound of every eigenvalue the band solver returns for ``mat``.

    LAPACK's symmetric solvers are backward stable: each computed eigenvalue
    is within ``p(n) * eps * ||mat||`` of an exact one, ``p(n)`` a modestly
    growing function of the dimension n.  It is taken as n / 4: on these
    matrices (chains and tilted matrices of n up to 2400, against their
    exact levels at delta = 0) the error grew as n and stayed below
    0.075 n eps ||mat||.  ``||mat||`` is bounded by the largest diagonal
    entry plus twice the largest entry of each off-diagonal.
    """
    norm = np.abs(mat.bands[0]).max() + 2.0 * np.abs(mat.bands[1:]).max(axis=1, initial=0.0).sum()
    return 0.25 * mat.dim * np.finfo(float).eps * float(norm)


def _tail_residuals(upper: np.ndarray, g: float, radius: float, n_max: int,
                    need: np.ndarray) -> np.ndarray:
    """Residual bound ``g sqrt(n_max+1) ||v[n_max]||`` of each eigenvector, from its level.

    The matrix is a truncated chain of Fock blocks (one state per block for a
    parity chain, two for the tilted matrix): block j has diagonal block
    ``D_j >= (j - radius) I`` and couples to block j+1 by ``g sqrt(j+1) I``.
    An eigenvector ``v`` of level ``lam <= upper`` satisfies, block row by
    block row from the last one down,

        ||v[j]|| <= rho_j ||v[j-1]||,
        rho_j = |g| sqrt(j) / (j - radius - upper - |g| sqrt(j+1) rho_{j+1}),

    with ``rho_{n_max+1} = 0``, as long as every denominator so far is
    positive.  ``||v[j-1]|| <= 1``, so ``||v[n_max]||`` is at most each partial
    product ``rho_{n_max} ... rho_j``; the smallest one is kept.  A level stops
    once its bound is below ``need`` or a denominator turns non-positive, and
    the loop runs over block rows on vectors of levels, so it holds O(levels)
    memory.  This backward recurrence follows the decaying solution, unlike
    the forward leading-minor ratio, which grows in the forbidden region.
    """
    g = abs(g)
    edge = g * np.sqrt(n_max + 1.0)
    ratio, product, best = np.zeros_like(upper), np.ones_like(upper), np.ones_like(upper)
    live = edge > need
    with np.errstate(over="ignore"):  # a ratio past the float range ends its level next row
        for j in range(n_max, 0, -1):
            if not live.any():
                break
            denom = j - radius - upper - g * np.sqrt(j + 1.0) * ratio
            live &= denom > 0
            np.divide(g * np.sqrt(j), denom, out=ratio, where=live)
            np.multiply(product, ratio, out=product, where=live)
            np.minimum(best, product, out=best)
            live &= edge * best > need
    return edge * best


def _chain_vectors(mat: SymBandMatrix, w: np.ndarray) -> np.ndarray:
    """Unit eigenvectors, in columns, of the chain ``mat`` at its computed levels ``w``.

    A twisted factorization (Dhillon & Parlett, SIAM J. Matrix Anal. Appl.
    25 (2004)), vectorized over the levels.  With ``d = a - w``, the pivots
    ``top[i] = d[i] - b[i-1]^2 / top[i-1]`` sweep down from the first row
    and ``bot[i] = d[i] - b[i]^2 / bot[i+1]`` up from the last; the vector
    is 1 at the twist r, the row of least ``|top + bot - d|``, and extends
    by the ratios ``v[i] / v[i+1] = -b[i] / top[i]`` above it and
    ``v[i] / v[i-1] = -b[i-1] / bot[i]`` below it.  So every component is a
    product of ratios, each accurate to a few units in the last place, and
    keeps a small relative error however small it is, except near a sign
    change of an excited level, where its size comes from cancellation
    (``observables._rounding`` has measurements); a component past the
    double range underflows to zero.  Each vector is signed so that its
    first component is not negative.  A pivot that vanishes is replaced by
    the smallest normal times ``max(1, b^2)``, as LAPACK does.  At g = 0 the
    chain is diagonal and its vectors are unit vectors, in the order of
    ``w``.
    """
    a, b = mat.bands[0], mat.bands[1, :-1]
    if not b.any():
        return np.eye(len(a))[:, np.argsort(a, kind="stable")[:len(w)]]
    b2, d = b * b, a[:, None] - w
    pivmin = np.finfo(float).tiny * max(1.0, float(b2.max()))
    top, bot = d.copy(), d.copy()
    for i in range(1, len(a)):
        top[i] -= b2[i - 1] / top[i - 1]
        top[i][np.abs(top[i]) < pivmin] = pivmin
        bot[-1 - i] -= b2[-i] / bot[-i]
        bot[-1 - i][np.abs(bot[-1 - i]) < pivmin] = pivmin
    twist = np.argmin(np.abs(top + bot - d), axis=0)
    rows = np.arange(len(a))[:, None]
    v = np.ones_like(d)
    v[:-1] = np.cumprod(np.where(rows[:-1] < twist, -b[:, None] / top[:-1], 1.0)[::-1],
                        axis=0)[::-1]
    v[1:] *= np.cumprod(np.where(rows[1:] > twist, -b[:, None] / bot[1:], 1.0), axis=0)
    return v / np.copysign(np.linalg.norm(v, axis=0), v[0])


def _feshbach_lower(mat: SymBandMatrix, params: ModelParams, radius: float,
                    w: np.ndarray, j: int) -> float:
    """A proven lower bound of level ``j`` of the untruncated operator, or -inf.

    Split the operator K into the kept Fock blocks (``mat``) and the dropped
    ones (C), coupled by ``b = g sqrt(n_max+1)`` between the last kept block
    and the first dropped one.  C is at least
    ``floor = (sqrt(n_max+1) - |g|)^2 - g^2 - radius``: its displaced
    oscillators hold at least n_max + 1 quanta, and the rest of K has norm
    at most ``radius``.  For ``x < floor``, ``C - x`` is positive, so K has
    as many levels below x as the Schur complement
    ``mat - b^2 G(x) - x`` has negative eigenvalues, where G(x) acts on the
    last block only and is at most ``1 / (floor - x)``.  With x = ``w[j]``,
    K therefore has at most j levels below the smaller of x and level j of
    ``mat - b^2 / (floor - x)`` on the last block, less its backward error.
    One selected-eigenvalue solve.
    """
    block = mat.bandwidth
    n_max = mat.dim // block - 1
    root, g = np.sqrt(n_max + 1.0), abs(params.g)
    floor = (root - g) ** 2 - g * g - radius
    if j >= len(w) or root <= g or floor <= w[j]:
        return -np.inf
    bands = mat.bands.copy()
    bands[0, -block:] -= g * g * (n_max + 1) / (floor - w[j])
    lowered = SymBandMatrix(bands)
    level = eigensolve(lowered, k=j + 1)[j] - _backward_error(lowered)
    return min(float(level), float(w[j]))


def _model_floor(params: ModelParams, count: int, block: int) -> np.ndarray:
    """Weyl lower bound of each of the lowest ``count`` untruncated levels.

    A parity chain (``block`` 1) is the displaced oscillator, levels
    ``j - g^2``, plus a diagonal of norm delta.  The tilted matrix (``block``
    2) is the pair of displaced oscillators, levels ``j // 2 - g^2`` twice,
    plus ``delta sz + eps sx`` of norm hypot(delta, eps); or, keeping the
    tilt, the ladder ``m -/+ eps - g^2`` plus ``delta sz``.  It takes the
    larger bound of the two.
    """
    j = np.arange(count)
    if block == 1:
        return j - params.g**2 - params.delta
    m = np.arange(count)  # the count lowest of {m -/+ eps} have m < count
    split = np.sort(np.concatenate([m - params.eps, m + params.eps]))[:count]
    tilted = np.maximum(j // 2 - np.hypot(params.delta, params.eps), split - params.delta)
    return tilted - params.g**2


# The brackets of a spectrum's required levels come from a top-down pass that
# starts this many levels above them in each chain.
_BRACKET_PAD = 8


def _level_brackets(mat: SymBandMatrix, w: np.ndarray, params: ModelParams,
                    radius: float, count: int) -> np.ndarray:
    """Enclosure radius of every level ``w`` of ``mat`` as an untruncated level.

    ``mat`` is a parity chain or the tilted matrix, whose diagonal blocks
    lie within ``radius`` of their Fock level.  ``_model_floor`` gives a
    lower bound ``model[j]`` for every level.  The lowest ``count`` levels,
    and ``_BRACKET_PAD`` more, get sharper lower ends from the top down (the
    proof is in ``refine``).  Levels closer than ``sqrt(eta)`` form a
    cluster: each member gets the Kato-Temple end where its gap allows, and
    all get the linear one of Kahan's theorem.  The pass is anchored by the
    model bound of the level above each cluster; where that bound does not
    clear the highest cluster holding a required level, by
    ``_feshbach_lower`` of the level above it.
    """
    block = mat.bandwidth
    eta = float(_backward_error(mat))
    model = _model_floor(params, len(w) + 1, block)
    widths = np.maximum(w - model[:-1], eta)
    tight = np.diff(w) <= np.sqrt(eta)  # level i and i + 1 share a cluster
    top = min(len(w), count + _BRACKET_PAD)
    while top < len(w) and tight[top - 1]:
        top += 1
    gaps = np.diff(w[:top + 1], append=np.inf)[:top]  # to the level above
    near = np.minimum(gaps, np.append(np.inf, gaps[:-1]))
    need = np.where(near <= np.sqrt(eta), eta, np.sqrt(eta * near))
    upper = w[:top] + eta
    resid = _tail_residuals(upper, params.g, radius, mat.dim // block - 1, need)
    # the pass walks one level at a time, so it runs on Python floats
    lower, level, r = model[:top + 1].tolist(), w[:top].tolist(), resid.tolist()
    upper, tight = upper.tolist(), tight.tolist()
    d, anchor_tried = top - 1, False
    while d >= 0:
        c = d
        while c > 0 and tight[c - 1]:
            c -= 1
        if c < count and lower[d + 1] <= upper[d] and not anchor_tried:
            anchor_tried = True  # the first required cluster has no anchor above it
            lower[d + 1] = max(lower[d + 1], _feshbach_lower(mat, params, radius, w, d + 1))
        for i in range(d, c - 1, -1):  # Kato-Temple, beta from the level above
            if lower[i + 1] > upper[i]:
                lower[i] = max(lower[i], level[i] - eta - r[i] ** 2 / (lower[i + 1] - upper[i]))
        if d > c:  # Kahan: every member of the cluster within its residual norm
            rho = float(np.sqrt(np.sum(resid[c:d + 1] ** 2)))
            if lower[d + 1] > upper[d] + rho and (c == 0 or upper[c - 1] < level[c] - eta - rho):
                for i in range(c, d + 1):
                    lower[i] = max(lower[i], level[i] - eta - rho)
        d = c - 1
    widths[:top] = np.maximum(w[:top] - np.array(lower[:top]), eta)
    return widths


def _variant_spectrum(params: ModelParams, n_max: int, variant: str, k: int) -> Spectrum:
    """Every eigenvalue of one spectrum variant at the cutoff ``n_max``, bracketed.

    ``parity+`` and ``parity-`` solve one chain; ``full`` merges the two
    chains with parity tags at ``eps = 0`` and solves the tilted matrix,
    untagged, otherwise.  Each chain brackets its own levels, with model
    radius delta (hypot(delta, eps) for the tilted matrix); of a merged
    spectrum, each chain sharpens the brackets of its levels among the
    lowest ``k``.
    """
    trunc = Truncation(n_max)
    if variant == "full" and params.eps != 0.0:
        mat = build_full_hamiltonian(params, trunc)
        w = eigensolve(mat)
        widths = _level_brackets(mat, w, params, float(np.hypot(params.delta, params.eps)), k)
        return Spectrum(eigenvalues=w, truncation=trunc, error_bound=widths,
                        backward_error=_backward_error(mat))
    sectors = {"full": (+1, -1), "parity+": (+1,), "parity-": (-1,)}.get(variant)
    if sectors is None:
        raise ParameterError(f"unknown spectrum variant {variant!r}")
    mats = [build_parity_tridiagonal(params, trunc, p) for p in sectors]
    parts = [eigensolve(mat) for mat in mats]
    w = np.concatenate(parts)
    tags = np.concatenate([np.full(len(part), p) for part, p in zip(parts, sectors)])
    order = np.argsort(w, kind="stable")
    widths = np.concatenate([
        _level_brackets(mat, part, params, params.delta, int(np.sum(tags[order[:k]] == p)))
        for mat, part, p in zip(mats, parts, sectors)
    ])
    return Spectrum(eigenvalues=w[order], parity=tags[order], truncation=trunc,
                    error_bound=widths[order],
                    backward_error=max(_backward_error(mat) for mat in mats))


def turning_point_cutoff(levels: int, g: float) -> int:
    """First Fock cutoff to try for the lowest ``levels`` levels of one chain.

    A level with shifted energy m is close to a displaced-oscillator state,
    whose Fock support ends near the classical turning point
    ``(sqrt(m) + |g|)**2``.  With ``r = sqrt(levels) + |g|`` the rule is
    ``ceil(r**2 + 4 r + 16)``: the turning point of the highest level needed
    plus a margin for the decaying tail.

    The rule only sets the first cutoff tried.  The check ``refine`` runs is
    what certifies a result, and a start that is too short just costs a
    growth step.
    """
    r = np.sqrt(levels) + abs(g)
    return int(np.ceil(r * r + 4.0 * r + 16.0))


#: Relative error every oracle certifies, rounding included (absolute below 1).
_AUTO_REL_TOL = 1e-10


def refine(solve, start: int, certified, states_per_level: int, what: str):
    """Solve at growing Fock cutoffs until the caller certifies a result.

    ``solve(n_max)`` computes the result at one cutoff, first at ``start``
    and then at ``ceil(1.3 n_max)`` after each ``n_max``.  After every solve,
    ``certified(result)`` returns ``(ok, delta)``: whether ``result`` is
    certified, and the caller's measure of its error.  A result certifies
    from its own solve, by an enclosure of the untruncated value it
    approximates or a rule read from that solve; no two cutoffs are
    compared.  A cutoff, the start included, is never solved when its
    matrix would hold more than ``MAX_STATES`` states, ``states_per_level``
    per Fock level; ``ConvergenceError`` naming ``what`` is raised instead.

    The spectrum brackets enclose each level of the untruncated operator K
    from one solve at cutoff N.  Let ``lam`` be the exact level k of the
    truncated matrix, ``v`` its unit eigenvector, ``w`` the computed value
    and ``eta`` the solver's backward error, so ``|w - lam| <= eta``.

    * Upper end: the truncation is a compression of K, so by min-max
      ``E_k <= lam <= w + eta``.
    * Residual: zero-padded, ``v`` has Rayleigh quotient ``lam`` in K, and
      its residual lives on Fock level N+1 alone:
      ``r = g sqrt(N+1) ||v[N]||``, bounded by ``_tail_residuals``.
    * Lower end (Kato-Temple): every point mu of the spectrum of K has
      ``mu <= E_k`` or ``mu >= E_{k+1}``, so for any ``beta <= E_{k+1}`` the
      form ``<(K - E_k) v, (K - beta) v> = r^2 + (lam - E_k)(lam - beta)`` is
      nonnegative.  If ``beta > w + eta`` this gives
      ``E_k >= w - eta - r^2 / (beta - w - eta)``.
    * ``beta`` comes top-down: the lower end just proven for level k is the
      ``beta`` of level k - 1.  The pass starts above the required levels at
      a model bound (every shifted level lies within the model radius of
      its ladder value, ``_model_floor``) or, failing that, a Feshbach bound
      (``_feshbach_lower``); and the model bound stands for any level where
      it is higher.
    * Clusters (Kahan): the eigenvectors of levels c..d are orthonormal, and
      their residual matrix has norm at most ``rho = sqrt(sum r_i^2)``, so K
      has d - c + 1 levels within ``rho`` of ``lam_c .. lam_d``, matched in
      order.  When the upper end of ``E_{c-1}`` lies below that window and
      the lower end of ``E_{d+1}`` above it, they are ``E_c .. E_d``, and
      ``E_i >= w_i - eta - rho``.  This encloses near-degenerate levels
      that Kato-Temple cannot separate.

    ``Spectrum.error_bound`` holds the larger of ``w`` less the lower end and
    ``eta``, so every level lies within it of its computed value.

    Returns ``(result, trail)``; ``trail`` holds ``(n_max, delta)`` for every
    cutoff tried, in order.
    """
    n_max, trail = start, []
    while states_per_level * (n_max + 1) <= MAX_STATES:
        result = solve(n_max)
        ok, delta = certified(result)
        trail.append((n_max, delta))
        if ok:
            return result, tuple(trail)
        n_max = int(np.ceil(_GROWTH * n_max))
    raise ConvergenceError(f"cutoff cap of {MAX_STATES} states reached before {what} "
                           f"converged (n_max {n_max})")


def adaptive_spectrum(
    params: ModelParams,
    k: int,
    rel_tol: float = 1e-8,
    variant: str = "full",
) -> Spectrum:
    """Spectrum whose lowest ``k`` levels are each enclosed to ``rel_tol``.

    ``refine`` solves at ``turning_point_cutoff`` of the levels needed per
    chain, and accepts the spectrum when every one of the lowest ``k``
    levels has ``error_bound <= rel_tol * max(1, |E|)``; only a bracket that
    misses this grows the cutoff.  ``converged_count`` records how many
    leading levels of the final spectrum meet the tolerance (at least
    ``k``); ``refinement`` lists the cutoffs tried with the largest relative
    bracket of the lowest ``k`` levels at each.  A level that misses
    ``rel_tol`` by the solver's error bound alone raises ``ConvergenceError``
    at once: that bound only grows with the cutoff.  A ``rel_tol`` that is
    not positive and finite raises ``ParameterError`` before any solve.
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if not 0.0 < rel_tol < np.inf:
        raise ParameterError(f"rel_tol must be positive and finite, got {rel_tol}")
    per_level = 1 if variant in ("parity+", "parity-") else 2
    start = turning_point_cutoff((k + per_level - 1) // per_level, params.g)

    def certified(spec: Spectrum):
        scale = np.maximum(1.0, np.abs(spec.eigenvalues))
        rel = spec.error_bound / scale
        # leading levels within rel_tol: the index of the first one that is not
        spec.converged_count = int(np.argmin(np.append(rel <= rel_tol, False)))
        if np.any(spec.backward_error > rel_tol * scale[spec.converged_count:k]):
            raise ConvergenceError(
                f"rel_tol {rel_tol:g} is below the eigensolver's error bound "
                f"{spec.backward_error:.1e} at n_max {spec.truncation.n_max}, "
                f"which only grows with the cutoff")
        return spec.converged_count >= k, float(rel[:k].max())

    spec, trail = refine(lambda n_max: _variant_spectrum(params, n_max, variant, k), start,
                         certified, per_level, f"the lowest {k} eigenvalues")
    spec.refinement = trail
    return spec
