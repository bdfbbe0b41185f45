"""Matrix builders and eigensolves against dense brute-force oracles."""

import numpy as np
import pytest
from scipy.linalg import eig_banded

import rabizeta.model as model
from rabizeta.errors import ConvergenceError, ParameterError, UnsupportedConfigError
from rabizeta.model import (
    ModelParams,
    SymBandMatrix,
    Truncation,
    adaptive_spectrum,
    build_full_hamiltonian,
    build_parity_tridiagonal,
    coherent_coefficients,
    eigensolve,
    full_basis_labels,
    refine,
    turning_point_cutoff,
)


def to_dense(mat: SymBandMatrix) -> np.ndarray:
    """The full symmetric matrix of a band matrix in LAPACK lower form."""
    n = mat.dim
    dense = np.zeros((n, n))
    for k in range(mat.bandwidth + 1):
        vals = mat.bands[k, : n - k]
        idx = np.arange(n - k)
        dense[idx + k, idx] = vals
        dense[idx, idx + k] = vals
    return dense


def dense_eigs(mat):
    return np.linalg.eigvalsh(to_dense(mat))


def lower_bound_gap(params: ModelParams, spectrum) -> float:
    """Slack of the exact bound ``E_0 + g^2 >= -delta - eps`` (negative = violated)."""
    return float(spectrum.eigenvalues[0] + params.g**2 + params.delta + params.eps)


class TestParams:
    def test_validation(self):
        with pytest.raises(ParameterError):
            ModelParams(delta=-1.0, g=0.0)
        with pytest.raises(ParameterError):
            ModelParams(delta=0.5, g=np.inf)

    def test_truncation_validation(self):
        with pytest.raises(ParameterError):
            Truncation(0)


class TestFullHamiltonian:
    def test_free_atom_levels(self):
        # g = 0: levels are n -/+ delta
        mat = build_full_hamiltonian(ModelParams(0.5, 0.0), Truncation(2))
        assert np.allclose(sorted(mat.bands[0]), [-0.5, 0.5, 0.5, 1.5, 1.5, 2.5])
        assert np.all(mat.bands[1] == 0.0) and np.all(mat.bands[2] == 0.0)

    def test_decoupled_oscillator(self):
        mat = build_full_hamiltonian(ModelParams(0.0, 0.0), Truncation(3))
        assert np.allclose(sorted(mat.bands[0]), [0, 0, 1, 1, 2, 2, 3, 3])
        assert not np.any(mat.bands[1:])

    def test_matches_dense_oracle(self):
        mat = build_full_hamiltonian(ModelParams(0.5, 1.0), Truncation(1))
        assert mat.dim == 4
        band = eigensolve(mat)
        assert np.abs(band - dense_eigs(mat)).max() < 1e-12

    def test_asymmetric_entries(self):
        mat = build_full_hamiltonian(ModelParams(0.5, 1.0, eps=0.25), Truncation(4))
        dense = to_dense(mat)
        spin, fock, _ = full_basis_labels(4)
        # eps couples opposite spins within one Fock level
        for i in range(mat.dim):
            for j in range(i):
                if fock[i] == fock[j] and spin[i] == -spin[j]:
                    assert dense[i, j] == pytest.approx(0.25)

    def test_coupling_pattern(self):
        g = 1.3
        mat = build_full_hamiltonian(ModelParams(0.5, g), Truncation(5))
        dense = to_dense(mat)
        spin, fock, _ = full_basis_labels(5)
        for i in range(mat.dim):
            for j in range(mat.dim):
                if fock[i] == fock[j] + 1 and spin[i] == -spin[j]:
                    assert dense[i, j] == pytest.approx(g * np.sqrt(fock[j] + 1.0))


class TestParitySectors:
    def test_free_sector_diagonal(self):
        mat = build_parity_tridiagonal(ModelParams(0.5, 0.0), Truncation(3), +1)
        assert np.allclose(mat.bands[0], [0.5, 0.5, 2.5, 2.5])

    def test_free_any_parity_delta0(self):
        mat = build_parity_tridiagonal(ModelParams(0.0, 0.0), Truncation(4), -1)
        assert np.allclose(mat.bands[0], [0, 1, 2, 3, 4])

    def test_union_equals_full_spectrum(self):
        p = ModelParams(0.5, 1.0)
        tr = Truncation(200)
        w_union = np.sort(
            np.concatenate(
                [
                    eigensolve(build_parity_tridiagonal(p, tr, +1)),
                    eigensolve(build_parity_tridiagonal(p, tr, -1)),
                ]
            )
        )
        w_full = eigensolve(build_full_hamiltonian(p, tr))
        assert np.abs(w_union[:40] - w_full[:40]).max() < 1e-9

    def test_projection_oracle(self):
        # project the dense full matrix onto one charge sector and compare
        p = ModelParams(0.5, 1.0)
        tr = Truncation(40)
        dense = to_dense(build_full_hamiltonian(p, tr))
        _, _, charge = full_basis_labels(tr.n_max)
        idx = np.where(charge == 1)[0]
        w_proj = np.linalg.eigvalsh(dense[np.ix_(idx, idx)])
        w_sector = eigensolve(build_parity_tridiagonal(p, tr, +1))
        assert np.abs(w_proj[:20] - w_sector[:20]).max() < 1e-10

    def test_eps_unsupported(self):
        with pytest.raises(UnsupportedConfigError):
            build_parity_tridiagonal(ModelParams(0.5, 1.0, eps=0.1), Truncation(4), +1)


class TestEigensolve:
    def test_diagonal(self):
        mat = SymBandMatrix(np.array([[3.0, 1.0, 2.0]]))
        assert np.allclose(eigensolve(mat), [1, 2, 3])

    def test_spin_flip_two_level(self):
        mat = SymBandMatrix(np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert np.allclose(eigensolve(mat), [-1, 1])

    def test_shifted_oscillator(self):
        # tridiagonal (diag n, off g sqrt(n+1)) has levels n - g^2
        g = 1.0
        mat = build_parity_tridiagonal(ModelParams(0.0, g), Truncation(200), +1)
        w = eigensolve(mat)
        assert np.abs(w[:21] + g**2 - np.arange(21)).max() < 1e-8

    def test_bad_k(self):
        mat = SymBandMatrix(np.array([[1.0, 2.0]]))
        with pytest.raises(ParameterError):
            eigensolve(mat, k=5)


class TestAdaptiveSpectrum:
    def test_strong_coupling_lower_bound(self):
        p = ModelParams(0.5, 8.0)
        spec = adaptive_spectrum(p, k=10, rel_tol=1e-8)
        assert spec.converged_count >= 10
        assert lower_bound_gap(p, spec) >= 0.0

    def test_free_case_exact(self):
        spec = adaptive_spectrum(ModelParams(0.5, 0.0), k=8)
        target = np.sort(np.concatenate([np.arange(4) - 0.5, np.arange(4) + 0.5]))
        assert np.abs(spec.eigenvalues[:8] - target).max() < 1e-12

    def test_self_consistency(self):
        # doubling the final cutoff moves no retained level beyond rel_tol
        p = ModelParams(0.5, 2.0)
        rel_tol = 1e-9
        spec = adaptive_spectrum(p, k=12, rel_tol=rel_tol)
        bigger = eigensolve(build_full_hamiltonian(p, Truncation(2 * spec.truncation.n_max)))
        scale = np.maximum(1.0, np.abs(bigger[:12]))
        assert np.max(np.abs(spec.eigenvalues[:12] - bigger[:12]) / scale) < rel_tol

    def test_variational_monotonicity(self):
        p = ModelParams(0.5, 1.5)
        small = eigensolve(build_full_hamiltonian(p, Truncation(60)))
        large = eigensolve(build_full_hamiltonian(p, Truncation(120)))
        assert np.all(large[:40] <= small[:40] + 1e-12)

    def test_tolerance_below_the_solver_error_raises_at_once(self, solves):
        with pytest.raises(ConvergenceError, match="below the eigensolver's error bound"):
            adaptive_spectrum(ModelParams(0.5, 1.0), k=4, rel_tol=1e-17)
        assert len(solves) == 2  # the two chains of the start cutoff

    def test_cap_error(self):
        with pytest.raises(ConvergenceError):
            adaptive_spectrum(ModelParams(0.5, 600.0), k=200_000)

    def test_refinement_recorded(self):
        # one solve at the start cutoff certifies: its delta is the largest
        # relative bracket of the 12 levels
        spec = adaptive_spectrum(ModelParams(0.5, 4.0), k=12, rel_tol=1e-9)
        ((n_first, d_first),) = spec.refinement
        assert n_first == turning_point_cutoff(6, 4.0) == spec.truncation.n_max
        scale = np.maximum(1.0, np.abs(spec.eigenvalues[:12]))
        assert d_first == np.max(spec.error_bound[:12] / scale) <= 1e-9

    @pytest.mark.parametrize("variant,k", [("full", 12), ("parity-", 6)])
    def test_short_start_grows_to_the_same_levels(self, monkeypatch, variant, k):
        p = ModelParams(0.5, 4.0)
        normal = adaptive_spectrum(p, k=k, rel_tol=1e-9, variant=variant)
        monkeypatch.setattr(model, "turning_point_cutoff", lambda levels, g: 8)
        short = adaptive_spectrum(p, k=k, rel_tol=1e-9, variant=variant)
        assert [n for n, _ in short.refinement[:2]] == [8, 11]
        assert len(short.refinement) > 2 and short.refinement[-1][1] <= 1e-9
        scale = np.maximum(1.0, np.abs(normal.eigenvalues[:k]))
        assert np.max(np.abs(short.eigenvalues[:k] - normal.eigenvalues[:k]) / scale) <= 1e-9


# (variant, delta, eps): the parity chains and their merge, the tilted matrix of
# the asymmetric variant, and delta = 0, where the model bracket is exact.
BRACKET_VARIANTS = [("full", 0.5, 0.0), ("parity+", 0.5, 0.0), ("parity-", 0.5, 0.0),
                    ("full", 0.5, 0.25), ("full", 0.0, 0.0)]


def solved_blocks(params, n_max, variant):
    """``(parity tag, matrix, eigenvalues)`` of each matrix a variant solves at ``n_max``."""
    trunc = Truncation(n_max)
    if params.eps != 0.0:
        mats = [(None, build_full_hamiltonian(params, trunc))]
    else:
        sectors = {"full": (1, -1), "parity+": (1,), "parity-": (-1,)}[variant]
        mats = [(p, build_parity_tridiagonal(params, trunc, p)) for p in sectors]
    return [(tag, mat, eigensolve(mat)) for tag, mat in mats]


class TestBrackets:
    @pytest.mark.parametrize("g", [0.05, 0.5, 2.0, 8.0, 12.0])
    @pytest.mark.parametrize("variant,delta,eps", BRACKET_VARIANTS)
    def test_brackets_hold_the_levels_of_twice_the_cutoff(self, variant, delta, eps, g):
        p = ModelParams(delta, g, eps)
        spec = adaptive_spectrum(p, k=12, rel_tol=1e-10, variant=variant)
        scale = np.maximum(1.0, np.abs(spec.eigenvalues[:12]))
        assert np.all(spec.error_bound[:12] <= 1e-10 * scale)
        # every level, required or not, against the same level of its chain at 2N
        for tag, mat, big in solved_blocks(p, 2 * spec.truncation.n_max, variant):
            mine = slice(None) if tag is None else spec.parity == tag
            w, width = spec.eigenvalues[mine], spec.error_bound[mine]
            assert np.all(np.abs(big[:len(w)] - w) <= width + model._backward_error(mat))

    @pytest.mark.parametrize("delta,eps,g", [(0.5, 0.5, 8.0), (1.0, 0.5, 0.5), (1.0, 0.5, 0.0)])
    def test_clusters_and_the_feshbach_anchor(self, delta, eps, g):
        # eps = 1/2 pairs levels into near-degenerate clusters, and at delta = 1
        # no level clears the model bound of the one above it
        p = ModelParams(delta, g, eps)
        spec = adaptive_spectrum(p, k=12, rel_tol=1e-10)
        assert np.all(spec.error_bound[:12] <= 1e-10 * np.maximum(1.0, np.abs(spec.eigenvalues[:12])))
        ((_, mat, big),) = solved_blocks(p, 2 * spec.truncation.n_max, "full")
        assert np.all(np.abs(big[:len(spec)] - spec.eigenvalues)
                      <= spec.error_bound + model._backward_error(mat))

    @pytest.mark.parametrize("variant,delta,eps", BRACKET_VARIANTS + [("full", 1.0, 0.5)])
    @pytest.mark.parametrize("g", [0.5, 2.0, 8.0])
    def test_brackets_hold_at_cutoffs_too_short_to_converge(self, variant, delta, eps, g):
        # at 0.4 of the start cutoff most levels are far from converged: their
        # brackets must widen to hold the level of a four times larger cutoff
        p = ModelParams(delta, g, eps)
        n_max = int(0.4 * turning_point_cutoff(12, g))
        spec = model._variant_spectrum(p, n_max, variant, 12)
        moved = 0
        for tag, mat, big in solved_blocks(p, 4 * n_max, variant):
            mine = slice(None) if tag is None else spec.parity == tag
            w, width = spec.eigenvalues[mine], spec.error_bound[mine]
            slack = model._backward_error(mat)
            assert np.all(big[:len(w)] >= w - width - slack)
            assert np.all(big[:len(w)] <= w + width + slack)
            moved += np.sum(w - big[:len(w)] > 1e-6)
        assert moved > 0

    def test_backward_error_covers_the_solver(self):
        # at delta = 0 a chain's levels are exactly j - g^2 up to truncation,
        # which is negligible far below the cutoff
        p = ModelParams(0.0, 1e-3)
        mat = build_parity_tridiagonal(p, Truncation(1200), 1)
        w = eigensolve(mat)[:900]
        assert np.max(np.abs(w - (np.arange(900) - 1e-6))) <= model._backward_error(mat)

    @pytest.mark.parametrize("delta,eps,g", [(0.5, 0.0, 0.5), (0.5, 0.0, 4.0), (0.5, 0.0, 12.0),
                                             (0.5, 0.25, 2.0), (0.5, 0.25, 8.0), (1.0, 0.5, 0.5)])
    def test_recurrence_bounds_the_last_block_of_every_eigenvector(self, delta, eps, g):
        p = ModelParams(delta, g, eps)
        n_max = turning_point_cutoff(12, g)
        if eps == 0.0:
            mat, radius = build_parity_tridiagonal(p, Truncation(n_max), -1), delta
        else:
            mat, radius = build_full_hamiltonian(p, Truncation(n_max)), float(np.hypot(delta, eps))
        w, vec = eig_banded(mat.bands, lower=True)  # LAPACK's vectors, at every bandwidth
        last = np.linalg.norm(vec[-mat.bandwidth:, :], axis=0)
        edge = g * np.sqrt(n_max + 1.0)
        upper = w + model._backward_error(mat)
        bound = model._tail_residuals(upper, g, radius, n_max, np.zeros(len(upper))) / edge
        checked = last > 1e-12
        assert checked.sum() > 10 and np.all(bound[checked] >= last[checked])


def reference_level_brackets(mat, w, params, radius, count, hits):
    """``model._level_brackets`` as a numpy loop, one numpy scalar per level.

    Kept to pin the float pass bit for bit.  ``hits`` counts the lower ends
    that each step raises: ``"anchor"`` (``_feshbach_lower``), ``"temple"``
    and ``"kahan"``.
    """
    block = mat.bandwidth
    eta = model._backward_error(mat)
    floor = model._model_floor(params, len(w) + 1, block)
    widths = np.maximum(w - floor[:-1], eta)
    tight = np.diff(w) <= np.sqrt(eta)
    top = min(len(w), count + model._BRACKET_PAD)
    while top < len(w) and tight[top - 1]:
        top += 1
    gaps = np.diff(w[:top + 1], append=np.inf)[:top]
    near = np.minimum(gaps, np.append(np.inf, gaps[:-1]))
    need = np.where(near <= np.sqrt(eta), eta, np.sqrt(eta * near))
    upper = w[:top] + eta
    resid = model._tail_residuals(upper, params.g, radius, mat.dim // block - 1, need)
    lower = floor[:top + 1].copy()
    d, anchor_tried = top - 1, False
    while d >= 0:
        c = d
        while c > 0 and tight[c - 1]:
            c -= 1
        if c < count and lower[d + 1] <= upper[d] and not anchor_tried:
            anchor_tried = True
            anchored = max(lower[d + 1], model._feshbach_lower(mat, params, radius, w, d + 1))
            hits["anchor"] += anchored > lower[d + 1]
            lower[d + 1] = anchored
        for i in range(d, c - 1, -1):
            if lower[i + 1] > upper[i]:
                temple = w[i] - eta - resid[i] ** 2 / (lower[i + 1] - upper[i])
                hits["temple"] += temple > lower[i]
                lower[i] = max(lower[i], temple)
        rho = float(np.sqrt(np.sum(resid[c:d + 1] ** 2)))
        if d > c and lower[d + 1] > upper[d] + rho and (c == 0 or upper[c - 1] < w[c] - eta - rho):
            kahan = np.maximum(lower[c:d + 1], w[c:d + 1] - eta - rho)
            hits["kahan"] += int(np.sum(kahan > lower[c:d + 1]))
            lower[c:d + 1] = kahan
        d = c - 1
    widths[:top] = np.maximum(w[:top] - lower[:top], eta)
    return widths


class TestBracketPassBits:
    def test_float_pass_matches_the_numpy_loop(self, monkeypatch):
        # a seeded sweep plus the near-degenerate clusters at eps = 1/2 and
        # Feshbach-anchored spectra, each at its start cutoff and 1.3 times it
        rng = np.random.default_rng(20)
        cases = [(float(rng.uniform(0, 2)),
                  0.0 if rng.random() < 0.5 else float(rng.uniform(0, 1.2)),
                  float(rng.uniform(0, 7)), int(rng.integers(1, 25))) for _ in range(40)]
        cases += [(0.5, 0.5, g, 12) for g in (0.0, 2.0, 5.0, 8.0)]
        cases += [(1.0, 0.5, g, 12) for g in (0.0, 0.3, 0.5)]
        cases += [(d, e, g, 12) for d in (1.5, 2.0) for e in (0.0, 0.7) for g in (5.0, 6.5)]
        hits = {"anchor": 0, "temple": 0, "kahan": 0}
        new = model._level_brackets

        def reference(*args):
            return reference_level_brackets(*args, hits)

        for i, (delta, eps, g, k) in enumerate(cases):
            p = ModelParams(delta, g, eps)
            variant = "full" if eps else ("full", "parity+", "parity-")[i % 3]
            per_level = 1 if variant.startswith("parity") else 2
            start = turning_point_cutoff((k + per_level - 1) // per_level, g)
            for n_max in (start, int(np.ceil(1.3 * start))):
                monkeypatch.setattr(model, "_level_brackets", new)
                mine = model._variant_spectrum(p, n_max, variant, k).error_bound
                monkeypatch.setattr(model, "_level_brackets", reference)
                ref = model._variant_spectrum(p, n_max, variant, k).error_bound
                assert mine.tobytes() == ref.tobytes(), (delta, eps, g, k, n_max)
        # every step of the pass raised some lower end in the sweep
        assert min(hits.values()) > 0, hits


class TestRefiner:
    def test_turning_point_rule(self):
        # g = 12: the 6 levels per chain of the level tables, and the 175 per
        # chain of the 350-level full zeta head
        assert turning_point_cutoff(6, 12.0) == 283
        assert turning_point_cutoff(175, 12.0) == 754
        assert turning_point_cutoff(1, 0.0) == 21
        assert turning_point_cutoff(6, -12.0) == turning_point_cutoff(6, 12.0)

    def test_trail_and_result(self):
        solved = []

        def solve(n):
            solved.append(n)
            return 1.0 / n

        # the check sees one result at a time
        value, trail = refine(solve, 10, lambda value: (value <= 0.06, value), 1, "the value")
        assert solved == [10, 13, 17]
        assert value == 1.0 / 17
        assert [n for n, _ in trail] == solved
        assert [d for _, d in trail] == [1 / 10, 1 / 13, 1 / 17]

    def test_certified_first_result_is_the_only_solve(self):
        solved = []

        def solve(n):
            solved.append(n)
            return 1.0 / n

        value, trail = refine(solve, 10, lambda value: (value < 0.2, value), 1, "it")
        assert solved == [10] and value == 0.1 and trail == ((10, 0.1),)

    def test_growth_cap(self, monkeypatch):
        solved = []

        def solve(n):
            solved.append(n)
            return n

        def never(value):
            return False, 1.0

        # 2 * (49 + 1) = 100 states fit in the cap; the next cutoff, 64, needs 130
        monkeypatch.setattr(model, "MAX_STATES", 100)
        with pytest.raises(ConvergenceError, match="cutoff cap of 100 states .* the value"):
            refine(solve, 21, never, 2, "the value")
        assert solved == [21, 28, 37, 49]
        # the start cutoff is held to the cap too, before it is solved
        with pytest.raises(ConvergenceError, match="cutoff cap"):
            refine(solve, 50, never, 2, "the value")
        assert solved == [21, 28, 37, 49]


class TestInvariants:
    def test_lower_bound_grid(self):
        for delta in (0.25, 1.0):
            for g in (0.0, 0.5, 2.0):
                for eps in (0.0, 0.5):
                    p = ModelParams(delta, g, eps)
                    spec = adaptive_spectrum(p, k=4, rel_tol=1e-8)
                    assert lower_bound_gap(p, spec) >= -1e-10

    def test_ground_energy_concave_in_g(self):
        grid = np.linspace(0.0, 2.0, 9)
        energies = [
            adaptive_spectrum(ModelParams(0.5, g), k=2, rel_tol=1e-10).eigenvalues[0]
            for g in grid
        ]
        for i in range(1, len(grid) - 1):
            chord = 0.5 * (energies[i - 1] + energies[i + 1])
            assert energies[i] >= chord - 1e-9

    def test_coherent_coefficients_normalized(self):
        for amp in (0.0, 0.8, -2.0):
            c = coherent_coefficients(amp, 120)
            assert np.linalg.norm(c) == pytest.approx(1.0, abs=1e-12)
