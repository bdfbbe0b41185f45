"""Matrix builders and eigensolves against dense brute-force oracles."""

import numpy as np
import pytest

import rabizeta.model as model
from rabizeta.errors import ConvergenceError, ParameterError, UnsupportedConfigError
from rabizeta.model import (
    MAX_STATES,
    ModelParams,
    SymBandMatrix,
    Truncation,
    adaptive_spectrum,
    build_full_hamiltonian,
    build_parity_tridiagonal,
    coherent_coefficients,
    doubling,
    eigensolve,
    full_basis_labels,
    lower_bound_gap,
    refine,
    turning_point_cutoff,
)


def dense_eigs(mat):
    return np.linalg.eigvalsh(mat.to_dense())


class TestParams:
    def test_validation(self):
        with pytest.raises(ParameterError):
            ModelParams(delta=-1.0, g=0.0)
        with pytest.raises(ParameterError):
            ModelParams(delta=0.5, g=0.0, tau=0.0)
        with pytest.raises(ParameterError):
            ModelParams(delta=0.5, g=np.inf)

    def test_zeta_shift_hypothesis(self):
        ModelParams(0.5, 1.0, tau=1.0).require_zeta_shift()
        with pytest.raises(ParameterError):
            ModelParams(0.5, 1.0, eps=0.6, tau=1.0).require_zeta_shift()

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
        band = eigensolve(mat).eigenvalues
        assert np.abs(band - dense_eigs(mat)).max() < 1e-12

    def test_asymmetric_entries(self):
        mat = build_full_hamiltonian(ModelParams(0.5, 1.0, eps=0.25), Truncation(4))
        dense = mat.to_dense()
        spin, fock, _ = full_basis_labels(4)
        # eps couples opposite spins within one Fock level
        for i in range(mat.dim):
            for j in range(i):
                if fock[i] == fock[j] and spin[i] == -spin[j]:
                    assert dense[i, j] == pytest.approx(0.25)

    def test_coupling_pattern(self):
        g = 1.3
        mat = build_full_hamiltonian(ModelParams(0.5, g), Truncation(5))
        dense = mat.to_dense()
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
                    eigensolve(build_parity_tridiagonal(p, tr, +1)).eigenvalues,
                    eigensolve(build_parity_tridiagonal(p, tr, -1)).eigenvalues,
                ]
            )
        )
        w_full = eigensolve(build_full_hamiltonian(p, tr)).eigenvalues
        assert np.abs(w_union[:40] - w_full[:40]).max() < 1e-9

    def test_projection_oracle(self):
        # project the dense full matrix onto one charge sector and compare
        p = ModelParams(0.5, 1.0)
        tr = Truncation(40)
        dense = build_full_hamiltonian(p, tr).to_dense()
        _, _, charge = full_basis_labels(tr.n_max)
        idx = np.where(charge == 1)[0]
        w_proj = np.linalg.eigvalsh(dense[np.ix_(idx, idx)])
        w_sector = eigensolve(build_parity_tridiagonal(p, tr, +1)).eigenvalues
        assert np.abs(w_proj[:20] - w_sector[:20]).max() < 1e-10

    def test_eps_unsupported(self):
        with pytest.raises(UnsupportedConfigError):
            build_parity_tridiagonal(ModelParams(0.5, 1.0, eps=0.1), Truncation(4), +1)


class TestEigensolve:
    def test_diagonal(self):
        mat = SymBandMatrix(np.array([[3.0, 1.0, 2.0]]))
        assert np.allclose(eigensolve(mat).eigenvalues, [1, 2, 3])

    def test_spin_flip_two_level(self):
        mat = SymBandMatrix(np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert np.allclose(eigensolve(mat).eigenvalues, [-1, 1])

    def test_shifted_oscillator(self):
        # tridiagonal (diag n, off g sqrt(n+1)) has levels n - g^2
        g = 1.0
        mat = build_parity_tridiagonal(ModelParams(0.0, g), Truncation(200), +1)
        w = eigensolve(mat).eigenvalues
        assert np.abs(w[:21] + g**2 - np.arange(21)).max() < 1e-8

    def test_residual_contract(self):
        mat = build_full_hamiltonian(ModelParams(0.5, 1.5), Truncation(60))
        spec, vec = eigensolve(mat, k=5, want_vectors=True)
        for j in range(5):
            r = np.linalg.norm(mat.matvec(vec[:, j]) - spec.eigenvalues[j] * vec[:, j])
            assert r <= 1e-10 * mat.norm_upper_bound()

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
        bigger = eigensolve(
            build_full_hamiltonian(p, Truncation(2 * spec.truncation.n_max))
        ).eigenvalues
        scale = np.maximum(1.0, np.abs(bigger[:12]))
        assert np.max(np.abs(spec.eigenvalues[:12] - bigger[:12]) / scale) < rel_tol

    def test_variational_monotonicity(self):
        p = ModelParams(0.5, 1.5)
        small = eigensolve(build_full_hamiltonian(p, Truncation(60))).eigenvalues
        large = eigensolve(build_full_hamiltonian(p, Truncation(120))).eigenvalues
        assert np.all(large[:40] <= small[:40] + 1e-12)

    def test_cap_error(self):
        with pytest.raises(ConvergenceError):
            adaptive_spectrum(ModelParams(0.5, 600.0), k=200_000)

    def test_refinement_recorded(self):
        spec = adaptive_spectrum(ModelParams(0.5, 4.0), k=12, rel_tol=1e-9)
        (n_first, d_first), (n_last, d_last) = spec.refinement
        assert n_first == turning_point_cutoff(6, 4.0) and d_first is None
        assert n_last == 2 * n_first == spec.truncation.n_max
        assert d_last <= 1e-9

    @pytest.mark.parametrize("variant,k", [("full", 12), ("parity-", 6)])
    def test_short_start_grows_to_the_same_levels(self, monkeypatch, variant, k):
        p = ModelParams(0.5, 4.0)
        normal = adaptive_spectrum(p, k=k, rel_tol=1e-9, variant=variant)
        monkeypatch.setattr(model, "turning_point_cutoff", lambda levels, g: 8)
        short = adaptive_spectrum(p, k=k, rel_tol=1e-9, variant=variant)
        assert [n for n, _ in short.refinement[:2]] == [8, 16]
        assert len(short.refinement) > 2 and short.refinement[-1][1] <= 1e-9
        scale = np.maximum(1.0, np.abs(normal.eigenvalues[:k]))
        assert np.max(np.abs(short.eigenvalues[:k] - normal.eigenvalues[:k]) / scale) <= 1e-9


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

        def stable(previous, value):
            delta = abs(value - previous)
            return delta <= 0.02, delta

        value, trail = refine(solve, 10, lambda n: 2 * n, stable)
        assert solved == [10, 20, 40, 80]
        assert value == 1.0 / 80
        assert [n for n, _ in trail] == solved and trail[0][1] is None
        assert [d for _, d in trail[1:]] == pytest.approx([0.05, 0.025, 0.0125])

    def test_doubling_cap(self):
        grow = doubling(2, "the lowest 3 eigenvalues", 1e-9)
        assert grow(100) == 200
        with pytest.raises(ConvergenceError, match="cutoff cap of"):
            grow(MAX_STATES // 4)


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
