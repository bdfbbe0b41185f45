"""Exact ground-state observables: closed values, identities, cross-frames."""

import numpy as np
import pytest

import rabizeta.model as model
import rabizeta.observables as observables
from rabizeta.model import ModelParams, Truncation, build_parity_tridiagonal
from rabizeta.errors import ConvergenceError, DomainError, ParameterError
from rabizeta.observables import (
    _ground_state_at,
    _partition_at,
    _vacuum_element_at,
    annihilate,
    gibbs_number_ed,
    ground_state,
    number_moment_ed,
    number_parity_expectation,
    parity_expectation_lab,
    partition_ed,
    pull_through_residual,
    resolvent_spin_norm,
    semigroup_matrix_element_ed,
    semigroup_trace_ed,
    spin_autocorrelation_ed,
    vacuum_element_ed,
    x_characteristic_ed,
    x_square_exponential_ed,
)
from rabizeta.zeta import hurwitz_zeta
from rabizeta.model import adaptive_spectrum


@pytest.fixture(scope="module")
def gs_std():
    return ground_state(ModelParams(0.5, 1.0))


@pytest.fixture(scope="module")
def gs_free():
    return ground_state(ModelParams(0.5, 0.0))


def charge(gs):
    """Z2 charge sum of spin * (-1)^n * |c|^2 of a lab-frame ground state."""
    signs = np.where(np.arange(gs.n_levels) % 2 == 0, 1.0, -1.0)
    return float(np.sum(signs * (gs.coeffs[:, 0] ** 2 - gs.coeffs[:, 1] ** 2)))


class TestGroundState:
    def test_uncoupled_closed_form(self, gs_free):
        # g = 0: spin -1 on the boson vacuum
        assert gs_free.energy == pytest.approx(-0.5, abs=1e-12)
        c = gs_free.coeffs
        assert c[0, 0] == 0.0
        assert c[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert np.abs(c[1:]).max() < 1e-10

    def test_normalized_and_sign_fixed(self, gs_std):
        assert np.linalg.norm(gs_std.coeffs) == pytest.approx(1.0, abs=1e-12)
        assert gs_std.coeffs[0, 1] > 0

    def test_parity_is_odd(self, gs_std):
        lab = parity_expectation_lab(gs_std.params, gs_std.truncation)
        assert lab == pytest.approx(-1.0, abs=1e-8)

    def test_parity_matches_lab_frame(self, gs_std):
        lab = parity_expectation_lab(gs_std.params, Truncation(160))
        assert lab == pytest.approx(charge(gs_std), abs=1e-9)

    @pytest.mark.parametrize("g", [3.0, 4.0])
    def test_strong_coupling_vector_is_odd(self, g):
        # a matrix holding both chains mixes in the even ground level here
        assert charge(ground_state(ModelParams(0.5, g))) == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("g", [3.0, 4.0])
    def test_strong_coupling_vector_is_converged(self, g):
        p = ModelParams(0.5, g)
        gs = ground_state(p)
        bigger = _ground_state_at(p, 2 * gs.truncation.n_max)
        for oracle, beta in ((x_characteristic_ed, 1.0), (x_square_exponential_ed, 0.5)):
            assert oracle(gs, beta) == pytest.approx(oracle(bigger, beta), rel=1e-12)

    def test_ground_state_cutoff_is_checked(self):
        p = ModelParams(0.5, 4.0)
        gs = ground_state(p)
        start = model.turning_point_cutoff(1, 4.0)
        assert gs.truncation.n_max == 2 * start
        assert _ground_state_at(p, start).energy == pytest.approx(gs.energy, rel=1e-10)

    def test_tilt_rejected(self):
        p = ModelParams(0.5, 1.0, eps=0.25)
        with pytest.raises(ParameterError):
            ground_state(p)
        for oracle in (vacuum_element_ed, partition_ed):
            with pytest.raises(ParameterError):
                oracle(p, 1.0)

    def test_number_parity_positive(self, gs_std):
        assert number_parity_expectation(gs_std) > 0


class TestNumberObservables:
    def test_moment_normalization(self, gs_std):
        assert number_moment_ed(gs_std, 0) == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_moments_vanish(self, gs_free):
        for m in range(1, 5):
            assert number_moment_ed(gs_free, m) == pytest.approx(0.0, abs=1e-18)

    def test_gibbs_bound(self, gs_std):
        # closed bound: every moment stays below e^{2 g^2} - 1 for m >= 1
        g = gs_std.params.g
        assert number_moment_ed(gs_std, 1) <= np.exp(2 * g**2) - 1

    def test_moment_order_cap(self, gs_std):
        with pytest.raises(ParameterError):
            number_moment_ed(gs_std, 9)

    def test_gibbs_trivial_and_parity(self, gs_std):
        assert gibbs_number_ed(gs_std, 0.0) == pytest.approx(1.0, abs=1e-12)
        val = gibbs_number_ed(gs_std, 1j * np.pi)
        assert abs(val.imag) < 1e-12
        assert val.real > 0

    def test_gibbs_matches_moment(self, gs_std):
        # derivative of <e^{beta n}> at 0 equals <n>, via central difference
        h = 1e-5
        deriv = (gibbs_number_ed(gs_std, h) - gibbs_number_ed(gs_std, -h)).real / (2 * h)
        assert deriv == pytest.approx(number_moment_ed(gs_std, 1), abs=1e-6)


class TestPositionObservables:
    def test_free_characteristic_is_gaussian(self, gs_free):
        for beta in (0.5, 1.0, 2.0):
            val = x_characteristic_ed(gs_free, beta)
            assert val == pytest.approx(np.exp(-beta**2 / 4), abs=1e-10)

    def test_beta_zero(self, gs_std):
        assert x_characteristic_ed(gs_std, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert x_square_exponential_ed(gs_std, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_free_square_exponential(self, gs_free):
        for beta in (-0.5, 0.3, 0.5):
            val = x_square_exponential_ed(gs_free, beta)
            assert val == pytest.approx(1 / np.sqrt(1 - beta), rel=1e-8)
        # cutoff convergence slows near the divergence at beta -> 1
        val = x_square_exponential_ed(gs_free, 0.9)
        assert val == pytest.approx(1 / np.sqrt(0.1), rel=5e-4)

    def test_square_exponential_independent_of_cutoff(self):
        params = ModelParams(0.5, 1.0)
        vals = [
            x_square_exponential_ed(_ground_state_at(params, n), 0.5)
            for n in (64, 128, 256)
        ]
        assert vals[1] == pytest.approx(vals[0], rel=1e-10)
        assert vals[2] == pytest.approx(vals[0], rel=1e-10)

    def test_square_exponential_refuses_noise_floor(self, gs_std):
        # double-precision coefficients cannot carry <exp(0.9 x^2)> at g=1
        with pytest.raises(ConvergenceError):
            x_square_exponential_ed(gs_std, 0.9)

    def test_square_domain(self, gs_std):
        with pytest.raises(DomainError):
            x_square_exponential_ed(gs_std, 1.0)


class TestPullThrough:
    def test_uncoupled_both_sides_zero(self, gs_free):
        assert pull_through_residual(gs_free) == 0.0
        assert np.sum(annihilate(gs_free.coeffs) ** 2) == pytest.approx(0.0, abs=1e-18)

    def test_identity_residual(self, gs_std):
        assert pull_through_residual(gs_std) < 1e-6

    def test_resolvent_norm_equals_moment(self, gs_std):
        # combined with the identity: g^2 |resolvent|^2 = <n>
        lhs = gs_std.params.g ** 2 * resolvent_spin_norm(gs_std)
        assert lhs == pytest.approx(number_moment_ed(gs_std, 1), rel=1e-6)


class TestSpinAutocorrelation:
    def test_zero_lag(self, gs_std):
        assert spin_autocorrelation_ed(gs_std, 0.0) == pytest.approx(1.0, abs=1e-10)

    def test_monotone_nonincreasing(self, gs_std):
        lags = [0.0, 0.3, 0.8, 1.5, 3.0]
        vals = [spin_autocorrelation_ed(gs_std, lag) for lag in lags]
        assert all(vals[i + 1] <= vals[i] + 1e-12 for i in range(len(vals) - 1))

    def test_negative_lag_rejected(self, gs_std):
        with pytest.raises(DomainError):
            spin_autocorrelation_ed(gs_std, -0.1)


class TestSemigroup:
    def test_time_zero_is_overlap(self):
        p = ModelParams(0.5, 1.0)
        mat = build_parity_tridiagonal(p, Truncation(30), -1)
        rng = np.random.default_rng(5)
        phi, psi = rng.normal(size=(2, mat.dim))
        val = semigroup_matrix_element_ed(mat, phi, psi, 0.0)
        assert val == pytest.approx(float(phi @ psi), rel=1e-10)

    def test_uncoupled_flat_element(self):
        # flat state on the boson vacuum decays with the spin ground energy
        p = ModelParams(0.5, 0.0)
        for t in (0.5, 1.0, 2.0):
            val = _partition_at(p, t, 30)
            assert val == pytest.approx(2 * np.exp(0.5 * t), rel=1e-10)

    def test_trace_decoupled(self):
        # delta = 0 shifted trace is two copies of the oscillator trace
        p = ModelParams(0.0, 1.5)
        spec = adaptive_spectrum(p, k=40, rel_tol=1e-9)
        t, tau = 0.7, 1.0
        trace = semigroup_trace_ed(spec, t, shift=p.g**2 + tau)
        n = np.arange(400)
        assert trace == pytest.approx(2 * np.sum(np.exp(-t * (n + tau))), rel=1e-7)

    def test_trace_mellin_consistency(self):
        # quadrature of t^{s-1} Tr e^{-t(...)} / Gamma(s) reproduces 2 zeta(s;tau)
        from scipy.integrate import quad
        from scipy.special import gamma

        from rabizeta.model import Spectrum

        p = ModelParams(0.0, 1.0)
        spec = adaptive_spectrum(p, k=60, rel_tol=1e-9)
        keep = spec.converged_count - spec.converged_count % 2
        head = Spectrum(spec.eigenvalues[:keep])
        s, tau = 2.5, 1.0
        val, _ = quad(
            lambda t: t ** (s - 1) * semigroup_trace_ed(head, t, shift=p.g**2 + tau),
            0.0, 60.0, limit=200,
        )
        # account for the levels beyond the converged prefix analytically
        missing = 2 * hurwitz_zeta(s, tau + keep // 2).value.real
        assert val / gamma(s) + missing == pytest.approx(
            2 * hurwitz_zeta(s, tau).value.real, rel=1e-6
        )


class TestVacuumElement:
    def test_uncoupled_value(self):
        for t in (0.5, 1.0):
            val = vacuum_element_ed(ModelParams(0.5, 0.0), t)
            assert val == pytest.approx(2 * np.exp(0.5 * t), rel=1e-10)

    def test_delta_zero_value(self):
        # no spin flips: the shifted element is exactly the free overlap 2
        val = vacuum_element_ed(ModelParams(0.0, 1.0), 1.0)
        assert val == pytest.approx(2.0, rel=1e-9)

    def test_partition_uncoupled(self):
        assert partition_ed(ModelParams(0.5, 0.0), 1.0) == pytest.approx(
            2 * np.exp(0.5), rel=1e-10
        )


class TestCheckedCutoffs:
    @pytest.mark.parametrize("g", [0.5, 1.0])
    def test_automatic_cutoff_matches_large_fixed_one(self, g):
        p = ModelParams(0.5, g)
        for oracle, at, t in ((vacuum_element_ed, _vacuum_element_at, 1.0),
                              (partition_ed, _partition_at, 2.0)):
            assert oracle(p, t) == pytest.approx(at(p, t, 192), rel=1e-12)

    def test_measured_values(self):
        p = ModelParams(0.5, 0.5)
        assert vacuum_element_ed(p, 1.0) == pytest.approx(2.8295183124731, rel=1e-13)
        assert partition_ed(p, 2.0) == pytest.approx(6.5911110485489, rel=1e-13)

    def test_explicit_cutoff_is_kept(self, monkeypatch):
        dims = []
        solve = observables.eigensolve

        def counting(mat, *args, **kwargs):
            dims.append(mat.dim)
            return solve(mat, *args, **kwargs)

        monkeypatch.setattr(observables, "eigensolve", counting)
        p = ModelParams(0.5, 1.0)
        _vacuum_element_at(p, 1.0, 10)
        _partition_at(p, 2.0, 12)
        _ground_state_at(p, 14)
        assert dims == [11, 11, 13, 15]

    def test_cap_raises(self, monkeypatch):
        monkeypatch.setattr(model, "MAX_STATES", 100)
        p = ModelParams(0.5, 1.0)
        for oracle in (vacuum_element_ed, partition_ed):
            with pytest.raises(ConvergenceError, match="cutoff cap"):
                oracle(p, 1.0)
        with pytest.raises(ConvergenceError, match="cutoff cap"):
            ground_state(p)
