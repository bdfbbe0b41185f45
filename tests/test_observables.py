"""Exact ground-state observables: closed values, identities, cross-frames."""

import numpy as np
import pytest
from scipy.linalg import eig_banded

import rabizeta.model as model
import rabizeta.observables as observables
from rabizeta.model import (
    ModelParams,
    Truncation,
    build_full_hamiltonian,
    build_parity_tridiagonal,
    coherent_coefficients,
    full_basis_labels,
)
from rabizeta.errors import ConvergenceError, DomainError, NumericalError, ParameterError
from rabizeta.observables import (
    _ground_state_at,
    _partition_enclosure,
    _vacuum_enclosure,
    gibbs_number_ed,
    ground_state,
    number_moment_ed,
    number_parity_expectation,
    partition_ed,
    pull_through_residual,
    resolvent_spin_norm,
    spin_autocorrelation_ed,
    vacuum_element_ed,
    x_characteristic_ed,
    x_square_exponential_ed,
)
from rabizeta.zeta import hurwitz_zeta
from rabizeta.model import adaptive_spectrum


def semigroup_trace_ed(spectrum, t: float, shift: float = 0.0) -> float:
    """Trace of exp(-t*(M + shift)) over the computed eigenvalues."""
    if t < 0:
        raise DomainError(f"t must be >= 0, got {t}")
    return float(np.sum(np.exp(-t * (spectrum.eigenvalues + shift))))


def semigroup_matrix_element_ed(mat, phi, psi, t: float, shift: float = 0.0) -> float:
    """<phi| exp(-t*(M + shift)) |psi> by full diagonalization of the chain ``mat``."""
    w = model.eigensolve(mat)
    vecs = model._chain_vectors(mat, w)
    return float(np.sum((vecs.T @ phi) * (vecs.T @ psi) * np.exp(-t * (w + shift))))


def _vacuum_element_at(params: ModelParams, t: float, n_max: int) -> float:
    """``vacuum_element_ed`` at the cutoff ``n_max``."""
    return _vacuum_enclosure(params, t, n_max)[0]


def _partition_at(params: ModelParams, t: float, n_max: int) -> float:
    """``partition_ed`` at the cutoff ``n_max``."""
    return _partition_enclosure(params, t, n_max)[0]


def _partition_bound(params: ModelParams, t: float, n_max: int) -> float:
    """The bound ``partition_ed`` reports at the cutoff ``n_max``."""
    return _partition_enclosure(params, t, n_max)[1]


@pytest.fixture(scope="module")
def gs_std():
    return ground_state(ModelParams(0.5, 1.0))


@pytest.fixture(scope="module")
def gs_free():
    return ground_state(ModelParams(0.5, 0.0))


def certified(monkeypatch, compute):
    """``compute()``, the result ``refine`` certified in it, and its trail of cutoffs."""
    runs = []
    refine = observables.refine

    def recording(*args):
        result, trail = refine(*args)
        runs.append((result, [n for n, _ in trail]))
        return result, trail

    monkeypatch.setattr(observables, "refine", recording)
    value = compute()
    monkeypatch.setattr(observables, "refine", refine)
    return value, *runs[-1]


def parity_expectation_lab(params: ModelParams, trunc: Truncation) -> float:
    """Conserved Z2 charge sz*(-1)^n of the full model's ground vector at ``trunc``.

    An independent check of ``ground_state``: LAPACK's lowest eigenvector of
    the matrix that holds both chains, whose lowest level is the odd one
    (charge -1).
    """
    mat = build_full_hamiltonian(params, trunc)
    _, vec = eig_banded(mat.bands, lower=True, select="i", select_range=(0, 0))
    _, _, z2 = full_basis_labels(trunc.n_max)
    return float(np.sum(z2 * vec[:, 0] ** 2))


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
        # the energy's bracket certifies it at the start cutoff, with no second solve
        p = ModelParams(0.5, 4.0)
        gs = ground_state(p)
        assert gs.truncation.n_max == model.turning_point_cutoff(1, 4.0)
        assert gs.error_bound <= 1e-10 * abs(gs.energy)
        bigger = _ground_state_at(p, 2 * gs.truncation.n_max)
        assert bigger.energy == pytest.approx(gs.energy, rel=1e-10)

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

    def test_gibbs_real_beta_outgrows_the_energy_cutoff(self):
        # at g = 5 the energy's cutoff leaves a third of <e^n> in its last 8 levels
        p = ModelParams(0.5, 5.0)
        full = _ground_state_at(p, 228)
        reference = np.sum(np.exp(np.arange(full.n_levels)) * full.level_weights())
        assert gibbs_number_ed(ground_state(p), 1.0).real == pytest.approx(reference, rel=1e-10)

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

    @pytest.mark.parametrize("g, value", [(5.0, 7.3063702171e21), (6.0, 2.6221469777e31)])
    def test_square_exponential_outgrows_the_energy_cutoff(self, g, value):
        # the energy certifies at cutoffs 152 and 186, too short for this value
        p = ModelParams(0.5, g)
        gs = ground_state(p)
        val = x_square_exponential_ed(gs, 0.5)
        assert val == pytest.approx(value, rel=1e-9)
        longer = _ground_state_at(p, 4 * gs.truncation.n_max)
        assert val == pytest.approx(x_square_exponential_ed(longer, 0.5), rel=1e-10)

    def test_square_exponential_refuses_noise_floor(self, gs_std):
        # LAPACK's ground vector stopped decaying near 1e-50 here; the chain's
        # own recurrences carry every component, and the value certifies
        # (reference: Gauss-Hermite sum of the 60-digit ground vector at
        # N = 110 and 140, which agree to 20 digits)
        assert x_square_exponential_ed(gs_std, 0.9) == pytest.approx(78432834.53863283023,
                                                                     rel=1e-12)

    def test_value_past_the_double_range_raises(self):
        # at g = 7 the partial sums pass 1e308 on the way to the value
        with pytest.raises(NumericalError, match="past the double range"):
            x_square_exponential_ed(ground_state(ModelParams(0.5, 7.0)), 0.9)
        with pytest.raises(NumericalError, match="past the double range"):
            gibbs_number_ed(ground_state(ModelParams(0.5, 0.5)), 20.0)

    def test_square_domain(self, gs_std):
        with pytest.raises(DomainError):
            x_square_exponential_ed(gs_std, 1.0)


class TestPullThrough:
    def test_uncoupled_both_sides_zero(self, gs_free):
        assert pull_through_residual(gs_free) == 0.0
        assert number_moment_ed(gs_free, 1) == pytest.approx(0.0, abs=1e-18)

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

    def test_explicit_cutoff_is_kept(self, solves):
        p = ModelParams(0.5, 1.0)
        _vacuum_element_at(p, 1.0, 10)
        _partition_at(p, 2.0, 12)
        _ground_state_at(p, 14)
        assert solves == [(11, None), (13, None), (15, None)]

    def test_overflow_raises_at_once(self, solves):
        # exp(t (g^2 + delta)) overflows: no cutoff certifies an infinite value
        with pytest.raises(NumericalError, match="past the double range"):
            partition_ed(ModelParams(0.5, 12.0), 5.0)
        assert solves == [(model.turning_point_cutoff(1, 12.0) + 1, None)]

    def test_cap_raises(self, monkeypatch):
        # none of the three certifies at the start cutoff 76 here; two states
        # per level: 76 fits, the next one, 99, does not
        monkeypatch.setattr(model, "MAX_STATES", 154)
        p = ModelParams(2.0, 5.0)
        for oracle in (vacuum_element_ed, partition_ed):
            with pytest.raises(ConvergenceError, match="cutoff cap"):
                oracle(p, 2.0)
        with pytest.raises(ConvergenceError, match="cutoff cap"):
            ground_state(p)


ENCLOSURE_DELTAS = (0.0, 0.5, 2.0)
ENCLOSURE_GS = (0.05, 0.5, 2.0, 5.0, -3.0)
ENCLOSURE_TS = (0.25, 1.0, 2.0)


def encloses(value, bound, reference):
    """``reference`` lies within ``bound`` of ``value``, up to rounding."""
    return abs(reference - value) <= bound + 1e-12 * max(1.0, abs(value))


class TestEnclosures:
    """Each certified oracle value lies within its bound of a solve at twice its cutoff."""

    @pytest.mark.parametrize("delta", ENCLOSURE_DELTAS)
    def test_ground_energy(self, delta):
        for g in ENCLOSURE_GS:
            p = ModelParams(delta, g)
            gs = ground_state(p)
            assert gs.error_bound <= 1e-10 * max(1.0, abs(gs.energy))
            bigger = _ground_state_at(p, 2 * gs.truncation.n_max)
            assert encloses(gs.energy, gs.error_bound, bigger.energy), (g, gs.truncation)

    @pytest.mark.parametrize("delta", ENCLOSURE_DELTAS)
    def test_partition(self, delta, monkeypatch):
        for g in ENCLOSURE_GS:
            p = ModelParams(delta, g)
            for t in ENCLOSURE_TS:
                value, (at, bound), cutoffs = certified(monkeypatch, lambda: partition_ed(p, t))
                n_max = cutoffs[-1]
                assert value == at == _partition_at(p, t, n_max)
                assert bound == _partition_bound(p, t, n_max) <= 1e-10 * max(1.0, abs(value))
                bigger = _partition_at(p, t, 2 * n_max)
                assert encloses(value, bound, bigger), (g, t, n_max)
                # the Gauss rule never overshoots
                assert bigger >= value - 1e-12 * max(1.0, abs(value))

    @pytest.mark.parametrize("delta", ENCLOSURE_DELTAS)
    def test_vacuum(self, delta, monkeypatch):
        for g in ENCLOSURE_GS + (8.0, 12.0):
            p = ModelParams(delta, g)
            for t in ENCLOSURE_TS + (4.0,):
                value, (at, bound), cutoffs = certified(monkeypatch,
                                                        lambda: vacuum_element_ed(p, t))
                n_max = cutoffs[-1]
                assert value == at and (at, bound) == _vacuum_enclosure(p, t, n_max)
                assert bound <= 1e-10 * max(1.0, abs(value))
                bigger = _vacuum_element_at(p, t, 2 * n_max)
                assert encloses(value, bound, bigger), (g, t, n_max)

    @pytest.mark.parametrize("g", [0.05, 0.5, 1.0, 3.0, 8.0, 12.0, -3.0])
    def test_flat_state_has_no_even_chain_component(self, g):
        # the displaced flat state in the lab frame: the (anti)symmetric pair of
        # coherent states at -g and +g, in the full model's interleaved basis
        n_max = 200
        minus, plus = coherent_coefficients(-g, n_max), coherent_coefficients(g, n_max)
        up, down = (minus - plus) / np.sqrt(2.0), (minus + plus) / np.sqrt(2.0)
        spin, fock, _ = full_basis_labels(n_max)
        phi = np.where(spin == 1, up[fock], down[fock])
        assert np.all(phi[0::2] == 0.0)
        assert phi[1::2] == pytest.approx(np.sqrt(2.0) * minus, rel=1e-15, abs=0.0)

    def test_strong_coupling_partition_certifies(self, monkeypatch):
        # two consecutive cutoffs never agreed here: eigenvector rounding moves
        # the value by about 1e-8 between them, so the cutoff grew without end
        p = ModelParams(0.5, 8.0)
        _, _, cutoffs = certified(monkeypatch, lambda: partition_ed(p, 2.0))
        assert cutoffs == [133, 173, 225, 293]


# Reference values at delta = 0.5, computed outside the package.  Partition
# element 2 (exp(-2 T))_00 on the odd chain T: the mpmath Taylor series of
# exp(-t T) e_0 with 613 digits at N = 200 (g = 6) and 420 digits at N = 293
# (g = 8).  <exp(beta x^2)>: the Gauss-Hermite sum of the 60-digit ground
# vector at two cutoffs that agree to 20 digits (N = 110 and 140 at g = 1,
# beta = 0.9; 170 and 200 at g = 1, beta = 0.95; 260 and 320 at g = 3,
# beta = 0.8).
class TestReferences:
    """Each certified value lies within its tolerance and its own bound of the reference."""

    @pytest.mark.parametrize("g, reference, rel", [(6.0, 1.1517813698902734e18, 1e-13),
                                                   (8.0, 7.2943411145029217e31, 1e-12)])
    def test_partition(self, monkeypatch, g, reference, rel):
        p = ModelParams(0.5, g)
        value, (_, bound), _ = certified(monkeypatch, lambda: partition_ed(p, 2.0))
        assert value == pytest.approx(reference, rel=rel, abs=0.0)
        assert abs(value - reference) <= bound

    @pytest.mark.parametrize("g, beta, reference", [(1.0, 0.9, 78432834.53863283023),
                                                    (1.0, 0.95, 4.3315001393372696e16),
                                                    (3.0, 0.8, 4.0594913544174409e31)])
    def test_x_square(self, monkeypatch, g, beta, reference):
        gs = ground_state(ModelParams(0.5, g))
        value, (_, bound), _ = certified(monkeypatch, lambda: x_square_exponential_ed(gs, beta))
        assert value == pytest.approx(reference, rel=1e-12, abs=0.0)
        assert abs(value - reference) <= bound

    def test_gibbs_certifies_past_the_energy_cutoff(self, monkeypatch):
        gs = ground_state(ModelParams(0.5, 5.0))
        value, (_, bound), cutoffs = certified(monkeypatch, lambda: gibbs_number_ed(gs, 1.0))
        # the sum of LAPACK's vector at N = 152 and 228 (ROADMAP item 2) reads 4.5147e18
        assert value.real == pytest.approx(4.5147031475827e18, rel=1e-10) and value.imag == 0.0
        assert bound <= 1e-10 * abs(value) and cutoffs[0] == gs.truncation.n_max
