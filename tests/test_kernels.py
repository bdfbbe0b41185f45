"""Oscillator kernels, the conditioned-bridge law, and the flip expansion."""

import numpy as np
import pytest
from scipy.integrate import dblquad, quad

import rabizeta.kernels as kernels
from rabizeta.errors import DomainError
from rabizeta.kernels import (
    gaussian_overlap_element_fk,
    heat_kernel_component,
    heat_kernel_flip_sum,
    mehler_kernel,
    ou_bridge_coefficients,
    ou_bridge_covariance,
)
from rabizeta.model import ModelParams
from rabizeta.observables import vacuum_element_ed


def ou_transition_density(t: float, y, x) -> np.ndarray:
    """Transition density of the stationary-variance-1/2 OU process."""
    if t <= 0:
        raise DomainError(f"t must be positive, got {t}")
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    var = -np.expm1(-2.0 * t)  # 1 - e^{-2t}
    return np.exp(-((y - np.exp(-t) * x) ** 2) / var) / np.sqrt(np.pi * var)


class TestTransitionDensity:
    def test_normalization(self):
        for t in (0.05, 0.7, 3.0):
            val, _ = quad(lambda y: float(ou_transition_density(t, y, 0.4)), -np.inf, np.inf)
            assert val == pytest.approx(1.0, abs=1e-10)

    def test_relaxation_to_stationary(self):
        # large times forget the start point: density -> exp(-y^2)/sqrt(pi)
        y = np.linspace(-2, 2, 9)
        stat = np.exp(-(y**2)) / np.sqrt(np.pi)
        assert np.abs(ou_transition_density(40.0, y, 1.7) - stat).max() < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            ou_transition_density(0.0, 0.0, 0.0)


class TestMehler:
    def test_symmetry(self):
        grid = np.linspace(-1.5, 1.5, 7)
        for x in grid:
            for y in grid:
                assert mehler_kernel(0.8, x, y) == pytest.approx(
                    mehler_kernel(0.8, y, x), abs=1e-15
                )

    def test_semigroup_composition(self):
        t, s, x, y = 0.5, 0.5, 0.3, -0.2
        val, _ = quad(
            lambda z: float(mehler_kernel(t, x, z) * mehler_kernel(s, z, y)),
            -np.inf, np.inf,
        )
        assert abs(val - float(mehler_kernel(t + s, x, y))) < 1e-6

    def test_relation_to_transition_density(self):
        # M_t(x, y) = gauss(x)/gauss(y) * kappa_t(y, x)
        x, y, t = 0.6, -0.4, 0.9
        ratio = np.exp(-(x**2) / 2) / np.exp(-(y**2) / 2)
        assert float(mehler_kernel(t, x, y)) == pytest.approx(
            ratio * float(ou_transition_density(t, y, x)), rel=1e-12
        )


class TestBridge:
    def test_endpoint_interpolation(self):
        a, b = ou_bridge_coefficients(np.array([0.0, 1.3]), 1.3)
        assert a[0] == pytest.approx(1.0) and b[0] == pytest.approx(0.0)
        assert a[1] == pytest.approx(0.0) and b[1] == pytest.approx(1.0)

    def test_mean_and_variance_vs_quadrature(self):
        t, x, y, s = 1.3, 0.4, -0.6, 0.5
        norm = float(ou_transition_density(t, y, x))

        def bridge_pdf(z):
            return float(
                ou_transition_density(t - s, y, z) * ou_transition_density(s, z, x)
            ) / norm

        mean_q, _ = quad(lambda z: z * bridge_pdf(z), -np.inf, np.inf)
        m2_q, _ = quad(lambda z: z * z * bridge_pdf(z), -np.inf, np.inf)
        a, b = ou_bridge_coefficients(np.array([s]), t)
        mean_c = a[0] * x + b[0] * y
        var_c = ou_bridge_covariance(np.array([s]), t)[0, 0]
        assert mean_q == pytest.approx(mean_c, abs=1e-10)
        assert m2_q - mean_q**2 == pytest.approx(var_c, abs=1e-10)

    def test_cross_covariance_vs_quadrature(self):
        t, x, y = 1.3, 0.4, -0.6
        s1, s2 = 0.4, 0.9
        norm = float(ou_transition_density(t, y, x))

        def joint(z1, z2):
            return float(
                ou_transition_density(s1, z1, x)
                * ou_transition_density(s2 - s1, z2, z1)
                * ou_transition_density(t - s2, y, z2)
            ) / norm

        cross_q, _ = dblquad(lambda z2, z1: z1 * z2 * joint(z1, z2), -8, 8, -8, 8,
                             epsabs=1e-10)
        a, b = ou_bridge_coefficients(np.array([s1, s2]), t)
        mu = a * x + b * y
        cov = ou_bridge_covariance(np.array([s1, s2]), t)
        assert cross_q == pytest.approx(cov[0, 1] + mu[0] * mu[1], abs=1e-8)

    def test_covariance_positive_semidefinite(self):
        s = np.sort(np.random.default_rng(1).uniform(0, 2.0, size=6))
        cov = ou_bridge_covariance(s, 2.0)
        assert np.linalg.eigvalsh(cov).min() > -1e-12


class TestHeatKernelComponents:
    def test_zero_flip_is_mehler(self):
        p = ModelParams(0.5, 1.0)
        est = heat_kernel_component(p, 1.0, 0, 0.3, -0.2)
        assert est.mean == pytest.approx(float(mehler_kernel(1.0, 0.3, -0.2)))
        assert est.stderr == 0.0

    def test_uncoupled_components(self):
        # g = 0: the bridge factor is 1 and the m-flip weight is (dt)^m/m!
        from math import factorial

        p = ModelParams(0.5, 0.0)
        base = float(mehler_kernel(1.0, 0.3, -0.2))
        for m in (1, 2, 3):
            est = heat_kernel_component(p, 1.0, m, 0.3, -0.2, n_samples=500)
            weight = (0.5) ** m / factorial(m)
            assert est.mean == pytest.approx(weight * base, rel=1e-12)
            assert est.stderr == pytest.approx(0.0, abs=1e-15)

    def test_spin_mirror_conjugates(self):
        p = ModelParams(0.5, 1.5)
        up = heat_kernel_component(p, 1.0, 3, 0.3, -0.2, n_samples=4000, alpha=+1)
        down = heat_kernel_component(p, 1.0, 3, 0.3, -0.2, n_samples=4000, alpha=-1)
        assert up.mean == pytest.approx(np.conj(down.mean), abs=1e-12)

    def test_flip_sum_shrinks_with_coupling(self):
        devs = [
            abs(heat_kernel_flip_sum(ModelParams(0.5, g), 1.0, 0.3, -0.2, 6,
                                     n_samples=8000, seed=51).mean)
            for g in (2.0, 6.0)
        ]
        assert devs[1] < devs[0]

    def test_flip_orders_draw_from_distinct_streams(self, monkeypatch):
        # the per-m variances of the flip sum add only if no two (m, stream)
        # pairs share a generator state
        states = []
        original = kernels._bridge_characteristic

        def spy(params, t, m, alpha, rng, chunk):
            states.append((m, repr(rng.bit_generator.state)))
            return original(params, t, m, alpha, rng, chunk)

        monkeypatch.setattr(kernels, "_bridge_characteristic", spy)
        heat_kernel_flip_sum(ModelParams(0.5, 1.0), 1.0, 0.3, -0.2, 4, n_samples=800, seed=55)
        assert [m for m, _ in states] == [m for m in (1, 2, 3, 4) for _ in range(8)]
        assert len({state for _, state in states}) == len(states)


class TestReconstruction:
    def test_matches_exact_element(self):
        p = ModelParams(0.5, 1.0)
        rec = gaussian_overlap_element_fk(p, 1.0, 6, n_samples=40_000, seed=52)
        assert rec.z_score(vacuum_element_ed(p, 1.0)) < 3

    def test_single_flip_term_is_closed_form(self, monkeypatch):
        # one flip: the overlap is e^{-2 g^2} at every flip time, so nothing is drawn
        orders = []
        original = kernels._flip_average

        def spy(params, t, m, *args):
            orders.append(m)
            return original(params, t, m, *args)

        monkeypatch.setattr(kernels, "_flip_average", spy)
        p = ModelParams(0.5, 1.0)
        rec = gaussian_overlap_element_fk(p, 1.0, 1, n_samples=400, seed=52)
        assert rec.mean == pytest.approx(2 + 2 * 0.5 * np.exp(-2.0), rel=1e-15)
        assert rec.stderr == 0.0 and rec.n_samples == 0
        gaussian_overlap_element_fk(p, 1.0, 4, n_samples=400, seed=52)
        assert orders == [2, 3, 4]

    def test_uncoupled_sums_to_exponential(self):
        # g = 0 components are exact: the m-sum telescopes to 2 e^(delta t)
        p = ModelParams(0.5, 0.0)
        rec = gaussian_overlap_element_fk(p, 1.0, 20, n_samples=200, seed=53)
        assert rec.mean == pytest.approx(2 * np.exp(0.5), rel=1e-10)

    def test_strong_coupling_approaches_free_value(self):
        rec = gaussian_overlap_element_fk(ModelParams(0.5, 6.0), 1.0, 6,
                                          n_samples=20_000, seed=54)
        assert rec.mean == pytest.approx(2.0, abs=0.01)
