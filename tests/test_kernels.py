"""Oscillator kernels, the conditioned-bridge law, and the flip expansion."""

import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.integrate import dblquad, quad

import rabizeta.kernels as kernels
from rabizeta.errors import DomainError, ParameterError
from rabizeta.kernels import (
    _MIN_TIME,
    _flip_couplings,
    gaussian_overlap_element_fk,
    heat_kernel_component,
    heat_kernel_flip_sum,
    mehler_kernel,
)
from rabizeta.model import ModelParams
from rabizeta.observables import vacuum_element_ed
from path_oracles import _rank_pass


def ou_transition_density(t: float, y, x) -> np.ndarray:
    """Transition density of the stationary-variance-1/2 OU process."""
    if t <= 0:
        raise DomainError(f"t must be positive, got {t}")
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    var = -np.expm1(-2.0 * t)  # 1 - e^{-2t}
    return np.exp(-((y - np.exp(-t) * x) ** 2) / var) / np.sqrt(np.pi * var)


def ou_bridge_covariance(s: np.ndarray, t: float) -> np.ndarray:
    """Covariance matrix of the OU bridge at times ``s`` (last axis pairs).

    cov(s, u) = sinh(min) sinh(t - max) / sinh(t), evaluated in the
    overflow-free form e^{min-max} (1-e^{-2 min}) (1-e^{-2(t-max)}) /
    (2 (1-e^{-2t})).
    """
    s = np.asarray(s, dtype=float)
    lo = np.minimum(s[..., :, None], s[..., None, :])
    hi = np.maximum(s[..., :, None], s[..., None, :])
    denom = -np.expm1(-2.0 * t)
    return (
        np.exp(lo - hi)
        * (-np.expm1(-2.0 * lo))
        * (-np.expm1(-2.0 * (t - hi)))
        / (2.0 * denom)
    )


def ou_bridge_coefficients(s: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Affine bridge mean factors: mean(s) = A(s) x + B(s) y, 0 <= s <= t.

    Stable hyperbolic ratios: A = e^{-s} (1-e^{-2(t-s)})/(1-e^{-2t}) and
    B = e^{s-t} (1-e^{-2s})/(1-e^{-2t}).
    """
    if t <= _MIN_TIME:
        raise DomainError(f"bridge horizon must exceed {_MIN_TIME}")
    s = np.asarray(s, dtype=float)
    denom = -np.expm1(-2.0 * t)
    a = np.exp(-s) * (-np.expm1(-2.0 * (t - s))) / denom
    b = np.exp(s - t) * (-np.expm1(-2.0 * s)) / denom
    return a, b


def _bridge_quadratic(s: np.ndarray, t: float, lam: np.ndarray) -> np.ndarray:
    """q = lam^T C lam for the bridge covariance C at sorted times ``s`` (last axis).

    O(m), with no (m, m) matrix: C is semiseparable, for j <= k
    C_jk = e^{s_j-s_k} (1-e^{-2 s_j}) (1-e^{-2(t-s_k)}) / (2 (1-e^{-2t})).
    With P_k = sum_{j<k} lam_j e^{s_j-s_k} (1-e^{-2 s_j}), built by
    P_{k+1} = e^{s_k-s_{k+1}} (P_k + lam_k (1-e^{-2 s_k})) from factors of
    at most 1, q = sum_k lam_k (1-e^{-2(t-s_k)}) (lam_k (1-e^{-2 s_k}) + 2 P_k)
    / (2 (1-e^{-2t})).
    """
    grow = -np.expm1(-2.0 * s)
    decay = -np.expm1(-2.0 * (t - s))
    prefix = np.zeros(s.shape[:-1])
    q = np.zeros(s.shape[:-1])
    for k in range(s.shape[-1]):
        if k:
            prefix = np.exp(s[..., k - 1] - s[..., k]) * (prefix + lam[k - 1] * grow[..., k - 1])
        q += lam[k] * decay[..., k] * (lam[k] * grow[..., k] + 2.0 * prefix)
    return q / (2.0 * -np.expm1(-2.0 * t))


def traced_peak(call) -> int:
    """Peak of the allocations ``tracemalloc`` traces while ``call()`` runs, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def bridge_quadratic_mp(s, t, lam) -> float:
    """lam^T C lam in 50-digit arithmetic from cov(s, u) = sinh(min) sinh(t - max) / sinh(t)."""
    with mpmath.workdps(50):
        t = mpmath.mpf(float(t))
        s = [mpmath.mpf(float(x)) for x in s]
        total = mpmath.mpf(0)
        for j, sj in enumerate(s):
            for k, sk in enumerate(s):
                lo, hi = min(sj, sk), max(sj, sk)
                total += float(lam[j]) * float(lam[k]) * mpmath.sinh(lo) * mpmath.sinh(t - hi) / mpmath.sinh(t)
        return float(total)


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

    def test_rejects_a_point_that_is_not_finite(self):
        for x, y in (([0.3, np.nan], -0.2), (0.3, np.inf), (-np.inf, 0.0)):
            with pytest.raises(DomainError):
                mehler_kernel(1.0, x, y)

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


class TestBridgeQuadratic:
    """The O(m) form of lam^T C lam against the dense covariance and 50 digits.

    ``ou_bridge_coefficients`` and ``_bridge_quadratic`` above are the
    table-by-table forms of the pieces that ``kernels._bridge_characteristic``
    forms in one sweep over the flips.
    """

    @pytest.mark.parametrize("t", [1e-3, 0.5, 2.0, 30.0])
    @pytest.mark.parametrize("m", range(1, 9))
    def test_matches_dense_and_mpmath(self, m, t):
        rng = np.random.default_rng(100 * m + int(10 * t))
        s = np.sort(rng.uniform(0.0, t, size=(6, m)), axis=1)
        for lam in (_flip_couplings(1.3, m), rng.normal(size=m)):
            q = _bridge_quadratic(s, t, lam)
            cov = ou_bridge_covariance(s, t)
            for i in range(len(s)):
                scale = np.sum(np.abs(np.outer(lam, lam) * cov[i]))
                assert abs(q[i] - lam @ cov[i] @ lam) <= 1e-12 * scale
                assert abs(q[i] - bridge_quadratic_mp(s[i], t, lam)) <= 1e-12 * scale

    def test_tied_and_edge_times(self):
        t = 1.5
        s = np.array([[0.0, 0.4, 0.4, t], [0.2, 0.2, 0.2, 0.2]])
        lam = -_flip_couplings(0.8, 4)
        cov = ou_bridge_covariance(s, t)
        for i in range(len(s)):
            scale = np.sum(np.abs(np.outer(lam, lam) * cov[i]))
            assert abs(_bridge_quadratic(s, t, lam)[i] - lam @ cov[i] @ lam) <= 1e-12 * scale

    def test_characteristic_uses_the_drawn_times(self):
        p, t, m = ModelParams(0.5, 1.1), 0.9, 5
        a, b, q = kernels._bridge_characteristic(p, t, m, np.random.default_rng(7), 50)
        s = np.sort(np.random.default_rng(7).uniform(0.0, t, size=(50, m)), axis=1)
        lam = _flip_couplings(p.g, m)
        coef_a, coef_b = ou_bridge_coefficients(s, t)
        ref_a, ref_b = np.zeros(50), np.zeros(50)
        for k in range(m):  # the sweep adds lam_k A_k and lam_k B_k in flip order
            ref_a += lam[k] * coef_a[:, k]
            ref_b += lam[k] * coef_b[:, k]
        assert np.array_equal(a, ref_a) and np.array_equal(b, ref_b)
        assert np.array_equal(q, _bridge_quadratic(s, t, lam))
        dense = np.einsum("j,njk,k->n", lam, ou_bridge_covariance(s, t), lam)
        assert np.allclose(q, dense, rtol=0, atol=1e-12 * np.abs(lam).sum() ** 2)


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
        # the spin -1 component is the one at (-x, -y): the complex conjugate
        p = ModelParams(0.5, 1.5)
        up = heat_kernel_component(p, 1.0, 3, 0.3, -0.2, n_samples=4000)
        down = heat_kernel_component(p, 1.0, 3, -0.3, 0.2, n_samples=4000)
        assert up.mean == pytest.approx(np.conj(down.mean), abs=1e-12)

    def test_flip_sum_shrinks_with_coupling(self):
        devs = [
            abs(heat_kernel_flip_sum(ModelParams(0.5, g), 1.0, 0.3, -0.2, 6,
                                     n_samples=8000, seed=51).mean)
            for g in (2.0, 6.0)
        ]
        assert devs[1] < devs[0]

    def test_rejects_bad_arguments_before_sampling(self):
        p = ModelParams(0.5, 1.0)
        with pytest.raises(ParameterError):
            heat_kernel_flip_sum(p, 1.0, 0.3, -0.2, -2, n_samples=100)
        with pytest.raises(ParameterError):
            gaussian_overlap_element_fk(p, 1.0, -1, n_samples=100)

    def test_rejects_bad_sample_counts_without_a_draw(self):
        # the zero-flip component, the empty flip sum and the closed m <= 1
        # reconstruction draw nothing, and still check n_samples
        p = ModelParams(0.5, 1.0)
        with pytest.raises(ParameterError):
            heat_kernel_component(p, 1.0, 0, 0.3, -0.2, n_samples=-5)
        with pytest.raises(ParameterError):
            heat_kernel_flip_sum(p, 1.0, 0.3, -0.2, 0, n_samples=-5)
        for m_max in (0, 1):
            with pytest.raises(ParameterError):
                gaussian_overlap_element_fk(p, 1.0, m_max, n_samples=-5)
        with pytest.raises(ParameterError):
            heat_kernel_component(p, 1.0, 0, 0.3, -0.2, n_samples=0)

    def test_one_sample_is_refused_without_a_draw(self, monkeypatch):
        # every standard error divides by n - 1, drawn or not
        def no_draw(*args, **kwargs):
            raise AssertionError("drew before the sample count was checked")

        monkeypatch.setattr(kernels, "_seed_streams", no_draw)
        p = ModelParams(0.5, 1.0)
        for m in (0, 2):
            with pytest.raises(ParameterError, match="at least 2"):
                heat_kernel_component(p, 1.0, m, 0.3, -0.2, n_samples=1)
        for m_max in (0, 3):
            with pytest.raises(ParameterError, match="at least 2"):
                heat_kernel_flip_sum(p, 1.0, 0.3, -0.2, m_max, n_samples=1)
            with pytest.raises(ParameterError, match="at least 2"):
                gaussian_overlap_element_fk(p, 1.0, m_max, n_samples=1)

    @pytest.mark.parametrize("t", [-1.0, 0.0, np.nan, np.inf])
    def test_rejects_a_time_not_positive_and_finite_without_a_draw(self, monkeypatch, t):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew before the time was checked")

        monkeypatch.setattr(kernels, "_seed_streams", no_draw)
        p = ModelParams(0.5, 1.0)
        for call in (lambda: mehler_kernel(t, 0.3, -0.2),
                     lambda: heat_kernel_component(p, t, 2, 0.3, -0.2, n_samples=100),
                     lambda: heat_kernel_flip_sum(p, t, 0.3, -0.2, 0, n_samples=100),
                     lambda: gaussian_overlap_element_fk(p, t, 6, n_samples=100)):
            with pytest.raises(DomainError):
                call()

    @pytest.mark.parametrize("m_max", [0, 3])
    @pytest.mark.parametrize("x,y", [(np.nan, -0.2), (0.3, np.inf)])
    def test_flip_sum_rejects_a_point_not_finite_without_a_draw(self, monkeypatch, m_max, x, y):
        # at m_max = 0 no component runs, so only the flip sum itself checks the points
        def no_draw(*args, **kwargs):
            raise AssertionError("drew before the points were checked")

        monkeypatch.setattr(kernels, "_seed_streams", no_draw)
        with pytest.raises(DomainError):
            heat_kernel_flip_sum(ModelParams(0.5, 1.0), 1.0, x, y, m_max)

    def test_zero_weight_orders_draw_nothing(self, monkeypatch):
        # at delta = 0 every m >= 1 order has weight 0: it draws nothing and
        # counts no sample (1000 and 4000 configurations were once drawn to be
        # multiplied by 0, and 5000 counted for a reconstruction that drew none)
        def no_draw(*args, **kwargs):
            raise AssertionError("drew an order of weight 0")

        monkeypatch.setattr(kernels, "_seed_streams", no_draw)
        p = ModelParams(0.0, 1.0)
        est = heat_kernel_component(p, 1.0, 3, 0.3, -0.2, n_samples=1000)
        assert (est.mean, est.stderr, est.n_samples) == (0.0, 0.0, 0)
        est = heat_kernel_flip_sum(p, 1.0, 0.3, -0.2, 4, n_samples=1000)
        assert (est.mean, est.stderr, est.n_samples) == (0.0, 0.0, 0)
        est = gaussian_overlap_element_fk(p, 1.0, 6, n_samples=1000)
        assert (est.mean, est.stderr, est.n_samples) == (2.0, 0.0, 0)

    def test_sample_counts_are_the_draws(self):
        # at delta > 0 every order draws: the flip sum counts m_max orders,
        # the reconstruction m_max - 1 (its m = 1 term is closed)
        p = ModelParams(0.5, 1.0)
        assert heat_kernel_component(p, 1.0, 3, 0.3, -0.2, n_samples=300).n_samples == 300
        assert heat_kernel_flip_sum(p, 1.0, 0.3, -0.2, 4, n_samples=300).n_samples == 1200
        assert gaussian_overlap_element_fk(p, 1.0, 6, n_samples=300).n_samples == 1500

    def test_working_set(self):
        # one sweep over the flips holds the (chunk, m) flip times and a few
        # rows: 3.81 MB traced with the A and B tables of every stream
        p = ModelParams(0.5, 1.0)
        assert traced_peak(lambda: heat_kernel_component(p, 1.0, 6, 0.3, -0.2, 100_000)) <= 2.0e6

    def test_empty_flip_sum_is_exact_zero(self):
        est = heat_kernel_flip_sum(ModelParams(0.5, 1.0), 1.0, 0.3, -0.2, 0, n_samples=100)
        assert est.mean == 0.0 and est.stderr == 0.0 and est.n_samples == 0

    def test_flip_orders_draw_from_distinct_streams(self, monkeypatch):
        # the per-m variances of the flip sum add only if no two (m, stream)
        # pairs share a generator state
        states = []
        original = kernels._bridge_characteristic

        def spy(params, t, m, rng, chunk):
            states.append((m, repr(rng.bit_generator.state)))
            return original(params, t, m, rng, chunk)

        monkeypatch.setattr(kernels, "_bridge_characteristic", spy)
        heat_kernel_flip_sum(ModelParams(0.5, 1.0), 1.0, 0.3, -0.2, 4, n_samples=800, seed=55)
        assert [m for m, _ in states] == [m for m in (1, 2, 3, 4) for _ in range(8)]
        assert len({state for _, state in states}) == len(states)


class TestReconstruction:
    def test_matches_exact_element(self):
        p = ModelParams(0.5, 1.0)
        rec = gaussian_overlap_element_fk(p, 1.0, 6, n_samples=40_000, seed=52)
        assert rec.z_score(vacuum_element_ed(p, 1.0)) < 3

    @pytest.mark.parametrize("t", [1e-3, 0.1, 1.0, 5.0, 30.0])
    @pytest.mark.parametrize("g", [0.3, 1.0, 3.0])
    def test_log_overlap_is_the_vacuum_suppression(self, g, t):
        # the two routes to one element: per flip configuration the log
        # Gaussian overlap -(a^2 + b^2 + 2ab e^{-t})/4 - q/2 equals -2 g^2 xi,
        # xi the rank pass's vacuum suppression of the same flip times
        # (2.0e-15 g^2 m at most on this grid)
        for m in range(1, 9):
            a, b, q = kernels._bridge_characteristic(ModelParams(0.5, g), t, m,
                                                     np.random.default_rng(m), 200)
            s = np.sort(np.random.default_rng(m).uniform(0.0, t, size=(200, m)), axis=1)
            xi = _rank_pass(s.ravel(), m * np.arange(201), 0.0, (t,), suppression=True)
            log_overlap = -(a * a + b * b + 2.0 * a * b * np.exp(-t)) / 4.0 - q / 2.0
            assert np.abs(log_overlap + 2.0 * g**2 * xi).max() <= 1e-13 * g**2 * m

    def test_working_set(self):
        # 3.81 MB traced at 1e5 configurations per order when each stream
        # built its (chunk, m) A and B tables
        p = ModelParams(0.5, 1.0)
        assert traced_peak(lambda: gaussian_overlap_element_fk(p, 1.0, 6, 100_000)) <= 2.0e6

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

    @pytest.mark.parametrize("delta, t", [(0.5, 1.0), (10.0, 10.0)])
    def test_tail_bound_is_the_poisson_tail(self, delta, t):
        # 2 sum_{m > 6} (delta t)^m / m!, summed in 50 digits; stopped after
        # 59 terms, the (10, 10) bound read 6.62e+39 where this is 5.38e+43
        rec = gaussian_overlap_element_fk(ModelParams(delta, 1.0), t, 6, n_samples=16, seed=56)
        with mpmath.workdps(50):
            lam = mpmath.mpf(delta * t)
            exact = 2 * (mpmath.exp(lam) - mpmath.fsum(lam**m / mpmath.factorial(m) for m in range(7)))
        bound = float(rec.note.removeprefix("flip-expansion tail bound "))
        assert bound == pytest.approx(float(exact), rel=5e-3)  # the note keeps 3 digits

    def test_tail_bound_beyond_the_double_range(self):
        # delta t = 800: e^800 overflows a double, so the bound is reported
        # by its logarithm, log 2 + 800 + log P(2, 800) = 800.69, and no
        # overflow warning is raised (warnings are errors in this suite)
        rec = gaussian_overlap_element_fk(ModelParams(800.0, 1.0), 1.0, 1)
        assert rec.note == "flip-expansion tail bound e^800.7, beyond the double range"
        assert rec.mean == pytest.approx(2 + 2 * 800 * np.exp(-2.0), rel=1e-15)
        # the last bound inside the range is still printed as a number
        rec = gaussian_overlap_element_fk(ModelParams(700.0, 1.0), 1.0, 1)
        bound = float(rec.note.removeprefix("flip-expansion tail bound "))
        assert bound == pytest.approx(2 * np.exp(700.0), rel=5e-3)

    def test_strong_coupling_approaches_free_value(self):
        rec = gaussian_overlap_element_fk(ModelParams(0.5, 6.0), 1.0, 6,
                                          n_samples=20_000, seed=54)
        assert rec.mean == pytest.approx(2.0, abs=0.01)
