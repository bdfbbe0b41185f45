"""Jump-path estimators against exact diagonalization and closed limits."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rabizeta.estimators as estimators
from rabizeta.errors import DomainError, NumericalError, ParameterError
from rabizeta.estimators import (
    gaussian_square_fk,
    gibbs_number_fk,
    ground_energy_fk,
    number_moments_fk,
    partition_fk,
    resolvent_cross_moment_fk,
    spin_correlation_fk,
    stirling2,
    vacuum_element_fk,
    x_characteristic_fk,
)
from rabizeta.model import ModelParams
from rabizeta.observables import (
    gibbs_number_ed,
    ground_state,
    number_moment_ed,
    partition_ed,
    resolvent_spin_norm,
    spin_autocorrelation_ed,
    vacuum_element_ed,
    x_characteristic_ed,
    x_square_exponential_ed,
)
from rabizeta.paths import _stream_slices, build_ground_ensemble

P_STD = ModelParams(0.5, 1.0)
N = 40_000
SEED = 7


@pytest.fixture(scope="module")
def gs():
    return ground_state(P_STD)


@pytest.fixture(scope="module")
def ens():
    return build_ground_ensemble(P_STD, N, seed=SEED)


@pytest.fixture
def no_draw(monkeypatch):
    """Fail any estimator that draws before its arguments are checked."""
    def draw(*args, **kwargs):
        raise AssertionError("drew before the horizon was checked")

    monkeypatch.setattr(estimators, "_seed_streams", draw)


class TestVacuumElement:
    def test_uncoupled_mean(self):
        p = ModelParams(0.5, 0.0)
        est = vacuum_element_fk(p, 1.0, 40_000, seed=1)
        assert est.z_score(2 * np.exp(0.5)) < 3

    def test_strong_coupling_limit(self):
        # only jump-free paths survive: the estimate approaches 2
        est = vacuum_element_fk(ModelParams(0.5, 40.0), 1.0, 40_000, seed=2)
        assert est.z_score(2.0) < 3

    def test_matches_ed(self):
        est = vacuum_element_fk(P_STD, 1.0, N, seed=3)
        assert est.z_score(vacuum_element_ed(P_STD, 1.0)) < 3

    def test_weights_positive(self):
        est = vacuum_element_fk(P_STD, 1.0, 2000, seed=4)
        assert est.real > 0

    def test_bad_time(self):
        with pytest.raises(DomainError):
            vacuum_element_fk(P_STD, 0.0, 100)

    @pytest.mark.parametrize("t", [np.inf, np.nan])
    def test_time_not_finite(self, no_draw, t):
        with pytest.raises(DomainError):
            vacuum_element_fk(P_STD, t, 100)

    @pytest.mark.parametrize("n", [1, 0])
    def test_needs_two_samples(self, no_draw, n):
        # the standard error divides by n - 1
        with pytest.raises(ParameterError, match="at least 2"):
            vacuum_element_fk(P_STD, 1.0, n)

    def test_no_path_jumps_at_zero_delta(self):
        # rate-0 paths never jump, so every path has xi = 0 and the weight 2
        est = vacuum_element_fk(ModelParams(0.0, 1.0), 5.0, 16, seed=1)
        assert (est.mean, est.stderr) == (2.0, 0.0)

    def test_working_set(self):
        # each stream's log weights are reduced as soon as they are drawn:
        # 4.40 MB traced at 1e5 paths when every stream's weights were
        # concatenated into one row
        tracemalloc.start()
        try:
            vacuum_element_fk(P_STD, 1.0, 100_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.0e6


class TestPartition:
    def test_uncoupled_zero_variance(self):
        est = partition_fk(ModelParams(0.5, 0.0), 1.0, 1000, seed=5)
        assert est.mean == pytest.approx(2 * np.exp(0.5), abs=1e-12)
        assert est.stderr == 0.0

    def test_jump_free_weight(self):
        # a path with no jumps carries weight exp(g^2 (t - 1 + e^{-t}))
        p = ModelParams(1e-9, 1.0)  # jump-free with overwhelming probability
        t = 2.0
        est = partition_fk(p, t, 50, seed=6)
        expected = 2 * np.exp(p.delta * t) * np.exp(p.g**2 * (t - 1 + np.exp(-t)))
        assert est.mean == pytest.approx(expected, rel=1e-9)

    def test_matches_ed(self):
        est = partition_fk(P_STD, 2.0, N, seed=7)
        assert est.z_score(partition_ed(P_STD, 2.0)) < 3

    @pytest.mark.parametrize("t", [np.nan, np.inf, -1.0])
    def test_time_not_positive_and_finite(self, no_draw, t):
        with pytest.raises(DomainError):
            partition_fk(P_STD, t, 100)

    @pytest.mark.parametrize("n", [1, 0])
    def test_needs_two_samples(self, no_draw, n):
        # the standard error divides by n - 1
        with pytest.raises(ParameterError, match="at least 2"):
            partition_fk(P_STD, 2.0, n)

    def test_working_set(self):
        # 3.20 MB traced at 1e5 paths when every stream's log weights were
        # concatenated and shifted by their global maximum
        tracemalloc.start()
        try:
            partition_fk(P_STD, 2.0, 100_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.0e6


@pytest.mark.parametrize("estimator, params", [(partition_fk, ModelParams(0.5, 1.0)),
                                               (vacuum_element_fk, ModelParams(0.5, 0.1))])
def test_past_the_double_range_is_refused(estimator, params):
    # the largest log weight reads about 2071 and 992 at t = 2000: the scaled
    # mean is refused, with no overflow warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="past the double range"):
            estimator(params, 2000.0, 2000)


def reference_moments(logs):
    """``_exp_moments`` of the rows ``logs`` taken whole, by two ``math.fsum`` passes."""
    shift = np.maximum(logs.real.max(axis=1), np.finfo(float).min)
    w = np.exp(logs - shift[:, None])
    n = w.shape[1]
    mean = np.array([math.fsum(row.real) / n + 1j * math.fsum(row.imag) / n for row in w])
    d = w - mean[:, None]
    cross = np.array([[math.fsum((a * b.conj()).real) + 1j * math.fsum((a * b.conj()).imag)
                       for b in d] for a in d])
    return shift, mean, cross


class TestExpMoments:
    """The one reduction of every self-drawing estimate, against a two-pass reference."""

    def check(self, logs, n):
        shift, mean, cross = estimators._exp_moments(logs[:, s].copy() for s in _stream_slices(n))
        ref_shift, ref_mean, ref_cross = reference_moments(logs)
        assert np.array_equal(shift, ref_shift)
        assert not np.isnan(mean).any() and not np.isnan(cross).any()
        np.testing.assert_allclose(mean, ref_mean, rtol=1e-13, atol=0.0)
        # each cross sum within rounding of the sizes of its two rows
        scale = np.sqrt(np.outer(np.diagonal(ref_cross).real, np.diagonal(ref_cross).real))
        assert np.all(np.abs(cross - ref_cross) <= 1e-12 * scale)
        return shift, mean, cross

    @pytest.mark.parametrize("n", [2, 7, 8, 100_003])
    def test_four_real_rows(self, n):
        rng = np.random.default_rng(n)
        logs = rng.normal(size=(4, n)) * np.array([[0.1], [1.0], [3.0], [10.0]])
        logs[1] += logs[0]  # correlated rows, so the cross sums are not diagonal
        self.check(logs, n)

    @pytest.mark.parametrize("n", [2, 7, 8, 100_003])
    def test_one_complex_row(self, n):
        rng = np.random.default_rng(n)
        logs = (rng.normal(size=n) + 1j * rng.uniform(-np.pi, np.pi, size=n))[None, :]
        self.check(logs, n)

    @pytest.mark.parametrize("n", [8, 100_003])
    def test_streams_far_apart(self, n):
        # one stream 700 above the rest: their weights merge through
        # e^(s_b - shift), which underflows only where the reference does
        logs = np.random.default_rng(n).normal(size=(2, n))
        hot = _stream_slices(n)[3]
        logs[0, hot] += 700.0
        logs[1, hot] -= 700.0
        shift, _, _ = self.check(logs, n)
        assert shift[0] > 699.0 and shift[1] < 10.0

    def test_constant_sample_is_exact(self):
        shift, mean, cross = self.check(np.full((2, 1003), 3.25), 1003)
        assert np.all(shift == 3.25) and np.all(mean == 1.0) and np.all(cross == 0.0)

    def test_constant_stream(self):
        logs = np.random.default_rng(5).normal(size=(1, 1003))
        logs[0, _stream_slices(1003)[2]] = -0.5
        self.check(logs, 1003)

    def test_stream_of_zero_weights_adds_zeros(self):
        logs = np.random.default_rng(6).normal(size=(2, 1003))
        logs[:, _stream_slices(1003)[0]] = -np.inf
        self.check(logs, 1003)

    def test_every_weight_zero(self):
        shift, mean, cross = estimators._exp_moments(
            np.full((1, s.stop - s.start), -np.inf) for s in _stream_slices(100))
        assert np.exp(shift[0]) * mean[0] == 0.0 and cross[0, 0] == 0.0


@st.composite
def weighted_values(draw):
    """Log weights anywhere in +-700 and values about an offset up to 1e8, real or complex.

    The first value, the c of ``_ensemble_estimate``, is drawn up to eight
    spreads of the values from their offset.
    """
    n = draw(st.sampled_from([1, 7, 8, 100_003]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centre, span = draw(st.floats(-700.0, 700.0)), draw(st.sampled_from([0.0, 1.0, 5.0, 700.0]))
    log_weights = np.clip(centre + span * rng.uniform(-1.0, 1.0, n), -700.0, 700.0)
    offset, spread = draw(st.floats(-1e8, 1e8)), draw(st.floats(1e-3, 1e3))
    far = draw(st.floats(-8.0, 8.0)) * spread
    values = offset + spread * rng.normal(size=n)
    first = offset + far
    if draw(st.booleans()):
        values = values + 1j * (offset / 3.0 + spread * rng.normal(size=n))
        first = complex(first, offset / 3.0 + far)
    values[0] = first
    return log_weights, values


def reference_about_first(log_weights, values):
    """Mean, standard error and first-value distance F by two ``math.fsum`` passes.

    Each part is taken about its first value c, r = v - c: the first pass
    gives m' = sum w r / sum w, the second sum (w (r - m'))^2, with no
    cancellation.  F = |m - c| sqrt(sum w^2) / sum w is the scale of the
    terms that ``_ensemble_estimate`` combines beside the standard error.
    """
    w = np.exp(log_weights - log_weights.max())
    total, c = math.fsum(w), values[0]
    parts = (((values.real, c.real), (values.imag, c.imag)) if np.iscomplexobj(values)
             else ((values, c),))
    means, var, moved = [], 0.0, []
    for part, first in parts:
        r = part - first
        m = math.fsum(w * r) / total
        var += math.fsum((w * (r - m)) ** 2)
        means.append(first + m)
        moved.append(m)
    mean = complex(*means) if len(parts) == 2 else means[0]
    far = math.hypot(*moved) * math.sqrt(math.fsum(w * w)) / total
    return mean, math.sqrt(var) / total, far


@settings(max_examples=40, deadline=None)
@given(weighted_values())
@example((np.array([0.0]), np.array([5e-324 + 5e-324j])))  # a subnormal imaginary part
def test_ensemble_estimate_matches_two_passes(sample):
    # the stderr is within 1e-12 relative while c lies within ten spreads
    # (under the weights w^2) of the mean; farther out, the three terms
    # cancel, and the error is at most a few ulps of their scale F^2
    log_weights, values = sample
    base = build_ground_ensemble(P_STD, 8, seed=SEED)
    ens = dataclasses.replace(base, log_weights=log_weights)
    est = estimators._ensemble_estimate(ens, lambda paths: values[paths])
    mean, stderr, far = reference_about_first(log_weights, values)
    assert abs(est.mean - mean) <= 1e-12 * np.abs(values).max()
    if far <= 10.0 * stderr:
        assert abs(est.stderr - stderr) <= 1e-12 * stderr
    else:
        assert abs(est.stderr - stderr) <= 1e-12 * stderr + 1e-7 * far


class TestGroundEnergy:
    def test_uncoupled_exact(self):
        est = ground_energy_fk(ModelParams(0.5, 0.0), [4.0, 8.0], 2000, seed=8)
        assert est.mean == pytest.approx(-0.5, abs=1e-12)
        assert est.stderr == 0.0

    def test_delta_zero_shift(self):
        # deterministic single-path estimator approaches -g^2 at large horizons
        est = ground_energy_fk(ModelParams(0.0, 1.0), [20.0, 30.0], 10, seed=9)
        assert est.mean == pytest.approx(-1.0, abs=1e-4)

    def test_matches_ed(self, gs):
        est = ground_energy_fk(P_STD, [4.0, 6.0, 8.0, 10.0], N, seed=10)
        assert est.z_score(gs.energy) < 3
        assert len(est.extras["series"]) == 4

    def test_working_set(self):
        # each stream's weights are reduced to per-horizon sums and centred
        # cross sums as soon as its rank pass returns, so no per-path row
        # spans the sample: 7.0 MB traced at 1e5 paths with a full-length
        # row per horizon and ``np.cov`` on the pair, 9.41 MB when every
        # horizon was reduced twice
        tracemalloc.start()
        try:
            ground_energy_fk(P_STD, [4.0, 6.0, 8.0, 10.0], 100_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.0e6

    def test_needs_two_horizons(self):
        with pytest.raises(ParameterError):
            ground_energy_fk(P_STD, [4.0], 100)

    def test_repeated_horizon(self, no_draw):
        with pytest.raises(ParameterError):
            ground_energy_fk(P_STD, [4.0, 6.0, 6.0], 100)

    @pytest.mark.parametrize("n", [1, 0])
    def test_needs_two_samples(self, no_draw, n):
        # the covariance divides by n - 1
        with pytest.raises(ParameterError, match="at least 2"):
            ground_energy_fk(P_STD, [4.0, 6.0], n)

    @pytest.mark.parametrize("grid", [[1.0, np.inf], [np.nan, 4.0], [0.0, 4.0]])
    def test_horizons_not_positive_and_finite(self, no_draw, grid):
        with pytest.raises(DomainError):
            ground_energy_fk(P_STD, grid, 100)


class TestEnsembleEstimators:
    def test_gibbs_trivial_exact(self, ens):
        est = gibbs_number_fk(ens, P_STD, 0.0)
        assert est.mean == pytest.approx(1.0, abs=1e-14)
        assert est.stderr == 0.0

    def test_gibbs_matches_ed(self, ens, gs):
        est = gibbs_number_fk(ens, P_STD, -0.5)
        assert est.z_score(gibbs_number_ed(gs, -0.5)) < 3

    def test_gibbs_real_beta_whatever_its_type(self, ens, gs):
        # `fk gibbs --beta -0.5` parses a complex beta, the battery holds a float
        a = gibbs_number_fk(ens, P_STD, -0.5)
        b = gibbs_number_fk(ens, P_STD, complex(-0.5))
        assert (a.mean, a.stderr) == (b.mean, b.stderr)
        assert gibbs_number_ed(gs, -0.5) == gibbs_number_ed(gs, complex(-0.5))

    def test_number_parity_positive_real(self, ens, gs):
        est = gibbs_number_fk(ens, P_STD, 1j * np.pi)
        assert abs(np.imag(est.mean)) < 1e-12
        assert np.real(est.mean) > 0
        assert est.z_score(gibbs_number_ed(gs, 1j * np.pi)) < 3

    def test_moments_match_ed(self, ens, gs):
        for m in (1, 2):
            est = number_moments_fk(ens, P_STD, m)
            assert est.z_score(number_moment_ed(gs, m)) < 3

    def test_first_moment_bounded_by_coupling(self, ens):
        # |cross integral| <= 1 per path forces <n> <= g^2
        est = number_moments_fk(ens, P_STD, 1)
        assert np.real(est.mean) <= P_STD.g**2

    def test_moments_vanish_uncoupled(self):
        p = ModelParams(0.5, 0.0)
        free = build_ground_ensemble(p, 2000, T=6.0, seed=11)
        est = number_moments_fk(free, p, 1)
        assert est.mean == pytest.approx(0.0, abs=1e-15)

    def test_bad_moment_order(self, ens):
        with pytest.raises(ParameterError):
            number_moments_fk(ens, P_STD, 0)

    def test_x_characteristic(self, ens, gs):
        est = x_characteristic_fk(ens, P_STD, 1.0)
        assert est.z_score(x_characteristic_ed(gs, 1.0)) < 3
        trivial = x_characteristic_fk(ens, P_STD, 0.0)
        assert trivial.mean == pytest.approx(1.0, abs=1e-14)

    def test_x_characteristic_uncoupled(self):
        p = ModelParams(0.5, 0.0)
        free = build_ground_ensemble(p, 500, T=6.0, seed=12)
        est = x_characteristic_fk(free, p, 1.3)
        assert est.mean == pytest.approx(np.exp(-1.3**2 / 4), abs=1e-14)
        assert est.stderr == 0.0

    def test_gaussian_square(self, ens, gs):
        est = gaussian_square_fk(ens, P_STD, 0.5)
        assert est.z_score(x_square_exponential_ed(gs, 0.5)) < 3

    def test_gaussian_square_uncoupled(self):
        p = ModelParams(0.5, 0.0)
        free = build_ground_ensemble(p, 500, T=6.0, seed=13)
        est = gaussian_square_fk(free, p, 0.5)
        assert est.mean == pytest.approx(1 / np.sqrt(0.5), abs=1e-14)

    def test_gaussian_square_domain(self, ens):
        with pytest.raises(DomainError):
            gaussian_square_fk(ens, P_STD, 1.0)

    def test_spin_correlation_equal_times(self, ens):
        est = spin_correlation_fk(ens, 0.8, 0.8)
        assert est.mean == pytest.approx(1.0, abs=1e-14)
        assert est.stderr == 0.0

    def test_spin_correlation_matches_ed(self, ens, gs):
        for lag in (0.5, 1.0):
            est = spin_correlation_fk(ens, lag / 2, -lag / 2)
            assert est.z_score(spin_autocorrelation_ed(gs, lag)) < 3

    def test_spin_correlation_shift_invariant(self, ens):
        base = spin_correlation_fk(ens, 0.5, -0.5)
        shifted = spin_correlation_fk(ens, 1.5, 0.5)
        combined = np.hypot(base.stderr, shifted.stderr)
        assert abs(np.real(base.mean - shifted.mean)) < 3 * combined

    def test_spin_correlation_guard(self, ens):
        with pytest.raises(DomainError):
            spin_correlation_fk(ens, ens.half_width, 0.0)

    def test_resolvent_cross_moment(self, ens, gs):
        est = resolvent_cross_moment_fk(ens)
        assert est.z_score(resolvent_spin_norm(gs)) < 3


class TestEnsembleWorkingSets:
    """An ensemble estimator stacks at most 1.2 MB on the report's ensemble."""

    ESTIMATES = {
        "gibbs(-0.5)": lambda ens: gibbs_number_fk(ens, P_STD, -0.5),
        "gibbs(i pi)": lambda ens: gibbs_number_fk(ens, P_STD, 1j * np.pi),
        "number(1)": lambda ens: number_moments_fk(ens, P_STD, 1),
        "number(2)": lambda ens: number_moments_fk(ens, P_STD, 2),
        "xchar(1)": lambda ens: x_characteristic_fk(ens, P_STD, 1.0),
        "xsquare(0.5)": lambda ens: gaussian_square_fk(ens, P_STD, 0.5),
        "spin-corr(0.5)": lambda ens: spin_correlation_fk(ens, 0.25, -0.25),
        "spin-corr(1)": lambda ens: spin_correlation_fk(ens, 0.5, -0.5),
        "resolvent": resolvent_cross_moment_fk,
    }

    @pytest.fixture(scope="class")
    def report_ens(self):
        """The report's ensemble: 1e5 paths at delta = 0.5, g = 1, the default seed."""
        return build_ground_ensemble(P_STD, 100_000)

    @pytest.mark.parametrize("name", list(ESTIMATES))
    def test_at_most_3_3_mb(self, report_ens, name):
        # the values are built and reduced one seed stream's slice of paths
        # at a time: 2.4-3.2 MB when they were built at full length, 3.2-5.6
        # MB when built out of place; at 1e5 paths a real per-path array is
        # 0.8 MB, a complex one 1.6 MB
        tracemalloc.start()
        try:
            self.ESTIMATES[name](report_ens)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.2e6

    def test_ensemble_estimate_leaves_values_alone(self, ens):
        values = np.exp(1j * ens.damped_left)
        kept = values.copy()
        est = estimators._ensemble_estimate(ens, lambda paths: values[paths])
        mean, stderr = est.mean, est.stderr
        assert values.tobytes() == kept.tobytes()
        w = np.exp(ens.log_weights - ens.log_weights.max())
        w /= w.sum()
        assert mean == pytest.approx(np.sum(w * kept), rel=1e-14)
        assert stderr == pytest.approx(np.sqrt(np.sum((w * np.abs(kept - mean)) ** 2)),
                                       rel=1e-12)


class TestReproducibility:
    def test_bitwise_identical(self):
        a = vacuum_element_fk(P_STD, 1.0, 5000, seed=31)
        b = vacuum_element_fk(P_STD, 1.0, 5000, seed=31)
        assert (a.mean, a.stderr) == (b.mean, b.stderr)

    def test_seed_changes_stream(self):
        a = vacuum_element_fk(P_STD, 1.0, 5000, seed=31)
        b = vacuum_element_fk(P_STD, 1.0, 5000, seed=32)
        assert a.mean != b.mean

    def test_vacuum_draws_streams_no_other_sampler_draws(self, monkeypatch):
        # with partition_fk's key, its paths would be partition's waits at rate 1
        import rabizeta.jumplaw as jumplaw
        import rabizeta.kernels as kernels
        import rabizeta.paths as paths
        from rabizeta.paths import _seed_streams

        keys = []

        def recorded(seed, n_samples, sampler, *order):
            keys.append((*paths._STREAM_KEYS[sampler], *order))
            return _seed_streams(seed, n_samples, sampler, *order)

        for module in (estimators, kernels, jumplaw, paths):
            monkeypatch.setattr(module, "_seed_streams", recorded)

        def keys_of(estimate):
            keys.clear()
            estimate()
            return set(keys)

        vacuum = keys_of(lambda: vacuum_element_fk(P_STD, 1.0, 100))
        assert len(vacuum) == 1
        others = keys_of(lambda: partition_fk(P_STD, 2.0, 100))
        others |= keys_of(lambda: ground_energy_fk(P_STD, [1.0, 2.0], 100))
        others |= keys_of(lambda: kernels.heat_kernel_flip_sum(P_STD, 1.0, 0.0, 0.0, 6, 100))
        others |= keys_of(lambda: jumplaw.sample_damped_sign_pair(0.5, 100))
        others |= keys_of(lambda: build_ground_ensemble(P_STD, 100))
        assert others >= {(), *((m,) for m in range(1, 7))}
        assert not vacuum & others


class TestStirling:
    def test_small_table(self):
        assert stirling2(1, 1) == 1
        assert stirling2(2, 1) == 1 and stirling2(2, 2) == 1
        assert stirling2(3, 2) == 3
        assert stirling2(4, 2) == 7

    def test_row_sums_are_bell_numbers(self):
        bell = [1, 1, 2, 5, 15, 52]
        for m in range(1, 6):
            assert sum(stirling2(m, l) for l in range(m + 1)) == bell[m]

    def test_moment_expansion_matches_poisson(self):
        # sum_l S(m,l) lam^l equals the m-th moment of a Poisson(lam) count
        rng = np.random.default_rng(0)
        lam, m = 0.7, 3
        closed = sum(stirling2(m, l) * lam**l for l in range(m + 1))
        draws = rng.poisson(lam, 400_000).astype(float) ** m
        assert closed == pytest.approx(draws.mean(), rel=0.02)
