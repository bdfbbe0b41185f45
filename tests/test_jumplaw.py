"""Closed laws of the damped sign integrals: moments, density, KS."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import beta, betaln
from scipy.stats import kstest

from path_oracles import WaitStub
from rabizeta import jumplaw
from rabizeta.errors import DomainError, ParameterError
from rabizeta.jumplaw import (
    _damped_sign_survival_near_one,
    _pair_moment_rows,
    _series_cutoff,
    closed_pair_moments,
    damped_sign_cdf,
    damped_sign_ks,
    damped_sign_moment,
    ks_critical_value,
    pair_moment_table,
    sample_damped_sign_pair,
)


def damped_sign_density(delta: float, t) -> np.ndarray:
    """Density of X1 at t in (-1, 1): (1 + t) (1 - t^2)^(delta - 1) / B(delta, 1/2)."""
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) >= 1):
        raise DomainError("the density lives on (-1, 1)")
    if delta <= 0:
        raise ParameterError(f"delta must be positive, got {delta}")
    log_norm = betaln(delta, 0.5)
    return (1.0 + t) * np.exp((delta - 1.0) * np.log1p(-t * t) - log_norm)


class TestClosedMoments:
    def test_first_moment(self):
        assert damped_sign_moment(0.5, 1) == pytest.approx(0.5)
        assert damped_sign_moment(1.0, 1) == pytest.approx(1 / 3)

    def test_higher_product(self):
        assert damped_sign_moment(1.0, 2) == pytest.approx(1 / 5)

    def test_even_odd_pairing(self):
        # the closed form is both E[X1^(2m-1)] and E[X1^(2m)]: integrate each
        # against the density (1 + t)(1 - t^2)^(delta-1) / B(delta, 1/2)
        for delta in (0.3, 1.7):
            norm = beta(delta, 0.5)
            for m in (1, 2, 3):
                closed = damped_sign_moment(delta, m)
                for order in (2 * m - 1, 2 * m):
                    value, _ = quad(lambda t: t**order * (1.0 + t) / norm, -1, 1,
                                    weight="alg", wvar=(delta - 1.0, delta - 1.0))
                    assert abs(value - closed) <= 1e-12

    def test_pair_moment_closed_values(self):
        closed = closed_pair_moments(1.0)
        assert closed["E[X1]"] == pytest.approx(1 / 3)
        assert closed["E[X2]"] == pytest.approx(1 / 9)
        assert closed["cov(X1,X2)"] == pytest.approx(5 / 27)

    def test_mean_decreases_with_delta(self):
        grid = [0.2, 0.5, 1.0, 2.0, 5.0]
        means = [closed_pair_moments(d)["E[X1]"] for d in grid]
        assert all(means[i + 1] < means[i] for i in range(len(grid) - 1))

    def test_validation(self):
        with pytest.raises(ParameterError):
            damped_sign_moment(0.0, 1)
        with pytest.raises(ParameterError):
            damped_sign_moment(1.0, 0)


class TestDensity:
    def test_unit_rate_closed_form(self):
        t = np.linspace(-0.99, 0.99, 21)
        assert np.abs(damped_sign_density(1.0, t) - (1 + t) / 2).max() < 1e-14
        assert np.abs(damped_sign_cdf(1.0, t) - (1 + t) ** 2 / 4).max() < 1e-13

    @pytest.mark.parametrize("delta", [0.5, 1.0, 2.0])
    def test_normalization(self, delta):
        val, _ = quad(lambda u: float(damped_sign_density(delta, u)), -1, 1,
                      epsabs=1e-11, limit=200)
        assert val == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("delta", [0.5, 2.0])
    def test_second_moment_by_quadrature(self, delta):
        val, _ = quad(lambda u: u * u * float(damped_sign_density(delta, u)), -1, 1,
                      epsabs=1e-11, limit=200)
        assert val == pytest.approx(damped_sign_moment(delta, 1), abs=1e-8)

    def test_cdf_vs_quadrature(self):
        for delta in (0.5, 1.4):
            for t in (-0.6, 0.1, 0.8):
                ref, _ = quad(lambda u: float(damped_sign_density(delta, u)), -1, t,
                              epsabs=1e-12, limit=200)
                assert float(damped_sign_cdf(delta, t)) == pytest.approx(ref, abs=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            damped_sign_density(1.0, 1.0)
        with pytest.raises(DomainError):
            damped_sign_cdf(1.0, 1.5)


class TestSampling:
    @settings(max_examples=10, deadline=None)
    @given(delta=st.floats(0.2, 3.0))
    def test_bounded_support(self, delta):
        x1, _ = sample_damped_sign_pair(delta, 500, seed=int(delta * 1000))
        assert np.all(x1 >= -1.0) and np.all(x1 <= 1.0)

    def test_mean_against_closed(self):
        x1, _ = sample_damped_sign_pair(1.0, 100_000, seed=41)
        stderr = x1.std(ddof=1) / np.sqrt(len(x1))
        assert abs(x1.mean() - 1 / 3) < 3 * stderr

    def test_second_functional_moments(self):
        _, x2 = sample_damped_sign_pair(1.0, 100_000, seed=42)
        target = closed_pair_moments(1.0)["E[X2^2]"]
        draws = x2**2
        stderr = draws.std(ddof=1) / np.sqrt(len(draws))
        assert abs(draws.mean() - target) < 3 * stderr

    def test_mixed_moment(self):
        x1, x2 = sample_damped_sign_pair(1.0, 100_000, seed=43)
        target = closed_pair_moments(1.0)["E[X1*X2]"]
        draws = x1 * x2
        stderr = draws.std(ddof=1) / np.sqrt(len(draws))
        assert abs(draws.mean() - target) < 3 * stderr

    @pytest.mark.parametrize("delta", [0.05, 20.0])
    def test_extreme_rates_stay_in_support(self, delta):
        x1, x2 = sample_damped_sign_pair(delta, 20_000, seed=49)
        assert np.all(x1 >= -1.0) and np.all(x1 <= 1.0)
        assert np.all(np.isfinite(x2))

    def test_memory_is_linear_in_the_chunk(self):
        # one dense chunk x window matrix of waits at this rate is ~23 MB
        tracemalloc.start()
        try:
            sample_damped_sign_pair(20.0, 20_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    @pytest.mark.parametrize("delta", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_a_rate_without_a_finite_walk(self, monkeypatch, delta):
        # at delta = inf every wait is 0 and the walk never reached the cutoff
        def no_draw(*args, **kwargs):
            raise AssertionError("drew before delta was checked")

        monkeypatch.setattr(jumplaw, "_seed_streams", no_draw)
        with pytest.raises(ParameterError):
            sample_damped_sign_pair(delta, 16)

    def test_reproducible(self):
        a, _ = sample_damped_sign_pair(0.7, 1000, seed=44)
        b, _ = sample_damped_sign_pair(0.7, 1000, seed=44)
        assert np.array_equal(a, b)


class CountingGenerator:
    """Counts the waits a real generator hands the sampler."""

    def __init__(self, rng):
        self.rng = rng
        self.waits = 0

    def standard_exponential(self, out):
        self.waits += out.size
        return self.rng.standard_exponential(out=out)


def truncated_series(times, cutoff):
    """(X1, X2) of one path from its jump times, summed term by term."""
    s1 = s2 = 0.0
    for k, t in enumerate(times, start=1):
        if t >= cutoff:
            break
        term = (-1) ** k * math.exp(-t)
        s1 += term
        s2 += (1.0 + t) * term
    return 1.0 + 2.0 * s1, 1.0 + 2.0 * s2


class TestRetirement:
    def test_known_waits_give_the_truncated_series(self, monkeypatch):
        # cutoff 2 and delta 1/2, so every time is exact and every term
        # visible.  Path 0 retires at step 2 but keeps drawing (a junk wait
        # at step 3) until the compaction at step 3, where path 1 lands
        # exactly on the cutoff and only paths 2 and 3 stay live; path 2
        # retires at step 5 (second compaction) and path 3 at step 6.
        waits = [
            [0.25, 0.125, 0.0625, 0.1875],
            [0.875, 0.25, 0.125, 0.0625],
            [0.05, 0.625, 0.125, 0.125],
            [0.25, 0.125],
            [0.5, 0.25],
            [0.375],
        ]
        per_path = [[0.25, 0.875, 0.05], [0.125, 0.25, 0.625],
                    [0.0625, 0.125, 0.125, 0.25, 0.5],
                    [0.1875, 0.0625, 0.125, 0.125, 0.25, 0.375]]
        stub = WaitStub(waits)
        monkeypatch.setattr(jumplaw, "_series_cutoff", lambda: 2.0)
        monkeypatch.setattr(jumplaw, "_seed_streams", lambda seed, n, sampler: iter([(4, stub)]))
        x1, x2 = sample_damped_sign_pair(0.5, 4)
        assert stub.calls == len(waits)
        times = [np.cumsum(np.asarray(w) / 0.5) for w in per_path]
        assert times[1][-1] == 2.0  # exactly at the cutoff: dropped
        for i, path_times in enumerate(times):
            want1, want2 = truncated_series(path_times, 2.0)
            assert x1[i] == pytest.approx(want1, rel=0, abs=1e-15)
            assert x2[i] == pytest.approx(want2, rel=0, abs=1e-15)
        assert x1[1] == pytest.approx(1.0 - 2.0 * np.exp(-0.25) + 2.0 * np.exp(-0.75), abs=1e-15)

    def test_a_jump_at_the_true_cutoff_adds_nothing(self, monkeypatch):
        # a first jump exactly at the cutoff leaves X1 = X2 = 1 bit for bit;
        # one just below it moves X2, since 2 (1 + T) e^(-T) is a 1-ulp term
        cutoff = _series_cutoff()
        stub = WaitStub([[cutoff, np.nextafter(cutoff, 0.0)], [1.0]])
        monkeypatch.setattr(jumplaw, "_seed_streams", lambda seed, n, sampler: iter([(2, stub)]))
        x1, x2 = sample_damped_sign_pair(1.0, 2)
        assert x1[0] == 1.0 and x2[0] == 1.0
        assert x2[1] < 1.0
        assert x2[1] == truncated_series([np.nextafter(cutoff, 0.0)], cutoff)[1]

    @pytest.mark.parametrize("delta", [0.05, 2.0, 20.0])
    def test_waits_per_sample_stay_near_the_ideal(self, monkeypatch, delta):
        # the ideal is delta * cutoff + 1 waits per sample; retired paths
        # draw until the next compaction, which comes once half are retired
        counters = []
        streams = jumplaw._seed_streams

        def counting_streams(seed, n_samples, sampler):
            for chunk, rng in streams(seed, n_samples, sampler):
                counters.append(CountingGenerator(rng))
                yield chunk, counters[-1]

        monkeypatch.setattr(jumplaw, "_seed_streams", counting_streams)
        n = 20_000
        sample_damped_sign_pair(delta, n)
        waits = sum(counter.waits for counter in counters)
        assert waits <= 1.25 * (delta * _series_cutoff() + 1.0) * n

    def test_calibrated_across_seeds(self):
        # 40 seeds x 20 000 samples at delta = 1: the signed z-scores of three
        # closed moments must look standard normal, with their mean within 3
        # standard errors (1/sqrt(40)) of 0 and their sd in [0.6, 1.4]
        closed = closed_pair_moments(1.0)
        scores = {"E[X1]": [], "E[X2]": [], "E[X1*X2]": []}
        for seed in range(40):
            x1, x2 = sample_damped_sign_pair(1.0, 20_000, seed=seed)
            for name, draw in (("E[X1]", x1), ("E[X2]", x2), ("E[X1*X2]", x1 * x2)):
                stderr = draw.std(ddof=1) / np.sqrt(draw.size)
                scores[name].append((draw.mean() - closed[name]) / stderr)
        for name, z in scores.items():
            z = np.asarray(z)
            assert abs(z.mean()) < 3.0 / np.sqrt(z.size), name
            assert 0.6 <= z.std(ddof=1) <= 1.4, name


def full_edge_ks(delta, samples):
    """``damped_sign_ks`` with both edges of every positive value evaluated."""
    n = samples.size
    values, counts = np.unique(samples, return_counts=True)
    ecdf_below = np.cumsum(counts) - counts
    law_lo = damped_sign_cdf(delta, values)
    law_hi = law_lo.copy()
    upper = np.flatnonzero(values > 0)
    v = values[upper]
    surv_lo = _damped_sign_survival_near_one(delta, 1.0 - v + (v - np.nextafter(v, -2.0)) / 2.0)
    surv_hi = _damped_sign_survival_near_one(
        delta, np.maximum(1.0 - v - (np.nextafter(v, 2.0) - v) / 2.0, 0.0))
    wide = surv_lo - surv_hi > jumplaw._CELL_MASS
    law_lo[upper[wide]] = 1.0 - surv_lo[wide]
    law_hi[upper[wide]] = 1.0 - surv_hi[wide]
    above = ((ecdf_below + counts) / n - law_hi).max()
    below = (law_lo - ecdf_below / n).max()
    return float(max(above, below))


class TestDistribution:
    @pytest.mark.parametrize("delta", [0.5, 1.0, 2.0])
    def test_ks_below_critical(self, delta):
        x1, _ = sample_damped_sign_pair(delta, 100_000, seed=45)
        assert damped_sign_ks(delta, x1) < ks_critical_value(100_000)

    @pytest.mark.parametrize("delta", [0.5, 1.0, 2.0])
    def test_ks_statistic_equals_scipy(self, delta):
        x1, _ = sample_damped_sign_pair(delta, 20_000, seed=45)
        ref = kstest(x1, lambda t: damped_sign_cdf(delta, t)).statistic
        assert damped_sign_ks(delta, x1) == float(ref)

    def test_ks_below_critical_with_mass_at_one(self):
        # about 15% of the samples round to exactly 1 at delta = 0.05
        x1, _ = sample_damped_sign_pair(0.05, 100_000, seed=45)
        assert np.mean(x1 == 1.0) > 0.1
        assert damped_sign_ks(0.05, x1) < ks_critical_value(100_000)

    @pytest.mark.parametrize("seed", [45, 49])
    @pytest.mark.parametrize("delta", [0.05, 0.1, 0.3, 0.5, 0.9, 1.0, 2.0, 5.0])
    def test_ks_edges_only_where_a_cell_can_be_wide(self, monkeypatch, delta, seed):
        # the statistic with both edges of every positive value evaluated, bit
        # for bit; at delta = 0.05 about 29 500 of 75 000 cells are wide
        x1, _ = sample_damped_sign_pair(delta, 100_000, seed=seed)
        want = full_edge_ks(delta, x1)
        seen = []

        def spy(delta, u):
            seen.append(u.size)
            return _damped_sign_survival_near_one(delta, u)

        monkeypatch.setattr(jumplaw, "_damped_sign_survival_near_one", spy)
        assert damped_sign_ks(delta, x1) == want
        if delta >= 1.0:
            assert sum(seen) == 0

    @pytest.mark.parametrize("delta", [0.05, 0.5, 2.0])
    def test_survival_near_one_matches_cdf(self, delta):
        t = np.linspace(-0.99, 0.99, 41)
        survival = _damped_sign_survival_near_one(delta, 1.0 - t)
        assert np.abs(1.0 - survival - damped_sign_cdf(delta, t)).max() < 1e-14
        # the mass within 2^-54 of 1, which 1 - u cannot resolve
        assert _damped_sign_survival_near_one(delta, np.array([0.0]))[0] == 0.0
        assert _damped_sign_survival_near_one(delta, np.array([2.0**-54]))[0] > 0.0

    def test_moment_table_z_scores(self):
        rows = pair_moment_table(1.0, 100_000, seed=46)
        assert all(row["z"] < 3 for row in rows)
        cov_row = next(row for row in rows if row["moment"] == "cov(X1,X2)")
        assert cov_row["mc"] > 0

    def test_rows_from_given_draws_match_table(self):
        # the CLI reuses one draw for the moments and the KS test
        x1, x2 = sample_damped_sign_pair(1.0, 20_000, seed=48)
        assert _pair_moment_rows(1.0, x1, x2) == pair_moment_table(1.0, 20_000, seed=48)

    def test_covariance_positive_across_deltas(self):
        for delta in (0.3, 0.8, 2.5):
            rows = pair_moment_table(delta, 30_000, seed=47)
            cov_row = next(row for row in rows if row["moment"] == "cov(X1,X2)")
            assert cov_row["mc"] > 0
            assert closed_pair_moments(delta)["cov(X1,X2)"] > 0
