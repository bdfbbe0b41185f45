"""Jump-path sampling laws and exact path functionals."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad

from path_oracles import (
    JumpPath,
    damped_sign_integral,
    ensemble_paths,
    pair_interaction_energy,
    reference_ground_ensemble,
    vacuum_suppression,
)
from rabizeta.errors import DomainError, ParameterError
from rabizeta.estimators import number_moments_fk
from rabizeta.model import ModelParams
from rabizeta.observables import ground_state, number_parity_expectation
from rabizeta.paths import (
    N_STREAMS,
    build_ground_ensemble,
    default_horizon,
    _clock_rate,
    _count_upto,
    _rank_pass,
    _sample_segments,
    _seed_streams,
    _stream_slices,
    _write_batch,
)


def path_on(jumps, horizon=(0.0, 1.0), alpha0=1):
    return JumpPath(alpha0=alpha0, horizon=horizon, jumps=np.asarray(jumps, dtype=float))


def flat_batch(paths):
    """``(jumps, offsets)`` of per-path jump arrays, in order."""
    offsets = np.zeros(len(paths) + 1, dtype=np.int64)
    np.cumsum([len(j) for j in paths], out=offsets[1:])
    return np.concatenate([np.zeros(0), *paths]), offsets


@st.composite
def random_paths(draw):
    hi = draw(st.floats(0.5, 6.0))
    k = draw(st.integers(0, 12))
    jumps = draw(
        st.lists(st.floats(1e-3, 1.0 - 1e-3), min_size=k, max_size=k, unique=True)
    )
    # neighbouring fractions can round to one jump time once scaled: drop those
    return path_on(np.unique([hi * j for j in jumps]), horizon=(0.0, hi))


@st.composite
def path_batches(draw):
    """(hi, per-path jump arrays on (0, hi), left-end signs) of one to six paths."""
    hi = draw(st.floats(0.5, 6.0))
    n = draw(st.integers(1, 6))
    paths = []
    for _ in range(n):
        k = draw(st.integers(0, 8))
        fractions = draw(st.lists(st.floats(1e-3, 1.0 - 1e-3), min_size=k, max_size=k, unique=True))
        paths.append(np.unique([hi * f for f in fractions]))
    alpha0 = np.array(draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n)))
    return hi, paths, alpha0


class TestJumpPath:
    def test_sign_convention(self):
        path = path_on([0.25, 0.5], horizon=(0.0, 1.0), alpha0=1)
        assert path.sign_at(0.1) == 1
        assert path.sign_at(0.3) == -1
        assert path.sign_at(0.9) == 1

    def test_validation(self):
        with pytest.raises(ParameterError):
            path_on([0.5, 0.5])
        with pytest.raises(ParameterError):
            path_on([1.5])
        with pytest.raises(ParameterError):
            JumpPath(alpha0=2, horizon=(0, 1), jumps=np.array([]))

    def test_outside_horizon(self):
        with pytest.raises(DomainError):
            path_on([]).sign_at(2.0)


def one_stream(seed):
    ((_, rng),) = _seed_streams(seed, 1)
    return rng


class TestSamplingLaw:
    def test_poisson_mean(self):
        rate, t, n = 2.0, 3.0, 20_000
        _, offsets = _sample_segments(one_stream(11), rate, t, n, 0.0)
        mean = np.diff(offsets).mean()
        sigma = np.sqrt(rate * t / n)
        assert abs(mean - rate * t) < 3 * sigma

    def test_no_jump_probability(self):
        rate, t, n = 1.0, 1.0, 20_000
        _, offsets = _sample_segments(one_stream(12), rate, t, n, 0.0)
        empty = np.mean(np.diff(offsets) == 0)
        p = np.exp(-rate * t)
        assert abs(empty - p) < 3 * np.sqrt(p * (1 - p) / n)

    def test_waiting_time_mean(self):
        rate = 1.5
        jumps, offsets = _sample_segments(one_stream(13), rate, 20.0, 4000, 0.0)
        nonempty = offsets[:-1] < offsets[1:]
        waits = jumps[offsets[:-1][nonempty]]
        assert abs(waits.mean() - 1 / rate) < 3 * waits.std() / np.sqrt(len(waits))

    def test_zero_rate_degenerate(self):
        jumps, offsets = _sample_segments(one_stream(14), 0.0, 5.0, 10, 0.0)
        assert jumps.size == 0 and np.all(offsets == 0)


class TestSeedStreams:
    def draws(self, seed, n, *key):
        return [(chunk, rng.uniform(size=3)) for chunk, rng in _seed_streams(seed, n, *key)]

    def test_same_seed_and_key_repeat_bits(self):
        a, b = self.draws(31, 1000, 2), self.draws(31, 1000, 2)
        assert [c for c, _ in a] == [c for c, _ in b]
        assert all(np.array_equal(x, y) for (_, x), (_, y) in zip(a, b))

    def test_empty_key_is_the_stream_index(self):
        for stream, (_, rng) in enumerate(_seed_streams(32, 100)):
            ref = np.random.Generator(np.random.PCG64(
                np.random.SeedSequence(32, spawn_key=(stream,))))
            assert np.array_equal(rng.uniform(size=3), ref.uniform(size=3))

    def test_distinct_keys_give_distinct_streams(self):
        seen = set()
        for m in (1, 2, 3):
            for _, draw in self.draws(33, 1000, m):
                seen.add(draw.tobytes())
        for _, draw in self.draws(33, 1000):
            seen.add(draw.tobytes())
        assert len(seen) == 4 * N_STREAMS

    def test_chunks_split_in_order(self):
        assert [c for c, _ in _seed_streams(1, 1003)] == [126, 126, 126, 125, 125, 125, 125, 125]

    def test_small_counts_drop_empty_chunks(self):
        assert [c for c, _ in _seed_streams(1, 5)] == [1, 1, 1, 1, 1]
        assert [c for c, _ in _seed_streams(1, N_STREAMS)] == [1] * N_STREAMS

    def test_rejects_bad_input(self):
        with pytest.raises(ParameterError):
            list(_seed_streams(1, 0))
        with pytest.raises(ParameterError):
            list(_seed_streams(-1, 10))


class TestCountUpto:
    def test_matches_per_path_count(self):
        jumps, offsets = _sample_segments(one_stream(16), 1.5, 4.0, 300, 0.0)
        for time in (-1.0, 0.0, 0.7, 2.5, 4.0):
            counts = _count_upto(jumps, offsets, time)
            for i in range(300):
                path = jumps[offsets[i]:offsets[i + 1]]
                assert counts[i] == np.searchsorted(path, time, side="right")

    def test_counts_a_jump_at_the_time(self):
        jumps = np.array([0.5, 1.0, 0.2, 1.0, 3.0])
        offsets = np.array([0, 2, 2, 5])
        assert list(_count_upto(jumps, offsets, 1.0)) == [2, 0, 2]

    def test_paths_of_every_length(self):
        # the search takes power-of-two steps: lengths around powers of two
        lengths = [0, 1, 2, 3, 7, 8, 9, 0, 63, 64, 65, 100]
        rng = np.random.default_rng(17)
        per_path = [np.sort(rng.uniform(0.0, 1.0, k)) for k in lengths]
        offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        jumps = np.concatenate(per_path)
        for time in (-0.5, 0.0, 0.01, 0.3, 0.5, 0.99, 1.0, *jumps[::7]):
            want = [np.searchsorted(path, time, side="right") for path in per_path]
            assert list(_count_upto(jumps, offsets, time)) == want

    def test_no_jumps(self):
        offsets = np.zeros(4, dtype=np.int64)
        assert list(_count_upto(np.zeros(0), offsets, 1.0)) == [0, 0, 0]


class TestPairInteraction:
    def test_jump_free_closed_form(self):
        for t in (0.5, 1.0, 3.0):
            path = path_on([], horizon=(0.0, t))
            assert pair_interaction_energy(path) == pytest.approx(
                2 * (t - 1 + np.exp(-t)), abs=1e-14
            )

    def test_single_jump_vs_quadrature(self):
        path = path_on([1.0], horizon=(0.0, 2.0))
        ref, _ = dblquad(
            lambda r, s: path.sign_at(s) * path.sign_at(r) * np.exp(-abs(s - r)),
            0.0, 2.0, 0.0, 2.0, epsabs=1e-11,
        )
        assert pair_interaction_energy(path) == pytest.approx(ref, abs=1e-8)

    def test_cross_square_vs_quadrature(self):
        path = path_on([-0.7, 0.4, 1.1], horizon=(-2.0, 2.0))
        ref, _ = dblquad(
            lambda r, s: path.sign_at(s) * path.sign_at(r) * np.exp(-abs(s - r)),
            0.0, 2.0, -2.0, 0.0, epsabs=1e-11,
        )
        val = pair_interaction_energy(path, square=((-2.0, 0.0), (0.0, 2.0)))
        assert val == pytest.approx(ref, abs=1e-8)

    @settings(max_examples=60, deadline=None)
    @given(random_paths())
    def test_bounded_by_jump_free_value(self, path):
        lo, hi = path.horizon
        bound = 2 * ((hi - lo) - 1 + np.exp(-(hi - lo)))
        assert abs(pair_interaction_energy(path)) <= bound + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(random_paths())
    def test_batch_matches_reference(self, path):
        lo, hi = path.horizon
        offsets = np.array([0, path.n_jumps], dtype=np.int64)
        (batch,), _ = _rank_pass(path.jumps, offsets, lo, (hi,))
        assert batch[0] == pytest.approx(pair_interaction_energy(path), abs=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(path_batches(), st.booleans())
    def test_every_path_of_a_batch_matches_the_oracles(self, batch, left):
        # one rank pass gives the interaction and the damped integral of every
        # path in the batch, on either side of 0
        hi, paths, alpha0 = batch
        lo, top = (-hi, 0.0) if left else (0.0, hi)
        if left:
            paths = [np.sort(-jumps) for jumps in paths]
        offsets = flat_batch(paths)[1]
        (inter,), damped = _rank_pass(*flat_batch(paths), lo, (top,))
        damped *= sign_at_zero(alpha0, offsets, left)
        for i, jumps in enumerate(paths):
            path = JumpPath(alpha0=int(alpha0[i]), horizon=(lo, top), jumps=jumps)
            assert inter[i] == pytest.approx(pair_interaction_energy(path), abs=1e-10)
            assert damped[i] == pytest.approx(damped_sign_integral(path, lo, top), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(path_batches(), st.lists(st.floats(0.01, 1.0), max_size=4), st.booleans())
    def test_horizons_match_a_restricted_batch(self, batch, fractions, at_a_jump):
        hi, paths, _ = batch
        jumps, offsets = flat_batch(paths)
        horizons = {hi * f for f in fractions} | {hi}
        if at_a_jump and jumps.size:
            horizons.add(float(jumps[0]))  # a horizon exactly at a jump
        horizons = sorted(horizons)
        for t, inter in zip(horizons, _rank_pass(jumps, offsets, 0.0, horizons)[0]):
            (restricted,), _ = _rank_pass(*restricted_batch(jumps, offsets, t), 0.0, (t,))
            assert inter == pytest.approx(restricted, abs=1e-12)
            for i, path_jumps in enumerate(paths):
                path = path_on(path_jumps[path_jumps < t], horizon=(0.0, t))
                assert inter[i] == pytest.approx(pair_interaction_energy(path), abs=1e-10)


def sign_at_zero(alpha0, offsets, left):
    """The sign at 0 of paths with sign ``alpha0`` at their left end."""
    return alpha0 * np.where(np.diff(offsets) % 2, -1, 1) if left else alpha0


def restricted_batch(jumps, offsets, t):
    """The jumps at or before ``t`` of every path of a flat batch, flat + offsets."""
    kept = np.zeros_like(offsets)
    np.cumsum(_count_upto(jumps, offsets, t), out=kept[1:])
    return jumps[jumps <= t], kept


def suppression(jumps, offsets):
    """Vacuum suppression of every path of a flat batch on [0, t], t past every jump."""
    top = float(jumps.max(initial=0.0)) + 1.0
    return _rank_pass(jumps, offsets, 0.0, (top,), suppression=True)


def one_at_a_time(jumps, offsets, lo, horizons):
    """The rank pass on every path of a flat batch alone, in path order."""
    alone = [_rank_pass(path, np.array([0, path.size]), lo, horizons)
             for path in np.split(jumps, offsets[1:-1])]
    return np.hstack([inter for inter, _ in alone]), np.concatenate([d for _, d in alone])


def check_stream(jumps, offsets, lo, hi, alpha0, horizons=()):
    """Every path of a stream against the scalar oracles, at every horizon."""
    inters, damped = _rank_pass(jumps, offsets, lo, (*horizons, hi))
    damped *= sign_at_zero(alpha0, offsets, hi <= 0.0)
    for i in range(len(offsets) - 1):
        path = jumps[offsets[i]:offsets[i + 1]]
        whole = JumpPath(alpha0=int(alpha0[i]), horizon=(lo, hi), jumps=path)
        assert inters[-1][i] == pytest.approx(pair_interaction_energy(whole), abs=1e-10)
        assert damped[i] == pytest.approx(damped_sign_integral(whole, lo, hi), abs=1e-12)
        for t, inter in zip(horizons, inters):
            part = JumpPath(alpha0=int(alpha0[i]), horizon=(lo, t), jumps=path[path < t])
            assert inter[i] == pytest.approx(pair_interaction_energy(part), abs=1e-10)


class TestBlockPassBits:
    """Each path's blocks take the same float operations alone and in any batch.

    So every functional of a path keeps its bits whatever the batch, its
    order or the horizon it ends at; on whole sampled streams the functionals
    match the scalar oracles.
    """

    @staticmethod
    def assert_same_bits(got, want):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(path_batches(), st.booleans())
    def test_block_terms(self, batch, left):
        # a path alone gives the bits it has in its batch
        hi, paths, _ = batch
        lo, top = (-hi, 0.0) if left else (0.0, hi)
        if left:
            paths = [np.sort(-jumps) for jumps in paths]
        jumps, offsets = flat_batch(paths)
        inter, damped = _rank_pass(jumps, offsets, lo, (top,))
        alone, alone_damped = one_at_a_time(jumps, offsets, lo, (top,))
        self.assert_same_bits([*inter, damped], [*alone, alone_damped])

    @settings(max_examples=80, deadline=None)
    @given(path_batches(), st.booleans())
    def test_square_functionals(self, batch, left):
        # the ranking does not depend on the order of the paths in the batch
        hi, paths, _ = batch
        lo, top = (-hi, 0.0) if left else (0.0, hi)
        if left:
            paths = [np.sort(-jumps) for jumps in paths]
        inter, damped = _rank_pass(*flat_batch(paths), lo, (top,))
        back, back_damped = _rank_pass(*flat_batch(paths[::-1]), lo, (top,))
        self.assert_same_bits([*inter, damped], [back[0][::-1], back_damped[::-1]])

    @settings(max_examples=60, deadline=None)
    @given(path_batches(), st.lists(st.floats(0.01, 1.0), max_size=4), st.booleans())
    def test_horizon_interactions(self, batch, fractions, at_a_jump):
        # every horizon keeps the bits of a pass that ends there
        hi, paths, _ = batch
        jumps, offsets = flat_batch(paths)
        horizons = {hi * f for f in fractions} | {hi}
        if at_a_jump and jumps.size:
            horizons.add(float(jumps[-1]))
        horizons = sorted(horizons)
        inters, _ = _rank_pass(jumps, offsets, 0.0, horizons)
        restricted = [_rank_pass(*restricted_batch(jumps, offsets, t), 0.0, (t,))[0][0]
                      for t in horizons]
        self.assert_same_bits(inters, restricted)

    @settings(max_examples=80, deadline=None)
    @given(path_batches())
    def test_vacuum_suppression(self, batch):
        _, paths, _ = batch
        jumps, offsets = flat_batch(paths)
        alone = [suppression(*flat_batch([path])) for path in paths]
        self.assert_same_bits([suppression(jumps, offsets)], [np.concatenate(alone)])

    @pytest.mark.parametrize("paths", [[np.zeros(0)], [np.zeros(0)] * 3, [np.array([0.4])],
                                       [np.array([0.1, 0.7, 1.3])]])
    def test_empty_and_single_paths(self, paths):
        jumps, offsets = flat_batch(paths)
        alpha0 = np.array([-1] * len(paths))
        for lo in (0.0, -2.0):
            check_stream(jumps + lo, offsets, lo, lo + 2.0, alpha0, horizons=(0.5 + lo,))
        for value, path in zip(suppression(jumps, offsets), paths):
            assert value == pytest.approx(vacuum_suppression(path_on(path, horizon=(0.0, 2.0))),
                                          abs=1e-12)

    def test_sampled_ensemble_sides(self):
        # whole streams of sampled paths, as the ensemble builds them
        rng = np.random.default_rng(7)
        for lo in (-12.0, 0.0):
            jumps, offsets = _sample_segments(rng, 0.5, 12.0, 500, lo)
            alpha0 = np.where(np.diff(offsets) % 2 == 0, 1, -1) if lo < 0 else np.ones(500)
            check_stream(jumps, offsets, lo, lo + 12.0, alpha0)
        # the right side's paths as vacuum paths on [0, 12]
        for i, value in enumerate(suppression(jumps, offsets)):
            path = path_on(jumps[offsets[i]:offsets[i + 1]], horizon=(0.0, 12.0))
            assert value == pytest.approx(vacuum_suppression(path), abs=1e-12)

    def test_sampled_stream_functionals(self):
        # whole streams of sampled paths, as the ensemble and the energy estimate use them
        rng = np.random.default_rng(8)
        jumps, offsets = _sample_segments(rng, 0.5, 12.0, 2000, 0.0)
        alpha0 = np.where(np.diff(offsets) % 2 == 0, 1, -1)
        check_stream(jumps, offsets, 0.0, 12.0, alpha0,
                     horizons=sorted([4.0, 6.0, float(jumps[5])]))
        jumps, offsets = _sample_segments(rng, 0.5, 12.0, 2000, -12.0)
        check_stream(jumps, offsets, -12.0, 0.0, np.where(np.diff(offsets) % 2 == 0, 1, -1))

    def test_horizons_need_no_side_tables(self):
        # each horizon h < hi is read off the pass in the step whose block
        # holds h, so the pass holds one row per horizon beside its working
        # rows: 2.85 MB traced when it also counted blocks before the pass
        # and kept three saved-state rows per horizon
        rng = np.random.default_rng(9)
        jumps, offsets = _sample_segments(rng, 0.5, 10.0, 12_500, 0.0)
        tracemalloc.start()
        try:
            _rank_pass(jumps, offsets, 0.0, (4.0, 6.0, 8.0, 10.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.8e6


class TestDampedIntegral:
    def test_vs_quadrature(self):
        path = path_on([-0.9, 0.3], horizon=(-2.0, 2.0))
        ref, _ = quad(lambda s: path.sign_at(s) * np.exp(-abs(s)), -2.0, 2.0,
                      points=[-0.9, 0.0, 0.3], limit=100)
        assert damped_sign_integral(path, -2.0, 2.0) == pytest.approx(ref, abs=1e-10)

    def test_batch_matches_reference(self):
        path = path_on([0.2, 0.8, 1.4], horizon=(0.0, 2.0))
        offsets = np.array([0, 3], dtype=np.int64)
        _, right = _rank_pass(path.jumps, offsets, 0.0, (2.0,))
        assert right[0] == pytest.approx(damped_sign_integral(path, 0.0, 2.0), abs=1e-12)


class TestVacuumSuppression:
    def test_no_jumps(self):
        assert vacuum_suppression(path_on([])) == 0.0

    def test_single_jump_is_one(self):
        for s in (0.1, 0.37, 0.9):
            assert vacuum_suppression(path_on([s])) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(random_paths())
    def test_positive_with_jumps(self, path):
        val = vacuum_suppression(path)
        assert val >= 0.0
        if path.n_jumps:
            assert val > 0.0

    def test_batch_matches_reference(self):
        jumps = np.array([0.2, 0.5, 0.6, 1.3])
        offsets = np.array([0, 4], dtype=np.int64)
        batch = suppression(jumps, offsets)
        ref = vacuum_suppression(path_on(jumps, horizon=(0.0, 2.0)))
        assert batch[0] == pytest.approx(ref, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(path_batches())
    def test_batch_positive_with_jumps(self, batch):
        _, paths, _ = batch
        values = suppression(*flat_batch(paths))
        for value, jumps in zip(values, paths):
            assert value >= 0.0
            if jumps.size:
                assert value > 0.0

    def test_near_coincident_jumps(self):
        # the expanded sums of the first batch rounded this to -8.7e-19
        jumps = np.array([0.001, np.nextafter(0.001, 1.0)])
        batch = suppression(jumps, np.array([0, 2], dtype=np.int64))
        ref = vacuum_suppression(path_on(jumps))
        assert batch[0] >= 0.0
        assert batch[0] == pytest.approx(ref, rel=1e-15, abs=0.0)


class TestClockRate:
    """The ensemble's clock: the ground measure's jump rate without ED, and its weights."""

    @pytest.mark.parametrize("delta", [0.25, 0.5, 1.0, 1.5])
    def test_near_the_exact_jump_rate(self, delta):
        # rho = -delta dE0/d(delta) = delta <(-1)^N> (Hellmann-Feynman); ED serves only here
        for g in (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0):
            p = ModelParams(delta, g)
            rho = delta * number_parity_expectation(ground_state(p))
            assert 0.4 <= _clock_rate(p) / rho <= 2.5, g

    @given(st.floats(0.01, 20.0), st.floats(0.0, 20.0))
    def test_never_above_delta(self, delta, g):
        assert 0.0 < _clock_rate(ModelParams(delta, g)) <= delta

    @pytest.mark.parametrize("delta, g", [(0.05, 0.0), (0.5, 0.0), (2.0, 0.0), (0.5, 0.5)])
    def test_delta_at_weak_coupling(self, delta, g):
        # below g = sqrt(delta/2) the clock is delta and the draws keep their bits
        assert _clock_rate(ModelParams(delta, g)) == delta

    def test_clock_at_delta_is_the_rate_delta_draw(self, monkeypatch):
        p = ModelParams(0.5, 1.0)
        free = build_ground_ensemble(ModelParams(0.5, 0.0), 2001, seed=32)  # drawn at delta
        *_, j_free = reference_ground_ensemble(ModelParams(0.5, 0.0), 2001, seed=32)
        monkeypatch.setattr("rabizeta.paths._clock_rate", lambda params: params.delta)
        ens = build_ground_ensemble(p, 2001, seed=32)
        *_, j = reference_ground_ensemble(p, 2001, seed=32)
        assert ens.rate == 0.5
        for name in ("left_jumps", "left_offsets", "right_jumps", "right_offsets",
                     "damped_left", "damped_right"):
            assert getattr(ens, name).tobytes() == getattr(free, name).tobytes(), name
        assert j.tobytes() == j_free.tobytes()
        assert ens.log_weights.tobytes() == (0.5 * p.g**2 * j).tobytes()

    def test_clock_moves_only_the_variance(self, monkeypatch):
        p = ModelParams(0.5, 1.0)
        matched = number_moments_fk(build_ground_ensemble(p, 100_000), p, 1)
        monkeypatch.setattr("rabizeta.paths._clock_rate", lambda params: params.delta)
        at_delta = number_moments_fk(build_ground_ensemble(p, 100_000), p, 1)
        assert abs(matched.mean - at_delta.mean) <= 4.0 * np.hypot(matched.stderr,
                                                                    at_delta.stderr)
        assert matched.stderr < at_delta.stderr / 2.0


class TestEnsemble:
    def test_default_horizon(self):
        assert default_horizon(0.5) == 12.0
        assert default_horizon(2.0) == 8.0
        with pytest.raises(ParameterError):
            default_horizon(0.0)

    def test_uniform_weights_at_zero_coupling(self):
        ens = build_ground_ensemble(ModelParams(0.5, 0.0), 2000, T=6.0, seed=21)
        assert np.all(ens.log_weights == 0.0)
        assert ens.n_eff == pytest.approx(2000.0)

    @pytest.mark.parametrize("n", [100, 1000, 100_000])
    def test_n_eff_exact_at_zero_coupling(self, n):
        # equal weights: (sum w)^2 / sum w^2 of n ones is n, with no rounding
        assert build_ground_ensemble(ModelParams(0.5, 0.0), n).n_eff == n

    def test_weight_reflection_symmetry(self):
        # reflecting a path in time leaves its interaction integral unchanged
        ens = build_ground_ensemble(ModelParams(0.5, 1.0), 50, T=4.0, seed=22)
        *_, j = reference_ground_ensemble(ModelParams(0.5, 1.0), 50, T=4.0, seed=22)
        for i, path in enumerate(ensemble_paths(ens)):
            mirrored = JumpPath(
                alpha0=path.sign_at(path.horizon[1] - 1e-12),
                horizon=path.horizon,
                jumps=np.sort(-path.jumps),
            )
            assert pair_interaction_energy(mirrored) == pytest.approx(j[i], abs=1e-9)

    def test_functionals_match_per_path(self):
        p = ModelParams(0.7, 1.2)
        ens = build_ground_ensemble(p, 40, T=5.0, seed=23)
        *_, j = reference_ground_ensemble(p, 40, T=5.0, seed=23)
        T, clock = ens.half_width, np.log(p.delta / ens.rate)
        for i, path in enumerate(ensemble_paths(ens)):
            full = pair_interaction_energy(path)
            assert full == pytest.approx(j[i], abs=1e-9)
            assert 0.5 * p.g**2 * full + path.n_jumps * clock == pytest.approx(
                ens.log_weights[i], abs=0.5 * p.g**2 * 1e-9)
            cross = pair_interaction_energy(path, square=((-T, 0.0), (0.0, T)))
            assert cross == pytest.approx(ens.cross_interaction()[i], abs=1e-10)
            u = damped_sign_integral(path, -T, 0.0)
            v = damped_sign_integral(path, 0.0, T)
            assert u == pytest.approx(ens.damped_left[i], abs=1e-12)
            assert v == pytest.approx(ens.damped_right[i], abs=1e-12)

    def test_signs_at_match_paths(self):
        ens = build_ground_ensemble(ModelParams(1.0, 0.8), 60, T=4.0, seed=24)
        for time in (-1.7, -0.2, 0.0, 0.9, 3.5):
            signs = ens.signs_at(time)
            for i, path in enumerate(ensemble_paths(ens)):
                assert signs[i] == path.sign_at(time)

    def test_sign_at_origin_fixed(self):
        ens = build_ground_ensemble(ModelParams(1.0, 0.8), 100, T=4.0, seed=25)
        assert np.all(ens.signs_at(0.0) == 1.0)

    def test_cross_interaction_bounded_by_one(self):
        ens = build_ground_ensemble(ModelParams(0.5, 1.0), 5000, T=12.0, seed=26)
        assert np.abs(ens.cross_interaction()).max() <= 1.0

    def test_reproducible_bitwise(self):
        a = build_ground_ensemble(ModelParams(0.5, 1.0), 500, T=6.0, seed=27)
        b = build_ground_ensemble(ModelParams(0.5, 1.0), 500, T=6.0, seed=27)
        assert np.array_equal(a.log_weights, b.log_weights)
        assert np.array_equal(a.right_jumps, b.right_jumps)

    def test_memory_peak(self):
        # every stream writes into the final arrays, one side at a time: a
        # side's draw is freed before its slice is ranked in place, so one
        # draw or one rank pass is alive at a time (10.9 MB traced when both
        # sides' draws were alive under both passes); the log weights are
        # formed in place over J, and n_eff takes one scratch array
        tracemalloc.start()
        try:
            ens = build_ground_ensemble(ModelParams(0.5, 1.0), 100_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        resident = sum(getattr(ens, field.name).nbytes for field in dataclasses.fields(ens)
                       if isinstance(getattr(ens, field.name), np.ndarray))
        assert peak <= resident + 1.5e6
        # on the clock at the ground measure's jump rate, without J and with
        # int32 offsets: 8.0 MB (8.8 MB with int64 offsets)
        assert resident <= 8.2e6

    def test_offsets_are_int32(self):
        ens = build_ground_ensemble(ModelParams(0.5, 1.0), 1000, seed=32)
        assert ens.left_offsets.dtype == ens.right_offsets.dtype == np.int32

    def test_refuses_jumps_past_int32_before_any_draw(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew before the jump capacity was checked")

        monkeypatch.setattr("rabizeta.paths._seed_streams", no_draw)
        # 1e9 paths at delta = 0.5, g = 1 need room for about 3e9 jumps a side
        with pytest.raises(ParameterError, match="int32"):
            build_ground_ensemble(ModelParams(0.5, 1.0), 10**9)

    def test_a_buffer_never_grows_past_int32_offsets(self):
        offsets = np.array([2**31 - 10, 0, 0], dtype=np.int32)
        with pytest.raises(ParameterError, match="int32"):
            _write_batch(np.empty(4), offsets, 0, np.zeros(20), np.array([0, 5, 20]))
        assert list(offsets) == [2**31 - 10, 0, 0]

    def test_signs_at_on_a_slice_of_paths(self):
        ens = build_ground_ensemble(ModelParams(1.0, 0.8), 1001, T=4.0, seed=33)
        for time in (-4.0, -1.7, 0.0, 0.9, 4.0):
            signs = ens.signs_at(time)
            for paths in (slice(0, 126), slice(126, 252), slice(875, 1001)):
                assert np.array_equal(ens.signs_at(time, paths), signs[paths])

    @pytest.mark.parametrize("n", [1, 3, 1001, 20_000])
    @pytest.mark.parametrize("delta", [0.5, 2.0])
    @pytest.mark.parametrize("T", [None, 2.0])
    def test_same_bits_as_concatenated_streams(self, n, delta, T):
        p = ModelParams(delta, 0.8)
        self.assert_same_ensemble(build_ground_ensemble(p, n, T, seed=29),
                                  *reference_ground_ensemble(p, n, T, seed=29)[:2])

    def test_same_bits_when_the_jump_buffers_grow(self, monkeypatch):
        monkeypatch.setattr("rabizeta.paths._jump_capacity", lambda rate, length, n: 1)
        p = ModelParams(0.5, 0.8)
        self.assert_same_ensemble(build_ground_ensemble(p, 1001, seed=30),
                                  *reference_ground_ensemble(p, 1001, seed=30)[:2])

    @staticmethod
    def assert_same_ensemble(got, want, want_alpha0):
        for field in dataclasses.fields(want):
            g, w = getattr(got, field.name), getattr(want, field.name)
            if isinstance(w, np.ndarray):
                assert g.dtype == w.dtype and g.shape == w.shape, field.name
                assert g.tobytes() == w.tobytes(), field.name
            elif field.name != "note":  # the reference sets no low-ESS note
                assert g == w, field.name
        # the signs at -T, derived from the jump counts, are the per-stream ones
        assert got.alpha0.dtype == want_alpha0.dtype
        assert got.alpha0.tobytes() == want_alpha0.tobytes()
        assert np.array_equal(got.signs_at(-got.half_width), want_alpha0)

    def test_n_eff_is_computed_once(self):
        ens = build_ground_ensemble(ModelParams(0.5, 1.0), 1000, seed=31)
        w = np.exp(ens.log_weights - ens.log_weights.max())
        n_eff = float(w.sum() ** 2 / np.sum(w**2))
        assert ens.n_eff == n_eff
        ens.log_weights = np.zeros(3)
        assert ens.n_eff == n_eff

    def test_interactions_late_in_a_stream(self):
        # paths 12 000-12 499 are the second half of the first seed stream:
        # stream-wide prefix sums once missed their interaction by 1.7e-7
        ens = build_ground_ensemble(ModelParams(0.5, 1.0), 100_000)
        *_, j = reference_ground_ensemble(ModelParams(0.5, 1.0), 100_000)
        T, alpha0 = ens.half_width, ens.alpha0
        for i in range(12_000, 12_500):
            left = ens.left_jumps[ens.left_offsets[i]:ens.left_offsets[i + 1]]
            right = ens.right_jumps[ens.right_offsets[i]:ens.right_offsets[i + 1]]
            path = JumpPath(alpha0=int(alpha0[i]), horizon=(-T, T),
                            jumps=np.concatenate([left, right]))
            assert j[i] == pytest.approx(pair_interaction_energy(path), rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("T", [np.nan, np.inf, -1.0])
    def test_horizon_not_positive_and_finite(self, monkeypatch, T):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew before T was checked")

        monkeypatch.setattr("rabizeta.paths._seed_streams", no_draw)
        with pytest.raises(ParameterError):
            build_ground_ensemble(ModelParams(0.5, 1.0), 100, T=T)

    def test_low_ess_note(self):
        ens = build_ground_ensemble(ModelParams(0.5, 2.5), 300, T=12.0, seed=28)
        assert "effective sample size" in ens.note


class TestWeightedMean:
    """``weighted_mean`` reduces one seed stream's slice of paths at a time."""

    @pytest.fixture(scope="class")
    def ens(self):
        return build_ground_ensemble(ModelParams(0.5, 1.0), 20_000, seed=34)

    @staticmethod
    def reference(ens, values):
        """Mean and stderr from exact sums (``math.fsum``) about the mean.

        The residuals about the rounded mean are exact, and their weighted
        mean moves them onto the unrounded one before they are squared.
        """
        w = np.exp(ens.log_weights - ens.log_weights.max())
        total = math.fsum(w)
        parts = (values.real, values.imag) if np.iscomplexobj(values) else (values,)
        means, var = [], 0.0
        for part in parts:
            mean = math.fsum(w * part) / total
            resid = part - mean
            shift = math.fsum(w * resid) / total
            var += math.fsum((w * (resid - shift)) ** 2)
            means.append(mean + shift)
        mean = complex(*means) if len(parts) == 2 else means[0]
        return mean, math.sqrt(var) / total

    @pytest.mark.parametrize("make", [
        lambda ens: ens.cross_interaction(),
        lambda ens: np.exp(1j * ens.damped_left),
        lambda ens: 1e8 + ens.damped_right,  # a large mean: no raw moments cancel
        lambda ens: ens.signs_at(0.5 * ens.half_width) * (1.0 - 2.0j),
    ], ids=["real", "complex", "offset", "signs"])
    def test_matches_exact_sums(self, ens, make):
        values = make(ens)
        kept = values.copy()
        mean, stderr = ens.weighted_mean(lambda paths: values[paths])
        assert values.tobytes() == kept.tobytes()
        want_mean, want_stderr = self.reference(ens, values)
        assert abs(mean - want_mean) <= 1e-13 * abs(want_mean)
        assert abs(stderr - want_stderr) <= 1e-13 * want_stderr
        assert isinstance(mean, complex if np.iscomplexobj(values) else float)

    def test_a_slice_of_zero_weight_adds_nothing(self, ens):
        log_weights = ens.log_weights.copy()
        log_weights[_stream_slices(ens.n_samples)[2]] -= 1e4  # its weights underflow to 0
        tilted = dataclasses.replace(ens, log_weights=log_weights)
        values = ens.cross_interaction()
        mean, stderr = tilted.weighted_mean(lambda paths: values[paths])
        want_mean, want_stderr = self.reference(tilted, values)
        assert abs(mean - want_mean) <= 1e-13 * abs(want_mean)
        assert abs(stderr - want_stderr) <= 1e-13 * want_stderr

    @pytest.mark.parametrize("value", [2.5, 1.0 - 0.5j])
    def test_a_constant_is_exact_with_zero_error(self, ens, value):
        mean, stderr = ens.weighted_mean(lambda paths: np.full(paths.stop - paths.start, value))
        assert mean == value and stderr == 0.0

    def test_constant_only_within_each_slice_is_not_constant(self, ens):
        # each stream's values are equal, but they differ between streams
        mean, stderr = ens.weighted_mean(lambda paths: np.full(paths.stop - paths.start,
                                                               float(paths.start > 0)))
        assert 0.0 < mean < 1.0 and stderr > 0.0

    @pytest.mark.parametrize("n", [1, 7, 8, 100_003])
    def test_slices_are_the_seed_stream_chunks(self, n):
        ens = build_ground_ensemble(ModelParams(0.5, 1.0), n, T=1.0, seed=35)
        seen = []

        def values(paths):
            seen.append(paths)
            return ens.damped_left[paths]

        ens.weighted_mean(values)
        assert seen == _stream_slices(n)
        assert [s.stop - s.start for s in seen] == [c for c, _ in _seed_streams(35, n)]
        assert seen[0].start == 0 and seen[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(seen, seen[1:]))
