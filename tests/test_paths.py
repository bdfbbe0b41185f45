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
    WaitStub,
    _path_major,
    _rank_pass,
    damped_sign_integral,
    ensemble_paths,
    mirror_batch,
    pair_interaction_energy,
    reference_ground_ensemble,
    replayed_waits,
    vacuum_suppression,
)
from rabizeta import estimators
from rabizeta.errors import DomainError, ParameterError
from rabizeta.estimators import number_moments_fk
from rabizeta.model import ModelParams
from rabizeta.observables import ground_state, number_parity_expectation
from rabizeta.paths import (
    N_STREAMS,
    build_ground_ensemble,
    _clock_rate,
    _count_upto,
    _horizon,
    _seed_streams,
    _stream_slices,
    _sweep,
    _write_batch,
)


def path_on(jumps, horizon=(0.0, 1.0), alpha0=1):
    return JumpPath(alpha0=alpha0, horizon=horizon, jumps=np.asarray(jumps, dtype=float))


def waits_of(jumps):
    """The waits whose running sums are ``jumps``, up to rounding."""
    return np.diff(np.asarray(jumps, dtype=float), prepend=0.0)


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
def wait_batches(draw):
    """(hi, per-path waits) of one to six paths whose running sums fall in (0, hi)."""
    hi = draw(st.floats(0.5, 6.0))
    batch = []
    for _ in range(draw(st.integers(1, 6))):
        k = draw(st.integers(0, 8))
        parts = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=k + 1, max_size=k + 1)))
        batch.append(hi * parts[:k] / parts.sum())  # the last part keeps the sum below hi
    return hi, batch


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
    ((_, rng),) = _seed_streams(seed, 1, "ensemble")
    return rng


def drawn(rng, rate, length, n, mirror=False):
    """``(jumps, offsets)`` of n paths the sweep draws on [0, length] (mirrored: [-length, 0])."""
    counts, steps = np.empty(n, dtype=np.int64), []
    _sweep(rng, n, rate, length, counts=counts, jumps=steps)
    return _path_major(steps, counts, mirror)


def swept(per_path, end, horizons=(), mirror=False, rng=None, rate=1.0):
    """The sweep's block functionals of n paths on [0, ``end``] and the jumps it recorded.

    The paths are given by their waits and walked at rate 1 through a
    ``WaitStub``, or, with ``rng``, drawn at ``rate`` (``per_path`` is then
    their number).  Returns the interaction rows at ``horizons`` and
    ``end``, the damped integral and ``(jumps, offsets)``.
    """
    n = per_path if rng is not None else len(per_path)
    stub = rng if rng is not None else WaitStub(replayed_waits(per_path, end))
    horizons = (*horizons, end)
    inters, damped, counts, steps = np.empty((len(horizons), n)), np.empty(n), np.empty(n, int), []
    _sweep(stub, n, rate, end, interactions=inters, horizons=horizons, damped=damped,
           counts=counts, jumps=steps)
    if rng is None:
        assert stub.calls == len(stub.steps)
    return inters, damped, _path_major(steps, counts, mirror)


def suppression(per_path, end):
    """The sweep's vacuum suppression of paths given by their waits, on [0, end]."""
    xi = np.empty(len(per_path))
    _sweep(WaitStub(replayed_waits(per_path, end)), len(per_path), 1.0, end, suppression=xi)
    return xi


class NoDraws:
    def standard_exponential(self, out):
        raise AssertionError("drew at rate 0")


class Recording:
    """A generator that keeps a copy of every draw it hands the sweep."""

    def __init__(self, rng):
        self.rng, self.draws = rng, []

    def standard_exponential(self, out):
        self.rng.standard_exponential(out=out)
        self.draws.append(out.copy())
        return out


class TestSamplingLaw:
    def test_poisson_mean(self):
        rate, t, n = 2.0, 3.0, 20_000
        _, offsets = drawn(one_stream(11), rate, t, n)
        mean = np.diff(offsets).mean()
        sigma = np.sqrt(rate * t / n)
        assert abs(mean - rate * t) < 3 * sigma

    def test_no_jump_probability(self):
        rate, t, n = 1.0, 1.0, 20_000
        _, offsets = drawn(one_stream(12), rate, t, n)
        empty = np.mean(np.diff(offsets) == 0)
        p = np.exp(-rate * t)
        assert abs(empty - p) < 3 * np.sqrt(p * (1 - p) / n)

    def test_waiting_time_mean(self):
        rate = 1.5
        jumps, offsets = drawn(one_stream(13), rate, 20.0, 4000)
        nonempty = offsets[:-1] < offsets[1:]
        waits = jumps[offsets[:-1][nonempty]]
        assert abs(waits.mean() - 1 / rate) < 3 * waits.std() / np.sqrt(len(waits))

    def test_zero_rate_degenerate(self):
        jumps, offsets = drawn(NoDraws(), 0.0, 5.0, 10)
        assert jumps.size == 0 and np.all(offsets == 0)

    def test_zero_rate_paths_have_the_jump_free_values(self):
        n, t = 4, 3.0
        inters, damped = np.empty((2, n)), np.empty(n)
        _sweep(NoDraws(), n, 0.0, t, interactions=inters, horizons=(1.0, t), damped=damped)
        for h, row in zip((1.0, t), inters):
            assert row == pytest.approx(2 * (h - 1 + np.exp(-h)), abs=1e-14)
        assert damped == pytest.approx(1 - np.exp(-t), abs=1e-15)

    def test_jump_times_are_running_sums_of_waits(self):
        # each jump time is its own path's running sum of scaled waits; the
        # keyed sort that drew these paths before rounded every time to the
        # ulp of its stream position: up to 1.46e-11 off on such a stream
        n, rate, length = 12_500, 0.5, 12.0
        rng = Recording(one_stream(19))
        jumps, offsets = drawn(rng, rate, length, n)
        counts = np.diff(offsets)
        per_path, held = [[] for _ in range(n)], np.arange(n)
        for k, draw in enumerate(rng.draws):  # the draw rule, replayed
            assert draw.size == held.size
            for i, wait in zip(held.tolist(), draw.tolist()):
                per_path[i].append(wait)
            live = held[counts[held] > k]
            if 2 * live.size <= held.size:
                held = live
        assert held.size == 0
        for i in range(n):
            times = np.cumsum(np.array(per_path[i][:counts[i] + 1]) * (1.0 / rate))
            assert times[:-1].tobytes() == jumps[offsets[i]:offsets[i + 1]].tobytes()
            assert times[-1] >= length
        # the same waits replayed through a stub give the same jumps
        replayed = drawn(WaitStub(rng.draws), rate, length, n)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(replayed, (jumps, offsets)))


class TestSeedStreams:
    def draws(self, seed, n, *key):
        return [(chunk, rng.uniform(size=3))
                for chunk, rng in _seed_streams(seed, n, "ensemble", *key)]

    def test_same_seed_and_key_repeat_bits(self):
        a, b = self.draws(31, 1000, 2), self.draws(31, 1000, 2)
        assert [c for c, _ in a] == [c for c, _ in b]
        assert all(np.array_equal(x, y) for (_, x), (_, y) in zip(a, b))

    def test_empty_key_is_the_stream_index(self):
        for stream, (_, rng) in enumerate(_seed_streams(32, 100, "ensemble")):
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
        assert ([c for c, _ in _seed_streams(1, 1003, "ensemble")]
                == [126, 126, 126, 125, 125, 125, 125, 125])

    def test_small_counts_drop_empty_chunks(self):
        assert [c for c, _ in _seed_streams(1, 5, "ensemble")] == [1, 1, 1, 1, 1]
        assert [c for c, _ in _seed_streams(1, N_STREAMS, "ensemble")] == [1] * N_STREAMS

    def test_rejects_bad_input(self):
        with pytest.raises(ParameterError):
            list(_seed_streams(1, 0, "ensemble"))
        with pytest.raises(ParameterError):
            list(_seed_streams(-1, 10, "ensemble"))


class TestCountUpto:
    def test_matches_per_path_count(self):
        jumps, offsets = drawn(one_stream(16), 1.5, 4.0, 300)
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
        # empty paths, and lengths on and around powers of two
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
        hi = path.horizon[1]
        (inter,), _, (jumps, _) = swept([waits_of(path.jumps)], hi)
        walked = path_on(jumps, horizon=(0.0, hi))
        assert inter[0] == pytest.approx(pair_interaction_energy(walked), abs=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(wait_batches(), st.booleans())
    def test_every_path_of_a_batch_matches_the_oracles(self, batch, left):
        # one sweep gives the interaction and the damped integral of every
        # path in the batch, on either side of 0
        hi, waits = batch
        check_sweep(*swept(waits, hi, mirror=left), hi, left)

    @settings(max_examples=60, deadline=None)
    @given(wait_batches(), st.lists(st.floats(0.01, 1.0), max_size=4), st.booleans())
    def test_horizons_match_a_restricted_batch(self, batch, fractions, at_a_jump):
        hi, waits = batch
        horizons = horizons_of(hi, waits, fractions, at_a_jump)
        inters, damped, flat = swept(waits, hi, horizons[:-1])
        check_sweep(inters, damped, flat, hi, horizons=horizons[:-1])
        for t, inter in zip(horizons, inters):
            (restricted,), _, _ = swept(restricted_waits(waits, t), t)
            assert inter == pytest.approx(restricted, abs=1e-12)


def horizons_of(hi, waits, fractions, at_a_jump):
    """Ascending horizons: ``hi`` times the fractions, ``hi``, and maybe the first jump."""
    horizons = {hi * f for f in fractions} | {hi}
    jumps = [np.cumsum(w) for w in waits if len(w)]
    if at_a_jump and jumps:
        horizons.add(float(jumps[0][0]))  # a horizon exactly at a jump
    return sorted(horizons)


def restricted_waits(waits, t):
    """The waits of every path whose running sums stay below ``t``."""
    return [w[:int(np.count_nonzero(np.cumsum(w) < t))] for w in waits]


def check_sweep(inters, damped, flat, hi, left=False, horizons=()):
    """Every path a sweep walked on [0, hi] against the scalar oracles and the rank pass.

    ``inters`` holds the interaction at each of ``horizons`` and at ``hi``,
    and ``flat`` the recorded jumps, negated with ``left``: a left side on
    [-hi, 0], with the sign +1 at 0.  The rank pass on the recorded jumps
    gives the right side's interactions bit for bit; it walks a left side
    inward from -hi, the sweep outward from 0, so their sums round apart,
    within 4 ulps of the largest J, 2 hi.
    """
    jumps, offsets = flat
    lo, top = (-hi, 0.0) if left else (0.0, hi)
    ref, ref_damped = _rank_pass(jumps, offsets, lo, (top,) if left else (*horizons, hi))
    if left:
        assert np.abs(ref - inters[-1]).max(initial=0.0) <= 4 * np.spacing(2 * hi)
    else:
        assert ref.tobytes() == inters.tobytes()
    assert np.abs(ref_damped - damped).max(initial=0.0) <= 1e-14
    for i in range(len(offsets) - 1):
        path = jumps[offsets[i]:offsets[i + 1]]
        alpha0 = (-1) ** path.size if left else 1  # the sign +1 at 0
        whole = JumpPath(alpha0=alpha0, horizon=(lo, top), jumps=path)
        assert inters[-1][i] == pytest.approx(pair_interaction_energy(whole), abs=1e-10)
        assert damped[i] == pytest.approx(damped_sign_integral(whole, lo, top), abs=1e-12)
        for t, inter in zip(horizons, inters):
            part = JumpPath(alpha0=1, horizon=(0.0, t), jumps=path[path < t])
            assert inter[i] == pytest.approx(pair_interaction_energy(part), abs=1e-10)


class TestBlockPassBits:
    """Each path's blocks take the same float operations alone and in any batch.

    So every functional of a path keeps its bits whatever the batch, its
    order, the compaction schedule or the horizon it ends at; on whole
    sampled streams the functionals match the scalar oracles and the rank
    pass of ``path_oracles``.
    """

    @staticmethod
    def assert_same_bits(got, want):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(wait_batches(), st.booleans())
    def test_block_terms(self, batch, left):
        # a path alone gives the bits it has in its batch
        hi, waits = batch
        inter, damped, (jumps, _) = swept(waits, hi, mirror=left)
        alone = [swept([w], hi, mirror=left) for w in waits]
        self.assert_same_bits([*inter, damped, jumps],
                              [np.hstack([a[0] for a in alone])[0],
                               np.concatenate([a[1] for a in alone]),
                               np.concatenate([a[2][0] for a in alone])])

    @settings(max_examples=80, deadline=None)
    @given(wait_batches())
    def test_square_functionals(self, batch):
        # the bits do not depend on the order of the paths in the batch
        hi, waits = batch
        inter, damped, _ = swept(waits, hi)
        back, back_damped, _ = swept(waits[::-1], hi)
        self.assert_same_bits([*inter, damped], [back[0][::-1], back_damped[::-1]])

    @settings(max_examples=60, deadline=None)
    @given(wait_batches(), st.lists(st.floats(0.01, 1.0), max_size=4), st.booleans())
    def test_horizon_interactions(self, batch, fractions, at_a_jump):
        # every horizon keeps the bits of a sweep that ends there
        hi, waits = batch
        horizons = horizons_of(hi, waits, fractions, at_a_jump)
        inters, _, _ = swept(waits, hi, horizons[:-1])
        restricted = [swept(restricted_waits(waits, t), t)[0][0] for t in horizons]
        self.assert_same_bits(inters, restricted)

    @settings(max_examples=80, deadline=None)
    @given(wait_batches())
    def test_vacuum_suppression(self, batch):
        hi, waits = batch
        alone = [suppression([w], hi) for w in waits]
        self.assert_same_bits([suppression(waits, hi)], [np.concatenate(alone)])

    @pytest.mark.parametrize("paths", [[np.zeros(0)], [np.zeros(0)] * 3, [np.array([0.4])],
                                       [np.array([0.1, 0.7, 1.3])]])
    def test_empty_and_single_paths(self, paths):
        waits = [waits_of(path) for path in paths]
        for left in (False, True):
            check_sweep(*swept(waits, 2.0, (0.5,) if not left else (), mirror=left), 2.0, left,
                        horizons=(0.5,) if not left else ())
        for value, path in zip(suppression(waits, 2.0), paths):
            assert value == pytest.approx(vacuum_suppression(path_on(path, horizon=(0.0, 2.0))),
                                          abs=1e-12)

    def test_sampled_ensemble_sides(self):
        # whole drawn streams, as the ensemble sweeps its two sides
        rng = np.random.default_rng(7)
        for left in (True, False):
            check_sweep(*swept(500, 12.0, mirror=left, rng=rng, rate=0.5), 12.0, left)
        # drawn vacuum paths on [0, 12]
        xi, counts, steps = np.empty(500), np.empty(500, int), []
        _sweep(rng, 500, 0.5, 12.0, suppression=xi, counts=counts, jumps=steps)
        jumps, offsets = _path_major(steps, counts)
        for i, value in enumerate(xi):
            path = path_on(jumps[offsets[i]:offsets[i + 1]], horizon=(0.0, 12.0))
            assert value == pytest.approx(vacuum_suppression(path), abs=1e-12)

    def test_sampled_stream_functionals(self):
        # whole drawn streams, as the ensemble and the energy estimate use them
        rng = np.random.default_rng(8)
        check_sweep(*swept(2000, 12.0, (4.0, 6.0, 8.0), rng=rng, rate=0.5), 12.0,
                    horizons=(4.0, 6.0, 8.0))
        check_sweep(*swept(2000, 12.0, mirror=True, rng=rng, rate=0.5), 12.0, left=True)

    def test_horizons_need_no_side_tables(self):
        # each horizon h < hi is read off the sweep in the step whose block
        # holds h, so a 12 500-path stream holds one row per horizon beside
        # its slots (2.85 MB traced when the rank pass also counted blocks
        # before the pass and kept three saved-state rows per horizon)
        rng = np.random.default_rng(9)
        logs = np.empty((4, 12_500))
        tracemalloc.start()
        try:
            _sweep(rng, 12_500, 0.5, 10.0, interactions=logs, horizons=(4.0, 6.0, 8.0, 10.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.8e6


class TestSweep:
    """The one Poisson sweep against the rank pass, on the streams its callers draw."""

    @pytest.mark.parametrize("g", [0.5, 1.0])
    def test_ensemble_sides_match_the_rank_pass(self, g):
        # every stream of the ensemble, swept again as its build sweeps it
        p = ModelParams(0.5, g)
        ens = build_ground_ensemble(p, 20_000)
        T, rate = ens.half_width, ens.rate
        streams = _seed_streams(ens.seed, 20_000, "ensemble")
        for paths, (chunk, rng) in zip(_stream_slices(20_000), streams):
            for left in (True, False):
                inters, damped, (jumps, offsets) = swept(chunk, T, rng=rng, rate=rate)
                check = ens.damped_left if left else ens.damped_right
                stored = ((ens.left_jumps, ens.left_offsets) if left else
                          (ens.right_jumps, ens.right_offsets))
                bounds = stored[1][paths.start:paths.stop + 1]
                assert jumps.tobytes() == stored[0][bounds[0]:bounds[-1]].tobytes()
                assert np.array_equal(bounds - bounds[0], offsets)
                assert damped.tobytes() == check[paths].tobytes()
                lo, top = (-T, 0.0) if left else (0.0, T)
                if left:  # the rank pass walks the left side's times on [-T, 0]
                    jumps = mirror_batch(jumps, offsets)
                (ref,), ref_damped = _rank_pass(jumps, offsets, lo, (top,))
                assert np.abs(ref_damped - damped).max() <= 1e-14
                if left:
                    assert np.abs(ref - inters[0]).max() <= 1e-14
                else:
                    assert ref.tobytes() == inters[0].tobytes()

    def test_partition_logs_match_the_rank_pass(self, monkeypatch):
        from rabizeta import estimators

        horizons, compared = (4.0, 6.0, 8.0, 10.0), []

        def checked(rng, n, rate, end, **rows):
            counts, steps = np.empty(n, int), []
            _sweep(rng, n, rate, end, counts=counts, jumps=steps, **rows)
            ref, _ = _rank_pass(*_path_major(steps, counts), 0.0, horizons)
            assert ref.tobytes() == rows["interactions"].tobytes()
            compared.append(n)

        monkeypatch.setattr(estimators, "_sweep", checked)
        for _ in estimators._partition_logs(ModelParams(0.5, 1.0), list(horizons), 20_000, 3,
                                            "partition"):
            pass
        assert sum(compared) == 20_000

    def test_vacuum_suppression_matches_the_rank_pass(self, monkeypatch):
        from rabizeta import estimators

        compared = []

        def checked(rng, n, rate, end, **rows):
            counts, steps = np.empty(n, int), []
            _sweep(rng, n, rate, end, counts=counts, jumps=steps, **rows)
            ref = _rank_pass(*_path_major(steps, counts), 0.0, (end,), suppression=True)
            assert np.abs(ref - rows["suppression"]).max() <= 1e-14
            compared.append(n)

        monkeypatch.setattr(estimators, "_sweep", checked)
        estimators.vacuum_element_fk(ModelParams(0.5, 1.0), 1.0, 20_000)
        assert sum(compared) == 20_000

    def test_known_waits_give_an_ensemble_side(self):
        # 300 paths of known waits, one sweep's side, against the scalar oracles
        waits = known_waits(300, rate=0.25, end=12.0, seed=61)
        for left in (False, True):
            check_sweep(*swept(waits, 12.0, mirror=left), 12.0, left)

    def test_known_waits_give_every_horizon_of_a_stream(self):
        waits = known_waits(300, rate=0.5, end=10.0, seed=62)
        check_sweep(*swept(waits, 10.0, (4.0, 6.0, 8.0)), 10.0, horizons=(4.0, 6.0, 8.0))
        for value, w in zip(suppression(waits, 10.0), waits):
            path = path_on(np.cumsum(w), horizon=(0.0, 10.0))
            assert value == pytest.approx(vacuum_suppression(path), abs=1e-12)


def known_waits(n, rate, end, seed):
    """Waits of n rate-``rate`` paths whose running sums stay below ``end``."""
    rng = np.random.default_rng(seed)
    waits = []
    for _ in range(n):
        times = np.cumsum(rng.exponential(1.0 / rate, size=int(4 * rate * end) + 20))
        waits.append(np.diff(times[times < end], prepend=0.0))
    return waits


class TestDampedIntegral:
    def test_vs_quadrature(self):
        path = path_on([-0.9, 0.3], horizon=(-2.0, 2.0))
        ref, _ = quad(lambda s: path.sign_at(s) * np.exp(-abs(s)), -2.0, 2.0,
                      points=[-0.9, 0.0, 0.3], limit=100)
        assert damped_sign_integral(path, -2.0, 2.0) == pytest.approx(ref, abs=1e-10)

    def test_batch_matches_reference(self):
        path = path_on([0.2, 0.8, 1.4], horizon=(0.0, 2.0))
        _, right, _ = swept([waits_of(path.jumps)], 2.0)
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
        batch = suppression([waits_of(jumps)], 2.0)
        ref = vacuum_suppression(path_on(jumps, horizon=(0.0, 2.0)))
        assert batch[0] == pytest.approx(ref, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(wait_batches())
    def test_batch_positive_with_jumps(self, batch):
        hi, waits = batch
        for value, w in zip(suppression(waits, hi), waits):
            assert value >= 0.0
            if len(w):
                assert value > 0.0

    def test_near_coincident_jumps(self):
        # the expanded sums of the first batch rounded this to -8.7e-19
        jumps = np.array([0.001, np.nextafter(0.001, 1.0)])
        batch = suppression([waits_of(jumps)], 1.0)
        assert np.cumsum(waits_of(jumps)).tobytes() == jumps.tobytes()
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
        assert _horizon(0.5, None) == 12.0
        assert _horizon(2.0, None) == 8.0
        with pytest.raises(ParameterError):
            _horizon(0.0, None)

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

    def test_a_jump_at_the_time_counts_as_the_oracle_does(self):
        # both sides hold distances from 0: a right jump at t counts at t,
        # and a left jump at distance |t| sits at t < 0 itself, so the sign
        # there counts only the left jumps strictly nearer 0
        ens = build_ground_ensemble(ModelParams(0.5, 1.0), 3, T=4.0, seed=36)
        ens = dataclasses.replace(
            ens,  # jumps at -2.5, -1, 1; none; -1, 0.5, 2.5
            left_jumps=np.array([1.0, 2.5, 1.0]), left_offsets=np.array([0, 2, 2, 3], np.int32),
            right_jumps=np.array([1.0, 0.5, 2.5]), right_offsets=np.array([0, 1, 1, 3], np.int32))
        want = {1.0: [-1, 1, -1], 2.5: [-1, 1, 1], -1.0: [1, 1, 1], -2.5: [-1, 1, -1]}
        for time, signs in want.items():
            assert ens.signs_at(time).tolist() == signs
            assert [path.sign_at(time) for path in ensemble_paths(ens)] == signs

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

    @pytest.mark.parametrize("n", [0, -5])
    def test_refuses_no_paths_before_any_draw(self, monkeypatch, n):
        def no_draw(*args, **kwargs):
            raise AssertionError("sized or drew before n_samples was checked")

        monkeypatch.setattr("rabizeta.paths._jump_capacity", no_draw)
        monkeypatch.setattr("rabizeta.paths._seed_streams", no_draw)
        with pytest.raises(ParameterError, match="n_samples"):
            build_ground_ensemble(ModelParams(0.5, 1.0), n)

    def test_a_buffer_never_grows_past_int32_offsets(self):
        # two paths of 5 and 15 jumps, as the sweep records their steps and counts
        offsets = np.array([2**31 - 10, 5, 15], dtype=np.int32)
        steps = [np.zeros(2)] * 5 + [np.zeros(1)] * 10
        with pytest.raises(ParameterError, match="int32"):
            _write_batch(np.empty(4), offsets, steps)
        assert list(offsets) == [2**31 - 10, 5, 15]

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
            path = JumpPath(alpha0=int(alpha0[i]), horizon=(-T, T), jumps=ens.jump_times(i))
            assert j[i] == pytest.approx(pair_interaction_energy(path), rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("T", [np.nan, np.inf, -1.0])
    def test_horizon_not_positive_and_finite(self, monkeypatch, T):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew before T was checked")

        monkeypatch.setattr("rabizeta.paths._seed_streams", no_draw)
        with pytest.raises(ParameterError):
            build_ground_ensemble(ModelParams(0.5, 1.0), 100, T=T)

    def test_low_ess_note(self):
        # n_eff of 300 paths at g = 2.5 scatters around 100 from seed to
        # seed, so the note follows n_eff; below 100 paths n_eff is below 100
        ens = build_ground_ensemble(ModelParams(0.5, 2.5), 300, T=12.0, seed=28)
        assert ("effective sample size" in ens.note) == (ens.n_eff < 100)
        assert "effective sample size" in build_ground_ensemble(ModelParams(0.5, 2.5), 99,
                                                                T=12.0, seed=28).note


class TestWeightedMean:
    """An ensemble's weighted means, which ``estimators._ensemble_estimate`` reduces
    one seed stream's slice of paths at a time."""

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
        est = estimators._ensemble_estimate(ens, lambda paths: values[paths])
        mean, stderr = est.mean, est.stderr
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
        est = estimators._ensemble_estimate(tilted, lambda paths: values[paths])
        mean, stderr = est.mean, est.stderr
        want_mean, want_stderr = self.reference(tilted, values)
        assert abs(mean - want_mean) <= 1e-13 * abs(want_mean)
        assert abs(stderr - want_stderr) <= 1e-13 * want_stderr

    @pytest.mark.parametrize("value", [2.5, 1.0 - 0.5j])
    def test_a_constant_is_exact_with_zero_error(self, ens, value):
        est = estimators._ensemble_estimate(
            ens, lambda paths: np.full(paths.stop - paths.start, value))
        mean, stderr = est.mean, est.stderr
        assert mean == value and stderr == 0.0

    def test_constant_only_within_each_slice_is_not_constant(self, ens):
        # each stream's values are equal, but they differ between streams
        est = estimators._ensemble_estimate(ens, lambda paths: np.full(paths.stop - paths.start,
                                                                       float(paths.start > 0)))
        mean, stderr = est.mean, est.stderr
        assert 0.0 < mean < 1.0 and stderr > 0.0

    @pytest.mark.parametrize("n", [1, 7, 8, 100_003])
    def test_slices_are_the_seed_stream_chunks(self, n):
        ens = build_ground_ensemble(ModelParams(0.5, 1.0), n, T=1.0, seed=35)
        seen = []

        def values(paths):
            seen.append(paths)
            return ens.damped_left[paths]

        estimators._ensemble_estimate(ens, values)
        assert seen == _stream_slices(n)
        assert [s.stop - s.start for s in seen] == [c for c, _ in
                                                    _seed_streams(35, n, "ensemble")]
        assert seen[0].start == 0 and seen[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(seen, seen[1:]))
