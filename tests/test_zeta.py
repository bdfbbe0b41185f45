"""Hurwitz evaluation against an independent oracle; spectral zeta identities."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rabizeta.model as model
import rabizeta.zeta as zeta
from rabizeta.errors import ConvergenceError, DomainError, ParameterError
from rabizeta.model import ModelParams, Spectrum, adaptive_spectrum
from rabizeta.zeta import (
    _HEAD_REL_TOL,
    _head_bound,
    _require_zeta_shift,
    _head_for_tail_bound,
    _ladder,
    _ladder_points,
    _predicted_deviation,
    _tail_bound,
    eigenvalue_limit_table,
    hurwitz_zeta,
    spectral_zeta,
    variant_target,
    zeta_limit_table,
    zeta_variant_value,
)


def mp_hurwitz(s: complex, tau: float) -> complex:
    # Near s = 0, 1 - s rounds to 1 in mpmath's reflection formula, which then
    # divides by zero (s = -1.6e-113); carry as many extra digits as 1/|s| has.
    extra = math.ceil(-math.log10(abs(s))) if 0 < abs(s) < 1 else 0
    with mpmath.workdps(15 + extra):
        return complex(mpmath.zeta(mpmath.mpc(s.real, s.imag), tau))


class TestHurwitz:
    def test_basel(self):
        assert hurwitz_zeta(2, 1).value == pytest.approx(np.pi**2 / 6, abs=1e-13)

    def test_odd_reciprocal_squares(self):
        assert hurwitz_zeta(2, 0.5).value == pytest.approx(np.pi**2 / 2, abs=1e-12)

    @pytest.mark.parametrize(
        "s,tau", [(-1.875, 0.5), (-1.9837291097824015 + 6.919383794358783j, 1.982591428827962)]
    )
    def test_cancellation_above_minus_two(self, s, tau):
        # the longer direct sum missed these by 1.2e-11 and 2.5e-11
        ref = mp_hurwitz(complex(s), tau)
        assert abs(hurwitz_zeta(s, tau).value - ref) <= 1e-11 * max(1.0, abs(ref))

    def test_continuation_special_value(self):
        for tau in (0.2, 1.0, 3.7):
            assert hurwitz_zeta(0, tau).value.real == pytest.approx(0.5 - tau, abs=1e-11)

    def test_riemann_even_values(self):
        targets = {2: np.pi**2 / 6, 3: 1.2020569031595942854, 4: np.pi**4 / 90}
        for s, ref in targets.items():
            assert abs(hurwitz_zeta(s, 1.0).value - ref) < 1e-12

    def test_pole_and_domain(self):
        with pytest.raises(DomainError):
            hurwitz_zeta(1.0, 1.0)
        with pytest.raises(DomainError):
            hurwitz_zeta(2.0, 0.0)

    def test_nan_shift_is_domain_error(self):
        with pytest.raises(DomainError):
            hurwitz_zeta(2.0, np.nan)

    def test_infinite_shift_is_domain_error(self):
        with pytest.raises(DomainError):
            hurwitz_zeta(2.0, np.inf)

    @settings(max_examples=60, deadline=None)
    @given(
        sr=st.floats(-18, 18),
        si=st.floats(-10, 10),
        tau=st.floats(0.05, 10),
    )
    @example(sr=-1.6e-113, si=0.0, tau=2.0)
    def test_against_mpmath(self, sr, si, tau):
        s = complex(sr, si)
        if abs(s - 1) < 0.05:
            return
        ours = hurwitz_zeta(s, tau).value
        ref = mp_hurwitz(s, tau)
        assert abs(ours - ref) <= 1e-11 * max(1.0, abs(ref))

    @settings(max_examples=30, deadline=None)
    @given(sr=st.floats(1.1, 15), si=st.floats(0.1, 10), tau=st.floats(0.1, 5))
    def test_conjugation_symmetry(self, sr, si, tau):
        plus = hurwitz_zeta(complex(sr, si), tau).value
        minus = hurwitz_zeta(complex(sr, -si), tau).value
        assert abs(plus - np.conj(minus)) < 1e-12 * max(1.0, abs(plus))


@pytest.fixture(scope="module")
def free_spectrum():
    return adaptive_spectrum(ModelParams(0.25, 0.0), k=1200, rel_tol=1e-10)


class TestSpectralZeta:
    def test_decoupled_exact(self):
        # delta = 0: the value is exactly twice the Hurwitz target, and the tail
        # bound is zero; what the reported bound holds is the head's brackets
        zv = zeta_variant_value(ModelParams(0.0, 2.0), 2.0, 1.0, "full", 1500)
        assert abs(zv.value - 2 * hurwitz_zeta(2, 1).value) < 1e-10
        spec = adaptive_spectrum(ModelParams(0.0, 2.0), 1500, _HEAD_REL_TOL, "full")
        shifted = spec.eigenvalues[:1500] + 4.0 + 1.0
        assert _tail_bound(2.0 + 0j, 1.0, 1500, (0.0, 0.0), 0.0) == 0.0
        assert zv.tail_bound == _head_bound(2.0 + 0j, shifted, spec.error_bound[:1500])

    def test_tail_bound_holds_the_head_brackets(self):
        spec = adaptive_spectrum(ModelParams(0.5, 4.0), 200, _HEAD_REL_TOL, "full")
        bare = Spectrum(spec.eigenvalues, spec.parity, converged_count=spec.converged_count)
        with_brackets = spectral_zeta(spec, 2.0, 1.0, 16.0, radius=0.5, n_use=200)
        without = spectral_zeta(bare, 2.0, 1.0, 16.0, radius=0.5, n_use=200)
        assert with_brackets.value == without.value
        head = with_brackets.tail_bound - without.tail_bound
        # each term moves by at most |s| w / x^3 for a level within w of x
        shifted = spec.eigenvalues[:200] + 17.0
        assert 0.0 < head <= 1.01 * np.sum(2.0 * spec.error_bound[:200] / (shifted - 1e-9) ** 3)

    def test_head_below_the_degeneracy_solves_nothing(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("a level was solved before the head size was checked")

        monkeypatch.setattr(zeta, "adaptive_spectrum", no_solve)
        for variant in ("full", "parity+"):
            with pytest.raises(ParameterError, match="at least 1 level"):
                zeta_variant_value(ModelParams(0.5, 1.0), 2.0, 1.0, variant, 0)

    @pytest.mark.parametrize("s", [1.0, 0.5, 0.0, 1.0 + 3.0j])
    def test_divergent_sum_solves_nothing(self, monkeypatch, s):
        def no_solve(*args, **kwargs):
            raise AssertionError("a level was solved before Re(s) was checked")

        monkeypatch.setattr(zeta, "adaptive_spectrum", no_solve)
        p = ModelParams(0.5, 0.0)
        with pytest.raises(DomainError, match=r"Re\(s\) > 1"):
            zeta_variant_value(p, s, 1.0, "full", 40)
        with pytest.raises(DomainError, match=r"Re\(s\) > 1"):
            zeta_limit_table(p, s, 1.0, [2.0, 4.0], "full")

    def test_free_splitting_identity(self, free_spectrum):
        zv = spectral_zeta(free_spectrum, 2.0, 1.0, 0.0, radius=0.25)
        target = hurwitz_zeta(2, 1.25).value + hurwitz_zeta(2, 0.75).value
        assert abs(zv.value - target) < 1e-8

    def test_deviation_decreases_with_g(self):
        target = 2 * hurwitz_zeta(2, 1).value
        devs = []
        for g in (2.0, 4.0, 6.0, 8.0):
            zv = zeta_variant_value(ModelParams(0.5, g), 2.0, 1.0, "full", 1200)
            devs.append(abs(zv.value - target))
        assert all(devs[i + 1] < devs[i] for i in range(3))

    def test_tail_bound_monotone_in_head(self, free_spectrum):
        bounds = [
            spectral_zeta(free_spectrum, 2.0, 1.0, 0.0, radius=0.25, n_use=n).tail_bound
            for n in (200, 400, 800)
        ]
        assert bounds[0] > bounds[1] > bounds[2]

    def test_conjugate_s_conjugate_value(self, free_spectrum):
        a = spectral_zeta(free_spectrum, 2 + 1j, 1.0, 0.0, radius=0.25).value
        b = spectral_zeta(free_spectrum, 2 - 1j, 1.0, 0.0, radius=0.25).value
        assert abs(a - np.conj(b)) < 1e-12

    def test_domain_errors(self, free_spectrum):
        with pytest.raises(DomainError):
            spectral_zeta(free_spectrum, 0.5, 1.0, 0.0, radius=0.25)
        with pytest.raises(DomainError):
            spectral_zeta(free_spectrum, 2.0, -1.0, 0.0, radius=0.25)

    def test_insufficient_levels(self):
        with pytest.raises(ConvergenceError):
            spectral_zeta(Spectrum(np.array([])), 2.0, 1.0, 0.0, radius=0.5)

    def test_doubly_degenerate_integer_ladder(self):
        # the uncoupled reference spectrum {0,0,1,1,...} gives 2 zeta(s;tau)
        ladder = Spectrum(np.repeat(np.arange(300, dtype=float), 2), converged_count=600)
        for s, tau in ((2.0, 1.0), (3.0, 0.5)):
            zv = spectral_zeta(ladder, s, tau, 0.0, radius=0.0)
            assert abs(zv.value - 2 * hurwitz_zeta(s, tau).value) <= max(zv.tail_bound, 1e-12)

    @pytest.mark.parametrize("variant,eps", [("parity+", 0.0), ("full", 0.0),
                                             ("asymmetric", 0.25), ("asymmetric", 0.75),
                                             ("asymmetric", 1.0)])
    def test_exact_ladder_identity(self, variant, eps):
        # the sorted ladder points themselves: head plus tail is the target at every head
        ladder = _ladder(ModelParams(0.5, 0.0, eps), variant)
        points = np.sort(np.concatenate([np.arange(60.0) + o for o in ladder]))
        spec = Spectrum(points, converged_count=len(points))
        target = variant_target(ModelParams(0.5, 0.0, eps), 2.0, 2.0, variant)
        for n in (1, 2, 3, 7, 50):
            zv = spectral_zeta(spec, 2.0, 2.0, 0.0, radius=0.0, ladder=ladder, n_use=n)
            assert zv.n_used == n and zv.tail_bound == 0.0
            assert abs(zv.value - target) < 1e-12


VARIANTS = (("full", 0.0), ("parity+", 0.0), ("parity-", 0.0), ("asymmetric", 0.25))


# The benchmark's grids: zeta-limit rows at g = 2..12, level rows at g = 4, 8, 12.
ZETA_GRID = [2.0, 4.0, 6.0, 8.0, 10.0, 12.0]
LEVEL_GRID = [4.0, 8.0, 12.0]
# (variant, s) of the benchmark's zeta-limit tables (delta = 0.5, tau = 1), and
# the head every row took when heads were sized to a tail bound of 1e-5 |target|.
BENCH_TABLES = {("full", 2.0): 349, ("parity+", 2.0): 175, ("parity-", 2.0): 175,
                ("asymmetric", 2.0): 328, ("full", 2.0 + 1.0j): 427}


def bench_table(variant, s):
    return zeta_limit_table(ModelParams(0.5, 0.0, dict(VARIANTS)[variant]), s, 1.0, ZETA_GRID,
                            variant)


def count_evaluations(monkeypatch) -> list:
    """Head of every ``zeta_variant_value`` call a limit table makes from now on."""
    heads = []
    value = zeta.zeta_variant_value

    def recording(params, s, tau, variant, n_head):
        heads.append(n_head)
        return value(params, s, tau, variant, n_head)

    monkeypatch.setattr(zeta, "zeta_variant_value", recording)
    return heads


class TestCutoffStart:
    @pytest.mark.parametrize("s", [2.0, 2.0 + 1.0j])
    @pytest.mark.parametrize("variant,eps", VARIANTS)
    def test_zeta_rows_certify_on_first_cutoff_pair(self, solves, variant, eps, s):
        # every row's head is bracketed from one solve at its start cutoff
        rows = zeta_limit_table(ModelParams(0.5, 0.0, eps), s, 1.0, ZETA_GRID, variant)
        # at eps = 0 a full-model cutoff is solved as two parity chains
        blocks = 2 if variant == "full" else 1
        assert len(solves) == blocks * len(rows)

    @pytest.mark.parametrize("variant,eps", [("parity", 0.0), ("asymmetric", 0.25)])
    def test_level_rows_certify_on_first_cutoff_pair(self, monkeypatch, solves, variant, eps):
        # each level-table spectrum takes at most one growth step
        trails = []
        spectrum = zeta.adaptive_spectrum

        def recording(*args, **kwargs):
            spec = spectrum(*args, **kwargs)
            trails.append(spec.refinement)
            return spec

        monkeypatch.setattr(zeta, "adaptive_spectrum", recording)
        eigenvalue_limit_table(ModelParams(0.5, 0.0, eps), LEVEL_GRID, 6, variant)
        spectra = 2 * len(LEVEL_GRID) if variant == "parity" else len(LEVEL_GRID)
        assert len(trails) == spectra and all(len(trail) <= 2 for trail in trails)
        assert len(solves) == sum(len(trail) for trail in trails)

    def test_short_start_grows_to_the_same_head(self, monkeypatch):
        p = ModelParams(0.5, 8.0)
        normal = adaptive_spectrum(p, 175, _HEAD_REL_TOL, "parity+")
        start = model.turning_point_cutoff
        monkeypatch.setattr(model, "turning_point_cutoff", lambda levels, g: start(levels, g) // 2)
        short = adaptive_spectrum(p, 175, _HEAD_REL_TOL, "parity+")
        assert short.refinement[0][0] == start(175, 8.0) // 2 and len(short.refinement) > 2
        w, w_normal = short.eigenvalues[:175], normal.eigenvalues[:175]
        assert np.max(np.abs(w - w_normal) / np.maximum(1.0, np.abs(w_normal))) <= 1e-9

    def test_head_refinement_recorded(self):
        spec = adaptive_spectrum(ModelParams(0.5, 12.0), 350, _HEAD_REL_TOL, "full")
        ((n_start, delta),) = spec.refinement
        assert n_start == spec.truncation.n_max == 754 and delta <= 1e-9


class TestHeadChooser:
    @pytest.mark.parametrize("s", [2.0, 2.0 + 1.0j])
    @pytest.mark.parametrize("variant,eps", VARIANTS)
    def test_smallest_head_meeting_tol(self, variant, eps, s):
        ladder = _ladder(ModelParams(0.5, 0.0, eps), variant)
        for tol in (1e-3, 3e-5):
            head = _head_for_tail_bound(complex(s), 1.0, ladder, 0.5, tol, 2000)
            assert 1 < head < 1000
            assert _tail_bound(complex(s), 1.0, head, ladder, 0.5) <= tol
            assert _tail_bound(complex(s), 1.0, head - 1, ladder, 0.5) > tol

    def test_bound_matches_spectral_zeta(self, free_spectrum):
        zv = spectral_zeta(free_spectrum, 2.0, 1.0, 0.0, radius=0.25, n_use=400)
        head = _head_bound(2.0 + 0j, free_spectrum.eigenvalues[:400] + 1.0,
                           free_spectrum.error_bound[:400])
        assert zv.tail_bound == _tail_bound(2.0 + 0j, 1.0, 400, (0.0, 0.0), 0.25) + head

    def test_zero_radius_and_cap(self):
        full = _ladder(ModelParams(0.0, 0.0), "full")
        assert _head_for_tail_bound(2.0 + 0j, 1.0, full, 0.0, 0.0, 2000) == 1
        sector = _ladder(ModelParams(0.5, 0.0), "parity-")
        assert _head_for_tail_bound(2.0 + 0j, 1.0, sector, 0.5, 1e-30, 1000) == 1000

    @pytest.mark.parametrize("variant,s", list(BENCH_TABLES))
    def test_predicted_deviation_at_large_g(self, variant, s):
        # the centroid shift -delta^2 / (4 g^2) predicts each row's deviation
        rows = bench_table(variant, s)
        eps = dict(VARIANTS)[variant]
        ladder = _ladder(ModelParams(0.5, 0.0, eps), variant)
        for r in rows[3:]:
            assert r.g in (8.0, 10.0, 12.0)
            predicted = _predicted_deviation(complex(s), 1.0, ladder, ModelParams(0.5, r.g, eps))
            assert abs(predicted - r.deviation) <= 0.01 * r.deviation

    def test_predicted_deviation_capped_by_weyl_bound(self):
        ladder = _ladder(ModelParams(1.5, 0.0), "parity+")
        weyl = _tail_bound(1.5 + 0j, 2.5, 0, ladder, 1.5)
        # at g = 0, and where the moved ladder reaches 0 (2.5 - 2.25 / (4 g^2) <= 0)
        for g in (0.0, 0.45):
            assert _predicted_deviation(1.5 + 0j, 2.5, ladder, ModelParams(1.5, g)) == weyl
        assert _predicted_deviation(1.5 + 0j, 2.5, ladder, ModelParams(1.5, 1.0)) < weyl


class TestLimitTables:
    @pytest.mark.parametrize("variant,eps", VARIANTS)
    def test_default_heads_certify_below_fixed_head(self, monkeypatch, variant, eps):
        # the benchmark's tables certify on their first evaluation, below the
        # heads of a 1e-5 |target| tail bound
        evaluations = count_evaluations(monkeypatch)
        tables = [(s, fixed) for (name, s), fixed in BENCH_TABLES.items() if name == variant]
        for s, fixed in tables:
            evaluations.clear()
            rows = bench_table(variant, s)
            assert len(evaluations) == len(rows)
            assert all(r.n_used <= fixed for r in rows)
            for a, b in zip(rows, rows[1:]):
                assert b.deviation + b.tail_bound < a.deviation - a.tail_bound

    def test_benchmark_tables_solve_cost(self, solves):
        # one solve per chain per row, 42 in all; 17 978 516 summed dim^2 with
        # every head sized to a tail bound of 1e-5 |target|, 5 601 388 from the
        # predicted gaps
        for variant, s in BENCH_TABLES:
            bench_table(variant, s)
        assert len(solves) == 42
        assert sum(dim**2 for dim, _ in solves) <= 9.0e6

    def test_fine_grid_refines_until_certified(self, monkeypatch):
        # at g = 1 the predicted gap overstates the computed one, so the
        # first heads leave the pair unseparated
        evaluations = count_evaluations(monkeypatch)
        rows = zeta_limit_table(ModelParams(0.5, 0.0), 2.0, 1.0, [1.0, 1.1], "parity+")
        assert len(evaluations) > len(rows)
        assert all(r.n_used <= 1000 for r in rows)
        a, b = rows
        assert b.deviation + b.tail_bound < a.deviation - a.tail_bound

    @pytest.mark.parametrize("grid", [[6.0, 6.0, 8.0], [8.0, 4.0, 2.0]])
    def test_pairs_not_predicted_to_decrease_are_not_refined(self, monkeypatch, grid):
        evaluations = count_evaluations(monkeypatch)
        rows = zeta_limit_table(ModelParams(0.5, 0.0), 2.0, 1.0, grid, "full")
        assert len(evaluations) == len(rows)

    def test_overlapping_pair_in_the_wrong_order_is_refined(self):
        # at g = 0 and 1 the first heads give deviations in the wrong order
        # whose intervals overlap; refining both separates them
        rows = zeta_limit_table(ModelParams(1.5, 0.0), 1.5, 2.5, [0.0, 1.0, 2.0, 4.0], "parity+")
        for a, b in zip(rows, rows[1:]):
            assert b.deviation + b.tail_bound < a.deviation - a.tail_bound

    def test_pair_that_truly_rises_is_refined_once(self, monkeypatch):
        # from g = 1.5 to 1.6 the deviation rises, 0.0453215 to 0.0453274;
        # refining at a quarter of the smaller tail bound took five rounds
        # and 12 evaluations to separate the pair in the wrong order
        evaluations = count_evaluations(monkeypatch)
        rows = zeta_limit_table(ModelParams(0.5, 0.0), 2.0, 1.0, [1.5, 1.6], "parity+")
        assert len(evaluations) < 12
        a, b = rows
        assert b.deviation > a.deviation
        assert not b.deviation + b.tail_bound < a.deviation - a.tail_bound

    def test_explicit_head_is_kept(self):
        rows = zeta_limit_table(ModelParams(0.5, 0.0), 2.0, 1.0, [6.0], "full", n_head=2000)
        zv = zeta_variant_value(ModelParams(0.5, 6.0), 2.0, 1.0, "full", 2000)
        assert rows[0].n_used == 2000
        assert rows[0].value == zv.value and rows[0].tail_bound == zv.tail_bound
        # pinned value of the 2000-level head at g = 6
        assert abs(rows[0].value - 3.298342475923421) < 1e-12

    def test_full_rows_and_slack_certified_monotone(self):
        rows = zeta_limit_table(ModelParams(0.5, 0.0), 2.0, 1.0, [2, 4, 6, 8], "full")
        assert [r.g for r in rows] == [2, 4, 6, 8]
        target = 2 * hurwitz_zeta(2, 1).value
        assert all(abs(r.target - target) < 1e-14 for r in rows)
        for a, b in zip(rows, rows[1:]):
            assert b.deviation + b.tail_bound < a.deviation - a.tail_bound

    def test_parity_target(self):
        rows = zeta_limit_table(ModelParams(0.5, 0.0), 2.0, 1.0, [4, 8], "parity+")
        assert rows[0].target == pytest.approx(hurwitz_zeta(2, 1).value.real)
        assert rows[1].deviation < rows[0].deviation

    def test_asymmetric_target_and_g0_row(self):
        p = ModelParams(0.4, 0.0, eps=0.3)
        target = variant_target(p, 2.0, 1.0, "asymmetric")
        assert target == pytest.approx(
            hurwitz_zeta(2, 1.3).value.real + hurwitz_zeta(2, 0.7).value.real
        )
        # at g = 0 the two-level splitting is sqrt(delta^2 + eps^2)
        zv = zeta_variant_value(p, 2.0, 1.0, "asymmetric", 2000)
        split = np.hypot(0.4, 0.3)
        closed = hurwitz_zeta(2, 1 + split).value + hurwitz_zeta(2, 1 - split).value
        assert abs(zv.value - closed) < 1e-8

    def test_asymmetric_g0_past_half_within_its_bound(self):
        # at g = 0 the levels are m -/+ hypot(delta, eps), within delta of m -/+ eps
        zv = zeta_variant_value(ModelParams(0.5, 0.0, 0.75), 2.0, 2.0, "asymmetric", 400)
        h = np.hypot(0.5, 0.75)
        closed = hurwitz_zeta(2, 2 + h).value + hurwitz_zeta(2, 2 - h).value
        assert abs(zv.value - closed) <= zv.tail_bound

    @pytest.mark.parametrize("eps", [0.75, 1.3])
    @pytest.mark.parametrize("g", [0.0, 1.0, 3.0, 6.0])
    def test_levels_within_delta_of_the_sorted_ladder(self, g, eps):
        # Weyl: delta sz moves each sorted level of the split oscillators by at most delta
        p = ModelParams(0.5, g, eps)
        spec = adaptive_spectrum(p, 40, 1e-10, "full")
        n = spec.converged_count
        points, _ = _ladder_points(_ladder(p, "asymmetric"), n)
        shifted = spec.eigenvalues[:n] + g**2
        assert np.all(np.abs(shifted - points) <= 0.5 + spec.error_bound[:n])

    def test_hypothesis_enforced(self):
        with pytest.raises(ParameterError):
            zeta_limit_table(ModelParams(1.5, 0.0), 2.0, 1.0, [2, 4], "full")

    def test_zeta_shift_hypothesis(self):
        _require_zeta_shift(ModelParams(0.5, 1.0), 1.0)
        for eps, tau in ((0.6, 1.0), (0.0, 0.0), (0.0, np.nan), (0.0, np.inf)):
            with pytest.raises(ParameterError):
                _require_zeta_shift(ModelParams(0.5, 1.0, eps), tau)
        # a single value needs only positive shifted levels, not the hypothesis
        value = zeta_variant_value(ModelParams(0.5, 1.0), 2.0, 0.4, "full", 20).value
        assert value.real == pytest.approx(24.508017883608876, rel=1e-12)

    def test_level_limits_halving(self):
        rows = eigenvalue_limit_table(ModelParams(0.5, 0.0), [4.0, 8.0], 4)
        dev = {(r.g, r.parity, r.n): r.deviation for r in rows}
        for par in (1, -1):
            for n in range(4):
                assert dev[(8.0, par, n)] < dev[(4.0, par, n)]

    def test_level_limits_delta0_exact(self):
        rows = eigenvalue_limit_table(ModelParams(0.0, 0.0), [2.0], 4)
        assert max(r.deviation for r in rows) < 1e-9

    def test_asymmetric_levels_split(self):
        rows = eigenvalue_limit_table(
            ModelParams(0.5, 0.0, eps=0.5), [6.0], 3, variant="asymmetric"
        )
        # strong coupling: pairs approach m -/+ eps
        assert max(r.deviation for r in rows) < 0.05
        targets = [r.target for r in rows]
        assert targets[:4] == [-0.5, 0.5, 0.5, 1.5]

    @pytest.mark.parametrize("eps", [0.75, 1.0])
    def test_asymmetric_levels_converge_past_half(self, eps):
        rows = eigenvalue_limit_table(ModelParams(0.5, 0.0, eps), [8, 12], 3, "asymmetric")
        m = np.arange(6.0)
        ladder = list(np.sort(np.concatenate([m - eps, m + eps]))[:6])
        at = {g: [r for r in rows if r.g == g] for g in (8.0, 12.0)}
        assert [r.target for r in at[8.0]] == [r.target for r in at[12.0]] == ladder
        assert max(r.deviation for r in at[8.0]) < 1e-3
        assert all(b.deviation < a.deviation for a, b in zip(at[8.0], at[12.0]))
