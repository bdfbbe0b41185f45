"""Hurwitz evaluation against an independent oracle; spectral zeta identities."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rabizeta.model as model
from rabizeta.errors import ConvergenceError, DomainError, ParameterError
from rabizeta.model import ModelParams, Spectrum, adaptive_spectrum
from rabizeta.zeta import (
    LIMIT_TAIL_REL_TOL,
    _head_for_tail_bound,
    _stable_spectrum,
    _tail_bound,
    _tail_model,
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
        # delta = 0: the value is exactly twice the Hurwitz target, zero bound
        zv = zeta_variant_value(ModelParams(0.0, 2.0), 2.0, 1.0, "full", 1500)
        assert abs(zv.value - 2 * hurwitz_zeta(2, 1).value) < 1e-10
        assert zv.tail_bound == 0.0

    def test_free_splitting_identity(self, free_spectrum):
        zv = spectral_zeta(free_spectrum, 2.0, 1.0, 0.0, radius=0.25, degeneracy=2)
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
        tiny = Spectrum(np.array([0.5]), converged_count=1)
        with pytest.raises(ConvergenceError):
            spectral_zeta(tiny, 2.0, 1.0, 0.0, radius=0.5)

    def test_doubly_degenerate_integer_ladder(self):
        # the uncoupled reference spectrum {0,0,1,1,...} gives 2 zeta(s;tau)
        ladder = Spectrum(np.repeat(np.arange(300, dtype=float), 2), converged_count=600)
        for s, tau in ((2.0, 1.0), (3.0, 0.5)):
            zv = spectral_zeta(ladder, s, tau, 0.0, radius=0.0)
            assert abs(zv.value - 2 * hurwitz_zeta(s, tau).value) <= max(zv.tail_bound, 1e-12)


VARIANTS = (("full", 0.0), ("parity+", 0.0), ("parity-", 0.0), ("asymmetric", 0.25))


def first_head(params, s, variant):
    """Head a default limit table starts from, at tau = 1."""
    tol = LIMIT_TAIL_REL_TOL * abs(variant_target(params, s, 1.0, variant))
    return _head_for_tail_bound(complex(s), 1.0, _tail_model(params, variant), tol, 2000)


def count_solves(monkeypatch) -> list:
    """Dimensions of every eigensolve the model runs from now on."""
    dims = []
    solve = model.eigensolve

    def counting(mat, *args, **kwargs):
        dims.append(mat.dim)
        return solve(mat, *args, **kwargs)

    monkeypatch.setattr(model, "eigensolve", counting)
    return dims


# The benchmark's grids: zeta-limit rows at g = 2..12, level rows at g = 4, 8, 12.
ZETA_GRID = [2.0, 4.0, 6.0, 8.0, 10.0, 12.0]
LEVEL_GRID = [4.0, 8.0, 12.0]


class TestCutoffStart:
    @pytest.mark.parametrize("s", [2.0, 2.0 + 1.0j])
    @pytest.mark.parametrize("variant,eps", VARIANTS)
    def test_zeta_rows_certify_on_first_cutoff_pair(self, monkeypatch, variant, eps, s):
        dims = count_solves(monkeypatch)
        rows = zeta_limit_table(ModelParams(0.5, 0.0, eps), s, 1.0, ZETA_GRID, variant)
        # at eps = 0 a full-model cutoff is solved as two parity chains
        blocks = 2 if variant == "full" else 1
        assert len(dims) == 2 * blocks * len(rows)

    @pytest.mark.parametrize("variant,eps", [("parity", 0.0), ("asymmetric", 0.25)])
    def test_level_rows_certify_on_first_cutoff_pair(self, monkeypatch, variant, eps):
        dims = count_solves(monkeypatch)
        eigenvalue_limit_table(ModelParams(0.5, 0.0, eps), LEVEL_GRID, 6, variant)
        spectra = 2 * len(LEVEL_GRID) if variant == "parity" else len(LEVEL_GRID)
        assert len(dims) == 2 * spectra

    def test_short_start_grows_to_the_same_head(self, monkeypatch):
        p = ModelParams(0.5, 8.0)
        normal = _stable_spectrum(p, "parity+", 175)
        start = model.turning_point_cutoff
        monkeypatch.setattr(model, "turning_point_cutoff", lambda levels, g: start(levels, g) // 2)
        short = _stable_spectrum(p, "parity+", 175)
        assert short.refinement[0][0] == start(175, 8.0) // 2 and len(short.refinement) > 2
        w, w_normal = short.eigenvalues[:175], normal.eigenvalues[:175]
        assert np.max(np.abs(w - w_normal) / np.maximum(1.0, np.abs(w_normal))) <= 1e-9

    def test_head_refinement_recorded(self):
        spec = _stable_spectrum(ModelParams(0.5, 12.0), "full", 350)
        (n_start, _), (n_check, delta) = spec.refinement
        assert (n_start, n_check) == (754, int(np.ceil(1.3 * 754)))
        assert spec.truncation.n_max == n_check and delta <= 1e-9


class TestHeadChooser:
    @pytest.mark.parametrize("s", [2.0, 2.0 + 1.0j])
    @pytest.mark.parametrize("variant,eps", VARIANTS)
    def test_smallest_head_meeting_tol(self, variant, eps, s):
        p = ModelParams(0.5, 0.0, eps)
        _, degeneracy, split, radius = _tail_model(p, variant)
        tol = LIMIT_TAIL_REL_TOL * abs(variant_target(p, s, 1.0, variant))
        head = first_head(p, s, variant)
        assert head % degeneracy == 0 and degeneracy < head < 1000
        m0 = head // degeneracy
        assert _tail_bound(complex(s), 1.0, m0, degeneracy, split, radius) <= tol
        assert _tail_bound(complex(s), 1.0, m0 - 1, degeneracy, split, radius) > tol

    def test_bound_matches_spectral_zeta(self, free_spectrum):
        zv = spectral_zeta(free_spectrum, 2.0, 1.0, 0.0, radius=0.25, n_use=400)
        assert zv.tail_bound == _tail_bound(2.0 + 0j, 1.0, 200, 2, 0.0, 0.25)

    def test_zero_radius_and_cap(self):
        exact = _tail_model(ModelParams(0.0, 0.0), "full")
        assert _head_for_tail_bound(2.0 + 0j, 1.0, exact, 0.0, 2000) == 2
        model = _tail_model(ModelParams(0.5, 0.0), "parity-")
        assert _head_for_tail_bound(2.0 + 0j, 1.0, model, 1e-30, 1000) == 1000


class TestLimitTables:
    @pytest.mark.parametrize("variant,eps", VARIANTS)
    def test_default_heads_certify_below_fixed_head(self, variant, eps):
        p = ModelParams(0.5, 0.0, eps)
        rows = zeta_limit_table(p, 2.0, 1.0, [2, 4, 6, 8, 10, 12], variant)
        fixed = 1000 if variant.startswith("parity") else 2000
        assert all(r.n_used == first_head(p, 2.0, variant) < fixed for r in rows)
        for a, b in zip(rows, rows[1:]):
            assert b.deviation + b.tail_bound < a.deviation - a.tail_bound

    def test_fine_grid_refines_until_certified(self):
        p = ModelParams(0.5, 0.0)
        rows = zeta_limit_table(p, 2.0, 1.0, [11.9, 12.0], "full")
        assert all(first_head(p, 2.0, "full") < r.n_used <= 2000 for r in rows)
        a, b = rows
        assert b.deviation + b.tail_bound < a.deviation - a.tail_bound

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

    def test_hypothesis_enforced(self):
        with pytest.raises(ParameterError):
            zeta_limit_table(ModelParams(1.5, 0.0), 2.0, 1.0, [2, 4], "full")

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
