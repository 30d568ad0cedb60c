"""Collar geometry: closed forms against independent oracles and invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from collarflow import geometry
from collarflow.geometry import (
    ELL_MAX,
    CollarGrid,
    DomainError,
    conformal_factor,
    delta_thin_half_length,
    deformed_circle_radius_sq,
    dz2_l2_sq_truncated,
    dz2_norms,
    half_length,
    injectivity_radius,
    log_rho_slope,
)

# Frozen oracle values, computed once with 40-digit mpmath evaluation of
# the same closed forms (see oracle helpers at the bottom of this file).
X_ORACLE_01 = 95.55575953671334702855481816160792145378
X_ORACLE_005 = 194.2508225663087163349352029950648866277
X_ORACLE_02 = 46.21165228754732875246651005128036397398
XDELTA_ORACLE_01_01 = 65.84265105227064769418181143315570980307
RHO_ORACLE_02_MID = 0.04292737502207437234547982115119559852694
INJ_END_ORACLE_01 = 0.8822573783826734766013335290594097013365
L2SQ_ORACLE_01 = 9792111.30585052749297849200731329967483
X_BOUNDARY = math.pi**2 / (4.0 * math.asinh(1.0))


def ells():
    return st.floats(min_value=0.01, max_value=ELL_MAX - 1e-6)


def unit_interval():
    return st.floats(min_value=-0.999, max_value=0.999)


class TestHalfLength:
    def test_oracle_values(self):
        assert half_length(0.1) == pytest.approx(X_ORACLE_01, rel=1e-14)
        assert half_length(0.05) == pytest.approx(X_ORACLE_005, rel=1e-14)
        assert half_length(0.2) == pytest.approx(X_ORACLE_02, rel=1e-14)

    def test_boundary_value(self):
        # degenerate collar: X collapses to pi^2 / (4 arsinh 1)
        assert half_length(ELL_MAX) == pytest.approx(X_BOUNDARY, rel=1e-14)

    def test_monotone_decreasing_and_lower_bound(self):
        ls = np.linspace(0.01, ELL_MAX, 200)
        Xs = np.array([half_length(l) for l in ls])
        assert np.all(np.diff(Xs) < 0)
        assert np.all(Xs >= X_BOUNDARY - 1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            half_length(0.0)
        with pytest.raises(DomainError):
            half_length(-0.3)
        with pytest.raises(DomainError):
            half_length(ELL_MAX + 0.01)

    def test_mpmath_oracle_agrees_with_frozen_value(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        x = (2 * mp.pi / mp.mpf("0.1")) * (mp.pi / 2 - mp.atan(mp.sinh(mp.mpf("0.1") / 2)))
        assert abs(float(x) - X_ORACLE_01) < 1e-12


class TestDeltaThin:
    def test_oracle_value(self):
        assert delta_thin_half_length(0.1, 0.1) == pytest.approx(XDELTA_ORACLE_01_01, rel=1e-14)

    def test_empty_when_delta_small(self):
        assert delta_thin_half_length(0.1, 0.049) == 0.0
        assert delta_thin_half_length(0.1, 0.05) == 0.0  # arcsin(1): boundary collapses

    def test_bisection_cross_check(self):
        # X_delta is where the injectivity radius first reaches delta
        for ell, delta in [(0.1, 0.1), (0.05, 0.12), (0.2, 0.3), (0.4, 0.5)]:
            xd = delta_thin_half_length(ell, delta)
            X = half_length(ell)
            root = brentq(lambda s: injectivity_radius(ell, s) - delta, 0.0, X * (1 - 1e-12),
                          xtol=1e-13)
            assert xd == pytest.approx(root, abs=1e-8)

    def test_sandwich_bounds(self):
        # pi/delta - C <= X - X_delta <= pi^2/(2 delta) whenever ell <= 2 delta,
        # with a single fitted constant C across the sweep.
        pairs = [(ell, delta)
                 for ell in (0.02, 0.05, 0.1, 0.2, 0.4)
                 for delta in (0.05, 0.1, 0.2, 0.4, 0.8)
                 if ell <= 2 * delta]
        gaps = {(ell, delta): half_length(ell) - delta_thin_half_length(ell, delta)
                for ell, delta in pairs}
        C = max(math.pi / delta - gap for (ell, delta), gap in gaps.items())
        assert C < 4.0  # the defect is uniformly modest
        for (ell, delta), gap in gaps.items():
            assert gap >= math.pi / delta - C - 1e-12
            assert gap <= math.pi**2 / (2 * delta) + 1e-12

    def test_domain_error(self):
        with pytest.raises(DomainError):
            delta_thin_half_length(0.1, 0.0)
        with pytest.raises(DomainError):
            delta_thin_half_length(0.1, math.asinh(1.0) + 0.1)


class TestConformalFactor:
    def test_core_value(self):
        assert conformal_factor(0.3, 0.0) == pytest.approx(0.3 / (2 * math.pi), rel=1e-15)

    def test_oracle_midpoint(self):
        assert conformal_factor(0.2, half_length(0.2) / 2) == pytest.approx(
            RHO_ORACLE_02_MID, rel=1e-14)

    def test_end_value_range(self):
        # rho at the collar ends: ell/(2 pi tanh(ell/2)), trapped in
        # (1/pi, sqrt(2) arsinh(1)/pi)
        for ell in np.linspace(0.01, ELL_MAX - 1e-9, 50):
            end = ell / (2 * math.pi * math.tanh(ell / 2))
            assert 1 / math.pi < end < math.sqrt(2) * math.asinh(1.0) / math.pi + 1e-12

    def test_outside_domain(self):
        with pytest.raises(DomainError):
            conformal_factor(0.1, half_length(0.1))

    @settings(max_examples=150, deadline=None)
    @given(ell=ells(), t=unit_interval())
    def test_sinh_identity_and_comparisons(self, ell, t):
        X = half_length(ell)
        s = t * X
        rho = conformal_factor(ell, s)
        inj = injectivity_radius(ell, s)
        # defining identity: sinh(inj) cos(ell s / 2 pi) = sinh(ell/2)
        lhs = math.sinh(inj) * math.cos(ell * s / (2 * math.pi))
        assert lhs == pytest.approx(math.sinh(ell / 2), rel=1e-12)
        # rho and inj control each other: rho <= inj <= pi rho
        assert rho <= inj * (1 + 1e-12)
        assert inj <= math.pi * rho * (1 + 1e-12)
        # coordinate-free form of rho
        assert rho == pytest.approx(
            ell / (2 * math.pi * math.sinh(ell / 2)) * math.sinh(inj), rel=1e-12)


class TestInjectivityRadius:
    def test_core_and_end(self):
        assert injectivity_radius(0.1, 0.0) == pytest.approx(0.05, rel=1e-13)
        end = injectivity_radius(0.1, half_length(0.1))
        assert end == pytest.approx(INJ_END_ORACLE_01, rel=1e-13)
        assert end == pytest.approx(math.asinh(math.cosh(0.05)), rel=1e-14)

    def test_even_and_increasing(self):
        s = np.linspace(0, half_length(0.3) * 0.999, 100)
        vals = np.array([injectivity_radius(0.3, x) for x in s])
        assert np.all(np.diff(vals) > 0)
        assert injectivity_radius(0.3, -1.0) == pytest.approx(injectivity_radius(0.3, 1.0))


class TestLogRhoSlope:
    def test_zero_at_core(self):
        assert log_rho_slope(0.5, 0.0) == 0.0

    def test_finite_difference(self):
        ell, s = 0.3, 5.0
        h = 1e-6
        fd = (math.log(conformal_factor(ell, s + h)) -
              math.log(conformal_factor(ell, s - h))) / (2 * h)
        assert log_rho_slope(ell, s) == pytest.approx(fd, rel=1e-6)

    @settings(max_examples=150, deadline=None)
    @given(ell=ells(), t=unit_interval())
    def test_bounds(self, ell, t):
        s = t * half_length(ell)
        slope = abs(log_rho_slope(ell, s))
        rho = conformal_factor(ell, s)
        cap = ell / (2 * math.pi * math.sinh(ell / 2))
        assert slope <= min(rho, cap) * (1 + 1e-12)
        assert slope <= 1 / math.pi + 1e-12

    def test_rho_equivalence_on_windows(self):
        # within distance Lambda of s0, rho varies from rho(s0) by at most e^{Lambda/pi}
        rng = np.random.default_rng(7)
        for _ in range(50):
            ell = rng.uniform(0.02, 1.5)
            X = half_length(ell)
            Lam = rng.uniform(0.1, min(4.0, X / 2))
            s0 = rng.uniform(-(X - Lam) * 0.999, (X - Lam) * 0.999)
            ss = np.linspace(s0 - Lam, s0 + Lam, 101)
            vals = geometry._rho(ell, ss)
            r0 = conformal_factor(ell, s0)
            cap = math.exp(Lam / math.pi)
            assert vals.max() / r0 <= cap * (1 + 1e-10)
            assert r0 / vals.min() <= cap * (1 + 1e-10)


class TestCollarPoint:
    @pytest.mark.parametrize("fn", [conformal_factor, injectivity_radius, log_rho_slope])
    @pytest.mark.parametrize("where", [1.01, -1.01, math.nan])
    def test_point_outside_collar_rejected(self, fn, where):
        with pytest.raises(DomainError, match="not inside the collar"):
            fn(0.2, where * half_length(0.2))

    def test_only_injectivity_radius_accepts_the_collar_end(self):
        X = half_length(0.2)
        for fn in (conformal_factor, log_rho_slope):
            with pytest.raises(DomainError, match="not inside the collar"):
                fn(0.2, X)
        assert injectivity_radius(0.2, -X) == injectivity_radius(0.2, X)
        assert injectivity_radius(0.2, X) == pytest.approx(math.asinh(math.cosh(0.1)),
                                                           rel=1e-14)


class TestDz2Norms:
    def test_l1_linf_closed_forms(self):
        n = dz2_norms(0.1)
        assert n.l1 == pytest.approx(8 * math.pi * X_ORACLE_01, rel=1e-14)
        assert n.linf == pytest.approx(8 * math.pi**2 / 0.01, rel=1e-14)

    def test_l2_sq_oracle(self):
        assert dz2_norms(0.1).l2_sq == pytest.approx(L2SQ_ORACLE_01, rel=1e-13)

    def test_l2_sq_antiderivative_consistency(self):
        # the cancellation-free form used by dz2_norms must match the raw
        # antiderivative evaluated over the full collar
        for ell in (0.05, 0.1, 0.2, 0.8, 1.5):
            full = dz2_l2_sq_truncated(ell, half_length(ell))
            assert dz2_norms(ell).l2_sq == pytest.approx(full, rel=1e-11)

    def test_series_residual_scaling(self):
        # l2_sq = 32 pi^5/ell^3 - 16 pi^4/3 + O(ell^2)
        resid = {}
        for ell in (0.05, 0.1, 0.2):
            series = 32 * math.pi**5 / ell**3 - 16 * math.pi**4 / 3
            resid[ell] = dz2_norms(ell).l2_sq - series
        ratios = [resid[l] / l**2 for l in resid]
        assert all(60 < r < 120 for r in ratios)

    def test_grid_quadrature_matches(self):
        ell = 0.2
        grid = CollarGrid(ell, n_s=20000, n_theta=8)
        ones = np.ones((grid.n_s, grid.n_theta))
        dz2_abs = 2.0 * grid.rho_inv_sq[:, None] * ones
        l1_quad = grid.integrate_hyperbolic(dz2_abs)
        l2_quad = grid.integrate_hyperbolic(dz2_abs**2)
        n = dz2_norms(ell)
        assert l1_quad == pytest.approx(n.l1, rel=1e-12)
        assert l2_quad == pytest.approx(n.l2_sq, rel=1e-8)


class TestDeformedCircle:
    def test_linear_response(self):
        # (L/2pi)^2 responds to the deformation g + eps Re(b0 dz^2) with
        # slope exactly -Re(b0); Im(b0) does not enter the circle length
        ell, s0, b0 = 0.25, 3.0, 0.7 - 0.4j
        rho2 = conformal_factor(ell, s0) ** 2
        for eps in (1e-3, 1e-4):
            r2 = deformed_circle_radius_sq(ell, s0, b0, eps)
            assert (r2 - rho2) / eps == pytest.approx(-b0.real, rel=1e-9)


class TestCollarGrid:
    def test_weights_sum_to_area(self):
        grid = CollarGrid(0.3, n_s=37, n_theta=12)
        area = grid.s_weights.sum() * grid.n_theta * grid.theta_weight
        assert area == pytest.approx(4 * math.pi * grid.s_max, rel=1e-12)

    def test_nodes_strictly_inside(self):
        grid = CollarGrid(0.1, n_s=64, n_theta=8)  # s_max defaults to X
        assert np.all(np.abs(grid.s_nodes) < grid.s_max)
        assert np.isfinite(grid.rho).all()

    def test_truncated_grid(self):
        grid = CollarGrid(0.1, n_s=16, n_theta=8, s_max=2.0)
        assert grid.s_max == 2.0
        assert grid.s_max < half_length(grid.ell)
        with pytest.raises(DomainError):
            CollarGrid(0.1, n_s=16, n_theta=8, s_max=half_length(0.1) + 1.0)

    def test_params_require_open_interval(self):
        with pytest.raises(DomainError):
            CollarGrid(ELL_MAX, 4, 4)
        CollarGrid(ELL_MAX - 1e-9, 4, 4)

    def test_quadrature_convergence_order(self):
        # midpoint rule: second order on smooth non-periodic s-profiles
        ell = 0.4
        exact = dz2_l2_sq_truncated(ell, 5.0)
        errs = []
        for n_s in (100, 200, 400):
            grid = CollarGrid(ell, n_s=n_s, n_theta=4, s_max=5.0)
            f = 4.0 * grid.rho_inv_sq[:, None] * np.ones((grid.n_s, grid.n_theta))
            errs.append(abs(grid.integrate_flat(f) - exact))
        order1 = math.log2(errs[0] / errs[1])
        order2 = math.log2(errs[1] / errs[2])
        assert order1 > 1.8 and order2 > 1.8


class TestGridRefresh:
    ARRAYS = ("s_nodes", "s_weights", "theta_nodes", "rho", "rho_sq", "rho_inv_sq",
              "pairing_weights")
    LAYOUT = ("s_nodes", "s_weights", "theta_nodes")

    @pytest.mark.parametrize("s_max", [None, 3.0])
    @pytest.mark.parametrize("ell", [0.05, 0.1, 0.3, 0.4])
    def test_at_equals_a_fresh_grid_bitwise(self, ell, s_max):
        g = CollarGrid(0.4 if s_max is None else 0.6, 48, 12, s_max=s_max)
        fresh = CollarGrid(ell, 48, 12, s_max=g.s_max)
        h = g.at(ell)
        assert (h.ell, h.n_s, h.n_theta, h.s_max, h.theta_weight, h.h_s) == \
            (fresh.ell, fresh.n_s, fresh.n_theta, fresh.s_max, fresh.theta_weight,
             fresh.h_s)
        for name in self.ARRAYS:
            np.testing.assert_array_equal(getattr(h, name), getattr(fresh, name))

    def test_layout_shared_and_read_only(self):
        g = CollarGrid(0.4, 24, 8)
        h = g.at(0.1)
        assert h is not g and g.ell == 0.4 and h.ell == 0.1
        for name in self.LAYOUT:
            arr = getattr(h, name)
            assert arr is getattr(g, name)
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0
        assert h.rho is not g.rho

    def test_pairing_weights_are_the_weighted_cells(self):
        g = CollarGrid(0.2, 40, 8, s_max=4.0)
        np.testing.assert_array_equal(g.pairing_weights, g.s_weights * g.rho_inv_sq)

    @pytest.mark.parametrize("ell", [0.0, -0.1, ELL_MAX, 1.0 + ELL_MAX, math.nan, math.inf])
    def test_at_rejects_length_with_constructor_message(self, ell):
        g = CollarGrid(0.4, 16, 8, s_max=2.0)
        with pytest.raises(DomainError) as built:
            CollarGrid(ell, 16, 8, s_max=2.0)
        with pytest.raises(DomainError) as refreshed:
            g.at(ell)
        assert str(refreshed.value) == str(built.value)

    def test_at_rejects_window_beyond_collar_with_constructor_message(self):
        g = CollarGrid(0.1, 16, 8)  # s_max = X(0.1) > X(0.4)
        with pytest.raises(DomainError, match="s_max") as built:
            CollarGrid(0.4, 16, 8, s_max=g.s_max)
        with pytest.raises(DomainError) as refreshed:
            g.at(0.4)
        assert str(refreshed.value) == str(built.value)
        assert g.at(0.05).s_max == g.s_max  # a shorter core has a longer collar


class TestFaultInjection:
    def test_fault_hits_scalar_api_not_grids(self, monkeypatch):
        base = conformal_factor(0.2, 1.0)
        grid_before = CollarGrid(0.2, n_s=16, n_theta=8).rho.copy()
        monkeypatch.setattr(geometry, "conformal_factor",
                            lambda ell, s: conformal_factor(ell, s) * (1.0 + 1e-3))
        assert geometry.conformal_factor(0.2, 1.0) == pytest.approx(base * 1.001, rel=1e-12)
        grid_after = CollarGrid(0.2, n_s=16, n_theta=8).rho
        assert np.array_equal(grid_before, grid_after)
