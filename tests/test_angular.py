"""Tests for the delayed comparison operator and the angular energy audit."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from collarflow.geometry import CollarGrid, DomainError
from collarflow.fields import (MapField, TargetSpec, sample_map, theta_profile,
                               window_integrals)
from collarflow.angular import (
    CONSTANT_MODE_RATE,
    DEFAULT_C1,
    EXP_MODE_RATE,
    ProfileFn,
    _candidate_block,
    _premises,
    angular_bound_audit,
    comparison_check,
    comparison_pairs,
    default_comparison_grid,
    delay_operator,
    kernel_residual,
    kernel_solution,
    random_comparison_pair,
)

# cosh(1/2)/4 - 1/2 to 30 digits (independent high-precision evaluation)
EXP_MODE_RATE_ORACLE = -0.218093508698404803693443709649


def profile_grid(half: float = 3.0, step: float = 0.125) -> np.ndarray:
    n = round(half / step)
    return step * np.arange(-n, n + 1)


class TestProfileFn:
    def test_step_must_divide_delay(self):
        s = 0.3 * np.arange(-10, 11)
        with pytest.raises(DomainError):
            ProfileFn(s, np.zeros_like(s))

    def test_nonuniform_rejected(self):
        s = np.concatenate([np.arange(5) * 0.25, [1.3]])
        with pytest.raises(DomainError):
            ProfileFn(s, np.zeros_like(s))

    @pytest.mark.parametrize("rel, accepted", [(2e-9, False), (5e-10, True)])
    def test_uniform_step_tolerance_threshold(self, rel, accepted):
        # one middle step off by rel relative to h = 0.25; the first
        # step, which fixes h and the delay count, is untouched
        s = 0.25 * np.arange(-12, 13)
        s[13:] += rel * 0.25
        if accepted:
            assert ProfileFn(s, np.zeros_like(s)).delay_steps == 2
        else:
            with pytest.raises(DomainError):
                ProfileFn(s, np.zeros_like(s))

    def test_too_short_for_stencil_rejected(self):
        s = 0.25 * np.arange(5)
        with pytest.raises(DomainError):
            ProfileFn(s, np.zeros_like(s))

    def test_interior_slice_excludes_delay_bands(self):
        s = profile_grid(2.0, 0.25)
        f = ProfileFn(s, np.zeros_like(s))
        inner = f.interior()
        assert s[inner][0] == pytest.approx(s[0] + 0.5 + 0.25)
        assert s[inner][-1] == pytest.approx(s[-1] - 0.5 - 0.25)


class TestDelayOperator:
    def test_constant_mode_rate_exact(self):
        s = profile_grid()
        c = 0.73
        vals = delay_operator(ProfileFn(s, np.full_like(s, c)))
        np.testing.assert_allclose(vals, CONSTANT_MODE_RATE * c, rtol=1e-13)

    def test_exponential_mode_rate_matches_oracle(self):
        assert EXP_MODE_RATE == pytest.approx(EXP_MODE_RATE_ORACLE, abs=1e-15)
        rates = []
        for step in (0.05, 0.025):
            s = profile_grid(3.0, step)
            f = ProfileFn(s, np.exp(s))
            ratio = delay_operator(f) / np.exp(s[f.interior()])
            rates.append(ratio)
            np.testing.assert_allclose(ratio, EXP_MODE_RATE, atol=3e-4)
        err = [np.max(np.abs(r - EXP_MODE_RATE)) for r in rates]
        assert math.log2(err[0] / err[1]) > 1.8  # second-order stencil

    def test_reflection_symmetry(self):
        s = profile_grid()
        rng = np.random.default_rng(0)
        vals = rng.normal(size=s.size)
        forward = delay_operator(ProfileFn(s, vals))
        backward = delay_operator(ProfileFn(s, vals[::-1].copy()))
        np.testing.assert_allclose(forward, backward[::-1], rtol=1e-12, atol=1e-14)


class TestComparisonPrinciple:
    def test_explicit_supersolution_pair(self):
        s = profile_grid()
        lower = ProfileFn(s, -np.cos(0.4 * s))
        upper = ProfileFn(s, np.cosh(0.5 * s) / math.cosh(0.5 * s[-1]) + 0.5)
        rep = comparison_check(lower, upper)
        assert rep.premise_operator and rep.premise_boundary
        assert rep.conclusion and rep.min_gap >= 0.0

    def test_violated_boundary_premise_is_flagged(self):
        s = profile_grid()
        lower = ProfileFn(s, np.zeros_like(s))
        # negative at the bands, operator premise still fine
        upper = ProfileFn(s, np.full_like(s, -1.0))
        rep = comparison_check(lower, upper)
        assert rep.premise_boundary is False
        assert rep.conclusion is False

    def test_violated_operator_premise_is_flagged(self):
        s = profile_grid()
        lower = ProfileFn(s, np.full_like(s, 1.0))
        upper = ProfileFn(s, np.zeros_like(s))
        # d = -1: L(d) = 5/4 > 0 and the bands are negative
        rep = comparison_check(lower, upper)
        assert rep.premise_operator is False
        assert rep.max_operator_violation == pytest.approx(1.25, rel=1e-12)

    def test_mismatched_grids_rejected(self):
        a = ProfileFn(profile_grid(3.0, 0.25), np.zeros(25))
        b = ProfileFn(profile_grid(2.0, 0.25), np.zeros(17))
        with pytest.raises(DomainError):
            comparison_check(a, b)

    def test_ten_thousand_sampled_pairs_all_conclude(self):
        # Every accepted pair satisfies the premises in exact discrete
        # arithmetic, so the minimum principle has no escape: the
        # conclusion must hold every single time, up to the roundoff
        # floor of the premise evaluation itself.
        rng = np.random.default_rng(20240817)
        s = default_comparison_grid()
        worst = math.inf
        for _ in range(10_000):
            lower, upper = random_comparison_pair(rng, s)
            rep = comparison_check(lower, upper)
            assert rep.premise_operator and rep.premise_boundary
            scale = float(np.max(np.abs(upper.values)) +
                          np.max(np.abs(lower.values)))
            assert rep.min_gap >= -1e-13 * scale
            worst = min(worst, rep.min_gap)
        assert worst > -math.inf


class TestComparisonPairs:
    def test_block_mask_matches_comparison_check(self):
        s = default_comparison_grid()
        f = ProfileFn(s, np.zeros_like(s))
        lower, upper = _candidate_block(np.random.default_rng(3), s,
                                        f.delay_steps, 64)
        _, op_ok, bd_ok = _premises(upper - lower, f.h, f.delay_steps)
        accepted = op_ok & bd_ok
        assert accepted.any() and not accepted.all()
        for i in range(lower.shape[0]):
            rep = comparison_check(ProfileFn(s, lower[i]), ProfileFn(s, upper[i]))
            assert rep.premise_operator == op_ok[i]
            assert rep.premise_boundary == bd_ok[i]

    def test_seeded_calls_repeat(self):
        a, na = comparison_pairs(np.random.default_rng(11), 40)
        b, nb = comparison_pairs(np.random.default_rng(11), 40)
        assert na == nb
        for (la, ua), (lb, ub) in zip(a, b, strict=True):
            assert np.array_equal(la.values, lb.values)
            assert np.array_equal(ua.values, ub.values)

    @pytest.mark.parametrize("n_pairs", [1, 7, 300])
    def test_exact_count_and_candidates(self, n_pairs):
        pairs, n_candidates = comparison_pairs(np.random.default_rng(5), n_pairs)
        assert len(pairs) == n_pairs
        assert n_candidates >= n_pairs
        for lower, upper in pairs:
            rep = comparison_check(lower, upper)
            assert rep.premise_operator and rep.premise_boundary

    def test_exhausted_tries_raise(self):
        # max_tries = 0 leaves no candidate to draw
        with pytest.raises(RuntimeError):
            comparison_pairs(np.random.default_rng(0), 3, max_tries=0)
        # a single try per pair cannot supply 50 pairs at ~20 % acceptance
        with pytest.raises(RuntimeError):
            comparison_pairs(np.random.default_rng(0), 50, max_tries=1)

    def test_single_pair_wrapper_matches_block_sampler(self):
        s = default_comparison_grid(2.0, 0.125)
        lower, upper = random_comparison_pair(np.random.default_rng(8), s)
        (lb, ub), = comparison_pairs(np.random.default_rng(8), 1, s)[0]
        assert np.array_equal(lower.s, lb.s)
        assert np.array_equal(lower.values, lb.values)
        assert np.array_equal(upper.values, ub.values)


class TestKernel:
    def c1(self):
        return 12.0

    def test_supersolution_property(self):
        rng = np.random.default_rng(14)
        s = profile_grid(3.0, 0.0625)
        for _ in range(20):
            g = np.abs(np.cos(rng.uniform(0.5, 2.0) * s + rng.normal())) \
                * np.exp(-0.3 * s**2)
            a, b = rng.uniform(0, 2, size=2)
            f = kernel_solution(s, g, self.c1(), a=a, b=b)
            Lf = delay_operator(f)
            slack = 1e-8 * (1.0 + float(np.max(f.values)))
            assert np.all(Lf <= -self.c1() * g[f.interior()] + slack)

    def test_zero_forcing_pure_modes(self):
        s = profile_grid()
        f = kernel_solution(s, np.zeros_like(s), self.c1(), a=1.0, b=2.0)
        expected = np.exp(s - s[-1]) + 2.0 * np.exp(-s - s[-1])
        np.testing.assert_allclose(f.values, expected, rtol=1e-12)

    def test_negative_ingredients_rejected(self):
        s = profile_grid()
        with pytest.raises(DomainError):
            kernel_solution(s, np.ones_like(s), self.c1(), a=-1.0)
        with pytest.raises(DomainError):
            kernel_solution(s, -np.ones_like(s), self.c1())

    def test_residual_second_order(self):
        errs = []
        for step in (0.05, 0.025):
            s = profile_grid(3.0, step)
            g = np.exp(-s**2) * (1.0 + 0.3 * np.sin(s))
            f = kernel_solution(s, g, self.c1(), a=0.7, b=0.4)
            r = kernel_residual(f, g, self.c1())
            errs.append(float(np.max(np.abs(r))))
        assert math.log2(errs[0] / errs[1]) > 1.9

    def test_residual_scale_is_small(self):
        s = profile_grid(3.0, 0.025)
        g = np.exp(-s**2)
        f = kernel_solution(s, g, self.c1())
        r = kernel_residual(f, g, self.c1())
        assert np.max(np.abs(r)) < 1e-3 * self.c1() * np.max(g)

    def test_convolution_matches_direct_sum(self):
        # the trapezoid sum (c1/2) sum_j e^{-|s_i - s_j|} w_j g_j, one row at a time
        s = profile_grid(3.0, 0.0625)
        g = np.exp(-s**2) * (1.0 + 0.3 * np.sin(3.0 * s)) ** 2
        w = np.full(s.size, s[1] - s[0])
        w[0] = w[-1] = 0.5 * w[0]
        direct = [0.5 * self.c1() * np.sum(np.exp(-np.abs(si - s)) * w * g) for si in s]
        f = kernel_solution(s, g, self.c1())
        np.testing.assert_allclose(f.values, direct, rtol=1e-14)

    def test_memory_linear_in_station_count(self):
        # a (k, k) kernel at k = 2001 would be 32 MB per temporary
        s = profile_grid(50.0, 0.05)
        assert s.size == 2001
        g = np.exp(-0.01 * s**2)
        tracemalloc.start()
        try:
            kernel_solution(s, g, self.c1(), a=1.0, b=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_window_memory_bounded_in_station_count(self):
        # one (k, n_s) window at k = 8001, n_s = 1000 would be 64 MB per temporary
        grid = CollarGrid(0.1, 1000, 8, s_max=30.0)
        s0 = np.linspace(-29.0, 29.0, 8001)
        dens = np.random.default_rng(0).random((1000, 8))
        tracemalloc.start()
        try:
            window_integrals(grid, s0, dens, dens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16_000_000

    def test_window_blocks_do_not_change_any_station(self):
        # stations shifted across block boundaries give the same bits
        grid = CollarGrid(0.1, 300, 8, s_max=20.0)
        s0 = np.linspace(-19.0, 19.0, 601)
        dens = np.random.default_rng(1).random((300, 8))
        full = window_integrals(grid, s0, dens)[0]
        for lo in (1, 100, 255, 257):
            np.testing.assert_array_equal(window_integrals(grid, s0[lo:], dens)[0],
                                          full[lo:])
        singles = [window_integrals(grid, s0[[i]], dens)[0][0] for i in (0, 255, 256, 600)]
        np.testing.assert_array_equal(singles, full[[0, 255, 256, 600]])


class TestAngularAudit:
    def near_harmonic_map(self, ell=0.2, s_max=6.0, n_s=1200, n_theta=32,
                          alpha=0.5):
        grid = CollarGrid(ell, n_s, n_theta, s_max=s_max)
        torus = TargetSpec.flat_torus(dim=1)
        return sample_map(grid, torus, lambda s, t: np.stack(
            [alpha * (np.exp(s - s_max) + np.exp(-s - s_max)) * np.sin(t)],
            axis=-1))

    def test_near_harmonic_field_satisfies_bound(self):
        u = self.near_harmonic_map()
        rep = angular_bound_audit(u)
        assert not rep.vacuous
        assert rep.satisfied
        assert rep.fitted_c1 < 100.0
        assert rep.margin() > 0.0

    def test_angular_energy_decays_at_twice_the_mode_rate(self):
        u = self.near_harmonic_map()
        rep = angular_bound_audit(u)
        sel = (rep.s0 >= 1.5) & (rep.s0 <= 4.0)
        slope = np.polyfit(rep.s0[sel], np.log(rep.theta[sel]), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.2)

    def test_bound_endpoints_carry_energy_coefficient(self):
        u = self.near_harmonic_map()
        from collarflow.fields import energies
        E0 = energies(u).E
        rep = angular_bound_audit(u)
        assert rep.bound.values[-1] == pytest.approx(
            2.0 * math.e * E0, rel=0.02)

    def test_forced_field_audit(self):
        # strong non-harmonic content: tension forcing carries the bound
        grid = CollarGrid(0.2, 1000, 16, s_max=5.0)
        torus = TargetSpec.flat_torus(dim=2)
        u = sample_map(grid, torus, lambda s, t: 0.4 * np.stack(
            [np.exp(-0.5 * s**2) * np.sin(t),
             np.exp(-0.5 * (s - 1.0) ** 2) * np.cos(2 * t)], axis=-1))
        rep = angular_bound_audit(u)
        assert not rep.vacuous
        assert rep.satisfied
        assert np.all(rep.forcing >= 0.0)

    def test_short_window_is_vacuous(self):
        grid = CollarGrid(0.2, 200, 8, s_max=1.4)
        torus = TargetSpec.flat_torus(dim=1)
        u = sample_map(grid, torus, lambda s, t: np.stack(
            [0.1 * np.sin(t) * np.ones_like(s)], axis=-1))
        rep = angular_bound_audit(u)
        assert rep.vacuous
        assert rep.satisfied

    @pytest.mark.parametrize("step, named", [
        (0.3, "profile_step must divide"),
        (0.0, "profile_step must be finite and > 0"),
        (math.nan, "profile_step must be finite and > 0"),
        (-0.05, "profile_step must be finite and > 0"),
    ], ids=["0.3", "0", "nan", "-0.05"])
    def test_bad_profile_step_rejected(self, step, named):
        u = self.near_harmonic_map(n_s=400)
        with pytest.raises(DomainError, match=named):
            angular_bound_audit(u, profile_step=step)

    @pytest.mark.parametrize("c1", [math.inf, math.nan, -3.0])
    def test_bad_c1_rejected(self, c1):
        u = self.near_harmonic_map(n_s=400)
        with pytest.raises(DomainError, match="c1 must be finite and >= 0"):
            angular_bound_audit(u, c1=c1)
        assert angular_bound_audit(u, c1=0.0).c1 == 0.0  # the boundary stays valid

    @pytest.mark.parametrize("kind", ["flat-torus", "round-sphere"])
    def test_theta_profile_matches_audit_bitwise(self, kind):
        # theta_profile and the audit share one window, so every station agrees
        if kind == "flat-torus":
            u = self.near_harmonic_map(s_max=3.0, n_s=240, n_theta=16)
        else:
            grid = CollarGrid(0.2, 240, 16, s_max=3.0)
            u = sample_map(grid, TargetSpec.round_sphere(), lambda s, t: np.stack(
                [np.cos(t), np.sin(t), 0.3 + 0.2 * np.sin(s)], axis=-1))
        rep = angular_bound_audit(u)
        assert not rep.vacuous
        got = np.array([theta_profile(u, s0) for s0 in rep.s0])
        assert np.array_equal(got, rep.theta)
