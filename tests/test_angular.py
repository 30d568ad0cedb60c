"""Tests for the delayed comparison operator and the angular energy audit."""

from __future__ import annotations

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from collarflow import angular
from collarflow.geometry import CollarGrid, DomainError
from collarflow.fields import (MapField, TargetSpec, sample_map, theta_profile,
                               window_integrals)
from collarflow.angular import (
    CONSTANT_MODE_RATE,
    DEFAULT_C1,
    EXP_MODE_RATE,
    MAX_STATIONS,
    ProfileFn,
    _candidate_block,
    _grid_steps,
    _premises,
    _sampler_tables,
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

    @pytest.mark.parametrize("s, message", [
        (np.concatenate([0.25 * np.arange(8), [2.1]]),
         "profile grid must be uniform and increasing"),
        (-0.25 * np.arange(25), "profile grid must be uniform and increasing"),
        (np.where(np.arange(25) == 7, np.nan, 0.25 * np.arange(25)),
         "profile grid must be uniform and increasing"),
        (0.3 * np.arange(-10, 11),
         "grid step 0.30000000000000027 must divide the delay 0.5 exactly"),
        (0.25 * np.arange(6), "profile too short for the delayed stencil"),
    ], ids=["nonuniform", "decreasing", "nan", "step", "short"])
    def test_invalid_grid_raises_the_same_text_every_time(self, s, message):
        # a failed check is never memoized, so a repeat runs it again
        for _ in range(3):
            misses = _grid_steps.cache_info().misses
            with pytest.raises(DomainError) as err:
                ProfileFn(s, np.zeros_like(s))
            assert str(err.value) == message
            assert _grid_steps.cache_info().misses == misses + 1

    def test_grid_mutated_in_place_is_checked_again(self):
        s = profile_grid(2.0, 0.25)
        assert ProfileFn(s, np.zeros_like(s)).delay_steps == 2
        s[5] += 0.01
        with pytest.raises(DomainError, match="uniform and increasing"):
            ProfileFn(s, np.zeros_like(s))
        s[5] -= 0.01
        assert ProfileFn(s, np.zeros_like(s)).h == 0.25

    def test_grid_memo_is_small_and_serves_repeats(self):
        s = profile_grid(2.5, 0.125)
        ProfileFn(s, np.zeros_like(s))
        hits = _grid_steps.cache_info().hits
        f = ProfileFn(s.copy(), np.ones_like(s))
        assert _grid_steps.cache_info().hits == hits + 1
        assert (f.h, f.delay_steps) == (0.125, 4)
        for memo in (_grid_steps, _sampler_tables):
            assert 0 < memo.cache_info().maxsize <= 64

    @pytest.mark.parametrize("half, step", [(3.0, 0.25), (2.0, 0.125)])
    def test_sampler_tables_match_their_formulas_bitwise(self, half, step):
        s = default_comparison_grid(half, step)
        cos_arg, sin_arg, grow = _sampler_tables(s.tobytes())
        arg = 0.5 * math.pi * np.multiply.outer(np.arange(1, 5), s / s[-1])
        assert cos_arg.tobytes() == np.cos(arg).tobytes()
        assert sin_arg.tobytes() == np.sin(arg).tobytes()
        assert grow.tobytes() == (np.cosh(0.5 * s) / math.cosh(0.5 * s[-1])).tobytes()
        assert not cos_arg.flags.writeable

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

    def test_exhausted_tries_raise(self, monkeypatch):
        # no tries per pair leaves no candidate to draw
        monkeypatch.setattr(angular, "_MAX_TRIES", 0)
        with pytest.raises(RuntimeError):
            comparison_pairs(np.random.default_rng(0), 3)
        # a single try per pair cannot supply 50 pairs at ~20 % acceptance
        monkeypatch.setattr(angular, "_MAX_TRIES", 1)
        with pytest.raises(RuntimeError):
            comparison_pairs(np.random.default_rng(0), 50)

    @staticmethod
    def stream_digest(pairs) -> str:
        h = hashlib.sha256()
        for lower, upper in pairs:
            h.update(lower.values.tobytes())
            h.update(upper.values.tobytes())
        return h.hexdigest()

    def test_seeded_wrapper_stream_is_pinned(self):
        # digests of the seeded streams under numpy 2.4 on x86-64: a
        # change to the draw order or to any arithmetic on the drawn
        # values changes them
        rng = np.random.default_rng([0, 1, 0])
        s = default_comparison_grid()
        pairs = [random_comparison_pair(rng, s) for _ in range(500)]
        assert self.stream_digest(pairs) == \
            "48fffdf7f2349d2ba2a435fb36e23a4f0648e77cb20539cefa076fff162ddfc2"

    def test_seeded_block_stream_is_pinned(self):
        pairs, n_candidates = comparison_pairs(np.random.default_rng(11), 300)
        assert n_candidates == 1371
        assert self.stream_digest(pairs) == \
            "8c579f17e36527214d95c75397c198bb74c23d85a6438a6f7ecd853042769725"

    def test_seeded_streams_on_a_finer_grid_are_pinned(self):
        # m = 4 delay steps on 33 nodes: other tables and end bands than
        # the default grid's m = 2 on 25
        s = default_comparison_grid(2.0, 0.125)
        rng = np.random.default_rng(7)
        pairs = [random_comparison_pair(rng, s) for _ in range(100)]
        assert self.stream_digest(pairs) == \
            "74e78febcb6fa02d474b51158ebb4b23ab4cfeabdb3f91e02020dc655726e5e9"
        pairs, n_candidates = comparison_pairs(np.random.default_rng(7), 33, s)
        assert n_candidates == 278
        assert self.stream_digest(pairs) == \
            "0f727cfe0314c854450583a24a165892b8136fa992ed9178d6b2de799f4ca124"

    def test_one_grid_check_per_call(self):
        def lookups():
            info = _grid_steps.cache_info()
            return info.hits + info.misses
        before = lookups()
        pairs, _ = comparison_pairs(np.random.default_rng(11), 300)
        assert lookups() <= before + 1
        assert all((lo.h, lo.delay_steps, up.h, up.delay_steps) == (0.25, 2, 0.25, 2)
                   for lo, up in pairs)

    @pytest.mark.parametrize("kwargs, named", [
        (dict(n_pairs=2.5), "n_pairs must be a nonnegative integer, got 2.5"),
        (dict(n_pairs=-1), "n_pairs must be a nonnegative integer, got -1"),
        (dict(n_pairs=True), "n_pairs must be a nonnegative integer, got True"),
    ])
    def test_bad_counts_rejected(self, kwargs, named):
        with pytest.raises(DomainError) as err:
            comparison_pairs(np.random.default_rng(0), **kwargs)
        assert str(err.value) == named

    def test_numpy_integer_counts_accepted(self):
        pairs, _ = comparison_pairs(np.random.default_rng(2), np.int64(2))
        assert len(pairs) == 2

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
            [alpha * (np.exp(s - s_max) + np.exp(-s - s_max)) * np.sin(t)]))

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
             np.exp(-0.5 * (s - 1.0) ** 2) * np.cos(2 * t)]))
        rep = angular_bound_audit(u)
        assert not rep.vacuous
        assert rep.satisfied
        assert np.all(rep.forcing >= 0.0)

    def test_short_window_is_vacuous(self):
        grid = CollarGrid(0.2, 200, 8, s_max=1.4)
        torus = TargetSpec.flat_torus(dim=1)
        u = sample_map(grid, torus, lambda s, t: np.stack(
            [0.1 * np.sin(t) * np.ones_like(s)]))
        rep = angular_bound_audit(u)
        assert rep.vacuous
        assert rep.satisfied

    @pytest.mark.xfail(strict=True, reason=(
        "known audit gap, ROADMAP item 11(a): Theta keeps a winding map's constant "
        "part, which L maps to -(5/4) c < 0 while G = 0, so the wrap demo's map reads "
        "satisfied=False (margin -9.64, fitted_c1 3.5e13, the roundoff floor)"))
    def test_winding_map_satisfies_bound(self):
        # u = theta into a flat circle, 48 x 12: harmonic, into an NPC target
        from collarflow.demos import build_initial, demo_config
        cfg, spec = demo_config("wrap")
        u = MapField(cfg.grid_at(cfg.ell0), build_initial(cfg, spec), cfg.target)
        assert angular_bound_audit(u, 0.05).satisfied

    @pytest.mark.parametrize("step, named", [
        (0.3, "profile_step must divide"),
        (0.0, "profile_step must be finite and > 0"),
        (math.nan, "profile_step must be finite and > 0"),
        (-0.05, "profile_step must be finite and > 0"),
        # 2 floor(5 / step) + 1 stations: ten million at 1e-6, and past
        # the floats at 5e-324, where the ratio is inf
        (1e-6, rf"^profile_step: 1e-06 asks for more than {MAX_STATIONS} "),
        (1e-300, "^profile_step: 1e-300 asks for more than"),
        (5e-324, "^profile_step: 5e-324 asks for more than"),
    ], ids=["0.3", "0", "nan", "-0.05", "1e-6", "1e-300", "5e-324"])
    def test_bad_profile_step_rejected(self, step, named):
        u = self.near_harmonic_map(n_s=400)
        with pytest.raises(DomainError, match=named):
            angular_bound_audit(u, profile_step=step)

    def test_short_window_station_cap(self):
        # a window too short to audit is still held to the cap, by the delay
        grid = CollarGrid(0.2, 200, 8, s_max=1.4)
        u = sample_map(grid, TargetSpec.flat_torus(dim=1), lambda s, t: np.stack(
            [0.1 * np.sin(t) * np.ones_like(s)]))
        with pytest.raises(DomainError, match="^profile_step: "):
            angular_bound_audit(u, profile_step=5e-324)
        assert angular_bound_audit(u, profile_step=1e-4).vacuous

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
                [np.cos(t), np.sin(t), 0.3 + 0.2 * np.sin(s)]))
        rep = angular_bound_audit(u)
        assert not rep.vacuous
        got = np.array([theta_profile(u, s0) for s0 in rep.s0])
        assert np.array_equal(got, rep.theta)
