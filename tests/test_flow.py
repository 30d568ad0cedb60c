"""Tests for the coupled map/length flow.

The wrap map is the main analytic workhorse: it is flat-harmonic, its
Hopf differential is a constant multiple of dz^2, so the map stays
frozen and the length obeys a scalar ODE whose Euler discretization the
run must reproduce exactly, row by row.
"""

from __future__ import annotations

import math
from dataclasses import asdict

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from collarflow.geometry import CollarGrid, DomainError
from collarflow.fields import MapField, TargetSpec, jet, sample_map
from collarflow.quad_diff import coordinate_differential, hopf_differential, inner_product
from collarflow.flow import (
    BoundFit,
    FlowConfig,
    FlowState,
    STATUS_BLOWUP,
    STATUS_CAPPED,
    STATUS_COMPLETED,
    STATUS_PINCHED,
    dlogell_bound_check,
    energy_identity_residual,
    face_energy,
    initial_state,
    metric_speed,
    pinned_tension,
    run,
    stability_limit,
    step,
)

TORUS1 = TargetSpec.flat_torus(dim=1)
TORUS2 = TargetSpec.flat_torus(dim=2)


def wrap_values(grid: CollarGrid, a: float = 1.0) -> np.ndarray:
    u = sample_map(grid, TargetSpec.flat_torus(dim=1, periods=(2.0 * math.pi * a,)),
                   lambda s, t: np.stack([a * t], axis=-1))
    return u.values


def wrap_config(ell0: float = 0.1, eta: float = 0.5, a: float = 1.0, *,
                n_s: int = 48, n_theta: int = 12, ell_max: float = 0.5,
                ell_floor: float = 0.09, n_steps: int = 100,
                safety: float = 0.5, **kw) -> FlowConfig:
    s_max = CollarGrid(ell_max, 4, 4).s_max
    dt = safety * stability_limit(ell_floor, n_s, n_theta, s_max)
    return FlowConfig(ell0=ell0, eta=eta, dt=dt, t_end=n_steps * dt, n_s=n_s,
                      n_theta=n_theta, ell_max=ell_max, ell_floor=ell_floor,
                      target=TargetSpec.flat_torus(dim=1, periods=(2 * math.pi * a,)),
                      **kw)


def random_torus_values(grid: CollarGrid, rng: np.random.Generator,
                        dim: int = 2, amp: float = 0.3) -> np.ndarray:
    s = grid.s_nodes[:, None] / grid.s_max
    t = grid.theta_nodes[None, :]
    vals = np.zeros((grid.n_s, grid.n_theta, dim))
    for d in range(dim):
        for _ in range(3):
            n = rng.integers(1, 4)
            vals[:, :, d] += amp * rng.normal() * np.cos(n * t + rng.normal()) \
                * np.cos(0.5 * math.pi * s * rng.integers(1, 3))
    return vals


def frozen_config(ell: float = 0.2, n_s: int = 48, n_theta: int = 16,
                  safety: float = 0.5, steps: int = 60, target: TargetSpec = TORUS2,
                  **kw) -> FlowConfig:
    s_max = CollarGrid(ell, 4, 4).s_max
    dt = safety * stability_limit(0.9 * ell, n_s, n_theta, s_max)
    return FlowConfig(ell0=ell, eta=0.0, dt=dt, t_end=steps * dt,
                      n_s=n_s, n_theta=n_theta, target=target,
                      ell_floor=0.9 * ell, **kw)


class TestConfig:
    def test_ordering_enforced(self):
        with pytest.raises(DomainError):
            FlowConfig(ell0=0.1, eta=0.5, dt=1e-6, t_end=1.0, n_s=16, n_theta=8,
                       target=TORUS1, ell_floor=0.2)
        with pytest.raises(DomainError):
            FlowConfig(ell0=0.3, eta=0.5, dt=1e-6, t_end=1.0, n_s=16, n_theta=8,
                       target=TORUS1, ell_max=0.2)
        with pytest.raises(DomainError):
            FlowConfig(ell0=2.0, eta=0.5, dt=1e-6, t_end=1.0, n_s=16, n_theta=8,
                       target=TORUS1)

    def test_dt_above_stability_bound_rejected(self):
        cap = stability_limit(0.1, 32, 16, CollarGrid(0.1, 4, 4).s_max)
        with pytest.raises(DomainError):
            FlowConfig(ell0=0.1, eta=0.0, dt=2.0 * cap, t_end=1.0, n_s=32,
                       n_theta=16, target=TORUS1, ell_floor=0.1 / 2)

    def test_unknown_stepper_rejected(self):
        with pytest.raises(DomainError):
            frozen_config(stepper="rk7")

    def test_stride_positive(self):
        with pytest.raises(DomainError):
            frozen_config(stride=0)

    @pytest.mark.parametrize("s_max", [0.0, -1.0, CollarGrid(0.5, 4, 4).s_max * (1 + 1e-12)])
    def test_window_outside_collar_at_ell_max_rejected(self, s_max):
        with pytest.raises(DomainError, match="s_max"):
            wrap_config(s_max=s_max)

    def test_config_builds_its_grid_outside_the_fields(self):
        cfg = wrap_config(s_max=5.0, safety=0.1)
        assert cfg.s_max == cfg.grid.s_max == 5.0
        assert cfg.grid.ell == cfg.ell_max
        assert "grid" not in asdict(cfg)
        assert cfg == wrap_config(s_max=5.0, safety=0.1)


class TestGridRefresh:
    @pytest.mark.parametrize("stepper", ["euler", "rk2"])
    def test_run_builds_no_grid_after_its_config(self, monkeypatch, stepper):
        cfg = wrap_config(n_s=24, n_theta=8, n_steps=12, stride=5, stepper=stepper)
        values = wrap_values(cfg.grid_at(cfg.ell0))
        built = []
        init = CollarGrid.__init__
        monkeypatch.setattr(CollarGrid, "__init__",
                            lambda self, *a, **kw: built.append(a) or init(self, *a, **kw))
        trace = run(cfg, values)
        assert trace["ell"][-1] > trace["ell"][0]  # the metric did move
        assert built == []
        assert trace.final.u.grid.s_nodes is cfg.grid.s_nodes
        assert trace.final.u.grid.ell == trace.final.ell


class TestMetricSpeed:
    def test_wrap_map_speed_closed_form(self):
        # psi = -a^2 exactly, so b0 = -a^2 and the speed has a closed form.
        for ell, a, eta in [(0.1, 1.0, 0.5), (0.2, 2.0, 0.3)]:
            grid = CollarGrid(ell, 64, 16)
            u = MapField(grid, wrap_values(grid, a),
                         TargetSpec.flat_torus(dim=1, periods=(2 * math.pi * a,)))
            speed, b0 = metric_speed(FlowState(u, ell, 0.0), eta)
            assert b0 == pytest.approx(-a**2, rel=1e-12)
            assert speed == pytest.approx(math.pi**2 * eta**2 * a**2 / (2 * ell),
                                          rel=1e-12)

    def test_two_route_pairing_identity(self):
        # <Phi, dz^2> via the pairing equals the direct energy-density
        # quadrature 4 int (|u_s|^2 - |u_theta|^2) rho^-2, same grid.
        rng = np.random.default_rng(7)
        grid = CollarGrid(0.1, 120, 24, s_max=4.0)
        u = MapField(grid, random_torus_values(grid, rng), TORUS2)
        phi = hopf_differential(u)
        route_a = inner_product(phi, coordinate_differential(grid)).real
        J = jet(u)
        dens = (np.sum(J.u_s**2, axis=-1) - np.sum(J.u_theta**2, axis=-1))
        route_b = 4.0 * grid.integrate_flat(dens * grid.rho_inv_sq[:, None])
        assert route_a == pytest.approx(route_b, rel=1e-10)

    def test_speed_uses_grid_normalized_b0(self):
        rng = np.random.default_rng(11)
        ell, eta = 0.1, 0.7
        grid = CollarGrid(ell, 100, 16, s_max=3.0)
        u = MapField(grid, random_torus_values(grid, rng), TORUS2)
        phi = hopf_differential(u)
        dz2 = coordinate_differential(grid)
        b0_direct = inner_product(phi, dz2) / inner_product(dz2, dz2)
        speed, b0 = metric_speed(FlowState(u, ell, 0.0), eta)
        assert b0 == pytest.approx(b0_direct, rel=1e-12)
        expected = -(2 * math.pi**2 / ell) * (eta**2 / 4) * b0_direct.real
        assert speed == pytest.approx(expected, rel=1e-12)


class TestWrapRuns:
    def test_euler_rows_satisfy_exact_update(self):
        # The wrap map freezes, so every Euler row must satisfy
        # ell_{k+1} = ell_k + dt * speed(ell_k) to machine precision.
        eta = 0.5
        cfg = wrap_config(eta=eta)
        trace = run(cfg, wrap_values(cfg.grid_at(cfg.ell0)))
        assert trace.status == STATUS_COMPLETED
        ell = trace["ell"]
        assert len(ell) == 101
        for k in range(len(ell) - 1):
            speed = -(2.0 * math.pi**2 / ell[k]) * (eta**2 / 4.0) * trace["re_b0"][k]
            assert ell[k + 1] == pytest.approx(ell[k] + cfg.dt * speed, rel=1e-13)
        assert np.all(np.diff(ell) > 0)  # negative b0 pushes the length up

    @pytest.mark.parametrize("stepper,order_target", [("euler", 1.0), ("rk2", 2.0)])
    def test_stepper_order_against_reduced_ode(self, stepper, order_target):
        ell0, eta, a = 0.1, 0.5, 1.0
        errs = []
        t_end = None
        for halving in range(2):
            cfg = wrap_config(ell0=ell0, eta=eta, a=a, n_s=32, n_theta=8,
                              n_steps=100 * 2**halving, safety=0.5 / 2**halving,
                              stepper=stepper, stride=10**6)
            if t_end is None:
                t_end = cfg.t_end
                sol = solve_ivp(
                    lambda t, y: [math.pi**2 * eta**2 * a**2 / (2.0 * y[0])],
                    (0.0, t_end), [ell0], rtol=1e-12, atol=1e-14)
                ell_exact = sol.y[0, -1]
            trace = run(cfg, wrap_values(cfg.grid_at(ell0), a))
            errs.append(abs(trace["ell"][-1] - ell_exact))
        # Heun superconverges past 2 on this right-hand side, so only the
        # floor is asserted.
        order = math.log2(errs[0] / errs[1])
        assert order > order_target - 0.15

    def test_pinch_run_reaches_floor_at_predicted_time(self):
        # u = b s has psi = b^2, so ell^2 shrinks linearly in time.
        ell0, floor, eta, b = 0.15, 0.1, 0.6, 0.8
        rate = math.pi**2 * eta**2 * b**2  # -(d/dt) ell^2
        t_hit = (ell0**2 - floor**2) / rate
        cap = stability_limit(floor, 40, 8, CollarGrid(ell0, 4, 4).s_max)
        dt = t_hit / max(400.0, math.ceil(t_hit / (0.8 * cap)))
        cfg = FlowConfig(ell0=ell0, eta=eta, dt=dt, t_end=3.0 * t_hit, n_s=40,
                         n_theta=8, target=TORUS1, ell_floor=floor)
        grid = cfg.grid_at(ell0)
        vals = (b * grid.s_nodes)[:, None, None] * np.ones((1, grid.n_theta, 1))
        trace = run(cfg, vals)
        assert trace.status == STATUS_PINCHED
        assert trace["ell"][-1] <= floor
        assert trace["t"][-1] == pytest.approx(t_hit, rel=0.02)

    def test_capped_when_length_exceeds_ceiling(self):
        cfg = wrap_config(ell0=0.1, eta=0.8, n_s=40, n_theta=8, ell_max=0.102,
                          n_steps=200)
        trace = run(cfg, wrap_values(cfg.grid_at(0.1)))
        assert trace.status == STATUS_CAPPED
        assert trace["ell"][-1] > 0.102


class TestEnergyIdentity:
    def test_face_energy_exact_on_wrap_map(self):
        grid = CollarGrid(0.1, 64, 16)
        u = MapField(grid, wrap_values(grid, 1.0),
                     TargetSpec.flat_torus(dim=1, periods=(2 * math.pi,)))
        assert face_energy(u) == pytest.approx(2 * math.pi * grid.s_max, rel=1e-12)

    @pytest.mark.parametrize("kind", ["flat-torus", "round-sphere"])
    def test_face_energy_reads_the_jet_differences(self, kind):
        grid = CollarGrid(0.2, 24, 8)
        if kind == "flat-torus":
            u = MapField(grid, random_torus_values(grid, np.random.default_rng(4)),
                         TORUS2)
        else:
            u = sample_map(grid, TargetSpec.round_sphere(), lambda s, t: np.stack(
                [np.cos(t), np.sin(t), 0.3 * np.sin(s + 2 * t)], axis=-1))
        assert face_energy(u, jet(u)) == face_energy(u)

    def test_energy_monotone_and_residual_first_order(self):
        rng = np.random.default_rng(3)
        residual_sup = []
        for halving in range(2):
            cfg = frozen_config(steps=40 * 2**halving, safety=0.5 / 2**halving,
                                stride=1)
            vals = random_torus_values(cfg.grid_at(cfg.ell0), rng)
            trace = run(cfg, vals)
            assert trace.status == STATUS_COMPLETED
            E = trace["E"]
            assert np.all(np.diff(E) <= 1e-12 * max(1.0, E[0]))
            resid = trace["dE_residual"][1:]
            residual_sup.append(np.max(np.abs(resid)) / np.max(trace["tension_l2"])**2)
            rng = np.random.default_rng(3)  # same field for both resolutions
        order = math.log2(residual_sup[0] / residual_sup[1])
        assert order > 0.9

    def test_residual_function_matches_trace_column(self):
        cfg = frozen_config(steps=20, stride=1)
        vals = random_torus_values(cfg.grid_at(cfg.ell0), np.random.default_rng(5))
        trace = run(cfg, vals)
        recomputed = energy_identity_residual(trace)
        np.testing.assert_allclose(recomputed, trace["dE_residual"],
                                   rtol=1e-12, atol=1e-300, equal_nan=True)

    def test_boundary_rows_pinned(self):
        cfg = frozen_config(steps=30)
        vals = random_torus_values(cfg.grid_at(cfg.ell0), np.random.default_rng(9))
        trace = run(cfg, vals)
        np.testing.assert_array_equal(trace.final.u.values[0], vals[0])
        np.testing.assert_array_equal(trace.final.u.values[-1], vals[-1])
        assert np.all(pinned_tension(trace.final.u)[0] == 0.0)


class TestModeReduction:
    def test_single_angular_mode_matches_scalar_system(self):
        # u = f(s, t) sin(theta) is an invariant subspace of the discrete
        # flow; evolving the scalar profile with the same stencils must
        # reproduce the full 2-D run to near machine precision.
        cfg = frozen_config(ell=0.2, n_s=32, n_theta=16, steps=50, stride=10**6,
                            target=TORUS1)
        grid = cfg.grid_at(cfg.ell0)
        f0 = 0.2 * np.exp(-0.5 * (grid.s_nodes / grid.s_max) ** 2)
        vals = (f0[:, None] * np.sin(grid.theta_nodes)[None, :])[:, :, None]
        trace = run(cfg, vals)

        h_s, h_t = grid.h_s, grid.theta_weight
        mu = (2.0 * math.sin(h_t / 2.0) / h_t) ** 2
        f = f0.copy()
        n_steps = int(round(cfg.t_end / cfg.dt))
        for _ in range(n_steps):
            fss = np.zeros_like(f)
            fss[1:-1] = (f[2:] - 2 * f[1:-1] + f[:-2]) / h_s**2
            rate = grid.rho_inv_sq * (fss - mu * f)
            rate[0] = rate[-1] = 0.0
            f = f + cfg.dt * rate
        expected = (f[:, None] * np.sin(grid.theta_nodes)[None, :])[:, :, None]
        np.testing.assert_allclose(trace.final.u.values, expected,
                                   rtol=0, atol=1e-11)


class TestSphereRuns:
    def test_equatorial_wrap_is_stationary(self):
        ell = 0.2
        sphere = TargetSpec.round_sphere()
        s_max = CollarGrid(ell, 4, 4).s_max
        dt = 0.4 * stability_limit(0.15, 48, 16, s_max)
        cfg = FlowConfig(ell0=ell, eta=0.0, dt=dt, t_end=30 * dt, n_s=48,
                         n_theta=16, target=sphere, ell_floor=0.15)
        grid = cfg.grid_at(ell)
        u0 = sample_map(grid, sphere, lambda s, t: np.stack(
            [np.cos(t), np.sin(t), np.zeros_like(t)], axis=-1))
        trace = run(cfg, u0.values)
        assert trace.status == STATUS_COMPLETED
        np.testing.assert_allclose(trace.final.u.values, u0.values, atol=1e-9)

    def test_perturbed_sphere_map_stays_unit_and_relaxes(self):
        ell = 0.2
        sphere = TargetSpec.round_sphere()
        rng = np.random.default_rng(21)
        s_max = CollarGrid(ell, 4, 4).s_max
        dt = 0.3 * stability_limit(0.15, 40, 16, s_max)
        cfg = FlowConfig(ell0=ell, eta=0.0, dt=dt, t_end=60 * dt, n_s=40,
                         n_theta=16, target=sphere, ell_floor=0.15)
        grid = cfg.grid_at(ell)
        base = sample_map(grid, sphere, lambda s, t: np.stack(
            [np.cos(t), np.sin(t), np.zeros_like(t)], axis=-1)).values
        noise = 0.05 * rng.normal(size=base.shape)
        noise[0] = noise[-1] = 0.0
        vals = sphere.project(base + noise)
        trace = run(cfg, vals)
        norms = np.linalg.norm(trace.final.u.values, axis=-1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)
        assert trace["tension_l2"][-1] < trace["tension_l2"][0]


class TestBlowupAndBounds:
    def test_blowup_detection_triggers(self):
        cfg = frozen_config(steps=30, stride=1, blowup_sup_density=1e-9)
        vals = random_torus_values(cfg.grid_at(cfg.ell0), np.random.default_rng(2))
        trace = run(cfg, vals)
        assert trace.status == STATUS_BLOWUP
        assert trace.n_rows == 2  # flagged at the first sampled step

    def test_bound_fit_frozen_length(self):
        cfg = frozen_config(steps=30, stride=1)
        vals = random_torus_values(cfg.grid_at(cfg.ell0), np.random.default_rng(4))
        trace = run(cfg, vals)
        assert np.all(trace["ell"] == cfg.ell0)  # length exactly frozen
        fit = dlogell_bound_check(trace)
        assert isinstance(fit, BoundFit)
        # time-column roundoff leaks a subnormal slope into the gradient
        assert fit.C_ell < 1e-9
        assert 0.0 < fit.C_smooth < math.inf

    def test_bound_fit_undefined_on_a_zero_energy_trace(self):
        cfg = frozen_config(steps=4, stride=1)
        trace = run(cfg, np.zeros((cfg.n_s, cfg.n_theta, 2)))
        with pytest.raises(DomainError, match="I \\+ E0"):
            dlogell_bound_check(trace)

    def test_bound_fit_moving_length(self):
        cfg = wrap_config(n_s=40, n_theta=8, n_steps=200, stride=5)
        trace = run(cfg, wrap_values(cfg.grid_at(0.1)))
        fit = dlogell_bound_check(trace)
        assert 0.0 < fit.C_ell < math.inf
        assert np.all(np.isfinite(fit.ell_ratios))


class TestStepInternals:
    def test_initial_state_grid_covers_configured_window(self):
        cfg = frozen_config()
        st = initial_state(cfg, np.zeros((cfg.n_s, cfg.n_theta, 2)))
        assert st.u.grid.s_max == pytest.approx(cfg.s_max)
        assert st.t == 0.0 and st.ell == cfg.ell0

    def test_single_step_matches_manual_euler(self):
        cfg = frozen_config(steps=1)
        vals = random_torus_values(cfg.grid_at(cfg.ell0), np.random.default_rng(6))
        st = initial_state(cfg, vals)
        tau = pinned_tension(st.u)
        manual = vals + cfg.dt * tau
        out = step(st, cfg)
        np.testing.assert_allclose(out.u.values, manual, rtol=0, atol=1e-15)

    def test_energies_decrease_matches_face_energy_rate(self):
        # One Euler step drops the face energy by dt ||tau||^2 + O(dt^2).
        cfg = frozen_config(steps=1, safety=0.01)
        vals = random_torus_values(cfg.grid_at(cfg.ell0), np.random.default_rng(8))
        st = initial_state(cfg, vals)
        E0 = face_energy(st.u)
        from collarflow.fields import tension_l2
        drop = cfg.dt * tension_l2(st.u, pinned_tension(st.u)) ** 2
        E1 = face_energy(step(st, cfg).u)
        assert E0 - E1 == pytest.approx(drop, rel=2e-2)

    def test_one_derivative_pass_per_stage_and_row(self, monkeypatch):
        # one counter over every module binding of jet, so a pass made
        # behind tension or the Hopf differential counts too
        import collarflow.fields as fields
        import collarflow.flow as flow
        import collarflow.quad_diff as quad_diff
        original, calls = fields.jet, []

        def counted(u):
            calls.append(u)
            return original(u)

        for module in (fields, flow, quad_diff):
            monkeypatch.setattr(module, "jet", counted)
        for stepper, passes in (("euler", 1), ("rk2", 2)):
            cfg = wrap_config(stepper=stepper)
            st = initial_state(cfg, wrap_values(cfg.grid_at(cfg.ell0)))
            calls.clear()
            step(st, cfg)
            assert len(calls) == passes, stepper
        cfg = wrap_config(n_steps=6, stride=3)
        calls.clear()
        trace = run(cfg, wrap_values(cfg.grid_at(cfg.ell0)))
        assert trace.n_rows == 3
        # the steps after rows 0 and 3 reuse the velocity their row built
        assert len(calls) == 6 + 1

    def test_jet_densities_formed_once_per_row_and_never_at_eta_zero(self, monkeypatch):
        # count the evaluations behind the two cached jet densities
        import collarflow.flow as flow
        from functools import cached_property
        from collarflow.fields import MapJet
        calls = []
        for name in ("u_s_sq", "u_theta_sq"):
            def counted(jet_, name=name, density=MapJet.__dict__[name].func):
                calls.append(name)
                return density(jet_)
            prop = cached_property(counted)
            prop.__set_name__(MapJet, name)
            monkeypatch.setattr(MapJet, name, prop)
        cfg = wrap_config()
        st = initial_state(cfg, wrap_values(cfg.grid_at(cfg.ell0)))
        flow._sample_row(st, cfg)
        assert sorted(calls) == ["u_s_sq", "u_theta_sq"]
        calls.clear()
        frozen = wrap_config(eta=0.0)
        step(initial_state(frozen, wrap_values(frozen.grid_at(frozen.ell0))), frozen)
        assert calls == []

    @pytest.mark.parametrize("stepper", ["euler", "rk2"])
    @pytest.mark.parametrize("kind", ["flat-torus", "round-sphere"])
    def test_row_velocity_reuse_keeps_trajectory(self, stepper, kind):
        ell0, floor, n_s, n_theta = 0.2, 0.1, 40, 16
        s_max = CollarGrid(0.3, 4, 4).s_max
        dt = 0.4 * stability_limit(floor, n_s, n_theta, s_max)
        grid = CollarGrid(ell0, n_s, n_theta, s_max=s_max)
        rng = np.random.default_rng(5)
        if kind == "flat-torus":
            target, vals = TORUS2, random_torus_values(grid, rng)
        else:
            target = TargetSpec.round_sphere()
            base = sample_map(grid, target, lambda s, t: np.stack(
                [np.cos(t), np.sin(t), 0.3 * np.ones_like(t)], axis=-1)).values
            vals = target.project(base + 0.05 * rng.normal(size=base.shape))
        finals = []
        for stride in (1, 10**6):
            cfg = FlowConfig(ell0=ell0, eta=0.8, dt=dt, t_end=40 * dt, n_s=n_s,
                             n_theta=n_theta, ell_max=0.3, ell_floor=floor,
                             s_max=s_max, target=target, stepper=stepper,
                             stride=stride)
            trace = run(cfg, vals)
            assert trace.status == STATUS_COMPLETED
            finals.append(trace.final)
        dense, sparse = finals
        assert dense.ell != ell0  # the length moved
        assert dense.ell == sparse.ell and dense.t == sparse.t
        assert np.array_equal(dense.u.values, sparse.u.values)
