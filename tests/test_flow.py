"""Tests for the coupled map/length flow.

The wrap map is the main analytic workhorse: it is flat-harmonic, its
Hopf differential is a constant multiple of dz^2, so the map stays
frozen and the length obeys a scalar ODE whose Euler discretization the
run must reproduce exactly, row by row.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from collarflow.demos import build_initial, demo_config
from collarflow.geometry import CollarGrid, DomainError
from collarflow.fields import MapField, MapJet, TargetSpec, jet, sample_map
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
# the metric arrays a grid refresh rewrites, with the cutoff it drops
GRID_METRIC = ("rho", "rho_sq", "rho_inv_sq", "pairing_weights", "cutoff_sq")


def wrap_values(grid: CollarGrid, a: float = 1.0) -> np.ndarray:
    u = sample_map(grid, TargetSpec.flat_torus(dim=1, periods=(2.0 * math.pi * a,)),
                   lambda s, t: np.stack([a * t]))
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
    vals = np.zeros((dim, grid.n_s, grid.n_theta))
    for d in range(dim):
        for _ in range(3):
            n = rng.integers(1, 4)
            vals[d] += amp * rng.normal() * np.cos(n * t + rng.normal()) \
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

    @pytest.mark.parametrize("target, shown", [("flat", "'flat'"),
                                               (TargetSpec(1), "TargetSpec(dim=1)")],
                             ids=["string", "bare-spec"])
    def test_target_must_be_a_target_kind(self, target, shown):
        # before the check a string died in run and a bare TargetSpec in
        # io.provenance_for, each with an AttributeError
        with pytest.raises(DomainError) as exc:
            frozen_config(target=target)
        assert str(exc.value) == ("flow.target: must be a flat-torus or round-sphere "
                                  f"target, got {shown}")

    def test_trace_rows_bounded(self):
        # a frozen wrap demo run for 10^12 steps would keep 2 * 10^11 rows
        cfg = demo_config("wrap")[0]
        with pytest.raises(DomainError) as exc:
            replace(cfg, eta=0.0, dt=1e-7, t_end=1e5)
        assert str(exc.value) == ("flow.t_end: t_end = 100000.0 at dt = 1e-07 and stride = 5 "
                                  "asks for more than 100000 trace rows, got 200000000001")

    def test_row_bound_counts_the_rows_run_keeps(self, monkeypatch):
        import collarflow.flow as flow
        cfg, spec = demo_config("wrap")
        n_rows = run(cfg, build_initial(cfg, spec)).n_rows
        monkeypatch.setattr(flow, "MAX_ROWS", n_rows)
        assert replace(cfg).n_steps == cfg.n_steps
        monkeypatch.setattr(flow, "MAX_ROWS", n_rows - 1)
        with pytest.raises(DomainError, match=f"trace rows, got {n_rows}$"):
            replace(cfg)

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


    # each demo's trace.csv and summary.json digests are pinned by test_golden
    @pytest.mark.parametrize("name, frozen", [("relax", True), ("pinch", False),
                                              ("wrap", False)])
    def test_step_keeps_its_grid_while_the_length_is_frozen(
            self, monkeypatch, tmp_path, name, frozen):
        # eta = 0 keeps the initial grid, and so its one cutoff, for the
        # whole run; after the initial state a moving length takes the run's
        # two grids in turn, and its refresh drops the cutoff, so a cutoff is
        # computed per sampled row
        import collarflow.flow as flow
        import collarflow.geometry as geometry
        from collarflow.cli import main
        grids, cutoffs = [], []
        advance, cutoff = flow._advance, geometry.smooth_cutoff

        def recording(state, *args):
            new = advance(state, *args)
            grids.append((state.u.grid, new.u.grid))
            return new

        monkeypatch.setattr(flow, "_advance", recording)
        monkeypatch.setattr(geometry, "smooth_cutoff", lambda rho: cutoffs.append(1) or cutoff(rho))
        assert main(["flow", "--demo", name, "--out", str(tmp_path)]) == 0
        n_rows = json.loads((tmp_path / "summary.json").read_text())["n_rows"]
        assert len(grids) > 100
        if frozen:
            assert all(new is old for old, new in grids) and len(cutoffs) == 1
        else:
            assert all(new is not old for old, new in grids) and len(cutoffs) == n_rows
            owned = {id(new) for _, new in grids}
            assert len(owned) == 2 and id(grids[0][0]) not in owned

    @pytest.mark.parametrize("stepper", ["euler", "rk2"])
    def test_run_makes_no_grid_per_step(self, monkeypatch, stepper):
        # after the run's set-up (its initial grid and its two own grids) a
        # moving-length run neither builds a grid nor calls at()
        cfg = wrap_config(n_s=24, n_theta=8, n_steps=12, stride=5, stepper=stepper)
        values = wrap_values(cfg.grid_at(cfg.ell0))
        calls, at = [], CollarGrid.at
        monkeypatch.setattr(CollarGrid, "at", lambda g, ell: calls.append(ell) or at(g, ell))
        trace = run(cfg, values)
        assert trace["ell"][-1] > trace["ell"][0]
        assert sorted(calls) == [cfg.ell0, cfg.ell_max, cfg.ell_max]

    def test_refreshed_run_grids_equal_at_bitwise(self):
        # a sweep of ell over [ell_floor, ell_max], the run's two grids taken
        # in turn with a cutoff cached before each refresh
        import collarflow.flow as flow
        cfg = wrap_config(n_s=24, n_theta=8)
        grids = flow.RunArrays(cfg).grids
        assert grids[0] is not grids[1] and cfg.grid not in grids
        sweep = np.linspace(cfg.ell_floor, cfg.ell_max, 41)
        for k, ell in enumerate([*sweep, *sweep[::-1]]):
            grid = grids[k % 2]
            grid.cutoff_sq  # cached at the old length
            grid.refresh(ell)
            want = cfg.grid.at(ell)
            assert grid.ell == want.ell and grid.pairing_norm == want.pairing_norm
            for name in GRID_METRIC:
                assert getattr(grid, name).tobytes() == getattr(want, name).tobytes(), name
            assert grid.s_nodes is cfg.grid.s_nodes

    @pytest.mark.parametrize("stepper", ["euler", "rk2"])
    def test_state_grid_intact_until_the_step_after_next(self, stepper):
        import collarflow.flow as flow
        cfg, vals = moving_config("flat-torus", stepper)
        work = flow.RunArrays(cfg)
        states = [initial_state(cfg, vals)]
        for _ in range(6):
            states.append(step(states[-1], cfg, work=work))
            *_, prev, new = states
            assert new.u.grid is work.free_grid(prev) and new.u.values is work.free_values(prev)
            for state in (prev, new):
                want = cfg.grid.at(min(max(state.ell, cfg.ell_floor), cfg.ell_max))
                for name in GRID_METRIC:
                    assert getattr(state.u.grid, name).tobytes() == \
                        getattr(want, name).tobytes(), name


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
        dens = (np.sum(J.u_s**2, axis=0) - np.sum(J.u_theta**2, axis=0))
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
        vals = (b * grid.s_nodes)[None, :, None] * np.ones((1, 1, grid.n_theta))
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
                [np.cos(t), np.sin(t), 0.3 * np.sin(s + 2 * t)]))
        assert face_energy(u, jet(u)) == face_energy(u)

    def test_face_energy_squares_into_scratch(self):
        # the per-node sums go into the jet's scratch rows
        import tracemalloc
        grid = CollarGrid(0.2, 96, 32)
        u = MapField(grid, random_torus_values(grid, np.random.default_rng(6), dim=3),
                     TargetSpec.flat_torus(dim=3))
        J = jet(u)
        expected = face_energy(u)
        tracemalloc.start()
        try:
            E = face_energy(u, J)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert E == expected
        assert peak < u.values.nbytes / 10

    @pytest.mark.parametrize("dim", [2, 3])
    def test_face_energy_sums_node_major_squares(self, dim):
        # the squares are summed per node in component order (TargetSpec.dot),
        # then np.sum adds the nodes pairwise in memory order; the node-major
        # (n_s, n_theta, dim) sum of all squares gives other bits on this map
        grid = CollarGrid(0.2, 96, 32)
        u = MapField(grid, random_torus_values(grid, np.random.default_rng(6), dim=dim),
                     TargetSpec.flat_torus(dim))
        J = jet(u)
        h_s, h_t = grid.h_s, grid.theta_weight

        def per_node(d):
            sq = d[0] * d[0]
            for k in range(1, dim):
                sq = sq + d[k] * d[k]
            return float(np.sum(sq))

        def node_major(d):
            return float(np.sum(np.square(np.ascontiguousarray(np.moveaxis(d, 0, -1)))))

        sums = [per_node(d) for d in (J.d_s, J.d_theta)]
        assert face_energy(u, J) == 0.5 * (sums[0] / h_s**2 + sums[1] / h_t**2) * h_s * h_t
        assert [node_major(d) for d in (J.d_s, J.d_theta)] != sums

    @pytest.mark.parametrize("dim, n_s, n_theta", [(1, 48, 12), (2, 64, 16), (3, 384, 64)])
    def test_face_energy_of_a_stack_matches_each_map(self, dim, n_s, n_theta):
        # a stack of 8 flows summed by one dot over the stacked differences,
        # then np.sum per flow, gives each flow's own face energy bit for bit
        grid = CollarGrid(0.2, n_s, n_theta)
        target = TargetSpec.flat_torus(dim)
        rng = np.random.default_rng(dim)
        maps = [MapField(grid, random_torus_values(grid, rng, dim=dim), target)
                for _ in range(8)]
        jets = [jet(u) for u in maps]
        h_s, h_t = grid.h_s, grid.theta_weight
        Ds, Dt = np.stack([J.d_s for J in jets]), np.stack([J.d_theta for J in jets])
        e_s, e_t = target.dot(Ds, Ds), target.dot(Dt, Dt)
        for b, u in enumerate(maps):
            want = 0.5 * (float(np.sum(e_s[b])) / h_s**2
                          + float(np.sum(e_t[b])) / h_t**2) * h_s * h_t
            assert face_energy(u) == want

    def test_sampled_row_allocates_no_map_sized_array(self):
        # a 384 x 64 sphere row: face_energy sums in the jet's scratch rows,
        # and the largest temporary left is principal_coefficient's einsum buffer
        import tracemalloc
        import collarflow.flow as flow
        from collarflow.demos import build_initial
        s_max = CollarGrid(0.4, 4, 4).s_max
        dt = 0.8 * stability_limit(0.1, 384, 64, s_max)
        cfg = FlowConfig(ell0=0.2, eta=0.5, dt=dt, t_end=10 * dt, n_s=384, n_theta=64,
                         ell_max=0.4, ell_floor=0.1, stepper="rk2",
                         target=TargetSpec.round_sphere(3))
        work = flow.RunArrays(cfg)
        state = initial_state(cfg, build_initial(cfg, {"kind": "sphere-equator", "eps": 0.2}))
        flow._evaluate(state, cfg, work, work.tau, sample=True)
        tracemalloc.start()
        try:
            row = flow._evaluate(state, cfg, work, work.tau, sample=True)[2]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert row["E"] == face_energy(state.u)
        assert peak < cfg.n_s * cfg.n_theta * 8  # below one component plane

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
        np.testing.assert_array_equal(trace.final.u.values[:, 0], vals[:, 0])
        np.testing.assert_array_equal(trace.final.u.values[:, -1], vals[:, -1])
        assert np.all(pinned_tension(trace.final.u)[:, 0] == 0.0)


class TestModeReduction:
    def test_single_angular_mode_matches_scalar_system(self):
        # u = f(s, t) sin(theta) is an invariant subspace of the discrete
        # flow; evolving the scalar profile with the same stencils must
        # reproduce the full 2-D run to near machine precision.
        cfg = frozen_config(ell=0.2, n_s=32, n_theta=16, steps=50, stride=10**6,
                            target=TORUS1)
        grid = cfg.grid_at(cfg.ell0)
        f0 = 0.2 * np.exp(-0.5 * (grid.s_nodes / grid.s_max) ** 2)
        vals = (f0[:, None] * np.sin(grid.theta_nodes)[None, :])[None]
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
        expected = (f[:, None] * np.sin(grid.theta_nodes)[None, :])[None]
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
            [np.cos(t), np.sin(t), np.zeros_like(t)]))
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
            [np.cos(t), np.sin(t), np.zeros_like(t)])).values
        noise = 0.05 * rng.normal(size=base.shape)
        noise[:, 0] = noise[:, -1] = 0.0
        vals = sphere.project(base + noise)
        trace = run(cfg, vals)
        norms = np.linalg.norm(trace.final.u.values, axis=0)
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
        trace = run(cfg, np.zeros((2, cfg.n_s, cfg.n_theta)))
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
        st = initial_state(cfg, np.zeros((2, cfg.n_s, cfg.n_theta)))
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

        def counted(u, *args, **kwargs):
            calls.append(u)
            return original(u, *args, **kwargs)

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
        # count the jet's one density pass: the dot over its stacked
        # (2, dim, n_s, n_theta) first derivatives, which no other dot takes
        import collarflow.flow as flow
        dot, calls = TargetSpec.dot, []

        def counted(target, a, b, out=None, tmp=None):
            if a.ndim == 4:
                calls.append(a.shape)
            return dot(target, a, b, out, tmp)

        monkeypatch.setattr(TargetSpec, "dot", counted)
        cfg = wrap_config()
        st = initial_state(cfg, wrap_values(cfg.grid_at(cfg.ell0)))
        work = flow.RunArrays(cfg)
        flow._evaluate(st, cfg, work, work.tau, sample=True)
        assert calls == [(2, cfg.target.dim, cfg.n_s, cfg.n_theta)]
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
                [np.cos(t), np.sin(t), 0.3 * np.ones_like(t)])).values
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


def moving_config(kind: str, stepper: str, n_s: int = 40, n_theta: int = 16,
                  steps: int = 12, stride: int = 5,
                  dim: int = 2) -> tuple[FlowConfig, np.ndarray]:
    """A run whose map and length both move, with a seeded initial map
    (dim is the torus dimension)."""
    ell0, floor = 0.2, 0.1
    s_max = CollarGrid(0.3, 4, 4).s_max
    dt = 0.4 * stability_limit(floor, n_s, n_theta, s_max)
    grid = CollarGrid(ell0, n_s, n_theta, s_max=s_max)
    rng = np.random.default_rng(11)
    if kind == "flat-torus":
        target = TargetSpec.flat_torus(dim)
        vals = random_torus_values(grid, rng, dim=dim)
    else:
        target = TargetSpec.round_sphere()
        base = sample_map(grid, target, lambda s, t: np.stack(
            [np.cos(t), np.sin(t), 0.3 * np.ones_like(t)])).values
        vals = target.project(base + 0.05 * rng.normal(size=base.shape))
    cfg = FlowConfig(ell0=ell0, eta=0.8, dt=dt, t_end=steps * dt, n_s=n_s,
                     n_theta=n_theta, ell_max=0.3, ell_floor=floor, s_max=s_max,
                     target=target, stepper=stepper, stride=stride)
    return cfg, vals


def pinned_case(kind: str) -> MapField:
    """A map into a flat torus (dim 1, the winding wrap map, dim 2) or the sphere."""
    grid = CollarGrid(0.3, 24, 12, s_max=3.0)
    rng = np.random.default_rng(21)
    if kind == "wrap":
        return MapField(grid, wrap_values(grid), TORUS1)
    if kind.startswith("torus"):
        dim = int(kind[-1])
        return MapField(grid, random_torus_values(grid, rng, dim=dim),
                        TargetSpec.flat_torus(dim))
    sphere = TargetSpec.round_sphere()
    base = sample_map(grid, sphere, lambda s, t: np.stack(
        [np.cos(t), np.sin(t), 0.3 * np.ones_like(t)])).values
    return MapField(grid, sphere.project(base + 0.05 * rng.normal(size=base.shape)), sphere)


class TestPinnedJet:
    """The flow's jet leaves u_ss's two end rows unwritten (zero)."""

    KINDS = ["torus1", "wrap", "torus2", "sphere"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_pinned_fill_equals_full_fill_off_the_end_rows(self, kind):
        u = pinned_case(kind)
        n_s = u.grid.n_s
        full = jet(u)
        pinned = jet(u, out=MapJet(u.target, n_s, u.grid.n_theta, pinned=True))
        for name in ("first", "diffs", "u_thth"):
            assert getattr(pinned, name).tobytes() == getattr(full, name).tobytes(), name
        assert pinned.u_ss[:, 1:-1].tobytes() == full.u_ss[:, 1:-1].tobytes()
        ends = pinned.u_ss[:, ::n_s - 1]
        assert ends.tobytes() == np.zeros_like(ends).tobytes()
        assert kind == "wrap" or full.u_ss[:, ::n_s - 1].any()  # wrap is constant in s
        assert pinned_tension(u, pinned).tobytes() == pinned_tension(u, full).tobytes()

    @pytest.mark.parametrize("stepper", ["euler", "rk2"])
    @pytest.mark.parametrize("kind", ["flat-torus", "round-sphere"])
    def test_flow_steps_never_write_the_pinned_rows(self, kind, stepper):
        import collarflow.flow as flow
        cfg, vals = moving_config(kind, stepper)
        work = flow.RunArrays(cfg)
        assert work.jet.pinned
        state = initial_state(cfg, vals)
        for _ in range(4):
            state = step(state, cfg, work=work)
        ends = work.jet.u_ss[:, ::cfg.n_s - 1]
        assert ends.tobytes() == np.zeros_like(ends).tobytes()

    def test_plain_jet_and_angular_audit_fill_every_row(self, monkeypatch):
        import collarflow.angular as angular
        u = pinned_case("torus2")
        seen = []
        monkeypatch.setattr(angular, "jet", lambda u, out=None: seen.append(jet(u, out)) or seen[-1])
        angular.angular_bound_audit(u)
        plain = jet(u)
        assert not plain.pinned and [J.pinned for J in seen] == [False]
        assert seen[0].u_ss.tobytes() == plain.u_ss.tobytes()
        assert plain.u_ss[:, 0].all() and plain.u_ss[:, -1].all()


class TestRunArrays:
    """run steps inside one RunArrays; the public step allocates its own."""

    @pytest.mark.parametrize("stepper", ["euler", "rk2"])
    @pytest.mark.parametrize("kind", ["flat-torus", "round-sphere"])
    def test_run_matches_allocating_step_loop_bitwise(self, stepper, kind):
        import collarflow.flow as flow
        cfg, vals = moving_config(kind, stepper)
        trace = run(cfg, vals)
        assert trace.status == STATUS_COMPLETED
        # the same run through the allocating public step, each row sampled
        # into arrays of its own
        state = initial_state(cfg, vals)
        rows = []
        n_steps = round(cfg.t_end / cfg.dt)
        for k in range(n_steps + 1):
            if k % cfg.stride == 0 or k == n_steps:
                work = flow.RunArrays(cfg)
                rows.append(flow._evaluate(state, cfg, work, work.tau, sample=True)[2])
            if k < n_steps:
                state = step(state, cfg)
        assert trace.n_rows == len(rows) == 4
        for name in trace.columns:
            if name != "dE_residual":
                want = np.array([r[name] for r in rows])
                assert trace[name].tobytes() == want.tobytes(), name
        assert trace.final.u.values.tobytes() == state.u.values.tobytes()
        assert (trace.final.ell, trace.final.t) == (state.ell, state.t)

    def test_run_leaves_initial_values_alone(self):
        cfg, vals = moving_config("round-sphere", "rk2")
        before = vals.copy()
        trace = run(cfg, vals)
        assert vals.tobytes() == before.tobytes()
        assert not np.shares_memory(trace.final.u.values, vals)
        # a second run from the same array repeats the first
        again = run(cfg, vals)
        assert again.final.u.values.tobytes() == trace.final.u.values.tobytes()

    @pytest.mark.parametrize("stepper", ["euler", "rk2"])
    @pytest.mark.parametrize("kind", ["flat-torus", "round-sphere"])
    def test_unsampled_step_allocates_less_than_one_map(self, stepper, kind):
        # Both targets have three components.  principal_coefficient's einsum
        # lets numpy buffer its real weights cast to complex, up to 8192
        # entries; at 96 x 32 that buffer is 16 bytes a node, the size of
        # a two-component map, so a dim-2 map could not tell it from a copy.
        import tracemalloc
        from collarflow.flow import RunArrays
        cfg, vals = moving_config(kind, stepper, n_s=96, n_theta=32, dim=3)
        work = RunArrays(cfg)
        state = step(initial_state(cfg, vals), cfg, work=work)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            state = step(state, cfg, work=work)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert state.u.values is work.values[1]  # the first step took values[0]
        assert peak - current < vals.nbytes

    def test_pinch_inside_the_floor_keeps_unclamped_length(self):
        # u = b s moves ell^2 down linearly; the last step lands in (0, ell_floor]
        ell0, floor, eta, b = 0.15, 0.1, 0.6, 0.8
        cap = stability_limit(floor, 40, 8, CollarGrid(ell0, 4, 4).s_max)
        cfg = FlowConfig(ell0=ell0, eta=eta, dt=0.8 * cap, t_end=1.0, n_s=40,
                         n_theta=8, target=TORUS1, ell_floor=floor)
        grid = cfg.grid_at(ell0)
        vals = (b * grid.s_nodes)[None, :, None] * np.ones((1, 1, grid.n_theta))
        trace = run(cfg, vals)
        assert trace.status == STATUS_PINCHED
        assert 0.0 < trace.final.ell < floor
        assert trace["ell"][-1] == trace.final.ell
        assert trace.final.u.grid.ell == floor

    def test_step_past_zero_length_raises(self):
        from collarflow.flow import FlowError
        cfg = FlowConfig(ell0=0.15, eta=0.6, dt=2e-6, t_end=1e-4, n_s=40, n_theta=8,
                         ell_floor=0.05, target=TargetSpec.flat_torus(1, periods=(1e9,)))
        grid = cfg.grid_at(cfg.ell0)
        vals = (40.0 * grid.s_nodes)[None, :, None] * np.ones((1, 1, grid.n_theta))
        with pytest.raises(FlowError, match="step 3: core length ell = -0.0312") as err:
            run(cfg, vals)
        assert err.value.step_index == 3

    @pytest.mark.parametrize("kind, stepper, index", [
        ("flat-torus", "euler", 3), ("round-sphere", "euler", 3),
        ("round-sphere", "rk2", 2)])
    def test_non_finite_map_raises_at_its_step(self, monkeypatch, kind, stepper, index):
        # the third tension evaluated is poisoned: with stride 1 that is the
        # state of step 2 (euler, step 3 fails) or of step 1 (rk2, whose
        # second step fails at its midpoint)
        from collarflow import flow
        calls = []
        def poisoned(*args, **kw):
            tau = pinned_tension(*args, **kw)
            calls.append(None)
            if len(calls) == 3:
                tau[0, 4, 2] = math.nan
            return tau
        monkeypatch.setattr(flow, "pinned_tension", poisoned)
        cfg, vals = moving_config(kind, stepper, stride=1)
        with pytest.raises(flow.FlowError, match=f"step {index}: non-finite state") as err:
            run(cfg, vals)
        assert err.value.step_index == index

    @pytest.mark.parametrize("stepper", ["euler", "rk2"])
    @pytest.mark.parametrize("kind", ["flat-torus", "round-sphere"])
    def test_steps_build_maps_without_checking_them_again(self, monkeypatch, kind,
                                                          stepper):
        cfg, vals = moving_config(kind, stepper)
        checked = []
        check = MapField.__post_init__
        monkeypatch.setattr(MapField, "__post_init__",
                            lambda u: checked.append(check(u)))
        trace = run(cfg, vals)
        assert len(checked) == 1  # the initial state only
        final = trace.final.u
        MapField(final.grid, final.values, final.target)  # passes every check
        assert len(checked) == 2
