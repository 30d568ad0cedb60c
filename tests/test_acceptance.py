"""End-to-end acceptance runs: each test is one shipping criterion.

Every test states its tolerance inline and asserts its own runtime
budget, so `pytest -v` doubles as the acceptance report: one pass/fail
line per criterion.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np
import pytest

from collarflow import angular, wp
from collarflow.demos import DEMOS, build_initial, demo_config
from collarflow.fields import MapField, TargetSpec
from collarflow.flow import (
    FlowConfig,
    dlogell_bound_check,
    initial_state,
    metric_speed,
    run,
    stability_limit,
)
from collarflow.geometry import (
    CollarGrid,
    dz2_norms,
)
from collarflow.quad_diff import (
    coordinate_differential,
    inner_product,
    scaled_mode_field,
    thin_thick_decay_ratio,
)
from oracles import deformed_circle_radius_sq


def _random_torus_values(rng, grid, dim=2, amp=0.3):
    t = grid.theta_nodes[None, :]
    x = grid.s_nodes[:, None] / grid.s_max
    vals = np.zeros((dim, grid.n_s, grid.n_theta))
    for d in range(dim):
        for _ in range(3):
            n = int(rng.integers(1, 4))
            vals[d] += amp * rng.normal() * np.cos(n * t + rng.normal()) \
                * np.cos(0.5 * math.pi * x * int(rng.integers(1, 3)))
    return vals


def test_01_dz2_norm_quadrature_and_series():
    # quadrature vs closed form to 1e-8 relative; series residual
    # against 32 pi^5 / ell^3 - 16 pi^4 / 3 bounded by K ell^2 with one
    # K across ell in {0.05, 0.1, 0.2}; runtime < 1 s
    t0 = time.perf_counter()
    scaled = []
    for ell in (0.05, 0.1, 0.2):
        exact = dz2_norms(ell).l2_sq
        grid = CollarGrid(ell, 40000, 8)
        dz2 = coordinate_differential(grid)
        quad = inner_product(dz2, dz2).real
        assert quad == pytest.approx(exact, rel=1e-8)
        series = 32.0 * math.pi**5 / ell**3 - 16.0 * math.pi**4 / 3.0
        scaled.append(abs(exact - series) / ell**2)
    K = max(scaled)
    assert math.isfinite(K)
    # the residual really is quadratic: the scaled values agree to 2x
    assert max(scaled) <= 2.0 * min(scaled)
    assert time.perf_counter() - t0 < 1.0


def test_02_pinch_distance_and_cubic_correction():
    # fitted cubic coefficient within 5% of 1/(84 pi) over
    # ell0 in {0.02, 0.05, 0.1}; every distance below sqrt(2 pi ell0);
    # runtime < 5 s
    t0 = time.perf_counter()
    ells = [0.02, 0.05, 0.1]
    for ell0 in ells:
        total = wp.integrate_to_pinch(ell0, tol=1e-10).total
        assert total < math.sqrt(2.0 * math.pi * ell0)
    fit = wp.correction_coefficient(ells, tol=1e-10)
    assert fit.c3 == pytest.approx(1.0 / (84.0 * math.pi), rel=0.05)
    assert time.perf_counter() - t0 < 5.0


def test_03_holomorphic_length_law_first_order():
    # centered finite differences of the simulated length against the
    # per-row speed formula -(2 pi^2/ell)(eta^2/4) Re b0 shrink at
    # first order under dt halving (observed order >= 0.9); the wrap
    # initial map has constant, hence holomorphic, Hopf coefficient;
    # runtime < 10 s
    t0 = time.perf_counter()
    n_s, n_theta, floor, ell_max, eta = 48, 12, 0.09, 0.5, 0.6
    s_max = CollarGrid(ell_max, 4, 4).s_max
    dt0 = 0.5 * stability_limit(floor, n_s, n_theta, s_max)
    sups = []
    for halving in range(2):
        dt = dt0 / 2**halving
        cfg = FlowConfig(ell0=0.1, eta=eta, dt=dt, t_end=300 * dt0, n_s=n_s,
                         n_theta=n_theta, ell_max=ell_max, ell_floor=floor,
                         target=TargetSpec.flat_torus(dim=1))
        trace = run(cfg, build_initial(cfg, {"kind": "wrap", "a": 1.0}))
        t, ell, b0 = trace["t"], trace["ell"], trace["re_b0"]
        fd = (ell[2:] - ell[:-2]) / (t[2:] - t[:-2])
        formula = -(2.0 * math.pi**2 / ell[1:-1]) * (eta**2 / 4.0) * b0[1:-1]
        sups.append(float(np.max(np.abs(fd - formula))))
    order = math.log2(sups[0] / sups[1])
    assert order >= 0.9
    assert time.perf_counter() - t0 < 10.0


def test_04_speed_route_coefficient_gap():
    # length speed via the b0 projection against the direct jet
    # integral -(eta^2 ell^2 / 16 pi^3) int (|u_s|^2 - |u_theta|^2)
    # rho^-2: relative gap below 2 ell^3 at ell = 0.1 on 20 random
    # fields, and genuinely nonzero (the two routes share quadrature
    # but not normalization); runtime < 2 s
    t0 = time.perf_counter()
    ell, eta = 0.1, 0.5
    n_s, n_theta = 400, 16
    s_max = CollarGrid(ell, 4, 4).s_max
    dt = 0.5 * stability_limit(0.09, n_s, n_theta, s_max)
    cfg = FlowConfig(ell0=ell, eta=eta, dt=dt, t_end=10 * dt, n_s=n_s,
                     n_theta=n_theta, ell_floor=0.09,
                     target=TargetSpec.flat_torus(dim=2))
    rng = np.random.default_rng(20240819)
    grid = cfg.grid_at(ell)
    gaps = []
    for _ in range(20):
        values = _random_torus_values(rng, grid)
        state = initial_state(cfg, values)
        via_b0, _ = metric_speed(state, eta)
        from collarflow.fields import jet
        J = jet(state.u)
        density = np.sum(J.u_s**2 - J.u_theta**2, axis=0)
        integral = grid.integrate_flat(density * grid.rho_inv_sq[:, None])
        direct = -(eta**2 * ell**2 / (16.0 * math.pi**3)) * integral
        gaps.append(abs(via_b0 - direct) / abs(direct))
    assert max(gaps) < 2.0 * ell**3
    assert min(gaps) > ell**3 / (12.0 * math.pi)
    assert time.perf_counter() - t0 < 2.0


def test_05_energy_identity_residual_first_order():
    # frozen-length flat-torus flow: per-step dE/dt + ||tau||^2 is
    # first order in dt and E never increases (10 random fields,
    # tolerance 1e-12 max(1, E0) per step); runtime < 30 s
    t0 = time.perf_counter()
    ell, n_s, n_theta = 0.2, 32, 12
    s_max = CollarGrid(ell, 4, 4).s_max
    rng = np.random.default_rng(20240820)
    orders = []
    for _ in range(10):
        values = None
        sups = []
        for halving in range(2):
            dt = (0.5 / 2**halving) * stability_limit(0.9 * ell, n_s, n_theta,
                                                      s_max)
            cfg = FlowConfig(ell0=ell, eta=0.0, dt=dt, t_end=30 * dt * 2**halving,
                             n_s=n_s, n_theta=n_theta, ell_floor=0.9 * ell,
                             target=TargetSpec.flat_torus(dim=2))
            if values is None:
                values = _random_torus_values(rng, cfg.grid_at(ell))
            trace = run(cfg, values)
            E = trace["E"]
            assert np.all(np.diff(E) <= 1e-12 * max(1.0, E[0]))
            sups.append(float(np.max(np.abs(trace["dE_residual"][1:]))))
        orders.append(math.log2(sups[0] / sups[1]))
    assert min(orders) > 0.9
    assert time.perf_counter() - t0 < 30.0


def test_06_thin_part_decay_slope():
    # zero-principal-part single modes |n| in 1..4 at ell in
    # {0.05, 0.1}: log(thin sup / thick L2) regressed on -pi/delta
    # gives slope/|n| within 10% of 1; runtime < 2 s
    t0 = time.perf_counter()
    for ell in (0.05, 0.1):
        deltas = [d for d in (0.05, 0.1, 0.2) if d > ell / 2]
        grid = CollarGrid(ell, n_s=6000, n_theta=16)
        for n in (1, 2, 3, 4):
            field = scaled_mode_field(grid, n)
            xs = np.array([-math.pi / d for d in deltas])
            ys = np.array([math.log(thin_thick_decay_ratio(field, d))
                           for d in deltas])
            slope = np.polyfit(xs, ys, 1)[0]
            assert slope / n == pytest.approx(1.0, abs=0.1)
    assert time.perf_counter() - t0 < 2.0


def test_07_symmetric_deformation_rate():
    # Richardson-extrapolated eps derivative of the circle-length
    # radius squared under the deformed metric equals -Re b0 to 1e-6;
    # runtime < 1 s
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240821)
    for _ in range(12):
        ell = rng.uniform(0.05, 0.8)
        s0 = rng.uniform(-0.5, 0.5) * CollarGrid(ell, 4, 4).s_max
        b0 = complex(rng.normal(), rng.normal())
        base = deformed_circle_radius_sq(ell, s0, b0, 0.0)
        eps = 1e-5 * max(base, 1.0)
        def slope(e):
            return (deformed_circle_radius_sq(ell, s0, b0, e) - base) / e
        richardson = (4.0 * slope(eps / 2.0) - slope(eps)) / 3.0
        assert richardson == pytest.approx(-b0.real, abs=1e-6)
    assert time.perf_counter() - t0 < 1.0


def test_08_comparison_principle_bulk_trials():
    # 10^4 rejection-sampled premise-satisfying profile pairs all land
    # on the ordered side (scaled slack >= -1e-13); kernel solver
    # residual order >= 1.9 under grid halving; runtime < 30 s
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240822)
    s = angular.default_comparison_grid()
    for _ in range(10_000):
        lower, upper = angular.random_comparison_pair(rng, s)
        rep = angular.comparison_check(lower, upper)
        assert rep.premise_operator and rep.premise_boundary
        scale = float(np.max(np.abs(upper.values)) + np.max(np.abs(lower.values)))
        assert rep.min_gap >= -1e-13 * scale
    errs = []
    for step in (0.05, 0.025):
        n = round(3.0 / step)
        grid_s = step * np.arange(-n, n + 1)
        forcing = np.exp(-grid_s**2) * (1.0 + 0.3 * np.sin(grid_s))
        f = angular.kernel_solution(grid_s, forcing, 12.0, a=0.7, b=0.4)
        errs.append(float(np.max(np.abs(
            angular.kernel_residual(f, forcing, 12.0)))))
    assert math.log2(errs[0] / errs[1]) >= 1.9
    assert time.perf_counter() - t0 < 30.0


def test_09_demo_bound_constants_finite_and_stable():
    # every shipped demo: fitted constants for |d log ell / dt| <=
    # C ell (I + E0) and |d log(1 + I_smooth)/dt| <= C (1 + ||tau||^2)
    # are finite and move < 10% under doubling both grid directions
    # and quartering dt; runtime < 60 s
    t0 = time.perf_counter()
    for name in sorted(DEMOS):
        cfg, init = demo_config(name)
        fits = []
        for refine in range(2):
            c = cfg if refine == 0 else dataclasses.replace(
                cfg, n_s=2 * cfg.n_s, n_theta=2 * cfg.n_theta,
                dt=cfg.dt / 4.0, stride=4 * cfg.stride)
            trace = run(c, build_initial(c, init))
            fits.append(dlogell_bound_check(trace))
        for attr in ("C_ell", "C_smooth"):
            base = getattr(fits[0], attr)
            refined = getattr(fits[1], attr)
            assert math.isfinite(base) and math.isfinite(refined)
            scale = max(abs(base), abs(refined))
            if scale > 1e-9:  # frozen-length demos leave C_ell at roundoff
                assert abs(refined - base) <= 0.10 * scale, \
                    f"{name}.{attr}: {base} -> {refined}"
    assert time.perf_counter() - t0 < 60.0
