"""Deterministic self-check registry.

Each check is a small, fast probe of one library invariant.  Checks
draw randomness from a Philox stream keyed by the report seed and the
check's position in name-sorted order, so any single check can be rerun
in isolation with the exact bits it saw in a full run.  Reports carry
no wall-time by default and serialize byte-identically for a given seed
and package state; timing is opt-in.

Geometry checks go through the ``geometry`` module namespace rather
than bound names, so a test can fault-inject a perturbed conformal
factor with a plain monkeypatch and watch exactly the geometry suite
go red.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass

import numpy as np

from collarflow import __version__, angular, geometry, wp
from collarflow import io as cfio
from collarflow.geometry import ELL_MAX, CollarGrid, DomainError
from collarflow.fields import (
    MapField,
    TargetSpec,
    energies,
    jet,
    sample_map,
    tension,
    theta_profile,
)
from collarflow.quad_diff import (
    QuadDiffField,
    coordinate_differential,
    fourier_decompose,
    inner_product,
    lp_norm,
    principal_split,
    project_holomorphic,
    scaled_mode_field,
    synthesize,
    thin_thick_decay_ratio,
)
from collarflow.flow import (
    FlowConfig,
    STATUS_PINCHED,
    pinned_tension,
    run,
    stability_limit,
)
from collarflow.demos import build_initial, demo_config

# frozen oracle values (independent high-precision evaluations)
HALF_LENGTH_01 = 95.55575953671334702855481816160792145378
DIST_01 = 0.792662459112228267166700570323


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str
    measured: float | None
    tolerance: float | None
    elapsed: float


def _torus_field(rng: np.random.Generator, grid: CollarGrid,
                 dim: int = 2, amp: float = 0.3) -> MapField:
    t = grid.theta_nodes[None, :]
    x = grid.s_nodes[:, None] / grid.s_max
    vals = np.zeros((dim, grid.n_s, grid.n_theta))
    for d in range(dim):
        for _ in range(3):
            n = int(rng.integers(1, 4))
            vals[d] += amp * rng.normal() * np.cos(n * t + rng.normal()) \
                * np.cos(0.5 * math.pi * x * int(rng.integers(1, 3)))
    return MapField(grid, vals, TargetSpec.flat_torus(dim=dim))


def _random_psi(rng: np.random.Generator, grid: CollarGrid) -> QuadDiffField:
    shape = (grid.n_s, grid.n_theta)
    psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return QuadDiffField(grid, psi)


# ----------------------------------------------------------------- geometry

def check_half_length_oracle(rng):
    err = abs(geometry.half_length(0.1) - HALF_LENGTH_01)
    return err < 1e-12, f"X(0.1) err {err:.3g}", err, 1e-12


def check_half_length_monotone(rng):
    ells = np.sort(rng.uniform(1e-3, ELL_MAX - 1e-6, size=24))
    xs = np.array([geometry.half_length(l) for l in ells])
    worst = float(np.max(np.diff(xs)))
    return worst < 0.0, f"max X increment {worst:.3g} over {ells.size} lengths", \
        worst, 0.0


def check_thin_part_sandwich(rng):
    worst = 0.0
    for _ in range(12):
        delta = rng.uniform(0.05, 0.8)
        ell = rng.uniform(1e-3, min(2.0 * delta, 0.5))
        gap = geometry.half_length(ell) - geometry.delta_thin_half_length(ell, delta)
        lo, hi = math.pi / delta - 4.0, math.pi**2 / (2.0 * delta)
        if not lo <= gap <= hi:
            return False, f"gap {gap:.6g} outside [{lo:.6g}, {hi:.6g}]", \
                gap / hi, 1.0
        worst = max(worst, gap / hi)
    return True, f"max gap fraction {worst:.3g}", worst, 1.0


def check_conformal_sinh_identity(rng):
    worst = 0.0
    for _ in range(20):
        ell = rng.uniform(0.02, 1.5)
        s = rng.uniform(-0.95, 0.95) * geometry.half_length(ell)
        lhs = geometry.conformal_factor(ell, s)
        rhs = (ell / (2.0 * math.pi)) / math.sinh(ell / 2.0) \
            * math.sinh(geometry.injectivity_radius(ell, s))
        worst = max(worst, abs(lhs / rhs - 1.0))
    return worst < 1e-9, f"max rel dev {worst:.3g}", worst, 1e-9


def check_dz2_quadrature(rng):
    ell = 0.2
    grid = CollarGrid(ell, 4000, 8)
    l1 = lp_norm(coordinate_differential(grid), 1)
    err = abs(l1 / geometry.dz2_norms(ell).l1 - 1.0)
    return err < 1e-9, f"L1 quadrature rel err {err:.3g}", err, 1e-9


# ---------------------------------------------------------------- quad_diff

def check_mode_orthogonality(rng):
    grid = CollarGrid(0.1, 180, 16, s_max=3.0)
    worst = 0.0
    for _ in range(6):
        m, n = rng.choice(np.arange(-3, 4), size=2, replace=False)
        f1 = scaled_mode_field(grid, int(m))
        f2 = scaled_mode_field(grid, int(n))
        ip = abs(inner_product(f1, f2))
        scale = math.sqrt(abs(inner_product(f1, f1)) * abs(inner_product(f2, f2)))
        worst = max(worst, ip / scale)
    return worst < 1e-12, f"max normalized cross pairing {worst:.3g}", \
        worst, 1e-12


def check_fourier_round_trip(rng):
    grid = CollarGrid(0.1, 150, 16, s_max=3.0)
    modes = {0: 0.5 + 0.2j, 1: -0.3j, -2: 0.1, 3: 0.05 - 0.02j}
    dec = fourier_decompose(synthesize(modes, grid=grid), n_max=5)
    worst = max(abs(dec[n] - c) for n, c in modes.items())
    return worst < 1e-9, f"max coefficient err {worst:.3g}", worst, 1e-9


def check_principal_pythagoras(rng):
    grid = CollarGrid(0.1, 160, 12, s_max=4.0)
    psi = _random_psi(rng, grid)
    split = principal_split(psi)
    total = inner_product(psi, psi).real
    dz2 = coordinate_differential(grid)
    part = (abs(split.b0) ** 2 * inner_product(dz2, dz2).real
            + inner_product(split.remainder, split.remainder).real)
    err = abs(part / total - 1.0)
    return err < 1e-10, f"pythagoras rel err {err:.3g}", err, 1e-10


def check_projection_contraction(rng):
    grid = CollarGrid(0.1, 120, 16, s_max=3.0)
    psi = _random_psi(rng, grid)
    proj, _ = project_holomorphic(psi, n_max=5)
    ratio = lp_norm(proj, 1) / lp_norm(psi, 1)
    return ratio <= 1.0 + 1e-12, f"L1 ratio after projection {ratio:.6g}", \
        ratio, 1.0


def check_thin_thick_decay(rng):
    grid = CollarGrid(0.1, 3000, 16)
    n = 2
    ratios = [thin_thick_decay_ratio(scaled_mode_field(grid, n), d)
              for d in (0.2, 0.3)]
    slope = (math.log(ratios[1]) - math.log(ratios[0])) \
        / (-math.pi / 0.3 + math.pi / 0.2)
    dev = abs(slope / n - 1.0)
    return dev < 0.15, f"slope/|n| {slope / n:.4g}", dev, 0.15


# ------------------------------------------------------------------- fields

def check_jet_linear_exact(rng):
    grid = CollarGrid(0.2, 60, 12, s_max=5.0)
    a = float(rng.normal())
    w = int(rng.integers(1, 5))  # winding; w h_theta < pi keeps wrapped diffs exact
    torus = TargetSpec.flat_torus(dim=1)
    u = sample_map(grid, torus, lambda s, t: np.stack([a * s + w * t]))
    J = jet(u)
    err = max(float(np.max(np.abs(J.u_s - a))), float(np.max(np.abs(J.u_theta - w))))
    return err < 1e-10, f"max derivative err {err:.3g}", err, 1e-10


def check_tension_harmonic(rng):
    grid = CollarGrid(0.2, 80, 16)
    torus = TargetSpec.flat_torus(dim=1)
    u = sample_map(grid, torus, lambda s, t: np.stack([t]))
    sup = float(np.max(np.abs(tension(u))))
    return sup < 1e-10, f"wrap tension sup {sup:.3g}", sup, 1e-10


def check_energy_conformal_invariance(rng):
    g1 = CollarGrid(0.1, 90, 12, s_max=3.0)
    g2 = CollarGrid(0.17, 90, 12, s_max=3.0)
    u1 = _torus_field(rng, g1)
    u2 = MapField(g2, u1.values.copy(), u1.target)
    err = abs(energies(u1).E / energies(u2).E - 1.0)
    return err < 1e-12, f"E rel dev across conformal factors {err:.3g}", \
        err, 1e-12


def check_cutoff_sandwich(rng):
    grid = CollarGrid(0.1, 200, 12)
    u = _torus_field(rng, grid)
    rep = energies(u)
    delta = 1.0 / (2.0 * math.pi)
    gap = rep.I - rep.I_smooth
    frac = gap / (rep.E / delta**2)
    ok = -1e-12 * rep.I <= gap and frac <= 1.0 + 1e-9
    return ok, f"I - I_smooth {gap:.6g}, fraction of cap {frac:.3g}", frac, 1.0


def check_theta_window_cap(rng):
    grid = CollarGrid(0.15, 150, 12, s_max=4.0)
    u = _torus_field(rng, grid)
    rep = energies(u)
    s0 = rng.uniform(-grid.s_max + 1.0, grid.s_max - 1.0)
    ratio = theta_profile(u, s0) / (2.0 * rep.E)
    return ratio <= 1.0 + 1e-12, \
        f"Theta({s0:.3f}) / 2E = {ratio:.6g}", ratio, 1.0


# --------------------------------------------------------------------- flow

def _small_frozen_config(n_s=32, n_theta=12, steps=30, safety=0.5, stride=1):
    ell = 0.2
    s_max = geometry.half_length(ell)
    dt = safety * stability_limit(0.9 * ell, n_s, n_theta, s_max)
    return FlowConfig(ell0=ell, eta=0.0, dt=dt, t_end=steps * dt, n_s=n_s,
                      n_theta=n_theta, target=TargetSpec.flat_torus(dim=2),
                      ell_floor=0.9 * ell, stride=stride)


def check_wrap_length_law(rng):
    n_s, n_theta, floor, ell_max = 32, 8, 0.09, 0.5
    s_max = geometry.half_length(ell_max)
    dt = 0.5 * stability_limit(floor, n_s, n_theta, s_max)
    eta = 0.5
    cfg = FlowConfig(ell0=0.1, eta=eta, dt=dt, t_end=30 * dt, n_s=n_s,
                     n_theta=n_theta, ell_max=ell_max, ell_floor=floor,
                     target=TargetSpec.flat_torus(dim=1))
    trace = run(cfg, build_initial(cfg, {"kind": "wrap", "a": 1.0}))
    ell, b0 = trace["ell"], trace["re_b0"]
    worst = 0.0
    for k in range(len(ell) - 1):
        speed = -(2.0 * math.pi**2 / ell[k]) * (eta**2 / 4.0) * b0[k]
        worst = max(worst, abs(ell[k + 1] - (ell[k] + dt * speed)) / ell[k])
    return worst < 1e-12, f"max row update defect {worst:.3g}", worst, 1e-12


def check_energy_monotone(rng):
    cfg = _small_frozen_config()
    trace = run(cfg, _torus_field(rng, cfg.grid_at(cfg.ell0)).values)
    E = trace["E"]
    worst = float(np.max(np.diff(E))) / max(1.0, E[0])
    return worst <= 1e-12, f"max scaled energy increment {worst:.3g}", \
        worst, 1e-12


def check_energy_identity_order(rng):
    sups = []
    state = rng.bit_generator.state
    for halving in range(2):
        rng.bit_generator.state = state
        cfg = _small_frozen_config(steps=20 * 2**halving,
                                   safety=0.5 / 2**halving)
        trace = run(cfg, _torus_field(rng, cfg.grid_at(cfg.ell0)).values)
        sups.append(float(np.max(np.abs(trace["dE_residual"][1:]))))
    order = math.log2(sups[0] / sups[1])
    return order > 0.8, f"residual order {order:.3f}", order, 0.8


def check_boundary_pinned(rng):
    cfg = _small_frozen_config()
    vals = _torus_field(rng, cfg.grid_at(cfg.ell0)).values
    trace = run(cfg, vals)
    same = np.array_equal(trace.final.u.values[:, 0], vals[:, 0]) and \
        np.array_equal(trace.final.u.values[:, -1], vals[:, -1])
    sup = float(np.max(np.abs(pinned_tension(trace.final.u)[:, 0])))
    return same and sup == 0.0, "end rows conserved", sup, 0.0


def check_pinch_status(rng):
    cfg, init = demo_config("pinch")
    trace = run(cfg, build_initial(cfg, init))
    ok = trace.status == STATUS_PINCHED and trace["ell"][-1] <= cfg.ell_floor
    return ok, f"status {trace.status}, ell_final {trace['ell'][-1]:.4g}", \
        float(trace["ell"][-1]), cfg.ell_floor


# ------------------------------------------------------------------ angular

def check_comparison_trials(rng):
    pairs, n_candidates = angular.comparison_pairs(rng, 300)
    worst = 0.0
    for lower, upper in pairs:
        rep = angular.comparison_check(lower, upper)
        if not (rep.premise_operator and rep.premise_boundary):
            return False, "sampler returned a non-hypothesis pair", None, 1e-13
        scale = float(np.max(np.abs(upper.values)) + np.max(np.abs(lower.values)))
        worst = min(worst, rep.min_gap / scale)
        if worst < -1e-13:
            return False, f"conclusion failed, scaled gap {worst:.3g}", \
                worst, 1e-13
    return True, f"300 trials from {n_candidates} candidates, " \
        f"worst scaled gap {worst:.3g}", worst, 1e-13


def check_kernel_residual_order(rng):
    errs = []
    for step in (0.05, 0.025):
        n = round(3.0 / step)
        s = step * np.arange(-n, n + 1)
        g = np.exp(-s**2) * (1.0 + 0.3 * np.sin(s))
        f = angular.kernel_solution(s, g, 12.0, a=0.7, b=0.4)
        r = angular.kernel_residual(f, g, 12.0)
        errs.append(float(np.max(np.abs(r))))
    order = math.log2(errs[0] / errs[1])
    return order > 1.8, f"kernel residual order {order:.3f}", order, 1.8


def check_exp_mode_rate(rng):
    target = math.cosh(0.5) / 4.0 - 0.5
    s = 0.025 * np.arange(-120, 121)
    f = angular.ProfileFn(s, np.exp(s))
    vals = angular.delay_operator(f) / np.exp(s[f.interior()])
    disc = float(np.max(np.abs(vals - target)))
    exact = angular.EXP_MODE_RATE == target
    return exact and disc < 1e-4, f"stencil deviation {disc:.3g}", disc, 1e-4


# ----------------------------------------------------------------------- wp

def check_distance_oracle(rng):
    err = abs(wp.integrate_to_pinch(0.1, tol=1e-11).total - DIST_01)
    return err < 1e-8, f"dist(0.1) err {err:.3g}", err, 1e-8


def check_distance_bound(rng):
    worst = 0.0
    for _ in range(6):
        ell0 = rng.uniform(0.01, 1.5)
        total = wp.integrate_to_pinch(ell0, tol=1e-9).total
        worst = max(worst, total / math.sqrt(2.0 * math.pi * ell0))
    return worst < 1.0, f"max distance / sqrt(2 pi ell0) = {worst:.6g}", \
        worst, 1.0


def check_correction_fit(rng):
    fit = wp.correction_coefficient([0.02, 0.05, 0.1], tol=1e-9)
    rel = abs(fit.c3 * 84.0 * math.pi - 1.0)
    return rel < 0.07, f"cubic coefficient rel err {rel:.3g}", rel, 0.07


# ---------------------------------------------------------------------- cli

def check_config_round_trip(rng):
    for name in ("wrap", "pinch", "relax"):
        cfg, _ = demo_config(name)
        d = cfio.config_to_dict(cfg)
        again = cfio.config_to_dict(cfio.config_from_dict(d))
        if d != again:
            return False, f"demo {name} config drifted through round trip", \
                None, None
    return True, "3 demo configs round-trip exactly", None, None


def check_csv_round_trip(rng):
    import tempfile
    cols = {"a": rng.normal(size=7), "b": np.exp(rng.normal(size=7))}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        cfio.write_csv(path, cols, {"seed": 1})
        back, prov = cfio.read_csv(path)
    ok = all(np.array_equal(cols[k], back[k]) for k in cols) and "seed" in prov
    return ok, "float columns round-trip bit-exactly", None, None


# each module suite's checks in registry order; a check is named by its
# function's name without "check_" and with dashes for underscores
SUITES = {
    "geometry": (check_half_length_oracle, check_half_length_monotone,
                 check_thin_part_sandwich, check_conformal_sinh_identity,
                 check_dz2_quadrature),
    "quad_diff": (check_mode_orthogonality, check_fourier_round_trip,
                  check_principal_pythagoras, check_projection_contraction,
                  check_thin_thick_decay),
    "fields": (check_jet_linear_exact, check_tension_harmonic,
               check_energy_conformal_invariance, check_cutoff_sandwich,
               check_theta_window_cap),
    "flow": (check_wrap_length_law, check_energy_monotone, check_energy_identity_order,
             check_boundary_pinned, check_pinch_status),
    "angular": (check_comparison_trials, check_kernel_residual_order, check_exp_mode_rate),
    "wp": (check_distance_oracle, check_distance_bound, check_correction_fit),
    "cli": (check_config_round_trip, check_csv_round_trip),
}

CHECKS = [(suite, fn.__name__.removeprefix("check_").replace("_", "-"), fn)
          for suite, fns in SUITES.items() for fn in fns]

# static coverage contract: every module suite owns a fixed number of
# registered invariants, which the registry test holds SUITES to
SUITE_COUNTS = {"geometry": 5, "quad_diff": 5, "fields": 5, "flow": 5,
                "angular": 3, "wp": 3, "cli": 2}


@dataclass(frozen=True)
class VerifyReport:
    seed: int
    version: str
    results: tuple

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def n_passed(self) -> int:
        return sum(r.passed for r in self.results)


def check_rng(seed: int, index: int) -> np.random.Generator:
    """Philox stream for one check: keyed by seed, counter-offset by index.

    The counter jump gives every check its own disjoint 2^64 block, so
    neither check order nor the selection of checks can change the bits
    any individual check sees.
    """
    return np.random.Generator(np.random.Philox(key=seed, counter=index << 64))


def _run_one(seed, index, suite, name, fn) -> CheckResult:
    t0 = time.perf_counter()
    try:
        passed, detail, measured, tolerance = fn(check_rng(seed, index))
    except Exception as exc:  # a crashed check is a failed check
        passed, detail, measured, tolerance = \
            False, f"raised {type(exc).__name__}: {exc}", None, None
    return CheckResult(suite=suite, name=name, passed=bool(passed),
                       detail=str(detail),
                       measured=None if measured is None else float(measured),
                       tolerance=None if tolerance is None else float(tolerance),
                       elapsed=time.perf_counter() - t0)


def run_checks(seed: int = 0, names=None, suites=None) -> VerifyReport:
    """Run the registered checks (all by default), in name order, and
    collect a report.  A seed outside the Philox key range [0, 2**128) is
    refused before any check runs."""
    if not 0 <= seed < 2**128:
        raise DomainError(f"seed: must be in [0, 2**128), the Philox key range, got {seed}")
    results = []
    for index, (suite, name, fn) in enumerate(sorted(CHECKS, key=lambda c: c[1])):
        if (names is None or name in names) and (suites is None or suite in suites):
            results.append(_run_one(seed, index, suite, name, fn))
    if not results:
        raise ValueError("no checks selected")
    return VerifyReport(seed=seed, version=__version__, results=tuple(results))


def report_to_dict(report: VerifyReport, with_timing: bool = False) -> dict:
    """JSON-ready report; wall time is opt-in to keep bytes reproducible."""
    checks = []
    for r in report.results:
        entry = {"suite": r.suite, "name": r.name, "passed": r.passed,
                 "measured": r.measured, "tolerance": r.tolerance,
                 "detail": r.detail}
        if with_timing:
            entry["elapsed_s"] = round(r.elapsed, 4)
        checks.append(entry)
    return {
        "schema": "collarflow-verify/1",
        "seed": report.seed,
        "version": report.version,
        "n_checks": len(report.results),
        "n_passed": report.n_passed,
        "passed": report.passed,
        "checks": checks,
    }
