"""Map fields: jets, tension, energies, angular profile."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import collarflow
from collarflow.fields import (
    EnergyReport,
    MapField,
    TargetSpec,
    _bump,
    energies,
    jet,
    sample_map,
    tension,
    tension_density,
    tension_l2,
    theta_profile,
)
from collarflow.geometry import CollarGrid, DomainError, dz2_norms, half_length, smooth_cutoff
from collarflow.quad_diff import hopf_differential

TORUS1 = TargetSpec.flat_torus(1)
TORUS2 = TargetSpec.flat_torus(2)


def wrap_map(grid, a=1.0):
    # winding map (a theta, 0); needs period 2 pi a in the first slot
    torus = TargetSpec.flat_torus(2, periods=(2 * math.pi * abs(a), 2 * math.pi))
    return sample_map(grid, torus, lambda s, t: np.stack([a * t, 0 * s]))


class TestTargets:
    def test_validation(self):
        with pytest.raises(DomainError):
            TargetSpec.flat_torus(2, periods=[2 * math.pi])
        with pytest.raises(DomainError):
            TargetSpec.from_dict({"kind": "round-sphere", "dim": 3,
                                  "periods": [1.0, 1.0, 1.0]})
        with pytest.raises(DomainError):
            TargetSpec.from_dict({"kind": "klein-bottle", "dim": 2})
        with pytest.raises(DomainError, match="must be >= 2"):
            TargetSpec.round_sphere(1)

    def test_sphere_projection_and_tangency(self):
        sph = TargetSpec.round_sphere()
        v = np.array([3.0, 0.0, 4.0]).reshape(3, 1, 1)
        p = sph.project(v)
        assert np.allclose(np.linalg.norm(p, axis=0), 1.0)
        w = np.array([1.0, 2.0, 3.0]).reshape(3, 1, 1)
        t = sph.tangential(p, w)
        assert abs(np.sum(t * p)) < 1e-12

    def test_wrap_increment(self):
        torus = TargetSpec.flat_torus(1, periods=(2 * math.pi,))
        d = np.full((1, 1, 1), 2 * math.pi - 0.1)
        assert torus.wrap_increment(d).item() == pytest.approx(-0.1)

    def test_sphere_values_validated(self):
        grid = CollarGrid(0.5, n_s=8, n_theta=8)
        vals = np.ones((3, 8, 8))
        with pytest.raises(DomainError):
            MapField(grid, vals, TargetSpec.round_sphere())

    def test_sphere_unit_norm_threshold(self):
        grid = CollarGrid(0.5, n_s=8, n_theta=8)
        vals = np.zeros((3, 8, 8))
        vals[2] = 1.0 + 5e-10
        MapField(grid, vals, TargetSpec.round_sphere())
        vals[2, 0, 0] = 1.0 + 2e-9
        with pytest.raises(DomainError, match="unit vectors"):
            MapField(grid, vals, TargetSpec.round_sphere())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("target", [TargetSpec.flat_torus(3),
                                        TargetSpec.round_sphere(3)],
                             ids=["torus", "sphere"])
    def test_non_finite_values_rejected(self, target, bad):
        grid = CollarGrid(0.5, n_s=8, n_theta=8)
        vals = np.zeros((3, 8, 8))
        vals[2] = 1.0
        vals[0, 3, 5] = bad
        with pytest.raises(DomainError, match="map values must be finite"):
            MapField(grid, vals, target)

    def test_wrap_increment_matches_round_formula_bitwise(self):
        torus = TargetSpec.flat_torus(2, periods=(2 * math.pi, 0.75))
        rng = np.random.default_rng(3)
        d = rng.normal(scale=5.0, size=(2, 40, 7))
        d[1, :5] = 0.75 * (np.arange(-2, 3)[:, None] + 0.5)  # exact halves
        periods = np.array(torus.periods)[:, None, None]
        want = d - periods * np.round(d / periods)
        assert torus.wrap_increment(d).tobytes() == want.tobytes()

    @pytest.mark.parametrize("period", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_torus_periods_positive_and_finite(self, period):
        with pytest.raises(DomainError, match="periods"):
            TargetSpec.flat_torus(2, [2 * math.pi, period])

    @pytest.mark.parametrize("target", [TargetSpec.flat_torus(2, periods=(5.0, 7.0)),
                                        TargetSpec.round_sphere(4)],
                             ids=["torus", "sphere"])
    def test_dict_round_trip(self, target):
        assert TargetSpec.from_dict(target.to_dict()) == target

    def test_from_dict_defaults_are_the_factories(self):
        assert TargetSpec.from_dict({"kind": "flat-torus"}) == TargetSpec.flat_torus()
        assert TargetSpec.from_dict({"kind": "round-sphere"}) == TargetSpec.round_sphere()

    @pytest.mark.parametrize("target, block", [
        (TargetSpec.flat_torus(2, periods=(5.0, 2 * math.pi)),
         '  "target": {\n    "dim": 2,\n    "kind": "flat-torus",\n'
         '    "periods": [\n      5.0,\n      6.283185307179586\n    ]\n  }\n}\n'),
        (TargetSpec.round_sphere(3),
         '  "target": {\n    "dim": 3,\n    "kind": "round-sphere"\n  }\n}\n'),
    ], ids=["torus", "sphere"])
    def test_map_header_target_block_pinned(self, tmp_path, target, block):
        # the target block of a map_to_csv header, pinned byte for byte:
        # serialized maps and every config_sha256 are built from it
        from collarflow import io as cfio
        grid = CollarGrid(0.2, 8, 4, s_max=1.5)
        u = sample_map(grid, target, lambda s, t: np.stack(
            [np.cos(t), np.sin(t), 0 * s][:target.dim]))
        cfio.map_to_csv(u, tmp_path / "u.csv", tmp_path / "u.json")
        assert (tmp_path / "u.json").read_text(encoding="utf-8").endswith(block)

    def test_kind_strings_only_in_fields(self):
        # fields.py is the one module that knows what a target kind is
        holders = sorted({path.name for path in Path(collarflow.__file__).parent.glob("*.py")
                          for tag in ("flat-torus", "round-sphere")
                          if tag in path.read_text(encoding="utf-8")})
        assert holders == ["fields.py"]


class TestComponentSums:
    """TargetSpec.dot against the numpy reductions it replaced."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_dot_matches_numpy_reductions_bitwise(self, d):
        rng = np.random.default_rng(d)
        a, b = rng.normal(size=(2, d, 384, 64))
        target = TargetSpec.flat_torus(d)
        assert np.array_equal(target.dot(a, b), np.sum(a * b, axis=0))
        assert np.array_equal(np.sqrt(target.dot(a, a)), np.linalg.norm(a, axis=0))

    @pytest.mark.parametrize("kind", ["flat-torus", "round-sphere"])
    def test_flow_quantities_match_inline_reductions_bitwise(self, kind):
        rng = np.random.default_rng(17)
        grid = CollarGrid(0.3, n_s=40, n_theta=16, s_max=2.5)
        if kind == "flat-torus":
            target = TargetSpec.flat_torus(2, periods=(2 * math.pi, 3.0))
            raw = rng.uniform(-4.0, 4.0, size=(2, 40, 16))
            values = raw
        else:
            target = TargetSpec.round_sphere(3)
            raw = rng.normal(size=(3, 40, 16))
            values = raw / np.linalg.norm(raw, axis=0, keepdims=True)
        assert np.array_equal(target.project(raw), values)
        u = MapField(grid, values, target)
        J = jet(u)
        us_sq = np.sum(J.u_s**2, axis=0)
        ut_sq = np.sum(J.u_theta**2, axis=0)
        w = J.u_ss + J.u_thth
        if kind == "round-sphere":
            w = w - np.sum(w * values, axis=0, keepdims=True) * values
        tau = grid.rho_inv_sq[:, None] * w
        assert np.array_equal(tension(u), tau)
        assert np.array_equal(tension_density(u, tau),
                              np.sum(tau * tau, axis=0) * grid.rho_sq[:, None])
        psi = us_sq - ut_sq - 2j * np.sum(J.u_s * J.u_theta, axis=0)
        assert np.array_equal(hopf_differential(u).psi, psi)
        e_flat = 0.5 * (us_sq + ut_sq)
        e_weighted = e_flat * grid.rho_inv_sq[:, None]
        assert energies(u) == EnergyReport(
            E=grid.integrate_flat(e_flat), I=grid.integrate_flat(e_weighted),
            I_theta=grid.integrate_flat(ut_sq * grid.rho_inv_sq[:, None]),
            I_smooth=grid.integrate_flat(
                e_weighted * smooth_cutoff(grid.rho)[:, None]**2),
            sup_density=float(np.max(e_weighted)))

    def test_no_component_axis_reduction_outside_dot(self):
        # every sum over the target-component axis goes through TargetSpec.dot
        found = []
        for path in sorted(Path(collarflow.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                name = ast.unparse(node.func)
                axis = [kw.value for kw in node.keywords if kw.arg == "axis"]
                comp_axis = any(ast.unparse(a) in ("0", "-3") for a in axis + node.args[1:2])
                if name == "np.linalg.norm" or (name.endswith(".sum") and comp_axis):
                    found.append(f"{path.name}:{node.lineno}: {name}")
        assert found == []


def slice_formula_jet(u):
    """The jet by the slice formulas the bound views replaced, one temporary
    per expression: the reference a jet must match bit for bit."""
    target, v = u.target, u.values
    h_s, h_t = u.grid.h_s, u.grid.theta_weight
    D = target.wrap_increment(v[:, 1:] - v[:, :-1])
    u_s, u_ss, Dt = np.empty_like(v), np.empty_like(v), np.empty_like(v)
    u_s[:, 1:-1] = (D[:, 1:] + D[:, :-1]) / (2.0 * h_s)
    u_s[:, 0] = (3.0 * D[:, 0] - D[:, 1]) / (2.0 * h_s)
    u_s[:, -1] = (3.0 * D[:, -1] - D[:, -2]) / (2.0 * h_s)
    u_ss[:, 1:-1] = (D[:, 1:] - D[:, :-1]) / h_s**2
    u_ss[:, 0] = (-2.0 * D[:, 0] + 3.0 * D[:, 1] - D[:, 2]) / h_s**2
    u_ss[:, -1] = (2.0 * D[:, -1] - 3.0 * D[:, -2] + D[:, -3]) / h_s**2
    Dt[:, :, :-1] = v[:, :, 1:] - v[:, :, :-1]
    Dt[:, :, -1] = v[:, :, 0] - v[:, :, -1]
    Dt = target.wrap_increment(Dt)
    prev = np.roll(Dt, 1, axis=2)  # Dt[:, :, j - 1]
    return dict(u_s=u_s, u_theta=(Dt + prev) / (2.0 * h_t), u_ss=u_ss,
                u_thth=(Dt - prev) / h_t**2, d_s=D, d_theta=Dt,
                u_s_sq=target.dot(u_s, u_s))


class TestJet:
    def test_linear_in_s_exact(self):
        grid = CollarGrid(0.5, n_s=32, n_theta=8, s_max=2.0)
        u = sample_map(grid, TORUS1, lambda s, t: (0.7 * s)[None])
        J = jet(u)
        assert np.allclose(J.u_s, 0.7, atol=1e-12)
        assert np.allclose(J.u_theta, 0.0, atol=1e-12)

    def test_cubic_in_s_second_derivative_exact_on_every_row(self):
        # the one-sided end rows are exact on cubics, at s = +s_max as at -s_max
        grid = CollarGrid(0.5, n_s=12, n_theta=8, s_max=2.0)
        s = grid.s_nodes[:, None]
        J = jet(sample_map(grid, TargetSpec(1), lambda s, t: (s**3)[None]))
        assert np.allclose(J.u_ss, 6.0 * s, rtol=0, atol=1e-10)
        J = jet(sample_map(grid, TargetSpec(1), lambda s, t: (s**2)[None]))
        assert np.allclose(J.u_s, 2.0 * s, rtol=0, atol=1e-10)
        assert np.allclose(J.u_ss, 2.0, rtol=0, atol=1e-10)

    def test_wrap_map_exact_across_seam(self):
        grid = CollarGrid(0.5, n_s=16, n_theta=16)
        u = wrap_map(grid, a=1.0)
        J = jet(u)
        assert np.allclose(J.u_theta[0], 1.0, atol=1e-12)
        assert np.allclose(J.u_s, 0.0, atol=1e-12)

    def test_trig_convergence_second_order(self):
        errs = []
        for n in (32, 64, 128):
            grid = CollarGrid(0.5, n_s=n, n_theta=8, s_max=2.0)
            u = sample_map(grid, TORUS1, lambda s, t: np.sin(s)[None])
            J = jet(u)
            exact = np.cos(grid.s_nodes)[:, None]
            errs.append(np.max(np.abs(J.u_s - exact)))
        assert math.log2(errs[0] / errs[1]) > 1.7
        assert math.log2(errs[1] / errs[2]) > 1.7

    def test_linearity(self):
        grid = CollarGrid(0.5, n_s=16, n_theta=8, s_max=2.0)
        rng = np.random.default_rng(0)
        a = rng.normal(size=(1, 16, 8))
        b = rng.normal(size=(1, 16, 8))
        torus = TargetSpec.flat_torus(1, periods=(1e9,))  # wrap never triggers
        Ja = jet(MapField(grid, a, torus))
        Jb = jet(MapField(grid, b, torus))
        Jab = jet(MapField(grid, a + 2.0 * b, torus))
        assert np.allclose(Jab.u_s, Ja.u_s + 2.0 * Jb.u_s, atol=1e-10)


    @pytest.mark.parametrize("target", [TORUS2, TargetSpec.round_sphere()],
                             ids=["flat-torus", "round-sphere"])
    def test_refilled_jet_matches_a_new_one_bitwise(self, target):
        # a jet passed as out is overwritten and sums its densities afresh
        grid = CollarGrid(0.5, n_s=24, n_theta=12, s_max=2.0)
        rng = np.random.default_rng(9)
        a, b = (MapField(grid, target.project(rng.normal(size=(target.dim, 24, 12))),
                         target) for _ in range(2))
        J = jet(a)
        J.u_s_sq, J.u_theta_sq  # cached for a
        assert jet(b, out=J) is J
        fresh = jet(b)
        for name in ("u_s", "u_theta", "u_ss", "u_thth", "d_s", "d_theta",
                     "u_s_sq", "u_theta_sq"):
            assert getattr(J, name).tobytes() == getattr(fresh, name).tobytes(), name
        assert tension(b, J).tobytes() == tension(b).tobytes()

    @pytest.mark.parametrize("target", [TORUS2, TargetSpec.round_sphere()],
                             ids=["flat-torus", "round-sphere"])
    def test_density_pass_leaves_the_scratch_rows_alone(self, target):
        # a fresh jet sums its densities on first read, in rows of its own, so
        # a tension density already returned in the scratch rows stays intact
        grid = CollarGrid(0.5, n_s=24, n_theta=12, s_max=2.0)
        rng = np.random.default_rng(13)
        u = MapField(grid, target.project(rng.normal(size=(target.dim, 24, 12))), target)
        J = jet(u)
        dens = tension_density(u, tension(u, J), J)
        want = dens.copy()
        J.u_theta_sq
        assert dens.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n_theta", [4, 7])
    @pytest.mark.parametrize("n_s", range(4, 11))
    @pytest.mark.parametrize("target", [
        TargetSpec.flat_torus(1, periods=(2.5,)),
        TargetSpec.flat_torus(2, periods=(2 * math.pi, 3.0)),
        TargetSpec.round_sphere()], ids=["torus1", "torus2", "round-sphere"])
    def test_bound_views_match_slice_formulas_bitwise(self, target, n_s, n_theta):
        # the end-row operand pairs coincide or run backwards on the
        # shortest grids; a refilled jet must show no view of the first map
        grid = CollarGrid(0.5, n_s=n_s, n_theta=n_theta, s_max=2.0)
        rng = np.random.default_rng(100 * n_s + n_theta)
        J = None
        for _ in range(2):
            raw = rng.uniform(-4.0, 4.0, size=(target.dim, n_s, n_theta))
            u = MapField(grid, target.project(raw), target)
            J = jet(u, out=J)
            for name, want in slice_formula_jet(u).items():
                assert getattr(J, name).tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("work", [False, True], ids=["no-work", "work-rows"])
    @pytest.mark.parametrize("target", [
        TargetSpec.flat_torus(1, periods=(1.5,)),
        TargetSpec.flat_torus(2, periods=(1.5, 2 * math.pi)),
        TargetSpec.round_sphere(3)], ids=["torus1", "torus2", "round-sphere"])
    def test_target_operations_work_in_place(self, target, work):
        # each operation writes its array argument and returns it, bit for bit
        # the reference formula, with or without the optional work rows
        rng = np.random.default_rng(4)
        d, v, w = rng.uniform(-5.0, 5.0, size=(3, target.dim, 6, 5))
        if target.kind == "flat-torus":
            periods = np.asarray(target.periods)[:, None, None]
            want_d, want_p = d - periods * np.round(d / periods), v.copy()
        else:
            want_d, want_p = d.copy(), v / np.linalg.norm(v, axis=0, keepdims=True)
        rows = np.empty((2, 6, 5)) if work else (None, None)
        assert target.wrap_increment(d, tmp=rows[0]) is d
        assert target.project(v, norms=rows[0], tmp=rows[1]) is v
        want_t = w - np.sum(w * v, axis=0, keepdims=True) * v \
            if target.kind == "round-sphere" else w.copy()
        assert target.tangential(v, w, c=rows[0], tmp=rows[1]) is w
        for got, want in ((d, want_d), (v, want_p), (w, want_t)):
            assert got.tobytes() == want.tobytes()


class TestTension:
    def test_harmonic_torus_map(self):
        grid = CollarGrid(0.5, n_s=32, n_theta=8, s_max=2.0)
        u = sample_map(grid, TORUS2, lambda s, t: np.stack([0.3 * s, 0 * s]))
        assert np.max(np.abs(tension(u))) < 1e-11

    def test_equatorial_wrap_is_harmonic(self):
        # geodesic wrap of the sphere equator: tension vanishes after the
        # tangential projection
        grid = CollarGrid(0.5, n_s=16, n_theta=32)
        sph = TargetSpec.round_sphere()
        u = sample_map(grid, sph,
                       lambda s, t: np.stack([np.cos(t), np.sin(t), 0 * s]))
        tau = tension(u)
        assert np.max(np.abs(tau)) < 1e-10

    def test_sphere_tangency(self):
        grid = CollarGrid(0.5, n_s=24, n_theta=16, s_max=2.0)
        sph = TargetSpec.round_sphere()

        def fn(s, t):
            x = np.cos(t + 0.3 * np.sin(s))
            y = np.sin(t + 0.3 * np.sin(s))
            z = 0.4 * np.cos(s) * np.ones_like(t)
            return np.stack([x, y, z])

        u = sample_map(grid, sph, fn)
        tau = tension(u)
        dots = np.sum(tau * u.values, axis=0)
        assert np.max(np.abs(dots)) < 1e-12

    def test_projection_drops_second_fundamental_form(self):
        # the full operator rho^-2 P_tan(u_ss + u_thth + A(u)(u_s, u_s) +
        # A(u)(u_th, u_th)), with A = 0 on the torus and A(u)(v, v) =
        # -|v|^2 u on the unit sphere, matches tension to rounding
        def full_tension(u):
            J = jet(u)

            def A(v):
                if u.target.kind == "flat-torus":
                    return np.zeros_like(v)
                return -np.sum(v * v, axis=0, keepdims=True) * u.values

            raw = J.u_ss + J.u_thth + A(J.u_s) + A(J.u_theta)
            return u.grid.rho_inv_sq[:, None] * u.target.tangential(u.values, raw)

        grid = CollarGrid(0.5, n_s=24, n_theta=16, s_max=2.0)
        sph = TargetSpec.round_sphere()
        u = sample_map(grid, sph, lambda s, t: np.stack(
            [np.cos(t + 0.3 * np.sin(s)), np.sin(t + 0.3 * np.sin(s)),
             0.4 * np.cos(s) * np.ones_like(t)]))
        J = jet(u)
        scale = np.max(grid.rho_inv_sq[:, None] * (
            np.linalg.norm(J.u_ss + J.u_thth, axis=0)
            + np.sum(J.u_s**2, axis=0) + np.sum(J.u_theta**2, axis=0)))
        err = np.max(np.abs(tension(u) - full_tension(u)))
        assert err <= 64 * np.finfo(float).eps * scale

        torus = sample_map(grid, TORUS2, lambda s, t: np.stack(
            [t + 0.3 * np.sin(s), np.cos(t) * s]))
        assert np.array_equal(tension(torus), full_tension(torus))

    def test_theta_harmonic_value(self):
        # u = sin(theta): tau_flat = -sin(theta), tau_g = -rho^-2 sin(theta)
        grid = CollarGrid(0.3, n_s=16, n_theta=256)
        u = sample_map(grid, TORUS1, lambda s, t: np.sin(t)[None])
        tau = tension(u)
        expect = -grid.rho_inv_sq[:, None] * np.sin(grid.theta_nodes)[None, :]
        assert np.allclose(tau[0], expect, atol=2e-4 * np.max(np.abs(expect)))

    def test_tension_l2_closed_form(self):
        # int |tau_g|^2 dv = pi int rho^-2 ds for u = sin(theta); the s
        # integral is l2_sq/(8 pi) by the dz^2 antiderivative
        ell = 0.3
        grid = CollarGrid(ell, n_s=4000, n_theta=512)
        u = sample_map(grid, TORUS1, lambda s, t: np.sin(t)[None])
        expect = math.sqrt(math.pi * dz2_norms(ell).l2_sq / (8 * math.pi))
        assert tension_l2(u) == pytest.approx(expect, rel=2e-4)


class TestEnergies:
    def test_wrap_map_energy(self):
        grid = CollarGrid(0.1, n_s=64, n_theta=8)
        u = wrap_map(grid, a=1.0)
        rep = energies(u)
        X = half_length(0.1)
        assert rep.E == pytest.approx(2 * math.pi * X, rel=1e-12)
        assert rep.I_theta == pytest.approx(dz2_norms(0.1).l2_sq / 4, rel=1e-4)

    def test_conformal_invariance(self):
        # E computed with rho-weights against dv equals the flat quadrature
        grid = CollarGrid(0.4, n_s=48, n_theta=16, s_max=3.0)
        rng = np.random.default_rng(9)
        u = MapField(grid, rng.normal(size=(1, 48, 16)),
                     TargetSpec.flat_torus(1, periods=(1e9,)))
        J = jet(u)
        e_flat = 0.5 * (np.sum(J.u_s**2, axis=0) + np.sum(J.u_theta**2, axis=0))
        E_weighted = grid.integrate_hyperbolic(e_flat * grid.rho_inv_sq[:, None])
        assert E_weighted == pytest.approx(energies(u).E, rel=1e-12)

    def test_cutoff_shape(self):
        delta = 1 / (2 * math.pi)
        rho = np.array([0.5 * delta, delta, 1.5 * delta, 2 * delta, 3 * delta])
        phi = smooth_cutoff(rho, delta)
        assert phi[0] == 1.0 and phi[1] == 1.0
        assert 0.0 < phi[2] < 1.0
        assert phi[3] == 0.0 and phi[4] == 0.0
        # derivative bound |phi'| <= 2/delta
        xs = np.linspace(delta, 2 * delta, 10001)
        ps = smooth_cutoff(xs, delta)
        slope = np.max(np.abs(np.diff(ps) / np.diff(xs)))
        assert slope <= 2 / delta

    def test_cutoff_sandwich(self):
        # 0 <= I - I_smooth <= delta^-2 E
        delta = 1 / (2 * math.pi)
        grid = CollarGrid(0.3, n_s=64, n_theta=16)
        rng = np.random.default_rng(21)
        coeffs = rng.normal(size=4) * 0.2

        def fn(s, t):
            out = sum(c * np.sin((k + 1) * t) * np.cos(0.1 * k * s)
                      for k, c in enumerate(coeffs))
            return out[None]

        u = sample_map(grid, TORUS1, fn)
        rep = energies(u)
        assert rep.I - rep.I_smooth >= -1e-12 * rep.I
        assert rep.I - rep.I_smooth <= rep.E / delta**2 + 1e-12

    def test_I_dominates_half_I_theta(self):
        grid = CollarGrid(0.3, n_s=32, n_theta=16)
        u = sample_map(grid, TORUS1, lambda s, t: (np.sin(t) * np.cos(0.2 * s))[None])
        rep = energies(u)
        assert rep.I >= rep.I_theta / 2

    def test_densities_formed_in_jet_scratch(self):
        import tracemalloc
        grid = CollarGrid(0.2, n_s=384, n_theta=64, s_max=8.0)
        u = sample_map(grid, TargetSpec.round_sphere(3), lambda s, t: np.stack(
            [np.cos(t) + 0.1 * np.sin(s), np.sin(t), 0.3 * np.cos(2 * t + s)]))
        J = jet(u)
        tracemalloc.start()
        try:
            rep = energies(u, jet_=J)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < grid.n_s * grid.n_theta * 8
        # the formulas as written with temporaries, bit for bit
        e_flat = 0.5 * (J.u_s_sq + J.u_theta_sq)
        w_inv = grid.rho_inv_sq[:, None]
        e_weighted = e_flat * w_inv
        assert rep == EnergyReport(
            E=grid.integrate_flat(e_flat), I=grid.integrate_flat(e_weighted),
            I_theta=grid.integrate_flat(J.u_theta_sq * w_inv),
            I_smooth=grid.integrate_flat(e_weighted * smooth_cutoff(grid.rho)[:, None]**2),
            sup_density=float(np.max(e_weighted)))


    def test_tension_l2_density_in_jet_scratch(self):
        import tracemalloc
        grid = CollarGrid(0.2, n_s=384, n_theta=64, s_max=8.0)
        u = sample_map(grid, TargetSpec.round_sphere(3), lambda s, t: np.stack(
            [np.cos(t) + 0.1 * np.sin(s), np.sin(t), 0.3 * np.cos(2 * t + s)]))
        J = jet(u)
        tau = tension(u, J)
        tracemalloc.start()
        try:
            value = tension_l2(u, tau, J)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < grid.n_s * grid.n_theta * 8
        # the density as written with temporaries: the dot, then rho^2
        want = math.sqrt(grid.integrate_flat(u.target.dot(tau, tau) * grid.rho_sq[:, None]))
        assert value == want == tension_l2(u, tau)

    def test_cutoff_kept_per_metric(self):
        # at() copies the grid's attributes, so a cutoff cached at one
        # length must not carry over to the next; rho crosses the cutoff's
        # ramp at both lengths
        g = CollarGrid(1.7, n_s=32, n_theta=8, s_max=2.0)
        ga, fresh = g.at(1.6), CollarGrid(1.1, n_s=32, n_theta=8, s_max=2.0)
        fn = lambda s, t: np.stack([np.sin(t) * np.cos(0.3 * s), 0.2 * s])
        energies(sample_map(ga, TORUS2, fn))
        assert ga.cutoff_sq is ga.cutoff_sq
        gb = ga.at(1.1)
        assert energies(sample_map(gb, TORUS2, fn)) == energies(sample_map(fresh, TORUS2, fn))
        assert gb.cutoff_sq.tobytes() == fresh.cutoff_sq.tobytes() != ga.cutoff_sq.tobytes()


class TestThetaProfile:
    def test_window_sandwich(self):
        grid = CollarGrid(0.2, n_s=400, n_theta=32)
        u = sample_map(grid, TORUS1,
                       lambda s, t: (np.sin(t) * np.exp(-0.1 * s**2))[None])
        J = jet(u)
        dens = np.sum(J.u_theta**2, axis=0)
        s0 = 1.3
        inner = (np.abs(grid.s_nodes - s0) <= 0.5)
        outer = (np.abs(grid.s_nodes - s0) < 1.0)
        lo = grid.integrate_flat(dens * inner[:, None])
        hi = grid.integrate_flat(dens * outer[:, None])
        th = theta_profile(u, s0)
        assert lo - 1e-12 <= th <= hi + 1e-12
        assert th <= 2 * energies(u, jet_=J).E + 1e-12

    def test_window_leaving_grid_rejected(self):
        grid = CollarGrid(0.5, n_s=32, n_theta=8, s_max=2.0)
        u = sample_map(grid, TORUS1, lambda s, t: np.sin(t)[None])
        with pytest.raises(DomainError):
            theta_profile(u, 1.5)

    def test_bump_profile(self):
        x = np.array([0.0, 0.5, 0.75, 1.0, -0.3, -0.9])
        b = _bump(x)
        assert b[0] == 1.0 and b[1] == 1.0 and b[3] == 0.0 and b[4] == 1.0
        assert 0 < b[2] < 1 and 0 < b[5] < 1


class TestWirtinger:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_second_vs_first_theta_derivative(self, data):
        # zero-theta-mean circles: int |u_theta_theta|^2 >= int |u_theta|^2,
        # discretely exact for central stencils mode by mode
        n_theta = 32
        grid = CollarGrid(0.5, n_s=8, n_theta=n_theta, s_max=1.0)
        n_modes = data.draw(st.integers(1, 5))
        amps = [data.draw(st.floats(-2, 2)) for _ in range(n_modes)]
        phases = [data.draw(st.floats(0, 2 * math.pi)) for _ in range(n_modes)]

        def fn(s, t):
            out = sum(a * np.cos((k + 1) * t + p)
                      for k, (a, p) in enumerate(zip(amps, phases)))
            return (out + 0 * s)[None]

        u = sample_map(grid, TORUS1, fn)
        J = jet(u)
        h = grid.theta_weight
        u_thth = (np.roll(u.values, -1, axis=2) - 2 * u.values
                  + np.roll(u.values, 1, axis=2)) / h**2
        lhs = np.sum(u_thth**2) * h
        rhs = np.sum(J.u_theta**2) * h
        assert lhs >= rhs * (1 - 1e-10)


def full_formula_wrap(target, d, tmp=None):
    """x - p rint(x / p) on every component, never skipped: the reference the
    wrap's skip must match bit for bit."""
    for k, p in enumerate(target.periods):
        x = d[..., k, :, :]
        x -= p * np.rint(x / p)
    return d


class TestLayout:
    """Map values are component-major: (dim, n_s, n_theta)."""

    def test_node_major_values_rejected_naming_the_shape(self):
        grid = CollarGrid(0.5, n_s=8, n_theta=6)
        with pytest.raises(DomainError) as err:
            MapField(grid, np.zeros((8, 6, 3)), TargetSpec.flat_torus(3))
        assert str(err.value) == "values: shape (8, 6, 3) is not (dim, n_s, n_theta) = (3, 8, 6)"

    @pytest.mark.parametrize("amp", [0.2, 5.0], ids=["small", "winding"])
    @pytest.mark.parametrize("stacked", [False, True], ids=["values", "stacked"])
    @pytest.mark.parametrize("target", [
        TargetSpec.flat_torus(1, periods=(2.5,)),
        TargetSpec.flat_torus(2, periods=(2 * math.pi, 1.5)),
        TargetSpec.round_sphere(3)], ids=["torus1", "torus2", "round-sphere"])
    def test_target_operations_match_per_component_reference(self, target, stacked, amp):
        # a (dim, n_s, n_theta) array and a stacked (2, dim, n_s, n_theta)
        # buffer go through the same code; the reference takes one component
        # plane at a time from np.moveaxis
        rng = np.random.default_rng(12)
        shape = (2,) * stacked + (target.dim, 9, 7)
        a, b, d = rng.uniform(-amp, amp, size=(3,) + shape)
        planes = lambda x: list(np.moveaxis(x, -3, 0))
        dot = planes(a)[0] * planes(b)[0]
        for pa, pb in zip(planes(a)[1:], planes(b)[1:]):
            dot = dot + pa * pb
        assert target.dot(a, b).tobytes() == dot.tobytes()
        if target.kind == "flat-torus":
            want = [x - p * np.round(x / p) for x, p in zip(planes(d), target.periods)]
            assert target.wrap_increment(d).tobytes() == np.stack(want, axis=-3).tobytes()
            return
        norms = np.sqrt(target.dot(a, a))
        u = np.stack([x / norms for x in planes(a)], axis=-3)
        assert target.project(a).tobytes() == u.tobytes()
        c = target.dot(b, u)
        want = np.stack([w - c * x for w, x in zip(planes(b), planes(u))], axis=-3)
        assert target.tangential(u, b).tobytes() == want.tobytes()
        target.check_values(u)
        with pytest.raises(DomainError, match="unit vectors"):
            target.check_values(1.01 * u)

    def test_no_component_index_on_the_last_axis(self):
        # no module reads a map component as [..., k] or [:, :, k]: the
        # component axis is -3, and the last axis is theta
        found = []
        for path in sorted(Path(collarflow.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple)):
                    continue
                *lead, last = node.slice.elts
                full = [isinstance(e, ast.Slice) and e.lower is e.upper is e.step is None
                        for e in lead]
                ellipsis = bool(lead) and isinstance(lead[0], ast.Constant) \
                    and lead[0].value is Ellipsis
                if not isinstance(last, ast.Slice) and (ellipsis and len(lead) == 1
                                                        or len(lead) >= 2 and all(full)):
                    found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
        assert found == []


class TestWrapSkip:
    """FlatTorus.wrap_increment skips its per-component passes where every
    increment lies strictly inside +-min(periods) / 2; the jet must then
    equal the full formula's jet bit for bit."""

    @staticmethod
    def jets(u, monkeypatch):
        # (the jet, the full formula's jet, whether the wrap skipped)
        rint, calls = np.rint, []
        monkeypatch.setattr(np, "rint", lambda *a, **kw: calls.append(1) or rint(*a, **kw))
        J = jet(u)
        skipped = not calls
        monkeypatch.setattr(type(u.target), "wrap_increment", full_formula_wrap)
        ref = jet(u)
        monkeypatch.undo()
        return J, ref, skipped

    @staticmethod
    def assert_same_jet(J, ref):
        for name in ("first", "second", "diffs"):
            assert getattr(J, name).tobytes() == getattr(ref, name).tobytes(), name
        assert J.u_s_sq.tobytes() == ref.u_s_sq.tobytes()

    @pytest.mark.parametrize("demo, skipped", [("wrap", False), ("relax", True)])
    def test_demo_maps(self, monkeypatch, demo, skipped):
        from collarflow.demos import build_initial, demo_config
        cfg, init = demo_config(demo)
        u = MapField(cfg.grid_at(cfg.ell0), build_initial(cfg, init), cfg.target)
        J, ref, skip = self.jets(u, monkeypatch)
        assert skip == skipped
        self.assert_same_jet(J, ref)

    def test_negative_zero_next_to_positive_zero(self, monkeypatch):
        # -0.0 - (+0.0) is -0.0, which the formula turns into +0.0
        grid = CollarGrid(0.5, n_s=8, n_theta=6)
        vals = np.zeros((1, 8, 6))
        vals[0, 1::2, ::3] = -0.0
        u = MapField(grid, vals, TORUS1)
        J, ref, skip = self.jets(u, monkeypatch)
        assert skip and not np.signbit(J.diffs).any()
        self.assert_same_jet(J, ref)

    @pytest.mark.parametrize("where, skipped", [("below", True), ("at", False),
                                                ("above", False)])
    def test_increments_at_the_half_period(self, monkeypatch, where, skipped):
        # a checkerboard of 0 and x: every s and theta increment is +-x exactly
        p = 2.5
        x = {"below": np.nextafter(p / 2, 0.0), "at": p / 2,
             "above": np.nextafter(p / 2, p)}[where]
        grid = CollarGrid(0.5, n_s=8, n_theta=6)
        vals = x * (np.add.outer(np.arange(8), np.arange(6)) % 2)[None]
        u = MapField(grid, vals, TargetSpec.flat_torus(1, periods=(p,)))
        J, ref, skip = self.jets(u, monkeypatch)
        assert skip == skipped
        assert np.array_equal(np.abs(J.d_theta), np.full((1, 8, 6), x if where != "above"
                                                         else p - x))
        self.assert_same_jet(J, ref)

    @pytest.mark.parametrize("amp, skipped", [(0.45, True), (0.6, False)])
    def test_threshold_is_the_smaller_half_period(self, monkeypatch, amp, skipped):
        # component 0 (period 1) steps by amp, component 1 (period 3) by 1.2:
        # 1.2 is inside its own half period but not inside 1 / 2
        periods = (1.0, 3.0)
        grid = CollarGrid(0.5, n_s=8, n_theta=6)
        steps = (np.add.outer(np.arange(8), np.arange(6)) % 2)[None]
        vals = np.concatenate([amp * steps, (1.2 if not skipped else 0.3) * steps])
        u = MapField(grid, vals, TargetSpec.flat_torus(2, periods=periods))
        J, ref, skip = self.jets(u, monkeypatch)
        assert skip == skipped
        self.assert_same_jet(J, ref)
        if not skipped:  # component 0 wrapped to 0.6 - 1
            assert np.allclose(np.abs(J.d_theta[0]), 0.4, rtol=0, atol=1e-15)
