"""Quadratic differentials: norms, mode decomposition, principal split, decay."""

import math

import numpy as np
import pytest

from collarflow.fields import (MapField, TargetSpec, energies, jet, sample_map, tension,
                               tension_density)
from collarflow.geometry import (CollarGrid, DomainError, delta_thin_half_length,
                                 dz2_norms, half_length)
from collarflow.quad_diff import (
    THICK_DELTA,
    QuadDiffField,
    coordinate_differential,
    fourier_decompose,
    hopf_differential,
    inner_product,
    lp_norm,
    principal_split,
    project_holomorphic,
    scaled_mode_field,
    synthesize,
    thin_thick_decay_ratio,
)


@pytest.fixture
def short_grid():
    # truncated subcylinder: keeps e^{n s} well within float range
    return CollarGrid(0.1, n_s=200, n_theta=32, s_max=3.0)


class TestNorms:
    def test_dz2_norms_match_closed_forms(self):
        grid = CollarGrid(0.2, n_s=20000, n_theta=8)
        dz2 = coordinate_differential(grid)
        n = dz2_norms(0.2)
        assert lp_norm(dz2, 1) == pytest.approx(n.l1, rel=1e-12)
        assert lp_norm(dz2, 2) ** 2 == pytest.approx(n.l2_sq, rel=1e-8)
        # sup of 2 rho^-2 over cell centers sits just inside the core value
        assert lp_norm(dz2, math.inf) == pytest.approx(n.linf, rel=1e-6)

    def test_inner_product_consistency(self, short_grid):
        rng = np.random.default_rng(3)
        psi = rng.normal(size=(200, 32)) + 1j * rng.normal(size=(200, 32))
        f = QuadDiffField(short_grid, psi)
        ip = inner_product(f, f)
        assert ip.imag == pytest.approx(0.0, abs=1e-9 * abs(ip))
        assert math.sqrt(ip.real) == pytest.approx(lp_norm(f, 2), rel=1e-12)

    def test_inner_product_needs_equal_core_length(self):
        a = QuadDiffField(CollarGrid(0.1, 40, 8, s_max=3.0), np.ones((40, 8)))
        b = QuadDiffField(CollarGrid(0.2, 40, 8, s_max=3.0), np.ones((40, 8)))
        for f1, f2 in ((a, b), (b, a)):
            with pytest.raises(DomainError, match="same grid"):
                inner_product(f1, f2)
        twin = QuadDiffField(CollarGrid(0.1, 40, 8, s_max=3.0), np.ones((40, 8)))
        assert twin.grid is not a.grid
        assert inner_product(a, twin) == inner_product(a, a)

    def test_holder_consistency(self, short_grid):
        rng = np.random.default_rng(4)
        psi = rng.normal(size=(200, 32)) + 1j * rng.normal(size=(200, 32))
        f = QuadDiffField(short_grid, psi)
        dz2 = coordinate_differential(short_grid)
        lhs = abs(inner_product(f, dz2))
        assert lhs <= lp_norm(f, 1) * lp_norm(dz2, math.inf) * (1 + 1e-12)


class TestFourier:
    def test_round_trip_exact(self, short_grid):
        modes = {0: 1.5 - 0.25j, 1: 0.3 + 0.1j, -2: -0.7j, 3: 0.05}
        f = synthesize(modes, short_grid)
        mc = fourier_decompose(f, n_max=5)
        for n in range(-5, 6):
            expect = modes.get(n, 0.0)
            assert mc[n] == pytest.approx(expect, abs=1e-10)
        back = synthesize(mc, short_grid)
        assert np.allclose(back.psi, f.psi, atol=1e-9)

    def test_mode_orthogonality_on_subcylinders(self):
        # orthogonality holds on any subcylinder, not just the full collar
        for s_max in (1.0, 2.5):
            grid = CollarGrid(0.3, n_s=64, n_theta=16, s_max=s_max)
            f1 = synthesize({1: 1.0}, grid)
            f2 = synthesize({2: 1.0}, grid)
            f0 = coordinate_differential(grid)
            scale = lp_norm(f1, 2) * lp_norm(f2, 2)
            assert abs(inner_product(f1, f2)) < 1e-12 * scale
            assert abs(inner_product(f1, f0)) < 1e-12 * lp_norm(f1, 2) * lp_norm(f0, 2)

    def test_modes_keyed_in_ascending_n(self, short_grid):
        f = synthesize({0: 1.5 - 0.25j, 1: 0.3 + 0.1j, -2: -0.7j}, short_grid)
        for n_max in (0, 1, 5):
            assert list(fourier_decompose(f, n_max)) == list(range(-n_max, n_max + 1))

    def test_nyquist_guard(self, short_grid):
        with pytest.raises(DomainError):
            fourier_decompose(coordinate_differential(short_grid), n_max=16)

    def test_negative_n_max_named(self, short_grid):
        with pytest.raises(DomainError, match="n_max must be >= 0, got -1"):
            fourier_decompose(coordinate_differential(short_grid), n_max=-1)

    def test_overflow_guard(self):
        grid = CollarGrid(0.05, n_s=64, n_theta=8)  # full collar, s_max ~ 194
        with pytest.raises(DomainError):
            synthesize({4: 1.0}, grid)
        # the anchored constructor stays finite, sup at most 1 (attained in
        # the limit of nodes approaching the anchor end)
        f = scaled_mode_field(grid, 4)
        assert np.isfinite(f.psi).all()
        assert 0.0 < np.max(np.abs(f.psi)) <= 1.0
        fine = scaled_mode_field(CollarGrid(0.05, n_s=4096, n_theta=8), 4)
        assert np.max(np.abs(fine.psi)) == pytest.approx(math.exp(-4 * fine.grid.h_s / 2), rel=1e-9)


class TestPrincipalSplit:
    def test_constant_field(self, short_grid):
        f = QuadDiffField(short_grid, np.full((200, 32), 2.0 - 1.0j))
        split = principal_split(f)
        assert split.b0 == pytest.approx(2.0 - 1.0j, rel=1e-12)
        assert lp_norm(split.remainder, 2) < 1e-10

    def test_pythagoras(self, short_grid):
        rng = np.random.default_rng(11)
        psi = rng.normal(size=(200, 32)) + 1j * rng.normal(size=(200, 32))
        f = QuadDiffField(short_grid, psi)
        split = principal_split(f)
        total = lp_norm(f, 2) ** 2
        principal = QuadDiffField(short_grid, np.full_like(f.psi, split.b0))
        parts = lp_norm(principal, 2) ** 2 + lp_norm(split.remainder, 2) ** 2
        assert parts == pytest.approx(total, rel=1e-11)

    def test_split_orthogonal(self, short_grid):
        rng = np.random.default_rng(12)
        f = QuadDiffField(short_grid, rng.normal(size=(200, 32)))
        split = principal_split(f)
        principal = QuadDiffField(short_grid, np.full_like(f.psi, split.b0))
        ip = inner_product(split.remainder, principal)
        assert abs(ip) < 1e-10 * max(1.0, lp_norm(f, 2) ** 2)

    def test_b0_against_small_ell_coefficient(self):
        # b0 = <Psi, dz^2>/||dz^2||^2 differs from (ell^3/32 pi^5) <Psi, dz^2>
        # at relative order ell^3/(6 pi)
        for ell in (0.05, 0.1):
            grid = CollarGrid(ell, n_s=3000, n_theta=8)
            bump = np.exp(-grid.s_nodes**2)[:, None] * np.ones((1, 8))
            f = QuadDiffField(grid, bump)
            split = principal_split(f)
            ip = inner_product(f, coordinate_differential(grid))
            approx = (ell**3 / (32 * math.pi**5)) * ip
            gap = abs(split.b0 - approx) / abs(split.b0)
            assert gap == pytest.approx(ell**3 / (6 * math.pi), rel=0.05)

    def test_projection_bound_by_l1(self):
        # |b0 - (ell^3/32 pi^5) <Psi, dz^2>| <= K ell^3 ||Psi||_1 with one K
        ratios = []
        for ell in (0.05, 0.1, 0.2):
            grid = CollarGrid(ell, n_s=3000, n_theta=8)
            rng = np.random.default_rng(17)
            psi = rng.normal(size=(3000, 1)) * np.ones((1, 8))
            f = QuadDiffField(grid, psi)
            b0 = principal_split(f).b0
            ip = inner_product(f, coordinate_differential(grid))
            err = abs(b0 - (ell**3 / (32 * math.pi**5)) * ip)
            ratios.append(err / (ell**3 * lp_norm(f, 1)))
        K = max(ratios)
        assert K < 1.0  # uniformly small coefficient
        assert max(ratios) / min(ratios) < 10.0


class TestProjection:
    def test_contraction_on_noise(self, short_grid):
        rng = np.random.default_rng(23)
        f = QuadDiffField(short_grid, rng.normal(size=(200, 32)))
        proj, _ = project_holomorphic(f, n_max=8)
        assert lp_norm(proj, 2) <= lp_norm(f, 2) * (1 + 1e-12)

    def test_fixed_point_on_holomorphic(self, short_grid):
        f = synthesize({0: 1.0, 2: 0.3 - 0.2j}, short_grid)
        proj, mc = project_holomorphic(f, n_max=4)
        assert np.allclose(proj.psi, f.psi, atol=1e-10)
        assert mc[2] == pytest.approx(0.3 - 0.2j, abs=1e-12)

    def test_projection_is_the_synthesized_decomposition(self, short_grid):
        rng = np.random.default_rng(29)
        f = QuadDiffField(short_grid, rng.normal(size=(200, 32)) + 1j * rng.normal(size=(200, 32)))
        proj, _ = project_holomorphic(f, n_max=6)
        np.testing.assert_array_equal(proj.psi, synthesize(fourier_decompose(f, 6), short_grid).psi)


def _tension_density(u, J):
    """u's tension density, formed in J's scratch rows."""
    return tension_density(u, tension(u, J), J)


class TestHopf:
    @pytest.mark.parametrize("kind", ["random", "theta-only"])
    def test_psi_matches_complex_formula_bitwise(self, kind):
        # written in place, psi keeps every bit of the complex expression,
        # including the +0.0 imaginary part where u_s vanishes
        grid = CollarGrid(0.3, n_s=32, n_theta=16, s_max=2.5)
        target = TargetSpec.flat_torus(2)
        if kind == "random":
            vals = np.random.default_rng(3).uniform(-2.0, 2.0, size=(2, 32, 16))
        else:
            vals = np.stack(np.broadcast_arrays(
                0.3 * np.cos(grid.theta_nodes), -0.2 * np.sin(2 * grid.theta_nodes)))[:, None]
            vals = vals.repeat(32, axis=1)
        u = MapField(grid, vals, target)
        J = jet(u)
        want = J.u_s_sq - J.u_theta_sq - 2j * target.dot(J.u_s, J.u_theta)
        psi = hopf_differential(u, jet_=J).psi
        assert psi.tobytes() == want.tobytes()
        if kind == "theta-only":
            assert not np.signbit(psi.imag).any()

    @pytest.mark.parametrize("target, first", [
        pytest.param(TargetSpec.flat_torus(2), energies, id="flat-torus2"),
        pytest.param(TargetSpec.round_sphere(), energies, id="round-sphere"),
        pytest.param(TargetSpec.flat_torus(2), _tension_density,
                     id="flat-torus2-tension_density"),
        pytest.param(TargetSpec.round_sphere(), _tension_density,
                     id="round-sphere-tension_density")])
    def test_psi_of_a_fresh_jet_equals_psi_after_energies_bitwise(self, target, first):
        # on a fresh or refilled jet hopf_differential sums the densities
        # itself, and neither that pass nor an earlier user of the scratch
        # rows (energies, tension_density) may change the cross term; the
        # flow traces cannot show it, since sampled rows sum the densities
        # before hopf_differential and other steps read Re b0 alone
        grid = CollarGrid(0.3, n_s=32, n_theta=16, s_max=2.5)
        rng = np.random.default_rng(11)
        maps = [MapField(grid, target.project(rng.uniform(-2.0, 2.0, (target.dim, 32, 16))),
                         target) for _ in range(2)]
        for u in maps:
            used = jet(u)
            first(u, used)
            want = hopf_differential(u, used).psi.tobytes()
            assert hopf_differential(u, jet(u)).psi.tobytes() == want
        J = jet(maps[0])
        first(maps[0], J)
        assert hopf_differential(maps[1], jet(maps[1], out=J)).psi.tobytes() == want

    def test_wrap_map_constant_hopf(self):
        grid = CollarGrid(0.3, n_s=48, n_theta=16)
        torus = TargetSpec.flat_torus(2)
        u = sample_map(grid, torus, lambda s, t: np.stack([t, 0 * s]))
        h = hopf_differential(u)
        # |u_s|^2 - |u_theta|^2 - 2i<u_s, u_theta> = -1 everywhere
        assert np.allclose(h.psi, -1.0, atol=1e-12)

    def test_conformal_map_vanishing(self):
        # u = (cos theta, sin theta, 0) wraps the equator conformally in theta
        # but has no s dependence; the conformal example is the identity-type
        # map (s, theta) -> (cos theta, sin theta) scaled in s: use a torus
        # map u = (s, theta) which is an isometry of the flat cylinder.
        grid = CollarGrid(0.8, n_s=48, n_theta=16, s_max=2.0)
        torus = TargetSpec.flat_torus(2, periods=(1000.0, 2 * math.pi))
        u = sample_map(grid, torus, lambda s, t: np.stack([s, t]))
        h = hopf_differential(u)
        assert np.max(np.abs(h.psi)) < 1e-10

    def test_l1_energy_bound(self):
        grid = CollarGrid(0.4, n_s=48, n_theta=16, s_max=3.0)
        torus = TargetSpec.flat_torus(1)
        rng = np.random.default_rng(5)
        coeffs = rng.normal(size=(3, 4)) * 0.1

        def fn(s, t):
            out = np.zeros_like(s)
            for k in range(3):
                for m in range(4):
                    out += coeffs[k, m] * np.sin((m + 1) * t + k) * np.cos(0.5 * k * s)
            return out[None]

        u = sample_map(grid, torus, fn)
        from collarflow.fields import energies
        E = energies(u).E
        assert lp_norm(hopf_differential(u), 1) <= 4 * E * (1 + 1e-12)


class TestDecay:
    def test_ratio_scaling_single_modes(self):
        # sup over the delta-thin part relative to the 0.2-thick L^2 norm
        # decays like delta^-2 e^{-|n| pi / delta}; slope per unit rate
        # within 10% of 1, and one constant covers all modes
        consts = []
        for ell in (0.05, 0.1):
            deltas = [d for d in (0.05, 0.1, 0.2) if d > ell / 2]
            grid = CollarGrid(ell, n_s=6000, n_theta=16)
            for n in (1, 2, 3, 4):
                f = scaled_mode_field(grid, n)
                xs, ys = [], []
                for d in deltas:
                    r = thin_thick_decay_ratio(f, d)
                    xs.append(-math.pi / d)
                    ys.append(math.log(r))
                    consts.append(r / (d**-2 * math.exp(-math.pi / d)))
                slope = np.polyfit(xs, ys, 1)[0]
                assert slope / n == pytest.approx(1.0, abs=0.1)
        C = max(consts)
        assert np.isfinite(C)

    def test_ratio_matches_inline_formula_bitwise(self):
        # thin-part sup and thick-part L^2 written out on the masked rows
        ell, delta = 0.1, 0.1
        grid = CollarGrid(ell, n_s=2000, n_theta=8)
        f = scaled_mode_field(grid, 2)
        thin = np.abs(grid.s_nodes) <= delta_thin_half_length(ell, delta)
        thick = np.abs(grid.s_nodes) >= delta_thin_half_length(ell, THICK_DELTA)
        size = 2.0 * np.abs(f.psi) * grid.rho_inv_sq[:, None]
        dens = 4.0 * np.abs(f.psi) ** 2 * grid.rho_inv_sq[:, None]
        l2_thick = math.sqrt(float(np.einsum("s,st->", grid.s_weights * thick, dens))
                             * grid.theta_weight)
        expected = float(np.max(size[thin])) / l2_thick
        assert THICK_DELTA == 0.2
        assert thin_thick_decay_ratio(f, delta) == expected

    def test_zero_principal_part_required(self):
        grid = CollarGrid(0.1, n_s=2000, n_theta=8)
        f = scaled_mode_field(grid, 1)
        assert abs(principal_split(f).b0) < 1e-12 * np.max(np.abs(f.psi))

    def test_empty_thin_part_raises(self):
        grid = CollarGrid(0.1, n_s=2000, n_theta=8)
        with pytest.raises(DomainError):
            thin_thick_decay_ratio(scaled_mode_field(grid, 1), delta=0.05)
