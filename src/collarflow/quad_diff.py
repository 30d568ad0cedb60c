"""Quadratic differentials psi(s, theta) dz^2 on collar subcylinders.

With z = s + i theta, a quadratic differential has pointwise hyperbolic
size |psi dz^2|_g = 2 rho^-2 |psi| and the L^2 pairing

    <Psi_1, Psi_2> = 4 int psi_1 conj(psi_2) rho^-2 ds dtheta.

Holomorphic differentials decompose into the exponential modes
e^{n s} e^{i n theta} dz^2, which are mutually orthogonal in that
pairing on every subcylinder (the theta integral kills cross terms).
The n = 0 coefficient of the coordinate differential dz^2 is the
principal part; everything here (projection, splitting, decay of the
complement on the thin part) is organized around that decomposition.

Mode amplitudes span e^{+-n s_max}, which can dwarf the float range on
long collars; all coefficient extraction is anchored to the growing end
of each mode so only representable ratios are formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from collarflow.geometry import CollarGrid, DomainError, delta_thin_half_length
from collarflow.fields import MapField, MapJet, jet


@dataclass
class QuadDiffField:
    """Node-sampled quadratic differential psi dz^2 on a CollarGrid."""

    grid: CollarGrid
    psi: np.ndarray

    def __post_init__(self):
        self.psi = np.asarray(self.psi, dtype=complex)
        expected = (self.grid.n_s, self.grid.n_theta)
        if self.psi.shape != expected:
            raise DomainError(f"psi shape {self.psi.shape} != {expected}")


def lp_norm(field: QuadDiffField, p) -> float:
    """Hyperbolic L^p norm of the differential, p in {1, 2, inf}."""
    grid, psi = field.grid, field.psi
    if p == 2:
        dens = 4.0 * np.abs(psi) ** 2 * grid.rho_inv_sq[:, None]
        return math.sqrt(grid.integrate_flat(dens))
    size = 2.0 * np.abs(psi)  # |Psi|_g = size * rho^-2
    if p == 1:  # |Psi|_g dv = 2 rho^-2 |psi| rho^2 ds dtheta: weights cancel
        return grid.integrate_flat(size)
    if p in (math.inf, "inf"):
        return float(np.max(size * grid.rho_inv_sq[:, None]))
    raise DomainError(f"unsupported p = {p!r}")


def inner_product(f1: QuadDiffField, f2: QuadDiffField) -> complex:
    """<Psi_1, Psi_2> = 4 int psi_1 conj(psi_2) rho^-2 ds dtheta."""
    grid, other = f1.grid, f2.grid
    if grid is not other and (grid.ell, grid.n_s, grid.n_theta, grid.s_max) != \
            (other.ell, other.n_s, other.n_theta, other.s_max):
        raise DomainError("inner product needs both fields on the same grid")
    dens = f1.psi * np.conj(f2.psi)
    w = grid.pairing_weights
    return complex(4.0 * grid.theta_weight * np.einsum("s,st->", w, dens))


def coordinate_differential(grid: CollarGrid) -> QuadDiffField:
    """The differential dz^2 itself (psi identically 1)."""
    return QuadDiffField(grid, np.ones((grid.n_s, grid.n_theta), dtype=complex))


@dataclass
class PrincipalSplit:
    """Orthogonal split Psi = b0 dz^2 + remainder on the grid's subcylinder."""

    b0: complex
    principal: QuadDiffField
    remainder: QuadDiffField


def principal_coefficient(field: QuadDiffField) -> complex:
    """b0 = <Psi, dz^2> / ||dz^2||^2, the rho^-2-weighted mean of psi.

    Both pairings are quadratured on the field's own grid, so the
    constant factor 4 and the theta weight cancel.
    """
    grid = field.grid
    w = grid.pairing_weights
    return complex(np.einsum("s,st->", w, field.psi)) / (grid.n_theta * float(np.sum(w)))


def principal_split(field: QuadDiffField) -> PrincipalSplit:
    """L^2-orthogonal projection onto the span of dz^2.

    b0 is the principal_coefficient on the field's own grid, so the
    split is exactly orthogonal in the discrete pairing and the
    Pythagoras identity holds to rounding.
    """
    grid = field.grid
    b0 = principal_coefficient(field)
    principal = QuadDiffField(grid, np.full_like(field.psi, b0))
    remainder = QuadDiffField(grid, field.psi - b0)
    return PrincipalSplit(b0=b0, principal=principal, remainder=remainder)


@dataclass
class FourierQD:
    """Holomorphic mode coefficients b_n for |n| <= n_max on a grid."""

    grid: CollarGrid
    n_max: int
    coeffs: np.ndarray  # complex, index n + n_max

    def coefficient(self, n: int) -> complex:
        if abs(n) > self.n_max:
            raise DomainError(f"mode {n} outside |n| <= {self.n_max}")
        return complex(self.coeffs[n + self.n_max])


def _mode_anchor(n: int, s_max: float) -> float:
    # anchor each mode at the end where it is largest, so scaled samples
    # e^{n (s - anchor)} stay <= 1
    if n > 0:
        return s_max
    if n < 0:
        return -s_max
    return 0.0


def fourier_decompose(field: QuadDiffField, n_max: int = 16) -> FourierQD:
    """Mode coefficients b_n = <Psi, phi_n> / ||phi_n||^2, phi_n = e^{ns} e^{in theta} dz^2.

    The theta reduction is a DFT (exact orthogonality below Nyquist:
    2 n_max < n_theta is required); the s reduction shares one quadrature
    between numerator and denominator, so finite mode sums are recovered
    exactly.  Coefficients whose true size falls below the float range
    underflow to zero.
    """
    grid = field.grid
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    if 2 * n_max >= grid.n_theta:
        raise DomainError(f"n_max = {n_max} at or beyond Nyquist for n_theta = {grid.n_theta}")
    dft = np.fft.fft(field.psi, axis=1) / grid.n_theta  # row-wise theta averages
    coeffs = np.zeros(2 * n_max + 1, dtype=complex)
    for n in range(-n_max, n_max + 1):
        anchor = _mode_anchor(n, grid.s_max)
        scaled = np.exp(n * (grid.s_nodes - anchor))
        den = float(np.sum(grid.pairing_weights * scaled * scaled))
        num = complex(np.sum(grid.pairing_weights * scaled * dft[:, n % grid.n_theta]))
        coeffs[n + n_max] = (num / den) * math.exp(-n * anchor)
    return FourierQD(grid=grid, n_max=n_max, coeffs=coeffs)


def synthesize(modes: FourierQD | dict, grid: CollarGrid | None = None) -> QuadDiffField:
    """Sum b_n e^{n s} e^{i n theta} dz^2 over the given modes.

    Accepts a FourierQD or a plain {n: b_n} mapping (the latter needs an
    explicit grid).  The caller is responsible for keeping b_n e^{n s_max}
    within float range; see scaled_mode_field for unit-sup single modes
    on long collars.
    """
    if isinstance(modes, FourierQD):
        grid = modes.grid
        pairs = [(n - modes.n_max, c) for n, c in enumerate(modes.coeffs) if c != 0]
    else:
        if grid is None:
            raise DomainError("synthesize from a dict needs a grid")
        pairs = sorted(modes.items())
    psi = np.zeros((grid.n_s, grid.n_theta), dtype=complex)
    for n, b in pairs:
        if b == 0:
            continue
        with np.errstate(over="ignore"):
            radial = np.exp(n * grid.s_nodes)
        if not np.isfinite(radial).all():
            raise DomainError(f"mode {n} overflows on this grid; use scaled_mode_field")
        psi += b * np.outer(radial, np.exp(1j * n * grid.theta_nodes))
    return QuadDiffField(grid, psi)


def scaled_mode_field(grid: CollarGrid, n: int) -> QuadDiffField:
    """Single holomorphic mode e^{n (s - anchor)} e^{i n theta} dz^2, unit sup.

    Mathematically the mode n with coefficient e^{-n anchor}, built
    without materializing that coefficient; scale-invariant diagnostics
    (decay ratios, slopes) are unaffected by the normalization.
    """
    if n == 0:
        return coordinate_differential(grid)
    anchor = _mode_anchor(n, grid.s_max)
    radial = np.exp(n * (grid.s_nodes - anchor))
    return QuadDiffField(grid, np.outer(radial, np.exp(1j * n * grid.theta_nodes)))


def project_holomorphic(field: QuadDiffField, n_max: int = 16) -> tuple[QuadDiffField, FourierQD]:
    """Orthogonal projection onto the discrete holomorphic modes |n| <= n_max.

    The modes are exactly orthogonal in the discrete pairing, so the
    projection is a contraction: ||P Psi||_2 <= ||Psi||_2.
    """
    mc = fourier_decompose(field, n_max=n_max)
    return synthesize(mc), mc


def hopf_differential(u: MapField, jet_: MapJet | None = None) -> QuadDiffField:
    """Hopf differential of a map: (|u_s|^2 - |u_theta|^2 - 2 i <u_s, u_theta>) dz^2.

    Vanishes exactly on (weakly) conformal maps, and its hyperbolic L^1
    norm never exceeds four times the coordinate energy.
    """
    J = jet_ or jet(u)
    psi = J.u_s_sq - J.u_theta_sq - 2j * u.target.dot(J.u_s, J.u_theta)
    return QuadDiffField(u.grid, psi)


def thin_thick_decay_ratio(field: QuadDiffField, delta: float,
                           delta0: float = 0.2) -> float:
    """sup of |Psi|_g over the delta-thin part / L^2 norm over the delta0-thick part.

    For differentials with vanishing principal part this ratio decays
    like delta^-2 e^{-pi/delta} (faster for higher modes).  Requires the
    grid to reach into both regions.
    """
    grid = field.grid
    ell = grid.ell
    x_thin = delta_thin_half_length(ell, delta)
    x_thick = delta_thin_half_length(ell, delta0)
    if x_thin <= 0.0:
        raise DomainError(f"delta-thin part empty for ell = {ell}, delta = {delta}")
    thin = np.abs(grid.s_nodes) <= x_thin
    thick = np.abs(grid.s_nodes) >= x_thick
    if not thin.any() or not thick.any():
        raise DomainError("grid does not resolve the requested thin/thick parts")
    # rows outside a part hold exact zeros, so each norm sees that part alone
    part = lambda rows: QuadDiffField(grid, np.where(rows[:, None], field.psi, 0.0))
    sup_thin = lp_norm(part(thin), math.inf)
    l2_thick = lp_norm(part(thick), 2)
    if l2_thick == 0.0:
        raise DomainError("differential vanishes on the thick part")
    return sup_thin / l2_thick
