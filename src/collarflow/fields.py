"""Maps from the collar cylinder into flat tori and round spheres.

Discrete maps are node-sampled vector fields on a CollarGrid.  The
derivative stencils are chosen so the algebra downstream (Hopf
differentials, energy identities, length evolution) is exact on the
model maps used throughout the tests:

  * theta is periodic, so theta derivatives are central everywhere,
    with torus increments reduced modulo the periods; winding maps such
    as u = (a theta, 0) differentiate exactly across the seam,
  * s derivatives are central in the interior and one-sided second
    order on the two boundary rows, hence exact on fields linear in s.

One pass (jet) builds the wrapped s and theta differences once and
returns them with the first and pure second derivatives.  The tension
field is rho^-2 P_tan(u_ss + u_thth): the target's second fundamental
form is zero on the torus and radial on the sphere, so the tangential
projection removes it.

Every sum over the target-component axis (the densities |u_s|^2 and
|u_theta|^2, the Hopf cross term, the tension density, the tangential
and sphere projections and the unit-norm check) goes through
TargetSpec.dot, which adds the component products in component order.

Energies are reported in the conformal picture: the coordinate energy
E = 1/2 int |du|^2 ds dtheta is invariant under the conformal factor,
while the weighted quantities (I, I_theta, the cutoff variant) carry
explicit rho^-2 weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from collarflow.geometry import CollarGrid, DomainError

# cutoff scale for the smoothed weighted energy: the cutoff is 1 where
# rho <= _CUTOFF_DELTA and falls to 0 at 2 * _CUTOFF_DELTA
_CUTOFF_DELTA = 1.0 / (2.0 * math.pi)


@dataclass(frozen=True)
class TargetSpec:
    """Target manifold: a flat torus R^d / (periods Z^d) or the round unit sphere.

    kind is "flat-torus" or "round-sphere".  For the torus, periods holds
    one period per component; increments between nearby samples are
    reduced to the nearest representative so winding maps differentiate
    cleanly.  For the sphere, dim is the ambient dimension and values
    are unit vectors.
    """

    kind: str
    dim: int
    periods: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("flat-torus", "round-sphere"):
            raise DomainError(f"unknown target kind {self.kind!r}")
        if self.kind == "flat-torus":
            if self.dim < 1 or self.periods is None or len(self.periods) != self.dim:
                raise DomainError("flat torus needs dim >= 1 and one period per component")
            if not all(0 < p < math.inf for p in self.periods):
                raise DomainError(f"torus periods must be positive and finite, "
                                  f"got periods = {list(self.periods)}")
        elif self.dim < 2:
            raise DomainError("sphere ambient dimension must be >= 2")
        elif self.periods is not None:
            raise DomainError("sphere target takes no periods")

    @staticmethod
    def flat_torus(dim: int = 1, periods=None) -> "TargetSpec":
        if periods is None:
            periods = (2.0 * math.pi,) * dim
        return TargetSpec("flat-torus", dim, tuple(float(p) for p in periods))

    @staticmethod
    def round_sphere(dim: int = 3) -> "TargetSpec":
        return TargetSpec("round-sphere", dim)

    def wrap_increment(self, d: np.ndarray) -> np.ndarray:
        """Reduce component increments to the nearest torus representative."""
        if self.kind != "flat-torus":
            return d
        p = np.asarray(self.periods)
        return d - p * np.round(d / p)

    def dot(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """<a, b> summed over the last (component) axis in component order.

        The in-order sum is bit-identical to np.sum(a * b, axis=-1) for
        the short component axes used here and runs several times faster.
        """
        out = a[..., 0] * b[..., 0]
        for k in range(1, a.shape[-1]):
            out += a[..., k] * b[..., k]
        return out

    def project(self, values: np.ndarray) -> np.ndarray:
        """Closest-point projection onto the target."""
        if self.kind == "flat-torus":
            return values
        norms = np.sqrt(self.dot(values, values))
        if np.any(norms == 0.0):
            raise DomainError("cannot project the zero vector onto the sphere")
        return values / norms[..., None]

    def tangential(self, u: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Project w onto the tangent space of the target at u."""
        if self.kind == "flat-torus":
            return w
        return w - self.dot(w, u)[..., None] * u


@dataclass
class MapField:
    """Node-sampled map u: grid -> target, values of shape (n_s, n_theta, dim)."""

    grid: CollarGrid
    values: np.ndarray
    target: TargetSpec

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expected = (self.grid.n_s, self.grid.n_theta, self.target.dim)
        if self.values.shape != expected:
            raise DomainError(f"values shape {self.values.shape} != {expected}")
        if not np.isfinite(self.values).all():
            raise DomainError("map values must be finite")
        if self.target.kind == "round-sphere":
            norms = np.sqrt(self.target.dot(self.values, self.values))
            if np.max(np.abs(norms - 1.0)) > 1e-9:
                raise DomainError("sphere map values must be unit vectors")


def sample_map(grid: CollarGrid, target: TargetSpec, fn) -> MapField:
    """Build a MapField by sampling fn(s, theta) -> dim-vector on the grid."""
    S, T = np.meshgrid(grid.s_nodes, grid.theta_nodes, indexing="ij")
    vals = np.asarray(fn(S, T), dtype=float)
    if vals.shape[:2] != (grid.n_s, grid.n_theta):
        vals = np.moveaxis(vals, 0, -1)
    return MapField(grid, target.project(vals), target)


@dataclass
class MapJet:
    """First and pure second derivatives of a map at the grid nodes, the wrapped
    forward differences d_s (between s rows) and d_theta (periodic), and the
    densities |u_s|^2 and |u_theta|^2 in the target's inner product, each
    summed on first read and kept."""

    target: TargetSpec
    u_s: np.ndarray
    u_theta: np.ndarray
    u_ss: np.ndarray
    u_thth: np.ndarray
    d_s: np.ndarray
    d_theta: np.ndarray

    @cached_property
    def u_s_sq(self) -> np.ndarray:
        return self.target.dot(self.u_s, self.u_s)

    @cached_property
    def u_theta_sq(self) -> np.ndarray:
        return self.target.dot(self.u_theta, self.u_theta)


def jet(u: MapField) -> MapJet:
    """First and pure second derivatives from one pass over the wrapped
    increments: central interior / one-sided second order in s, periodic
    central in theta."""
    grid, target = u.grid, u.target
    h_s, h_t = grid.h_s, grid.theta_weight
    v = u.values

    D = target.wrap_increment(v[1:] - v[:-1])  # (n_s-1, n_theta, d)
    u_s = np.empty_like(v)
    u_s[1:-1] = (D[1:] + D[:-1]) / (2.0 * h_s)
    u_s[0] = (3.0 * D[0] - D[1]) / (2.0 * h_s)
    u_s[-1] = (3.0 * D[-1] - D[-2]) / (2.0 * h_s)
    u_ss = np.empty_like(v)
    u_ss[1:-1] = (D[1:] - D[:-1]) / h_s**2
    u_ss[0] = (-2.0 * D[0] + 3.0 * D[1] - D[2]) / h_s**2
    u_ss[-1] = (-2.0 * D[-1] + 3.0 * D[-2] - D[-3]) / h_s**2

    Dt = target.wrap_increment(np.roll(v, -1, axis=1) - v)  # periodic
    Dt_back = np.roll(Dt, 1, axis=1)
    u_theta = (Dt + Dt_back) / (2.0 * h_t)
    u_thth = (Dt - Dt_back) / h_t**2
    return MapJet(target=target, u_s=u_s, u_theta=u_theta, u_ss=u_ss,
                  u_thth=u_thth, d_s=D, d_theta=Dt)


def tension(u: MapField, jet_: MapJet | None = None) -> np.ndarray:
    """Tension field tau_g(u) = rho^-2 P_tan(u_ss + u_thth).

    The tangential projection makes the result tangent to the target at
    u by construction, and it removes the second fundamental form terms
    of the full operator: they vanish on the torus and are radial on the
    sphere.  Returns an array of shape (n_s, n_theta, dim).
    """
    J = jet_ or jet(u)
    flat = u.target.tangential(u.values, J.u_ss + J.u_thth)
    return u.grid.rho_inv_sq[:, None, None] * flat


def tension_l2(u: MapField, tau: np.ndarray | None = None) -> float:
    """||tau_g(u)||_{L^2} in the hyperbolic metric.

    |tau_g|^2 dv = rho^-2 |tau_flat|^2 ds dtheta, i.e. the norm of
    rho tau_g against the flat measure.
    """
    if tau is None:
        tau = tension(u)
    return math.sqrt(u.grid.integrate_flat(tension_density(u, tau)))


def tension_density(u: MapField, tau: np.ndarray) -> np.ndarray:
    """|tau_g|^2 rho^2 per node, the tension density against ds dtheta."""
    return u.target.dot(tau, tau) * u.grid.rho_sq[:, None]


def smooth_cutoff(rho: np.ndarray, delta: float = _CUTOFF_DELTA) -> np.ndarray:
    """Quintic-smoothstep cutoff: 1 for rho <= delta, 0 for rho >= 2 delta.

    The quintic ramp keeps |phi'| <= 15/(8 delta) < 2/delta.
    """
    x = np.clip((np.asarray(rho) - delta) / delta, 0.0, 1.0)
    return 1.0 - x**3 * (10.0 - 15.0 * x + 6.0 * x**2)


@dataclass(frozen=True)
class EnergyReport:
    """Energy functionals of a map in one sweep.

    E         coordinate (conformal) energy 1/2 int |du|^2 ds dtheta
    I         rho^-2-weighted energy
    I_theta   rho^-2-weighted angular energy int rho^-2 |u_theta|^2
    I_smooth  cutoff-weighted variant of I (cutoff on the conformal factor)
    sup_density  max of the weighted energy density e = 1/2 |du|^2 rho^-2
    """

    E: float
    I: float
    I_theta: float
    I_smooth: float
    sup_density: float


def energies(u: MapField, jet_: MapJet | None = None) -> EnergyReport:
    grid = u.grid
    J = jet_ or jet(u)
    e_flat = 0.5 * (J.u_s_sq + J.u_theta_sq)
    w_inv = grid.rho_inv_sq[:, None]
    e_weighted = e_flat * w_inv

    E = grid.integrate_flat(e_flat)
    I = grid.integrate_flat(e_weighted)
    I_theta = grid.integrate_flat(J.u_theta_sq * w_inv)
    I_smooth = grid.integrate_flat(e_weighted * smooth_cutoff(grid.rho)[:, None]**2)
    sup_density = float(np.max(e_weighted))
    return EnergyReport(E=E, I=I, I_theta=I_theta, I_smooth=I_smooth,
                        sup_density=sup_density)


def _bump(x: np.ndarray) -> np.ndarray:
    """Squared-cosine bump: 1 on [-1/2, 1/2], supported in (-1, 1), C^1 ramps."""
    ax = np.abs(np.asarray(x, dtype=float))
    out = np.zeros_like(ax)
    out[ax <= 0.5] = 1.0
    ramp = (ax > 0.5) & (ax < 1.0)
    out[ramp] = np.cos(math.pi * (ax[ramp] - 0.5)) ** 2
    return out


def theta_profile(u: MapField, s0: float) -> float:
    """Windowed angular energy Theta(s0) = int bump^4(s - s0) |u_theta|^2.

    The window is 1 on [s0 - 1/2, s0 + 1/2] and supported in
    (s0 - 1, s0 + 1), so Theta is sandwiched between the angular energy
    of those two bands and never exceeds twice the total energy.
    """
    grid = u.grid
    if abs(s0) > grid.s_max - 1.0:
        raise DomainError(f"profile window at s0 = {s0} leaves the grid")
    return float(window_integrals(grid, np.array([s0]), jet(u).u_theta_sq)[0][0])


def window_integrals(grid: CollarGrid, s0: np.ndarray, *densities) -> list[np.ndarray]:
    """int bump^4(s - s0) dens ds dtheta at each station of s0, for each density;
    einsum sums each row alone (gemv would not), so no station depends on another."""
    win = _bump(grid.s_nodes[None, :] - s0[:, None]) ** 4
    return [np.einsum("ks,s->k", win, dens.sum(axis=1) * grid.theta_weight
                      * grid.s_weights) for dens in densities]
