"""Maps from the collar cylinder into flat tori and round spheres.

Discrete maps are node-sampled vector fields on a CollarGrid.  The
derivative stencils are chosen so the algebra downstream (Hopf
differentials, energy identities, length evolution) is exact on the
model maps used throughout the tests:

  * theta is periodic, so theta derivatives are central everywhere,
    with torus increments reduced modulo the periods; winding maps such
    as u = (a theta, 0) differentiate exactly across the seam,
  * s derivatives are central in the interior and one-sided second
    order on the two boundary rows, hence u_s is exact on fields
    quadratic in s and u_ss on fields cubic in s.

Map values are component-major: a map's values are a (dim, n_s, n_theta)
array, and a jet stacks its per-direction pairs as (2, dim, n_s, n_theta)
buffers, so each component is one contiguous (n_s, n_theta) plane.  Every
target operation indexes the component axis at -3, so the same code serves
plain values and stacked buffers.

One pass (jet) builds the wrapped s and theta differences once and
returns them with the first and pure second derivatives.  The tension
field is rho^-2 P_tan(u_ss + u_thth): the target's second fundamental
form is zero on the torus and radial on the sphere, so the tangential
projection removes it.

Every sum over the target-component axis (axis -3: the densities
|u_s|^2 and |u_theta|^2, the Hopf cross term, the tension density, the
squared face differences of flow.face_energy, the tangential and sphere
projections and the unit-norm check) goes through TargetSpec.dot, which
adds the component planes' products in component order.

Energies are reported in the conformal picture: the coordinate energy
E = 1/2 int |du|^2 ds dtheta is invariant under the conformal factor,
while the weighted quantities (I, I_theta, the cutoff variant) carry
explicit rho^-2 weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from collarflow.geometry import CollarGrid, DomainError, check_block

# stations per block of window_integrals' window, which bounds its memory
_STATION_BLOCK = 256


@dataclass(frozen=True)
class TargetSpec:
    """Target manifold: flat R^dim itself, and the base of each target kind, a
    frozen subclass that overrides what differs and carries its JSON tag (kind)
    and keys (a check_block table).  _KINDS pairs it with its factory, the one
    place of its defaults.  A constructor error starts with its key ("dim: ")."""

    dim: int

    @staticmethod
    def flat_torus(dim: int = 1, periods=None) -> "FlatTorus":
        periods = (2.0 * math.pi,) * dim if periods is None else periods
        return FlatTorus(dim, tuple(float(p) for p in periods))

    @staticmethod
    def round_sphere(dim: int = 3) -> "RoundSphere":
        return RoundSphere(dim)

    @staticmethod
    def from_dict(d, where: str = "target") -> "TargetSpec":
        """The target of a JSON block; an error starts with the bad value's path."""
        make = _KINDS[check_block(d, _SCHEMA, where)["kind"]]
        try:
            return make(**{key: d[key] for key in d if key != "kind"})
        except DomainError as exc:
            raise DomainError(f"{where}.{exc}") from exc

    def to_dict(self) -> dict:
        """The JSON form: the kind's tag, then the fields, a tuple as a list."""
        return {"kind": self.kind, **{key: list(v) if isinstance(v, tuple) else v
                                      for key, v in vars(self).items()}}

    def wrap_increment(self, d: np.ndarray, tmp: np.ndarray | None = None) -> np.ndarray:
        """d reduced in place to the nearest representatives, and returned."""
        return d

    def dot(self, a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None,
            tmp: np.ndarray | None = None) -> np.ndarray:
        """<a, b> summed over the component axis (-3) in component order.

        The in-order sum is bit-identical to np.sum(a * b, axis=-3) for
        the short component axes used here and runs several times faster.
        The sum goes into out, and each later product into tmp, when given.
        """
        out = np.multiply(a[..., 0, :, :], b[..., 0, :, :], out=out)
        for k in range(1, a.shape[-3]):
            out += np.multiply(a[..., k, :, :], b[..., k, :, :], out=tmp)
        return out

    def project(self, values: np.ndarray, norms: np.ndarray | None = None,
                tmp: np.ndarray | None = None) -> np.ndarray:
        """values replaced in place by their closest points on the target, and returned."""
        return values

    def tangential(self, u: np.ndarray, w: np.ndarray, c: np.ndarray | None = None,
                   tmp: np.ndarray | None = None) -> np.ndarray:
        """w replaced in place by its part tangent to the target at u, and returned."""
        return w

    def check_values(self, values: np.ndarray) -> None:
        """Raise DomainError unless the (finite) map values lie on the target."""


@dataclass(frozen=True)
class FlatTorus(TargetSpec):
    """R^dim / (periods Z^dim); wrapped increments make winding maps differentiable."""

    periods: tuple[float, ...]
    kind = "flat-torus"
    keys = {"dim?": int, "periods?": list[float]}

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError(f"dim: must be >= 1, got {self.dim}")
        if len(self.periods) != self.dim:
            raise DomainError(f"periods: must hold {self.dim} periods, got {list(self.periods)}")
        if not all(0 < p < math.inf for p in self.periods):
            raise DomainError(f"periods: must be positive and finite, got {list(self.periods)}")

    def wrap_increment(self, d, tmp=None):
        # x - p rint(x / p) one component at a time, p rint(x / p) in tmp if
        # given.  With every x strictly inside +-min(periods) / 2, rint gives
        # +-0 everywhere and the formula only turns -0.0 into +0.0, as adding
        # +0.0 does in one pass; winding maps take the full formula.
        half = 0.5 * min(self.periods)
        if -half < d.min() and d.max() < half:
            d += 0.0
            return d
        for k, p in enumerate(self.periods):
            x = d[..., k, :, :]
            r = np.rint(np.divide(x, p, out=tmp), out=tmp)
            r *= p
            x -= r
        return d


@dataclass(frozen=True)
class RoundSphere(TargetSpec):
    """The round unit sphere in R^dim: map values are unit vectors."""

    kind = "round-sphere"
    keys = {"dim?": int}

    def __post_init__(self):
        if self.dim < 2:
            raise DomainError(f"dim: must be >= 2, got {self.dim}")

    def project(self, values, norms=None, tmp=None):
        # values / |values|, |values| in norms broadcast over the component axis
        norms = np.sqrt(self.dot(values, values, norms, tmp), out=norms)
        if not norms.all():
            raise DomainError("cannot project the zero vector onto the sphere")
        return np.divide(values, norms[..., None, :, :], out=values)

    def tangential(self, u, w, c=None, tmp=None):
        # w - <w, u> u one component at a time, <w, u> in c and each product in tmp
        c = self.dot(w, u, c, tmp)
        for k in range(w.shape[-3]):
            x = w[..., k, :, :]
            np.subtract(x, np.multiply(c, u[..., k, :, :], out=tmp), out=x)
        return w

    def check_values(self, values: np.ndarray) -> None:
        # |norm - 1| in place, so a check holds at most two node arrays
        err = self.dot(values, values)
        np.sqrt(err, out=err)
        err -= 1.0
        if np.max(np.abs(err, out=err)) > 1e-9:
            raise DomainError("sphere map values must be unit vectors")


# the target kinds, and each one's factory by JSON tag: the factory's keywords
# are the kind's keys
TARGET_KINDS = (FlatTorus, RoundSphere)
_KINDS = {FlatTorus.kind: TargetSpec.flat_torus, RoundSphere.kind: TargetSpec.round_sphere}
_SCHEMA = ("kind", {cls.kind: cls.keys for cls in TARGET_KINDS})


@dataclass
class MapField:
    """Node-sampled map u: grid -> target, values of shape (dim, n_s, n_theta)."""

    grid: CollarGrid
    values: np.ndarray
    target: TargetSpec

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expected = (self.target.dim, self.grid.n_s, self.grid.n_theta)
        if self.values.shape != expected:
            raise DomainError(f"values: shape {self.values.shape} is not "
                              f"(dim, n_s, n_theta) = {expected}")
        if not np.isfinite(self.values).all():
            raise DomainError("map values must be finite")
        self.target.check_values(self.values)

    @classmethod
    def _of_projected(cls, grid: CollarGrid, values: np.ndarray,
                      target: TargetSpec) -> "MapField":
        """A map of float values of the grid's shape that the caller has just
        checked finite and projected onto the target, built without the
        finiteness pass and check_values of __post_init__."""
        u = object.__new__(cls)
        u.grid, u.values, u.target = grid, values, target
        return u


def sample_map(grid: CollarGrid, target: TargetSpec, fn) -> MapField:
    """Build a MapField by sampling fn(s, theta) on the grid: fn takes the
    (n_s, n_theta) node arrays and returns values of shape (dim, n_s,
    n_theta), component-major (np.stack of the component planes), which
    are projected onto the target."""
    S, T = np.meshgrid(grid.s_nodes, grid.theta_nodes, indexing="ij")
    vals = np.asarray(fn(S, T), dtype=float)
    # a copy, projected in place, so no array fn returned is written
    return MapField(grid, target.project(vals.copy()), target)


class MapJet:
    """The work buffers of one map's jet on an n_s x n_theta grid, refilled
    for each map by jet(u, out=J).  A jet holds:

      * the derivatives and wrapped differences, each per-direction pair
        one component-major (2, dim, n_s, n_theta) buffer so that a shared
        operation runs once: first holds u_s then u_theta, second u_ss then
        u_thth, and diffs the n_s - 1 rows of d_s (its s plane's last row
        is never written and stays zero) then the n_s rows of d_theta;
      * the densities |u_s|^2 and |u_theta|^2 (densities()), summed in work
        rows of their own on first read, and the Hopf coefficient psi
        (hopf()); both stay valid until the next fill;
      * scratch, two (n_s, n_theta) rows that tension, tension_density,
        energies, hopf, flow.face_energy and a flow step's projection
        write: a result there stays valid until the next of those calls
        on the jet.

    A pinned jet, the flow's, never writes the two end rows of u_ss: they
    stay zero, and only the tension reads them, whose end rows the flow's
    pinned_tension zeroes.  Everything else it fills as a plain jet does.
    """

    def __init__(self, target: TargetSpec, n_s: int, n_theta: int, pinned: bool = False):
        d = target.dim
        self.target = target
        self.pinned = pinned
        self.first = np.empty((2, d, n_s, n_theta))
        self.second = (np.zeros if pinned else np.empty)((2, d, n_s, n_theta))
        self.diffs = np.zeros((2, d, n_s, n_theta))
        # rows 0-1 the densities, 2-3 their pass's and the wrap's work, 4-5 scratch
        rows = np.empty((6, n_s, n_theta))
        self.psi = np.empty((n_s, n_theta), dtype=complex)
        self.u_s, self.u_theta = self.first
        self.u_ss, self.u_thth = self.second
        self.d_s, self.d_theta = D, Dt = self.diffs[0, :, :-1], self.diffs[1]
        # s: D's interior pairs, the interior and end rows of u_s and u_ss, the
        # end rows' operands (D rows 0, 1, 2 with -1, -2, -3), a scratch pair
        # and u_ss's last row, whose one-sided differences point inward
        self._s_views = (D[:, 1:], D[:, :-1], self.u_s[:, 1:-1], self.u_ss[:, 1:-1],
                         self.u_s[:, ::n_s - 1], self.u_ss[:, ::n_s - 1],
                         _end_rows(D, 0), _end_rows(D, 1), _end_rows(D, 2),
                         np.empty((d, 2, n_theta)), self.u_ss[:, -1])
        # theta: the flattened arrays shifted by one entry, and the seam columns
        # (the first and last entry of each row) as strided flat views
        Dtf, utf, uttf = Dt.reshape(-1), self.u_theta.reshape(-1), self.u_thth.reshape(-1)
        first, last = slice(None, None, n_theta), slice(n_theta - 1, None, n_theta)
        self._theta_views = (Dtf[1:], Dtf[:-1], Dtf[first], Dtf[last],
                             utf[1:], utf[first], uttf[1:], uttf[first])
        # the wrap's work, one node of one component plane per direction
        self._wrap_tmp = rows[2:4]
        self._density_pass = (rows[:2], rows[2:4])
        self._densities = (rows[0], rows[1])
        self.scratch = (rows[4], rows[5])
        self._psi_parts = (self.psi.real, self.psi.imag)
        self._summed = False

    def densities(self) -> tuple[np.ndarray, np.ndarray]:
        """(|u_s|^2, |u_theta|^2): the first call after a fill sums both in
        one pass over first."""
        if not self._summed:
            self.target.dot(self.first, self.first, *self._density_pass)
            self._summed = True
        return self._densities

    @property
    def u_s_sq(self) -> np.ndarray:
        return self.densities()[0]

    @property
    def u_theta_sq(self) -> np.ndarray:
        return self.densities()[1]

    def hopf(self) -> np.ndarray:
        """psi = |u_s|^2 - |u_theta|^2 - 2 i <u_s, u_theta>, filled and returned.

        The imaginary part is 0 - 2 X with X = <u_s, u_theta>, formed in
        the scratch rows, so a zero cross term gives +0.0 as the complex
        form 0 - (0 + 2X i) did.
        """
        u_s_sq, u_theta_sq = self.densities()
        cross = self.target.dot(self.u_s, self.u_theta, *self.scratch)
        re, im = self._psi_parts
        np.subtract(u_s_sq, u_theta_sq, out=re)
        cross *= 2.0
        np.subtract(0.0, cross, out=im)
        return self.psi


def _end_rows(a: np.ndarray, k: int) -> np.ndarray:
    """s rows k and -1 - k of a (dim, rows, n_theta) array as one read-only
    (dim, 2, n_theta) view, by a row stride that may be negative or zero; a
    slice a[:, k::rows - 1 - 2k] can take a third row."""
    dim, rows, n_theta = a.shape
    strides = (a.strides[0], (rows - 1 - 2 * k) * a.strides[1], a.strides[2])
    return np.lib.stride_tricks.as_strided(a[:, k], (dim, 2, n_theta), strides,
                                           writeable=False)


def jet(u: MapField, out: MapJet | None = None) -> MapJet:
    """First and pure second derivatives from one pass over the wrapped
    increments: central interior / one-sided second order in s, periodic
    central in theta.

    Fills out (whose densities are then summed afresh on first read) or
    a new jet through its bound views: only views of u's values are made
    per call.  The periodic theta neighbours are slice pairs, not rolls.
    Both directions' differences share one wrap.
    """
    grid, target = u.grid, u.target
    J = MapJet(target, grid.n_s, grid.n_theta) if out is None else out
    J._summed = False
    h_s, h_t = grid.h_s, grid.theta_weight
    v, n_t = u.values, grid.n_theta
    D_hi, D_lo, us_in, uss_in, us_end, uss_end, D0, D1, D2, scratch, uss_last = J._s_views
    Dt_hi, Dt_lo, Dt_first, Dt_last, ut_tail, ut_first, utt_tail, utt_first = J._theta_views

    # D[:, i] = v[:, i + 1] - v[:, i] between s rows, and Dt[:, :, j] =
    # v[:, :, j + 1] - v[:, :, j] (periodic) as one pass over the flattened
    # values shifted by one entry, whose wrong seam column is then redone;
    # strided slices would make numpy buffer whole maps.  One wrap takes both.
    vf = v.reshape(-1)
    np.subtract(v[:, 1:], v[:, :-1], out=J.d_s)
    np.subtract(vf[1:], vf[:-1], out=Dt_lo)
    np.subtract(vf[::n_t], vf[n_t - 1::n_t], out=Dt_last)
    target.wrap_increment(J.diffs, tmp=J._wrap_tmp)

    # first derivatives, each then divided whole by its spacing: the s
    # interior D[i] + D[i - 1] and both end rows 3.0 D0 - D1 over 2 h_s, the
    # theta central sums Dt[:, :, j] + Dt[:, :, j - 1] over 2 h_t
    np.add(D_hi, D_lo, out=us_in)
    np.multiply(3.0, D0, out=us_end)
    us_end -= D1
    np.add(Dt_hi, Dt_lo, out=ut_tail)
    np.add(Dt_first, Dt_last, out=ut_first)
    J.u_s /= 2.0 * h_s
    J.u_theta /= 2.0 * h_t

    # second derivatives, each divided whole: the s interior D[i] - D[i - 1]
    # and, unless pinned, end rows (-2.0 D0 + 3.0 D1) - D2 over h_s^2, the
    # last row negated (its differences run the other way), Dt[:, :, j] -
    # Dt[:, :, j - 1] over h_t^2
    np.subtract(D_hi, D_lo, out=uss_in)
    if not J.pinned:
        np.multiply(-2.0, D0, out=uss_end)
        uss_end += np.multiply(3.0, D1, out=scratch)
        uss_end -= D2
        np.negative(uss_last, out=uss_last)
    np.subtract(Dt_hi, Dt_lo, out=utt_tail)
    np.subtract(Dt_first, Dt_last, out=utt_first)
    J.u_ss /= h_s**2
    J.u_thth /= h_t**2
    return J


def tension(u: MapField, jet_: MapJet | None = None,
            out: np.ndarray | None = None) -> np.ndarray:
    """Tension field tau_g(u) = rho^-2 P_tan(u_ss + u_thth).

    The tangential projection makes the result tangent to the target at
    u by construction, and it removes the second fundamental form terms
    of the full operator: they vanish on the torus and are radial on the
    sphere.  Returns an array of shape (dim, n_s, n_theta), out when
    given; the projection works in the jet's scratch rows.
    """
    J = jet_ or jet(u)
    flat = np.add(J.u_ss, J.u_thth, out=out)
    u.target.tangential(u.values, flat, *J.scratch)
    flat *= u.grid.rho_inv_sq[:, None]
    return flat


def tension_l2(u: MapField, tau: np.ndarray | None = None,
               jet_: MapJet | None = None) -> float:
    """||tau_g(u)||_{L^2} in the hyperbolic metric.

    |tau_g|^2 dv = rho^-2 |tau_flat|^2 ds dtheta, i.e. the norm of
    rho tau_g against the flat measure; the density is formed in jet_'s rows.
    """
    if tau is None:
        tau = tension(u, jet_)
    return math.sqrt(u.grid.integrate_flat(tension_density(u, tau, jet_)))


def tension_density(u: MapField, tau: np.ndarray, jet_: MapJet | None = None) -> np.ndarray:
    """|tau_g|^2 rho^2 per node, the tension density against ds dtheta, in
    jet_'s first scratch row if given."""
    dens, tmp = np.empty((2,) + tau.shape[-2:]) if jet_ is None else jet_.scratch
    u.target.dot(tau, tau, dens, tmp)
    return np.multiply(dens, u.grid.rho_sq[:, None], out=dens)


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
    """The EnergyReport of u, its densities formed in the jet's scratch rows."""
    grid = u.grid
    J = jet_ or jet(u)
    u_s_sq, u_theta_sq = J.densities()
    w_inv = grid.rho_inv_sq[:, None]
    e, tmp = J.scratch
    np.add(u_s_sq, u_theta_sq, out=e)
    e *= 0.5
    E = grid.integrate_flat(e)
    e *= w_inv
    I = grid.integrate_flat(e)
    I_theta = grid.integrate_flat(np.multiply(u_theta_sq, w_inv, out=tmp))
    I_smooth = grid.integrate_flat(np.multiply(e, grid.cutoff_sq, out=tmp))
    sup_density = float(np.max(e))
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
    einsum sums each row alone (gemv would not), so no station depends on another
    and the (k, n_s) window is built in blocks of _STATION_BLOCK rows."""
    weighted = [dens.sum(axis=1) * grid.theta_weight * grid.s_weights for dens in densities]
    out = [np.empty(len(s0)) for _ in densities]
    for i in range(0, len(s0), _STATION_BLOCK):
        win = _bump(grid.s_nodes[None, :] - s0[i:i + _STATION_BLOCK, None]) ** 4
        for o, w in zip(out, weighted):
            o[i:i + _STATION_BLOCK] = np.einsum("ks,s->k", win, w)
    return out
