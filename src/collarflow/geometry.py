"""Geometry of hyperbolic collars around a short closed geodesic.

A collar of core length ell is the cylinder (-X, X) x S^1 carrying the
metric rho^2(s) (ds^2 + dtheta^2) with

    rho(s) = ell / (2 pi cos(ell s / 2 pi)),
    X(ell) = (2 pi / ell) (pi/2 - arctan(sinh(ell/2))).

Everything in this module is elementary closed-form evaluation: half
lengths, the conformal factor, injectivity radius, and the norms of the
coordinate quadratic differential dz^2.  These are the building blocks
the rest of the package (mode decompositions, flow runs, audits) leans
on, so the formulas here are kept free of any grid machinery except for
CollarGrid itself.  check_block, the one checker of every JSON input,
sits beside DomainError, which every module already imports.
"""

from __future__ import annotations

import math
import numbers
import re
import sys
import typing
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Core geodesic lengths run over (0, 2 arsinh 1); the right endpoint is
# the degenerate collar of zero width and is allowed in the pointwise
# formula helpers so the collapse can be evaluated, but CollarGrid
# (anything that builds grids or flows) requires the open interval.
ELL_MAX = 2.0 * math.asinh(1.0)


class DomainError(ValueError):
    """Raised when an argument leaves the collar formulas' domain."""


def check_block(value, schema, where: str = ""):
    """Check a decoded JSON value against a declarative table; return it.

    schema maps each allowed key to its type ("key?": may be absent):
    float (finite, never a bool), int (never a bool), str, dict (any
    object), T | None, list[T], tuple[T, U] (a list of exactly those),
    dict[int, T] (canonical integer-string keys: no leading zero, no "-0")
    or a nested table.  A pair (tag, {tag value: table}) lets the tag
    key's value pick the table.  Nothing is coerced; a failure raises
    DomainError starting with the dotted JSON path of the bad value ("top
    level" when where is empty).
    """
    table = isinstance(schema, (dict, tuple))
    origin = dict if table else typing.get_origin(schema) or schema
    args = () if table else typing.get_args(schema)
    if type(None) in args:  # T | None
        return value if value is None else check_block(value, args[0], where)
    here = where or "top level"
    cls = {float: numbers.Real, tuple: list}.get(origin, origin)  # JSON arrays are lists
    if isinstance(value, bool) or not isinstance(value, cls) \
            or origin is float and not abs(value) <= sys.float_info.max \
            or origin is tuple and len(value) != len(args):
        what = {float: "a finite number", int: "an integer", str: "a string",
                dict: "an object", list: "a list"}.get(origin, f"a list of {len(args)}")
        raise DomainError(f"{here}: must be {what}, got {value!r}")
    if isinstance(schema, tuple):  # (tag, {tag value: table})
        tag, tables = schema
        if value.get(tag) not in list(tables):
            raise DomainError(f"{where}.{tag}".lstrip(".") + ": must be one of "
                              f"{sorted(tables)}, got {value.get(tag)!r}")
        schema = {tag: str, **tables[value[tag]]}
    if table:
        names = {key.rstrip("?"): key for key in schema}
        for key in value:
            if key not in names:
                raise DomainError(f"{here}: unknown key {key!r}")
        for name, key in names.items():
            if name in value:
                check_block(value[name], schema[key], f"{where}.{name}".lstrip("."))
            elif key == name:
                raise DomainError(f"{here}: missing key {name!r}")
    elif origin is dict and args:  # dict[int, T]
        for key, item in value.items():
            if not re.fullmatch(r"0|-?[1-9][0-9]*", key):
                raise DomainError(f"{where}: key {key!r} is not a canonical integer")
            check_block(item, args[1], f"{where}.{key}")
    elif origin in (list, tuple):
        for i, item in enumerate(value):
            check_block(item, args[0] if origin is list else args[i], f"{where}.{i}")
    return value


def _check_ell(ell: float, *, closed_top: bool = True) -> float:
    """ell as a float in (0, 2 arsinh 1], or the open interval for a grid; an
    error starts with "ell: "."""
    ell = float(ell)
    if not math.isfinite(ell) or ell <= 0.0:
        raise DomainError(f"ell: core length must be finite and positive, got {ell!r}")
    if closed_top:
        if ell > ELL_MAX:
            raise DomainError(f"ell: core length {ell} exceeds 2*arsinh(1) = {ELL_MAX}")
    elif ell >= ELL_MAX:
        raise DomainError(f"ell: core length {ell} not strictly below 2*arsinh(1) = {ELL_MAX}")
    return ell


def half_length(ell: float) -> float:
    """Half length X(ell) of the collar cylinder.

    Strictly decreasing in ell; X -> pi^2/ell asymptotically as the
    core degenerates, and X(2 arsinh 1) = pi^2 / (4 arsinh 1).
    """
    return _half_length(_check_ell(ell))


def _half_length(ell: float) -> float:
    """X(ell) of an ell the caller has checked."""
    return (2.0 * math.pi / ell) * (math.pi / 2.0 - math.atan(math.sinh(0.5 * ell)))


def delta_thin_half_length(ell: float, delta: float) -> float:
    """Half length X_delta(ell) of the delta-thin middle of the collar.

    The delta-thin part is where the injectivity radius is below delta:
    |s| < X_delta.  Empty (returns 0) once delta <= ell/2, since the
    injectivity radius on the collar is at least ell/2.
    """
    ell = _check_ell(ell)
    delta = float(delta)
    if not (0.0 < delta < math.asinh(1.0)):
        raise DomainError(f"delta must lie in (0, arsinh 1), got {delta!r}")
    ratio = math.sinh(0.5 * ell) / math.sinh(delta)
    if ratio >= 1.0:
        return 0.0
    return (2.0 * math.pi / ell) * (math.pi / 2.0 - math.asin(ratio))


def _check_point(ell: float, s: float, *, closed: bool = False) -> tuple[float, float]:
    """(ell, s) as floats, with s inside the open collar (-X, X), or [-X, X] if closed."""
    ell, s = _check_ell(ell), float(s)
    X = half_length(ell)
    if not (abs(s) <= X if closed else abs(s) < X):
        raise DomainError(f"|s| = {abs(s)} is not inside the collar of half length {X}")
    return ell, s


def _rho(ell: float, s, out: np.ndarray | None = None):
    """Unscaled conformal-factor core; accepts scalars or arrays for s, and
    writes into out when given."""
    a = ell / (2.0 * math.pi)
    x = np.multiply(a, np.asarray(s, dtype=float), out=out)
    return np.divide(a, np.cos(x, out=out), out=out)


def conformal_factor(ell: float, s: float) -> float:
    """Conformal factor rho(s) of the collar metric at coordinate s.

    Minimal at the core circle s = 0 where rho = ell/2pi, and grows to
    ell/(2 pi tanh(ell/2)) at the collar ends; the end value lies in
    (1/pi, sqrt(2) arsinh(1)/pi) over the admissible range of ell.
    """
    ell, s = _check_point(ell, s)
    return float(_rho(ell, s))


def injectivity_radius(ell: float, s: float) -> float:
    """Injectivity radius at coordinate s, via sinh(inj) cos(ell s/2pi) = sinh(ell/2).

    Equals ell/2 on the core circle and arsinh(cosh(ell/2)) at the collar
    ends; satisfies inj <= pi rho(s) and rho(s) <= inj everywhere.
    """
    ell, s = _check_point(ell, s, closed=True)
    c = math.cos(ell * s / (2.0 * math.pi))
    return math.asinh(math.sinh(0.5 * ell) / c)


def log_rho_slope(ell: float, s: float) -> float:
    """d/ds log rho = (ell/2pi) tan(ell s/2pi).

    Bounded in absolute value by min(rho(s), ell/(2 pi sinh(ell/2)))
    and hence by 1/pi across the whole collar.
    """
    ell, s = _check_point(ell, s)
    a = ell / (2.0 * math.pi)
    return a * math.tan(a * s)


@dataclass(frozen=True)
class Dz2Norms:
    """Norms of dz^2 over the whole collar in the hyperbolic metric."""

    l1: float
    l2_sq: float
    linf: float


def dz2_norms(ell: float) -> Dz2Norms:
    """L^1, squared L^2 and L^infty norms of dz^2 on the collar.

    |dz^2|_g = 2 rho^-2, so l1 = 8 pi X(ell) and linf = 8 pi^2/ell^2
    exactly.  l2_sq is the exact antiderivative of the s-profile
    8 pi (2pi/ell)^2 cos^2(ell s/2pi) over (-X, X), written in a form
    with no small-ell cancellation:

        l2_sq = 32 pi^3 X / ell^2 + 64 pi^4 sinh(ell/2) / (ell^3 cosh^2(ell/2))
              = 32 pi^5/ell^3 - 16 pi^4/3 + O(ell^2).
    """
    ell = _check_ell(ell)
    X = half_length(ell)
    l1 = 8.0 * math.pi * X
    sh = math.sinh(0.5 * ell)
    ch = math.cosh(0.5 * ell)
    try:
        l2_sq = 32.0 * math.pi**3 * X / ell**2 + 64.0 * math.pi**4 * sh / (ell**3 * ch * ch)
    except ZeroDivisionError:  # ell**2 or ell**3 underflowed to zero
        l2_sq = math.inf
    if not math.isfinite(l2_sq):  # the largest of the three, so l1 and linf are finite
        raise DomainError(f"ell: the norms of dz^2 overflow a float at core length {ell!r}")
    linf = 8.0 * math.pi**2 / ell**2
    return Dz2Norms(l1=l1, l2_sq=l2_sq, linf=linf)


# cutoff scale for the smoothed weighted energy: 1 where rho <= it, 0 from twice it
_CUTOFF_DELTA = 1.0 / (2.0 * math.pi)


def smooth_cutoff(rho: np.ndarray, delta: float = _CUTOFF_DELTA) -> np.ndarray:
    """Quintic-smoothstep cutoff: 1 for rho <= delta, 0 for rho >= 2 delta.

    The quintic ramp keeps |phi'| <= 15/(8 delta) < 2/delta.
    """
    x = np.clip((np.asarray(rho) - delta) / delta, 0.0, 1.0)
    return 1.0 - x**3 * (10.0 - 15.0 * x + 6.0 * x**2)


class CollarGrid:
    """Uniform tensor grid on the subcylinder (-s_max, s_max) x S^1 of a collar.

    s nodes are the centers of n_s equal cells of (-s_max, s_max); theta
    nodes are the uniform periodic grid on [0, 2pi).  Quadrature weights
    are the cell widths (midpoint rule in s, periodic rectangle rule in
    theta), so they sum to the coordinate area 4 pi s_max.  The core
    length must lie strictly inside (0, 2 arsinh 1).  An error starts with
    the bad argument's key ("n_s: ").
    """

    def __init__(self, ell: float, n_s: int, n_theta: int, s_max: float | None = None):
        for key, n in (("n_s", n_s), ("n_theta", n_theta)):
            if n < 4:
                raise DomainError(f"{key}: need at least 4 nodes in each direction, got {n}")
        self.n_s = int(n_s)
        self.n_theta = int(n_theta)
        self.s_max = float(_half_length(_check_ell(ell, closed_top=False))
                           if s_max is None else s_max)
        xi_edge = np.linspace(-1.0, 1.0, self.n_s + 1)
        self.s_nodes = self.s_max * (0.5 * (xi_edge[:-1] + xi_edge[1:]))
        self.s_weights = np.diff(self.s_max * xi_edge)
        self.theta_nodes = np.arange(self.n_theta) * (2.0 * math.pi / self.n_theta)
        self.theta_weight = 2.0 * math.pi / self.n_theta
        for layout in (self.s_nodes, self.s_weights, self.theta_nodes):
            layout.flags.writeable = False
        self._own_metric()
        self.refresh(ell)

    def _own_metric(self) -> None:
        """Fresh arrays for the metric rows that refresh writes."""
        self.rho, self.rho_sq, self.rho_inv_sq, self.pairing_weights = np.empty((4, self.n_s))

    def refresh(self, ell: float) -> None:
        """Rewrite the metric in place for core length ell.

        Checks ell and s_max <= X(ell) before writing, then samples the
        metric on _rho, not conformal_factor, into the grid's own arrays and
        drops the cached cutoff.  Whoever holds this grid sees the new metric.
        """
        ell = _check_ell(ell, closed_top=False)
        X = _half_length(ell)
        if not 0.0 < self.s_max <= X:
            raise DomainError(f"s_max: must lie in (0, X] with X = {X}, got {self.s_max}")
        self.ell = ell
        _rho(ell, self.s_nodes, out=self.rho)
        np.multiply(self.rho, self.rho, out=self.rho_sq)
        np.divide(1.0, self.rho_sq, out=self.rho_inv_sq)
        np.multiply(self.s_weights, self.rho_inv_sq, out=self.pairing_weights)
        self.pairing_norm = self.n_theta * float(self.pairing_weights.sum())
        self.__dict__.pop("cutoff_sq", None)  # the old metric's, here or copied by at()

    @cached_property
    def cutoff_sq(self) -> np.ndarray:
        """smooth_cutoff(rho)^2 as an (n_s, 1) column (I_smooth's weight), kept with the metric."""
        return smooth_cutoff(self.rho)[:, None]**2

    def at(self, ell: float) -> "CollarGrid":
        """The same read-only nodes and weights, shared, under the metric of
        length ell, in arrays of its own."""
        grid = object.__new__(type(self))
        grid.__dict__.update(self.__dict__)
        grid._own_metric()
        grid.refresh(ell)
        return grid

    @property
    def h_s(self) -> float:
        """Uniform s spacing."""
        return 2.0 * self.s_max / self.n_s

    def integrate_flat(self, values: np.ndarray) -> float:
        """Integrate node samples against ds dtheta."""
        values = np.asarray(values)
        return float(np.einsum("s,st->", self.s_weights, values) * self.theta_weight)

    def integrate_hyperbolic(self, values: np.ndarray) -> float:
        """Integrate node samples against the area form rho^2 ds dtheta."""
        values = np.asarray(values)
        return float(np.einsum("s,s,st->", self.s_weights, self.rho_sq, values)
                     * self.theta_weight)
