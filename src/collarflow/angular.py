"""Delay-differential comparison machinery for windowed angular energy.

The windowed angular energy Theta(s0) of a near-harmonic map satisfies a
second-order differential inequality with a half-unit delay,

    L(f)(s) = f''(s) - (3/2) f(s) + (1/8) (f(s + 1/2) + f(s - 1/2)),
    L(Theta) >= -c1 * G,

with G the local tension content.  The operator L obeys a discrete
comparison principle: at an interior minimum of d with d(s*) = -m < 0
one has d'' >= 0 and the delayed values are >= -m, so L(d)(s*) >=
(3/2) m - (1/4) m = (5/4) m > 0, which rules out L(d) <= 0 there.
Supersolutions are built from the growth modes e^{+-s}, on which L acts
by the strictly negative factor cosh(1/2)/4 - 1/2, plus a convolution
against the Green's kernel of (1 - d^2/ds^2).

Profiles live on their own uniform one-dimensional grid; the delay must
be an exact whole number of grid steps so that every operator
evaluation is a pure stencil with no interpolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from collarflow.geometry import DomainError
from collarflow.fields import MapField, jet, tension, _bump

DELAY = 0.5
# L(e^{+-s}) = (cosh(1/2)/4 - 1/2) e^{+-s}: the exponential growth modes
# are supersolutions with this strictly negative rate.
EXP_MODE_RATE = math.cosh(0.5) / 4.0 - 0.5
CONSTANT_MODE_RATE = -1.25  # L(c) = -(5/4) c
DEFAULT_C1 = 16.0


@dataclass(frozen=True)
class ProfileFn:
    """A scalar profile on a uniform grid whose step divides the delay."""

    s: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "values", v)
        if s.ndim != 1 or s.size < 5 or v.shape != s.shape:
            raise DomainError("profile needs matching 1-d arrays, >= 5 nodes")
        steps = np.diff(s)
        h = steps[0]
        if h <= 0 or not np.allclose(steps, h, rtol=1e-9, atol=0):
            raise DomainError("profile grid must be uniform and increasing")
        m = DELAY / h
        if abs(m - round(m)) > 1e-9 * max(1.0, m):
            raise DomainError(
                f"grid step {h} must divide the delay {DELAY} exactly")
        if round(m) < 1 or 2 * round(m) + 2 >= s.size:
            raise DomainError("profile too short for the delayed stencil")

    @property
    def h(self) -> float:
        return float(self.s[1] - self.s[0])

    @property
    def delay_steps(self) -> int:
        return round(DELAY / self.h)

    def interior(self) -> slice:
        """Nodes where the full delayed stencil fits inside the grid."""
        m = self.delay_steps
        return slice(m + 1, self.s.size - m - 1)


def delay_operator(f: ProfileFn) -> np.ndarray:
    """L(f) on the interior nodes (f.interior() slice of the grid).

    Central second difference plus the exact half-unit shifts; second
    order accurate for smooth profiles.
    """
    v, h, m = f.values, f.h, f.delay_steps
    inner = f.interior()
    lo, hi = inner.start, inner.stop
    second = (v[lo - 1:hi - 1] - 2.0 * v[lo:hi] + v[lo + 1:hi + 1]) / h**2
    delayed = 0.125 * (v[lo + m:hi + m] + v[lo - m:hi - m])
    return second - 1.5 * v[lo:hi] + delayed


@dataclass(frozen=True)
class ComparisonReport:
    """Premises and conclusion of one comparison-principle application."""

    premise_operator: bool   # L(upper - lower) <= tol on the interior
    premise_boundary: bool   # upper >= lower on both end bands
    conclusion: bool         # upper >= lower everywhere
    min_gap: float
    max_operator_violation: float


def comparison_check(lower: ProfileFn, upper: ProfileFn,
                     tol: float = 0.0) -> ComparisonReport:
    """Check the discrete comparison principle on a pair of profiles.

    With d = upper - lower, the premises are L(d) <= tol on the interior
    and d >= -tol on the two boundary bands (everything within one delay
    of the ends).  Whenever both hold with tol = 0 the minimum-point
    argument forces d >= 0 everywhere, exactly in the discrete setting.
    """
    if lower.s.shape != upper.s.shape or not np.array_equal(lower.s, upper.s):
        raise DomainError("profiles must share one grid")
    d = ProfileFn(lower.s, upper.values - lower.values)
    Ld = delay_operator(d)
    inner = d.interior()
    band = np.ones(d.s.size, dtype=bool)
    band[inner] = False
    premise_op = bool(np.all(Ld <= tol))
    premise_bd = bool(np.all(d.values[band] >= -tol))
    return ComparisonReport(
        premise_operator=premise_op,
        premise_boundary=premise_bd,
        conclusion=bool(np.all(d.values >= -abs(tol))),
        min_gap=float(np.min(d.values)),
        max_operator_violation=float(np.max(Ld)),
    )


def kernel_solution(s: np.ndarray, forcing: np.ndarray, c1: float = DEFAULT_C1,
                    a: float = 0.0, b: float = 0.0) -> ProfileFn:
    """Supersolution A e^{s - L} + B e^{-s - L} + (c1/2) int e^{-|s-q|} forcing(q) dq.

    The convolution inverts 1 - d^2/ds^2 against the forcing (trapezoid
    in q, kink aligned with the node q = s), and the exponential modes
    carry the boundary data; for a, b >= 0 and forcing >= 0 the result
    satisfies L(f) <= -c1 * forcing pointwise, because the delayed
    values of each ingredient never exceed e^{1/2}/4 < 1/2 of four
    times the center value.
    """
    s = np.asarray(s, dtype=float)
    g = np.asarray(forcing, dtype=float)
    if g.shape != s.shape:
        raise DomainError("forcing must match the profile grid")
    if a < 0 or b < 0 or np.any(g < 0):
        raise DomainError("supersolution ingredients must be nonnegative")
    h = s[1] - s[0]
    half = s[-1]
    w = np.full(s.size, h)
    w[0] = w[-1] = 0.5 * h
    kernel = np.exp(-np.abs(s[:, None] - s[None, :]))
    particular = 0.5 * c1 * (kernel * (g * w)[None, :]).sum(axis=1)
    vals = a * np.exp(s - half) + b * np.exp(-s - half) + particular
    return ProfileFn(s, vals)


def kernel_residual(f: ProfileFn, forcing: np.ndarray, c1: float,
                    a: float = 0.0, b: float = 0.0) -> np.ndarray:
    """Interior residual f'' - f + c1 * forcing of the kernel construction.

    The exponential modes are annihilated by 1 - d^2/ds^2 up to O(h^2)
    as well, so the residual of kernel_solution output is O(h^2)
    uniformly; returned on the same interior slice as delay_operator.
    """
    v, h = f.values, f.h
    inner = f.interior()
    lo, hi = inner.start, inner.stop
    second = (v[lo - 1:hi - 1] - 2.0 * v[lo:hi] + v[lo + 1:hi + 1]) / h**2
    return second - v[lo:hi] + c1 * np.asarray(forcing)[lo:hi]


def default_comparison_grid(half: float = 3.0, step: float = 0.25) -> np.ndarray:
    n = round(half / step)
    return step * np.arange(-n, n + 1)


def _random_smooth(rng: np.random.Generator, s: np.ndarray,
                   amp: float = 1.0) -> np.ndarray:
    x = s / s[-1]
    vals = np.zeros_like(s)
    for k in range(1, 5):
        vals += rng.normal() / k * np.cos(
            0.5 * math.pi * k * x + rng.uniform(0.0, 2.0 * math.pi))
    peak = float(np.max(np.abs(vals)))
    return amp * vals / peak if peak > 0 else vals


def random_comparison_pair(rng: np.random.Generator,
                           s: np.ndarray | None = None,
                           max_tries: int = 500) -> tuple[ProfileFn, ProfileFn]:
    """Rejection-sample a profile pair satisfying both comparison premises.

    The gap candidate mixes a random smooth profile with the cosh growth
    mode (on which the operator is strongly negative) and a constant
    lift that clears the boundary bands; candidates are kept only when
    comparison_check confirms both premises in exact discrete
    arithmetic, so accepted pairs are hypotheses of the comparison
    principle, never of a weakened version.
    """
    if s is None:
        s = default_comparison_grid()
    grow = np.cosh(0.5 * s) / math.cosh(0.5 * s[-1])
    m = round(DELAY / (s[1] - s[0]))
    band = np.ones(s.size, dtype=bool)
    band[m + 1:s.size - m - 1] = False
    for _ in range(max_tries):
        lower = ProfileFn(s, _random_smooth(rng, s, amp=rng.uniform(0.5, 2.0)))
        gap = _random_smooth(rng, s) + rng.uniform(0.3, 2.5) * grow
        gap += max(0.0, -float(np.min(gap[band]))) + rng.uniform(0.0, 0.5)
        upper = ProfileFn(s, lower.values + gap)
        report = comparison_check(lower, upper)
        if report.premise_operator and report.premise_boundary:
            return lower, upper
    raise RuntimeError("comparison-pair sampler failed to accept a candidate")


@dataclass(frozen=True)
class AngularAuditReport:
    """Windowed angular energy of a map against its comparison bound."""

    s0: np.ndarray
    theta: np.ndarray          # windowed angular energy per station
    forcing: np.ndarray        # windowed tension content per station
    operator_values: np.ndarray  # L(Theta) on the interior stations
    fitted_c1: float           # smallest c1 making L(Theta) >= -c1 G hold
    c1: float                  # c1 actually used for the bound
    bound: ProfileFn           # supersolution dominating Theta
    satisfied: bool            # Theta <= bound at every station
    vacuous: bool              # the collar window was too short to audit

    def margin(self) -> float:
        return float(np.min(self.bound.values - self.theta))


def _empty_audit() -> AngularAuditReport:
    z = np.zeros(0)
    stub = ProfileFn(0.25 * np.arange(7) - 0.75, np.zeros(7))
    return AngularAuditReport(s0=z, theta=z, forcing=z, operator_values=z,
                              fitted_c1=0.0, c1=DEFAULT_C1, bound=stub,
                              satisfied=True, vacuous=True)


def angular_bound_audit(u: MapField, profile_step: float = 0.05,
                        c1: float | None = None,
                        total_energy: float | None = None) -> AngularAuditReport:
    """Audit the delayed comparison bound on a map's angular energy.

    Stations s0 cover the part of the grid where the unit window fits;
    Theta and the tension content G share the same quartic window.  The
    fitted c1 is read off the stations where L(Theta) is negative, the
    bound is the kernel supersolution with boundary coefficients
    2 e E0, and the report records whether Theta stays below it.
    """
    grid = u.grid
    if round(DELAY / profile_step) < 1 or \
            abs(DELAY / profile_step - round(DELAY / profile_step)) > 1e-9:
        raise DomainError("profile_step must divide the half-unit delay")
    half = grid.s_max - 1.0
    n_half = math.floor(half / profile_step)
    if n_half * profile_step < DELAY + 2 * profile_step:
        return _empty_audit()
    s0 = profile_step * np.arange(-n_half, n_half + 1)

    J = jet(u)
    dens_theta = np.sum(J.u_theta**2, axis=-1)
    tau = tension(u, J)
    dens_tension = np.sum(tau * tau, axis=-1) * grid.rho_sq[:, None]
    th_dens = dens_theta.sum(axis=1) * grid.theta_weight
    g_dens = dens_tension.sum(axis=1) * grid.theta_weight
    win = _bump(grid.s_nodes[None, :] - s0[:, None]) ** 4
    theta_vals = win @ (th_dens * grid.s_weights)
    forcing = win @ (g_dens * grid.s_weights)

    profile = ProfileFn(s0, theta_vals)
    Lth = delay_operator(profile)
    inner = profile.interior()
    g_in = forcing[inner]
    # denominator floor: below the discretization noise of Theta itself a
    # pointwise ratio would fit pure roundoff, not the inequality
    floor = 1e-12 * (1.0 + float(np.max(theta_vals, initial=0.0)))
    ratios = np.where(Lth < 0, -Lth / np.maximum(g_in, floor), 0.0)
    fitted_c1 = float(np.max(ratios)) if ratios.size else 0.0
    used_c1 = c1 if c1 is not None else max(DEFAULT_C1, 1.1 * fitted_c1)

    if total_energy is None:
        total_energy = 0.5 * grid.integrate_flat(
            np.sum(J.u_s**2, axis=-1) + dens_theta)
    coeff = 2.0 * math.e * total_energy
    bound = kernel_solution(s0, forcing, used_c1, a=coeff, b=coeff)
    return AngularAuditReport(
        s0=s0, theta=theta_vals, forcing=forcing, operator_values=Lth,
        fitted_c1=fitted_c1, c1=float(used_c1), bound=bound,
        satisfied=bool(np.all(theta_vals <= bound.values)), vacuous=False)
