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
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from collarflow.geometry import DomainError
from collarflow.fields import (MapField, energies, jet, tension,
                               tension_density, window_integrals)

DELAY = 0.5
# L(e^{+-s}) = (cosh(1/2)/4 - 1/2) e^{+-s}: the exponential growth modes
# are supersolutions with this strictly negative rate.
EXP_MODE_RATE = math.cosh(0.5) / 4.0 - 0.5
CONSTANT_MODE_RATE = -1.25  # L(c) = -(5/4) c
DEFAULT_C1 = 16.0
MAX_STATIONS = 2**16  # audit stations allowed; the kernel bound costs O(k^2)


_SHAPE_ERROR = "profile needs matching 1-d arrays, >= 5 nodes"


@lru_cache(maxsize=16)
def _grid_steps(key: bytes) -> tuple[float, int]:
    """(h, delay steps) of the profile grid whose float64 bytes are key.

    Memoized on the exact bytes, so a grid is checked once however many
    profiles live on it; a failure raises and is never cached.
    """
    s = np.frombuffer(key)
    steps = np.diff(s)
    h = steps[0]
    if h <= 0 or not np.all(np.abs(steps - h) <= 1e-9 * h):
        raise DomainError("profile grid must be uniform and increasing")
    m = DELAY / h
    if abs(m - round(m)) > 1e-9 * max(1.0, m):
        raise DomainError(
            f"grid step {h} must divide the delay {DELAY} exactly")
    if round(m) < 1 or 2 * round(m) + 2 >= s.size:
        raise DomainError("profile too short for the delayed stencil")
    return float(h), round(m)


def _checked_grid(s) -> tuple[np.ndarray, float, int]:
    """The grid as a float array, its step and its delay in steps."""
    s = np.asarray(s, dtype=float)
    if s.ndim != 1 or s.size < 5:
        raise DomainError(_SHAPE_ERROR)
    return (s, *_grid_steps(s.tobytes()))


@dataclass(frozen=True)
class ProfileFn:
    """A scalar profile on a uniform grid whose step divides the delay."""

    s: np.ndarray
    values: np.ndarray
    h: float = field(init=False, repr=False, compare=False)
    delay_steps: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if v.shape != s.shape:
            raise DomainError(_SHAPE_ERROR)
        s, h, m = _checked_grid(s)
        # frozen: the fields are set past __setattr__
        self.__dict__.update(s=s, values=v, h=h, delay_steps=m)

    def interior(self) -> slice:
        """Nodes where the full delayed stencil fits inside the grid."""
        m = self.delay_steps
        return slice(m + 1, self.s.size - m - 1)


def _on_checked_grid(s: np.ndarray, values: np.ndarray, h: float, m: int) -> ProfileFn:
    """A ProfileFn of float values on a grid _checked_grid returned (s, h, m) for."""
    f = object.__new__(ProfileFn)
    f.__dict__.update(s=s, values=values, h=h, delay_steps=m)
    return f


def _second_difference(v: np.ndarray, h: float, lo: int, hi: int) -> np.ndarray:
    """Central second difference at nodes lo..hi-1 of the last axis."""
    return (v[..., lo - 1:hi - 1] - 2.0 * v[..., lo:hi]
            + v[..., lo + 1:hi + 1]) / h**2


def _delay_stencil(v: np.ndarray, h: float, m: int) -> np.ndarray:
    """L(v) on the interior nodes of the last axis, for delay m grid steps.

    Central second difference plus the exact half-unit shifts; every
    leading axis is a batch of independent profiles on one grid.
    """
    lo, hi = m + 1, v.shape[-1] - m - 1
    Lv = _second_difference(v, h, lo, hi)
    Lv -= 1.5 * v[..., lo:hi]
    Lv += 0.125 * (v[..., lo + m:hi + m] + v[..., lo - m:hi - m])
    return Lv


@lru_cache(maxsize=16)
def _end_band_index(n: int, m: int) -> np.ndarray:
    """Indices of the m + 1 nodes at each end of n, in order (read-only)."""
    index = np.concatenate([np.arange(m + 1), np.arange(n - m - 1, n)])
    index.flags.writeable = False
    return index


def _end_bands(v: np.ndarray, m: int) -> np.ndarray:
    """The m + 1 nodes at each end of the last axis, outside the interior."""
    return v.take(_end_band_index(v.shape[-1], m), axis=-1)


def _premises(d: np.ndarray, h: float, m: int):
    """L(d) and the two comparison premises for gaps d along the last axis.

    Returns L(d) on the interior, whether L(d) <= 0 there, and whether
    d >= 0 on both boundary bands.
    """
    Ld = _delay_stencil(d, h, m)
    return (Ld, np.logical_and.reduce(Ld <= 0.0, axis=-1),
            np.logical_and.reduce(_end_bands(d, m) >= 0.0, axis=-1))


def delay_operator(f: ProfileFn) -> np.ndarray:
    """L(f) on the interior nodes (f.interior() slice of the grid).

    Central second difference plus the exact half-unit shifts; second
    order accurate for smooth profiles.
    """
    return _delay_stencil(f.values, f.h, f.delay_steps)


@dataclass(frozen=True)
class ComparisonReport:
    """Premises and conclusion of one comparison-principle application."""

    premise_operator: bool   # L(upper - lower) <= 0 on the interior
    premise_boundary: bool   # upper >= lower on both end bands
    conclusion: bool         # upper >= lower everywhere
    min_gap: float
    max_operator_violation: float


def comparison_check(lower: ProfileFn, upper: ProfileFn) -> ComparisonReport:
    """Check the discrete comparison principle on a pair of profiles.

    With d = upper - lower, the premises are L(d) <= 0 on the interior
    and d >= 0 on the two boundary bands (everything within one delay
    of the ends).  Whenever both hold the minimum-point argument forces
    d >= 0 everywhere, exactly in the discrete setting.
    """
    if lower.s.shape != upper.s.shape or not np.array_equal(lower.s, upper.s):
        raise DomainError("profiles must share one grid")
    d = upper.values - lower.values
    Ld, premise_op, premise_bd = _premises(d, lower.h, lower.delay_steps)
    return ComparisonReport(
        premise_operator=bool(premise_op),
        premise_boundary=bool(premise_bd),
        conclusion=bool(np.logical_and.reduce(d >= 0.0)),
        min_gap=float(np.minimum.reduce(d)),
        max_operator_violation=float(np.maximum.reduce(Ld)),
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
    # e^{-|s_i - s_j|} depends on i - j alone: 2k - 1 weights, no (k, k) array
    kernel = np.exp(s[0] - s)[np.abs(np.arange(1 - s.size, s.size))]
    particular = 0.5 * c1 * np.convolve(g * w, kernel, "valid")
    vals = a * np.exp(s - half) + b * np.exp(-s - half) + particular
    return ProfileFn(s, vals)


def kernel_residual(f: ProfileFn, forcing: np.ndarray, c1: float) -> np.ndarray:
    """Interior residual f'' - f + c1 * forcing of the kernel construction.

    The exponential modes are annihilated by 1 - d^2/ds^2 up to O(h^2)
    as well, so the residual of kernel_solution output is O(h^2)
    uniformly; returned on the same interior slice as delay_operator.
    """
    inner = f.interior()
    second = _second_difference(f.values, f.h, inner.start, inner.stop)
    return second - f.values[inner] + c1 * np.asarray(forcing)[inner]


def default_comparison_grid(half: float = 3.0, step: float = 0.25) -> np.ndarray:
    n = round(half / step)
    return step * np.arange(-n, n + 1)


_MODES = np.arange(1.0, 5.0)
# (low, high) of each row of a block's uniform draws in stream order: eight rows
# of phases, the lower profile's scale, the growth mode's weight and the lift.
# Generator.uniform maps a double u to low + (high - low) * u; so does the sampler.
_UNIFORM = np.array([(0.0, 2.0 * math.pi)] * 8 + [(0.5, 2.0), (0.3, 2.5), (0.0, 0.5)])
_UNIFORM_LOW, _UNIFORM_RANGE = _UNIFORM[:, :1], _UNIFORM[:, 1:] - _UNIFORM[:, :1]


@lru_cache(maxsize=16)
def _sampler_tables(key: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """cos and sin of the four cosine modes, and the cosh growth mode, on
    the profile grid whose float64 bytes are key (read-only, memoized)."""
    s = np.frombuffer(key)
    arg = 0.5 * math.pi * np.multiply.outer(_MODES, s / s[-1])
    tables = np.cos(arg), np.sin(arg), np.cosh(0.5 * s) / math.cosh(0.5 * s[-1])
    for a in tables:
        a.flags.writeable = False
    return tables


def _candidate_block(rng: np.random.Generator, s: np.ndarray, m: int,
                     rows: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, n) lower profiles and upper = lower + gap for the sampler.

    Each of 2 * rows random four-mode cosine profiles peaks at 1 in |.|;
    the first rows, scaled, are the lower profiles.  The gap mixes one of
    the rest with the cosh growth mode (on which the operator is strongly
    negative) and a constant lift that clears the boundary bands of m + 1
    nodes at each end.
    """
    cos_arg, sin_arg, grow = _sampler_tables(s.tobytes())
    coef = rng.normal(size=(2 * rows, 4)) / _MODES
    u = rng.random(11 * rows).reshape(11, rows)
    np.add(_UNIFORM_LOW, np.multiply(u, _UNIFORM_RANGE, out=u), out=u)
    phase, scale = u[:8].reshape(2 * rows, 4), u[8:, :, None]
    # sum_k coef cos(arg + phase), expanded so no (rows, 4, n) array forms
    smooth = np.einsum("rk,kn->rn", coef * np.cos(phase), cos_arg)
    smooth -= np.einsum("rk,kn->rn", coef * np.sin(phase), sin_arg)
    peak = np.maximum.reduce(np.abs(smooth), axis=-1, keepdims=True)
    np.divide(smooth, peak, out=smooth, where=peak > 0)
    lower = np.multiply(scale[0], smooth[:rows], out=smooth[:rows])
    gap = np.multiply(scale[1], grow)
    np.add(smooth[rows:], gap, out=gap)
    # lift - min(0, band minimum) has the bits of max(0, -band minimum) + lift:
    # it differs only in the sign of a zero, which adding lift >= +0 drops
    band_min = np.minimum.reduce(_end_bands(gap, m), axis=1, keepdims=True, initial=0.0)
    gap += np.subtract(scale[2], band_min, out=band_min)
    return lower, lower + gap


# candidates drawn per block: enough that one block usually covers the
# pairs still needed at the ~20 % acceptance rate, capped so the block
# arrays stay small (a 4096-row cap raised the peak RSS of a verify run
# by about 3 MB and was no faster)
_BLOCK_MIN, _BLOCK_PER_PAIR, _BLOCK_MAX = 16, 8, 256
_MAX_TRIES = 500  # candidates allowed per requested pair


def comparison_pairs(rng: np.random.Generator, n_pairs: int,
                     s: np.ndarray | None = None
                     ) -> tuple[list[tuple[ProfileFn, ProfileFn]], int]:
    """Rejection-sample n_pairs profile pairs satisfying both comparison premises.

    Candidates are drawn as blocks of rows (see _candidate_block).  A
    candidate is kept only when both premises hold for d = upper - lower
    in exactly the arithmetic of comparison_check, so accepted pairs are
    hypotheses of the comparison principle, never of a weakened version.
    Accepted pairs come back in draw order.

    Returns (pairs, n_candidates): the list of (lower, upper) pairs and
    the number of candidates drawn up to and including the last
    returned pair, so n_pairs / n_candidates is the acceptance rate.
    Raises DomainError for an n_pairs that is not a nonnegative integer,
    and RuntimeError when n_pairs acceptances need more than
    _MAX_TRIES * n_pairs candidates.
    """
    if isinstance(n_pairs, bool) or not isinstance(n_pairs, (int, np.integer)) \
            or n_pairs < 0:
        raise DomainError(f"n_pairs must be a nonnegative integer, got {n_pairs!r}")
    s, h, m = _checked_grid(default_comparison_grid() if s is None else s)
    budget = _MAX_TRIES * n_pairs
    pairs: list = []
    drawn = 0
    while len(pairs) < n_pairs:
        need = n_pairs - len(pairs)
        rows = min(max(_BLOCK_MIN, _BLOCK_PER_PAIR * need), _BLOCK_MAX,
                   budget - drawn)
        if rows <= 0:
            raise RuntimeError(
                "comparison-pair sampler failed to accept a candidate")
        lower, upper = _candidate_block(rng, s, m, rows)
        _, op_ok, bd_ok = _premises(upper - lower, h, m)
        keep = (op_ok & bd_ok).nonzero()[0][:need]
        # fancy indexing copies, so the pairs do not pin the whole block
        pairs += [(_on_checked_grid(s, lo, h, m), _on_checked_grid(s, up, h, m))
                  for lo, up in zip(lower[keep], upper[keep])]
        drawn += int(keep[-1]) + 1 if keep.size == need else rows
    return pairs, drawn


def random_comparison_pair(rng: np.random.Generator,
                           s: np.ndarray | None = None) -> tuple[ProfileFn, ProfileFn]:
    """One profile pair satisfying both comparison premises.

    Thin wrapper over comparison_pairs(rng, 1, s).
    """
    return comparison_pairs(rng, 1, s)[0][0]


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
                        c1: float | None = None) -> AngularAuditReport:
    """Audit the delayed comparison bound on a map's angular energy.

    Stations s0 cover the part of the grid where the unit window fits;
    Theta and the tension content G share the same quartic window.  The
    fitted c1 is read off the stations where L(Theta) is negative, the
    bound is the kernel supersolution with boundary coefficients
    2 e E0, and the report records whether Theta stays below it.
    """
    if not (math.isfinite(profile_step) and profile_step > 0):
        raise DomainError(f"profile_step must be finite and > 0, got {profile_step}")
    if c1 is not None and not (math.isfinite(c1) and c1 >= 0):
        raise DomainError(f"c1 must be finite and >= 0, got {c1}")
    grid = u.grid
    half = grid.s_max - 1.0
    # 2 floor(half / step) + 1 stations, capped before any rounding (the ratio may be inf)
    if max(half, DELAY) / profile_step >= MAX_STATIONS // 2:
        raise DomainError(f"profile_step: {profile_step} asks for more than "
                          f"{MAX_STATIONS} stations on a grid with s_max = {grid.s_max}")
    steps = DELAY / profile_step
    if round(steps) < 1 or abs(steps - round(steps)) > 1e-9:
        raise DomainError("profile_step must divide the half-unit delay")
    n_half = math.floor(half / profile_step)
    if n_half * profile_step < DELAY + 2 * profile_step:
        return _empty_audit()
    s0 = profile_step * np.arange(-n_half, n_half + 1)

    J = jet(u)
    theta_vals, forcing = window_integrals(
        grid, s0, J.u_theta_sq, tension_density(u, tension(u, J), J))

    profile = ProfileFn(s0, theta_vals)
    Lth = delay_operator(profile)
    inner = profile.interior()
    # denominator floor: below the discretization noise of Theta itself a
    # pointwise ratio would fit pure roundoff, not the inequality
    floor = 1e-12 * (1.0 + float(np.max(theta_vals, initial=0.0)))
    ratios = np.where(Lth < 0, -Lth / np.maximum(forcing[inner], floor), 0.0)
    fitted_c1 = float(np.max(ratios)) if ratios.size else 0.0
    used_c1 = c1 if c1 is not None else max(DEFAULT_C1, 1.1 * fitted_c1)

    coeff = 2.0 * math.e * energies(u, J).E
    bound = kernel_solution(s0, forcing, used_c1, a=coeff, b=coeff)
    return AngularAuditReport(
        s0=s0, theta=theta_vals, forcing=forcing, operator_values=Lth,
        fitted_c1=fitted_c1, c1=float(used_c1), bound=bound,
        satisfied=bool(np.all(theta_vals <= bound.values)), vacuous=False)
