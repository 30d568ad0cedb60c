"""Arc length of the collar family toward the pinch.

Moving the collar metric in its conformal family at unit speed with
respect to the quadratic-differential pairing, the core length obeys

    d ell / d s = -(8 pi^2 / ell) / ||dz^2||_{L^2(ell)},

so the distance from core length ell0 to the pinch (ell -> 0) is the
integral of the reciprocal speed.  In the substitution m = sqrt(ell)
the integrand becomes sqrt(g(m^2)) / (4 pi^2) with

    g(ell) = ell^3 ||dz^2||^2
           = 32 pi^3 * ell X(ell) + 64 pi^4 sinh(ell/2) / cosh^2(ell/2),

which is smooth through the pinch: g(0) = 32 pi^5 and g is strictly
decreasing (g' = -64 pi^4 sinh^2 / cosh^3), so the integrand never
exceeds sqrt(2 pi) and the total distance is finite, below
sqrt(2 pi ell0).  The shortfall starts at cubic order,
dist = sqrt(2 pi ell0) (1 - ell0^3 / (84 pi) + O(ell0^5)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from collarflow.geometry import ELL_MAX, DomainError

G_AT_PINCH = 32.0 * math.pi**5
PATH_SAMPLES = 200  # core lengths in the sampled path of integrate_to_pinch


def _check_lengths(ell, name: str = "ell", closed: bool = False) -> np.ndarray:
    """ell as a float array in (0, 2 arsinh 1), or [0, 2 arsinh 1] if closed; NaN fails."""
    ell = np.asarray(ell, dtype=float)
    inside = (ell >= 0) & (ell <= ELL_MAX) if closed else (ell > 0) & (ell < ELL_MAX)
    if not np.all(inside):
        bad = float(ell.flat[np.argmin(inside)])
        raise DomainError(f"{name}: need a core length in "
                          f"{'[0, 2 arsinh 1]' if closed else '(0, 2 arsinh 1)'}, got {bad}")
    return ell


def speed_normalizer(ell):
    """g(ell) = ell^3 ||dz^2||_L2^2 in a form with no cancellation at 0.

    ell * X(ell) is expanded to 2 pi (pi/2 - arctan sinh(ell/2)), which
    stays finite and smooth as ell -> 0; accepts scalars or arrays with
    entries in [0, 2 arsinh 1].
    """
    ell = _check_lengths(ell, closed=True)
    half = np.sinh(ell / 2.0)
    ell_x = 2.0 * math.pi * (math.pi / 2.0 - np.arctan(half))
    out = 32.0 * math.pi**3 * ell_x \
        + 64.0 * math.pi**4 * half / np.cosh(ell / 2.0) ** 2
    return float(out) if out.ndim == 0 else out


def pinch_speed(ell):
    """d ell / d s along the unit-speed family, always negative.

    Tends to -sqrt(2 ell / pi) at the pinch; since ||dz^2||^2 = g / ell^3,
    the speed -(8 pi^2 / ell) / ||dz^2|| is -8 pi^2 sqrt(ell) / sqrt(g).
    """
    ell_arr = _check_lengths(ell)
    out = -8.0 * math.pi**2 * np.sqrt(ell_arr) / np.sqrt(speed_normalizer(ell_arr))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class WPPath:
    """Sampled distance-to-pinch along decreasing core lengths."""

    ell: np.ndarray        # strictly decreasing, ell[0] = starting length
    distance: np.ndarray   # remaining distance to the pinch at each ell
    total: float           # distance[0]


def integrate_to_pinch(ell0: float, tol: float = 1e-10) -> WPPath:
    """Distance from core length ell0 to the pinch, with a sampled path.

    Integrates d s / d m = sqrt(g(m^2)) / (4 pi^2) from the pinch m = 0
    up to m = sqrt(ell0) on PATH_SAMPLES - 1 equal intervals, each by
    Gauss-Legendre with nodes doubled until two totals agree to tol
    relative; the integrand is smooth on the closed interval.
    """
    _check_lengths(ell0, "ell0")
    if not (math.isfinite(tol) and tol >= 0):
        raise DomainError(f"tol must be finite and >= 0, got {tol}")
    m, h = np.linspace(0.0, math.sqrt(ell0), PATH_SAMPLES, retstep=True)
    total = math.inf
    for n in (1, 2, 4, 8, 16, 32, 64):
        x, w = leggauss(n)
        g = speed_normalizer((m[:-1, None] + 0.5 * h * (x + 1.0)) ** 2)
        panels = 0.5 * h * (np.sqrt(g) @ w) / (4.0 * math.pi**2)
        prev, total = total, float(panels.sum())
        if abs(total - prev) <= tol * total:
            dist = np.concatenate([[0.0], np.cumsum(panels)])[::-1]  # ell0 to pinch
            return WPPath(ell=m[::-1] ** 2, distance=dist, total=float(dist[0]))
    raise DomainError(f"distance quadrature missed tol = {tol} at 64 nodes per panel")


@dataclass(frozen=True)
class CorrectionFit:
    """Least-squares cubic/quintic fit of the distance shortfall."""

    c3: float
    c5: float
    max_rel_residual: float


def correction_coefficient(ell_list, tol: float = 1e-11) -> CorrectionFit:
    """Fit 1 - dist / sqrt(2 pi ell) = c3 ell^3 + c5 ell^5 over sample lengths.

    Needs at least three well-separated lengths; each distance comes from
    integrate_to_pinch at tol.  An ill-conditioned design
    matrix (clustered or out-of-range lengths) is rejected rather than
    silently fitted.
    """
    ells = np.asarray(ell_list, dtype=float)
    if ells.ndim != 1 or ells.size < 3:
        raise DomainError("need at least 3 sample lengths")
    _check_lengths(ells, "sample lengths")
    spread = np.max(ells) - np.min(ells)
    if spread <= 0 or np.min(np.diff(np.sort(ells))) < 0.05 * spread:
        raise DomainError("sample lengths must be well separated")
    dists = np.array([integrate_to_pinch(l, tol=tol).total for l in ells])
    shortfall = 1.0 - dists / np.sqrt(2.0 * math.pi * ells)
    design = np.stack([ells**3, ells**5], axis=1)
    scale = np.max(design, axis=0)
    coeffs, *_ = np.linalg.lstsq(design / scale, shortfall, rcond=None)
    coeffs = coeffs / scale
    cond = float(np.linalg.cond(design / scale))
    if cond > 1e8:
        raise DomainError(f"fit design matrix ill-conditioned ({cond:.2e})")
    resid = design @ coeffs - shortfall
    max_rel = float(np.max(np.abs(resid)) / np.max(np.abs(shortfall)))
    return CorrectionFit(c3=float(coeffs[0]), c5=float(coeffs[1]),
                         max_rel_residual=max_rel)
