"""Test oracles: closed forms that no package module uses, written apart from
the package's own formulas so that tests can hold those formulas to them."""

import math

import numpy as np

from collarflow.geometry import DomainError, conformal_factor, half_length


def dz2_l2_sq_truncated(ell: float, s_max: float) -> float:
    """Squared L^2 norm of dz^2 over the subcylinder (-s_max, s_max) x S^1.

    Same antiderivative as dz2_norms, evaluated at +-s_max instead of the
    collar ends, for grids that cover only part of the collar.
    """
    X = half_length(ell)
    s_max = float(s_max)
    if not 0.0 < s_max <= X:
        raise DomainError(f"s_max = {s_max} not in (0, X] with X = {X}")
    a = ell / (2.0 * math.pi)
    # antiderivative of 8 pi (2pi/ell)^2 cos^2(a s): 8 pi (2pi/ell)^2 (s/2 + sin(2 a s)/(4a))
    pref = 8.0 * math.pi * (2.0 * math.pi / ell) ** 2
    F = lambda s: pref * (0.5 * s + math.sin(2.0 * a * s) / (4.0 * a))
    return F(s_max) - F(-s_max)


def deformed_circle_radius_sq(ell: float, s0: float, b0: complex, eps: float,
                              n_theta: int = 256) -> float:
    """Squared circle-length radius of {s0} x S^1 under a symmetric deformation.

    Deforms the collar metric g = rho^2 (ds^2 + dtheta^2) to
    g + eps Re(b0 dz^2) and returns (L/2pi)^2, where L is the length of
    the circle {s0} x S^1 in the deformed metric, computed by quadrature
    of sqrt(g_theta_theta) over the circle.  Since Re(b0 dz^2) has
    theta-theta component -Re(b0), the exact value is rho^2(s0) - eps Re(b0);
    the quadrature route is kept deliberately independent of that algebra
    so the identity can be tested.
    """
    rho2 = conformal_factor(ell, s0) ** 2
    g_tt = rho2 - eps * complex(b0).real
    if g_tt <= 0.0:
        raise DomainError("deformation too large: g_theta_theta not positive")
    theta = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    integrand = np.sqrt(np.full_like(theta, g_tt))
    length = float(np.sum(integrand) * (2.0 * math.pi / n_theta))
    return (length / (2.0 * math.pi)) ** 2
