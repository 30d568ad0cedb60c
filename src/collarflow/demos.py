"""Shipped demonstration runs and initial-field builders.

Three runs cover the three terminal behaviours: a wrapped circle map
whose constant Hopf differential pushes the core length up
("wrap", completes), a radial stretch whose Hopf differential drains
the length to the floor ("pinch"), and a length-frozen sinusoidal
relaxation ("relax", completes with decreasing energy).

The pinch is a gap in the model: the paper rules out finite-time
pinching for nonpositively curved targets such as the flat torus, but
the run keeps its coordinate window at X(ell0) with pinned outer rows,
while on a closed surface the collar lengthens as X(ell) ~ pi^2 / ell.
"""

from __future__ import annotations

import math

import numpy as np

from collarflow.geometry import DomainError, check_block, half_length
from collarflow.fields import FlatTorus, RoundSphere, TargetSpec, sample_map
from collarflow.flow import FlowConfig, stability_limit


# keys each initial kind reads; check_block adds the "kind" tag itself
_INITIAL = ("kind", {"wrap": {"a?": float}, "radial": {"b?": float},
                     "theta-modes": {"amplitudes?": list[float], "width?": float},
                     "sphere-equator": {"eps?": float}})
# the target class each initial kind needs, and the least dim it fills
_NEEDS = {"wrap": (FlatTorus, 1), "radial": (FlatTorus, 1),
          "theta-modes": (FlatTorus, 1), "sphere-equator": (RoundSphere, 3)}


def build_initial(config: FlowConfig, spec: dict) -> np.ndarray:
    """Initial node values from a small declarative recipe.

    Kinds: "wrap" (theta winding, scale a), "radial" (u = b s per
    component), "theta-modes" (sum of a_n sin(n theta) profiles with a
    gaussian envelope in s), each on a flat torus, and "sphere-equator"
    (equatorial winding, optional transverse tilt eps, zero past the third
    component).  A key the kind does not read is an error, and so is a
    target not in _NEEDS.
    """
    kind = check_block(spec, _INITIAL, "initial")["kind"]
    grid = config.grid_at(config.ell0)
    target = config.target
    need, least = _NEEDS[kind]
    if not isinstance(target, need) or target.dim < least:
        raise DomainError(f"initial.kind: {kind!r} needs a {need.kind} target with "
                          f"dim >= {least}, got {target.kind} with dim = {target.dim}")

    def padded(*components):  # the component planes, then zero planes up to target.dim
        zeros = [np.zeros_like(components[0])] * (target.dim - len(components))
        return np.stack([*components, *zeros])

    if kind == "wrap":
        return sample_map(grid, target, lambda s, t: padded(spec.get("a", 1.0) * t)).values
    if kind == "radial":
        return sample_map(grid, target, lambda s, t: padded(spec.get("b", 1.0) * s)).values
    if kind == "theta-modes":
        amps, width = spec.get("amplitudes", [0.3]), spec.get("width", 0.5)
        if not width > 0:
            raise DomainError(f"initial.width: must be > 0, got {width}")
        width *= grid.s_max
        vals = np.zeros((target.dim, grid.n_s, grid.n_theta))
        env = np.exp(-0.5 * (grid.s_nodes / width) ** 2)
        for n, a_n in enumerate(amps, start=1):
            comp = (n - 1) % target.dim
            vals[comp] += a_n * env[:, None] \
                * np.sin(n * grid.theta_nodes)[None, :]
        return vals
    # sphere-equator
    return sample_map(grid, target, lambda s, t: padded(
        np.cos(t), np.sin(t), spec.get("eps", 0.0) * np.tanh(s) * np.ones_like(t))).values


def _demo_wrap() -> tuple[FlowConfig, dict]:
    n_s, n_theta, floor, ell_max = 48, 12, 0.2, 0.6
    s_max = half_length(ell_max)
    dt = 0.8 * stability_limit(floor, n_s, n_theta, s_max)
    cfg = FlowConfig(ell0=0.25, eta=0.5, dt=dt, t_end=150 * dt, n_s=n_s,
                     n_theta=n_theta, ell_max=ell_max, ell_floor=floor,
                     target=TargetSpec.flat_torus(dim=1), stride=5)
    return cfg, {"kind": "wrap", "a": 1.0}


def _demo_pinch() -> tuple[FlowConfig, dict]:
    n_s, n_theta, floor = 40, 8, 0.05
    ell0, eta, b = 0.15, 0.6, 0.8
    s_max = half_length(ell0)
    dt = 0.8 * stability_limit(floor, n_s, n_theta, s_max)
    t_hit = (ell0**2 - floor**2) / (math.pi**2 * eta**2 * b**2)
    cfg = FlowConfig(ell0=ell0, eta=eta, dt=dt, t_end=2.0 * t_hit, n_s=n_s,
                     n_theta=n_theta, ell_floor=floor,
                     target=TargetSpec.flat_torus(dim=1), stride=10)
    return cfg, {"kind": "radial", "b": b}


def _demo_relax() -> tuple[FlowConfig, dict]:
    n_s, n_theta, floor = 64, 16, 0.18
    ell0 = 0.2
    s_max = half_length(ell0)
    dt = 0.5 * stability_limit(floor, n_s, n_theta, s_max)
    cfg = FlowConfig(ell0=ell0, eta=0.0, dt=dt, t_end=200 * dt, n_s=n_s,
                     n_theta=n_theta, ell_floor=floor,
                     target=TargetSpec.flat_torus(dim=2), stride=4)
    return cfg, {"kind": "theta-modes", "amplitudes": [0.3, 0.15, 0.1]}


DEMOS = {"wrap": _demo_wrap, "pinch": _demo_pinch, "relax": _demo_relax}


def demo_config(name: str) -> tuple[FlowConfig, dict]:
    if name not in DEMOS:
        raise DomainError(f"unknown demo {name!r} (one of {sorted(DEMOS)})")
    return DEMOS[name]()
