"""Coupled evolution of a map and the collar core length.

The map relaxes by its tension field while the core length moves at the
rate dictated by the principal part of the map's Hopf differential:

    du/dt   = tau_g(u),
    dell/dt = -(2 pi^2 / ell) (eta^2 / 4) Re b0(Phi(u, g_ell)),

with b0 the L^2 projection coefficient of the Hopf differential onto
dz^2 on the run's own coordinate grid.  The coordinate domain
[-s_max, s_max] x S^1 is fixed once, in FlowConfig's one CollarGrid
(s_max = X(ell_max) by default); grid_at(ell) refreshes only the
conformal factor.  As the coordinate energy E = 1/2 int |du|^2 ds dtheta
is conformally invariant, the length motion does no work on E and the
discrete energy identity dE/dt = -||tau||^2 is carried by the map alone.

Discrete energy bookkeeping: the trace's E column is the staggered
(face-difference) energy, whose gradient is exactly the five-point
Laplacian used by the tension stencil on the interior rows.  With that
pairing the semi-discrete identity is exact, so the recorded residual
dE/dt + ||tau||^2 is first order in dt with no spatial floor term.  The
jet-based EnergyReport quantities (I, I_theta, I_smooth) agree with
their continuum targets to O(h^2) and are recorded alongside.

Boundary conditions are Dirichlet in s (the outermost node rows are
pinned, their tension is treated as zero) and periodic in theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from collarflow.geometry import ELL_MAX, CollarGrid, DomainError, check_block
from collarflow.fields import (
    MapField,
    MapJet,
    TargetSpec,
    energies,
    jet,
    tension,
    tension_l2,
)
from collarflow.quad_diff import hopf_differential, principal_coefficient

TRACE_COLUMNS = ("t", "ell", "E", "I", "I_theta", "I_smooth",
                 "tension_l2", "re_b0", "im_b0", "dE_residual")

STATUS_COMPLETED = "completed"
STATUS_PINCHED = "pinched"
STATUS_BLOWUP = "blow-up-detected"
STATUS_CAPPED = "capped"  # ell rose above ell_max: collar model left its domain

# the JSON type of each FlowConfig field but the target (geometry.check_block)
FLOW_FIELDS = {"ell0": float, "eta": float, "dt": float, "t_end": float,
               "n_s": int, "n_theta": int, "ell_max?": float | None,
               "ell_floor?": float, "s_max?": float | None, "stepper?": str,
               "stride?": int, "blowup_sup_density?": float}


class FlowError(RuntimeError):
    """A step produced invalid state; carries the failing step index."""

    def __init__(self, message: str, step_index: int):
        super().__init__(f"step {step_index}: {message}")
        self.step_index = step_index


def stability_limit(ell_floor: float, n_s: int, n_theta: int, s_max: float) -> float:
    """Largest stable explicit step for the tension flow on the fixed grid.

    The tension operator is rho^-2 times the five-point Laplacian; its
    spectral radius is at most max(rho^-2) (4/h_s^2 + 4/h_theta^2), and
    rho is smallest at the core of the shortest admissible collar, so
    the bound is evaluated at ell_floor.
    """
    h_s = 2.0 * s_max / n_s
    h_t = 2.0 * math.pi / n_theta
    rho_min = ell_floor / (2.0 * math.pi)
    return rho_min**2 / (2.0 * (1.0 / h_s**2 + 1.0 / h_t**2))


@dataclass(frozen=True)
class FlowConfig:
    """Validated parameters of a flow run.

    eta scales the length motion (eta = 0 freezes ell); stepper is
    "euler" or "rk2"; stride is the trace sampling interval in steps.
    The run halts early when ell crosses ell_floor (pinched), exceeds
    ell_max (capped), or the energy density passes blowup_sup_density.
    """

    ell0: float
    eta: float
    dt: float
    t_end: float
    n_s: int
    n_theta: int
    target: TargetSpec
    ell_max: float | None = None
    ell_floor: float = 1e-3
    s_max: float | None = None
    stepper: str = "euler"
    stride: int = 1
    blowup_sup_density: float = 1e8

    def __post_init__(self):
        check_block({k: v for k, v in vars(self).items() if k != "target"},
                    FLOW_FIELDS, "flow")
        ell_max = self.ell_max if self.ell_max is not None else self.ell0
        object.__setattr__(self, "ell_max", float(ell_max))
        if not 0.0 < self.ell_floor < self.ell0 <= self.ell_max < ELL_MAX:
            raise DomainError(
                f"need 0 < ell_floor < ell0 <= ell_max < 2 arsinh 1, got "
                f"{self.ell_floor}, {self.ell0}, {self.ell_max}")
        if self.eta < 0:
            raise DomainError("eta must be nonnegative")
        if self.stepper not in ("euler", "rk2"):
            raise DomainError(f"unknown stepper {self.stepper!r}")
        if self.stride < 1:
            raise DomainError("stride must be >= 1")
        if not (self.t_end > 0 and self.dt > 0):
            raise DomainError("dt and t_end must be positive")
        # the run's one grid; not a field, so asdict and config_sha256 skip it
        grid = CollarGrid(self.ell_max, self.n_s, self.n_theta, s_max=self.s_max)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "s_max", grid.s_max)
        cap = stability_limit(self.ell_floor, self.n_s, self.n_theta, self.s_max)
        if self.dt > cap:
            raise DomainError(
                f"dt = {self.dt} above the parabolic stability bound {cap:.3e} "
                f"for this grid at ell_floor = {self.ell_floor}")

    def grid_at(self, ell: float) -> CollarGrid:
        return self.grid.at(ell)


@dataclass
class FlowState:
    """Instantaneous state: the map (carrying its grid at the current ell),
    the core length and the time."""

    u: MapField
    ell: float
    t: float


def initial_state(config: FlowConfig, values: np.ndarray) -> FlowState:
    grid = config.grid_at(config.ell0)
    u = MapField(grid, values, config.target)
    return FlowState(u=u, ell=config.ell0, t=0.0)


def metric_speed(state: FlowState, eta: float, jet_=None) -> tuple[float, complex]:
    """Length velocity -(2 pi^2/ell)(eta^2/4) Re b0 and the coefficient b0.

    b0 is the grid-quadrature projection of the Hopf differential onto
    dz^2; for holomorphic Hopf differentials it equals the zero-mode
    coefficient regardless of how much of the collar the grid covers.
    """
    b0 = principal_coefficient(hopf_differential(state.u, jet_=jet_))
    speed = -(2.0 * math.pi**2 / state.ell) * (eta * eta / 4.0) * b0.real
    return speed, b0


def pinned_tension(u: MapField, jet_: MapJet | None = None) -> np.ndarray:
    """Tension field with the two Dirichlet rows zeroed (the flow's vector field)."""
    tau = tension(u, jet_)
    tau[0] = 0.0
    tau[-1] = 0.0
    return tau


def face_energy(u: MapField, jet_: MapJet | None = None) -> float:
    """Staggered coordinate energy 1/2 sum over faces of |du|^2.

    Second-order accurate for E and exactly paired with the five-point
    tension stencil: its gradient at an interior node is minus the flat
    Laplacian times the cell area, which makes the semi-discrete energy
    identity along the flow exact.  The face differences are the jet's.
    """
    J = jet_ or jet(u)
    h_s, h_t = u.grid.h_s, u.grid.theta_weight
    Ds, Dt = J.d_s, J.d_theta
    e_s = float(np.sum(Ds * Ds)) / h_s**2
    e_t = float(np.sum(Dt * Dt)) / h_t**2
    return 0.5 * (e_s + e_t) * h_s * h_t


def _velocity(state: FlowState, config: FlowConfig) -> tuple[np.ndarray, float]:
    """Pinned tension and length speed of a state, from one derivative pass."""
    J = jet(state.u)
    tau = pinned_tension(state.u, J)
    if config.eta == 0.0:
        return tau, 0.0
    return tau, metric_speed(state, config.eta, jet_=J)[0]


def _advance(state: FlowState, config: FlowConfig, tau: np.ndarray,
             speed: float) -> FlowState:
    """The state one Euler step of dt along (tau, speed) from state.

    Raises FlowError on a non-finite result; the new map's grid takes the
    length clamped to [ell_floor, ell_max], the state keeps it unclamped.
    """
    u = state.u
    vals = u.target.project(u.values + config.dt * tau)
    ell = state.ell + config.dt * speed
    t = state.t + config.dt
    if not np.isfinite(vals).all() or not math.isfinite(ell):
        raise FlowError("non-finite state", round(t / config.dt))
    grid = config.grid_at(min(max(ell, config.ell_floor), config.ell_max))
    return FlowState(u=MapField(grid, vals, u.target), ell=ell, t=t)


def step(state: FlowState, config: FlowConfig,
         velocity: tuple[np.ndarray, float] | None = None) -> FlowState:
    """One explicit step of the coupled system (Euler or Heun RK2); velocity
    is the state's (pinned tension, length speed) if the caller has it."""
    tau, speed = velocity or _velocity(state, config)
    if config.stepper == "rk2":
        tau2, speed2 = _velocity(_advance(state, config, tau, speed), config)
        tau, speed = 0.5 * (tau + tau2), 0.5 * (speed + speed2)
    return _advance(state, config, tau, speed)


@dataclass
class FlowTrace:
    """Sampled run history plus the terminal status and state."""

    columns: dict[str, np.ndarray]
    status: str
    config: FlowConfig
    final: FlowState

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]

    @property
    def n_rows(self) -> int:
        return len(self.columns["t"])


def _sample_row(state: FlowState,
                config: FlowConfig) -> tuple[dict, tuple[np.ndarray, float]]:
    """A trace row of the state (all but dE_residual) and its velocity, from
    one derivative pass."""
    u = state.u
    J = jet(u)
    rep = energies(u, jet_=J)
    tau = pinned_tension(u, J)
    speed, b0 = metric_speed(state, config.eta, jet_=J)
    return dict(t=state.t, ell=state.ell, E=face_energy(u, J), I=rep.I,
                I_theta=rep.I_theta, I_smooth=rep.I_smooth,
                tension_l2=tension_l2(u, tau), re_b0=b0.real, im_b0=b0.imag,
                sup_density=rep.sup_density), (tau, speed)


def run(config: FlowConfig, initial_values: np.ndarray) -> FlowTrace:
    """Run the flow from the given initial node values until t_end or an exit.

    The trace is sampled every config.stride steps (plus the final
    state).  Exits: ell at or below ell_floor -> "pinched"; ell above
    ell_max -> "capped"; energy density above the configured threshold
    -> "blow-up-detected"; otherwise "completed" at t_end.
    """
    state = initial_state(config, initial_values)
    row, velocity = _sample_row(state, config)
    rows = [row]
    status = STATUS_COMPLETED
    n_steps = int(round(config.t_end / config.dt))
    for k in range(1, n_steps + 1):
        state = step(state, config, velocity)
        velocity = None
        if state.ell <= config.ell_floor:
            status = STATUS_PINCHED
        elif state.ell > config.ell_max:
            status = STATUS_CAPPED
        if k % config.stride == 0 or k == n_steps or status != STATUS_COMPLETED:
            row, velocity = _sample_row(state, config)
            rows.append(row)
            if status == STATUS_COMPLETED and row["sup_density"] > config.blowup_sup_density:
                status = STATUS_BLOWUP
        if status != STATUS_COMPLETED:
            break
    columns = {name: np.array([r[name] for r in rows])
               for name in TRACE_COLUMNS if name != "dE_residual"}
    trace = FlowTrace(columns=columns, status=status, config=config, final=state)
    columns["dE_residual"] = energy_identity_residual(trace)
    return trace


def energy_identity_residual(trace: FlowTrace) -> np.ndarray:
    """Row-wise residual of dE/dt = -||tau||^2 across consecutive trace rows.

    Row 0 has no predecessor and is NaN; for an Euler run with stride 1
    the remaining rows are O(dt).
    """
    t, E, tl2 = trace["t"], trace["E"], trace["tension_l2"]
    out = np.full_like(E, math.nan)
    out[1:] = np.diff(E) / np.diff(t) + tl2[:-1] ** 2
    return out


@dataclass(frozen=True)
class BoundFit:
    """Fitted row-wise constants for the two a-priori length/energy bounds."""

    C_ell: float       # |d/dt log ell| <= C ell (I + E0)
    C_smooth: float    # |d/dt log(1 + I_smooth)| <= C (1 + ||tau||^2)
    ell_ratios: np.ndarray
    smooth_ratios: np.ndarray


def dlogell_bound_check(trace: FlowTrace) -> BoundFit:
    """Measure the two evolution bounds along a trace.

    Derivatives are centered differences on the sampled rows; the fitted
    constants are the row maxima of |d/dt log ell| / (ell (I + E0)) and
    |d/dt log(1 + I_smooth)| / (1 + ||tau||^2), with E0 the trace's first E.
    The fit is undefined, and raises DomainError, with fewer than 3 rows,
    a row with ell <= 0 or a row with I + E0 = 0.
    """
    t = trace["t"]
    if len(t) < 3:
        raise DomainError("need at least 3 trace rows to fit the bounds")
    E0 = float(trace["E"][0])
    ell = trace["ell"]
    denom_ell = ell * (trace["I"] + E0)
    if np.any(ell <= 0.0) or np.any(denom_ell == 0.0):
        raise DomainError("the bound fit needs ell > 0 and I + E0 > 0 on every row")
    dlog_ell = np.gradient(np.log(ell), t)
    ell_ratios = np.abs(dlog_ell) / denom_ell
    dlog_smooth = np.gradient(np.log1p(trace["I_smooth"]), t)
    denom_smooth = 1.0 + trace["tension_l2"] ** 2
    smooth_ratios = np.abs(dlog_smooth) / denom_smooth
    return BoundFit(C_ell=float(np.max(ell_ratios)),
                    C_smooth=float(np.max(smooth_ratios)),
                    ell_ratios=ell_ratios, smooth_ratios=smooth_ratios)
