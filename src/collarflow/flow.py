"""Coupled evolution of a map and the collar core length.

The map relaxes by its tension field while the core length moves at the
rate dictated by the principal part of the map's Hopf differential:

    du/dt   = tau_g(u),
    dell/dt = -(2 pi^2 / ell) (eta^2 / 4) Re b0(Phi(u, g_ell)),

with b0 the L^2 projection coefficient of the Hopf differential onto
dz^2 on the run's own coordinate grid.  The coordinate domain
[-s_max, s_max] x S^1 is fixed once, in FlowConfig's one CollarGrid
(s_max = X(ell_max) by default); grid_at(ell) gives its nodes under the
metric of length ell, and a run rewrites only the metric of two grids of
its own, which its states take in turn.  As the coordinate energy
E = 1/2 int |du|^2 ds dtheta is conformally invariant, the length motion
does no work on E and the discrete energy identity dE/dt = -||tau||^2 is
carried by the map alone.

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
    TARGET_KINDS,
    MapField,
    MapJet,
    TargetSpec,
    energies,
    jet,
    tension,
    tension_l2,
)
from collarflow.quad_diff import principal_coefficient

TRACE_COLUMNS = ("t", "ell", "E", "I", "I_theta", "I_smooth",
                 "tension_l2", "re_b0", "im_b0", "dE_residual")

STATUS_COMPLETED = "completed"
STATUS_PINCHED = "pinched"
STATUS_BLOWUP = "blow-up-detected"
STATUS_CAPPED = "capped"  # ell rose above ell_max: collar model left its domain
MAX_ROWS = 10**5  # trace rows a run may keep, about 0.6 KB each until it returns

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
        if not isinstance(self.target, TARGET_KINDS):
            kinds = " or ".join(kind.kind for kind in TARGET_KINDS)
            raise DomainError(f"flow.target: must be a {kinds} target, got {self.target!r}")
        ell_max = self.ell_max if self.ell_max is not None else self.ell0
        # name the first value out of order in the chain; a defaulted ell_max is ell0
        chain = (("ell_floor", 0.0 < self.ell_floor),
                 ("ell0", self.ell_floor < self.ell0),
                 ("ell0" if self.ell_max is None else "ell_max",
                  self.ell0 <= ell_max < ELL_MAX))
        bad = next((name for name, ok in chain if not ok), None)
        if bad is not None:
            raise DomainError(
                f"flow.{bad}: need 0 < ell_floor < ell0 <= ell_max < 2 arsinh 1, got "
                f"ell_floor = {self.ell_floor}, ell0 = {self.ell0}, ell_max = {ell_max}")
        object.__setattr__(self, "ell_max", float(ell_max))
        if self.eta < 0:
            raise DomainError(f"flow.eta: must be >= 0, got {self.eta}")
        if self.stepper not in ("euler", "rk2"):
            raise DomainError(f"flow.stepper: must be 'euler' or 'rk2', got {self.stepper!r}")
        if self.stride < 1:
            raise DomainError(f"flow.stride: must be >= 1, got {self.stride}")
        for name in ("dt", "t_end", "blowup_sup_density"):
            if not getattr(self, name) > 0:
                raise DomainError(f"flow.{name}: must be > 0, got {getattr(self, name)}")
        # the run's one grid, which checks n_s, n_theta and s_max; not a field,
        # so asdict and config_sha256 skip it
        try:
            grid = CollarGrid(self.ell_max, self.n_s, self.n_theta, s_max=self.s_max)
        except DomainError as exc:
            raise DomainError(f"flow.{exc}") from exc
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "s_max", grid.s_max)
        cap = stability_limit(self.ell_floor, self.n_s, self.n_theta, self.s_max)
        if self.dt > cap:
            raise DomainError(
                f"flow.dt: must be at most the parabolic stability bound {cap:.3e} "
                f"for this grid at ell_floor = {self.ell_floor}, got {self.dt}")
        # the run's step count; like grid, not a field
        n_steps = self.t_end / self.dt
        if not (math.isfinite(n_steps) and round(n_steps) >= 1):
            raise DomainError(f"flow.t_end: t_end / dt must round to a finite step count "
                              f">= 1, got t_end = {self.t_end}, dt = {self.dt}")
        n_steps = round(n_steps)
        # rows run appends: every stride-th state and the last, held until it returns
        n_rows = -(-n_steps // self.stride) + 1
        if n_rows > MAX_ROWS:
            raise DomainError(f"flow.t_end: t_end = {self.t_end} at dt = {self.dt} and stride "
                              f"= {self.stride} asks for more than {MAX_ROWS} trace rows, "
                              f"got {n_rows}")
        object.__setattr__(self, "n_steps", n_steps)

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
    u = state.u
    b0 = principal_coefficient(u.grid, (jet_ or jet(u)).hopf())
    speed = -(2.0 * math.pi**2 / state.ell) * (eta * eta / 4.0) * b0.real
    return speed, b0


def pinned_tension(u: MapField, jet_: MapJet | None = None,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Tension field with the two Dirichlet rows zeroed (the flow's vector
    field), into out when given."""
    tau = tension(u, jet_, out)
    tau[..., ::tau.shape[-2] - 1, :] = 0.0
    return tau


def face_energy(u: MapField, jet_: MapJet | None = None) -> float:
    """Staggered coordinate energy 1/2 sum over faces of |du|^2.

    Second-order accurate for E and exactly paired with the five-point
    tension stencil: its gradient at an interior node is minus the flat
    Laplacian times the cell area, which makes the semi-discrete energy
    identity along the flow exact.  The face differences are the jet's;
    their squares are summed per node by TargetSpec.dot in the jet's
    scratch rows, then over the nodes.
    """
    J = jet_ or jet(u)
    h_s, h_t = u.grid.h_s, u.grid.theta_weight
    row, tmp = J.scratch
    e_s = float(np.sum(u.target.dot(J.d_s, J.d_s, row[:-1], tmp[:-1]))) / h_s**2
    e_t = float(np.sum(u.target.dot(J.d_theta, J.d_theta, row, tmp))) / h_t**2
    return 0.5 * (e_s + e_t) * h_s * h_t


class RunArrays:
    """The work arrays of one flow run, allocated once and overwritten by
    every step: one jet (refilled for each state, its u_ss end rows never
    written, as the pinned tension ignores them), the pinned tension of
    the state (tau) and of the RK2 midpoint (tau_mid), two value arrays
    and two grids (config.grid's nodes, their metric rewritten in place)
    that consecutive states take in turn.

    Neither value array is ever the caller's initial values, nor either
    grid the caller's.  A state's values and grid stay intact until the
    step after next, so a run's final state may keep them.
    """

    def __init__(self, config: FlowConfig):
        shape = (config.target.dim, config.n_s, config.n_theta)
        # the value arrays first: the one a run's final state keeps then
        # sits below the others, which malloc can return from the heap top
        self.values = (np.empty(shape), np.empty(shape))
        self.grids = (config.grid_at(config.ell_max), config.grid_at(config.ell_max))
        self.jet = MapJet(config.target, config.n_s, config.n_theta, pinned=True)
        self.tau = np.empty(shape)
        self.tau_mid = np.empty(shape)

    def free_values(self, state: FlowState) -> np.ndarray:
        """The value array the state's map does not hold."""
        a, b = self.values
        return b if state.u.values is a else a

    def free_grid(self, state: FlowState) -> CollarGrid:
        """The grid the state's map does not hold."""
        a, b = self.grids
        return b if state.u.grid is a else a


def _evaluate(state: FlowState, config: FlowConfig, work: RunArrays,
              out: np.ndarray, sample: bool = False) -> tuple[np.ndarray, float, dict | None]:
    """Pinned tension (into out) and length speed of a state from one jet
    (work's), skipping b0 only at eta = 0 without sample; with sample also
    the state's trace row (all but dE_residual), else None."""
    u = state.u
    J = jet(u, work.jet)
    tau = pinned_tension(u, J, out)
    if config.eta == 0.0 and not sample:
        return tau, 0.0, None
    speed, b0 = metric_speed(state, config.eta, jet_=J)
    if not sample:
        return tau, speed, None
    rep = energies(u, jet_=J)
    return tau, speed, dict(t=state.t, ell=state.ell, E=face_energy(u, J),
                            I=rep.I, I_theta=rep.I_theta, I_smooth=rep.I_smooth,
                            tension_l2=tension_l2(u, tau, J), re_b0=b0.real, im_b0=b0.imag,
                            sup_density=rep.sup_density)


def _advance(state: FlowState, config: FlowConfig, tau: np.ndarray,
             speed: float, work: RunArrays) -> FlowState:
    """The state one Euler step of dt along (tau, speed) from state, its
    values in work's free value array.

    Raises FlowError on a non-finite result or a length at or below zero.
    The values are projected and checked finite here, so the new map skips
    MapField's own checks.  Its grid takes the length clamped to
    [ell_floor, ell_max]: the state's own grid if that has not moved (eta
    = 0, or held at the floor or cap), else work's free grid, its metric
    rewritten in place.  The state keeps the length unclamped.
    """
    u = state.u
    vals = np.multiply(tau, config.dt, out=work.free_values(state))
    vals += u.values
    norms, tmp = work.jet.scratch
    u.target.project(vals, norms=norms, tmp=tmp)
    ell = state.ell + config.dt * speed
    t = state.t + config.dt
    if not np.isfinite(vals).all() or not math.isfinite(ell):
        raise FlowError("non-finite state", round(t / config.dt))
    if ell <= 0.0:
        raise FlowError(f"core length ell = {ell!r} at or below zero", round(t / config.dt))
    ell_grid = min(max(ell, config.ell_floor), config.ell_max)
    grid = u.grid
    if ell_grid != grid.ell:
        grid = work.free_grid(state)
        grid.refresh(ell_grid)
    return FlowState(u=MapField._of_projected(grid, vals, u.target), ell=ell, t=t)


def step(state: FlowState, config: FlowConfig,
         velocity: tuple[np.ndarray, float] | None = None,
         work: RunArrays | None = None) -> FlowState:
    """One explicit step of the coupled system (Euler or Heun RK2); velocity
    is the state's (pinned tension, length speed) if the caller has it.

    It writes only into work, a run's arrays and grids, or without work
    into new arrays and grids of its own.  The state's values and grid stay
    intact; the new state's stay intact until the step after next on work.
    """
    work = work or RunArrays(config)
    tau, speed = velocity or _evaluate(state, config, work, work.tau)[:2]
    if config.stepper == "rk2":
        mid = _advance(state, config, tau, speed, work)
        tau2, speed2, _ = _evaluate(mid, config, work, work.tau_mid)
        tau2 += tau  # Heun's average in place, bit for bit 0.5 * (tau + tau2)
        tau2 *= 0.5
        tau, speed = tau2, 0.5 * (speed + speed2)
    return _advance(state, config, tau, speed, work)


@dataclass
class FlowTrace:
    """Sampled run history plus the terminal status and state."""

    columns: dict[str, np.ndarray]
    status: str
    final: FlowState

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]

    @property
    def n_rows(self) -> int:
        return len(self.columns["t"])


def run(config: FlowConfig, initial_values: np.ndarray) -> FlowTrace:
    """Run the flow from the given initial node values until t_end or an exit.

    The trace is sampled every config.stride steps (plus the final
    state).  Exits: ell at or below ell_floor -> "pinched"; ell above
    ell_max -> "capped"; energy density above the configured threshold
    -> "blow-up-detected"; otherwise "completed" at t_end.

    One derivative pass per state gives its row, when sampled, and its
    step's velocity.  The steps write into one RunArrays; the final
    state's values are one of its value arrays, never initial_values.
    """
    work = RunArrays(config)
    state = initial_state(config, initial_values)
    rows, status, n_steps = [], STATUS_COMPLETED, config.n_steps
    for k in range(n_steps + 1):
        sample = k % config.stride == 0 or k == n_steps or status != STATUS_COMPLETED
        tau, speed, row = _evaluate(state, config, work, work.tau, sample)
        if sample:
            rows.append(row)
            if k and status == STATUS_COMPLETED \
                    and row["sup_density"] > config.blowup_sup_density:
                status = STATUS_BLOWUP
        if k == n_steps or status != STATUS_COMPLETED:
            break
        state = step(state, config, (tau, speed), work)
        if state.ell <= config.ell_floor:
            status = STATUS_PINCHED
        elif state.ell > config.ell_max:
            status = STATUS_CAPPED
    columns = {name: np.array([r[name] for r in rows])
               for name in TRACE_COLUMNS if name != "dE_residual"}
    trace = FlowTrace(columns=columns, status=status, final=state)
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
    return BoundFit(C_ell=float(np.max(ell_ratios)),
                    C_smooth=float(np.max(np.abs(dlog_smooth) / denom_smooth)),
                    ell_ratios=ell_ratios)
