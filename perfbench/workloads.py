"""The benchmark's workloads: their inputs, their fixed round of operations
and the check each operation's output must pass.

Every workload is one client in a closed loop: an operation starts only
after the previous one returned.  The package sees only the inputs built
here from the workload seed.  All calls go through module attributes
(``flow.run``, ``cli.main``, ...) so that the tracer's wrappers apply.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from collarflow import angular, cli, demos, flow, geometry, verify
from collarflow import io as cfio
from collarflow.fields import MapField, TargetSpec

DEFAULT_SEED = 0
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


@dataclass
class Op:
    kind: str
    round: int
    seconds: float
    ok: bool
    work: int = 0          # flow steps or sampled pairs the operation completed
    error: str = ""


class Runner:
    """Runs operations one after another, times them and checks their outputs.

    An exception from the call, a nonzero exit code or a failed check
    marks the operation failed; it never stops the run.  ``reference``
    maps value names to {"value", "rtol"}; values compared against it
    feed ``rel_diffs`` and ``observed``.
    """

    def __init__(self, reference: dict | None = None):
        self.ops: list[Op] = []
        self.reference = reference or {}
        self.tracer = None  # set by a traced run while its wrappers are installed
        self.rel_diffs: list[float] = []
        self.observed: dict[str, float] = {}

    def op(self, kind: str, rnd: int, call, check) -> None:
        if self.tracer is not None:
            self.tracer.op_id = len(self.ops)
        t0 = perf_counter()
        try:
            result = call()
        except Exception as exc:  # a crashed operation is a failed operation
            self._record(kind, rnd, perf_counter() - t0, exc)
            return
        finally:
            if self.tracer is not None:
                self.tracer.op_id = None
        seconds = perf_counter() - t0
        try:
            work = check(result)
        except Exception as exc:
            self._record(kind, rnd, seconds, exc)
            return
        self.ops.append(Op(kind, rnd, seconds, True, int(work)))

    def _record(self, kind, rnd, seconds, exc) -> None:
        self.ops.append(Op(kind, rnd, seconds, False, 0,
                           f"{type(exc).__name__}: {exc}"))

    def compare(self, key: str, value: float) -> None:
        """Check one output value against its stored reference, if any."""
        self.observed[key] = float(value)
        ref = self.reference.get(key)
        if ref is None:
            return
        rel = abs(value - ref["value"]) / max(abs(ref["value"]), 1e-300)
        self.rel_diffs.append(rel)
        if not rel <= ref["rtol"]:
            raise CheckFailed(f"{key} = {value!r}, reference {ref['value']!r} "
                              f"(rel diff {rel:.3g} > {ref['rtol']:g})")


def load_reference(seed: int) -> dict:
    """Reference values apply at the default seed only."""
    if seed != DEFAULT_SEED:
        return {}
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))["values"]


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """cli.main in-process with its console output captured: (exit code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue()


def require_exit_zero(result: tuple[int, str]) -> None:
    rc, err = result
    require(rc == 0, f"exit code {rc}: {err.strip()[-200:]}")


def read_columns(path) -> tuple[dict, dict]:
    """Columns and '# key: value' provenance of a CSV artifact."""
    prov, rows, header = {}, [], None
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            key, _, val = line[1:].strip().partition(": ")
            prov[key] = val
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append([float(v) for v in line.split(",")])
    data = np.array(rows).reshape(len(rows), len(header))
    return {name: data[:, j] for j, name in enumerate(header)}, prov


def energy_never_rises(E: np.ndarray) -> bool:
    return bool(np.all(np.diff(E) <= 0.0))


# ------------------------------------------------------------------ demos

class Demos:
    """`collarflow flow --demo wrap|pinch|relax` through cli.main.

    Tiny torus grids (48x12, 40x8, 64x16) where per-call Python and
    allocation overhead dominate; covers the completed, pinched and
    frozen-length exits.  The demos are fixed configs, so the seed only
    reaches the provenance.
    """

    name = "demos"
    primary = ("wrap", "pinch", "relax")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        self.configs = {n: demos.demo_config(n) for n in self.primary}

    def run_round(self, runner: Runner, rnd: int) -> None:
        for name in self.primary:
            out = self.workdir / name
            runner.op(name, rnd,
                      lambda: run_cli(["flow", "--demo", name, "--out", str(out),
                                       "--seed", str(self.seed)]),
                      lambda res: self.check(runner, name, out, res))

    def check(self, runner: Runner, name: str, out: Path, result) -> int:
        require_exit_zero(result)
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        cols, _ = read_columns(out / "trace.csv")
        cfg, init = self.configs[name]
        status = summary["status"]
        if name == "wrap":
            require(status == flow.STATUS_COMPLETED, f"wrap status {status}")
            require(bool(np.all(np.diff(cols["ell"]) > 0.0)), "wrap ell not rising")
        elif name == "pinch":
            require(status == flow.STATUS_PINCHED, f"pinch status {status}")
            t_hit = (cfg.ell0**2 - cfg.ell_floor**2) / (
                math.pi**2 * cfg.eta**2 * init["b"] ** 2)
            rel = abs(summary["t_final"] / t_hit - 1.0)
            require(rel <= 0.01, f"pinch t_final off the closed form by {rel:.3g}")
        else:
            require(status == flow.STATUS_COMPLETED, f"relax status {status}")
            require(energy_never_rises(cols["E"]), "relax energy rose")
        runner.compare(f"demos.{name}.ell_final", summary["ell_final"])
        runner.compare(f"demos.{name}.energy_final", summary["energy_final"])
        return round(summary["t_final"] / cfg.dt)


# ------------------------------------------------------------- large-grid

LARGE_N_S, LARGE_N_THETA = 384, 64
LARGE_STEPS = {"sphere_rk2": 30, "torus_euler": 100}


def large_configs(seed: int) -> dict:
    """The two 384x64 flows: (FlowConfig, initial spec) per operation kind.

    The torus flow's theta-mode amplitudes are drawn from the seed.
    """
    floor, ell0, ell_max = 0.1, 0.2, 0.4
    s_max = geometry.CollarGrid(ell_max, 4, 4).s_max
    dt = 0.8 * flow.stability_limit(floor, LARGE_N_S, LARGE_N_THETA, s_max)
    common = dict(ell0=ell0, eta=0.5, dt=dt, n_s=LARGE_N_S, n_theta=LARGE_N_THETA,
                  ell_max=ell_max, ell_floor=floor, stride=10)
    amps = np.random.default_rng([seed, 2]).uniform(0.5, 1.0, 3) * [0.3, 0.15, 0.1]
    return {
        "sphere_rk2": (
            flow.FlowConfig(t_end=LARGE_STEPS["sphere_rk2"] * dt, stepper="rk2",
                            target=TargetSpec.round_sphere(3), **common),
            {"kind": "sphere-equator", "eps": 0.2}),
        "torus_euler": (
            flow.FlowConfig(t_end=LARGE_STEPS["torus_euler"] * dt, stepper="euler",
                            target=TargetSpec.flat_torus(dim=2), **common),
            {"kind": "theta-modes", "amplitudes": [float(a) for a in amps]}),
    }


class LargeGrid:
    """384x64 flows through flow.run, each ending in io.map_to_csv.

    Arithmetic per pass over the arrays dominates here; adds the sphere
    projection, the RK2 midpoint and the io write path.
    """

    name = "large-grid"
    primary = ("sphere_rk2", "torus_euler")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        self.flows = {kind: (cfg, demos.build_initial(cfg, spec))
                      for kind, (cfg, spec) in large_configs(seed).items()}

    def run_round(self, runner: Runner, rnd: int) -> None:
        for kind in self.primary:
            runner.op(kind, rnd, lambda: self.flow_and_dump(kind),
                      lambda trace: self.check(runner, kind, trace))

    def paths(self, kind: str) -> tuple[Path, Path]:
        return self.workdir / f"{kind}.csv", self.workdir / f"{kind}.json"

    def flow_and_dump(self, kind: str):
        cfg, values = self.flows[kind]
        trace = flow.run(cfg, values)
        cfio.map_to_csv(trace.final.u, *self.paths(kind), {"seed": self.seed})
        return trace

    def check(self, runner: Runner, kind: str, trace) -> int:
        cfg, _ = self.flows[kind]
        require(trace.status == flow.STATUS_COMPLETED, f"{kind} status {trace.status}")
        require(energy_never_rises(trace["E"]), f"{kind} energy rose")
        back = cfio.map_from_csv(*self.paths(kind))
        require(np.array_equal(back.values, trace.final.u.values),
                f"{kind} dumped map does not read back bit-exact")
        steps = round(trace["t"][-1] / cfg.dt)
        require(steps == LARGE_STEPS[kind], f"{kind} ran {steps} steps")
        runner.compare(f"large-grid.{kind}.ell_final", trace["ell"][-1])
        runner.compare(f"large-grid.{kind}.energy_final", trace["E"][-1])
        return steps


# ------------------------------------------------------------ diagnostics

PAIRS_PER_ROUND = 500
AUDIT_MAP = "audit_map"
WP_ARGS = ["--ell0", "0.1", "--sweep", "0.02,0.05,0.1"]


def write_audit_map(workdir: Path, seed: int) -> tuple[Path, Path]:
    """Serialize the 384x64 sphere map the angular audit reads back."""
    cfg, spec = large_configs(seed)["sphere_rk2"]
    u = MapField(cfg.grid_at(cfg.ell0), demos.build_initial(cfg, spec), cfg.target)
    csv_path, header = workdir / f"{AUDIT_MAP}.csv", workdir / f"{AUDIT_MAP}.json"
    cfio.map_to_csv(u, csv_path, header, {"seed": seed})
    return csv_path, header


class Diagnostics:
    """Comparison pairs, `verify`, an `angular` audit and a `wp` sweep.

    No flow stepping outside verify: stresses angular, wp, io reads and
    the verify registry while bypassing the flow hot path.
    """

    name = "diagnostics"
    primary = ("pair",)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        self.s = angular.default_comparison_grid()
        self.map_csv, self.map_header = write_audit_map(self.workdir, seed)

    def run_round(self, runner: Runner, rnd: int) -> None:
        rng = np.random.default_rng([self.seed, 1, rnd])
        for _ in range(PAIRS_PER_ROUND):
            runner.op("pair", rnd,
                      lambda: angular.random_comparison_pair(rng, self.s),
                      self.check_pair)
        out = self.workdir / "verify"
        runner.op("verify", rnd,
                  lambda: run_cli(["verify", "--seed", str(self.seed),
                                   "--out", str(out)]),
                  lambda res: self.check_verify(out, res))
        out_a = self.workdir / "angular"
        runner.op("audit", rnd,
                  lambda: run_cli(["angular", "--field", str(self.map_csv),
                                   "--header", str(self.map_header),
                                   "--out", str(out_a)]),
                  lambda res: self.check_audit(runner, out_a, res))
        out_w = self.workdir / "wp"
        runner.op("wp", rnd,
                  lambda: run_cli(["wp", *WP_ARGS, "--out", str(out_w)]),
                  lambda res: self.check_wp(out_w, res))

    @staticmethod
    def check_pair(pair) -> int:
        lower, upper = pair
        rep = angular.comparison_check(lower, upper)
        require(rep.premise_operator and rep.premise_boundary,
                "sampler returned a pair violating a premise")
        # the conclusion within the rounding bound verify uses
        scale = float(np.max(np.abs(upper.values)) + np.max(np.abs(lower.values)))
        require(rep.conclusion or rep.min_gap >= -1e-13 * scale,
                f"comparison conclusion failed, min gap {rep.min_gap:.3g}")
        return 1

    @staticmethod
    def check_verify(out: Path, result) -> int:
        require_exit_zero(result)
        report = json.loads((out / "verify_report.json").read_text(encoding="utf-8"))
        n = len(verify.CHECKS)
        require(report["n_checks"] == n and report["n_passed"] == n,
                f"verify passed {report['n_passed']}/{report['n_checks']}")
        return 0

    @staticmethod
    def check_audit(runner: Runner, out: Path, result) -> int:
        require_exit_zero(result)
        _, prov = read_columns(out / "angular_audit.csv")
        require(prov.get("satisfied") == "True" and prov.get("vacuous") == "False",
                f"audit satisfied={prov.get('satisfied')} vacuous={prov.get('vacuous')}")
        runner.compare("diagnostics.audit.fitted_c1", float(prov["fitted_c1"]))
        return 0

    @staticmethod
    def check_wp(out: Path, result) -> int:
        require_exit_zero(result)
        summary = json.loads((out / "wp_summary.json").read_text(encoding="utf-8"))
        err = abs(summary["distance"] - verify.DIST_01)
        require(err < 1e-8, f"wp distance(0.1) off the oracle by {err:.3g}")
        c3 = summary["fit"]["c3_times_84pi"]
        require(abs(c3 - 1.0) < 0.07, f"c3 * 84 pi = {c3}")
        return 0


WORKLOADS = {w.name: w for w in (Demos, LargeGrid, Diagnostics)}
