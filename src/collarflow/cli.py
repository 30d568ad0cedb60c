"""Command-line harness: experiment runner and verification driver.

Subcommands cover the library surface end to end: `geometry` and `qd`
dump closed-form values and serialized differentials, `flow` runs the
gradient flow from a JSON config, `angular` audits the windowed angular
energy bound on a serialized map, `wp` integrates the path length to
the pinch, and `verify` runs the invariant registry.

All artifacts are plot-ready CSV or sorted-key JSON with a provenance
header (config hash, seed, version).  Exit codes: 0 success, 1 a
verification check or audit failed or a flow run left the finite state
space, 2 usage or config errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from collarflow import __version__
from collarflow import io as cfio
from collarflow import wp
from collarflow.angular import angular_bound_audit
from collarflow.flow import TRACE_COLUMNS, FlowError, dlogell_bound_check, run
from collarflow.geometry import (
    ELL_MAX,
    CollarGrid,
    DomainError,
    check_block,
    conformal_factor,
    delta_thin_half_length,
    dz2_norms,
    half_length,
    injectivity_radius,
)
from collarflow.demos import DEMOS, build_initial, demo_config
from collarflow.quad_diff import (
    fourier_decompose,
    lp_norm,
    principal_split,
    synthesize,
)
from collarflow.verify import report_to_dict, run_checks


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ----------------------------------------------------------------- geometry

def cmd_geometry(args) -> int:
    if args.samples < 0:
        raise DomainError(f"--samples must be >= 0, got {args.samples}")
    out = _out_dir(args)
    params = {"ell": args.ell, "delta": args.delta, "samples": args.samples}
    prov = cfio.provenance_for(params, seed=args.seed, subcommand="geometry")
    norms = dz2_norms(args.ell)
    summary = {
        "ell": args.ell,
        "ell_max": ELL_MAX,
        "half_length": half_length(args.ell),
        "dz2_l1": norms.l1,
        "dz2_l2_sq": norms.l2_sq,
        "dz2_linf": norms.linf,
        "center_injectivity": injectivity_radius(args.ell, 0.0),
    }
    if args.delta is not None:
        X_delta = delta_thin_half_length(args.ell, args.delta)
        summary["delta"] = args.delta
        summary["delta_thin_half_length"] = X_delta
        summary["thick_margin"] = summary["half_length"] - X_delta
    cfio.write_json(out / "geometry_summary.json", summary, prov)

    s = np.linspace(-0.999, 0.999, args.samples) * summary["half_length"]
    cfio.write_csv(out / "geometry_profile.csv", {
        "s": s,
        "rho": np.array([conformal_factor(args.ell, v) for v in s]),
        "injectivity": np.array([injectivity_radius(args.ell, v) for v in s]),
    }, prov)
    return 0


# ----------------------------------------------------------------------- qd

_QD_FILE = {"seed?": int, "qd": {"ell": float, "n_s": int, "n_theta": int,
                                 "s_max?": float | None,
                                 "modes": dict[int, tuple[float, float]]}}
# the flow block and initial recipe are checked by config_from_dict and build_initial
_FLOW_FILE = {"seed?": int, "flow": dict, "initial": dict}


def cmd_qd(args) -> int:
    out = _out_dir(args)
    if (args.config is None) == (args.field is None):
        raise DomainError("qd needs exactly one of --config or --field")
    if args.config is not None:
        doc = check_block(cfio.read_json(args.config), _QD_FILE)
        params = doc["qd"]
        grid = CollarGrid(params["ell"], params["n_s"], params["n_theta"],
                          s_max=params.get("s_max"))
        field = synthesize({int(key): complex(real, imag)
                            for key, (real, imag) in params["modes"].items()}, grid=grid)
    else:
        doc = {}
        header = args.header or str(Path(args.field).with_suffix(".json"))
        field = cfio.qd_field_from_csv(args.field, header)
        params = {"field": str(args.field)}
    seed = doc.get("seed", 0) if args.seed is None else args.seed
    prov = cfio.provenance_for(params, seed=seed, subcommand="qd")
    split = principal_split(field)
    n_max = args.n_max
    if n_max is None:
        n_max = min(8, field.grid.n_theta // 2 - 1)
    dec = fourier_decompose(field, n_max=n_max)  # checks --n-max before any write
    cfio.qd_field_to_csv(field, out / "qd_field.csv", out / "qd_field.json",
                         {"seed": seed, "subcommand": "qd"})
    summary = {
        "ell": field.grid.ell,
        "n_s": field.grid.n_s,
        "n_theta": field.grid.n_theta,
        "s_max": field.grid.s_max,
        "b0": [split.b0.real, split.b0.imag],
        "l1": lp_norm(field, 1),
        "l2": lp_norm(field, 2),
        "linf": lp_norm(field, math.inf),
        "remainder_l2": lp_norm(split.remainder, 2),
        "modes": {str(n): [dec.coefficient(n).real, dec.coefficient(n).imag]
                  for n in range(-n_max, n_max + 1)},
    }
    cfio.write_json(out / "qd_summary.json", summary, prov)
    return 0


# --------------------------------------------------------------------- flow

def cmd_flow(args) -> int:
    out = _out_dir(args)
    if (args.config is None) == (args.demo is None):
        raise DomainError("flow needs exactly one of --config or --demo")
    if args.demo is not None:
        doc = {}
        config, init_spec = demo_config(args.demo)
    else:
        doc = check_block(cfio.read_json(args.config), _FLOW_FILE)
        config = cfio.config_from_dict(doc["flow"])
        init_spec = doc["initial"]
    values = build_initial(config, init_spec)
    trace = run(config, values)
    seed = doc.get("seed", 0) if args.seed is None else args.seed
    prov = cfio.provenance_for(config, seed=seed, subcommand="flow",
                               status=trace.status)
    cfio.write_csv(out / "trace.csv", {name: trace[name] for name in TRACE_COLUMNS},
                   prov)
    summary = cfio.trace_summary(trace)
    try:
        fit = dlogell_bound_check(trace)
        summary["C_ell"], summary["C_smooth"] = fit.C_ell, fit.C_smooth
    except DomainError:  # too few rows, ell <= 0 or I + E0 = 0: no fit
        summary["C_ell"] = summary["C_smooth"] = None
    cfio.write_json(out / "summary.json", summary, prov)
    return 0


# ------------------------------------------------------------------ angular

def cmd_angular(args) -> int:
    out = _out_dir(args)
    header = args.header or str(Path(args.field).with_suffix(".json"))
    u = cfio.map_from_csv(args.field, header)
    audit = angular_bound_audit(u, profile_step=args.profile_step, c1=args.c1)
    params = {"field": str(args.field), "profile_step": args.profile_step,
              "c1": args.c1}
    prov = cfio.provenance_for(params, seed=args.seed, subcommand="angular")
    prov.update({
        "c1": audit.c1,
        "fitted_c1": audit.fitted_c1,
        "satisfied": audit.satisfied,
        "vacuous": audit.vacuous,
    })
    cfio.write_csv(out / "angular_audit.csv", {
        "s0": audit.s0,
        "lhs": audit.theta,
        "rhs": audit.bound.values if not audit.vacuous else np.zeros(0),
        "slack": (audit.bound.values - audit.theta) if not audit.vacuous
        else np.zeros(0),
    }, prov)
    return 0 if audit.satisfied or audit.vacuous else 1


# ----------------------------------------------------------------------- wp

def cmd_wp(args) -> int:
    path = wp.integrate_to_pinch(args.ell0, tol=args.tol)
    try:
        ells = [float(v) for v in args.sweep.split(",")] if args.sweep else None
        fit = wp.correction_coefficient(ells, tol=args.tol) if ells else None
    except ValueError as exc:  # DomainError included
        raise DomainError(f"--sweep: {exc}") from None
    summary = {
        "ell0": args.ell0,
        "tol": args.tol,
        "distance": path.total,
        "leading_order": math.sqrt(2.0 * math.pi * args.ell0),
        "deficit": math.sqrt(2.0 * math.pi * args.ell0) - path.total,
    }
    if fit is not None:
        summary["sweep"] = ells
        summary["fit"] = {
            "c3": fit.c3,
            "c5": fit.c5,
            "c3_times_84pi": fit.c3 * 84.0 * math.pi,
            "max_rel_residual": fit.max_rel_residual,
        }
    out = _out_dir(args)
    params = {"ell0": args.ell0, "tol": args.tol, "sweep": args.sweep}
    prov = cfio.provenance_for(params, seed=args.seed, subcommand="wp")
    cfio.write_csv(out / "wp_path.csv", {
        "s": path.total - path.distance,  # arclength from the start point
        "ell": path.ell,
    }, prov)
    cfio.write_json(out / "wp_summary.json", summary, prov)
    return 0


# ------------------------------------------------------------------- verify

def cmd_verify(args) -> int:
    out = _out_dir(args)
    report = run_checks(seed=args.seed,
                        names=set(args.check) if args.check else None,
                        suites=set(args.suite) if args.suite else None)
    doc = report_to_dict(report, with_timing=args.with_timing)
    prov = cfio.provenance_for({"seed": args.seed}, seed=args.seed,
                               subcommand="verify")
    cfio.write_json(out / "verify_report.json", doc, prov)
    for r in report.results:
        mark = "pass" if r.passed else "FAIL"
        print(f"{mark}  {r.suite:10s} {r.name:28s} {r.detail}")
    print(f"{report.n_passed}/{len(report.results)} checks passed")
    return 0 if report.passed else 1


# ------------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collarflow",
        description="hyperbolic collar flow experiments and verification")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--out", default=".", help="artifact directory")
        p.add_argument("--seed", type=int, default=0, help="global seed")

    p = subs.add_parser("geometry", help="closed-form collar quantities")
    common(p)
    p.add_argument("--ell", type=float, required=True, help="core length")
    p.add_argument("--delta", type=float, default=None,
                   help="also report the delta-thin subcollar extent")
    p.add_argument("--samples", type=int, default=200,
                   help="rows in geometry_profile.csv")
    p.set_defaults(handler=cmd_geometry)

    p = subs.add_parser("qd", help="synthesize or analyze a quadratic differential")
    common(p)
    p.add_argument("--config", default=None, help="JSON config with a 'qd' block")
    p.add_argument("--field", default=None, help="existing field CSV to analyze")
    p.add_argument("--header", default=None,
                   help="grid header JSON (default: field path with .json)")
    p.add_argument("--n-max", type=int, default=None, dest="n_max",
                   help="angular modes kept in the summary")
    p.set_defaults(handler=cmd_qd, seed=None)

    p = subs.add_parser("flow", help="run the gradient flow")
    common(p)
    p.add_argument("--config", default=None,
                   help="JSON config with 'flow' and 'initial' blocks")
    p.add_argument("--demo", default=None, choices=sorted(DEMOS),
                   help="run a built-in demo configuration")
    p.set_defaults(handler=cmd_flow, seed=None)

    p = subs.add_parser("angular", help="audit the windowed angular energy bound")
    common(p)
    p.add_argument("--field", required=True, help="serialized map CSV")
    p.add_argument("--header", default=None,
                   help="grid header JSON (default: field path with .json)")
    p.add_argument("--c1", type=float, default=None,
                   help="forcing constant (default: fitted)")
    p.add_argument("--profile-step", type=float, default=0.05,
                   dest="profile_step", help="station spacing")
    p.set_defaults(handler=cmd_angular)

    p = subs.add_parser("wp", help="integrate the path length to the pinch")
    common(p)
    p.add_argument("--ell0", type=float, default=0.1, help="starting length")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="relative quadrature tolerance")
    p.add_argument("--sweep", default=None,
                   help="comma list of start lengths for the correction fit")
    p.set_defaults(handler=cmd_wp)

    p = subs.add_parser("verify", help="run the invariant registry")
    common(p)
    p.add_argument("--suite", action="append", default=None,
                   help="restrict to a module suite (repeatable)")
    p.add_argument("--check", action="append", default=None,
                   help="restrict to a named check (repeatable)")
    p.add_argument("--with-timing", action="store_true", dest="with_timing",
                   help="include wall time in the report")
    p.set_defaults(handler=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:  # DomainError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FlowError as exc:  # a flow step left the finite state space
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
