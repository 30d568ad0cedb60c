#!/usr/bin/env python3
"""Write reference.json: the seed-0 reference values and their measured tolerances.

    python3 perfbench/make_reference.py [--trials 8]

Run from the root of a source checkout after an intended change of the
numerics.  One unperturbed round of every workload at the default seed
gives the values.  Each value's tolerance is measured, not chosen: a
reordering of floating-point operations changes every computed number by
a few units in the last place, so each trial repeats the rounds with
that much noise injected where the numbers are made,

- into every flow step's output: each node value and ell, where the
  step changed it, times 1 + x, with x uniform in [-2^-52, 2^-52] and
  drawn afresh per entry and step.  What a step leaves exact (pinned
  end rows, a length frozen by eta = 0) stays exact, as it does under
  any reordering.
- into the map the angular audit reads, once per audit.

A value's rtol is SAFETY times the largest relative change over the
trials, rounded up to a power of ten, and at least RTOL_FLOOR.  The
largest change is stored next to the rtol.
"""

import argparse
import json
import math
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import numpy as np  # noqa: E402

import workloads as W  # noqa: E402
from collarflow import cli, flow  # noqa: E402
from collarflow.fields import MapField  # noqa: E402
from collarflow.flow import FlowState  # noqa: E402

ULP = 2.0 ** -52
SAFETY = 1000.0     # a reordering may cost many ulps per step, not one
RTOL_FLOOR = 1e-12
WORK_DIR = BENCH_DIR.parent / ".perfbench_work" / "reference"


def jitter(u: MapField, rng, where=True) -> MapField:
    noise = rng.uniform(-ULP, ULP, u.values.shape) * where
    return MapField(u.grid, u.values * (1.0 + noise), u.target)


def observe(rng=None) -> dict:
    """Reference-checked outputs of one round per workload at the default seed.

    With `rng`, flow steps and the audit input carry rounding-level noise.
    """
    step, audit = flow.step, cli.angular_bound_audit
    if rng is not None:
        def noisy_step(state, config):
            s = step(state, config)
            ell = s.ell * (1.0 + rng.uniform(-ULP, ULP) * (s.ell != state.ell))
            return FlowState(jitter(s.u, rng, s.u.values != state.u.values), ell, s.t)
        flow.step = noisy_step
        cli.angular_bound_audit = lambda u, **kw: audit(jitter(u, rng), **kw)
    runner = W.Runner()
    try:
        for workload in W.WORKLOADS.values():
            workdir = WORK_DIR / workload.name
            workdir.mkdir(parents=True, exist_ok=True)
            workload(W.DEFAULT_SEED, workdir).run_round(runner, 0)
    finally:
        flow.step, cli.angular_bound_audit = step, audit
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    failed = [o.error for o in runner.ops if not o.ok]
    if failed:
        raise SystemExit(f"{len(failed)} operations failed: {failed[:3]}")
    return runner.observed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=8)
    args = parser.parse_args()
    base = observe()
    worst = dict.fromkeys(base, 0.0)
    for trial in range(args.trials):
        for key, value in observe(np.random.default_rng([trial])).items():
            worst[key] = max(worst[key], abs(value - base[key]) / abs(base[key]))
    values = {}
    for key in sorted(base):
        rtol = max(RTOL_FLOOR, 10.0 ** math.ceil(math.log10(SAFETY * worst[key] or 1e-300)))
        values[key] = {"value": base[key], "rtol": rtol, "max_rel_change": worst[key]}
        print(f"{key:40s} {base[key]:.17g}  change {worst[key]:.3g}  rtol {rtol:g}")
    doc = {"seed": W.DEFAULT_SEED, "trials": args.trials, "safety": SAFETY,
           "values": values}
    W.REFERENCE_PATH.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
