"""Golden artifacts: the files the CLI and a flow dump write for fixed
inputs, regenerated in a temporary directory and compared by sha256 with
the digests in golden.json.

A failing test names the artifact that moved.  To list the moved digests,
or to rewrite the manifest after a change meant to move them:

    PYTHONPATH=src python tests/test_golden.py          # list moved digests
    PYTHONPATH=src python tests/test_golden.py --write  # and rewrite golden.json

A rewrite changes test data: CHANGES.md names each moved digest and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from collarflow import io as cfio
from collarflow.cli import main
from collarflow.demos import build_initial
from collarflow.fields import MapField, TargetSpec
from collarflow.flow import FlowConfig, run, stability_limit
from collarflow.geometry import CollarGrid

MANIFEST = Path(__file__).with_name("golden.json")

# CLI runs by output directory, in order; the audit reads the sphere flow's
# map by a relative path, since its provenance hashes the --field text
RUNS = {
    "wrap": ["flow", "--demo", "wrap"],
    "pinch": ["flow", "--demo", "pinch"],
    "relax": ["flow", "--demo", "relax"],
    "verify": ["verify", "--seed", "0"],
    "wp": ["wp", "--ell0", "0.1", "--sweep", "0.02,0.05,0.1"],
    "angular": ["angular", "--field", "sphere_rk2/map.csv"],
}


def _flow_config(target: TargetSpec, stepper: str, steps: int,
                 n_s: int = 48, n_theta: int = 12) -> FlowConfig:
    """A flow of the given steps (48x12 by default) with eta > 0, so the length moves."""
    floor, ell_max = 0.1, 0.4
    s_max = CollarGrid(ell_max, 4, 4).s_max
    dt = 0.8 * stability_limit(floor, n_s, n_theta, s_max)
    return FlowConfig(ell0=0.2, eta=0.5, dt=dt, t_end=steps * dt, n_s=n_s, n_theta=n_theta,
                      target=target, ell_max=ell_max, ell_floor=floor, stepper=stepper,
                      stride=10)


# the large-grid benchmark workload's 384x64 sphere flow at seed 0
SPHERE_384X64 = (_flow_config(TargetSpec.round_sphere(3), "rk2", 30, 384, 64),
                 {"kind": "sphere-equator", "eps": 0.2})

# flows whose final map is dumped, by output directory: the sphere projection
# and the RK2 midpoint, which no demo runs, and the wrapped two-component
# densities and Hopf term of an Euler flow into the 2-torus, each at 48x12
# and as the large-grid workload runs them at seed 0 (its torus amplitudes
# are [0.3, 0.15, 0.1] times uniform(0.5, 1) draws of default_rng([0, 2]))
FLOWS = {
    "sphere_rk2": (_flow_config(TargetSpec.round_sphere(3), "rk2", 30),
                   {"kind": "sphere-equator", "eps": 0.2}),
    "torus_euler": (_flow_config(TargetSpec.flat_torus(2), "euler", 40),
                    {"kind": "theta-modes", "amplitudes": [0.3, 0.15, 0.1]}),
    "sphere_rk2_384x64": SPHERE_384X64,
    "torus_euler_384x64": (
        _flow_config(TargetSpec.flat_torus(2), "euler", 100, 384, 64),
        {"kind": "theta-modes",
         "amplitudes": [0.16212360587597813, 0.10518283439951903, 0.0800644603118883]}),
}


# initial maps dumped without a flow, by output directory: the large-grid
# sphere start (the map the angular audit of the diagnostics workload reads),
# whose 24576 rows span many of the CSV writer's row blocks
INITIAL = {"sphere_384x64": SPHERE_384X64}


def generate(root: Path) -> dict[str, str]:
    """Write every golden artifact under root: {path relative to root: sha256}."""
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for out, (cfg, initial) in FLOWS.items():
            trace = run(cfg, build_initial(cfg, initial))
            Path(out).mkdir()
            cfio.map_to_csv(trace.final.u, f"{out}/map.csv", f"{out}/map.json", {"seed": 0})
        for out, (cfg, initial) in INITIAL.items():
            u = MapField(cfg.grid_at(cfg.ell0), build_initial(cfg, initial), cfg.target)
            Path(out).mkdir()
            cfio.map_to_csv(u, f"{out}/map.csv", f"{out}/map.json", {"seed": 0})
        with contextlib.redirect_stdout(io.StringIO()):
            for out, argv in RUNS.items():
                assert main([*argv, "--out", out]) == 0, argv
    finally:
        os.chdir(cwd)
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def _manifest() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def written(tmp_path_factory) -> dict[str, str]:
    return generate(tmp_path_factory.mktemp("golden"))


def test_manifest_lists_every_artifact(written):
    assert sorted(written) == sorted(_manifest()["digests"])


@pytest.mark.parametrize("name", sorted(_manifest()["digests"]))
def test_artifact_matches_its_digest(written, name):
    manifest = _manifest()
    assert written.get(name) == manifest["digests"][name], (
        f"{name} moved; the manifest was written under numpy {manifest['numpy']} "
        f"on {manifest['machine']}, this run has numpy {np.__version__} "
        f"on {platform.machine()}")


def _refresh_manifest(argv: list[str]) -> int:
    """List the digests that moved; with --write, rewrite the manifest."""
    with tempfile.TemporaryDirectory() as tmp:
        now = generate(Path(tmp))
    old = _manifest()["digests"]
    moved = sorted(name for name in old.keys() | now.keys() if old.get(name) != now.get(name))
    for name in moved:
        print(f"{name}: {old.get(name)} -> {now.get(name)}")
    if argv == ["--write"]:
        MANIFEST.write_text(json.dumps({"machine": platform.machine(),
                                        "numpy": np.__version__, "digests": now},
                                       indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return 0
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(_refresh_manifest(sys.argv[1:]))
