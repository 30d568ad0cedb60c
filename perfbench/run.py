#!/usr/bin/env python3
"""collarflow benchmark: end-to-end metrics per workload, per-module metrics when traced.

    python3 perfbench/run.py --workload demos --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py                  # every workload, one process each
    python3 perfbench/run.py --trace 1        # every workload, traced

Run from the root of a source checkout; the package is imported from
``src/``, nothing is installed.  A single-workload run prints the
machine facts, readable metric lines and, as its last line, one JSON
object with the keys correct, attempted, failed and metrics.  Workloads,
metrics and the tracing method are described in perfbench/DESIGN.md.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
TRACE_ROOT = ROOT / ".perfbench_traces"

# one thread per library, so no workload runs more threads than a small machine
# has cores; set before numpy is loaded, here and in the child processes
PINNED_ENV = {"COLLARFLOW_THREADS": "1", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)

import numpy as np  # noqa: E402

sys.path.insert(0, str(BENCH_DIR))
import stats  # noqa: E402
from tracer import TRACED  # noqa: E402
SETUP_PROBES = 8          # fresh-process set-ups per run, spread over its window
PROBE_TIMEOUT_S = 120
WORKLOAD_TIMEOUT_S = 170  # per workload process in the all-workloads mode

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
FLOW_KINDS = ("wrap", "pinch", "relax", "sphere_rk2", "torus_euler")


def per_layer_spec() -> list[tuple[str, str]]:
    spec = []
    for q in TRACED:
        spec += [(f"{q}.calls", "count"), (f"{q}.self_s", "s"), (f"{q}.total_s", "s")]
    for layer in ("geometry.CollarGrid", "fields.jet"):
        spec.append((f"{layer}.calls_per_step", "calls/step"))
        spec += [(f"{layer}.calls_per_step.{k}", "calls/step") for k in FLOW_KINDS]
    spec += [
        ("angular.sampler.accept_ratio", "ratio"),
        ("wp.speed_normalizer.calls_per_distance", "count"),
        ("io.write_csv.bytes", "bytes"),
        ("io.read_csv.bytes", "bytes"),
        ("setup.import_s", "s"),
        ("trace.overhead_ratio", "ratio"),
        ("check.max_rel_diff", "ratio"),
    ]
    return spec


def is_count(name: str) -> bool:
    """Metrics that must repeat exactly across traced passes with one seed."""
    return (name.endswith((".calls", ".bytes", ".accept_ratio", ".calls_per_distance"))
            or ".calls_per_step" in name)


# ------------------------------------------------------------------ setup

class SetupError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


class SetupProbes:
    """Fresh-process runs of setup_probe.py: import plus input build.

    The probes are spread over a run's measuring window, between rounds,
    so that a stretch of interference from other tenants reaches only a
    few of them; the fastest one is reported, as for rounds.
    """

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.results: list[dict] = []

    def run_one(self) -> None:
        out = self.workdir / f"setup{len(self.results)}"
        cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), "--workload",
               self.workload, "--seed", str(self.seed), "--out", str(out)]
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise SetupError(f"set-up probe exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
        self.results.append(json.loads(proc.stdout.strip().splitlines()[-1]))

    def after_round(self, elapsed_share: float) -> None:
        """One probe when the window has reached the next probe's share."""
        if len(self.results) < SETUP_PROBES * min(elapsed_share, 1.0):
            self.run_one()

    def finish(self) -> None:
        while len(self.results) < SETUP_PROBES:
            self.run_one()

    def fastest(self, key) -> float:
        return min(key(p) for p in self.results)


def machine_facts() -> dict:
    import scipy
    facts = {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
             "python": platform.python_version(), "numpy": np.__version__,
             "scipy": scipy.__version__, "pinned_env": PINNED_ENV}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            facts[f"L{level}"] = size
    return facts


# ---------------------------------------------------------------- metrics

def round_time(ops) -> float:
    """Summed time of a round's operations (checks between them excluded)."""
    return sum(o.seconds for o in ops)


def work_rate(wl, ops) -> float:
    """Work units per second of the round's primary operations."""
    primary = [o for o in ops if o.kind in wl.primary]
    return sum(o.work for o in primary) / round_time(primary)


def end_to_end(wl, rounds, probes) -> dict:
    # Other tenants of a shared host only ever add time, for stretches of
    # tens of seconds, so the fastest round tracks the program's own cost
    # far more steadily than the median round does (see DESIGN.md).
    return {
        "setup_s": probes.fastest(lambda p: p["import_s"] + p["inputs_s"]),
        "wall_s": min(round_time(r) for r in rounds),
        "work_per_s": max(work_rate(wl, r) for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def timing_line(name: str, seconds: list[float], unit: str) -> str:
    scale = 1e3 if unit == "ms" else 1.0
    s = stats.summarize(seconds)
    line = f"{name:22s} {scale * s['p50']:.6g} {unit} (median, n={s['n']}"
    if s.get("tail", "p50") != "p50":
        line += f", {s['tail']} {scale * s['tail_value']:.6g} {unit}"
    return line + ")"


def detail_lines(wl, rounds) -> list[str]:
    """The per-workload figures under their descriptive names, as medians."""
    timed = [o for r in rounds for o in r]
    by_kind: dict[str, list[float]] = {}
    for o in timed:
        by_kind.setdefault(o.kind, []).append(o.seconds)
    primary = [o for o in timed if o.kind in wl.primary]
    rate = float(np.median([work_rate(wl, r) for r in rounds]))
    failed = sum(not o.ok for o in timed)
    lines = [timing_line("round_s", [round_time(r) for r in rounds], "s")]
    if wl.name == "diagnostics":
        pairs = by_kind["pair"]
        lines.append(f"{'pairs_per_s':22s} {rate:.6g} 1/s")
        lines.append(timing_line("pair_p50_ms", pairs, "ms"))
        if len(pairs) >= 1000:
            lines.append(f"{'pair_p99_ms':22s} {1e3 * np.quantile(pairs, 0.99):.6g} ms "
                         f"(n={len(pairs)})")
        lines += [timing_line("verify_s", by_kind["verify"], "s"),
                  timing_line("audit_s", by_kind["audit"], "s"),
                  timing_line("wp_sweep_s", by_kind["wp"], "s")]
    else:
        lines.append(f"{'flow_steps_per_s':22s} {rate:.6g} 1/s")
        lines.append(timing_line("flow_run_p50_s", [o.seconds for o in primary], "s"))
        lines += [timing_line(f"flow_run_p50_s.{k}", by_kind[k], "s") for k in wl.primary]
    lines.append(f"{'ops_failed_ratio':22s} {failed / len(timed):.6g} "
                 f"({failed}/{len(timed)})")
    return lines


def layer_metrics(tracer, ops) -> dict:
    """Per-module metrics of one traced pass."""
    import tracer as tr

    funcs = tr.per_function(tracer)
    m = {}
    for q in TRACED:
        agg = funcs.get(q, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        m[f"{q}.calls"] = agg["calls"]
        m[f"{q}.self_s"] = agg["self_s"]
        m[f"{q}.total_s"] = agg["total_s"]

    kind = [ops[o].kind for o in tracer.op]
    in_step = tr.within(tracer, "flow.step")
    in_run = tr.within(tracer, "flow.run")
    in_dist = tr.within(tracer, "wp.integrate_to_pinch")
    steps, grids, jets = Counter(), Counter(), Counter()
    sampler = candidates = distances = normalizers = 0
    for i, name in enumerate(tracer.name):
        if name == "flow.step":
            steps[kind[i]] += 1
        elif name == "geometry.CollarGrid" and in_step[i]:
            grids[kind[i]] += 1
        elif name == "fields.jet" and in_run[i]:
            jets[kind[i]] += 1
        elif name == "angular.random_comparison_pair":
            sampler += 1
        elif name == "angular.comparison_check" and tracer.parent[i] >= 0 \
                and tracer.name[tracer.parent[i]] == "angular.random_comparison_pair":
            candidates += 1
        elif name == "wp.integrate_to_pinch":
            distances += 1
        elif name == "wp.speed_normalizer" and in_dist[i]:
            normalizers += 1

    def ratio(a, b):
        return a / b if b else 0.0

    for layer, counts in (("geometry.CollarGrid", grids), ("fields.jet", jets)):
        m[f"{layer}.calls_per_step"] = ratio(sum(counts.values()), sum(steps.values()))
        for k in FLOW_KINDS:
            m[f"{layer}.calls_per_step.{k}"] = ratio(counts[k], steps[k])
    m["angular.sampler.accept_ratio"] = ratio(sampler, candidates)
    m["wp.speed_normalizer.calls_per_distance"] = ratio(normalizers, distances)
    m["io.write_csv.bytes"] = tracer.bytes.get("io.write_csv", 0)
    m["io.read_csv.bytes"] = tracer.bytes.get("io.read_csv", 0)
    return m


# ------------------------------------------------------------------- runs

def run_rounds(wl, runner, rnd_of, seconds: float, probes=None) -> list[list]:
    """Rounds until `seconds` have passed (at least one); each round's ops.

    With `probes`, every set-up probe runs between these rounds.
    """
    rounds = []
    t0 = perf_counter()
    while not rounds or perf_counter() - t0 < seconds:
        first = len(runner.ops)
        wl.run_round(runner, rnd_of(len(rounds)))
        rounds.append(runner.ops[first:])
        if probes is not None:
            probes.after_round((perf_counter() - t0) / seconds)
    if probes is not None:
        probes.finish()
    return rounds


def timed_run(wl, runner, args, probes):
    wl.run_round(runner, 0)  # warm-up: caches and lazy imports
    rounds = run_rounds(wl, runner, lambda k: k + 1, args.seconds, probes)
    return end_to_end(wl, rounds, probes), detail_lines(wl, rounds), True


def traced_run(wl, runner, args, probes):
    """Untraced rounds for the baseline, then two traced passes of one round.

    Every round here uses round index 0, so all see identical inputs; the
    two traced passes must report identical counts.
    """
    import tracer as tr

    wl.run_round(runner, 0)
    base = [round_time(r)
            for r in run_rounds(wl, runner, lambda k: 0, args.seconds / 2, probes)]
    passes, walls = [], []
    for p in range(2):
        tracer = tr.Tracer()
        runner.tracer = tracer
        with tr.patched(tracer):
            walls += [round_time(r) for r in run_rounds(wl, runner, lambda k: 0, 0.0)]
        runner.tracer = None
        passes.append(layer_metrics(tracer, runner.ops))
        if p == 0:
            TRACE_ROOT.mkdir(exist_ok=True)
            tracer.dump(TRACE_ROOT / f"{wl.name}-seed{args.seed}.json")
    first, second = passes
    lines = [f"traced spans written to {TRACE_ROOT.name}/{wl.name}-seed{args.seed}.json"]
    same = True
    metrics = {}
    for name, value in first.items():
        if not is_count(name):
            metrics[name] = 0.5 * (value + second[name])
            continue
        metrics[name] = value
        if value != second[name]:
            same = False
            lines.append(f"COUNT MISMATCH {name}: {value} != {second[name]}")
    metrics["setup.import_s"] = probes.fastest(lambda p: p["import_s"])
    metrics["trace.overhead_ratio"] = 0.5 * (walls[0] + walls[1]) / float(np.median(base))
    metrics["check.max_rel_diff"] = max(runner.rel_diffs, default=0.0)
    return metrics, lines, same


def run_workload(args) -> int:
    if not (SRC / "collarflow" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        probes = SetupProbes(args.workload, args.seed, workdir)
        probes.run_one()  # fails early if set-up is broken; its time counts too
        import workloads

        print("machine " + json.dumps(machine_facts(), sort_keys=True))
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        runner = workloads.Runner(workloads.load_reference(args.seed))
        run = traced_run if args.trace else timed_run
        metrics, lines, counts_ok = run(wl, runner, args, probes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    units = dict(per_layer_spec() if args.trace else END_TO_END)
    for line in lines:
        print(f"{args.workload}  {line}")
    for name, unit in units.items():
        print(f"{args.workload}  {name:22s} {metrics[name]:.6g} {unit}")
    failed_ops = [o for o in runner.ops if not o.ok]
    for o in failed_ops[:10]:
        print(f"FAILED {o.kind} (round {o.round}): {o.error}")
    print(json.dumps({
        "correct": not failed_ops and counts_ok,
        "attempted": len(runner.ops),
        "failed": len(failed_ops),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def default_seconds() -> int:
    return int(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])


WORKLOAD_NAMES = ("demos", "large-grid", "diagnostics")


def run_all(args) -> int:
    """Every workload in its own process; prints each one's metric lines."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=WORKLOAD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}\n{proc.stderr[-2000:]}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"== {name}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}")
        for line in lines[:-1]:
            if line.startswith(name) or line.startswith("FAILED"):
                print(line)
        status |= 0 if result["correct"] else 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                        help="one workload (default: every workload, one process each)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds is None:
        args.seconds = default_seconds()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload is not None:
        return run_workload(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
