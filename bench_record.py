#!/usr/bin/env python3
"""Record this checkout's end-to-end benchmark numbers in the next BENCH_<n>.json.

    python3 bench_record.py

Runs every perfbench workload RUNS times, each run its own process of
``perfbench/run.py --seconds SECONDS --seed SEED --trace 0``, and writes the
machine line, a host block of its own (kernel release, the CPU's stepping,
microcode and a digest of its flags, and MemTotal, which the machine line
does not hold), the git HEAD and whether the tree was clean, and per
workload the median and quartiles of each end-to-end metric with the
summed correct and failed counts, to the first free BENCH_<n>.json.
Two BENCH files compare only when their machine lines are the same: then
each workload's medians are printed as old -> new with the change in
percent, after a warning if the host blocks differ or one is missing.
"""

import hashlib
import json
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent
RUNS = 5
SECONDS = 5
SEED = 0
WORKLOADS = ("demos", "large-grid", "diagnostics")
METRICS = ("setup_s", "wall_s", "work_per_s", "peak_rss_mb")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def run_once(workload: str) -> tuple[dict, dict]:
    """The machine facts and the last-line result of one run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", str(SECONDS), "--seed", str(SEED), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    machine = next(line for line in lines if line.startswith("machine "))
    return json.loads(machine.removeprefix("machine ")), json.loads(lines[-1])


def host_facts() -> dict:
    """What tells apart hosts that share a machine line: the kernel release,
    the first CPU's stepping, microcode and flags digest, and MemTotal."""
    def fields(path: str) -> dict:  # "key : value" lines up to the first blank one
        try:
            lines = Path(path).read_text().splitlines()
        except OSError:
            return {}
        out = {}
        for line in lines:
            key, sep, value = line.partition(":")
            if not sep:
                break
            out.setdefault(key.strip(), value.strip())
        return out

    cpu, mem = fields("/proc/cpuinfo"), fields("/proc/meminfo")
    flags = cpu.get("flags")
    return {"kernel": platform.release(), "cpu_stepping": cpu.get("stepping"),
            "cpu_microcode": cpu.get("microcode"),
            "cpu_flags_sha256": flags and hashlib.sha256(flags.encode()).hexdigest()[:16],
            "mem_total": mem.get("MemTotal")}


def summary(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def bench_path(n: int) -> Path:
    return ROOT / f"BENCH_{n}.json"


def print_deltas(old: dict, new: dict) -> None:
    """Each workload's median per metric, old -> new, when the machines match;
    a host block that differs, or is missing, is warned of first."""
    if old["machine"] != new["machine"]:
        print("the previous BENCH file was recorded on another machine line; "
              "the two do not compare")
        return
    if "host" not in old or "host" not in new:
        print("warning: a BENCH file has no host block, so the two may come from "
              "different hosts of one machine line")
    elif old["host"] != new["host"]:
        differ = sorted(k for k in {*old["host"], *new["host"]}
                        if old["host"].get(k) != new["host"].get(k))
        print(f"warning: the host blocks differ in {', '.join(differ)}; the deltas "
              f"include the hosts' difference")
    for workload, cur in new["workloads"].items():
        for m in METRICS:
            a, b = old["workloads"][workload][m]["median"], cur[m]["median"]
            print(f"{workload} {m}: {a:.6g} -> {b:.6g} ({100.0 * (b - a) / a:+.1f} %)")


def main() -> int:
    head, clean = git("rev-parse", "HEAD"), git("status", "--porcelain") == ""
    machines, workloads = [], {}
    for workload in WORKLOADS:
        results = []
        for _ in range(RUNS):
            machine, result = run_once(workload)
            machines.append(machine)
            results.append(result)
        workloads[workload] = {
            "correct": sum(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            **{m: summary([r["metrics"][m]["value"] for r in results]) for m in METRICS}}
    if any(m != machines[0] for m in machines):
        print("error: the machine line changed between runs", file=sys.stderr)
        return 1
    record = {"machine": machines[0], "host": host_facts(), "head": head, "clean": clean,
              "runs": RUNS, "seconds": SECONDS, "seed": SEED, "workloads": workloads}
    n = 1
    while bench_path(n).exists():
        n += 1
    out = bench_path(n)
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out.name}")
    if n > 1:
        print_deltas(json.loads(bench_path(n - 1).read_text()), record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
