"""One fresh-process set-up: import collarflow, then build a workload's inputs.

Run by run.py several times per benchmark run; prints one JSON line
{"import_s": ..., "inputs_s": ...}.  The caller puts the package
sources on PYTHONPATH and pins the thread counts.

    python3 perfbench/setup_probe.py --workload demos --seed 0 --out DIR
"""

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    t0 = perf_counter()
    import collarflow.cli  # noqa: F401  (the package and its entry point)
    t1 = perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    workloads.WORKLOADS[args.workload](args.seed, out)
    t2 = perf_counter()
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
