"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.
``--trace 0`` is the timed run: it measures one workload, with op counts
set by ``--seconds``, and prints its end-to-end metrics.  ``--trace 1`` is
the separate traced run: it replays every workload at fixed sizes with
spans around the calls into each layer, prints one per-layer table per
workload and reports the per-layer metrics.  The last
line of standard output is always one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("serve", "serve-resume", "store-query", "sweep")
#: Scratch space inside the checkout: temporary stores (removed at exit)
#: and the traced run's span files.
SCRATCH = ROOT / ".perfbench"


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program to measure under {ROOT / 'src'}",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads
    from perfbench.measure import host_loop_ms, machine_context

    machine = machine_context()
    machine["host_loop_ms_before"] = host_loop_ms()
    SCRATCH.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=SCRATCH)
    try:
        if args.trace:
            result = workloads.traced(
                str(ROOT), workdir, args.workload, args.seed, str(SCRATCH)
            )
        else:
            result = workloads.timed(
                str(ROOT), workdir, args.workload, args.seed, args.seconds
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    machine["host_loop_ms_after"] = host_loop_ms()
    print("machine " + json.dumps(machine, sort_keys=True))
    for line in result.get("report", []):
        print(line)
    for problem in result.get("problems", []):
        print(f"FAILED: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": bool(result["correct"]),
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": result["metrics"],
            }
        )
    )
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
