"""Benchmark for flagless: seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload {submit-rush,spectate,all} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout: the program under test is that
checkout's `src/flagless`, run as `flagless serve` and `flagless audit`
child processes with whichever Ed25519 kernel `flagless.ED25519_BACKEND`
selects.  Every output is checked; `correct`, `attempted` and `failed`
count the checks.

The last line of standard output is the result: with `--trace 0` the
end-to-end metrics of a run measured for S seconds, with `--trace 1` the
per-layer metrics of a fixed-length traced run and its overhead.  The line
before it is the report: kernel backend, Python version and CPU count, the
failures seen, and the wall-clock latencies and rates named after each
workload's operations.  `--workload all` prints both lines per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("submit-rush", "spectate")


def run_one(workload: str, args: argparse.Namespace) -> None:
    import flagless
    from layers import LAYER_UNITS
    from workloads import E2E_UNITS, REPORT_UNITS, run_workload

    work = Path(__file__).resolve().parent / ".work" / f"{workload}-{os.getpid()}"
    metrics, report, tally = run_workload(
        workload, args.seed, args.seconds, bool(args.trace), work
    )
    env = {
        "backend": flagless.ED25519_BACKEND,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    report["failed_share"] = tally.failed / tally.attempted
    units = LAYER_UNITS if args.trace else E2E_UNITS
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} lack a unit or a value")
    print(json.dumps({
        "workload": workload, "seed": args.seed, "trace": args.trace, "env": env,
        "report": {k: {"value": v, "unit": REPORT_UNITS[k]} for k, v in report.items()},
        "failures": tally.notes,
    }))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }), flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "flagless" / "__init__.py").is_file():
        print(f"error: no flagless source at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        run_one(workload, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
