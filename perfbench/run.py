"""zirkit's layered benchmark.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 15 --trace 0

Workloads: solve, audit, survey, survey-2p (see perfbench/NOTES.md).  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
reports the per-layer metrics, the span tree and the tracing overhead.  The
last line of stdout is the result as one JSON object; the full record,
stamped with the machine, Python version, commit and seed, is also written
to ``.perfbench-out/`` at the repository root.  The program is imported
from ``src/`` next to this directory; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("solve", "audit", "survey", "survey-2p")
LOAD = {
    "solve": "closed loop, 1 client, in-process",
    "audit": "closed loop, 1 client, in-process",
    "survey": "closed loop, 1 client, in-process",
    "survey-2p": "closed loop, 1 client, in-process; survey pool of 2 worker processes",
}


def _import_program() -> str | None:
    """Put ``src/`` first on the path; why zirkit cannot come from there, or None."""
    package = ROOT / "src" / "zirkit"
    if not (package / "__init__.py").is_file():
        return f"no zirkit sources at {package}"
    sys.path.insert(0, str(ROOT / "src"))
    import zirkit
    if Path(zirkit.__file__).resolve().parent != package.resolve():
        return f"imported zirkit from {zirkit.__file__}, not from {package}"
    return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=60)
    return done.stdout.strip() or None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    error = _import_program()
    if error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    import speed
    import workloads

    run = workloads.run_workload(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    units = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    stamp = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "load": LOAD[args.workload],
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "machine": platform.machine(), "git_commit": _git_commit(),
        "source_sha256": workloads.source_digest(),
    }
    metrics = {name: {"value": run.metrics[name], "unit": unit}
               for name, unit in units.items()}
    fail_ratio = run.failed / max(run.attempted, 1)
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:>14.6g} {m['unit']}")
    for name, value in run.details.get("wall", {}).items():
        print(f"{'wall-clock ' + name:28s} {value:>14.6g} {workloads.END_TO_END[name]}")
    if "kernel_ms" in run.details:
        print(f"{'reference kernel':28s} {run.details['kernel_ms']:>14.6g} ms median CPU "
              f"(times above are scaled to {speed.REFERENCE_MS} ms)")
    print(f"{'samples':28s} {run.samples:>14d} latencies from "
          f"{run.details.get('calls', run.samples)} timed calls")
    print(f"{'fail_ratio':28s} {fail_ratio:>14.6g} "
          f"({run.failed} of {run.attempted} attempted)")
    for row in run.details.get("span_tree", []):
        print(f"span {row['path']:64s} n={row['count']:<6d} total={row['total_ms']:.1f}ms "
              f"self={row['self_ms']:.1f}ms")
    for row in run.details.get("roadmap_cross_check", []):
        print(f"roadmap cross-check: {row['figure']}: roadmap {row['roadmap']}, "
              f"measured {row['measured']} -> {row['flag']}")
    for problem in run.problems:
        print(f"FAILED: {problem}")
    record = {"stamp": stamp, "samples": run.samples, "fail_ratio": fail_ratio,
              "problems": run.problems, "metrics": metrics, **run.details}
    workloads.write_atomic(
        workloads.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"stamp": stamp}))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
