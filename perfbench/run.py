"""buffopt benchmark: one command, four workloads, end-to-end or per layer.

Run from the repository root::

    python3 perfbench/run.py --workload table1-batch --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` times the workload for ``--seconds`` and reports the
end-to-end metrics; ``--trace 1`` runs a fixed slice of the workload
untraced and then traced, and reports the per-layer metrics.  Either
way every answer is certified afterwards, untimed; any violation makes
the run print ``"correct": false`` and exit 1.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
#: scratch space inside the checkout; traces are kept under it.
OUTPUT = ROOT / ".perfbench_out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny inputs, for the benchmark's own tests",
    )
    parser.add_argument(
        "--plant-bug", action="store_true",
        help="tamper with one answer before the check (must exit 1)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))

    from checks import settle
    from harness import (
        SETUP_MAX_REPEATS, SETUP_REPEATS, SETUP_SECONDS, end_to_end,
    )
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r} "
            f"(expected one of {sorted(WORKLOADS)})",
            file=sys.stderr,
        )
        return 2
    workdir = OUTPUT / f"run-{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](
        args.seed, args.smoke, workdir, args.plant_bug
    )
    try:
        if args.trace:
            workload.setup()
            try:
                metrics, measurement = workload.trace()
            finally:
                workload.teardown()
            for index, recorder in enumerate(workload.recorders):
                recorder.write(OUTPUT / "traces" / (
                    f"{args.workload}-seed{args.seed}-{index}.jsonl"
                ))
            metrics["failed_share"] = (
                measurement.failed / measurement.attempted
            )
        else:
            setup_seconds = []
            while len(setup_seconds) < SETUP_REPEATS or (
                sum(setup_seconds) < SETUP_SECONDS
                and len(setup_seconds) < SETUP_MAX_REPEATS
            ):
                if setup_seconds:
                    workload.teardown()
                started = perf_counter()
                workload.setup()
                setup_seconds.append(perf_counter() - started)
            try:
                measurement = workload.measure(args.seconds)
            finally:
                workload.teardown()
        measurement.violations += workload.extra_violations(measurement)
        settle(measurement)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        output = {name: {"value": value, "unit": unit_of(name)}
                  for name, value in sorted(metrics.items())}
    else:
        output = end_to_end(measurement, setup_seconds)
    violations = measurement.violations
    for violation in violations[:20]:
        print(f"VIOLATION {violation}", file=sys.stderr)
    notes = {
        key: value for key, value in measurement.notes.items()
        if key != "replies"
    }
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "notes": notes}, sort_keys=True))
    print(json.dumps({
        "correct": not violations,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": output,
    }, sort_keys=True))
    return 0 if not violations else 1


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_share", "_ratio")):
        return "share"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
