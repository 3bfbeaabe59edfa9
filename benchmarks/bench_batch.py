"""Batch engine bench: serial vs multiprocessing throughput.

Two entry points:

* standalone script (what CI runs in ``--smoke`` mode)::

      PYTHONPATH=src python benchmarks/bench_batch.py            # 200 nets
      PYTHONPATH=src python benchmarks/bench_batch.py --smoke    # quick CI

  Runs the same generated workload through the serial, process, and
  chunked executors, checks the three report signatures are identical,
  and prints a throughput comparison.  Exits non-zero if the executors
  disagree, or if multiprocessing fails to beat serial on a multi-core
  host for a full-size (>= 200 net) run.  On single-CPU hosts the
  speedup is reported but not asserted — there is nothing to win.

  Two resilience measurements ride along: the happy-path overhead of
  the per-net :class:`~repro.core.budget.RunBudget` guard (target
  < 3 %, asserted only against gross regression), and a drill run with
  1 % injected faults through the :class:`~repro.batch.ResilientExecutor`
  (healthy nets must stay bit-identical to the serial baseline).

* pytest bench (rides the existing suite)::

      pytest benchmarks/bench_batch.py --benchmark-only
"""

from __future__ import annotations

import argparse
import sys
from time import perf_counter

from repro.batch import (
    BatchConfig,
    BatchOptimizer,
    default_worker_count,
    make_executor,
)
from repro.core.objective import Objective
from repro.workloads import WorkloadConfig, population_specs


def run_fleet(
    specs,
    workload,
    executor,
    objective=Objective(),
    collect_stats=False,
    faults=None,
    **config_kwargs,
):
    optimizer = BatchOptimizer(
        config=BatchConfig(
            objective=objective,
            max_buffers=4,
            collect_stats=collect_stats,
            keep_trees=False,
            **config_kwargs,
        ),
        executor=executor,
        workload=workload,
        faults=faults,
    )
    return optimizer.optimize(specs)


def compare_executors(nets, seed, workers, chunk_size, objective):
    workload = WorkloadConfig(nets=nets, seed=seed)
    specs = population_specs(workload)
    reports = {}
    for executor in (
        make_executor("serial"),
        make_executor("process", workers=workers),
        make_executor("chunked", workers=workers, chunk_size=chunk_size),
    ):
        start = perf_counter()
        report = run_fleet(specs, workload, executor, objective=objective)
        elapsed = perf_counter() - start
        reports[executor.name] = (report, elapsed)
        print(
            f"{executor.describe():34s} {nets / elapsed:8.2f} nets/s  "
            f"({elapsed:.2f} s, {report.total_buffers()} buffers, "
            f"{report.failure_count} infeasible)"
        )
    return reports


def budget_overhead(specs, workload, objective, repeats=3):
    """Happy-path cost of the per-node budget check, in percent.

    Times the serial fleet with budgets disabled and with a generous
    (never-tripping) budget enabled, best-of-``repeats`` each to shave
    scheduler noise, and verifies the guarded run is bit-identical.
    """
    def best_of(**config_kwargs):
        times, report = [], None
        for _ in range(repeats):
            start = perf_counter()
            report = run_fleet(
                specs, workload, make_executor("serial"), objective=objective,
                **config_kwargs,
            )
            times.append(perf_counter() - start)
        return min(times), report

    bare_s, bare = best_of()
    guarded_s, guarded = best_of(
        net_deadline=3600.0, net_max_candidates=10**9
    )
    if guarded.signatures() != bare.signatures():
        return None, bare
    overhead = (guarded_s - bare_s) / bare_s * 100.0
    print(
        f"budget-guard overhead: {overhead:+.2f}% "
        f"({bare_s:.3f} s bare vs {guarded_s:.3f} s guarded, "
        f"best of {repeats}; target < 3%)"
    )
    return overhead, bare


def fault_drill(specs, workload, objective, baseline, rate=0.01):
    """Run the fleet with ``rate`` injected transient faults through the
    resilient executor; healthy-net signatures must match ``baseline``."""
    from repro.batch import FaultPlan, ResilientExecutor, RetryPolicy

    # At least one fault, even on smoke-size fleets where 1% rounds to 0.
    plan = FaultPlan.sample(
        [spec.name for spec in specs],
        rate=max(rate, 1.0 / len(specs)),
        seed=7,
        kind="raise",
    )
    executor = ResilientExecutor(
        workers=max(2, default_worker_count()),
        retry=RetryPolicy(max_attempts=3, backoff_seconds=0.005),
    )
    start = perf_counter()
    report = run_fleet(
        specs, workload, executor, objective=objective, faults=plan
    )
    elapsed = perf_counter() - start
    print(
        f"fault drill ({plan.describe()}): "
        f"{len(specs) / elapsed:8.2f} nets/s  ({elapsed:.2f} s, "
        f"{report.retry_count()} retries, "
        f"{report.failure_count} unrecovered)"
    )
    ok = report.failure_count == 0 and (
        report.signatures() == baseline.signatures()
    )
    if not ok:
        print("FAIL: fault drill diverged from the serial baseline",
              file=sys.stderr)
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nets", type=int, default=200)
    parser.add_argument("--seed", type=int, default=19981101)
    parser.add_argument(
        "--workers", type=int, default=None,
        help="pool size for the parallel executors (default: all CPUs, "
        "min 2 so the pool machinery is always exercised)",
    )
    parser.add_argument("--chunk-size", type=int, default=None)
    parser.add_argument(
        "--objective", type=Objective.parse, default=Objective(),
        help="objective spec, as for 'buffopt batch --objective' "
        "(default: buffopt)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny fleet, correctness-only (CI gate, no perf assertions)",
    )
    args = parser.parse_args(argv)

    nets = 24 if args.smoke else args.nets
    cpus = default_worker_count()
    # Always exercise a real pool, even on one CPU: correctness of the
    # process path matters everywhere; its speed only where cores exist.
    workers = args.workers or max(2, cpus)

    print(f"batch bench: {nets} nets, objective={args.objective.describe()}, "
          f"{cpus} CPUs, {workers} workers")
    reports = compare_executors(
        nets, args.seed, workers, args.chunk_size, args.objective
    )

    signatures = {
        name: report.signatures() for name, (report, _) in reports.items()
    }
    baseline = signatures["serial"]
    for name, signature in signatures.items():
        if signature != baseline:
            print(f"FAIL: executor {name!r} diverged from serial results",
                  file=sys.stderr)
            return 1
    print("all executors returned identical solutions")

    serial_s = reports["serial"][1]
    best_parallel = min(reports["process"][1], reports["chunked"][1])
    speedup = serial_s / best_parallel
    print(f"best parallel speedup over serial: {speedup:.2f}x")

    workload = WorkloadConfig(nets=nets, seed=args.seed)
    specs = population_specs(workload)
    overhead, baseline = budget_overhead(
        specs, workload, args.objective, repeats=1 if args.smoke else 3
    )
    if overhead is None:
        print("FAIL: budget-guarded run diverged from the bare run",
              file=sys.stderr)
        return 1
    # The 3% number is the target; only a gross regression (the guard
    # visibly dominating the DP) fails the bench — small fleets on noisy
    # CI boxes jitter by more than the guard costs.
    if not args.smoke and overhead > 10.0:
        print(
            f"FAIL: budget-guard overhead {overhead:.2f}% is grossly over "
            "the 3% target",
            file=sys.stderr,
        )
        return 1

    if not fault_drill(specs, workload, args.objective, baseline):
        return 1

    if args.smoke:
        return 0
    if cpus > 1 and nets >= 200 and speedup <= 1.0:
        print(
            f"FAIL: multiprocessing did not beat serial on {cpus} CPUs",
            file=sys.stderr,
        )
        return 1
    if cpus == 1:
        print("single-CPU host: speedup not asserted "
              "(pool overhead only; re-run on a multi-core machine)")
    return 0


# -- pytest-benchmark integration (shares the suite's fixtures) ------------


def test_batch_serial_vs_process(benchmark, experiment, results_dir):
    from conftest import write_result

    # Reuse the session experiment's workload but a small fleet: this
    # bench times executor overhead, not the DP itself.
    workload = WorkloadConfig(nets=min(60, len(experiment.nets)),
                             seed=experiment.workload.seed)
    specs = population_specs(workload)

    serial = benchmark(
        lambda: run_fleet(specs, workload, make_executor("serial"))
    )
    start = perf_counter()
    parallel = run_fleet(
        specs, workload, make_executor("process", workers=max(2, default_worker_count()))
    )
    parallel_s = perf_counter() - start
    assert parallel.signatures() == serial.signatures()

    text = "\n".join([
        f"batch bench ({len(specs)} nets, buffopt, max_buffers=4)",
        f"serial:  {serial.nets_per_second():8.2f} nets/s",
        f"process: {len(specs) / parallel_s:8.2f} nets/s "
        f"({default_worker_count()} CPUs)",
    ])
    write_result(results_dir, "batch.txt", text)


if __name__ == "__main__":
    raise SystemExit(main())
