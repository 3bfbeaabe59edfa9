"""Fleet-coordination bench: convergence gate, overhead, duality gap.

Standalone script (what CI's fleet-coordinate lane runs in ``--smoke``
mode)::

    PYTHONPATH=src python benchmarks/bench_fleet_coordinate.py
    PYTHONPATH=src python benchmarks/bench_fleet_coordinate.py --smoke

Three measurements over seeded spec fleets on a deliberately tight
shared-site fabric:

* **convergence gate** — the price loop must reach a capacity-feasible
  round *within the round budget without the repair pass* (repair is
  the safety net, not the mechanism; a coordinator that always leans on
  it has a broken price loop).  Prints rounds-to-feasibility and
  re-optimization counts.
* **coordination overhead** — wall time of the coordinated run against
  the uncoordinated single-pass batch of the same fleet; prints the
  multiple and the re-optimization ratio (total DP runs / fleet size).
* **duality gap** — in delay mode the run reports a Lagrangian dual
  bound; the gate asserts ``primal <= dual`` and prints the relative
  gap, the paper-style certificate that the coordinated solution is
  near-optimal, not merely feasible.
"""

from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter

from repro.batch import BatchConfig, BatchOptimizer
from repro.core.objective import Objective
from repro.fleet import FleetConfig, FleetCoordinator, PriceSchedule
from repro.units import PS
from repro.workloads import WorkloadConfig, population_specs

DELAY = Objective.legacy("delay")


def coordinated_run(specs, workload, config):
    coordinator = FleetCoordinator(config=config, workload=workload)
    start = perf_counter()
    result = coordinator.coordinate(specs)
    return result, perf_counter() - start


def uncoordinated_run(specs, workload, batch_config):
    optimizer = BatchOptimizer(config=batch_config, workload=workload)
    start = perf_counter()
    report = optimizer.optimize(specs)
    return report, perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nets", type=int, default=48)
    parser.add_argument("--seed", type=int, default=19981101)
    parser.add_argument("--sites", type=int, default=6)
    parser.add_argument("--capacity", type=int, default=3)
    parser.add_argument("--rounds", type=int, default=25)
    parser.add_argument(
        "--step", type=float, default=20 * PS,
        help="initial subgradient step (default 20 ps on the slack scale)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny fleet, correctness-only (CI gate, no perf assertions)",
    )
    parser.add_argument(
        "--out", help="write the measured numbers as JSON to this path",
    )
    args = parser.parse_args(argv)

    nets = 16 if args.smoke else args.nets
    sites = 4 if args.smoke else args.sites
    capacity = 2 if args.smoke else args.capacity
    workload = WorkloadConfig(nets=nets, seed=args.seed)
    specs = population_specs(workload)

    batch_config = BatchConfig(objective=DELAY, keep_trees=False)
    config = FleetConfig(
        batch=batch_config,
        sites_per_family=sites,
        base_capacity=capacity,
        max_rounds=args.rounds,
        schedule=PriceSchedule(step=args.step),
        repair=False,  # the gate is on the price loop, not the safety net
        tight_bound=True,
    )
    print(
        f"fleet-coordinate bench: {nets} nets over {sites} shared sites "
        f"(capacity {capacity}), budget {args.rounds} rounds"
    )

    result, fleet_s = coordinated_run(specs, workload, config)
    reoptimizations = sum(r.reoptimized for r in result.rounds)
    print(
        f"convergence: {len(result.rounds)} rounds, "
        f"{reoptimizations} re-optimizations "
        f"({reoptimizations / nets:.2f} DP runs per net), {fleet_s:.2f} s"
    )
    if not result.converged:
        print(
            f"FAIL: price loop did not reach feasibility in "
            f"{args.rounds} rounds (max violation "
            f"{result.rounds[-1].max_violation})",
            file=sys.stderr,
        )
        return 1
    if result.failed_count:
        print(f"FAIL: {result.failed_count} nets failed", file=sys.stderr)
        return 1

    _, batch_s = uncoordinated_run(specs, workload, batch_config)
    overhead = fleet_s / batch_s if batch_s > 0 else float("inf")
    print(
        f"overhead: coordinated {fleet_s:.2f} s vs uncoordinated "
        f"{batch_s:.2f} s ({overhead:.2f}x)"
    )

    primal = result.primal_total
    dual = result.dual_bound
    if primal is None or dual is None:
        print("FAIL: delay-mode run reported no primal/dual pair",
              file=sys.stderr)
        return 1
    if primal > dual + 1e-12 + 1e-9 * abs(dual):
        print(
            f"FAIL: weak duality violated (primal {primal!r} > "
            f"dual {dual!r})",
            file=sys.stderr,
        )
        return 1
    gap = dual - primal
    rel = gap / abs(dual) if dual else 0.0
    print(
        f"duality gap: primal {primal:.3e} s, dual {dual:.3e} s "
        f"(gap {gap:.3e} s, {100 * rel:.2f}% of the bound)"
    )

    if args.out:
        with open(args.out, "w") as handle:
            json.dump({
                "kind": "bench-fleet-coordinate",
                "smoke": args.smoke,
                "nets": nets,
                "sites": sites,
                "capacity": capacity,
                "rounds": len(result.rounds),
                "reoptimizations": reoptimizations,
                "coordinated_seconds": fleet_s,
                "uncoordinated_seconds": batch_s,
                "primal_total": primal,
                "dual_bound": dual,
                "duality_gap": gap,
            }, handle, indent=2, sort_keys=True)
            handle.write("\n")

    if args.smoke:
        return 0
    # Full mode additionally gates on the loop being *economical*: the
    # coordinated run must not spend more than round-budget DP runs per
    # net (targeted re-optimization is the point of the price loop).
    if reoptimizations > nets * args.rounds / 2:
        print(
            f"FAIL: {reoptimizations} re-optimizations for {nets} nets — "
            "targeting is not pruning the per-round re-runs",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
