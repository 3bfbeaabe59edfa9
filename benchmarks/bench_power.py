"""Power bench: the accumulator's cost and the power-capped fleet.

Standalone script (what CI runs in ``--smoke`` mode)::

    PYTHONPATH=src python benchmarks/bench_power.py           # full
    PYTHONPATH=src python benchmarks/bench_power.py --smoke   # quick CI

Three measurements:

1. **Zero-cost identity** — one chain net (60 sinks in smoke, 150
   full), both modes, both engines, timed with and without a power
   model.  Power-off outcomes must carry exactly zero power and lishi's
   must stay semantically equivalent to the reference's — the
   accumulator may cost nothing when absent.
   The power-on factor per engine/mode is measured and *reported*,
   not gated: a power run keeps a per-count (slack, power) frontier
   where the power-off DP keeps one best slack, so it solves a
   strictly larger problem — the number here prices that frontier,
   it is not an "accumulator overhead".  One extra power-on run per
   engine/mode collects :class:`~repro.core.stats.EngineStats` and
   reports its per-phase split (merge / buffering / wire / prune /
   finalize), so the log shows where power-on time goes.
2. **Power-capped fleet** — the :mod:`repro.workloads` power family
   (12 nets smoke, 60 full) in delay mode, where the zero-buffer
   outcome always survives and every cap is feasible by construction:
   ``power_capped`` must answer without raising on every net, the
   majority of caps must *bind* (the capped choice gives up slack
   against the uncapped optimum), and every selected solution must
   survive the certificate's independent power re-derivation.
3. The full run writes ``BENCH_power.json`` at the repo root — the
   overhead ratios and fleet stats with git SHA / seed attribution, so
   the power path's cost trajectory stays diffable across PRs.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from time import perf_counter

from repro.core.dp import DPOptions, run_dp
from repro.library.buffers import default_buffer_library
from repro.library.power import default_power_model
from repro.library.technology import default_technology
from repro.noise.coupling import CouplingModel
from repro.verify import certify_claim
from repro.workloads import (
    PowerWorkloadConfig,
    WorkloadConfig,
    generate_power_population,
)

from bench_engines import (
    EIGHT_BUFFER_NAMES,
    ENGINE_ORDER,
    assert_semantically_equal,
    chain_net,
)

MODES = ("delay", "buffopt")


def power_overhead(sinks: int, repeats: int):
    """Best-of-``repeats`` (mode, engine) timings, power off vs on.

    Returns ``{mode: {engine: {"off_s", "on_s", "overhead",
    "on_phases"}}}`` — ``on_phases`` is the per-phase seconds of one
    untimed, stats-collecting power-on run — and asserts the power-off
    identity contracts along the way.
    """
    library = default_buffer_library().restricted(list(EIGHT_BUFFER_NAMES))
    coupling = CouplingModel.estimation_mode(default_technology())
    power = default_power_model()
    tree = chain_net(sinks)
    timings = {}
    for mode in MODES:
        noise_aware = mode == "buffopt"
        per_engine = {}
        off_results = {}
        for engine in ENGINE_ORDER:
            off_best = on_best = float("inf")
            for _ in range(repeats):
                start = perf_counter()
                off = run_dp(tree, library, coupling, DPOptions(
                    noise_aware=noise_aware, track_counts=True,
                    max_buffers=4, engine=engine,
                ))
                off_best = min(off_best, perf_counter() - start)

                start = perf_counter()
                on = run_dp(tree, library, coupling, DPOptions(
                    noise_aware=noise_aware, track_counts=True,
                    max_buffers=4, engine=engine, power=power,
                ))
                on_best = min(on_best, perf_counter() - start)
            stats = run_dp(tree, library, coupling, DPOptions(
                noise_aware=noise_aware, track_counts=True,
                max_buffers=4, engine=engine, power=power,
                collect_stats=True,
            )).stats
            off_results[engine] = off
            assert all(o.power == 0.0 for o in off.outcomes), (
                f"{mode} [{engine}]: power-off outcomes carry power"
            )
            assert all(o.power > 0.0 for o in on.outcomes), (
                f"{mode} [{engine}]: power-on outcomes carry no power"
            )
            per_engine[engine] = {
                "off_s": off_best,
                "on_s": on_best,
                "overhead": on_best / off_best - 1.0,
                "on_phases": dict(stats.phase_seconds),
            }
        assert_semantically_equal(
            off_results["reference"], off_results["lishi"],
            f"{mode} [lishi, power-off]",
        )
        timings[mode] = per_engine
    return timings


def power_fleet(nets: int, seed: int):
    """The power-capped family end to end; returns (ok, stats)."""
    config = PowerWorkloadConfig(
        base=WorkloadConfig(nets=nets, seed=seed), noise_aware=False,
    )
    library = default_buffer_library()
    power = default_power_model()
    coupling = CouplingModel.silent()
    binding = certified = 0
    ok = True
    population = generate_power_population(config, library, power)
    start = perf_counter()
    for net in population:
        result = run_dp(net.tree, library, coupling, DPOptions(
            noise_aware=False, power=power,
        ))
        try:
            chosen = result.select(net.objective)
        except Exception as exc:  # InfeasibleError means a broken cap
            print(
                f"FAIL: {net.name}: cap {net.power_cap!r} infeasible: "
                f"{exc}",
                file=sys.stderr,
            )
            ok = False
            continue
        if chosen.power > net.power_cap:
            print(
                f"FAIL: {net.name}: selected power {chosen.power!r} "
                f"exceeds the cap {net.power_cap!r}",
                file=sys.stderr,
            )
            ok = False
        best = max(o.slack for o in result.outcomes)
        if chosen.slack < best:
            binding += 1
        certificate = certify_claim(
            net.tree,
            {i.node: i.buffer for i in chosen.insertions},
            coupling,
            claimed_slack=chosen.slack,
            claimed_noise_feasible=chosen.noise_feasible,
            claimed_buffer_count=chosen.buffer_count,
            claimed_power=chosen.power,
            power_model=power,
        )
        if certificate.ok:
            certified += 1
        else:
            print(
                f"FAIL: {net.name}: {certificate.describe()}",
                file=sys.stderr,
            )
            ok = False
    seconds = perf_counter() - start
    if certified != len(population):
        ok = False
    stats = {
        "nets": len(population),
        "binding": binding,
        "certified": certified,
        "fleet_s": round(seconds, 3),
    }
    print(
        f"power fleet: {stats['nets']} nets, caps all feasible, "
        f"{binding} binding, {certified}/{stats['nets']} "
        f"certificate-clean in {seconds:.2f}s"
    )
    if binding < len(population) // 2:
        print(
            f"FAIL: caps bind on only {binding} of {len(population)} "
            "nets — the family lost its teeth",
            file=sys.stderr,
        )
        ok = False
    return ok, stats


def write_artifact(path, sinks, repeats, seed, timings, fleet_stats, smoke):
    from conftest import _git_sha

    modes = {}
    for mode, per_engine in timings.items():
        modes[mode] = {
            engine: {
                "off_ms": round(t["off_s"] * 1e3, 3),
                "on_ms": round(t["on_s"] * 1e3, 3),
                "power_on_factor": round(t["on_s"] / t["off_s"], 2),
                "on_phases_ms": {
                    phase: round(seconds * 1e3, 3)
                    for phase, seconds in t["on_phases"].items()
                },
            }
            for engine, t in per_engine.items()
        }
    artifact = {
        "kind": "power-bench",
        "sinks": sinks,
        "library": list(EIGHT_BUFFER_NAMES),
        "repeats": repeats,
        "seed": seed,
        "smoke": smoke,
        "git_sha": _git_sha(),
        "modes": modes,
        "fleet": fleet_stats,
    }
    path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # 150 sinks keeps the full sweep to ~12 s.  On a 2-vCPU VM a
    # power-on run of the 150-sink chain measures 9.5x (buffopt) and
    # 11.6x (delay) a power-off one under reference, 7.8x and 18.5x
    # under lishi.
    parser.add_argument("--sinks", type=int, default=150)
    parser.add_argument("--nets", type=int, default=60)
    parser.add_argument("--seed", type=int, default=19981101)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--out", type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parents[1]
        / "BENCH_power.json",
        help="where the full run writes its JSON artifact",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small net + fleet, correctness-only (CI gate, no perf "
        "assertions, no artifact)",
    )
    args = parser.parse_args(argv)

    sinks = 60 if args.smoke else args.sinks
    nets = 12 if args.smoke else args.nets
    repeats = 2 if args.smoke else args.repeats

    print(f"power bench: {sinks}-sink chain, 8-buffer library, "
          f"best of {repeats}")
    timings = power_overhead(sinks, repeats)
    for mode, per_engine in timings.items():
        for engine in ENGINE_ORDER:
            t = per_engine[engine]
            print(
                f"{mode:8s} {engine:9s}: off {t['off_s'] * 1e3:9.2f} ms   "
                f"on {t['on_s'] * 1e3:9.2f} ms   "
                f"({t['on_s'] / t['off_s']:.1f}x — the (slack, power) "
                "frontier, reported not gated)"
            )
            phases = "  ".join(
                f"{phase} {seconds * 1e3:.2f}"
                for phase, seconds in t["on_phases"].items()
            )
            print(f"{'':18s}  power-on phases (ms): {phases}")
    print("power-off identity held on every engine/mode")

    ok, fleet_stats = power_fleet(nets, args.seed)
    if not ok:
        return 1

    if args.smoke:
        return 0

    write_artifact(
        args.out, sinks, repeats, args.seed, timings, fleet_stats,
        args.smoke,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
