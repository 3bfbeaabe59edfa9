"""Command-line driver.

Two families of commands (installed as ``buffopt``; also
``python -m repro.cli``):

* experiment regeneration — the paper's evaluation::

      buffopt table1                # sink distribution
      buffopt table2 --nets 120     # noise violations before/after
      buffopt table3                # BuffOpt vs DelayOpt(k)
      buffopt table4                # delay penalty
      buffopt figures               # Theorem 1/2 sweeps
      buffopt all --nets 500        # the full paper evaluation

* single-net optimization from a JSON description (see :mod:`repro.io`)::

      buffopt fix net.json                            # Problem 3 BuffOpt
      buffopt fix net.json --objective delay          # DelayOpt
      buffopt fix net.json --objective buffopt/min-power   # power-aware
      buffopt fix net.json --mode noise               # Algorithm 2 (noise only)
      buffopt fix net.json --out solution.json        # write the assignment

* batch optimization of a generated fleet (see :mod:`repro.batch`)::

      buffopt batch --nets 200                           # serial BuffOpt
      buffopt batch --nets 200 --executor process        # multiprocessing
      buffopt batch --executor chunked --chunk-size 8    # chunked map
      buffopt batch --stats --objective delay            # with telemetry
      buffopt batch --objective buffopt/power-capped/power_cap=2e-4

  and fault-tolerant variants (see ``docs/usage.md``)::

      buffopt batch --executor resilient --hard-deadline 30   # survive hangs
      buffopt batch --net-timeout 5 --max-candidates 200000   # per-net budgets
      buffopt batch --checkpoint run.jsonl                    # journal results
      buffopt batch --checkpoint run.jsonl --resume           # finish the rest
      buffopt batch --checkpoint run.ckpt --shards 8 \\
          --stream-report --executor async                    # fleet posture
      buffopt batch --inject-faults 0.01 --executor resilient # drill recovery
      buffopt batch --certify                                 # self-audit

* fuzzing the engine against the independent checkers
  (see :mod:`repro.verify`)::

      buffopt fuzz --iters 200 --seed 7           # seeded campaign
      buffopt fuzz --out repros/                  # write shrunk repro JSONs
      buffopt fuzz --replay repros/repro_....json # re-check a counterexample

* observability (see :mod:`repro.obs` and ``docs/observability.md``)::

      buffopt batch --trace run.jsonl --metrics run.prom
      buffopt fuzz --trace fuzz.jsonl
      buffopt trace summarize run.jsonl           # per-span time table

Uniform interface: every subcommand accepts ``--engine``, ``--seed``
and ``--json`` (commands that have no use for a knob accept and ignore
it — scripts can set them unconditionally), and ``buffopt --version``
prints the package version.

Every optimizing subcommand (``fix``/``batch``/``fleet``/``fuzz``/
``serve``/``loadtest``) additionally speaks the single structured
``--objective mode[/selection][/key=value...]`` spec
(:meth:`repro.core.objective.Objective.parse`); without it they run
the default objective, BuffOpt's fewest buffers meeting noise and
timing.  The one mode flag is ``fix --mode noise``: Algorithm 2's
continuous placement is not a DP objective, so it stays a mode.

Exit codes (the single source of truth; pinned by the CLI tests):

* ``0`` (:data:`EXIT_OK`) — success: tables built, net optimized, no
  fuzz counterexamples, at least one batch net succeeded.
* ``1`` (:data:`EXIT_FAILURE`) — the command ran but the outcome is a
  failure: fuzz counterexamples found, a replay still reproduces,
  every batch net failed, an analysis is unavailable.
* ``2`` (:data:`EXIT_USAGE`) — bad invocation or configuration
  (argparse's own errors also exit 2): ``--resume`` without
  ``--checkpoint``, an invalid workload, an unreadable trace file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import List, Optional

from . import __version__
from .core.dp import ENGINE_CHOICES
from .experiments import (
    build_all_figures,
    build_table1,
    build_table2,
    build_table3,
    build_table4,
    default_experiment,
    format_figures,
    format_table1,
    format_table2,
    format_table3,
    format_table4,
    run_population,
)

TABLE_TARGETS = (
    "table1", "table2", "table3", "table4", "figures", "ablations", "all"
)
TABLES_NEEDING_RUN = {"table2", "table3", "table4", "all"}

#: see the module docstring ("Exit codes") for the full contract.
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

_UNUSED = " (accepted for interface uniformity; unused by this command)"


def _add_common_options(
    sub: argparse.ArgumentParser,
    *,
    seed_default: int = 19981101,
    seed_help: str = "workload seed",
    engine_help: str = (
        "DP implementation: the readable reference engine or the "
        "lishi engine (true O(bn^2); equivalent outcomes within float "
        "tolerance); the retired names fast and auto run lishi"
    ),
) -> None:
    """The uniform trio every subcommand carries."""
    sub.add_argument(
        "--engine", choices=list(ENGINE_CHOICES), default="reference",
        help=engine_help,
    )
    sub.add_argument("--seed", type=int, default=seed_default, help=seed_help)
    sub.add_argument(
        "--json", action="store_true",
        help="emit a machine-readable JSON report on stdout "
        "(progress still goes to stderr)",
    )


_OBJECTIVE_HELP = (
    "structured optimization objective 'mode[/selection][/key=value...]'"
    " — modes: buffopt, delay; selections include fewest-buffers, "
    "max-slack, min-power, power-capped, pareto; keys: min_slack, "
    "power_cap, require_noise (e.g. "
    "'buffopt/power-capped/power_cap=2e-4'). A bare mode is its tool "
    "configuration: buffopt = fewest-buffers, delay = max-slack "
    "(default: buffopt)"
)


def _add_objective_option(
    sub: argparse.ArgumentParser, *, help_text: str = _OBJECTIVE_HELP
) -> None:
    """The one ``--objective`` spelling every optimizing command shares."""
    sub.add_argument(
        "--objective", default=None, metavar="SPEC", help=help_text
    )


def _resolve_objective_flags(
    args: argparse.Namespace, *, command: str
):
    """Parse ``--objective``, or default to the BuffOpt objective.

    Returns the :class:`~repro.core.objective.Objective`, or ``None``
    after printing a usage error (callers exit :data:`EXIT_USAGE`).
    """
    from .core.objective import Objective

    if args.objective is None:
        return Objective()
    try:
        return Objective.parse(args.objective)
    except ValueError as exc:
        print(f"buffopt {command}: bad --objective: {exc}", file=sys.stderr)
        return None


_TRACE_HELP = "journal a JSONL span/event trace of the run to this file"
_METRICS_HELP = "write Prometheus text-format fleet metrics to this file"


def _add_observability_options(
    sub: argparse.ArgumentParser,
    *,
    trace_help: str = _TRACE_HELP,
    metrics_help: str = _METRICS_HELP,
) -> None:
    """The ``--trace``/``--metrics`` pair every observed run carries."""
    sub.add_argument(
        "--trace", default=None, metavar="PATH", help=trace_help
    )
    sub.add_argument(
        "--metrics", default=None, metavar="PATH", help=metrics_help
    )


@contextlib.contextmanager
def _observability(args: argparse.Namespace):
    """Yield the ``(tracer, metrics)`` that ``--trace``/``--metrics``
    ask for (``None`` for an absent flag).

    On the way out the trace is closed and announced even when the
    block raises; the metrics file is written only when it completes.
    """
    tracer = None
    metrics = None
    if args.trace:
        from .obs import EventSink, Tracer

        tracer = Tracer(sink=EventSink(args.trace))
    if args.metrics:
        from .obs import MetricsRegistry

        metrics = MetricsRegistry()
    try:
        yield tracer, metrics
    finally:
        if tracer is not None:
            tracer.close()
            print(f"trace written to {args.trace}", file=sys.stderr)
    if metrics is not None:
        metrics.write_prometheus(args.metrics)
        print(f"metrics written to {args.metrics}", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="buffopt",
        description=(
            "Reproduce the evaluation of 'Buffer Insertion for Noise and "
            "Delay Optimization' (Alpert/Devgan/Quay) or fix a single net"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="target", required=True)

    for name in TABLE_TARGETS:
        sub = subparsers.add_parser(
            name, help=f"regenerate {name} of the paper's evaluation"
        )
        sub.add_argument(
            "--nets", type=int, default=500,
            help="population size (default: the paper's 500)",
        )
        _add_common_options(sub)

    fix = subparsers.add_parser(
        "fix", help="optimize one net from a JSON description"
    )
    fix.add_argument("net", help="path to the JSON net description")
    fix.add_argument(
        "--mode",
        choices=["noise"],
        default=None,
        help="noise: Algorithm 2 continuous noise-only placement (not a "
        "DP objective, so it stays a mode)",
    )
    _add_objective_option(fix)
    fix.add_argument(
        "--segment", type=float, default=500e-6,
        help="max wire segment length in meters before optimization "
        "(ignored by --mode noise, which places buffers continuously)",
    )
    fix.add_argument(
        "--out", default=None, help="write the buffer assignment as JSON"
    )
    fix.add_argument(
        "--svg", default=None,
        help="render the optimized net (with noise annotation) to this SVG",
    )
    _add_common_options(
        fix,
        seed_help="workload seed" + _UNUSED,
        engine_help="DP implementation for the --objective run "
        "(ignored by --mode noise)",
    )

    sens = subparsers.add_parser(
        "sensitivity",
        help="coupling-parameter robustness of a JSON-described net",
    )
    sens.add_argument("net", help="path to the JSON net description")
    _add_common_options(
        sens,
        seed_help="workload seed" + _UNUSED,
        engine_help="DP implementation" + _UNUSED,
    )

    export = subparsers.add_parser(
        "export",
        help="write the synthetic workload population as JSON net files",
    )
    export.add_argument("directory", help="output directory (created)")
    export.add_argument("--nets", type=int, default=500)
    _add_common_options(
        export, engine_help="DP implementation" + _UNUSED
    )

    batch = subparsers.add_parser(
        "batch",
        help="optimize a generated net fleet with a pluggable executor",
    )
    batch.add_argument("--nets", type=int, default=200, help="fleet size")
    _add_objective_option(batch)
    batch.add_argument(
        "--executor",
        choices=["serial", "process", "chunked", "async", "resilient"],
        default="serial",
        help="map backend (default: serial; async streams completions "
        "out of order; resilient survives worker crashes and hangs)",
    )
    batch.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: all schedulable CPUs)",
    )
    batch.add_argument(
        "--chunk-size", type=int, default=None,
        help="nets per task for --executor chunked (default: auto)",
    )
    batch.add_argument(
        "--segment", type=float, default=500e-6,
        help="max wire segment length in meters before optimization",
    )
    batch.add_argument(
        "--max-buffers", type=int, default=4,
        help="engine count cap per net (0 = uncapped; default 4)",
    )
    batch.add_argument(
        "--prune", choices=["timing", "pareto"], default="timing",
        help="engine pruning rule (pareto = 4-field ablation)",
    )
    batch.add_argument(
        "--stats", action="store_true",
        help="collect and print engine pruning telemetry",
    )
    batch.add_argument(
        "--net-timeout", type=float, default=None, metavar="SECONDS",
        help="cooperative per-net deadline enforced inside the DP loop",
    )
    batch.add_argument(
        "--max-candidates", type=int, default=None, metavar="N",
        help="per-net candidate budget (memory proxy) enforced in the DP loop",
    )
    batch.add_argument(
        "--hard-deadline", type=float, default=None, metavar="SECONDS",
        help="per-net wall-clock kill deadline for --executor resilient "
        "(catches hangs the cooperative --net-timeout cannot)",
    )
    batch.add_argument(
        "--max-attempts", type=int, default=None, metavar="N",
        help="retry budget per net for --executor resilient (default 3)",
    )
    batch.add_argument(
        "--backoff", type=float, default=None, metavar="SECONDS",
        help="base retry backoff for --executor resilient (default 0.05)",
    )
    batch.add_argument(
        "--fallback", choices=["serial", "aggressive"], default=None,
        help="after retries: re-run crashed/hung nets inline (serial) or "
        "re-run budget-blown nets with degraded pruning (aggressive)",
    )
    batch.add_argument(
        "--retry-jitter-seed", type=int, default=0, metavar="SEED",
        help="seed of the retry backoff jitter stream (default 0); pin it "
        "to make fault-injected runs reproduce byte-identical schedules",
    )
    batch.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="journal completed nets to this JSONL file as they finish "
        "(a directory of shard files with --shards)",
    )
    batch.add_argument(
        "--resume", action="store_true",
        help="reload --checkpoint and recompute only unfinished nets",
    )
    batch.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="split the checkpoint into N independent shard journals "
        "inside the --checkpoint directory; resume reads every shard "
        "present, so the count may change between runs",
    )
    batch.add_argument(
        "--stream-report", action="store_true",
        help="fold results into a constant-memory report as they "
        "complete instead of retaining every per-net result "
        "(the 10^5-10^6 net posture; aggregates are identical)",
    )
    batch.add_argument(
        "--no-checkpoint-fsync", action="store_true",
        help="skip the per-record fsync on the checkpoint journal "
        "(faster appends; per-line flush still survives process death)",
    )
    batch.add_argument(
        "--inject-faults", type=float, default=None, metavar="RATE",
        help="fault-injection harness: make this fraction of nets "
        "misbehave (testing/demo only)",
    )
    batch.add_argument(
        "--fault-kind", choices=["raise", "hang", "exit", "slow"],
        default="raise",
        help="what injected faults do (default: raise)",
    )
    batch.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed selecting which nets are faulted (default 0)",
    )
    batch.add_argument(
        "--certify", action="store_true",
        help="independently re-derive every reported outcome with the "
        "certificate checker; certification failures join the failure "
        "taxonomy under the 'certify' phase",
    )
    _add_observability_options(
        batch,
        trace_help=_TRACE_HELP
        + " (summarize it with 'buffopt trace summarize PATH')",
    )
    _add_common_options(batch)

    fleet = subparsers.add_parser(
        "fleet",
        help="coordinate a net fleet over shared buffer-site capacities "
        "with Lagrangian prices (see docs/algorithms.md section 9)",
    )
    fleet.add_argument("--nets", type=int, default=50, help="fleet size")
    _add_objective_option(
        fleet,
        help_text=_OBJECTIVE_HELP + "; delay-mode objectives additionally "
        "report a Lagrangian dual bound on the fleet's total slack",
    )
    fleet.add_argument(
        "--executor",
        choices=["serial", "process", "chunked", "async"],
        default="serial",
        help="map backend for each round's re-optimizations",
    )
    fleet.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: all schedulable CPUs)",
    )
    fleet.add_argument(
        "--segment", type=float, default=500e-6,
        help="max wire segment length in meters before optimization",
    )
    fleet.add_argument(
        "--sites", type=int, default=8, metavar="N",
        help="shared buffer sites per net family (default 8)",
    )
    fleet.add_argument(
        "--families", type=int, default=1, metavar="N",
        help="independent contention domains nets hash into (default 1)",
    )
    fleet.add_argument(
        "--capacity", type=int, default=2, metavar="N",
        help="buffers each shared site holds (default 2)",
    )
    fleet.add_argument(
        "--capacity-spread", type=int, default=0, metavar="N",
        help="max salted extra capacity per site (default 0 = uniform)",
    )
    fleet.add_argument(
        "--rounds", type=int, default=25, metavar="N",
        help="price-update round budget (default 25)",
    )
    fleet.add_argument(
        "--step", type=float, default=1e-12, metavar="SECONDS",
        help="initial subgradient step on the price scale (default 1e-12)",
    )
    fleet.add_argument(
        "--growth", type=float, default=2.0,
        help="step multiplier applied after a stall (default 2.0)",
    )
    fleet.add_argument(
        "--patience", type=int, default=2,
        help="stalled rounds tolerated before the step escalates",
    )
    fleet.add_argument(
        "--no-repair", action="store_true",
        help="skip the deterministic feasibility repair pass after the "
        "round budget is spent",
    )
    fleet.add_argument(
        "--tight-bound", action="store_true",
        help="spend one full-fleet priced pass tightening the dual "
        "bound at the final prices (delay mode only)",
    )
    fleet.add_argument(
        "--audit", action="store_true",
        help="independently re-derive every fleet claim with the "
        "DP-free auditor; violations fail the command",
    )
    fleet.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="journal completed nets and closed rounds to this JSONL "
        "file as the loop runs",
    )
    fleet.add_argument(
        "--resume", action="store_true",
        help="replay --checkpoint's closed rounds and continue the loop",
    )
    fleet.add_argument(
        "--no-checkpoint-fsync", action="store_true",
        help="skip the per-record fsync on the checkpoint journal",
    )
    _add_observability_options(fleet)
    _add_common_options(fleet)

    fuzz = subparsers.add_parser(
        "fuzz",
        help="fuzz the DP engine against the independent certificate "
        "checker and exhaustive oracle (see repro.verify)",
    )
    fuzz.add_argument(
        "--iters", type=int, default=100,
        help="fuzz iterations (random nets) to run (default 100)",
    )
    fuzz.add_argument(
        "--max-internal", type=int, default=5,
        help="max internal nodes per generated net (default 5)",
    )
    fuzz.add_argument(
        "--oracle-sites", type=int, default=4,
        help="run exhaustive oracle comparisons on nets with at most "
        "this many buffer sites (0 disables; default 4)",
    )
    fuzz.add_argument(
        "--max-counterexamples", type=int, default=10,
        help="stop the campaign after this many failures (default 10)",
    )
    fuzz.add_argument(
        "--no-shrink", action="store_true",
        help="emit raw counterexample nets without minimization",
    )
    fuzz.add_argument(
        "--out", default=None, metavar="DIR",
        help="write replayable counterexample JSON files to this directory",
    )
    fuzz.add_argument(
        "--replay", default=None, metavar="PATH",
        help="re-run the checks recorded in a counterexample file "
        "instead of fuzzing",
    )
    fuzz.add_argument(
        "--plant-bug", action="store_true",
        help="run against a deliberately broken engine (self-test: the "
        "campaign must fail and shrink the counterexample); with "
        "--engine lishi the bug is an over-evicting timing prune only "
        "the oracle comparison can see, and with a power-aware "
        "--objective a power understatement only the certificate's "
        "independent power re-derivation can see",
    )
    _add_objective_option(
        fuzz,
        help_text="restrict the campaign to the single fuzz mode this "
        "objective implies (its mode, plus the power legs when the "
        "selection is power-aware) — e.g. --objective buffopt/min-power "
        "runs only the buffopt-power mode; default: the delay and "
        "buffopt modes",
    )
    _add_observability_options(
        fuzz,
        trace_help="journal a JSONL span/event trace of the campaign here",
        metrics_help="write Prometheus text-format campaign metrics to "
        "this file",
    )
    _add_common_options(
        fuzz, seed_default=0, seed_help="campaign seed",
        engine_help="DP implementation under test (default: reference)",
    )

    serve = subparsers.add_parser(
        "serve",
        help="run the long-lived optimization service (JSON over HTTP, "
        "or line-delimited JSON on stdio; see docs/service.md)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8723,
        help="listen port (0 = pick a free one; default 8723)",
    )
    serve.add_argument(
        "--stdio", action="store_true",
        help="serve line-delimited JSON on stdin/stdout instead of HTTP "
        "(the embedding mode)",
    )
    serve.add_argument(
        "--workers", type=int, default=2,
        help="concurrent worker threads, one supervised child process "
        "each (default 2)",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=16,
        help="admission queue bound; beyond it submits shed with 429 "
        "(default 16)",
    )
    serve.add_argument(
        "--supervision", choices=["resilient", "inline"],
        default="resilient",
        help="resilient: process per request, survives crashes and "
        "hangs; inline: in-thread, for embedding (default: resilient)",
    )
    serve.add_argument(
        "--hard-deadline", type=float, default=None, metavar="SECONDS",
        help="per-attempt wall-clock kill for hung workers "
        "(resilient supervision only)",
    )
    serve.add_argument(
        "--max-attempts", type=int, default=3, metavar="N",
        help="retry budget per request (default 3)",
    )
    serve.add_argument(
        "--backoff", type=float, default=0.05, metavar="SECONDS",
        help="base retry backoff (default 0.05)",
    )
    serve.add_argument(
        "--retry-jitter-seed", type=int, default=0, metavar="SEED",
        help="seed of the retry backoff jitter stream (default 0); pin "
        "it so chaos runs reproduce byte-identical schedules",
    )
    serve.add_argument(
        "--journal", default=None, metavar="PATH",
        help="journal admissions and results to this JSONL file; a "
        "restarted server serves finished work from it and re-runs "
        "what was in flight",
    )
    serve.add_argument(
        "--no-journal-fsync", action="store_true",
        help="skip the per-record fsync on the service journal",
    )
    serve.add_argument(
        "--events", default=None, metavar="PATH",
        help="emit lifecycle events (accepted/done/recovered) as JSONL",
    )
    serve.add_argument(
        "--wait-timeout", type=float, default=60.0, metavar="SECONDS",
        help="cap on wait=true synchronous submits (default 60)",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=30.0, metavar="SECONDS",
        help="graceful-drain deadline on SIGTERM (default 30)",
    )
    serve.add_argument(
        "--chaos-rate", type=float, default=None, metavar="RATE",
        help="chaos harness: deterministically fault this fraction of "
        "requests' workers (testing only)",
    )
    serve.add_argument(
        "--chaos-seed", type=int, default=0,
        help="seed selecting which nets the chaos harness faults",
    )
    serve.add_argument(
        "--chaos-hang-seconds", type=float, default=30.0,
        help="injected hang duration (choose past --hard-deadline)",
    )
    serve.add_argument(
        "--chaos-slow-seconds", type=float, default=0.25,
        help="injected slow-start duration (choose under the deadline)",
    )
    _add_objective_option(
        serve,
        help_text="objective spec (per-request via the protocol's "
        "'objective' block; this flag is validated, then accepted for "
        "interface uniformity)",
    )
    _add_common_options(
        serve,
        seed_help="workload seed" + _UNUSED,
        engine_help="DP implementation (per-request via the protocol's "
        "'engine' field; this flag is accepted for interface uniformity)",
    )

    loadtest = subparsers.add_parser(
        "loadtest",
        help="drive a service with N concurrent clients and report "
        "latency percentiles (BENCH_service.json sidecar)",
    )
    loadtest.add_argument(
        "--url", default=None, metavar="URL",
        help="target a running server (e.g. http://127.0.0.1:8723); "
        "default: run an in-process service",
    )
    loadtest.add_argument(
        "--clients", type=int, default=4, help="client threads (default 4)"
    )
    loadtest.add_argument(
        "--requests", type=int, default=40,
        help="total requests across all clients (default 40)",
    )
    loadtest.add_argument(
        "--unique-nets", type=int, default=32,
        help="distinct nets; the rest repeat, exercising the cache "
        "(default 32)",
    )
    _add_objective_option(
        loadtest,
        help_text="objective every request carries (non-legacy shapes "
        "ride the protocol's v2 'objective' block); "
        + _OBJECTIVE_HELP,
    )
    loadtest.add_argument(
        "--workers", type=int, default=2,
        help="in-process service worker threads (ignored with --url)",
    )
    loadtest.add_argument(
        "--queue-limit", type=int, default=16,
        help="in-process service queue bound (ignored with --url)",
    )
    loadtest.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the BENCH sidecar JSON here (e.g. BENCH_service.json)",
    )
    loadtest.add_argument(
        "--smoke", action="store_true",
        help="mark the sidecar as a smoke (CI-sized) run",
    )
    _add_common_options(
        loadtest, seed_default=0, seed_help="request-stream seed",
        engine_help="DP implementation requested for every net "
        "(default: reference)",
    )

    trace = subparsers.add_parser(
        "trace",
        help="inspect JSONL traces written by --trace (see repro.obs)",
    )
    trace.add_argument(
        "action", choices=["summarize"],
        help="summarize: aggregate per-span wall time and counters",
    )
    trace.add_argument("file", help="path to a JSONL trace file")
    _add_common_options(
        trace,
        seed_help="workload seed" + _UNUSED,
        engine_help="DP implementation" + _UNUSED,
    )
    return parser


def _run_tables(args: argparse.Namespace) -> int:
    experiment = default_experiment(
        nets=args.nets, seed=args.seed, engine=args.engine
    )
    sections: List[str] = []
    run = None
    if args.target in TABLES_NEEDING_RUN:
        print(
            f"optimizing {args.nets} nets (BuffOpt + DelayOpt(1..4)) ...",
            file=sys.stderr,
        )
        run = run_population(experiment)

    if args.target in ("table1", "all"):
        sections.append(format_table1(build_table1(experiment)))
    if args.target in ("table2", "all"):
        assert run is not None
        print("running detailed transient verification ...", file=sys.stderr)
        sections.append(format_table2(build_table2(experiment, run)))
    if args.target in ("table3", "all"):
        assert run is not None
        sections.append(format_table3(build_table3(run)))
    if args.target in ("table4", "all"):
        assert run is not None
        sections.append(format_table4(build_table4(experiment, run)))
    if args.target in ("figures", "all"):
        sections.append(format_figures(build_all_figures(experiment)))
    if args.target == "ablations":
        from .experiments import run_all_ablations

        print("running ablation studies ...", file=sys.stderr)
        sections.append(run_all_ablations(experiment))

    if args.json:
        print(json.dumps({
            "kind": "buffopt-tables-report",
            "target": args.target,
            "nets": args.nets,
            "seed": args.seed,
            "engine": args.engine,
            "sections": sections,
        }, indent=2))
    else:
        print("\n\n".join(sections))
    return EXIT_OK


def _run_fix(args: argparse.Namespace) -> int:
    from .api import Session, SessionOptions
    from .core import insert_buffers_multi_sink
    from .io import load_net, save_solution
    from .library import default_buffer_library, default_technology
    from .noise import CouplingModel, analyze_noise
    from .timing import max_sink_delay
    from .units import format_time

    if args.mode == "noise":
        if args.objective is not None:
            print(
                "buffopt fix: --objective and --mode noise are mutually "
                "exclusive (Algorithm 2 is not a DP objective)",
                file=sys.stderr,
            )
            return EXIT_USAGE
        objective = None
        mode_label = "noise"
    else:
        objective = _resolve_objective_flags(args, command="fix")
        if objective is None:
            return EXIT_USAGE
        mode_label = objective.describe()

    tree, technology = load_net(args.net)
    technology = technology or default_technology()
    library = default_buffer_library()
    coupling = CouplingModel.estimation_mode(technology)

    out = sys.stderr if args.json else sys.stdout
    before = analyze_noise(tree, coupling)
    before_delay = max_sink_delay(tree)
    print(f"loaded {tree.name}: {len(tree.sinks)} sinks, "
          f"{tree.total_wire_length() * 1e3:.2f} mm of wire", file=out)
    print(f"before: {len(before.violations)} noise violations, "
          f"max delay {format_time(before_delay)}", file=out)

    power_total = None
    if args.mode == "noise":
        # Algorithm 2 places buffers continuously; the DP facade (and
        # its --engine switch) does not apply.
        continuous = insert_buffers_multi_sink(tree, library, coupling)
        work_tree, solution = continuous.realize()
    else:
        options = SessionOptions(
            objective=objective,
            engine=args.engine,
            max_segment_length=args.segment,
        )
        with Session(
            options, library=library, coupling=coupling,
            technology=technology,
        ) as session:
            optimized = session.optimize(tree)
        work_tree = optimized.tree
        solution = optimized.solution()
        if objective.power_aware:
            power_total = optimized.power

    after = analyze_noise(work_tree, coupling, solution.buffer_map())
    after_delay = max_sink_delay(work_tree, solution.buffer_map())
    print(f"after ({mode_label}): {solution.buffer_count} buffers, "
          f"{len(after.violations)} noise violations, "
          f"max delay {format_time(after_delay)}", file=out)
    print(solution.describe(), file=out)

    if args.out:
        save_solution(solution, args.out)
        print(f"solution written to {args.out}", file=out)
    if args.svg:
        from .viz import save_svg

        save_svg(work_tree, args.svg, solution.buffer_map(), coupling)
        print(f"rendering written to {args.svg}", file=out)
    if args.json:
        print(json.dumps({
            "kind": "buffopt-fix-report",
            "net": tree.name,
            "mode": "noise" if objective is None else objective.mode,
            "objective": (
                None if objective is None else objective.describe()
            ),
            "engine": args.engine if objective is not None else None,
            "before": {
                "violations": len(before.violations),
                "max_delay": before_delay,
            },
            "after": {
                "violations": len(after.violations),
                "max_delay": after_delay,
                "buffers": solution.buffer_count,
                **(
                    {} if power_total is None
                    else {"power": power_total}
                ),
            },
            "assignment": {
                node: buffer.name
                for node, buffer in sorted(solution.buffer_map().items())
            },
        }, indent=2))
    return EXIT_OK


def _run_sensitivity(args: argparse.Namespace) -> int:
    from .analysis import coupling_sensitivity
    from .errors import AnalysisError
    from .io import load_net
    from .library import default_technology
    from .noise import CouplingModel

    tree, technology = load_net(args.net)
    technology = technology or default_technology()
    coupling = CouplingModel.estimation_mode(technology)
    try:
        report = coupling_sensitivity(tree, coupling)
    except AnalysisError as exc:
        print(f"sensitivity unavailable: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    if args.json:
        print(json.dumps({
            "kind": "buffopt-sensitivity-report",
            "net": tree.name,
            "critical_ratio": report.critical_ratio,
            "assumed_ratio": report.assumed_ratio,
        }, indent=2))
        return EXIT_OK
    print(report.describe())
    print(
        f"net-level critical coupling ratio: {report.critical_ratio:.3f} "
        f"(assumed {report.assumed_ratio})"
    )
    return EXIT_OK


def _run_batch(args: argparse.Namespace) -> int:
    from .batch import BatchConfig, BatchOptimizer, FaultPlan, make_executor
    from .batch.resilience import RetryPolicy
    from .errors import WorkloadError
    from .workloads import WorkloadConfig, population_specs

    if args.resume and not args.checkpoint:
        print("--resume requires --checkpoint PATH", file=sys.stderr)
        return EXIT_USAGE
    if args.shards is not None and not args.checkpoint:
        print("--shards requires --checkpoint DIR", file=sys.stderr)
        return EXIT_USAGE
    objective = _resolve_objective_flags(args, command="batch")
    if objective is None:
        return EXIT_USAGE

    retry = None
    if args.max_attempts is not None or args.backoff is not None \
            or args.fallback is not None or args.retry_jitter_seed:
        retry = RetryPolicy(
            max_attempts=args.max_attempts or 3,
            backoff_seconds=args.backoff if args.backoff is not None else 0.05,
            fallback=args.fallback,
            seed=args.retry_jitter_seed,
        )
    workload = WorkloadConfig(nets=args.nets, seed=args.seed)
    executor = make_executor(
        args.executor,
        workers=args.workers,
        chunk_size=args.chunk_size,
        retry=retry,
        deadline=args.hard_deadline,
    )
    specs = population_specs(workload)
    faults = None
    if args.inject_faults:
        faults = FaultPlan.sample(
            [spec.name for spec in specs],
            rate=args.inject_faults,
            seed=args.fault_seed,
            kind=args.fault_kind,
        )
        print(f"injecting faults: {faults.describe()}", file=sys.stderr)
    try:
        config = BatchConfig(
            objective=objective,
            max_segment_length=args.segment,
            max_buffers=args.max_buffers or None,
            prune=args.prune,
            collect_stats=args.stats,
            keep_trees=False,
            net_deadline=args.net_timeout,
            net_max_candidates=args.max_candidates,
            retry=retry,
            certify=args.certify,
            engine=args.engine,
        )
    except WorkloadError as exc:
        print(f"bad batch configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        with _observability(args) as (tracer, metrics):
            optimizer = BatchOptimizer(
                config=config,
                executor=executor,
                workload=workload,
                faults=faults,
                tracer=tracer,
                metrics=metrics,
            )
            print(
                f"optimizing {args.nets} nets ({objective.describe()}, "
                f"{executor.describe()}) ...",
                file=sys.stderr,
            )
            report = optimizer.optimize_specs(
                specs,
                checkpoint=args.checkpoint,
                resume=args.resume,
                checkpoint_fsync=not args.no_checkpoint_fsync,
                stream_report=args.stream_report,
                shards=args.shards,
            )
    except WorkloadError as exc:
        print(f"batch failed: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.describe())
    return EXIT_FAILURE if report.failure_count == len(report) else EXIT_OK


def _run_fleet(args: argparse.Namespace) -> int:
    from .batch import make_executor
    from .batch.optimizer import BatchConfig
    from .errors import WorkloadError
    from .fleet import FleetConfig, FleetCoordinator, PriceSchedule
    from .fleet.verify import audit_fleet
    from .workloads import WorkloadConfig, population_specs

    if args.resume and not args.checkpoint:
        print("--resume requires --checkpoint PATH", file=sys.stderr)
        return EXIT_USAGE
    objective = _resolve_objective_flags(args, command="fleet")
    if objective is None:
        return EXIT_USAGE

    workload = WorkloadConfig(nets=args.nets, seed=args.seed)
    executor = make_executor(args.executor, workers=args.workers)
    try:
        config = FleetConfig(
            batch=BatchConfig(
                objective=objective,
                max_segment_length=args.segment,
                keep_trees=False,
                engine=args.engine,
            ),
            sites_per_family=args.sites,
            families=args.families,
            base_capacity=args.capacity,
            capacity_spread=args.capacity_spread,
            max_rounds=args.rounds,
            schedule=PriceSchedule(
                step=args.step,
                growth=args.growth,
                patience=args.patience,
            ),
            repair=not args.no_repair,
            tight_bound=args.tight_bound,
        )
    except WorkloadError as exc:
        print(f"bad fleet configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE
    specs = population_specs(workload)
    try:
        with _observability(args) as (tracer, metrics):
            coordinator = FleetCoordinator(
                config=config,
                executor=executor,
                workload=workload,
                tracer=tracer,
                metrics=metrics,
            )
            print(
                f"coordinating {args.nets} nets over "
                f"{args.sites * args.families} shared sites "
                f"({objective.describe()}, {executor.describe()}) ...",
                file=sys.stderr,
            )
            result = coordinator.coordinate(
                specs,
                checkpoint=args.checkpoint,
                resume=args.resume,
                checkpoint_fsync=not args.no_checkpoint_fsync,
            )
    except WorkloadError as exc:
        print(f"fleet failed: {exc}", file=sys.stderr)
        return EXIT_USAGE
    violations: List[str] = []
    if args.audit:
        violations = audit_fleet(
            result, specs, config=config, workload=workload
        )
        for violation in violations:
            print(f"audit: {violation}", file=sys.stderr)
    if args.json:
        report = result.to_json()
        if args.audit:
            report["audit_violations"] = violations
        print(json.dumps(report, indent=2))
    else:
        print(result.describe())
        if args.audit:
            print(
                "audit: clean" if not violations
                else f"audit: {len(violations)} violation(s)"
            )
    if violations or not result.feasible:
        return EXIT_FAILURE
    return EXIT_OK


def _run_export(args: argparse.Namespace) -> int:
    import pathlib

    from .io import save_net

    experiment = default_experiment(nets=args.nets, seed=args.seed)
    directory = pathlib.Path(args.directory)
    directory.mkdir(parents=True, exist_ok=True)
    for net in experiment.nets:
        save_net(
            net.tree, directory / f"{net.name}.json", experiment.technology
        )
    if args.json:
        print(json.dumps({
            "kind": "buffopt-export-report",
            "directory": str(directory),
            "nets": len(experiment.nets),
            "seed": args.seed,
        }, indent=2))
    else:
        print(f"wrote {len(experiment.nets)} nets to {directory}")
    return EXIT_OK


def _run_fuzz(args: argparse.Namespace) -> int:
    from .verify import (
        FuzzConfig,
        engine_for,
        planted_buggy_engine,
        planted_buggy_lishi_engine,
        planted_buggy_power_engine,
        replay_file,
        run_fuzz,
    )

    modes = None  # no --objective: fuzz every mode
    if args.objective is not None:
        objective = _resolve_objective_flags(args, command="fuzz")
        if objective is None:
            return EXIT_USAGE
        modes = (
            objective.mode + ("-power" if objective.power_aware else ""),
        )
    if args.plant_bug:
        if modes is not None and modes[0].endswith("-power"):
            engine = planted_buggy_power_engine()
        else:
            engine = (
                planted_buggy_lishi_engine()
                if args.engine == "lishi"
                else planted_buggy_engine()
            )
    else:
        engine = engine_for(args.engine)
    if args.replay:
        failures = replay_file(args.replay, engine=engine)
        if args.json:
            print(json.dumps({
                "kind": "buffopt-fuzz-replay",
                "file": args.replay,
                "reproduces": bool(failures),
                "failures": [
                    {
                        "mode": f.mode,
                        "check": f.check,
                        "messages": list(f.messages),
                    }
                    for f in failures
                ],
            }, indent=2))
            return EXIT_FAILURE if failures else EXIT_OK
        if not failures:
            print(f"{args.replay}: no longer reproduces")
            return EXIT_OK
        for failure in failures:
            print(f"{failure.mode}/{failure.check} still fails:")
            for message in failure.messages:
                print(f"  {message}")
        return EXIT_FAILURE

    config_kwargs = dict(
        iterations=args.iters,
        seed=args.seed,
        max_internal=args.max_internal,
        oracle_sites=args.oracle_sites,
        shrink=not args.no_shrink,
        out_dir=args.out,
        max_counterexamples=args.max_counterexamples,
        engine=args.engine,
    )
    if modes is not None:
        config_kwargs["modes"] = modes
    config = FuzzConfig(**config_kwargs)
    print(
        f"fuzzing {args.iters} random nets (seed {args.seed}, "
        f"engine {args.engine}, modes {'/'.join(config.modes)}, "
        f"oracle on <= {args.oracle_sites} sites) ...",
        file=sys.stderr,
    )
    with _observability(args) as (tracer, metrics):
        report = run_fuzz(config, engine=engine, tracer=tracer,
                          metrics=metrics)
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.describe())
    return EXIT_OK if report.ok else EXIT_FAILURE


def _run_serve(args: argparse.Namespace) -> int:
    from .batch.resilience import RetryPolicy
    from .errors import ServiceError
    from .service import (
        ChaosConfig,
        OptimizationService,
        ServiceConfig,
        run_http_server,
        run_stdio,
    )

    if _resolve_objective_flags(args, command="serve") is None:
        return EXIT_USAGE

    events = None
    if args.events:
        from .obs import EventSink

        events = EventSink(args.events)
    chaos = None
    if args.chaos_rate is not None:
        chaos = ChaosConfig(
            rate=args.chaos_rate,
            seed=args.chaos_seed,
            hang_seconds=args.chaos_hang_seconds,
            slow_seconds=args.chaos_slow_seconds,
        )
        print(
            f"chaos: faulting ~{args.chaos_rate:.0%} of requests "
            f"(seed {args.chaos_seed})",
            file=sys.stderr,
        )
    try:
        config = ServiceConfig(
            workers=args.workers,
            queue_limit=args.queue_limit,
            retry=RetryPolicy(
                max_attempts=args.max_attempts,
                backoff_seconds=args.backoff,
                seed=args.retry_jitter_seed,
            ),
            hard_deadline=args.hard_deadline,
            supervision=args.supervision,
            journal_path=args.journal,
            journal_fsync=not args.no_journal_fsync,
            wait_timeout=args.wait_timeout,
            drain_timeout=args.drain_timeout,
            chaos=chaos,
        )
        service = OptimizationService(config, events=events).start()
    except ServiceError as exc:
        print(f"serve failed to start: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if service.recovered_jobs or service.recovered_results:
        print(
            f"recovered {service.recovered_results} cached result(s), "
            f"re-enqueued {service.recovered_jobs} in-flight request(s) "
            f"from {args.journal}",
            file=sys.stderr,
        )
    try:
        if args.stdio:
            drained = run_stdio(service)
        else:
            drained = run_http_server(
                service,
                host=args.host,
                port=args.port,
                announce=lambda port: print(
                    f"buffopt service listening on "
                    f"http://{args.host}:{port}",
                    file=sys.stderr,
                ),
            )
    finally:
        if events is not None:
            events.close()
    print(
        "drained cleanly" if drained else "drain timed out with work left",
        file=sys.stderr,
    )
    return EXIT_OK if drained else EXIT_FAILURE


def _run_loadtest(args: argparse.Namespace) -> int:
    from .service import (
        HttpServiceClient,
        InProcessClient,
        LoadTestConfig,
        OptimizationService,
        ServiceConfig,
        run_loadtest,
        write_bench_sidecar,
    )

    objective = _resolve_objective_flags(args, command="loadtest")
    if objective is None:
        return EXIT_USAGE
    if objective.selection == "pareto":
        print(
            "buffopt loadtest: the service answers each request with a "
            "single outcome; 'pareto' is not a service objective",
            file=sys.stderr,
        )
        return EXIT_USAGE
    config = LoadTestConfig(
        clients=args.clients,
        requests=args.requests,
        unique_nets=args.unique_nets,
        seed=args.seed,
        objective=objective,
        engine=args.engine,
    )
    service = None
    if args.url:
        client = HttpServiceClient(args.url)
    else:
        service = OptimizationService(ServiceConfig(
            workers=args.workers, queue_limit=args.queue_limit,
        )).start()
        client = InProcessClient(service)
    print(
        f"loadtest: {args.clients} clients x {args.requests} requests "
        f"against {args.url or 'an in-process service'} ...",
        file=sys.stderr,
    )
    try:
        report = run_loadtest(client, config)
    finally:
        if service is not None:
            service.drain()
    if args.out:
        write_bench_sidecar(
            report, args.out, seed=args.seed, smoke=args.smoke
        )
        print(f"sidecar written to {args.out}", file=sys.stderr)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        latency = report["latency_seconds"]
        print(
            f"{report['completed']}/{report['requests']} completed, "
            f"{report['dropped']} dropped, "
            f"{report['shed_retries']} shed retries, "
            f"{report['throughput_rps']:.1f} req/s | latency p50 "
            f"{latency['p50'] * 1000:.1f} ms, p95 "
            f"{latency['p95'] * 1000:.1f} ms, p99 "
            f"{latency['p99'] * 1000:.1f} ms"
        )
    return EXIT_OK if report["dropped"] == 0 else EXIT_FAILURE


def _run_trace(args: argparse.Namespace) -> int:
    from .errors import ObservabilityError
    from .obs import summarize_trace

    try:
        summary = summarize_trace(args.file)
    except (OSError, ObservabilityError) as exc:
        print(f"trace unreadable: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        print(json.dumps(summary.to_json(), indent=2))
    else:
        print(summary.describe())
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.target == "fix":
        return _run_fix(args)
    if args.target == "sensitivity":
        return _run_sensitivity(args)
    if args.target == "export":
        return _run_export(args)
    if args.target == "batch":
        return _run_batch(args)
    if args.target == "fleet":
        return _run_fleet(args)
    if args.target == "fuzz":
        return _run_fuzz(args)
    if args.target == "serve":
        return _run_serve(args)
    if args.target == "loadtest":
        return _run_loadtest(args)
    if args.target == "trace":
        return _run_trace(args)
    return _run_tables(args)


if __name__ == "__main__":
    raise SystemExit(main())
