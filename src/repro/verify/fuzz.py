"""Seeded fuzzing of the DP engine against the independent checkers.

Each iteration generates a random routing tree (:mod:`.treegen`), runs
the engine in delay and noise-aware modes, and checks the results two
ways: every claimed outcome is re-derived by the certificate checker
(:mod:`.certificate`), and — on nets small enough — the DP's selections
are compared against the exhaustive oracle (:mod:`.oracle`).  Any
failure is **shrunk**: sink/internal subtrees are removed and
pass-through internal nodes spliced out while the failure still
reproduces, so the emitted JSON repro file carries a minimal net, not a
random thicket.

The whole campaign is driven by one integer seed; ``buffopt fuzz
--seed N`` replays it exactly, and each counterexample file embeds both
the original and the shrunk net (via :func:`repro.io.net_to_dict`) plus
enough config to re-check it with :func:`replay_file`.
"""

from __future__ import annotations

import json
import pathlib
import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..core.dp import ENGINE_CHOICES, DPOptions, DPResult, run_dp
from ..errors import InfeasibleError, ReproError
from ..io import net_from_dict, net_to_dict
from ..library.buffers import BufferLibrary, default_buffer_library
from ..library.power import PowerModel, default_power_model
from ..library.technology import default_technology
from ..noise.coupling import CouplingModel
from ..tree.topology import RoutingTree, Wire
from ..tree.transform import copy_node, copy_wire
from .certificate import certify_result
from .oracle import OracleBoundError, compare_result_to_oracle, exhaustive_oracle
from .treegen import random_tree

#: an Engine maps (tree, library, coupling, noise_aware, max_buffers,
#: power) to a DPResult — the seam where a deliberately broken engine is
#: injected for self-tests.
Engine = Callable[..., DPResult]

#: fuzz modes: the base pair plus their power-model variants.
FUZZ_MODES = ("delay", "buffopt", "delay-power", "buffopt-power")


def _mode_flags(mode: str) -> Tuple[bool, bool]:
    """``(noise_aware, power_active)`` for a fuzz mode string."""
    return mode.startswith("buffopt"), mode.endswith("-power")


def default_engine(
    tree: RoutingTree,
    library: BufferLibrary,
    coupling: CouplingModel,
    noise_aware: bool,
    max_buffers: Optional[int] = None,
    dp_engine: str = "reference",
    power: Optional[PowerModel] = None,
) -> DPResult:
    """The real engine, configured the way the fuzzer checks it.

    ``dp_engine`` selects the DP implementation (any of
    :data:`repro.core.dp.ENGINE_CHOICES`) — ``buffopt fuzz --engine
    lishi`` points the whole campaign at the lishi engine's code paths.
    ``power`` (set in the ``*-power`` fuzz modes) runs the DP with the
    power accumulator on.
    """
    options = DPOptions(
        noise_aware=noise_aware,
        track_counts=True,
        max_buffers=max_buffers,
        engine=dp_engine,
        power=power,
    )
    return run_dp(tree, library, coupling=coupling, options=options)


def engine_for(dp_engine: str) -> Engine:
    """An :data:`Engine` callable bound to one DP implementation."""

    def engine(tree, library, coupling, noise_aware, max_buffers=None,
               power=None):
        return default_engine(
            tree, library, coupling, noise_aware, max_buffers,
            dp_engine=dp_engine, power=power,
        )

    return engine


def planted_buggy_engine(
    slack_inflation: float = 0.1, min_sinks: int = 2
) -> Engine:
    """An engine with a deliberate bug, for fuzzer self-tests.

    On trees with at least ``min_sinks`` sinks it inflates every
    outcome's claimed slack — a classic stale-claim bug the certificate
    checker must catch, and one the shrinker should reduce to a minimal
    ``min_sinks``-sink net (single-sink nets behave correctly).
    """

    def engine(tree, library, coupling, noise_aware, max_buffers=None,
               power=None):
        result = default_engine(
            tree, library, coupling, noise_aware, max_buffers, power=power
        )
        if len(tree.sinks) < min_sinks:
            return result
        outcomes = tuple(
            replace(o, slack=o.slack + abs(o.slack) * slack_inflation + 1e-12)
            for o in result.outcomes
        )
        return replace(result, outcomes=outcomes)

    return engine


def planted_buggy_power_engine(
    understatement: float = 0.5, min_sinks: int = 2
) -> Engine:
    """An engine that under-accumulates power, for fuzzer self-tests.

    On trees with at least ``min_sinks`` sinks every outcome's claimed
    power is scaled by ``understatement`` — the canonical accumulator
    bug (a wire or buffer contribution dropped somewhere in the
    recurrence).  Timing claims stay correct, so only the certificate's
    *power re-derivation* (:func:`repro.verify.recompute_power`), which
    shares no code with the engine accumulators, can notice.  The
    self-test asserts the power fuzz modes catch this; the non-power
    modes must NOT (the mutant is invisible without a power model).
    """

    def engine(tree, library, coupling, noise_aware, max_buffers=None,
               power=None):
        result = default_engine(
            tree, library, coupling, noise_aware, max_buffers, power=power
        )
        if power is None or len(tree.sinks) < min_sinks:
            return result
        outcomes = tuple(
            replace(o, power=o.power * understatement)
            for o in result.outcomes
        )
        return replace(result, outcomes=outcomes)

    return engine


def planted_buggy_lishi_engine(min_sinks: int = 2) -> Engine:
    """A lishi engine with deliberately over-eager dominance eviction.

    On trees with at least ``min_sinks`` sinks the timing prune keeps
    only the min-load candidate of every group, discarding the rest of
    the frontier.  Over-eviction is *self-consistent* — every surviving
    candidate's claims are still correct, so the certificate passes —
    which is exactly why the fuzzer needs the exhaustive oracle: only a
    ground-truth comparison (the oracle, or the equivalence harness's
    reference comparison) notices the optimum went missing.  The
    self-test asserts the fuzz/shrink loop catches this.
    """
    from ..core.lishi_engine import LiShiEngine

    class _OverEvictingLiShiEngine(LiShiEngine):
        def _prune_timing(self, candidates, frontier):
            kept = super()._prune_timing(candidates, frontier)
            return kept[:1]

    def engine(tree, library, coupling, noise_aware, max_buffers=None,
               power=None):
        if len(tree.sinks) < min_sinks:
            return default_engine(
                tree, library, coupling, noise_aware, max_buffers,
                dp_engine="lishi", power=power,
            )
        options = DPOptions(
            noise_aware=noise_aware,
            track_counts=True,
            max_buffers=max_buffers,
            engine="lishi",
            power=power,
        )
        driver = tree.driver
        if driver is None:
            raise InfeasibleError(
                f"tree {tree.name!r} has no driver cell; pass driver="
            )
        return _OverEvictingLiShiEngine(
            tree, library, coupling, options, driver
        ).run()

    return engine


@dataclass(frozen=True)
class FuzzConfig:
    """One fuzz campaign: sizes, seeds, and which checks run."""

    iterations: int = 100
    seed: int = 0
    max_internal: int = 5
    #: finite sink RATs — without them every slack is ``inf`` and slack
    #: comparisons are vacuous, so fuzzing defaults to finite RATs.
    with_rats: bool = True
    #: any of :data:`FUZZ_MODES`; the ``*-power`` variants run the DP
    #: with the default power model and add the power oracle legs.
    modes: Tuple[str, ...] = ("delay", "buffopt")
    max_buffers: Optional[int] = None
    #: run DP-vs-oracle comparisons on nets with at most this many sites
    #: (0 disables the oracle entirely).
    oracle_sites: int = 4
    oracle_max_assignments: int = 100_000
    #: the oracle reruns the DP with a library restricted to this many
    #: cells to keep the enumeration tractable.
    oracle_cells: int = 2
    shrink: bool = True
    #: directory for counterexample JSON files (None: don't write).
    out_dir: Optional[str] = None
    max_counterexamples: int = 10
    #: DP implementation under test (any of
    #: :data:`repro.core.dp.ENGINE_CHOICES`) when no explicit engine
    #: callable is passed to :func:`run_fuzz`.
    engine: str = "reference"

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        for mode in self.modes:
            if mode not in FUZZ_MODES:
                raise ValueError(f"unknown fuzz mode {mode!r}")
        if self.engine not in ENGINE_CHOICES:
            raise ValueError(
                f"unknown engine {self.engine!r} "
                f"(expected one of {ENGINE_CHOICES})"
            )


@dataclass(frozen=True)
class Failure:
    """One failed check on one net (before shrinking)."""

    check: str  # "certificate" | "oracle"
    mode: str  # "delay" | "buffopt"
    messages: Tuple[str, ...]


@dataclass(frozen=True)
class Counterexample:
    """A shrunk, replayable engine failure."""

    seed: int
    iteration: int
    tree_seed: int
    check: str
    mode: str
    messages: Tuple[str, ...]
    net: dict
    shrunk_net: dict
    original_nodes: int
    shrunk_nodes: int

    def to_json(self) -> dict:
        return {
            "kind": "buffopt-fuzz-counterexample",
            "seed": self.seed,
            "iteration": self.iteration,
            "tree_seed": self.tree_seed,
            "check": self.check,
            "mode": self.mode,
            "messages": list(self.messages),
            "original_nodes": self.original_nodes,
            "shrunk_nodes": self.shrunk_nodes,
            "net": self.net,
            "shrunk_net": self.shrunk_net,
        }

    def describe(self) -> str:
        return (
            f"iteration {self.iteration} ({self.mode}/{self.check}): "
            f"{self.original_nodes} -> {self.shrunk_nodes} nodes; "
            + "; ".join(self.messages[:3])
        )


@dataclass(frozen=True)
class FuzzReport:
    """Outcome of a whole campaign."""

    config: FuzzConfig
    iterations_run: int
    counterexamples: Tuple[Counterexample, ...]
    skipped_infeasible: int = 0
    written_files: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def describe(self) -> str:
        head = (
            f"fuzz seed={self.config.seed}: {self.iterations_run} "
            f"iteration(s), {self.skipped_infeasible} infeasible skip(s), "
            f"{len(self.counterexamples)} counterexample(s)"
        )
        if self.ok:
            return head + " — OK"
        lines = [head]
        lines.extend("  " + c.describe() for c in self.counterexamples)
        lines.extend(f"  wrote {p}" for p in self.written_files)
        return "\n".join(lines)

    def to_json(self) -> dict:
        """Machine-readable campaign summary (``buffopt fuzz --json``)."""
        return {
            "kind": "buffopt-fuzz-report",
            "ok": self.ok,
            "seed": self.config.seed,
            "engine": self.config.engine,
            "modes": list(self.config.modes),
            "iterations_run": self.iterations_run,
            "skipped_infeasible": self.skipped_infeasible,
            "counterexamples": [
                c.to_json() for c in self.counterexamples
            ],
            "written_files": list(self.written_files),
        }


def _oracle_library(library: BufferLibrary, cells: int) -> BufferLibrary:
    """A small, deterministic sub-library for exhaustive comparisons."""
    chosen: List[str] = []
    non_inverting = [b.name for b in library if not b.inverting]
    inverting = [b.name for b in library if b.inverting]
    for pool in (non_inverting, inverting):
        if pool and len(chosen) < cells:
            chosen.append(pool[0])
    for buffer in library:
        if len(chosen) >= cells:
            break
        if buffer.name not in chosen:
            chosen.append(buffer.name)
    return library.restricted(chosen)


def check_tree(
    tree: RoutingTree,
    config: FuzzConfig,
    engine: Engine,
    library: BufferLibrary,
    coupling: CouplingModel,
) -> Tuple[List[Failure], int]:
    """All fuzz checks on one net.

    Returns ``(failures, infeasible_skips)`` — a mode whose net is
    legitimately noise-infeasible is skipped, not failed.
    """
    failures: List[Failure] = []
    skipped = 0
    site_count = sum(
        1 for n in tree.nodes() if n.is_internal and n.feasible
    )
    for mode in config.modes:
        noise_aware, power_active = _mode_flags(mode)
        power_model = default_power_model() if power_active else None
        mode_coupling = coupling if noise_aware else CouplingModel.silent()
        try:
            result = engine(
                tree, library, mode_coupling,
                noise_aware=noise_aware, max_buffers=config.max_buffers,
                power=power_model,
            )
        except InfeasibleError:
            skipped += 1
            continue
        certificate = certify_result(result, mode_coupling)
        if not certificate.ok:
            failures.append(Failure(
                check="certificate", mode=mode,
                messages=tuple(
                    v.describe() for v in certificate.all_violations()
                ),
            ))
        if 0 < config.oracle_sites and site_count <= config.oracle_sites:
            small = _oracle_library(library, config.oracle_cells)
            try:
                small_result = engine(
                    tree, small, mode_coupling,
                    noise_aware=noise_aware, max_buffers=config.max_buffers,
                    power=power_model,
                )
                oracle = exhaustive_oracle(
                    tree, small, mode_coupling,
                    noise_aware=noise_aware,
                    max_buffers=config.max_buffers,
                    max_sites=config.oracle_sites,
                    max_assignments=config.oracle_max_assignments,
                    power_model=power_model,
                )
            except (InfeasibleError, OracleBoundError):
                skipped += 1
                continue
            disagreements = compare_result_to_oracle(small_result, oracle)
            if disagreements:
                failures.append(Failure(
                    check="oracle", mode=mode,
                    messages=tuple(d.describe() for d in disagreements),
                ))
    return failures, skipped


# ---------------------------------------------------------------------------
# shrinking


def _descendants(tree: RoutingTree, root: str) -> Set[str]:
    doomed = {root}
    stack = [tree.node(root)]
    while stack:
        node = stack.pop()
        for child in node.children:
            doomed.add(child.name)
            stack.append(child)
    return doomed


def _rebuild(
    tree: RoutingTree, keep: Set[str], extra_wires: Sequence[Wire] = ()
) -> Optional[RoutingTree]:
    """Rebuild the tree on a node subset, pruning childless internals.

    ``extra_wires`` (for splices) are template wires whose endpoint
    *names* are looked up in the kept set.  Returns ``None`` when the
    subset is not a valid net (no sinks, or the source goes childless).
    """
    keep = set(keep)
    wire_templates = [
        w for w in tree.wires()
        if w.parent.name in keep and w.child.name in keep
    ] + list(extra_wires)

    # Iteratively drop internal nodes left with no children.
    while True:
        child_counts = {name: 0 for name in keep}
        for wire in wire_templates:
            if wire.parent.name in keep and wire.child.name in keep:
                child_counts[wire.parent.name] += 1
        childless = {
            name for name, count in child_counts.items()
            if count == 0 and tree.node(name).is_internal
        }
        if not childless:
            break
        keep -= childless
    wire_templates = [
        w for w in wire_templates
        if w.parent.name in keep and w.child.name in keep
    ]

    if not any(tree.node(name).is_sink for name in keep):
        return None
    source = tree.source.name
    if source not in keep or not any(
        w.parent.name == source for w in wire_templates
    ):
        return None
    copies = {name: copy_node(tree.node(name)) for name in keep}
    wires = [
        copy_wire(w, copies[w.parent.name], copies[w.child.name])
        for w in wire_templates
    ]
    try:
        return RoutingTree(
            list(copies.values()), wires, driver=tree.driver,
            name=tree.name,
        )
    except ReproError:
        return None


def _remove_subtree(tree: RoutingTree, root: str) -> Optional[RoutingTree]:
    node = tree.node(root)
    if node.is_source:
        return None
    keep = {n.name for n in tree.nodes()} - _descendants(tree, root)
    return _rebuild(tree, keep)


def _splice(tree: RoutingTree, name: str) -> Optional[RoutingTree]:
    """Remove a pass-through internal node, merging its two wires."""
    node = tree.node(name)
    if not node.is_internal or len(node.children) != 1:
        return None
    above = node.parent_wire
    below = node.children[0].parent_wire
    assert above is not None and below is not None
    for wire in (above, below):
        # Only splice plain wires; summing explicit currents or mixing
        # per-wire coupling overrides would change the physics.
        if (wire.current is not None or wire.coupling_ratio is not None
                or wire.slope is not None):
            return None
    merged = Wire(
        parent=above.parent,
        child=below.child,
        length=above.length + below.length,
        resistance=above.resistance + below.resistance,
        capacitance=above.capacitance + below.capacitance,
    )
    keep = {n.name for n in tree.nodes()} - {name}
    return _rebuild(tree, keep, extra_wires=[merged])


def shrink_tree(
    tree: RoutingTree,
    fails: Callable[[RoutingTree], bool],
    max_steps: int = 200,
) -> RoutingTree:
    """Greedily minimize a failing net while ``fails`` stays true.

    Two reduction moves, retried to a fixed point: remove a whole
    subtree (sinks last, so big cuts are tried first), and splice out
    pass-through internal nodes.  ``fails`` must be true for ``tree``
    itself; the returned net also satisfies it.
    """
    current = tree
    steps = 0
    changed = True
    while changed and steps < max_steps:
        changed = False
        removal_roots = [
            n.name for n in current.nodes() if n.is_internal
        ] + [n.name for n in current.sinks]
        for root in removal_roots:
            candidate = _remove_subtree(current, root)
            if candidate is not None and fails(candidate):
                current = candidate
                changed = True
                steps += 1
                break
        if changed:
            continue
        for node in current.nodes():
            if node.is_internal and len(node.children) == 1:
                candidate = _splice(current, node.name)
                if candidate is not None and fails(candidate):
                    current = candidate
                    changed = True
                    steps += 1
                    break
    return current


# ---------------------------------------------------------------------------
# the campaign


def run_fuzz(
    config: FuzzConfig,
    engine: Optional[Engine] = None,
    library: Optional[BufferLibrary] = None,
    coupling: Optional[CouplingModel] = None,
    tracer=None,
    metrics=None,
) -> FuzzReport:
    """Run a seeded fuzz campaign; see :class:`FuzzConfig`.

    ``engine`` defaults to the real DP in the implementation
    ``config.engine`` names; the self-test suite passes
    :func:`planted_buggy_engine` / :func:`planted_buggy_lishi_engine`
    instead and asserts the campaign catches them.

    ``tracer``/``metrics`` (see :mod:`repro.obs`) journal campaign
    progress: a ``fuzz`` span wrapping the run, one ``fuzz.iteration``
    event per net, a ``fuzz.counterexample`` event per confirmed
    failure, and the ``buffopt_fuzz_*`` counters.
    """
    from ..obs import NULL_TRACER

    tracer = tracer or NULL_TRACER
    if engine is None:
        engine = engine_for(config.engine)
    if library is None:
        library = default_buffer_library()
    if coupling is None:
        coupling = CouplingModel.estimation_mode(default_technology())
    if metrics is not None:
        iterations_total = metrics.counter(
            "buffopt_fuzz_iterations_total",
            "fuzz iterations executed (one random net each)",
        )
        counterexamples_total = metrics.counter(
            "buffopt_fuzz_counterexamples_total",
            "confirmed fuzz counterexamples, by mode and check",
        )
        skips_total = metrics.counter(
            "buffopt_fuzz_skips_total",
            "mode checks skipped on legitimately infeasible nets",
        )
    else:
        iterations_total = counterexamples_total = skips_total = None

    rng = random.Random(config.seed)
    counterexamples: List[Counterexample] = []
    written: List[str] = []
    skipped = 0
    iterations_run = 0
    campaign = tracer.start_span(
        "fuzz", seed=config.seed, iterations=config.iterations,
        engine=config.engine, modes=list(config.modes),
    )
    for iteration in range(config.iterations):
        iterations_run += 1
        tree_seed = rng.getrandbits(32)
        tree = random_tree(
            random.Random(tree_seed),
            max_internal=config.max_internal,
            with_rats=config.with_rats,
            name=f"fuzz{iteration}",
        )
        failures, mode_skips = check_tree(
            tree, config, engine, library, coupling
        )
        skipped += mode_skips
        tracer.event(
            "fuzz.iteration", iteration=iteration, tree_seed=tree_seed,
            failures=len(failures), skips=mode_skips,
        )
        if iterations_total is not None:
            iterations_total.inc()
            if mode_skips:
                skips_total.inc(mode_skips)
        for failure in failures:
            shrunk = tree
            if config.shrink:
                def still_fails(candidate: RoutingTree) -> bool:
                    refound, _ = check_tree(
                        candidate, config, engine, library, coupling
                    )
                    return any(
                        f.check == failure.check and f.mode == failure.mode
                        for f in refound
                    )

                shrunk = shrink_tree(tree, still_fails)
            example = Counterexample(
                seed=config.seed,
                iteration=iteration,
                tree_seed=tree_seed,
                check=failure.check,
                mode=failure.mode,
                messages=failure.messages,
                net=net_to_dict(tree),
                shrunk_net=net_to_dict(shrunk),
                original_nodes=len(list(tree.nodes())),
                shrunk_nodes=len(list(shrunk.nodes())),
            )
            counterexamples.append(example)
            tracer.event(
                "fuzz.counterexample", iteration=iteration,
                tree_seed=tree_seed, mode=failure.mode,
                check=failure.check,
                shrunk_nodes=example.shrunk_nodes,
                original_nodes=example.original_nodes,
            )
            if counterexamples_total is not None:
                counterexamples_total.inc(
                    mode=failure.mode, check=failure.check
                )
            if config.out_dir is not None:
                out_dir = pathlib.Path(config.out_dir)
                out_dir.mkdir(parents=True, exist_ok=True)
                path = out_dir / (
                    f"repro_seed{config.seed}_it{iteration}"
                    f"_{failure.mode}_{failure.check}.json"
                )
                path.write_text(json.dumps(example.to_json(), indent=2) + "\n")
                written.append(str(path))
        if len(counterexamples) >= config.max_counterexamples:
            break
    tracer.end_span(
        campaign, iterations_run=iterations_run,
        counterexamples=len(counterexamples), skips=skipped,
    )
    return FuzzReport(
        config=config,
        iterations_run=iterations_run,
        counterexamples=tuple(counterexamples),
        skipped_infeasible=skipped,
        written_files=tuple(written),
    )


def replay_file(
    path,
    engine: Optional[Engine] = None,
    use_shrunk: bool = True,
) -> List[Failure]:
    """Re-run the checks recorded in a counterexample JSON file.

    Returns the (possibly empty) list of failures the replay produced —
    empty means the bug no longer reproduces.
    """
    data = json.loads(pathlib.Path(path).read_text())
    if data.get("kind") != "buffopt-fuzz-counterexample":
        raise ReproError(
            f"{path}: not a buffopt fuzz counterexample file"
        )
    net = data["shrunk_net" if use_shrunk else "net"]
    tree, _ = net_from_dict(net)
    config = FuzzConfig(
        iterations=1,
        seed=int(data.get("seed", 0)),
        modes=(data["mode"],),
        shrink=False,
    )
    failures, _ = check_tree(
        tree, config,
        engine or default_engine,
        default_buffer_library(),
        CouplingModel.estimation_mode(default_technology()),
    )
    return [f for f in failures if f.check == data["check"]]
