"""Incremental re-optimization (ECO): reuse frontiers of unchanged subtrees.

An engineering change order touches one corner of a net — a resized
wire, a moved sink, a re-routed branch — yet a cold DP run recomputes
every frontier from the leaves up.  The Van Ginneken recurrence makes
the waste precise: the candidate frontier the engine stores at a node
(the groups *after* the node's parent wire has been applied) is a pure
function of (a) the subtree hanging below that node, (b) the node's
parent wire, and (c) the run context — buffer library, coupling model,
and the solution-relevant :class:`~repro.core.dp.DPOptions` fields.  The
driver only enters at finalize, so it is deliberately *not* part of the
key.

:func:`subtree_fingerprints` canonicalizes exactly those inputs into one
SHA-256 per node, bottom-up; :class:`FrontierCache` maps fingerprints to
frontier snapshots.  A reference-engine run handed a cache
(``DPOptions(frontier_cache=...)``) stores a snapshot at every node it
visits and, on later runs, restores whole unchanged subtrees without
descending into them — bit-identically, counters included, because each
snapshot carries the subtree's candidate-accounting deltas alongside its
(immutable, structurally shared) candidate lists.

Cache effectiveness is observable: :meth:`FrontierCache.bind_metrics`
wires hit/miss counting onto ``buffopt_eco_hits_total`` /
``buffopt_eco_misses_total`` of a :class:`~repro.obs.MetricsRegistry`,
and :attr:`FrontierCache.reused_nodes` / :attr:`FrontierCache.computed_nodes`
give the frontier-reuse fraction the ECO acceptance gate asserts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..library.buffers import BufferLibrary
from ..noise.coupling import CouplingModel
from ..tree.topology import Node, RoutingTree

#: obs counter names for cache effectiveness (rows in docs/observability.md).
ECO_HITS_COUNTER = "buffopt_eco_hits_total"
ECO_MISSES_COUNTER = "buffopt_eco_misses_total"


def _f(value: Optional[float]) -> str:
    """Exact, canonical float token (``repr`` round-trips doubles)."""
    return "~" if value is None else repr(float(value))


def context_key(
    library: BufferLibrary,
    coupling: CouplingModel,
    options,
) -> str:
    """Canonical digest of everything that shapes frontiers besides the tree.

    ``options`` is a :class:`~repro.core.dp.DPOptions`; only its
    solution-relevant fields participate (``collect_stats`` / ``budget``
    never change candidate arithmetic, and ``DPOptions`` pins the
    engine to ``"reference"`` whenever a cache is set).
    """
    parts: List[str] = []
    for buffer in library:
        parts.append(
            f"b:{buffer.name}:{_f(buffer.resistance)}:"
            f"{_f(buffer.input_capacitance)}:{_f(buffer.intrinsic_delay)}:"
            f"{_f(buffer.noise_margin)}:{int(buffer.inverting)}"
        )
    parts.append(
        f"c:{_f(coupling.coupling_ratio)}:{_f(coupling.slope)}"
    )
    sizing = "~" if options.sizing is None else ",".join(
        _f(width) for width in options.sizing.widths
    )
    parts.append(
        f"o:{int(options.noise_aware)}:{int(options.track_counts)}:"
        f"{'~' if options.max_buffers is None else options.max_buffers}:"
        f"{options.prune}:{int(options.enforce_polarity)}:{sizing}"
    )
    # Site prices shift buffered-candidate slacks, so a priced run must
    # never reuse frontiers cached under different (or no) prices.  Only
    # nonzero entries participate: zero prices are bit-identical to
    # absent ones, so their cache contexts may legitimately coincide.
    prices = getattr(options, "site_prices", None)
    if prices:
        priced = ",".join(
            f"{name}={_f(price)}"
            for name, price in sorted(prices.items())
            if price != 0.0
        )
        if priced:
            parts.append(f"p:{priced}")
    # A live power model changes merge/prune behavior and the stored
    # power accumulators, so power runs never share frontiers with
    # power-off runs (or with runs under different model parameters).
    power = getattr(options, "power", None)
    if power is not None:
        parts.append(
            f"w:{_f(power.activity)}:{_f(power.frequency)}:"
            f"{_f(power.short_circuit_fraction)}:"
            f"{_f(power.technology.vdd)}"
        )
    return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()


def subtree_fingerprints(
    tree: RoutingTree, context: str
) -> Dict[str, str]:
    """One canonical SHA-256 per node, keyed by node name, bottom-up.

    A node's fingerprint covers its subtree's full physical content —
    names (they appear in insertion records), feasibility flags, sink
    electricals, every wire's parameters *including the node's own
    parent wire* (the stored frontier is post-wire) — plus ``context``.
    Children hash in child order, because merge order is part of the
    recurrence.
    """
    fingerprints: Dict[str, str] = {}
    for node in tree.postorder():
        hasher = hashlib.sha256()
        hasher.update(context.encode("utf-8"))
        hasher.update(f"|n:{node.name}:{int(node.feasible)}".encode("utf-8"))
        if node.sink is not None:
            hasher.update(
                f"|s:{_f(node.sink.capacitance)}:"
                f"{_f(node.sink.noise_margin)}:"
                f"{_f(node.sink.required_arrival)}".encode("utf-8")
            )
        if node.is_source:
            hasher.update(b"|src")
        wire = node.parent_wire
        if wire is not None:
            hasher.update(
                f"|w:{_f(wire.length)}:{_f(wire.resistance)}:"
                f"{_f(wire.capacitance)}:{_f(wire.current)}:"
                f"{_f(wire.coupling_ratio)}:{_f(wire.slope)}".encode("utf-8")
            )
        for child in node.children:
            hasher.update(b"|k:")
            hasher.update(fingerprints[child.name].encode("utf-8"))
        fingerprints[node.name] = hasher.hexdigest()
    return fingerprints


@dataclass(frozen=True)
class FrontierSnapshot:
    """One node's stored frontier plus its subtree's accounting deltas.

    ``groups`` holds the engine's post-wire, post-prune candidate lists
    as immutable tuples; the :class:`~repro.core.dp.DPCandidate` objects
    themselves (and their persistent chains) are shared, never copied —
    they are frozen, and the engine never mutates a candidate in place.
    The counter deltas make a cache-hit run *bit-identical* to the cold
    run, telemetry included: restoring adds back exactly what the
    skipped subtree would have generated, killed, and pruned.
    """

    groups: Tuple[Tuple[Tuple[int, int], Tuple], ...]
    #: nodes in the subtree (the reuse-fraction currency).
    node_count: int
    generated: int
    dead: int
    merge_forks: int
    prune_presorted: int
    prune_sorts: int
    #: max post-prune frontier total over the subtree's nodes.
    kept_peak: int

    def restore_groups(self):
        """Fresh mutable groups for the engine.

        The *containers* must be new on every restore: ``_merge_children``
        aliases a lone child's groups dict and ``_insert_buffers`` /
        ``_prune`` mutate the lists, so sharing them across runs would
        let one run corrupt another's cache.
        """
        return {key: list(candidates) for key, candidates in self.groups}


@dataclass
class FrontierCache:
    """Fingerprint -> :class:`FrontierSnapshot` store with hit accounting.

    One cache serves one net across edits (fingerprints are
    content-addressed, so stale entries are unreachable rather than
    wrong); sharing a cache across *different* nets is safe for the same
    reason but grows it without bound — callers managing fleets should
    key caches per net and drop them with the net.
    """

    snapshots: Dict[str, FrontierSnapshot] = field(default_factory=dict)
    #: subtree restores / nodes computed the long way, across all runs.
    hits: int = 0
    misses: int = 0
    #: nodes covered by restored subtrees vs. visited individually.
    reused_nodes: int = 0
    computed_nodes: int = 0
    _metrics: Optional[object] = None

    def bind_metrics(self, metrics) -> "FrontierCache":
        """Mirror hit/miss counts onto ``metrics`` (a
        :class:`~repro.obs.MetricsRegistry`); returns ``self``."""
        self._metrics = metrics
        return self

    def lookup(self, fingerprint: str) -> Optional[FrontierSnapshot]:
        """The snapshot for ``fingerprint``, counting a hit (or nothing —
        misses are counted per *computed node* via :meth:`store`, so the
        hit/miss ratio reflects work saved, not probe traffic)."""
        snapshot = self.snapshots.get(fingerprint)
        if snapshot is not None:
            self.hits += 1
            self.reused_nodes += snapshot.node_count
            if self._metrics is not None:
                self._metrics.counter(
                    ECO_HITS_COUNTER,
                    "ECO frontier-cache subtree restores",
                ).inc()
        return snapshot

    def store(self, fingerprint: str, snapshot: FrontierSnapshot) -> None:
        self.misses += 1
        self.computed_nodes += 1
        if self._metrics is not None:
            self._metrics.counter(
                ECO_MISSES_COUNTER,
                "ECO frontier-cache nodes computed the long way",
            ).inc()
        self.snapshots[fingerprint] = snapshot

    def __len__(self) -> int:
        return len(self.snapshots)

    def reuse_fraction(self) -> float:
        """Fraction of this cache's lifetime node visits answered by
        restores (0.0 before any run)."""
        total = self.reused_nodes + self.computed_nodes
        return 0.0 if total == 0 else self.reused_nodes / total

    def describe(self) -> str:
        return (
            f"eco cache: {len(self.snapshots)} snapshots, "
            f"{self.hits} subtree hits, {self.misses} computed nodes, "
            f"{self.reuse_fraction():.0%} of node visits reused"
        )
