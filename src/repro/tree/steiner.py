"""Rectilinear Steiner-estimation topologies for synthetic nets.

The paper assumes "the input routing tree topology is fixed or that a
Steiner estimation has been computed for the given net" (Section II).  This
module provides that estimation for the synthetic workload: a rectilinear
minimum spanning tree over the terminals (Kruskal via :mod:`networkx`),
rooted at the source, with every tree edge realized as an L-shaped route (one
corner node).  Branch nodes of degree > 2 are binarized with dummy nodes
per the paper's footnote 1.

An MST is within 1.5x of the rectilinear Steiner minimum and is the
classic "Steiner estimation" used by timing tools of the paper's era; the
buffer-insertion algorithms are topology-agnostic, so this choice only
shapes the workload, not the algorithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import networkx as nx

from ..errors import TreeStructureError
from ..library.cells import DriverCell
from ..library.technology import Technology
from .binary import binarize
from .builder import TreeBuilder
from .topology import RoutingTree


@dataclass(frozen=True)
class SinkSite:
    """A sink terminal for topology generation."""

    name: str
    position: Tuple[float, float]
    capacitance: float
    noise_margin: float
    required_arrival: float = math.inf


def manhattan(a: Tuple[float, float], b: Tuple[float, float]) -> float:
    """Rectilinear distance between two points."""
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def steiner_tree(
    technology: Technology,
    source_position: Tuple[float, float],
    sinks: Sequence[SinkSite],
    driver: Optional[DriverCell] = None,
    name: str = "net",
) -> RoutingTree:
    """Build a binary rectilinear routing tree over the given terminals.

    Terminals at identical positions are connected with zero-length wires.
    The result is validated and binary, ready for segmentation and buffer
    insertion.
    """
    if not sinks:
        raise TreeStructureError("a net needs at least one sink")
    names = [s.name for s in sinks]
    if len(set(names)) != len(names):
        raise TreeStructureError(f"duplicate sink names in {names}")
    if "so" in set(names):
        raise TreeStructureError("sink name 'so' is reserved for the source")

    graph = nx.Graph()
    positions: Dict[str, Tuple[float, float]] = {"so": source_position}
    graph.add_node("so")
    for sink in sinks:
        positions[sink.name] = sink.position
        graph.add_node(sink.name)
    terminals = list(positions)
    for i, u in enumerate(terminals):
        for v in terminals[i + 1:]:
            graph.add_edge(u, v, weight=manhattan(positions[u], positions[v]))
    # Kruskal stable-sorts the insertion-ordered edges, so ties, corner
    # names and child order are the same in every interpreter; Prim
    # starts from ``set(graph).pop()``, which depends on PYTHONHASHSEED.
    mst = nx.minimum_spanning_tree(graph, algorithm="kruskal")

    builder = TreeBuilder(technology)
    builder.add_source("so", driver=driver, position=source_position)
    by_name = {s.name: s for s in sinks}
    for sink in sinks:
        builder.add_sink(
            sink.name,
            capacitance=sink.capacitance,
            noise_margin=sink.noise_margin,
            required_arrival=sink.required_arrival,
            position=sink.position,
        )

    # Orient the MST away from the source and realize each edge as an L-route.
    corner_index = 0
    for parent, child in nx.bfs_edges(mst, "so"):
        (px, py), (cx, cy) = positions[parent], positions[child]
        # Sinks must stay leaves: when the MST routes *through* a sink,
        # hang the continuation off a zero-length internal twin instead.
        parent_attach = _attach_point(builder, parent, by_name)
        if px != cx and py != cy:
            corner_index += 1
            corner = f"{name}_c{corner_index}" if name else f"c{corner_index}"
            builder.add_internal(corner, feasible=True, position=(cx, py))
            builder.add_wire(parent_attach, corner, length=abs(cx - px))
            builder.add_wire(corner, child, length=abs(cy - py))
        else:
            builder.add_wire(
                parent_attach, child, length=manhattan((px, py), (cx, cy))
            )

    raw = builder.build(name, allow_nonbinary=True)
    return binarize(raw) if not raw.is_binary else raw


def _attach_point(builder: TreeBuilder, node_name: str, sinks: dict) -> str:
    """Where new children of ``node_name`` should attach.

    MST nodes can have tree children even when they are sinks; since sinks
    must be leaves, we create (once) a zero-length feasible twin just above
    the sink and attach both the sink and its children there.
    """
    if node_name not in sinks:
        return node_name
    twin = f"{node_name}__via"
    try:
        builder._lookup(twin)  # noqa: SLF001 - builder-internal probe
        return twin
    except TreeStructureError:
        pass
    # First time: splice the twin between the sink's parent wire and the sink.
    sink_node = builder._lookup(node_name)  # noqa: SLF001
    builder.add_internal(twin, feasible=True, position=sink_node.position)
    for wire in builder._wires:  # noqa: SLF001
        if wire.child is sink_node:
            wire.child = builder._lookup(twin)  # noqa: SLF001
            break
    builder.add_wire(twin, node_name, length=0.0)
    return twin
