"""DP-free audit of a coordinated fleet's claims.

:func:`audit_fleet` re-derives everything a
:class:`~repro.fleet.coordinator.FleetResult` asserts, each check
through a path the coordinator did not take:

1. **fabric** — the site map must equal an independent
   :func:`~repro.fleet.sites.derive_site_map` of the same items;
2. **usage & feasibility** — per-site usage recomputed from *every*
   feasible net's assignment must match the claimed usage, and a
   ``feasible=True`` claim must respect the true capacities (this is
   what catches the capacity-off-by-one and dropped-net mutants);
3. **physics** — each net's ``true_slack`` / buffer count / noise
   verdict must survive the certificate evaluator
   (:func:`~repro.verify.certificate.evaluate_assignment`);
4. **price consistency** — the penalty (physical minus priced slack)
   must land inside the bounds the producing round's prices imply:
   non-negative, and at most the summed node prices over the buffered
   nodes (branch merges min over children, absorbing the non-critical
   side's penalties, so exact equality is *not* required); re-running
   the per-net DP under exactly those prices must also reproduce the
   recorded priced outcome (this catches the stale-prices mutant: the
   recorded prices were not the ones dispatched);
5. **duality** — in delay mode, ``primal_total <= dual_bound``.

Violations come back as human-readable strings, empty list = clean;
the mutation battery (:mod:`~repro.fleet.mutations`) asserts the honest
coordinator audits clean and every planted mutant does not.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import List, Optional, Sequence

from ..batch.optimizer import BatchItem, optimize_net
from ..library.buffers import BufferLibrary, default_buffer_library
from ..library.cells import CellLibrary, default_cell_library
from ..library.technology import Technology, default_technology
from ..noise.coupling import CouplingModel
from ..tree.segmenting import segment_tree
from ..tree.topology import RoutingTree
from ..verify.certificate import evaluate_assignment
from ..workloads.generator import (
    GeneratedNet,
    NetSpec,
    WorkloadConfig,
    generate_net_from_spec,
)
from .coordinator import FleetConfig, FleetResult
from .sites import derive_site_map, node_prices_for

REL_TOL = 1e-9
ABS_TOL = 1e-12


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def audit_fleet(
    result: FleetResult,
    items: Sequence[BatchItem],
    config: Optional[FleetConfig] = None,
    library: Optional[BufferLibrary] = None,
    coupling: Optional[CouplingModel] = None,
    technology: Optional[Technology] = None,
    cells: Optional[CellLibrary] = None,
    workload: Optional[WorkloadConfig] = None,
    rerun: bool = True,
) -> List[str]:
    """Every way ``result`` disagrees with an independent re-derivation.

    ``items`` / ``config`` (and the library/coupling/workload context)
    must be what the coordinator ran with — defaults mirror
    :class:`~repro.fleet.coordinator.FleetCoordinator`'s.  ``rerun=False``
    skips the per-net DP re-runs of check 4 (the expensive part),
    keeping the structural, physical, and capacity checks.
    """
    config = config or FleetConfig()
    technology = technology or default_technology()
    library = library or default_buffer_library()
    coupling = coupling or CouplingModel.estimation_mode(technology)
    workload = workload or WorkloadConfig()
    cells = cells or default_cell_library(
        noise_margin=workload.noise_margin
    )
    batch = config.batch
    violations: List[str] = []

    # 1. fabric: the site map is a pure function of items + config.
    expected_map = derive_site_map(
        list(items),
        config.sites_per_family,
        config.families,
        config.base_capacity,
        config.capacity_spread,
    )
    if expected_map != result.site_map:
        violations.append(
            "site map mismatch: result's fabric is not the deterministic "
            f"derivation (expected capacities {expected_map.capacities}, "
            f"salt {expected_map.salt}; found {result.site_map.capacities}, "
            f"salt {result.site_map.salt})"
        )

    # Rebuild each net's work tree exactly as the worker does.
    trees = {}
    for item in items:
        if isinstance(item, NetSpec):
            item = generate_net_from_spec(item, workload, technology, cells)
        tree = item.tree if isinstance(item, GeneratedNet) else item
        if batch.max_segment_length is not None:
            tree = segment_tree(tree, batch.max_segment_length)
        trees[tree.name] = tree

    unknown = sorted(set(result.states) - set(trees))
    if unknown:
        violations.append(
            f"states for nets not in the fleet: {', '.join(unknown)}"
        )
    missing = sorted(set(trees) - set(result.states))
    if missing:
        violations.append(
            f"nets with no recorded state: {', '.join(missing)}"
        )

    # 2. usage and feasibility against the *true* fabric.
    counts = [0] * expected_map.sites
    for name, state in result.states.items():
        if not state.ok or state.result.assignment is None:
            continue
        for node in state.result.assignment:
            counts[expected_map.site_of(name, node)] += 1
    true_usage = tuple(counts)
    if true_usage != result.usage:
        violations.append(
            f"usage mismatch: recomputed {true_usage} from every feasible "
            f"net's assignment, result claims {result.usage}"
        )
    overloaded = [
        (site, used, cap)
        for site, (used, cap) in enumerate(
            zip(true_usage, expected_map.capacities)
        )
        if used > cap
    ]
    if result.feasible and overloaded:
        detail = ", ".join(
            f"site {site}: {used}/{cap}" for site, used, cap in overloaded
        )
        violations.append(
            f"feasibility claim refuted: true usage overloads {detail}"
        )

    cert_coupling = (
        coupling if batch.objective.noise_aware else CouplingModel.silent()
    )
    for name in sorted(result.states):
        state = result.states[name]
        if not state.ok:
            continue
        tree = trees.get(name)
        if tree is None:
            continue
        assignment = dict(state.result.assignment or {})

        # 3. physics: the certificate evaluator re-derives true slack.
        certificate = evaluate_assignment(
            tree, assignment, cert_coupling,
            check_polarity=True,
        )
        if state.true_slack is None or not _close(
            certificate.slack, state.true_slack
        ):
            violations.append(
                f"net {name!r}: certified slack {certificate.slack!r} != "
                f"recorded true slack {state.true_slack!r}"
            )
        if certificate.buffer_count != state.result.buffer_count:
            violations.append(
                f"net {name!r}: certified buffer count "
                f"{certificate.buffer_count} != recorded "
                f"{state.result.buffer_count}"
            )
        if (
            batch.objective.mode == "buffopt"
            and certificate.noise_feasible != state.result.noise_feasible
        ):
            violations.append(
                f"net {name!r}: certified noise verdict "
                f"{certificate.noise_feasible} != recorded "
                f"{state.result.noise_feasible}"
            )

        # 4. price consistency against the producing round's prices.
        if state.round_index >= len(result.rounds):
            violations.append(
                f"net {name!r}: round {state.round_index} has no record"
            )
            continue
        round_prices = result.rounds[state.round_index].prices
        node_prices = node_prices_for(
            expected_map, name, tree, round_prices, state.banned
        )
        max_penalty = sum(
            node_prices.get(node, 0.0) for node in assignment
        )
        slop = ABS_TOL + REL_TOL * abs(max_penalty)
        if not -slop <= state.penalty <= max_penalty + slop:
            violations.append(
                f"net {name!r}: penalty {state.penalty!r} outside "
                f"[0, {max_penalty!r}], the bounds implied by round "
                f"{state.round_index}'s prices"
            )
        if rerun:
            per_net = replace(
                batch, max_segment_length=None, keep_trees=False
            )
            fresh = optimize_net(
                tree, library, coupling, per_net,
                site_prices=node_prices or None,
            )
            if not fresh.ok:
                violations.append(
                    f"net {name!r}: re-run under its recorded prices "
                    f"failed ({fresh.error}) but a solution was recorded"
                )
            else:
                if not _close(fresh.slack, state.priced_slack):
                    violations.append(
                        f"net {name!r}: re-run priced slack "
                        f"{fresh.slack!r} != recorded "
                        f"{state.priced_slack!r} — the recorded prices "
                        "are not the prices this net was optimized under"
                    )
                # lishi (and its aliases) is only semantically
                # equivalent — its re-run may legitimately pick a
                # different argmax, so exact-assignment comparison is
                # reference-only.
                if batch.engine == "reference":
                    fresh_assignment = {
                        node: buffer.name
                        for node, buffer in (fresh.assignment or {}).items()
                    }
                    recorded_assignment = {
                        node: buffer.name
                        for node, buffer in assignment.items()
                    }
                    if fresh_assignment != recorded_assignment:
                        violations.append(
                            f"net {name!r}: re-run assignment "
                            f"{sorted(fresh_assignment.items())} != recorded "
                            f"{sorted(recorded_assignment.items())}"
                        )

    # 5. weak duality (delay mode).
    if (
        batch.objective.mode == "delay"
        and result.primal_total is not None
        and result.dual_bound is not None
        and result.primal_total
        > result.dual_bound + ABS_TOL + REL_TOL * abs(result.dual_bound)
    ):
        violations.append(
            f"weak duality violated: primal total {result.primal_total!r} "
            f"exceeds dual bound {result.dual_bound!r}"
        )
    return violations
