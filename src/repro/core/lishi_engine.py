"""The Li–Shi engine: the genuine O(bn²) recurrence (``engine="lishi"``).

This is the production engine; :mod:`repro.core.dp` stays the readable
executable spec it is checked against.  It uses the classic Li & Shi
shortcuts, and therefore trades bit-identity with the reference for
*semantic* equivalence (same selected outcomes within float tolerance,
certificate-clean, oracle-optimal; see ``tests/core/equivalence.py``
and ``docs/algorithms.md`` §8):

* **flat tuple candidates** — ``(load, slack, current, noise_slack,
  chain, wire_chain, power)`` replaces the frozen-dataclass record of
  the reference engine, and solution chains are ``(payload, tail,
  count)`` cons-cell tuples with the same O(1) push / shared-tail
  semantics as :class:`~repro.core._chain.Chain`.  Building a flat
  tuple is several times cheaper than a dataclass, and the DP builds
  hundreds of thousands of them.  The power slot rides along as
  ``0.0`` on power-off runs.

* **lazy wire offsets** — a wire of resistance ``R``, capacitance ``Cw``
  and noise current ``Iw`` updates a whole frontier in O(1) by folding
  into five per-frontier offsets ``(r, dq, dc, di, dns)`` instead of
  rewriting every candidate tuple.  A stored candidate
  ``(C0, q0, I0, NS0)`` decodes to actual values::

      C  = C0 + dc            q  = q0 - r*C0 - dq
      I  = I0 + di            NS = NS0 - r*I0 - dns

  and the wire update is ``dq += R*(Cw/2 + dc); dns += R*(Iw/2 + di);
  r += R; dc += Cw; di += Iw``.  The offsets re-associate the float
  sums, which can drift in the last ulp from the reference —
  hence the tolerance-based equivalence contract.  Power-active runs
  (:attr:`~repro.core.dp.DPOptions.power`) add a sixth offset ``dpw``:
  wire power is uniform across a frontier, so it too folds in O(1)
  (``dpw += wire_power(Cw)``) and a stored power ``P0`` decodes to
  ``P0 + dpw``.  Power also disables the eager-eviction/lone-merge/hull
  machinery below — with power as a third frontier axis a
  (load, slack)-dominated candidate may still be Pareto-optimal — so
  power runs use cross-product merges, donor-frontier buffering (one
  power sort per group, one walk per buffer type) and a 3D prune that
  sweeps a (power, slack) staircase in O(n log n) instead.

* **single-sink merges in O(log F)** — merging a frontier with a
  one-candidate chainless group (every sink merge on a trunk topology)
  does not rebuild the frontier.  The merged slack is
  ``min(q_a, q_s)``: below the crossover the frontier passes through
  untouched (loads and currents shift by the *shared* sink constants,
  which fold into ``dc``/``di``), at the crossover one clamped
  candidate is materialized, and everything beyond it is dominated by
  the clamp and truncated.  One binary search, one new tuple, O(1)
  offset updates — the dominated merge outputs the reference engine
  builds and then prunes are never constructed at all (this is also
  why the engine's ``candidates_generated`` runs far below the
  reference's).

* **range-search buffering on a wire-invariant hull** — the per-buffer
  argmax of ``q − R·C`` equals the argmax of ``q0 − (r + R)·C0`` in
  stored coordinates, so the upper concave hull of the *stored*
  ``(C0, q0)`` points answers every buffer query at every later node:
  wires only shift the query slope.  The hull is maintained
  incrementally (buffered insertions are O(log H) inserts; a merge
  clamp cuts the hull suffix at its load and re-extends it from the
  group's candidates right of the last kept vertex, which the cut
  vertices may have hidden under the hull) and queried with one
  monotone pointer walk per node over the resistance-sorted buffer
  menu: O(H + b) instead of O(b·F) scans.  Pruned candidates may leave
  stale hull references, but a candidate evicted at accumulated
  resistance ``r`` can never *strictly* win a query at slope ≥ ``r``
  (its dominator, or its dominator's replacement, is always present
  and at least ties), so stale entries are harmless: at worst they
  resolve an exact-value tie to a different equally-good source.

The lazy/merge/hull machinery runs exactly where the complexity lives:
timing-pruned delay-mode frontiers (``prune="timing"``,
``noise_aware=False``).  Noise-aware runs keep the reference's
concatenate/wire/prune order — the Step-5 dead-drop both collapses
their frontiers (so there is nothing to win) and makes eager eviction
unsound (a (C, q)-dominated candidate may outlive its dominator when
the next wire kills the dominator on noise) — and the
``prune="pareto"`` ablation and Lillis wire sizing fall back to
materialized, load-sorted passes whose timing prune is a single no-sort
scan whenever the frontier arrives presorted (the
``prune_presorted`` / ``prune_sorts`` telemetry).

Only the phases live here.  Construction, the candidate counters,
telemetry, budget charging and the node-visit loop are shared with the
reference engine through :class:`~repro.core.dp._EngineBase`, so both
engines visit nodes in the same order and time the same phases.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from heapq import merge as _heap_merge
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from ..library.buffers import BufferLibrary
from ..library.cells import DriverCell
from ..noise.coupling import CouplingModel
from ..tree.topology import Node, RoutingTree, Wire
from .dp import (
    DPOptions,
    DPOutcome,
    DPResult,
    Insertion,
    _EngineBase,
    _power_donors,
    _power_staircase,
)
from .wire_sizing import WireChoice

# A candidate is (load, slack, current, noise_slack, chain, wire_chain,
# power); polarity and buffer count live on the group key / chain cell,
# so the per-candidate record carries only what the arithmetic touches.
_Cand = Tuple[
    float, float, float, float, Optional[tuple], Optional[tuple], float
]

_INF = math.inf
_LOAD = itemgetter(0)
_Key = Tuple[int, int]


def _chain_concat(left: Optional[tuple], right: Optional[tuple]) -> Optional[tuple]:
    """Tuple-cell twin of :meth:`Chain.concat`: left's items pushed onto right."""
    if left is None:
        return right
    items = []
    node: Optional[tuple] = left
    while node is not None:
        items.append(node[0])
        node = node[1]
    out = right
    count = out[2] if out is not None else 0
    for item in reversed(items):
        count += 1
        out = (item, out, count)
    return out


def _chain_payloads(chain: Optional[tuple]) -> List[tuple]:
    """Chain payloads in push order (twin of :meth:`Chain.to_tuple`)."""
    items: List[tuple] = []
    node = chain
    while node is not None:
        items.append(node[0])
        node = node[1]
    items.reverse()
    return items


class _Frontier:
    """A group dict plus the five lazy wire offsets it is stored under.

    ``groups`` maps ``(polarity, count)`` keys to load-sorted candidate
    lists exactly like the other engines; the offsets apply uniformly to
    every candidate of every group (they encode the wires applied since
    the frontier was last materialized, and every candidate of a node's
    frontier has seen the same wires).  ``hulls`` caches the per-group
    upper hull of the stored ``(C0, q0)`` points (delay-mode timing runs
    only); ``meta`` caches per-group ``(max_z, r_ref, min I0)`` bounds
    (``max_z`` is the maximum of ``NS0 − r_ref·I0``) used to skip
    noise-slack clamping on single-sink merges — both are conservative
    caches: a missing entry is rebuilt lazily, and removals only loosen
    a stored bound in the safe direction.
    """

    __slots__ = (
        "groups", "hulls", "meta", "r", "dq", "dc", "di", "dns", "dpw",
    )

    def __init__(self, groups: Dict[_Key, List[_Cand]]):
        self.groups = groups
        self.hulls: Dict[_Key, List[_Cand]] = {}
        self.meta: Dict[_Key, Tuple[float, float, float]] = {}
        self.r = 0.0
        self.dq = 0.0
        self.dc = 0.0
        self.di = 0.0
        self.dns = 0.0
        # Lazy power offset: wire power is uniform across a node's
        # candidates (the segment switches however the subtree is
        # buffered), so it accumulates here in O(1) per wire and a
        # stored power P0 decodes to P0 + dpw.  Stays 0.0 on power-off
        # runs.
        self.dpw = 0.0

    def pending(self) -> bool:
        return bool(
            self.r or self.dq or self.dc or self.di or self.dns or self.dpw
        )


class LiShiEngine(_EngineBase):
    """Drop-in sibling of the reference engine (``engine="lishi"``).

    Construction, counters, telemetry, budget charging and the visit
    loop are the shared :class:`~repro.core.dp._EngineBase`; only the
    phases differ.  Results are semantically equivalent to the
    reference, not bit-identical (module docstring).
    """

    name = "lishi"

    def __init__(
        self,
        tree: RoutingTree,
        library: BufferLibrary,
        coupling: CouplingModel,
        options: DPOptions,
        driver: DriverCell,
    ):
        super().__init__(tree, library, coupling, options, driver)
        # (buffer, R, Cin, D, NM, inv) rows hoisted out of the buffering
        # scans, plus the same rows sorted by descending resistance for
        # the hull walk.
        self._buffers = [
            (
                b,
                b.resistance,
                b.input_capacitance,
                b.intrinsic_delay,
                b.noise_margin,
                1 if b.inverting else 0,
            )
            for b in library
        ]
        self._buffers_desc = sorted(self._buffers, key=lambda row: -row[1])
        # The lazy/merge/hull shortcuts are only reference-equivalent
        # when the prune is the (load, slack) frontier and nothing can
        # die of noise between eviction and the node's prune.  Power
        # adds a third frontier axis, under which eager (load, slack)
        # eviction discards candidates that trade slack for power — so
        # power-active runs keep every merge output and prune on the
        # full 3D frontier instead.
        self._evict = (
            options.prune == "timing"
            and not options.noise_aware
            and options.power is None
        )

    # -- phases --------------------------------------------------------------

    def _sink_base(self, node: Node) -> _Frontier:
        assert node.sink is not None
        self.generated += 1
        return _Frontier(
            {
                (0, 0): [
                    (
                        node.sink.capacitance,
                        node.sink.required_arrival,
                        0.0,
                        node.sink.noise_margin,
                        None,
                        None,
                        0.0,
                    )
                ]
            }
        )

    def _merge_children(
        self, node: Node, lists: Dict[str, _Frontier]
    ) -> _Frontier:
        children = node.children
        assert children, f"internal node {node.name!r} without children"
        # A single child passes its frontier through offsets-and-all;
        # only true merges touch candidates.
        frontier = lists[children[0].name]
        for child in children[1:]:
            frontier = self._merge_pair(frontier, lists[child.name])
        return frontier

    @staticmethod
    def _lone_chainless(frontier: _Frontier) -> Optional[_Cand]:
        """The frontier's only candidate, if it is one chainless candidate.

        Chainless (no insertions, no wire choices) means merging it onto
        another candidate leaves that candidate's chains untouched, and
        its group key is necessarily ``(0, 0)`` — the shape of every
        sink, which is what makes the O(log F) merge path hot.
        """
        groups = frontier.groups
        if len(groups) != 1:
            return None
        candidates = groups.get((0, 0))
        if candidates is None or len(candidates) != 1:
            return None
        cand = candidates[0]
        if cand[4] is not None or cand[5] is not None:
            return None
        return cand

    def _clean(self, frontier: _Frontier) -> None:
        """Drop entries that became dominated since the last prune.

        A wire leaves stored tuples untouched but tilts the decode by
        its resistance, so an entry whose slack lead over its left
        neighbour is smaller than ``R * (load gap)`` silently becomes
        dominated between prunes.  Both merge paths walk groups in
        *decoded slack order* (binary search in :meth:`_merge_lone`,
        the two-pointer in :meth:`_merge_general`), so they require
        strictly increasing slack; this pass restores it in place.  It
        only ever removes dominated entries, and hull references to
        those keep tying the survivors (see module docstring).
        """
        r = frontier.r
        dq = frontier.dq
        for candidates in frontier.groups.values():
            if len(candidates) < 2:
                continue
            best = -_INF
            last_load = None
            w = 0
            for c in candidates:
                q = c[1] - r * c[0] - dq
                if q <= best:
                    continue
                if c[0] == last_load:
                    candidates[w - 1] = c
                else:
                    candidates[w] = c
                    w += 1
                    last_load = c[0]
                best = q
            if w != len(candidates):
                del candidates[w:]

    def _merge_pair(self, left: _Frontier, right: _Frontier) -> _Frontier:
        if self.power is not None:
            return self._merge_cross(left, right)
        if self._evict:
            self._clean(left)
            self._clean(right)
            lone = self._lone_chainless(right)
            if lone is not None:
                return self._merge_lone(left, lone, right)
            lone = self._lone_chainless(left)
            if lone is not None:
                return self._merge_lone(right, lone, left)
        return self._merge_general(left, right)

    def _merge_cross(self, left: _Frontier, right: _Frontier) -> _Frontier:
        """Full |L|x|R| merge for power-active runs (zero-offset output).

        The staircase walk of :meth:`_merge_general` pairs each
        candidate with the single partner whose slack binds — exact for
        a 2D (load, slack) frontier, lossy once power is a third axis
        (the optimal partner may trade slack for power).  Every pairing
        is materialized out of both offset frames; the node's 3D prune
        keeps the frontier.
        """
        enforce = self.options.enforce_polarity
        track = self.options.track_counts
        max_buffers = self.options.max_buffers
        lr, ldq, ldc, ldi, ldns, ldpw = (
            left.r, left.dq, left.dc, left.di, left.dns, left.dpw,
        )
        rr, rdq, rdc, rdi, rdns, rdpw = (
            right.r, right.dq, right.dc, right.di, right.dns, right.dpw,
        )
        groups: Dict[_Key, List[_Cand]] = {}
        made = 0
        for (pol_l, count_l), list_l in left.groups.items():
            for (pol_r, count_r), list_r in right.groups.items():
                if enforce and pol_l != pol_r:
                    continue
                count = count_l + count_r
                if max_buffers is not None and track and count > max_buffers:
                    continue
                key = (pol_l if enforce else 0, count if track else 0)
                self.merge_forks += 1
                out = groups.setdefault(key, [])
                append = out.append
                rows_r = [
                    (
                        b[0] + rdc,
                        b[1] - rr * b[0] - rdq,
                        b[2] + rdi,
                        b[3] - rr * b[2] - rdns,
                        b[4],
                        b[5],
                        b[6] + rdpw,
                    )
                    for b in list_r
                ]
                for a in list_l:
                    a_load = a[0] + ldc
                    a_q = a[1] - lr * a[0] - ldq
                    a_i = a[2] + ldi
                    a_ns = a[3] - lr * a[2] - ldns
                    a_chain = a[4]
                    a_wires = a[5]
                    a_pw = a[6] + ldpw
                    for b in rows_r:
                        b_q = b[1]
                        b_ns = b[3]
                        append(
                            (
                                a_load + b[0],
                                a_q if a_q < b_q else b_q,
                                a_i + b[2],
                                a_ns if a_ns < b_ns else b_ns,
                                _chain_concat(a_chain, b[4]),
                                _chain_concat(a_wires, b[5]),
                                a_pw + b[6],
                            )
                        )
                        made += 1
        self.generated += made
        return _Frontier(groups)

    def _merge_lone(
        self, main: _Frontier, lone: _Cand, lone_frontier: _Frontier
    ) -> _Frontier:
        """Merge one chainless candidate into ``main`` without a rebuild.

        The merged slack is ``min(q_a, q_lone)`` over a slack-sorted
        frontier: the prefix strictly below ``q_lone`` passes through
        (its loads/currents shift by the lone candidate's, which fold
        into the shared ``dc``/``di`` offsets), the first candidate at
        or above the crossover is clamped to ``q_lone``, and everything
        after it is dominated by the clamp — the eager engines build
        and then prune those outputs; this path never constructs them.
        """
        s_load = lone[0] + lone_frontier.dc
        s_q = (
            lone[1] - lone_frontier.r * lone[0] - lone_frontier.dq
        )
        s_current = lone[2] + lone_frontier.di
        s_ns = (
            lone[3] - lone_frontier.r * lone[2] - lone_frontier.dns
        )
        enforce = self.options.enforce_polarity
        r = main.r
        dq = main.dq
        dns = main.dns
        groups = main.groups
        hulls = main.hulls
        meta = main.meta
        for key in list(groups):
            if enforce and key[0] != 0:
                # Polarity mismatch with the lone candidate: no merge
                # output, exactly as the two-sided merge would gate.
                del groups[key]
                hulls.pop(key, None)
                meta.pop(key, None)
                continue
            candidates = groups[key]
            self.merge_forks += 1
            # Clamp every NS at the lone candidate's; skipped when the
            # group's noise-slack bound proves it cannot bind.  The
            # bound is ``(max_z, r_ref, min_i0)`` with ``max_z`` the
            # maximum of ``NS0 − r_ref·I0`` over the group: every
            # actual NS at a later ``(r', dns')`` is at most
            # ``max_z − (r' − r_ref)·min_i0 − dns'``, and anchoring at
            # a recent ``r_ref`` keeps the cross-candidate slack tiny
            # (the naive max-NS0/min-I0 pairing fires spuriously).
            bounds = meta.get(key)
            if bounds is None:
                max_z = -_INF
                min_i = _INF
                for c in candidates:
                    z = c[3] - r * c[2]
                    if z > max_z:
                        max_z = z
                    if c[2] < min_i:
                        min_i = c[2]
                bounds = (max_z, r, min_i)
                meta[key] = bounds
            if s_ns < bounds[0] - (r - bounds[1]) * bounds[2] - dns:
                cap = s_ns + dns
                max_z = -_INF
                min_i = _INF
                new: List[_Cand] = []
                append = new.append
                for c in candidates:
                    ns0 = c[3]
                    lim = cap + r * c[2]
                    if ns0 > lim:
                        ns0 = lim
                        c = (c[0], c[1], c[2], ns0, c[4], c[5], c[6])
                    z = ns0 - r * c[2]
                    if z > max_z:
                        max_z = z
                    if c[2] < min_i:
                        min_i = c[2]
                    append(c)
                candidates = new
                groups[key] = candidates
                meta[key] = (max_z, r, min_i)
                # Hull entries now reference superseded tuples, but with
                # identical (C0, q0) they can only tie the live ones and
                # carry the same chains — harmless (module docstring).
            # Crossover: first index with decoded slack >= s_q.
            lo = 0
            hi = len(candidates)
            while lo < hi:
                mid = (lo + hi) // 2
                c = candidates[mid]
                if c[1] - r * c[0] - dq < s_q:
                    lo = mid + 1
                else:
                    hi = mid
            if lo < len(candidates):
                a = candidates[lo]
                a_ns = a[3] - r * a[2] - dns
                ns = a_ns if a_ns < s_ns else s_ns
                clamp = (
                    a[0],
                    s_q + r * a[0] + dq,
                    a[2],
                    ns + r * a[2] + dns,
                    a[4],
                    a[5],
                    a[6] + lone[6],
                )
                del candidates[lo:]
                candidates.append(clamp)
                self.generated += 1
                hull = hulls.get(key)
                if hull is not None:
                    # Cutting vertices at or beyond the clamp can surface
                    # candidates they hid under the hull, so the tail
                    # right of the last kept vertex is rebuilt from the
                    # group (usually just the clamp itself).
                    del hull[bisect_left(hull, clamp[0], key=_LOAD):]
                    tail = (
                        bisect_right(candidates, hull[-1][0], key=_LOAD)
                        if hull
                        else 0
                    )
                    self._extend_hull(hull, candidates[tail:])
                bounds = meta.get(key)
                if bounds is not None:
                    z = clamp[3] - bounds[1] * clamp[2]
                    meta[key] = (
                        z if z > bounds[0] else bounds[0],
                        bounds[1],
                        clamp[2] if clamp[2] < bounds[2] else bounds[2],
                    )
        main.dc += s_load
        main.di += s_current
        return main

    def _merge_general(self, left: _Frontier, right: _Frontier) -> _Frontier:
        enforce = self.options.enforce_polarity
        track = self.options.track_counts
        max_buffers = self.options.max_buffers
        evict = self._evict
        lr, ldq, ldc, ldi, ldns = left.r, left.dq, left.dc, left.di, left.dns
        rr, rdq, rdc, rdi, rdns = (
            right.r, right.dq, right.dc, right.di, right.dns,
        )
        ldpw = left.dpw
        rdpw = right.dpw
        # Several (left key, right key) pairs can land on the same output
        # key (count splits, polarity-free mode); each pair yields one
        # load-sorted run, combined per key afterwards.
        runs: Dict[_Key, List[List[_Cand]]] = {}
        made = 0
        for (pol_l, count_l), list_l in left.groups.items():
            n_l = len(list_l)
            for (pol_r, count_r), list_r in right.groups.items():
                if enforce and pol_l != pol_r:
                    continue
                count = count_l + count_r
                if max_buffers is not None and track and count > max_buffers:
                    continue
                key = (pol_l if enforce else 0, count if track else 0)
                self.merge_forks += 1
                n_r = len(list_r)
                out: List[_Cand] = []
                append = out.append
                best = -_INF
                last_load = None
                i = j = 0
                a = list_l[0]
                a_load = a[0] + ldc
                a_q = a[1] - lr * a[0] - ldq
                b = list_r[0]
                b_load = b[0] + rdc
                b_q = b[1] - rr * b[0] - rdq
                # Van Ginneken's |L|+|R| merge, materializing each side's
                # actual values as its pointer advances.  With eviction
                # on, dominated outputs are skipped *before* the tuple
                # (and chain concatenation) is built.
                while True:
                    q = a_q if a_q < b_q else b_q
                    load = a_load + b_load
                    if not evict or q > best:
                        a_ns = a[3] - lr * a[2] - ldns
                        b_ns = b[3] - rr * b[2] - rdns
                        cand = (
                            load,
                            q,
                            (a[2] + ldi) + (b[2] + rdi),
                            a_ns if a_ns < b_ns else b_ns,
                            _chain_concat(a[4], b[4]),
                            _chain_concat(a[5], b[5]),
                            (a[6] + ldpw) + (b[6] + rdpw),
                        )
                        if evict and load == last_load:
                            out[-1] = cand
                        else:
                            append(cand)
                        made += 1
                        best = q
                        last_load = load
                    if a_q < b_q:
                        i += 1
                        if i == n_l:
                            break
                        a = list_l[i]
                        a_load = a[0] + ldc
                        a_q = a[1] - lr * a[0] - ldq
                    elif b_q < a_q:
                        j += 1
                        if j == n_r:
                            break
                        b = list_r[j]
                        b_load = b[0] + rdc
                        b_q = b[1] - rr * b[0] - rdq
                    else:
                        i += 1
                        j += 1
                        if i == n_l or j == n_r:
                            break
                        a = list_l[i]
                        a_load = a[0] + ldc
                        a_q = a[1] - lr * a[0] - ldq
                        b = list_r[j]
                        b_load = b[0] + rdc
                        b_q = b[1] - rr * b[0] - rdq
                runs.setdefault(key, []).append(out)
        self.generated += made
        groups: Dict[_Key, List[_Cand]] = {}
        for key, run_list in runs.items():
            if len(run_list) == 1:
                groups[key] = run_list[0]
            elif evict:
                groups[key] = self._combine_runs(run_list)
            else:
                # Concatenated like the reference; the node's prune puts
                # the list back in order (sort fallback).
                groups[key] = [cand for run in run_list for cand in run]
        return _Frontier(groups)

    @staticmethod
    def _combine_runs(run_list: List[List[_Cand]]) -> List[_Cand]:
        """k-way merge same-key runs, keeping the (load, slack) frontier.

        Runs come from :meth:`_merge_general` materialization, so they
        are in the zero-offset frame: stored values are actual values.
        """
        out: List[_Cand] = []
        append = out.append
        best = -_INF
        for cand in _heap_merge(*run_list, key=_LOAD):
            q = cand[1]
            if q <= best:
                continue
            if out and out[-1][0] == cand[0]:
                out[-1] = cand
            else:
                append(cand)
            best = q
        return out

    # -- hull maintenance ----------------------------------------------------

    @staticmethod
    def _extend_hull(hull: List[_Cand], candidates: List[_Cand]) -> List[_Cand]:
        """Extend an upper concave hull of stored (C0, q0) points rightward.

        ``candidates`` are stored-load sorted and no lighter than the
        hull's last vertex (not necessarily a frontier — freshly insorted
        buffered candidates are welcome); dominated points are skipped,
        so hull slacks strictly increase and hull slopes strictly
        decrease.  From an empty hull this builds the group's hull.
        """
        for cand in candidates:
            x = cand[0]
            y = cand[1]
            if hull:
                last = hull[-1]
                if y <= last[1]:
                    # x >= last's load: dominated for every slope > 0.
                    continue
                if last[0] == x:
                    hull.pop()
            while len(hull) >= 2:
                c1 = hull[-1]
                c2 = hull[-2]
                if (y - c1[1]) * (c1[0] - c2[0]) >= (c1[1] - c2[1]) * (
                    x - c1[0]
                ):
                    hull.pop()
                else:
                    break
            hull.append(cand)
        return hull

    @staticmethod
    def _hull_insert(hull: List[_Cand], cand: _Cand) -> None:
        """Insert one point into the hull, repairing both sides."""
        x = cand[0]
        y = cand[1]
        pos = bisect_left(hull, x, key=_LOAD)
        if pos > 0 and hull[pos - 1][1] >= y:
            return  # a lighter-or-equal point with better slack wins all slopes
        if 0 < pos < len(hull):
            c1 = hull[pos - 1]
            c2 = hull[pos]
            if (y - c1[1]) * (c2[0] - c1[0]) <= (c2[1] - c1[1]) * (
                x - c1[0]
            ):
                return  # on/below the hull: never a strict winner
        # Heavier points with no better slack lose every slope to cand.
        while pos < len(hull) and hull[pos][1] <= y:
            del hull[pos]
        # Concavity repair rightward then leftward.  Rightward, the next
        # vertex dies when it sits on/below the cand->next-next chord:
        # slope(cand->c1) <= slope(cand->c2).
        while pos + 1 < len(hull):
            c1 = hull[pos]
            c2 = hull[pos + 1]
            if (c1[1] - y) * (c2[0] - x) <= (c2[1] - y) * (c1[0] - x):
                del hull[pos]
            else:
                break
        while pos >= 2:
            c1 = hull[pos - 1]
            c0 = hull[pos - 2]
            if (c1[1] - c0[1]) * (x - c1[0]) <= (y - c1[1]) * (
                c1[0] - c0[0]
            ):
                del hull[pos - 1]
                pos -= 1
            else:
                break
        hull.insert(pos, cand)

    # -- buffering -----------------------------------------------------------

    def _insert_buffers(self, node: Node, frontier: _Frontier) -> None:
        if not node.feasible or node.is_source:
            return
        if self._evict:
            self._insert_buffers_hull(node, frontier)
        else:
            self._insert_buffers_scan(node, frontier)

    def _insert_buffers_hull(self, node: Node, frontier: _Frontier) -> None:
        """Delay-mode buffering: hull queries plus sorted insertion.

        In stored coordinates the argmax of ``q − R·C`` is the argmax of
        ``q0 − (r + R)·C0``; one pointer walks the hull as the menu's
        resistance descends, so each group answers all b queries in
        O(H + b) instead of O(b·F).
        """
        options = self.options
        track = options.track_counts
        max_buffers = options.max_buffers
        enforce = options.enforce_polarity
        node_name = node.name
        prices = options.site_prices
        # Uniform per node: the hull walk's argmax of q - R*C is
        # price-independent, so only the stored buffered slack shifts.
        penalty = prices.get(node_name, 0.0) if prices else 0.0
        groups = frontier.groups
        hulls = frontier.hulls
        meta = frontier.meta
        r = frontier.r
        dq = frontier.dq
        dc = frontier.dc
        di = frontier.di
        dns = frontier.dns
        buffers_desc = self._buffers_desc
        additions: List[Tuple[_Key, _Cand]] = []
        add = additions.append
        for (polarity, group_count), candidates in groups.items():
            if track and max_buffers is not None and group_count + 1 > max_buffers:
                continue
            key = (polarity, group_count)
            hull = hulls.get(key)
            if hull is None:
                hull = self._extend_hull([], candidates)
                hulls[key] = hull
            k = 0
            top = len(hull) - 1
            h = hull[0]
            for row in buffers_desc:
                resistance = row[1]
                slope = r + resistance
                while k < top:
                    nxt = hull[k + 1]
                    if nxt[1] - h[1] >= slope * (nxt[0] - h[0]):
                        k += 1
                        h = nxt
                    else:
                        break
                # Decoded best slack of q − R·C over the group:
                # (q0 − slope·C0) − dq − R·dc.
                best_slack = h[1] - slope * h[0] - dq - resistance * dc
                buffer, _, in_cap, intrinsic, noise_margin, inv = row
                chain = h[4]
                tail_count = chain[2] if chain is not None else 0
                new_count = (group_count if track else tail_count) + 1
                # Stored pre-distorted into the shared offset frame so
                # decoding recovers (in_cap, best_slack − intrinsic, 0,
                # noise_margin) exactly.
                stored_load = in_cap - dc
                add(
                    (
                        (
                            (polarity ^ inv) if enforce else 0,
                            new_count if track else 0,
                        ),
                        (
                            stored_load,
                            (best_slack - intrinsic - penalty)
                            + r * stored_load + dq,
                            -di,
                            noise_margin - r * di + dns,
                            ((node_name, buffer), chain, tail_count + 1),
                            h[5],
                            h[6],
                        ),
                    )
                )
        self.generated += len(additions)
        for key, cand in additions:
            group = groups.get(key)
            if group is None:
                groups[key] = [cand]
                hulls[key] = [cand]
                meta[key] = (cand[3] - r * cand[2], r, cand[2])
                continue
            insort(group, cand, key=_LOAD)
            hull = hulls.get(key)
            if hull is not None:
                self._hull_insert(hull, cand)
            bounds = meta.get(key)
            if bounds is not None:
                z = cand[3] - bounds[1] * cand[2]
                meta[key] = (
                    z if z > bounds[0] else bounds[0],
                    bounds[1],
                    cand[2] if cand[2] < bounds[2] else bounds[2],
                )

    def _insert_buffers_scan(self, node: Node, frontier: _Frontier) -> None:
        """Noise/pareto buffering: materialized rows, filtered scans.

        Per-buffer scans over pre-extracted rows, with the offsets
        decoded into the row extraction; Step 5's limit (the largest gate resistance a
        candidate tolerates, NS/I) filters exactly as in the reference.
        """
        options = self.options
        track = options.track_counts
        noise_aware = options.noise_aware
        max_buffers = options.max_buffers
        enforce = options.enforce_polarity
        node_name = node.name
        prices = options.site_prices
        penalty = prices.get(node_name, 0.0) if prices else 0.0
        groups = frontier.groups
        r, dq, dc, di, dns = (
            frontier.r, frontier.dq, frontier.dc, frontier.di, frontier.dns,
        )
        power_model = self.power
        additions: List[Tuple[_Key, _Cand]] = []
        add = additions.append
        for (polarity, group_count), candidates in groups.items():
            if track and max_buffers is not None and group_count + 1 > max_buffers:
                continue
            loads = [c[0] + dc for c in candidates]
            slacks = [c[1] - r * c[0] - dq for c in candidates]
            limits = (
                [
                    ((c[3] - r * c[2] - dns) / i_act)
                    if (i_act := c[2] + di) > 0
                    else _INF
                    for c in candidates
                ]
                if noise_aware
                else None
            )
            indices = range(len(candidates))
            if power_model is not None:
                powers = [c[6] for c in candidates]
                by_power = sorted(indices, key=powers.__getitem__)
            for row in self._buffers:
                buffer, resistance, in_cap, intrinsic, noise_margin, inv = row
                if power_model is None:
                    best_slack = -_INF
                    best_idx = -1
                    if limits is None:
                        for idx in indices:
                            s = slacks[idx] - resistance * loads[idx]
                            if s > best_slack:
                                best_slack = s
                                best_idx = idx
                    else:
                        for idx in indices:
                            if limits[idx] < resistance:
                                continue  # Step 5: never noisy.
                            s = slacks[idx] - resistance * loads[idx]
                            if s > best_slack:
                                best_slack = s
                                best_idx = idx
                    if best_idx < 0:
                        continue
                    donors = [(best_slack, best_idx)]
                    buffer_power = 0.0
                else:
                    # Power-active: keep one buffered candidate per
                    # (drive-slack, power)-Pareto donor, as in the
                    # reference engine — the scalar argmax would
                    # discard donors that trade slack for power.  The
                    # shared dpw offset cancels across donors, so the
                    # stored power slot ranks them directly.
                    donors = _power_donors(
                        by_power, powers, slacks, loads, limits, resistance
                    )
                    if not donors:
                        continue
                    buffer_power = power_model.buffer_power(buffer)
                new_pol = (polarity ^ inv) if enforce else 0
                for best_slack, best_idx in donors:
                    cand = candidates[best_idx]
                    chain = cand[4]
                    tail_count = chain[2] if chain is not None else 0
                    new_count = (group_count if track else tail_count) + 1
                    stored_load = in_cap - dc
                    add(
                        (
                            (
                                new_pol,
                                new_count if track else 0,
                            ),
                            (
                                stored_load,
                                (best_slack - intrinsic - penalty)
                                + r * stored_load + dq,
                                -di,
                                noise_margin - r * di + dns,
                                ((node_name, buffer), chain, tail_count + 1),
                                cand[5],
                                cand[6] + buffer_power,
                            ),
                        )
                    )
                    self.generated += 1
        for key, cand in additions:
            group = groups.get(key)
            if group is None:
                groups[key] = [cand]
            else:
                group.append(cand)

    # -- wire / prune / finalize --------------------------------------------

    def _apply_wire(self, wire: Wire, frontier: _Frontier) -> None:
        sizing = self.options.sizing
        if sizing is None:
            # The whole point: O(1) per frontier, not O(frontier).  The
            # noise dead-drop the eager engines do here is deferred to
            # the prune scan that immediately follows every wire.  The
            # stored-coordinate hulls are untouched: a wire only shifts
            # the query slope.
            base_i = self.coupling.wire_current(wire)
            resistance = wire.resistance
            frontier.dq += resistance * (wire.capacitance / 2.0 + frontier.dc)
            frontier.dns += resistance * (base_i / 2.0 + frontier.di)
            frontier.r += resistance
            frontier.dc += wire.capacitance
            frontier.di += base_i
            if self.power is not None:
                # Wire power is uniform across the frontier — one lazy
                # offset update, the power twin of dc/di.
                frontier.dpw += self.power.wire_power(wire.capacitance)
            return
        # Lillis sizing forks each candidate per menu width — widths
        # differ per candidate afterwards, which a shared offset frame
        # cannot express.  Materialize, then fork eagerly.
        self._rebase(frontier)
        base_i = self.coupling.wire_current(wire)
        noise_aware = self.options.noise_aware
        groups = frontier.groups
        variants = []
        for width in sizing.widths:
            scale = sizing.capacitance_scale(width)
            variants.append(
                (
                    None if width == 1.0 else width,
                    sizing.resistance(wire.resistance, width),
                    sizing.capacitance(wire.capacitance, width),
                    base_i * scale,
                )
            )
        parent_name = wire.parent.name
        child_name = wire.child.name
        for key, candidates in list(groups.items()):
            updated = []
            for cand in candidates:
                for width, resistance, capacitance, wire_i in variants:
                    noise_slack = cand[3] - resistance * (
                        wire_i / 2.0 + cand[2]
                    )
                    if noise_aware and noise_slack < 0.0:
                        self.dead += 1
                        continue
                    wire_chain = cand[5]
                    if width is not None:
                        wire_chain = (
                            (parent_name, child_name, width),
                            wire_chain,
                            (wire_chain[2] if wire_chain is not None else 0)
                            + 1,
                        )
                    updated.append(
                        (
                            cand[0] + capacitance,
                            cand[1]
                            - resistance * (capacitance / 2.0 + cand[0]),
                            cand[2] + wire_i,
                            noise_slack,
                            cand[4],
                            wire_chain,
                            # power + sizing is rejected by DPOptions,
                            # so this slot only ever carries 0.0 here.
                            cand[6],
                        )
                    )
                    self.generated += 1
            if updated:
                groups[key] = updated
            else:
                del groups[key]

    def _rebase(self, frontier: _Frontier) -> None:
        """Fold the pending offsets into the stored tuples (and zero them)."""
        frontier.hulls.clear()
        frontier.meta.clear()
        if not frontier.pending():
            return
        r, dq, dc, di, dns = (
            frontier.r, frontier.dq, frontier.dc, frontier.di, frontier.dns,
        )
        dpw = frontier.dpw
        groups = frontier.groups
        for key, candidates in groups.items():
            groups[key] = [
                (
                    c[0] + dc,
                    c[1] - r * c[0] - dq,
                    c[2] + di,
                    c[3] - r * c[2] - dns,
                    c[4],
                    c[5],
                    c[6] + dpw,
                )
                for c in candidates
            ]
        frontier.r = frontier.dq = frontier.dc = frontier.di = frontier.dns = 0.0
        frontier.dpw = 0.0

    def _prune(self, frontier: _Frontier) -> Tuple[int, int]:
        """Prune every group in place; return (dropped, surviving) counts.

        Noise-dead candidates (deferred from the wire) are dropped here,
        so a fully-dead group deletes its key exactly as the eager
        engines' wire pass would have.  Hulls are left alone: a pruned
        candidate's stale hull entry can only tie, never strictly win,
        a later query (module docstring).
        """
        groups = frontier.groups
        timing = self.options.prune == "timing"
        power_active = self.power is not None
        total = 0
        dropped = 0
        for key, candidates in list(groups.items()):
            if power_active:
                # Power joins the dominance key only here — power-off
                # runs never reach these branches, preserving bit
                # identity and the presorted-scan fast path.
                self.prune_sorts += 1
                kept = (
                    self._prune_power_timing(candidates, frontier)
                    if timing
                    else self._prune_pareto_power(candidates, frontier)
                )
            elif timing:
                kept = self._prune_timing(candidates, frontier)
            else:
                kept = self._prune_pareto(candidates, frontier)
            dropped += len(candidates) - len(kept)
            if kept:
                groups[key] = kept
            else:
                del groups[key]
                frontier.hulls.pop(key, None)
                frontier.meta.pop(key, None)
            total += len(kept)
        if total > self.kept_peak:
            self.kept_peak = total
        return dropped, total

    def _prune_timing(
        self, candidates: List[_Cand], frontier: _Frontier
    ) -> List[_Cand]:
        """The (load, slack) frontier under the offset frame, sort-free.

        The shared ``dq`` offset cancels in comparisons, so the scan
        ranks candidates by ``q0 − r·C0``; only the noise dead-check
        needs the absolute value (``dns`` included).  An instance method
        so the fuzz harness can plant a broken override.
        """
        r = frontier.r
        dns = frontier.dns
        noise_aware = self.options.noise_aware
        kept: List[_Cand] = []
        append = kept.append
        best = -_INF
        prev_load = -_INF
        prev_q = _INF
        dead = 0
        for cand in candidates:
            load = cand[0]
            q = cand[1] - r * load
            if load < prev_load or (load == prev_load and q > prev_q):
                break  # out of order: fall back to the sort below
            prev_load = load
            prev_q = q
            if noise_aware and (cand[3] - r * cand[2] - dns) < 0.0:
                dead += 1
                continue
            if q > best:
                append(cand)
                best = q
        else:
            self.prune_presorted += 1
            self.dead += dead
            return kept
        self.prune_sorts += 1
        kept = []
        append = kept.append
        best = -_INF
        dead = 0
        for cand in sorted(
            candidates, key=lambda c: (c[0], r * c[0] - c[1])
        ):
            if noise_aware and (cand[3] - r * cand[2] - dns) < 0.0:
                dead += 1
                continue
            q = cand[1] - r * cand[0]
            if q > best:
                append(cand)
                best = q
        self.dead += dead
        return kept

    def _prune_pareto(
        self, candidates: List[_Cand], frontier: _Frontier
    ) -> List[_Cand]:
        """4-field dominance on materialized actual values — ablation."""
        r, dq, dc, di, dns = (
            frontier.r, frontier.dq, frontier.dc, frontier.di, frontier.dns,
        )
        noise_aware = self.options.noise_aware
        rows = []
        for cand in candidates:
            noise_slack = cand[3] - r * cand[2] - dns
            if noise_aware and noise_slack < 0.0:
                self.dead += 1
                continue
            rows.append(
                (
                    cand[0] + dc,
                    -(cand[1] - r * cand[0] - dq),
                    cand[2] + di,
                    -noise_slack,
                    cand,
                )
            )
        rows.sort(key=lambda row: row[:4])
        kept_rows: List[tuple] = []
        kept: List[_Cand] = []
        for row in rows:
            load, neg_slack, current, neg_ns = row[0], row[1], row[2], row[3]
            for other in kept_rows:
                if (
                    other[0] <= load
                    and other[1] <= neg_slack
                    and other[2] <= current
                    and other[3] <= neg_ns
                ):
                    break
            else:
                kept_rows.append(row)
                kept.append(row[4])
        return kept

    def _prune_power_timing(
        self, candidates: List[_Cand], frontier: _Frontier
    ) -> List[_Cand]:
        """(load, slack, power) dominance under the offset frame.

        Uniform offsets cancel in comparisons (``dq`` for slack, ``dc``
        for load, ``dpw`` for power), so rows rank by stored load,
        ``q0 − r·C0`` and stored power directly; only the noise
        dead-check needs the absolute noise slack.  The live rows go
        through the reference engine's O(n log n) staircase sweep
        (:func:`~repro.core.dp._power_staircase`, first-seen wins exact
        ties), so both engines apply one 3-D dominance rule.
        """
        r = frontier.r
        dns = frontier.dns
        noise_aware = self.options.noise_aware
        rows = []
        dead = 0
        for cand in candidates:
            if noise_aware and (cand[3] - r * cand[2] - dns) < 0.0:
                dead += 1
                continue
            rows.append((cand[0], cand[1] - r * cand[0], cand[6], cand))
        self.dead += dead
        return _power_staircase(rows)

    def _prune_pareto_power(
        self, candidates: List[_Cand], frontier: _Frontier
    ) -> List[_Cand]:
        """5-field dominance: the pareto ablation plus the power axis."""
        r, dq, dc, di, dns = (
            frontier.r, frontier.dq, frontier.dc, frontier.di, frontier.dns,
        )
        noise_aware = self.options.noise_aware
        rows = []
        for cand in candidates:
            noise_slack = cand[3] - r * cand[2] - dns
            if noise_aware and noise_slack < 0.0:
                self.dead += 1
                continue
            rows.append(
                (
                    cand[0] + dc,
                    -(cand[1] - r * cand[0] - dq),
                    cand[2] + di,
                    -noise_slack,
                    cand[6],
                    cand,
                )
            )
        rows.sort(key=lambda row: row[:5])
        kept_rows: List[tuple] = []
        kept: List[_Cand] = []
        for row in rows:
            for other in kept_rows:
                if (
                    other[0] <= row[0]
                    and other[1] <= row[1]
                    and other[2] <= row[2]
                    and other[3] <= row[3]
                    and other[4] <= row[4]
                ):
                    break
            else:
                kept_rows.append(row)
                kept.append(row[5])
        return kept

    def _finalize(self, frontier: _Frontier) -> DPResult:
        r, dq, dc, di, dns = (
            frontier.r, frontier.dq, frontier.dc, frontier.di, frontier.dns,
        )
        dpw = frontier.dpw
        power_active = self.power is not None
        has_inverters = any(b.inverting for b in self.library)
        enforce = self.options.enforce_polarity
        noise_aware = self.options.noise_aware
        gate_delay = self.driver.gate_delay
        driver_resistance = self.driver.resistance
        if power_active:
            # Per-count (slack, power) frontier, ordered by rising
            # power (and hence rising slack) within each count —
            # mirroring the reference engine's power finalize.
            per_count: Dict[int, List[Tuple[float, float, bool, _Cand]]] = {}
            for (polarity, _), candidates in frontier.groups.items():
                if enforce and has_inverters and polarity != 0:
                    continue
                for cand in candidates:
                    load = cand[0] + dc
                    q = cand[1] - r * cand[0] - dq
                    current = cand[2] + di
                    noise_slack = cand[3] - r * cand[2] - dns
                    slack = q - gate_delay(load)
                    noise_ok = driver_resistance * current <= noise_slack
                    if noise_aware and not noise_ok:
                        continue
                    chain = cand[4]
                    count = chain[2] if chain is not None else 0
                    per_count.setdefault(count, []).append(
                        (cand[6] + dpw, slack, noise_ok, cand)
                    )
            outcomes: List[DPOutcome] = []
            for count in sorted(per_count):
                best_seen = -_INF
                for power, slack, noise_ok, cand in sorted(
                    per_count[count],
                    key=lambda entry: (entry[0], -entry[1]),
                ):
                    if slack > best_seen:
                        outcomes.append(
                            self._materialize(
                                count, slack, noise_ok, cand, power
                            )
                        )
                        best_seen = slack
            ordered = tuple(outcomes)
        else:
            winners: Dict[int, Tuple[float, bool, _Cand]] = {}
            for (polarity, _), candidates in frontier.groups.items():
                if enforce and has_inverters and polarity != 0:
                    continue
                for cand in candidates:
                    load = cand[0] + dc
                    q = cand[1] - r * cand[0] - dq
                    current = cand[2] + di
                    noise_slack = cand[3] - r * cand[2] - dns
                    slack = q - gate_delay(load)
                    noise_ok = driver_resistance * current <= noise_slack
                    if noise_aware and not noise_ok:
                        continue  # Step 3/4 of Fig. 10: reject noisy finals.
                    chain = cand[4]
                    count = chain[2] if chain is not None else 0
                    kept = winners.get(count)
                    if kept is not None and not slack > kept[0]:
                        continue
                    winners[count] = (slack, noise_ok, cand)
            ordered = tuple(
                self._materialize(count, slack, noise_ok, cand, cand[6] + dpw)
                for count, (slack, noise_ok, cand) in sorted(winners.items())
            )
        return DPResult(
            tree=self.tree,
            outcomes=ordered,
            options=self.options,
            candidates_generated=self.generated,
            candidates_kept_peak=self.kept_peak,
            stats=self.stats,
        )

    @staticmethod
    def _materialize(
        count: int, slack: float, noise_ok: bool, cand: _Cand, power: float
    ) -> DPOutcome:
        """Expand a raw winning candidate into a full :class:`DPOutcome`."""
        return DPOutcome(
            buffer_count=count,
            slack=slack,
            noise_feasible=noise_ok,
            insertions=tuple(
                Insertion(name, buffer)
                for name, buffer in _chain_payloads(cand[4])
            ),
            wire_choices=tuple(
                WireChoice(parent, child, width)
                for parent, child, width in _chain_payloads(cand[5])
            ),
            power=power,
        )
