"""The four workloads, each through the program's public entry points.

Each workload builds its inputs from the seed in :meth:`setup`, runs a
timed loop in :meth:`measure`, and, for the traced run, repeats a fixed
slice of that work untraced and then traced in :meth:`trace`.  No call
passes an ``engine``: the benchmark measures the defaults users get.
The one exception is the engine sweep on ``large-nets``, a traced-run
leg whose purpose is to compare the engines by name.
"""

from __future__ import annotations

import math
import random
import statistics
import threading
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from multiprocessing import get_context
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.batch.optimizer as optimizer_module
from repro.api import dp_result
from repro.batch.executors import SerialExecutor
from repro.batch.optimizer import BatchConfig, BatchOptimizer
from repro.batch.resilience import ResilientExecutor
from repro.core.objective import Objective
from repro.library.buffers import default_buffer_library
from repro.library.power import default_power_model
from repro.library.technology import default_technology
from repro.noise.coupling import CouplingModel
from repro.service.http import make_http_server
from repro.service.loadtest import HttpServiceClient
from repro.service.protocol import DEFAULT_SEGMENT_LENGTH, parse_request
from repro.service.server import OptimizationService, ServiceConfig
from repro.service.worker import WorkPayload, execute_request
from repro.tree.segmenting import segment_tree
from repro.units import MM
from repro.workloads.distributions import SpanDistribution
from repro.workloads.generator import (
    NetSpec,
    WorkloadConfig,
    generate_net_from_spec,
    population_specs,
)
from repro.workloads.power import (
    PowerConstrainedNet,
    PowerWorkloadConfig,
    power_cap_for_tree,
)

from checks import settle
from harness import Answer, Measurement, peak_rss_mb, unit_peak_rss
from spans import SpanRecorder, instrument, layer_metrics

#: engines compared by the traced engine sweep on ``large-nets``.
SWEEP_ENGINES = ("reference", "fast", "lishi")

#: per-layer metrics that only some workloads exercise; a workload that
#: does not reach a layer reports 0 for it.
SERVICE_LAYER_METRICS = (
    "service.transport_ms", "service.parse_ms", "service.fingerprint_ms",
    "service.worker_ms", "service.supervision_ms", "service.nonworker_ms",
    "service.accepted", "service.cache_hit", "service.coalesced",
    "service.shed", "service.cache_hit_ratio",
)
SWEEP_METRICS = tuple(
    f"core.dp.{engine}_ms" for engine in SWEEP_ENGINES
) + tuple(f"core.dp.{engine}.candidates" for engine in SWEEP_ENGINES)


def stratified_blocks(items: Sequence, key, groups: int) -> List[list]:
    """Deal ``items``, ranked by ``key``, into ``groups`` blocks in
    serpentine order (0..n-1, then n-1..0, ...), so that every block spans
    the whole range of the key with the same average rank, and a run that
    covers a few blocks sees a representative mix."""
    blocks: List[list] = [[] for _ in range(groups)]
    for rank, item in enumerate(sorted(items, key=key)):
        row, column = divmod(rank, groups)
        blocks[column if row % 2 == 0 else groups - 1 - column].append(item)
    return blocks


def stratified_span_specs(seed: int, nets: int) -> List[NetSpec]:
    """The seeded Table-I specs with stratified spans.

    Sink counts and per-net seeds come from ``population_specs``.  Within
    each sink count, the spans are the midpoints of equal-probability
    strata of the population's own log-uniform span distribution, dealt
    out in a seeded order.  Every seed then has the same (sink count,
    span) mix; the seed still decides each net's geometry, cells and
    driver.
    """
    specs = population_specs(WorkloadConfig(seed=seed, nets=nets))
    spans = SpanDistribution()
    low, high = math.log(spans.span_min), math.log(spans.span_max)
    by_count: Dict[int, List[int]] = defaultdict(list)
    for index, spec in enumerate(specs):
        by_count[spec.sink_count].append(index)
    rng = random.Random(seed)
    for indices in by_count.values():
        strata = list(range(len(indices)))
        rng.shuffle(strata)
        for index, stratum in zip(indices, strata):
            fraction = (stratum + 0.5) / len(indices)
            specs[index] = replace(
                specs[index], span=math.exp(low + (high - low) * fraction)
            )
    return specs


def net_seeds(seed: int, count: int) -> List[int]:
    rng = np.random.default_rng(seed)
    return [int(value) for value in rng.integers(0, 2**63, size=count)]


def answer_from_result(result, objective, power_cap=None) -> Answer:
    """An :class:`Answer` for a solved ``NetResult`` that kept its tree."""
    return Answer(
        name=result.name,
        tree=lambda tree=result.tree: tree,
        assignment=result.assignment,
        slack=result.slack,
        noise_feasible=result.noise_feasible,
        buffer_count=result.buffer_count,
        objective=objective,
        power=result.power,
        power_cap=power_cap,
    )


class Workload:
    """Common shape; subclasses fill in the four hooks."""

    name = ""

    def __init__(
        self, seed: int, smoke: bool, workdir: Path, plant_bug: bool = False
    ):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.plant_bug = plant_bug
        self.library = default_buffer_library()
        self.coupling = CouplingModel.estimation_mode(default_technology())
        #: span recorders of the traced passes, written out at the end.
        self.recorders: List[SpanRecorder] = []

    def new_measurement(self) -> Measurement:
        return Measurement(plant_bug=self.plant_bug)

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float) -> Measurement:
        raise NotImplementedError

    def trace(self) -> Tuple[Dict[str, float], Measurement]:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what :meth:`setup` started (nothing, by default)."""

    def extra_violations(self, measurement: Measurement) -> List[str]:
        """Checks beyond certification (none, by default)."""
        return []

    def traced_pair(self, run_slice) -> Tuple[SpanRecorder, float, Any]:
        """Run ``run_slice(recorder, units)`` on one unit to warm up, then
        on the whole slice untraced and traced; return the recorder, the
        trace overhead share and the traced pass's output."""
        run_slice(None, 1)
        started = perf_counter()
        run_slice(None, None)
        untraced = perf_counter() - started
        recorder = SpanRecorder()
        with instrument(recorder):
            started = perf_counter()
            output = run_slice(recorder, None)
            traced = perf_counter() - started
        self.recorders.append(recorder)
        return recorder, traced / untraced - 1.0, output


def _zeros(names) -> Dict[str, float]:
    return {name: 0.0 for name in names}


class _StampingSerial(SerialExecutor):
    """The serial executor, recording when each net's result arrives so
    per-net latency is timed from outside the worker body."""

    name = "serial"

    def __init__(self) -> None:
        self.stamps: List[float] = []

    def map(self, fn, items, on_result=None):
        def stamped(index, value):
            self.stamps.append(perf_counter())
            if on_result is not None:
                on_result(index, value)

        return super().map(fn, items, on_result=stamped)


class Table1Batch(Workload):
    """The seeded Table-I population through ``BatchOptimizer.optimize``
    (buffopt, certify=True, serial executor, fsynced checkpoint)."""

    name = "table1-batch"
    TRACE_BLOCKS = 2

    def setup(self) -> None:
        nets, groups = (40, 4) if self.smoke else (500, 10)
        config = WorkloadConfig(seed=self.seed, nets=nets)
        self.blocks = stratified_blocks(
            stratified_span_specs(self.seed, nets),
            key=lambda spec: (spec.sink_count, spec.span),
            groups=groups,
        )
        self.executor = _StampingSerial()
        self.optimizer = BatchOptimizer(
            config=BatchConfig(certify=True),
            executor=self.executor,
            workload=config,
        )
        self.runs = 0

    def _run_block(self, block, measurement, recorder=None):
        self.runs += 1
        path = self.workdir / f"table1-{self.runs}.jsonl"
        self.executor.stamps = []
        with unit_peak_rss(measurement):
            started = perf_counter()
            if recorder is None:
                report = self.optimizer.optimize(block, checkpoint=path)
            else:
                with recorder.span("batch.optimize", f"block-{self.runs}"):
                    report = self.optimizer.optimize(block, checkpoint=path)
            measurement.wall += perf_counter() - started
        stamps = [started] + self.executor.stamps
        if measurement.sampling:
            measurement.latencies.extend(
                later - earlier for earlier, later in zip(stamps, stamps[1:])
            )
        objective = self.optimizer.config.objective
        for result in report.results:
            measurement.attempted += 1
            if not result.ok:
                measurement.failed += 1
                continue
            if result.certified is not True:
                measurement.violations.append(
                    f"{result.name}: not certified by the program"
                )
            measurement.answers.append(answer_from_result(result, objective))
        settle(measurement)

    def measure(self, seconds: float) -> Measurement:
        measurement = self.new_measurement()
        index = 0
        while index < len(self.blocks) or measurement.wall < seconds:
            measurement.sampling = index < len(self.blocks)
            self._run_block(self.blocks[index % len(self.blocks)], measurement)
            index += 1
        measurement.notes["blocks"] = index
        return measurement

    def trace(self):
        blocks = self.blocks[: 1 if self.smoke else self.TRACE_BLOCKS]

        def run_slice(recorder, units):
            measurement = self.new_measurement()
            for block in blocks:
                self._run_block(block[:units], measurement, recorder)
                if units is not None:
                    break
            return measurement

        recorder, overhead, measurement = self.traced_pair(run_slice)
        layers = layer_metrics(recorder, measurement.attempted)
        layers.update(_zeros(SERVICE_LAYER_METRICS + SWEEP_METRICS))
        layers["trace_overhead_share"] = overhead
        return layers, measurement


class LargeNets(Workload):
    """Large generated nets, DelayOpt and BuffOpt in turn, one
    ``optimize_net`` call each."""

    name = "large-nets"
    #: every net has this shape (sinks, span in mm); the seed draws a
    #: fresh geometry per net.  One shape keeps a run that stops after
    #: any net as representative as one that covers them all.
    SHAPE = (16, 6.0)
    SMOKE_SHAPE = (6, 2.0)
    #: a run covers these nets at least once, then repeats them.  Per-net
    #: cost varies about 3x with geometry, so the latency median needs
    #: many distinct nets to read the same from seed to seed.
    NETS = 56
    #: nets in the traced slice (and in the engine sweep).
    TRACE_NETS = 4
    #: net ``i`` runs under ``MODES[i % 2]``: every net is a fresh
    #: geometry, and both modes get half of them.
    MODES = ("delay", "buffopt")

    def setup(self) -> None:
        sinks, span = self.SMOKE_SHAPE if self.smoke else self.SHAPE
        self.nets = []
        count = self.TRACE_NETS if self.smoke else self.NETS
        for index, seed in enumerate(net_seeds(self.seed, count)):
            tree = generate_net_from_spec(
                NetSpec(f"large{index}", sinks, span * MM, seed)
            ).tree
            objective = Objective.legacy(self.MODES[index % len(self.MODES)])
            self.nets.append([
                (tree, objective, BatchConfig(objective=objective))
            ])

    def _run_net(self, calls, measurement: Measurement) -> list:
        signatures = []
        for tree, objective, config in calls:
            with unit_peak_rss(measurement):
                started = perf_counter()
                result = optimizer_module.optimize_net(
                    tree, self.library, self.coupling, config
                )
                elapsed = perf_counter() - started
            measurement.wall += elapsed
            if measurement.sampling:
                measurement.latencies.append(elapsed)
            measurement.attempted += 1
            signatures.append(result.signature())
            if result.ok:
                measurement.answers.append(
                    answer_from_result(result, objective)
                )
            else:
                measurement.failed += 1
        settle(measurement)
        return signatures

    def measure(self, seconds: float) -> Measurement:
        measurement = self.new_measurement()
        seen: Dict[int, list] = {}
        index = 0
        while index < len(self.nets) or measurement.wall < seconds:
            measurement.sampling = index < len(self.nets)
            slot = index % len(self.nets)
            signatures = self._run_net(self.nets[slot], measurement)
            if seen.setdefault(slot, signatures) != signatures:
                measurement.violations.append(
                    f"net large{slot}: a repeat gave different answers"
                )
            index += 1
        measurement.notes["nets"] = index
        return measurement

    def trace(self):
        def run_slice(recorder, units):
            measurement = self.new_measurement()
            for calls in self.nets[: units or self.TRACE_NETS]:
                self._run_net(calls, measurement)
            return measurement

        recorder, overhead, measurement = self.traced_pair(run_slice)
        layers = layer_metrics(recorder, measurement.attempted)
        layers.update(_zeros(SERVICE_LAYER_METRICS))
        layers.update(self._engine_sweep(measurement))
        layers["trace_overhead_share"] = overhead
        return layers, measurement

    def _engine_sweep(self, measurement: Measurement) -> Dict[str, float]:
        """``dp_result`` under every engine on the same segmented nets;
        each engine's selected outcome joins the answers to certify."""
        seconds = {engine: 0.0 for engine in SWEEP_ENGINES}
        candidates = {engine: 0 for engine in SWEEP_ENGINES}
        calls = [
            (segment_tree(tree, DEFAULT_SEGMENT_LENGTH), objective)
            for net in self.nets[: self.TRACE_NETS]
            for tree, objective, _ in net
        ]
        for work, objective in calls:
            for engine in SWEEP_ENGINES:
                started = perf_counter()
                result = dp_result(
                    work, self.library,
                    self.coupling if objective.noise_aware else None,
                    objective=objective, engine=engine,
                )
                outcome = result.select(objective)
                seconds[engine] += perf_counter() - started
                candidates[engine] += result.candidates_generated
                measurement.answers.append(Answer(
                    name=f"{work.name}/{objective.mode}/{engine}",
                    tree=lambda work=work: work,
                    assignment={i.node: i.buffer for i in outcome.insertions},
                    slack=outcome.slack,
                    noise_feasible=outcome.noise_feasible,
                    buffer_count=outcome.buffer_count,
                    objective=objective,
                ))
        out = {}
        for engine in SWEEP_ENGINES:
            out[f"core.dp.{engine}_ms"] = 1e3 * seconds[engine] / len(calls)
            out[f"core.dp.{engine}.candidates"] = candidates[engine]
        return out


class PowerCapped(Workload):
    """The power-constrained family under each net's power-capped
    objective, one ``optimize_net`` call per net under a candidate
    budget."""

    name = "power-capped"
    #: per-net generated-candidate guard (the service's max_candidates).
    CANDIDATE_BUDGET = 1_000_000
    #: Lillis buffer-count cap; bounds the per-count power frontiers so
    #: every net taken is solved within the guard.
    MAX_BUFFERS = 4
    #: only nets of at most ``MAX_SINKS`` sinks and spans in
    #: ``SPAN_BAND`` (mm) are taken.  A power-on net's cost climbs
    #: steeply with its length and varies about 3x at a given length with
    #: its driver, cells and cap, so a steady median needs some hundred
    #: nets of one kind per run: below the band the DP is too small to be
    #: frontier-bound; above it (up to 14 mm, 0.6-3 s a net), or with
    #: more sinks, too few nets fit a run, and the 3-4-sink nets would
    #: form a costlier cluster whose edge the tail percentile lands on.
    MAX_SINKS = 2
    SPAN_BAND = (2.5, 5.0)
    #: the population is dealt into blocks of about this many nets; the
    #: pass is every block.  A run covers the pass at least once, then
    #: repeats its nets.
    BLOCK_NETS = 4
    #: blocks in the traced slice.
    TRACE_BLOCKS = 3

    def setup(self) -> None:
        nets = 40 if self.smoke else 500
        # The family's rules (PowerWorkloadConfig / power_cap_for_tree),
        # over the Table-I specs with stratified spans: a power-on net's
        # cost climbs steeply with its length, so a run is only steady if
        # every seed draws the same span mix.  The delay-mode objectives
        # keep every cap feasible (no buffers meet it); under buffopt,
        # noise can demand more buffer power than the cap allows, and
        # about one net in 75 has no solution.
        family = PowerWorkloadConfig(noise_aware=False)
        power_model = default_power_model()
        low, high = (bound * MM for bound in self.SPAN_BAND)
        population = []
        for spec in stratified_span_specs(self.seed, nets):
            if spec.sink_count > self.MAX_SINKS:
                continue
            if not low <= spec.span <= high:
                continue
            net = generate_net_from_spec(spec)
            cap = power_cap_for_tree(
                net.tree, power_model, self.library, family.buffer_budget
            )
            population.append(PowerConstrainedNet(
                net=net,
                power_cap=cap,
                objective=Objective(
                    mode="delay", selection="power-capped", power_cap=cap
                ),
            ))
        self.blocks = [
            [
                (net, BatchConfig(
                    objective=net.objective,
                    max_buffers=self.MAX_BUFFERS,
                    net_max_candidates=self.CANDIDATE_BUDGET,
                ))
                for net in block
            ]
            for block in stratified_blocks(
                population,
                key=lambda net: (net.net.sink_count, net.net.span),
                groups=max(1, len(population) // self.BLOCK_NETS),
            )
        ]

    def _run_nets(self, nets, measurement: Measurement) -> None:
        for net, config in nets:
            with unit_peak_rss(measurement):
                started = perf_counter()
                result = optimizer_module.optimize_net(
                    net.tree, self.library, self.coupling, config
                )
                elapsed = perf_counter() - started
            measurement.wall += elapsed
            if measurement.sampling:
                measurement.latencies.append(elapsed)
            measurement.attempted += 1
            if result.ok:
                measurement.answers.append(answer_from_result(
                    result, net.objective, power_cap=net.power_cap
                ))
            else:
                measurement.failed += 1
            settle(measurement)

    def measure(self, seconds: float) -> Measurement:
        measurement = self.new_measurement()
        nets = [
            net for block in self.blocks[: 1 if self.smoke else None]
            for net in block
        ]
        index = 0
        while index < len(nets) or measurement.wall < seconds:
            measurement.sampling = index < len(nets)
            self._run_nets([nets[index % len(nets)]], measurement)
            index += 1
        measurement.notes["nets"] = index
        return measurement

    def trace(self):
        def run_slice(recorder, units):
            measurement = self.new_measurement()
            nets = [
                net for block in self.blocks[: self.TRACE_BLOCKS]
                for net in block
            ]
            self._run_nets(nets[:units], measurement)
            return measurement

        recorder, overhead, measurement = self.traced_pair(run_slice)
        layers = layer_metrics(recorder, measurement.attempted)
        layers.update(_zeros(SERVICE_LAYER_METRICS + SWEEP_METRICS))
        layers["trace_overhead_share"] = overhead
        return layers, measurement


class _Server:
    """One ``OptimizationService`` (default config plus a journal)
    behind ``ServiceHTTPServer`` on loopback."""

    def __init__(self, journal: Path, http: bool = True):
        self.service = OptimizationService(
            ServiceConfig(journal_path=journal)
        ).start()
        self.http = None
        if http:
            self.http = make_http_server(self.service)
            self.thread = threading.Thread(
                target=self.http.serve_forever, name="perfbench-http"
            )
            self.thread.start()
            self.client = HttpServiceClient(
                f"http://127.0.0.1:{self.http.port}"
            )
            status, _ = self.client.get("/healthz")
            if status != 200:
                raise RuntimeError(f"service health check returned {status}")

    def close(self) -> None:
        if self.http is not None:
            self.http.shutdown()
            self.http.server_close()
            self.thread.join()
        self.service.drain()

    def admission(self) -> Dict[str, float]:
        counter = self.service.metrics.get("buffopt_service_requests_total")
        return {
            outcome: counter.value(outcome=outcome)
            for outcome in ("accepted", "cache_hit", "coalesced", "shed")
        }


class ServiceHttp(Workload):
    """A closed loop of 2 clients sending synchronous requests for
    Table-I population nets to the HTTP service; about a quarter repeat
    an earlier net."""

    name = "service-http"
    CLIENTS = 2
    REPEAT_SHARE = 0.25
    #: requests are for nets of up to this many sinks (97% of the
    #: population): the service workload measures the request lifecycle,
    #: and the few 10-32-sink nets would make its DP time dominate.
    MAX_SINKS = 8
    #: requests in the traced slice, and distinct requests the per-layer
    #: service legs time one by one.
    TRACE_REQUESTS = 60
    LEG_REQUESTS = 8

    def setup(self) -> None:
        nets, groups = (200, 4) if self.smoke else (6000, 120)
        blocks = stratified_blocks(
            [
                spec for spec in stratified_span_specs(self.seed, nets)
                if spec.sink_count <= self.MAX_SINKS
            ],
            key=lambda spec: (spec.sink_count, spec.span),
            groups=groups,
        )
        distinct = [spec for block in blocks for spec in block]
        rng = random.Random(self.seed)
        self.sequence: List[Dict[str, Any]] = []
        sent: List[Dict[str, Any]] = []
        for spec in distinct:
            while sent and rng.random() < self.REPEAT_SHARE:
                self.sequence.append(rng.choice(sent))
            payload = {
                "net": {
                    "name": spec.name, "sink_count": spec.sink_count,
                    "span": spec.span, "seed": spec.seed,
                },
                "wait": True,
            }
            sent.append(payload)
            self.sequence.append(payload)
        self.servers = 0
        self.server = self._new_server()

    def _new_server(self, http: bool = True) -> _Server:
        self.servers += 1
        return _Server(self.workdir / f"journal-{self.servers}.jsonl", http)

    def teardown(self) -> None:
        self.server.close()

    def _closed_loop(
        self, server: _Server, seconds: Optional[float],
        requests: Optional[int] = None,
    ) -> Measurement:
        """Clients take the next request from the shared sequence until
        ``seconds`` have passed (or ``requests`` were taken)."""
        measurement = self.new_measurement()
        replies: List[Tuple[Dict[str, Any], int, Dict[str, Any], float]] = []
        lock = threading.Lock()
        limit = len(self.sequence) if requests is None else requests
        cursor = [0]
        started = perf_counter()

        def client() -> None:
            while True:
                with lock:
                    index = cursor[0]
                    if index >= limit or (
                        seconds is not None
                        and perf_counter() - started >= seconds
                    ):
                        return
                    cursor[0] += 1
                payload = self.sequence[index]
                sent = perf_counter()
                status, body = server.client.submit(payload)
                elapsed = perf_counter() - sent
                with lock:
                    replies.append((payload, status, body, elapsed))

        threads = [
            threading.Thread(target=client, name=f"perfbench-client-{n}")
            for n in range(self.CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        measurement.wall = perf_counter() - started
        if cursor[0] >= len(self.sequence):
            raise RuntimeError("the request sequence ran out; make it longer")
        measurement.notes["replies"] = replies
        answered = set()
        for payload, status, body, elapsed in replies:
            measurement.attempted += 1
            measurement.latencies.append(elapsed)
            result = body.get("result") if status == 200 else None
            if result is None or not result["ok"]:
                measurement.failed += 1
            elif payload["net"]["name"] not in answered:
                # Repeats must equal the first answer (extra_violations
                # checks every reply); certify each net once.
                answered.add(payload["net"]["name"])
                measurement.answers.append(self._answer(payload, result))
        return measurement

    def _answer(self, payload, result) -> Answer:
        request = parse_request(payload)

        def tree():
            spec = NetSpec(
                request.net_name, request.sink_count, request.span,
                request.seed,
            )
            return segment_tree(
                generate_net_from_spec(spec).tree, request.max_segment_length
            )

        library = self.library
        return Answer(
            name=request.net_name,
            tree=tree,
            assignment={
                node: library[buffer]
                for node, buffer in result["assignment"].items()
            },
            slack=result["slack"],
            noise_feasible=result["noise_feasible"],
            buffer_count=result["buffer_count"],
            objective=Objective.legacy(request.mode),
        )

    def measure(self, seconds: float) -> Measurement:
        measurement = self._closed_loop(self.server, seconds)
        # Requests run in forked children; one run-long peak covers them.
        measurement.rss_peaks.append(peak_rss_mb())
        measurement.notes["admission"] = self.server.admission()
        return measurement

    def extra_violations(self, measurement: Measurement) -> List[str]:
        """Every answer equals ``execute_request`` run inline on the same
        request (the service's bit-consistency promise)."""
        answered = [
            (parse_request(payload), body["result"])
            for payload, status, body, _ in measurement.notes["replies"]
            if status == 200
        ]
        distinct = {
            request.fingerprint(): request for request, _ in answered
        }
        # The re-runs are independent; share them between two processes.
        # They are forked, not spawned: the program's routing trees depend
        # on the interpreter's string-hash seed (networkx's Prim starts
        # from set(G).pop()), so "inline" means "under this process's
        # seed", which forked children share.  The service and client
        # threads have all been joined by now, so forking is safe.
        with ProcessPoolExecutor(
            max_workers=self.CLIENTS, mp_context=get_context("fork")
        ) as pool:
            inline = dict(zip(distinct, pool.map(
                _inline_result, distinct.values(), chunksize=8
            )))
        return [
            f"{request.net_name}: service answer differs from the inline "
            "worker's in " + ", ".join(
                f"{key} ({value!r} != {expected[key]!r})"
                for key, value in result.items() if value != expected[key]
            )
            for request, result in answered
            for expected in [inline[request.fingerprint()]]
            if result != expected
        ]

    def trace(self):
        requests = 12 if self.smoke else self.TRACE_REQUESTS

        def run_slice(recorder, units):
            server = self._new_server()
            try:
                measurement = self._closed_loop(
                    server, None, units or requests
                )
                measurement.notes["admission"] = server.admission()
            finally:
                server.close()
            return measurement

        recorder, _, measurement = self.traced_pair(run_slice)
        units = measurement.attempted
        journal = layer_metrics(recorder, units)["service.journal_append_ms"]
        # Replies that ran a worker (not cache hits): latency beyond the
        # worker body's own reported time.
        executed = [
            (elapsed, body["meta"]["seconds"])
            for _, status, body, elapsed in measurement.notes["replies"]
            if status == 200 and not body["cached"]
        ]
        legs, inline_recorder = self._service_legs()
        layers = layer_metrics(inline_recorder, len(legs["payloads"]))
        layers.update(_zeros(SWEEP_METRICS))
        admission = measurement.notes["admission"]
        layers.update({
            "service.journal_append_ms": journal,
            "service.nonworker_ms": 1e3 * statistics.fmean(
                elapsed - worker for elapsed, worker in executed
            ),
            "service.accepted": admission["accepted"],
            "service.cache_hit": admission["cache_hit"],
            "service.coalesced": admission["coalesced"],
            "service.shed": admission["shed"],
            "service.cache_hit_ratio": admission["cache_hit"] / units,
            "service.parse_ms": legs["parse_ms"],
            "service.fingerprint_ms": legs["fingerprint_ms"],
            "service.worker_ms": legs["worker_ms"],
            "service.supervision_ms": legs["supervision_ms"],
            "service.transport_ms": legs["transport_ms"],
            # The closed loop's overhead is lost in fork and poll jitter;
            # the inline worker legs carry the same spans without it.
            "trace_overhead_share": legs["trace_overhead"],
        })
        return layers, measurement

    def _service_legs(self):
        """Time each service layer on a few distinct requests, one call
        at a time, by difference between nested entry points."""
        payloads, seen = [], set()
        for payload in self.sequence:
            if payload["net"]["name"] not in seen:
                seen.add(payload["net"]["name"])
                payloads.append(payload)
            if len(payloads) == (3 if self.smoke else self.LEG_REQUESTS):
                break
        repeats = 200
        parse = fingerprint = worker = supervised = 0.0
        requests = [parse_request(payload) for payload in payloads]
        execute_request(WorkPayload(requests[0]))  # warm the worker's caches
        for payload, request in zip(payloads, requests):
            started = perf_counter()
            for _ in range(repeats):
                parse_request(payload)
            parse += (perf_counter() - started) / repeats
            started = perf_counter()
            for _ in range(repeats):
                request.fingerprint()
            fingerprint += (perf_counter() - started) / repeats
            started = perf_counter()
            execute_request(WorkPayload(request))
            worker += perf_counter() - started
            started = perf_counter()
            ResilientExecutor(workers=1).map(
                execute_request, [WorkPayload(request)]
            )
            supervised += perf_counter() - started
        # Transport: HTTP submit minus in-process submit of the same
        # request.  Both are timed on cache hits (after one untimed submit
        # each), so the worker's fork and poll jitter cancel out.
        over_http, in_process = self._new_server(), self._new_server(False)
        http_seconds = local_seconds = 0.0
        try:
            for payload in payloads:
                over_http.client.submit(payload)
                in_process.service.submit(payload)
            for _ in range(repeats // 10):
                for payload in payloads:
                    started = perf_counter()
                    over_http.client.submit(payload)
                    http_seconds += perf_counter() - started
                    started = perf_counter()
                    in_process.service.submit(payload)
                    local_seconds += perf_counter() - started
        finally:
            over_http.close()
            in_process.close()
        inline_recorder = SpanRecorder()
        with instrument(inline_recorder):
            started = perf_counter()
            for request in requests:
                execute_request(WorkPayload(request))
            traced = perf_counter() - started
        self.recorders.append(inline_recorder)
        count = len(payloads)
        legs = {
            "payloads": payloads,
            "parse_ms": 1e3 * parse / count,
            "fingerprint_ms": 1e3 * fingerprint / count,
            "worker_ms": 1e3 * worker / count,
            "trace_overhead": traced / worker - 1.0,
            "supervision_ms": 1e3 * (supervised - worker) / count,
            "transport_ms": (
                1e3 * (http_seconds - local_seconds) / (count * (repeats // 10))
            ),
        }
        return legs, inline_recorder


def _inline_result(request) -> Dict[str, Any]:
    return execute_request(WorkPayload(request))["result"]


WORKLOADS = {
    workload.name: workload
    for workload in (Table1Batch, LargeNets, ServiceHttp, PowerCapped)
}
