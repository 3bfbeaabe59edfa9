"""The unified Objective API and its compatibility with stored state.

Contracts pinned here:

* the :class:`~repro.core.objective.Objective` grammar —
  ``parse``/``describe`` round-trips, ``to_json``/``from_json`` with
  unknown-key rejection, the exact legacy mapping;
* every config defaults to ``Objective()``, the legacy buffopt
  objective;
* ``BatchConfig`` rejects the ``pareto`` selection;
* golden compatibility: a legacy-shaped objective still writes the
  exact pre-objective batch and fleet checkpoint fingerprints, and a
  protocol-v1 request keeps its cache fingerprint — literals captured
  before the legacy ``mode=`` spelling was removed;
* no package path warns: a v1 service request and a population run
  complete under ``DeprecationWarning``-as-error.
"""

import json
import warnings

import pytest

from repro.api import SessionOptions
from repro.batch.optimizer import BatchConfig, BatchOptimizer
from repro.core.objective import (
    OBJECTIVE_MODES,
    POWER_SELECTIONS,
    SELECTION_RULES,
    Objective,
)
from repro.errors import WorkloadError
from repro.experiments import default_experiment
from repro.experiments.harness import run_population
from repro.fleet import FleetConfig, FleetCoordinator
from repro.service.loadtest import LoadTestConfig
from repro.service.protocol import parse_request
from repro.service.worker import WorkPayload, execute_request
from repro.workloads import WorkloadConfig, population_specs

WORKLOAD = WorkloadConfig(nets=4, seed=11)

#: a protocol-v1 request: top-level ``mode``, no ``objective`` block.
V1_REQUEST = {
    "net": {"name": "golden", "sink_count": 3, "span": 0.001, "seed": 1},
    "mode": "delay",
}


class TestGrammar:
    def test_bare_mode_is_the_legacy_objective(self):
        for mode in OBJECTIVE_MODES:
            assert Objective.parse(mode) == Objective.legacy(mode)
            assert Objective.parse(mode).is_legacy()

    @pytest.mark.parametrize("spec", [
        "buffopt/min-power",
        "delay/power-capped/power_cap=0.0002",
        "delay/max-slack/min_slack=0.1/require_noise=false",
        "buffopt/pareto",
        "buffopt/fewest-buffers/min_slack=1e-11",
    ])
    def test_describe_parse_round_trip(self, spec):
        objective = Objective.parse(spec)
        assert Objective.parse(objective.describe()) == objective

    @pytest.mark.parametrize("bad", [
        "",
        "noise",
        "buffopt/min-power/max-slack",
        "buffopt/unknown-rule",
        "buffopt/min_slack=abc",
        "buffopt/require_noise=maybe",
        "buffopt/frobnicate=1",
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            Objective.parse(bad)

    def test_json_round_trip_and_unknown_key_rejection(self):
        objective = Objective(
            mode="buffopt", selection="power-capped", power_cap=2e-4
        )
        payload = objective.to_json()
        assert Objective.from_json(payload) == objective
        payload["surprise"] = 1
        with pytest.raises(ValueError, match="surprise"):
            Objective.from_json(payload)

    @pytest.mark.parametrize("kwargs, match", [
        (dict(mode="warp"), "mode"),
        (dict(mode="delay", selection="sparkle"), "selection"),
        (dict(mode="delay", min_slack="soon"), "min_slack"),
        (dict(mode="delay", selection="power-capped",
              power_cap="lots"), "power_cap"),
        (dict(mode="delay", selection="power-capped",
              power_cap=-1.0), "power_cap"),
        (dict(mode="delay", selection="min-power",
              power_cap=1.0), "power_cap"),
        (dict(mode="delay", selection="power-capped"), "power_cap"),
        (dict(mode="delay", require_noise="yes"), "require_noise"),
    ])
    def test_constructor_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            Objective(**kwargs)

    def test_legacy_rejects_unknown_modes(self):
        with pytest.raises(ValueError, match="legacy"):
            Objective.legacy("noise")

    def test_from_json_validates_field_types(self):
        with pytest.raises(ValueError, match="min_slack"):
            Objective.from_json(
                {"mode": "delay", "selection": "max-slack",
                 "min_slack": "abc"}
            )
        with pytest.raises(ValueError, match="require_noise"):
            Objective.from_json(
                {"mode": "delay", "selection": "max-slack",
                 "require_noise": "sometimes"}
            )
        with pytest.raises(ValueError):
            Objective.from_json("delay/max-slack")

    def test_power_selections_are_flagged_power_aware(self):
        for selection in SELECTION_RULES:
            objective = Objective(
                mode="delay",
                selection=selection,
                power_cap=1.0 if selection == "power-capped" else None,
            )
            assert objective.power_aware == (selection in POWER_SELECTIONS)


class TestResolveObjective:
    def test_neither_defaults_to_buffopt(self):
        assert Objective() == Objective.legacy("buffopt")
        for config in (SessionOptions(), BatchConfig(), LoadTestConfig()):
            assert config.objective == Objective.legacy("buffopt")


class TestBatchConfigObjective:
    def test_pareto_objective_rejected(self):
        with pytest.raises(WorkloadError, match="pareto"):
            BatchConfig(
                objective=Objective(mode="buffopt", selection="pareto")
            )

    def test_legacy_objectives_keep_the_pre_objective_fingerprint(self):
        """Checkpoints, fleet journals and service caches written before
        the Objective API must still match: legacy-shaped objectives
        emit the exact old schemas, pinned as literals."""
        delay = Objective.legacy("delay")
        assert BatchOptimizer(
            config=BatchConfig(objective=delay), workload=WORKLOAD
        )._fingerprint() == {
            "mode": "delay",
            "max_segment_length": 0.0005,
            "max_buffers": None,
            "prune": "timing",
            "min_slack": 0.0,
            "certify": False,
            "workload_seed": 11,
            "workload_nets": 4,
        }

        fleet = FleetCoordinator(
            config=FleetConfig(batch=BatchConfig(objective=delay)),
            workload=WORKLOAD,
        )
        header = fleet._fingerprint(
            fleet.site_map_for(population_specs(WORKLOAD))
        )
        assert json.dumps(header, sort_keys=True) == (
            '{"capacities": [2, 2, 2, 2, 2, 2, 2, 2], "certify": false, '
            '"families": 1, "growth": 2.0, "max_buffers": null, '
            '"max_rounds": 25, "max_segment_length": 0.0005, '
            '"min_slack": 0.0, "mode": "delay", "patience": 2, '
            '"prune": "timing", "salt": "6c24ee0841e5a196", '
            '"sites_per_family": 8, "step": 1e-12, "workload_seed": 11}'
        )

        assert parse_request(V1_REQUEST).fingerprint() == (
            "f33b7e29f444ff9444b04c1cce64fa133e56828a1be6e30d0e35fffe0501bcc3"
        )

        # any other objective is part of the solution and joins the key
        modern = BatchOptimizer(
            config=BatchConfig(objective=Objective(
                mode="delay", selection="min-power"
            )),
            workload=WORKLOAD,
        )._fingerprint()
        assert modern["objective"] == {
            "mode": "delay", "selection": "min-power"
        }


class TestNoDeprecationWarnings:
    """The package's own paths run on the one objective surface."""

    def test_v1_service_request(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            record = execute_request(WorkPayload(parse_request(V1_REQUEST)))
        assert record["result"]["ok"]

    def test_population_run(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run = run_population(default_experiment(nets=2), ks=(1,))
        assert len(run.records) == 2
