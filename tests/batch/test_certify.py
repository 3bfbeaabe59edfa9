"""Batch ``--certify``: independent re-derivation wired into the fleet.

With ``certify=True`` every selected outcome is re-derived by the
certificate checker from :mod:`repro.verify`; a refuted claim becomes a
structured ``CertificateError`` failure in the ``"certify"`` phase
rather than a silently wrong table entry.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import CouplingModel, two_pin_net
from repro.batch import BatchConfig, BatchOptimizer, optimize_net
from repro.batch.checkpoint import result_from_json, result_to_json
from repro.cli import main as cli_main
from repro.core.objective import Objective
from repro.errors import CertificateError
from repro.library import (
    DriverCell,
    default_buffer_library,
    default_technology,
)
from repro.units import FF, PS, UM

TECH = default_technology()
COUPLING = CouplingModel.estimation_mode(TECH)
LIBRARY = default_buffer_library()


def _net(name="certify_host", length=6000 * UM):
    return two_pin_net(
        TECH, length,
        DriverCell("drv", resistance=250.0, intrinsic_delay=30 * PS),
        sink_capacitance=20 * FF, noise_margin=0.8,
        required_arrival=2000 * PS, name=name,
    )


class TestHappyPath:
    @pytest.mark.parametrize("mode", ["buffopt", "delay"])
    def test_all_nets_certify(self, mode):
        optimizer = BatchOptimizer(
            config=BatchConfig(objective=Objective.legacy(mode), certify=True)
        )
        report = optimizer.optimize([_net(f"n{i}") for i in range(3)])
        assert report.failure_count == 0
        assert all(r.certified is True for r in report.results)
        assert report.certified_count == 3
        assert "certified: 3/3" in report.describe()

    def test_certify_off_leaves_field_unset(self):
        report = BatchOptimizer(config=BatchConfig()).optimize([_net()])
        assert report.results[0].certified is None
        assert "certified:" not in report.describe()


class TestTaxonomy:
    def test_refuted_claim_becomes_certify_failure(self, monkeypatch):
        import repro.verify.certificate as certificate

        def refute(*args, **kwargs):
            raise CertificateError("injected refutation")

        monkeypatch.setattr(certificate, "certify_or_raise", refute)
        result = optimize_net(
            _net(), LIBRARY, COUPLING, BatchConfig(certify=True)
        )
        assert result.certified is False
        assert result.buffer_count is None  # refuted outcome is dropped
        assert result.failure is not None
        assert result.failure.phase == "certify"
        assert result.failure.error == "CertificateError"

    def test_optimize_failures_skip_certification(self):
        # an infeasible net never reaches the certifier
        hopeless = two_pin_net(
            TECH, 8000 * UM,
            DriverCell("drv", resistance=250.0, intrinsic_delay=30 * PS),
            sink_capacitance=20 * FF, noise_margin=1e-9,
            required_arrival=2000 * PS, name="hopeless",
        )
        result = optimize_net(
            hopeless, LIBRARY, COUPLING, BatchConfig(certify=True)
        )
        assert result.failure is not None
        assert result.failure.phase == "optimize"
        assert result.certified is None


class TestPersistence:
    def test_certified_is_excluded_from_signature(self):
        result = optimize_net(
            _net(), LIBRARY, COUPLING, BatchConfig(certify=True)
        )
        assert result.certified is True
        stripped = dataclasses.replace(result, certified=None)
        assert result.signature() == stripped.signature()

    def test_certified_round_trips_through_checkpoint(self):
        result = optimize_net(
            _net(), LIBRARY, COUPLING, BatchConfig(certify=True)
        )
        restored = result_from_json(result_to_json(result), LIBRARY)
        assert restored.certified is True
        uncertified = optimize_net(
            _net(), LIBRARY, COUPLING, BatchConfig()
        )
        assert result_from_json(
            result_to_json(uncertified), LIBRARY
        ).certified is None

    def test_certify_flag_changes_fingerprint(self):
        plain = BatchOptimizer(config=BatchConfig())
        auditing = BatchOptimizer(config=BatchConfig(certify=True))
        assert plain._fingerprint() != auditing._fingerprint()
        assert auditing._fingerprint()["certify"] is True


class TestCli:
    def test_batch_certify_smoke(self, capsys):
        code = cli_main(
            ["batch", "--nets", "4", "--seed", "3", "--certify"]
        )
        assert code == 0
        assert "certified: 4/4" in capsys.readouterr().out
