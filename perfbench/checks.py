"""Correctness checks, run untimed between or after the measured calls.

Every solved net is re-derived by the certificate checker
(``repro.verify.certificate.certify_claim``), which shares no code with
the DP engines, against the physics the net was optimized under:
the estimation-mode coupling for noise-aware objectives, silent
coupling for DelayOpt, plus the default power model for power-aware
objectives.  Power-capped answers must also sit under their cap.
DelayOpt answers are also evaluated under the estimation-mode coupling,
to count how many of them are free of noise violations.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.library.power import default_power_model
from repro.library.technology import default_technology
from repro.noise.coupling import CouplingModel
from repro.verify.certificate import certify_claim, evaluate_assignment

from harness import Answer, Measurement

#: relative slack on the power-cap comparison (float round-off only).
CAP_TOLERANCE = 1e-9


def check_answers(answers: Sequence[Answer]) -> Tuple[List[str], List[bool]]:
    """Certify every answer.

    Returns the violations found (empty when all answers hold) and, for
    each answer, whether it is free of noise violations under the
    estimation-mode coupling, whatever objective produced it.
    """
    estimation = CouplingModel.estimation_mode(default_technology())
    silent = CouplingModel.silent()
    power_model = default_power_model()
    violations: List[str] = []
    noise_clean: List[bool] = []
    for answer in answers:
        objective = answer.objective
        power_aware = objective.power_aware
        tree = answer.tree()
        certificate = certify_claim(
            tree,
            answer.assignment,
            estimation if objective.noise_aware else silent,
            claimed_slack=answer.slack,
            claimed_noise_feasible=answer.noise_feasible,
            claimed_buffer_count=answer.buffer_count,
            require_noise=objective.noise_aware,
            claimed_power=answer.power if power_aware else None,
            power_model=power_model if power_aware else None,
        )
        violations.extend(
            f"{answer.name}: {violation.describe()}"
            for violation in certificate.violations
        )
        if objective.noise_aware:
            noise_clean.append(certificate.noise_feasible)
        else:
            noise_clean.append(evaluate_assignment(
                tree, answer.assignment, estimation
            ).noise_feasible)
        if answer.power_cap is not None:
            limit = answer.power_cap * (1.0 + CAP_TOLERANCE)
            for label, power in (
                ("claimed", answer.power), ("re-derived", certificate.power)
            ):
                if power is None or power > limit:
                    violations.append(
                        f"{answer.name}: {label} power {power!r} W exceeds "
                        f"the cap {answer.power_cap!r} W"
                    )
    return violations, noise_clean


def settle(measurement: Measurement) -> None:
    """Check the measurement's pending answers and keep only what the
    metrics need, so answers do not pile up in memory during a run."""
    answers = measurement.answers
    if not answers:
        return
    if measurement.plant_bug:
        plant_wrong_answer(answers[0])
        measurement.plant_bug = False
    violations, noise_clean = check_answers(answers)
    measurement.violations.extend(violations)
    if measurement.sampling:
        measurement.noise_clean.extend(noise_clean)
        measurement.buffers.extend(answer.buffer_count for answer in answers)
        measurement.slacks.extend(answer.slack for answer in answers)
    measurement.answers = []


def plant_wrong_answer(answer: Answer) -> None:
    """Tamper with an answer so a working check must refuse it: a
    power-capped answer gets a power claim over its cap, any other
    answer a slack claim 1 ps better than it is."""
    if answer.power_cap is not None:
        answer.power = answer.power_cap * 1.01
    else:
        answer.slack += 1e-12
