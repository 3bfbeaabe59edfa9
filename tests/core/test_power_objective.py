"""The power accumulator and its selections, across both engines.

The tentpole contracts pinned here, at the DP layer:

* ``DPOptions.power`` is a strict opt-in: a ``power=None`` run is the
  pre-power code path, evidenced by the *zero-model identity* — a model
  whose powers are all zero produces byte-identical outcomes on the
  reference engine.  The lishi engine's
  power key splits float ties differently even at zero, so its
  power-off bar is determinism plus semantic equivalence — the same
  discipline as ``site_prices`` (see ``test_site_prices.py``).
* With a live model, the lishi engine passes the three-layer power harness
  (:func:`equivalence.assert_power_equivalence`): selection
  equivalence, independent certificate power re-derivation, exhaustive
  oracle power legs.
* The selection surface — ``min_power`` / ``power_capped`` /
  ``pareto_outcomes`` / ``select(Objective(...))`` — implements the
  documented tie-breaks and refuses to answer without a power model.
* The harness catches a planted power-underaccumulating engine (the
  bug class only the certificate's re-derivation can see).
"""

import math
import pathlib
import sys

import pytest

_HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE))
from equivalence import (  # noqa: E402
    assert_outcomes_equivalent,
    assert_power_equivalence,
)

from repro import (  # noqa: E402
    CouplingModel,
    DPOptions,
    default_buffer_library,
    default_technology,
    run_dp,
)
from repro.core.objective import Objective  # noqa: E402
from repro.errors import InfeasibleError  # noqa: E402
from repro.library.power import PowerModel, default_power_model  # noqa: E402
from repro.verify import recompute_power  # noqa: E402
from repro.verify.treegen import seeded_tree  # noqa: E402

LIBRARY = default_buffer_library()
SILENT = CouplingModel.silent()
COUPLING = CouplingModel.estimation_mode(default_technology())
POWER = default_power_model()

ENGINES = ("reference", "lishi")
#: the engines that promise byte-equal results under a zero power model.
BIT_ENGINES = ("reference",)

#: the acceptance fleet: 200 seeded nets for the power-off identity.
FLEET_SEEDS = range(200)


class ZeroPowerModel:
    """Duck-typed model whose every power is exactly zero."""

    def wire_power(self, capacitance):
        return 0.0

    def buffer_power(self, buffer):
        return 0.0


def _signature(result, with_power=False):
    return tuple(
        (
            o.buffer_count,
            o.slack,
            o.noise_feasible,
            o.power if with_power else None,
            tuple(sorted(
                (i.node, i.buffer.name) for i in o.insertions
            )),
        )
        for o in result.outcomes
    )


def _run(tree, engine, noise_aware=False, power=None, **kwargs):
    coupling = COUPLING if noise_aware else SILENT
    return run_dp(tree, LIBRARY, coupling, DPOptions(
        engine=engine, noise_aware=noise_aware, power=power, **kwargs
    ))


class TestOptionsValidation:
    def test_power_must_expose_the_model_surface(self):
        with pytest.raises(ValueError, match="power"):
            DPOptions(power=object())

    def test_power_is_incompatible_with_sizing(self):
        from repro.core.wire_sizing import WireSizingSpec

        with pytest.raises(ValueError, match="sizing"):
            DPOptions(power=POWER, sizing=WireSizingSpec())


class TestPowerAccumulator:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("noise_aware", [False, True])
    def test_every_outcome_power_matches_the_re_derivation(
        self, engine, noise_aware
    ):
        """Engine-accumulated power == the independent separable sum."""
        for seed in range(8):
            tree = seeded_tree(seed, max_internal=4, with_rats=True)
            result = _run(tree, engine, noise_aware=noise_aware, power=POWER)
            for outcome in result.outcomes:
                assignment = {
                    i.node: i.buffer for i in outcome.insertions
                }
                expected = recompute_power(tree, assignment, POWER)
                assert math.isclose(
                    outcome.power, expected, rel_tol=1e-9, abs_tol=0.0
                ), (
                    f"seed {seed} [{engine}]: accumulated "
                    f"{outcome.power!r}, re-derived {expected!r}"
                )

    def test_power_off_outcomes_carry_exactly_zero(self):
        # The documented power-off sentinel: DPOutcome.power is exactly
        # 0.0 (not garbage, not the model's value) without a model.
        tree = seeded_tree(0, max_internal=3, with_rats=True)
        result = _run(tree, "reference")
        assert result.outcomes
        assert all(o.power == 0.0 for o in result.outcomes)


class TestPowerOffFleetIdentity:
    """The acceptance gate: power-off bit-identity on a 200-net fleet."""

    def test_200_net_power_off_signatures(self):
        for seed in FLEET_SEEDS:
            noise_aware = bool(seed % 2)
            tree = seeded_tree(seed, max_internal=4, with_rats=True)
            runs = {
                engine: _run(tree, engine, noise_aware=noise_aware)
                for engine in ENGINES
            }
            # Zero-model identity on the bit-identical engines: the
            # power machinery at zero is byte-invisible.
            for engine in BIT_ENGINES:
                zero = _run(tree, engine, noise_aware=noise_aware,
                            power=ZeroPowerModel())
                assert _signature(zero) == _signature(runs[engine]), (
                    f"seed {seed} [{engine}]: zero power model changed "
                    "the power-off result"
                )
                assert all(o.power == 0.0 for o in zero.outcomes)
            # Lishi power-off: deterministic and semantically equivalent.
            again = _run(tree, "lishi", noise_aware=noise_aware)
            assert _signature(runs["lishi"]) == _signature(again), (
                f"seed {seed}: lishi power-off run is not deterministic"
            )
            assert_outcomes_equivalent(
                runs["reference"], runs["lishi"],
                f"seed {seed} [lishi, power-off]",
            )


class TestLishiPowerEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    def test_delay_mode(self, seed):
        tree = seeded_tree(seed, max_internal=3, with_rats=True)
        assert_power_equivalence(tree, LIBRARY, POWER)

    @pytest.mark.parametrize("seed", range(6))
    def test_noise_mode(self, seed):
        tree = seeded_tree(seed, max_internal=3, with_rats=True)
        assert_power_equivalence(
            tree, LIBRARY, POWER, coupling=COUPLING, noise_aware=True
        )

    def test_underaccumulating_mutant_is_caught(self):
        """Halving the accumulated power must fail the certificate
        layer — the selections still agree (the ordering is preserved),
        so only the independent re-derivation can see this bug."""
        from dataclasses import replace

        def understating_lishi(tree, library, coupling, options):
            result = run_dp(tree, library, coupling, options)
            return replace(result, outcomes=tuple(
                replace(o, power=o.power * 0.5) for o in result.outcomes
            ))

        caught = 0
        for seed in range(6):
            tree = seeded_tree(seed, max_internal=3, with_rats=True)
            try:
                assert_power_equivalence(
                    tree, LIBRARY, POWER,
                    engine_callable=understating_lishi,
                )
            except AssertionError as exc:
                assert "power" in str(exc)
                caught += 1
        assert caught >= 4, f"mutant escaped on {6 - caught} of 6 nets"


def _buffered_power_result(engine="reference", noise_aware=False):
    """A seeded run with at least two distinct outcome powers."""
    for seed in range(40):
        tree = seeded_tree(seed, max_internal=4, with_rats=True)
        result = _run(tree, engine, noise_aware=noise_aware, power=POWER)
        if len({o.power for o in result.outcomes}) >= 2:
            return result
    raise AssertionError("no seeded net produced a multi-power frontier")


class TestPowerSelections:
    def test_selections_require_a_power_model(self):
        tree = seeded_tree(0, max_internal=3, with_rats=True)
        result = _run(tree, "reference")
        for picker in (
            lambda: result.min_power(),
            lambda: result.power_capped(1.0),
            lambda: result.pareto_outcomes(),
        ):
            with pytest.raises(ValueError, match="power-model"):
                picker()

    def test_min_power_meets_the_floor_with_least_power(self):
        result = _buffered_power_result()
        meeting = [o for o in result.outcomes if o.slack >= 0.0]
        if not meeting:
            pytest.skip("seeded frontier has no slack-meeting outcome")
        chosen = result.min_power(min_slack=0.0)
        assert chosen.slack >= 0.0
        assert chosen.power == min(o.power for o in meeting)

    def test_min_power_falls_back_to_max_slack(self):
        result = _buffered_power_result()
        impossible = max(o.slack for o in result.outcomes) + 1.0
        chosen = result.min_power(min_slack=impossible)
        assert chosen.slack == max(o.slack for o in result.outcomes)

    def test_power_capped_is_a_hard_cap(self):
        result = _buffered_power_result()
        powers = sorted({o.power for o in result.outcomes})
        cap = powers[0]
        chosen = result.power_capped(cap)
        assert chosen.power <= cap
        within = [o for o in result.outcomes if o.power <= cap]
        assert chosen.slack == max(o.slack for o in within)
        with pytest.raises(InfeasibleError, match="power"):
            result.power_capped(powers[0] * 0.5 - 1e-30)

    def test_pareto_outcomes_are_nondominated(self):
        result = _buffered_power_result()
        frontier = result.pareto_outcomes()
        assert frontier, "empty pareto frontier"
        # Best-slack-first ordering.
        slacks = [o.slack for o in frontier]
        assert slacks == sorted(slacks, reverse=True)
        for a in frontier:
            for b in result.outcomes:
                if b is a:
                    continue
                dominates = (
                    b.slack >= a.slack
                    and b.power <= a.power
                    and b.buffer_count <= a.buffer_count
                    and (
                        b.slack > a.slack
                        or b.power < a.power
                        or b.buffer_count < a.buffer_count
                    )
                )
                assert not dominates, (
                    f"frontier outcome {a} dominated by {b}"
                )

    def test_select_dispatches_the_power_rules(self):
        result = _buffered_power_result()
        powers = sorted({o.power for o in result.outcomes})
        assert result.select(
            Objective(mode="delay", selection="min-power")
        ) == result.min_power(min_slack=0.0)
        assert result.select(Objective(
            mode="delay", selection="power-capped", power_cap=powers[-1]
        )) == result.power_capped(powers[-1])
        assert result.select(
            Objective(mode="delay", selection="pareto")
        ) == result.pareto_outcomes()
