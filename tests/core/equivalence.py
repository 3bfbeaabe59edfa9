"""Semantic-equivalence harness for engines that drop bit-identity.

The lishi engine deliberately gives up bit-identity with the
reference — lazy offsets reassociate float arithmetic, eager eviction
and hull-mediated buffering change which of several equally-good
candidates survives — so its correctness bar is **semantic
equivalence**, asserted by three independent layers:

1. :func:`assert_outcomes_equivalent` — the *selected outcomes* (the
   per-count frontier the caller actually consumes) must match the
   reference's: the same buffer-count set, each count's slack equal
   within :data:`REL_TOL`/:data:`ABS_TOL`, and the same noise
   feasibility verdicts.  Insertion positions may differ (distinct
   optimal placements with equal slack are legal), slacks may not.
2. :func:`assert_certificate_clean` — every claim is re-derived from
   the physics by the independent certificate checker, so the pair of
   engines cannot drift together into a shared wrong answer.
3. :func:`assert_oracle_optimal` — on small nets, exhaustive
   enumeration confirms nothing optimal was evicted.  This is the layer
   that catches *over-eviction*, which outcome comparison against a
   buggy twin and self-consistent certificates both miss.

:func:`assert_semantic_equivalence` composes the three.  The tolerance
is documented here once: outcome slacks are compared with
``rel_tol=1e-9, abs_tol=1e-12`` (in the repo's slack units), roughly
1e6 ULPs of headroom over the ~1e-15 reassociation drift actually
observed on 500-node chains — tight enough that losing even one
optimal candidate at the 4th significant digit past the drift floor
fails the gate, loose enough that legal float reassociation never does.

This module lives in ``tests/core`` (not a package): import it with the
directory on ``sys.path``, as the engine tests do.
"""

import math

from repro import CouplingModel, DPOptions, run_dp
from repro.errors import InfeasibleError
from repro.verify import (
    certify_result,
    compare_result_to_oracle,
    exhaustive_oracle,
)
from repro.verify.certificate import evaluate_assignment

#: documented slack tolerance for cross-engine outcome comparison.
REL_TOL = 1e-9
ABS_TOL = 1e-12

#: nets up to this many feasible sites get the exhaustive-oracle layer.
ORACLE_MAX_SITES = 6


def outcome_map(result):
    """``{buffer_count: (slack, noise_feasible)}`` for one DP result."""
    return {
        o.buffer_count: (o.slack, o.noise_feasible) for o in result.outcomes
    }


def assert_outcomes_equivalent(reference, other, context=""):
    """Selected outcomes match within the documented float tolerance.

    Candidate *counters* (generated/kept) are deliberately not compared:
    the lishi engine generates far fewer candidates by construction, so
    bit-level population equality is not part of the contract.
    """
    ref_map = outcome_map(reference)
    other_map = outcome_map(other)
    assert ref_map.keys() == other_map.keys(), (
        f"{context}: outcome count sets differ: "
        f"{sorted(ref_map)} vs {sorted(other_map)}"
    )
    for count, (ref_slack, ref_feasible) in ref_map.items():
        other_slack, other_feasible = other_map[count]
        assert math.isclose(
            ref_slack, other_slack, rel_tol=REL_TOL, abs_tol=ABS_TOL
        ), (
            f"{context}: slack diverged at count {count}: "
            f"{ref_slack!r} vs {other_slack!r}"
        )
        assert ref_feasible == other_feasible, (
            f"{context}: noise feasibility diverged at count {count}: "
            f"{ref_feasible} vs {other_feasible}"
        )


def assert_certificate_clean(result, coupling, driver, context=""):
    """The independent certificate re-derives every claim from physics."""
    certificate = certify_result(result, coupling, driver)
    assert certificate.ok, f"{context}: {certificate.describe()}"


def assert_oracle_optimal(
    tree, result, library, coupling, noise_aware, context=""
):
    """Exhaustive enumeration confirms no optimal candidate was evicted."""
    oracle = exhaustive_oracle(
        tree,
        library,
        coupling,
        noise_aware=noise_aware,
        max_buffers=result.options.max_buffers,
        enforce_polarity=result.options.enforce_polarity,
        max_sites=ORACLE_MAX_SITES,
    )
    disagreements = compare_result_to_oracle(
        result, oracle, exact=False, rel_tol=REL_TOL, abs_tol=ABS_TOL
    )
    assert not disagreements, (
        f"{context}: " + "; ".join(d.describe() for d in disagreements)
    )


def oracle_sized(tree):
    """Whether the net is small enough for the exhaustive-oracle layer."""
    sites = sum(1 for n in tree.nodes() if n.is_internal and n.feasible)
    return 1 <= sites <= ORACLE_MAX_SITES


def assert_priced_equivalence(
    tree,
    library,
    site_prices,
    coupling=None,
    engine="lishi",
    engine_callable=None,
    context="",
    **option_kwargs,
):
    """Cross-engine equivalence of the *priced* DP (``site_prices``).

    Priced slacks are compared outcome-for-outcome within the same
    documented tolerance as the unpriced leg; the certificate and
    oracle layers do not apply as-is (they re-derive *physical* slack,
    which a priced run deliberately does not report — branch merges
    absorb non-critical penalties, see ``DPOptions.site_prices``).
    Instead the priced leg anchors each outcome to the physics through
    the sandwich the Lagrangian machinery (``repro.fleet``) depends on:
    the outcome's priced slack ``v`` and the certificate slack of its
    *own* insertions must satisfy ``v <= physical <= v + posted``,
    where ``posted`` is the summed price over the inserted nodes.

    ``engine_callable`` plays the same role as in
    :func:`assert_semantic_equivalence` — the stale-``site_prices``
    planted mutant injects a broken runner through it and the harness
    must throw (staleness surfaces in the cross-engine comparison: the
    honestly-priced reference pays penalties the stale side does not).
    Returns the engine-side priced result.
    """
    if not option_kwargs.get("noise_aware", False):
        coupling = CouplingModel.silent()
    coupling = coupling or CouplingModel.silent()
    context = context or f"{tree.name} [{engine}, priced]"
    reference = run_dp(
        tree, library, coupling,
        DPOptions(
            engine="reference", site_prices=site_prices, **option_kwargs
        ),
    )
    options = DPOptions(engine=engine, site_prices=site_prices,
                        **option_kwargs)
    if engine_callable is not None:
        result = engine_callable(tree, library, coupling, options)
    else:
        result = run_dp(tree, library, coupling, options)
    assert_outcomes_equivalent(reference, result, context)
    for side, priced_result in (("reference", reference), (engine, result)):
        for outcome in priced_result.outcomes:
            assignment = {i.node: i.buffer for i in outcome.insertions}
            physical = evaluate_assignment(
                tree, assignment, coupling,
                check_polarity=option_kwargs.get("enforce_polarity", True),
            ).slack
            posted = sum(
                site_prices.get(node, 0.0) for node in assignment
            )
            slop = ABS_TOL + REL_TOL * abs(physical)
            assert outcome.slack <= physical + slop, (
                f"{context} [{side}]: priced slack {outcome.slack!r} "
                f"exceeds its own assignment's certificate slack "
                f"{physical!r} at count {outcome.buffer_count}"
            )
            assert physical <= outcome.slack + posted + slop, (
                f"{context} [{side}]: certificate slack {physical!r} "
                f"exceeds priced slack {outcome.slack!r} plus the "
                f"posted prices {posted!r} at count {outcome.buffer_count}"
            )
    return result


def _power_selection(result, picker):
    """One power selection as comparable data (or the InfeasibleError)."""
    try:
        outcome = picker(result)
    except InfeasibleError:
        return "infeasible"
    return (outcome.buffer_count, outcome.slack, outcome.power)


def assert_power_selections_equivalent(reference, other, context=""):
    """The power *selections* match within the documented tolerance.

    Power mode relaxes the frontier-shape contract for the lishi
    engine: its ``(slack, power)`` dominance key compares ulp-apart
    values that the reference's merge order collapses, so the raw
    frontiers may split float ties differently.  What callers consume —
    ``min_power`` and ``power_capped`` — must still agree: same buffer
    count, slack and power equal within :data:`REL_TOL`/:data:`ABS_TOL`.
    Caps are probed at the reference's own outcome powers (min, median,
    max), each nudged up one part in 1e12 so a float-equal power an ulp
    above the probe still sits inside the cap on both sides.
    """
    if not reference.outcomes or not other.outcomes:
        assert bool(reference.outcomes) == bool(other.outcomes), (
            f"{context}: one side has an empty frontier: "
            f"{len(reference.outcomes)} vs {len(other.outcomes)} outcomes"
        )
        return
    pickers = [("min_power(0)", lambda r: r.min_power(min_slack=0.0))]
    powers = sorted(o.power for o in reference.outcomes)
    for cap in {powers[0], powers[len(powers) // 2], powers[-1]}:
        nudged = cap * (1.0 + 1e-12) if cap > 0 else cap
        pickers.append((
            f"power_capped({nudged!r})",
            lambda r, c=nudged: r.power_capped(c),
        ))
    for label, picker in pickers:
        ref_pick = _power_selection(reference, picker)
        other_pick = _power_selection(other, picker)
        if ref_pick == "infeasible" or other_pick == "infeasible":
            assert ref_pick == other_pick, (
                f"{context}: {label} feasibility diverged: "
                f"{ref_pick} vs {other_pick}"
            )
            continue
        ref_count, ref_slack, ref_power = ref_pick
        other_count, other_slack, other_power = other_pick
        assert ref_count == other_count, (
            f"{context}: {label} buffer count diverged: "
            f"{ref_count} vs {other_count}"
        )
        for field, ref_value, other_value in (
            ("slack", ref_slack, other_slack),
            ("power", ref_power, other_power),
        ):
            assert math.isclose(
                ref_value, other_value, rel_tol=REL_TOL, abs_tol=ABS_TOL
            ), (
                f"{context}: {label} {field} diverged: "
                f"{ref_value!r} vs {other_value!r}"
            )


def assert_power_equivalence(
    tree,
    library,
    power_model,
    coupling=None,
    engine="lishi",
    engine_callable=None,
    context="",
    **option_kwargs,
):
    """Cross-engine equivalence of the power-carrying DP.

    Three layers, mirroring :func:`assert_semantic_equivalence` but
    holding the *selections* rather than the raw frontier to the float
    tolerance (see :func:`assert_power_selections_equivalent`):

    1. selection equivalence against the reference engine;
    2. the independent certificate, which re-derives every outcome's
       power with the separable model (``repro.verify.recompute_power``)
       — an engine that under-accumulates power cannot pass it;
    3. on oracle-sized nets, the exhaustive power legs of
       :func:`~repro.verify.compare_result_to_oracle` (soundness
       always; exactness in delay mode, where the power DP does a full
       cross merge).

    Returns the engine-side result.
    """
    if not option_kwargs.get("noise_aware", False):
        coupling = CouplingModel.silent()
    coupling = coupling or CouplingModel.silent()
    context = context or f"{tree.name} [{engine}, power]"
    reference = run_dp(
        tree, library, coupling,
        DPOptions(engine="reference", power=power_model, **option_kwargs),
    )
    options = DPOptions(engine=engine, power=power_model, **option_kwargs)
    if engine_callable is not None:
        result = engine_callable(tree, library, coupling, options)
    else:
        result = run_dp(tree, library, coupling, options)
    assert_power_selections_equivalent(reference, result, context)
    assert_certificate_clean(result, coupling, tree.driver, context)
    if oracle_sized(tree) and result.options.sizing is None:
        oracle = exhaustive_oracle(
            tree,
            library,
            coupling,
            noise_aware=option_kwargs.get("noise_aware", False),
            max_buffers=result.options.max_buffers,
            enforce_polarity=result.options.enforce_polarity,
            max_sites=ORACLE_MAX_SITES,
            power_model=power_model,
        )
        disagreements = compare_result_to_oracle(
            result, oracle, exact=False, rel_tol=REL_TOL, abs_tol=ABS_TOL
        )
        assert not disagreements, (
            f"{context}: " + "; ".join(d.describe() for d in disagreements)
        )
    return result


def assert_semantic_equivalence(
    tree,
    library,
    coupling=None,
    engine="lishi",
    engine_callable=None,
    context="",
    **option_kwargs,
):
    """Run ``engine`` against the reference and apply all three layers.

    ``engine_callable`` substitutes a custom runner for the non-reference
    side (the planted-bug self-tests inject broken engines through it);
    it receives ``(tree, library, coupling, options)`` and must return a
    :class:`~repro.core.dp.DPResult`.  Returns the engine-side result so
    callers can stack further checks.

    Delay-mode runs use the silent coupling model regardless of the
    ``coupling`` argument — the repo-wide convention (see the fuzz
    campaign and the oracle suite): delay mode ignores noise by
    construction, so running it under a live coupling model produces
    noise-infeasible selections that the independent certificate and
    oracle rightly reject.
    """
    if not option_kwargs.get("noise_aware", False):
        coupling = CouplingModel.silent()
    coupling = coupling or CouplingModel.silent()
    context = context or f"{tree.name} [{engine}]"
    reference = run_dp(
        tree, library, coupling,
        DPOptions(engine="reference", **option_kwargs),
    )
    options = DPOptions(engine=engine, **option_kwargs)
    if engine_callable is not None:
        result = engine_callable(tree, library, coupling, options)
    else:
        result = run_dp(tree, library, coupling, options)
    assert_outcomes_equivalent(reference, result, context)
    assert_certificate_clean(result, coupling, tree.driver, context)
    if oracle_sized(tree) and result.options.sizing is None:
        assert_oracle_optimal(
            tree,
            result,
            library,
            coupling,
            option_kwargs.get("noise_aware", False),
            context,
        )
    return result
