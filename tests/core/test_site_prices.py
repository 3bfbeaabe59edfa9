"""The ``DPOptions.site_prices`` hook: validation, both engines,
bit-identity of the zero-price path, and the planted stale-price mutant.

``site_prices`` is the seam the fleet coordinator threads Lagrangian
congestion prices through (see ``repro.fleet``); these tests pin its
core contracts *at the DP layer*, independent of any coordinator:

* pricing a node makes buffering there strictly less attractive — a
  large enough price drives the chosen count to zero in every engine;
* absent, empty, and all-zero price maps are the same reference run
  bit-for-bit (the coordinator's round-0 ≡ uncoordinated-batch guarantee rests on
  this);
* the lishi engine stays semantically equivalent under prices, and the
  harness proves it can catch a stale-``site_prices`` engine (one that
  silently optimizes under the previous call's prices);
* the ECO frontier cache context changes with effective prices and only
  with effective prices.
"""

import pathlib
import sys

import pytest

_HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE))
from equivalence import ABS_TOL, assert_priced_equivalence  # noqa: E402

from repro import (  # noqa: E402
    CouplingModel,
    DPOptions,
    Objective,
    default_buffer_library,
    default_technology,
    run_dp,
)
from repro.core.eco import context_key  # noqa: E402
from repro.units import PS  # noqa: E402
from repro.verify.treegen import seeded_tree  # noqa: E402

LIBRARY = default_buffer_library()
SILENT = CouplingModel.silent()
COUPLING = CouplingModel.estimation_mode(default_technology())
MAX_SLACK = Objective(selection="max-slack")

#: seeds whose unpriced delay-mode optimum inserts >= 2 buffers over
#: >= 2 distinct feasible sites (verified; pricing has room to bite).
BUFFERED_SEEDS = (0, 5, 8, 10, 11, 16, 18)


def _sites(tree):
    return [n.name for n in tree.nodes() if n.is_internal and n.feasible]


class TestValidation:
    def test_rejects_non_mapping(self):
        with pytest.raises(ValueError, match="site_prices"):
            DPOptions(site_prices=[("n", 1.0)])

    def test_rejects_non_string_keys(self):
        with pytest.raises(ValueError, match="node names"):
            DPOptions(site_prices={3: 1.0})

    def test_rejects_non_numeric_prices(self):
        with pytest.raises(ValueError, match="number"):
            DPOptions(site_prices={"n": "free"})
        with pytest.raises(ValueError, match="number"):
            DPOptions(site_prices={"n": True})

    def test_rejects_negative_and_non_finite_prices(self):
        with pytest.raises(ValueError, match="finite"):
            DPOptions(site_prices={"n": -1.0})
        with pytest.raises(ValueError, match="finite"):
            DPOptions(site_prices={"n": float("inf")})
        with pytest.raises(ValueError, match="finite"):
            DPOptions(site_prices={"n": float("nan")})


class TestEnginesHonorPrices:
    @pytest.mark.parametrize("engine", ["reference", "lishi"])
    @pytest.mark.parametrize("seed", BUFFERED_SEEDS[:3])
    def test_prohibitive_price_empties_the_solution(self, engine, seed):
        """A price dwarfing any achievable delay gain zeroes the count."""
        tree = seeded_tree(seed, max_internal=3, with_rats=True)
        prices = {name: 1.0 for name in _sites(tree)}  # 1 s >> ns slacks
        result = run_dp(
            tree, LIBRARY, SILENT,
            DPOptions(engine=engine, site_prices=prices),
        )
        assert result.select(MAX_SLACK).buffer_count == 0

    @pytest.mark.parametrize("engine", ["reference", "lishi"])
    def test_moderate_price_lowers_priced_slack(self, engine):
        """Buffered outcomes pay — never gain — under prices, and the
        critical path pays strictly.

        Penalties on non-critical branches are absorbed by the min at
        merges, so per-count equality is legal; a coordinator-relevant
        price must still show up *somewhere* (on seed 0 the top count's
        critical path is priced — pinned as a strict decrease).
        """
        tree = seeded_tree(0, max_internal=3, with_rats=True)
        prices = {name: 50 * PS for name in _sites(tree)}
        plain = run_dp(tree, LIBRARY, SILENT, DPOptions(engine=engine))
        priced = run_dp(
            tree, LIBRARY, SILENT,
            DPOptions(engine=engine, site_prices=prices),
        )
        plain_map = {o.buffer_count: o.slack for o in plain.outcomes}
        strict = 0
        for outcome in priced.outcomes:
            if outcome.buffer_count not in plain_map:
                continue
            plain_slack = plain_map[outcome.buffer_count]
            assert outcome.slack <= plain_slack + ABS_TOL, (
                f"{engine}: count {outcome.buffer_count} gained "
                "slack from being priced"
            )
            if outcome.slack < plain_slack - ABS_TOL:
                strict += 1
        assert strict >= 1, f"{engine}: no outcome paid any penalty"


class TestZeroPriceBitIdentity:
    @pytest.mark.parametrize("engine", ["reference"])
    @pytest.mark.parametrize("empty", [None, {}])
    def test_absent_and_empty_identical(self, engine, empty):
        tree = seeded_tree(8, max_internal=3, with_rats=True)
        plain = run_dp(tree, LIBRARY, SILENT, DPOptions(engine=engine))
        priced = run_dp(
            tree, LIBRARY, SILENT,
            DPOptions(engine=engine, site_prices=empty),
        )
        assert _signature(plain) == _signature(priced)

    @pytest.mark.parametrize("engine", ["reference"])
    def test_all_zero_prices_identical(self, engine):
        """``x - 0.0`` is IEEE bit-identical to ``x``: a zero price map
        must reproduce the unpriced run exactly, not just closely."""
        tree = seeded_tree(8, max_internal=3, with_rats=True)
        zeros = {name: 0.0 for name in _sites(tree)}
        plain = run_dp(tree, LIBRARY, SILENT, DPOptions(engine=engine))
        priced = run_dp(
            tree, LIBRARY, SILENT,
            DPOptions(engine=engine, site_prices=zeros),
        )
        assert _signature(plain) == _signature(priced)


def _signature(result):
    return tuple(
        (
            o.buffer_count,
            o.slack,
            o.noise_feasible,
            tuple(sorted(
                (i.node, i.buffer.name) for i in o.insertions
            )),
        )
        for o in result.outcomes
    )


class TestLishiPricedEquivalence:
    @pytest.mark.parametrize("seed", BUFFERED_SEEDS)
    def test_delay_mode(self, seed):
        tree = seeded_tree(seed, max_internal=3, with_rats=True)
        prices = {
            name: (10 + 7 * i) * PS
            for i, name in enumerate(sorted(_sites(tree)))
        }
        assert_priced_equivalence(tree, LIBRARY, prices)

    @pytest.mark.parametrize("seed", BUFFERED_SEEDS[:3])
    def test_noise_mode(self, seed):
        tree = seeded_tree(seed, max_internal=3, with_rats=True)
        prices = {name: 25 * PS for name in _sites(tree)}
        assert_priced_equivalence(
            tree, LIBRARY, prices, coupling=COUPLING, noise_aware=True
        )

    def test_stale_price_mutant_is_caught(self):
        """A lishi runner that optimizes under the *previous* call's
        prices (here: none at all) must fail the priced harness."""
        tree = seeded_tree(0, max_internal=3, with_rats=True)
        prices = {name: 100 * PS for name in _sites(tree)}

        def stale_lishi(tree, library, coupling, options):
            stale = DPOptions(
                engine=options.engine,
                noise_aware=options.noise_aware,
                site_prices=None,  # the bug: this call's prices dropped
            )
            return run_dp(tree, library, coupling, stale)

        with pytest.raises(AssertionError, match="priced"):
            assert_priced_equivalence(
                tree, LIBRARY, prices, engine_callable=stale_lishi
            )


class TestEcoContextKey:
    def test_effective_prices_change_the_key(self):
        options = DPOptions()
        priced = DPOptions(site_prices={"n1": 10 * PS})
        assert context_key(LIBRARY, SILENT, options) != context_key(
            LIBRARY, SILENT, priced
        )

    def test_zero_prices_share_the_unpriced_key(self):
        """Zero prices are bit-identical to absent ones, so caching them
        under the same context is correct — and asserted, so nobody
        'fixes' it into a spurious cache split."""
        options = DPOptions()
        zeroed = DPOptions(site_prices={"n1": 0.0})
        empty = DPOptions(site_prices={})
        assert context_key(LIBRARY, SILENT, options) == context_key(
            LIBRARY, SILENT, zeroed
        )
        assert context_key(LIBRARY, SILENT, options) == context_key(
            LIBRARY, SILENT, empty
        )

    def test_different_prices_differ(self):
        one = DPOptions(site_prices={"n1": 10 * PS})
        other = DPOptions(site_prices={"n1": 20 * PS})
        assert context_key(LIBRARY, SILENT, one) != context_key(
            LIBRARY, SILENT, other
        )
