"""Independent verification: certificates, exhaustive oracles, fuzzing.

Everything in this package re-derives results from the paper's
recurrences without touching the DP engine's internals — it is the
independent witness for :mod:`repro.core`.  Three layers:

* :mod:`.certificate` — recompute ``(C, q, I, NS)`` bottom-up and check
  a solution's claims (slack, noise feasibility, buffer count,
  structure, polarity, frontier shape);
* :mod:`.oracle` — exhaustively enumerate every buffer assignment on a
  small net and compare the DP's selections against the true optimum;
* :mod:`.fuzz` — seeded random-net campaigns running both checks, with
  counterexample shrinking and replayable JSON repro files
  (``buffopt fuzz`` on the command line).

:mod:`.mutations` corrupts known-good solutions to prove the certifier
itself has no blind spots, and :mod:`.treegen` is the seeded random-net
generator shared with the property-test suite.
"""

from .certificate import (
    CertificateViolation,
    NodeCertificate,
    ResultCertificate,
    SolutionCertificate,
    certify_claim,
    certify_or_raise,
    certify_result,
    evaluate_assignment,
    recompute_power,
)
from .fuzz import (
    FUZZ_MODES,
    Counterexample,
    FuzzConfig,
    FuzzReport,
    default_engine,
    engine_for,
    planted_buggy_engine,
    planted_buggy_lishi_engine,
    planted_buggy_power_engine,
    replay_file,
    run_fuzz,
    shrink_tree,
)
from .mutations import (
    MUTATION_CLASSES,
    MutatedClaim,
    certificate_for_mutation,
    mutate_claims,
    surviving_mutations,
)
from .oracle import (
    OracleBoundError,
    OracleDisagreement,
    OracleOutcome,
    OracleResult,
    compare_result_to_oracle,
    exhaustive_oracle,
)
from .treegen import random_chain, random_tree, seeded_tree

__all__ = [
    "CertificateViolation",
    "NodeCertificate",
    "SolutionCertificate",
    "ResultCertificate",
    "certify_claim",
    "certify_or_raise",
    "certify_result",
    "evaluate_assignment",
    "recompute_power",
    "OracleBoundError",
    "OracleDisagreement",
    "OracleOutcome",
    "OracleResult",
    "compare_result_to_oracle",
    "exhaustive_oracle",
    "FUZZ_MODES",
    "FuzzConfig",
    "FuzzReport",
    "Counterexample",
    "default_engine",
    "engine_for",
    "planted_buggy_engine",
    "planted_buggy_lishi_engine",
    "planted_buggy_power_engine",
    "replay_file",
    "run_fuzz",
    "shrink_tree",
    "MUTATION_CLASSES",
    "MutatedClaim",
    "certificate_for_mutation",
    "mutate_claims",
    "surviving_mutations",
    "random_tree",
    "random_chain",
    "seeded_tree",
]
