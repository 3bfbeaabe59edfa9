"""The service wire contract: strict JSON in, deterministic JSON out.

Three jobs live here, all of them about *meaning* rather than transport
(HTTP and stdio both ride this module):

1. **Parsing.**  :func:`parse_request` turns an untrusted JSON payload
   into a frozen :class:`CanonicalRequest` or raises
   :class:`RequestRejected` with an HTTP status and a machine-readable
   error code.  The contract is strict: unknown keys are rejected, not
   ignored — a typo'd ``"max_bufers"`` must fail loudly instead of
   silently optimizing under the default cap.

2. **Canonicalization.**  :meth:`CanonicalRequest.fingerprint` hashes
   the canonical JSON form (sorted keys, every solution-affecting field,
   nothing else) with SHA-256.  The fingerprint is the service twin of
   the batch checkpoint fingerprint: it keys the journal-backed result
   cache, so two requests for the same work — across clients, across
   server restarts — resolve to one computation.  Client-side envelope
   fields (``id``, ``wait``) are deliberately *outside* the canonical
   form; they name the conversation, not the work.

3. **Response shaping.**  :func:`result_payload` projects a
   :class:`~repro.batch.NetResult` onto exactly the fields of
   :meth:`NetResult.signature() <repro.batch.NetResult.signature>` — the
   repo's determinism currency — minus the free-text error message.
   Everything nondeterministic (wall-clock seconds, attempt counts,
   human-readable messages) travels in a separate ``meta`` object, so a
   chaos run's responses can be compared bit-for-bit against a
   fault-free serial run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from ..core.dp import ENGINE_CHOICES
from ..core.objective import OBJECTIVE_MODES, Objective
from ..units import UM

#: bump when the request/response schema changes incompatibly; echoed in
#: every response and recorded in the service journal header.  Version 2
#: added the ``objective`` block (the unified Objective API).
PROTOCOL_VERSION = 2

#: journal protocol versions this build can *read*.  Version 1 journals
#: carry no objective block, which parses as the legacy default — and
#: legacy-shaped requests canonicalize (and therefore fingerprint) to
#: the version-1 form, so resuming a v1 journal is exact, not a best
#: effort.
COMPATIBLE_PROTOCOLS = (1, 2)

#: pruning rules the service accepts.
PRUNE_CHOICES = ("timing", "pareto")

#: default wire segmentation, matching ``repro.api.SessionOptions``.
DEFAULT_SEGMENT_LENGTH = 500 * UM

#: machine-readable error codes carried by :class:`RequestRejected`.
ERROR_CODES = (
    "malformed",     # 400 — unparseable / invalid / unknown-key payload
    "not_found",     # 404 — unknown job id or route
    "method_not_allowed",  # 405 — wrong HTTP verb for the route
    "pending",       # 409 — result asked for before the job finished
    "too_large",     # 413 — request body over the size cap
    "shed",          # 429 — admission queue full, retry later
    "draining",      # 503 — server is draining / not accepting work
    "deadline",      # 504 — synchronous wait timed out (job continues)
)

_STATUS_BY_CODE = {
    "malformed": 400,
    "not_found": 404,
    "method_not_allowed": 405,
    "pending": 409,
    "too_large": 413,
    "shed": 429,
    "draining": 503,
    "deadline": 504,
}


class RequestRejected(Exception):
    """A request the service refuses — control flow, not a server fault.

    Carries everything the transport needs to answer: an HTTP status,
    a code from :data:`ERROR_CODES`, a human-readable message, and an
    optional ``Retry-After`` hint (seconds) for the load-shedding codes.
    Deliberately *not* a :class:`~repro.errors.ReproError`: these are
    per-request outcomes the server survives by design, never
    operational failures (those raise
    :class:`~repro.errors.ServiceError`).
    """

    def __init__(
        self,
        code: str,
        message: str,
        retry_after: Optional[float] = None,
    ):
        if code not in ERROR_CODES:
            raise ValueError(f"unknown rejection code {code!r}")
        super().__init__(message)
        self.code = code
        self.message = message
        self.http_status = _STATUS_BY_CODE[code]
        self.retry_after = retry_after

    # -- factories, one per rejection shape the service produces --------

    @classmethod
    def malformed(cls, message: str) -> "RequestRejected":
        return cls("malformed", message)

    @classmethod
    def not_found(cls, message: str) -> "RequestRejected":
        return cls("not_found", message)

    @classmethod
    def method_not_allowed(cls, message: str) -> "RequestRejected":
        return cls("method_not_allowed", message)

    @classmethod
    def pending(cls, message: str) -> "RequestRejected":
        return cls("pending", message)

    @classmethod
    def too_large(cls, message: str) -> "RequestRejected":
        return cls("too_large", message)

    @classmethod
    def shed(cls, message: str, retry_after: float) -> "RequestRejected":
        return cls("shed", message, retry_after=retry_after)

    @classmethod
    def draining(cls, message: str, retry_after: float) -> "RequestRejected":
        return cls("draining", message, retry_after=retry_after)

    @classmethod
    def deadline(cls, message: str) -> "RequestRejected":
        return cls("deadline", message)


@dataclass(frozen=True)
class CanonicalRequest:
    """One unit of service work, fully normalized.

    Every field here affects the solution (or its telemetry signature),
    so every field participates in :meth:`fingerprint`.  Unlike the
    batch checkpoint fingerprint, ``engine`` is *included*: the service
    cache stores final response payloads, and candidate telemetry in the
    payload is engine-visible, so serving a ``"reference"`` result for
    a ``"lishi"`` request would not be the lie-free cache the protocol
    promises.
    """

    #: net identity and generator inputs (``repro.workloads.NetSpec``).
    net_name: str
    sink_count: int
    span: float
    seed: int
    #: engine policy, mirroring :class:`~repro.batch.BatchConfig`.
    mode: str = "buffopt"
    engine: str = "reference"
    max_buffers: Optional[int] = None
    prune: str = "timing"
    min_slack: float = 0.0
    max_segment_length: Optional[float] = DEFAULT_SEGMENT_LENGTH
    #: per-request guards, mapped onto a fresh
    #: :class:`~repro.core.budget.RunBudget` inside the worker.
    deadline_seconds: Optional[float] = None
    max_candidates: Optional[int] = None
    #: independently certify the outcome before answering.
    certify: bool = False
    #: structured objective (protocol v2).  ``None`` means the legacy
    #: ``mode`` semantics; when set, ``mode`` always equals
    #: ``objective.mode`` (the parser enforces it).
    objective: Optional[Objective] = None

    def to_json(self) -> Dict[str, Any]:
        """The canonical wire form (also what the journal stores).

        Legacy-shaped objectives (``None``, or exactly what the old
        ``mode=`` strings meant) deliberately emit the version-1 form —
        no ``objective`` key — so their fingerprints, and therefore the
        journal-backed cache entries of every pre-objective deployment,
        stay valid.
        """
        body: Dict[str, Any] = {
            "net": {
                "name": self.net_name,
                "sink_count": self.sink_count,
                "span": self.span,
                "seed": self.seed,
            },
            "mode": self.mode,
            "engine": self.engine,
            "max_buffers": self.max_buffers,
            "prune": self.prune,
            "min_slack": self.min_slack,
            "max_segment_length": self.max_segment_length,
            "deadline_seconds": self.deadline_seconds,
            "max_candidates": self.max_candidates,
            "certify": self.certify,
        }
        if self.objective is not None and not self.objective.is_legacy():
            # The objective block carries mode and min_slack itself; the
            # top-level twins are dropped so the canonical form has one
            # unambiguous spelling per request (and the parser's
            # mutual-exclusion rule round-trips).
            del body["mode"]
            del body["min_slack"]
            body["objective"] = self.objective.to_json()
        return body

    def fingerprint(self) -> str:
        """SHA-256 over the canonical JSON form — the cache key."""
        canonical = json.dumps(
            self.to_json(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


#: keys accepted at the top level of a submit payload.  ``id`` and
#: ``wait`` are client-envelope fields, excluded from the canonical form.
_TOP_KEYS = frozenset({
    "net", "mode", "engine", "max_buffers", "prune", "min_slack",
    "max_segment_length", "deadline_seconds", "max_candidates",
    "certify", "objective", "id", "wait",
})

_NET_KEYS = frozenset({"name", "sink_count", "span", "seed"})


def _reject(field: str, message: str) -> RequestRejected:
    return RequestRejected.malformed(f"field {field!r}: {message}")


def _want_str(payload: Mapping[str, Any], field: str, value: Any) -> str:
    if not isinstance(value, str) or not value:
        raise _reject(field, f"expected a non-empty string, got {value!r}")
    return value


def _want_int(field: str, value: Any, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _reject(field, f"expected an integer, got {value!r}")
    if value < minimum:
        raise _reject(field, f"expected an integer >= {minimum}, got {value}")
    return value


def _want_number(field: str, value: Any, *, positive: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _reject(field, f"expected a number, got {value!r}")
    number = float(value)
    if positive and number <= 0:
        raise _reject(field, f"expected a positive number, got {value}")
    if number != number or number in (float("inf"), float("-inf")):
        raise _reject(field, f"expected a finite number, got {value}")
    return number


def _want_bool(field: str, value: Any) -> bool:
    if not isinstance(value, bool):
        raise _reject(field, f"expected a boolean, got {value!r}")
    return value


def _want_choice(field: str, value: Any, choices: Tuple[str, ...]) -> str:
    if not isinstance(value, str) or value not in choices:
        raise _reject(field, f"expected one of {choices}, got {value!r}")
    return value


def parse_request(payload: Any) -> CanonicalRequest:
    """Validate an untrusted submit payload into a :class:`CanonicalRequest`.

    Raises :class:`RequestRejected` (code ``"malformed"``, HTTP 400) on
    the first violation, naming the offending field.  Unknown keys — at
    the top level or inside ``net`` — are violations.
    """
    if not isinstance(payload, Mapping):
        raise RequestRejected.malformed(
            f"request body must be a JSON object, got "
            f"{type(payload).__name__}"
        )
    unknown = sorted(set(payload) - _TOP_KEYS)
    if unknown:
        raise RequestRejected.malformed(
            f"unknown field(s): {', '.join(repr(k) for k in unknown)}"
        )
    net = payload.get("net")
    if not isinstance(net, Mapping):
        raise _reject("net", "expected an object with name/sink_count/"
                             "span/seed")
    unknown = sorted(set(net) - _NET_KEYS)
    if unknown:
        raise RequestRejected.malformed(
            f"unknown field(s) under 'net': "
            f"{', '.join(repr(k) for k in unknown)}"
        )
    missing = sorted(_NET_KEYS - set(net))
    if missing:
        raise RequestRejected.malformed(
            f"missing field(s) under 'net': "
            f"{', '.join(repr(k) for k in missing)}"
        )

    kwargs: Dict[str, Any] = {
        "net_name": _want_str(net, "net.name", net["name"]),
        "sink_count": _want_int("net.sink_count", net["sink_count"], 1),
        "span": _want_number("net.span", net["span"], positive=True),
        "seed": _want_int("net.seed", net["seed"], 0),
    }
    if "objective" in payload and payload["objective"] is not None:
        if "mode" in payload:
            raise RequestRejected.malformed(
                "'mode' and 'objective' are mutually exclusive: the "
                "objective block carries its own mode"
            )
        if "min_slack" in payload:
            raise RequestRejected.malformed(
                "'min_slack' and 'objective' are mutually exclusive: the "
                "objective block carries its own min_slack"
            )
        try:
            objective = Objective.from_json(payload["objective"])
        except ValueError as exc:
            raise _reject("objective", str(exc)) from None
        if objective.selection == "pareto":
            raise _reject(
                "objective",
                "the pareto selection returns an outcome *set*; the "
                "service answers with a single outcome — select "
                "min-power or power-capped instead",
            )
        kwargs["objective"] = objective
        kwargs["mode"] = objective.mode
        kwargs["min_slack"] = objective.min_slack
    if "mode" in payload:
        kwargs["mode"] = _want_choice(
            "mode", payload["mode"], OBJECTIVE_MODES
        )
    if "engine" in payload:
        kwargs["engine"] = _want_choice(
            "engine", payload["engine"], tuple(ENGINE_CHOICES)
        )
    if "max_buffers" in payload and payload["max_buffers"] is not None:
        kwargs["max_buffers"] = _want_int(
            "max_buffers", payload["max_buffers"], 1
        )
    if "prune" in payload:
        kwargs["prune"] = _want_choice(
            "prune", payload["prune"], PRUNE_CHOICES
        )
    if "min_slack" in payload:
        kwargs["min_slack"] = _want_number("min_slack", payload["min_slack"])
    if "max_segment_length" in payload:
        value = payload["max_segment_length"]
        kwargs["max_segment_length"] = (
            None if value is None
            else _want_number("max_segment_length", value, positive=True)
        )
    if "deadline_seconds" in payload and payload["deadline_seconds"] is not None:
        kwargs["deadline_seconds"] = _want_number(
            "deadline_seconds", payload["deadline_seconds"], positive=True
        )
    if "max_candidates" in payload and payload["max_candidates"] is not None:
        kwargs["max_candidates"] = _want_int(
            "max_candidates", payload["max_candidates"], 1
        )
    if "certify" in payload:
        kwargs["certify"] = _want_bool("certify", payload["certify"])
    if "id" in payload and not isinstance(payload["id"], str):
        raise _reject("id", f"expected a string, got {payload['id']!r}")
    if "wait" in payload:
        _want_bool("wait", payload["wait"])
    return CanonicalRequest(**kwargs)


def client_id(payload: Any) -> Optional[str]:
    """The client's envelope tag, if the payload carried one."""
    if isinstance(payload, Mapping):
        value = payload.get("id")
        if isinstance(value, str):
            return value
    return None


def wants_wait(payload: Any) -> bool:
    """Whether the payload asked for a synchronous answer."""
    return isinstance(payload, Mapping) and payload.get("wait") is True


def request_from_json(record: Mapping[str, Any]) -> CanonicalRequest:
    """Rebuild a :class:`CanonicalRequest` from its canonical wire form
    (:meth:`CanonicalRequest.to_json`), e.g. out of the journal.

    Journal records were validated on admission, so this re-validates
    through the same parser — a corrupt record fails loudly rather than
    silently optimizing the wrong thing.
    """
    return parse_request(dict(record))


# ---------------------------------------------------------------------------
# response shaping
# ---------------------------------------------------------------------------


def result_payload(net_result) -> Dict[str, Any]:
    """The *deterministic* slice of a :class:`~repro.batch.NetResult`.

    Exactly the signature fields (name through telemetry counters) plus
    the structured failure's class and phase.  No seconds, no attempts,
    no free-text messages — those go in the response ``meta`` — so two
    runs of the same request, however faulty the path, produce equal
    payloads.  The chaos acceptance test compares these dicts directly.
    """
    assignment = (
        None
        if net_result.assignment is None
        else {
            node: buffer.name
            for node, buffer in sorted(net_result.assignment.items())
        }
    )
    failure = net_result.failure
    return {
        "name": net_result.name,
        "ok": net_result.ok,
        "sink_count": net_result.sink_count,
        "node_count": net_result.node_count,
        "buffer_count": net_result.buffer_count,
        "slack": net_result.slack,
        "noise_feasible": net_result.noise_feasible,
        "assignment": assignment,
        "candidates_generated": net_result.candidates_generated,
        "candidates_kept_peak": net_result.candidates_kept_peak,
        "certified": net_result.certified,
        "failure": (
            None if failure is None
            else {"error": failure.error, "phase": failure.phase}
        ),
    }


def error_response(
    code: str, message: str, retry_after: Optional[float] = None
) -> Dict[str, Any]:
    """The JSON body for any rejected request."""
    body: Dict[str, Any] = {
        "kind": "buffopt-service-error",
        "protocol": PROTOCOL_VERSION,
        "error": code,
        "message": message,
    }
    if retry_after is not None:
        body["retry_after"] = retry_after
    return body


def rejection_response(exc: RequestRejected) -> Dict[str, Any]:
    return error_response(exc.code, exc.message, exc.retry_after)
