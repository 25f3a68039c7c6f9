"""Request/response dataclasses and the newline-JSON wire codec.

One connection carries a sequence of newline-delimited JSON objects.
Requests carry an ``op`` ("eval", "stats", "ping"); responses carry a
``status`` (:data:`STATUS_OK`, :data:`STATUS_TIMEOUT`, :data:`STATUS_SHED`,
:data:`STATUS_ERROR`) plus the echoed ``request_id`` so clients can
pipeline.  The codec is intentionally dumb — plain :mod:`json`, no
pickle — so any language can speak it.

Two derived keys drive the batching layer:

* :meth:`EvalRequest.sim_key` — the canonical identity of one
  simulation; requests with equal sim keys are satisfied by a single
  execution (dedup);
* :meth:`EvalRequest.trace_key` — the identity of the functional trace
  ``(workload, instructions, seed)``; sim groups sharing a trace key are
  shipped to one worker invocation so the in-process
  :class:`~repro.harness.runner.WorkloadCache` computes the trace once.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import ClassVar

PROTOCOL_VERSION = 1

#: Maximum accepted line length (a trace never travels over the wire,
#: so anything bigger than this is a confused or hostile client).
MAX_LINE_BYTES = 1 << 20

OP_EVAL = "eval"
OP_CAMPAIGN = "campaign"
OP_STATS = "stats"
OP_PING = "ping"
#: Router-only op: describe the consistent-hash ring (shard addresses
#: and replica count) so clients can follow it; plain serve backends
#: reject it as unknown.
OP_RING = "ring"
KNOWN_OPS = (OP_EVAL, OP_CAMPAIGN, OP_STATS, OP_PING, OP_RING)

STATUS_OK = "ok"
STATUS_TIMEOUT = "timeout"
STATUS_SHED = "shed"
STATUS_ERROR = "error"
KNOWN_STATUSES = (STATUS_OK, STATUS_TIMEOUT, STATUS_SHED, STATUS_ERROR)

DEFAULT_INSTRUCTIONS = 20_000
DEFAULT_SEED = 7
DEFAULT_MODE = "full"

#: Fields that determine the simulated outcome (everything except
#: delivery metadata such as ``request_id`` and ``timeout_s``).
_SIM_FIELDS = ("workload", "backend", "checkers", "mode", "hash_mode",
               "instructions", "seed", "fault_trials")


class ProtocolError(ValueError):
    """A malformed or unsupported wire message."""


@dataclass(frozen=True)
class EvalRequest:
    """One evaluation query: a workload under one detection scheme.

    Exactly one of ``backend`` (a registry name, see ``paraverser
    backends``) or ``checkers`` (a pool spec such as ``"4xA510@2.0"``,
    interpreted with ``mode``/``hash_mode``) selects the scheme.
    ``fault_trials > 0`` additionally runs a stuck-at injection campaign
    against the scheme's configuration.
    """

    workload: str
    backend: str | None = None
    checkers: str | None = None
    mode: str = DEFAULT_MODE
    hash_mode: bool = False
    instructions: int = DEFAULT_INSTRUCTIONS
    seed: int = DEFAULT_SEED
    fault_trials: int = 0
    #: Per-request deadline in seconds (None: the service default).
    timeout_s: float | None = None
    request_id: str = ""

    def validate(self) -> None:
        if not self.workload or not isinstance(self.workload, str):
            raise ProtocolError("eval request needs a workload name")
        if (self.backend is None) == (self.checkers is None):
            raise ProtocolError(
                "eval request needs exactly one of backend/checkers")
        if self.checkers is not None and not isinstance(self.checkers, str):
            raise ProtocolError("checkers must be a pool spec string")
        if self.instructions <= 0:
            raise ProtocolError("instructions must be positive")
        if self.fault_trials < 0:
            raise ProtocolError("fault_trials must be >= 0")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ProtocolError("timeout_s must be positive when given")

    def sim_spec(self) -> dict:
        """The executable subset of the request, as a plain dict."""
        data = asdict(self)
        return {name: data[name] for name in _SIM_FIELDS}

    def sim_key(self) -> str:
        """Canonical identity of the simulation this request asks for."""
        return json.dumps(self.sim_spec(), sort_keys=True)

    def trace_key(self) -> tuple[str, int, int]:
        """Identity of the functional trace the simulation replays."""
        return (self.workload, self.instructions, self.seed)


#: Campaign fields that determine the trial outcomes (``trials`` and
#: ``trial_offset`` are included: the row aggregates over exactly the
#: trial window ``[trial_offset, trial_offset + trials)``).
_CAMPAIGN_SIM_FIELDS = ("workload", "checkers", "mode", "hash_mode",
                        "instructions", "seed", "trials", "trial_offset",
                        "fault_kinds", "scheme")

#: Default fault-site mix for served campaigns (mirrors
#: ``repro.faults.models.FAULT_KINDS`` without importing the simulator
#: into the wire codec).
DEFAULT_FAULT_KINDS = ("stuck_at", "transient_lsq", "transient_reg")

#: Every fault kind a served campaign may request (mirrors
#: ``repro.faults.models.ALL_FAULT_KINDS``).
KNOWN_FAULT_KINDS = DEFAULT_FAULT_KINDS + ("defect",)

#: Detection schemes the campaign engine can run (mirrors
#: ``repro.faults.scenarios.CAMPAIGN_SCHEMES``).
KNOWN_CAMPAIGN_SCHEMES = ("paraverser", "dme", "ithica-sdc", "meek-ro")


@dataclass(frozen=True)
class CampaignRequest:
    """One fault-injection campaign: a workload under one checker pool.

    Flows through the same admission queue and batching layer as
    :class:`EvalRequest` — it exposes the identical ``sim_key`` /
    ``sim_spec`` / ``trace_key`` surface — so long campaigns get the
    service's load-shedding, deadlines and crash-retry for free.
    ``backend`` is fixed at ``None``: campaigns always run against a
    simulated checker configuration.
    """

    workload: str
    checkers: str = "1xA510@1.0"
    mode: str = "opportunistic"
    hash_mode: bool = False
    instructions: int = 40_000
    seed: int = DEFAULT_SEED
    trials: int = 20
    #: First trial id of this request's window.  Trial ``t``'s fault is
    #: a pure function of ``(seed, t)``, so a T-trial campaign split
    #: into offset windows (the shard router's fan-out) reproduces the
    #: unsplit campaign record-for-record.
    trial_offset: int = 0
    fault_kinds: tuple[str, ...] = DEFAULT_FAULT_KINDS
    #: Detection scheme the trials run under (paraverser, dme,
    #: ithica-sdc or meek-ro — see ``repro.faults.scenarios``).
    scheme: str = "paraverser"
    timeout_s: float | None = None
    request_id: str = ""

    backend: ClassVar[None] = None

    def validate(self) -> None:
        if not self.workload or not isinstance(self.workload, str):
            raise ProtocolError("campaign request needs a workload name")
        if not self.checkers or not isinstance(self.checkers, str):
            raise ProtocolError("campaign request needs a checkers spec")
        if self.instructions <= 0:
            raise ProtocolError("instructions must be positive")
        if self.trials <= 0:
            raise ProtocolError("trials must be positive")
        if self.trial_offset < 0:
            raise ProtocolError("trial_offset must be >= 0")
        if not self.fault_kinds:
            raise ProtocolError("fault_kinds must not be empty")
        unknown = [k for k in self.fault_kinds
                   if k not in KNOWN_FAULT_KINDS]
        if unknown:
            raise ProtocolError(
                f"unknown fault kinds {unknown}; "
                f"known: {list(KNOWN_FAULT_KINDS)}")
        if self.scheme not in KNOWN_CAMPAIGN_SCHEMES:
            raise ProtocolError(
                f"unknown campaign scheme {self.scheme!r}; "
                f"known: {list(KNOWN_CAMPAIGN_SCHEMES)}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ProtocolError("timeout_s must be positive when given")

    def sim_spec(self) -> dict:
        """The executable subset, tagged so workers branch on ``op``."""
        data = asdict(self)
        spec = {name: data[name] for name in _CAMPAIGN_SIM_FIELDS}
        spec["fault_kinds"] = list(spec["fault_kinds"])
        spec["op"] = OP_CAMPAIGN
        return spec

    def sim_key(self) -> str:
        """Canonical identity; equal campaigns dedup to one execution."""
        return json.dumps(self.sim_spec(), sort_keys=True)

    def trace_key(self) -> tuple[str, int, int]:
        """Same functional-trace identity as :class:`EvalRequest`, so
        campaigns batch with evals replaying the same trace."""
        return (self.workload, self.instructions, self.seed)


@dataclass(frozen=True)
class EvalResponse:
    """The service's answer to one request."""

    status: str
    request_id: str = ""
    result: dict | None = field(default=None)
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


# -- wire codec -------------------------------------------------------------

def encode_message(payload: dict) -> bytes:
    """One wire message: compact JSON + newline."""
    return json.dumps(payload, separators=(",", ":")).encode() + b"\n"


def decode_message(line: bytes | str) -> dict:
    """Parse one wire line; raises :class:`ProtocolError` on garbage."""
    if isinstance(line, bytes):
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError("wire message exceeds MAX_LINE_BYTES")
        try:
            line = line.decode()
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"non-UTF-8 wire message: {exc}") from None
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"bad JSON on the wire: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError("wire message must be a JSON object")
    return payload


def request_to_wire(request: EvalRequest) -> dict:
    """Serialise a request, tagging op and protocol version."""
    payload = {"op": OP_EVAL, "v": PROTOCOL_VERSION}
    payload.update(asdict(request))
    return payload


def request_from_wire(payload: dict) -> EvalRequest:
    """Rebuild and validate an :class:`EvalRequest` from a wire dict."""
    op = payload.get("op", OP_EVAL)
    if op != OP_EVAL:
        raise ProtocolError(f"expected an eval request, got op {op!r}")
    version = payload.get("v", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported protocol version {version!r}")
    kwargs = {}
    for name in EvalRequest.__dataclass_fields__:
        if name in payload:
            kwargs[name] = payload[name]
    try:
        request = EvalRequest(**kwargs)
    except TypeError as exc:
        raise ProtocolError(f"bad eval request: {exc}") from None
    request.validate()
    return request


def campaign_to_wire(request: CampaignRequest) -> dict:
    """Serialise a campaign request, tagging op and protocol version."""
    payload = {"op": OP_CAMPAIGN, "v": PROTOCOL_VERSION}
    payload.update(asdict(request))
    payload["fault_kinds"] = list(request.fault_kinds)
    return payload


def campaign_from_wire(payload: dict) -> CampaignRequest:
    """Rebuild and validate a :class:`CampaignRequest` from a wire dict."""
    op = payload.get("op", OP_CAMPAIGN)
    if op != OP_CAMPAIGN:
        raise ProtocolError(f"expected a campaign request, got op {op!r}")
    version = payload.get("v", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported protocol version {version!r}")
    kwargs = {}
    for name in CampaignRequest.__dataclass_fields__:
        if name in payload:
            kwargs[name] = payload[name]
    if "fault_kinds" in kwargs:
        kinds = kwargs["fault_kinds"]
        if not isinstance(kinds, (list, tuple)):
            raise ProtocolError("fault_kinds must be a list of kind names")
        kwargs["fault_kinds"] = tuple(kinds)
    try:
        request = CampaignRequest(**kwargs)
    except TypeError as exc:
        raise ProtocolError(f"bad campaign request: {exc}") from None
    request.validate()
    return request


def response_to_wire(response: EvalResponse) -> dict:
    payload = {"v": PROTOCOL_VERSION, "status": response.status,
               "request_id": response.request_id}
    if response.result is not None:
        payload["result"] = response.result
    if response.error:
        payload["error"] = response.error
    return payload


def response_from_wire(payload: dict) -> EvalResponse:
    status = payload.get("status")
    if status not in KNOWN_STATUSES:
        raise ProtocolError(f"unknown response status {status!r}")
    return EvalResponse(
        status=status,
        request_id=payload.get("request_id", ""),
        result=payload.get("result"),
        error=payload.get("error", ""),
    )


# -- canned responses -------------------------------------------------------

def ok_response(request: EvalRequest, result: dict) -> EvalResponse:
    return EvalResponse(STATUS_OK, request.request_id, result=result)


def shed_response(request: EvalRequest, depth: int) -> EvalResponse:
    return EvalResponse(
        STATUS_SHED, request.request_id,
        error=f"admission queue saturated (depth {depth}); retry later")


def timeout_response(request: EvalRequest) -> EvalResponse:
    return EvalResponse(
        STATUS_TIMEOUT, request.request_id,
        error="request deadline expired before a result was ready")


def error_response(request: EvalRequest, message: str) -> EvalResponse:
    return EvalResponse(STATUS_ERROR, request.request_id, error=message)
