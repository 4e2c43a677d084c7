"""Wire protocol of the TNN inference service.

The service speaks **newline-delimited JSON** (one message per line) over
a plain TCP stream.  Requests and responses are JSON objects; a request
carries a client-chosen ``id`` and responses echo it, so a client may
pipeline requests and match responses out of order.

Times on the wire are members of ``N0∞``: a finite spike time is a
non-negative JSON integer, and ``∞`` — "no spike on this line" — is
spelled ``null``.  That makes a volley like ``(3, ∞, 0)`` the JSON array
``[3, null, 0]``.  A finite time may not exceed
:data:`~repro.core.value.MAX_FINITE`, the largest the int64 engine
carries; the limit and the sentinel codec are plain Python, so the
frontend that parses the wire never imports NumPy.

Operations
----------
``eval``
    ``{"op": "eval", "id": 7, "model": "demo", "volley": [3, null, 0]}``
    with optional ``params`` (``{"name": 0 | null}``), ``deadline_ms``
    (a relative per-request deadline), and ``trace`` (a client-chosen
    trace id; echoed verbatim in the response and propagated through the
    request-tracing spans, including across worker-crash retries).
    Reply: ``{"id": 7, "ok": true, "outputs": [...]}`` or an error
    response — plus ``"trace"`` when the request carried one.
``health`` / ``metrics`` / ``models``
    Introspection; replies carry ``ok: true`` plus the payload.
``metrics_text``
    The same telemetry in Prometheus text exposition format: the reply
    is ``{"ok": true, "content_type": "text/plain; version=0.0.4",
    "text": "..."}`` with one exposition document in ``text`` —
    per-model/per-stage/per-outcome latency histograms, serve counters,
    and gauges.
``train``
    ``{"op": "train", "id": 3, "volley": [3, null, 0], "label": 1}``
    (``label`` optional) — feed one volley to the training plane's
    bounded queue.  Reply ``{"id": 3, "ok": true, "accepted": true}``;
    ``accepted: false`` means the queue was full and the volley dropped
    (training backpressure is visible, never blocking).  Requires the
    server to run with a training plane (``--train``); otherwise
    ``bad-request``.
``lineage``
    The training plane's model provenance chain (see
    :mod:`repro.train.lineage`); with optional ``"model"``, just the
    chain up to that fingerprint.
``promote``
    ``{"op": "promote", "id": 9, "alias": "digits@live", "model":
    "<fingerprint>"}`` — atomically hot-swap the alias to an
    already-registered model (warm-before-flip; see
    :meth:`repro.serve.service.TNNService.promote`).  ``retire`` (bool,
    default true) controls whether the superseded model is purged.
``model_doc``
    The serialized network document of a registered (or recently
    retired) model, so a client can rebuild it locally and byte-check
    responses against the exact version that served them.
``shutdown``
    Ask the server to stop accepting work, drain, and exit.

Responses are rendered **canonically** — compact separators, sorted
keys — so "byte-identical to a direct :func:`repro.network.compile_plan.
evaluate_batch`" is a meaningful, checkable contract: the conformance
harness (:mod:`repro.testing.served`) and ``python -m repro loadgen``
both re-encode the direct result with :func:`ok_response` /
:func:`canonical` and compare the bytes.

Error responses carry a machine-readable ``code`` from the closed set
below (:data:`ERROR_CODES`); :class:`ServeError` is the in-process
exception form every service layer raises and the front-end translates.
"""

from __future__ import annotations

import json
from typing import Any, Mapping, Optional, Sequence

from ..core.value import INF, MAX_FINITE, Infinity, Time

#: Protocol identifier, echoed by ``health``.
PROTOCOL = "repro.serve/1"

#: Machine-readable error codes an error response may carry.
E_BAD_REQUEST = "bad-request"
E_NO_MODEL = "no-such-model"
E_OVERLOADED = "overloaded"
E_DEADLINE = "deadline"
E_WORKER = "worker-failure"
E_SHUTDOWN = "shutting-down"

ERROR_CODES = (
    E_BAD_REQUEST,
    E_NO_MODEL,
    E_OVERLOADED,
    E_DEADLINE,
    E_WORKER,
    E_SHUTDOWN,
)

#: Request operations the server understands.
OPS = (
    "eval",
    "health",
    "lineage",
    "metrics",
    "metrics_text",
    "model_doc",
    "models",
    "promote",
    "shutdown",
    "train",
)

#: Longest accepted client-supplied trace id (a sanity bound, not a
#: format: any non-empty string up to this length is a valid trace id).
MAX_TRACE_ID = 128


class ProtocolError(ValueError):
    """A malformed wire message (always answered with ``bad-request``)."""


class ServeError(Exception):
    """A service-level failure with a wire-protocol error code.

    Raised by the service core (admission control, deadlines, worker
    failures) and translated into an error response by the front-end;
    in-process callers of :meth:`repro.serve.service.TNNService.submit`
    see it as the future's exception.
    """

    def __init__(self, code: str, message: str):
        if code not in ERROR_CODES:
            raise ValueError(f"unknown serve error code {code!r}")
        super().__init__(message)
        self.code = code
        self.message = message


# ---------------------------------------------------------------------------
# Time / volley encoding (∞ <-> null)
# ---------------------------------------------------------------------------

def time_to_wire(value: Time) -> Optional[int]:
    """One ``Time`` as its JSON form: ``∞`` -> ``null``."""
    return None if isinstance(value, Infinity) else int(value)


def time_from_wire(raw: Any) -> Time:
    """Parse one JSON time; validates membership in ``N0∞``."""
    if raw is None:
        return INF
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ProtocolError(f"time must be a non-negative integer or null, got {raw!r}")
    if raw < 0:
        raise ProtocolError(f"negative time {raw}")
    if raw > MAX_FINITE:
        raise ProtocolError(
            f"finite time {raw} exceeds the engine limit ({MAX_FINITE})"
        )
    return raw


def volley_to_wire(volley: Sequence[Time]) -> list[Optional[int]]:
    """A volley as its JSON array form."""
    return [time_to_wire(v) for v in volley]


def volley_from_wire(raw: Any) -> tuple[Time, ...]:
    """Parse a JSON volley array into a ``Time`` tuple."""
    if not isinstance(raw, list):
        raise ProtocolError(f"volley must be an array, got {type(raw).__name__}")
    return tuple(time_from_wire(v) for v in raw)


def params_to_wire(params: Mapping[str, Time]) -> dict[str, Optional[int]]:
    """A parameter binding as its JSON object form."""
    return {name: time_to_wire(value) for name, value in params.items()}


def params_from_wire(raw: Any) -> dict[str, Time]:
    """Parse a JSON parameter binding (names to ``0 | null``)."""
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ProtocolError(f"params must be an object, got {type(raw).__name__}")
    return {str(name): time_from_wire(value) for name, value in raw.items()}


# ---------------------------------------------------------------------------
# Canonical rendering
# ---------------------------------------------------------------------------

def canonical(message: Mapping[str, Any]) -> str:
    """The canonical (compact, key-sorted) rendering of one message.

    Byte-identity claims are stated over this form: two messages are
    "the same response" exactly when their canonical strings are equal.
    """
    return json.dumps(message, separators=(",", ":"), sort_keys=True)


def encode_line(message: Mapping[str, Any]) -> bytes:
    """Canonical rendering plus the newline framing, as bytes."""
    return canonical(message).encode("utf-8") + b"\n"


# ---------------------------------------------------------------------------
# Message constructors
# ---------------------------------------------------------------------------

def eval_request(
    req_id: int,
    model: str,
    volley: Sequence[Time],
    *,
    params: Optional[Mapping[str, Time]] = None,
    deadline_ms: Optional[int] = None,
    trace: Optional[str] = None,
) -> dict[str, Any]:
    """An ``eval`` request message."""
    message: dict[str, Any] = {
        "op": "eval",
        "id": req_id,
        "model": model,
        "volley": volley_to_wire(volley),
    }
    if params:
        message["params"] = params_to_wire(params)
    if deadline_ms is not None:
        message["deadline_ms"] = int(deadline_ms)
    if trace is not None:
        message["trace"] = trace
    return message


def ok_response(
    req_id: Any,
    outputs: Sequence[Time],
    *,
    trace: Optional[str] = None,
    model: Optional[str] = None,
) -> dict[str, Any]:
    """A successful ``eval`` response (echoing the client trace id, if any).

    *model* is the fingerprint that actually served the request —
    attached when the client asked with ``want_model_id`` so responses
    stay attributable across hot-swap promotions.
    """
    message: dict[str, Any] = {
        "id": req_id,
        "ok": True,
        "outputs": volley_to_wire(outputs),
    }
    if trace is not None:
        message["trace"] = trace
    if model is not None:
        message["model"] = model
    return message


def error_response(
    req_id: Any, code: str, message: str, *, trace: Optional[str] = None
) -> dict[str, Any]:
    """An error response carrying a machine-readable *code*."""
    if code not in ERROR_CODES:
        raise ValueError(f"unknown serve error code {code!r}")
    response: dict[str, Any] = {
        "id": req_id,
        "ok": False,
        "code": code,
        "error": message,
    }
    if trace is not None:
        response["trace"] = trace
    return response


# ---------------------------------------------------------------------------
# Request parsing
# ---------------------------------------------------------------------------

def parse_request(line: "str | bytes") -> dict[str, Any]:
    """Parse and validate one request line.

    Returns the decoded message with ``op`` guaranteed to be one of
    :data:`OPS`; ``eval`` requests additionally have ``volley`` parsed
    into a ``Time`` tuple under ``"volley_times"`` and ``params`` under
    ``"params_times"`` (the raw JSON fields are left untouched).
    """
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"invalid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("request must be a JSON object")
    op = message.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; expected one of {', '.join(OPS)}")
    if op == "eval":
        if "id" not in message:
            raise ProtocolError("eval request needs an 'id'")
        if not isinstance(message.get("model"), str):
            raise ProtocolError("eval request needs a string 'model'")
        message["volley_times"] = volley_from_wire(message.get("volley"))
        message["params_times"] = params_from_wire(message.get("params"))
        deadline = message.get("deadline_ms")
        if deadline is not None and (
            isinstance(deadline, bool)
            or not isinstance(deadline, int)
            or deadline < 0
        ):
            raise ProtocolError("deadline_ms must be a non-negative integer")
        trace = message.get("trace")
        if trace is not None and (
            not isinstance(trace, str)
            or not trace
            or len(trace) > MAX_TRACE_ID
        ):
            raise ProtocolError(
                f"trace must be a non-empty string of at most "
                f"{MAX_TRACE_ID} characters"
            )
        if not isinstance(message.get("want_model_id", False), bool):
            raise ProtocolError("want_model_id must be a boolean")
    elif op == "train":
        if "id" not in message:
            raise ProtocolError("train request needs an 'id'")
        message["volley_times"] = volley_from_wire(message.get("volley"))
        label = message.get("label")
        if label is not None and (
            isinstance(label, bool) or not isinstance(label, int)
        ):
            raise ProtocolError(f"label must be an integer, got {label!r}")
    elif op == "promote":
        if "id" not in message:
            raise ProtocolError("promote request needs an 'id'")
        for field in ("alias", "model"):
            if not isinstance(message.get(field), str) or not message[field]:
                raise ProtocolError(
                    f"promote request needs a non-empty string {field!r}"
                )
        if not isinstance(message.get("retire", True), bool):
            raise ProtocolError("retire must be a boolean")
    elif op == "model_doc":
        if not isinstance(message.get("model"), str) or not message["model"]:
            raise ProtocolError(
                "model_doc request needs a non-empty string 'model'"
            )
    elif op == "lineage":
        model = message.get("model")
        if model is not None and (not isinstance(model, str) or not model):
            raise ProtocolError("lineage 'model' must be a non-empty string")
    return message
