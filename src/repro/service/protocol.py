"""Versioned request/response schema of the join service.

One request or response is one JSON object on one line (JSON-lines over a
stream socket).  The schema follows the same discipline as the obs v1
event records (:mod:`repro.obs.events`): a closed set of operations, a
``v`` version field, strict type checking with booleans rejected where
integers are expected, and unknown *extra* fields tolerated for forward
compatibility while missing or mistyped *required* fields fail
:func:`validate_request`.

Requests share three base fields::

    {"v": 1, "op": "solve", "id": "req-17", ...}

Responses echo ``id`` and ``op`` and carry either ``"status": "ok"`` plus
an op-specific payload, or ``"status": "error"`` with a structured error::

    {"v": 1, "id": "req-17", "op": "solve", "status": "error",
     "error": {"code": "overloaded", "message": "...", "retryable": true}}

``retryable`` is the load-shedding contract: an ``overloaded`` error means
the request was never admitted and can be resent verbatim after a backoff.
"""

from __future__ import annotations

from typing import Any, Mapping

__all__ = [
    "PROTOCOL_VERSION",
    "REQUEST_OPS",
    "SOLVE_ALGORITHMS",
    "DEFAULT_ALGORITHM",
    "ERROR_CODES",
    "validate_request",
    "ok_response",
    "error_response",
    "solve_request",
]

#: bump when the request/response layout changes incompatibly
PROTOCOL_VERSION = 1

#: heuristics a solve request may name (the anytime subset of the engine)
SOLVE_ALGORITHMS = frozenset({"ils", "gils", "sea", "isa"})

#: heuristic a solve request that names none runs (and is cached under)
DEFAULT_ALGORITHM = "gils"

#: named query topologies accepted in a solve request's ``query.type``
QUERY_TYPES = frozenset({"chain", "clique", "cycle", "star"})

#: error code → is the request retryable verbatim?
ERROR_CODES: dict[str, bool] = {
    "bad_request": False,      # malformed or schema-invalid request
    "unknown_dataset": False,  # names a dataset/instance the registry lacks
    "overloaded": True,        # shed by admission control; retry after backoff
    "worker_crashed": True,    # pool died mid-job and the deadline ran out
    "timeout": True,           # worker exceeded deadline + grace (wedged)
    "internal": False,         # a genuine bug; retrying would hit it again
    "shutting_down": False,    # server is draining; connect elsewhere
    "shard_unavailable": True,  # every contacted fleet shard was lost
}

_FieldSpec = dict[str, tuple[type, ...]]

_BASE_FIELDS: _FieldSpec = {
    "v": (int,),
    "op": (str,),
    "id": (str,),
}

#: required payload fields (and accepted types) per operation
_OP_FIELDS: dict[str, _FieldSpec] = {
    "ping": {},
    "datasets": {},
    "stats": {},
    "shutdown": {},
    "register": {"name": (str,), "path": (str,)},
    "solve": {},  # structurally validated by _validate_solve below
}

REQUEST_OPS = frozenset(_OP_FIELDS)

#: optional solve fields and their accepted types
_SOLVE_OPTIONAL: _FieldSpec = {
    "deadline": (int, float),
    "max_iterations": (int, type(None)),
    "algorithm": (str,),
    "seed": (int,),
    "restarts": (int,),
    "cache": (bool,),
}


def _check_field(op: str, field: str, value: Any, accepted: tuple[type, ...]) -> None:
    bool_ok = bool in accepted
    if (isinstance(value, bool) and not bool_ok) or not isinstance(value, accepted):
        raise ValueError(f"{op} field {field!r} has invalid value {value!r}")


def _validate_query_spec(spec: Any) -> None:
    """A solve query is either a named topology or an explicit edge list."""
    if not isinstance(spec, dict):
        raise ValueError(f"solve field 'query' must be an object, got {spec!r}")
    if "type" in spec:
        if spec["type"] not in QUERY_TYPES:
            raise ValueError(
                f"unknown query type {spec['type']!r}; known: {sorted(QUERY_TYPES)}"
            )
        variables = spec.get("variables")
        if isinstance(variables, bool) or not isinstance(variables, int) or variables < 2:
            raise ValueError(
                f"query.variables must be an int >= 2, got {variables!r}"
            )
        return
    if "num_variables" in spec and "edges" in spec:
        # repro.query.io.query_from_dict format; structural errors surface
        # when the graph is rebuilt, with precise messages
        if not isinstance(spec["edges"], list):
            raise ValueError("query.edges must be a list of {i, j, predicate} objects")
        return
    raise ValueError(
        "solve query must carry either {'type', 'variables'} or "
        "{'num_variables', 'edges'}"
    )


def _validate_solve(record: Mapping[str, Any]) -> None:
    instance = record.get("instance")
    query = record.get("query")
    if instance is not None:
        if not isinstance(instance, str):
            raise ValueError(f"solve field 'instance' must be a string, got {instance!r}")
        if query is not None:
            raise ValueError("solve request carries both 'instance' and 'query'")
    else:
        _validate_query_spec(query)
        datasets = record.get("datasets")
        if not isinstance(datasets, list) or not all(
            isinstance(name, str) for name in datasets
        ):
            raise ValueError("solve field 'datasets' must be a list of dataset names")
    for field, accepted in _SOLVE_OPTIONAL.items():
        if field in record:
            _check_field("solve", field, record[field], accepted)
    deadline = record.get("deadline")
    if deadline is not None and deadline <= 0:
        raise ValueError(f"solve deadline must be positive, got {deadline!r}")
    iterations = record.get("max_iterations")
    if iterations is not None and iterations <= 0:
        raise ValueError(f"solve max_iterations must be positive, got {iterations!r}")
    algorithm = record.get("algorithm")
    if algorithm is not None and algorithm not in SOLVE_ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; known: {sorted(SOLVE_ALGORITHMS)}"
        )
    restarts = record.get("restarts")
    if restarts is not None and restarts < 1:
        raise ValueError(f"solve restarts must be >= 1, got {restarts!r}")


def validate_request(record: object) -> dict[str, Any]:
    """Check one request against the schema; returns it, raises ``ValueError``.

    Mirrors :func:`repro.obs.events.validate_event`: strict on required
    fields (booleans never pass as integers), tolerant of unknown extras.
    """
    if not isinstance(record, dict):
        raise ValueError(f"request must be an object, got {type(record).__name__}")
    version = record.get("v")
    if version != PROTOCOL_VERSION:
        raise ValueError(f"unsupported protocol version {version!r}")
    op = record.get("op")
    if op not in REQUEST_OPS:
        raise ValueError(f"unknown op {op!r}; known: {sorted(REQUEST_OPS)}")
    required = dict(_BASE_FIELDS)
    required.update(_OP_FIELDS[op])
    for field, accepted in required.items():
        if field not in record:
            raise ValueError(f"{op} request is missing field {field!r}")
        _check_field(op, field, record[field], accepted)
    if op == "solve":
        _validate_solve(record)
    return record


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------
def ok_response(request_id: str, op: str, **payload: Any) -> dict[str, Any]:
    """A success response echoing the request id."""
    record: dict[str, Any] = {
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "op": op,
        "status": "ok",
    }
    record.update(payload)
    return record


def error_response(
    request_id: str, op: str, code: str, message: str
) -> dict[str, Any]:
    """A structured error response; ``retryable`` is derived from ``code``."""
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code {code!r}; known: {sorted(ERROR_CODES)}")
    return {
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "op": op,
        "status": "error",
        "error": {
            "code": code,
            "message": message,
            "retryable": ERROR_CODES[code],
        },
    }


def solve_request(
    request_id: str,
    *,
    instance: str | None = None,
    query: Mapping[str, Any] | None = None,
    datasets: list[str] | None = None,
    deadline: float | None = None,
    max_iterations: int | None = None,
    algorithm: str | None = None,
    seed: int = 0,
    restarts: int = 1,
    cache: bool = True,
) -> dict[str, Any]:
    """Build (and validate) one solve request."""
    record: dict[str, Any] = {
        "v": PROTOCOL_VERSION,
        "op": "solve",
        "id": request_id,
        "seed": seed,
        "restarts": restarts,
        "cache": cache,
    }
    if instance is not None:
        record["instance"] = instance
    if query is not None:
        record["query"] = dict(query)
    if datasets is not None:
        record["datasets"] = list(datasets)
    if deadline is not None:
        record["deadline"] = deadline
    if max_iterations is not None:
        record["max_iterations"] = max_iterations
    if algorithm is not None:
        record["algorithm"] = algorithm
    return validate_request(record)
