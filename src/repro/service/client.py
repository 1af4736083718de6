"""The client of the JSON-lines join service, and the fleet's one hop.

:class:`JoinClient` is a plain blocking socket client — one connection,
one request per call, responses matched by the auto-assigned request id.
It is what the CLI ``query`` subcommand and the integration tests use
(each thread gets its own client; the class is not thread-safe).
:func:`exchange` is the one asyncio exchange the fleet router and the
shard supervisor make with a shard server: one fresh connection, one
request line, one response line.

Both speak the schema in :mod:`repro.service.protocol`: requests are
validated before they leave the process, so a malformed call fails fast
locally instead of bouncing off the server.

Retries honour the protocol's ``retryable`` contract: give
:class:`JoinClient` a :class:`RetryPolicy` and ``solve`` re-sends
requests that failed with a *retryable* error (``overloaded``,
``worker_crashed``, ``timeout``) after capped exponential backoff with
deterministic jitter, and transparently reconnects when the connection
itself drops mid-request.  Non-retryable errors are never re-sent — the
server has promised the same request would fail the same way.
"""

from __future__ import annotations

import asyncio
import json
import random
import socket
import time
from dataclasses import dataclass
from typing import Any, Mapping

from .protocol import PROTOCOL_VERSION, solve_request, validate_request

__all__ = ["JoinClient", "RetryPolicy", "ServiceError", "exchange"]


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic jitter.

    ``attempts`` is the *total* number of tries (1 = no retries).  The
    delay before retry ``k`` (0-based) is ``min(cap, base·2^k)`` scaled by
    a jitter factor drawn from ``random.Random(seed)`` — deterministic for
    a fixed seed, so tests can assert the exact schedule, while distinct
    seeds de-synchronise clients that would otherwise retry in lockstep.
    """

    attempts: int = 3
    base: float = 0.05
    cap: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        if self.base < 0 or self.cap < 0:
            raise ValueError("backoff delays must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be within [0, 1], got {self.jitter}")

    def delays(self) -> list[float]:
        """The full backoff schedule: one delay per possible retry."""
        rng = random.Random(self.seed)
        return [
            min(self.cap, self.base * (2.0**k)) * (1.0 + self.jitter * rng.random())
            for k in range(max(0, self.attempts - 1))
        ]


class ServiceError(RuntimeError):
    """A structured error response, surfaced as an exception on demand.

    Carries the protocol error payload: :attr:`code`,
    :attr:`retryable`, and the server's message.
    """

    def __init__(self, response: Mapping[str, Any]) -> None:
        error = response.get("error", {})
        self.code = str(error.get("code", "internal"))
        self.retryable = bool(error.get("retryable", False))
        self.response = dict(response)
        super().__init__(f"{self.code}: {error.get('message', 'unknown error')}")


def _raise_for_status(response: dict[str, Any]) -> dict[str, Any]:
    if response.get("status") != "ok":
        raise ServiceError(response)
    return response


class _RequestIds:
    """Monotonic request-id factory (``prefix-1``, ``prefix-2``, ...)."""

    def __init__(self, prefix: str) -> None:
        self._prefix = prefix
        self._next = 0

    def take(self) -> str:
        self._next += 1
        return f"{self._prefix}-{self._next}"


class JoinClient:
    """Blocking JSON-lines client (one socket, sequential requests)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float | None = 60.0,
        retry: RetryPolicy | None = None,
    ) -> None:
        self._ids = _RequestIds("req")
        self._host = host
        self._port = port
        self._timeout = timeout
        self.retry = retry
        self._close_state: dict[str, Any] | None = None
        self._socket = socket.create_connection((host, port), timeout=timeout)
        self._reader = self._socket.makefile("r", encoding="utf-8")

    # -- transport ------------------------------------------------------
    def request(self, record: Mapping[str, Any]) -> dict[str, Any]:
        """Send one validated request record and return the raw response."""
        record = validate_request(dict(record))
        self._socket.sendall((json.dumps(record) + "\n").encode("utf-8"))
        line = self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        response: dict[str, Any] = json.loads(line)
        return response

    def reconnect(self) -> None:
        """Drop the current socket (if any) and dial the server again."""
        self.close()
        self._close_state = None
        self._socket = socket.create_connection(
            (self._host, self._port), timeout=self._timeout
        )
        self._reader = self._socket.makefile("r", encoding="utf-8")

    def close(self) -> dict[str, Any]:
        """Close the connection; idempotent, never raises.

        Returns the structured close state — ``{"closed": True, "error":
        None}`` on a clean close, with ``error`` describing any failure the
        close itself hit.  Repeated calls return the same state.
        """
        if self._close_state is not None:
            return self._close_state
        state: dict[str, Any] = {"closed": True, "error": None}
        for resource in (self._reader, self._socket):
            try:
                resource.close()
            except (ConnectionError, OSError) as error:
                state["error"] = f"{type(error).__name__}: {error}"
        self._close_state = state
        return state

    @property
    def close_state(self) -> dict[str, Any] | None:
        """The result of :meth:`close`, or ``None`` while still open."""
        return self._close_state

    def __enter__(self) -> "JoinClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- operations -----------------------------------------------------
    def _op(self, op: str, **fields: Any) -> dict[str, Any]:
        record = {"v": PROTOCOL_VERSION, "op": op, "id": self._ids.take(), **fields}
        return _raise_for_status(self.request(record))

    def ping(self) -> dict[str, Any]:
        return self._op("ping")

    def datasets(self) -> dict[str, Any]:
        return self._op("datasets")

    def stats(self) -> dict[str, Any]:
        return self._op("stats")

    def register(self, name: str, path: str) -> dict[str, Any]:
        return self._op("register", name=name, path=path)

    def shutdown(self) -> dict[str, Any]:
        return self._op("shutdown")

    def solve(self, *, check: bool = True, **fields: Any) -> dict[str, Any]:
        """Issue one solve request (see :func:`solve_request` for fields).

        With ``check`` (the default) an error response raises
        :class:`ServiceError`; pass ``check=False`` to get the raw record —
        callers doing their own backoff on ``overloaded`` want that.

        With a :class:`RetryPolicy` installed, retryable error responses
        and dropped connections are retried up to the policy's per-call
        attempt budget (reconnecting as needed); the final outcome is then
        checked or returned as above.
        """
        if self.retry is None:
            record = solve_request(self._ids.take(), **fields)
            response = self.request(record)
            return _raise_for_status(response) if check else response
        response = self._solve_with_retry(self.retry, fields)
        return _raise_for_status(response) if check else response

    def _solve_with_retry(
        self, policy: RetryPolicy, fields: dict[str, Any]
    ) -> dict[str, Any]:
        delays = policy.delays()
        last_error: ConnectionError | None = None
        last_response: dict[str, Any] | None = None
        for attempt in range(policy.attempts):
            if attempt > 0:
                time.sleep(delays[attempt - 1])
            record = solve_request(self._ids.take(), **fields)
            try:
                if last_error is not None:
                    self.reconnect()
                    last_error = None
                response = self.request(record)
            except ConnectionError as error:
                last_error = error
                continue
            if response.get("status") == "ok":
                return response
            error_payload = response.get("error", {})
            if not error_payload.get("retryable"):
                return response
            last_response = response
        if last_response is not None:
            return last_response
        assert last_error is not None
        raise last_error


async def exchange(host: str, port: int, record: Mapping[str, Any]) -> dict[str, Any]:
    """Send one validated request over a fresh connection; return the reply.

    Writes one line, reads one line and closes the connection on every
    path — a reply, a peer that hangs up without one
    (:class:`ConnectionError`), or the caller's cancellation.  This is the
    router's sub-solve and probe hop and the supervisor's probe: each
    call gets its own connection because the protocol is one sequential
    request/response per connection.
    """
    line = (json.dumps(validate_request(dict(record))) + "\n").encode("utf-8")
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(line)
        await writer.drain()
        reply = await reader.readline()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    if not reply:
        raise ConnectionError("server closed the connection")
    response: dict[str, Any] = json.loads(reply)
    return response
