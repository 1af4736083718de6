"""The JSON-lines front end shared by the join server and the fleet router.

One request per line, one response per line, any number of concurrent
connections.  :class:`LineFrame` owns everything between the socket and
a subclass's ``_dispatch``: the listener, the per-connection read loop,
the line handler (decode → :func:`validate_request` → draining check →
answer → :func:`classify_exception`, so no request drops a connection),
request accounting, the ``shutdown`` op and the one ``solve`` path:
resolve → lookup → admit → run → respond (see
:meth:`LineFrame._handle_solve`).

:class:`~repro.service.server.JoinServer` and
:class:`~repro.fleet.router.FleetRouter` keep only their ``_dispatch``
(``ping``, ``datasets``, ``stats``, ``register``), their own ``stats``
keys, the two solve hooks ``_resolve`` and ``_run``, and their own
start/stop work.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from typing import Any, ClassVar

from ..core.budget import Stopwatch
from ..obs import current
from ..query.graph import QueryGraph
from .admission import AdmissionController, Ticket
from .cache import CacheEntry, SolutionCache, canonical_query_key, solve_cache_key
from .errors import classify_exception
from .protocol import DEFAULT_ALGORITHM, error_response, ok_response, validate_request

__all__ = ["LINE_LIMIT", "LineFrame", "SolveCall"]

#: longest request line, in bytes: asyncio's default ``StreamReader``
#: limit, named so the overrun reply can state it
LINE_LIMIT = 2**16


@dataclass(frozen=True)
class SolveCall:
    """One resolved solve request, as the ``_run`` hook receives it."""

    record: dict[str, Any]
    request_id: str
    query: QueryGraph
    algorithm: str
    seed: int
    restarts: int
    max_iterations: int | None
    #: the request may read and fill the solution cache
    use_cache: bool
    #: canonical query signature (``""`` when the cache is bypassed)
    signature: str
    #: canonical position → requester variable
    order: tuple[int, ...]


class LineFrame:
    """Listener, read loop, line handler, request accounting and solve path.

    ``max_pending`` / ``default_deadline`` / ``max_deadline`` are the
    admission policy (see
    :class:`~repro.service.admission.AdmissionController`);
    ``cache_capacity`` sizes the solution cache, ``0`` disables it.
    """

    #: metric namespace of the request, cache and shed counters and the
    #: latency histogram
    NAMESPACE: ClassVar[str]
    #: what the ``shutting_down`` reply calls this endpoint
    ROLE: ClassVar[str]

    def __init__(
        self,
        host: str,
        port: int,
        *,
        max_pending: int = 16,
        default_deadline: float = 5.0,
        max_deadline: float = 60.0,
        cache_capacity: int = 256,
    ) -> None:
        self._host = host
        self._port = port
        self.requests_total = 0
        self.errors_total = 0
        self.admission = AdmissionController(
            max_pending=max_pending,
            default_deadline=default_deadline,
            max_deadline=max_deadline,
        )
        self.cache = SolutionCache(capacity=cache_capacity) if cache_capacity > 0 else None
        self._server: asyncio.AbstractServer | None = None
        self._shutdown: asyncio.Event | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._connections: set[asyncio.Task[None]] = set()

    # ------------------------------------------------------------------
    # listener lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` actually bound (valid after ``start()``)."""
        return self._host, self._port

    async def _listen(self) -> None:
        """Bind the listener; port ``0`` resolves to the port bound."""
        self._shutdown = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port, limit=LINE_LIMIT
        )
        sockets = self._server.sockets or ()
        if sockets:
            self._port = sockets[0].getsockname()[1]

    async def _close(self) -> None:
        """Close the listener and every open connection (idempotent)."""
        if self._server is not None:
            self._server.close()
        for writer in list(self._writers):
            writer.close()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None

    async def wait_for_shutdown(self) -> None:
        """Block until a ``shutdown`` request arrives (after ``start()``)."""
        assert self._shutdown is not None
        await self._shutdown.wait()

    # ------------------------------------------------------------------
    # connections and lines
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        self._writers.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # the line overran LINE_LIMIT and asyncio dropped it:
                    # the framing is lost, so answer once and close
                    await self._reply(writer, await self._handle_line(None))
                    break
                except (ConnectionError, asyncio.CancelledError):
                    # cancellation only arrives at teardown; finish cleanly
                    # so the stream protocol does not log a spurious error
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                if not await self._reply(writer, await self._handle_line(line)):
                    break
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _reply(writer: asyncio.StreamWriter, response: dict[str, Any]) -> bool:
        """Write one response line; ``False`` once the peer is gone."""
        payload = json.dumps(response, sort_keys=True) + "\n"
        try:
            writer.write(payload.encode("utf-8"))
            await writer.drain()
        except ConnectionError:
            return False
        return True

    async def _handle_line(self, line: bytes | None) -> dict[str, Any]:
        """One request line → one response record (never raises).

        ``None`` stands for a line longer than :data:`LINE_LIMIT`.
        """
        obs = current()
        stopwatch = Stopwatch()
        self.requests_total += 1
        # RL006 wants a literal name at each call site: one branch each
        if self.NAMESPACE == "fleet":
            requests, latency = obs.counter("fleet.requests"), obs.histogram("fleet.latency")
        else:
            requests, latency = obs.counter("service.requests"), obs.histogram("service.latency")
        requests.inc()
        op, response = await self._answer(line)
        status = response.get("status", "error")
        if status != "ok":
            self.errors_total += 1
        elapsed = stopwatch.elapsed()
        latency.observe(elapsed)
        obs.event("request", op=op, status=str(status), elapsed=elapsed)
        return response

    async def _answer(self, line: bytes | None) -> tuple[str, dict[str, Any]]:
        """The op name (``"?"`` when unreadable) and its response."""
        request_id, op = "?", "?"
        if line is None:
            return op, error_response(
                request_id, op, "bad_request",
                f"request line longer than {LINE_LIMIT} bytes; closing the connection",
            )
        try:
            record = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            return op, error_response(request_id, op, "bad_request", f"invalid JSON: {error}")
        if isinstance(record, dict):
            raw_id, raw_op = record.get("id"), record.get("op")
            request_id = raw_id if isinstance(raw_id, str) else "?"
            op = raw_op if isinstance(raw_op, str) else "?"
        try:
            validate_request(record)
        except ValueError as error:
            return op, error_response(request_id, op, "bad_request", str(error))
        if self._shutdown is not None and self._shutdown.is_set():
            return op, error_response(
                request_id, op, "shutting_down", f"{self.ROLE} is draining"
            )
        try:
            if op == "shutdown":
                assert self._shutdown is not None
                self._shutdown.set()
                return op, ok_response(request_id, op, stopping=True)
            if op == "solve":
                return op, await self._handle_solve(record, request_id)
            return op, await self._dispatch(record, request_id, op)
        except Exception as error:  # noqa: BLE001 - connection must survive
            classified = classify_exception(error)
            return op, error_response(request_id, op, classified.code, classified.message)

    async def _dispatch(
        self, record: dict[str, Any], request_id: str, op: str
    ) -> dict[str, Any]:
        """Answer one validated request other than ``shutdown`` or ``solve``."""
        raise NotImplementedError

    def stats(self) -> dict[str, Any]:
        """The ``stats`` op's shared counters; each endpoint adds its own."""
        return {
            "requests_total": self.requests_total,
            "errors_total": self.errors_total,
            "admission": self.admission.stats(),
            "cache": self.cache.stats() if self.cache is not None else None,
        }

    # ------------------------------------------------------------------
    # solve: resolve → lookup → admit → run → respond
    # ------------------------------------------------------------------
    async def _resolve(self, record: dict[str, Any]) -> tuple[QueryGraph, list[str]]:
        """The query graph and the per-variable labels that key the cache.

        Raises ``KeyError`` for unknown data, ``ValueError`` for a bad query.
        """
        raise NotImplementedError

    async def _run(
        self, call: SolveCall, ticket: Ticket
    ) -> tuple[dict[str, Any], bool]:
        """The answer fields (or an error response) and whether to cache them."""
        raise NotImplementedError

    def _hit_fields(self) -> dict[str, Any]:
        """Endpoint-specific blocks a cache-hit reply carries."""
        return {}

    def _queue_depth(self) -> None:
        # the router keeps no queue gauge
        if self.NAMESPACE == "service":
            current().gauge("service.queue.depth").set(self.admission.pending)

    async def _handle_solve(
        self, record: dict[str, Any], request_id: str
    ) -> dict[str, Any]:
        """Resolve → lookup → admit → run → respond, for both endpoints."""
        obs = current()
        # RL006 wants a literal name at each call site: one branch each
        fleet = self.NAMESPACE == "fleet"
        try:
            query, labels = await self._resolve(record)
        except KeyError as error:
            message = str(error.args[0]) if error.args else str(error)
            return error_response(request_id, "solve", "unknown_dataset", message)
        except ValueError as error:
            return error_response(request_id, "solve", "bad_request", str(error))

        algorithm = record.get("algorithm", DEFAULT_ALGORITHM)
        seed, restarts = record.get("seed", 0), record.get("restarts", 1)
        max_iterations = record.get("max_iterations")
        deadline = self.admission.clamp_deadline(record.get("deadline"))
        cache = self.cache if record.get("cache", True) else None
        signature, order, key = "", tuple(range(query.num_variables)), ""
        if cache is not None:
            signature, order = canonical_query_key(query, labels)
            key = solve_cache_key(signature, algorithm, seed, restarts, deadline, max_iterations)
            entry = cache.get(key)
            if entry is not None:
                hit = obs.counter("fleet.cache.hit") if fleet else obs.counter("service.cache.hit")
                hit.inc()
                return entry.hit_response(
                    request_id, order, seed=seed, restarts=restarts, **self._hit_fields()
                )
            miss = obs.counter("fleet.cache.miss") if fleet else obs.counter("service.cache.miss")
            miss.inc()

        ticket = self.admission.try_admit(deadline)
        self._queue_depth()
        if ticket is None:
            (obs.counter("fleet.shed") if fleet else obs.counter("service.shed")).inc()
            return error_response(
                request_id,
                "solve",
                "overloaded",
                f"{self.admission.pending} requests already in flight; retry later",
            )
        call = SolveCall(
            record=record,
            request_id=request_id,
            query=query,
            algorithm=algorithm,
            seed=seed,
            restarts=restarts,
            max_iterations=max_iterations,
            use_cache=cache is not None,
            signature=signature,
            order=order,
        )
        try:
            answer, cacheable = await self._run(call, ticket)
        finally:
            self.admission.release(ticket)
            self._queue_depth()
        if answer.get("status") == "error":
            return answer

        if cache is not None and cacheable:
            cache.put(
                key,
                CacheEntry.from_result(
                    answer["assignment"],
                    order,
                    violations=answer["violations"],
                    similarity=answer["similarity"],
                    iterations=answer["iterations"],
                    elapsed=answer["elapsed"],
                    algorithm=answer["algorithm"],
                    signature=signature,
                    exact=answer["exact"],
                ),
            )
        return ok_response(
            request_id, "solve", cached=False, seed=seed, restarts=restarts, **answer
        )
