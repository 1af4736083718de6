"""The JSON-lines front end shared by the join server and the fleet router.

One request per line, one response per line, any number of concurrent
connections.  :class:`LineFrame` owns everything between the socket and
a subclass's ``_dispatch``: the listener, the per-connection read loop,
the line handler (decode → :func:`validate_request` → draining check →
``_dispatch`` → :func:`classify_exception`, so no request drops a
connection), request accounting and the ``shutdown`` op.
:class:`~repro.service.server.JoinServer` and
:class:`~repro.fleet.router.FleetRouter` keep only their ``_dispatch``
(``ping``, ``datasets``, ``stats``, ``register``, ``solve``) and their
own start/stop work.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, ClassVar

from ..core.budget import Stopwatch
from ..obs import current
from .errors import classify_exception
from .protocol import error_response, ok_response, validate_request

__all__ = ["LINE_LIMIT", "LineFrame"]

#: longest request line, in bytes: asyncio's default ``StreamReader``
#: limit, named so the overrun reply can state it
LINE_LIMIT = 2**16


class LineFrame:
    """Listener, read loop, line handler and request accounting."""

    #: metric namespace of the request counter and latency histogram
    NAMESPACE: ClassVar[str]
    #: what the ``shutting_down`` reply calls this endpoint
    ROLE: ClassVar[str]

    def __init__(self, host: str, port: int) -> None:
        self._host = host
        self._port = port
        self.requests_total = 0
        self.errors_total = 0
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
            return op, await self._dispatch(record, request_id, op)
        except Exception as error:  # noqa: BLE001 - connection must survive
            classified = classify_exception(error)
            return op, error_response(request_id, op, classified.code, classified.message)

    async def _dispatch(
        self, record: dict[str, Any], request_id: str, op: str
    ) -> dict[str, Any]:
        """Answer one validated request other than ``shutdown``."""
        raise NotImplementedError
