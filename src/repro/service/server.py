"""The asyncio HTTP/1.1 edge: stdlib only, typed rejections, keep-alive.

One :func:`asyncio.start_server` loop per instance.  The protocol
support is deliberately narrow -- ``GET``/``POST``, JSON bodies sized by
``Content-Length``, keep-alive by default -- because the edge's job is
not HTTP completeness but *error completeness*: every way a request can
go wrong (oversized head, oversized body, malformed request line,
unparsable spec, overload) ends in a typed JSON error and a live
connection state the client can reason about, never a hang or a bare
reset (P1 at the service scope).

Concurrency lives here and only here.  The handler calls the
transport-free :class:`~repro.service.api.ServiceApi` synchronously
(store operations are sub-millisecond); long-running work was already
decoupled by the submit/poll shape of the API, and the executor's drain
task moves actual simulation off the loop thread.
"""

from __future__ import annotations

import asyncio
from time import perf_counter_ns

from repro.obs.canonical import canonical_json
from repro.service.api import ServiceApi
from repro.service.errors import BadRequest, PayloadTooLarge, ServiceError
from repro.service.executor import ServiceExecutor

__all__ = ["MAX_BODY_BYTES", "MAX_HEAD_BYTES", "ServiceServer"]

#: Wall-clock hook (:func:`repro.obs.profile.install_wall`): per-request
#: handling time, measurement only -- never part of any response body.
WALL_PROFILE = None

#: Request-head (request line + headers) byte budget.
MAX_HEAD_BYTES = 32 * 1024
#: Request-body byte budget: specs are small; anything bigger is noise.
MAX_BODY_BYTES = 1 << 20

_CONTENT_TYPES = {
    "json": "application/json",
    "text": "text/plain; charset=utf-8",
    "html": "text/html; charset=utf-8",
}
_STATUS_TEXT = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 401: "Unauthorized",
    403: "Forbidden", 404: "Not Found", 405: "Method Not Allowed",
    413: "Payload Too Large", 429: "Too Many Requests",
    431: "Request Header Fields Too Large", 500: "Internal Server Error",
}


def _response_bytes(
    status: int, payload: dict | bytes, content_type: str, keep_alive: bool
) -> bytes:
    if isinstance(payload, bytes):
        body = payload
    else:
        body = (canonical_json(payload) + "\n").encode()
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
        f"Content-Type: {_CONTENT_TYPES[content_type]}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    ).encode()
    return head + body


class ServiceServer:
    """One service instance: HTTP edge + optional background drain task."""

    def __init__(
        self,
        api: ServiceApi,
        executor: ServiceExecutor | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        backlog: int = 2048,
    ):
        self.api = api
        self.executor = executor
        self.host = host
        self.port = port
        self.backlog = backlog
        self.requests_served = 0
        self._server: asyncio.base_events.Server | None = None
        self._drain_task: asyncio.Task | None = None
        #: Live connections: handler task -> its writer, so :meth:`stop`
        #: can hang up on idle keep-alive clients and wait them out.
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> None:
        """Bind and start serving; resolves ``self.port`` when it was 0."""
        self._server = await asyncio.start_server(
            self._serve_connection,
            host=self.host,
            port=self.port,
            backlog=self.backlog,
            limit=MAX_HEAD_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.executor is not None:
            self._drain_task = asyncio.get_running_loop().create_task(
                self.executor.drain_forever()
            )

    async def stop(self) -> None:
        """Clean shutdown: cancel the drain, stop accepting, hang up.

        Open connections are closed from this side: a client sees EOF
        (after its in-flight response, if any), and each handler ends by
        reading that EOF rather than by being cancelled at loop teardown.
        """
        if self._drain_task is not None:
            self._drain_task.cancel()
            try:
                await self._drain_task
            except asyncio.CancelledError:
                pass
            self._drain_task = None
        if self._server is not None:
            self._server.close()
            for writer in self._connections.values():
                writer.close()
            if self._connections:
                await asyncio.wait(list(self._connections))
            await self._server.wait_closed()
            self._server = None

    async def serve_until_cancelled(self) -> None:
        """Run until the surrounding task is cancelled, then stop cleanly."""
        try:
            await asyncio.Event().wait()
        finally:
            await self.stop()

    # -- connection handling ---------------------------------------------
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections[task] = writer
        try:
            while True:
                keep_alive = await self._serve_one(reader, writer)
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass  # client went away between or mid-request
        finally:
            del self._connections[task]
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_head(self, reader: asyncio.StreamReader) -> bytes | None:
        try:
            return await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            raise BadRequest(
                f"request head exceeds {MAX_HEAD_BYTES} bytes",
                code="HEADERS_TOO_LARGE",
            ) from None
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None  # clean close between requests
            raise

    async def _serve_one(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """Read one request, write one response; returns keep-alive."""
        try:
            head = await self._read_head(reader)
        except BadRequest as exc:
            await self._write(writer, 431, exc.to_json(), "json", keep_alive=False)
            return False
        if head is None:
            return False
        try:
            method, path, headers = self._parse_head(head)
        except BadRequest as exc:
            await self._write(writer, exc.http_status, exc.to_json(), "json", False)
            return False
        keep_alive = headers.get("connection", "keep-alive").lower() != "close"
        wall = WALL_PROFILE
        t0 = perf_counter_ns() if wall is not None else 0
        try:
            body = await self._read_body(reader, headers)
            status, payload, content_type = self.api.handle(method, path, headers, body)
        except ServiceError as exc:
            status, payload, content_type = exc.http_status, exc.to_json(), "json"
        except Exception as exc:  # noqa: BLE001 - edge of the process: typed 500
            status, payload, content_type = 500, {
                "error": {"code": "INTERNAL", "message": f"{type(exc).__name__}: {exc}"}
            }, "json"
        if wall is not None:
            wall.add(f"service.request.{method}", perf_counter_ns() - t0)
        self.requests_served += 1
        await self._write(writer, status, payload, content_type, keep_alive)
        return keep_alive

    def _parse_head(self, head: bytes) -> tuple[str, str, dict[str, str]]:
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, path, version = lines[0].split(" ", 2)
        except ValueError:
            raise BadRequest(f"malformed request line {lines[0]!r}") from None
        if not version.startswith("HTTP/1."):
            raise BadRequest(f"unsupported protocol {version!r}")
        if method not in ("GET", "POST"):
            raise BadRequest(f"unsupported method {method!r}", code="METHOD_NOT_ALLOWED")
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep:
                raise BadRequest(f"malformed header line {line!r}")
            headers[name.strip().lower()] = value.strip()
        return method, path, headers

    async def _read_body(
        self, reader: asyncio.StreamReader, headers: dict[str, str]
    ) -> bytes:
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError:
            raise BadRequest(f"bad Content-Length {length_text!r}") from None
        if length < 0:
            raise BadRequest(f"bad Content-Length {length_text!r}")
        if length > MAX_BODY_BYTES:
            raise PayloadTooLarge(
                f"request body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
            )
        return await reader.readexactly(length) if length else b""

    async def _write(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict | bytes,
        content_type: str,
        keep_alive: bool,
    ) -> None:
        writer.write(_response_bytes(status, payload, content_type, keep_alive))
        await writer.drain()
