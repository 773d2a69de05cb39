"""The asyncio service client (the diracx "client" layer).

One :class:`ServiceClient` owns one keep-alive connection; thousands of
concurrent instances in a single loop is the load-generator benchmark's
whole workload.  Server-side rejections surface as
:class:`ServiceApiError` carrying the typed ``code`` from the error
envelope, so callers dispatch on ``exc.code`` exactly as they would on
a result -- errors are data at this layer too.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass

__all__ = ["ClientResponse", "ServiceApiError", "ServiceClient"]


class ServiceApiError(RuntimeError):
    """A typed (status >= 400) response from the service."""

    def __init__(self, status: int, code: str, message: str):
        super().__init__(f"[{status} {code}] {message}")
        self.status = status
        self.code = code
        self.message = message


@dataclass(frozen=True)
class ClientResponse:
    """One raw exchange: status, parsed headers, body bytes."""

    status: int
    headers: dict[str, str]
    body: bytes

    def json(self):
        return json.loads(self.body)


class ServiceClient:
    """Async client for one service endpoint.

    Usage::

        client = ServiceClient("127.0.0.1", port, token=token)
        try:
            run = await client.submit_job({"work": 5.0})
            status = await client.wait(run["run_id"])
            trace = await client.artifact(run["run_id"], "trace")
        finally:
            await client.close()
    """

    def __init__(self, host: str, port: int, token: str | None = None):
        self.host = host
        self.port = port
        self.token = token
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    # -- connection ------------------------------------------------------
    async def _connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(self.host, self.port)

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
        self._reader = self._writer = None

    # -- raw request -----------------------------------------------------
    async def request(
        self, method: str, path: str, payload: dict | None = None
    ) -> ClientResponse:
        """One HTTP exchange on the client's keep-alive connection.

        Reconnects once if the pooled connection turns out dead (the
        server closed it between requests) -- a retry of an unsent
        request, never a blind resend of one that may have executed.
        """
        if self._reader is None:
            await self._connect()
        try:
            return await self._exchange(method, path, payload)
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            await self.close()
            await self._connect()
            return await self._exchange(method, path, payload)

    async def _exchange(
        self, method: str, path: str, payload: dict | None
    ) -> ClientResponse:
        assert self._reader is not None and self._writer is not None
        body = b"" if payload is None else json.dumps(payload).encode()
        head = [f"{method} {path} HTTP/1.1", f"Host: {self.host}:{self.port}"]
        if self.token:
            head.append(f"Authorization: Bearer {self.token}")
        if body:
            head.append("Content-Type: application/json")
        head.append(f"Content-Length: {len(body)}")
        self._writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + body)
        await self._writer.drain()
        status_line = (await self._reader.readuntil(b"\r\n")).decode("latin-1")
        status = int(status_line.split(" ", 2)[1])
        headers: dict[str, str] = {}
        while True:
            line = (await self._reader.readuntil(b"\r\n")).decode("latin-1").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        content = await self._reader.readexactly(length) if length else b""
        if headers.get("connection", "").lower() == "close":
            await self.close()
        return ClientResponse(status=status, headers=headers, body=content)

    async def _checked(self, method: str, path: str, payload: dict | None = None) -> ClientResponse:
        """The response; a status >= 400 raises its envelope as :class:`ServiceApiError`."""
        response = await self.request(method, path, payload)
        if response.status >= 400:
            try:
                envelope = response.json()["error"]
            except (json.JSONDecodeError, KeyError):
                envelope = {"code": "INTERNAL", "message": response.body.decode(errors="replace")}
            raise ServiceApiError(response.status, envelope["code"], envelope["message"])
        return response

    async def _json(self, method: str, path: str, payload: dict | None = None) -> dict:
        return (await self._checked(method, path, payload)).json()

    # -- the API surface -------------------------------------------------
    async def health(self) -> dict:
        return await self._json("GET", "/v1/health")

    async def submit_job(self, spec: dict) -> dict:
        return await self._json("POST", "/v1/jobs", spec)

    async def submit_experiment(self, spec: dict) -> dict:
        return await self._json("POST", "/v1/experiments", spec)

    async def submit_campaign(self, spec: dict) -> dict:
        return await self._json("POST", "/v1/campaigns", spec)

    async def queue(self) -> dict:
        return await self._json("GET", "/v1/queue")

    async def run_status(self, run_id: int) -> dict:
        return await self._json("GET", f"/v1/runs/{run_id}")

    async def artifact(self, run_id: int, name: str) -> bytes:
        return (await self._checked("GET", f"/v1/runs/{run_id}/artifacts/{name}")).body

    async def wait(
        self, run_id: int, timeout: float = 60.0, poll_interval: float = 0.05
    ) -> dict:
        """Poll until the run is terminal; return its final status.

        Raises :class:`TimeoutError` (never returns a half-finished
        status as if it were final) when *timeout* passes first.
        """
        deadline = asyncio.get_running_loop().time() + timeout
        while True:
            status = await self.run_status(run_id)
            if status["state"] in ("done", "failed"):
                return status
            if asyncio.get_running_loop().time() > deadline:
                raise TimeoutError(
                    f"run {run_id} still {status['state']!r} after {timeout}s"
                )
            await asyncio.sleep(poll_interval)
