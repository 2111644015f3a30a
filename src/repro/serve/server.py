"""The asyncio front door: one port, two protocols.

:class:`SimulationServer` owns a :class:`~repro.serve.lifecycle.
JobLifecycle` (a worker ``Scheduler`` or a cluster ``Router``) and
listens with ``asyncio.start_server`` (stdlib only — no web
framework).  The protocol is sniffed from the first request line:

- ``GET``/``POST``/``HEAD`` … → a thin HTTP/1.1 handler, enough for
  ``curl`` and a Prometheus scraper: ``POST /submit``,
  ``GET /status/<id>``, ``GET /result/<id>``, ``GET /healthz``,
  ``GET /metrics`` (text exposition format);
- anything else → the native newline-delimited-JSON loop: one JSON
  object per line in, one per line out, connection stays open.  Ops:
  ``submit`` (optionally ``wait``-ing for the result inline),
  ``status``, ``result``, ``wait``, ``healthz``, ``metrics``.

Every failure surfaces as a typed :class:`~repro.serve.schema.
ServeError` payload — over NDJSON as ``{"ok": false, "error": ...}``,
over HTTP as the error's mapped status code with the same JSON body.
"""

from __future__ import annotations

import asyncio
import json

from repro.serve import schema
from repro.serve.lifecycle import JobLifecycle
from repro.serve.schema import ServeError

MAX_LINE_BYTES = 1 << 20
MAX_BODY_BYTES = 1 << 20
_HTTP_METHODS = (b"GET ", b"POST ", b"HEAD ", b"PUT ", b"DELETE ")


def _json_line(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True).encode() + b"\n"


class SimulationServer:
    """Bind a scheduler to a TCP port; speak NDJSON and HTTP/1.1."""

    def __init__(self, scheduler: JobLifecycle, *, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.scheduler = scheduler
        self.host = host
        self.port = port
        self._server: asyncio.Server | None = None

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        await self.scheduler.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        # The requested port (possibly 0) is deliberately rebound to
        # the kernel-assigned one across the bind await; start() runs
        # once, before any other task can observe the server.
        self.port = self._server.sockets[0].getsockname()[1]  # lint: disable=SIM202

    async def serve_forever(self) -> None:
        assert self._server is not None
        await self._server.serve_forever()

    async def drain(self, timeout_s: float | None = None) -> int:
        """Graceful shutdown: stop accepting connections, finish the
        queue, then tear everything down.  The SIGTERM path."""
        if self._server is not None:
            self._server.close()
        live = await self.scheduler.drain(timeout_s)
        await self.close()
        return live

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.scheduler.close()

    # -- shared op layer (both protocols funnel here) ------------------
    async def _op_submit(self, payload: dict) -> dict:
        request = schema.request_from_payload(payload.get("request"))
        job, reused = self.scheduler.submit(request)
        body = {"id": job.key, "reused": reused}
        if payload.get("wait"):
            body.update(await self._op_wait(
                {"id": job.key, "timeout_s": payload.get("timeout_s")}))
        else:
            body["status"] = schema.status_to_payload(job.status())
        return body

    def _op_status(self, job_id: str) -> dict:
        job = self.scheduler.status(job_id)
        return {"status": schema.status_to_payload(job.status())}

    def _op_result(self, job_id: str) -> dict:
        job = self.scheduler.status(job_id)
        if job.state not in schema.TERMINAL_STATES:
            return {"status": schema.status_to_payload(job.status())}
        return {"result": self.scheduler.result_payload(job)}

    async def _op_wait(self, payload: dict) -> dict:
        timeout = payload.get("timeout_s")
        job = await self.scheduler.wait(
            str(payload.get("id", "")),
            float(timeout) if timeout is not None else None)
        return {"result": self.scheduler.result_payload(job)}

    def _op_healthz(self) -> dict:
        body = self.scheduler.counts()
        body["draining"] = self.scheduler.draining
        body["schema_version"] = schema.SCHEMA_VERSION
        body["ok"] = True
        return body

    async def _dispatch_op(self, payload: dict) -> dict:
        # Wire-schema negotiation: a versionless request is treated as
        # current (old clients keep working); a versioned one must be
        # within the compatibility span or gets the typed 426.
        theirs = payload.get("v")
        if theirs is not None:
            try:
                compatible = schema.versions_compatible(theirs)
            except (TypeError, ValueError):
                raise ServeError.bad_request(
                    f"version field must be an integer, got "
                    f"{theirs!r}") from None
            if not compatible:
                raise ServeError.version_mismatch(theirs)
        op = payload.get("op")
        if op == "submit":
            return await self._op_submit(payload)
        if op == "status":
            return self._op_status(str(payload.get("id", "")))
        if op == "result":
            return self._op_result(str(payload.get("id", "")))
        if op == "wait":
            return await self._op_wait(payload)
        if op == "healthz":
            return self._op_healthz()
        if op == "metrics":
            return {"metrics": self.scheduler.metrics.snapshot()}
        raise ServeError.bad_request(f"unknown op {op!r}")

    # -- connection handling -------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            first = await reader.readline()
            if not first:
                return
            if first.startswith(_HTTP_METHODS):
                await self._handle_http(first, reader, writer)
            else:
                await self._handle_ndjson(first, reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange; nothing to answer
        except asyncio.CancelledError:
            # Loop teardown cancelled this handler; end the task
            # cleanly or asyncio's streams machinery logs the
            # cancellation as a spurious "exception in callback".
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass  # already torn down under us

    async def _handle_ndjson(self, first: bytes,
                             reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        line = first
        while line:
            if len(line) > MAX_LINE_BYTES:
                response = {"ok": False,
                            "error": ServeError.bad_request(
                                "request line too long").to_payload()}
            else:
                response = await self._answer_line(line)
            writer.write(_json_line(response))
            await writer.drain()
            line = await reader.readline()

    async def _answer_line(self, line: bytes) -> dict:
        try:
            payload = json.loads(line)
            if not isinstance(payload, dict):
                raise ServeError.bad_request(
                    "each line must be a JSON object")
            body = await self._dispatch_op(payload)
        except ServeError as exc:
            return {"ok": False, "error": exc.to_payload()}
        except json.JSONDecodeError as exc:
            return {"ok": False,
                    "error": ServeError.bad_request(
                        f"invalid JSON: {exc}").to_payload()}
        response = {"ok": True}
        response.update(body)
        return response

    async def _handle_http(self, first: bytes,
                           reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        try:
            method, target = first.decode("latin-1").split()[:2]
        except ValueError:
            self._http_reply(writer, 400, {"error": ServeError.bad_request(
                "malformed request line").to_payload()})
            await writer.drain()
            return
        content_length = 0
        while True:
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    content_length = 0
        if content_length > MAX_BODY_BYTES:
            self._http_reply(writer, 413, {"error": ServeError(
                "too_large", "request body too large", 413).to_payload()})
            await writer.drain()
            return
        body = (await reader.readexactly(content_length)
                if content_length else b"")
        status, payload = await self._route_http(method, target, body)
        self._http_reply(writer, status, payload,
                         head_only=method == "HEAD")
        await writer.drain()

    async def _route_http(self, method: str, target: str,
                          body: bytes) -> tuple[int, dict | str]:
        try:
            if target == "/metrics" and method in ("GET", "HEAD"):
                return 200, self.scheduler.metrics.prometheus()
            if target == "/healthz" and method in ("GET", "HEAD"):
                health = self._op_healthz()
                return (200 if not health["draining"] else 503), health
            if target == "/submit" and method == "POST":
                try:
                    payload = json.loads(body) if body else {}
                except json.JSONDecodeError as exc:
                    raise ServeError.bad_request(
                        f"invalid JSON body: {exc}") from exc
                if not isinstance(payload, dict):
                    raise ServeError.bad_request(
                        "body must be a JSON object")
                # Accept both the op envelope and a bare request body.
                if "request" not in payload:
                    payload = {"request": payload}
                return 200, await self._op_submit(payload)
            if target.startswith("/status/") and method in ("GET", "HEAD"):
                return 200, self._op_status(target[len("/status/"):])
            if target.startswith("/result/") and method in ("GET", "HEAD"):
                return 200, self._op_result(target[len("/result/"):])
        except ServeError as exc:
            return exc.http_status, {"error": exc.to_payload()}
        return 404, {"error": ServeError(
            "not_found", f"no route {method} {target}", 404).to_payload()}

    def _http_reply(self, writer: asyncio.StreamWriter, status: int,
                    payload: dict | str, *, head_only: bool = False) -> None:
        if isinstance(payload, str):
            body = payload.encode()
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = json.dumps(payload, sort_keys=True).encode()
            content_type = "application/json"
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  413: "Payload Too Large", 426: "Upgrade Required",
                  429: "Too Many Requests", 503: "Service Unavailable",
                  504: "Gateway Timeout"}.get(status, "Error")
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n").encode()
        writer.write(head if head_only else head + body)
