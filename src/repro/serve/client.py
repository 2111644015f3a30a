"""Blocking NDJSON client for the simulation service — cluster-aware.

A deliberately small, dependency-free client over one TCP socket: one
JSON object per line out, one per line back.  The same client speaks
to a single ``tcor-serve`` worker or to the cluster router (the router
duck-types the whole server surface), and accepts one address or a
list — with a list, connection is established to the first endpoint
that answers and connection-level failures mid-call fail over to the
next (safe to retry: request keys are deterministic, so a resubmission
coalesces or memo-hits instead of recomputing).

*Every* failure path raises the typed :class:`ServeClientError`:
server-reported errors re-raise with the server's code and
HTTP-equivalent status (``queue_full``, ``draining``,
``version_mismatch``, ...), socket timeouts surface as
``code="timeout"``, refused/dropped connections as
``code="connect_failed"``/``"disconnected"``, and malformed replies as
``code="protocol"`` — callers never see a bare ``OSError``.

Requests carry the wire-schema version (``"v"``); a server more than
one schema step away answers with the typed ``version_mismatch`` (HTTP
426) instead of silently misparsing.

Synchronous on purpose: the callers are tests, scripts and notebook
cells; the asynchrony lives server-side.
"""

from __future__ import annotations

import hashlib
import json
import socket

from repro.serve import schema
from repro.serve.schema import JobRequest, JobResult, JobStatus


def sequence_name(alias: str, scale: float, anim) -> str:
    """Deterministic affinity name for one animation stream.

    Derived from the stream's content (benchmark, scale, recipe), so
    every client streaming the same sequence shares one ring placement
    without coordinating.
    """
    recipe = json.dumps(
        {"alias": alias, "scale": scale,
         "anim": schema.anim_to_payload(anim)},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(recipe.encode()).hexdigest()[:16]


class ServeClientError(Exception):
    """A serving failure, typed: server-reported or transport-level."""

    def __init__(self, code: str, message: str, http_status: int) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message
        self.http_status = http_status

    @classmethod
    def from_payload(cls, payload: dict) -> "ServeClientError":
        return cls(str(payload.get("code", "internal")),
                   str(payload.get("message", "unknown error")),
                   int(payload.get("http_status", 500)))


def _normalize_endpoints(host, port, endpoints) -> list[tuple[str, int]]:
    """The endpoint list from the constructor's flexible forms:
    ``(host, port)``, one ``"host:port"`` string, or a list of either
    shape (strings or pairs)."""
    if endpoints is None:
        if isinstance(host, (list, tuple)):
            if (len(host) == 2 and isinstance(host[0], str)
                    and isinstance(host[1], int)):
                return [(host[0], host[1])]
            endpoints = host
        elif isinstance(host, str) and ":" in host:
            endpoints = [host]
        else:
            return [(str(host), int(port))]
    resolved: list[tuple[str, int]] = []
    for entry in endpoints:
        if isinstance(entry, str):
            name, _, number = entry.rpartition(":")
            if not name or not number.isdigit():
                raise ServeClientError(
                    "bad_endpoint",
                    f"endpoint must be host:port, got {entry!r}", 400)
            resolved.append((name, int(number)))
        else:
            name, number = entry
            resolved.append((str(name), int(number)))
    if not resolved:
        raise ServeClientError("bad_endpoint",
                               "no endpoints given", 400)
    return resolved


class ServeClient:
    """One NDJSON connection to a server or router, with failover.

    ``ServeClient("127.0.0.1", 8763)``, ``ServeClient("host:8763")``
    and ``ServeClient(["host:8763", "host:8764"])`` are all valid; so
    is ``ServeClient(endpoints=[...])``.  One connection is live at a
    time — the list is a preference order, not a fan-out.
    """

    def __init__(self, host="127.0.0.1", port: int = 0, *,
                 endpoints=None, timeout_s: float | None = 60.0) -> None:
        self.endpoints = _normalize_endpoints(host, port, endpoints)
        self.timeout_s = timeout_s
        self._sock: socket.socket | None = None
        self._file = None
        self._endpoint_index = 0
        self._connect_any()
        # Kept for callers that introspect where the client landed.
        self.host, self.port = self.endpoints[self._endpoint_index]

    # -- connection management -----------------------------------------
    def _connect_to(self, index: int) -> None:
        host, port = self.endpoints[index]
        sock = socket.create_connection((host, port),
                                        timeout=self.timeout_s)
        self._sock = sock
        self._file = sock.makefile("rwb")
        self._endpoint_index = index
        self.host, self.port = host, port

    def _connect_any(self) -> None:
        """Connect to the first answering endpoint, starting from the
        current preference; raises typed ``connect_failed`` when every
        endpoint refuses."""
        last: Exception | None = None
        order = [(self._endpoint_index + offset) % len(self.endpoints)
                 for offset in range(len(self.endpoints))]
        for index in order:
            try:
                self._connect_to(index)
                return
            except OSError as exc:
                last = exc
        raise ServeClientError(
            "connect_failed",
            f"could not connect to any of "
            f"{['%s:%d' % pair for pair in self.endpoints]}: {last}",
            502)

    def _drop_connection(self) -> None:
        file, sock = self._file, self._sock
        self._file = None
        self._sock = None
        for handle in (file, sock):
            try:
                if handle is not None:
                    handle.close()
            except OSError:
                pass  # connection already dead; dropping it is the point

    def close(self) -> None:
        """Idempotent: safe to call twice, and safe via ``__exit__``
        even when the constructor's connect failed."""
        self._drop_connection()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- wire ----------------------------------------------------------
    def call(self, payload: dict) -> dict:
        """One request/response round trip; raises typed errors only.

        Connection-level failures (reset, EOF, refused) fail over to
        the next endpoint and retry the payload once per endpoint —
        deterministic request keys make the retry idempotent.  Socket
        timeouts do *not* fail over (the job may well be running;
        callers can re-``wait`` on it) and raise ``code="timeout"``.
        """
        if "v" not in payload:
            payload = dict(payload)
            payload["v"] = schema.SCHEMA_VERSION
        attempts = max(1, len(self.endpoints))
        for attempt in range(attempts):
            if self._file is None:
                self._connect_any()
            try:
                return self._round_trip(payload)
            except socket.timeout:
                # TimeoutError subclasses OSError: catch it first.  The
                # connection is mid-reply and unusable; drop it so the
                # next call reconnects cleanly.
                self._drop_connection()
                raise ServeClientError(
                    "timeout",
                    f"no reply from {self.host}:{self.port} within "
                    f"{self.timeout_s:g}s", 504) from None
            except (ConnectionError, OSError) as exc:
                failed = self._endpoint_index
                self._drop_connection()
                if attempt + 1 >= attempts:
                    raise ServeClientError(
                        "disconnected",
                        f"lost connection to {self.host}:{self.port}: "
                        f"{exc}", 502) from None
                self._endpoint_index = (failed + 1) % len(self.endpoints)
        raise AssertionError("unreachable")  # loop always returns/raises

    def _round_trip(self, payload: dict) -> dict:
        assert self._file is not None
        self._file.write(json.dumps(payload).encode() + b"\n")
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        try:
            response = json.loads(line)
        except json.JSONDecodeError as exc:
            self._drop_connection()
            raise ServeClientError(
                "protocol", f"server sent invalid JSON: {exc}",
                502) from None
        if not isinstance(response, dict):
            self._drop_connection()
            raise ServeClientError(
                "protocol", "server sent a non-object reply", 502)
        if not response.get("ok", False):
            raise ServeClientError.from_payload(
                response.get("error") or {})
        return response

    # -- typed operations ----------------------------------------------
    def submit(self, request: JobRequest, *, wait: bool = False,
               timeout_s: float | None = None) -> dict:
        payload: dict = {"op": "submit",
                         "request": schema.request_to_payload(request)}
        if wait:
            payload["wait"] = True
            if timeout_s is not None:
                payload["timeout_s"] = timeout_s
        return self.call(payload)

    def run(self, request: JobRequest,
            timeout_s: float | None = None) -> JobResult:
        """Submit and block until the typed result is back."""
        response = self.submit(request, wait=True, timeout_s=timeout_s)
        return schema.job_result_from_payload(response["result"])

    def run_sequence(self, alias: str, anim, *, scale: float = 1.0,
                     config=None, sequence: str | None = None,
                     priority: str = schema.DEFAULT_PRIORITY,
                     timeout_s: float | None = None) -> list[JobResult]:
        """Stream one animated sequence as cumulative frame prefixes.

        Frame ``f`` submits the request for ``anim.prefix(f + 1)`` —
        the animation layer's determinism contract guarantees every
        prefix reproduces the first frames bit-for-bit, so prefix
        requests are content-addressed and coalesce/memoize like any
        other.  Each frame after the first re-asserts the previous
        prefix first (an instant memo hit on a warm scheduler), which
        both exploits and surfaces sequence warmth in the ``serve.*``
        metrics; all submissions carry the same ``sequence`` affinity
        hint so the cluster router pins the stream to one shard.
        Returns one :class:`JobResult` per frame, in order.
        """
        from repro.api import SimulationConfig

        config = config if config is not None else SimulationConfig()
        if sequence is None:
            sequence = sequence_name(alias, scale, anim)
        results: list[JobResult] = []
        previous: JobRequest | None = None
        for frame in range(anim.frames):
            request = JobRequest(alias=alias, scale=scale, config=config,
                                 priority=priority, timeout_s=timeout_s,
                                 anim=anim.prefix(frame + 1),
                                 sequence=sequence)
            if previous is not None:
                self.run(previous, timeout_s=timeout_s)
            results.append(self.run(request, timeout_s=timeout_s))
            previous = request
        return results

    def status(self, job_id: str) -> JobStatus:
        response = self.call({"op": "status", "id": job_id})
        return schema.status_from_payload(response["status"])

    def wait(self, job_id: str,
             timeout_s: float | None = None) -> JobResult:
        payload: dict = {"op": "wait", "id": job_id}
        if timeout_s is not None:
            payload["timeout_s"] = timeout_s
        response = self.call(payload)
        return schema.job_result_from_payload(response["result"])

    def healthz(self) -> dict:
        return self.call({"op": "healthz"})

    def metrics(self) -> dict:
        return self.call({"op": "metrics"})["metrics"]
