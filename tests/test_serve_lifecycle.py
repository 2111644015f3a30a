"""The shared job lifecycle, held to one contract in both serving roles.

Admission (typed 429/503 rejections), resubmission of failed keys,
memo eviction, the retry transition and decision-trace emission live in
:class:`~repro.serve.lifecycle.JobLifecycle`; every test here runs
against the worker :class:`Scheduler` (over a thread pool and a fake
worker) and the cluster :class:`Router` (over a fake backend speaking
just enough NDJSON), so the two roles cannot drift apart again.
"""

from __future__ import annotations

import ast
import asyncio
import inspect
import json
import socketserver
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import SimulationConfig
from repro.config import KIB
from repro.obs import Tracer, activation
from repro.obs.events import ClusterDecision, ServeDecision
from repro.parallel import result_to_dict
from repro.serve import lifecycle, metrics
from repro.serve import scheduler as scheduler_module
from repro.serve import schema
from repro.serve.cluster import Router, parse_backends
from repro.serve.scheduler import Scheduler
from repro.serve.schema import CANCELLED, DONE, FAILED, QUEUED, JobRequest, \
    ServeError
from repro.tcor.system import SystemResult

SCALE = 0.05
ROLES = ("scheduler", "router")


def make_result(alias="GTr"):
    return SystemResult(label="tcor", alias=alias, pb_l2_reads=11,
                        mm_reads=3, structure_accesses={"l2": 42})


def request(alias="GTr", *, size=None, **kwargs):
    config = SimulationConfig(tile_cache_bytes=size)
    return JobRequest(alias=alias, scale=SCALE, config=config, **kwargs)


def next_reply(replies, calls) -> str:
    """The scripted reply for the next call; the last one repeats."""
    return replies[min(len(calls), len(replies) - 1)]


def scripted_worker(replies, release):
    """A pool worker following ``replies`` per batch: ``ok``, ``error``
    (a deterministic simulation failure), ``retry`` (a pool failure,
    which the scheduler retries) or ``hold`` (block until released)."""
    calls = []

    def worker(alias, scale, entries, anim_payload=None):
        reply = next_reply(replies, calls)
        calls.append(entries)
        if reply == "hold":
            release.wait(30)
        if reply == "retry":
            raise RuntimeError("transient pool failure")
        if reply == "error":
            return [{"key": key, "error": "ValueError: flaky input"}
                    for key, _config in entries]
        return [{"key": key, "result": result_to_dict(make_result(alias)),
                 "metrics": {"fake.metric": 1.0},
                 "invariant_failures": []} for key, _config in entries]

    return worker


class FakeBackend:
    """A worker shard as the router sees it: ``healthz`` answers, and
    each ``submit`` follows ``replies`` — ``ok``/``error`` answer with a
    done/failed result, ``retry`` with a typed ``queue_full``, and
    ``hold`` accepts the job and never replies."""

    def __init__(self, replies, release: threading.Event) -> None:
        self.calls: list[dict] = []
        lock = threading.Lock()
        backend = self

        class Handler(socketserver.StreamRequestHandler):
            def handle(self):
                for line in self.rfile:
                    payload = json.loads(line)
                    if payload.get("op") == "healthz":
                        reply = {"ok": True,
                                 "schema_version": schema.SCHEMA_VERSION}
                    else:
                        with lock:
                            script = next_reply(replies, backend.calls)
                            backend.calls.append(payload)
                        if script == "hold":
                            release.wait(30)
                            return
                        reply = backend.answer(payload, script)
                    self.wfile.write(json.dumps(reply).encode() + b"\n")

        self.server = socketserver.ThreadingTCPServer(("127.0.0.1", 0),
                                                      Handler)
        self.server.daemon_threads = True
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       daemon=True)
        self.thread.start()

    @property
    def address(self) -> str:
        host, port = self.server.server_address
        return f"{host}:{port}"

    @staticmethod
    def answer(payload: dict, script: str) -> dict:
        if script == "retry":
            return {"ok": False,
                    "error": ServeError.queue_full(1).to_payload()}
        job = schema.request_from_payload(payload["request"])
        done = script == "ok"
        result = {"id": "fake", "state": DONE if done else FAILED,
                  "lane": "pool", "attempts": 1, "elapsed_s": 0.0,
                  "result": (result_to_dict(make_result(job.alias))
                             if done else None),
                  "metrics": {"fake.metric": 1.0} if done else {},
                  "invariant_failures": [],
                  "error": None if done else "ValueError: flaky input",
                  "shard": None, "served_by": "fake"}
        return {"ok": True, "id": "fake", "reused": False,
                "result": result}

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()


def run_role(role, body, monkeypatch, *, replies=("ok",),
             max_attempts=2, retry_backoff_s=0.01, **limits):
    """Run ``await body(core)`` against a started Scheduler or Router
    whose compute answers per ``replies``, closing it afterwards."""
    release = threading.Event()
    backend = None
    if role == "scheduler":
        monkeypatch.setattr(scheduler_module, "simulate_request_batch",
                            scripted_worker(replies, release))

        def make():
            return Scheduler(
                executor_factory=lambda jobs: ThreadPoolExecutor(
                    max_workers=jobs),
                batch_window_s=0.01, max_attempts=max_attempts,
                retry_backoff_s=retry_backoff_s, **limits)
    else:
        backend = FakeBackend(replies, release)

        def make():
            return Router(parse_backends([backend.address]),
                          probe_interval_s=0.2,
                          max_forward_attempts=max_attempts,
                          retry_backoff_s=retry_backoff_s, **limits)

    async def main():
        core = make()
        await core.start()
        try:
            return await body(core)
        finally:
            await core.close()

    try:
        return asyncio.run(main())
    finally:
        release.set()
        if backend is not None:
            backend.close()


@pytest.mark.parametrize("role", ROLES)
class TestAdmissionControl:
    def test_full_queue_rejects_with_429(self, role, monkeypatch):
        async def body(sched):
            sched.submit(request(size=32 * KIB))
            sched.submit(request(size=64 * KIB))
            with pytest.raises(ServeError) as excinfo:
                sched.submit(request(size=128 * KIB))
            assert excinfo.value.code == "queue_full"
            assert excinfo.value.http_status == 429
            assert sched.metrics.value("rejected.queue_full") == 1
            # Coalescing onto live work is still allowed at capacity.
            _, reused = sched.submit(request(size=32 * KIB))
            assert reused

        run_role(role, body, monkeypatch, replies=("hold",),
                 queue_limit=2)

    def test_draining_rejects_with_503(self, role, monkeypatch):
        async def body(sched):
            await sched.drain(timeout_s=1)
            with pytest.raises(ServeError) as excinfo:
                sched.submit(request())
            assert excinfo.value.code == "draining"
            assert excinfo.value.http_status == 503
            assert sched.metrics.value("rejected.draining") == 1

        run_role(role, body, monkeypatch)


@pytest.mark.parametrize("role", ROLES)
class TestFailureModes:
    def test_failed_key_can_be_resubmitted(self, role, monkeypatch):
        async def body(sched):
            first, _ = sched.submit(request())
            await asyncio.wait_for(first.done.wait(), 10)
            assert first.state == FAILED
            second, reused = sched.submit(request())
            assert not reused and second is not first
            await asyncio.wait_for(second.done.wait(), 10)
            assert second.state == DONE

        run_role(role, body, monkeypatch, replies=("error", "ok"),
                 max_attempts=1)

    def test_retry_waits_as_queued_not_running(self, role, monkeypatch):
        """A job backing off between attempts is QUEUED again: its
        running clock resets instead of ticking through the wait."""
        async def body(core):
            job, _ = core.submit(request())
            for _ in range(2000):
                if job.attempts == 1 and job.state == QUEUED:
                    break  # the first attempt was refused: backing off
                await asyncio.sleep(0.005)
            status = core.status(job.key).status()
            assert status.state == QUEUED
            assert status.running_for_s == 0
            await asyncio.wait_for(job.done.wait(), 10)
            assert job.state == DONE and job.attempts == 2
            assert core.metrics.value("retries") == 1

        run_role(role, body, monkeypatch, replies=("retry", "ok"),
                 retry_backoff_s=0.5)


@pytest.mark.parametrize("role", ROLES)
def test_close_cancels_a_job_backing_off(role, monkeypatch):
    async def body(core):
        job, _ = core.submit(request())
        for _ in range(2000):
            if job.attempts == 1 and job.state == QUEUED:
                break  # waiting out the retry backoff
            await asyncio.sleep(0.005)
        await core.close()
        assert job.done.is_set()
        assert job.state == CANCELLED
        assert job.error == f"{role} closed"

    run_role(role, body, monkeypatch, replies=("retry",),
             retry_backoff_s=5.0)


@pytest.mark.parametrize("role", ROLES)
class TestMemo:
    def test_evicted_key_is_not_found(self, role, monkeypatch):
        async def body(core):
            first, _ = core.submit(request(size=32 * KIB))
            await asyncio.wait_for(first.done.wait(), 10)
            second, _ = core.submit(request(size=64 * KIB))
            await asyncio.wait_for(second.done.wait(), 10)
            assert core.status(second.key) is second
            with pytest.raises(ServeError) as excinfo:
                core.status(first.key)
            assert excinfo.value.code == "not_found"
            assert excinfo.value.http_status == 404

        run_role(role, body, monkeypatch, memo_limit=1)


@pytest.mark.parametrize("role", ROLES)
def test_decisions_reach_the_tracer(role, monkeypatch):
    tracer = Tracer()

    async def body(core):
        with activation(tracer):
            job, _ = core.submit(request())
            await asyncio.wait_for(job.done.wait(), 10)
            _, reused = core.submit(request())
        assert reused

    run_role(role, body, monkeypatch)
    events = [event for event in tracer.ring
              if isinstance(event, (ServeDecision, ClusterDecision))]
    ops = [event.op for event in events]
    if role == "scheduler":
        assert all(type(event) is ServeDecision for event in events)
        assert ops == ["submit", "enqueue", "dispatch", "complete",
                       "submit", "memo_hit"]
    else:
        assert all(type(event) is ClusterDecision for event in events)
        assert ops == ["submit", "forward", "complete", "submit",
                       "memo_hit"]
        shards = {event.op: event.shard for event in events}
        assert shards["forward"] == shards["complete"] == "shard0"
        assert shards["submit"] is None
    lanes = {event.op: event.lane for event in events}
    assert lanes["complete"] == "pool" and lanes["memo_hit"] == "memo"


def test_core_metric_names_exist_in_both_namespaces():
    """The core emits through either role's metrics, so every name it
    uses must be pre-registered in the worker and the cluster tables
    (the metric-name lint resolves the core against ``serve.*`` only)."""
    emitted = {"count": set(), "gauge": set()}
    for node in ast.walk(ast.parse(inspect.getsource(lifecycle))):
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in emitted and node.args \
                and isinstance(node.args[0], ast.Constant):
            emitted[node.func.attr].add(node.args[0].value)
    assert {"accepted", "retries", "drained"} <= emitted["count"]
    assert emitted["count"] <= set(metrics.COUNTERS)
    assert emitted["count"] <= set(metrics.CLUSTER_COUNTERS)
    assert emitted["gauge"] <= set(metrics.GAUGES)
    assert emitted["gauge"] <= set(metrics.CLUSTER_GAUGES)
