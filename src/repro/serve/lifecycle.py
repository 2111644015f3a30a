"""The job lifecycle shared by the worker scheduler and the cluster router.

Both serving roles sit behind the same front door
(:class:`~repro.serve.server.SimulationServer`) and differ only in how
an admitted job gets computed.  :class:`JobLifecycle` owns the rest:
the job table and its finished-job LRU (``memo_limit``), admission
(coalescing onto live work, memo hits, resubmission of failed keys,
typed ``queue_full``/``draining`` rejection), the queries, ``drain``
and ``close``, and the terminal and retry transitions with their
metric and decision emission.  A role plugs in its dispatch strategy
through :meth:`~JobLifecycle._admit` and runs its tasks through
:meth:`~JobLifecycle._spawn`; decisions go through the role's metrics
object, so a worker emits ``ServeDecision`` and a router emits
``ClusterDecision`` carrying the job's shard.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict

from repro.serve import schema
from repro.serve.metrics import ServeMetrics
from repro.serve.schema import JobRequest, JobStatus, ServeError


class Job:
    """One admitted request's lifecycle.

    ``shard`` (the backend a router forwarded to) and ``served_by``
    (the worker that computed the result) are provenance; off-cluster a
    worker stamps ``served_by`` with its own name, if it has one, and
    ``shard`` stays ``None``.
    """

    __slots__ = ("key", "request", "state", "lane", "shard", "served_by",
                 "attempts", "coalesced", "error", "record", "created_s",
                 "started_s", "finished_s", "done")

    def __init__(self, key: str, request: JobRequest) -> None:
        self.key = key
        self.request = request
        self.state = schema.QUEUED
        self.lane: str | None = None
        self.shard: str | None = None
        self.served_by: str | None = None
        self.attempts = 0
        self.coalesced = 0
        self.error: str | None = None
        self.record: dict | None = None
        self.created_s = time.monotonic()
        self.started_s: float | None = None
        self.finished_s: float | None = None
        self.done = asyncio.Event()

    def status(self) -> JobStatus:
        now = time.monotonic()
        queued_for = (self.started_s or self.finished_s or now) \
            - self.created_s
        running_for = 0.0
        if self.started_s is not None:
            running_for = (self.finished_s or now) - self.started_s
        return JobStatus(job_id=self.key, state=self.state,
                         priority=self.request.priority, lane=self.lane,
                         attempts=self.attempts, coalesced=self.coalesced,
                         error=self.error, queued_for_s=queued_for,
                         running_for_s=running_for, shard=self.shard)


class JobLifecycle:
    """Job table, admission, queries, drain and the terminal/retry
    transitions; subclasses add the dispatch strategy."""

    role: str  # names the role, e.g. in "router closed" job errors

    def __init__(self, metrics: ServeMetrics, *, queue_limit: int,
                 memo_limit: int, max_attempts: int,
                 retry_backoff_s: float, signature: str) -> None:
        self.metrics = metrics
        self.queue_limit = max(1, int(queue_limit))
        self.memo_limit = max(1, int(memo_limit))
        self.max_attempts = max(1, int(max_attempts))
        self.retry_backoff_s = retry_backoff_s
        self.signature = signature
        self.draining = False
        self._closed = False
        self._jobs: dict[str, Job] = {}
        self._finished: OrderedDict[str, None] = OrderedDict()
        self._active = 0
        self._inflight_jobs = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._tasks: dict[asyncio.Task, float | None] = {}

    # -- dispatch hooks ------------------------------------------------
    def _admit(self, job: Job) -> None:
        """Hand a freshly admitted job to the dispatch strategy."""
        raise NotImplementedError

    def _kick(self) -> None:
        """Nudge the role's dispatcher loop, if it has one."""

    def _spawn(self, coroutine, deadline: float | None = None) -> None:
        """Run ``coroutine`` as a task that :meth:`close` cancels; a
        ``deadline`` (monotonic seconds) is for the role's watchdog."""
        assert self._loop is not None, f"{self.role} not started"
        task = self._loop.create_task(coroutine)
        self._tasks[task] = deadline
        task.add_done_callback(lambda done: self._tasks.pop(done, None))

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()

    async def drain(self, timeout_s: float | None = None) -> int:
        """Stop admitting, finish queued and in-flight jobs.

        Returns the number of jobs that were still live when the drain
        began.  Jobs that do not finish within ``timeout_s`` are left
        to :meth:`close` to cancel.
        """
        self.draining = True
        self.metrics.decision("drain")
        live = [job for job in self._jobs.values()
                if job.state not in schema.TERMINAL_STATES]
        self._kick()
        if live:
            waits = asyncio.gather(
                *(job.done.wait() for job in live))
            try:
                await asyncio.wait_for(waits, timeout_s)
            except asyncio.TimeoutError:
                pass  # whatever is left is close()'s to cancel
        drained = sum(1 for job in live
                      if job.state in schema.TERMINAL_STATES)
        self.metrics.count("drained", drained)
        return len(live)

    async def close(self) -> None:
        """Hard stop: cancel every spawned task, then every job still
        live."""
        self.draining = True
        self._closed = True
        tasks = list(self._tasks)
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        for job in list(self._jobs.values()):
            if job.state not in schema.TERMINAL_STATES:
                self._cancel(job)

    # -- submission ----------------------------------------------------
    def submit(self, request: JobRequest) -> tuple[Job, bool]:
        """Admit one request; returns ``(job, reused)``.

        ``reused`` is true when the submission coalesced onto an
        in-flight job or hit the memo of a finished one.  Raises
        :class:`ServeError` (``queue_full``/``draining``) on
        rejection.
        """
        key = schema.request_key(request, self.signature)
        self.metrics.count("submitted")
        if request.sequence is not None:
            self.metrics.count("sequence_frames")
        self.metrics.decision("submit", key=key)
        existing = self._jobs.get(key)
        if existing is not None:
            if existing.state in (schema.QUEUED, schema.RUNNING):
                existing.coalesced += 1
                self.metrics.count("coalesced")
                self.metrics.decision("coalesce", key=key,
                                      lane=existing.lane,
                                      shard=existing.shard)
                return existing, True
            if existing.state == schema.DONE:
                self.metrics.count("memo_hits")
                self.metrics.decision("memo_hit", key=key, lane="memo")
                return existing, True
            # Failed/timed-out/cancelled keys may be resubmitted: fall
            # through and replace the stale entry with a fresh job.
            self._finished.pop(key, None)
        if self.draining:
            self.metrics.count("rejected.draining")
            self.metrics.decision("reject", key=key)
            raise ServeError.draining()
        if self._active >= self.queue_limit:
            self.metrics.count("rejected.queue_full")
            self.metrics.decision("reject", key=key)
            raise ServeError.queue_full(self.queue_limit)
        job = Job(key, request)
        self._jobs[key] = job
        self._active += 1
        self.metrics.count("accepted")
        self._admit(job)
        self._pulse()
        return job, False

    # -- queries -------------------------------------------------------
    def status(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise ServeError.not_found(job_id)
        return job

    async def wait(self, job_id: str,
                   timeout_s: float | None = None) -> Job:
        job = self.status(job_id)
        try:
            await asyncio.wait_for(job.done.wait(), timeout_s)
        except asyncio.TimeoutError:
            raise ServeError.wait_timeout(job_id, timeout_s or 0.0) \
                from None
        return job

    def result_payload(self, job: Job) -> dict:
        """The :class:`~repro.serve.schema.JobResult` wire payload."""
        elapsed = ((job.finished_s or time.monotonic())
                   - job.created_s)
        payload = {"id": job.key, "state": job.state, "lane": job.lane,
                   "attempts": job.attempts,
                   "elapsed_s": elapsed, "result": None, "metrics": {},
                   "invariant_failures": [], "error": job.error,
                   "shard": job.shard, "served_by": job.served_by}
        record = job.record
        if record is not None:
            payload["result"] = record.get("result")
            payload["metrics"] = record.get("metrics", {})
            payload["invariant_failures"] = record.get(
                "invariant_failures", [])
        return payload

    def counts(self) -> dict:
        """Live job-population counts (the ``/healthz`` body)."""
        states: dict[str, int] = {}
        for job in self._jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        return {"active": self._active, "inflight": self._inflight_jobs,
                "states": states}

    # -- transitions ---------------------------------------------------
    def _pulse(self) -> None:
        self.metrics.gauge("inflight", self._inflight_jobs)
        self.metrics.gauge("active", self._active)

    def _finish(self, job: Job, state: str, *, record: dict | None = None,
                lane: str | None = None, error: str | None = None) -> None:
        job.state = state
        job.record = record
        if lane is not None:
            job.lane = lane
        job.error = error
        job.finished_s = time.monotonic()
        self._active -= 1
        if state == schema.DONE:
            self.metrics.count("completed")
            self.metrics.observe_latency(job.finished_s - job.created_s)
            self.metrics.decision("complete", key=job.key, lane=job.lane,
                                  shard=job.shard)
        else:
            self.metrics.count("failed")
            self.metrics.decision("fail", key=job.key, lane=job.lane,
                                  shard=job.shard)
        job.done.set()
        self._finished[job.key] = None
        while len(self._finished) > self.memo_limit:
            stale, _ = self._finished.popitem(last=False)
            self._jobs.pop(stale, None)
        self._pulse()

    def _start(self, job: Job) -> None:
        job.state = schema.RUNNING
        job.started_s = time.monotonic()
        job.attempts += 1

    def _cancel(self, job: Job) -> None:
        self._finish(job, schema.CANCELLED, error=f"{self.role} closed")

    def _retry_or_fail(self, job: Job, final_state: str,
                       message: str) -> float | None:
        """The retry transition: ``job`` goes back to QUEUED and the
        exponential backoff to wait before re-dispatching it is
        returned.  When its attempt budget is spent (or the role is
        closed) the job finishes in ``final_state`` instead and the
        result is ``None``."""
        if job.attempts >= self.max_attempts or self._closed:
            self._finish(job, final_state, error=message)
            return None
        self.metrics.count("retries")
        self.metrics.decision("retry", key=job.key)
        job.state = schema.QUEUED
        job.started_s = None
        return self.retry_backoff_s * (2 ** max(0, job.attempts - 1))

    def _track_inflight(self, delta: int) -> None:
        """Adjust the dispatched-jobs counter and its gauge in one
        synchronous step — atomic between suspension points, so the
        count can never be observed mid-update (SIM202 discipline)."""
        self._inflight_jobs += delta
        self._pulse()
