"""Cache-aware micro-batching scheduler over the PR 2 process pool.

The scheduler sees the whole queue of pending simulation requests —
the serving-side analogue of the paper's Tile Fetcher, which exploits
a fully known future access stream to schedule the memory hierarchy
optimally.  That foresight buys four things a one-shot CLI cannot
have:

- **coalescing** — identical request keys share one in-flight future
  (the *Rendering Elimination* early-discard idea applied to compute:
  redundant in-flight work is detected by identity, not recomputed);
- **micro-batching** — compatible jobs (same benchmark alias, scale
  and animation) are grouped into one pool call so the compiled trace
  is acquired once per batch (and the workload built only on a
  trace-store miss), exactly like the parallel engine's per-alias
  fan-out;
- **cache-aware ordering** — requests whose keys are warm in the PR 2
  disk store are served from a fast lane without ever occupying a
  pool slot, and finished results feed an in-memory memo so repeats
  are instant;
- **admission control** — a bounded queue rejects overload with a
  typed 429-style error instead of accepting unbounded latency.

Robustness: per-job timeouts with bounded exponential-backoff retry,
a watchdog that cancels overdue batches and recycles a wedged worker
pool, and a graceful drain that finishes queued + in-flight work
while rejecting new submissions (the SIGTERM path of ``tcor-serve``).

Everything here runs on one event loop; the only threads involved are
the executor bridges (``run_in_executor``) for pool batches and disk
I/O.  Admission, coalescing, the memo, the queries, drain and the
retry transition are the shared :class:`~repro.serve.lifecycle.
JobLifecycle`; this module adds only the dispatch strategy — priority
queues, micro-batches, the disk-warm lane and the process pool.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor

from repro.parallel.store import result_from_dict
from repro.serve import schema
from repro.serve.lifecycle import Job, JobLifecycle
from repro.serve.metrics import ServeMetrics
from repro.serve.tiers import record_for_result
from repro.serve.worker import bind_store, simulate_request_batch

DEFAULT_QUEUE_LIMIT = 64
DEFAULT_BATCH_WINDOW_S = 0.02
DEFAULT_BATCH_MAX = 8
DEFAULT_TIMEOUT_S = 600.0
DEFAULT_MAX_ATTEMPTS = 2
DEFAULT_RETRY_BACKOFF_S = 0.05
DEFAULT_WATCHDOG_INTERVAL_S = 1.0
DEFAULT_MEMO_LIMIT = 512


class Scheduler(JobLifecycle):
    """The worker role: micro-batched dispatch over one process pool."""

    role = "scheduler"

    def __init__(self, *, jobs: int = 2,
                 queue_limit: int = DEFAULT_QUEUE_LIMIT,
                 batch_window_s: float = DEFAULT_BATCH_WINDOW_S,
                 batch_max: int = DEFAULT_BATCH_MAX,
                 disk=None,
                 metrics: ServeMetrics | None = None,
                 default_timeout_s: float = DEFAULT_TIMEOUT_S,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                 retry_backoff_s: float = DEFAULT_RETRY_BACKOFF_S,
                 watchdog_interval_s: float = DEFAULT_WATCHDOG_INTERVAL_S,
                 memo_limit: int = DEFAULT_MEMO_LIMIT,
                 executor_factory=None,
                 name: str | None = None) -> None:
        # The request key carries the simulator-code signature exactly
        # when a disk store (which already computed it) is attached;
        # an in-memory-only scheduler keys on the payload alone.
        super().__init__(
            metrics if metrics is not None else ServeMetrics(),
            queue_limit=queue_limit, memo_limit=memo_limit,
            max_attempts=max_attempts, retry_backoff_s=retry_backoff_s,
            signature=getattr(disk, "signature", "") or "")
        self.jobs = max(1, int(jobs))
        # Provenance: a named scheduler (one shard of a cluster) stamps
        # its name into every result as ``served_by``.
        self.name = name
        self.batch_window_s = batch_window_s
        self.batch_max = max(1, int(batch_max))
        self.disk = disk
        self.default_timeout_s = default_timeout_s
        self.watchdog_interval_s = watchdog_interval_s
        self._executor_factory = executor_factory
        self._queues: dict[str, deque[Job]] = {
            priority: deque() for priority in schema.PRIORITIES}
        self._pool = None
        self._wake: asyncio.Event | None = None

    # -- lifecycle -----------------------------------------------------
    def _make_pool(self):
        if self._executor_factory is not None:
            return self._executor_factory(self.jobs)
        # Each pool process binds the store once: batches go trace-first.
        return ProcessPoolExecutor(max_workers=self.jobs,
                                   initializer=bind_store,
                                   initargs=(self.disk,))

    async def start(self) -> None:
        await super().start()
        self._pool = self._make_pool()
        self._wake = asyncio.Event()
        self._spawn(self._batch_loop())
        self._spawn(self._watch_loop())

    async def close(self) -> None:
        """Hard stop: cancel loops and in-flight batches, fail every
        job still live, shut the pool down without waiting."""
        await super().close()
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)

    # -- dispatch hooks ------------------------------------------------
    def _admit(self, job: Job) -> None:
        job.served_by = self.name
        self._queues[job.request.priority].append(job)
        self.metrics.decision("enqueue", key=job.key)
        self._kick()

    def _kick(self) -> None:
        if self._wake is not None:
            self._wake.set()

    def counts(self) -> dict:
        return {**super().counts(), "pending": self._pending_count()}

    # -- internals -----------------------------------------------------
    def _pending_count(self) -> int:
        return sum(1 for queue in self._queues.values()
                   for job in queue if job.state == schema.QUEUED)

    def _pulse(self) -> None:
        super()._pulse()
        self.metrics.gauge("queue_depth", self._pending_count())

    def _take_batch(self) -> list[Job]:
        """Up to ``batch_max`` queued jobs sharing the head job's
        (alias, scale), interactive lane first within the group."""
        head: Job | None = None
        for priority in schema.PRIORITIES:
            queue = self._queues[priority]
            while queue and queue[0].state != schema.QUEUED:
                queue.popleft()
            if queue:
                head = queue[0]
                break
        if head is None:
            return []
        # The animation recipe is part of batch compatibility: a batch
        # shares one workload build, and an animated workload is a
        # different (multi-frame) build per AnimationSpec.
        group = (head.request.alias, head.request.scale,
                 head.request.anim)
        batch: list[Job] = []
        for priority in schema.PRIORITIES:
            queue = self._queues[priority]
            kept: deque[Job] = deque()
            while queue:
                job = queue.popleft()
                if job.state != schema.QUEUED:
                    continue
                if (len(batch) < self.batch_max
                        and (job.request.alias, job.request.scale,
                             job.request.anim) == group):
                    batch.append(job)
                else:
                    kept.append(job)
            queue.extend(kept)
        return batch

    async def _batch_loop(self) -> None:
        assert self._wake is not None
        while True:
            await self._wake.wait()
            self._wake.clear()
            if not self._pending_count():
                continue
            if self.batch_window_s > 0:
                # The micro-batching window: let near-simultaneous
                # compatible submissions (and duplicates) land before
                # the group is cut.
                await asyncio.sleep(self.batch_window_s)
            while True:
                batch = self._take_batch()
                if not batch:
                    break
                cold = await self._serve_warm(batch)
                if cold:
                    self._dispatch(cold)
            self._pulse()

    async def _serve_warm(self, batch: list[Job]) -> list[Job]:
        """The disk-warm fast lane: complete cache hits immediately,
        return the jobs that actually need a pool slot.

        The whole batch is probed in *one* executor round-trip and the
        hits are finished in one synchronous sweep afterwards, so the
        job population mutates atomically between suspension points
        (SIM202 discipline) and the fast lane costs one thread
        hand-off per batch instead of one per job (SIM201's fix)."""
        if self.disk is None:
            return batch
        assert self._loop is not None
        hits = await self._loop.run_in_executor(
            None, schema.probe_disk_batch, self.disk,
            [job.request for job in batch])
        cold: list[Job] = []
        for job, hit in zip(batch, hits):
            if job.state != schema.QUEUED:
                # close()/drain raced the probe and already finished
                # this job; neither dispatch nor double-finish it.
                continue
            if hit is None:
                cold.append(job)
                continue
            self.metrics.count("disk_hits")
            self.metrics.decision("disk_hit", key=job.key, lane="disk")
            self._finish(job, schema.DONE, record=record_for_result(hit),
                         lane="disk")
        return cold

    def _dispatch(self, batch: list[Job]) -> None:
        timeout = max((job.request.timeout_s or self.default_timeout_s)
                      for job in batch)
        # Watchdog deadline: generous past the wait_for timeout, so it
        # only fires when the batch task itself is wedged.
        self._spawn(self._run_batch(batch, timeout),
                    deadline=(time.monotonic() + timeout
                              + 2 * self.watchdog_interval_s))

    async def _run_batch(self, batch: list[Job], timeout: float) -> None:
        assert self._loop is not None
        request0 = batch[0].request
        for job in batch:
            self._start(job)
        self.metrics.count("batches")
        self.metrics.count("batch_jobs", len(batch))
        self.metrics.observe_batch(len(batch))
        self.metrics.decision("dispatch", lane="pool", jobs=len(batch))
        self._track_inflight(len(batch))
        entries = tuple(
            (job.key, schema.config_to_payload(job.request.config))
            for job in batch)
        anim_payload = (schema.anim_to_payload(request0.anim)
                        if request0.anim is not None else None)
        pool = self._pool
        try:
            records = await asyncio.wait_for(
                self._loop.run_in_executor(
                    pool, simulate_request_batch,
                    request0.alias, request0.scale, entries,
                    anim_payload),
                timeout)
        except (asyncio.TimeoutError, asyncio.CancelledError):
            # Timeout, watchdog cancellation, or close(): the worker
            # may still be crunching a job nobody wants — recycle the
            # pool so the slot comes back, then retry the batch's jobs
            # on the fresh pool (up to their attempt budget).
            self.metrics.count("timeouts")
            self.metrics.decision("timeout", jobs=len(batch))
            self._recycle_pool(pool)
            for job in batch:
                self._retry_later(
                    job, schema.TIMEOUT,
                    f"batch timed out after {timeout:g}s")
        except Exception as exc:
            # Pool-level failure (BrokenProcessPool, pickling): the
            # simulation itself may be fine, so retry is worthwhile.
            self.metrics.decision("fail", jobs=len(batch))
            for job in batch:
                self._retry_later(
                    job, schema.FAILED,
                    f"{type(exc).__name__}: {exc}")
        else:
            # Completion is one synchronous sweep: every job in the
            # batch reaches its terminal state with no await between,
            # so status()/counts() readers never observe a
            # half-finished batch, and the memo/_jobs maps mutate
            # atomically on the loop.  Disk write-through happens
            # after, in one executor round-trip for the whole batch.
            by_key = {record["key"]: record for record in records}
            finished: list[tuple[Job, dict]] = []
            for job in batch:
                record = by_key.get(job.key)
                if record is None:
                    self._retry_later(job, schema.FAILED,
                                        "worker returned no record")
                elif record.get("error"):
                    # Deterministic simulation failure: retrying would
                    # reproduce it bit-for-bit, so fail immediately.
                    self._finish(job, schema.FAILED,
                                 error=record["error"])
                else:
                    self._finish(job, schema.DONE, record=record,
                                 lane="pool")
                    finished.append((job, record))
            await self._write_through_batch(finished)
        finally:
            self._track_inflight(-len(batch))

    async def _write_through_batch(
            self, finished: list[tuple[Job, dict]]) -> None:
        if self.disk is None or not finished:
            return
        assert self._loop is not None
        entries = [(job.request, result_from_dict(record["result"]))
                   for job, record in finished]
        await self._loop.run_in_executor(
            None, schema.store_disk_batch, self.disk, entries)

    def _retry_later(self, job: Job, final_state: str,
                     message: str) -> None:
        delay = self._retry_or_fail(job, final_state, message)
        if delay is not None:
            assert self._loop is not None
            self._loop.call_later(delay, self._requeue, job)

    def _requeue(self, job: Job) -> None:
        if job.state != schema.QUEUED:
            return  # close()'s sweep already cancelled it
        self._queues[job.request.priority].append(job)
        self._kick()

    def _recycle_pool(self, pool) -> None:
        if pool is None:
            return
        if pool is self._pool and not self._closed:
            self._pool = self._make_pool()
            self.metrics.count("pool_recycles")
            self.metrics.decision("recycle")
        pool.shutdown(wait=False, cancel_futures=True)

    async def _watch_loop(self) -> None:
        """Self-healing backstop: re-kick the batcher if pending work
        sits idle (a lost wakeup), and cancel any batch task that
        overran its deadline — the cancellation funnels into
        :meth:`_run_batch`'s timeout path, which recycles the pool."""
        while True:
            await asyncio.sleep(self.watchdog_interval_s)
            if self._pending_count():
                self._kick()
            now = time.monotonic()
            for task, deadline in list(self._tasks.items()):
                if deadline is not None and now > deadline \
                        and not task.done():
                    self.metrics.count("watchdog_cancels")
                    self.metrics.decision("recycle")
                    task.cancel()
