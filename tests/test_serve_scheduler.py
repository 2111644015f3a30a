"""Scheduler unit tests: coalescing, batching, lanes, robustness.

The process pool is swapped for a thread pool (``executor_factory``)
and the worker for controllable fakes, so every scheduling decision is
tested deterministically and in milliseconds; the real pool + real
simulator path is covered by ``test_serve_endtoend.py``.  The
admission and retry contract shared with the cluster router is tested
against both roles in ``test_serve_lifecycle.py``.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.api import SimulationConfig
from repro.config import KIB
from repro.parallel import result_from_dict, result_to_dict
from repro.serve import scheduler as scheduler_module
from repro.serve.scheduler import Scheduler
from repro.serve.schema import DONE, FAILED, QUEUED, TIMEOUT, JobRequest
from repro.tcor.system import SystemResult

SCALE = 0.05


def make_result(alias="GTr", label="tcor"):
    return SystemResult(label=label, alias=alias, pb_l2_reads=11,
                        mm_reads=3, structure_accesses={"l2": 42})


def good_records(alias, scale, entries, anim_payload=None):
    return [{"key": key, "result": result_to_dict(make_result(alias)),
             "metrics": {"fake.metric": 1.0}, "invariant_failures": []}
            for key, _config in entries]


def request(alias="GTr", *, size=None, **kwargs):
    config = SimulationConfig(tile_cache_bytes=size)
    return JobRequest(alias=alias, scale=SCALE, config=config, **kwargs)


def run_with_scheduler(body, **kwargs):
    """Run ``await body(sched)`` against a started thread-pool-backed
    scheduler, closing it afterwards."""
    kwargs.setdefault("executor_factory",
                      lambda jobs: ThreadPoolExecutor(max_workers=jobs))
    kwargs.setdefault("batch_window_s", 0.01)
    kwargs.setdefault("retry_backoff_s", 0.01)

    async def main():
        sched = Scheduler(**kwargs)
        await sched.start()
        try:
            return await body(sched)
        finally:
            await sched.close()

    return asyncio.run(main())


class TestHappyPath:
    def test_job_completes_on_the_pool_lane(self, monkeypatch):
        monkeypatch.setattr(scheduler_module, "simulate_request_batch",
                            good_records)

        async def body(sched):
            job, reused = sched.submit(request())
            assert not reused and job.state == QUEUED
            await asyncio.wait_for(job.done.wait(), 5)
            assert job.state == DONE and job.lane == "pool"
            assert job.attempts == 1
            payload = sched.result_payload(job)
            assert result_from_dict(payload["result"]) == make_result()
            assert payload["metrics"] == {"fake.metric": 1.0}
            assert sched.metrics.value("completed") == 1

        run_with_scheduler(body)

    def test_memo_serves_repeat_submissions(self, monkeypatch):
        monkeypatch.setattr(scheduler_module, "simulate_request_batch",
                            good_records)

        async def body(sched):
            job, _ = sched.submit(request())
            await asyncio.wait_for(job.done.wait(), 5)
            again, reused = sched.submit(request())
            assert reused and again is job
            assert sched.metrics.value("memo_hits") == 1

        run_with_scheduler(body)


class TestCoalescing:
    def test_identical_keys_share_one_job(self, monkeypatch):
        calls = []

        def worker(alias, scale, entries, anim_payload=None):
            calls.append(entries)
            return good_records(alias, scale, entries)
        monkeypatch.setattr(scheduler_module, "simulate_request_batch",
                            worker)

        async def body(sched):
            first, reused_a = sched.submit(request())
            # Identical simulation, different scheduling hints: must
            # coalesce, not fork a second job.
            dup, reused_b = sched.submit(request(priority="interactive"))
            assert not reused_a and reused_b and dup is first
            assert first.coalesced == 1
            await asyncio.wait_for(first.done.wait(), 5)
            assert sched.metrics.value("coalesced") == 1
            assert sched.metrics.value("accepted") == 1
            assert len(calls) == 1 and len(calls[0]) == 1

        run_with_scheduler(body, batch_window_s=0.1)


class TestMicroBatching:
    def test_compatible_jobs_share_one_worker_call(self, monkeypatch):
        calls = []

        def worker(alias, scale, entries, anim_payload=None):
            calls.append((alias, len(entries)))
            return good_records(alias, scale, entries)
        monkeypatch.setattr(scheduler_module, "simulate_request_batch",
                            worker)

        async def body(sched):
            jobs = [sched.submit(request(size=size))[0]
                    for size in (32 * KIB, 64 * KIB, 128 * KIB)]
            jobs.append(sched.submit(request("CCS"))[0])
            await asyncio.wait_for(
                asyncio.gather(*(job.done.wait() for job in jobs)), 10)
            assert sorted(calls) == [("CCS", 1), ("GTr", 3)]
            assert sched.metrics.value("batches") == 2
            assert sched.metrics.value("batch_jobs") == 4

        run_with_scheduler(body, batch_window_s=0.1, batch_max=8)

    def test_interactive_lane_goes_first(self, monkeypatch):
        order = []

        def worker(alias, scale, entries, anim_payload=None):
            order.append(alias)
            return good_records(alias, scale, entries)
        monkeypatch.setattr(scheduler_module, "simulate_request_batch",
                            worker)

        async def body(sched):
            slow = sched.submit(request("CCS"))[0]
            fast = sched.submit(request(priority="interactive"))[0]
            await asyncio.wait_for(
                asyncio.gather(slow.done.wait(), fast.done.wait()), 10)
            assert order[0] == "GTr"

        run_with_scheduler(body, batch_window_s=0.1, jobs=1)


class TestAdmissionControl:
    def test_drain_finishes_inflight_work(self, monkeypatch):
        release = threading.Event()

        def worker(alias, scale, entries, anim_payload=None):
            release.wait(5)
            return good_records(alias, scale, entries)
        monkeypatch.setattr(scheduler_module, "simulate_request_batch",
                            worker)

        async def body(sched):
            job, _ = sched.submit(request())
            while job.state == QUEUED:
                await asyncio.sleep(0.005)
            drain = asyncio.create_task(sched.drain(timeout_s=5))
            await asyncio.sleep(0.02)
            release.set()
            assert await drain == 1
            assert job.state == DONE
            assert sched.metrics.value("drained") == 1

        try:
            run_with_scheduler(body)
        finally:
            release.set()


class TestFailureModes:
    def test_pool_error_retries_then_succeeds(self, monkeypatch):
        attempts = []

        def worker(alias, scale, entries, anim_payload=None):
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("transient pool failure")
            return good_records(alias, scale, entries)
        monkeypatch.setattr(scheduler_module, "simulate_request_batch",
                            worker)

        async def body(sched):
            job, _ = sched.submit(request())
            await asyncio.wait_for(job.done.wait(), 10)
            assert job.state == DONE and job.attempts == 2
            assert sched.metrics.value("retries") == 1

        run_with_scheduler(body, max_attempts=2)

    def test_attempt_budget_exhausts_to_failed(self, monkeypatch):
        def worker(alias, scale, entries, anim_payload=None):
            raise RuntimeError("persistent pool failure")
        monkeypatch.setattr(scheduler_module, "simulate_request_batch",
                            worker)

        async def body(sched):
            job, _ = sched.submit(request())
            await asyncio.wait_for(job.done.wait(), 10)
            assert job.state == FAILED and job.attempts == 2
            assert "persistent pool failure" in job.error
            assert sched.metrics.value("failed") == 1

        run_with_scheduler(body, max_attempts=2)

    def test_deterministic_sim_error_is_not_retried(self, monkeypatch):
        def worker(alias, scale, entries, anim_payload=None):
            return [{"key": key, "error": "ValueError: bad geometry"}
                    for key, _config in entries]
        monkeypatch.setattr(scheduler_module, "simulate_request_batch",
                            worker)

        async def body(sched):
            job, _ = sched.submit(request())
            await asyncio.wait_for(job.done.wait(), 10)
            assert job.state == FAILED and job.attempts == 1
            assert job.error == "ValueError: bad geometry"
            assert sched.metrics.value("retries") == 0

        run_with_scheduler(body, max_attempts=3)

    def test_timeout_recycles_the_pool(self, monkeypatch):
        pools_made = []

        def factory(jobs):
            pools_made.append(1)
            return ThreadPoolExecutor(max_workers=jobs)

        def worker(alias, scale, entries, anim_payload=None):
            import time
            time.sleep(0.4)
            return good_records(alias, scale, entries)
        monkeypatch.setattr(scheduler_module, "simulate_request_batch",
                            worker)

        async def body(sched):
            job, _ = sched.submit(request(timeout_s=0.05))
            await asyncio.wait_for(job.done.wait(), 10)
            assert job.state == TIMEOUT
            assert "timed out" in job.error
            assert sched.metrics.value("timeouts") == 1
            assert sched.metrics.value("pool_recycles") == 1
            assert len(pools_made) == 2  # the original + the recycle

        run_with_scheduler(body, max_attempts=1, executor_factory=factory)


class FakeDisk:
    """Duck-typed stand-in for the PR 2 DiskCache."""

    signature = "fake-sig"

    def __init__(self, warm=None):
        self.warm = warm
        self.put_calls = []

    def get_tcor(self, spec, scale, tcor, *, l2_enhancements):
        return self.warm

    def get_baseline(self, spec, scale, size_bytes):
        return self.warm

    def put_tcor(self, spec, scale, tcor, *, l2_enhancements, result):
        self.put_calls.append(("tcor", spec.alias, result))

    def put_baseline(self, spec, scale, size_bytes, result):
        self.put_calls.append(("baseline", spec.alias, result))


class TestDiskLane:
    def test_warm_key_never_takes_a_pool_slot(self, monkeypatch):
        def bomb(alias, scale, entries, anim_payload=None):
            raise AssertionError("disk-warm job reached the pool")
        monkeypatch.setattr(scheduler_module, "simulate_request_batch",
                            bomb)
        disk = FakeDisk(warm=make_result())

        async def body(sched):
            job, _ = sched.submit(request())
            await asyncio.wait_for(job.done.wait(), 5)
            assert job.state == DONE and job.lane == "disk"
            payload = sched.result_payload(job)
            assert result_from_dict(payload["result"]) == make_result()
            assert sched.metrics.value("disk_hits") == 1
            assert sched.metrics.value("batches") == 0

        run_with_scheduler(body, disk=disk)

    def test_unmappable_requests_bypass_the_disk(self, monkeypatch):
        monkeypatch.setattr(scheduler_module, "simulate_request_batch",
                            good_records)
        disk = FakeDisk(warm=make_result())

        async def body(sched):
            bypass = JobRequest(alias="GTr", scale=SCALE,
                                config=SimulationConfig(
                                    include_background=False))
            job, _ = sched.submit(bypass)
            await asyncio.wait_for(job.done.wait(), 5)
            assert job.lane == "pool"
            assert sched.metrics.value("disk_hits") == 0

        run_with_scheduler(body, disk=disk)

    def test_cold_miss_writes_through(self, monkeypatch):
        monkeypatch.setattr(scheduler_module, "simulate_request_batch",
                            good_records)
        disk = FakeDisk(warm=None)

        async def body(sched):
            job, _ = sched.submit(request())
            await asyncio.wait_for(job.done.wait(), 5)
            assert job.lane == "pool"
            # Write-through is async; give the executor hop a beat.
            for _ in range(100):
                if disk.put_calls:
                    break
                await asyncio.sleep(0.01)
            assert disk.put_calls == [("tcor", "GTr", make_result())]

        run_with_scheduler(body, disk=disk)

    def test_null_record_is_a_miss_not_a_dead_batcher(
            self, monkeypatch, tmp_path):
        # A stored record overwritten with JSON ``null`` must read as a
        # counted miss: the job completes on the pool lane instead of
        # the probe's exception ending the batch loop for good.
        from repro.parallel import DiskCache

        monkeypatch.setattr(scheduler_module, "simulate_request_batch",
                            good_records)
        disk = DiskCache(tmp_path, signature="sig")
        scheduler_module.schema.store_disk(disk, request(), make_result())
        (record,) = tmp_path.glob("*.json")
        record.write_text("null")

        async def body(sched):
            job, _ = sched.submit(request())
            await asyncio.wait_for(job.done.wait(), 5)
            assert job.state == DONE and job.lane == "pool"
            assert disk.corrupt == 1

        run_with_scheduler(body, disk=disk)

    def test_warm_batch_probes_in_one_executor_round_trip(
            self, monkeypatch):
        # The fast lane costs one thread hand-off per micro-batch, not
        # one per job (the SIM201 fix): three warm submissions in one
        # window must reach the store through a single batched probe.
        def bomb(alias, scale, entries, anim_payload=None):
            raise AssertionError("disk-warm job reached the pool")
        monkeypatch.setattr(scheduler_module, "simulate_request_batch",
                            bomb)
        probe_batches = []
        single_probe = scheduler_module.schema.probe_disk_batch

        def counting(disk, requests):
            probe_batches.append(list(requests))
            return single_probe(disk, requests)
        monkeypatch.setattr(scheduler_module.schema, "probe_disk_batch",
                            counting)
        disk = FakeDisk(warm=make_result())

        async def body(sched):
            jobs = [sched.submit(request(size=(i + 1) * 128 * KIB))[0]
                    for i in range(3)]
            await asyncio.gather(
                *(asyncio.wait_for(job.done.wait(), 5) for job in jobs))
            assert all(job.state == DONE and job.lane == "disk"
                       for job in jobs)
            assert sched.metrics.value("disk_hits") == 3
            assert len(probe_batches) == 1
            assert len(probe_batches[0]) == 3

        run_with_scheduler(body, disk=disk, batch_window_s=0.1)

    def test_cold_batch_writes_through_in_one_round_trip(
            self, monkeypatch):
        # Write-through is batched the same way: one executor hop
        # stores every record the batch produced.
        monkeypatch.setattr(scheduler_module, "simulate_request_batch",
                            good_records)
        store_batches = []
        single_store = scheduler_module.schema.store_disk_batch

        def counting(disk, entries):
            store_batches.append(list(entries))
            return single_store(disk, entries)
        monkeypatch.setattr(scheduler_module.schema, "store_disk_batch",
                            counting)
        disk = FakeDisk(warm=None)

        async def body(sched):
            jobs = [sched.submit(request(size=(i + 1) * 128 * KIB))[0]
                    for i in range(3)]
            await asyncio.gather(
                *(asyncio.wait_for(job.done.wait(), 5) for job in jobs))
            assert all(job.lane == "pool" for job in jobs)
            # Write-through is async; give the executor hop a beat.
            for _ in range(100):
                if len(disk.put_calls) == 3:
                    break
                await asyncio.sleep(0.01)
            assert len(store_batches) == 1
            assert len(store_batches[0]) == 3
            assert len(disk.put_calls) == 3

        run_with_scheduler(body, disk=disk, batch_window_s=0.1)

    def test_scheduler_key_carries_the_disk_signature(self):
        with_disk = Scheduler(disk=FakeDisk())
        without = Scheduler()
        req = request()
        key_a = scheduler_module.schema.request_key(
            req, with_disk.signature)
        key_b = scheduler_module.schema.request_key(req, without.signature)
        assert with_disk.signature == "fake-sig"
        assert key_a != key_b
