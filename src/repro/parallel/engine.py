"""Process-pool fan-out over the experiment job matrix.

The paper's figure regeneration is embarrassingly parallel: every
(benchmark, tile-cache size, organization) simulation is independent —
the same disjoint-work structure TBR itself exploits across tiles.
:class:`ParallelSimulationCache` enumerates the exact jobs the
requested experiment modules will ask for, fans them out across a
``ProcessPoolExecutor``, and memoizes the returned
:class:`~repro.tcor.system.SystemResult` records under the same keys
the serial cache uses — so figure modules are oblivious to how their
inputs were produced, and parallel runs are byte-identical to serial
ones (every workload is seeded, no state crosses workloads).

Trace acquisition happens *inside* each worker (one
:func:`~repro.replay.acquire_trace` per benchmark, shared by all of
that benchmark's variants, which build the workload only on a
trace-store miss), so nothing large is ever pickled into the pool; only
compact ``SystemResult`` counter records come back.
"""

from __future__ import annotations

import functools
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass

from repro.api import SimulationConfig, dispatch
from repro.config import TCORConfig
from repro.obs import trace as obs_trace
from repro.experiments.common import (
    DEFAULT_SCALE,
    TILE_CACHE_SIZES,
    SimulationCache,
)
from repro.parallel.store import DiskCache
from repro.replay import acquire_trace
from repro.tcor.system import SystemResult
from repro.workloads.suite import BENCHMARKS, build_workload

# Which cache-backed simulation variants each experiment module
# consumes (modules that only need workloads build them in-process).
EXPERIMENT_VARIANTS: dict[str, tuple[str, ...]] = {
    "headline": ("baseline", "tcor"),
    "fig14": ("baseline", "tcor"),
    "fig16": ("baseline", "tcor"),
    "fig18": ("baseline", "tcor"),
    "fig20": ("baseline", "tcor", "tcor_no_l2"),
    "fig22": ("baseline", "tcor"),
}
_ALL_KINDS = ("baseline", "tcor", "tcor_no_l2")


@dataclass(frozen=True)
class SimJob:
    """One full-system simulation: a cell of the experiment matrix."""

    kind: str             # "baseline" | "tcor" | "tcor_no_l2"
    alias: str
    tile_cache_bytes: int

    @property
    def config(self) -> SimulationConfig:
        """The job as :class:`SimulationCache` simulates it."""
        if self.kind == "baseline":
            return SimulationConfig(kind="baseline",
                                    tile_cache_bytes=self.tile_cache_bytes)
        return SimulationConfig(
            kind="tcor", tile_cache_bytes=self.tile_cache_bytes,
            tcor=TCORConfig.for_total_size(self.tile_cache_bytes),
            l2_enhancements=(self.kind == "tcor"))


def enumerate_jobs(names, aliases) -> list[SimJob]:
    """The job matrix the named experiments need, in deterministic
    (benchmark-major) order."""
    kinds: set[str] = set()
    for name in names:
        kinds.update(EXPERIMENT_VARIANTS.get(name, ()))
    jobs = []
    for alias in aliases:
        for kind in _ALL_KINDS:
            if kind in kinds:
                for size in TILE_CACHE_SIZES.values():
                    jobs.append(SimJob(kind, alias, size))
    return jobs


def simulate_job_batch(alias: str, scale: float,
                       jobs: tuple[SimJob, ...],
                       use_replay: bool = True,
                       trace_dir: str | None = None
                       ) -> list[tuple[SimJob, SystemResult]]:
    """Worker entry point: one trace acquisition, then every variant.

    Must stay a module-level function (pickled by name into the pool).
    Each job runs as its :attr:`SimJob.config` through the same
    :func:`repro.api.dispatch` the lazy :class:`SimulationCache` uses,
    so pooled and lazy results are interchangeable.

    ``use_replay`` (default) replays every job in the batch from one
    compiled trace; the live simulator remains the fallback for
    ineligible configurations.  ``trace_dir``, when given, is a
    :class:`~repro.parallel.store.DiskCache` directory the trace is
    acquired through: on a trace hit the worker skips building the
    workload (geometry + binning) entirely.

    With the fork start method a worker inherits the parent's module
    state, including any tracer installed in ``obs.trace.ACTIVE`` at
    fork time — whose sinks hold duplicated file handles.  Simulating
    under that inherited tracer would interleave worker events into the
    parent's trace stream, so the batch runs under an explicit
    ``activation(None)`` scope: process-local, restored on exit, and
    the only module state this worker ever touches.
    """
    spec = BENCHMARKS[alias]
    workload = functools.cache(lambda: build_workload(spec, scale=scale))
    trace = functools.cache(lambda: acquire_trace(
        spec, scale,
        store=DiskCache(trace_dir) if trace_dir is not None else None,
        build=workload))
    engine = "auto" if use_replay else "live"
    with obs_trace.activation(None):
        return [(job, dispatch(job.config, trace=trace, workload=workload,
                               engine=engine).result)
                for job in jobs]


class ParallelSimulationCache(SimulationCache):
    """A drop-in :class:`SimulationCache` with process-pool prefetch.

    ``prefetch`` populates the memo table up front; everything not
    prefetched (or requested later) falls back to the inherited lazy
    path, so correctness never depends on the prefetch set being
    complete.
    """

    def __init__(self, scale: float = DEFAULT_SCALE,
                 aliases: tuple[str, ...] | None = None,
                 jobs: int = 1, disk: DiskCache | None = None,
                 use_replay: bool = True,
                 trace_cache: bool = True) -> None:
        super().__init__(scale=scale, aliases=aliases, disk=disk,
                         use_replay=use_replay, trace_cache=trace_cache)
        self.jobs = max(1, int(jobs))

    def _worker_trace_dir(self) -> str | None:
        """Trace-store directory for pool workers (compiled once by the
        first worker, loaded by the rest), or ``None`` when disabled."""
        if not (self.use_replay and self.trace_cache) or self.disk is None:
            return None
        return str(self.disk.directory)

    # -- fan-out -------------------------------------------------------
    def prefetch(self, names=None) -> int:
        """Simulate (in parallel) every job the named experiments need.

        ``names`` are resolved experiment keys (``fig14`` etc.); with
        ``None`` the full cache-backed matrix is assumed.  Jobs already
        memoized or on disk are skipped.  Returns the number of jobs
        actually simulated.
        """
        names = tuple(names) if names is not None else tuple(EXPERIMENT_VARIANTS)
        pending = [job for job in enumerate_jobs(names, self.aliases)
                   if self._cached(job.alias, job.config) is None]
        if not pending:
            return 0

        by_alias: dict[str, list[SimJob]] = {}
        for job in pending:
            by_alias.setdefault(job.alias, []).append(job)

        if self.jobs == 1 or len(by_alias) == 1:
            # Serial fallback: run in-process (and reuse this cache's
            # workload memo instead of rebuilding in a worker).
            for job in pending:
                self._result(job.alias, job.config)
            return len(pending)

        workers = min(self.jobs, len(by_alias))
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            # The worker's only reachable global write is its own scoped
            # activation(None) — the fork-hygiene reset above, process-
            # local and restored on exit.
            trace_dir = self._worker_trace_dir()
            futures = [
                pool.submit(simulate_job_batch, alias,  # lint: disable=SIM101
                            self.scale, tuple(batch), self.use_replay,
                            trace_dir)
                for alias, batch in by_alias.items()
            ]
            for future in as_completed(futures):
                for job, result in future.result():
                    self._record(job.alias, job.config, result)
        except BaseException:
            # Ctrl-C (or a server drain cancelling the prefetch) must
            # not block on — or orphan — workers still crunching queued
            # batches: drop everything not yet started and re-raise
            # without waiting for stragglers.
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        pool.shutdown()
        return len(pending)
