"""The ``serve.*`` metrics namespaces and the scheduler trace hooks.

Every scheduling decision lands in two places:

- a :class:`~repro.obs.registry.MetricsRegistry` under ``serve.*``
  (counters for submissions/coalesces/rejections/retries, gauges for
  queue depth and in-flight jobs, histograms for batch size and
  end-to-end latency) — exported on ``/metrics`` in the exact
  Prometheus text format the observability layer already speaks; and
- the structured event trace: :meth:`ServeMetrics.decision` emits a
  typed :class:`~repro.obs.events.ServeDecision` through the global
  ``repro.obs.trace`` hook, so a traced server run records *why* each
  job took the lane it took, interleaved with the simulator's own
  events.  As everywhere else, the disabled-tracer path is one
  ``None`` check.

The cluster router speaks the sibling ``serve.cluster.*`` namespace
through :class:`ClusterMetrics`: tier hits per level, per-shard
forward counts (``serve.cluster.shard.<name>.forwarded``) with the
live max/min ``shard_balance`` gauge, failover counters
(``backend_down``/``backend_up``/``requeued``), and the version
negotiation's ``version_mismatch``.  Its decisions emit the typed
:class:`~repro.obs.events.ClusterDecision` carrying the shard name.

All counters pre-register at zero so the very first ``/metrics``
scrape exposes the full surface — a scrape-shape change is a deploy
signal, not a traffic signal.  (Per-shard counters register when the
membership file is read, which is the same deploy-time moment.)
"""

from __future__ import annotations

from repro.obs import prometheus_text
from repro.obs.events import ClusterDecision, ServeDecision
from repro.obs.registry import MetricsRegistry
from repro.obs import trace as obs_trace

PREFIX = "serve"

COUNTERS = (
    "submitted",
    "accepted",
    "completed",
    "failed",
    "coalesced",
    "memo_hits",
    "disk_hits",
    "batches",
    "batch_jobs",
    "sequence_frames",
    "retries",
    "timeouts",
    "rejected.queue_full",
    "rejected.draining",
    "pool_recycles",
    "watchdog_cancels",
    "drained",
)

GAUGES = ("queue_depth", "inflight", "active")

BATCH_SIZE_BOUNDS = (1, 2, 4, 8, 16, 32)
LATENCY_BOUNDS_S = (0.01, 0.05, 0.25, 1.0, 5.0, 30.0, 120.0, 600.0)


class ServeMetrics:
    """One server's ``serve.*`` namespace plus the decision trace."""

    prefix = PREFIX
    counters = COUNTERS
    gauges = GAUGES

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        for name in self.counters:
            self.registry.count(f"{self.prefix}.{name}", 0)
        for name in self.gauges:
            self.registry.gauge(f"{self.prefix}.{name}", 0)
        self._batch_sizes = self.registry.histogram(
            f"{self.prefix}.batch_size", BATCH_SIZE_BOUNDS)
        self._latency = self.registry.histogram(
            f"{self.prefix}.latency_s", LATENCY_BOUNDS_S)

    # -- recording -----------------------------------------------------
    def count(self, name: str, delta: float = 1) -> None:
        self.registry.count(f"{self.prefix}.{name}", delta)

    def gauge(self, name: str, value: float) -> None:
        self.registry.gauge(f"{self.prefix}.{name}", value)

    def observe_batch(self, jobs: int) -> None:
        self._batch_sizes.observe(jobs)

    def observe_latency(self, seconds: float) -> None:
        self._latency.observe(seconds)

    def decision(self, op: str, *, key: str | None = None,
                 lane: str | None = None, jobs: int = 0,
                 shard: str | None = None) -> None:
        """Emit one scheduling decision into the structured trace
        (a worker's decisions carry no shard; ``shard`` is dropped)."""
        tracer = obs_trace.ACTIVE
        if tracer is not None:
            tracer.emit(ServeDecision(op=op, key=key, lane=lane,
                                      jobs=jobs))

    # -- reading -------------------------------------------------------
    def snapshot(self) -> dict:
        return self.registry.snapshot()

    def value(self, name: str) -> float:
        """One ``serve.*`` counter/gauge's current value (0 if never
        touched)."""
        return self.snapshot().get(f"{self.prefix}.{name}", 0)

    def prometheus(self) -> str:
        return prometheus_text(self.snapshot())


CLUSTER_PREFIX = "serve.cluster"

CLUSTER_COUNTERS = (
    "submitted",
    "accepted",
    "completed",
    "failed",
    "coalesced",
    "memo_hits",
    "tier.memory_hits",
    "tier.disk_hits",
    "tier.misses",
    "sequence_frames",
    "forwarded",
    "retries",
    "requeued",
    "rejected.queue_full",
    "rejected.draining",
    "backend_down",
    "backend_up",
    "version_mismatch",
    "drained",
)

CLUSTER_GAUGES = ("active", "inflight", "backends_up", "backends_total",
                  "shard_balance")


class ClusterMetrics(ServeMetrics):
    """The router's ``serve.cluster.*`` namespace.

    Shares the recording/reading machinery with :class:`ServeMetrics`;
    adds per-shard forward accounting and the live shard-balance gauge
    (max/min forwarded among shards that have served at least one
    job — 1.0 is perfect balance, 0 means fewer than two shards have
    traffic yet).
    """

    prefix = CLUSTER_PREFIX
    counters = CLUSTER_COUNTERS
    gauges = CLUSTER_GAUGES

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        super().__init__(registry)
        self._forwarded: dict[str, int] = {}

    def register_shard(self, shard: str) -> None:
        """Pre-register one shard's counter at zero (deploy-time
        scrape shape, same rule as the fixed counters)."""
        self._forwarded.setdefault(shard, 0)
        self.registry.count(f"{self.prefix}.shard.{shard}.forwarded", 0)

    def shard_forwarded(self, shard: str) -> None:
        """Count one job forwarded to ``shard``; refresh the balance
        gauge."""
        self._forwarded[shard] = self._forwarded.get(shard, 0) + 1
        self.count(f"shard.{shard}.forwarded")
        self.count("forwarded")
        loads = [load for load in self._forwarded.values() if load > 0]
        if len(loads) >= 2:
            self.gauge("shard_balance", max(loads) / min(loads))

    def shard_loads(self) -> dict[str, int]:
        return dict(self._forwarded)

    def decision(self, op: str, *, key: str | None = None,
                 lane: str | None = None, jobs: int = 0,
                 shard: str | None = None) -> None:
        """Emit one routing decision into the structured trace."""
        tracer = obs_trace.ACTIVE
        if tracer is not None:
            tracer.emit(ClusterDecision(op=op, key=key, shard=shard,
                                        lane=lane, jobs=jobs))
