"""``repro.serve`` — async simulation-as-a-service over the simulator.

The serving layer turns the one-shot library (``repro.api``) and batch
experiment engine (``repro.parallel``) into a long-lived service (see
DESIGN.md, "The serving layer" and "The sharded cluster"):

- :mod:`~repro.serve.schema` — the typed JSON wire schema
  (:class:`JobRequest` / :class:`JobStatus` / :class:`JobResult` /
  :class:`ServeError`), its version negotiation, and the deterministic
  request key that powers coalescing, the disk-warm lane and the
  cluster's key-affinity sharding;
- :mod:`~repro.serve.lifecycle` / :mod:`~repro.serve.scheduler` — the
  job lifecycle both roles share (admission, coalescing, memo, retry),
  then micro-batching, lanes and a watchdog over one process pool;
- :mod:`~repro.serve.server` — the stdlib ``asyncio`` front door
  speaking newline-delimited JSON and a thin HTTP/1.1 subset
  (``/submit``, ``/status/<id>``, ``/result/<id>``, ``/healthz``,
  ``/metrics``) on one port;
- :mod:`~repro.serve.ring` / :mod:`~repro.serve.tiers` /
  :mod:`~repro.serve.cluster` — the sharded cluster: a consistent-hash
  :class:`HashRing`, the memory-over-disk :class:`TieredResultCache`,
  and the :class:`Router` that forwards to health-checked backend
  workers behind the same front door;
- :mod:`~repro.serve.client` — the blocking NDJSON client (one
  address, a list, or the router — with typed errors and failover);
- :mod:`~repro.serve.handle` — :func:`connect` /
  :class:`ServeHandle`: the service as a drop-in
  :class:`~repro.experiments.common.SimulationProvider`;
- :mod:`~repro.serve.inprocess` — a real server on a background
  thread, for tests and notebooks;
- :mod:`~repro.serve.cli` — the ``tcor-serve`` console entry point
  (worker mode, or ``--router`` for the cluster front end) with
  graceful SIGTERM/SIGINT drain.

The serving contract: a served simulation is *byte-identical* to a
direct :func:`repro.api.simulate` call with the same config — the
worker runs the exact same facade, and the equivalence suite holds the
service (and the cluster) to it.
"""

from repro.serve.client import ServeClient, ServeClientError
from repro.serve.cluster import Backend, Router, parse_backends
from repro.serve.handle import ServeHandle, connect
from repro.serve.inprocess import InProcessServer
from repro.serve.metrics import ClusterMetrics, ServeMetrics
from repro.serve.ring import HashRing
from repro.serve.scheduler import Scheduler
from repro.serve.schema import (
    SCHEMA_VERSION,
    JobRequest,
    JobResult,
    JobStatus,
    ServeError,
    request_key,
    versions_compatible,
)
from repro.serve.server import SimulationServer
from repro.serve.tiers import MemoryTier, TieredResultCache

__all__ = [
    "Backend",
    "ClusterMetrics",
    "HashRing",
    "InProcessServer",
    "JobRequest",
    "JobResult",
    "JobStatus",
    "MemoryTier",
    "Router",
    "SCHEMA_VERSION",
    "Scheduler",
    "ServeClient",
    "ServeClientError",
    "ServeError",
    "ServeHandle",
    "ServeMetrics",
    "SimulationServer",
    "TieredResultCache",
    "connect",
    "parse_backends",
    "request_key",
    "versions_compatible",
]
