"""Pool-side worker for the simulation service.

One call simulates one micro-batch whose entries share a (benchmark
alias, scale, animation) triple.  The batch acquires the compiled trace
once through :func:`repro.replay.acquire_trace` — from the disk store
the scheduler's pool initializer bound with :func:`bind_store`, else by
building and compiling the workload — and runs every entry's
:class:`~repro.api.SimulationConfig` through :func:`repro.api.dispatch`,
the dispatch :func:`repro.api.simulate` uses.  So a served result is
byte-identical to a direct library call, and a trace-warm store builds
nothing: the workload is built only on a trace-store miss or a live
fallback, and then once per batch.

Mirrors :func:`repro.parallel.engine.simulate_job_batch`'s fork
hygiene: the batch runs under a scoped ``activation(None)`` so a
tracer inherited from the parent at fork time (whose sinks hold
duplicated file handles) never receives worker events, and the module
state is restored on the way out.

Per-entry simulation failures are *data*, not exceptions: a raising
config (e.g. an illegal cache geometry reached only at build time)
yields an ``error`` record for that entry while the rest of the batch
completes.  Deterministic failures are never worth retrying, and the
scheduler treats them accordingly.
"""

from __future__ import annotations

import functools

from repro.anim import anim_from_payload, build_animated_workload
from repro.api import dispatch
from repro.obs import trace as obs_trace
from repro.obs.registry import Observation
from repro.parallel.store import DiskCache, result_to_dict
from repro.replay import acquire_trace
from repro.serve import schema
from repro.workloads.suite import BENCHMARKS, build_workload

# This pool process's trace store, bound once by the pool initializer;
# ``None`` (thread pools, tests) builds the workload for every batch.
_STORE: DiskCache | None = None


def bind_store(store: DiskCache | None) -> None:
    """Pool initializer: acquire traces through ``store`` from now on."""
    global _STORE
    _STORE = store


def simulate_request_batch(alias: str, scale: float,
                           entries: tuple[tuple[str, dict], ...],
                           anim_payload: dict | None = None
                           ) -> list[dict]:
    """Worker entry point: one trace acquisition, then every config.

    ``entries`` are ``(request_key, config_payload)`` pairs; the
    return value is one JSON-able record per entry — either
    ``{"key", "result", "metrics", "invariant_failures"}`` or
    ``{"key", "error"}``.  ``anim_payload`` (an ``AnimationSpec``
    payload, shared by the whole batch) selects the coherent
    multi-frame animated workload.  Must stay a module-level
    function: it is pickled by name into the process pool.
    """
    spec = BENCHMARKS[alias]
    anim = (anim_from_payload(anim_payload) if anim_payload is not None
            else None)

    @functools.cache
    def workload():
        if anim is None:
            return build_workload(spec, scale=scale)
        return build_animated_workload(spec, anim, scale=scale)

    trace = functools.cache(lambda: acquire_trace(
        spec, scale, anim, store=_STORE, build=workload))
    records: list[dict] = []
    with obs_trace.activation(None):
        for key, config_payload in entries:
            try:
                config = schema.config_from_payload(config_payload)
                run = dispatch(config, trace=trace, workload=workload,
                               obs=Observation())
            except Exception as exc:
                records.append(
                    {"key": key,
                     "error": f"{type(exc).__name__}: {exc}"})
                continue
            records.append({
                "key": key,
                "result": result_to_dict(run.result),
                "metrics": dict(run.metrics),
                "invariant_failures": list(run.invariant_failures),
            })
    return records
