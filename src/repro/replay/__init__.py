"""Compile-once access-trace IR + replay kernels (see DESIGN.md §12).

``compile_workload`` lowers a workload into a config-independent IR;
``replay_baseline`` / ``replay_tcor`` run the cache models over it
bit-identically to the live simulator (which remains the reference
oracle, gated by tests/test_replay_equivalence.py).  ``acquire_trace``
is the one way to obtain a compiled trace (store, else build + compile
+ store); ``replay_or_reason`` is the replay half of the one config
dispatch, :func:`repro.api.dispatch`: it replays when the run is
eligible and otherwise says why not — a tracer is attached, the
``REPRO_NO_REPLAY`` escape hatch is set, or the configuration steps
outside what the kernels model.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from repro import envvars
from repro.obs import trace as obs_trace
from repro.obs.registry import Observation
from repro.replay.ir import (
    TRACE_IR_VERSION,
    CompiledTrace,
    FrameIR,
    TraceHeader,
    compile_workload,
    compiled_trace_for,
    load_trace,
    save_trace,
    trace_ir_compatible,
)
from repro.replay.kernels import (
    ReplayOutcome,
    ReplayUnsupportedError,
    replay_baseline,
    replay_tcor,
)

if TYPE_CHECKING:
    from repro.parallel.store import DiskCache

__all__ = [
    "TRACE_IR_VERSION",
    "CompiledTrace",
    "FrameIR",
    "TraceHeader",
    "ReplayOutcome",
    "ReplayUnsupportedError",
    "acquire_trace",
    "compile_workload",
    "compiled_trace_for",
    "load_trace",
    "save_trace",
    "observe_replay",
    "replay_allowed",
    "replay_baseline",
    "replay_or_reason",
    "replay_tcor",
    "trace_ir_compatible",
    "try_replay",
]


def replay_allowed(obs: Observation | None = None) -> str | None:
    """``None`` when replay may substitute for the live simulator,
    else the reason it may not.

    A tracer — whether attached to this run's observation or installed
    globally — needs the live path's per-access event stream, and
    ``REPRO_NO_REPLAY`` is the operator escape hatch.
    """
    if os.environ.get(envvars.NO_REPLAY):
        return f"{envvars.NO_REPLAY} is set"
    if obs is not None and obs.tracer is not None:
        return "a tracer is attached to this run"
    if obs_trace.ACTIVE is not None:
        return "a tracer is globally active"
    return None


def observe_replay(obs: Observation, outcome: ReplayOutcome) -> None:
    """Register the replay's reconstructed stats under the live path's
    metric names, so snapshots are byte-identical across engines."""
    from repro.tcor.system import PB_ACCOUNTING_RULE

    registry = obs.registry
    outcome.l2_stats.register(registry, f"live.{outcome.l2_name}")
    outcome.memory.register(registry, "live.dram")
    re_ran = False
    for prefix, stats in outcome.frame_stats:
        stats.register(registry, prefix)
        re_ran = re_ran or prefix == "live.re"
    registry.count("live.system.pb_l2_reads",
                   outcome.counters["pb_l2_reads"])
    registry.count("live.system.pb_l2_writes",
                   outcome.counters["pb_l2_writes"])
    obs.expect_sum(*PB_ACCOUNTING_RULE)
    if re_ran:
        from repro.anim.elimination import RE_ACCOUNTING_RULE

        obs.expect_sum(*RE_ACCOUNTING_RULE)


def acquire_trace(spec, scale: float, anim=None, *,
                  store: DiskCache | None, build) -> CompiledTrace:
    """The compiled trace of (``spec``, ``scale``, ``anim``).

    Probes ``store`` first; on a miss (or with no store) calls the
    zero-argument ``build`` once for the :class:`Workload`, compiles it
    and writes the trace back.  Callers keep their own memo — this
    function holds no state between calls.
    """
    trace = store.get_trace(spec, scale, anim) if store is not None else None
    if trace is None:
        trace = compiled_trace_for(build())
        if store is not None:
            store.put_trace(spec, scale, trace, anim=anim)
    return trace


def replay_or_reason(trace, config, obs: Observation | None = None,
                     require: bool = False):
    """``(SystemResult, None)`` when the run replays, else ``(None,
    reason)``.

    ``trace`` is a zero-argument callable returning the compiled trace,
    called only once the run has passed :func:`replay_allowed`;
    ``config`` is a :class:`~repro.api.SimulationConfig`.  Metrics
    register into ``obs`` when given.  With ``require=True``
    ineligibility raises :class:`ReplayUnsupportedError` instead.
    """
    reason = replay_allowed(obs)
    if reason is not None:
        if require:
            raise ReplayUnsupportedError(reason)
        return None, reason
    try:
        if config.kind == "baseline":
            outcome = replay_baseline(
                trace(), gpu=config.gpu,
                tile_cache_bytes=config.tile_cache_bytes,
                include_background=config.include_background,
                rendering_elimination=config.rendering_elimination)
        else:
            outcome = replay_tcor(
                trace(), gpu=config.gpu, tcor=config.tcor,
                total_tile_cache_bytes=config.tile_cache_bytes,
                l2_enhancements=config.l2_enhancements,
                interleaved_lists=config.interleaved_lists,
                include_background=config.include_background,
                rendering_elimination=config.rendering_elimination)
    except ReplayUnsupportedError as exc:
        if require:
            raise
        return None, str(exc)
    if obs is not None:
        observe_replay(obs, outcome)
    return outcome.result, None


def try_replay(workload, config, obs: Observation | None = None,
               require: bool = False):
    """:func:`replay_or_reason` for a built ``workload``: the
    :class:`~repro.tcor.system.SystemResult`, or ``None`` when the run
    must use the live simulator."""
    return replay_or_reason(lambda: compiled_trace_for(workload), config,
                            obs, require)[0]
