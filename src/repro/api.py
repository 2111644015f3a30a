"""Public facade: the one import downstream code needs.

Two entry points cover the library's use cases:

- :func:`simulate` — run one workload through one memory organization
  and get a :class:`RunResult` (the :class:`SystemResult` plus a
  metrics snapshot and its conservation-invariant check);
- :func:`run_experiment` — regenerate one of the paper's tables or
  figures and get a :class:`Report`.

Inputs are frozen dataclasses (:class:`SimulationConfig`), so a config
can be shared, hashed and reused across runs without defensive copies.

    from repro.api import SimulationConfig, simulate
    from repro.workloads import BENCHMARKS, build_workload

    workload = build_workload(BENCHMARKS["CCS"], scale=0.25)
    base = simulate(workload, SimulationConfig(kind="baseline"))
    tcor = simulate(workload, SimulationConfig(kind="tcor"))
    print(tcor.result.pb_l2_accesses / base.result.pb_l2_accesses)

Heavy modules (the simulator, the experiment driver) import lazily
inside the functions, keeping ``import repro`` fast.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.config import GPUConfig, TCORConfig
from repro.obs.registry import MetricsRegistry, Observation

if TYPE_CHECKING:
    from repro.experiments.common import ExperimentResult, SimulationProvider
    from repro.tcor.system import SystemResult
    from repro.workloads.suite import Workload

__all__ = [
    "Report",
    "RunResult",
    "SimulationConfig",
    "connect",
    "dispatch",
    "run_experiment",
    "simulate",
    "simulation_cache",
]

_KINDS = ("baseline", "tcor")


@dataclass(frozen=True, slots=True)
class SimulationConfig:
    """Frozen description of one simulation to run.

    ``kind`` selects the memory organization (``"baseline"`` or
    ``"tcor"``); every other field has the simulator's default and only
    applies where it makes sense (``l2_enhancements``, ``tcor`` and
    ``interleaved_lists`` are TCOR-only; ``tile_cache_bytes`` is the
    unified budget for the baseline and the total split budget for
    TCOR).
    """

    kind: str = "tcor"
    tile_cache_bytes: int | None = None
    l2_enhancements: bool = True
    interleaved_lists: bool = True
    include_background: bool = True
    # Rendering Elimination (repro.anim): discard fetch-phase work for
    # tiles whose input signature matches the previous frame.  Only
    # meaningful on multi-frame workloads; a single frame never skips.
    rendering_elimination: bool = False
    tcor: TCORConfig | None = None
    gpu: GPUConfig | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(
                f"kind must be one of {_KINDS}, got {self.kind!r}")


@dataclass(frozen=True, slots=True)
class RunResult:
    """One finished simulation.

    ``result`` is the raw :class:`SystemResult`; ``metrics`` is the
    flat ``{dotted.name: number}`` registry snapshot taken right after
    the run; ``invariant_failures`` lists any conservation invariants
    the snapshot violated (empty on a healthy run).  ``engine`` names
    the path that ran (``"replay"`` or ``"live"``); ``fallback_reason``
    says why an ``engine="auto"`` run could not replay (``None`` when
    it did, or when the engine was forced).
    """

    result: "SystemResult"
    config: SimulationConfig
    metrics: Mapping[str, float] = field(default_factory=dict)
    invariant_failures: tuple[str, ...] = ()
    engine: str = "live"
    fallback_reason: str | None = None

    @property
    def ok(self) -> bool:
        return not self.invariant_failures


@dataclass(frozen=True, slots=True)
class Report:
    """One experiment's regenerated tables plus the run's metrics."""

    name: str
    scale: float
    tables: tuple["ExperimentResult", ...]
    metrics: Mapping[str, float] = field(default_factory=dict)

    def table(self, exp_id: str) -> "ExperimentResult":
        for result in self.tables:
            if result.exp_id == exp_id:
                return result
        raise KeyError(exp_id)

    def __str__(self) -> str:
        from repro.experiments.common import format_table

        return "\n\n".join(format_table(result) for result in self.tables)


_ENGINES = ("auto", "live", "replay")


def simulate(workload: "Workload",
             config: SimulationConfig | None = None,
             *, obs: Observation | None = None,
             engine: str = "auto") -> RunResult:
    """Run ``workload`` through the organization ``config`` describes.

    ``obs`` threads a caller-owned :class:`Observation` through the run
    (to share a registry across several simulations, or to attach a
    tracer); by default each call gets a fresh one, so ``metrics`` and
    ``invariant_failures`` cover exactly this run.

    ``engine`` selects the execution path: ``"auto"`` (the default)
    replays the workload's compiled access trace through the fast
    kernels when the run is eligible — bit-identical results and
    metrics, order-of-magnitude faster — and falls back to the live
    simulator when it is not (a tracer is attached, ``REPRO_NO_REPLAY``
    is set, or the configuration steps outside the kernels' model);
    ``"live"`` forces the reference simulator; ``"replay"`` forces the
    kernels and raises :class:`~repro.replay.ReplayUnsupportedError`
    when they cannot honor the run.
    """
    from repro.replay import compiled_trace_for

    return dispatch(config if config is not None else SimulationConfig(),
                    trace=lambda: compiled_trace_for(workload),
                    workload=lambda: workload,
                    obs=obs if obs is not None else Observation(),
                    engine=engine)


def dispatch(config: SimulationConfig, *, trace, workload,
             obs: Observation | None = None,
             engine: str = "auto") -> RunResult:
    """The one config dispatch behind :func:`simulate`, the experiment
    caches and the serve worker: replay when eligible, else live.

    ``trace`` and ``workload`` are zero-argument callables returning
    the compiled trace and the built :class:`Workload`; each is called
    only if its engine runs, so a trace-warm caller never builds.
    ``engine`` is as in :func:`simulate`.  Without ``obs`` the run
    registers no metrics (``metrics`` is empty).
    """
    from repro.replay import replay_or_reason
    from repro.tcor.system import simulate_baseline, simulate_tcor

    if engine not in _ENGINES:
        raise ValueError(f"engine must be one of {_ENGINES}, got {engine!r}")
    result, reason = None, None
    if engine != "live":
        result, reason = replay_or_reason(trace, config, obs,
                                          require=(engine == "replay"))
    ran = "replay" if result is not None else "live"
    if result is None:
        if config.kind == "baseline":
            result = simulate_baseline(
                workload(), gpu=config.gpu,
                tile_cache_bytes=config.tile_cache_bytes,
                include_background=config.include_background,
                rendering_elimination=config.rendering_elimination, obs=obs)
        else:
            result = simulate_tcor(
                workload(), gpu=config.gpu, tcor=config.tcor,
                total_tile_cache_bytes=config.tile_cache_bytes,
                l2_enhancements=config.l2_enhancements,
                interleaved_lists=config.interleaved_lists,
                include_background=config.include_background,
                rendering_elimination=config.rendering_elimination, obs=obs)
    return RunResult(
        result=result, config=config,
        metrics=obs.snapshot() if obs is not None else {},
        invariant_failures=(tuple(obs.registry.check_invariants())
                            if obs is not None else ()),
        engine=ran, fallback_reason=reason)


def simulation_cache(scale: float, *,
                     aliases: tuple[str, ...] | None = None,
                     jobs: int = 1,
                     disk: bool = True) -> "SimulationProvider":
    """A memoizing simulation provider for experiment/benchmark runs.

    ``jobs > 1`` returns the process-pool fan-out provider; ``disk``
    keeps the persistent result store enabled (``$REPRO_CACHE_DIR`` or
    ``.repro-cache/``).
    """
    from repro.parallel import DiskCache, ParallelSimulationCache

    store = DiskCache() if disk else None
    return ParallelSimulationCache(scale=scale, aliases=aliases,
                                   jobs=jobs, disk=store)


def connect(endpoints, *, scale: float = 1.0,
            aliases: tuple[str, ...] | None = None,
            timeout_s: float = 600.0) -> "SimulationProvider":
    """A remote simulation provider over a running ``tcor-serve``
    worker or cluster router.

    ``endpoints`` is one ``"host:port"`` string, a ``(host, port)``
    pair, or a list of either for client-side failover.  The returned
    :class:`~repro.serve.handle.ServeHandle` is a drop-in for
    :func:`simulation_cache` — same provider contract, byte-identical
    results — with the simulations executed (and coalesced, cached and
    sharded) by the service.
    """
    from repro.serve.handle import connect as serve_connect

    return serve_connect(endpoints, scale=scale, aliases=aliases,
                         timeout_s=timeout_s)


def run_experiment(name: str, *, scale: float = 1.0, jobs: int = 1,
                   benchmarks: tuple[str, ...] | None = None,
                   cache: "SimulationProvider | None" = None,
                   disk: bool = False) -> Report:
    """Regenerate one of the paper's tables/figures as a :class:`Report`.

    ``name`` is an experiment id (``"fig14"``, ``"tables"``, ... — the
    same ids ``tcor-experiments`` accepts, including paired-figure
    aliases like ``"fig15"``).  ``jobs`` fans the simulations out over
    worker processes; ``cache`` reuses a provider across calls (e.g.
    from :func:`simulation_cache`); ``disk`` enables the persistent
    result store when no provider is passed.
    """
    from repro.experiments import driver

    store = None
    if cache is None and disk:
        from repro.parallel import DiskCache

        store = DiskCache()
    registry = MetricsRegistry()
    results = driver.run_experiments([name], scale=scale,
                                     aliases=benchmarks, jobs=jobs,
                                     disk=store, cache=cache,
                                     registry=registry)
    return Report(name=name, scale=scale, tables=tuple(results),
                  metrics=registry.snapshot())
