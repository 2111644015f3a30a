"""Shared experiment plumbing.

Workloads and full-system simulations are expensive, and several figures
reuse the same (benchmark, tile-cache size, organization) run — a
:class:`SimulationCache` memoizes them across experiment modules within
one runner invocation.  Every simulation it runs goes trace-first:
:func:`repro.replay.acquire_trace` for the compiled trace, then the one
config dispatch :func:`repro.api.dispatch`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from repro.api import SimulationConfig, dispatch
from repro.config import TCORConfig
from repro.replay import CompiledTrace, acquire_trace
from repro.tcor.system import SystemResult
from repro.workloads.suite import (
    BENCHMARK_ORDER,
    BENCHMARKS,
    Workload,
    build_workload,
)

if TYPE_CHECKING:
    from repro.parallel.store import DiskCache

KIB = 1024
DEFAULT_SCALE = 1.0
# The paper evaluates two Tile Cache budgets.
TILE_CACHE_SIZES = {"64KiB": 64 * KIB, "128KiB": 128 * KIB}


@dataclass
class ExperimentResult:
    """One regenerated table or figure, as printable rows."""

    exp_id: str
    title: str
    headers: list[str]
    rows: list[list]
    notes: str = ""

    def column(self, name: str) -> list:
        index = self.headers.index(name)
        return [row[index] for row in self.rows]

    def row_for(self, key) -> list:
        for row in self.rows:
            if row[0] == key:
                return row
        raise KeyError(key)


def format_table(result: ExperimentResult) -> str:
    """Fixed-width text rendering of an experiment result."""
    def fmt(value) -> str:
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    table = [result.headers] + [[fmt(v) for v in row] for row in result.rows]
    widths = [max(len(row[col]) for row in table)
              for col in range(len(result.headers))]
    lines = [f"== {result.exp_id}: {result.title} =="]
    for index, row in enumerate(table):
        lines.append("  ".join(cell.rjust(width)
                               for cell, width in zip(row, widths)))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    if result.notes:
        lines.append(f"note: {result.notes}")
    return "\n".join(lines)


class SimulationProvider(ABC):
    """The interface experiment modules simulate through.

    Both the serial :class:`SimulationCache` and
    :class:`repro.parallel.ParallelSimulationCache` implement it, so the
    experiment driver type-checks against one contract instead of
    duck-typing two classes.  ``prefetch`` and ``export_metrics`` have
    conservative defaults; providers with a fan-out engine or a memo
    table override them.
    """

    scale: float
    aliases: tuple[str, ...]

    @abstractmethod
    def workload(self, alias: str) -> Workload:
        """The (memoized) workload for one benchmark alias."""

    @abstractmethod
    def baseline(self, alias: str, tile_cache_bytes: int) -> SystemResult:
        """Baseline simulation at one Tile Cache budget."""

    @abstractmethod
    def tcor(self, alias: str, tile_cache_bytes: int,
             l2_enhancements: bool = True,
             tcor_config: TCORConfig | None = None) -> SystemResult:
        """TCOR simulation at one total Tile Cache budget."""

    def workloads(self) -> list[Workload]:
        return [self.workload(alias) for alias in self.aliases]

    def prefetch(self, names=None) -> int:
        """Eagerly simulate what the named experiments will need.

        Returns the number of simulations run; the default provider has
        no fan-out engine and simulates lazily instead.
        """
        return 0

    def export_metrics(self, registry) -> int:
        """Export finished simulations as ``sim.*`` registry gauges.

        Returns the number of metrics exported (0 when the provider
        keeps no results to export).
        """
        return 0


def _size_component(tag: str, size_bytes: int) -> str:
    """``tc64`` for whole KiB budgets, ``tc80000b`` otherwise."""
    if size_bytes % KIB == 0:
        return f"{tag}{size_bytes // KIB}"
    return f"{tag}{size_bytes}b"


class SimulationCache(SimulationProvider):
    """Memoizes workloads and system simulations across experiments.

    ``disk``, when given, is a persistent second level: in-memory
    misses probe it before simulating, and fresh results are written
    through, so repeated runner/benchmark invocations skip
    re-simulation entirely.

    ``use_replay`` (default on) runs cache-model simulations through
    the compiled-trace replay kernels when eligible — bit-identical
    results, compiled once per workload and amortized over every
    configuration; the live simulator remains the fallback (and the
    only path when a tracer is active or ``REPRO_NO_REPLAY`` is set).
    ``trace_cache`` persists compiled traces through ``disk``, so warm
    invocations skip geometry + binning entirely: a workload is built
    only on a trace-store miss, a live fallback, or an explicit
    :meth:`workload` call — and at most once either way.
    """

    def __init__(self, scale: float = DEFAULT_SCALE,
                 aliases: tuple[str, ...] | None = None,
                 disk: DiskCache | None = None, use_replay: bool = True,
                 trace_cache: bool = True) -> None:
        self.scale = scale
        self.aliases = tuple(aliases) if aliases else BENCHMARK_ORDER
        self.disk = disk
        self.use_replay = use_replay
        self.trace_cache = trace_cache
        self._workloads: dict[str, Workload] = {}
        self._systems: dict[tuple, SystemResult] = {}
        self._traces: dict[str, CompiledTrace] = {}

    def workload(self, alias: str) -> Workload:
        if alias not in self._workloads:
            self._workloads[alias] = build_workload(BENCHMARKS[alias],
                                                    scale=self.scale)
        return self._workloads[alias]

    def _trace(self, alias: str) -> CompiledTrace:
        if alias not in self._traces:
            self._traces[alias] = acquire_trace(
                BENCHMARKS[alias], self.scale,
                store=self.disk if self.trace_cache else None,
                build=lambda: self.workload(alias))
        return self._traces[alias]

    @staticmethod
    def baseline_key(alias: str, tile_cache_bytes: int) -> tuple:
        return ("baseline", alias, tile_cache_bytes)

    @staticmethod
    def tcor_key(alias: str, tile_cache_bytes: int, tcor: TCORConfig,
                  l2_enhancements: bool) -> tuple:
        # The derived partition is part of the key: two TCOR configs
        # with the same total budget but a different split (future
        # per-structure sweeps) must never alias to each other.
        return ("tcor", alias, tile_cache_bytes,
                tcor.primitive_list_cache.size_bytes,
                tcor.attribute_buffer_bytes, l2_enhancements)

    def baseline(self, alias: str, tile_cache_bytes: int) -> SystemResult:
        return self._result(alias, SimulationConfig(
            kind="baseline", tile_cache_bytes=tile_cache_bytes))

    def tcor(self, alias: str, tile_cache_bytes: int,
             l2_enhancements: bool = True,
             tcor_config: TCORConfig | None = None) -> SystemResult:
        tcor = (tcor_config if tcor_config is not None
                else TCORConfig.for_total_size(tile_cache_bytes))
        return self._result(alias, SimulationConfig(
            kind="tcor", tile_cache_bytes=tile_cache_bytes, tcor=tcor,
            l2_enhancements=l2_enhancements))

    # -- one simulation: memo -> disk -> dispatch ----------------------
    # ``config`` is always a baseline budget or an explicit TCOR split,
    # as built by :meth:`baseline` / :meth:`tcor`.
    def _key(self, alias: str, config: SimulationConfig) -> tuple:
        if config.kind == "baseline":
            return self.baseline_key(alias, config.tile_cache_bytes)
        return self.tcor_key(alias, config.tile_cache_bytes, config.tcor,
                             config.l2_enhancements)

    def _cached(self, alias: str,
                config: SimulationConfig) -> SystemResult | None:
        """The memoized result, else the disk record (memoized on a
        hit), else ``None``."""
        key = self._key(alias, config)
        if key not in self._systems and self.disk is not None:
            spec = BENCHMARKS[alias]
            if config.kind == "baseline":
                hit = self.disk.get_baseline(spec, self.scale,
                                             config.tile_cache_bytes)
            else:
                hit = self.disk.get_tcor(spec, self.scale, config.tcor,
                                         config.l2_enhancements)
            if hit is not None:
                self._systems[key] = hit
        return self._systems.get(key)

    def _record(self, alias: str, config: SimulationConfig,
                result: SystemResult) -> None:
        """Memoize one fresh result and write it through to disk."""
        self._systems[self._key(alias, config)] = result
        if self.disk is None:
            return
        if config.kind == "baseline":
            self.disk.put_baseline(BENCHMARKS[alias], self.scale,
                                   config.tile_cache_bytes, result)
        else:
            self.disk.put_tcor(BENCHMARKS[alias], self.scale, config.tcor,
                               config.l2_enhancements, result)

    def _result(self, alias: str, config: SimulationConfig) -> SystemResult:
        result = self._cached(alias, config)
        if result is None:
            result = dispatch(
                config, trace=lambda: self._trace(alias),
                workload=lambda: self.workload(alias),
                engine="auto" if self.use_replay else "live").result
            self._record(alias, config, result)
        return result

    @staticmethod
    def metric_prefix(key: tuple) -> str:
        """Registry namespace for one memoized simulation.

        ``sim.baseline.CCS.tc64`` or ``sim.tcor.CCS.tc64.pl16ab47``;
        the same SystemResult lands under the same name whether it was
        simulated serially, by a pool worker, or loaded from disk —
        which is what makes parallel metrics aggregation exact.
        """
        if key[0] == "baseline":
            _, alias, tile_cache_bytes = key
            return f"sim.baseline.{alias}.{_size_component('tc', tile_cache_bytes)}"
        _, alias, tile_cache_bytes, pl_bytes, ab_bytes, l2e = key
        label = "tcor" if l2e else "tcor_no_l2"
        return (f"sim.{label}.{alias}."
                f"{_size_component('tc', tile_cache_bytes)}."
                f"{_size_component('pl', pl_bytes)}"
                f"{_size_component('ab', ab_bytes)}")

    def export_metrics(self, registry) -> int:
        """Every memoized SystemResult, flattened into ``sim.*`` gauges."""
        from repro.obs.registry import flatten

        exported = 0
        for key in sorted(self._systems, key=str):
            result = self._systems[key]
            for name, value in flatten(asdict(result),
                                       self.metric_prefix(key)).items():
                registry.gauge(name, value)
                exported += 1
        return exported


def suite_workloads(scale: float = DEFAULT_SCALE,
                    aliases: tuple[str, ...] | None = None) -> list[Workload]:
    cache = SimulationCache(scale=scale, aliases=aliases)
    return cache.workloads()


def geometric_mean_ratio(values: list[float]) -> float:
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values)) if values else 0.0
