"""Persistent, content-addressed store for simulation results.

A full-system simulation is a pure function of (benchmark spec, machine
configuration, geometry scale, simulator code).  The store keys each
:class:`~repro.tcor.system.SystemResult` by a SHA-256 over exactly
those inputs — the code contribution reuses the lint engine's
package-signature idea: a hash of every simulator source file, so *any*
edit to the simulator invalidates every cached record cleanly, while
edits to experiment formatting, lint rules or this store leave warm
caches warm.

Records are one JSON file per key under ``.repro-cache/`` (override
with ``REPRO_CACHE_DIR`` or a constructor argument); writes go through
a temp file + ``os.replace`` so concurrent workers never publish a
torn record, and a record that does not load — torn, empty, garbage,
the wrong shape or another version — degrades to a cache miss, also
counted as ``corrupt``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import threading
import zipfile
import zlib
from abc import ABC, abstractmethod
from dataclasses import asdict, fields
from pathlib import Path

from repro import envvars
from repro.config import DEFAULT_GPU, GPUConfig, TCORConfig
from repro.tcor.system import SystemResult
from repro.workloads.suite import BenchmarkSpec

CACHE_VERSION = 2
DEFAULT_CACHE_DIR = ".repro-cache"

# The simulator proper: everything a SystemResult's counters depend on.
# Excludes experiments/analysis/lint/parallel/perf, whose edits cannot
# change simulation outcomes.
_SIMULATION_SOURCES = (
    "config.py",
    "constants.py",
    "anim",
    "caches",
    "dram",
    "energy",
    "geometry",
    "pbuffer",
    "raster",
    "tcor",
    "textures",
    "tiling",
    "workloads",
)

# Cached experiment *tables* additionally depend on the code that
# sweeps, aggregates and formats: any edit here must invalidate table
# records while leaving raw SystemResult records warm.
_EXPERIMENT_SOURCES = _SIMULATION_SOURCES + ("analysis", "experiments",
                                             "timing")

# Compiled access traces depend only on what shapes the event stream
# and the IR itself — deliberately *narrower* than the simulation
# signature, so a cache-model edit (tcor/, caches/) re-simulates
# against warm traces instead of recompiling every workload.
_TRACE_SOURCES = (
    "config.py",
    "constants.py",
    "anim",
    "geometry",
    "pbuffer",
    "replay",
    "tiling",
    "workloads",
)

# Compiled traces are big (npz archives, not counter records), so the
# trace store is capped: least-recently-used archives are evicted once
# the total size passes the budget.
_TRACE_CACHE_BYTES_ENV = envvars.TRACE_CACHE_BYTES
DEFAULT_TRACE_CACHE_BYTES = 512 * 1024 * 1024


def _tree_signature(root: Path, names: tuple[str, ...]) -> str:
    digest = hashlib.sha256()
    for rel in names:
        path = root / rel
        if path.is_file():
            digest.update(rel.encode())
            digest.update(path.read_bytes())
        elif path.is_dir():
            for source in sorted(path.rglob("*.py")):
                digest.update(source.relative_to(root).as_posix().encode())
                digest.update(source.read_bytes())
    return digest.hexdigest()


def _package_root(package_root: str | os.PathLike | None) -> Path:
    return (Path(package_root) if package_root is not None
            else Path(__file__).resolve().parent.parent)


def simulation_code_signature(package_root: str | os.PathLike | None = None
                              ) -> str:
    """Hash of the simulator's own sources (code-edit invalidation).

    ``package_root`` defaults to the installed ``repro`` package; tests
    point it at a scratch tree to exercise invalidation without
    touching real sources.
    """
    return _tree_signature(_package_root(package_root), _SIMULATION_SOURCES)


def experiment_code_signature(package_root: str | os.PathLike | None = None
                              ) -> str:
    """Hash of simulator + experiment/analysis sources, for table
    records: coarser than :func:`simulation_code_signature` because a
    formatting or sweep change alters the table without altering any
    ``SystemResult``."""
    return _tree_signature(_package_root(package_root), _EXPERIMENT_SOURCES)


def trace_code_signature(package_root: str | os.PathLike | None = None
                         ) -> str:
    """Hash of the sources a compiled access trace depends on (the
    event stream producers + the trace compiler)."""
    return _tree_signature(_package_root(package_root), _TRACE_SOURCES)


def result_to_dict(result: SystemResult) -> dict:
    """JSON-serializable form of one ``SystemResult`` record."""
    return asdict(result)


def result_from_dict(data: dict) -> SystemResult:
    """Inverse of :func:`result_to_dict`; unknown keys are dropped so
    old records stay loadable when ``SystemResult`` grows a field."""
    names = {f.name for f in fields(SystemResult)}
    return SystemResult(**{key: value for key, value in data.items()
                           if key in names})


class ResultTier(ABC):
    """One level of a tiered result cache (memory → disk → compute).

    The serving layer stacks tiers in front of the shared
    :class:`DiskCache`: a router-local in-memory LRU first, then the
    concurrent-writer-safe disk store every worker and CLI shares.
    The contract is deliberately tiny — records are the JSON-able
    ``{"result", "metrics", "invariant_failures"}`` dicts the wire
    schema already speaks, keyed by the deterministic request key —
    so a tier neither knows nor cares what sits above or below it.

    ``context`` carries whatever the tier needs beyond the key (the
    disk tier re-derives the store's spec/config payload from the
    original request; the memory tier ignores it).  Implementations
    count their own ``hits``/``misses`` so hit-rate metrics fall out
    of a snapshot, not instrumentation at every call site.
    """

    name: str = "tier"

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0

    @abstractmethod
    def get(self, key: str, context=None) -> dict | None:
        """The cached record for ``key``, or ``None`` on a miss."""

    @abstractmethod
    def put(self, key: str, record: dict, context=None) -> None:
        """Admit one record; eviction policy is the tier's business."""

    def stats_line(self) -> str:
        return f"{self.name} tier: {self.hits} hits, {self.misses} misses"


# Distinguishes temp files written by concurrent threads of one process
# (the serve scheduler's write-through and the pool engine share a
# cache directory); the pid component covers concurrent processes.
_TMP_SEQUENCE = itertools.count()


class DiskCache:
    """Content-addressed ``SystemResult`` records on disk.

    ``get_*``/``put_*`` mirror the :class:`SimulationCache` entry
    points; the in-memory cache consults this object purely through
    them, so it stays duck-typed and import-cycle-free.
    """

    def __init__(self, directory: str | os.PathLike | None = None,
                 signature: str | None = None,
                 table_signature: str | None = None,
                 trace_signature: str | None = None,
                 trace_cache_bytes: int | None = None) -> None:
        if directory is None:
            directory = os.environ.get(envvars.CACHE_DIR) \
                or DEFAULT_CACHE_DIR
        self.directory = Path(directory)
        self.signature = (signature if signature is not None
                          else simulation_code_signature())
        self.table_signature = (table_signature if table_signature is not None
                                else experiment_code_signature())
        self.trace_signature = (trace_signature if trace_signature is not None
                                else trace_code_signature())
        if trace_cache_bytes is None:
            trace_cache_bytes = int(
                os.environ.get(_TRACE_CACHE_BYTES_ENV)
                or DEFAULT_TRACE_CACHE_BYTES)
        self.trace_cache_bytes = trace_cache_bytes
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.stores = 0

    # -- keys ----------------------------------------------------------
    def _key(self, payload: dict) -> str:
        canonical = json.dumps(
            {"version": CACHE_VERSION, "signature": self.signature,
             "payload": payload},
            sort_keys=True, separators=(",", ":"), default=str,
        )
        return hashlib.sha256(canonical.encode()).hexdigest()

    @staticmethod
    def _anim_payload(anim) -> dict | None:
        # Animated sequences are part of simulation identity; the
        # single-frame default keys to None so pre-animation records
        # and requests share keys.
        if anim is None:
            return None
        from repro.anim.spec import anim_to_payload

        return anim_to_payload(anim)

    @staticmethod
    def _baseline_payload(spec: BenchmarkSpec, scale: float,
                          tile_cache_bytes: int,
                          gpu: GPUConfig | None = None,
                          rendering_elimination: bool = False,
                          anim=None) -> dict:
        gpu = (gpu or DEFAULT_GPU).with_tile_cache_size(tile_cache_bytes)
        return {"kind": "baseline", "spec": asdict(spec), "scale": scale,
                "gpu": asdict(gpu),
                "rendering_elimination": rendering_elimination,
                "anim": DiskCache._anim_payload(anim)}

    @staticmethod
    def _tcor_payload(spec: BenchmarkSpec, scale: float,
                      tcor: TCORConfig, l2_enhancements: bool,
                      gpu: GPUConfig | None = None,
                      rendering_elimination: bool = False,
                      anim=None) -> dict:
        return {"kind": "tcor", "spec": asdict(spec), "scale": scale,
                "gpu": asdict(gpu or DEFAULT_GPU), "tcor": asdict(tcor),
                "l2_enhancements": l2_enhancements,
                "rendering_elimination": rendering_elimination,
                "anim": DiskCache._anim_payload(anim)}

    # -- record I/O ----------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def _load(self, key: str, decode):
        """``decode(data)`` of one record, or ``None`` on a miss.

        A missing file is a plain miss; a record that exists but is not
        a well-formed record of this version (or whose data ``decode``
        rejects) is a miss counted as ``corrupt`` too — never an
        exception, so no caller can be stopped by one bad file."""
        try:
            record = json.loads(self._path(key).read_text())
            if record["version"] != CACHE_VERSION:
                raise ValueError(f"record version {record['version']}")
            data = decode(record["data"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, TypeError, KeyError, AttributeError):
            self.misses += 1
            self.corrupt += 1
            return None
        self.hits += 1
        return data

    def _read(self, key: str) -> SystemResult | None:
        return self._load(key, result_from_dict)

    def _write(self, key: str, meta: dict, data: dict | list) -> None:
        # The temp name is unique per (process, thread, write), so any
        # number of concurrent writers — pool workers, server batches,
        # separate CLI invocations — publish whole records via
        # ``os.replace`` without ever clobbering each other's temp
        # files; the last writer of one key wins with identical bytes.
        record = {"version": CACHE_VERSION, "signature": self.signature,
                  "meta": meta, "data": data}
        path = self._path(key)
        tmp = path.with_suffix(
            f".tmp.{os.getpid()}.{threading.get_ident()}."
            f"{next(_TMP_SEQUENCE)}")
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            tmp.write_text(json.dumps(record, sort_keys=True, default=str))
            os.replace(tmp, path)
            self.stores += 1
        except OSError:
            # Best-effort persistence: a full disk or read-only cache
            # directory must never fail the simulation itself.
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass

    # -- SimulationCache-facing API ------------------------------------
    def get_baseline(self, spec: BenchmarkSpec, scale: float,
                     tile_cache_bytes: int,
                     rendering_elimination: bool = False,
                     anim=None) -> SystemResult | None:
        return self._read(
            self._key(self._baseline_payload(
                spec, scale, tile_cache_bytes,
                rendering_elimination=rendering_elimination, anim=anim)))

    def put_baseline(self, spec: BenchmarkSpec, scale: float,
                     tile_cache_bytes: int, result: SystemResult,
                     rendering_elimination: bool = False,
                     anim=None) -> None:
        payload = self._baseline_payload(
            spec, scale, tile_cache_bytes,
            rendering_elimination=rendering_elimination, anim=anim)
        meta = {"kind": "baseline", "alias": spec.alias, "scale": scale,
                "tile_cache_bytes": tile_cache_bytes}
        self._write(self._key(payload), meta, result_to_dict(result))

    def get_tcor(self, spec: BenchmarkSpec, scale: float, tcor: TCORConfig,
                 l2_enhancements: bool,
                 rendering_elimination: bool = False,
                 anim=None) -> SystemResult | None:
        return self._read(
            self._key(self._tcor_payload(
                spec, scale, tcor, l2_enhancements,
                rendering_elimination=rendering_elimination, anim=anim)))

    def put_tcor(self, spec: BenchmarkSpec, scale: float, tcor: TCORConfig,
                 l2_enhancements: bool, result: SystemResult,
                 rendering_elimination: bool = False,
                 anim=None) -> None:
        payload = self._tcor_payload(
            spec, scale, tcor, l2_enhancements,
            rendering_elimination=rendering_elimination, anim=anim)
        meta = {"kind": "tcor", "alias": spec.alias, "scale": scale,
                "l2_enhancements": l2_enhancements}
        self._write(self._key(payload), meta, result_to_dict(result))

    # -- compiled access traces ----------------------------------------
    def _trace_key(self, spec: BenchmarkSpec, scale: float,
                   anim=None) -> str:
        # Keyed by the *trace* signature (event-stream producers + the
        # IR), not the full simulation signature: cache-model edits must
        # leave compiled traces warm.
        canonical = json.dumps(
            {"version": CACHE_VERSION, "signature": self.trace_signature,
             "payload": {"kind": "trace", "spec": asdict(spec),
                         "scale": scale,
                         "anim": self._anim_payload(anim)}},
            sort_keys=True, separators=(",", ":"), default=str,
        )
        return hashlib.sha256(canonical.encode()).hexdigest()

    def _trace_path(self, key: str) -> Path:
        return self.directory / f"trace-{key}.npz"

    def get_trace(self, spec: BenchmarkSpec, scale: float, anim=None):
        """The persisted compiled trace for (spec, scale), or ``None``.

        Any failure — missing file, torn archive, IR version mismatch —
        degrades to a cache miss; an archive that exists but does not
        load is counted ``corrupt`` and unlinked, so the next
        :meth:`put_trace` rewrites it."""
        from repro.replay import load_trace

        path = self._trace_path(self._trace_key(spec, scale, anim))
        try:
            with open(path, "rb") as handle:
                trace = load_trace(handle)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, TypeError, KeyError, AttributeError,
                EOFError, zipfile.BadZipFile, zlib.error):
            self.misses += 1
            self.corrupt += 1
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass  # best-effort: a later put_trace replaces it anyway
            return None
        try:
            # LRU bookkeeping for the size cap; best-effort.
            os.utime(path)
        except OSError:
            pass
        self.hits += 1
        return trace

    def put_trace(self, spec: BenchmarkSpec, scale: float, trace,
                  anim=None) -> None:
        from repro.replay import save_trace

        path = self._trace_path(self._trace_key(spec, scale, anim))
        tmp = path.with_suffix(
            f".tmp.{os.getpid()}.{threading.get_ident()}."
            f"{next(_TMP_SEQUENCE)}")
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as handle:
                save_trace(handle, trace)
            os.replace(tmp, path)
            self.stores += 1
        except OSError:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            return
        self._enforce_trace_cap(keep=path)

    def _enforce_trace_cap(self, keep: Path) -> int:
        """Evict least-recently-used trace archives over the budget.

        The just-written archive is always spared (evicting it would
        defeat the write), so a single trace larger than the whole
        budget still persists.  Returns the number evicted."""
        try:
            archives = [(path, path.stat()) for path
                        in self.directory.glob("trace-*.npz")]
        except OSError:
            return 0
        total = sum(stat.st_size for _, stat in archives)
        evicted = 0
        # Oldest first; the spared file sorts wherever, it is skipped.
        for path, stat in sorted(archives, key=lambda item: item[1].st_mtime):
            if total <= self.trace_cache_bytes:
                break
            if path == keep:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            total -= stat.st_size
            evicted += 1
        return evicted

    # -- runner-facing table records -----------------------------------
    def _tables_payload(self, experiment: str, scale: float,
                        aliases: tuple[str, ...]) -> dict:
        # The experiment signature rides in the payload (the envelope
        # signature covers only simulator sources), so sweep/formatting
        # edits invalidate tables without touching SystemResult records.
        return {"kind": "tables", "experiment": experiment, "scale": scale,
                "aliases": list(aliases),
                "table_signature": self.table_signature}

    def get_tables(self, experiment: str, scale: float,
                   aliases: tuple[str, ...]) -> list | None:
        """Cached :class:`ExperimentResult` list for one experiment, or
        ``None``.  A warm runner invocation skips the module entirely."""
        from repro.experiments.common import ExperimentResult

        def decode(data) -> list:
            if not isinstance(data, list):
                raise TypeError("tables record data is not a list")
            return [ExperimentResult(**entry) for entry in data]

        return self._load(
            self._key(self._tables_payload(experiment, scale, aliases)),
            decode)

    def put_tables(self, experiment: str, scale: float,
                   aliases: tuple[str, ...], results: list) -> None:
        payload = self._tables_payload(experiment, scale, aliases)
        meta = {"kind": "tables", "experiment": experiment, "scale": scale}
        self._write(self._key(payload), meta,
                    [asdict(result) for result in results])

    # -- maintenance ---------------------------------------------------
    def stats_line(self) -> str:
        return (f"disk cache: {self.hits} hits, {self.misses} misses "
                f"({self.corrupt} corrupt), {self.stores} stores "
                f"({self.directory})")

    def clear(self) -> int:
        """Delete every record (results, tables and compiled traces);
        returns the number removed."""
        removed = 0
        if self.directory.is_dir():
            for pattern in ("*.json", "trace-*.npz"):
                for path in self.directory.glob(pattern):
                    try:
                        path.unlink()
                        removed += 1
                    except OSError:
                        pass
        return removed
