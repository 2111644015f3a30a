"""In-memory span recorder wrapped around each layer's public functions.

The traced run wraps calls into the ``repro`` modules from the
benchmark's own files: every wrapped call records one span
``(id, parent, name, start, end, info)`` on a thread-local stack, so a
layer's self time is its spans' durations minus their direct children.
Nothing in ``src/`` knows it is being traced.

Binning calls made inside extent calibration are counted, not spanned:
calibration bins thousands of sample triangles and is reported as one
layer (``geometry.calibrate``), its binning included.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict

#: The recorder the wrappers report to; ``None`` makes every wrapper a
#: plain pass-through.  Set by :func:`install`, replaced per batch in
#: serve pool workers (see :func:`traced_request_batch`).
_ACTIVE: "Recorder | None" = None

#: Span ids are unique per process (serve pool workers use one
#: recorder per batch); records are keyed by ``(pid, id)``.
_SPAN_IDS = itertools.count(1)


class Recorder:
    """Spans of one process, kept in memory until :meth:`dump`."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._local = threading.local()

    def stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> tuple:
        stack = self.stack()
        parent = stack[-1][0] if stack else None
        frame = (next(_SPAN_IDS), name, parent, time.perf_counter())
        stack.append(frame)
        return frame

    def end(self, frame: tuple, info: dict | None = None) -> None:
        end = time.perf_counter()
        stack = self.stack()
        if stack and stack[-1] is frame:
            stack.pop()
        span_id, name, parent, start = frame
        self.spans.append((span_id, parent, name, start, end, info))

    def records(self) -> list[dict]:
        return [{"id": span_id, "parent": parent, "name": name,
                 "start": start, "end": end, "info": info,
                 "pid": self.pid, "run": self.run_id}
                for span_id, parent, name, start, end, info in self.spans]

    def dump(self, path: str) -> None:
        payload = {"spans": self.records(), "counts": dict(self.counts)}
        with open(path, "w") as handle:
            json.dump(payload, handle)


def _wrap(name: str, fn, describe=None, count_under: str | None = None):
    """``fn`` recording one ``name`` span per call on the active
    recorder.  ``describe(args, kwargs, result)`` adds span info;
    ``count_under`` only counts (no span) calls made directly under a
    span of that name."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        recorder = _ACTIVE
        if recorder is None:
            return fn(*args, **kwargs)
        if count_under is not None:
            stack = recorder.stack()
            if stack and stack[-1][1] == count_under:
                recorder.counts[f"{name}.under.{count_under}"] += 1
                return fn(*args, **kwargs)
        frame = recorder.begin(name)
        info = None
        try:
            result = fn(*args, **kwargs)
            if describe is not None:
                info = describe(args, kwargs, result)
            return result
        finally:
            recorder.end(frame, info)

    traced.__perfbench_original__ = fn
    return traced


# -- span info ----------------------------------------------------------

def _calibrate_key(args, kwargs, result):
    return {"key": repr((args, sorted(kwargs.items())))}


def _scene_size(args, kwargs, result):
    return {"prims": len(result.primitives)}


def _workload_size(args, kwargs, result):
    return {"prim_frames": sum(len(scene.primitives)
                               for scene in result.scenes)}


def _tiles(result) -> dict:
    return {"tiles_total": result.tiles_total,
            "tiles_skipped": result.tiles_skipped}


def _kernel_info(args, kwargs, result):
    trace = args[0] if args else kwargs["trace"]
    info = _tiles(result.result)
    info["accesses"] = trace.num_accesses
    return info


def _live_info(args, kwargs, result):
    return _tiles(result)


def _hit(args, kwargs, result):
    return {"hit": result is not None}


# (module, attribute path, span name, describe, count_under)
TARGETS = (
    ("repro.geometry.generator", "calibrate_extent_for_reuse",
     "geometry.calibrate", _calibrate_key, None),
    ("repro.geometry.generator", "SceneGenerator.generate",
     "geometry.generate", _scene_size, None),
    ("repro.geometry.overlap", "tiles_overlapped_by",
     "geometry.binning", None, "geometry.calibrate"),
    ("repro.pbuffer.builder", "build_parameter_buffer",
     "tiling.pbuffer", None, None),
    ("repro.tiling.engine", "TilingEngine.trace", "tiling.trace", None, None),
    ("repro.workloads.suite", "build_workload", "workloads.build",
     _workload_size, None),
    ("repro.anim.animate", "build_animated_workload", "anim.build",
     _workload_size, None),
    ("repro.anim.signatures", "tile_signatures", "anim.signatures",
     None, None),
    ("repro.replay.ir", "compile_workload", "replay.compile", None, None),
    ("repro.replay.kernels", "replay_baseline", "replay.kernel",
     _kernel_info, None),
    ("repro.replay.kernels", "replay_tcor", "replay.kernel",
     _kernel_info, None),
    ("repro.tcor.system", "simulate_baseline", "tcor.live", _live_info,
     None),
    ("repro.tcor.system", "simulate_tcor", "tcor.live", _live_info, None),
    ("repro.timing.tiling_timing", "tile_fetcher_throughput",
     "timing.fetcher", None, None),
    ("repro.energy.accounting", "gpu_energy", "energy", None, None),
    ("repro.energy.accounting", "memory_hierarchy_energy", "energy", None,
     None),
    ("repro.obs.registry", "Observation.snapshot", "obs.snapshot", None,
     None),
    ("repro.obs.registry", "MetricsRegistry.check_invariants",
     "obs.invariants", None, None),
    ("repro.experiments.driver", "export_table_metrics", "obs.export",
     None, None),
    ("repro.experiments.common", "SimulationCache.export_metrics",
     "obs.export", None, None),
    ("repro.parallel.store", "DiskCache.get_trace", "store.trace_get",
     _hit, None),
    ("repro.parallel.store", "DiskCache.put_trace", "store.trace_put",
     None, None),
    ("repro.parallel.store", "DiskCache.get_baseline", "store.result_get",
     _hit, None),
    ("repro.parallel.store", "DiskCache.get_tcor", "store.result_get",
     _hit, None),
    ("repro.parallel.store", "DiskCache.get_tables", "store.result_get",
     _hit, None),
    ("repro.parallel.store", "DiskCache.put_baseline", "store.result_put",
     None, None),
    ("repro.parallel.store", "DiskCache.put_tcor", "store.result_put",
     None, None),
    ("repro.parallel.store", "DiskCache.put_tables", "store.result_put",
     None, None),
    ("repro.parallel.store", "simulation_code_signature",
     "store.signature", None, None),
    ("repro.parallel.store", "experiment_code_signature",
     "store.signature", None, None),
    ("repro.parallel.store", "trace_code_signature", "store.signature",
     None, None),
    ("repro.experiments.driver", "run_experiments", "experiments", None,
     None),
    ("repro.api", "run_experiment", "experiments", None, None),
)

#: Experiment modules whose ``run`` is an ``experiments`` span.
EXPERIMENT_MODULES = ("headline", "fig14_15_l2_accesses", "fig16_17_mm_pb",
                      "fig18_19_mm_total", "fig20_21_energy", "fig_re")


def _rebind(original, replacement) -> None:
    """Point every ``repro`` module-level binding of ``original`` (the
    defining module's and every ``from ... import`` copy) at
    ``replacement``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(recorder: Recorder) -> None:
    """Wrap every target and make ``recorder`` active.  Call after the
    workload's imports, so ``from ... import`` copies get rebound."""
    global _ACTIVE
    for module_name, path, name, describe, count_under in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, attr)
        if hasattr(original, "__perfbench_original__"):
            continue
        wrapped = _wrap(name, original, describe, count_under)
        if owner_name:
            setattr(owner, attr, wrapped)
        else:
            _rebind(original, wrapped)
    for module_name in EXPERIMENT_MODULES:
        module = importlib.import_module(f"repro.experiments.{module_name}")
        if not hasattr(module.run, "__perfbench_original__"):
            module.run = _wrap("experiments", module.run)
    _ACTIVE = recorder


def span(name: str):
    """A span around a block of the benchmark's own code (a no-op
    context when no recorder is active)."""
    return _Block(name)


class _Block:
    __slots__ = ("name", "frame", "info")

    def __init__(self, name: str) -> None:
        self.name = name
        self.frame = None
        self.info: dict | None = None

    def __enter__(self) -> "_Block":
        if _ACTIVE is not None:
            self.frame = _ACTIVE.begin(self.name)
        return self

    def __exit__(self, *exc_info) -> None:
        if self.frame is not None and _ACTIVE is not None:
            _ACTIVE.end(self.frame, self.info)


# -- serve pool workers -------------------------------------------------

#: Set in the serve child before its pool forks: the directory pool
#: workers write their per-batch span files to.
POOL_SPAN_DIR: str | None = None


def traced_request_batch(alias, scale, entries, anim_payload=None):
    """Pool-side stand-in for the serve worker's batch entry point.

    Runs the real batch under a fresh recorder (the one inherited at
    fork time holds the parent's spans) and writes the batch's spans to
    :data:`POOL_SPAN_DIR`, since pool workers never return to the
    benchmark."""
    global _ACTIVE
    from repro.serve import worker

    parent = _ACTIVE
    recorder = Recorder(parent.run_id if parent is not None else "pool")
    _ACTIVE = recorder
    frame = recorder.begin("serve.batch")
    try:
        return worker.simulate_request_batch(alias, scale, entries,
                                             anim_payload)
    finally:
        recorder.end(frame, {"jobs": len(entries), "alias": alias})
        _ACTIVE = parent
        if POOL_SPAN_DIR is not None:
            recorder.dump(os.path.join(
                POOL_SPAN_DIR,
                f"pool-{os.getpid()}-{time.monotonic_ns()}.json"))


# -- aggregation --------------------------------------------------------

#: Span name -> layer whose self time it counts toward.
LAYER_OF = {
    "tiling.pbuffer": "tiling.trace",
    "obs.invariants": "obs.snapshot",
    "obs.export": "obs.snapshot",
}


def layer_of(name: str) -> str:
    return LAYER_OF.get(name, name)


def self_times(spans: list[dict]) -> dict[tuple, float]:
    """Self time of every span, keyed by ``(pid, id)``."""
    child_time: dict[tuple, float] = defaultdict(float)
    for record in spans:
        if record["parent"] is not None:
            child_time[(record["pid"], record["parent"])] += (
                record["end"] - record["start"])
    return {(record["pid"], record["id"]):
            record["end"] - record["start"]
            - child_time[(record["pid"], record["id"])]
            for record in spans}


def _frac(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans: list[dict], counts: dict) -> dict[str, float]:
    """The per-layer table of one traced pass."""
    own = self_times(spans)
    by_id = {(record["pid"], record["id"]): record for record in spans}
    layer_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for record in spans:
        key = (record["pid"], record["id"])
        layer = layer_of(record["name"])
        layer_s[layer] += own[key]
        parent = by_id.get((record["pid"], record["parent"]))
        # A call nested in a call of the same layer is part of it.
        if parent is None or layer_of(parent["name"]) != layer:
            calls[record["name"]] += 1

    def named(name: str) -> list[dict]:
        return [record for record in spans if record["name"] == name]

    def info_sum(names: tuple[str, ...], field: str) -> float:
        return sum((record["info"] or {}).get(field, 0)
                   for record in spans if record["name"] in names)

    def outermost_build(record: dict) -> bool:
        parent = by_id.get((record["pid"], record["parent"]))
        while parent is not None:
            if parent["name"] in ("workloads.build", "anim.build"):
                return False
            parent = by_id.get((parent["pid"], parent["parent"]))
        return True

    builds = [record for record in spans
              if record["name"] in ("workloads.build", "anim.build")
              and outermost_build(record)]
    prim_frames = sum((record["info"] or {}).get("prim_frames", 0)
                      for record in builds)
    calibrations = named("geometry.calibrate")
    seen: set = set()
    repeats = 0
    for record in sorted(calibrations, key=lambda item: item["start"]):
        key = (record["info"] or {}).get("key")
        repeats += key in seen
        seen.add(key)
    trace_gets = named("store.trace_get")
    result_gets = named("store.result_get")
    kernel_s = layer_s["replay.kernel"]
    tiles_total = info_sum(("replay.kernel", "tcor.live"), "tiles_total")
    return {
        "geometry.calibrate.calls": calls["geometry.calibrate"],
        "geometry.calibrate.s": layer_s["geometry.calibrate"],
        "geometry.calibrate.repeat_frac": _frac(repeats, len(calibrations)),
        "geometry.generate.s": layer_s["geometry.generate"],
        "geometry.binning.calls": calls["geometry.binning"],
        "geometry.binning.s": layer_s["geometry.binning"],
        "geometry.binning.calib_calls":
            counts.get("geometry.binning.under.geometry.calibrate", 0),
        "geometry.binning.per_prim": _frac(calls["geometry.binning"],
                                           prim_frames),
        "tiling.trace.calls": calls["tiling.trace"],
        "tiling.trace.s": layer_s["tiling.trace"],
        "workloads.build.calls": calls["workloads.build"],
        "workloads.build.s": layer_s["workloads.build"],
        "anim.build.calls": calls["anim.build"],
        "anim.build.s": layer_s["anim.build"],
        "anim.signatures.s": layer_s["anim.signatures"],
        "re.tiles_skipped_frac": _frac(
            info_sum(("replay.kernel", "tcor.live"), "tiles_skipped"),
            tiles_total),
        "replay.kernel.calls": calls["replay.kernel"],
        "replay.kernel.s": kernel_s,
        "replay.kernel.accesses_per_s": _frac(
            info_sum(("replay.kernel",), "accesses"), kernel_s),
        "replay.compile.calls": calls["replay.compile"],
        "replay.compile.s": layer_s["replay.compile"],
        "replay.compile.per_workload": _frac(calls["replay.compile"],
                                             len(builds)),
        "tcor.live.calls": calls["tcor.live"],
        "tcor.live.s": layer_s["tcor.live"],
        "timing.fetcher.calls": calls["timing.fetcher"],
        "timing.fetcher.s": layer_s["timing.fetcher"],
        "energy.calls": calls["energy"],
        "energy.s": layer_s["energy"],
        "obs.snapshot.calls": (calls["obs.snapshot"]
                               + calls["obs.invariants"]
                               + calls["obs.export"]),
        "obs.snapshot.s": layer_s["obs.snapshot"],
        "store.trace_get.calls": len(trace_gets),
        "store.trace_get.hit_frac": _frac(
            sum((record["info"] or {}).get("hit", False)
                for record in trace_gets), len(trace_gets)),
        "store.trace_get.s": layer_s["store.trace_get"],
        "store.result_get.hit_frac": _frac(
            sum((record["info"] or {}).get("hit", False)
                for record in result_gets), len(result_gets)),
        "store.result_put.s": layer_s["store.result_put"],
        "store.signature.s": layer_s["store.signature"],
        "experiments.self.s": layer_s["experiments"],
    }


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100,
                                      method="inclusive")[pct - 1])
