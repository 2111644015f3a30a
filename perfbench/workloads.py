"""The four workloads, each as ``setup`` plus one timed ``run``.

Every workload drives the public API (``repro.api``, the experiment
driver, ``repro.serve``) exactly as a user would.  A pass runs in a
fresh interpreter (see ``child.py``); ``setup`` is everything before
the first timed call, ``run`` is the timed section and returns the
simulated outputs the oracle checks, as flat ``{metric name: value}``
maps in the ``tcor-metrics`` naming of ``BASELINE_METRICS.json``.
"""

from __future__ import annotations

import random
import shutil
import threading
import time
from collections import deque
from dataclasses import asdict
from pathlib import Path

import spans

KIB = 1024

#: Per-size parameters.  ``full`` is the measured benchmark (scale 0.2,
#: the scale of BASELINE_METRICS.json); ``tiny`` is the self-test smoke
#: size, which has no reference outputs.
SIZES = {
    "full": {
        "scale": 0.2,
        # A high-reuse benchmark and a large-footprint one: the whole
        # suite's abstract table takes ~46 s cold, too long for a run.
        "suite_aliases": ("GTr", "Mze"),
        "sweep_aliases": None,  # all ten Table II benchmarks
        "anim_aliases": ("GTr",),
        "serve_aliases": ("GTr", "SoD", "CCS", "RoK"),
        "serve_repeats": 13,
    },
    "tiny": {
        "scale": 0.05,
        "suite_aliases": ("GTr",),
        "sweep_aliases": ("GTr", "SoD"),
        "anim_aliases": ("GTr",),
        "serve_aliases": ("GTr",),
        "serve_repeats": 3,
    },
}

SWEEP_EXPERIMENTS = ("fig14", "fig16", "fig18", "fig20")
SERVE_KINDS = ("baseline", "tcor")
SERVE_SIZES = (64 * KIB, 128 * KIB)
SERVE_CLIENTS = 2
SERVE_POOL_WORKERS = 2


def store_aliases(size: str) -> tuple[str, ...]:
    from repro.workloads.suite import BENCHMARK_ORDER

    return SIZES[size]["sweep_aliases"] or BENCHMARK_ORDER


def build_trace_store(directory: Path, size: str) -> None:
    """Compile and persist every trace the warm workloads read."""
    from repro.parallel.store import DiskCache
    from repro.replay import compiled_trace_for
    from repro.workloads.suite import BENCHMARKS, build_workload

    scale = SIZES[size]["scale"]
    store = DiskCache(directory)
    for alias in store_aliases(size):
        workload = build_workload(BENCHMARKS[alias], scale=scale)
        store.put_trace(BENCHMARKS[alias], scale, compiled_trace_for(workload))


def _private_store(ctx: dict):
    """A fresh result-cold copy of the trace-warm store."""
    from repro.parallel.store import DiskCache

    private = Path(ctx["work_dir"]) / "store"
    shutil.copytree(ctx["trace_store"], private)
    return DiskCache(private)


def _table_metrics(results) -> dict:
    from repro.experiments.driver import export_table_metrics
    from repro.obs.registry import MetricsRegistry

    registry = MetricsRegistry()
    export_table_metrics(registry, results)
    return registry.snapshot()


def _ordered(items: tuple, seed: int) -> tuple:
    order = list(items)
    random.Random(seed).shuffle(order)
    return tuple(order)


# -- suite_cold ---------------------------------------------------------

def suite_cold_setup(ctx: dict) -> dict:
    from repro import api

    return {"api": api}


def suite_cold_run(ctx: dict, state: dict) -> dict:
    params = SIZES[ctx["size"]]
    aliases = _ordered(params["suite_aliases"], ctx["seed"])
    report = state["api"].run_experiment("headline", scale=params["scale"],
                                         benchmarks=aliases)
    table = report.table("headline")
    return {"values": dict(report.metrics),
            "headline": [[row[0], row[1], row[2]] for row in table.rows]}


# -- sweep_warm ---------------------------------------------------------

def sweep_warm_setup(ctx: dict) -> dict:
    from repro.experiments import driver

    return {"driver": driver, "disk": _private_store(ctx)}


def sweep_warm_run(ctx: dict, state: dict) -> dict:
    from repro.obs.registry import MetricsRegistry

    params = SIZES[ctx["size"]]
    registry = MetricsRegistry()
    state["driver"].run_experiments(
        list(_ordered(SWEEP_EXPERIMENTS, ctx["seed"])),
        scale=params["scale"], aliases=params["sweep_aliases"],
        disk=state["disk"], registry=registry)
    return {"values": registry.snapshot()}


# -- anim_re ------------------------------------------------------------

def anim_re_setup(ctx: dict) -> dict:
    from repro.experiments import fig_re

    return {"fig_re": fig_re}


def anim_re_run(ctx: dict, state: dict) -> dict:
    from repro.obs.registry import MetricsRegistry

    params = SIZES[ctx["size"]]
    registry = MetricsRegistry()
    result = state["fig_re"].run(scale=params["scale"],
                                 aliases=params["anim_aliases"],
                                 registry=registry)
    values = dict(registry.snapshot())
    values.update(_table_metrics([result]))
    return {"values": values}


# -- serve_mixed --------------------------------------------------------

def serve_requests(size: str) -> list:
    """The 16 distinct requests: benchmarks x organisations x budgets."""
    from repro.api import SimulationConfig
    from repro.serve import JobRequest

    params = SIZES[size]
    return [JobRequest(alias=alias, scale=params["scale"],
                       config=SimulationConfig(kind=kind,
                                               tile_cache_bytes=budget))
            for alias in params["serve_aliases"]
            for kind in SERVE_KINDS for budget in SERVE_SIZES]


def serve_stream(size: str, seed: int) -> list[int]:
    """Request indices: every key repeated, in a seeded shuffle."""
    count = len(serve_requests(size))
    stream = list(range(count)) * SIZES[size]["serve_repeats"]
    random.Random(seed).shuffle(stream)
    return stream


def sim_metric_prefix(request) -> str:
    """The ``sim.*`` name a request's result has in the experiment
    metrics (``SimulationCache.metric_prefix``)."""
    from repro.config import TCORConfig
    from repro.experiments.common import SimulationCache

    config = request.config
    if config.kind == "baseline":
        key = SimulationCache.baseline_key(request.alias,
                                           config.tile_cache_bytes)
    else:
        tcor = TCORConfig.for_total_size(config.tile_cache_bytes)
        key = SimulationCache.tcor_key(request.alias,
                                       config.tile_cache_bytes, tcor,
                                       config.l2_enhancements)
    return SimulationCache.metric_prefix(key)


def serve_mixed_setup(ctx: dict) -> dict:
    from repro.serve import InProcessServer, scheduler

    if ctx["trace"]:
        # Pool workers fork from this process after the layer wrappers
        # are installed; route their batches through the span-dumping
        # entry point.
        spans.POOL_SPAN_DIR = ctx["work_dir"]
        scheduler.simulate_request_batch = spans.traced_request_batch
    server = InProcessServer(jobs=SERVE_POOL_WORKERS,
                             disk=_private_store(ctx))
    ctx["cleanup"].append(server.close)
    return {"server": server}


def serve_mixed_run(ctx: dict, state: dict) -> dict:
    from repro.obs.registry import flatten
    from repro.serve import ServeClientError, schema

    server = state["server"]
    requests = serve_requests(ctx["size"])
    prefixes = [sim_metric_prefix(request) for request in requests]
    queue = deque(serve_stream(ctx["size"], ctx["seed"]))
    lock = threading.Lock()
    completed: set[int] = set()
    records: list[dict] = []

    def client_loop() -> None:
        with server.client(timeout_s=120.0) as client:
            while True:
                with lock:
                    if not queue:
                        return
                    index = queue.popleft()
                    memo = index in completed
                request = requests[index]
                record = {"req": index, "memo": memo,
                          "prefix": prefixes[index]}
                with spans.span("serve.request") as block:
                    start = time.perf_counter()
                    try:
                        response = client.submit(request, wait=True,
                                                 timeout_s=120.0)
                    except ServeClientError as exc:
                        record["error"] = str(exc)
                        response = None
                    record["latency_s"] = time.perf_counter() - start
                    block.info = {"req": index}
                if response is not None:
                    result = schema.job_result_from_payload(
                        response["result"])
                    record.update(
                        reused=bool(response.get("reused")),
                        state=result.state, lane=result.lane,
                        elapsed_s=result.elapsed_s,
                        invariant_failures=list(result.invariant_failures),
                        error=result.error)
                    if result.result is not None:
                        record["values"] = flatten(
                            asdict(result.result),
                            sim_metric_prefix(request))
                    if result.state == schema.DONE:
                        with lock:
                            completed.add(index)
                with lock:
                    records.append(record)

    threads = [threading.Thread(target=client_loop, name=f"client-{n}")
               for n in range(SERVE_CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    metrics = server.scheduler.metrics
    counters = {name: metrics.value(name)
                for name in ("submitted", "memo_hits", "coalesced",
                             "disk_hits", "batches", "batch_jobs")}
    return {"requests": records, "counters": counters}


WORKLOADS = {
    "suite_cold": (suite_cold_setup, suite_cold_run),
    "sweep_warm": (sweep_warm_setup, sweep_warm_run),
    "anim_re": (anim_re_setup, anim_re_run),
    "serve_mixed": (serve_mixed_setup, serve_mixed_run),
}

#: Workloads that read the prebuilt trace store.
WARM_WORKLOADS = ("sweep_warm", "serve_mixed")
