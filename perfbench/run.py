"""The repository's benchmark: four workloads through the public API.

Usage (from the repository root)::

    python3 perfbench/run.py --workload suite_cold --seed 1 --seconds 20 --trace 0

Each workload pass runs in a fresh interpreter (``child.py``); the run
repeats passes until ``--seconds`` of measurement are used, checks
every simulated output against the oracle and prints one line per
metric, then a final JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced passes and reports the per-layer table of the
traced ones (see ``spans.py``) plus the tracing overhead.  The full
record of a run, spans included, is written under
``.bench_build/perfbench/results/``; ``compare.py`` prints and diffs
those files.

``--size tiny`` is the self-test's smoke size (no reference outputs);
``--engine live`` forces the live simulator (``REPRO_NO_REPLAY=1``);
``--perturb-reference NAME`` alters one reference value, which must
make the run fail its oracle check.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import spans  # noqa: E402
from workloads import SIZES, WARM_WORKLOADS, WORKLOADS  # noqa: E402

PASS_TIMEOUT_S = 170.0
#: setup_s is the median of at least this many set-ups per run: the
#: passes' own plus set-up-only children.
SETUP_SAMPLES = 7
#: Passes per run even when they overrun --seconds, so that every
#: timing is a median of at least two.
MIN_PASSES = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "jobs_per_s": "1/s",
    "peak_rss_mib": "MiB",
}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed build)."""


def _layer_units() -> dict[str, str]:
    manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in manifest["per_layer"]}


def check_checkout(root: Path) -> None:
    for required in ("src/repro/__init__.py", "BASELINE_METRICS.json"):
        if not (root / required).is_file():
            raise BenchError(f"{required} not found under {root}: run from "
                             "a checkout of the repository")


def _child_env(engine: str) -> dict:
    env = dict(os.environ)
    env.pop("REPRO_NO_REPLAY", None)
    if engine == "live":
        env["REPRO_NO_REPLAY"] = "1"
    # Fixed string hashing: every pass iterates sets and dicts of
    # strings in the same order, so passes execute the same work.
    env["PYTHONHASHSEED"] = "0"
    return env


def ensure_trace_store(root: Path, build_dir: Path, size: str) -> Path:
    """The trace-warm store, compiled once per checkout and trace-code
    signature (outside any timed section)."""
    sys.path.insert(0, str(root / "src"))
    from repro.parallel.store import trace_code_signature

    store = build_dir / f"traces-{size}-{trace_code_signature()[:16]}"
    if store.is_dir():
        return store
    staging = build_dir / f"staging-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    completed = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--build-store", size,
         str(staging), str(root)],
        env=_child_env("auto"), timeout=600)
    if completed.returncode != 0:
        shutil.rmtree(staging, ignore_errors=True)
        raise BenchError("building the trace store failed")
    try:
        staging.rename(store)
    except OSError:
        # Another run published the same store first.
        shutil.rmtree(staging, ignore_errors=True)
    return store


def run_child(spec: dict, engine: str) -> tuple[float, dict, list]:
    """One pass; returns ``(spawn time, result, span records)``."""
    work_dir = Path(spec["work_dir"])
    work_dir.mkdir(parents=True)
    spec_path = work_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    spawned = time.perf_counter()
    # Its own process group, so that nothing it started (the serve
    # pool workers) outlives the pass, even on a timeout.
    process = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(spec_path)],
        env=_child_env(engine), stdout=subprocess.DEVNULL,
        start_new_session=True)
    try:
        process.wait(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        pass
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    result_path = work_dir / "result.json"
    result = (json.loads(result_path.read_text()) if result_path.is_file()
              else {"ok": False, "error": f"exit {process.returncode}"})
    records: list = []
    counts: dict = {}
    for path in sorted(work_dir.glob("*.json")):
        if path.name in ("spec.json", "result.json"):
            continue
        dump = json.loads(path.read_text())
        records.extend(dump["spans"])
        for name, value in dump["counts"].items():
            counts[name] = counts.get(name, 0) + value
    result["span_counts"] = counts
    shutil.rmtree(work_dir, ignore_errors=True)
    return spawned, result, records


# -- oracle -------------------------------------------------------------

def check_pass(workload: str, result: dict, params: dict,
               truth: oracle.Oracle) -> tuple[int, int, list]:
    """``(attempted, failed, mismatch samples)`` for one pass."""
    outputs = result.get("outputs")
    if workload == "serve_mixed":
        return _check_requests(outputs, truth, params)
    expected = truth.expected(workload, params)
    if not result.get("ok"):
        return max(1, len(expected or ())), max(1, len(expected or ())), [
            result.get("error", "pass failed")]
    if expected is None:
        return 1, 0, []
    checked, mismatches = oracle.compare(expected, outputs["values"])
    return checked, len(mismatches), mismatches[:5]


def _check_requests(outputs, truth: oracle.Oracle,
                    params: dict) -> tuple[int, int, list]:
    if outputs is None:
        return 1, 1, ["serve pass failed"]
    failed = 0
    samples: list = []
    checked_scale = params["scale"] == truth.scale
    for record in outputs["requests"]:
        problem = record.get("error")
        if problem is None and record.get("state") != "done":
            problem = f"state {record.get('state')}"
        if problem is None and record.get("invariant_failures"):
            problem = "; ".join(record["invariant_failures"])
        if problem is None and checked_scale:
            expected = truth.request_expected(record["prefix"])
            _, mismatches = oracle.compare(expected,
                                           record.get("values") or {})
            if mismatches or not expected:
                problem = mismatches[:3] or "no reference"
        if problem is not None:
            failed += 1
            samples.append(problem)
    return len(outputs["requests"]), failed, samples[:5]


# -- metrics ------------------------------------------------------------

def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def end_to_end(workload: str, passes: list[dict],
               setups: list[float]) -> dict[str, float]:
    """The untraced passes' end-to-end metrics."""
    walls = [entry["result"]["wall_s"] for entry in passes]
    if workload == "serve_mixed":
        ops_ms = [record["latency_s"] * 1e3 for entry in passes
                  for record in entry["result"]["outputs"]["requests"]]
    else:
        ops_ms = [wall * 1e3 for wall in walls]
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": _median(setups),
        "wall_s": _median(walls),
        "latency_p50_ms": _median(ops_ms),
        "latency_p95_ms": spans.percentile(ops_ms, 95),
        "jobs_per_s": len(ops_ms) / sum(walls),
        "peak_rss_mib": own + max(entry["result"]["peak_rss_mib"]
                                  for entry in passes),
    }


def serve_layer(outputs: dict | None) -> dict[str, float]:
    """``serve.*`` per-layer metrics of one pass (zeros elsewhere)."""
    if outputs is None or "requests" not in outputs:
        outputs = {"requests": [], "counters": {}}
    records = [record for record in outputs["requests"]
               if record.get("state") == "done"]
    new = [record for record in records if not record["reused"]]
    memo = [record for record in records
            if record["reused"] and record["memo"]]
    server_ms = [record["elapsed_s"] * 1e3 for record in new]
    # A memo hit runs nothing server-side; coalesced requests share
    # another request's job, so their server time is unknown.
    transport_ms = ([(record["latency_s"] - record["elapsed_s"]) * 1e3
                     for record in new]
                    + [record["latency_s"] * 1e3 for record in memo])
    counters = outputs["counters"]
    submitted = counters.get("submitted", 0)

    def share(name: str) -> float:
        return counters.get(name, 0) / submitted if submitted else 0.0

    batches = counters.get("batches", 0)
    return {
        "serve.server_ms.p50": _median(server_ms),
        "serve.server_ms.p95": spans.percentile(server_ms, 95),
        "serve.transport_ms.p50": _median(transport_ms),
        "serve.lane.memo_frac": share("memo_hits"),
        "serve.lane.pool_frac": share("batch_jobs"),
        "serve.lane.disk_frac": share("disk_hits"),
        "serve.coalesced_frac": share("coalesced"),
        "serve.batches": batches,
        "serve.batch_size.mean": (counters.get("batch_jobs", 0) / batches
                                  if batches else 0.0),
    }


def per_layer(traced: list[dict], untraced: list[dict],
              engine: str) -> dict[str, float]:
    """Median over traced passes of each layer metric."""
    tables = []
    for entry in traced:
        table = spans.layer_metrics(entry["spans"],
                                    entry["result"]["span_counts"])
        table["replay.fallbacks"] = (table["tcor.live.calls"]
                                     if engine == "auto" else 0)
        table.update(serve_layer(entry["result"].get("outputs")))
        table["trace.wall_s"] = entry["result"]["wall_s"]
        tables.append(table)
    merged = {name: _median([table[name] for table in tables])
              for name in tables[0]}
    untraced_wall = _median([entry["result"]["wall_s"]
                             for entry in untraced])
    merged["trace_overhead_frac"] = (merged["trace.wall_s"] / untraced_wall
                                     - 1.0)
    return merged


# -- the run ------------------------------------------------------------

def run(args) -> dict:
    root = HERE.parent
    check_checkout(root)
    params = SIZES[args.size]
    build_dir = root / ".bench_build" / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    trace_store = None
    if args.workload in WARM_WORKLOADS:
        trace_store = ensure_trace_store(root, build_dir, args.size)
    truth = oracle.Oracle(root, perturb=args.perturb_reference)
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"

    children = 0

    def spec(traced: bool, setup_only: bool = False) -> dict:
        nonlocal children
        children += 1
        return {"workload": args.workload, "size": args.size,
                "seed": args.seed, "trace": traced,
                "setup_only": setup_only,
                "run_id": f"{run_id}-c{children}", "root": str(root),
                "trace_store": str(trace_store) if trace_store else None,
                "work_dir": str(build_dir / "work" /
                                f"{os.getpid()}-{children}")}

    passes: list[dict] = []
    began = time.perf_counter()
    while True:
        # --trace 1 alternates traced and untraced passes, traced first.
        traced = bool(args.trace) and len(passes) % 2 == 0
        spawned, result, records = run_child(spec(traced), args.engine)
        finished = time.perf_counter()
        entry = {"traced": traced, "result": result, "spans": records,
                 "duration_s": finished - spawned,
                 "setup_s": (result["ready"] - spawned
                             if result.get("ok") else 0.0)}
        passes.append(entry)
        if not result.get("ok"):
            break
        elapsed = finished - began
        typical = _median([item["duration_s"] for item in passes])
        if len(passes) >= MIN_PASSES and elapsed + typical > args.seconds:
            break

    setups = [entry["setup_s"] for entry in passes if not entry["traced"]]
    while (not args.trace and passes[-1]["result"].get("ok")
           and len(setups) < SETUP_SAMPLES):
        spawned, result, _ = run_child(spec(False, setup_only=True),
                                       args.engine)
        if not result.get("ok"):
            break
        setups.append(result["ready"] - spawned)

    attempted = failed = 0
    mismatches: list = []
    for entry in passes:
        a, f, samples = check_pass(args.workload, entry["result"], params,
                                   truth)
        attempted += a
        failed += f
        mismatches.extend(samples)
    all_ok = all(entry["result"].get("ok") for entry in passes)
    untraced = [entry for entry in passes if not entry["traced"]]
    traced = [entry for entry in passes if entry["traced"]]
    record = {"workload": args.workload, "seed": args.seed,
              "size": args.size, "engine": args.engine,
              "trace": args.trace, "seconds": args.seconds,
              "passes": len(passes), "attempted": attempted,
              "pass_walls_s": [entry["result"].get("wall_s")
                               for entry in passes],
              "setups_s": setups,
              "pass_traced": [entry["traced"] for entry in passes],
              "failed": failed, "failed_frac": failed / max(1, attempted),
              "mismatch_samples": [str(item) for item in mismatches[:10]],
              "errors": [entry["result"].get("error") for entry in passes
                         if not entry["result"].get("ok")]}
    metrics: dict[str, tuple[float, str]] = {}
    if all_ok:
        if args.trace:
            units = _layer_units()
            for name, value in per_layer(traced, untraced,
                                         args.engine).items():
                metrics[name] = (value, units.get(name, ""))
        else:
            for name, value in end_to_end(args.workload, untraced,
                                          setups).items():
                metrics[name] = (value, END_TO_END_UNITS[name])
        if args.workload == "suite_cold" and params["scale"] == truth.scale:
            record["paper_gap"] = oracle.paper_gaps(
                passes[0]["result"]["outputs"]["headline"])
    record["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in metrics.items()}
    record["correct"] = all_ok and failed == 0
    out = Path(args.out) if args.out else (
        build_dir / "results" /
        f"{args.workload}-s{args.seed}-t{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, sort_keys=True))
    if traced:
        with open(out.with_suffix(".spans.jsonl"), "w") as handle:
            for entry in traced:
                for span_record in entry["spans"]:
                    handle.write(json.dumps(span_record) + "\n")
    record["result_file"] = str(out)
    return record


def report(record: dict) -> None:
    for name, metric in sorted(record["metrics"].items()):
        print(f"{name:36s} {metric['value']:14.6g} {metric['unit']}")
    print(f"{'failed_frac':36s} {record['failed_frac']:14.6g} ratio "
          f"({record['failed']}/{record['attempted']})")
    for name, value in sorted(record.get("paper_gap", {}).items()):
        print(f"{name:36s} {value:14.6g} {oracle.PAPER_GAP_UNITS[name]}")
    print(f"[{record['workload']}: {record['passes']} passes; "
          f"record {record['result_file']}]")
    for sample in record["mismatch_samples"][:5]:
        print(f"oracle mismatch: {sample}")
    for error in record["errors"]:
        print(f"pass failed:\n{error}")
    summary = {"correct": record["correct"],
               "attempted": max(1, record["attempted"]),
               "failed": record["failed"],
               "metrics": record["metrics"]}
    print(json.dumps(summary, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1,
                        help="orders serve requests and the benchmarks or "
                             "experiments a batch workload visits")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--engine", choices=("auto", "live"),
                        default="auto")
    parser.add_argument("--perturb-reference", metavar="NAME", default=None)
    parser.add_argument("--out", default=None,
                        help="result record path (default under "
                             ".bench_build/perfbench/results/)")
    args = parser.parse_args(argv)
    try:
        record = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
