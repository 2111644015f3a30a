"""Self-test of the benchmark.

Usage (from the repository root)::

    python3 perfbench/selftest.py

Checks, each through ``run.py`` as the benchmark is run:

1. a tiny-size smoke run of every workload, untraced and traced, emits
   every end-to-end and per-layer metric ``BENCHMARK.json`` declares,
   with its unit, and passes;
2. perturbing one reference value makes the oracle fail the run
   (``failed`` > 0, ``correct`` false);
3. forcing the live engine shows up as ``tcor.live.calls`` > 0, where
   the default engine makes none.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench" / "selftest"


def bench(workload: str, *extra: str, trace: int = 0) -> dict:
    name = "-".join((workload, f"t{trace}") + tuple(
        part.strip("-") for part in extra if part.startswith("--")))
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--out", str(OUT / f"{name}.json"), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if completed.returncode != 0:
        raise AssertionError(f"{name}: exit {completed.returncode}\n"
                             f"{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main() -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures: list[str] = []

    def check(condition: bool, message: str) -> None:
        print(("ok   " if condition else "FAIL ") + message)
        if not condition:
            failures.append(message)

    for entry in manifest["workloads"]:
        workload = entry["name"]
        for trace, declared in ((0, manifest["end_to_end"]),
                                (1, manifest["per_layer"])):
            result = bench(workload, "--size", "tiny", trace=trace)
            check(result["correct"] and result["failed"] == 0,
                  f"{workload} trace {trace}: tiny run passes")
            missing = [metric["name"] for metric in declared
                       if result["metrics"].get(metric["name"], {})
                       .get("unit") != metric["unit"]]
            check(not missing, f"{workload} trace {trace}: every declared "
                  f"metric emitted with its unit (missing: {missing})")

    baseline = json.loads((ROOT / "BASELINE_METRICS.json").read_text())
    target = min(name for name in baseline["metrics"]
                 if name.startswith("table.fig14."))
    clean = bench("sweep_warm")
    check(clean["correct"] and clean["failed"] == 0,
          "sweep_warm full size matches the reference")
    perturbed = bench("sweep_warm", "--perturb-reference", target)
    check(not perturbed["correct"] and perturbed["failed"] > 0,
          f"perturbing {target} fails the oracle "
          f"({perturbed['failed']}/{perturbed['attempted']})")

    auto = bench("suite_cold", "--size", "tiny", trace=1)
    live = bench("suite_cold", "--size", "tiny", "--engine", "live", trace=1)
    check(auto["metrics"]["tcor.live.calls"]["value"] == 0,
          "default engine: tcor.live.calls = 0")
    check(live["metrics"]["tcor.live.calls"]["value"] > 0
          and live["metrics"]["replay.kernel.calls"]["value"] == 0,
          "forced live engine: tcor.live.calls "
          f"{live['metrics']['tcor.live.calls']['value']:g} > 0")
    print(f"{len(failures)} check(s) failed" if failures
          else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
