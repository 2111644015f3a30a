"""Regenerate the oracle references in ``perfbench/reference/``.

Usage (from the repository root)::

    REPRO_NO_REPLAY=1 python3 perfbench/make_reference.py

The references come from the live simulator (the reference engine);
running without ``REPRO_NO_REPLAY=1`` is refused.  Both orders of the
headline subset are computed and must agree, since a benchmark run
visits the subset in a seeded order.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import SIZES  # noqa: E402


def _headline(params: dict) -> dict:
    from repro.api import run_experiment

    tables = set()
    metrics: dict = {}
    for order in itertools.permutations(params["suite_aliases"]):
        report = run_experiment("headline", scale=params["scale"],
                                benchmarks=order)
        metrics = {name: value for name, value in report.metrics.items()
                   if name.startswith("table.headline.")}
        tables.add(json.dumps(metrics, sort_keys=True))
    if len(tables) != 1:
        raise SystemExit("headline table depends on the benchmark order")
    return {"aliases": list(params["suite_aliases"]), "metrics": metrics}


def _fig_re(params: dict) -> dict:
    from repro.experiments import fig_re
    from repro.experiments.driver import export_table_metrics
    from repro.obs.registry import MetricsRegistry

    registry = MetricsRegistry()
    result = fig_re.run(scale=params["scale"],
                        aliases=params["anim_aliases"], registry=registry)
    export_table_metrics(registry, [result])
    return {"aliases": list(params["anim_aliases"]),
            "metrics": registry.snapshot()}


def main() -> int:
    if os.environ.get("REPRO_NO_REPLAY") != "1":
        print("set REPRO_NO_REPLAY=1: references come from the live "
              "simulator", file=sys.stderr)
        return 2
    params = SIZES["full"]
    out_dir = HERE / "reference"
    out_dir.mkdir(exist_ok=True)
    for name, build in (("headline", _headline), ("fig_re", _fig_re)):
        reference = dict(build(params), scale=params["scale"],
                         engine="live")
        path = out_dir / f"{name}.json"
        path.write_text(json.dumps(reference, indent=1, sort_keys=True)
                        + "\n")
        print(f"{path}: {len(reference['metrics'])} values")
    return 0


if __name__ == "__main__":
    sys.exit(main())
