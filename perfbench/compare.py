"""Print the traced per-layer table of a result, or diff two of them.

Usage (from the repository root)::

    python3 perfbench/compare.py RESULT
    python3 perfbench/compare.py OLD NEW

``RESULT``/``OLD``/``NEW`` are records ``run.py --trace 1`` wrote under
``.bench_build/perfbench/results/``, or ``FILE:WORKLOAD`` for one
workload of a multi-workload file such as the committed
``perfbench/baseline_layers.json``.  One file prints each layer's self
time, its share of the traced wall time, and its call count; two files
print every per-layer metric side by side with its change.  Judging
end-to-end metrics is left to the benchmark's own repeated runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load(spec: str) -> dict[str, float]:
    """``{metric: value}`` of one traced result."""
    path, _, workload = spec.partition(":")
    data = json.loads(Path(path).read_text())
    if "workloads" in data:
        if not workload:
            raise SystemExit(f"{path} holds several workloads "
                             f"({', '.join(sorted(data['workloads']))}): "
                             f"pass {path}:WORKLOAD")
        data = data["workloads"][workload]
    return {name: metric["value"]
            for name, metric in data["metrics"].items()}


def layer_table(metrics: dict[str, float]) -> list[tuple]:
    """``(layer, self seconds, share of traced wall, calls)`` rows,
    largest self time first."""
    wall = metrics.get("trace.wall_s", 0.0)
    rows = []
    for name, value in metrics.items():
        if not name.endswith(".s") or name == "trace.wall_s":
            continue
        layer = name[:-2]
        calls = metrics.get(f"{layer}.calls")
        rows.append((layer, value, value / wall if wall else 0.0, calls))
    return sorted(rows, key=lambda row: -row[1])


def print_table(metrics: dict[str, float]) -> None:
    print(f"{'layer':28s} {'self_s':>10s} {'share':>7s} {'calls':>8s}")
    for layer, seconds, share, calls in layer_table(metrics):
        shown = "" if calls is None else f"{calls:g}"
        print(f"{layer:28s} {seconds:10.4f} {share:7.1%} {shown:>8s}")
    print(f"{'trace.wall_s':28s} {metrics.get('trace.wall_s', 0.0):10.4f}")


def print_deltas(old: dict[str, float], new: dict[str, float]) -> None:
    print(f"{'metric':34s} {'old':>12s} {'new':>12s} {'delta':>12s} "
          f"{'change':>8s}")
    for name in sorted(set(old) | set(new)):
        before, after = old.get(name), new.get(name)
        if before is None or after is None:
            print(f"{name:34s} {before!s:>12s} {after!s:>12s}")
            continue
        change = f"{(after - before) / before:+.1%}" if before else ""
        print(f"{name:34s} {before:12.6g} {after:12.6g} "
              f"{after - before:+12.4g} {change:>8s}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("results", nargs="+", metavar="RESULT")
    args = parser.parse_args(argv)
    if len(args.results) > 2:
        parser.error("pass one result to print, or two to compare")
    tables = [load(spec) for spec in args.results]
    if len(tables) == 1:
        print_table(tables[0])
    else:
        print_deltas(*tables)
    return 0


if __name__ == "__main__":
    sys.exit(main())
