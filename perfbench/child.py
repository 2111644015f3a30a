"""One pass of one workload, in a fresh interpreter.

Usage: ``python3 perfbench/child.py PASS_SPEC.json``, started by
``run.py``.  The spec names the workload, size, seed, work directory
and whether to trace.  The pass writes ``result.json`` into its work
directory: the monotonic time it became ready (end of set-up), the
timed section's wall time (absent for a ``setup_only`` spec, which
exits once set up), the simulated outputs for the oracle and
its peak RSS.  A traced pass also writes its spans there.

``python3 perfbench/child.py --build-store SIZE DIR`` compiles the
trace store the warm workloads copy from.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _add_source_path(root: Path) -> None:
    sys.path.insert(0, str(root / "src"))


def _peak_rss_kib(pid: int) -> int:
    """VmHWM of one live process, 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _child_pids(pid: int) -> list[int]:
    pids: list[int] = []
    for path in Path(f"/proc/{pid}/task").glob("*/children"):
        try:
            pids.extend(int(text) for text in path.read_text().split())
        except OSError:
            continue
    return pids


def peak_rss_mib() -> float:
    """Peak RSS of this process plus its live descendants (the serve
    pool workers), read before they are shut down."""
    total = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pending = _child_pids(os.getpid())
    while pending:
        pid = pending.pop()
        total += _peak_rss_kib(pid)
        pending.extend(_child_pids(pid))
    return total / 1024.0


def run_pass(spec: dict) -> dict:
    import spans
    import workloads

    work_dir = Path(spec["work_dir"])
    ctx = dict(spec, cleanup=[])
    recorder = None
    if spec["trace"]:
        recorder = spans.Recorder(spec["run_id"])
        spans.install(recorder)
    setup, run = workloads.WORKLOADS[spec["workload"]]
    out: dict = {"ok": False}
    try:
        with spans.span("bench.setup"):
            state = setup(ctx)
        ready = time.perf_counter()
        out.update(ok=True, ready=ready)
        if not spec.get("setup_only"):
            with spans.span("bench.pass"):
                outputs = run(ctx, state)
            out.update(wall_s=time.perf_counter() - ready,
                       outputs=outputs)
    except Exception:
        out["error"] = traceback.format_exc()
    finally:
        out["peak_rss_mib"] = peak_rss_mib()
        for close in reversed(ctx["cleanup"]):
            close()
    if recorder is not None:
        recorder.dump(str(work_dir / "spans-main.json"))
    return out


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(HERE))
    if argv[:1] == ["--build-store"]:
        size, directory, root = argv[1], Path(argv[2]), Path(argv[3])
        _add_source_path(root)
        import workloads

        workloads.build_trace_store(directory, size)
        return 0
    spec = json.loads(Path(argv[0]).read_text())
    _add_source_path(Path(spec["root"]))
    result = run_pass(spec)
    with open(Path(spec["work_dir"]) / "result.json", "w") as handle:
        json.dump(result, handle)
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
