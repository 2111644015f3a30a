"""Replay gate: compiled-trace kernels are bit-identical to the live
simulator.

The acceptance bar for the replay engine (the same bar PR 2 set for
hot-path tuning): for every Table II benchmark and every memory
organization the paper evaluates, replaying the compiled access trace
must reproduce the live simulator's ``SystemResult`` exactly — integer
counter equality, field by field — and its metrics registry snapshot
byte-identically (same names, same values).  The live path remains the
reference oracle; any divergence fails here before it can touch a
figure.
"""

from __future__ import annotations

import dataclasses
import io
import random

import pytest

from repro.api import SimulationConfig, simulate
from repro.config import KIB, TCORConfig
from repro.obs.registry import MetricsRegistry, Observation
from repro.replay import (
    ReplayUnsupportedError,
    compile_workload,
    load_trace,
    replay_baseline,
    replay_tcor,
    save_trace,
    try_replay,
)
from repro.tcor import system
from repro.workloads.suite import BENCHMARK_ORDER, BENCHMARKS, build_workload

EQUIVALENCE_SCALE = 0.2
TILE_CACHE_BYTES = 64 * KIB


def _assert_results_equal(alias, live, replayed) -> None:
    # Field-by-field so a regression names the exact counter.
    for field in dataclasses.fields(type(live)):
        assert getattr(live, field.name) == getattr(replayed, field.name), \
            f"{alias}: {live.label}.{field.name} diverged"


@pytest.mark.parametrize("alias", BENCHMARK_ORDER)
def test_replay_bit_identical_for_every_policy(alias):
    workload = build_workload(BENCHMARKS[alias], scale=EQUIVALENCE_SCALE)
    trace = compile_workload(workload)
    tcor_config = TCORConfig.for_total_size(TILE_CACHE_BYTES)

    pairs = [
        (system.simulate_baseline(workload,
                                  tile_cache_bytes=TILE_CACHE_BYTES),
         replay_baseline(trace, tile_cache_bytes=TILE_CACHE_BYTES).result),
        (system.simulate_tcor(workload, tcor=tcor_config),
         replay_tcor(trace, tcor=tcor_config).result),
        (system.simulate_tcor(workload, tcor=tcor_config,
                              l2_enhancements=False),
         replay_tcor(trace, tcor=tcor_config,
                     l2_enhancements=False).result),
    ]
    for live, replayed in pairs:
        _assert_results_equal(alias, live, replayed)


class TestMetricNames:
    """Replay-path metrics must be byte-identical to live-path metrics
    (same ``live.*`` names, same values), so ``tcor-metrics diff``
    passes against a baseline regenerated on either path."""

    @pytest.mark.parametrize("kind", ["baseline", "tcor"])
    def test_snapshot_byte_identical(self, kind):
        config = SimulationConfig(kind=kind,
                                  tile_cache_bytes=TILE_CACHE_BYTES)
        live = simulate(build_workload(BENCHMARKS["CCS"], scale=0.1),
                        config, engine="live")
        replayed = simulate(build_workload(BENCHMARKS["CCS"], scale=0.1),
                            config, engine="replay")
        assert set(live.metrics) == set(replayed.metrics)
        assert dict(live.metrics) == dict(replayed.metrics)
        assert live.ok and replayed.ok

    def test_conservation_invariants_attach_on_replay(self):
        obs = Observation(MetricsRegistry())
        workload = build_workload(BENCHMARKS["GTr"], scale=0.1)
        result = try_replay(workload, SimulationConfig(kind="tcor"), obs)
        assert result is not None
        assert obs.registry.check_invariants() == []
        snapshot = obs.snapshot()
        assert "live.system.pb_l2_reads" in snapshot
        assert "live.l2.accesses" in snapshot


class TestRandomizedMatrix:
    """Property-style differential: a seeded random matrix of
    mini-workloads and configurations, each replayed against the live
    oracle over the full *Stats surface (the metrics snapshot flattens
    every stats object the run registers)."""

    def test_randomized_mini_matrix(self):
        rng = random.Random(0x7C08)
        aliases = rng.sample(BENCHMARK_ORDER, 4)
        for index, alias in enumerate(aliases):
            frames = 2 if index == 0 else 1
            workload = build_workload(BENCHMARKS[alias], scale=0.05,
                                      frames=frames)
            size = rng.choice([32 * KIB, 64 * KIB, 96 * KIB])
            overrides = {}
            if rng.random() < 0.5:
                overrides["write_bypass"] = False
            if rng.random() < 0.5:
                overrides["use_xor_indexing"] = False
            tcor_config = TCORConfig.for_total_size(size, **overrides)
            configs = [
                SimulationConfig(kind="baseline", tile_cache_bytes=size),
                SimulationConfig(kind="tcor", tcor=tcor_config),
                SimulationConfig(kind="tcor", tcor=tcor_config,
                                 l2_enhancements=False,
                                 interleaved_lists=rng.random() < 0.5),
                SimulationConfig(kind="tcor", tile_cache_bytes=size,
                                 include_background=False),
            ]
            for config in configs:
                live = simulate(build_workload(BENCHMARKS[alias],
                                               scale=0.05, frames=frames),
                                config, engine="live")
                replayed = simulate(workload, config, engine="replay")
                _assert_results_equal(alias, live.result, replayed.result)
                assert dict(live.metrics) == dict(replayed.metrics), \
                    f"{alias}: metrics diverged for {config}"


class TestAnimatedMatrix:
    """The PR-10 gate: multi-frame animated workloads with Rendering
    Elimination on and off must replay bit-identically to the live
    simulator — the per-tile signature arrays travel in the trace IR,
    so the replay kernels reproduce the same skip decisions, the same
    scoreboard advances and the same ``re.*`` accounting."""

    def test_animated_mini_matrix(self):
        from repro.anim import AnimationSpec, build_animated_workload

        cells = [
            ("SoD", 4, 0.0, "tcor"),
            ("SoD", 4, 0.0, "baseline"),
            ("GTr", 3, 0.5, "tcor"),
            ("CCS", 3, 1.0, "baseline"),
        ]
        for alias, frames, churn, kind in cells:
            anim = AnimationSpec(frames=frames, path="orbit", dwell=2,
                                 travel=2, churn=churn, seed=23)
            workload = build_animated_workload(BENCHMARKS[alias], anim,
                                               scale=0.05)
            for re_on in (False, True):
                config = SimulationConfig(kind=kind,
                                          rendering_elimination=re_on)
                live = simulate(workload, config, engine="live")
                replayed = simulate(workload, config, engine="replay")
                label = f"{alias} f{frames} churn={churn} {kind} " \
                        f"re={re_on}"
                _assert_results_equal(label, live.result, replayed.result)
                assert dict(live.metrics) == dict(replayed.metrics), \
                    f"{label}: metrics diverged"
                assert live.ok and replayed.ok

    def test_animated_trace_round_trips_with_signatures(self):
        from repro.anim import AnimationSpec, build_animated_workload

        anim = AnimationSpec(frames=3, path="orbit", dwell=1, travel=1,
                             seed=23)
        workload = build_animated_workload(BENCHMARKS["SoD"], anim,
                                           scale=0.05)
        trace = compile_workload(workload)
        buffer = io.BytesIO()
        save_trace(buffer, trace)
        buffer.seek(0)
        loaded = load_trace(buffer)
        for frame, frame_loaded in zip(trace.frames, loaded.frames):
            assert list(frame.tile_sig) == list(frame_loaded.tile_sig)
        _assert_results_equal(
            "SoD",
            replay_tcor(trace, rendering_elimination=True).result,
            replay_tcor(loaded, rendering_elimination=True).result)


class TestRoundTrip:
    """IR serialization: compile -> save -> load -> replay -> equal."""

    def test_npz_round_trip_replays_identically(self):
        workload = build_workload(BENCHMARKS["SoD"], scale=0.1)
        trace = compile_workload(workload)
        buffer = io.BytesIO()
        save_trace(buffer, trace)
        buffer.seek(0)
        loaded = load_trace(buffer)
        assert loaded.header.as_dict() == trace.header.as_dict()
        assert loaded.num_accesses == trace.num_accesses
        for kernel, kwargs in ((replay_baseline,
                                {"tile_cache_bytes": TILE_CACHE_BYTES}),
                               (replay_tcor,
                                {"total_tile_cache_bytes":
                                 TILE_CACHE_BYTES})):
            _assert_results_equal("SoD", kernel(trace, **kwargs).result,
                                  kernel(loaded, **kwargs).result)

    def test_version_mismatch_fails_to_load(self, monkeypatch):
        workload = build_workload(BENCHMARKS["GTr"], scale=0.05)
        buffer = io.BytesIO()
        save_trace(buffer, compile_workload(workload))
        buffer.seek(0)
        from repro.replay import ir
        monkeypatch.setattr(ir, "TRACE_IR_VERSION", 999)
        with pytest.raises(ValueError, match="version"):
            load_trace(buffer)


class TestReplayGates:
    """Replay must stand aside whenever the live path is required."""

    def test_env_escape_hatch(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_REPLAY", "1")
        workload = build_workload(BENCHMARKS["GTr"], scale=0.05)
        assert try_replay(workload, SimulationConfig()) is None
        with pytest.raises(ReplayUnsupportedError):
            simulate(workload, engine="replay")

    def test_attached_tracer_forces_live(self):
        from repro.obs import Tracer

        workload = build_workload(BENCHMARKS["GTr"], scale=0.05)
        obs = Observation(MetricsRegistry(), tracer=Tracer(sinks=[]))
        assert try_replay(workload, SimulationConfig(), obs) is None

    def test_global_tracer_forces_live(self):
        from repro.obs import Tracer, activation

        workload = build_workload(BENCHMARKS["GTr"], scale=0.05)
        with activation(Tracer(sinks=[])):
            assert try_replay(workload, SimulationConfig()) is None

    def test_unsupported_geometry_falls_back(self):
        from repro.config import DEFAULT_GPU

        workload = build_workload(BENCHMARKS["GTr"], scale=0.05)
        small = dataclasses.replace(
            DEFAULT_GPU,
            l2_cache=dataclasses.replace(DEFAULT_GPU.l2_cache,
                                         line_bytes=32))
        config = SimulationConfig(kind="baseline", gpu=small)
        assert try_replay(workload, config) is None
        with pytest.raises(ReplayUnsupportedError):
            try_replay(workload, config, require=True)

    @pytest.mark.parametrize("gate, reason", [
        ("default", None),
        ("env", "REPRO_NO_REPLAY"),
        ("tracer", "tracer is attached"),
        ("geometry", "L2 line size"),
    ])
    def test_run_result_names_the_engine(self, gate, reason, monkeypatch):
        from repro.config import DEFAULT_GPU
        from repro.obs import Tracer

        workload = build_workload(BENCHMARKS["GTr"], scale=0.05)
        config, obs = SimulationConfig(), None
        if gate == "env":
            monkeypatch.setenv("REPRO_NO_REPLAY", "1")
        elif gate == "tracer":
            obs = Observation(MetricsRegistry(), tracer=Tracer(sinks=[]))
        elif gate == "geometry":
            config = SimulationConfig(kind="baseline", gpu=dataclasses.replace(
                DEFAULT_GPU, l2_cache=dataclasses.replace(
                    DEFAULT_GPU.l2_cache, line_bytes=32)))
        run = simulate(workload, config, obs=obs)
        if reason is None:
            assert (run.engine, run.fallback_reason) == ("replay", None)
        else:
            assert run.engine == "live"
            assert reason in run.fallback_reason
        # A forced engine never reports a fallback.
        forced = simulate(workload, config, engine="live")
        assert (forced.engine, forced.fallback_reason) == ("live", None)
        assert forced.result == run.result
