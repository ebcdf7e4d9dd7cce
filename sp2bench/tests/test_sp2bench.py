"""The benchmark's own tests: tiny-length runs of every workload.

    python -m pytest sp2bench/tests -q

Each run goes through ``sp2bench/run.py`` exactly as a benchmark run
does, only with a short window.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import textwrap
from functools import lru_cache
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import procs  # noqa: E402

WORKLOADS = ("sp2_direct", "sp2_threaded", "service_mix")
SP2 = ("sp2_direct", "sp2_threaded")
PROGRAMS = ("shallow", "gravity", "trimesh", "trimesh_gauss",
            "hydflo_flux", "hydflo_hydro")
END_TO_END = {
    "setup_s": "s",
    **{f"run_s.{p}": "s" for p in PROGRAMS},
    "verified_share": "ratio",
    "call_sites": "count",
    "latency_s.p50": "s",
    "latency_s.p99": "s",
    "requests_per_s": "1/s",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "frontend.busy_s", "core.pass.analyze_s", "core.pass.subset_s",
    "core.pass.redundancy_s", "core.pass.greedy_s", "core.eliminated",
    "plans.build_s", "plans.compiles", "plans.hit_ratio",
    "kernels.codegen_s", "kernels.compiles", "kernels.exec_s",
    "kernels.firings", "spmd.setup_s", "spmd.oracle_s", "spmd.compute_s",
    "transport.busy_s", "transport.messages", "transport.bytes",
    "transport.send_s", "transport.recv_s", "transport.wait_s",
    "transport.barrier_s", "transport.barrier_stalls",
    "transport.pool_hit_ratio", "transport.retransmits",
    "transport.crc_failures", "cost.bytes_per_lb",
    "cache.memory_hit_ratio", "cache.evictions", "service.compile_ms",
    "service.overhead_ms", "service.hit_ms", "service.coalesced",
    "service.pending_high_water", "other_s", "trace.ops",
    *(f"trace_overhead.run_s.{p}" for p in PROGRAMS),
    "trace_overhead.latency_s.p50", "trace_overhead.latency_s.p99",
    "trace_overhead.requests_per_s",
}
SPAN_ROWS = (
    "frontend.busy_s", "core.pass.analyze_s", "core.pass.subset_s",
    "core.pass.redundancy_s", "core.pass.greedy_s", "plans.build_s",
    "kernels.codegen_s", "kernels.exec_s", "spmd.setup_s", "spmd.oracle_s",
    "spmd.compute_s", "transport.busy_s",
)


@lru_cache(maxsize=None)
def bench(workload: str, seed: int = 1, trace: int = 0,
          inject: "str | None" = None, seconds: float = 0.5):
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if inject:
        argv += ["--inject", inject]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads(proc.stderr.strip().splitlines()[-1])["detail"]
    return result, detail


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"] for m in spec["per_layer"]} == PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result, detail = bench(workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["metrics"]["call_sites"]["value"] == 34
    assert len(detail["setup_measured_s"]) == 3


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reconciles_layers_with_wall_time(workload):
    result, detail = bench(workload, trace=1)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == PER_LAYER
    assert metrics["trace.ops"] >= 1
    assert metrics["transport.retransmits"] == 0
    assert metrics["transport.crc_failures"] == 0
    # other_s is the remainder, so it must not be negative beyond clock
    # granularity: spans never cover more than the operation.
    assert metrics["other_s"] > -1e-4
    assert sum(metrics[k] for k in SPAN_ROWS) > 0


def test_layers_measured_where_they_run():
    threaded, detail = bench("sp2_threaded", trace=1)
    direct = bench("sp2_direct", trace=1)[1]["not_measured"]
    service = bench("service_mix", trace=1)[1]["not_measured"]
    assert all(name.startswith(("cache.", "service."))
               for name in detail["not_measured"])
    assert threaded["metrics"]["transport.messages"]["value"] > 0
    assert threaded["metrics"]["kernels.firings"]["value"] > 0
    # No transport is constructed on the direct path.
    assert "transport.messages" in direct and "transport.bytes" in direct
    assert all(name.startswith(("cache.", "service.", "transport."))
               for name in direct)
    assert not any(name.startswith(("cache.", "service.")) for name in service)


@pytest.mark.parametrize("workload", SP2)
def test_sp2_failures_come_only_from_shallow(workload):
    _, detail = bench(workload)
    for name, row in detail["programs"].items():
        if name == "shallow":
            assert row["verified"] == 0
            assert all("stale" in e for e in row["errors"])
        else:
            assert row["verified"] == row["attempted"] >= 1
            assert not row["errors"] and not row["mismatches"]


@pytest.mark.parametrize("workload", SP2)
def test_injected_reference_mismatch_is_a_failed_operation(workload):
    clean, _ = bench(workload)
    result, detail = bench(workload, inject="reference")
    assert result["correct"] is False
    assert result["failed"] > clean["failed"]
    assert sum(bool(r["mismatches"]) for r in detail["programs"].values()) == 1


def test_injected_response_mismatch_is_a_failed_operation():
    result, detail = bench("service_mix", inject="response")
    assert result["correct"] is False
    assert result["failed"] == 1
    assert detail["mismatches"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_teardown_leaves_nothing_running(workload):
    _, detail = bench(workload)
    teardown = detail["teardown"]
    if workload == "service_mix":
        assert teardown["server_exit"] == 0
        assert teardown["killed"] == [] and teardown["workers_alive"] == []
        assert teardown["listening"] is False
    assert procs.children_of(os.getpid()) == []


def test_orphaned_grandchild_is_adopted_and_reported():
    script = textwrap.dedent(f"""
        import subprocess, sys
        sys.path.insert(0, {str(BENCH)!r})
        import procs
        procs.become_subreaper()
        subprocess.run(["sh", "-c", "sleep 60 & exit 0"], check=True)
        print(procs.reap_children(deadline_s=0.5))
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    killed = json.loads(proc.stdout)
    assert len(killed) == 1


def test_two_seeds_give_the_same_metric_names():
    for trace in (0, 1):
        a, _ = bench("service_mix", seed=1, trace=trace)
        b, _ = bench("service_mix", seed=2, trace=trace)
        assert set(a["metrics"]) == set(b["metrics"])
    for workload in SP2:
        a, _ = bench(workload, seed=1)
        b, _ = bench(workload, seed=2)
        assert set(a["metrics"]) == set(b["metrics"])


def test_request_stream_never_runs_out_of_new_keys():
    import service

    stream = service.RequestStream(seed=1, trace=False)
    # About six times the requests of a 25 s window on a 2-vCPU host.
    keys = [stream.next()[1] for _ in range(500_000)]
    assert len(set(keys)) >= 6 + (len(keys) - 6) // service.MISS_EVERY
    assert max(n for _, n, _ in keys if n is not None) >= service.N_VALUES.stop


def test_timing_metrics_are_at_reference_host_speed():
    result, detail = bench("sp2_direct")
    for name, row in detail["programs"].items():
        times = [wall * scale for program, wall, scale, verified, _ in
                 detail["ops"] if program == name and verified]
        if times:
            assert result["metrics"][f"run_s.{name}"]["value"] == \
                pytest.approx(statistics.median(times))
    assert all(0 < scale < 10 for _, _, scale, _, _ in detail["ops"])
    assert result["metrics"]["setup_s"]["value"] == pytest.approx(
        statistics.median(detail["setup_measured_s"]) * detail["setup_factor"])
