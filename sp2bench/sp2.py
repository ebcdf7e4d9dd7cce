"""The ``sp2_direct`` and ``sp2_threaded`` workloads.

One operation is what a user of the compiler does with one program:
source text -> ``compile_program`` (the ``comb`` strategy) ->
``SPMDExecutor`` run and assemble -> final state.  ``sp2_direct`` uses
the default direct-copy data path (no transport, kernels auto);
``sp2_threaded`` runs over the threaded transport (one thread per rank,
wire integrity on).  The six Figure 10 programs run at their source
PARAM defaults, which is the paper's SP2 configuration: a 5x5 processor
grid, P=25.  A sweep runs each program once, in an order drawn from the
seed; sweeps repeat until the window ends.  The host-speed calibration
loop (``measure.calibrate``) runs before the first operation and after
every one, and each operation's time is reported at the reference host
speed, scaled by the calibrations on either side of it.

Verification happens outside the timed region: every final state is
compared bit for bit with an independent sequential ``Interpreter`` run
of the unscalarized source.  An operation the program rejects (a raised
``ReproError``) counts as failed and keeps its message; a final state
that differs from the reference counts as failed and marks the run
incorrect.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass, field
from statistics import fmean, geometric_mean, median

import numpy as np

import repro.core.pipeline as pipeline
import repro.runtime.kernels as runtime_kernels
import repro.runtime.spmd as spmd
from repro.cost.lower_bound import lower_bound
from repro.errors import ReproError
from repro.evaluation.programs import BENCHMARKS
from repro.frontend.analysis import elaborate
from repro.frontend.parser import parse
from repro.runtime.interp import Interpreter
from repro.runtime.plans import CommPlanner
from repro.transport.threaded import ThreadedTransport

from measure import (WARMUP_SOURCE, bits_mismatch, calibrate, host_factor,
                     percentile, ratio)
from spans import SpanTracer

PROGRAMS = tuple(sorted(BENCHMARKS))
TRANSPORTS = {"sp2_direct": None, "sp2_threaded": "threaded"}
PASSES = ("analyze", "subset", "redundancy", "greedy")

#: Span layers, in reporting order; each maps to a ``<layer>_s`` row.
SPAN_LAYERS = (
    "frontend.busy", "plans.build", "kernels.codegen", "kernels.exec",
    "spmd.setup", "spmd.oracle", "spmd.compute", "transport.busy",
)


@dataclass
class Op:
    program: str
    wall_s: float
    traced: bool
    error: "str | None"
    state: "dict | None"
    call_sites: int
    eliminated: int
    passes: dict[str, float]
    runtime: dict
    wire: "dict | None"
    spans: dict[str, float] = field(default_factory=dict)
    mismatch: "str | None" = None
    #: ``measure.host_factor`` of the calibrations around the operation.
    scale: float = 1.0

    @property
    def verified(self) -> bool:
        return self.error is None and self.mismatch is None


def make_tracer() -> SpanTracer:
    """Wrappers around the public entry points of each layer."""
    t = SpanTracer()
    for name in ("parse", "elaborate", "scalarize"):
        t.add(pipeline, name, "frontend.busy")
    t.add(spmd, "plan_nests", "plans.build")
    t.add(spmd, "translate_plan", "plans.build")
    t.add(CommPlanner, "compile_op", "plans.build")
    t.add(runtime_kernels, "compile_fn", "kernels.codegen",
          result_layer="kernels.exec")
    # The oracle: the sequential shadow's steps and the freshness
    # compares, including the ones bound into generated kernels at
    # build time.
    t.add(Interpreter, "__init__", "spmd.oracle")
    t.add(Interpreter, "exec_stmt", "spmd.oracle")
    t.add(np, "array_equal", "spmd.oracle")
    t.add(spmd.SPMDExecutor, "__init__", "spmd.setup")
    t.add(spmd.SPMDExecutor, "run", "spmd.compute")
    t.add(spmd.SPMDExecutor, "assemble", "spmd.compute")
    t.add(spmd, "make_transport", "transport.busy")
    t.add(spmd, "lower_comm", "transport.busy")
    for name in ("create_storage", "start", "execute", "reduce", "shutdown"):
        t.add(ThreadedTransport, name, "transport.busy")
    return t


def run_op(name: str, seed: int, transport: "str | None",
           tracer: "SpanTracer | None" = None) -> Op:
    source = BENCHMARKS[name]
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        t0 = time.perf_counter()
        result = pipeline.compile_program(source, strategy="comb")
        executor = None
        state = error = None
        try:
            executor = spmd.SPMDExecutor(result, seed=seed, transport=transport)
            executor.run()
            state = executor.assemble()
        except ReproError as exc:
            error = f"{type(exc).__name__}: {exc}"[:300]
        finally:
            if executor is not None:
                executor.close()
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    passes = {p: 0.0 for p in PASSES}
    for trace in result.pass_traces:
        passes[trace.name] += trace.wall_s
    wire = None
    if executor is not None and executor.wire is not None:
        w = executor.wire
        wire = {
            "messages": w.messages,
            "bytes": w.bytes_sent,
            "send_s": sum(w.send_s.values()),
            "recv_s": sum(w.recv_s.values()),
            "wait_s": sum(w.wait_s.values()),
            "barrier_s": sum(w.barrier_s.values()),
            "barrier_stalls": w.barrier_stalls,
            "pool_hits": w.pool_hits,
            "pool_misses": w.pool_misses,
            "retransmits": w.retransmits,
            "crc_failures": w.crc_failures,
        }
    stats = executor.stats if executor is not None else None
    op = Op(
        program=name,
        wall_s=wall,
        traced=tracer is not None,
        error=error,
        state=state,
        call_sites=result.call_sites(),
        eliminated=len(result.eliminated_entries()),
        passes=passes,
        runtime={
            "plan_compiles": stats.plan_compiles if stats else 0,
            "plan_cache_hits": stats.plan_cache_hits if stats else 0,
            "kernel_compiles": stats.kernel_compiles if stats else 0,
            "kernel_firings": stats.kernel_firings if stats else 0,
            "bytes_moved": stats.bytes_moved if stats else 0,
        },
        wire=wire,
    )
    if tracer is not None:
        spans = {layer: tracer.self_s.get(layer, 0.0) for layer in SPAN_LAYERS}
        # The rest of compile_program's time is pass time (from its own
        # PassTrace records) plus context set-up, which stays in other_s.
        for p in PASSES:
            spans[f"core.pass.{p}"] = passes[p]
        op.spans = spans
    return op


def reference_state(name: str, seed: int) -> dict:
    """The sequential semantics of the unscalarized source: no
    scalarizer, placement, plans, kernels or transport involved."""
    interp = Interpreter(elaborate(parse(BENCHMARKS[name]), None), seed)
    interp.run()
    return interp.state()


def warm_up(workload: str) -> None:
    result = pipeline.compile_program(WARMUP_SOURCE, strategy="comb")
    with spmd.SPMDExecutor(result, transport=TRANSPORTS[workload]) as executor:
        executor.run()
        executor.assemble()


def run(workload: str, seed: int, seconds: float, trace: bool,
        inject: "str | None", on_first_op) -> dict:
    """Run sweeps for ``seconds`` (at least one; two when tracing, so
    traced and untraced sweeps alternate) and reduce them to metrics."""
    rng = random.Random(seed)
    transport = TRANSPORTS[workload]
    tracer = make_tracer() if trace else None
    refs: dict[str, dict] = {}
    inject_pending = inject == "reference"
    ops: list[Op] = []
    min_sweeps = 2 if trace else 1
    on_first_op()
    host = [calibrate()]
    start = time.perf_counter()
    sweep = 0
    while sweep < min_sweeps or time.perf_counter() - start < seconds:
        order = list(PROGRAMS)
        rng.shuffle(order)
        traced = tracer if sweep % 2 == 1 else None
        for name in order:
            op = run_op(name, seed, transport, traced)
            if op.state is not None:
                if name not in refs:
                    refs[name] = reference_state(name, seed)
                    if inject_pending:
                        _perturb_one_element(refs[name])
                        inject_pending = False
                op.mismatch = bits_mismatch(refs[name], op.state)
            op.state = None
            ops.append(op)
            # Each operation starts from a collected heap, as in a fresh
            # process: the previous one's cyclic garbage neither inflates
            # peak memory nor lands a collection inside the next timing.
            gc.collect()
            host.append(calibrate())
            op.scale = host_factor(host[-2], host[-1])
        sweep += 1
    return {
        "attempted": len(ops),
        "failed": sum(not op.verified for op in ops),
        "correct": not any(op.mismatch for op in ops),
        "end_to_end": _end_to_end(ops),
        "per_layer": _per_layer(ops) if trace else {},
        "host_factor": median(op.scale for op in ops),
        "detail": _detail(ops, seed, host),
    }


def _perturb_one_element(state: dict) -> None:
    """Mutation hook for the benchmark's own tests."""
    name = sorted(k for k, v in state.items() if np.ndim(v) > 0)[0]
    flat = state[name].reshape(-1)
    flat[0] = np.nextafter(flat[0], np.inf)


def _time_metrics(ops: list[Op], scaled: bool = True) -> dict[str, float]:
    """The timing rows of the end-to-end set over one subset of ops, at
    the reference host speed (or as measured, with ``scaled`` false).

    Operation latency here is set by which program runs, and a window
    holds a handful of operations per program, so a raw p99 would be the
    single slowest operation.  The latency percentiles and the rate are
    therefore taken over the per-program medians, each weighted by its
    operation count: p99 reads the slowest program, p50 the typical one.
    """
    out: dict[str, float] = {}
    weighted: list[float] = []
    busy_s = 0.0
    for name in PROGRAMS:
        mine = [op for op in ops if op.program == name]
        times = [op.wall_s * (op.scale if scaled else 1.0) for op in mine]
        verified = [t for t, op in zip(times, mine) if op.verified]
        # No verified operation (the program rejects its own run): the
        # time to that verdict stands in, and the detail says so.
        basis = verified or times
        out[f"run_s.{name}"] = median(basis) if basis else 0.0
        weighted += [out[f"run_s.{name}"]] * len(verified)
        busy_s += out[f"run_s.{name}"] * len(mine)
    out["latency_s.p50"] = percentile(weighted, 50) if weighted else 0.0
    out["latency_s.p99"] = percentile(weighted, 99) if weighted else 0.0
    out["requests_per_s"] = ratio(len(weighted), busy_s)
    return out


def _first_per_program(ops: list[Op]) -> dict[str, Op]:
    first: dict[str, Op] = {}
    for op in ops:
        first.setdefault(op.program, op)
    return first


def _end_to_end(ops: list[Op]) -> dict[str, float]:
    timed = [op for op in ops if not op.traced]
    out = _time_metrics(timed)
    out["verified_share"] = ratio(sum(op.verified for op in ops), len(ops))
    out["call_sites"] = sum(op.call_sites for op in _first_per_program(ops).values())
    return out


def _per_layer(ops: list[Op]) -> dict[str, float]:
    traced = [op for op in ops if op.traced]
    out: dict[str, float] = {}
    span_names = [f"core.pass.{p}" for p in PASSES] + list(SPAN_LAYERS)
    for layer in span_names:
        out[f"{layer}_s"] = fmean([op.spans[layer] for op in traced])
    out["other_s"] = fmean([op.wall_s for op in traced]) - sum(
        out[f"{layer}_s"] for layer in span_names
    )
    out["core.eliminated"] = sum(
        op.eliminated for op in _first_per_program(ops).values()
    )
    rt = [op.runtime for op in ops]
    out["plans.compiles"] = fmean([r["plan_compiles"] for r in rt])
    out["plans.hit_ratio"] = ratio(
        sum(r["plan_cache_hits"] for r in rt),
        sum(r["plan_cache_hits"] + r["plan_compiles"] for r in rt),
    )
    out["kernels.compiles"] = fmean([r["kernel_compiles"] for r in rt])
    out["kernels.firings"] = fmean([r["kernel_firings"] for r in rt])
    # WireStats exist only where a transport was constructed; on the
    # direct path these rows stay unmeasured.
    wires = [op.wire for op in ops if op.wire is not None]
    if wires:
        for key in ("messages", "bytes", "send_s", "recv_s", "wait_s",
                    "barrier_s", "barrier_stalls"):
            out[f"transport.{key}"] = sum(w[key] for w in wires) / len(ops)
        out["transport.pool_hit_ratio"] = ratio(
            sum(w["pool_hits"] for w in wires),
            sum(w["pool_hits"] + w["pool_misses"] for w in wires),
        )
        out["transport.retransmits"] = sum(w["retransmits"] for w in wires)
        out["transport.crc_failures"] = sum(w["crc_failures"] for w in wires)
    # The floor is a static property of the program, so it is computed
    # once per verified program, after the window (it takes seconds).
    per_program = []
    for name, op in _first_per_program(
        [op for op in ops if op.verified]
    ).items():
        floor = lower_bound(pipeline.compile_program(
            BENCHMARKS[name], strategy="comb").info)
        floor_ratio = floor.ratio(op.runtime["bytes_moved"])
        if floor_ratio:
            per_program.append(floor_ratio)
    out["cost.bytes_per_lb"] = geometric_mean(per_program) if per_program else 0.0
    untraced = _time_metrics([op for op in ops if not op.traced])
    for key, value in _time_metrics(traced).items():
        out[f"trace_overhead.{key}"] = value - untraced[key]
    out["trace.ops"] = len(traced)
    return out


def _detail(ops: list[Op], seed: int, host: list[float]) -> dict:
    """Per-program record for the report: counts, medians, verdicts."""
    rows = {}
    for name in PROGRAMS:
        mine = [op for op in ops if op.program == name]
        verified = [op for op in mine if op.verified]
        errors = sorted({op.error for op in mine if op.error})
        mismatches = sorted({op.mismatch for op in mine if op.mismatch})
        rows[name] = {
            "attempted": len(mine),
            "verified": len(verified),
            "run_s_basis": "verified" if verified else "time_to_verdict",
            "errors": errors,
            "mismatches": mismatches,
            "call_sites": mine[0].call_sites if mine else None,
        }
    return {
        "data_seed": seed,
        "host": {"calibration_median_s": median(host),
                 "measured": _time_metrics(
                     [op for op in ops if not op.traced], scaled=False)},
        "programs": rows,
        "ops": [[op.program, op.wall_s, op.scale, op.verified, op.traced]
                for op in ops],
    }
