"""The ``service_mix`` workload: compile requests answered over HTTP.

The compile service is started by its deployed entry point
(``python -m repro serve``) with a 2-worker pool and a memory-only
schedule cache.  Two keep-alive connections from one asyncio loop in
this process drive it as a closed loop: each sends its next request only
after reading the reply to the last one.  Requests come from one stream
drawn from the seed over the six Figure 10 programs and the four extra
programs x 3 strategies x a perturbed ``n``.  The stream opens with the
six Figure 10 programs at their source defaults under ``comb``; after
that, one request in every block of ``MISS_EVERY`` (at a seeded
position) carries a key not sent before, so the pool compiles it and the
cache stores it, and the rest repeat a key already sent, chosen
uniformly, which the memory tier answers.

The mix is synthetic: no measured traffic stands behind it.  One miss in
40 (2.5%) puts ``latency_s.p99`` on the miss path (pool compile) and
``latency_s.p50`` on the hit path, so each percentile reads one path.
Uniform reuse of the keys already sent keeps every one of them live, so
the memory tier stays a reader of the whole key set and not of a few hot
keys.

Every response is checked after the window against a direct
``compile_payload`` of the same request: same status, and the canonical
JSON bytes of ``result`` identical.
"""

from __future__ import annotations

import asyncio
import http.client
import itertools
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from collections.abc import Iterator
from dataclasses import dataclass
from statistics import fmean, median

from repro.evaluation.extra_programs import EXTRA_PROGRAMS
from repro.evaluation.programs import BENCHMARKS
from repro.perf.cache import canonical_bytes
from repro.service.payload import compile_payload

import procs
from measure import WARMUP_SOURCE, percentile, ratio

FIG10 = tuple(sorted(BENCHMARKS))
SOURCES = {**BENCHMARKS, **EXTRA_PROGRAMS}
STRATEGIES = ("orig", "nored", "comb")
N_VALUES = range(12, 140)
MISS_EVERY = 40
CONNECTIONS = 2
WORKERS = 2
PASSES = ("analyze", "subset", "redundancy", "greedy")

Key = tuple  # (program, n or None for the source default, strategy)


class RequestStream:
    """The seeded request sequence, shared by the client connections."""

    def __init__(self, seed: int, trace: bool) -> None:
        self._rng = random.Random(seed)
        defaults = [(name, None, "comb") for name in FIG10]
        self._rng.shuffle(defaults)
        self._opening = len(defaults)
        self._fresh = itertools.chain(defaults, self._new_keys())
        self._sent: list[Key] = []
        self._trace = trace
        self._next_id = 0
        self._miss_at = 0

    def _new_keys(self) -> Iterator[Key]:
        """Keys not sent before, without end: every program x strategy x
        ``n`` in ``N_VALUES`` in seeded order, then each larger ``n`` in
        turn, so a faster service or a longer window never runs out."""
        base = [(name, n, strategy) for name in sorted(SOURCES)
                for strategy in STRATEGIES for n in N_VALUES]
        self._rng.shuffle(base)
        yield from base
        for n in itertools.count(N_VALUES.stop):
            block = [(name, n, strategy) for name in sorted(SOURCES)
                     for strategy in STRATEGIES]
            self._rng.shuffle(block)
            yield from block

    def next(self) -> tuple[int, Key, bool]:
        rid = self._next_id
        self._next_id += 1
        block = (rid - self._opening) % MISS_EVERY
        if rid >= self._opening and block == 0:
            self._miss_at = self._rng.randrange(MISS_EVERY)
        if rid < self._opening or block == self._miss_at:
            key = next(self._fresh)
            self._sent.append(key)
        else:
            key = self._rng.choice(self._sent)
        return rid, key, self._trace and rid % 2 == 1


def request_body(key: Key, rid: int, traced: bool) -> dict:
    name, n, strategy = key
    body = {"source": SOURCES[name], "strategy": strategy, "id": rid}
    if n is not None:
        body["params"] = {"n": n}
    if traced:
        body["trace"] = True
    return body


@dataclass
class Request:
    rid: int
    key: Key
    traced: bool
    latency_s: float
    status: int
    raw: bytes
    done: float
    body: "dict | None" = None
    mismatch: "str | None" = None

    @property
    def verified(self) -> bool:
        return self.status == 200 and self.mismatch is None

    @property
    def tier(self) -> str:
        if self.body.get("cache"):
            return "hit"
        return "coalesced" if self.body.get("coalesced") else "miss"


class Server:
    """One ``python -m repro serve`` process and its pool workers."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(WORKERS)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        self.port = None
        self.log: list[str] = []
        for line in self.proc.stderr:
            self.log.append(line)
            found = re.search(r"listening on http://[^:]+:(\d+)", line)
            if found:
                self.port = int(found.group(1))
                break
        if self.port is None:
            self.proc.wait()
            raise RuntimeError("compile service did not start: " + "".join(self.log))
        # Keep draining stderr so the server never blocks on a full pipe.
        self._drain = threading.Thread(target=self._read_log, name="server-log")
        self._drain.start()
        self.workers = procs.children_of(self.proc.pid)

    def _read_log(self) -> None:
        for line in self.proc.stderr:
            self.log.append(line)

    def get(self, path: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def compile(self, body: dict) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request("POST", "/v1/compile", json.dumps(body),
                         {"Content-Type": "application/json"})
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        return sum(procs.peak_rss_mb(pid)
                   for pid in [self.proc.pid, *self.workers])

    def stop(self) -> dict:
        """SIGTERM the server, then wait for its pool workers here: the
        service's close() does not wait for them, and as orphans they are
        reparented to this process (a subreaper)."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._drain.join(timeout=10)
        self.proc.stderr.close()
        killed = procs.reap_children(deadline_s=20)
        return {
            "server_exit": self.proc.returncode,
            "killed": killed,
            "workers_alive": [p for p in self.workers
                              if os.path.exists(f"/proc/{p}")],
            "listening": self.port in procs.listening_ports(),
        }


def setup() -> Server:
    server = Server()
    server.get("/healthz")
    warm = server.compile({"source": WARMUP_SOURCE, "strategy": "comb"})
    if warm.get("status") != 200:
        server.stop()
        raise RuntimeError(f"warm-up compile failed: {warm}")
    return server


async def _client(port: int, stream: RequestStream, deadline: float,
                  out: list[Request]) -> None:
    """One keep-alive connection in a closed loop."""
    reader = writer = None
    try:
        while time.perf_counter() < deadline:
            if writer is None:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
            rid, key, traced = stream.next()
            body = json.dumps(request_body(key, rid, traced)).encode()
            head = (f"POST /v1/compile HTTP/1.1\r\nHost: bench\r\n"
                    f"Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n").encode()
            t0 = time.perf_counter()
            try:
                writer.write(head + body)
                status, raw = await _read_response(reader)
            except (OSError, asyncio.IncompleteReadError, ValueError) as exc:
                writer.close()
                reader = writer = None  # reconnect for the next request
                status, raw = 0, str(exc).encode()
            done = time.perf_counter()
            out.append(Request(rid, key, traced, done - t0, status, raw, done))
    finally:
        if writer is not None:
            writer.close()
            await writer.wait_closed()


async def _read_response(reader: asyncio.StreamReader) -> tuple[int, bytes]:
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return int(lines[0].split(" ")[1]), await reader.readexactly(length)


async def _drive(port: int, stream: RequestStream, seconds: float) -> list[Request]:
    out: list[Request] = []
    deadline = time.perf_counter() + seconds
    await asyncio.gather(*(_client(port, stream, deadline, out)
                           for _ in range(CONNECTIONS)))
    return sorted(out, key=lambda r: r.rid)


def run(server: Server, seed: int, seconds: float, trace: bool,
        inject: "str | None", on_first_op) -> dict:
    stream = RequestStream(seed, trace)
    before = server.get("/v1/stats")
    on_first_op()
    start = time.perf_counter()
    reqs = asyncio.run(_drive(server.port, stream, seconds))
    after = server.get("/v1/stats")
    peak = procs.peak_rss_mb() + server.peak_rss_mb()

    # Verification, outside the window: one direct compile per key.
    direct = {}
    for req in reqs:
        if req.key not in direct:
            name, n, strategy = req.key
            direct[req.key] = compile_payload(
                SOURCES[name], None if n is None else {"n": n}, strategy
            )
    for req in reqs:
        try:
            req.body = json.loads(req.raw)
        except ValueError:
            req.body = {}
    if inject == "response":
        first = reqs[0].body.get("result") or {}
        first["call_sites"] = first.get("call_sites", 0) + 1
    for req in reqs:
        want = direct[req.key]
        if req.status != want["status"] or req.body.get("status") != want["status"]:
            req.mismatch = f"status {req.status} != {want['status']}"
        elif canonical_bytes(req.body.get("result")) != canonical_bytes(want["result"]):
            req.mismatch = "result bytes differ from a direct compile"

    return {
        "attempted": len(reqs),
        "failed": sum(not r.verified for r in reqs),
        "correct": not any(r.status == 200 and r.mismatch for r in reqs),
        "end_to_end": {
            **_time_metrics([r for r in reqs if not r.traced], start),
            "verified_share": ratio(sum(r.verified for r in reqs), len(reqs)),
            "call_sites": sum(r.body["result"]["call_sites"]
                              for r in _defaults(reqs)),
            "peak_rss_mb": peak,
        },
        "per_layer": _per_layer(reqs, before, after) if trace else {},
        "detail": _detail(reqs, before, after),
    }


def _defaults(reqs: list[Request]) -> list[Request]:
    """The first verified answer for each Figure 10 program at its source
    defaults under comb."""
    first = {}
    for r in reqs:
        if r.key[1] is None and r.verified:
            first.setdefault(r.key, r)
    return list(first.values())


def _time_metrics(reqs: list[Request], start: "float | None") -> dict:
    """Timing rows over one subset of requests.  With the window's
    ``start``, the rate is the median over the window's whole seconds of
    verified requests completed in that second; without it (the traced
    and untraced halves of one interleaved stream), the closed-loop rate
    the subset sustains."""
    verified = [r for r in reqs if r.verified]
    out = {}
    for name in FIG10:
        mine = [r.latency_s for r in verified if r.key[0] == name]
        out[f"run_s.{name}"] = median(mine) if mine else 0.0
    lat = [r.latency_s for r in verified]
    out["latency_s.p50"] = percentile(lat, 50) if lat else 0.0
    out["latency_s.p99"] = percentile(lat, 99) if lat else 0.0
    if start is None:
        out["requests_per_s"] = ratio(CONNECTIONS * len(verified),
                                      sum(r.latency_s for r in reqs))
    else:
        seconds = int(max(r.done for r in reqs) - start)
        per_second = [0] * max(seconds, 1)
        for r in verified:
            second = int(r.done - start)
            if second < len(per_second):
                per_second[second] += 1
        out["requests_per_s"] = float(median(per_second))
    return out


def _delta(before: dict, after: dict, section: str, key: str) -> int:
    return after[section][key] - before[section][key]


def _per_layer(reqs: list[Request], before: dict, after: dict) -> dict:
    traced = [r for r in reqs if r.traced and r.verified]
    out = {f"core.pass.{p}_s": 0.0 for p in PASSES}
    out["frontend.busy_s"] = 0.0
    for r in traced:
        if r.tier != "miss":
            continue  # a hit's trace belongs to the compile that filled it
        # orig/nored run latest-/earliest-placement instead of the comb
        # passes; their time has no row and stays in other_s.
        passes = {p: 0.0 for p in PASSES}
        for rec in r.body.get("trace", []):
            passes[rec["pass"]] = passes.get(rec["pass"], 0.0) + rec["wall_s"]
        for p in PASSES:
            out[f"core.pass.{p}_s"] += passes[p] / len(traced)
        out["frontend.busy_s"] += (
            r.body["compile_ms"] / 1000.0 - sum(passes.values())
        ) / len(traced)
    out["other_s"] = fmean([r.latency_s for r in traced]) - sum(
        out[f"core.pass.{p}_s"] for p in PASSES
    ) - out["frontend.busy_s"]
    out["core.eliminated"] = sum(len(r.body["result"]["eliminated"])
                                 for r in _defaults(reqs))
    lookups = sum(_delta(before, after, "cache", k)
                  for k in ("memory_hits", "disk_hits", "misses"))
    out["cache.memory_hit_ratio"] = ratio(
        _delta(before, after, "cache", "memory_hits"), lookups
    )
    out["cache.evictions"] = _delta(before, after, "cache", "evictions")
    misses = [r for r in reqs if r.verified and r.tier == "miss"]
    hits = [r for r in reqs if r.verified and r.tier == "hit"]
    out["service.compile_ms"] = median(
        [r.body["compile_ms"] for r in misses]) if misses else 0.0
    out["service.overhead_ms"] = median(
        [r.latency_s * 1000 - r.body["compile_ms"] for r in misses]
    ) if misses else 0.0
    out["service.hit_ms"] = median(
        [r.latency_s * 1000 for r in hits]) if hits else 0.0
    out["service.coalesced"] = _delta(before, after, "service", "coalesced")
    out["service.pending_high_water"] = after["service"]["pending_high_water"]
    untraced = _time_metrics([r for r in reqs if not r.traced], None)
    for key, value in _time_metrics(
        [r for r in reqs if r.traced], None
    ).items():
        out[f"trace_overhead.{key}"] = value - untraced[key]
    out["trace.ops"] = len([r for r in reqs if r.traced])
    return out


def _detail(reqs, before, after) -> dict:
    tiers = {"hit": 0, "miss": 0, "coalesced": 0}
    for r in reqs:
        if r.status == 200:
            tiers[r.tier] += 1
    return {
        "requests": len(reqs),
        "distinct_keys": len({r.key for r in reqs}),
        "tiers": tiers,
        "mismatches": sorted({r.mismatch for r in reqs if r.mismatch})[:5],
        "statuses": sorted({r.status for r in reqs}),
        "traced_mean_latency_s": fmean(
            [r.latency_s for r in reqs if r.traced and r.verified] or [0.0]),
        "stats_after": after["service"],
        "cache_after": after["cache"],
    }
