"""One workload run in a fresh interpreter; prints one JSON line.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src`` and ``PYTHONHASHSEED`` derived from the benchmark seed.
``--t0`` is the parent's ``time.monotonic()`` just before the spawn
(CLOCK_MONOTONIC is system-wide), so ``setup_s`` covers interpreter
start, imports, warm-up and, for the service, server start with its
pool prefork.  ``--setup-only`` stops after set-up, for the repeated
set-up measurements.

The process exits non-zero, after printing the reason to stderr, when
teardown leaves a thread, a child process or a listening socket behind.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time

import procs


def main(argv: "list[str] | None" = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["sp2_direct", "sp2_threaded", "service_mix"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--inject", choices=("reference", "response"),
                    help="corrupt one expected value (the benchmark's own "
                         "tests use this to prove a mismatch is caught)")
    args = ap.parse_args(argv)
    procs.become_subreaper()

    first_op: list[float] = []

    def mark() -> None:
        first_op.append(time.monotonic() - args.t0)

    teardown: dict = {}
    if args.workload.startswith("sp2_"):
        # One CPU for the whole operation, rank threads included: they
        # take turns on the GIL either way, and on one CPU a hand-off
        # does not wait on another CPU's wake-up, whose latency on a
        # shared host changes from minute to minute.  The calibration
        # loop then samples the very CPU the operation ran on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        import sp2

        sp2.warm_up(args.workload)
        if args.setup_only:
            mark()
            out = {}
        else:
            out = sp2.run(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.inject, mark)
            out["end_to_end"]["peak_rss_mb"] = procs.peak_rss_mb()
    else:
        import service

        server = service.setup()
        try:
            if args.setup_only:
                mark()
                out = {}
            else:
                out = service.run(server, args.seed, args.seconds,
                                  bool(args.trace), args.inject, mark)
        finally:
            teardown = server.stop()
        if teardown["server_exit"] != 0:
            teardown["problem"] = f"server exited with {teardown['server_exit']}"

    threads = [t.name for t in threading.enumerate()
               if t is not threading.main_thread()]
    children = procs.reap_children(deadline_s=10)
    problems = [teardown["problem"]] if "problem" in teardown else []
    if threads:
        problems.append(f"threads still running: {threads}")
    if children or teardown.get("killed"):
        problems.append(
            f"child processes outlived the run: "
            f"{children + teardown.get('killed', [])}"
        )
    if teardown.get("workers_alive"):
        problems.append(f"pool workers alive: {teardown['workers_alive']}")
    if teardown.get("listening"):
        problems.append("the service's port is still listening")
    if problems:
        print("teardown failed: " + "; ".join(problems), file=sys.stderr)
        return 3
    out["setup_s"] = first_op[0]
    out["teardown"] = {"threads": 0, "children": 0, **teardown}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
