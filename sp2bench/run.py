"""SP2-configuration benchmark: entry point.

    python3 sp2bench/run.py --workload sp2_threaded --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Each run starts the workload in a
child interpreter (``workload.py``) with ``PYTHONHASHSEED`` derived from
``--seed``: the program's initial arrays are seeded through ``hash()``,
so the hash seed is part of the input.  With ``--trace 0`` the set-up is
measured ``SETUP_RUNS`` times (``SETUP_RUNS - 1`` set-up-only children
plus the measured one) and ``setup_s`` is their median; on the sp2
workloads it is put at the reference host speed with the run's factor.

This process adopts orphaned descendants (a subreaper); after every
child it reaps whatever is left and fails the run, printing no result,
if anything was.  A child that overruns the deadline is killed with its
whole process group.  The last line of standard output is the result
object; the per-program detail goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import procs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 3
DEADLINE_S = 170.0


class RunFailed(Exception):
    pass


def spawn(argv: list[str], env: dict, deadline: float) -> dict:
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workload.py"), *argv, "--t0", repr(t0)],
        stdout=subprocess.PIPE, env=env, cwd=ROOT, start_new_session=True,
    )
    timed_out = False
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        timed_out = True
    left = procs.reap_children(deadline_s=5)
    if timed_out:
        raise RunFailed(f"{' '.join(argv)}: timed out; process group killed")
    if left:
        raise RunFailed(f"processes outlived the workload: {left}")
    if proc.returncode != 0:
        raise RunFailed(f"workload exited with status {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def main(argv: "list[str] | None" = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject", choices=("reference", "response"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"sp2bench: no program sources at {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"sp2bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    procs.become_subreaper()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONHASHSEED=str(args.seed % 2**32))
    deadline = time.monotonic() + DEADLINE_S
    child = ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setups = [] if args.trace else [
            spawn(child + ["--setup-only"], env, deadline)
            for _ in range(SETUP_RUNS - 1)
        ]
        res = spawn(child + (["--inject", args.inject] if args.inject else []),
                    env, deadline)
    except RunFailed as exc:
        print(f"sp2bench: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        values = {name: res["per_layer"].get(name, 0.0) for name in units}
        unknown = set(res["per_layer"]) - set(units)
    else:
        # On the sp2 workloads set-up is put at the reference host speed
        # with the measured run's median operation factor: a single
        # calibration next to a set-up flips between host speeds within
        # seconds, while the run's median reads the phase it sits in.
        setup_s = median(r["setup_s"] for r in setups + [res])
        values = dict(res["end_to_end"],
                      setup_s=setup_s * res.get("host_factor", 1.0))
        unknown = set(values) - set(units)
        missing = set(units) - set(values)
        if missing:
            print(f"sp2bench: metrics not produced: {sorted(missing)}",
                  file=sys.stderr)
            return 1
    if unknown:
        print(f"sp2bench: metrics not in BENCHMARK.json: {sorted(unknown)}",
              file=sys.stderr)
        return 1
    detail = dict(res["detail"], hash_seed=args.seed % 2**32,
                  setup_measured_s=[r["setup_s"] for r in setups + [res]],
                  setup_factor=res.get("host_factor", 1.0),
                  teardown=res["teardown"],
                  not_measured=sorted(set(units) - set(res["per_layer"]))
                  if args.trace else [])
    print(json.dumps({"workload": args.workload, "detail": detail}),
          file=sys.stderr)
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
