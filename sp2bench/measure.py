"""Helpers shared by the workloads: the warm-up program, the host-speed
calibration, the tail percentile, and the bit-exact state compare."""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Warm-up program: loads every lazily imported module on the data path
#: (frontend, passes, kernel codegen, transport, the service's pool)
#: without touching the measured programs.
WARMUP_SOURCE = """
PROGRAM warm
  PARAM n = 16
  PROCESSORS p(4)
  REAL a(n)
  DISTRIBUTE a(BLOCK) ONTO p
  REAL b(n)
  DISTRIBUTE b(BLOCK) ONTO p
  b(2:n-1) = a(1:n-2) + a(3:n)
END
"""

#: Seconds one calibration unit takes at the reference host speed.  The
#: sp2 timing metrics are reported at that speed (``host_factor``).
CAL_REF_S = 200e-6


def _calibration_unit() -> int:
    s = 0
    d = {}
    for i in range(1500):
        d[i & 63] = s
        s += (i * i) % 7
    return s


def calibrate(units: int = 40) -> float:
    """Median seconds of one run of a fixed pure-Python loop that uses no
    code of the repository, over ``units`` runs: a sample of how fast
    this host runs Python right now.  Shared hosts move by tens of
    percent within minutes; timing against the loop, run in the same
    process next to the measured work, cancels the host's phase and keeps
    what the code under test changes."""
    times = []
    for _ in range(units):
        t0 = time.perf_counter()
        _calibration_unit()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def host_factor(before_s: float, after_s: float) -> float:
    """Multiply a time measured between two calibrations by this factor
    to get the time at the reference host speed."""
    return 2 * CAL_REF_S / (before_s + after_s)


def percentile(values: list[float], pct: int) -> float:
    """The ``pct``-th percentile (1..99) with linear interpolation between
    order statistics; 0.0 for an empty sample."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def bits_mismatch(
    want: dict[str, np.ndarray], got: dict[str, np.ndarray]
) -> "str | None":
    """First difference between two final states, compared bit for bit
    through a ``uint64`` view (NaN payloads and -0.0 compare exactly);
    None when every array and scalar of ``want`` is identical in
    ``got``."""
    for name in sorted(want):
        if name not in got:
            return f"{name} missing from the result"
        a = np.ascontiguousarray(want[name], dtype=np.float64).reshape(-1)
        b = np.ascontiguousarray(got[name], dtype=np.float64).reshape(-1)
        if a.shape != b.shape:
            return f"{name} has {b.size} elements, reference {a.size}"
        differ = int(np.count_nonzero(a.view(np.uint64) != b.view(np.uint64)))
        if differ:
            return f"{name}: {differ} element(s) differ bitwise from the reference"
    return None
