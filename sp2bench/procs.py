"""Process bookkeeping for the benchmark: orphan adoption, descendant
listing, reaping with a deadline, peak memory and listening sockets.

Linux only: everything here reads ``/proc`` or calls ``prctl``.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time

_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Adopt every orphaned descendant, so a grandchild whose parent
    exits (a compile-pool worker outliving its server) becomes this
    process's child and can be waited for and counted here."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def _ppid_of(pid: str) -> int | None:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            stat = fh.read()
    except OSError:
        return None
    # The command name sits in parentheses and may itself contain spaces.
    return int(stat.rsplit(")", 1)[1].split()[1])


def children_of(pid: int) -> list[int]:
    """Live (or not yet reaped) direct children of ``pid``."""
    return sorted(
        int(entry) for entry in os.listdir("/proc")
        if entry.isdigit() and _ppid_of(entry) == pid
    )


def reap_children(deadline_s: float) -> list[int]:
    """Wait for every child of this process to exit, up to ``deadline_s``
    seconds; children still running then are killed and reaped.

    Returns the pids that had to be killed (empty when all exited on
    their own)."""
    end = time.monotonic() + deadline_s
    while time.monotonic() < end:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return []
        if pid == 0:
            time.sleep(0.02)
    killed = children_of(os.getpid())
    for pid in killed:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for pid in killed:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
    return killed


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` (peak resident set) of one process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def listening_ports() -> set[int]:
    """TCP ports in LISTEN state on this host's network namespace."""
    ports: set[int] = set()
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            with open(table) as fh:
                next(fh)
                for line in fh:
                    fields = line.split()
                    if fields[3] == "0A":  # TCP_LISTEN
                        ports.add(int(fields[1].rsplit(":", 1)[1], 16))
        except FileNotFoundError:
            continue
    return ports
