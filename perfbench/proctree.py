"""Process-tree CPU and peak-memory accounting with the standard library.

``RUSAGE_CHILDREN`` misses the campaign's pool workers: a forkserver or
spawn worker is a child of the forkserver (or of nobody, once its parent
exits), not of the process that waits.  Making the benchmark a Linux
*child subreaper* closes the gap: every orphaned descendant is
reparented to the benchmark, so reaping with ``wait4`` until no child
is left collects the usage of the whole tree.  Each reaped process
reports its own usage plus that of the descendants it reaped itself,
so summing CPU and taking the maximum resident set over ``wait4``
results gives the tree's totals.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time
from dataclasses import dataclass, field

_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Adopt orphaned descendants (Linux ``prctl``); raises elsewhere."""
    libc = ctypes.CDLL(None, use_errno=True)
    prctl = libc.prctl
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                      ctypes.c_ulong, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    if prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        err = ctypes.get_errno()
        raise OSError(err, f"prctl(PR_SET_CHILD_SUBREAPER): {os.strerror(err)}")


@dataclass
class TreeUsage:
    """Usage of every process reaped since the tree was started."""

    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    statuses: dict[int, int] = field(default_factory=dict)


def _children() -> list[int]:
    """Live children of this process (adopted orphans included)."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after its ')'.
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            found.append(int(entry))
    return found


def reap_tree(root_pid: int, timeout: float = 60.0) -> TreeUsage:
    """Wait for *root_pid*, then for every descendant left behind.

    Descendants still alive *timeout* seconds after the root exited are
    killed, so a stuck worker cannot hang the benchmark.  Must only be
    called while no unrelated child of this process is alive.
    """
    usage = TreeUsage()

    def account(pid: int, status: int, rusage) -> None:
        usage.cpu_s += rusage.ru_utime + rusage.ru_stime
        usage.peak_rss_mb = max(usage.peak_rss_mb, rusage.ru_maxrss / 1024.0)
        usage.statuses[pid] = os.waitstatus_to_exitcode(status)

    pid, status, rusage = os.wait4(root_pid, 0)
    account(pid, status, rusage)
    deadline = time.monotonic() + timeout
    while True:
        try:
            pid, status, rusage = os.wait4(-1, os.WNOHANG)
        except ChildProcessError:
            return usage
        if pid:
            account(pid, status, rusage)
            continue
        if time.monotonic() > deadline:
            for child in _children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)
