"""The host's pace: a fixed block of reference work, timed between samples.

The benchmark shares a few virtual CPUs of a busy host.  Neighbours on
the same physical cores slow every instruction, by up to 1.8x for
minutes at a time, and CPU time rises with wall time, so neither clock
alone can tell a slower program from a slower host.  The benchmark
therefore times :func:`reference_block` (interpreter-bound dictionary,
string and sorting work, plus NumPy sorts and scans, in about the
proportion the program spends in each) right before and right after
every timed sample, while nothing else of the benchmark runs, in one
process per CPU.  The
mean of the two, divided by :data:`REFERENCE_S`, is the sample's
*pace*: 1.0 when the host runs at reference speed, 1.5 when it runs
1.5x slower.  A time divided by its pace is in seconds at reference
speed.  Samples of a few milliseconds, too short to sit between whole
blocks, are paced by slices of a few rounds instead.

Wall times are divided by the block's wall-clock pace and CPU times by
its CPU-time pace: time the host does not give the guest at all
(steal) lengthens wall time only, and only the first pace sees it.
The block lives in the benchmark, not in ``src/``, so a change to the
program never changes its pace.
"""

from __future__ import annotations

import os
import struct
import time

import numpy as np

#: Seconds :func:`reference_block` takes on a quiet 2-vCPU Intel Xeon
#: (2.0 GHz) virtual machine.
REFERENCE_S = 0.6
#: Inner rounds of :func:`reference_block`.
ROUNDS = 330
#: Processes that run the block at once: one per CPU the benchmark's
#: load may use.  A campaign on two workers runs on both CPUs and a
#: serial one on either, and neighbours may slow the two unequally.
PROCESSES = 2

_SORT_INPUT = np.random.default_rng(0).random(1 << 15)


def _interpreter_round() -> None:
    table: dict[int, int] = {}
    for i in range(5000):
        key = (i * 7919) % 10007
        table[key] = table.get(key, 0) + len(str(i))
    sorted(table.items(), key=lambda kv: kv[1])


def _numpy_round() -> None:
    np.cumsum(np.sort(_SORT_INPUT))


def _timed_rounds(rounds: int) -> tuple[float, float]:
    start, cpu = time.perf_counter(), time.thread_time()
    for _ in range(rounds):
        _interpreter_round()
        _numpy_round()
    return time.perf_counter() - start, time.thread_time() - cpu


def reference_block(rounds: int = ROUNDS) -> tuple[float, float]:
    """Run *rounds* rounds of the reference work in each of
    :data:`PROCESSES` forked processes at once; returns their mean wall
    and CPU seconds, scaled to a whole block of :data:`ROUNDS` rounds."""
    children = []
    for _ in range(PROCESSES):
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child: time the rounds, report, leave at once
            status = 1
            try:
                os.close(read_end)
                os.write(write_end, struct.pack("dd", *_timed_rounds(rounds)))
                status = 0
            finally:
                os._exit(status)
        os.close(write_end)
        children.append((pid, read_end))
    times = []
    for pid, read_end in children:
        with os.fdopen(read_end, "rb") as pipe:
            report = pipe.read()
        _, status = os.waitpid(pid, 0)
        if status or len(report) != struct.calcsize("dd"):
            raise RuntimeError(f"reference block process {pid} failed")
        times.append(struct.unpack("dd", report))
    scale = ROUNDS / rounds
    return tuple(scale * sum(t) / len(times) for t in zip(*times))
