"""Host-speed probe: how fast the vCPU that runs the workload is, over time.

The machines this benchmark runs on are shared.  On a 2-vCPU VM each vCPU
flips between a fast and a slow state every few hundred milliseconds,
independently of the other, and the share of time spent slow drifts over
minutes.  Clock times of one program then spread by 15 to 30% between runs.

run.py pins the workload process and its own report checks to one vCPU and
runs this script as a separate process pinned to the same vCPU.  Every
``PERIOD_S`` it wakes, runs a burst of small numpy calls once to refill its
caches, times a second burst, and appends ``<time.monotonic()> <seconds>`` to
a file.  It shares no memory, allocator or interpreter with the workload, and
does the same work on every workload, so its factor follows the vCPU's state
rather than what the workload does.
Each wake takes about 0.1 ms of the vCPU, 0.5% of the workload's time.

    python3 perfbench/probe.py <cpu> <file>      # runs until terminated
"""
from __future__ import annotations

import bisect
import os
import statistics
import sys
import time

PERIOD_S = 0.02
REFERENCE_S = 40e-6  # a timed burst on a quiet vCPU of the reference machine
OUTLIER = 3  # a burst that a context switch lands in reads far too long: cap it


def speed_factors(path, intervals: list[tuple[float, float]]) -> list[float]:
    """Reference seconds per clock second over each (start, end) monotonic interval.

    The factor is the mean of ``REFERENCE_S / sample`` over the samples taken
    inside the interval, or the nearest sample when none was.
    """
    times, samples = [], []
    with open(path, encoding="ascii") as fh:
        for line in fh:
            parts = line.split()
            if len(parts) == 2:
                times.append(float(parts[0]))
                samples.append(float(parts[1]))
    if not samples:
        raise RuntimeError(f"speed probe wrote no samples to {path}")
    cap = OUTLIER * statistics.median(samples)
    speeds = [REFERENCE_S / min(s, cap) for s in samples]
    factors = []
    for t0, t1 in intervals:
        lo, hi = bisect.bisect_left(times, t0), bisect.bisect_right(times, t1)
        if hi > lo:
            factors.append(statistics.fmean(speeds[lo:hi]))
        else:
            near = min((i for i in (lo - 1, lo) if 0 <= i < len(times)), key=lambda i: abs(times[i] - t0))
            factors.append(speeds[near])
    return factors


def main() -> int:
    cpu, path = int(sys.argv[1]), sys.argv[2]
    os.sched_setaffinity(0, {cpu})
    import numpy as np

    block = np.zeros(64, dtype=complex)  # one 6-qubit sender block

    def burst() -> None:
        for _ in range(10):
            np.sum(np.abs(block[:32]) ** 2)

    with open(path, "a", encoding="ascii") as out:
        while True:
            time.sleep(PERIOD_S)
            burst()
            t0 = time.perf_counter()
            burst()
            elapsed = time.perf_counter() - t0
            out.write(f"{time.monotonic()!r} {elapsed!r}\n")
            out.flush()


if __name__ == "__main__":
    sys.exit(main())
