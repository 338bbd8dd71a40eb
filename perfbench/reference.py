"""A fixed reference kernel that measures how fast the shared machine runs.

Other tenants share this machine's cores. For stretches of 0.5 to 10 s they
slow every process by up to 1.8x, which is more than any bound a metric
could carry. So the benchmark times this kernel next to its own operations
and scales each operation's time by the slowdown that the kernel saw at that
moment. The kernel does what the program does: dense tanh layers through
einsum, with out x in weights used through a transposed view. It uses no
switchpass code, so a change to the
program cannot move it.

A scaled time reads as the time at the kernel's NOMINAL_S speed. NOMINAL_S
holds the kernel's least contended half-second median on a 2-core x86-64
sandbox with Python 3.11 and numpy 2.4, as `python3 perfbench/reference.py`
prints it. On other hardware the scale shifts by a constant factor, and that
factor is the same for the two commits being compared.
"""

from __future__ import annotations

import signal
import sys
import time

import numpy as np

DIMS = (64, 32, 48, 64)
NOMINAL_S = {1: 1.09e-5, 32: 8.19e-5}


def rolling_median(values, half: int = 1) -> np.ndarray:
    """Median of each value and its `half` neighbours on either side, so that
    one preempted kernel call does not count."""
    values = np.asarray(values, dtype=np.float64)
    return np.array([np.median(values[max(0, i - half):i + half + 1])
                     for i in range(len(values))])


class Reference:
    def __init__(self, rows: int):
        if rows not in NOMINAL_S:
            raise ValueError(f"no nominal time for {rows} rows")
        rng = np.random.Generator(np.random.PCG64(0))
        self.rows = rows
        self.nominal = NOMINAL_S[rows]
        self.x = rng.standard_normal((rows, DIMS[0]))
        self.ws = [rng.uniform(-0.3, 0.3, (b, a)) for a, b in zip(DIMS, DIMS[1:])]

    def time(self) -> float:
        start = time.perf_counter()
        h = self.x
        for w in self.ws:
            h = np.tanh(np.einsum("ik,kj->ij", h, w.T))
        return time.perf_counter() - start

    def slowdowns(self, kernels) -> np.ndarray:
        """Slowdown against nominal at each of a run of kernel timings."""
        return rolling_median(kernels) / self.nominal

    def timed(self, fn, interval: float = 0.05):
        """Runs fn while a SIGALRM handler times the kernel every `interval`
        seconds. Returns fn's wall time without the handler's, that time at
        nominal speed, and fn's result.

        Each kernel timing stands for the stretch of fn before it, and the
        last one also for the rest. The scaled time is the sum of those
        stretches, each divided by its slowdown.
        """
        marks = []  # (handler start, kernel seconds, handler seconds)

        def handler(signum, frame):
            start = time.perf_counter()
            kernel = self.time()
            marks.append((start, kernel, time.perf_counter() - start))

        previous = signal.signal(signal.SIGALRM, handler)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            end = time.perf_counter()
            signal.signal(signal.SIGALRM, previous)
        wall = end - start - sum(m[2] for m in marks)
        if not marks:
            marks = [(end, self.time(), 0.0)]
        slow = self.slowdowns([m[1] for m in marks])
        scaled, at = 0.0, start
        for (mark, _, took), s in zip(marks, slow):
            scaled += max(0.0, mark - at) / s
            at = mark + took
        scaled += max(0.0, end - at) / slow[-1]
        return wall, scaled, result


def calibrate(seconds: float) -> dict[int, float]:
    """Least contended half-second median per row count, over `seconds`."""
    refs = [Reference(rows) for rows in NOMINAL_S]
    best = {ref.rows: float("inf") for ref in refs}
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        for ref in refs:
            stop = time.perf_counter() + 0.5
            kernels = []
            while time.perf_counter() < stop:
                kernels.append(ref.time())
            best[ref.rows] = min(best[ref.rows], float(np.median(kernels)))
    return best


if __name__ == "__main__":
    print(calibrate(float(sys.argv[1]) if len(sys.argv) > 1 else 60.0))
