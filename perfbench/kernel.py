"""Time a fixed pure-Python kernel on request: how fast the machine runs now.

    python3 perfbench/kernel.py

For every line read from stdin, prints the median of five timings of the
kernel in seconds; exits at the end of stdin.  It runs in a process of its
own that imports nothing from twinloop, so nothing the code under test does
to its interpreter (garbage collector settings, threads, allocator state) can
move the timing.
"""

import json
import statistics
import sys
import time


def kernel() -> str:
    # Float arithmetic, small containers and formatting, as the loop does.
    th, ts = 23.0, 23.0
    rows = []
    for i in range(3000):
        th += 0.1 * (2.0 + 0.05 * (23.0 - th) + 0.1 * (ts - th)) * 0.2
        ts += 0.1 * (0.1 * (th - ts) + 0.1 * (23.0 - ts)) * 0.05
        if i % 10 == 0:
            rows.append({"t": round(th, 3), "s": f"{ts:.2f}"})
    return json.dumps(rows)


def kernel_s() -> float:
    times = []
    for _ in range(5):
        start = time.monotonic()
        kernel()
        times.append(time.monotonic() - start)
    return statistics.median(times)


def main() -> int:
    for _ in sys.stdin:
        print(repr(kernel_s()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
