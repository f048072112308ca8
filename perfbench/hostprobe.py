"""Host speed probe: how steady is this machine over time?

    python3 perfbench/hostprobe.py [--seconds 120] [--window 4]

Times one fixed piece of work (a Python loop of 10^6 additions, single
thread, no numpy) back to back and prints the median loop time of each
window of ``--window`` seconds. On a steady host every window reads about the
same; on a shared host some windows read much slower. That is why the
benchmark reports the median of many operations rather than one total.
"""

from __future__ import annotations

import argparse
import statistics
import time


def loop():
    total = 0
    for i in range(1_000_000):
        total += i
    return total


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seconds", type=float, default=120.0)
    p.add_argument("--window", type=float, default=4.0)
    args = p.parse_args(argv)
    start = time.perf_counter()
    medians = []
    while time.perf_counter() - start < args.seconds:
        w0 = time.perf_counter()
        times = []
        while time.perf_counter() - w0 < args.window:
            t0 = time.perf_counter()
            loop()
            times.append(time.perf_counter() - t0)
        medians.append(statistics.median(times))
        print("t=%6.1fs  loops=%3d  median %.4f s" % (w0 - start, len(times), medians[-1]),
              flush=True)
    print("window medians: min %.4f, median %.4f, max %.4f s (max/min %.2f)"
          % (min(medians), statistics.median(medians), max(medians),
             max(medians) / min(medians)))


if __name__ == "__main__":
    main()
