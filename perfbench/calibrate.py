"""Host-speed probe: for every line read from stdin, time a fixed pure-Python
loop three times and print the fastest time in seconds.

    python3 perfbench/calibrate.py

The host is shared, and its speed drifts by tens of percent from one minute
to the next.  ``run.py`` starts this script once per run and asks it for a
reading just before and just after each timed measurement, then scales the
measurement by the readings, so that drift largely cancels while a change to
cfplan moves only the measurement.  The probe is a process of its own that
imports nothing of cfplan or numpy, so nothing the program leaves behind in
the benchmark process changes the scale factor, and it stays alive for the
whole run, so that no interpreter start-up enters a reading.
"""

from __future__ import annotations

import sys
import time


def calibration_loop() -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(300_000):
        s += (i * 7) % 13
    return time.perf_counter() - t0


if __name__ == "__main__":
    for _ in sys.stdin:
        print(repr(min(calibration_loop() for _ in range(3))), flush=True)
