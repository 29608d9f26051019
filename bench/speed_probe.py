"""Speed probe: how fast the CPU runs Python while an invocation runs.

The machine is shared, and the speed one virtual CPU gives a process swings
by up to 2x within seconds, with no steal time to show for it.  The probe
runs at nice 19 on the same CPU as the invocation, so the scheduler gives it
about 1.5% of that CPU in slices spread over the invocation's whole life,
under the same contention.  It repeats a small Fraction-and-dict unit (the
engine's kind of work) until its stdin closes, then prints the units done and
the CPU seconds they took.

    python bench/speed_probe.py    # prints "ready", runs until stdin closes
"""

from __future__ import annotations

import os
import select
import sys
import time
from fractions import Fraction


def unit():
    acc = {}
    x = Fraction(1, 3)
    for i in range(1, 12):
        key = (i % 7, i % 5)
        acc[key] = acc.get(key, 0) + x * Fraction(i, 7)


def main() -> int:
    os.nice(19)
    unit()
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    units, start = 0, time.process_time()
    while not select.select([sys.stdin], [], [], 0)[0]:
        unit()
        units += 1
    sys.stdout.write(f"{units} {time.process_time() - start:.9f}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
