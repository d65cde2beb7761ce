"""Host-speed probe: a fixed amount of pure-Python work, like the
pipeline's (float math, small tuples, a correctly rounded sum). Prints how
long the work took, excluding interpreter start-up.

    python bench/host_probe.py

`run.py` runs it between passes; its times record how the host's speed
drifted during a run.
"""

import math
import time

STEPS = 300_000


def work() -> float:
    points = []
    for i in range(STEPS):
        x = 10.0 * math.cos(i * 1e-3)
        y = 10.0 * math.sin(i * 1e-3)
        points.append((x, y, math.hypot(x, y)))
    return math.fsum(p[2] for p in points)


if __name__ == "__main__":
    start = time.perf_counter()
    work()
    print(time.perf_counter() - start)
