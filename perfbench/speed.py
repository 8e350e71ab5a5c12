"""A fixed reference task that measures how fast the machine runs right now.

The benchmark's machine shares its cores with others, and its speed moves
by tens of percent over seconds to minutes; CPU time moves with wall time.
The run times this task between its commands and scales each command's
time to the speed at which the task takes NOMINAL_S seconds.

The task mixes the kinds of work the workloads do: JSON lines in pure
Python and elementwise numpy over a 20k-point cloud. It imports nothing
the program imports lazily, so it leaves the run's peak RSS alone.
"""

from __future__ import annotations

import json
import time

import numpy as np

NOMINAL_S = 0.125  # seconds; about the task's median time on the reference machine (see README)


class SpeedReference:
    def __init__(self):
        rng = np.random.default_rng(0)
        rows = rng.integers(0, 1024, size=(400, 256)).tolist()
        self.text = "\n".join(json.dumps({"seq": i, "timestamp_us": 20000 * i, "readings": r})
                              for i, r in enumerate(rows))
        self.xyz = rng.random((3, 20000))

    def work(self) -> None:
        for _ in range(3):
            for line in self.text.splitlines():
                json.dumps(json.loads(line))
        x, y, z = self.xyz
        dmin = np.full(x.shape, np.inf)
        for i in range(300):
            dx, dy, dz = x - x[i], y - y[i], z - z[i]
            np.minimum(dmin, dx * dx + dy * dy + dz * dz, out=dmin)
            int(np.argmax(dmin))

    def measure(self) -> float:
        """Seconds the reference task takes now."""
        t0 = time.perf_counter()
        self.work()
        return time.perf_counter() - t0
