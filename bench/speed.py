"""Speed probe: rescales measured times to a reference machine speed.

On a small shared box the speed of the same code drifts by 30% or more for
seconds to minutes at a time, when other tenants load the host. Averaging
inside one run cannot remove a drift that lasts the whole run. So the timed
loop runs a short, fixed kernel at least PROBE_INTERVAL_S seconds apart. It
rescales each solve by REFERENCE_S over the mean of the probes taken just
before and just after it. The kernel mixes what `slq` spends its time on:
small matrix-vector products dominated by call overhead, a pure-Python loop,
a dense LAPACK solve and vector arithmetic over a few thousand rows. It uses
only numpy, never `slq`, so a change to `slq` cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.005        # kernel time at the reference speed
PROBE_INTERVAL_S = 0.15    # least seconds between probes


class SpeedProbe:
    """Times the fixed kernel on demand and keeps every sample."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._A = rng.standard_normal((16, 16)) / 8.0
        self._M = rng.standard_normal((200, 200)) + 20.0 * np.eye(200)
        self._b = rng.standard_normal(200)
        self._V = rng.standard_normal((4000, 2))
        self.samples: list[float] = []
        self._last = float("-inf")
        for _ in range(3):   # warm caches before the first sample counts
            self._kernel()

    def _kernel(self) -> float:
        start = time.perf_counter()
        x = np.ones(16)
        for _ in range(150):
            x = self._A @ x
            x /= np.linalg.norm(x)
        acc = 0.0
        for i in range(10_000):
            acc += i * 0.5
        for _ in range(3):
            np.linalg.solve(self._M, self._b)
        for _ in range(25):
            V = self._V @ np.eye(2)
            (V * V).sum(axis=1)
        return time.perf_counter() - start

    def sample(self) -> int:
        """Run the kernel once; returns the index of the new sample."""
        self.samples.append(self._kernel())
        self._last = time.perf_counter()
        return len(self.samples) - 1

    def due(self) -> bool:
        return time.perf_counter() - self._last >= PROBE_INTERVAL_S

    def scale(self, before: int) -> float:
        """Factor that rescales a time measured between probe `before` and the next."""
        after = min(before + 1, len(self.samples) - 1)
        return REFERENCE_S / (0.5 * (self.samples[before] + self.samples[after]))

    def slowdown(self) -> float:
        """Mean probe time over the reference: 1.0 at the reference speed."""
        return sum(self.samples) / len(self.samples) / REFERENCE_S
