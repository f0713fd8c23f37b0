"""Host-speed probe: a fixed numpy workload timed next to every measurement.

The benchmark host's speed drifts with the load of other tenants on the
same machine.  On a 2-vCPU Xeon VM one fixed fleet run took 1.36-1.84 s
within five minutes, and 2.3-3.1 s in a busier hour, so a comparison of
two commits measured an hour apart would read the drift as a regression.
The probe below is therefore timed between every two timed set-ups or
fleet runs; each of those is paired with the mean of the probes on either
side of it, and end-to-end times are reported as
``wall / probe * REFERENCE_S``: seconds on a host where the probe takes
``REFERENCE_S``.  Bracketing matters when the host flips between fast and
slow within seconds: a probe on one side alone then tracks the run worse
than no probe at all.

The probe does what the fleet's hot path does (im2col by
``sliding_window_view``, a contiguous copy, a small float32 GEMM) on fixed
inputs, using numpy only, so no change to the program moves it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: probe seconds on the reference box (2-vCPU Xeon at 2.1 GHz, quiet host).
#: It only sets the unit of the reported times, but changing it rescales
#: them all, so results from before and after a change do not compare.
REFERENCE_S = 0.034

_ITERATIONS = 40
_REPEATS = 3

_rng = np.random.default_rng(0)
_IMAGES = _rng.random((4, 3, 48, 48), dtype=np.float32)
_WEIGHTS = _rng.random((75, 24), dtype=np.float32)


def probe() -> float:
    """Fastest of three timings of the fixed workload, in wall seconds."""
    best = float("inf")
    for _ in range(_REPEATS):
        start = time.perf_counter()
        for _ in range(_ITERATIONS):
            windows = np.lib.stride_tricks.sliding_window_view(
                _IMAGES, (5, 5), axis=(2, 3)
            )
            cols = np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5))
            (cols.reshape(-1, 75) @ _WEIGHTS).sum()
        best = min(best, time.perf_counter() - start)
    return best


def scaled(walls: list[float], probes: list[float]) -> float:
    """Median of the probe-scaled times, in reference-box seconds."""
    pairs = zip(walls, probes, strict=True)
    return statistics.median(wall / speed for wall, speed in pairs) * REFERENCE_S
