"""Scaling of measured times to a fixed machine speed.

The benchmark machine is shared: for tens of seconds at a time, other
tenants slow this process by up to 1.6x, which no statistic within one
run can remove.  So the benchmark times a fixed reference computation (no
harmsect code) between requests, every PROBE_EVERY_S or so, and scales
each request's latency by the reference's typical time over its time
measured around the request.  A scaled time reads as seconds on a
machine where the reference takes its typical time; the raw times are
recorded next to it.

Load slows interpreter-bound and memory-bound code by different factors,
so there are two references: SCALAR (numpy scalar arithmetic, 999-point
vector terms and Python calls) for workloads of many small calls, and
ARRAY (arithmetic on 8 MB complex arrays, beyond the per-core caches,
so bound by the shared cache and memory like the grid scans) for the
scan workload.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, NamedTuple

import numpy as np

PROBE_EVERY_S = 0.1
# probes on each side of a segment whose median sets its scale
WINDOW = 3
_XS = np.linspace(0.001, 0.999, 999)


class Reference(NamedTuple):
    name: str
    work: Callable[[], float]
    # Typical time of `work` on the 2.1 GHz Xeon machine the baseline was
    # measured on; it fixes the unit of every time scaled by it.
    typical_s: float
    repeats: int  # a probe is the median of this many timings


def _scalar_work() -> float:
    total = 0.0
    for k in range(1, 40):
        r = _XS[k]
        u = (1.0 - r) / (1.0 + r)
        total += float(u**3 * (1.0 - u**6) / (12.0 * r))
        v = _XS**k * (1.0 + k * (1.0 - _XS)) / (1.0 - _XS) ** 2
        total += float(v[-1])
    return total


def _array_work() -> float:
    # allocated afresh, like the scan's grids, and freed when the probe
    # ends, so that it adds nothing to the memory the scans keep
    zs = np.full(1 << 19, 0.6 + 0.3j)
    acc = zs * 0.5
    acc += 0.25
    acc *= zs
    acc -= 0.125
    out = zs * acc
    np.conjugate(out, out=out)
    out += acc
    return float(np.abs(out).min())


SCALAR = Reference("SCALAR", _scalar_work, 0.65e-3, 5)
ARRAY = Reference("ARRAY", _array_work, 14e-3, 1)


def probe(ref: Reference = SCALAR) -> float:
    """Median of the reference's timings, in seconds."""
    times = []
    for _ in range(ref.repeats):
        start = time.perf_counter()
        ref.work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def factor(before: float, after: float, ref: Reference = SCALAR) -> float:
    """Scale of a time measured between probes `before` and `after`."""
    return ref.typical_s / (0.5 * (before + after))


class SpeedTrack:
    """Reference probes taken along a sequence of timed requests.

    Requests timed between probe i and probe i + 1 form segment i.  Their
    scale is the reference's typical time over the median of the WINDOW
    probes on each side, which smooths the noise of single probes over
    about half a second.
    """

    def __init__(self, ref: Reference = SCALAR) -> None:
        self.ref = ref
        self.probes = [probe(ref)]
        self._last = time.perf_counter()

    @property
    def segment(self) -> int:
        return len(self.probes) - 1

    def maybe_probe(self) -> None:
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.probes.append(probe(self.ref))
            self._last = time.perf_counter()

    def close(self) -> None:
        self.probes.append(probe(self.ref))

    def scale(self, segment: int) -> float:
        window = self.probes[max(0, segment + 1 - WINDOW): segment + 1 + WINDOW]
        return self.ref.typical_s / statistics.median(window)
