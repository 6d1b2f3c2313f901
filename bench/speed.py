"""Machine-speed probe that puts op times on a steady scale.

The virtual machine the baseline was taken on changes speed by up to ~1.7x
over seconds to minutes (host contention).  Measured on ``locallimit``, the
median op time of 20-second windows of one long run spread by 25-34%
(quartile distance over median); scaled as below, by 2.4-3.3%.

:func:`probe` is a fixed piece of code that does not touch motzkinq: small
numpy arrays stepped in a Python loop, a vectorized cosine transform and
float formatting, the kinds of work the workloads do.  :class:`SpeedClock`
times it between ops, at most every ``PROBE_EVERY_S``, and reports an op's
wall time scaled by ``PROBE_REF_S`` over the mean of the probe before and the
probe after it: the op's time at the machine speed where the probe takes
``PROBE_REF_S``.  Of the variants tried (a Python-heavier probe, the median
probe within 0.5-3 s of the op, one factor per run) this one spread least.  A program change does not move the probe, so it shows in
full.
"""

from __future__ import annotations

import bisect
from time import perf_counter

import numpy as np

PROBE_REF_S = 2.5e-3   # probe time on the baseline machine (2-core Xeon VM)
PROBE_EVERY_S = 0.05

_V = np.linspace(0.0, 1.0, 1500)
_U = np.linspace(0.0, 20.0, 48)
_T, _W = np.polynomial.legendre.leggauss(64)


def probe() -> float:
    """Seconds one pass of the fixed probe work takes now."""
    start = perf_counter()
    v = _V.copy()
    for _ in range(100):
        n = 0.5 * v
        n[1:] += 0.25 * v[:-1]
        n[:-1] += 0.25 * v[1:]
        v = n
    np.cos(np.outer(_U, _T)) @ (np.exp(-np.cosh(_T)) * _W)
    "\n".join(f"{i},{i * 0.5:.17g}" for i in range(1500))
    return perf_counter() - start


class SpeedClock:
    """Probe samples of one process, as (end time, seconds)."""

    def __init__(self) -> None:
        self._at: list[float] = []
        self._took: list[float] = []

    def sample(self) -> None:
        took = probe()
        self._at.append(perf_counter())
        self._took.append(took)

    def maybe_sample(self) -> None:
        if not self._at or perf_counter() - self._at[-1] >= PROBE_EVERY_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """PROBE_REF_S over the mean of the last probe before ``start`` and
        the first probe after ``end``."""
        i = bisect.bisect_right(self._at, start) - 1
        j = bisect.bisect_left(self._at, end)
        near = [self._took[k] for k in (i, j) if 0 <= k < len(self._took)]
        return PROBE_REF_S / (sum(near) / len(near))
