"""Machine-speed reference: timings scaled to a fixed speed of the host.

On a shared host the speed of the machine can swing by a factor of two
within seconds, as other tenants load the cores, and a run's wall times
swing with it.  A fixed numpy kernel, small Hermitian eigendecompositions
and Cholesky factors, tensordot and einsum contractions and a Python loop,
the operations the engine's loops are made of, slows down with the machine
in nearly the same proportion.  Timed for about a millisecond at a time
between queries, it gives the machine's speed at each moment, and a
query's time is reported as

    time at reference speed = wall time * REFERENCE_S / kernel time,

where the kernel time is the median of the probes nearest the query.  The
kernel is independent of the engine, so a change to the engine moves these
times as it moves wall times.  Raw wall times are printed next to them.

Measured on a 2-core x86-64 VM: over 3-second windows the median of a
fixed (1;4,4,4) query ranged 15.3 to 30.1 ms while its ratio to the kernel
varied by 5% (coefficient of variation).  In a noisy hour, the spreads
(IQR over median) of the members times over six seeds fell from 0.33-0.48
raw to 0.06-0.11.  The scaling is not exact: over ten seeds in a calmer
hour it narrowed the far and large tails from 0.19 and 0.25 to 0.04, but
widened the members tail from 0.10 to 0.19.
"""
from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Kernel time at the reference speed: about its time on the 2-core VM
# (Python 3.11, numpy 2.4, one BLAS thread) in its fast phases, so that
# times at reference speed read close to wall times there.
REFERENCE_S = 0.001
# The host's speed changes within a few hundred milliseconds: pooling
# probes 20 ms apart left a per-query spread of 0.09 (IQR over median),
# 80 ms apart 0.10, 150 ms apart 0.12, against 0.35 unscaled.  A probe
# costs about 1 ms, so one every 40 ms costs about 3% of a run.
PROBE_EVERY_S = 0.04
# Probes pooled for one query's speed: about 0.3 s of the run around it.
NEAREST = 7


class Reference:
    def __init__(self):
        rng = np.random.default_rng(20180412)
        self._small = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                       for n in (2, 3, 4, 8)]
        self._eyes = [np.eye(n) for n in (2, 3, 4, 8)]
        self._cube = rng.standard_normal((1, 8, 8, 8)) + 0j
        self._mat = rng.standard_normal((24, 24)) + 0j
        self._block = rng.standard_normal((2, 24, 24, 24)) + 0j
        self.times: list[float] = []      # probe midpoints, perf_counter
        self.seconds: list[float] = []    # probe durations
        self._kernel()                    # first call pays numpy's set-up

    def _kernel(self) -> float:
        total = 0.0
        for _ in range(4):
            for m, eye in zip(self._small, self._eyes):
                h = m @ m.conj().T
                total += float(np.linalg.eigvalsh(h)[0])
                total += float(np.linalg.cholesky(h + eye)[0, 0].real)
            y = np.moveaxis(np.tensordot(self._small[3], self._cube,
                                         axes=([1], [2])), 0, 2)
            total += float(np.einsum("abcd,abcd->", y, y.conj()).real)
            total += sum(i * 0.5 for i in range(40))
        y = np.tensordot(self._mat, self._block, axes=([1], [1]))
        return total + float(np.abs(y).sum())

    def probe(self) -> None:
        start = time.perf_counter()
        self._kernel()
        end = time.perf_counter()
        self.times.append((start + end) / 2)
        self.seconds.append(end - start)

    def maybe_probe(self) -> None:
        """Probe when PROBE_EVERY_S has passed since the last probe."""
        if not self.times or time.perf_counter() - self.times[-1] >= PROBE_EVERY_S:
            self.probe()

    def factor(self, at: float) -> float:
        """REFERENCE_S over the median kernel time of the NEAREST probes
        to perf_counter time ``at``."""
        i = bisect.bisect_left(self.times, at)
        lo, hi = max(0, i - NEAREST), min(len(self.times), i + NEAREST)
        nearest = sorted(range(lo, hi), key=lambda j: abs(self.times[j] - at))
        return REFERENCE_S / statistics.median(
            self.seconds[j] for j in nearest[:NEAREST])

    def median_kernel_s(self) -> float:
        return statistics.median(self.seconds)
