"""A fixed reference kernel that gauges how fast the machine runs at the moment.

On a shared virtual machine the same code runs up to twice as slowly for
minutes at a time, while other tenants load the host.  Neither CPU time nor
steal time shows this: the process is not descheduled, each instruction just
takes longer.  So the benchmark times this kernel right before and right after
every timed call, for a quarter as long as the call last took, and expresses
the call's time in seconds at a fixed machine speed, using the kernel's mean
time over those two timings:

    scaled seconds = measured seconds * KERNEL_REF_S / kernel seconds

The kernel mixes the kinds of work cqpolar does: small numpy calls
(Hermitian eigendecompositions of 2-8 dimensional matrices, 4x4 products,
Kronecker products and reductions), one elementwise pass over 256 KiB, and
Python tuples, sorting and dicts.  Timed next to the benchmark's calls over
four minutes in which their speed varied by 20% (standard deviation of the
log), the calls' log time followed the kernel's with a mean slope of 0.94 (a
pure-Python dict loop alone gave 0.6-0.9, so it over-corrected when the
machine sped up).  Its inputs are fixed, and it uses no cqpolar code, so
a change to the program cannot change it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: A round figure near the kernel's time, in seconds, on the 2-vCPU x86-64 VM
#: the benchmark was defined on (Python 3.11, numpy 2.4 with OpenBLAS on one
#: thread), where its median over one run ranged over 0.68-1.37 ms.  It only
#: fixes the scale.
KERNEL_REF_S = 0.8e-3

#: Share of a timed call's last duration spent timing the kernel on each side of it.
SHARE = 0.25

#: Shortest kernel timing between two calls, in seconds.
MIN_SAMPLE_S = 0.01


class Gauge:
    """Times the reference kernel between timed calls."""

    def __init__(self):
        rng = np.random.default_rng(0)
        mats = []
        for d in (2, 4, 8):
            for _ in range(4):
                a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                mats.append(a @ a.conj().T)
        self._mats = mats
        self._small = [rng.random((4, 4)) for _ in range(8)]
        self._block = rng.random((64, 512))
        self.last: dict = {}  # last measured duration of each timed call, by key

    def _kernel(self) -> None:
        for m in self._mats:
            w, v = np.linalg.eigh(m)
            (v * np.sqrt(np.abs(w))) @ v.conj().T
        for a in self._small:
            b = a @ a.T
            np.trace(b)
            np.kron(a, a[:2, :2]).sum()
            b.max(axis=0)
        np.log(self._block + 1.0).sum(axis=0)
        rows = [(i, str(i), (i * 7) % 13) for i in range(300)]
        rows.sort(key=lambda t: (t[2], t[1]))
        sum(len(k) for k in {t[1]: t for t in rows})

    def between(self, *keys: str) -> tuple:
        """Time the kernel between two timed calls, for SHARE of the longer one's
        last duration: (seconds, runs)."""
        budget = max([SHARE * self.last.get(k, 0.0) for k in keys] + [MIN_SAMPLE_S])
        runs = 0
        start = perf_counter()
        while runs < 2 or perf_counter() - start < budget:
            self._kernel()
            runs += 1
        return perf_counter() - start, runs


def scaled(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured while the kernel took ``kernel_s``, at the reference speed."""
    return seconds * KERNEL_REF_S / kernel_s
