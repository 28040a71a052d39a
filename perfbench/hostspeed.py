"""The host's speed, sampled with a fixed kernel while the program runs.

The benchmark runs on a shared machine whose speed drifts with the load
of other tenants, by 2x and more in spells of one to tens of seconds, on
the program and on any other code alike.  ``HostSpeed`` times a fixed
kernel (a Python loop of small numpy products and one pass over a 2 MB
array, like the program's mix of interpreter, small-array and streaming
work) every ``INTERVAL`` seconds from a ``SIGALRM`` handler and at the
edges of every timed span.  ``reference_seconds`` turns a span of wall
time into reference seconds: the span's wall time without the kernel's
own samples, times the host's mean speed around the span relative to
``KERNEL_REF_S`` (the kernel's undisturbed time on the reference host).  A
span that ran while the host was half as fast counts as half its wall time.

The kernel touches no state of the program.  A handler runs between
Python bytecodes, so a long C call (a BLAS product, ``json.dumps``)
delays the next sample until it returns; the samples just before and after
the span cover spans without one inside.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL = 0.02  # seconds between samples
# a span's speed is the mean over the samples within this many seconds of it
WINDOW = 0.25
# the kernel's time on the reference host at its fastest (min of 5,000)
KERNEL_REF_S = 0.00034

_A = np.random.default_rng(0).standard_normal((24, 24))
_V = np.ones(24)
_OUT = np.empty(24)
_BIG = np.ones(1 << 18)


def kernel() -> float:
    # writes only into preallocated arrays: an allocation from inside a
    # signal handler could pin the program's heap and move its peak RSS
    s = 0.0
    for i in range(250):
        np.matmul(_A, _V, out=_OUT)
        s += _OUT[i % 24]
    return s + np.dot(_BIG, _BIG)


class HostSpeed:
    """Kernel samples (start, seconds) taken every ``INTERVAL`` seconds.

    Samples go into preallocated arrays: an object kept from inside a
    signal handler would pin whatever allocator arena the program was
    filling at that moment and move its peak RSS from run to run.
    """

    def __init__(self, capacity: int = 1 << 14):
        self._start = np.zeros(capacity)
        self._seconds = np.zeros(capacity)
        self.n = 0
        self._previous = None

    @property
    def seconds(self) -> np.ndarray:
        return self._seconds[: self.n]

    def sample(self, *_):
        if self.n == len(self._start):
            return
        t0 = time.perf_counter()
        kernel()
        self._start[self.n] = t0
        self._seconds[self.n] = time.perf_counter() - t0
        self.n += 1

    def start(self):
        kernel()  # its first call pays numpy's one-time dispatch costs
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def reference_seconds(self, t0: float, t1: float) -> float:
        """Reference seconds of the wall-time span ``[t0, t1]``.

        The span's speed is the mean of ``KERNEL_REF_S / seconds`` over the
        samples that start within ``WINDOW`` seconds of it, and at least the
        nearest one on each side: the host's speed holds for a second or
        more, and a span of a tenth of a second holds too few samples to
        average their noise.  The samples inside the span are not the
        program's time and are left out of it.  A handler runs whole between
        two bytecodes, so a sample that starts inside the span also ends
        inside it.
        """
        start = self._start[: self.n]
        i0, i1, w0, w1 = np.searchsorted(start, (t0, t1, t0 - WINDOW, t1 + WINDOW))
        inside = self.seconds[i0:i1]
        used = self.seconds[min(w0, max(i0 - 1, 0)): max(w1, i1 + 1)]
        return float((t1 - t0 - inside.sum()) * np.mean(KERNEL_REF_S / used))
