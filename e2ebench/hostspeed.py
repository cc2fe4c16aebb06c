"""Host-speed calibration for the end-to-end times.

The benchmark runs on a few cores of a shared host whose speed changes
by up to 1.7x in regimes that last from seconds to minutes (CPU time
moves with wall time, so the program itself runs slower; the scheduler
is not to blame).  A raw pass time therefore measures the host as much
as the program.

:class:`Sampler` measures the host's current speed while the program
runs: an interval timer interrupts the main thread every
``PERIOD_S`` seconds and times one fixed, pure-Python :func:`kernel`
call.  A timed stretch of work is then reported in *reference seconds*,
its wall time (minus the samples' own time) times ``REF_SAMPLE_S``
divided by the mean sample: the time the stretch would take on a host
where one kernel call takes ``REF_SAMPLE_S``.  The kernel is frozen
here, so a change to the program moves reference seconds and a change
of host speed does not.
"""

from __future__ import annotations

import heapq
import signal
import time

#: seconds between two samples
PERIOD_S = 0.02
#: iterations of one kernel call (about 1 ms on the reference host)
KERNEL_ITERS = 600
#: one kernel call on the reference host: a fixed constant, never re-measured
REF_SAMPLE_S = 0.001


def kernel(n: int = KERNEL_ITERS) -> int:
    """Interpreter work of the program's kind: integer arithmetic, a heap
    of tuples, dict updates and small-object churn."""
    heap: list[tuple[int, int]] = []
    counts: dict[int, int] = {}
    x = 12345
    acc = 0
    for i in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (x % 1000, i))
        k = x % 97
        counts[k] = counts.get(k, 0) + 1
        if len(heap) > 32:
            acc += heapq.heappop(heap)[0]
    return acc + len(counts)


class Sampler:
    """Samples host speed while started; :meth:`stop` returns the
    stretch's host seconds and reference seconds.

    Only the main thread may use it (it owns ``SIGALRM``).  The program
    under test neither sets that signal nor runs threads in a pass.
    """

    def __init__(self) -> None:
        self._samples: list[float] = []
        self._t0 = 0.0
        self._previous = None
        self.sampling_s = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        self._samples.append(time.perf_counter() - t0)

    def start(self) -> None:
        self._samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S / 2, PERIOD_S)

    def stop(self) -> tuple[float, float]:
        """(host seconds, reference seconds) since :meth:`start`; both
        exclude the time the samples themselves took."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - self._t0
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        samples = self._samples
        #: seconds the samples of the last stretch took
        self.sampling_s = sum(samples)
        host = elapsed - self.sampling_s
        if not samples:
            # a stretch shorter than one period: sample once after it
            self._sample(None, None)
        return host, host * REF_SAMPLE_S / (sum(samples) / len(samples))
