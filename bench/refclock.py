"""A clock that counts time at the pace of a fixed reference computation.

The host this benchmark runs on is shared: a fixed pure-Python loop runs at
two or more speeds up to a factor of two apart, on both cores at once, for
seconds to minutes at a time, and process CPU time slows with it (it is
not time stolen by the hypervisor).  Wall time of the program then says as
much about the neighbours as about the program.

``RefClock`` samples the host's speed while the program runs: a timer
signal interrupts the program every ``period`` seconds and times one run
of ``kernel``, a fixed computation of the same kind as the program's work
(exact ``Fraction`` elimination, tuples, dicts, small calls).  Between two
samples the clock advances by the elapsed wall time times
``NOMINAL_S / kernel time``, smoothed over neighbouring samples; during a
sample it stands still, so the sampling itself is not counted.  A span
timed on this clock is its wall time on a host where one kernel run takes
``NOMINAL_S``: a program change that saves work shortens it, a slow phase
of the host does not.  The kernel does not touch the program, so nothing
the program does can speed it up.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

# Kernel time, in seconds, at which one reference second equals one wall
# second: about the kernel's median time on the 2-core host where the
# benchmark was written (0.45 ms in its fast phases, 0.95 ms in slow ones).
NOMINAL_S = 0.0008
# Samples either side of a sample in the median that smooths the speed.
SMOOTH = 2

_MATRIX = tuple(tuple(Fraction((3 * i + 5 * j) % 7 - 3, 1 + (i + j) % 3) for j in range(6))
                for i in range(5))


def kernel() -> int:
    """Rank over Q of a fixed 5 x 6 matrix plus some dict and tuple work;
    returns the rank (always 4 for this matrix) so the work is not idle."""
    rows = [list(r) for r in _MATRIX]
    rank = 0
    col = 0
    while rank < len(rows) and col < len(rows[0]):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] * inv
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    seen: dict[tuple[int, int], int] = {}
    for i in range(120):
        key = (i % 11, i % 7)
        seen[key] = seen.get(key, 0) + i
    return rank + (len(seen) == 0)


class RefClock:
    """Samples the host speed on a timer signal between ``start`` and
    ``stop``; afterwards ``to_ref`` maps any ``time.perf_counter`` reading
    taken in between to reference seconds."""

    def __init__(self, period: float = 0.05):
        self.period = period
        self.samples: list[tuple[float, float]] = []   # (kernel start, kernel end)
        self._busy = False
        self._knots: list[float] = []
        self._refs: list[float] = []
        self._slopes: list[float] = []

    # -- sampling ------------------------------------------------------------
    def sample(self) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        kernel()
        self.samples.append((t0, time.perf_counter()))
        self._busy = False

    def _on_signal(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_signal)
        self.resume()

    def resume(self) -> None:
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def pause(self) -> None:
        """Stops sampling, e.g. while another process is timed; ``to_ref``
        stays valid for readings before the pause."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.sample()

    def stop(self) -> None:
        self.pause()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.build()

    # -- mapping -------------------------------------------------------------
    def build(self) -> None:
        """Rebuilds the map from wall to reference time over the samples so
        far: flat during each sample, slope NOMINAL_S / (smoothed kernel
        time) between two.  Call it after the last reading to be mapped."""
        durs = [e - s for s, e in self.samples]
        n = len(durs)
        speed = [NOMINAL_S / statistics.median(durs[max(0, i - SMOOTH):i + SMOOTH + 1])
                 for i in range(n)]
        knots, refs, slopes = [], [], []
        ref = 0.0
        for i, (s, e) in enumerate(self.samples):
            if i:
                ref += (s - knots[-1]) * slopes[-1]
            knots.append(s)
            refs.append(ref)
            slopes.append(0.0)
            knots.append(e)
            refs.append(ref)
            slopes.append((speed[i] + speed[i + 1]) / 2 if i + 1 < n else speed[i])
        self._knots, self._refs, self._slopes = knots, refs, slopes

    def to_ref(self, t: float) -> float:
        i = bisect.bisect_right(self._knots, t) - 1
        if i < 0:
            return self._refs[0] - (self._knots[0] - t) * self._slopes[1]
        return self._refs[i] + (t - self._knots[i]) * self._slopes[i]

    def span(self, start: float, end: float) -> float:
        return self.to_ref(end) - self.to_ref(start)

    def kernel_times(self) -> list[float]:
        return [e - s for s, e in self.samples]
