"""Host-speed calibration: a fixed pure-Python kernel timed all through a
run, so that every timing can be read in reference seconds.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by
up to half within minutes, and by a fifth within a second (identical
oracle passes take 2.4 s in one minute and 3.9 s in another).  CPU time
follows wall time, so the drift is not preemption that a CPU clock could
leave out: the interpreter itself runs slower.  This kernel is
interpreter-bound, like springerbc, and slows with it.

``Calibrator`` runs the kernel from a timer signal every ``INTERVAL_S``
while the workload runs, also in the middle of a long call, and its
``clock`` leaves the kernel's time out.  Each timed call is multiplied by
``scale`` of the kernel samples taken from ``WINDOW_S`` before it to
``WINDOW_S`` after it: the seconds the call would have taken on a host
that runs the kernel in ``REF_S``.  A change to
springerbc moves the scaled times exactly as it moves the raw ones, since
the kernel does not call springerbc.

The kernel mixes what springerbc's layers do: products of integer
coefficient tuples (``qpoly``), sorted tuples as dict keys (``partitions``,
``params``, the evaluator's memo) and row reduction over a prime field
(``gf``).
"""

import signal
import statistics
import time
from bisect import bisect_left, bisect_right

# Seconds one kernel call takes on the reference host (a 2.1 GHz Xeon
# vCPU, python 3.11, at its faster speed); fixed, so that scaled times
# from different runs and commits compare.
REF_S = 0.003
# The kernel's result, checked on every call.
KERNEL_RESULT = 9834
# Wall time between kernel runs: about 10 samples a second at a cost of
# about 4% of the run.
INTERVAL_S = 0.1
# A call is scaled by the samples within this much of it: ten or more.
WINDOW_S = 0.5


def kernel():
    """Fixed pure-Python work; returns KERNEL_RESULT."""
    acc = 0
    memo = {}
    a = tuple(range(1, 12))
    for i in range(200):
        b = tuple((i * k + 3) % 7 - 3 for k in range(9))
        out = [0] * (len(a) + len(b) - 1)
        for j, x in enumerate(a):
            for k, y in enumerate(b):
                out[j + k] += x * y
        key = tuple(sorted((i % 5, i % 3, len(out), out[i % 4] % 11), reverse=True))
        memo[key] = memo.get(key, 0) + sum(out)
    acc += sum(memo.values()) + len(memo)
    for p in (3, 5, 7, 11, 13):
        rows = [[(r * 5 + c * c + p) % p for c in range(14)] for r in range(14)]
        rank = 0
        for col in range(14):
            piv = next((r for r in range(rank, 14) if rows[r][col]), None)
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            inv = pow(rows[rank][col], p - 2, p)
            rows[rank] = [x * inv % p for x in rows[rank]]
            for r in range(14):
                if r != rank and rows[r][col]:
                    f = rows[r][col]
                    rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
            rank += 1
        acc += rank * 1000 + sum(map(sum, rows))
    return acc


def sample():
    """Seconds of one kernel call."""
    t0 = time.perf_counter()
    got = kernel()
    dt = time.perf_counter() - t0
    if got != KERNEL_RESULT:
        raise RuntimeError(f"calibration kernel returned {got}, not {KERNEL_RESULT}")
    return dt


def scale(samples):
    """Reference seconds per second over the span the samples cover.

    The samples come at equal steps of wall time, so a slow stretch holds
    more of them than the work done in it; the harmonic mean weights each
    sample by the speed, that is by the work done while it held, and so
    gives the mean kernel time per unit of work.  (On 23 successive 10 s
    point passes on a 2-vCPU shared Xeon host, pass times scaled by all the
    samples of each pass varied by 1.9% with it and by 8.6% with the
    median.)"""
    return REF_S / statistics.harmonic_mean(samples)


class Calibrator:
    """Within ``with``: a kernel sample every ``INTERVAL_S`` (SIGALRM),
    stamped with ``clock``, a clock that stops while the kernel runs."""

    def __init__(self, interval_s=INTERVAL_S):
        self.interval_s = interval_s
        self.samples = []
        self.stamps = []
        self.kernel_s = 0.0  # wall time spent in the signal handler
        self._previous = None
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:  # a tick that came due while the kernel ran
            return
        self._busy = True
        t0 = time.perf_counter()
        self.stamps.append(t0 - self.kernel_s)
        self.samples.append(sample())
        self.kernel_s += time.perf_counter() - t0
        self._busy = False

    def scale_of(self, start, seconds):
        """``scale`` for a call timed by ``clock`` from ``start`` for
        ``seconds``; all samples if none fell near it."""
        lo = bisect_left(self.stamps, start - WINDOW_S)
        hi = bisect_right(self.stamps, start + seconds + WINDOW_S)
        return scale(self.samples[lo:hi] or self.samples)

    def clock(self):
        """perf_counter without the kernel's time; retried if the handler
        ran while it was read."""
        while True:
            spent = self.kernel_s
            now = time.perf_counter()
            if spent == self.kernel_s:
                return now - spent

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
