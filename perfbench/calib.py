"""Host-speed calibration: a fixed reference computation sampled during the work.

The host the benchmark runs on is shared, and its speed drifts: the same
computation can take 10-60 % longer for minutes at a time.  While a
workload runs, a ``Sampler`` interrupts it at a fixed rate (``SIGALRM``
every ``INTERVAL_S`` seconds) and times one call of a fixed reference
computation.  The mean reference time over a stretch of work measures the
host's average speed during that stretch; dividing the work's time by it,
and multiplying by ``REFERENCE_S``, gives the work's time on a host on
which the reference takes ``REFERENCE_S`` seconds.  The time spent in the
samples is subtracted from the work's time.  The reference uses no
qtwist code, so a change to qtwist moves the scaled times while a change
of the host's speed does not.

The reference does what qtwist's own hot loops do in pure Python:
integer polynomial products over lists, gcd reductions of small
fractions, dict updates and method calls on small objects.
"""

from __future__ import annotations

import bisect
import marshal
import signal
import time
from math import gcd

# Scaled times are seconds of a host on which one Reference call takes
# REFERENCE_S and one import_reference() call IMPORT_REFERENCE_S.  On the
# 2-core host the baseline was measured on, a Reference call took 1.0-1.1 ms
# alone when the host was calm and 1.3-2.1 ms between a workload's
# operations; import_reference() took 3-5 ms around set-up.
REFERENCE_S = 0.0014
IMPORT_REFERENCE_S = 0.0035
# One Reference call per INTERVAL_S of wall time: 3-5 % of the run.
INTERVAL_S = 0.04
# An operation's time is scaled by the samples taken during it and within
# WINDOW_S seconds on either side, and at least MIN_SAMPLES of them.  The
# host's speed changes within a second, so the closest samples match an
# operation best.  Over four passes of frobdiv-p5, the scaled times of a
# check varied by 2-3 % (coefficient of variation) with a 0.1 s window,
# by 6 % with a 1 s window, and by the raw times' 11 % with the whole run
# as the window.
WINDOW_S = 0.1
MIN_SAMPLES = 3


class Reference:
    """The fixed reference computation, called as ``Reference()()``.

    It works on buffers allocated once, in ``__init__``, and allocates no
    container itself, so timing it does not advance the cyclic garbage
    collector, whose collections would otherwise land at other points of
    the work.  A call returns a checksum.
    """

    def __init__(self):
        self.a = [(i * 7919) % 97 - 48 for i in range(48)]
        self.b = [(i * 104729) % 89 - 44 for i in range(48)]
        self.ab = [0] * (len(self.a) + len(self.b) - 1)
        self.aba = [0] * (len(self.ab) + len(self.a) - 1)
        self.table = dict.fromkeys(range(17), 0)
        self.num, self.den = 0, 1

    @staticmethod
    def _poly_mul_into(out, a, b):
        for k in range(len(out)):
            out[k] = 0
        for i in range(len(a)):
            x = a[i]
            if x:
                for j in range(len(b)):
                    out[i + j] += x * b[j]

    def _add_product(self, n1, d1, n2, d2):
        """num/den += (n1/d1) * (n2/d2), reduced."""
        n, d = n1 * n2, d1 * d2
        num, den = self.num * d + n * self.den, self.den * d
        g = gcd(num, den)
        self.num, self.den = num // g, den // g

    def __call__(self):
        self._poly_mul_into(self.ab, self.a, self.b)
        self._poly_mul_into(self.aba, self.ab, self.a)
        table = self.table
        for k in range(17):
            table[k] = 0
        for k in range(len(self.aba)):
            table[k % 17] += self.aba[k]
        self.num, self.den = 0, 1
        for k in range(1, 1500):
            self._add_product(k % 7 + 1, k % 5 + 2, 3, k % 11 + 1)
            if self.den > 10 ** 12:
                self.num, self.den = self.num % 1009 + 1, self.den % 1013 + 1
        check = self.num + self.den
        for k in range(17):
            check += table[k]
        return check


# The source of a module with 40 functions and 15 classes.
_MODULE_SOURCE = "\n".join(
    [f"def f{i}(a, b=1, *c, **d):\n    x = [a * k for k in range(b)]\n"
     f"    return {{'a': x, 'b': (a, b, c, d)}}\n" for i in range(40)]
    + [f"class C{i}:\n    z = {i}\n    def m(self, y):\n        return self.z + y\n"
       f"    @property\n    def p(self):\n        return self.z\n" for i in range(15)])


def import_reference():
    """What an import does: compile a fixed module source, round-trip the
    code through marshal, and execute it.  Set-up time (importing qtwist)
    follows the host's speed more closely with this than with Reference:
    over 16 fresh processes, set-up time over this reference varied by 5 %,
    over Reference by 9 %, unscaled by 12 %."""
    code = marshal.loads(marshal.dumps(compile(_MODULE_SOURCE, "<reference>", "exec")))
    exec(code, {"__name__": "reference"})


def reference_mean(fn, n):
    """Mean seconds of n calls of fn, after three untimed ones."""
    for _ in range(3):
        fn()
    total = 0.0
    for _ in range(n):
        t = time.perf_counter()
        fn()
        total += time.perf_counter() - t
    return total / n


class Sampler:
    """Times one Reference call every INTERVAL_S seconds while started.

    ``samples`` holds (perf_counter at the sample, reference seconds);
    ``spent`` is the total time the samples took, which ``since``
    subtracts from the work's own time.
    """

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.reference = Reference()
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum, frame):
        t = time.perf_counter()
        self.reference()
        t1 = time.perf_counter()
        self.samples.append((t, t1 - t))
        self.spent += time.perf_counter() - t

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})   # a mask is inherited
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def mark(self):
        """A point to measure from: (perf_counter, time spent in samples)."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return time.perf_counter(), self.spent
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def since(self, mark):
        """(start, end, work seconds) since a mark(); sample time is not work."""
        end, spent = self.mark()
        return mark[0], end, end - mark[0] - (spent - mark[1])

    def scaled(self, timings):
        """Each (start, end, work) timing's work seconds, scaled to the reference host.

        The scale is REFERENCE_S / the mean reference time of the samples
        taken within WINDOW_S of [start, end]; if there are fewer than
        MIN_SAMPLES, the window widens until there are.
        """
        if not self.samples:
            raise RuntimeError("no reference samples were taken: SIGALRM never arrived")
        times = [t for t, _ in self.samples]
        out = []
        for start, end, work in timings:
            window = WINDOW_S
            while True:
                lo = bisect.bisect_left(times, start - window)
                hi = bisect.bisect_right(times, end + window)
                if hi - lo >= min(MIN_SAMPLES, len(times)):
                    break
                window = 2 * window or INTERVAL_S
            near = [dt for _, dt in self.samples[lo:hi]]
            out.append(work * REFERENCE_S * len(near) / sum(near))
        return out
