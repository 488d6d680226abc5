"""Op cost in units of the host's speed at the moment the op ran.

On a shared virtual machine the same work can take twice as long from one
second to the next, while another tenant uses the core (on a 2-vCPU Intel
Xeon VM with Python 3.11, a Fraction multiply-add took 3.1 or 6.5 us), so no
wall-clock metric of a run is steadier than the host. While ops run, a timer
signal every PERIOD_S runs a short probe of PROBE_N Fraction multiply-adds and
records how long one took. An op's cost is its wall time divided by the probe
time measured around it: the number of reference multiply-adds ("ref") that
fit in it. The probes run in the benchmark process between bytecodes of the
op, so op wall times include them (about 0.5 %).
"""

import bisect
import signal
import time
from fractions import Fraction

PERIOD_S = 0.02
PROBE_N = 16


def muladd_seconds(n):
    """Seconds per Fraction multiply-add, over n of them."""
    a, b, acc = Fraction(3, 7), Fraction(5, 11), Fraction(0)
    t0 = time.perf_counter()
    for _ in range(n):
        acc = acc + a * b
    return (time.perf_counter() - t0) / n


class RefClock:
    """Context manager sampling the reference speed while it is open."""

    def __init__(self):
        self.times = []
        self.rates = []      # reference multiply-adds per second

    def _probe(self, signum=None, frame=None):
        seconds = muladd_seconds(PROBE_N)
        self.times.append(time.perf_counter())
        self.rates.append(1.0 / seconds)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe()        # so every op has a probe at or after its end
        return False

    def cost(self, t0, t1):
        """Reference multiply-adds that fit in [t0, t1], at the rate of the
        probes inside it, or of the next probe for a shorter interval."""
        i = bisect.bisect_left(self.times, t0)
        j = bisect.bisect_right(self.times, t1)
        rates = self.rates[i:j] if j > i else self.rates[min(i, len(self.rates) - 1):][:1]
        return (t1 - t0) * sum(rates) / len(rates)

    def median_ns(self):
        """Median probe time in ns per multiply-add."""
        rates = sorted(self.rates)
        return 1e9 / rates[len(rates) // 2]
