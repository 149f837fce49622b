"""Host-speed probe: how fast the CPU ran this process, sampled during a run.

The benchmark's host is a small shared VM whose speed swings by a quarter
over tens of seconds while the process keeps its CPU (user time tracks wall
time and steal stays near zero): the cores are shared with other tenants.
Raw wall times of the same run then spread too widely to compare a change
against its parent.  `SpeedProbe` measures that speed while the timed code
runs: a 100 Hz wall-clock timer interrupts the process, and the SIGALRM
handler times one of two fixed pure-Python kernels (an arithmetic loop and
float formatting, the two kinds of work the pipeline is made of).  A
kernel's nominal time over its measured time is the host's speed at that
instant; the mean over an interval is the share of a nominal CPU the
process got in it.  `normalised(t0, t1)` is the interval's wall time minus
the probes' own time, times that mean: the seconds the work would have
taken at nominal speed.

The kernels import nothing, so probing `import regvi` does not import numpy
early.  The handler runs between bytecodes of the main thread; nothing the
program computes is touched.
"""

import signal
import statistics
import time

INTERVAL_S = 0.01
_VALUES = [0.1 * k - 0.37 for k in range(12)]


def _loop():
    acc = 0.0
    for k in range(400):
        acc += k * 0.5 - acc * 1e-3
    return acc


def _format():
    for _ in range(6):
        ",".join("%.17g" % v for v in _VALUES)


# Each kernel with its time at nominal speed: about its median inside a
# pipeline run (caches cold from the interrupted code) on a 2-vCPU 2.1 GHz
# Xeon VM with Python 3.11, so normalised seconds come out close to wall
# seconds there.  The constants only set the scale, the same for every run.
KERNELS = ((_loop, 40e-6), (_format, 60e-6))


class SpeedProbe:
    def __init__(self):
        self.samples = []          # (end time, kernel seconds, speed)
        self._tick = 0
        self._previous = None

    def _handler(self, signum, frame):
        fn, nominal = KERNELS[self._tick % len(KERNELS)]
        self._tick += 1
        start = time.perf_counter()
        fn()
        end = time.perf_counter()
        self.samples.append((end, end - start, nominal / (end - start)))

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def speed(self, t0, t1):
        """Mean host speed over [t0, t1], or over every sample when none falls
        inside (a single long C call holds the handler off); None without any."""
        inside = [s for end, _, s in self.samples if t0 <= end <= t1]
        inside = inside or [s for _, _, s in self.samples]
        return statistics.fmean(inside) if inside else None

    def normalised(self, t0, t1):
        """Wall seconds of [t0, t1] less probe time, scaled to nominal speed."""
        speed = self.speed(t0, t1)
        if speed is None:
            return None
        spent = sum(d for end, d, _ in self.samples if t0 <= end <= t1)
        return (t1 - t0 - spent) * speed
