"""Machine-speed calibration, sampled while the program runs.

The benchmark's host shares its cores with other tenants, and their load
changes how fast the same code runs by up to half again, in phases of tens of
seconds. A run of a few sweeps cannot average that out, so every timed sweep
carries its own measure of the machine's speed: while the sweep runs, a
`SIGALRM` timer interrupts the main thread every `INTERVAL_S` and times one
fixed calibration loop (`unit`), a mix of interpreter work and small numpy
operations like the program's own. The loop is the same on every commit, so
its mean time over a sweep measures the machine, not the program. It is timed
in CPU time of the thread: contention on the host slows CPU time as much as
wall time, while a wait for a core that the bench's own pool workers hold
does not count.

`slowdown(samples)` is that mean over `REFERENCE_UNIT_S`: about 1 on the
reference box when its host is quiet, above 1 when the host is busier.
Dividing a sweep's wall or CPU time by it gives the time the sweep would take
at the reference speed.

The timer interrupts only the process that starts it; pool workers forked from
it do not inherit it, and while they run the main thread samples the cores
they share.
"""
import signal
import statistics
from time import thread_time

import numpy as np

INTERVAL_S = 0.02

# a round figure for the mean time of `unit` sampled during sweeps on the
# reference box, a 2-core shared x86 VM (Intel Xeon, 2.1 GHz) with Python 3.11
# and numpy on 1 OpenBLAS thread, where it reads 2.8e-4 to 4.2e-4 as the
# host's load changes
REFERENCE_UNIT_S = 3.0e-4

_MATRIX = np.random.default_rng(0).standard_normal((24, 24))
_VECTOR = np.exp(1j * np.arange(64.0))


def unit():
    """The fixed calibration loop (about 0.3 ms on the reference box)."""
    acc = 0
    for i in range(1500):
        acc += i * i
    for _ in range(8):
        _MATRIX @ _MATRIX
        np.fft.fft(_VECTOR)
    return acc


def time_units(count: int) -> list:
    """CPU times of `count` back-to-back calibration loops."""
    samples = []
    for _ in range(count):
        start = thread_time()
        unit()
        samples.append(thread_time() - start)
    return samples


class Calibrator:
    """Times `unit` every `INTERVAL_S` of wall time while entered."""

    def __init__(self):
        self.samples = []
        self._previous = None

    def _sample(self, signum, frame):
        self.samples += time_units(1)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)


def slowdown(samples: list) -> float:
    """How much slower than the reference box the machine ran while `samples`
    were taken (their mean over `REFERENCE_UNIT_S`)."""
    return statistics.fmean(samples) / REFERENCE_UNIT_S
