"""Host speed, sampled while a study runs, so that a timing measures
the program and not the shared host under it.

On a small shared virtual machine the same code runs up to ~1.9x
slower for stretches of seconds to minutes, in CPU time as well as in
wall time.  A fixed pure-Python loop (``calibrate``) slows down with
the simulator: over 25-second windows of a sweep on a quiet host, the
evaluation time alone spread by 11% (IQR over median), its ratio to a
calibration loop run between evaluations by 2%.

``SpeedClock`` times a block of code.  Every ``PERIOD_S`` of the
block's wall time a ``SIGALRM`` timer runs a ~1 ms calibration.  The
calibration time is left out of the measurement, and each stretch of
time between two samples is scaled by ``(REFERENCE_NS_PER_ITER / ns)
** SENSITIVITY``, where ``ns`` is the host's ns per iteration around
it (a rolling median of nearby samples).  The result is the time the
block would take on a host where the loop runs at the reference speed;
the raw times are kept too.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List, Tuple

#: The host speed every normalised time is expressed at: ns per
#: iteration of ``calibrate``'s loop.
REFERENCE_NS_PER_ITER = 50.0
#: Iterations of one sample, about 1 ms.
SAMPLE_ITERATIONS = 20_000
#: Wall time of the timed block between two samples.
PERIOD_S = 0.1
#: Samples on each side of a stretch in its rolling median.
NEIGHBOURS = 3
#: When the loop runs f times slower, the studies run about f ** 1.2
#: times slower, most likely because their larger working set suffers
#: more from the neighbours' cache traffic.  Fitted over 40 studies
#: (all four workloads) and 7 minutes of interleaved evaluations on a
#: 2-vCPU virtual machine whose loop speed ranged over 1.6x.
SENSITIVITY = 1.2


def calibrate(iterations: int = SAMPLE_ITERATIONS) -> float:
    """ns per iteration of a fixed pure-Python loop."""
    acc = 0
    start = time.perf_counter()
    for i in range(iterations):
        acc = (acc * 31 + i) & 0xFFFF
    return (time.perf_counter() - start) / iterations * 1e9


def host_ns_per_iter(samples: int = 9) -> float:
    """Median of *samples* calibrations: the host's speed right now."""
    return statistics.median(calibrate() for _ in range(samples))


def normalise(seconds: float, ns_per_iter: float) -> float:
    """*seconds* measured at *ns_per_iter*, at the reference speed."""
    return seconds * (REFERENCE_NS_PER_ITER / ns_per_iter) ** SENSITIVITY


class SpeedClock:
    """Wall and CPU time of a ``with`` block, raw and normalised.

    After the block: ``wall_s`` and ``cpu_s`` are the raw times without
    the sampling, ``norm_wall_s`` and ``norm_cpu_s`` the same at the
    reference speed, ``ns_per_iter`` the median host speed and
    ``samples`` the number of calibrations.
    """

    def __enter__(self) -> "SpeedClock":
        #: ``(wall, cpu)`` of every stretch between two samples.
        self._stretches: List[Tuple[float, float]] = []
        #: Host speed at the start of the block and after each stretch.
        self._speeds = [calibrate()]
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._wall, self._cpu = time.perf_counter(), time.process_time()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        return self

    def _sample(self) -> None:
        wall, cpu = time.perf_counter(), time.process_time()
        self._stretches.append((wall - self._wall, cpu - self._cpu))
        self._speeds.append(calibrate())
        self._wall, self._cpu = time.perf_counter(), time.process_time()

    def _tick(self, signum, frame) -> None:
        # One-shot timer, re-armed after the sample: a slow sample
        # cannot start another one inside itself.
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        speeds = self._speeds
        self.wall_s = self.cpu_s = self.norm_wall_s = self.norm_cpu_s = 0.0
        # Stretch i runs from sample i to sample i + 1.
        for i, (wall, cpu) in enumerate(self._stretches):
            near = statistics.median(
                speeds[max(0, i + 1 - NEIGHBOURS):i + 1 + NEIGHBOURS])
            self.wall_s += wall
            self.cpu_s += cpu
            self.norm_wall_s += normalise(wall, near)
            self.norm_cpu_s += normalise(cpu, near)
        self.ns_per_iter = statistics.median(speeds)
        self.samples = len(speeds)
        return False
