"""The speed probe: how fast the machine runs Python while the benchmark measures.

The benchmark is meant for small shared machines, whose speed drifts: a fixed
piece of pure-Python work can take a third longer or shorter from one few
seconds to the next, and a whole run of twenty seconds can land in a slow or
a fast phase.  Raw times then spread between runs of the same code by more
than any useful regression bound.

The probe samples that speed while a run measures.  A real-time interval timer
interrupts the process every ``INTERVAL_S`` seconds; the signal handler runs
``kernel()``, a fixed pure-Python loop over the operations natmod's tables
spend their time on (tuple keys, dict lookups, small tuples and sets), and
records how long it took, wall and CPU.  The handler runs in the one thread
of the process, between bytecodes of whatever natmod is doing, so the samples
are spread over the timed interval.  The garbage collector is off while the
kernel runs, so that a collection of natmod's heap is not charged to it.

``Probe.seconds(mark)`` reports the interval since ``mark`` in reference
seconds: the raw seconds, less the time the probe itself took, times
``REFERENCE_S`` over the mean kernel time of the samples taken in the
interval.  A pass that runs at the reference speed reads its raw time; one
that ran during a phase twice as slow reads the same.  The raw seconds and the
speed are kept too, for the comment lines of the run.

The mean is a trimmed one (``TRIM`` of the samples off each end), so that a
sample the scheduler happened to interrupt does not set the speed of a whole
interval.  An interval shorter than ``MIN_SAMPLES`` samples borrows the
latest samples before it.
"""

import gc
import signal
import statistics
import time
from dataclasses import dataclass

# seconds between samples; one kernel takes about a fiftieth of this, so the
# probe adds about 2% to a run's wall time (and subtracts it again)
INTERVAL_S = 0.025
# the kernel's mean time, in seconds, on the machine the benchmark was defined
# on (x86_64, Python 3.11, 2 shared cores); only a scale for the reported
# numbers, which it divides out of every comparison of two runs
REFERENCE_S = 0.0004
MIN_SAMPLES = 20
TRIM = 0.1

_TABLE = {(i, j): (i * 7 + j + 1) % 64 for i in range(64) for j in range(64)}


def kernel(n: int = 800) -> int:
    """A fixed piece of pure-Python work: table lookups on tuple keys."""
    acc, x = 0, 1
    for i in range(n):
        key = (x, i & 63)
        x = _TABLE[key]
        acc += len((x, key, i)) + len({x, i & 31})
    return acc


@dataclass(frozen=True)
class Mark:
    index: int
    wall: float
    cpu: float
    spent_wall: float
    spent_cpu: float


@dataclass(frozen=True)
class Interval:
    wall: float      # reference seconds
    cpu: float       # reference CPU seconds
    raw_wall: float  # seconds, less the probe's own time
    raw_cpu: float
    speed: float     # REFERENCE_S over the trimmed mean kernel wall time


def _trimmed_mean(values: list) -> float:
    values = sorted(values)
    cut = int(len(values) * TRIM)
    return statistics.fmean(values[cut:len(values) - cut])


class Probe:
    """Samples the machine's speed on a timer while it is running.

    An inactive probe takes no samples and reports raw seconds as reference
    seconds; traced runs use one, so that no span includes a sample.
    """

    def __init__(self, active: bool = True):
        self.active = active
        self.walls: list = []
        self.cpus: list = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self._previous = None

    def sample(self, *_signal) -> None:
        enabled = gc.isenabled()
        gc.disable()
        t, c = time.perf_counter(), time.process_time()
        kernel()
        wall, cpu = time.perf_counter() - t, time.process_time() - c
        if enabled:
            gc.enable()
        self.walls.append(wall)
        self.cpus.append(cpu)
        self.spent_wall += time.perf_counter() - t
        self.spent_cpu += time.process_time() - c

    def __enter__(self):
        if not self.active:
            return self
        for _ in range(MIN_SAMPLES):
            self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if not self.active:
            return
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> Mark:
        return Mark(len(self.walls), time.perf_counter(), time.process_time(),
                    self.spent_wall, self.spent_cpu)

    def seconds(self, mark: Mark) -> Interval:
        """The time since ``mark``, raw and in reference seconds."""
        wall = time.perf_counter() - mark.wall - (self.spent_wall - mark.spent_wall)
        cpu = time.process_time() - mark.cpu - (self.spent_cpu - mark.spent_cpu)
        if not self.active:
            return Interval(wall, cpu, wall, cpu, 1.0)
        end = len(self.walls)
        start = max(0, min(mark.index, end - MIN_SAMPLES))
        wall_speed = REFERENCE_S / _trimmed_mean(self.walls[start:end])
        cpu_speed = REFERENCE_S / _trimmed_mean(self.cpus[start:end])
        return Interval(wall * wall_speed, cpu * cpu_speed, wall, cpu, wall_speed)
