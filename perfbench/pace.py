"""Time a call at a fixed reference speed of the CPU it runs on.

On a shared host the speed of a vCPU swings by up to 2x within seconds, as
other tenants load the core it shares, and the host at times deschedules
the vCPU outright ("steal").  Wall time swings with both and CPU time with
the first, so neither repeats from run to run.  While the timed call runs, a
SIGALRM handler runs a fixed probe kernel every ``INTERVAL_S`` on the same
thread and times it.  Each stretch of the call between two probes is
measured in process CPU time, which the guest kernel keeps net of steal, and
scaled by ``ref_s / local``, where ``local`` is the median CPU time of the
probes around that stretch.  The sum is the time the call would have taken
had the CPU run the probe in ``ref_s`` throughout.  The probes' own time is
left out.

The probe should do the kind of work the call does: ``python_probe`` for an
import, the probe ``numpy_probe()`` returns for a pass of the program.
Standard library only at import time, so the set-up timer can load this
before ``rpodsim``.
"""

from __future__ import annotations

import os
import signal
import statistics
import time
from dataclasses import dataclass
from typing import Callable, List, Tuple

INTERVAL_S = 0.01
NEIGHBOURS = 2  # probes on each side of a stretch that set its local speed

# Each probe's time on an uncontended vCPU of the 2-vCPU Xeon VM the
# benchmark was tuned on.  They set only the scale of a paced time.
PYTHON_PROBE_REF_S = 7.0e-5
NUMPY_PROBE_REF_S = 7.0e-5


def pin() -> None:
    """Pin this process (and the processes it starts) to one of its allowed
    CPUs, so that a stretch of a call and the probes around it ran on the
    same vCPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def python_probe() -> None:
    """Pure-interpreter work: an integer LCG."""
    x = 1
    for _ in range(600):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF


def numpy_probe() -> Callable[[], None]:
    """Small-array numpy work, of the kind the program's frames and
    integrator steps do; numpy is imported here, not at load."""
    import numpy as np

    m = np.eye(3) * 0.5

    def probe() -> None:
        v = np.ones(3)
        for _ in range(20):
            v = m @ v + v
            v = v / np.sqrt(v @ v)

    return probe


@dataclass(frozen=True)
class Paced:
    wall_s: float  # the call's wall time, probes included
    cpu_s: float  # the call's own process CPU time, probes left out
    paced_s: float  # cpu_s at the reference speed
    probes: int


def paced_time(marks: List[Tuple[float, float]], ref_s: float, wall_s: float) -> Paced:
    """Paced time of a call from its probes' (start, end) CPU-time marks, in
    order; the first probe ran just before the call and the last just after."""
    durations = [end - start for start, end in marks]
    cpu = paced = 0.0
    for k in range(1, len(marks)):
        stretch = marks[k][0] - marks[k - 1][1]
        local = statistics.median(durations[max(0, k - NEIGHBOURS):k + NEIGHBOURS])
        cpu += stretch
        paced += stretch * ref_s / local
    return Paced(wall_s, cpu, paced, len(marks))


def pace(call: Callable[[], object], probe: Callable[[], None],
         ref_s: float) -> Tuple[object, Paced]:
    """Run ``call()`` on the main thread with the probe ticking beside it;
    its result and its timing."""
    marks: List[Tuple[float, float]] = []

    def tick(*_) -> None:
        start = time.process_time()
        probe()
        marks.append((start, time.process_time()))

    previous = signal.signal(signal.SIGALRM, tick)
    tick()
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        result = call()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    tick()
    return result, paced_time(marks, ref_s, wall)
