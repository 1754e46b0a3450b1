"""The host's speed at a moment, read off a fixed probe kernel.

The benchmark runs on a few cores of a shared host whose speed swings by
a third or more for seconds at a time: one pure-Python loop timed back
to back for a minute on a 2-vCPU VM (2.1 GHz Xeon-class, Python 3.11)
took between 28 and 40 ms per call, in phases several seconds long.
Best-of and median over a run cannot remove a phase that outlasts the
run.

So every timed operation is bracketed by two probes: short runs of a
fixed kernel, the benchmark's own plain-DP DTW
(:func:`perfbench.oracle.dtw`) over seeded random walks, which shares no
code with the program.  An operation that runs longer than
``SAMPLE_EVERY`` is also probed while it runs, from a ``SIGALRM``
handler (Python runs it in the main thread between bytecodes); the
handler's own time is taken off the operation's.  An operation's
*normalized* time is its wall time scaled by ``REF_S`` over the
harmonic mean of its probes: the time it would have taken on a host
whose probe takes ``REF_S``.  The program's
own speed still shows in full, since a change that makes an operation
slower makes it slower next to the probe; the host's phases, which slow
the probe and the operation alike, cancel.
"""

from __future__ import annotations

import gc
import signal
import statistics
from typing import Any, Callable, List, Tuple

import numpy as np

from repro.cluster.clock import wall_clock

from .oracle import dtw

#: the probe's time in seconds in a fast phase of the host above, so
#: normalized figures read close to that host's wall times
REF_S = 0.65e-3
#: probe repeats (their median is taken) on either side of an operation
#: that runs for a large part of a second or more
LONG_REPS = 3
#: seconds between probes inside a running operation
SAMPLE_EVERY = 0.1


class HostSpeed:
    """Probe runs and the normalization they feed."""

    def __init__(self) -> None:
        # fixed, not the workload seed: the probe is the same in every run
        rng = np.random.default_rng(2018)
        walks = [np.cumsum(rng.normal(0.0, 1e-3, (24, 2)), axis=0) for _ in range(8)]
        self._pairs = list(zip(walks[:4], walks[4:]))
        #: every probe taken, in seconds
        self.taken: List[float] = []
        #: probes taken inside the running operation, and the seconds
        #: their handler spent
        self._inside: List[float] = []
        self._stolen = 0.0

    def probe(self, reps: int = 1) -> float:
        """Seconds one run of the kernel takes now (the median of ``reps``).
        The garbage collector is off meanwhile: a collection of the
        program's objects would otherwise land in the probe's time."""
        collecting = gc.isenabled()
        gc.disable()
        times = []
        try:
            for _ in range(reps):
                start = wall_clock()
                for a, b in self._pairs:
                    dtw(a, b)
                times.append(wall_clock() - start)
        finally:
            if collecting:
                gc.enable()
        spent = statistics.median(times)
        self.taken.append(spent)
        return spent

    def _tick(self, signum: int, frame: Any) -> None:
        start = wall_clock()
        self._inside.append(self.probe())
        self._stolen += wall_clock() - start

    def measure(self, fn: Callable[..., Any], *args: Any, reps: int = 1, **kwargs: Any) -> Tuple[Any, float, float]:
        """``(result, wall seconds, normalized seconds)`` of one call."""
        before = self.probe(reps)
        self._inside, self._stolen = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        start = wall_clock()
        try:
            out = fn(*args, **kwargs)
        finally:
            end = wall_clock()
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        spent = end - start - self._stolen
        # the work done is the time integral of the host's speed, and the
        # probes sample it evenly in time, so the mean speed (the harmonic
        # mean of probe times) scales the operation's time
        probe = statistics.harmonic_mean([before, *self._inside, self.probe(reps)])
        return out, spent, spent * REF_S / probe
