"""Host-speed normalisation of the benchmark's timings.

The benchmark runs on shared hosts whose speed drifts by tens of
percent over minutes, with process CPU time tracking wall time, so
no amount of work inside one run steadies a plain wall-clock figure.
Each timed run therefore interleaves short bursts of a fixed
pure-Python reference loop (:func:`burst`) with its work, while the
program waits for them: between units of work, or from a timer between
bytecodes of a single-threaded program.  Each stretch of work is
scaled by the reference loop's speed on either side of it::

    scaled = work_seconds * REFERENCE_S / mean(burst before, burst after)

so a timing reads in seconds of a host that runs one burst in
:data:`REFERENCE_S`.  A change that makes the program faster or
slower moves the scaled figure exactly as it moves the raw one; a
host that slows down slows the bursts as well and leaves it in place.
The raw figures are printed beside the scaled ones.
"""

from __future__ import annotations

import contextlib
import signal
import time

#: Seconds one :func:`burst` takes on a quiet 2-vCPU Xeon host
#: (Python 3.11); it only fixes the scale of the scaled figures.
REFERENCE_S = 0.01
#: Bursts are this far apart (seconds of work), so they take about 4%
#: of a run.
EVERY_S = 0.25
_STEPS = 60_000
_TABLE = list(range(256))


def _loop(table, steps):
    """A fixed slice of interpreter work: integer arithmetic, list
    indexing and branches, allocating no containers (so it never
    triggers the garbage collector, whatever the program left on the
    heap)."""
    total = 0
    mask = len(table) - 1
    for step in range(steps):
        value = table[(step * 7) & mask]
        total = (total + value * step) % 1000003
        if value & 1:
            total = abs(total - step)
    return total


def burst() -> float:
    """Wall seconds the reference loop takes once.  It runs without a
    break, so whatever slows the host (other processes included) slows
    it as it slows the program."""
    began = time.perf_counter()
    _loop(_TABLE, _STEPS)
    return time.perf_counter() - began


def scaled(seconds, before, after):
    """*seconds* of work between bursts *before* and *after*, in
    reference-host seconds."""
    return seconds * REFERENCE_S / ((before + after) / 2.0)


def scaled_samples(measure, count, probe=burst):
    """Run ``measure()`` *count* times with a burst before and after
    each; returns (raw seconds, scaled seconds) lists."""
    raw, out = [], []
    before = probe()
    for _ in range(count):
        seconds = measure()
        after = probe()
        raw.append(seconds)
        out.append(scaled(seconds, before, after))
        before = after
    return raw, out


class Meter:
    """Work time of one run, raw and scaled.

    Construct it just before the work starts and call :meth:`tick`
    between units of work, or run the work inside :meth:`ticking`; a
    tick at least :data:`EVERY_S` after the previous burst runs a burst
    and closes the stretch of work since it.  :meth:`close` closes the
    last stretch.  Burst time is not work time.
    """

    def __init__(self, every=EVERY_S, clock=time.perf_counter,
                 probe=burst):
        self.every = every
        self._clock = clock
        self._probe = probe
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self.bursts = [probe()]
        self._mark = clock()

    def tick(self, force=False):
        now = self._clock()
        if not force and now - self._mark < self.every:
            return
        work = now - self._mark
        speed = self._probe()
        self.raw_s += work
        self.scaled_s += scaled(work, self.bursts[-1], speed)
        self.bursts.append(speed)
        self._mark = self._clock()

    @contextlib.contextmanager
    def ticking(self):
        """Tick from a ``SIGPROF`` handler every :attr:`every` seconds
        of the process's CPU time, on the main thread of a
        single-threaded program: the bursts sample the host evenly,
        whatever the program calls, and start at no fixed point of a
        scheduler time slice (a wall-clock timer would start them just
        after the process is scheduled in, when nothing has yet
        competed with it)."""
        def handler(signum, frame):
            self.tick(force=True)
            signal.setitimer(signal.ITIMER_PROF, self.every)

        previous = signal.signal(signal.SIGPROF, handler)
        signal.setitimer(signal.ITIMER_PROF, self.every)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)
        self.close()

    def close(self):
        self.tick(force=True)
        return self

    def summary(self) -> dict:
        return {"raw_s": self.raw_s, "scaled_s": self.scaled_s,
                "bursts": len(self.bursts),
                "burst_mean_s": sum(self.bursts) / len(self.bursts)}
