"""Host-speed normalisation: wall time converted to reference time.

On a shared virtual machine each vCPU runs fast or slow for a second or
a few at a time, independently of the other vCPU and by up to 1.6x,
as the host core under it is busy with other guests or not.  A run of
some seconds of ops therefore measures the host as much as the program.
To take the host out, a fixed calibration loop (:func:`unit`) runs on
the same CPU as the measured work at short intervals, and every stretch
of wall time between two calibrations is scaled by ``REFERENCE_UNIT_S``
over the loop's local duration (the median of the calibrations around
it).  Each calibration is one run of the loop straight after the
measured work, on the caches as the work left them: a loop timed on
warm caches is purely core-bound and slows down more than the program
does in a slow stretch, while this first run tracks the program
(``perfbench/README.md`` has the comparison).  The result is the time
the work would have taken at the reference speed: the speed at which
one calibration loop takes ``REFERENCE_UNIT_S``.  A program that does more work takes more
reference time; only the host's speed cancels out.

Samples come from one of two places:

* :class:`Sampler` runs the loop from ``SIGALRM`` every ``PERIOD``
  seconds inside the measured process (in the main thread, between
  bytecodes), for work the benchmark cannot split itself, such as one
  ``MassModel.fit`` call;
* :meth:`Samples.calibrate`, called by a client between its requests,
  when the client shares one CPU with the server it waits on.

Calibration time is never counted as work: the reference clock stands
still while the loop runs.  All times are ``time.perf_counter()``, the
clock of the benchmark's and the program's spans.
"""

from __future__ import annotations

import bisect
import signal
import time

#: The calibration loop's duration at the reference speed (seconds),
#: about its median duration on the development VM, so reference times
#: read like wall times there.
REFERENCE_UNIT_S = 0.0003
#: Seconds between two calibrations (in-process sampler and client).
PERIOD = 0.025
#: Calibrations on each side of a stretch whose median gives its speed.
HALF_WINDOW = 3

_KEYS = [f"k{i % 61}" for i in range(600)]


def unit() -> None:
    """The calibration loop: a fixed mix of what the program's Python
    does — dict updates keyed by strings, list appends, float
    arithmetic, calls and a small sort."""
    counts: dict[str, float] = {}
    out = []
    acc = 0.0
    for index, key in enumerate(_KEYS):
        counts[key] = counts.get(key, 0.0) + index * 0.5
        acc += abs(index - 300) * 1.0001
        if index % 8 == 0:
            out.append((acc, key))
    out.sort()


class Samples:
    """Calibration runs ``(start, end)`` in time order, and the
    reference clock they define."""

    def __init__(self, runs: list | None = None):
        self.runs: list[tuple[float, float]] = [
            tuple(run) for run in runs or []]
        self._index: tuple | None = None

    def calibrate(self) -> None:
        """Run the calibration loop now and record it."""
        start = time.perf_counter()
        unit()
        self.runs.append((start, time.perf_counter()))

    def clock(self, t: float) -> float:
        """Reference seconds at wall time ``t`` (0 at the first run)."""
        starts, ends, refs, scales = self._build()
        i = bisect.bisect_right(starts, t) - 1
        if i < 0:
            return (t - starts[0]) * scales[0]
        if t <= ends[i]:
            return refs[i]
        return refs[i] + (t - ends[i]) * scales[i + 1]

    def reference_time(self, start: float, end: float) -> float:
        """Reference seconds of work from ``start`` to ``end``."""
        return self.clock(end) - self.clock(start)

    def remap(self, spans: list[dict]) -> list[dict]:
        """Spans with start and end moved onto the reference clock."""
        return [dict(span, start=self.clock(span["start"]),
                     end=self.clock(span["end"])) for span in spans]

    def _build(self):
        if self._index is not None and self._index[0] == len(self.runs):
            return self._index[1:]
        if not self.runs:
            raise RuntimeError("no calibration samples")
        starts = [start for start, _ in self.runs]
        ends = [end for _, end in self.runs]
        durations = [end - start for start, end in self.runs]
        # Gap g lies before run g (gap len(runs) after the last run).
        scales = []
        for gap in range(len(durations) + 1):
            lo = max(0, min(gap, len(durations)) - HALF_WINDOW)
            window = sorted(durations[lo:gap + HALF_WINDOW])
            scales.append(REFERENCE_UNIT_S / window[len(window) // 2])
        refs = [0.0]
        for i in range(1, len(starts)):
            refs.append(refs[-1] + (starts[i] - ends[i - 1]) * scales[i])
        self._index = (len(self.runs), starts, ends, refs, scales)
        return starts, ends, refs, scales


class Sampler(Samples):
    """Calibrates from ``SIGALRM`` every ``PERIOD`` s between
    :meth:`start` and :meth:`stop`."""

    def start(self) -> "Sampler":
        self._busy = False
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self.calibrate()
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.calibrate()

    def _tick(self, signum, frame) -> None:
        if not self._busy:   # a handler can be interrupted by the next
            self._busy = True
            try:
                self.calibrate()
            finally:
                self._busy = False
