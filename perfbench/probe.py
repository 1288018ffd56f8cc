"""Machine-speed probe: a fixed pure-Python workload sampled during rounds.

The probe imports only the standard library and nothing from ``repro``,
so no change to the simulator can make it faster or slower; its time
measures only how fast this machine runs Python right now.  Its mix
mirrors what the simulator's hot paths do: a heap-ordered event queue,
closure dispatch, attribute access on slotted records, dictionary
counters and pseudo-random floats.

On a shared machine the speed of Python code swings by up to 2x within
fractions of a second, so a probe run *between* rounds misses the speed
a round actually ran at.  :class:`SpeedSampler` instead interrupts the
round every ``SAMPLE_INTERVAL_S`` (``SIGALRM``) and runs one short probe,
so the probe samples exactly the interval the round occupied.  A round's
*active* time excludes the probe time, and its calibrated time is::

    active seconds * REFERENCE_PROBE_S / (mean probe time during the round)

that is, seconds on a machine whose probe takes exactly
``REFERENCE_PROBE_S``.
"""

from __future__ import annotations

import gc
import heapq
import random
import signal
from time import perf_counter

#: Probe time of the reference machine (a 2-core x86-64 container running
#: CPython 3.11, median of many samples).  Changing it rescales every
#: calibrated metric, so it stays fixed once committed.
REFERENCE_PROBE_S = 0.00125

#: Events one probe pushes through its queue (about a millisecond).
PROBE_EVENTS = 500

#: Interval between probe samples while a round runs.
SAMPLE_INTERVAL_S = 0.02


class _Record:
    __slots__ = ("time", "tag", "acc")

    def __init__(self, time: float, tag: int) -> None:
        self.time = time
        self.tag = tag
        self.acc = 0.0


def _handler(offset: int):
    def handle(now: float, record: _Record) -> int:
        record.acc += now * 1e-9 + offset
        return record.tag & 7

    return handle


def probe_work(events: int = PROBE_EVENTS) -> int:
    """Run the fixed probe workload; returns a deterministic checksum."""
    rng = random.Random(12345)
    handlers = [_handler(offset) for offset in range(16)]
    heap: list[tuple[float, int, object, _Record]] = []
    counts: dict[int, int] = {}
    recent: list[tuple[float, float]] = []
    push, pop = heapq.heappush, heapq.heappop
    for index in range(events):
        time = rng.random() * 1000.0 + index
        push(heap, (time, index, handlers[index & 15], _Record(index, index)))
        if len(heap) > 64:
            time, _, handle, record = pop(heap)
            key = handle(time, record)
            counts[key] = counts.get(key, 0) + 1
            recent.append((time, record.acc))
            if len(recent) > 256:
                recent.clear()
    while heap:
        time, _, handle, record = pop(heap)
        key = handle(time, record)
        counts[key] = counts.get(key, 0) + 1
    return sum(key * count for key, count in counts.items())


class SpeedSampler:
    """Run one probe every ``SAMPLE_INTERVAL_S`` inside a ``with`` block.

    Samples are ``(start, duration)`` pairs on the ``perf_counter`` clock.
    Garbage collection is paused while a probe runs, so the probe never
    pays for collecting what the interrupted program left alive.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            probe_work()
            self.samples.append((start, perf_counter() - start))
        finally:
            if collecting:
                gc.enable()

    def __enter__(self) -> "SpeedSampler":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self._sample()

    @property
    def probe_s(self) -> float:
        """Total time spent probing."""
        return sum(duration for _, duration in self.samples)

    def probe_s_within(self, start: float, end: float) -> float:
        """Probe time of the samples that started in ``[start, end)``."""
        return sum(
            duration for begun, duration in self.samples if start <= begun < end
        )

    @property
    def mean_probe_s(self) -> float:
        """Mean probe time: the machine's speed during the block."""
        return self.probe_s / len(self.samples)

    @property
    def factor(self) -> float:
        """Multiplier turning host seconds into calibrated seconds."""
        return REFERENCE_PROBE_S / self.mean_probe_s
