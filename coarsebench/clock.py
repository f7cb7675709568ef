"""A clock that times work in units of a fixed reference loop.

The shared 2-core hosts this benchmark runs on change speed by themselves:
the fastest run of a fixed pure-Python loop moves by about 15 % between
20-s stretches, and its median by 30 % and more.  No choice of repetitions
or statistic over wall seconds removes that drift.  What does is to time a
fixed reference loop next to the work, in the same process, and to divide.

``RefClock.start`` runs the reference loop ``EDGE_LOOPS`` times and, with
``ticks``, arms a one-shot ``SIGALRM`` timer that runs it again every
``PERIOD_S`` and re-arms itself.  ``RefClock.stop`` disarms the timer and
runs the loop ``EDGE_LOOPS`` times more.  The work between two consecutive
loop runs is one piece; it is divided by the running median of the loop
durations around it.  So ``ref`` is the work's duration in reference
loops, measured at the speed the host had while the work ran, and
``ref_s`` is the same in reference seconds: the seconds the work would
take on a host on which one loop takes ``REF_LOOP_S``.  ``raw_s`` is its
duration in wall seconds with the loop runs left out.  A signal handler
runs between bytecodes, so a long native call is one piece, normalised by
the loop runs at its two ends.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.2    # work between two reference loops, while ticking
LOOP_N = 40_000   # iterations of the reference loop, about 5 ms
REF_LOOP_S = 0.005  # one reference second: 200 loops
EDGE_LOOPS = 3    # loops run back to back by start and by stop
SMOOTH = 5        # window of the running median over loop durations


def reference_loop(n: int = LOOP_N) -> int:
    """Fixed pure-Python work: integer arithmetic and list and dict traffic,
    as in the library's per-point code."""
    acc, seen, buf = 0, {}, []
    for i in range(n):
        acc = (acc + i * i) % 1_000_003
        buf.append(acc)
        seen[acc & 255] = i
    return acc + len(seen) + len(buf)


class RefClock:
    def __init__(self, ticks: bool = True):
        self.ticks = ticks
        self.loops: list[tuple[float, float]] = []  # (start, end) per loop
        self._running = False
        self._previous = None

    def _loop(self) -> None:
        t0 = time.perf_counter()
        reference_loop()
        self.loops.append((t0, time.perf_counter()))

    def _tick(self, signum, frame) -> None:
        if self._running:
            self._loop()
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def start(self) -> None:
        for _ in range(EDGE_LOOPS):
            self._loop()
        if self.ticks:
            self._running = True
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def stop(self) -> dict:
        if self.ticks:
            self._running = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        for _ in range(EDGE_LOOPS):
            self._loop()
        return self.result()

    def result(self) -> dict:
        """``raw_s``, ``ref`` and ``ref_s`` of the work between the first and
        the last loop; ``loop_s`` the median loop duration, ``loops_s`` the
        time all loops took."""
        dur = [t1 - t0 for t0, t1 in self.loops]
        half = SMOOTH // 2
        smooth = [statistics.median(dur[max(0, i - half):i + half + 1])
                  for i in range(len(dur))]
        raw = ref = 0.0
        for i in range(len(self.loops) - 1):
            piece = self.loops[i + 1][0] - self.loops[i][1]
            raw += piece
            ref += piece / ((smooth[i] + smooth[i + 1]) / 2)
        return {"raw_s": raw, "ref": ref, "ref_s": ref * REF_LOOP_S,
                "loop_s": statistics.median(dur),
                "loops_s": sum(dur), "loops": len(dur)}
