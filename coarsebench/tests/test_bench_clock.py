"""Tests of the benchmark's reference clock.

Run with ``python3 -m pytest coarsebench/tests`` from the checkout root.
"""

import os
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from clock import EDGE_LOOPS, PERIOD_S, REF_LOOP_S, RefClock  # noqa: E402


def test_pieces_are_divided_by_the_loop_speed_around_them():
    clock = RefClock(ticks=False)
    # loops of 1, 1, 2 and 2 s with pieces of 10 s between them
    clock.loops = [(0.0, 1.0), (11.0, 12.0), (22.0, 24.0), (34.0, 36.0)]
    r = clock.result()
    assert r["raw_s"] == 30.0
    assert r["loops_s"] == 6.0
    assert r["loops"] == 4
    # running medians over 5 loops: 1, 1.5, 1.5, 2
    expected = 10 / 1.25 + 10 / 1.5 + 10 / 1.75
    assert abs(r["ref"] - expected) < 1e-9
    assert abs(r["ref_s"] - expected * REF_LOOP_S) < 1e-12


def test_one_slow_loop_does_not_move_the_speed():
    clock = RefClock(ticks=False)
    clock.loops = [(10.0 * i, 10.0 * i + 1.0) for i in range(9)]
    clock.loops[4] = (36.0, 41.0)  # an interrupted loop, 5 times as long
    r = clock.result()
    assert r["ref"] == r["raw_s"] == 8 * 9.0 - 4.0


def test_ticks_run_loops_during_the_work_and_restore_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    clock = RefClock(ticks=True)
    clock.start()
    end = time.perf_counter() + 3 * PERIOD_S
    while time.perf_counter() < end:
        sum(range(1000))
    r = clock.stop()
    assert r["loops"] >= 2 * EDGE_LOOPS + 2
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 0.8 * 3 * PERIOD_S < r["raw_s"] < 3 * PERIOD_S + 0.5
    assert r["ref"] > 0


def test_without_ticks_only_the_edge_loops_run():
    clock = RefClock(ticks=False)
    clock.start()
    time.sleep(2 * PERIOD_S)
    assert clock.stop()["loops"] == 2 * EDGE_LOOPS
