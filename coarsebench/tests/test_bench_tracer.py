"""Tests of the benchmark's tracer, layer list and digests.

Run with ``python3 -m pytest coarsebench/tests`` from the checkout root.
"""

import json
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

from checks import (Checks, cli_commands, command_name,  # noqa: E402
                    membership_digest)
from layers import LAYERS, TARGETS  # noqa: E402
from tracer import Target, Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def _module(name, **attrs):
    mod = types.ModuleType(name)
    for k, v in attrs.items():
        setattr(mod, k, v)
    return mod


def test_self_time_of_nested_calls():
    clock = FakeClock()
    tracer = Tracer(clock=clock, maxrss=lambda: 0.0)

    def leaf():
        clock.advance(2.0)

    def mid():
        clock.advance(1.0)
        leaf_t()
        clock.advance(0.5)
        leaf_t()

    def outer():
        clock.advance(3.0)
        mid_t()

    leaf_t = tracer.traced("m.leaf", leaf)
    mid_t = tracer.traced("m.mid", mid)
    outer_t = tracer.traced("m.outer", outer)
    outer_t()
    clock.advance(10.0)  # outside any span
    outer_t()

    s = tracer.summary()
    assert s["m.leaf"] == {"calls": 4, "total_s": 8.0, "self_s": 8.0}
    assert s["m.mid"] == {"calls": 2, "total_s": 11.0, "self_s": 3.0}
    assert s["m.outer"] == {"calls": 2, "total_s": 17.0, "self_s": 6.0}
    assert tracer.top_level_s() == 17.0
    assert tracer.calls_under("m.leaf", "m.mid") == 4
    assert tracer.calls_under("m.mid", "m.leaf") == 0


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock=clock, maxrss=lambda: 0.0)

    def boom():
        clock.advance(1.0)
        raise KeyError("x")

    boom_t = tracer.traced("m.boom", boom)
    with pytest.raises(KeyError):
        boom_t()
    assert tracer.stack == []
    assert tracer.summary()["m.boom"]["self_s"] == 1.0


def test_install_rebinds_aliases_and_methods():
    def gen(n):
        return list(range(n))

    class Space:
        def query(self, k):
            return k * 2

    lib = _module("lib", gen=gen, Space=Space)
    user = _module("user", gen=gen, make=gen)  # ``from lib import gen``
    tracer = Tracer(maxrss=lambda: 0.0)
    tracer.install([Target("lib", "gen", after=lambda r, a, k: {"lib.items": len(r)}),
                    Target("lib", "Space.query",
                           before=lambda a, k: {"lib.small": int(a[1] < 3)})],
                   {"lib": lib, "user": user})

    assert user.gen is lib.gen and user.make is lib.gen
    assert lib.gen.__wrapped__ is gen
    assert user.make(3) == [0, 1, 2]
    lib.gen(2)
    assert Space().query(2) == 4 and Space().query(5) == 10
    s = tracer.summary()
    assert s["lib.gen"]["calls"] == 2
    assert s["lib.Space.query"]["calls"] == 2
    assert tracer.counters == {"lib.items": 5, "lib.small": 1}
    assert tracer.absent == []


def test_missing_names_are_absent_not_fatal():
    lib = _module("lib", present=lambda: 1)
    tracer = Tracer(maxrss=lambda: 0.0)
    tracer.install([Target("lib", "removed"), Target("lib", "Gone.method"),
                    Target("nomodule", "f"), Target("lib", "present")],
                   {"lib": lib})
    assert tracer.absent == ["lib.removed", "lib.Gone.method", "nomodule.f"]
    assert lib.present() == 1
    assert tracer.summary()["lib.present"]["calls"] == 1


def test_rss_growth_is_recorded_for_top_level_spans_only():
    rss = iter([100.0, 150.0, 150.0, 170.0])
    tracer = Tracer(maxrss=lambda: next(rss))
    inner = tracer.traced("m.inner", lambda: None)
    outer = tracer.traced("m.outer", lambda: inner())
    outer()
    outer()
    assert tracer.rss_delta == {"m.outer": 70.0}


def test_layer_targets_name_real_layers():
    assert {t.module for t in TARGETS} <= set(LAYERS)
    names = [f"{t.module}.{t.qualname}" for t in TARGETS]
    assert len(names) == len(set(names))
    # per-point helpers stay unwrapped
    for helper in ("point_distance", "point_key", "model_distance",
                   "SpaceGraph.model_distance", "SpaceGraph.index_of",
                   "walk_value"):
        assert helper not in {t.qualname for t in TARGETS}


def test_every_per_layer_metric_has_a_source():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    wrapped = {f"{t.module}.{t.qualname}" for t in TARGETS}
    counters = {"spaces.net_points", "spaces.net_edges", "spaces.product_points",
                "constructions.tiles", "covers.violations", "covers.pieces_out",
                "artifacts.bytes_written", "spaces.range_queries_per_snap",
                "spaces.SpaceGraph.graph_distances.small_n_calls",
                "spaces.SpaceGraph.points_within.small_n_calls",
                "covers.check_disjointness.small_n_calls"}
    commands = {command_name(a) for a in cli_commands(0, "d")}
    for spec in bench["per_layer"]:
        name = spec["name"]
        base, _, suffix = name.rpartition(".")
        ok = (name in counters
              or (suffix in ("calls", "self_s", "rss_delta_mb") and base in wrapped)
              or name.split(".")[0] in ("trace", "proc")
              or (name.startswith("cli.") and suffix in ("wall_s", "setup_s")
                  and name.split(".")[1] in commands))
        assert ok, name


def test_membership_digest_ignores_set_order_but_not_membership():
    a = membership_digest([frozenset({3, 1, 2}), frozenset({5})], [0, 1])
    assert a == membership_digest([{2, 3, 1}, {5}], [0, 1])
    assert a != membership_digest([{1, 2}, {3, 5}], [0, 1])
    assert a != membership_digest([{1, 2, 3}, {5}], [1, 0])


def test_digest_check_records_witness():
    checks = Checks({"x": "abc"})
    checks.digest("x", "abc")
    checks.digest("x", "abd")
    checks.digest("y", "abc")
    assert [c["pass"] for c in checks.items] == [True, False, False]
    assert checks.items[1]["witness"] == {"pinned": "abc", "actual": "abd"}


def test_command_names():
    assert command_name(["build", "tiling", "--r", "1"]) == "build-tiling"
    assert command_name(["verify", "x.json"]) == "verify"
    assert command_name(["report", "m.json"]) == "report"
