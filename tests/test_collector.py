"""The cyclic collector around bulk point builds.

``spaces._collector_paused`` pauses the collector only if it runs, and
restores the caller's setting on the way out, also when the body raises.
``SpaceGraph._take`` builds its points inside it on every model, and
leaves ``gc.isenabled()`` as it found it.  A guard scans the library so
that no other code touches ``gc``.
"""

from __future__ import annotations

import ast
import gc
import pathlib

import pytest

from coarselab import spaces
from coarselab.spaces import build_product, generate_net


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    """The collector set to the parameter for the test, then restored."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def test_pause_restores_the_setting(collector):
    with spaces._collector_paused():
        assert not gc.isenabled()
    assert gc.isenabled() == collector


def test_pause_restores_the_setting_when_the_body_raises(collector):
    with pytest.raises(ZeroDivisionError):
        with spaces._collector_paused():
            assert not gc.isenabled()
            1 / 0
    assert gc.isenabled() == collector


NETS = {
    "z": lambda: generate_net("z", {"lo": -6, "hi": 6}),
    "t3": lambda: generate_net("t3", {"radius": 3}),
    "product": lambda: build_product([generate_net("z", {"lo": -2, "hi": 2}),
                                      generate_net("t3", {"radius": 2})]),
}


@pytest.mark.parametrize("name", list(NETS))
def test_take_builds_with_the_collector_paused(name, collector, monkeypatch):
    net = NETS[name]()
    seen = []
    pause = spaces._collector_paused

    def recorded():
        seen.append(gc.isenabled())
        return pause()

    monkeypatch.setattr(spaces, "_collector_paused", recorded)
    pts = net.points
    assert len(list(pts)) == net.n and seen
    assert gc.isenabled() == collector
    # a product's factors build inside its pause
    assert seen[1:] == [False] * (len(seen) - 1)


SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "coarselab"


def test_only_the_pause_touches_the_collector():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        for node in ast.walk(tree):
            if (path.name == "spaces.py" and isinstance(node, ast.FunctionDef)
                    and node.name == "_collector_paused"):
                allowed |= {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                uses = any(a.name.split(".")[0] == "gc" for a in node.names)
                # spaces.py imports the module once, for the pause
                uses = uses and not (path.name == "spaces.py"
                                     and node.col_offset == 0
                                     and [a.name for a in node.names] == ["gc"])
            elif isinstance(node, ast.ImportFrom):
                uses = (node.module or "").split(".")[0] == "gc"
            elif isinstance(node, ast.Name):
                uses = node.id == "gc" and id(node) not in allowed
            elif isinstance(node, ast.Constant):
                uses = node.value == "gc"  # __import__("gc") and the like
            else:
                uses = False
            if uses:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
