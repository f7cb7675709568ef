"""The CLI never ends in a traceback: every argument shape exits 0, 2, 3, 4
or 5.

Commands run in-process on tiny windows; inputs are a handful of artifacts
built once.  An exception other than ``SystemExit`` escaping ``main`` is
the traceback a shell would print.
"""

from __future__ import annotations

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarselab.cli import main

EXIT_CODES = {0, 2, 3, 4, 5}


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and standard error of one command."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            rc = main(argv)
        except SystemExit as e:  # argparse rejections
            rc = e.code
    return rc, err.getvalue()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Paths of small artifacts for commands that read one."""
    d = tmp_path_factory.mktemp("inputs")
    for argv in (
            ["space", "--model", "z", "--range", "4", "--out", str(d / "z")],
            ["space", "--model", "h2", "--ball", "3", "--out", str(d / "h2")],
            ["build", "tiling", "--r", "1", "--ball", "3", "--out", str(d / "til")],
            ["build", "walk", "--n-max", "3", "--out", str(d / "walk")]):
        assert run(argv)[0] == 0
    return {"z": str(d / "z" / "space.json"), "h2": str(d / "h2" / "space.json"),
            "cover": str(d / "til" / "decomposition.json"),
            "map": str(d / "walk" / "walk.json"),
            "manifest": str(d / "walk" / "build-walk.manifest.json"),
            "missing": str(d / "missing.json"), "out": str(d / "out")}


@pytest.mark.parametrize("argv", [
    ["analyze", "defect", "--space", "{z}"],
    ["analyze", "sublinearity", "--cover", "{cover}", "--m-grid", "a,b"],
    ["analyze", "sublinearity", "--cover", "{cover}", "--m-grid", "0"],
    ["analyze", "escalation", "--cover", "{cover}", "--s", "0.5"],
    ["analyze", "escalation", "--cover", "{cover}", "--m", "-1"],
    ["analyze", "growth", "--space", "{h2}", "--center", "abc"],
    ["analyze", "growth", "--space", "{h2}", "--center", "99999"],
    ["build", "walk", "--n-max", "0"],
    ["build", "tiling", "--r", "-1"],
    ["space", "--model", "h2", "--sep", "-1"],
    ["space", "--model", "h2", "--sep", "nan"],
    ["build", "comb", "--d", "0"],
])
def test_bad_parameter_exits_2(inputs, argv):
    rc, err = run([a.format(**inputs) for a in argv] + ["--out", inputs["out"]])
    assert rc == 2
    assert "Traceback" not in err and err


NUMBERS = st.sampled_from(["-1", "0", "0.5", "1", "2", "nan", "inf"])
SMALL = st.integers(-1, 4).map(str)


def _options(draw, table: dict, window: dict) -> list[str]:
    """Some of the options of ``table`` and every one of ``window`` (the
    window sizes, kept tiny)."""
    argv = []
    for flag, values in table.items():
        value = draw(st.none() | values)
        if value is not None:
            argv += [flag, value]
    for flag, values in window.items():
        argv += [flag, draw(values)]
    return argv


@st.composite
def commands(draw, paths: dict) -> list[str]:
    """One command line of any subcommand, on windows of a few points."""
    path = st.sampled_from(sorted(paths.values()))
    command = draw(st.sampled_from(["space", "build", "verify", "analyze",
                                    "report"]))
    if command == "space":
        argv = ["space", "--model",
                draw(st.sampled_from(["z", "t3", "h2", "hd", "comb"]))]
        argv += _options(draw, {
            "--window-kind": st.sampled_from(["ball", "birad"]),
            "--d": SMALL,
            "--sep": st.sampled_from(["-1", "0", "0.7", "1", "nan"]),
            "--threshold": NUMBERS}, {
            "--range": SMALL, "--radius": SMALL, "--extent": SMALL,
            "--ball": st.sampled_from(["-1", "0", "0.5", "2", "nan"])})
    elif command == "build":
        kind = draw(st.sampled_from(["tiling", "walk", "bradyfarb", "comb",
                                     "product", "nerve"]))
        argv = ["build", kind]
        argv += _options(draw, {
            "--r": NUMBERS, "--sep": st.sampled_from(["-1", "0", "0.8", "1"]),
            "--threshold": NUMBERS, "--d": SMALL, "--cover": path,
            "--l1-radius": NUMBERS}, {
            "--n-max": SMALL, "--extent": SMALL,
            "--ball": st.sampled_from(["-1", "0", "1", "2", "nan"])})
        for factor in draw(st.lists(path, max_size=2)):
            argv += ["--factor", factor]
    elif command == "verify":
        checks = draw(st.lists(st.sampled_from(
            ["disjointness", "coverage", "coverage:min=2", "multiplicity",
             "multiplicity:R=1", "multiplicity:R=0.5:model=1", "fibers",
             "fibers:max=2", "adjacent", "nonsense", "fibers:max=x"]),
            min_size=1, max_size=3))
        argv = ["verify", draw(path), "--checks", ",".join(checks)]
    elif command == "analyze":
        argv = ["analyze", draw(st.sampled_from(
            ["growth", "distortion", "sublinearity", "defect", "escalation"]))]
        argv += _options(draw, {
            "--space": path, "--map": path, "--cover": path,
            "--center": st.sampled_from(["origin", "0", "-1", "abc", "99999"]),
            "--r-min": SMALL, "--anchored": SMALL,
            "--m-grid": st.sampled_from(["1,2", "a,b", "0", "-3,2", ""]),
            "--s": NUMBERS, "--m": SMALL, "--band": NUMBERS, "--r": NUMBERS,
            "--pair-cap": SMALL, "--seed": SMALL}, {})
    else:
        return ["report", draw(path)]
    return argv + ["--out", paths["out"]]


def test_argument_shapes_exit_documented_codes(inputs):
    @given(argv=commands(inputs))
    @settings(max_examples=80, deadline=None)
    def check(argv):
        rc, err = run(argv)
        assert rc in EXIT_CODES, (argv, rc, err)
        assert "Traceback" not in err

    check()
