"""Correctness checks, content digests and the CLI round-trip sequence.

Nothing here imports coarselab, so the benchmark's parent process can
check CLI outputs without loading the library it measures.  Digests hash
content (piece membership with colours, map assignments, net points with
edges), not file bytes, so metadata added to an artifact later does not
change them while a changed piece does.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os


class Checks:
    """Named pass/fail operations with witnesses and notes."""

    def __init__(self, pins: dict):
        self.pins = pins
        self.items: list[dict] = []

    def add(self, name: str, ok: bool, witness=None, **notes) -> None:
        item = {"name": name, "pass": bool(ok), "witness": witness}
        item.update(notes)
        self.items.append(item)

    def digest(self, name: str, actual: str) -> None:
        pinned = self.pins.get(name)
        self.add(f"digest:{name}", actual == pinned,
                 None if actual == pinned else {"pinned": pinned, "actual": actual})


def _sha(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def net_digest(space) -> str:
    """Point payloads (by repr) then edges i<j, in index order."""
    edges = (f"{i},{j}" for i, nbrs in enumerate(space.adj) for j in nbrs if j > i)
    return _sha(itertools.chain(map(repr, space.points), ["--"], edges))


def membership_digest(pieces, colors=None) -> str:
    """Sorted piece membership with colours, in piece order."""
    colors = colors if colors is not None else [None] * len(pieces)
    return _sha(f"{c}:{sorted(p)}" for p, c in zip(pieces, colors))


def assignment_digest(assignment) -> str:
    return _sha(map(str, assignment))


# -- cli-roundtrip: the README sequence, one process per command ------------


def cli_commands(seed: int, d: str) -> list[list[str]]:
    """The command sequence; every path lies under ``d``."""
    j = os.path.join
    s = ["--seed", str(seed)]
    return [
        ["space", "--model", "h2", "--ball", "10", "--sep", "0.8",
         "--threshold", "1.6", "--out", j(d, "net")],
        ["build", "tiling", "--r", "1", "--ball", "10", "--sep", "0.8",
         "--threshold", "1.6", "--out", j(d, "tiling")],
        ["verify", j(d, "tiling", "decomposition.json"), "--checks",
         "disjointness,coverage,multiplicity:R=0.5:model=1",
         "--out", j(d, "verify-tiling")],
        ["analyze", "escalation", "--cover", j(d, "tiling", "decomposition.json"),
         "--s", "2", "--m", "1", *s, "--out", j(d, "escalation")],
        ["analyze", "growth", "--space", j(d, "net", "space.json"), *s,
         "--out", j(d, "growth-h2")],
        ["build", "walk", "--n-max", "12", "--out", j(d, "walk")],
        ["verify", j(d, "walk", "walk.json"), "--checks", "fibers:max=3,adjacent",
         "--out", j(d, "verify-walk")],
        ["analyze", "distortion", "--map", j(d, "walk", "walk.json"),
         "--anchored", "0", *s, "--out", j(d, "distortion")],
        ["build", "comb", "--d", "2", "--extent", "30", "--out", j(d, "comb")],
        ["analyze", "growth", "--space", j(d, "comb", "space.json"), *s,
         "--out", j(d, "growth-comb")],
        ["report", j(d, "tiling", "build-tiling.manifest.json")],
        ["report", j(d, "walk", "build-walk.manifest.json")],
        ["report", j(d, "comb", "build-comb.manifest.json")],
    ]


def command_name(argv: list[str]) -> str:
    """``build tiling`` -> ``build-tiling``; ``verify x`` -> ``verify``."""
    if argv[0] in ("build", "analyze"):
        return f"{argv[0]}-{argv[1]}"
    return argv[0]


def _csv_rows(path: str) -> list[str]:
    """Data rows of a CSV table (a table carries no metadata fields)."""
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()[1:]


def _json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_cli_outputs(d: str, reports: dict, checks: Checks) -> int:
    """Check what the commands wrote; returns the points of the written spaces.

    ``reports`` maps each ``report`` command's manifest path to its stdout.
    """
    j = os.path.join
    for sub in ("verify-tiling", "verify-walk"):
        rep = _json(j(d, sub, "verification.json"))
        failed = [c for c in rep["checks"] if not c["pass"]]
        checks.add(f"cli:{sub}:all_pass", rep["all_pass"], failed or None)
    for path, out in reports.items():
        lines = [ln for ln in out.splitlines() if ln.startswith("output ")]
        bad = [ln for ln in lines if not ln.endswith("[ok]")]
        checks.add(f"cli:report:{os.path.basename(path)}", lines and not bad,
                   bad or None)
    dec = _json(j(d, "tiling", "decomposition.json"))
    checks.digest("cli.decomposition", membership_digest(
        [p["points"] for p in dec["pieces"]], [p["colour"] for p in dec["pieces"]]))
    walk = _json(j(d, "walk", "walk.json"))
    checks.digest("cli.walk", assignment_digest(t for _, t in walk["pairs"]))
    net_pts = _csv_rows(j(d, "net", "points.csv"))
    checks.digest("cli.net", _sha(itertools.chain(
        net_pts, ["--"], _csv_rows(j(d, "net", "edges.csv")))))
    comb_pts = _csv_rows(j(d, "comb", "points.csv"))
    return len(net_pts) + len(walk["pairs"]) + len(comb_pts)
