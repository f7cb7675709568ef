"""Deterministic file formats: manifests, exports, verification reports.

Everything is JSON (with CSV twins for tables), canonically serialised:
sorted keys, no whitespace, one trailing newline, floats via repr.  The
same manifest always reproduces byte-identical artifacts, so files can
reference spaces by manifest + hash instead of shipping point lists.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Optional

import numpy as np

from .covers import ColoredDecomposition, Cover
from .errors import SchemaError
from .spaces import (CombNode, HalfPlane, HalfSpace, SpaceGraph, TreeAddress,
                     TuplePoint, ZPoint, build_product, generate_net)

__all__ = [
    "canonical_json",
    "sha256_text",
    "space_manifest",
    "space_from_manifest",
    "points_csv",
    "cover_to_dict",
    "cover_from_dict",
    "map_to_dict",
    "map_from_dict",
    "verification_report",
    "write_text",
]

SCHEMA_VERSION = 1
TOOL_VERSION = "0.1.0"


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False) + "\n"


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_text(path: str, text: str) -> str:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return sha256_text(text)


# ---------------------------------------------------------------------------
# space manifests


def space_manifest(model: str, window: dict, sep: float = 1.0,
                   edge_threshold: Optional[float] = None,
                   factors: Optional[list] = None) -> dict:
    m = {"version": SCHEMA_VERSION, "model": model, "window": window,
         "sep": sep, "edge_threshold": edge_threshold}
    if model == "product":
        if not factors:
            raise SchemaError("product manifests need factor manifests")
        m["factors"] = factors
    return m


def manifest_hash(manifest: dict) -> str:
    return sha256_text(canonical_json(manifest))


def space_from_manifest(manifest: dict) -> SpaceGraph:
    try:
        model = manifest["model"]
        window = dict(manifest["window"])
        sep = manifest.get("sep", 1.0)
        thr = manifest.get("edge_threshold")
    except (KeyError, TypeError) as e:
        raise SchemaError(f"bad space manifest: {e}") from e
    if model == "product":
        spaces = [space_from_manifest(f) for f in manifest["factors"]]
        pwin = None
        if window.get("kind") == "l1_ball":
            pwin = {"kind": "l1_ball", "radius": window["radius"],
                    "centers": window["centers"]}
        return build_product(spaces, window=pwin)
    if model == "walk_target":
        from .constructions import walk_target

        return walk_target(int(window["n_max"]))
    return generate_net(model, window, sep=sep, edge_threshold=thr)


def _point_row(i: int, p) -> list[str]:
    if isinstance(p, HalfPlane):
        return [str(i), "h2", repr(p.x), repr(p.y)]
    if isinstance(p, HalfSpace):
        return [str(i), "hd", *[repr(x) for x in p.xs], repr(p.y)]
    if isinstance(p, TreeAddress):
        return [str(i), "t3", "".join(map(str, p.word))]
    if isinstance(p, ZPoint):
        return [str(i), "z", str(p.n)]
    if isinstance(p, CombNode):
        return [str(i), "comb", str(p.base), "/".join(map(str, p.offsets))]
    if isinstance(p, TuplePoint):
        cells = []
        for part in p.parts:
            cells.append("|".join(_point_row(0, part)[1:]))
        return [str(i), "prod", *cells]
    raise SchemaError(f"unexportable point {p!r}")


def points_csv(space: SpaceGraph) -> str:
    lines = ["index,kind,coords"]
    for i, p in enumerate(space.points):
        row = _point_row(i, p)
        lines.append(",".join(row[:2]) + "," + ";".join(row[2:]))
    return "\n".join(lines) + "\n"


def edges_csv(space: SpaceGraph) -> str:
    i = np.repeat(np.arange(space.n), np.diff(space.indptr))
    j = space.indices
    lines = ["a,b", *map("{},{}".format, i[j > i].tolist(), j[j > i].tolist())]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# covers and decompositions


def cover_to_dict(cover, space_ref: dict) -> dict:
    flat, ends = cover.pieces.pts.tolist(), cover.pieces.ptr.tolist()
    d = {"version": SCHEMA_VERSION, "space_ref": space_ref,
         "pieces": [{"id": i, "points": flat[a:b]}
                    for i, (a, b) in enumerate(zip(ends[:-1], ends[1:]))]}
    if isinstance(cover, ColoredDecomposition):
        for rec, c in zip(d["pieces"], cover.colors):
            rec["colour"] = c
        d["r"] = cover.r
        d["d"] = cover.d
        d["partition"] = cover.partition
        d["provenance"] = _plain(cover.provenance)
    elif cover.labels:
        for rec, lab in zip(d["pieces"], cover.labels):
            rec["label"] = lab
    return d


def _plain(obj):
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (int, float, str, bool)) or obj is None:
        return obj
    return repr(obj)


def cover_from_dict(d: dict, space: SpaceGraph):
    try:
        pieces = [rec["points"] for rec in d["pieces"]]
        if any("colour" in rec for rec in d["pieces"]):
            colors = [rec["colour"] for rec in d["pieces"]]
            return ColoredDecomposition(
                space=space, pieces=pieces, colors=colors,
                r=d.get("r", 0.0), d=d.get("d", max(colors)),
                partition=d.get("partition", False))
        labels = [rec.get("label") for rec in d["pieces"]]
        if any(lab is None for lab in labels):
            labels = None
        return Cover(space=space, pieces=pieces, labels=labels)
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaError(f"bad cover file: {e}") from e


# ---------------------------------------------------------------------------
# map records


def map_to_dict(m, source_ref: dict, target_ref: dict) -> dict:
    return {"version": SCHEMA_VERSION, "source_ref": source_ref,
            "target_ref": target_ref,
            "pairs": [[i, j] for i, j in enumerate(m.assignment)],
            "provenance": _plain(m.provenance)}


def map_from_dict(d: dict, source: SpaceGraph, target: SpaceGraph):
    from .constructions import MapRecord

    try:
        pairs = d["pairs"]
        assignment = [0] * len(pairs)
        for i, j in pairs:
            assignment[i] = j
        return MapRecord(source=source, target=target, assignment=assignment,
                         provenance=d.get("provenance", {}))
    except (KeyError, TypeError, IndexError) as e:
        raise SchemaError(f"bad map file: {e}") from e


# ---------------------------------------------------------------------------
# verification reports


def verification_report(checks: list[dict]) -> dict:
    return {"version": SCHEMA_VERSION,
            "all_pass": all(c["pass"] for c in checks),
            "checks": [_plain(c) for c in checks]}
