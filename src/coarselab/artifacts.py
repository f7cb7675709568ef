"""Deterministic file formats: manifests, exports, verification reports.

Everything is JSON (with CSV twins for tables), canonically serialised:
sorted keys, no whitespace, one trailing newline, floats via repr.  The
same manifest always reproduces byte-identical artifacts, so files can
reference spaces by manifest + hash instead of shipping point lists.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from typing import Optional

import numpy as np

from .covers import ColoredDecomposition, Cover
from .errors import SchemaError
from .spaces import _VIEW_BLOCK, SpaceGraph, build_product, generate_net

__all__ = [
    "canonical_json",
    "sha256_text",
    "space_manifest",
    "space_ref",
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


def space_ref(manifest: dict) -> dict:
    """How an artifact names the space ``manifest`` builds: the manifest
    and its hash."""
    return {"manifest": manifest, "hash": manifest_hash(manifest)}


def _space_at(d: dict, key: str) -> SpaceGraph:
    """The space the artifact ``d`` names under ``key``; a ref without a
    hash is taken as it is."""
    if key not in d:
        raise SchemaError(f"artifact lacks {key!r}")
    ref = d[key]
    if not isinstance(ref, dict) or "manifest" not in ref:
        raise SchemaError(f"{key} lacks a manifest")
    if "hash" in ref and ref["hash"] != manifest_hash(ref["manifest"]):
        raise SchemaError(f"{key} hash does not match its manifest")
    return space_from_manifest(ref["manifest"])


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _checked(value, name: str, integral: bool = False):
    """``value``, if it is a number (an int where ``integral``);
    :class:`SchemaError` naming the field ``name`` otherwise."""
    if not (_is_int if integral else _is_number)(value):
        kind = "an integer" if integral else "a number"
        raise SchemaError(f"bad space manifest: {name} must be {kind}, "
                          f"got {value!r}")
    return value


# the window fields each model's builder reads: True for an integer field
_WINDOW_FIELDS = {"z": {"lo": True, "hi": True}, "t3": {"radius": True},
                  "h2": {"radius": False}, "hd": {"d": True, "radius": False},
                  "comb": {"d": True, "extent": True},
                  "walk_target": {"n_max": True}}


def space_from_manifest(manifest: dict) -> SpaceGraph:
    try:
        model = manifest["model"]
        window = manifest["window"]
        sep = manifest.get("sep", 1.0)
        thr = manifest.get("edge_threshold")
    except (KeyError, TypeError) as e:
        raise SchemaError(f"bad space manifest: {e}") from e
    if not isinstance(window, dict):
        raise SchemaError(f"bad space manifest: 'window' must be an object, "
                          f"got {window!r}")
    window = dict(window)
    for key, integral in _WINDOW_FIELDS.get(model, {}).items():
        _checked(window.get(key), f"window {key!r}", integral)
    if "cap" in window:
        _checked(window["cap"], "window 'cap'", integral=True)
    if model == "product":
        factors = manifest.get("factors")
        if not isinstance(factors, list):
            raise SchemaError("bad space manifest: a product needs a list of "
                              "'factors'")
        spaces = [space_from_manifest(f) for f in factors]
        pwin = None
        if window.get("kind") == "l1_ball":
            centers = window.get("centers")
            if not isinstance(centers, list) or not all(
                    _is_int(c) and 0 <= c < s.n for c, s in zip(centers, spaces)):
                raise SchemaError("bad space manifest: window 'centers' must "
                                  f"be factor point indices, got {centers!r}")
            pwin = {"kind": "l1_ball", "centers": centers,
                    "radius": _checked(window.get("radius"), "window 'radius'")}
        return build_product(spaces, window=pwin)
    if model == "walk_target":
        from .constructions import walk_target

        return walk_target(window["n_max"])
    _checked(sep, "'sep'")
    if thr is not None:
        _checked(thr, "'edge_threshold'")
    return generate_net(model, window, sep=sep, edge_threshold=thr)


# the kind cell of each model's points in points.csv
_POINT_KINDS = {"h2": "h2", "hd": "hd", "t3": "t3", "z": "z", "metric_graph": "z",
                "comb": "comb", "product": "prod"}


def _point_lines(space: SpaceGraph, head: str, sep: str):
    """The function that formats the points ``idx`` (an index array) of
    ``space``: each as ``head`` (``{0}`` in it is the point's index), then
    its coordinate cells joined by ``sep``.  The cells are read from the
    arrays of the space: floats by ``repr``, tree words as their letters,
    comb nodes as the base and then the hair offsets joined by ``/``, and
    product points as each factor point's kind and cells joined by
    ``|``."""
    model = space.model

    def fmt(cells: int, spec: str = ""):
        # cell arguments 1..cells, after the index argument 0
        return (head + sep.join(f"{{{c}{spec}}}" for c in range(1, cells + 1))).format

    if model in ("h2", "hd"):
        xs, ys = space._coords()
        line = fmt(xs.shape[1] + 1, "!r")
        return lambda idx: list(map(line, idx.tolist(), *xs[idx].T.tolist(),
                                    ys[idx].tolist()))
    if model in ("z", "metric_graph"):
        ns = space._codes
        line = fmt(1)
        return lambda idx: list(map(line, idx.tolist(), ns[idx].tolist()))
    if model == "t3":
        # letters 0/1/2 as ASCII digits; NUL padding ends each word
        words = space._codes[0]
        chars = np.where(words >= 0, words + ord("0"), 0).astype(np.uint8)
        text = np.ascontiguousarray(chars).view(f"S{chars.shape[1]}").ravel()
        line = fmt(1)
        return lambda idx: list(map(line, idx.tolist(), text[idx].astype(str).tolist()))
    if model == "comb":
        path = space._codes[0]

        def comb(idx):
            hairs = np.count_nonzero(path[idx, 1:], axis=1)
            out = np.empty(len(idx), dtype=object)
            for k in np.unique(hairs).tolist():
                at = np.flatnonzero(hairs == k)
                rows = idx[at]
                line = (head + "{1}" + sep
                        + "/".join(f"{{{c}}}" for c in range(2, k + 2))).format
                out[at] = list(map(line, rows.tolist(), *path[rows, :k + 1].T.tolist()))
            return out.tolist()
        return comb
    if model == "product":
        # each factor's points are formatted once
        parts = [np.array(_point_lines(f, _POINT_KINDS[f.model] + "|", "|")(
                     np.arange(f.n)), dtype=object)
                 for f in space.window["factors"]]
        codes, line = space._codes, fmt(len(parts))
        return lambda idx: list(map(line, idx.tolist(), *(
            cells[codes[idx, f]].tolist() for f, cells in enumerate(parts))))
    raise SchemaError(f"unexportable points of model {model!r}")


def _csv(header: str, n: int, lines_of) -> str:
    """``header`` and the n rows ``lines_of(idx)``, formatted in blocks of
    _VIEW_BLOCK rows, so no list of every row is ever held."""
    text = [header + "\n"]
    for lo in range(0, n, _VIEW_BLOCK):
        lines = lines_of(np.arange(lo, min(n, lo + _VIEW_BLOCK)))
        lines.append("")
        text.append("\n".join(lines))
    return "".join(text)


def points_csv(space: SpaceGraph) -> str:
    """``points.csv``: ``index,kind,coords`` rows, formatted from the
    arrays of the space."""
    return _csv("index,kind,coords", space.n, _point_lines(
        space, f"{{0}},{_POINT_KINDS.get(space.model)},", ";"))


def edges_csv(space: SpaceGraph) -> str:
    """``edges.csv``: one ``a,b`` row per edge, a < b, in CSR order."""
    i = np.repeat(np.arange(space.n), np.diff(space.indptr))
    j = space.indices
    a, b = i[j > i], j[j > i]
    return _csv("a,b", len(a), lambda idx: list(map(
        "{},{}".format, a[idx].tolist(), b[idx].tolist())))


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


def _once(values: list, what: str) -> None:
    """Refuse a list of integers that holds one twice, naming it after
    ``what``."""
    if len(set(values)) < len(values):
        s = sorted(values)
        twice = next(a for a, b in zip(s, s[1:]) if a == b)
        raise SchemaError(f"bad cover file: {what} {twice} twice")


def cover_from_dict(d: dict):
    """The cover or decomposition of a file :func:`cover_to_dict` wrote, on
    the space its ``space_ref`` names."""
    space = _space_at(d, "space_ref")
    try:
        recs = d["pieces"]
        if type(recs) is not list or not set(map(type, recs)) <= {dict}:
            raise SchemaError("bad cover file: 'pieces' must be a list of "
                              "objects")
        pieces = [rec["points"] for rec in recs]
        ids = [rec["id"] for rec in recs]
        # JSON gives int, float, str, bool, null, list or object; points
        # come in a list, and only int is a point or an id (a bool would
        # read as 0 or 1)
        if not set(map(type, pieces)) <= {list} or not set(
                map(type, itertools.chain(ids, *pieces))) <= {int}:
            raise SchemaError("bad cover file: piece ids and points must be "
                              "integers, the points of a piece in a list")
        for pid, points in zip(ids, pieces):
            _once(points, f"piece {pid} lists point")
        _once(ids, "it lists piece id")
        if any("colour" in rec for rec in recs):
            colors = [rec["colour"] for rec in recs]
            if not all(map(_is_int, colors)):
                raise SchemaError("bad cover file: colours must be integers")
            r, top = d.get("r", 0.0), d.get("d", max(colors))
            if not _is_number(r) or not _is_int(top):
                raise SchemaError("bad cover file: 'r' must be a number and "
                                  f"'d' an integer, got {r!r} and {top!r}")
            partition = d.get("partition", False)
            if not isinstance(partition, bool):
                raise SchemaError("bad cover file: 'partition' must be true or "
                                  f"false, got {partition!r}")
            return ColoredDecomposition(
                space=space, pieces=pieces, colors=colors, r=r, d=top,
                partition=partition)
        labels = [rec.get("label") for rec in recs]
        for pid, lab in zip(ids, labels):
            if lab is not None and type(lab) is not str:
                raise SchemaError(f"bad cover file: piece {pid} has label "
                                  f"{lab!r}, not a string")
        if None in labels:
            if labels.count(None) < len(labels):
                raise SchemaError(f"bad cover file: piece {ids[labels.index(None)]}"
                                  " has no label, and other pieces have one")
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


def map_from_dict(d: dict):
    """The map of a file :func:`map_to_dict` wrote, between the spaces its
    ``source_ref`` and ``target_ref`` name."""
    from .constructions import MapRecord

    source, target = _space_at(d, "source_ref"), _space_at(d, "target_ref")
    try:
        pairs = d["pairs"]
        if not all(isinstance(p, list) and len(p) == 2 and _is_int(p[0])
                   and _is_int(p[1]) for p in pairs):
            raise SchemaError("bad map file: pairs must be [source, target] "
                              "integer pairs")
        # each source 0..n-1 once: n distinct sources in range are all of them
        assignment = [None] * len(pairs)
        for i, j in pairs:
            if not 0 <= i < len(pairs) or assignment[i] is not None:
                raise SchemaError(f"bad map file: source {i} is out of range or "
                                  f"repeated; each of 0..{len(pairs) - 1} "
                                  "must appear once")
            assignment[i] = j
        provenance = d.get("provenance", {})
        if not isinstance(provenance, dict):
            raise SchemaError("bad map file: 'provenance' must be an object")
        return MapRecord(source=source, target=target, assignment=assignment,
                         provenance=provenance)
    except (KeyError, TypeError, IndexError) as e:
        raise SchemaError(f"bad map file: {e}") from e


# ---------------------------------------------------------------------------
# verification reports


def verification_report(checks: list[dict]) -> dict:
    return {"version": SCHEMA_VERSION,
            "all_pass": all(c["pass"] for c in checks),
            "checks": [_plain(c) for c in checks]}
