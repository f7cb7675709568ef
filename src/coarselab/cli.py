"""Command-line orchestration.

Subcommands: ``space`` (generate nets), ``build`` (constructions),
``verify`` (cover/map checks), ``analyze`` (growth, distortion,
sublinearity, defect, escalation).  Every command writes a run manifest
next to its outputs; re-running the same manifest reproduces the same
bytes.  Exit codes: 2 schema, unknown name, unsupported parameter or
missing input, 3 size cap, 4 failed invariant, 5 truncation-dominated data.

``COARSELAB_CACHE`` names a directory where output artifacts are also
stored content-addressed, so later commands can reference them by hash.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys

import numpy as np

from . import analysis, artifacts, constructions, covers, spaces
from .errors import (CoarselabError, DataError, PreconditionError,
                     SchemaError, SizeCapError, TruncationError)

EXIT_SCHEMA = 2
EXIT_SIZE = 3
EXIT_INVARIANT = 4
EXIT_TRUNCATION = 5


def _cache_store(path: str) -> None:
    cache = os.environ.get("COARSELAB_CACHE")
    if not cache:
        return
    os.makedirs(cache, exist_ok=True)
    with open(path, "r", encoding="utf-8") as fh:
        digest = artifacts.sha256_text(fh.read())
    shutil.copyfile(path, os.path.join(cache, digest))


def _resolve(path: str) -> str:
    if os.path.isfile(path):
        return path
    if path.startswith("sha256:"):
        cache = os.environ.get("COARSELAB_CACHE")
        if cache:
            cand = os.path.join(cache, path.split(":", 1)[1])
            if os.path.isfile(cand):
                return cand
    raise SchemaError(f"no such artifact: {path}")


def _write(path: str, text: str, outputs: dict) -> None:
    outputs[os.path.basename(path)] = artifacts.write_text(path, text)
    _cache_store(path)


def _finish(out_dir: str, command: str, parameters: dict, inputs: dict,
            outputs: dict, seed: int = 0) -> None:
    manifest = {"command": command, "inputs": inputs, "parameters": parameters,
                "seed": seed, "outputs": outputs,
                "tool_version": artifacts.TOOL_VERSION}
    text = artifacts.canonical_json(manifest)
    artifacts.write_text(os.path.join(out_dir, f"{command}.manifest.json"), text)


def _load_json(path: str) -> dict:
    with open(_resolve(path), "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as e:
            raise SchemaError(f"not JSON: {path}: {e}") from e


def _finite(text: str) -> float:
    """A float option value; argparse rejects nan and inf with exit 2."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _ref(manifest: dict) -> dict:
    return {"manifest": manifest, "hash": artifacts.manifest_hash(manifest)}


def _space_of(d: dict, key: str) -> spaces.SpaceGraph:
    """The space an artifact file names under ``key``."""
    if not isinstance(d, dict) or key not in d:
        raise SchemaError(f"artifact lacks {key!r}")
    return _space_from_ref(d[key])


def _space_from_ref(ref: dict) -> spaces.SpaceGraph:
    if not isinstance(ref, dict) or "manifest" not in ref:
        raise SchemaError("space_ref lacks a manifest")
    if "hash" in ref and ref["hash"] != artifacts.manifest_hash(ref["manifest"]):
        raise SchemaError("space_ref hash does not match its manifest")
    return artifacts.space_from_manifest(ref["manifest"])


# ---------------------------------------------------------------------------
# space


def _space_manifest_from_args(args) -> dict:
    if args.model == "z":
        window = {"lo": -args.range, "hi": args.range}
    elif args.model == "t3":
        window = {"radius": args.radius_int}
    elif args.model == "h2":
        window = {"kind": "ball", "radius": args.ball}
    elif args.model == "hd":
        window = {"kind": args.window_kind, "radius": args.ball, "d": args.d}
    elif args.model == "comb":
        window = {"d": args.d, "extent": args.extent}
    else:
        raise SchemaError(f"unknown model {args.model}")
    return artifacts.space_manifest(args.model, window, sep=args.sep,
                                    edge_threshold=args.threshold)


def cmd_space(args) -> int:
    manifest = _space_manifest_from_args(args)
    space = artifacts.space_from_manifest(manifest)
    outputs: dict = {}
    _write(os.path.join(args.out, "space.json"),
           artifacts.canonical_json(manifest), outputs)
    _write(os.path.join(args.out, "points.csv"),
           artifacts.points_csv(space), outputs)
    _write(os.path.join(args.out, "edges.csv"),
           artifacts.edges_csv(space), outputs)
    _finish(args.out, "space", vars_of(args), {}, outputs)
    hist = np.bincount(np.diff(space.indptr)).tolist()
    print(f"points: {space.n}")
    print(f"degree_bound: {space.degree_bound}")
    print("degree_histogram:", {d: c for d, c in enumerate(hist) if c})
    return 0


def vars_of(args) -> dict:
    skip = {"func", "out"}
    return {k: v for k, v in sorted(vars(args).items())
            if k not in skip and not callable(v)}


# ---------------------------------------------------------------------------
# build


def cmd_build(args) -> int:
    outputs: dict = {}
    checks: list[dict] = []
    if args.kind == "walk":
        walk = constructions.tree_walk(args.n_max)
        src_ref = _ref(artifacts.space_manifest(
            "z", {"lo": walk.source.window["lo"],
                  "hi": walk.source.window["hi"]}))
        tgt_ref = _ref({"version": artifacts.SCHEMA_VERSION,
                        "model": "walk_target",
                        "window": {"n_max": args.n_max},
                        "sep": 1.0, "edge_threshold": 1.0})
        checks.append({"name": "fibers<=3",
                       "pass": walk.measured_max_fiber <= 3,
                       "witness": walk.measured_max_fiber})
        checks.append({"name": "consecutive-adjacent",
                       "pass": walk.adjacent_steps()})
        _write(os.path.join(args.out, "walk.json"), artifacts.canonical_json(
            artifacts.map_to_dict(walk, src_ref, tgt_ref)), outputs)
    elif args.kind == "tiling":
        manifest = artifacts.space_manifest(
            "h2", {"kind": "ball", "radius": args.ball}, sep=args.sep,
            edge_threshold=args.threshold)
        net = artifacts.space_from_manifest(manifest)
        tiling = constructions.build_h2_tiling(args.r, {"radius": args.ball})
        decomp = constructions.tiling_to_decomposition(tiling, net)
        bad = covers.check_disjointness(decomp)
        checks.append({"name": "same-colour-disjoint", "pass": not bad,
                       "witness": None if not bad else vars(bad[0])})
        tiles = [{"kind": t.kind, "matrix": t.matrix, "depth": t.depth,
                  "mirrored": t.mirrored} for t in tiling.tiles]
        _write(os.path.join(args.out, "tiling.json"), artifacts.canonical_json(
            {"version": artifacts.SCHEMA_VERSION, "r": tiling.r,
             "lambdas": tiling.lambdas, "dilation": tiling.dilation,
             "tiles": tiles}), outputs)
        _write(os.path.join(args.out, "decomposition.json"),
               artifacts.canonical_json(artifacts.cover_to_dict(
                   decomp, _ref(manifest))), outputs)
    elif args.kind == "comb":
        space = constructions.build_comb(args.d, args.extent)
        manifest = artifacts.space_manifest(
            "comb", {"d": args.d, "extent": args.extent})
        _write(os.path.join(args.out, "space.json"),
               artifacts.canonical_json(manifest), outputs)
        _write(os.path.join(args.out, "points.csv"),
               artifacts.points_csv(space), outputs)
    elif args.kind == "bradyfarb":
        art = constructions.hd_cover_pipeline(args.d, args.ball, args.r)
        decomp = art["decomposition"]
        bad = covers.check_disjointness(decomp)
        checks.append({"name": "same-colour-disjoint", "pass": not bad})
        checks.append({"name": "colour-count<=d",
                       "pass": decomp.d + 1 <= max(args.d, 2),
                       "witness": decomp.d + 1})
        cov = decomp.coverage_counts()
        checks.append({"name": "covers-source", "pass": int(cov.min()) >= 1})
        _write(os.path.join(args.out, "hd_cover.json"),
               artifacts.canonical_json(artifacts.cover_to_dict(
                   decomp, _ref(artifacts.space_manifest(
                       "hd", dict(art["net"].window) | {"d": args.d},
                       sep=art["net"].sep,
                       edge_threshold=art["net"].edge_threshold)))),
               outputs)
    elif args.kind == "nerve":
        if args.cover is None:
            raise SchemaError("build nerve needs --cover")
        d = _load_json(args.cover)
        space = _space_of(d, "space_ref")
        cover = artifacts.cover_from_dict(d, space)
        if isinstance(cover, covers.ColoredDecomposition):
            cover = cover.as_cover()
        nerve = constructions.nerve_map(space, cover)
        sums_ok = all(abs(sum(c.values()) - 1.0) < 1e-9
                      for c in nerve.coordinates)
        checks.append({"name": "barycentric-sums-1", "pass": sums_ok})
        _write(os.path.join(args.out, "nerve.json"), artifacts.canonical_json(
            {"version": artifacts.SCHEMA_VERSION,
             "dimension": nerve.dimension,
             "simplices": sorted(sorted(s) for s in nerve.simplices),
             "lipschitz": constructions.nerve_lipschitz(space, nerve)}),
            outputs)
    elif args.kind == "product":
        if not args.factor:
            raise SchemaError("build product needs --factor")
        manifests = [_load_json(p) for p in args.factor]
        factors = [artifacts.space_from_manifest(m) for m in manifests]
        window = None
        if args.l1_radius is not None:
            window = {"kind": "l1_ball", "radius": args.l1_radius,
                      "centers": [s.window.get("basepoint", 0) for s in factors]}
        prod = spaces.build_product(factors, window=window)
        pm = artifacts.space_manifest(
            "product",
            {"kind": "l1_ball", "radius": args.l1_radius,
             "centers": window["centers"]} if window else {"kind": "full"},
            factors=manifests)
        _write(os.path.join(args.out, "space.json"),
               artifacts.canonical_json(pm), outputs)
        print(f"product points: {prod.n}")
    else:
        raise SchemaError(f"unknown build kind {args.kind}")
    report = artifacts.verification_report(checks)
    _write(os.path.join(args.out, "verification.json"),
           artifacts.canonical_json(report), outputs)
    _finish(args.out, f"build-{args.kind}", vars_of(args),
            {}, outputs)
    for c in checks:
        print(f"check {c['name']}: {'pass' if c['pass'] else 'FAIL'}")
    if not report["all_pass"]:
        return EXIT_INVARIANT
    return 0


# ---------------------------------------------------------------------------
# verify


# the artifact kind each check reads
_COVERS = (covers.Cover, covers.ColoredDecomposition)
_CHECKS = {"disjointness": covers.ColoredDecomposition, "multiplicity": _COVERS,
           "coverage": _COVERS, "fibers": constructions.MapRecord,
           "adjacent": constructions.MapRecord}


def _parse_check(spec: str) -> tuple[str, dict]:
    parts = spec.split(":")
    name = parts[0]
    params = {}
    for p in parts[1:]:
        k, _, v = p.partition("=")
        try:
            params[k] = float(v) if "." in v else int(v)
        except ValueError:
            raise SchemaError(
                f"check {spec!r}: parameter {k!r} needs a number, got {v!r}"
            ) from None
    return name, params


def cmd_verify(args) -> int:
    d = _load_json(args.target)
    checks = []
    if "pairs" in d:
        obj = artifacts.map_from_dict(d, _space_of(d, "source_ref"),
                                      _space_of(d, "target_ref"))
    else:
        obj = artifacts.cover_from_dict(d, _space_of(d, "space_ref"))
    for spec in args.checks.split(","):
        name, params = _parse_check(spec)
        if name not in _CHECKS:
            raise SchemaError(f"unknown check {name}")
        if not isinstance(obj, _CHECKS[name]):
            raise SchemaError(f"check {name} does not apply to this artifact")
        if name == "disjointness":
            bad = covers.check_disjointness(obj)
            checks.append({"name": spec, "pass": not bad,
                           "witness": None if not bad else vars(bad[0])})
        elif name == "multiplicity":
            R = params.get("R", 0)
            if R < 0:
                raise SchemaError(f"check {spec!r}: R must be >= 0")
            bound = params.get("max",
                               obj.d + 1 if hasattr(obj, "d") else None)
            mult, witness = covers.r_multiplicity(
                obj, R, metric="model" if params.get("model") else "graph")
            ok = bound is None or mult <= bound
            checks.append({"name": spec, "pass": ok,
                           "witness": {"multiplicity": mult, "center": witness}})
        elif name == "coverage":
            counts = np.bincount(obj.pieces.pts, minlength=obj.space.n)
            missing = np.flatnonzero(counts == 0).tolist()
            need = params.get("min", 1)
            low = np.flatnonzero(counts < need).tolist()
            checks.append({"name": spec, "pass": not low,
                           "witness": (low[:3] or missing[:3]) or None})
        elif name == "fibers":
            ok = obj.measured_max_fiber <= params.get("max", 3)
            checks.append({"name": spec, "pass": ok,
                           "witness": obj.measured_max_fiber})
        else:  # adjacent
            checks.append({"name": spec, "pass": obj.adjacent_steps()})
    report = artifacts.verification_report(checks)
    outputs: dict = {}
    _write(os.path.join(args.out, "verification.json"),
           artifacts.canonical_json(report), outputs)
    _finish(args.out, "verify", vars_of(args),
            {os.path.basename(args.target): _hash_file(args.target)}, outputs)
    for c in checks:
        print(f"check {c['name']}: {'pass' if c['pass'] else 'FAIL'}")
    return 0 if report["all_pass"] else EXIT_INVARIANT


def _hash_file(path: str) -> str:
    with open(_resolve(path), "r", encoding="utf-8") as fh:
        return artifacts.sha256_text(fh.read())


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(args) -> int:
    outputs: dict = {}
    inputs: dict = {}
    option = {"growth": "space", "defect": "space",
              "distortion": "map"}.get(args.analysis, "cover")
    if getattr(args, option) is None:
        raise SchemaError(f"analyze {args.analysis} needs --{option}")
    if args.analysis == "growth":
        manifest = _load_json(args.space)
        inputs[os.path.basename(args.space)] = _hash_file(args.space)
        space = artifacts.space_from_manifest(manifest)
        center = space.window.get("basepoint", 0)
        if args.center != "origin":
            try:
                center = int(args.center)
            except ValueError:
                raise SchemaError(f"--center {args.center!r} is not a point "
                                  "index") from None
            if not 0 <= center < space.n:
                raise SchemaError(f"--center {center} is not a point of the "
                                  f"{space.n}-point space")
        rep = spaces.growth_report(space, center)
        try:
            exp, resid = analysis.fit_growth(rep, r_min=args.r_min)
        except DataError as e:
            print(f"error: {e}; enlarge the window", file=sys.stderr)
            return EXIT_TRUNCATION
        stat = analysis.subexp_stat(rep)
        csv = ["r,count,truncated"]
        csv += [f"{r},{c},{int(t)}" for r, c, t in
                zip(rep.radii, rep.counts, rep.truncated)]
        _write(os.path.join(args.out, "growth.csv"), "\n".join(csv) + "\n",
               outputs)
        _write(os.path.join(args.out, "growth.json"), artifacts.canonical_json(
            {"version": artifacts.SCHEMA_VERSION, "center": center,
             "fitted_exponent": exp, "fit_residual": resid,
             "subexp_stat": stat}), outputs)
        print(f"fitted_exponent: {exp:.4f} (residual {resid:.4f})")
    elif args.analysis == "distortion":
        d = _load_json(args.map)
        inputs[os.path.basename(args.map)] = _hash_file(args.map)
        record = artifacts.map_from_dict(
            d, _space_of(d, "source_ref"), _space_of(d, "target_ref"))
        anchored = None
        if args.anchored is not None:
            anchored = args.anchored
            if record.source.model == "z":
                try:
                    anchored = record.source.index_of(spaces.ZPoint(anchored))
                except KeyError:
                    anchored = -1
            if not 0 <= anchored < record.source.n:
                raise SchemaError(
                    f"--anchored {args.anchored} is not a point of the map's source")
        prof = analysis.distortion_profile(record, anchored=anchored,
                                           seed=args.seed)
        csv = ["src_lo,src_hi,tgt_min,tgt_mean,tgt_max"]
        csv += [",".join(repr(v) for v in b) for b in prof.buckets]
        _write(os.path.join(args.out, "distortion.csv"), "\n".join(csv) + "\n",
               outputs)
        payload = {"version": artifacts.SCHEMA_VERSION,
                   "fitted_log_C": prof.fitted_log_C,
                   "envelope_log_C": prof.envelope_log_C,
                   "fitted_affine": list(prof.fitted_affine),
                   "log_fit_ok": prof.log_fit_ok,
                   "pair_count": prof.pair_count}
        if anchored is None:
            # emit the basepoint-anchored twin alongside the pairwise profile
            base = record.source.window.get("basepoint", 0)
            aprof = analysis.distortion_profile(record, anchored=base,
                                                seed=args.seed)
            payload["anchored_variant"] = {
                "basepoint": base,
                "fitted_log_C": aprof.fitted_log_C,
                "envelope_log_C": aprof.envelope_log_C,
                "fitted_affine": list(aprof.fitted_affine),
                "log_fit_ok": aprof.log_fit_ok}
        _write(os.path.join(args.out, "distortion.json"),
               artifacts.canonical_json(payload), outputs)
        print(f"fitted_log_C: {prof.fitted_log_C:.4f} "
              f"(envelope {prof.envelope_log_C:.4f})")
    elif args.analysis in ("sublinearity", "escalation"):
        d = _load_json(args.cover)
        inputs[os.path.basename(args.cover)] = _hash_file(args.cover)
        space = _space_of(d, "space_ref")
        fam = artifacts.cover_from_dict(d, space)
        if args.analysis == "sublinearity":
            base = space.window.get("basepoint", 0)
            try:
                grid = [int(x) for x in args.m_grid.split(",")]
            except ValueError:
                raise SchemaError(f"--m-grid {args.m_grid!r} needs integers "
                                  "separated by commas") from None
            rep = analysis.radial_sublinearity(fam, base, grid)
            csv = ["m,max_diam,ratio"]
            csv += [f"{m},{repr(dm)},{repr(rt)}" for m, dm, rt in
                    zip(rep.m_grid, rep.max_diam, rep.ratios)]
            _write(os.path.join(args.out, "sublinearity.csv"),
                   "\n".join(csv) + "\n", outputs)
            _write(os.path.join(args.out, "sublinearity.json"),
                   artifacts.canonical_json(
                       {"version": artifacts.SCHEMA_VERSION,
                        "trend": rep.trend, "consistent": rep.consistent,
                        "ratios": rep.ratios}), outputs)
            print(f"consistent_with_radially_sublinear: {rep.consistent}")
        else:
            try:
                rows = analysis.escalation(fam, s=args.s, m_max=args.m)
            except TruncationError as e:
                print(f"error: {e}", file=sys.stderr)
                return EXIT_TRUNCATION
            csv = ["m,exponent,residual,level_size"]
            csv += [f"{r['m']},{repr(r['exponent'])},{repr(r['residual'])},"
                    f"{r['level_size']}" for r in rows]
            _write(os.path.join(args.out, "escalation.csv"),
                   "\n".join(csv) + "\n", outputs)
            _write(os.path.join(args.out, "escalation.json"),
                   artifacts.canonical_json(
                       {"version": artifacts.SCHEMA_VERSION,
                        "rows": [{k: v for k, v in r.items()} for r in rows]}),
                   outputs)
            print("exponents:", [round(r["exponent"], 3) for r in rows])
    elif args.analysis == "defect":
        manifest = _load_json(args.space)
        inputs[os.path.basename(args.space)] = _hash_file(args.space)
        space = artifacts.space_from_manifest(manifest)
        if space.model != "h2":
            raise SchemaError(f"analyze defect needs a half-plane space, "
                              f"got {space.model}")
        band = args.band
        xs, ys = space._coords()
        subset = [i for i, (x, y) in enumerate(zip(xs[:, 0].tolist(), ys.tolist()))
                  if abs(math.asinh(x / y)) <= band]
        val = analysis.quasi_convexity_defect(space, subset, r=args.r,
                                              pair_cap=args.pair_cap,
                                              seed=args.seed)
        _write(os.path.join(args.out, "defect.json"),
               artifacts.canonical_json(
                   {"version": artifacts.SCHEMA_VERSION, "defect": val,
                    "band": band, "subset_size": len(subset)}), outputs)
        print(f"defect: {val:.4f}")
    else:
        raise SchemaError(f"unknown analysis {args.analysis}")
    _finish(args.out, f"analyze-{args.analysis}", vars_of(args), inputs,
            outputs, seed=getattr(args, "seed", 0))
    return 0


# ---------------------------------------------------------------------------
# report


def cmd_report(args) -> int:
    """Print a run manifest and audit its recorded output hashes."""
    manifest = _load_json(args.manifest)
    for key in ("command", "inputs", "parameters", "seed", "outputs",
                "tool_version"):
        if not isinstance(manifest, dict) or key not in manifest:
            raise SchemaError(f"run manifest lacks {key!r}")
    if not all(isinstance(manifest[k], dict) for k in ("parameters", "outputs")):
        raise SchemaError("run manifest parameters and outputs must be objects")
    for name, digest in manifest["outputs"].items():
        # outputs are written beside the manifest: bare file names only,
        # never an absolute path or a path through ".."
        if name in ("", ".", "..") or os.path.basename(name) != name \
                or not isinstance(digest, str):
            raise SchemaError(f"run manifest names an unsafe output {name!r}")
    print(f"command: {manifest['command']}")
    print(f"tool_version: {manifest['tool_version']}")
    print(f"seed: {manifest['seed']}")
    for k, v in sorted(manifest["parameters"].items()):
        print(f"param {k}: {v}")
    base = os.path.dirname(os.path.abspath(_resolve(args.manifest)))
    stale = 0
    for name, digest in sorted(manifest["outputs"].items()):
        path = os.path.join(base, name)
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as fh:
                actual = artifacts.sha256_text(fh.read())
            status = "ok" if actual == digest else "MODIFIED"
            stale += status != "ok"
        else:
            status = "missing"
            stale += 1
        print(f"output {name}: {digest[:12]} [{status}]")
    return 0 if stale == 0 else EXIT_INVARIANT


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="coarselab",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("space", help="generate a model window")
    sp.add_argument("--model", required=True,
                    choices=["z", "t3", "h2", "hd", "comb"])
    sp.add_argument("--range", type=int, default=100)
    sp.add_argument("--radius", dest="radius_int", type=int, default=6)
    sp.add_argument("--ball", type=_finite, default=8.0)
    sp.add_argument("--window-kind", default="birad",
                    choices=["ball", "birad"])
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--extent", type=int, default=30)
    sp.add_argument("--sep", type=_finite, default=1.0)
    sp.add_argument("--threshold", type=_finite, default=None)
    sp.add_argument("--out", default=".")
    sp.set_defaults(func=cmd_space)

    bp = sub.add_parser("build", help="run a construction")
    bp.add_argument("kind", choices=["tiling", "walk", "bradyfarb", "comb",
                                     "product", "nerve"])
    bp.add_argument("--n-max", type=int, default=8)
    bp.add_argument("--r", type=_finite, default=1.0)
    bp.add_argument("--ball", type=_finite, default=6.0)
    bp.add_argument("--sep", type=_finite, default=0.8)
    bp.add_argument("--threshold", type=_finite, default=None)
    bp.add_argument("--d", type=int, default=2)
    bp.add_argument("--extent", type=int, default=30)
    bp.add_argument("--cover", default=None)
    bp.add_argument("--factor", action="append", default=[])
    bp.add_argument("--l1-radius", type=_finite, default=None)
    bp.add_argument("--out", default=".")
    bp.set_defaults(func=cmd_build)

    vp = sub.add_parser("verify", help="check an artifact")
    vp.add_argument("target")
    vp.add_argument("--checks", required=True)
    vp.add_argument("--out", default=".")
    vp.set_defaults(func=cmd_verify)

    an = sub.add_parser("analyze", help="measure an artifact")
    an.add_argument("analysis", choices=["growth", "distortion",
                                         "sublinearity", "defect",
                                         "escalation"])
    an.add_argument("--space", default=None)
    an.add_argument("--map", default=None)
    an.add_argument("--cover", default=None)
    an.add_argument("--center", default="origin")
    an.add_argument("--r-min", type=int, default=1)
    an.add_argument("--anchored", type=int, default=None)
    an.add_argument("--m-grid", default="4,8,16,32")
    an.add_argument("--s", type=_finite, default=2.0)
    an.add_argument("--m", type=int, default=1)
    an.add_argument("--band", type=_finite, default=1.0)
    an.add_argument("--r", type=_finite, default=3.0)
    an.add_argument("--pair-cap", type=int, default=300)
    an.add_argument("--seed", type=int, default=0)
    an.add_argument("--out", default=".")
    an.set_defaults(func=cmd_analyze)

    rp = sub.add_parser("report", help="print and audit a run manifest")
    rp.add_argument("manifest")
    rp.set_defaults(func=cmd_report)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SCHEMA
    except SizeCapError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SIZE
    except PreconditionError as e:
        print(f"error: {e} (witness: {e.witness})", file=sys.stderr)
        return EXIT_INVARIANT
    except TruncationError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_TRUNCATION
    except CoarselabError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())
