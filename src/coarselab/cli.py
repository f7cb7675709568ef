"""Command-line orchestration.

Subcommands: ``space`` (generate nets), ``build`` (constructions),
``verify`` (cover/map checks), ``analyze`` (growth, distortion,
sublinearity, defect, escalation).  Every command writes a run manifest
next to its outputs; re-running the same manifest reproduces the same
bytes.  Exit codes: 2 schema, unknown name, unsupported parameter,
missing input or an output that cannot be written, 3 size cap, 4 failed
invariant, 5 truncation-dominated data.

``COARSELAB_CACHE`` names a directory where output artifacts are also
stored content-addressed, so later commands can reference them by hash.

A command only records, on its :class:`Run`, what it read, wrote and
checked; :func:`main` writes the files, ``verification.json`` and the run
manifest, prints the check lines and picks the exit code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import analysis, artifacts, constructions, covers, spaces
from .errors import (CoarselabError, DataError, PreconditionError,
                     SchemaError, SizeCapError, TruncationError)

EXIT_INVARIANT = 4
# an error exits with the code of the nearest of its classes listed here
EXIT_CODES = {SizeCapError: 3, PreconditionError: EXIT_INVARIANT,
              TruncationError: 5, CoarselabError: 2}


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


class Run:
    """What one command read, wrote and checked.

    ``inputs`` maps each path read to the sha256 of its text, ``outputs``
    each file name to write to its text, and ``checks`` is the list of
    check records of a command that checks (build, verify), else None.
    ``failed`` is set by a failed check or a stale ``report`` output.
    """

    def __init__(self):
        self.inputs: dict = {}
        self.outputs: dict = {}
        self.checks: list | None = None
        self.failed = False

    def read(self, path: str) -> dict:
        """The JSON object in the file ``path`` (or a cached
        ``sha256:<hash>``), recorded as an input."""
        try:
            with open(_resolve(path), "r", encoding="utf-8") as fh:
                text = fh.read()
            obj = json.loads(text)
        except ValueError as e:  # not UTF-8, or not JSON
            raise SchemaError(f"not JSON: {path}: {e}") from e
        self.inputs[path] = artifacts.sha256_text(text)
        if not isinstance(obj, dict):
            raise SchemaError(f"not a JSON object: {path}")
        return obj

    def write(self, name: str, text: str) -> None:
        self.outputs[name] = text

    def json(self, name: str, obj) -> None:
        self.write(name, artifacts.canonical_json(obj))

    def table(self, name: str, header: str, rows) -> None:
        self.write(name, "\n".join([header, *rows]) + "\n")

    def check(self, name: str, ok: bool, **fields) -> None:
        """Record a check and its other ``fields`` (a ``witness``)."""
        self.checks.append({"name": name, "pass": ok, **fields})
        self.failed = self.failed or not ok


def _finite(text: str) -> float:
    """A float option value; argparse rejects nan and inf with exit 2."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


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
    else:  # comb
        window = {"d": args.d, "extent": args.extent}
    return artifacts.space_manifest(args.model, window, sep=args.sep,
                                    edge_threshold=args.threshold)


def cmd_space(args, run: Run) -> None:
    manifest = _space_manifest_from_args(args)
    space = artifacts.space_from_manifest(manifest)
    run.json("space.json", manifest)
    run.write("points.csv", artifacts.points_csv(space))
    run.write("edges.csv", artifacts.edges_csv(space))
    hist = np.bincount(np.diff(space.indptr)).tolist()
    print(f"points: {space.n}")
    print(f"degree_bound: {space.degree_bound}")
    print("degree_histogram:", {d: c for d, c in enumerate(hist) if c})


# ---------------------------------------------------------------------------
# build


def cmd_build(args, run: Run) -> None:
    run.checks = []
    if args.kind == "walk":
        walk = constructions.tree_walk(args.n_max)
        src_ref = artifacts.space_ref(artifacts.space_manifest(
            "z", {"lo": walk.source.window["lo"],
                  "hi": walk.source.window["hi"]}))
        tgt_ref = artifacts.space_ref(artifacts.space_manifest(
            "walk_target", {"n_max": args.n_max}, edge_threshold=1.0))
        run.check("fibers<=3", walk.measured_max_fiber <= 3,
                  witness=walk.measured_max_fiber)
        run.check("consecutive-adjacent", walk.adjacent_steps())
        run.json("walk.json", artifacts.map_to_dict(walk, src_ref, tgt_ref))
    elif args.kind == "tiling":
        manifest = artifacts.space_manifest(
            "h2", {"kind": "ball", "radius": args.ball}, sep=args.sep,
            edge_threshold=args.threshold)
        net = artifacts.space_from_manifest(manifest)
        tiling = constructions.build_h2_tiling(args.r, {"radius": args.ball})
        decomp = constructions.tiling_to_decomposition(tiling, net)
        bad = covers.check_disjointness(decomp)
        run.check("same-colour-disjoint", not bad,
                  witness=None if not bad else vars(bad[0]))
        tiles = [{"kind": t.kind, "matrix": t.matrix, "depth": t.depth,
                  "mirrored": t.mirrored} for t in tiling.tiles]
        run.json("tiling.json", {
            "version": artifacts.SCHEMA_VERSION, "r": tiling.r,
            "lambdas": tiling.lambdas, "dilation": tiling.dilation,
            "tiles": tiles})
        run.json("decomposition.json", artifacts.cover_to_dict(
            decomp, artifacts.space_ref(manifest)))
    elif args.kind == "comb":
        space = constructions.build_comb(args.d, args.extent)
        run.json("space.json", artifacts.space_manifest(
            "comb", {"d": args.d, "extent": args.extent}))
        run.write("points.csv", artifacts.points_csv(space))
    elif args.kind == "bradyfarb":
        art = constructions.hd_cover_pipeline(args.d, args.ball, args.r)
        decomp, net = art["decomposition"], art["net"]
        run.check("same-colour-disjoint", not covers.check_disjointness(decomp))
        run.check("colour-count<=d", decomp.d + 1 <= max(args.d, 2),
                  witness=decomp.d + 1)
        run.check("covers-source", int(decomp.coverage_counts().min()) >= 1)
        run.json("hd_cover.json", artifacts.cover_to_dict(
            decomp, artifacts.space_ref(artifacts.space_manifest(
                "hd", dict(net.window) | {"d": args.d}, sep=net.sep,
                edge_threshold=net.edge_threshold))))
    elif args.kind == "nerve":
        if args.cover is None:
            raise SchemaError("build nerve needs --cover")
        cover = artifacts.cover_from_dict(run.read(args.cover))
        if isinstance(cover, covers.ColoredDecomposition):
            cover = cover.as_cover()
        nerve = constructions.nerve_map(cover.space, cover)
        run.check("barycentric-sums-1",
                  all(abs(sum(c.values()) - 1.0) < 1e-9
                      for c in nerve.coordinates))
        run.json("nerve.json", {
            "version": artifacts.SCHEMA_VERSION, "dimension": nerve.dimension,
            "simplices": sorted(sorted(s) for s in nerve.simplices),
            "lipschitz": constructions.nerve_lipschitz(cover.space, nerve)})
    else:  # product
        if not args.factor:
            raise SchemaError("build product needs --factor")
        manifests = [run.read(p) for p in args.factor]
        factors = [artifacts.space_from_manifest(m) for m in manifests]
        window = None
        if args.l1_radius is not None:
            window = {"kind": "l1_ball", "radius": args.l1_radius,
                      "centers": [s.window.get("basepoint", 0) for s in factors]}
        prod = spaces.build_product(factors, window=window)
        run.json("space.json", artifacts.space_manifest(
            "product", window or {"kind": "full"}, factors=manifests))
        print(f"product points: {prod.n}")


# ---------------------------------------------------------------------------
# verify


# the artifact kind each check applies to, and the parameters it reads
_COVERS = (covers.Cover, covers.ColoredDecomposition)
_CHECKS = {"disjointness": (covers.ColoredDecomposition, ()),
           "multiplicity": (_COVERS, ("R", "max", "model")),
           "coverage": (_COVERS, ("min",)),
           "fibers": (constructions.MapRecord, ("max",)),
           "adjacent": (constructions.MapRecord, ())}


def _parse_check(spec: str) -> tuple[str, dict]:
    """``name[:key=value]...``: the check's name and its parameters, each
    one the check reads and a finite number."""
    name, *parts = spec.split(":")
    if name not in _CHECKS:
        raise SchemaError(f"unknown check {name}")
    keys = _CHECKS[name][1]
    params = {}
    for p in parts:
        k, _, v = p.partition("=")
        if k not in keys:
            raise SchemaError(f"check {spec!r}: {name} reads no parameter "
                              f"{k!r}; it reads {', '.join(keys) or 'none'}")
        for number in (int, float):
            try:
                value = number(v)
                break
            except ValueError:
                value = math.nan
        if not math.isfinite(value):
            raise SchemaError(
                f"check {spec!r}: parameter {k!r} needs a number, got {v!r}")
        params[k] = value
    return name, params


def cmd_verify(args, run: Run) -> None:
    specs = [(spec, *_parse_check(spec)) for spec in args.checks.split(",")]
    d = run.read(args.target)
    obj = (artifacts.map_from_dict(d) if "pairs" in d
           else artifacts.cover_from_dict(d))
    run.checks = []
    for spec, name, params in specs:
        if not isinstance(obj, _CHECKS[name][0]):
            raise SchemaError(f"check {name} does not apply to this artifact")
        if name == "disjointness":
            bad = covers.check_disjointness(obj)
            run.check(spec, not bad, witness=None if not bad else vars(bad[0]))
        elif name == "multiplicity":
            R = params.get("R", 0)
            if R < 0:
                raise SchemaError(f"check {spec!r}: R must be >= 0")
            bound = params.get("max",
                               obj.d + 1 if hasattr(obj, "d") else None)
            mult, witness = covers.r_multiplicity(
                obj, R, metric="model" if params.get("model") else "graph")
            run.check(spec, bound is None or mult <= bound,
                      witness={"multiplicity": mult, "center": witness})
        elif name == "coverage":
            counts = np.bincount(obj.pieces.pts, minlength=obj.space.n)
            missing = np.flatnonzero(counts == 0).tolist()
            low = np.flatnonzero(counts < params.get("min", 1)).tolist()
            run.check(spec, not low, witness=(low[:3] or missing[:3]) or None)
        elif name == "fibers":
            run.check(spec, obj.measured_max_fiber <= params.get("max", 3),
                      witness=obj.measured_max_fiber)
        else:  # adjacent
            run.check(spec, obj.adjacent_steps())


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(args, run: Run) -> None:
    option = {"growth": "space", "defect": "space",
              "distortion": "map"}.get(args.analysis, "cover")
    if getattr(args, option) is None:
        raise SchemaError(f"analyze {args.analysis} needs --{option}")
    if args.analysis == "growth":
        space = artifacts.space_from_manifest(run.read(args.space))
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
            raise TruncationError(f"{e}; enlarge the window") from e
        stat = analysis.subexp_stat(rep)
        run.table("growth.csv", "r,count,truncated", (
            f"{r},{c},{int(t)}"
            for r, c, t in zip(rep.radii, rep.counts, rep.truncated)))
        run.json("growth.json", {
            "version": artifacts.SCHEMA_VERSION, "center": center,
            "fitted_exponent": exp, "fit_residual": resid, "subexp_stat": stat})
        print(f"fitted_exponent: {exp:.4f} (residual {resid:.4f})")
    elif args.analysis == "distortion":
        record = artifacts.map_from_dict(run.read(args.map))
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
        run.table("distortion.csv", "src_lo,src_hi,tgt_min,tgt_mean,tgt_max",
                  (",".join(repr(v) for v in b) for b in prof.buckets))
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
        run.json("distortion.json", payload)
        print(f"fitted_log_C: {prof.fitted_log_C:.4f} "
              f"(envelope {prof.envelope_log_C:.4f})")
    elif args.analysis == "sublinearity":
        fam = artifacts.cover_from_dict(run.read(args.cover))
        try:
            grid = [int(x) for x in args.m_grid.split(",")]
        except ValueError:
            raise SchemaError(f"--m-grid {args.m_grid!r} needs integers "
                              "separated by commas") from None
        rep = analysis.radial_sublinearity(
            fam, fam.space.window.get("basepoint", 0), grid)
        run.table("sublinearity.csv", "m,max_diam,ratio", (
            f"{m},{repr(dm)},{repr(rt)}"
            for m, dm, rt in zip(rep.m_grid, rep.max_diam, rep.ratios)))
        run.json("sublinearity.json", {
            "version": artifacts.SCHEMA_VERSION, "trend": rep.trend,
            "consistent": rep.consistent, "ratios": rep.ratios})
        print(f"consistent_with_radially_sublinear: {rep.consistent}")
    elif args.analysis == "escalation":
        fam = artifacts.cover_from_dict(run.read(args.cover))
        rows = analysis.escalation(fam, s=args.s, m_max=args.m)
        run.table("escalation.csv", "m,exponent,residual,level_size", (
            f"{r['m']},{repr(r['exponent'])},{repr(r['residual'])},"
            f"{r['level_size']}" for r in rows))
        run.json("escalation.json", {"version": artifacts.SCHEMA_VERSION,
                                     "rows": rows})
        print("exponents:", [round(r["exponent"], 3) for r in rows])
    else:  # defect
        space = artifacts.space_from_manifest(run.read(args.space))
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
        run.json("defect.json", {
            "version": artifacts.SCHEMA_VERSION, "defect": val, "band": band,
            "subset_size": len(subset)})
        print(f"defect: {val:.4f}")


# ---------------------------------------------------------------------------
# report


def cmd_report(args, run: Run) -> None:
    """Print a run manifest and audit its recorded output hashes."""
    manifest = run.read(args.manifest)
    for key in ("command", "inputs", "parameters", "seed", "outputs",
                "tool_version"):
        if key not in manifest:
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
    for name, digest in sorted(manifest["outputs"].items()):
        path = os.path.join(base, name)
        if os.path.exists(path):
            # the bytes: a text read would fail on bad UTF-8 and read a
            # "\r\n" written over "\n" as unchanged
            with open(path, "rb") as fh:
                actual = hashlib.sha256(fh.read()).hexdigest()
            status = "ok" if actual == digest else "MODIFIED"
        else:
            status = "missing"
        run.failed = run.failed or status != "ok"
        print(f"output {name}: {digest[:12]} [{status}]")


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
    run = Run()
    try:
        args.func(args, run)
    except CoarselabError as e:
        code = next(EXIT_CODES[c] for c in type(e).__mro__ if c in EXIT_CODES)
        witness = (f" (witness: {e.witness})"
                   if isinstance(e, PreconditionError) else "")
        print(f"error: {e}{witness}", file=sys.stderr)
        return code
    if "out" in args:  # every command but report
        try:
            if run.checks is not None:
                run.json("verification.json",
                         artifacts.verification_report(run.checks))
            cache = os.environ.get("COARSELAB_CACHE")
            outputs = {}
            for name, text in run.outputs.items():
                digest = artifacts.write_text(os.path.join(args.out, name), text)
                if cache:
                    artifacts.write_text(os.path.join(cache, digest), text)
                outputs[name] = digest
            command = "-".join([args.command, *(getattr(args, k) for k in
                                                ("kind", "analysis") if k in args)])
            parameters = {k: v for k, v in vars(args).items()
                          if k not in ("func", "out")}
            artifacts.write_text(
                os.path.join(args.out, f"{command}.manifest.json"),
                artifacts.canonical_json({
                    "command": command, "inputs": run.inputs,
                    "parameters": parameters, "seed": getattr(args, "seed", 0),
                    "outputs": outputs, "tool_version": artifacts.TOOL_VERSION}))
        except OSError as e:
            print(f"error: cannot write {e.filename or args.out}: "
                  f"{e.strerror or e}", file=sys.stderr)
            return 2
    for c in run.checks or ():
        print(f"check {c['name']}: {'pass' if c['pass'] else 'FAIL'}")
    return EXIT_INVARIANT if run.failed else 0


if __name__ == "__main__":
    sys.exit(main())
