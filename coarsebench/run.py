"""Run one coarselab benchmark workload and print its metrics.

    python3 coarsebench/run.py --workload h2-tiling --seed 1 --seconds 32 --trace 0
    python3 coarsebench/run.py --workload all

Run from anywhere inside a checkout; the library is imported from the
checkout's ``src``.  Every repetition and every CLI command runs in a fresh
interpreter, one process at a time, with ``COARSELAB_CACHE`` unset and a
fresh output directory under ``.bench_tmp``, so no in-process memo or
artifact cache carries over and each peak RSS belongs to one process.

With ``--trace 0`` the run repeats the workload while the next repetition
still fits in ``--seconds`` and reports medians of the end-to-end metrics.
Times are in reference seconds (see ``clock.py``), which take out the
host's own changes of speed; the wall seconds are printed beside them.
With ``--trace 1`` it runs the workload once untraced and once with every
layer function wrapped in spans, and reports the per-layer metrics.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` (checks and CLI commands) and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

from checks import Checks, check_cli_outputs, cli_commands, command_name  # noqa: E402
from clock import REF_LOOP_S  # noqa: E402

WORKLOADS = ("h2-tiling", "hd3-cover", "tree-walk", "cli-roundtrip")
RUN_LIMIT_S = 170.0   # a run must exit within 180 s
SETUP_PROBES = 5      # extra import-only processes per pipeline run
DIAGNOSTICS = ("wall_s", "raw_setup_s", "points_per_s")  # printed only


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _tail(path: str, lines: int = 12) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return "\n".join(fh.read().splitlines()[-lines:])


class Runner:
    """Spawns workload processes into one temporary directory."""

    def __init__(self, tmp: str, deadline: float, pins: dict):
        self.tmp = tmp
        self.deadline = deadline
        self.pins = pins
        self.count = 0
        self.env = {k: v for k, v in os.environ.items()
                    if k != "COARSELAB_CACHE"}
        self.env.update(PYTHONPATH=os.path.join(ROOT, "src"),
                        PYTHONHASHSEED="0")

    def spawn(self, trace: int, *args: str) -> dict:
        """Run child.py to completion; returns its exit code, wall time,
        peak RSS, CPU time, stdout and result record (None if it wrote none)."""
        self.count += 1
        base = os.path.join(self.tmp, f"proc{self.count}")
        res_path = base + ".json"
        with open(base + ".out", "w") as out, open(base + ".err", "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "child.py"), ROOT,
                 res_path, str(trace), *args],
                stdout=out, stderr=err, env=self.env, cwd=self.tmp)
            timed_out, pid = False, 0
            try:
                while True:
                    pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                    if pid:
                        break
                    if time.perf_counter() > self.deadline:
                        timed_out = True
                        break
                    time.sleep(0.002)
            finally:
                if not pid:  # timed out or interrupted: stop the child
                    proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(base + ".out", encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        result = _load(res_path) if os.path.exists(res_path) else None
        return {"rc": proc.returncode, "wall_s": wall,
                "rss_mb": usage.ru_maxrss / 1024.0,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "stdout": stdout, "result": result, "timed_out": timed_out,
                "stderr_tail": _tail(base + ".err")}

    def pipeline_rep(self, name: str, seed: int, trace: int) -> dict:
        p = self.spawn(trace, "pipeline", name, str(seed))
        r = p["result"] or {}
        checks = r.get("checks") or []
        if p["rc"] != 0 or not checks:
            checks.append({"name": "process-exit-0", "pass": False,
                           "witness": {"rc": p["rc"], "timed_out": p["timed_out"],
                                       "stderr": p["stderr_tail"]}})
        work = r.get("work") or {}
        return {"wall_s": work.get("raw_s"), "ref_s": work.get("ref_s"),
                "points": r.get("points", 0),
                "rss_mb": p["rss_mb"], "cpu_s": p["cpu_s"],
                "span_s": p["wall_s"], "checks": checks,
                "setup": [r["setup"]] if "setup" in r else [],
                "traces": [r.get("trace")], "commands": {}}

    @staticmethod
    def command_times(p: dict) -> tuple[float, float]:
        """Wall and reference seconds of one CLI command process, from its
        launch to its exit, with its reference loops left out.  The part
        its clocks do not cover (interpreter start and exit) is converted
        at the median loop speed of the process."""
        r = p["result"]
        clocks = [r["setup"], r["work"]]
        loops_s = sum(c["loops_s"] for c in clocks)
        uncovered = p["wall_s"] - loops_s - sum(c["raw_s"] for c in clocks)
        loop_s = statistics.median(c["loop_s"] for c in clocks)
        ref_s = sum(c["ref_s"] for c in clocks) + uncovered * REF_LOOP_S / loop_s
        return p["wall_s"] - loops_s, ref_s

    def cli_rep(self, seed: int, trace: int) -> dict:
        out_dir = os.path.join(self.tmp, f"cli{self.count}")
        checks = Checks(self.pins)
        procs = []
        t0 = time.perf_counter()
        for argv in cli_commands(seed, out_dir):
            procs.append((argv, self.spawn(trace, "cli", *argv)))
        span = time.perf_counter() - t0
        commands: dict = defaultdict(lambda: {"ref_s": [], "setup": []})
        reports = {}
        wall = ref = 0.0
        for i, (argv, p) in enumerate(procs):
            name = command_name(argv)
            checks.add(f"cli:{i}:{name}:exit-0", p["rc"] == 0 and p["result"],
                       None if p["rc"] == 0 else
                       {"rc": p["rc"], "stderr": p["stderr_tail"]})
            if p["result"]:
                cmd_wall, cmd_ref = self.command_times(p)
                wall, ref = wall + cmd_wall, ref + cmd_ref
                commands[name]["ref_s"].append(cmd_ref)
                commands[name]["setup"].append(p["result"]["setup"])
            if argv[0] == "report":
                reports[argv[1]] = p["stdout"]
        points = 0
        try:
            points = check_cli_outputs(out_dir, reports, checks)
        except (OSError, KeyError, TypeError, ValueError) as e:
            checks.add("cli:outputs-readable", False, repr(e))
        return {"wall_s": wall, "ref_s": ref, "points": points,
                "rss_mb": max(p["rss_mb"] for _, p in procs),
                "cpu_s": sum(p["cpu_s"] for _, p in procs),
                "span_s": span, "checks": checks.items,
                "setup": [s for c in commands.values() for s in c["setup"]],
                "traces": [(p["result"] or {}).get("trace") for _, p in procs],
                "commands": dict(commands)}

    def rep(self, workload: str, seed: int, trace: int) -> dict:
        if workload == "cli-roundtrip":
            return self.cli_rep(seed, trace)
        return self.pipeline_rep(workload, seed, trace)


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def end_to_end(reps: list[dict], setup: list[dict]) -> dict:
    """The end-to-end metrics, then the wall-second diagnostics."""
    ref = _median(r["ref_s"] for r in reps)
    wall = _median(r["wall_s"] for r in reps)
    points = max(r["points"] for r in reps)
    return {"ref_wall_s": ref,
            "setup_s": _median(s["ref_s"] for s in setup),
            "peak_rss_mb": _median(r["rss_mb"] for r in reps),
            "points_per_ref_s": points / ref if ref else 0.0,
            "wall_s": wall,
            "raw_setup_s": _median(s["raw_s"] for s in setup),
            "points_per_s": points / wall if wall else 0.0}


def per_layer(untraced: dict, traced: dict) -> tuple[dict, list[str]]:
    """Flat per-layer metrics from a traced repetition, plus absent names."""
    flat: dict = defaultdict(float)
    absent: set = set()
    top = snaps = 0.0
    for rec in traced["traces"]:
        if not rec:
            continue
        for name, row in rec["summary"].items():
            flat[f"{name}.calls"] += row["calls"]
            flat[f"{name}.self_s"] += row["self_s"]
        for name, value in rec["counters"].items():
            flat[name] += value
        for name, value in rec["rss_delta_mb"].items():
            flat[f"{name}.rss_delta_mb"] += value
        absent.update(rec["absent"])
        top += rec["top_level_s"]
        snaps += rec["snap_queries"]
    nearest = flat.get("spaces.SpaceGraph.nearest_point.calls", 0)
    flat["spaces.range_queries_per_snap"] = snaps / nearest if nearest else 0.0
    wall, base = traced["wall_s"] or 0.0, untraced["wall_s"] or 0.0
    flat["trace.wall_s"] = wall
    flat["trace.overhead_s"] = wall - base
    flat["trace.unattributed_share"] = max(0.0, wall - top) / wall if wall else 0.0
    flat["proc.cpu_s"] = untraced["cpu_s"]
    for name, c in untraced["commands"].items():
        flat[f"cli.{name}.wall_s"] = sum(c["ref_s"])
        flat[f"cli.{name}.setup_s"] = _median(s["ref_s"] for s in c["setup"])
    return flat, sorted(absent)


def run_workload(workload: str, seed: int, seconds: int, trace: int,
                 pins: dict) -> dict:
    start = time.perf_counter()
    tmp = os.path.join(ROOT, ".bench_tmp", f"{workload}-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        runner = Runner(tmp, start + RUN_LIMIT_S, pins["digests"])
        setup: list[dict] = []
        if trace:
            reps = [runner.rep(workload, seed, 0), runner.rep(workload, seed, 1)]
        else:
            if workload != "cli-roundtrip":
                for _ in range(SETUP_PROBES):
                    r = runner.spawn(0, "probe")["result"]
                    setup += [r["setup"]] if r else []
            reps = []
            while True:
                reps.append(runner.rep(workload, seed, 0))
                elapsed = time.perf_counter() - start
                if elapsed + reps[-1]["span_s"] > seconds:  # next would overrun
                    break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for r in reps:
        setup += r["setup"]
    checks = [c for r in reps for c in r["checks"]]
    out = {"workload": workload, "seed": seed, "reps": len(reps),
           "checks": checks, "failed": sum(not c["pass"] for c in checks),
           "cpu_s": _median(r["cpu_s"] for r in reps)}
    if trace:
        out["metrics"], out["absent"] = per_layer(reps[0], reps[1])
    else:
        out["metrics"], out["absent"] = end_to_end(reps, setup), []
    return out


def _git_sha() -> str:
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def environment() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"
    return {"git_sha": _git_sha(), "nproc": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": version("numpy"),
            "scipy": version("scipy")}


def report(res: dict, specs: list[dict], env: dict) -> dict:
    """Print the human-readable lines; return the metrics named in specs."""
    print(f"coarsebench {res['workload']} seed={res['seed']} reps={res['reps']} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    for c in res["checks"]:
        notes = {k: v for k, v in c.items() if k not in ("name", "pass", "witness")}
        if not c["pass"]:
            print(f"  FAIL {c['name']}: {json.dumps(c['witness'], default=str)}")
        elif notes:
            print(f"  note {c['name']}: {json.dumps(notes, default=str)}")
    if res["absent"]:
        print("  absent (reported as 0): " + ", ".join(res["absent"]))
    metrics = {}
    for spec in specs:
        value = float(res["metrics"].get(spec["name"], 0.0))
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"  {spec['name']:<48} {value:14.6g} {spec['unit']}")
    n = len(res["checks"])
    print(f"  {'fail_rate':<48} {res['failed'] / max(n, 1):14.6g} ratio"
          f" ({res['failed']}/{n} operations failed)")
    diagnostics = {name: (value, "1/s" if name.endswith("_per_s") else "s")
                   for name, value in res["metrics"].items()
                   if name in DIAGNOSTICS}
    diagnostics.setdefault("proc.cpu_s", (res["cpu_s"], "s"))
    for name, (value, unit) in diagnostics.items():
        if name not in metrics:
            print(f"  {name:<48} {value:14.6g} {unit} (diagnostic, wall clock)")
    return metrics


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through spawn, which stops the child


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "coarselab", "__init__.py")) \
            or not os.path.isfile(bench_path):
        print(f"error: {ROOT} is not a coarselab checkout with BENCHMARK.json",
              file=sys.stderr)
        return 2
    bench = _load(bench_path)
    pins = _load(os.path.join(HERE, "pins.json"))
    seed = pins["seeds"]["baseline"] if args.seed is None else args.seed
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    specs = bench["per_layer" if args.trace else "end_to_end"]
    env = environment()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        res = run_workload(name, seed, seconds, args.trace, pins)
        shown = report(res, specs, env)
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in shown.items()})
        attempted += len(res["checks"])
        failed += res["failed"]
        correct = correct and res["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
