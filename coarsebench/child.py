"""One workload process: import the library, run one pipeline or one CLI
command, write what it measured to a JSON result file.

    python child.py ROOT RESULT TRACE probe
    python child.py ROOT RESULT TRACE pipeline NAME SEED
    python child.py ROOT RESULT TRACE cli ARGV...

TRACE is 1 to wrap the library's functions in spans, else 0.

``setup`` times the import of coarselab with numpy and scipy, before the
first library call.  A pipeline's ``work`` runs from its first library
call to its verified result; the content digests are computed after it.
A CLI command's ``work`` is its call of ``coarselab.cli.main``, and the
process exits with the code that returns, as ``python -m coarselab.cli``
would.  Both are ``RefClock`` results (see ``clock.py``); ``work`` ticks
only in an untraced process, so that the reference loops stay out of the
traced spans.
"""

import json
import os
import sys
import traceback

from clock import RefClock


def _import_library(root: str, with_cli: bool) -> dict:
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    clock = RefClock(ticks=False)
    clock.start()
    import numpy  # noqa: F401
    import scipy.sparse.csgraph  # noqa: F401
    import coarselab
    if with_cli:
        import coarselab.cli  # noqa: F401
    setup = clock.stop()
    if not os.path.abspath(coarselab.__file__).startswith(src + os.sep):
        raise SystemExit(f"coarselab imported from {coarselab.__file__}, "
                         f"not from {src}")
    return setup


def _install_tracer():
    import importlib

    import coarselab
    from layers import LAYERS, TARGETS
    from tracer import Tracer

    modules = {"coarselab": coarselab}
    for name in LAYERS:
        try:
            modules[name] = importlib.import_module(f"coarselab.{name}")
        except ImportError:
            pass  # its targets are reported absent
    tracer = Tracer()
    tracer.install(TARGETS, modules)
    return tracer


def _trace_record(tracer) -> dict:
    return {"summary": tracer.summary(), "counters": dict(tracer.counters),
            "rss_delta_mb": dict(tracer.rss_delta), "absent": tracer.absent,
            "top_level_s": tracer.top_level_s(),
            "snap_queries": tracer.calls_under(
                "spaces.SpaceGraph.points_near_coords",
                "spaces.SpaceGraph.nearest_point")}


def main(argv: list[str]) -> int:
    root, result_path, trace, mode, *rest = argv
    out = {"setup": _import_library(root, with_cli=(mode == "cli"))}
    tracer = _install_tracer() if trace == "1" else None
    clock = RefClock(ticks=(trace == "0"))
    rc = 0
    if mode == "pipeline":
        from checks import Checks
        import workloads

        with open(os.path.join(os.path.dirname(__file__), "pins.json")) as fh:
            checks = Checks(json.load(fh)["digests"])
        clock.start()
        try:
            out["points"], digests = workloads.PIPELINES[rest[0]](
                int(rest[1]), checks)
        except Exception:
            checks.add("exception", False, traceback.format_exc())
            digests = {}
        out["work"] = clock.stop()
        for name, digest in digests.items():
            checks.digest(name, digest())
        out["checks"] = checks.items
    elif mode == "cli":
        import coarselab.cli

        clock.start()
        try:
            rc = coarselab.cli.main(rest)
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 2
        finally:
            out["work"] = clock.stop()
        sys.stdout.flush()
    if tracer is not None:
        out["trace"] = _trace_record(tracer)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
