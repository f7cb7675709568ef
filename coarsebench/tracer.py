"""Outside-in span tracer: wraps library functions from the benchmark's side.

A wrapped call records a span (name, start, end, parent span); spans stay
in memory until ``summary`` folds them into per-name call counts, total
and self time.  Self time is a span's duration minus the time its child
spans cover.  Every alias of a wrapped function in the given modules is
rebound, so ``from .spaces import generate_net`` callers are traced too.
A name that no longer exists is recorded as absent instead of failing.
"""

from __future__ import annotations

import functools
import resource
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Target:
    """One function to wrap: ``qualname`` is ``func`` or ``Class.method``.

    ``before(args, kwargs)`` and ``after(result, args, kwargs)`` return
    ``{counter: increment}`` dicts; counters are summed over calls.
    """

    module: str
    qualname: str
    before: Optional[Callable] = None
    after: Optional[Callable] = None


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 maxrss: Callable[[], float] = _maxrss_mb):
        self.clock = clock
        self.maxrss = maxrss
        self.names: list[str] = []
        # span records: [name index, start, end, parent record index or -1]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.rss_delta: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []

    # -- spans ------------------------------------------------------------

    def _begin(self, name_id: int) -> tuple[int, float]:
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append([name_id, 0.0, 0.0, parent])
        self.stack.append(idx)
        rss0 = self.maxrss() if parent < 0 else -1.0
        self.spans[idx][1] = self.clock()
        return idx, rss0

    def _end(self, idx: int, rss0: float) -> None:
        rec = self.spans[idx]
        rec[2] = self.clock()
        self.stack.pop()
        if rss0 >= 0:
            self.rss_delta[self.names[rec[0]]] += self.maxrss() - rss0

    def traced(self, name: str, fn: Callable, before=None, after=None) -> Callable:
        """``fn`` wrapped in a span called ``name``."""
        name_id = len(self.names)
        self.names.append(name)
        counters = self.counters

        def wrapper(*args, **kwargs):
            if before is not None:
                for k, v in before(args, kwargs).items():
                    counters[k] += v
            idx, rss0 = self._begin(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(idx, rss0)
            if after is not None:
                for k, v in after(result, args, kwargs).items():
                    counters[k] += v
            return result

        return functools.update_wrapper(wrapper, fn)

    # -- installation -----------------------------------------------------

    def install(self, targets: list[Target], modules: dict) -> None:
        """Wrap each target found in ``modules`` (name -> module object) and
        rebind every alias of it held by any of those modules."""
        for t in targets:
            name = f"{t.module}.{t.qualname}"
            owner = modules.get(t.module)
            *cls_path, attr = t.qualname.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self.traced(name, original, t.before, t.after)
            setattr(owner, attr, wrapper)
            if not cls_path:
                for mod in modules.values():
                    for alias, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, alias, wrapper)

    # -- results ----------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total_s and self_s."""
        child = [0.0] * len(self.spans)
        for name_id, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for (name_id, start, end, _), covered in zip(self.spans, child):
            row = out.setdefault(self.names[name_id],
                                 {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - covered
        return out

    def top_level_s(self) -> float:
        """Time covered by spans that have no parent span."""
        return sum(end - start for _, start, end, parent in self.spans
                   if parent < 0)

    def calls_under(self, child: str, parent: str) -> int:
        """Calls of ``child`` made directly from a ``parent`` span."""
        return sum(1 for name_id, _, _, p in self.spans
                   if p >= 0 and self.names[name_id] == child
                   and self.names[self.spans[p][0]] == parent)
