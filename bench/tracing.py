"""Spans around the calls into each braidplan layer, recorded from outside.

``Tracer.wrap`` replaces a function under the name its caller looks up, so
the package itself is untouched.  Calls nest on one thread, so a stack gives
each span its parent.  Spans stay in memory and are written out once, when
the run ends.  Spans are timed in the CPU time of the calling thread, like
every other time the benchmark measures in a run; ``Tracer.totals``
converts the readings (to reference seconds, in the worker) before it
takes a span's self time: its duration minus its direct children's.
"""

from __future__ import annotations

import json
from array import array
from collections import defaultdict
from pathlib import Path
from time import thread_time

import numpy as np

# (module attribute, span name) per module whose functions look these up.
HOOKS = {
    "harness": [
        ("plan", "planner.plan"),
        ("ranks_from_positions", "workspace.ranks_from_positions"),
        ("map_path", "workspace.map_path"),
        ("carry_over_braids", "workspace.carry_over_braids"),
        ("simulate", "harness.simulate"),
        ("verify", "harness.verify"),
        ("build_space_time", "geometry.build_space_time"),
        ("extract_crossings", "geometry.extract_crossings"),
        ("sub_events", "geometry.sub_events"),
        ("update_pair", "braid.update_pair"),
        ("update_triplet", "braid.update_triplet"),
    ],
    "workspace": [
        ("ranks_from_positions", "workspace.ranks_from_positions"),
        ("build_space_time", "geometry.build_space_time"),
        ("extract_crossings", "geometry.extract_crossings"),
        ("sub_events", "geometry.sub_events"),
        ("update_pair", "braid.update_pair"),
        ("update_triplet", "braid.update_triplet"),
    ],
    "planner": [
        ("update_triplet", "braid.update_triplet"),
    ],
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: dict[str, int] = defaultdict(int)
        self.crossings = 0
        # Ids of the open spans, innermost last.
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self.name_ids[name]
        stack = self._stack
        counts_crossings = name == "geometry.extract_crossings"

        def traced(*args, **kwargs):
            span_id = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            stack.append(span_id)
            t0 = thread_time()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = thread_time()
                stack.pop()
                self.span_start[span_id] = t0
                self.span_end[span_id] = t1
                self.calls[name] += 1
            if counts_crossings:
                self.crossings += len(out)
            return out

        return traced

    def totals(self, convert=None) -> tuple[dict[str, float], dict[str, float], float]:
        """Self and inclusive time per span name, and the time of all root
        spans, after passing every reading through ``convert``."""
        start, end = np.asarray(self.span_start), np.asarray(self.span_end)
        if convert is not None:
            start, end = convert(start), convert(end)
        dur = end - start
        parent = np.asarray(self.span_parent)
        names = np.asarray(self.span_name)
        child = parent >= 0
        own = dur.copy()
        np.subtract.at(own, parent[child], dur[child])
        k = len(self.names)
        self_s = dict(zip(self.names, np.bincount(names, own, k).tolist()))
        inclusive_s = dict(zip(self.names, np.bincount(names, dur, k).tolist()))
        return self_s, inclusive_s, float(dur[~child].sum())

    def install(self, modules: dict) -> None:
        """Wrap every hooked function in the given ``{key: module}`` map."""
        for key, hooks in HOOKS.items():
            module = modules[key]
            for attr, name in hooks:
                setattr(module, attr, self.wrap(getattr(module, attr), name))

    def write(self, path: Path, header: dict) -> None:
        """One JSON header line, then ``[id, parent, name, start, end]`` per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps({**header, "names": self.names}) + "\n")
            for k in range(len(self.span_start)):
                fh.write(
                    f"[{k},{self.span_parent[k]},{self.span_name[k]},"
                    f"{self.span_start[k]!r},{self.span_end[k]!r}]\n"
                )
