"""Spans around the public calls of each belyi layer, recorded from outside.

``Tracer.install`` rebinds each traced function, wherever a belyi module
holds it, to a wrapper that records a span (name, start, end, parent,
operation); ``uninstall`` restores the originals, so untraced rounds run
the program unchanged.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

# (span name, module, attribute); develop_horoball spans also carry the
# number of developed triangles it returned.
FUNCTIONS = [
    ("ribbon.sample", "belyi.ribbon", "sample"),
    ("ribbon.faces", "belyi.ribbon", "faces"),
    ("cusps.partition_cusps", "belyi.cusps", "partition_cusps"),
    ("cusps.has_large_cusps", "belyi.cusps", "has_large_cusps"),
    ("cheeger.cheeger_upper_bound", "belyi.cheeger", "cheeger_upper_bound"),
    ("farey.classify_segments", "belyi.farey", "classify_segments"),
    ("farey.develop_horoball", "belyi.farey", "develop_horoball"),
    ("experiments.run_trial", "belyi.experiments", "run_trial"),
    ("experiments.write_csv", "belyi.experiments", "write_csv"),
    ("cli.main", "belyi.cli", "main"),
]

# Per-layer metrics: median seconds per call of the span of that name.
TIMED = [
    "ribbon.sample",
    "ribbon.faces",
    "ribbon.from_json_dict",
    "cusps.partition_cusps",
    "cusps.has_large_cusps",
    "cheeger.cheeger_upper_bound",
    "farey.classify_segments",
    "experiments.run_trial",
    "experiments.write_csv",
    "cli.main",
    "cli.json_load",
]


class _JsonProxy:
    """Stands in for the ``json`` module inside ``belyi.cli`` with a traced ``load``."""

    def __init__(self, module, load):
        self._module = module
        self.load = load

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        # (id, parent id, operation, name, start, end, count)
        self.spans: list[tuple] = []
        self.op: object = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn, counted: bool = False):
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(sid)
            count = None
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                if counted:
                    count = len(out)
                return out
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (sid, parent, self.op, name, t0, t1, count)

        return traced

    def _rebind(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "belyi" or k.startswith("belyi.")]
        for name, module, attr in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            traced = self.wrap(name, original, counted=attr == "develop_horoball")
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._rebind(m, key, traced)
        ribbon = sys.modules["belyi.ribbon"]
        from_json = ribbon.RibbonGraph.__dict__["from_json_dict"].__func__
        self._rebind(
            ribbon.RibbonGraph,
            "from_json_dict",
            classmethod(self.wrap("ribbon.from_json_dict", from_json)),
        )
        cli = sys.modules["belyi.cli"]
        self._rebind(cli, "json", _JsonProxy(cli.json, self.wrap("cli.json_load", cli.json.load)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def metrics(self, own_ops: set, probe_op: object) -> dict[str, float]:
        """Per-layer figures from the spans of the operations ``own_ops``.

        A layer those operations never call is taken from the spans of
        the probe operation instead.
        """
        own = [s for s in self.spans if s[2] in own_ops]
        probe = [s for s in self.spans if s[2] == probe_op]

        def pick(name):
            mine = [s for s in own if s[3] == name]
            return (mine, own) if mine else ([s for s in probe if s[3] == name], probe)

        out = {}
        for name in TIMED:
            chosen, _ = pick(name)
            out[name + "_s"] = statistics.median(s[5] - s[4] for s in chosen)
        trials, pool = pick("experiments.run_trial")
        child_time: dict[int, float] = {}
        for s in pool:
            if s[1] is not None:
                child_time[s[1]] = child_time.get(s[1], 0.0) + s[5] - s[4]
        out["experiments.run_trial_self_s"] = statistics.median(
            s[5] - s[4] - child_time.get(s[0], 0.0) for s in trials
        )
        classify, pool = pick("farey.classify_segments")
        ids = {s[0] for s in classify}
        developed = sum(s[6] for s in pool if s[3] == "farey.develop_horoball" and s[1] in ids)
        out["farey.developed_triangles"] = developed / len(classify)
        return out

    def write(self, path: Path) -> None:
        keys = ("id", "parent", "op", "name", "start", "end", "count")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]) + "\n")
