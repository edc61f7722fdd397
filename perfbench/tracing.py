"""Span recording around the public functions of the ``plc`` layers.

The library itself is not instrumented.  :class:`Tracer` rebinds each traced
function, in every loaded ``plc`` module that holds a reference to it, to a
wrapper that records ``(name, start, end, parent, op)``.  Spans stay in
memory until :meth:`Tracer.dump`.  A span's self time is its duration minus
the durations of its direct children.
"""
from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

# span name -> (module, attribute); "Class.method" attributes are methods
TRACED = {
    "workspace.enumerate_workspace": ("plc.workspace", "enumerate_workspace"),
    "workspace.configuration_from_rank": ("plc.workspace", "configuration_from_rank"),
    "workspace.index_init": ("plc.workspace", "WorkspaceIndex.__init__"),
    "workspace.save": ("plc.workspace", "WorkspaceIndex.save"),
    "workspace.load": ("plc.workspace", "WorkspaceIndex.load"),
    "workspace.nearest_point_index": ("plc.workspace", "WorkspaceIndex.nearest_point_index"),
    "kinematics.chain_pose": ("plc.kinematics", "chain_pose"),
    "ik.solve_ik": ("plc.ik", "solve_ik"),
    "stiffness.firmed_compliance": ("plc.stiffness", "firmed_compliance"),
    "stiffness.stiffness_map": ("plc.stiffness", "stiffness_map"),
    "stiffness.force_deflection": ("plc.stiffness", "force_deflection"),
    "stiffness.skin_twist": ("plc.stiffness", "skin_twist"),
    "planner.plan_to": ("plc.planner", "plan_to"),
    "planner.simulate": ("plc.planner", "simulate"),
    "model.parse_robot_description": ("plc.model", "parse_robot_description"),
}

# per-layer metric name -> (span name, scale from seconds)
SELF_TIME_METRICS = {
    "workspace.enumerate_workspace.s": ("workspace.enumerate_workspace", 1.0),
    "workspace.save.s": ("workspace.save", 1.0),
    "workspace.load.s": ("workspace.load", 1.0),
    "workspace.index_init.s": ("workspace.index_init", 1.0),
    "workspace.nearest_point_index.ms": ("workspace.nearest_point_index", 1e3),
    "workspace.configuration_from_rank.ms": ("workspace.configuration_from_rank", 1e3),
    "ik.solve_ik.self_ms": ("ik.solve_ik", 1e3),
    "kinematics.chain_pose.ms": ("kinematics.chain_pose", 1e3),
    "stiffness.firmed_compliance.ms": ("stiffness.firmed_compliance", 1e3),
    "stiffness.stiffness_map.ms": ("stiffness.stiffness_map", 1e3),
    "stiffness.force_deflection.ms": ("stiffness.force_deflection", 1e3),
    "stiffness.skin_twist.ms": ("stiffness.skin_twist", 1e3),
    "planner.plan_to.ms": ("planner.plan_to", 1e3),
    "planner.simulate.ms": ("planner.simulate", 1e3),
    "model.parse_robot_description.ms": ("model.parse_robot_description", 1e3),
}


class Tracer:
    """In-memory span recorder; ``op`` tags spans with the current operation
    (-1 during set-up)."""

    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.op)

        return traced

    @contextmanager
    def installed(self):
        """Rebind every traced function while the block runs."""
        undo = []
        for name, (module_name, attr) in TRACED.items():
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                setattr(cls, meth, new)
                undo.append((cls, meth, raw))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "plc" or mod_name.startswith("plc.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        undo.append((mod, key, original))
        try:
            yield self
        finally:
            for owner, key, value in reversed(undo):
                setattr(owner, key, value)

    def extend(self, spans, op: int) -> None:
        """Append spans recorded in another process, re-tagged with ``op``."""
        base = len(self.spans)
        for name, start, end, parent, _ in spans:
            self.spans.append((name, start, end, parent + base if parent >= 0 else -1, op))

    def self_times(self) -> dict[str, list[float]]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list[float]] = {}
        for (name, start, end, _, _), inner in zip(self.spans, child):
            out.setdefault(name, []).append(end - start - inner)
        return out

    def calls_in_ops(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name and span[4] >= 0)

    def layer_metrics(self) -> tuple[dict[str, float], dict[str, int]]:
        """Median self time per call, and the call count, of every traced
        layer that ran."""
        selfs = self.self_times()
        values, calls = {}, {}
        for metric, (span, scale) in SELF_TIME_METRICS.items():
            if span in selfs:
                values[metric] = statistics.median(selfs[span]) * scale
                calls[metric] = len(selfs[span])
        return values, calls

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        return [tuple(json.loads(line)) for line in fh if line.strip()]
