"""In-memory span tracer that measures tricurves layers from outside.

Every traced function is replaced by a wrapper in each ``tricurves`` module
that binds it, because ``scenarios``, ``curves`` and ``cli`` import names
with ``from ... import`` and a call through such a name would otherwise
slip past the span.  Methods (``Metric.__init__``, ``Metric.rot``) are
replaced on the class, which covers every caller.

A span is (name, start, end, parent).  Spans stay in memory as flat arrays
and are written out once, at the end of the run.  Self time is a span's
duration minus the durations of its direct children; spans nest strictly
because the benchmark is single-threaded.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from array import array
from collections import Counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = Counter()
        self.self_s = Counter()
        self.total_s = Counter()
        self.max_s = Counter()
        self.errors = Counter()        # (name, exception type name) -> count
        self.returned = Counter()      # name -> sum of count_return(result)
        self.keys: dict[str, set] = {}  # name -> argument keys of this pass
        self.distinct = Counter()      # name -> distinct keys, summed by pass
        self.active = False
        self._stack: list[list] = []   # [span index, child seconds]
        self._undo: list = []           # restore callables, in install order

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, key=None, count_return=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``key(*args)`` adds a distinct-argument key per call and
        ``count_return(result)`` adds to a per-name running sum.
        """
        nid = self._id(name)
        stack = self._stack
        perf = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if key is not None:
                self.keys.setdefault(name, set()).add(key(*args))
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.errors[(name, type(exc).__name__)] += 1
                raise
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                self.span_start[idx] = t0
                self.span_end[idx] = t1
                self.calls[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - frame[1]
                if dur > self.max_s[name]:
                    self.max_s[name] = dur
                if stack:
                    stack[-1][1] += dur
            if count_return is not None:
                self.returned[name] += count_return(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def end_pass(self) -> None:
        """Count distinct keys per pass: a run-scoped memo lives one pass."""
        for name, keys in self.keys.items():
            self.distinct[name] += len(keys)
        self.keys.clear()

    def set(self, owner, attr: str, value) -> None:
        old = getattr(owner, attr)
        self._undo.append(lambda: setattr(owner, attr, old))
        setattr(owner, attr, value)

    def set_item(self, mapping: dict, key, value) -> None:
        old = mapping[key]
        self._undo.append(lambda: mapping.__setitem__(key, old))
        mapping[key] = value

    def rebind(self, module, attr: str, name: str, **hooks) -> None:
        """Wrap ``module.attr`` and rebind it in every tricurves module."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "tricurves"
                                   or mod_name.startswith("tricurves.")):
                continue
            for binding, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, binding, wrapper)

    def restore(self) -> None:
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()

    def write_spans(self, path) -> int:
        """Write every span as a tab-separated row; returns the span count."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\n")
            for i in range(len(self.span_start)):
                fh.write(f"{i}\t{self.names[self.span_name[i]]}\t"
                         f"{self.span_start[i]!r}\t{self.span_end[i]!r}\t"
                         f"{self.span_parent[i]}\n")
        return len(self.span_start)


def _sides_key(m):
    return (m.a2, m.b2, m.c2, m.sides)


def install(tracer: Tracer, mods) -> None:
    """Wrap the public functions of every layer; ``mods`` holds the modules."""
    kernel, linalg, centers = mods.kernel, mods.linalg, mods.centers
    curves, scenarios, render, cli = (mods.curves, mods.scenarios,
                                      mods.render, mods.cli)

    metric = kernel.Metric
    tracer.set(metric, "__init__", tracer.wrap("kernel.Metric", metric.__init__))
    tracer.set(metric, "rot", tracer.wrap("kernel.Metric.rot", metric.rot))
    tracer.rebind(kernel, "canonical_ints", "kernel.canonical_ints")

    for fn in ("nullspace_vector", "rank_profile_int", "det_int"):
        tracer.rebind(linalg, fn, f"linalg.{fn}")

    tracer.rebind(centers, "eval_center", "centers.eval_center",
                  key=lambda m, cid: (_sides_key(m), cid))
    tracer.rebind(centers, "derived_triangle", "centers.derived_triangle",
                  key=lambda t, kind: (_sides_key(t), kind))
    for fn in ("eval_center_in", "isogonal_in", "eval_expr", "parse_center",
               "random_triangle"):
        tracer.rebind(centers, fn, f"centers.{fn}")

    def fit_key(points):
        return (len(points), tuple(p.triple for p in points))

    for fn in ("conic_through", "cubic_through"):
        tracer.rebind(curves, fn, f"curves.{fn}", key=fit_key)
    for fn in ("transform_conic", "transform_cubic", "line_component",
               "hessian", "pivotal_membership"):
        tracer.rebind(curves, fn, f"curves.{fn}")

    tracer.rebind(scenarios, "run_scenario", "scenarios.run_scenario")
    tracer.rebind(scenarios, "build_figure", "scenarios.build_figure")
    registry = scenarios.REGISTRY
    for sid, sc in list(registry.items()):
        claims = tuple(
            dataclasses.replace(c, check=tracer.wrap("scenarios.claims", c.check))
            for c in sc.claims)
        tracer.set_item(registry, sid, dataclasses.replace(
            sc, setup=tracer.wrap("scenarios.setup", sc.setup), claims=claims))

    tracer.rebind(render, "trace_segments", "render.trace_segments",
                  count_return=len)
    tracer.rebind(cli, "report_json", "cli.report_json")
    tracer.rebind(cli, "main", "cli.main")

