"""In-memory span tracer that wraps srofdm's public functions from outside the
package, so `src/` carries no timing code.

`Tracer.install()` replaces every public function of the traced modules, and
every public method of their public classes, with a timing wrapper. Names that
other srofdm modules imported with `from ... import` are rebound too, so a call
through `harness` lands in the same wrapper as a call through `receiver`.
It also counts the process pools `srofdm.harness` creates, and the erasures and
primary symbols in the curves `srofdm.cli.run_sweep` returns.
`Tracer.uninstall()` puts every original back.

Each call records a span (id, parent id, name, start, end) under one run id.
Self time is the span's duration minus the time its child spans cover; the
tracer keeps that as a running sum per name, alongside the call count.
Per-trial calls, and every call made inside one, are rolled up into one
(parent, name, calls, seconds) record per kept parent span instead of one span
each.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

MODULES = ("numerics", "channel", "txchain", "receiver", "theory", "harness", "cli")

# RandomStream's per-draw methods stay in the caller's self time, so the
# per-trial RNG loop shows as `harness.draw_frame_batch` self time.
SKIP_CLASSES = {"RandomStream"}

# called once per trial (14k+ times a run): rolled up, not kept as spans
ROLLED_UP = {"numerics.draw_cn", "channel.draw_link_taps"}

# input bytes are computed (sum of ndarray.nbytes of the arguments), not measured
COUNT_BYTES = {
    "receiver.reestimate_method2",
    "receiver.ml_symbol_metrics",
    "theory.primary_rates_perfect",
    "theory.primary_rates_estimated",
}


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "in_bytes")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.in_bytes = 0


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # (span_id, parent_id, name, start, end)
        self.rolled = {}  # (parent_id, name) -> [calls, seconds]
        self.stats = {}  # name -> Stat
        self.outermost_s = {}  # module -> time in its spans not nested in the same module
        self.pools_created = 0
        self.erasures = 0  # PointResult.erasures over the curves run_sweep returned
        self.primary_symbols = 0
        self._stack = []  # open frames: [span_id, module, child_seconds, rolled_up]
        self._next_id = 1
        self._patches = []  # (owner, attribute, original)

    def stat(self, name: str) -> Stat:
        return self.stats.get(name) or Stat()

    # -- wrapping ---------------------------------------------------------
    def _wrap(self, name: str, fn):
        module = name.split(".", 1)[0]
        rolled_up = name in ROLLED_UP
        count_bytes = name in COUNT_BYTES
        stack = self._stack
        stat = self.stats.setdefault(name, Stat())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_id = parent[0] if parent else 0
            rolled = rolled_up or (parent is not None and parent[3])
            if rolled:
                span_id = parent_id  # children attach to the nearest kept span
            else:
                span_id = self._next_id
                self._next_id += 1
            frame = [span_id, module, 0.0, rolled]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                stat.calls += 1
                stat.total_s += duration
                stat.self_s += duration - frame[2]
                if count_bytes:
                    stat.in_bytes += sum(getattr(a, "nbytes", 0) for a in args)
                    stat.in_bytes += sum(getattr(a, "nbytes", 0) for a in kwargs.values())
                if parent is not None:
                    parent[2] += duration
                if parent is None or parent[1] != module:
                    self.outermost_s[module] = self.outermost_s.get(module, 0.0) + duration
                if rolled:
                    entry = self.rolled.setdefault((parent_id, name), [0, 0.0])
                    entry[0] += 1
                    entry[1] += duration
                else:
                    self.spans.append((span_id, parent_id, name, start, end))

        return traced

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        wrappers = {}  # original function -> its wrapper
        for short in MODULES:
            mod = importlib.import_module(f"srofdm.{short}")
            names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
            for attr in names:
                obj = getattr(mod, attr)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj) and attr not in SKIP_CLASSES:
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._patch(obj, meth, self._wrap(f"{short}.{attr}.{meth}", fn))
        for name, mod in list(sys.modules.items()):
            if name == "srofdm" or name.startswith("srofdm."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        self._patch(mod, attr, wrappers[obj])

        harness = sys.modules["srofdm.harness"]
        tracer = self

        class CountingPool(harness.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                tracer.pools_created += 1
                super().__init__(*args, **kwargs)

        self._patch(harness, "ProcessPoolExecutor", CountingPool)

        cli = sys.modules["srofdm.cli"]
        traced_run_sweep = cli.run_sweep

        def run_sweep(*args, **kwargs):
            curves = traced_run_sweep(*args, **kwargs)
            for curve in curves.values():
                for point in curve.points:
                    tracer.erasures += point.erasures
                    tracer.primary_symbols += point.primary_symbols
            return curves

        self._patch(cli, "run_sweep", run_sweep)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def dump(self) -> dict:
        return {
            "run_id": self.run_id,
            "span_fields": ["span_id", "parent_id", "name", "start_s", "end_s"],
            "spans": self.spans,
            "rolled_up_fields": ["parent_id", "name", "calls", "seconds"],
            "rolled_up": [[p, n, c, s] for (p, n), (c, s) in self.rolled.items()],
            "stats": {
                n: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s, "in_bytes": s.in_bytes}
                for n, s in sorted(self.stats.items())
                if s.calls
            },
            "pools_created": self.pools_created,
            "erasures": self.erasures,
            "primary_symbols": self.primary_symbols,
        }
