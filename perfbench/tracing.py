"""Traced runs: spans at advwave's layer boundaries, recorded from outside.

``Tracer.install`` replaces every public function of each advwave module --
plus the cross-module entry points ``atomdyn._pm_raw``/``_comm_raw`` and
``core.Event.__post_init__`` -- with a wrapper that records a span (name,
start, end, parent, failed) in memory.  The wrapper is bound in every module
namespace that holds the original, because ``photodetect``, ``kinetics`` and
``radiometry`` bind ``coeffs_two_level``/``refined_trapezoid`` by name at
import; ``cli`` imports at call time and so picks up the module attribute.
``uninstall`` puts the originals back.

A layer's self time is the duration of its spans minus the time their direct
child spans cover.  No advwave module queues work or runs it concurrently, so
there is no waiting time to record: spans nest strictly.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import math
import os
from collections import Counter, defaultdict
from time import perf_counter

# advwave module -> layer name used in metric names (names start with a letter)
LAYERS = {
    "core": "core", "atomdyn": "atomdyn", "fieldcoeffs": "fieldcoeffs",
    "correlations": "correlations", "radiometry": "radiometry",
    "kinetics": "kinetics", "photodetect": "photodetect", "oracle": "oracle",
    "_quad": "quad", "_report": "report", "cli": "cli",
}
_EXTRA = {"atomdyn": ("_pm_raw", "_comm_raw")}


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    out = []
    for name in names:
        fn = getattr(module, name)
        if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                and not inspect.isgeneratorfunction(fn)):
            out.append(name)
    return out


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _state_size(state):
    return sum(1 if f == "amp_e0" else len(getattr(state, f))
               for f in ("amp_e0", "amp_g1", "amp_e1", "amp_g2")
               if getattr(state, f, None) is not None)


class Tracer:
    """Span recorder and the counters measured at the same boundaries."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index, failed)
        self.counts = Counter()  # work counts from hooks
        self.maxima = Counter()
        self.hook_failures = 0
        self._stack = []
        self._patches = []
        self._hooks = {
            "quad.refined_trapezoid": self._quad_nodes,
            "kinetics.dispersion_change": self._dispersion_points,
            "kinetics.posdisp_change": self._posdisp_points,
            "report.write_csv": self._report_bytes,
            "report.write_svg": self._report_bytes,
            "oracle.propagate": self._propagate,
        }

    # -- installation -------------------------------------------------
    def install(self):
        modules = {m: importlib.import_module(f"advwave.{m}") for m in LAYERS}
        for mod_name, module in modules.items():
            layer = LAYERS[mod_name]
            for fname in _public_functions(module) + list(_EXTRA.get(mod_name, ())):
                original = getattr(module, fname)
                span_name = f"{layer}.{fname}"
                wrapper = self._wrap(original, span_name)
                for namespace in modules.values():
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            self._patches.append((namespace, attr, original))
                            setattr(namespace, attr, wrapper)
        event = modules["core"].Event
        original = event.__dict__["__post_init__"]
        self._patches.append((event, "__post_init__", original))
        event.__post_init__ = self._wrap(original, "core.Event.__post_init__")

    def uninstall(self):
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        hook = self._hooks.get(name)
        tensors = name.startswith("correlations.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name, start, perf_counter(), parent, True)
                stack.pop()
                raise
            end = perf_counter()
            stack.pop()
            spans[idx] = (name, start, end, parent, False)
            if hook is not None or tensors:
                self._observe(hook, tensors, args, kwargs, result)
            return result

        return traced

    # -- counters measured at the boundaries --------------------------
    def _observe(self, hook, tensors, args, kwargs, result):
        try:
            if tensors:
                values = getattr(result, "values", None)
                if values is not None:
                    self.counts["correlations.tensors"] += 1
                    self.counts["correlations.nonzero"] += bool(values.any())
            if hook is not None:
                hook(args, kwargs, result)
        except Exception:  # a counter must never change the program's behaviour
            self.hook_failures += 1

    def _quad_nodes(self, args, kwargs, result):
        a, b, n = (_arg(args, kwargs, i, k) for i, k in ((1, "a"), (2, "b"), (3, "n")))
        if b > a:
            n = max(int(n), 2)
            self.counts["quad.nodes"] += n + n % 2 + 1

    def _dispersion_points(self, args, kwargs, result):
        self.counts["kinetics.grid_points"] += len(_arg(args, kwargs, 0, "t_grid"))

    def _posdisp_points(self, args, kwargs, result):
        t = _arg(args, kwargs, 0, "t")
        params, charge = _arg(args, kwargs, 1, "params"), _arg(args, kwargs, 2, "charge")
        per_period = _arg(args, kwargs, 4, "per_period", 160)
        if t > 0.0 and charge.q != 0.0:
            n = max(64, int(math.ceil(per_period * params.omega0 * t / (2.0 * math.pi))))
            self.counts["kinetics.grid_points"] += n + 1
            self.counts["kinetics.kernel_evals"] += (n + 1) ** 2

    def _report_bytes(self, args, kwargs, result):
        self.counts["report.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

    def _propagate(self, args, kwargs, result):
        state = _arg(args, kwargs, 0, "state")
        self.maxima["oracle.sector_dim"] = max(self.maxima["oracle.sector_dim"],
                                               _state_size(result))
        n_in = state.norm
        if n_in > 0.0:
            residual = abs(result.norm / n_in - 1.0)
            self.maxima["oracle.norm_residual"] = max(self.maxima["oracle.norm_residual"],
                                                      residual)

    # -- aggregation --------------------------------------------------
    def layer_totals(self):
        """Per-layer self time, calls and errors, and inclusive time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s, calls, errors = defaultdict(float), Counter(), Counter()
        inclusive = defaultdict(float)
        for idx, (name, start, end, parent, failed) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            self_s[layer] += end - start - child[idx]
            calls[layer] += 1
            errors[layer] += failed
            inclusive[name] += end - start
            calls[name] += 1
        return self_s, calls, errors, inclusive

    def write_spans(self, path):
        """Spans as gzip CSV: id, parent, name, start_s, end_s, failed."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("id,parent,name,start_s,end_s,failed\n")
            for idx, (name, start, end, parent, failed) in enumerate(self.spans):
                fh.write(f"{idx},{parent},{name},{start - t0:.9f},{end - t0:.9f},{int(failed)}\n")
