"""Per-layer tracing from outside the package.

The tracer wraps functions of every ``opendicke`` module (the layers) in the
namespaces that bind them, records a span per call (name, layer, start,
end, parent) and counts solver work from the ``solve_ivp`` and ``quad``
bindings of each module.  Nothing inside the package is modified on disk;
the wrappers exist only in the benchmark process that installs them.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict

#: spans and requests are timed in CPU seconds of the benchmark process, which
#: leave out the hypervisor steal time of a shared machine (see run.py)
clock = time.process_time

LAYERS = ("params", "meanfield", "fluctuations", "correlations", "modulation",
          "figures", "runio", "config", "cli")

#: private kernels traced in addition to each module's public functions
PRIVATE_KERNELS = {
    "meanfield": ("_continue_branch",),
    "modulation": ("_solve_cell",),
    "correlations": ("_correlators_frequency", "_correlators_regression",
                     "_resolve_operating_point"),
}

#: methods traced on classes whose instances do a layer's work
TRACED_METHODS = {
    "runio": {"RunWriter": ("__init__", "write_table", "write_json",
                            "write_script", "finalize")},
}

#: solver entry points counted per binding module
SOLVER_BINDINGS = {
    "meanfield": "solve_ivp",
    "modulation": "solve_ivp",
    "correlations": "solve_ivp",
    "params": "quad",
}

#: functions whose names the per-layer metrics refer to; a rename must make
#: installation fail rather than silently read zero
REQUIRED = {
    "params": ("map_to_dicke",),
    "meanfield": ("newton_steady_state", "steady_states", "integrate"),
    "fluctuations": ("spectrum_sweep", "dynamical_matrix"),
    "correlations": ("steady_moments", "default_tau_grid", "g2_spectrum",
                     "two_time_correlations"),
    "modulation": ("driven_response_map", "driven_trajectory"),
    "figures": ("reproduce_figure",),
    "config": ("load_config", "build_config"),
    "cli": ("main", "run"),
}


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "child_s")

    def __init__(self, name, layer, parent):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.child_s = 0.0
        self.start = clock()
        self.end = None


class Tracer:
    """In-memory span recorder with per-layer aggregation.

    ``active`` switches recording on and off without unwrapping, so a
    request can run untraced and then traced in one process.
    """

    def __init__(self):
        self.active = False
        self.hooks: dict = {}
        self._stack: list[Span] = []
        self.spans: list[Span] = []
        self.counts = defaultdict(int)
        self.errors = defaultdict(int)
        self.solver_calls: list = []     # (span name, nfev, njev) per solve_ivp

    # -- recording ---------------------------------------------------------
    def _wrap(self, fn, layer: str, name: str):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span = Span(name, layer, parent)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if parent is None or parent.layer != layer:
                    tracer.errors[(layer, type(exc).__name__)] += 1
                raise
            finally:
                span.end = clock()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
                tracer.spans.append(span)
                tracer.counts[name + ".calls"] += 1
            hook = tracer.hooks.get(name)
            if hook is not None:
                hook(args, span.end - span.start)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _count_solver(self, fn, layer: str):
        tracer = self

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.active:
                if isinstance(result, tuple):   # quad
                    tracer.counts[layer + ".quad_calls"] += 1
                else:                           # solve_ivp
                    where = tracer._stack[-1].name if tracer._stack else layer
                    for key in (layer, where):
                        tracer.counts[key + ".nfev"] += int(result.nfev)
                        tracer.counts[key + ".njev"] += int(result.njev)
                    tracer.solver_calls.append((where, int(result.nfev),
                                                int(result.njev)))
            return result

        counted.__wrapped__ = fn
        return counted

    def install(self, package: str = "opendicke") -> None:
        """Wrap every layer in every namespace that binds it.

        Raises LookupError when a function the metrics depend on is gone.
        """
        modules = {layer: importlib.import_module(f"{package}.{layer}")
                   for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            names = [n for n, f in inspect.getmembers(mod, inspect.isfunction)
                     if f.__module__ == mod.__name__ and not n.startswith("_")]
            for name in REQUIRED.get(layer, ()) + PRIVATE_KERNELS.get(layer, ()):
                if not inspect.isfunction(getattr(mod, name, None)):
                    raise LookupError(f"trace target {layer}.{name} not found")
                if name not in names:
                    names.append(name)
            for name in names:
                fn = getattr(mod, name)
                wrappers[id(fn)] = (fn, self._wrap(fn, layer, f"{layer}.{name}"))
            for cls_name, methods in TRACED_METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(fn, layer, f"{layer}.{cls_name}.{meth}"))
        # every namespace that binds a traced function gets the wrapper, so
        # calls through ``from .meanfield import newton_steady_state`` count
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, key, hit[1])
        for layer, name in SOLVER_BINDINGS.items():
            mod = modules[layer]
            if not callable(getattr(mod, name, None)):
                raise LookupError(f"{layer} no longer binds {name}")
            setattr(mod, name, self._count_solver(getattr(mod, name), layer))

    # -- aggregation -------------------------------------------------------
    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self.errors.clear()
        self.solver_calls.clear()

    def busy_s(self, *names: str) -> float:
        """Wall time inside outermost spans of ``names`` (nesting counted once)."""
        total = 0.0
        for s in self.spans:
            if s.name not in names:
                continue
            p = s.parent
            while p is not None and p.name not in names:
                p = p.parent
            if p is None:
                total += s.end - s.start
        return total

    def self_s(self, layer: str) -> float:
        """Span duration minus child spans, summed over the layer's spans."""
        return sum(s.end - s.start - s.child_s for s in self.spans
                   if s.layer == layer)

    def span_table(self) -> dict:
        """Calls, total and self seconds for every span name."""
        table: dict = {}
        for s in self.spans:
            row = table.setdefault(s.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += s.end - s.start
            row[2] += s.end - s.start - s.child_s
        return {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                for k, v in sorted(table.items())}
