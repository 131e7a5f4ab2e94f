"""Spans and counts around the package's layers, installed from outside.

`Tracer.install()` replaces each listed public function, in every degenrelax
module that bound it, by a wrapper that records a span; `uninstall()` puts
the originals back.  Objects the benchmark hands to the package (weights,
test functions) and the AuxWeight that build_aux_weight returns are moved
to counting subclasses, whose __call__ records a span and the number of
points evaluated.  No package source is edited and no private helper is
wrapped.

A span's self time is its duration minus the durations of the spans it
directly encloses.  Spans are aggregated as they close: per name, the call
count, inclusive and self seconds, and points.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

import numpy as np

# layer -> public functions of that module whose calls get a span
LAYER_FUNCS = {
    "quadrature": ("integrate", "classify_endpoint_integrability"),
    "degeneracy": ("detect_structure",),
    "auxweight": ("build_aux_weight",),
    "spaces": ("lp_aux_norm", "seminorm_energy", "poincare_global_check",
               "check_membership"),
    "relaxation": ("relaxed_functional", "original_functional",
                   "build_approx_sequence"),
    "cascade": ("cascade_partial_sums",),
}

# public constructors whose results become counting objects, so that objects the
# package builds for itself (cascade weights, CLI-parsed weights and functions) count
CONSTRUCTORS = {
    "weights": ("builtin_cascade", "parse_weight_arg"),
    "spaces": ("poly_function", "constant_function", "spline_function",
               "random_test_functions"),
}


def _npoints(x) -> int:
    return int(np.size(x))


class Tracer:
    def __init__(self):
        self.enabled = False
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.points = defaultdict(int)
        self.extra = defaultdict(int)
        self._children = []        # per open span: seconds spent in enclosed spans
        self._in_sigma = 0         # w evaluated by sigma is counted as sigma, not w
        self._in_aux = 0           # sigma evaluated inside an aux call
        self._saved = []           # (module, attribute, original) for uninstall
        self._subclasses = {}

    # -- spans ------------------------------------------------------------

    def span(self, name, fn, args, kwargs=None, points=0):
        if not self.enabled:
            return fn(*args, **(kwargs or {}))
        self._children.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            dt = time.perf_counter() - t0
            inner = self._children.pop()
            if self._children:
                self._children[-1] += dt
            self.calls[name] += 1
            self.incl[name] += dt
            self.self_s[name] += dt - inner
            self.points[name] += points

    # -- public functions ---------------------------------------------------

    def _wrap_function(self, layer, fname, orig):
        tracer = self
        name = f"{layer}.{fname}"

        def wrapper(*args, **kwargs):
            out = tracer.span(name, orig, args, kwargs)
            if tracer.enabled:
                tracer._after(fname, out)
            return out

        wrapper.__wrapped__ = orig
        wrapper.__name__ = fname
        return wrapper

    def _after(self, fname, out):
        if fname == "integrate" and not out.is_finite:
            self.extra["quadrature.integrate.divergent"] += 1
        elif fname == "build_approx_sequence":
            self.extra["relaxation.members"] += len(out.members)
        elif fname == "build_aux_weight":
            self.counting(out)

    def _wrap_constructor(self, orig):
        tracer = self

        def wrapper(*args, **kwargs):
            out = orig(*args, **kwargs)
            for obj in (out if isinstance(out, list) else [out]):
                tracer.counting(obj)
            return out

        wrapper.__wrapped__ = orig
        return wrapper

    def _replace_everywhere(self, mod_name, fname, make):
        owner = importlib.import_module(f"degenrelax.{mod_name}")
        orig = getattr(owner, fname)
        new = make(orig)
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("degenrelax"):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._saved.append((mod, attr, orig))
                    setattr(mod, attr, new)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer, names in LAYER_FUNCS.items():
            for fname in names:
                self._replace_everywhere(
                    layer, fname, lambda o, l=layer, f=fname: self._wrap_function(l, f, o))
        for mod_name, names in CONSTRUCTORS.items():
            for fname in names:
                self._replace_everywhere(mod_name, fname, self._wrap_constructor)
        self.enabled = True

    def uninstall(self):
        self.enabled = False
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    # -- objects handed to the package ----------------------------------------

    def counting(self, obj):
        """Move obj to a counting subclass of its class; returns obj."""
        from degenrelax.auxweight import AuxWeight
        from degenrelax.spaces import TestFunction
        from degenrelax.weights import Weight
        cls = type(obj)
        if cls in self._subclasses.values():
            return obj
        if cls not in self._subclasses:
            if isinstance(obj, Weight):
                body = self._weight_methods(cls)
            elif isinstance(obj, TestFunction):
                body = self._function_methods(cls)
            elif isinstance(obj, AuxWeight):
                body = self._aux_methods(cls)
            else:
                raise TypeError(f"no counting subclass for {cls.__name__}")
            self._subclasses[cls] = type(f"Counting{cls.__name__}", (cls,), body)
        object.__setattr__(obj, "__class__", self._subclasses[cls])
        return obj

    def _weight_methods(self, cls):
        tracer = self
        base_call, base_transform = cls.__call__, cls.transform

        def __call__(self, x):
            if tracer._in_sigma:
                return base_call(self, x)
            return tracer.span("weights.w", base_call, (self, x), points=_npoints(x))

        def transform(self, p):
            inner = base_transform(self, p)

            def sigma(x):
                if not tracer.enabled:
                    return inner(x)
                n = _npoints(x)
                if tracer._in_aux:
                    tracer.extra["auxweight.sigma_in_aux.points"] += n
                tracer._in_sigma += 1
                try:
                    return tracer.span("weights.sigma", inner, (x,), points=n)
                finally:
                    tracer._in_sigma -= 1

            return sigma

        return {"__call__": __call__, "transform": transform}

    def _function_methods(self, cls):
        tracer = self
        base_call, base_d = cls.__call__, cls.d

        def __call__(self, x):
            return tracer.span("spaces.u", base_call, (self, x), points=_npoints(x))

        def d(self, x):
            return tracer.span("spaces.du", base_d, (self, x), points=_npoints(x))

        return {"__call__": __call__, "d": d}

    def _aux_methods(self, cls):
        tracer = self
        base_call = cls.__call__

        def __call__(self, x):
            if not tracer.enabled:
                return base_call(self, x)
            tracer._in_aux += 1
            try:
                return tracer.span("auxweight.aux", base_call, (self, x), points=_npoints(x))
            finally:
                tracer._in_aux -= 1

        return {"__call__": __call__}

    # -- report -------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics by name: (value, unit)."""
        fields = {
            "calls": lambda n: (self.calls[n], "count"),
            "points": lambda n: (self.points[n], "count"),
            "ms": lambda n: (1e3 * self.incl[n], "ms"),
            "self_ms": lambda n: (1e3 * self.self_s[n], "ms"),
        }
        out = {}
        for name, wanted in SPAN_METRICS:
            for f in wanted:
                out[f"{name}.{f}"] = fields[f](name)
        wcalls = self.calls["weights.w"] + self.calls["weights.sigma"]
        wpts = self.points["weights.w"] + self.points["weights.sigma"]
        out["weights.points_per_call"] = (wpts / wcalls if wcalls else 0.0, "points/call")
        apts = self.points["auxweight.aux"]
        out["auxweight.sigma_per_aux_point"] = (
            self.extra["auxweight.sigma_in_aux.points"] / apts if apts else 0.0, "ratio")
        out["quadrature.integrate.divergent"] = (
            self.extra["quadrature.integrate.divergent"], "count")
        out["relaxation.members"] = (self.extra["relaxation.members"], "count")
        return out


# span name -> the aggregates reported for it
SPAN_METRICS = (
    ("quadrature.integrate", ("calls", "ms", "self_ms")),
    ("quadrature.classify_endpoint_integrability", ("calls", "ms")),
    ("weights.w", ("calls", "points", "ms")),
    ("weights.sigma", ("calls", "points", "ms")),
    ("degeneracy.detect_structure", ("calls", "ms", "self_ms")),
    ("auxweight.build_aux_weight", ("calls", "ms", "self_ms")),
    ("auxweight.aux", ("calls", "points", "ms", "self_ms")),
    ("spaces.u", ("points", "ms")),
    ("spaces.du", ("points",)),
    ("spaces.lp_aux_norm", ("calls", "ms")),
    ("spaces.seminorm_energy", ("calls", "ms")),
    ("spaces.poincare_global_check", ("calls", "ms")),
    ("spaces.check_membership", ("calls", "ms")),
    ("relaxation.relaxed_functional", ("calls", "ms")),
    ("relaxation.original_functional", ("calls", "ms")),
    ("relaxation.build_approx_sequence", ("calls", "ms", "self_ms")),
    ("cascade.cascade_partial_sums", ("calls", "ms", "self_ms")),
)
