"""Per-layer tracing for the qcong benchmark, installed from outside the
package.

`install` replaces every binding through which the program reaches a
layer's public call (module globals, names imported into other modules,
class attributes such as ``Series.__rmul__``) with a wrapper that records
a span.  Spans stay in memory; `layer_metrics` reduces them to the
per-layer metrics listed in `PER_LAYER`.  Spans assume one thread, which
holds because the benchmark removes ``QCONG_THREADS`` from the child's
environment.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from time import perf_counter

# (name, unit, better) for every per-layer metric, in report order
PER_LAYER = (
    [(f"series.{op}.{ring}.{size}.{field}", unit, "lower")
     for op in ("mul", "invert") for ring in ("mod", "exact")
     for size in ("small", "mid", "large")
     for field, unit in (("calls", "count"), ("s", "s"), ("coeffs", "count"))]
    + [("qfunctions.eta_quotient.calls", "count", "lower"),
       ("qfunctions.eta_quotient.self_s", "s", "lower"),
       ("qfunctions.theta.calls", "count", "lower"),
       ("qfunctions.theta.s", "s", "lower"),
       ("qfunctions.verify_identity.self_s", "s", "lower"),
       ("counting.count.calls", "count", "lower"),
       ("counting.count.s", "s", "lower"),
       ("counting.count.terms", "count", "lower"),
       ("congruence.cache.hits", "count", "higher"),
       ("congruence.cache.misses", "count", "lower"),
       ("congruence.cache.hit_ratio", "ratio", "higher"),
       ("congruence.cache.miss_s", "s", "lower"),
       ("congruence.cache.build_yield", "ratio", "higher"),
       ("congruence.verify.self_s", "s", "lower"),
       ("congruence.search.self_s", "s", "lower"),
       ("report.compare.calls", "count", "lower"),
       ("report.compare.terms", "count", "lower"),
       ("report.compare.s", "s", "lower")]
    + [(f"suite.c{n:02d}.s", "s", "lower") for n in range(1, 13)]
    + [("cli.main.self_s", "s", "lower"),
       ("trace.overhead_s", "s", "lower")]
)


def _size(order: int) -> str:
    return "small" if order <= 2048 else "mid" if order <= 16384 else "large"


def _ring(series) -> str:
    return "exact" if series.modulus is None else "mod"


def _describe_mul(a, result):
    series = sys.modules["qcong.series"].Series
    other = a["other"]
    if not isinstance(other, series):
        return None   # scalar multiple, no convolution
    n = min(a["self"].order, other.order)
    return {"ring": _ring(a["self"]), "size": _size(n), "coeffs": n}


def _describe_invert(a, result):
    n = a["self"].order
    return {"ring": _ring(a["self"]), "size": _size(n), "coeffs": n}


# (module, attribute path, span name, describe(bound arguments, result))
TARGETS = (
    ("series", "Series.__mul__", "series.mul", _describe_mul),
    ("series", "Series.invert", "series.invert", _describe_invert),
    ("qfunctions", "eta_quotient", "qfunctions.eta_quotient", None),
    *(("qfunctions", fn, "qfunctions.theta", None)
      for fn in ("euler_product", "phi", "psi", "phi_neg", "general_theta",
                 "x_series", "y_series")),
    ("qfunctions", "verify_identity", "qfunctions.verify_identity", None),
    ("counting", "count", "counting.count",
     lambda a, r: {"terms": a["upto"] + 1}),
    ("congruence", "expand_quotient", "congruence.expand_quotient",
     lambda a, r: {"requested": a["order"], "built": r.order}),
    ("congruence", "verify", "congruence.verify", None),
    ("congruence", "search", "congruence.search", None),
    ("report", "compare_coefficients", "report.compare",
     lambda a, r: {"terms": a["terms"]}),
    ("series", "congruent_mod", "report.compare",
     lambda a, r: {"terms": a["upto"]}),
    ("suite", "run_criterion", "suite.run_criterion",
     lambda a, r: {"number": a["number"]}),
    ("cli", "main", "cli.main", None),
)


class Tracer:
    """Records spans as [name, start, end, parent index, attributes]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, describe=None):
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if describe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[4] = describe(bound.arguments, result)
            return result

        return traced


def _namespaces():
    """Every module of the package and every class defined in it."""
    out = []
    for name, module in list(sys.modules.items()):
        if name != "qcong" and not name.startswith("qcong."):
            continue
        out.append(module)
        out += [v for v in vars(module).values()
                if isinstance(v, type) and v.__module__.startswith("qcong")]
    return out


def install(tracer: Tracer) -> None:
    """Wrap every binding of every target."""
    for module in ("series", "qfunctions", "counting", "congruence",
                   "report", "suite", "cli"):
        importlib.import_module(f"qcong.{module}")
    spaces = _namespaces()
    for module, path, name, describe in TARGETS:
        owner = importlib.import_module(f"qcong.{module}")
        for part in path.split("."):
            owner = getattr(owner, part)
        wrapper = tracer.wrap(name, owner, describe)
        for space in spaces:
            for key, value in list(vars(space).items()):
                if value is owner:
                    setattr(space, key, wrapper)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Reduce spans to every metric in PER_LAYER except trace.overhead_s."""
    out = {name: 0 for name, _, _ in PER_LAYER if name != "trace.overhead_s"}
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start

    def nested_in(i: int, name: str) -> int:
        parent = spans[i][3]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        return parent

    misses = set()
    for i, span in enumerate(spans):
        if span[0] == "qfunctions.eta_quotient":
            owner = nested_in(i, "congruence.expand_quotient")
            if owner >= 0:
                misses.add(owner)

    for i, (name, start, end, parent, attrs) in enumerate(spans):
        dur = end - start
        own = dur - child_s[i]
        if name in ("series.mul", "series.invert"):
            if attrs is None:
                continue
            key = f"{name}.{attrs['ring']}.{attrs['size']}"
            out[key + ".calls"] += 1
            out[key + ".s"] += dur
            out[key + ".coeffs"] += attrs["coeffs"]
        elif name == "qfunctions.eta_quotient":
            out[name + ".calls"] += 1
            out[name + ".self_s"] += own
        elif name == "qfunctions.theta":
            out[name + ".calls"] += 1
            if nested_in(i, name) < 0:
                out[name + ".s"] += dur
        elif name in ("qfunctions.verify_identity", "congruence.verify",
                      "congruence.search", "cli.main"):
            out[name + ".self_s"] += own
        elif name == "counting.count":
            out[name + ".calls"] += 1
            out[name + ".s"] += dur
            out[name + ".terms"] += attrs["terms"]
        elif name == "congruence.expand_quotient":
            if i in misses:
                out["congruence.cache.misses"] += 1
                out["congruence.cache.miss_s"] += dur
                out["congruence.cache.build_yield"] += (
                    attrs["requested"] / attrs["built"])
            else:
                out["congruence.cache.hits"] += 1
        elif name == "report.compare":
            out[name + ".calls"] += 1
            out[name + ".terms"] += attrs["terms"]
            out[name + ".s"] += dur
        elif name == "suite.run_criterion":
            out[f"suite.c{attrs['number']:02d}.s"] += dur
    lookups = out["congruence.cache.hits"] + out["congruence.cache.misses"]
    if lookups:
        out["congruence.cache.hit_ratio"] = out["congruence.cache.hits"] / lookups
    return out
