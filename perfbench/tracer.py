"""In-memory span tracer that wraps the package's public names from outside.

Each traced name is replaced, in every ``border3`` module that holds it,
by a wrapper that records a span (name, start, end, parent) and restores
the original on exit, also when an operation raises.  Self time is a span's
duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name); "Class.method" attributes are patched on
# the class, plain names at every module attribute that refers to them
TRACED = (
    ("border3.cli", "main", "cli.main"),
    ("border3.tensor", "loads_tensor", "tensor.loads_tensor"),
    ("border3.tensor", "concise_core", "tensor.concise_core"),
    ("border3._linalg", "rank", "linalg.rank"),
    ("border3._linalg", "Echelon.add", "linalg.Echelon.add"),
    ("border3.equations", "strassen_equations", "equations.strassen_equations"),
    ("border3.equations", "slice_det_cubic", "equations.slice_det_cubic"),
    ("border3.equations", "cubic_line_pattern", "equations.cubic_line_pattern"),
    ("border3.equations", "strassen_jacobian_rank",
     "equations.strassen_jacobian_rank"),
    ("border3.polytools", "gcd_bivariate", "polytools.gcd_bivariate"),
    ("border3.polytools", "pmul", "polytools.pmul"),
    ("border3.classifier", "classify", "classifier.classify"),
    ("border3.classifier", "stabilizer_dimension",
     "classifier.stabilizer_dimension"),
    ("border3.rank_oracle", "rank_over_field", "rank_oracle.rank_over_field"),
    ("border3.rank_oracle", "macaulay_membership",
     "rank_oracle.macaulay_membership"),
    ("border3.rank_oracle", "Decomposition.verify",
     "rank_oracle.Decomposition.verify"),
    ("border3.limits", "chart_limit_plane", "limits.chart_limit_plane"),
    ("border3.limits", "limit_plane", "limits.limit_plane"),
)

SPAN_CAP = 200_000


class Tracer:
    """Spans and per-name totals of one traced pass."""

    def __init__(self):
        self.spans = []          # (id, parent id, name, start, end)
        self.dropped = 0
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []         # [span id, child seconds]
        self._next = 0
        self._patches = []

    # -- recording --

    def span(self, name, fn, args, kwargs):
        sid = self._next
        self._next += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [sid, 0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            dur = t1 - t0
            if self._stack:
                self._stack[-1][1] += dur
            self.calls[name] += 1
            self.busy[name] += dur
            self.self_time[name] += dur - frame[1]
            if len(self.spans) < SPAN_CAP:
                self.spans.append((sid, parent, name, t0, t1))
            else:
                self.dropped += 1

    def _wrapper(self, name, fn):
        tracer = self
        hook = _HOOKS.get(name)

        def traced(*args, **kwargs):
            if hook is not None:
                return hook(tracer, name, fn, args, kwargs)
            return tracer.span(name, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    # -- installation --

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    @contextmanager
    def installed(self):
        """Patch every traced name; restore all of them on exit."""
        try:
            for modname, attr, name in TRACED:
                mod = sys.modules[modname]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    self._patch(cls, meth,
                                self._wrapper(name, cls.__dict__[meth]))
                    continue
                original = getattr(mod, attr)
                wrapper = self._wrapper(name, original)
                for other in _package_modules():
                    for key, value in list(vars(other).items()):
                        if value is original:
                            self._patch(other, key, wrapper)
            self._patch_series_counter()
            yield self
        finally:
            while self._patches:
                owner, attr, value = self._patches.pop()
                setattr(owner, attr, value)

    def _patch_series_counter(self):
        """Count VectorSeries.from_polynomial calls inside limit_plane."""
        cls = sys.modules["border3.limits"].VectorSeries
        inner = cls.__dict__["from_polynomial"].__func__
        tracer = self

        def from_polynomial(klass, coeff_vectors, prec):
            if tracer.counts["limit_plane.depth"]:
                tracer.counts["limit_plane.series"] += 1
            return inner(klass, coeff_vectors, prec)

        self._patch(cls, "from_polynomial", classmethod(from_polynomial))

    # -- output --

    def dump(self, path, meta):
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "names": names, "dropped": self.dropped,
                       "fields": ["id", "parent", "name", "start", "end"],
                       "spans": [[s[0], s[1], index[s[2]], round(s[3], 7),
                                  round(s[4], 7)] for s in self.spans]}, fh)


def _package_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "border3" or k.startswith("border3."))]


# -- per-name hooks that record more than a span --------------------------------

def _concise_core(tracer, name, fn, args, kwargs):
    tracer.counts[name + ".cells"] += len(args[0].entries)
    return tracer.span(name, fn, args, kwargs)


def _rank(tracer, name, fn, args, kwargs):
    rows = args[0]
    tracer.counts[name + ".cells"] += len(rows) * (len(rows[0]) if rows else 0)
    return tracer.span(name, fn, args, kwargs)


def _classify(tracer, name, fn, args, kwargs):
    report = tracer.span(name, fn, args, kwargs)
    tracer.counts[name + ".definite"] += report.is_definite
    return report


def _rank_over_field(tracer, name, fn, args, kwargs):
    q = kwargs["q"] if "q" in kwargs else args[1]
    from border3.rank_oracle import SearchSpaceError
    try:
        return tracer.span(f"{name}.F{q}", fn, args, kwargs)
    except SearchSpaceError:
        tracer.counts[name + ".refused"] += 1
        raise


def _limit_plane(tracer, name, fn, args, kwargs):
    tracer.counts["limit_plane.depth"] += 1
    try:
        return tracer.span(name, fn, args, kwargs)
    finally:
        tracer.counts["limit_plane.depth"] -= 1


_HOOKS = {
    "tensor.concise_core": _concise_core,
    "linalg.rank": _rank,
    "classifier.classify": _classify,
    "rank_oracle.rank_over_field": _rank_over_field,
    "limits.limit_plane": _limit_plane,
}


def layer_metrics(tracer, passes):
    """Per-layer metrics of the traced phase, per pass over the batch."""
    c, b, st, n = tracer.calls, tracer.busy, tracer.self_time, tracer.counts
    rof = "rank_oracle.rank_over_field"
    out = {}

    def put(key, value, unit):
        out[key] = {"value": value / passes, "unit": unit}

    def timed(key, self_time=False):
        put(key + ".calls", c[key], "count")
        put(key + ".s", b[key], "s")
        if self_time:
            put(key + ".self_s", st[key], "s")

    timed("cli.main")
    put("cli.self_s", st["cli.main"], "s")
    timed("tensor.loads_tensor")
    for key in ("tensor.concise_core", "linalg.rank"):
        timed(key, self_time=True)
        put(key + ".cells", n[key + ".cells"], "count")
    timed("linalg.Echelon.add")
    timed("equations.strassen_equations")
    timed("equations.slice_det_cubic")
    timed("equations.cubic_line_pattern", self_time=True)
    timed("equations.strassen_jacobian_rank", self_time=True)
    timed("polytools.gcd_bivariate")
    timed("polytools.pmul")
    timed("classifier.classify", self_time=True)
    calls = c["classifier.classify"]
    out["classifier.classify.definite_ratio"] = {
        "value": n["classifier.classify.definite"] / calls if calls else 0.0,
        "unit": "ratio"}
    timed("classifier.stabilizer_dimension", self_time=True)
    fields = [f"{rof}.F{q}" for q in (2, 3, 5)]
    put(rof + ".calls", sum(c[k] for k in fields), "count")
    put(rof + ".refused", n[rof + ".refused"], "count")
    for k in fields:
        put(k + ".s", b[k], "s")
    timed("rank_oracle.macaulay_membership", self_time=True)
    timed("rank_oracle.Decomposition.verify")
    timed("limits.chart_limit_plane")
    timed("limits.limit_plane", self_time=True)
    put("limits.limit_plane.attempts", n["limit_plane.series"] / 3, "count")
    put("trace.spans", len(tracer.spans) + tracer.dropped, "count")
    return out
