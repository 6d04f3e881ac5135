"""Per-layer tracing of heartglue, installed from outside the package.

Spans go around every public module-level function of every heartglue
module and around a few public methods; each span records its name, its
parent span, its start and its duration, and self time is the duration
minus the time of its child spans.  A layer is a heartglue module, so a
layer's self time is the self time of all spans named after it.  The hot
constructors (RatMatrix, RepMap, Cx) are only counted, because a span per
construction would cost more than the construction.

``from .linalg import rref`` copies the function into the importing
module, so every module attribute that is bound to a wrapped function is
rebound, not only the defining one.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
from collections import Counter

# Per-entry helpers: called once per matrix entry or per path, so a span
# around them would be almost all overhead.
UNSPANNED = {"linalg.as_fraction", "jsonio.fraction_str",
             "jsonio.parse_fraction"}

# Public methods that are layer entry points: (module, class, method).
SPANNED_METHODS = [
    ("derived", "DHomSpace", "__init__"),
    ("derived", "DHomSpace", "class_of"),
    ("derived", "DHomSpace", "class_of_vector"),
    ("derived", "DHomSpace", "representative"),
    ("complexes", "Triangle", "certified"),
    ("glue", "StandardAisle", "truncate"),
    ("glue", "AddGeneratedAisle", "truncate"),
    ("glue", "GluedAisle", "truncate"),
    ("glue", "StandardAisle", "member"),
    ("glue", "AddGeneratedAisle", "member"),
    ("glue", "GluedAisle", "member"),
]

# Constructors that are counted, not spanned: (module, class, method).
COUNTED_METHODS = [
    ("linalg", "RatMatrix", "__init__", "linalg.RatMatrix.new"),
    ("reps", "RepMap", "__post_init__", "reps.RepMap.new"),
    ("complexes", "Cx", "__post_init__", "complexes.Cx.new"),
]

# Spans whose calls are pooled under one name.
RENAMED = {
    "glue.StandardAisle.truncate": "glue.truncate",
    "glue.AddGeneratedAisle.truncate": "glue.truncate",
    "glue.GluedAisle.truncate": "glue.truncate",
    "glue.StandardAisle.member": "glue.member",
    "glue.AddGeneratedAisle.member": "glue.member",
    "glue.GluedAisle.member": "glue.member",
    "derived.resolve_rep": "derived.resolve",
    "derived.resolve_cx": "derived.resolve",
}

LAYERS = ("linalg", "algebra", "reps", "complexes", "derived", "glue",
          "yoneda", "bondal", "jsonio", "cli")

# Every per-layer metric: (name, unit, better, which end-to-end metric it
# should move, on which workload).  BENCHMARK.json lists the same names.
LAYER_METRICS = [
    ("linalg.rref.calls", "count", "lower",
     "wall_s on glue-truncate; little on hom-scan"),
    ("linalg.rref.cells", "count", "lower",
     "wall_s on glue-truncate; little on hom-scan"),
    ("linalg.rref.self_s", "s", "lower",
     "wall_s on glue-truncate; little on hom-scan"),
    ("linalg.rref.self_share", "ratio", "lower",
     "wall_s on glue-truncate; little on hom-scan"),
    ("linalg.solve.calls", "count", "lower",
     "wall_s on ext-calculus and glue-truncate"),
    ("linalg.solve.self_s", "s", "lower",
     "wall_s on ext-calculus and glue-truncate"),
    ("linalg.kernel_basis.calls", "count", "lower",
     "wall_s on ext-calculus and glue-truncate"),
    ("linalg.RatMatrix.new", "count", "lower",
     "wall_s on ext-calculus and glue-truncate"),
    ("linalg.self_s", "s", "lower",
     "wall_s on ext-calculus and glue-truncate"),
    ("reps.RepMap.new", "count", "lower",
     "wall_s on all three, most on glue-truncate"),
    ("reps.kernel.calls", "count", "lower",
     "wall_s on all three, most on glue-truncate"),
    ("reps.cokernel.calls", "count", "lower",
     "wall_s on all three, most on glue-truncate"),
    ("reps.projective_cover.calls", "count", "lower",
     "wall_s on all three, most on glue-truncate"),
    ("reps.hom_space.calls", "count", "lower",
     "wall_s on all three, most on glue-truncate"),
    ("reps.self_s", "s", "lower",
     "wall_s on all three, most on glue-truncate"),
    ("complexes.Cx.new", "count", "lower",
     "op_s.p90 and peak_rss_mb on glue-truncate"),
    ("complexes.cone.calls", "count", "lower",
     "op_s.p90 and peak_rss_mb on glue-truncate"),
    ("complexes.cone.out_total_dim", "count", "lower",
     "op_s.p90 and peak_rss_mb on glue-truncate"),
    ("complexes.self_s", "s", "lower",
     "op_s.p90 and peak_rss_mb on glue-truncate"),
    ("derived.dhom_space.calls", "count", "lower",
     "wall_s and peak_rss_mb on hom-scan and glue-truncate"),
    ("derived.DHomSpace.builds", "count", "lower",
     "wall_s and peak_rss_mb on hom-scan and glue-truncate"),
    ("derived.dhom_space.hit_ratio", "ratio", "higher",
     "wall_s and peak_rss_mb on glue-truncate"),
    ("derived.dhom_space.zero_dim_ratio", "ratio", "lower",
     "wall_s and peak_rss_mb on hom-scan"),
    ("derived.DHomSpace.cols", "count", "lower",
     "wall_s and peak_rss_mb on hom-scan and glue-truncate"),
    ("derived.resolve.calls", "count", "lower",
     "wall_s on ext-calculus"),
    ("derived.solve_lift.calls", "count", "lower",
     "wall_s on ext-calculus"),
    ("derived.solve_lift.self_s", "s", "lower",
     "wall_s on ext-calculus"),
    ("derived.compose_classes.calls", "count", "lower",
     "wall_s on ext-calculus"),
    ("derived.self_s", "s", "lower",
     "wall_s on ext-calculus"),
    ("glue.truncate.calls", "count", "lower",
     "op_s.p90 on glue-truncate"),
    ("glue.truncate.in_total_dim", "count", "lower",
     "op_s.p90 on glue-truncate"),
    ("glue.truncate.out_total_dim", "count", "lower",
     "op_s.p90 on glue-truncate"),
    ("glue.check_sequence.calls", "count", "lower",
     "op_s.p90 on glue-truncate"),
    ("glue.self_s", "s", "lower",
     "op_s.p90 on glue-truncate"),
    ("yoneda.splice_from_class.calls", "count", "lower",
     "wall_s on ext-calculus"),
    ("yoneda.f_map.calls", "count", "lower",
     "wall_s on ext-calculus"),
    ("yoneda.self_s", "s", "lower",
     "wall_s on ext-calculus"),
    ("bondal.end_algebra.calls", "count", "lower",
     "op_s.p90 on ext-calculus"),
    ("bondal.self_s", "s", "lower",
     "op_s.p90 on ext-calculus"),
    ("jsonio.self_s", "s", "lower",
     "setup_s on all three"),
    ("algebra.build_algebra.self_s", "s", "lower",
     "setup_s on all three"),
    ("cli.self_s", "s", "lower",
     "setup_s on all three"),
    ("trace.overhead_ratio", "ratio", "lower",
     "none: traced wall_s over untraced wall_s"),
]


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self, span_cap: int = 100_000):
        self.span_cap = span_cap
        self.spans: list[tuple] = []   # (id, parent, name, start, dur)
        self.dropped = 0
        self.stack: list[list] = []    # [span id, child time]
        self.next_id = 1
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()

    def spanned(self, name: str, fn, after=None):
        """fn wrapped in a span; after(args, result) may add counts."""
        perf = time.perf_counter
        stack, spans = self.stack, self.spans
        calls, self_s = self.calls, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [self.next_id, 0.0]
            self.next_id += 1
            stack.append(frame)
            start = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf() - start
                stack.pop()
                parent = stack[-1][0] if stack else 0
                if stack:
                    stack[-1][1] += dur
                calls[name] += 1
                self_s[name] += dur - frame[1]
                if len(spans) < self.span_cap:
                    spans.append((frame[0], parent, name, start, dur))
                else:
                    self.dropped += 1
            if after is not None:
                after(args, out)
            return out
        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # results

    def layer_self(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items()
                   if k.split(".", 1)[0] == layer)

    def metrics(self) -> dict:
        c, s, n = self.calls, self.self_s, self.counts
        total = sum(self.layer_self(layer) for layer in LAYERS)
        dcalls = c["derived.dhom_space"]
        out = {
            "linalg.rref.calls": c["linalg.rref"],
            "linalg.rref.cells": n["linalg.rref.cells"],
            "linalg.rref.self_s": s["linalg.rref"],
            "linalg.rref.self_share":
                s["linalg.rref"] / total if total else 0.0,
            "linalg.solve.calls": c["linalg.solve"],
            "linalg.solve.self_s": s["linalg.solve"],
            "linalg.kernel_basis.calls": c["linalg.kernel_basis"],
            "linalg.RatMatrix.new": n["linalg.RatMatrix.new"],
            "reps.RepMap.new": n["reps.RepMap.new"],
            "reps.kernel.calls": c["reps.kernel"],
            "reps.cokernel.calls": c["reps.cokernel"],
            "reps.projective_cover.calls": c["reps.projective_cover"],
            "reps.hom_space.calls": c["reps.hom_space"],
            "complexes.Cx.new": n["complexes.Cx.new"],
            "complexes.cone.calls": c["complexes.cone"],
            "complexes.cone.out_total_dim": n["complexes.cone.out_total_dim"],
            "derived.dhom_space.calls": dcalls,
            "derived.DHomSpace.builds": c["derived.DHomSpace.__init__"],
            "derived.dhom_space.hit_ratio":
                n["derived.dhom_space.hits"] / dcalls if dcalls else 0.0,
            "derived.dhom_space.zero_dim_ratio":
                n["derived.dhom_space.zero_dim"] / dcalls if dcalls else 0.0,
            "derived.DHomSpace.cols": n["derived.DHomSpace.cols"],
            "derived.resolve.calls": c["derived.resolve"],
            "derived.solve_lift.calls": c["derived.solve_lift"],
            "derived.solve_lift.self_s": s["derived.solve_lift"],
            "derived.compose_classes.calls": c["derived.compose_classes"],
            "glue.truncate.calls": c["glue.truncate"],
            "glue.truncate.in_total_dim": n["glue.truncate.in_total_dim"],
            "glue.truncate.out_total_dim": n["glue.truncate.out_total_dim"],
            "glue.check_sequence.calls": c["glue.check_sequence"],
            "yoneda.splice_from_class.calls": c["yoneda.splice_from_class"],
            "yoneda.f_map.calls": c["yoneda.f_map"],
            "bondal.end_algebra.calls": c["bondal.end_algebra"],
            "algebra.build_algebra.self_s": s["algebra.build_algebra"],
        }
        for layer in ("linalg", "reps", "complexes", "derived", "glue",
                      "yoneda", "bondal", "jsonio", "cli"):
            out[f"{layer}.self_s"] = self.layer_self(layer)
        return out

    def write(self, path: str, header: dict) -> None:
        """One JSON header line, then one line per span:
        [id, parent id (0 for none), name, start s, duration s]."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(header, spans=len(self.spans),
                                     dropped=self.dropped)) + "\n")
            for sid, parent, name, start, dur in self.spans:
                fh.write(f'[{sid},{parent},"{name}",{start:.7f},'
                         f'{dur:.7f}]\n')


def _total_dim(x) -> int:
    return getattr(x, "total_dim", 0)


def _extra_counts(tracer: Tracer, name: str):
    """Counts taken at the boundary of a span, from its args and result."""
    n = tracer.counts
    if name == "linalg.rref":
        def after(args, out):
            m = args[0]
            n["linalg.rref.cells"] += (getattr(m, "rows", 0)
                                       * getattr(m, "cols", 0))
    elif name == "complexes.cone":
        def after(args, out):
            n["complexes.cone.out_total_dim"] += _total_dim(
                getattr(out, "cx", None))
    elif name == "glue.truncate":
        def after(args, out):
            n["glue.truncate.in_total_dim"] += _total_dim(args[1])
            n["glue.truncate.out_total_dim"] += (_total_dim(out[0])
                                                + _total_dim(out[1]))
    elif name == "derived.dhom_space":
        def after(args, out):
            if getattr(out, "dim", None) == 0:
                n["derived.dhom_space.zero_dim"] += 1
    elif name == "derived.DHomSpace.__init__":
        def after(args, out):
            layout = getattr(args[0], "layout", None)
            n["derived.DHomSpace.cols"] += getattr(layout, "total", 0)
    else:
        return None
    return after


def _dhom_hits(tracer: Tracer, fn):
    """dhom_space wrapper that counts calls which built no DHomSpace."""
    calls = tracer.calls

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before = calls["derived.DHomSpace.__init__"]
        out = fn(*args, **kwargs)
        if calls["derived.DHomSpace.__init__"] == before:
            tracer.counts["derived.dhom_space.hits"] += 1
        return out
    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap heartglue in place; run before any operation is timed."""
    import heartglue
    modules = [importlib.import_module(f"heartglue.{m.name}")
               for m in pkgutil.iter_modules(heartglue.__path__)]
    by_name = {m.__name__.rsplit(".", 1)[1]: m for m in modules}
    replace: dict[int, object] = {}
    for mod in modules:
        layer = mod.__name__.rsplit(".", 1)[1]
        for attr, fn in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            name = RENAMED.get(f"{layer}.{attr}", f"{layer}.{attr}")
            if name in UNSPANNED:
                continue
            wrapped = tracer.spanned(name, fn, _extra_counts(tracer, name))
            if name == "derived.dhom_space":
                wrapped = _dhom_hits(tracer, wrapped)
            replace[id(fn)] = wrapped
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            got = replace.get(id(val))
            if got is not None:
                setattr(mod, attr, got)
    for layer, cls_name, meth in SPANNED_METHODS:
        cls = getattr(by_name.get(layer), cls_name, None)
        fn = vars(cls).get(meth) if cls is not None else None
        if fn is None:
            continue
        key = f"{layer}.{cls_name}.{meth}"
        name = RENAMED.get(key, key)
        setattr(cls, meth,
                tracer.spanned(name, fn, _extra_counts(tracer, name)))
    for layer, cls_name, meth, name in COUNTED_METHODS:
        cls = getattr(by_name.get(layer), cls_name, None)
        if cls is not None and meth in vars(cls):
            setattr(cls, meth, tracer.counted(name, vars(cls)[meth]))
