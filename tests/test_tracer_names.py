"""Every name the bench tracer reports on is a live heartglue function.

The tracer spans public module-level functions by name, so a function
that is renamed or made private silently drops out of its metric, which
then reads 0.  This reads perfbench/tracer.py and checks each name its
metrics read against the package.
"""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


tracer = _load_tracer()


def metric_functions() -> set[str]:
    """The span names behind every .calls or .self_s metric, and every
    span name Tracer.metrics reads."""
    names = {name.rsplit(".", 1)[0] for name, *_ in tracer.LAYER_METRICS
             if name.count(".") == 2
             and name.endswith((".calls", ".self_s"))}
    body = inspect.getsource(tracer.Tracer.metrics)
    return names | set(re.findall(r'\b[cs]\["([^"]+)"\]', body))


def is_live(name: str) -> bool:
    """Whether tracer.install puts a span of this name on a live function:
    a public module-level function, a spanned method, or a renamed one."""
    layer, *rest = name.split(".")
    mod = importlib.import_module(f"heartglue.{layer}")
    if len(rest) == 1 and name not in tracer.UNSPANNED:
        fn = vars(mod).get(rest[0])
        if (not rest[0].startswith("_") and inspect.isfunction(fn)
                and fn.__module__ == mod.__name__):
            return True
    if len(rest) == 2 and (layer, *rest) in tracer.SPANNED_METHODS:
        if rest[1] in vars(getattr(mod, rest[0], object)):
            return True
    return any(is_live(src) for src, dst in tracer.RENAMED.items()
               if dst == name and src != name)


def test_a_missing_function_is_not_live():
    assert is_live("derived.solve_lift")
    assert is_live("derived.DHomSpace.__init__")
    assert is_live("glue.truncate")
    assert not is_live("derived.no_such_function")
    assert not is_live("derived._resolve")
    assert not is_live("derived.DHomSpace.no_such_method")


@pytest.mark.parametrize("name", sorted(metric_functions()))
def test_metric_function_is_live(name):
    assert is_live(name), f"{name} is read by a metric but never spanned"


@pytest.mark.parametrize("layer,cls,meth,name", tracer.COUNTED_METHODS,
                         ids=[c[3] for c in tracer.COUNTED_METHODS])
def test_counted_method_exists(layer, cls, meth, name):
    mod = importlib.import_module(f"heartglue.{layer}")
    assert meth in vars(getattr(mod, cls))
