"""The benchmark's tracer wraps engine functions by name; each traced name
must still resolve, or a rename would surface only in a traced benchmark run."""

import importlib


def test_traced_names_resolve(perfbench):
    tracing = perfbench("tracing")
    assert tracing.TRACED
    for module_name, qualname, _ in tracing.TRACED:
        module = importlib.import_module(module_name)
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            assert attr in vars(getattr(module, cls_name)), qualname
        else:
            assert callable(getattr(module, qualname)), qualname
