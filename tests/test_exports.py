import importlib
import inspect
import pkgutil

import hookium
from hookium import hooke, integrate, observables, qes, verify

TOP_LEVEL = (hooke, integrate, observables, qes, verify)


def test_each_public_name_is_listed_once_in_its_own_module():
    # the package's __all__ is its modules' lists, in order, and nothing else
    assert hookium.__all__ == [name for module in TOP_LEVEL for name in module.__all__]
    assert len(set(hookium.__all__)) == len(hookium.__all__)
    for info in pkgutil.iter_modules(hookium.__path__):
        if info.name.startswith("_"):
            continue   # __main__ runs the CLI on import
        module = importlib.import_module(f"hookium.{info.name}")
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == module.__name__, (module.__name__, name)
    assert all(hasattr(hookium, name) for name in hookium.__all__)
    star = {}
    exec("from hookium import *", star)
    del star["__builtins__"]
    assert sorted(star) == sorted(hookium.__all__)
