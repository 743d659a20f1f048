"""Every call of a public mtlab function goes through a module-global name.

The span tracer of the benchmark (``bench/tracing.py``) wraps the public
functions of the mtlab modules by rebinding their module-global names, so a
public function held in a container built at import time (a dispatch table)
or in a default argument escapes its wrapper, and its time moves silently to
its caller.  "Public" is the tracer's rule: a function whose name has no
leading underscore, looked up in the module that defines it.
"""

import importlib
import inspect
import pkgutil
from functools import cached_property

import pytest

import mtlab

MODULES = [mtlab, *(importlib.import_module(f"mtlab.{info.name}")
                    for info in pkgutil.iter_modules(mtlab.__path__))]

PUBLIC = {id(obj): f"{mod.__name__}.{name}"
          for mod in MODULES for name, obj in vars(mod).items()
          if not name.startswith("_") and inspect.isfunction(obj)
          and obj.__module__ == mod.__name__}


def held(value, seen):
    """The names of the public functions inside a container, at any depth."""
    if isinstance(value, dict):
        items = [*value.keys(), *value.values()]
    elif isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
    else:
        return
    if id(value) in seen:
        return
    seen.add(id(value))
    for item in items:
        if id(item) in PUBLIC:
            yield PUBLIC[id(item)]
        yield from held(item, seen)


def functions(mod):
    """The functions defined in a module: module-level ones and those of its
    classes (methods, static and class methods, properties)."""
    for obj in vars(mod).values():
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            for member in vars(obj).values():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                elif isinstance(member, cached_property):
                    member = member.func
                if inspect.isfunction(member):
                    yield member


def test_public_functions_found():
    # the scan below sees the functions the tracer wraps
    assert "mtlab.estimators.monte_carlo_mse" in PUBLIC.values()
    assert "mtlab.crb.crb_grid" in PUBLIC.values()


@pytest.mark.parametrize("mod", MODULES, ids=lambda mod: mod.__name__)
def test_no_container_holds_a_public_function(mod):
    seen = set()
    stored = [(name, fn) for name, value in vars(mod).items()
              for fn in held(value, seen)]
    assert stored == [], f"module-level containers of {mod.__name__} hold {stored}"


@pytest.mark.parametrize("mod", MODULES, ids=lambda mod: mod.__name__)
def test_no_default_argument_is_a_public_function(mod):
    stored = [(fn.__qualname__, name) for fn in functions(mod)
              for name in held((fn.__defaults__ or (), fn.__kwdefaults__ or {}), set())]
    assert stored == [], f"default arguments in {mod.__name__} hold {stored}"
