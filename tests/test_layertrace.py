"""The benchmark's layer tracer patches names that natmod still defines.

``bench/layertrace.py`` wraps module functions and interface methods by
name; a refactor that moves or renames one would leave a metric silently
at zero.  These tests read the tracer's tables and resolve every entry.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
try:
    import layertrace
finally:
    sys.path.pop(0)


@pytest.mark.parametrize("entry", layertrace.FUNCTIONS, ids=lambda e: f"{e[0]}.{e[1]}")
def test_every_traced_function_resolves(entry):
    module, fn = entry[0], entry[1]
    assert callable(getattr(importlib.import_module(f"natmod.{module}"), fn, None))


@pytest.mark.parametrize("entry", layertrace.INTERFACES, ids=lambda e: f"{e[0]}.{e[1]}")
def test_every_traced_interface_method_is_defined(entry):
    module, cls_name, _layer, methods = entry
    cls = getattr(importlib.import_module(f"natmod.{module}"), cls_name)
    implementations = layertrace._subclasses(cls)
    for meth, _distinct in methods:
        assert callable(getattr(cls, meth, None)), meth
        assert any(
            meth in c.__dict__ and not getattr(c.__dict__[meth], "__isabstractmethod__", False)
            for c in implementations
        ), meth


def test_the_rival_search_step_the_node_counter_wraps_exists():
    from natmod.morphism import _Search

    assert callable(getattr(_Search, "_step", None))
