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


def test_sigma_substitution_is_memoized_per_inner_morphism():
    """The Σ model's term substitution is memoized on the inner morphism a
    context morphism wraps: at bound 3 its 897 morphisms carry 52,616 Tm
    cells over only 2,708 distinct (payload, term) pairs."""
    from natmod.freemodel import extend_by_sigma, term_model
    from natmod.natmodel import model_presheaves

    from helpers import with_every_row

    sm = extend_by_sigma(term_model(range(1)))
    ps = with_every_row(model_presheaves(sm, 3, 3))
    assert sum(map(len, ps.tm.action.values())) == 52_616
    assert len(vars(sm)["_memo_SigmaExtModel._subst_tm"]) <= 2_708
    assert "_memo_SigmaExtModel.subst_tm" not in vars(sm)  # no per-morphism table


def test_sigma_rival_naturality_reads_rows_not_cells(monkeypatch):
    """The bound-3 Σ rival count checks naturality with one codomain row per
    morphism and sort: few single-cell substitutions (827, where one per
    naturality cell made 53,443), one ``subst_tm_row`` call per morphism for
    the tabulation and one for naturality, and no row memoized beyond the
    presheaf's own 60, as the identity's image lists are the Tm lists."""
    from natmod.freemodel import (
        SigmaExtModel,
        extend_by_sigma,
        inclusion,
        sigma_universal,
        sigma_universal_pins,
        term_model,
    )
    from natmod.morphism import count_morphisms

    sm = extend_by_sigma(term_model(range(1)))
    incl = inclusion(sm)
    pins = sigma_universal_pins(sm, incl, 3, sigma_universal(sm, incl))
    calls = {"subst_tm": 0, "subst_tm_row": 0}
    for name in calls:
        def counted(self, *args, _name=name, _method=getattr(SigmaExtModel, name)):
            calls[_name] += 1
            return _method(self, *args)
        monkeypatch.setattr(SigmaExtModel, name, counted)
    assert count_morphisms(sm, sm, 3, pins, ty_bound=3) == 1
    assert calls["subst_tm"] <= 1_000
    assert calls["subst_tm_row"] <= 2 * 897
    assert len(vars(sm)["_memo__WrappedModel._tm_row"]) <= 60



def _categories():
    from natmod import freemodel

    tm = freemodel.term_model(range(1))
    return [
        pytest.param("fincat", "FinSliceOpposite", tm.base, id="FinSliceOpposite"),
        pytest.param("freemodel", "_WrappedCategory", freemodel.extend_by_sigma(tm).base,
                     id="_WrappedCategory"),
        # an interleaved category composes by the wrapped categories' compose
        pytest.param("freemodel", "_WrappedCategory", freemodel.extend_by_unit(tm).base,
                     id="_InterleavedCategory"),
    ]


@pytest.mark.parametrize("module, cls_name, cat", _categories())
def test_compose_stays_a_class_level_method(module, cls_name, cat):
    """The tracer counts ``fincat.compose`` by patching classes, so compose
    is looked up on the class and never set on an instance."""
    cls = getattr(importlib.import_module(f"natmod.{module}"), cls_name)
    assert callable(cls.__dict__.get("compose"))
    assert type(cat).compose is cls.__dict__["compose"]
    ident = cat.identity(cat.terminal)
    assert cat.compose(ident, ident) == ident
    assert "compose" not in vars(cat)
