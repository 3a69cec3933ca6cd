"""Pinned behaviour of the strict-morphism checker and of the rival search.

The rival search's tree (its ``_step`` calls and the ordered verdicts of
``_consistent_at``) and the reports of ``check_morphism`` on failing
morphisms were recorded once and are asserted here, so that a change in how
either derives or reads its data cannot change what it visits or reports.
"""

import ast
import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest

from natmod.freemodel import (
    extend_by_sigma,
    extend_by_term,
    extend_by_type,
    extend_by_unit,
    extend_term_universal,
    initial_morphism,
    initiality_pins,
    interleaved_universal_pins,
    poly_composite_models,
    sigma_inclusion,
    sigma_universal,
    sigma_universal_pins,
    term_model,
    term_universal_pins,
    tree_summation,
    type_universal,
    unit_universal,
)
from natmod.fincat import BoundedCategory, functor_violations, is_pullback_square, memo
from natmod.morphism import (
    MorphismPins,
    NMorphism,
    _Candidate,
    _naturality,
    _Search,
    check_morphism,
)
from natmod.natmodel import model_presheaves

from helpers import finite_sets_model, reference_functor_violations


# ---------------------------------------------------------------------------
# The six rival searches of acceptance criteria 2 and 6
# ---------------------------------------------------------------------------

def _search(name: str, rb: int):
    """(src, dst, pins) of the named search at rival bound ``rb``."""
    if name.startswith("initiality"):
        tm = term_model(range(2))
        n = int(name[-1])
        target = term_model(range(n))
        images = {0: "T0", 1: "T1" if n == 2 else "T0"}
        return tm, target, initiality_pins(tm, target, images)
    if name == "term":
        mt = term_model(range(1))
        ext = extend_by_term(mt, "T0")
        target = extend_by_term(extend_by_type(term_model(range(0))), "X")
        fm = initial_morphism(mt, target, {0: "X"})
        return ext, target, term_universal_pins(ext, fm, "v0", rb)
    if name in ("type", "unit"):
        m0 = term_model(range(0))
        if name == "type":
            ext, target = extend_by_type(m0), term_model(range(1))
            f = initial_morphism(m0, target, {})
            sharp = type_universal(ext, f, "T0")
        else:
            ext, target = extend_by_unit(m0), extend_by_unit(term_model(range(0)))
            f = initial_morphism(m0, target, {})
            sharp = unit_universal(ext, f)
        return ext, target, interleaved_universal_pins(ext, f, rb, sharp)
    sm = extend_by_sigma(term_model(range(1)))
    incl = sigma_inclusion(sm)
    sharp = sigma_universal(sm, incl, bound=3)
    return sm, sm, sigma_universal_pins(sm, incl, rb, sharp)


# (search, bound) -> (count, _step calls, run-length verdicts of _consistent_at):
# "3-x5" is five rejections at context 3 in a row, "4+" one acceptance at 4.
SEARCH_PINS = {
    ("initiality tm2", 2): (1, 8, "0+ 1- 1+ 2+ 3-x5 3+ 4- 4+ 5- 5+ 6- 6+ 6-x6 5-x2 4-x2 3-x2 2-"),
    ("initiality tm1", 2): (1, 8, "0+ 1+ 2+ 3- 3+ 4- 4+ 5- 5+ 6- 6+ 6-x2 5-x2 4-x2 3-x2"),
    ("term", 2): (1, 3, "0+ 1- 1+"),
    ("type", 2): (1, 4, "0+ 1+ 2- 2+ 2-x2"),
    ("unit", 2): (1, 4, "0+ 1+ 2+"),
    ("sigma", 2): (1, 5, "0+ 1+ 2+ 3+"),
    ("initiality tm2", 3): (1, 16, (
        "0+ 1- 1+ 2+ 3-x5 3+ 4- 4+ 5- 5+ 6- 6+ 7-x32 7+ 8-x9 8+ 9-x9 9+ 10-x2 10+ "
        "11-x9 11+ 12-x2 12+ 13-x2 13+ 14-x5 14+ 14-x48 13-x12 12-x12 11-x5 10-x12 "
        "9-x5 8-x5 7-x21 6-x6 5-x2 4-x2 3-x2 2-")),
    ("initiality tm1", 3): (1, 16, (
        "0+ 1+ 2+ 3- 3+ 4- 4+ 5- 5+ 6- 6+ 7-x5 7+ 8-x5 8+ 9-x5 9+ 10-x5 10+ 11-x5 11+ "
        "12-x5 12+ 13-x5 13+ 14-x5 14+ 14-x21 13-x21 12-x21 11-x21 10-x21 9-x21 8-x21 "
        "7-x21 6-x2 5-x2 4-x2 3-x2")),
    ("term", 3): (1, 4, "0+ 1- 1+ 2-x2 2+"),
    ("type", 3): (1, 5, "0+ 1+ 2- 2+ 3-x5 3+ 3-x21 2-x2"),
    ("unit", 3): (1, 5, "0+ 1+ 2+ 3+"),
    ("sigma", 3): (1, 10, "0+ 1+ 2+ 3+ 4+ 5+ 6+ 7+ 8+"),
}


def _run_length(verdicts: list[str]) -> str:
    runs = ((v, len(list(g))) for v, g in itertools.groupby(verdicts))
    return " ".join(v if n == 1 else f"{v}x{n}" for v, n in runs)


@pytest.mark.parametrize("name,bound", list(SEARCH_PINS), ids=[
    f"{name.replace(' ', '-')}@{bound}" for name, bound in SEARCH_PINS
])
def test_the_rival_search_visits_the_recorded_tree(name, bound):
    src, dst, pins = _search(name, bound)
    steps, verdicts = [], []

    class Recorded(_Search):
        def _step(self, cand, i):
            steps.append(i)
            super()._step(cand, i)

        def _consistent_at(self, cand, i):
            ok = super()._consistent_at(cand, i)
            verdicts.append(f"{i}{'+' if ok else '-'}")
            return ok

    count = Recorded(src, dst, bound, bound, pins, 2).run()
    assert (count, len(steps), _run_length(verdicts)) == SEARCH_PINS[(name, bound)]


# ---------------------------------------------------------------------------
# Failing check_morphism reports
# ---------------------------------------------------------------------------

def _perturbed_summation() -> NMorphism:
    """Σ summation sending each non-leaf type tree to its left subtree's image."""
    summ = tree_summation(extend_by_sigma(extend_by_sigma(term_model(range(1)))))

    def bad_ty(g, t):
        if t.startswith("["):
            tree = summ.src.ty_tree(t)
            if not tree.is_leaf:
                return summ.on_ty(g, tree.left.key)
        return summ.on_ty(g, t)

    return NMorphism(summ.src, summ.dst, summ.on_obj, summ.on_mor, bad_ty, summ.on_tm,
                     "perturbed")


def _swapped_type_image() -> NMorphism:
    """The identity-like initial morphism of term_model(2), T0 and T1 swapped at fs[0]."""
    tm = term_model(range(2))
    fm = initial_morphism(tm, term_model(range(2)), {0: "T0", 1: "T1"})
    g, swap = tm.base.objs.key((0,)), {"T0": "T1", "T1": "T0"}
    return NMorphism(fm.src, fm.dst, fm.on_obj, fm.on_mor,
                     lambda c, t: swap[fm.on_ty(c, t)] if c == g else fm.on_ty(c, t),
                     fm.on_tm, "swapped")


def _wrong_root_morphism() -> NMorphism:
    """The identity of a composite model (no ext_parent: every context is a
    root) with the two morphisms fs[0,0] -> fs[0] exchanged."""
    tm = term_model(range(1))
    comp = poly_composite_models(tm, tm)
    m, other = tm.base.hom(tm.base.objs.key((0, 0)), tm.base.objs.key((0,)))
    swap = {m: other, other: m}
    return NMorphism(comp, comp, lambda g: g, lambda k: swap.get(k, k),
                     lambda g, t: t, lambda g, t: t, "wrong-root")


def _wrong_endpoints() -> NMorphism:
    """The initial morphism term_model(2) → term_model(1) with the image of
    fs[1] → fs[] replaced by the identity of its image context, so that the
    image has the wrong codomain and composes with nothing it should."""
    fm = initial_morphism(term_model(range(2)), term_model(range(1)), {0: "T0", 1: "T0"})
    cat = fm.src.base
    m = cat.mors.key((cat.objs.key((1,)), cat.terminal, ()))
    bad = fm.dst.base.identity(fm.on_obj(fm.src.base.dom(m)))
    return NMorphism(fm.src, fm.dst, fm.on_obj, lambda k: bad if k == m else fm.on_mor(k),
                     fm.on_ty, fm.on_tm, "wrong-endpoints")


# name -> (strict, message counts per check, sha256 prefix of the ordered checks)
REPORT_PINS = {
    "summation": (_perturbed_summation, True, {
        "typing": 13, "strict-ext": 5, "strict-proj": 5, "strict-var": 5, "weak-tau": 5,
    }, "940aca428295f2c6"),
    "swapped": (_swapped_type_image, True, {
        "ty-natural": 12, "typing": 1, "strict-ext": 2, "strict-proj": 2, "weak-tau": 2,
    }, "0e219688604df3f9"),
    "wrong-root": (_wrong_root_morphism, True, {
        "functor": 6, "tm-natural": 2, "canonical-pullbacks": 2,
    }, "da9154480d2a0fcb"),
    "wrong-root-weak": (_wrong_root_morphism, False, {
        "functor": 6, "tm-natural": 2, "canonical-pullbacks": 2,
    }, "da9154480d2a0fcb"),
    # reported, not raised: the image's endpoints are named once, and the
    # pairs and squares that would compose along it are skipped
    "wrong-endpoints": (_wrong_endpoints, True, {
        "functor": 2, "strict-proj": 1, "weak-tau": 1, "canonical-pullbacks": 6,
    }, "87da86cf8b458852"),
}


@pytest.mark.parametrize("name", list(REPORT_PINS))
def test_a_failing_morphism_report_is_the_recorded_one(name):
    build, strict, counts, digest = REPORT_PINS[name]
    rep = check_morphism(build(), 2, strict=strict)
    assert not rep.ok
    assert {check: len(msgs) for check, msgs in rep.checks.items()} == counts
    assert list(rep.checks) == list(counts)  # the checks fail in this order
    blob = json.dumps(list(rep.checks.items()), ensure_ascii=False)
    assert hashlib.sha256(blob.encode()).hexdigest()[:16] == digest


# ---------------------------------------------------------------------------
# The weak condition reads an identity τ as invertible without a search
# ---------------------------------------------------------------------------

def _strict_universal_maps() -> list[NMorphism]:
    """The strict maps of acceptance criteria 2 and 6: the initial morphisms
    out of term_model(2) and the mediating F♯ of each free extension."""
    tm, m0 = term_model(range(2)), term_model(range(0))
    u, x = extend_by_unit(term_model(range(0))), extend_by_type(term_model(range(0)))
    maps = [initial_morphism(tm, target, images) for target, images in [
        (term_model(range(2)), {0: "T0", 1: "T1"}),
        (term_model(range(1)), {0: "T0", 1: "T0"}),
        (u, {0: u.new_ty, 1: u.new_ty}),
        (x, {0: x.new_ty, 1: x.new_ty}),
    ]]
    mt = term_model(range(1))
    target = extend_by_term(extend_by_type(term_model(range(0))), "X")
    maps.append(extend_term_universal(
        extend_by_term(mt, "T0"), initial_morphism(mt, target, {0: "X"}), "v0"))
    maps.append(type_universal(extend_by_type(m0), initial_morphism(m0, mt, {}), "T0"))
    maps.append(unit_universal(
        extend_by_unit(m0), initial_morphism(m0, extend_by_unit(term_model(range(0))), {})))
    sm = extend_by_sigma(term_model(range(1)))
    maps.append(sigma_universal(sm, sigma_inclusion(sm)))
    return maps


def test_each_distinct_image_square_is_checked_once(monkeypatch):
    # the initial morphism into the one-type term model sends many (m, A) to
    # one image square; the oracle decides each distinct square once
    squares = []
    monkeypatch.setattr("natmod.morphism.is_pullback_square",
                        lambda c, b, *sq: squares.append(sq) or is_pullback_square(c, b, *sq))
    tm = term_model(range(2))
    assert check_morphism(initial_morphism(tm, term_model(range(1)), {0: "T0", 1: "T0"}), 2).ok
    ps = model_presheaves(tm, 2, 2)
    pairs = sum(len(ms) * len(ps.ty.values[b]) for (_, b), ms in ps.cat.homs.items())
    assert len(set(squares)) == len(squares) < pairs


def test_a_strict_morphism_asks_no_inverse_search(monkeypatch):
    # where F is strict, every mediating map τ is an identity; the perturbed
    # morphism's τ are not, so it still searches for their inverses
    calls = []
    search = BoundedCategory.is_iso
    monkeypatch.setattr(BoundedCategory, "is_iso", lambda c, m: calls.append(m) or search(c, m))
    for fm in _strict_universal_maps():
        assert check_morphism(fm, 2).ok, fm.name
    assert calls == []
    assert not check_morphism(_swapped_type_image(), 2).ok
    assert calls


def test_the_initial_morphism_into_finite_sets_is_strict():
    # the weak condition once searched the target's largest hom sets here
    target = finite_sets_model(2)
    fm = initial_morphism(term_model(range(1)), target, {0: target.tys.key((2,))})
    assert check_morphism(fm, 2).ok


# ---------------------------------------------------------------------------
# Functoriality along generators visits the same tree as along every pair
# ---------------------------------------------------------------------------

class _FullBlocks(_Search):
    """The rival search checking functoriality on every composable pair."""

    @memo
    def _scope(self, i):
        cells, mors, _generator_blocks, roots = super()._scope(i)
        ctx, upto = self.ctxs[i], self.ctxs[: i + 1]
        out_of = {y: [g for z in upto for g in self.hom.get((y, z), ())] for y in upto}
        blocks = []
        for x in upto:
            for y in upto:
                fs = self.hom.get((x, y))
                gs = out_of[y] if ctx in (x, y) else self.hom.get((y, ctx))
                if fs and gs:
                    blocks.append((fs, gs))
        return cells, mors, blocks, roots


def _tree(search, src, dst, bound, pins, max_count=2, ty_bound=None):
    """(count, _step calls, ordered verdicts of _consistent_at) of a search."""
    steps, verdicts = [], []

    class Recorded(search):
        def _step(self, cand, i):
            steps.append(i)
            super()._step(cand, i)

        def _consistent_at(self, cand, i):
            ok = super()._consistent_at(cand, i)
            verdicts.append((i, ok))
            return ok

    count = Recorded(src, dst, bound, bound if ty_bound is None else ty_bound, pins, max_count).run()
    return count, len(steps), verdicts


def _assert_same_tree(src, dst, bound, pins, max_count=2, ty_bound=None):
    tree = _tree(_Search, src, dst, bound, pins, max_count, ty_bound)
    assert tree == _tree(_FullBlocks, src, dst, bound, pins, max_count, ty_bound)
    return tree


def _pairs(search) -> int:
    """Composable pairs the search's scopes check, over all its steps."""
    return sum(len(fs) * len(gs) for i in range(len(search.ctxs))
               for fs, gs in search._scope(i)[2])


@pytest.mark.parametrize("name,bound", list(SEARCH_PINS), ids=[
    f"{name.replace(' ', '-')}@{bound}" for name, bound in SEARCH_PINS
])
def test_generator_blocks_visit_the_tree_of_all_blocks_on_the_pinned_searches(name, bound):
    src, dst, pins = _search(name, bound)
    assert _assert_same_tree(src, dst, bound, pins)[0] == SEARCH_PINS[(name, bound)][0]


@pytest.mark.parametrize("name", ["initiality tm2", "sigma"])
def test_generator_blocks_are_fewer_pairs(name):
    src, dst, pins = _search(name, 3)
    generators, full = (cls(src, dst, 3, 3, pins, 2) for cls in (_Search, _FullBlocks))
    assert generators.reduced
    assert 0 < _pairs(generators) < _pairs(full)


@pytest.mark.parametrize("ty_bound", [1, 2])
def test_generator_blocks_keep_every_block_on_the_truncation_boundary(ty_bound):
    # below the type bound, some Γ•A of the truncation has its A outside
    # Γ's types, so its cell is unchecked and its composites are checked
    src, dst, pins = _search("sigma", 3)
    search = _Search(src, dst, 3, ty_bound, pins, 2)
    assert set(search.proj) - search.reduced
    _assert_same_tree(src, dst, 3, pins, ty_bound=ty_bound)


def _early_violation_controls():
    from test_natmodel import (
        _functoriality_control,
        _strict_ext_control,
        _tm_naturality_control,
        _ty_naturality_control,
        _typing_control,
    )
    return [_strict_ext_control, _typing_control, _ty_naturality_control,
            _tm_naturality_control, _functoriality_control]


@pytest.mark.parametrize("index", range(5), ids=[
    "strict-ext", "typing", "ty-naturality", "tm-naturality", "functoriality"])
def test_generator_blocks_visit_the_tree_of_all_blocks_on_the_controls(index):
    src, dst, bound, pins, _k = _early_violation_controls()[index]()
    assert _assert_same_tree(src, dst, bound, pins)[0] == 0


@pytest.mark.parametrize("k, target, expected", [
    (1, lambda: term_model(range(2)), 2),
    (2, lambda: term_model(range(2)), 4),
    (1, lambda: term_model(range(3)), 3),
    (2, lambda: term_model(range(3)), 9),
    (1, lambda: extend_by_unit(term_model(range(1))), 2),
    (2, lambda: extend_by_unit(term_model(range(1))), 4),
])
def test_generator_blocks_visit_the_tree_of_all_blocks_when_counting(k, target, expected):
    src = term_model(range(k))
    assert _assert_same_tree(src, target(), 2, MorphismPins(), max_count=100)[0] == expected


def _perturbed(pins: MorphismPins, dst, bound: int, rng: random.Random) -> MorphismPins:
    """``pins`` with one pinned value dropped or moved to another of its kind:
    an object of dst, a morphism with the same endpoints, or a value pinned
    elsewhere in the same table at the same context."""
    out = MorphismPins(*(dict(getattr(pins, t)) for t in _PIN_TABLES))
    table, key = rng.choice([(t, k) for t in _PIN_TABLES for k in getattr(pins, t)])
    pinned = getattr(out, table)
    if rng.random() < 0.3:
        del pinned[key]
        return out
    value = pinned[key]
    if table == "on_obj":
        pool = dst.base.objects(bound)
    elif table == "on_mor":
        pool = dst.base.hom(dst.base.dom(value), dst.base.cod(value))
    else:
        pool = [v for k, v in pinned.items() if k[0] == key[0]]
    others = sorted(set(pool) - {value})
    if others:
        pinned[key] = rng.choice(others)
    else:
        del pinned[key]
    return out


_PIN_TABLES = ("on_obj", "on_ty", "on_tm", "on_mor")
_PERTURBED = [(name, rb) for name, rb in SEARCH_PINS if rb == 2 or name in ("term", "unit")]


@pytest.mark.parametrize("seed", range(48))
def test_generator_blocks_visit_the_tree_of_all_blocks_under_perturbed_pins(seed):
    rng = random.Random(seed)
    name, bound = rng.choice(_PERTURBED)
    src, dst, pins = _search(name, bound)
    _assert_same_tree(src, dst, bound, _perturbed(pins, dst, bound, rng))


def test_a_wrongly_pinned_identity_or_endomorphism_has_no_morphism():
    m = term_model(range(1))
    c = m.base.objs.key((0, 0))
    ident = m.base.identity(c)
    others = [e for e in m.base.hom(c, c) if e != ident]
    assert others
    for pinned, image in [(ident, e) for e in others] + [(others[0], ident)]:
        pins = initiality_pins(m, m, {0: "T0"})
        pins.on_mor[pinned] = image
        assert _tree(_Search, m, m, 2, pins)[0] == 0
        assert _tree(_FullBlocks, m, m, 2, pins)[0] == 0


# ---------------------------------------------------------------------------
# Naturality by rows yields what naturality cell by cell yields
# ---------------------------------------------------------------------------

def _naturality_by_cells(fm, ps, mors):
    """The reference: one codomain substitution per cell, in order."""
    dst = fm.dst
    laws = ((ps.ty, fm.on_ty, dst.subst_ty, "ty-natural"),
            (ps.tm, fm.on_tm, dst.subst_tm, "tm-natural"))
    for m, a, b in mors:
        im = fm.on_mor(m)
        for sort, image, subst, check in laws:
            row = sort.row(m)
            for x in sort.values[b]:
                lhs, fx = image(a, row[x]), image(b, x)
                if lhs is None or fx is None or lhs != subst(im, fx):
                    yield check, f"{x}[{m}]"


def _outcome(witnesses):
    """The pairs a law generator yields, and the type of what it raises."""
    out = []
    try:
        for w in witnesses:
            out.append(w)
    except Exception as exc:  # noqa: BLE001 -- the type is compared
        return out, type(exc)
    return out, None


def _assert_rows_match_cells(fm, ps, mors, tables=None):
    """Both naturality bodies over ``mors``, the row body reading ``tables``
    (ty, tm) or, by default, tables built as check_morphism builds them;
    returns the shared outcome."""
    if tables is None:
        ctxs = ps.cat.object_keys
        tables = ({g: {x: fm.on_ty(g, x) for x in ps.ty.values[g]} for g in ctxs},
                  {g: {x: fm.on_tm(g, x) for x in ps.tm.values[g]} for g in ctxs})
    reference = _outcome(_naturality_by_cells(fm, ps, mors))
    assert _outcome(_naturality(fm, ps, mors, *tables)) == reference
    return reference


def _all_mors(ps):
    return [(m, a, b) for (a, b), ms in ps.cat.homs.items() for m in ms]


@pytest.mark.parametrize("name", list(REPORT_PINS))
def test_naturality_by_rows_matches_cells_on_the_recorded_reports(name):
    build, _strict, counts, _digest = REPORT_PINS[name]
    fm = build()
    ps = model_presheaves(fm.src, 2, 2)
    witnesses, raised = _assert_rows_match_cells(fm, ps, _all_mors(ps))
    natural = sum(counts.get(c, 0) for c in ("ty-natural", "tm-natural"))
    assert (len(witnesses), raised) == (natural, None)


def _universal_strict_morphisms():
    tm = term_model(range(2))
    sm = extend_by_sigma(term_model(range(1)))
    return [initial_morphism(tm, tm, {0: "T0", 1: "T1"}),
            sigma_universal(sm, sigma_inclusion(sm), bound=3)]


def _moved_image(fm, ps, rng: random.Random) -> NMorphism:
    """``fm`` with one type or term image moved to another value of its
    image context, or to None."""
    sort, on, values = rng.choice([("ty", fm.on_ty, fm.dst.types),
                                   ("tm", fm.on_tm, fm.dst.terms)])
    cells = [(g, x) for g in ps.cat.object_keys for x in getattr(ps, sort).values[g]]
    g, x = rng.choice(cells)
    was = on(g, x)
    value = rng.choice(sorted(set(values(fm.on_obj(g), 2)) - {was}) + [None])

    def moved(c, y):
        return value if (c, y) == (g, x) else on(c, y)

    images = {"on_ty": fm.on_ty, "on_tm": fm.on_tm, f"on_{sort}": moved}
    return NMorphism(fm.src, fm.dst, fm.on_obj, fm.on_mor, name="moved", **images)


def test_naturality_by_rows_matches_cells_under_moved_images():
    strict = [(fm, model_presheaves(fm.src, 2, 2)) for fm in _universal_strict_morphisms()]
    for fm, ps in strict:
        assert _assert_rows_match_cells(fm, ps, _all_mors(ps)) == ([], None)
    for seed in range(48):
        rng = random.Random(seed)
        fm, ps = rng.choice(strict)
        witnesses, _raised = _assert_rows_match_cells(_moved_image(fm, ps, rng), ps, _all_mors(ps))
        assert witnesses  # each of these moves breaks naturality somewhere


@pytest.mark.parametrize("name,bound", list(SEARCH_PINS), ids=[
    f"{name.replace(' ', '-')}@{bound}" for name, bound in SEARCH_PINS
])
def test_naturality_by_rows_matches_cells_at_every_node_of_the_pinned_searches(name, bound):
    src, dst, pins = _search(name, bound)
    nodes = []

    class BothBodies(_Search):
        def _consistent_at(self, cand, i):
            mors = self._scope(i)[1]
            nodes.append(_assert_rows_match_cells(cand, self.ps, mors, (cand.ty, cand.tm)))
            return super()._consistent_at(cand, i)

    count, steps, verdicts = _tree(BothBodies, src, dst, bound, pins)
    assert len(nodes) == len(verdicts)
    assert (count, steps, _run_length([f"{i}{'+' if ok else '-'}" for i, ok in verdicts])) == (
        SEARCH_PINS[(name, bound)])


# ---------------------------------------------------------------------------
# The functor laws by rows yield what they yield pair by pair
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", list(REPORT_PINS))
def test_functor_laws_by_rows_match_pairs_on_the_recorded_reports(name):
    from test_fincat import assert_functor_rows_match_pairs

    build, _strict, counts, _digest = REPORT_PINS[name]
    fm = build()
    ps = model_presheaves(fm.src, 2, 2)
    witnesses, raised = assert_functor_rows_match_pairs(
        fm.src.base, fm.dst.base, fm.on_obj, fm.on_mor, ps.cat.object_keys, _all_mors(ps))
    assert (len(witnesses), raised) == (counts.get("functor", 0), None)


def _moved_morphism_image(fm, ps, rng: random.Random):
    """``fm.on_mor`` with one image moved to another morphism between the
    same images, to one between other images, or to None."""
    m = rng.choice(ps.cat.all_morphisms())
    was, dst = fm.on_mor(m), fm.dst.base
    a, b = (rng.choice(ps.cat.object_keys) for _ in range(2))
    pool = dst.hom(dst.dom(was), dst.cod(was)) + dst.hom(fm.on_obj(a), fm.on_obj(b))
    value = rng.choice(sorted(set(pool) - {was}) + [None])
    return lambda k: value if k == m else fm.on_mor(k)


def test_functor_laws_by_rows_match_pairs_under_moved_morphism_images():
    from test_fincat import assert_functor_rows_match_pairs

    built = {}
    outcomes = []
    for seed in range(48):
        rng = random.Random(seed)
        name = rng.choice(sorted(REPORT_PINS))
        if name not in built:
            fm = REPORT_PINS[name][0]()
            built[name] = fm, model_presheaves(fm.src, 2, 2)
        fm, ps = built[name]
        outcomes.append(assert_functor_rows_match_pairs(
            fm.src.base, fm.dst.base, fm.on_obj, _moved_morphism_image(fm, ps, rng),
            ps.cat.object_keys, _all_mors(ps)))
    assert len(built) == len(REPORT_PINS)
    assert all(witnesses for witnesses, _raised in outcomes)  # each move is seen


@pytest.mark.parametrize("name,bound", list(SEARCH_PINS), ids=[
    f"{name.replace(' ', '-')}@{bound}" for name, bound in SEARCH_PINS
])
def test_functor_laws_by_rows_match_pairs_at_every_node_of_the_pinned_searches(name, bound):
    from test_fincat import _functor_outcome

    src, dst, pins = _search(name, bound)
    nodes = []

    class BothBodies(_Search):
        def _consistent_at(self, cand, i):
            args = (self.src.base, self.dst.base, cand.on_obj, cand.on_mor, (), (),
                    self._scope(i)[2])
            got = _functor_outcome(functor_violations, *args)
            assert got == _functor_outcome(reference_functor_violations, *args)
            nodes.append(got)
            return super()._consistent_at(cand, i)

    count, steps, verdicts = _tree(BothBodies, src, dst, bound, pins)
    assert len(nodes) == len(verdicts)
    assert (count, steps, _run_length([f"{i}{'+' if ok else '-'}" for i, ok in verdicts])) == (
        SEARCH_PINS[(name, bound)])


def test_a_choice_copies_only_the_table_of_its_context():
    src, dst, pins = _search("sigma", 2)
    search = _Search(src, dst, 2, 2, pins, 2)
    cand = _Candidate(search)
    ctx, other = [g for g in search.ctxs if search.tms[g]][:2]
    x, y = search.tms[ctx][:2]
    before = {g: dict(table) for g, table in cand.tm.items()}
    out = cand.assigned("tm", (ctx, x), cand.on_tm(ctx, y))
    assert out.on_tm(ctx, x) == cand.on_tm(ctx, y) != cand.on_tm(ctx, x)
    assert cand.tm == before  # the candidate it was copied from is unchanged
    assert out.tm[other] is cand.tm[other] and out.ty is cand.ty  # the rest is shared


def test_naturality_substitutes_no_single_cell():
    # naturality compares rows: its body calls the codomain's row hooks only
    path = Path(__file__).resolve().parent.parent / "src" / "natmod" / "morphism.py"
    module = ast.parse(path.read_text(encoding="utf-8"))
    (body,) = [n for n in module.body if isinstance(n, ast.FunctionDef) and n.name == "_naturality"]
    names = {getattr(n, "attr", getattr(n, "id", None)) for n in ast.walk(body)}
    assert {"subst_ty_row", "subst_tm_row"} <= names
    assert not names & {"subst_ty", "subst_tm"}
