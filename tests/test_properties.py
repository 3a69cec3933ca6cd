"""Law-style property tests over randomly generated finite data."""

import functools
import itertools
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from natmod.fincat import (
    FinCatPresentation, check_category, join_escaped, tuple_key,
)
from natmod.freemodel import (
    TermTree,
    TypeTree,
    extend_by_sigma,
    extend_by_term,
    extend_by_type,
    extend_by_unit,
    term_model,
    tree_subst,
)
from natmod.modelio import MissingCell, TableModel, parse_model, serialize_model
from natmod.natmodel import CompositeModel, NaturalModel, _tuple_key, induced_sub
from natmod.presheaf import (
    NatTrans,
    Presheaf,
    elements_cat,
    pullback_presheaves,
    sum_presheaves,
)
from natmod.polyset import (
    beck_chevalley_witness,
    chosen_pullback,
    compose_map,
    distributivity_witness,
    extend,
    extend_map,
    fin_map,
    identity_map,
    lemma_join_quadruple,
    lemma_map_into_extension,
    lemma_pair_into_extension,
    lemma_split_quadruple,
    poly_from_map,
    quadruple_object,
    random_family,
    random_fin_map,
)

from helpers import finite_sets_model, propositions_model


@st.composite
def fin_maps(draw, max_size=4):
    n_dom = draw(st.integers(0, max_size))
    n_cod = draw(st.integers(1, max_size))
    dom = tuple(f"d{i}" for i in range(n_dom))
    cod = tuple(f"c{i}" for i in range(n_cod))
    values = [draw(st.integers(0, n_cod - 1)) for _ in range(n_dom)]
    return fin_map(dom, cod, {x: cod[v] for x, v in zip(dom, values)})


@st.composite
def composable_pairs(draw, max_size=4):
    f = draw(fin_maps(max_size))
    n_cod = draw(st.integers(1, max_size))
    cod = tuple(f"e{i}" for i in range(n_cod))
    values = [draw(st.integers(0, n_cod - 1)) for _ in range(len(f.cod))]
    g = fin_map(f.cod, cod, {x: cod[v] for x, v in zip(f.cod, values)})
    return g, f


class TestFinMapLaws:
    @given(fin_maps())
    def test_identity_laws(self, f):
        assert compose_map(f, identity_map(f.dom)).mapping == f.mapping
        assert compose_map(identity_map(f.cod), f).mapping == f.mapping

    @given(composable_pairs())
    def test_pullback_projections_commute(self, pair):
        g, f = pair
        # complete f and a parallel copy of itself to the chosen pullback
        apex, p1, p2 = chosen_pullback(g, g)
        assert compose_map(g, p1).mapping == compose_map(g, p2).mapping


class TestExtensionFunctoriality:
    @given(fin_maps(3), st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_extension_preserves_identity_and_composite(self, f, n1, n2):
        p = poly_from_map(f)
        xs = {"*": tuple(f"x{i}" for i in range(n1))}
        ys = {"*": tuple(f"y{i}" for i in range(max(n2, 1)))}
        zs = {"*": ("z0",)}
        ident = extend_map(p, xs, xs, {"*": identity_map(xs["*"])})["*"]
        assert ident.mapping == identity_map(extend(p, xs)["*"]).mapping
        rng = random.Random(n1 * 7 + n2)
        phi = {"*": random_fin_map(rng, xs["*"], ys["*"])}
        psi = {"*": random_fin_map(rng, ys["*"], zs["*"])}
        left = extend_map(p, xs, zs, {"*": compose_map(psi["*"], phi["*"])})["*"]
        right = compose_map(
            extend_map(p, ys, zs, psi)["*"], extend_map(p, xs, ys, phi)["*"]
        )
        assert left.mapping == right.mapping


class TestCorrespondenceRoundtrips:
    @given(fin_maps(3), st.integers(0, 2), st.integers(0, 2), st.randoms())
    @settings(max_examples=30, deadline=None)
    def test_extension_splitting_roundtrip(self, f, nx, ny, pyrng):
        xs = tuple(f"x{i}" for i in range(nx))
        pfx = extend(poly_from_map(f), {"*": xs})["*"]
        if not pfx:
            return
        y = tuple(f"y{i}" for i in range(ny))
        g = fin_map(y, pfx, {yy: pyrng.choice(pfx) for yy in y})
        g1, g2 = lemma_map_into_extension(f, xs, g)
        back = lemma_pair_into_extension(f, xs, g1, g2)
        assert back.mapping == g.mapping

    @given(fin_maps(3), st.integers(0, 2), st.randoms())
    @settings(max_examples=30, deadline=None)
    def test_quadruple_roundtrip(self, f, ny, pyrng):
        q = quadruple_object(f)
        if not q:
            return
        y = tuple(f"y{i}" for i in range(ny))
        g = fin_map(y, q, {yy: pyrng.choice(q) for yy in y})
        parts = lemma_split_quadruple(f, g)
        assert lemma_join_quadruple(f, *parts).mapping == g.mapping


class TestWitnessNaturality:
    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_beck_chevalley_commutes_with_family_maps(self, seed):
        rng = random.Random(seed)
        from natmod.polyset import random_pullback_square

        v, f, u, g = random_pullback_square(rng, 3)
        fam = random_family(rng, u.dom, 2)
        fam2 = random_family(rng, u.dom, 2, tag="y")
        try:
            phi = {a: random_fin_map(rng, fam[a], fam2[a]) for a in u.dom}
        except ValueError:
            return
        s1, _ = beck_chevalley_witness(v, f, u, g, fam)
        s2, _ = beck_chevalley_witness(v, f, u, g, fam2)
        fd = f.as_dict
        for d in g.dom:
            fwd1, fwd2 = s1.forward[d], s2.forward[d]
            for (a, x) in fwd1.dom:
                lhs = fwd2((a, phi[a](x)))
                b, x2 = fwd1((a, x))
                assert lhs == (b, phi[fd[b]](x))

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_distributivity_commutes_with_family_maps(self, seed):
        rng = random.Random(seed)
        b = tuple(f"b{i}" for i in range(rng.randint(1, 3)))
        a = tuple(f"a{i}" for i in range(rng.randint(1, 3)))
        c = tuple(f"c{i}" for i in range(rng.randint(0, 3)))
        u = random_fin_map(rng, c, b)
        f = random_fin_map(rng, b, a)
        fam = random_family(rng, c, 2)
        fam2 = random_family(rng, c, 2, tag="y")
        try:
            phi = {ci: random_fin_map(rng, fam[ci], fam2[ci]) for ci in c}
        except ValueError:
            return
        w1 = distributivity_witness(u, f, fam)
        w2 = distributivity_witness(u, f, fam2)
        for a_el in f.cod:
            for sec in w1.forward[a_el].dom:
                # act on the left-hand side: map each chosen element
                acted = tuple((bb, (cx[0], phi[cx[0]](cx[1]))) for bb, cx in sec)
                m1, s1 = w1.forward[a_el](sec)
                m2, s2 = w2.forward[a_el](acted)
                assert m2 == m1
                assert s2 == tuple((bb, phi[dict(m1)[bb]](x)) for bb, x in s1)


class TestTreeSubstitutionLaws:
    @given(st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_three_leaf_tree_functoriality(self, seed):
        rng = random.Random(seed)
        m = term_model(range(2))
        shapes = [
            TypeTree(left=TypeTree(left=TypeTree(leaf="T0"), right=TypeTree(leaf="T1")),
                     right=TypeTree(leaf="T0")),
            TypeTree(left=TypeTree(leaf="T1"),
                     right=TypeTree(left=TypeTree(leaf="T0"), right=TypeTree(leaf="T1"))),
        ]
        t = shapes[seed % 2]
        g = m.base.objs.key(())
        ctxs = m.base.objects(2)
        d1 = rng.choice(ctxs)
        sigmas = m.base.hom(d1, g)
        if not sigmas:
            return
        sig = rng.choice(sigmas)
        d2 = rng.choice(ctxs)
        taus = m.base.hom(d2, d1)
        if not taus:
            return
        tau = rng.choice(taus)
        lhs = tree_subst(m, m.base.compose(sig, tau), t)
        rhs = tree_subst(m, tau, tree_subst(m, sig, t))
        assert lhs.key == rhs.key


# Key parts drawn over every separator a spelling uses, and the escape.
_KEY_TEXT = st.lists(st.sampled_from("a0|;,[]:()=>\\"), max_size=3).map("".join)
_PARTS = st.lists(_KEY_TEXT, max_size=3).map(tuple)
_TYPE_TREES = st.recursive(
    _KEY_TEXT.map(lambda x: TypeTree(leaf=x)),
    lambda kids: st.tuples(kids, kids).map(lambda lr: TypeTree(left=lr[0], right=lr[1])),
    max_leaves=4,
)
_TERM_TREES = st.recursive(
    _KEY_TEXT.map(lambda x: TermTree(leaf=x)),
    lambda kids: st.tuples(kids, _TYPE_TREES, kids).map(
        lambda t: TermTree(left=t[0], rtype=t[1], right=t[2])),
    max_leaves=3,
)
_KEY_SETTINGS = settings(max_examples=80, derandomize=True, deadline=None)

# The small cells every drawn cell is also compared with: parts of at most
# one character, a separator or the escape, so that the cells a spelling
# without escapes would run together are among them.  An interleaved
# context also takes the part ",0,", which reads as a slot count between
# two parts when its commas are not escaped.
_ATOMS = ["", "a", "\\", "|", ";", ",", "[", "]", ":"]


def _shape(tree) -> object:
    """A tree as nested tuples of its leaves, compared without keys."""
    if tree.is_leaf:
        return tree.leaf
    if isinstance(tree, TermTree):
        return _shape(tree.left), _shape(tree.rtype), _shape(tree.right)
    return _shape(tree.left), _shape(tree.right)


def _small_lists(items: list, n: int) -> list[tuple]:
    return [p for k in range(n + 1) for p in itertools.product(items, repeat=k)]


def _small_type_trees(leaves: list[str]) -> list[TypeTree]:
    ones = [TypeTree(leaf=x) for x in leaves]
    twos = [TypeTree(left=l, right=r) for l in ones for r in ones]
    return ones + twos + [TypeTree(left=l, right=r) for l in ones for r in twos] \
        + [TypeTree(left=l, right=r) for l in twos for r in ones]


def _spellings():
    """(id, drawn cells, small cells, spell, cell identity): every way a
    key is spelled from parts, with what makes two cells the same cell."""
    term_cat = extend_by_term(term_model(range(1)), "T0").base
    type_cat = extend_by_type(term_model(range(1))).base
    tree_cat = extend_by_sigma(term_model(range(1))).base
    same = lambda cell: cell  # noqa: E731
    small_tys = _small_type_trees(_ATOMS)
    terms = [TermTree(leaf=x) for x in _ATOMS]
    interleaved = st.tuples(_KEY_TEXT, _PARTS).flatmap(lambda c: st.tuples(
        st.just(c[0]), st.lists(st.integers(0, 11), min_size=len(c[1]) + 1,
                                max_size=len(c[1]) + 1).map(tuple), st.just(c[1])))
    out = [(f"join_escaped {sep}", _PARTS, _small_lists(_ATOMS, 3),
            lambda p, sep=sep: join_escaped(sep, p), same) for sep in ";|,"]
    return out + [
        ("tuple_key", _PARTS, _small_lists(_ATOMS, 3), _tuple_key, same),
        ("type tree", _TYPE_TREES, small_tys, lambda t: t.key, _shape),
        ("term tree", _TERM_TREES,
         terms + [TermTree(left=l, rtype=t, right=r) for l in terms for t in small_tys[:90]
                  for r in terms[:3]], lambda t: t.key, _shape),
        ("term context", st.tuples(_KEY_TEXT, _PARTS),
         [(g, p) for g in _ATOMS for p in _small_lists(_ATOMS, 2)], term_cat.spell_obj, same),
        ("interleaved context", interleaved,
         [(g, ks, p) for g in _ATOMS[:4] for p in _small_lists(_ATOMS + [",0,"], 2)
          for ks in itertools.product((0, 1), repeat=len(p) + 1)],
         type_cat.spell_obj, same),
        ("tree context", st.tuples(_KEY_TEXT, st.lists(_TYPE_TREES, max_size=2).map(tuple)),
         [(g, ts) for g in _ATOMS for ts in _small_lists(small_tys[:30], 2)],
         tree_cat.spell_obj, lambda c: (c[0], tuple(map(_shape, c[1])))),
    ]


def _one_point_base() -> FinCatPresentation:
    return FinCatPresentation(["*"], {("*", "*"): ["id"]}, {("id", "id"): "id"}, {"*": "id"}, "*")


def _constant(base: FinCatPresentation, values: list[str]) -> Presheaf:
    return Presheaf(base, {"*": values}, {"id": {x: x for x in values}})


# elements such as `a|` and `a`, whose pairs with `` and `|` read alike
# when the bar is not escaped
_ELEMENTS = st.lists(st.sampled_from(_ATOMS + ["a|", "|a", "a\\"]), min_size=1, max_size=4,
                     unique=True)
_SPELLINGS = _spellings()
_SMALL_KEYS: dict[str, dict] = {}  # each spelling's small cells by key, built once


class TestKeySpellingsAreInjective:
    @pytest.mark.parametrize("name,cells,small,spell,same", _SPELLINGS,
                             ids=[s[0] for s in _SPELLINGS])
    @given(data=st.data())
    @_KEY_SETTINGS
    def test_distinct_cells_get_distinct_keys(self, name, cells, small, spell, same, data):
        """Drawn cells get distinct keys among themselves and from every
        other small cell."""
        small_keys = _SMALL_KEYS.get(name)
        if small_keys is None:
            small_keys = _SMALL_KEYS[name] = {spell(c): same(c) for c in small}
        assert len(small_keys) == len(small)
        drawn = data.draw(st.lists(cells, min_size=1, max_size=8))
        assert len({spell(c) for c in drawn}) == len({same(c) for c in drawn})
        for c in drawn:
            assert small_keys.get(spell(c), same(c)) == same(c)
        if name.endswith("tree"):
            # a tree is a value: it equals a tree of its kind exactly when
            # their keys are equal, with equal hashes, and never a tree of
            # the other kind, even a leaf spelled alike
            for a, b in itertools.product(drawn, repeat=2):
                assert (a == b) == (a.key == b.key)
                assert a != b or hash(a) == hash(b)
            mirror = TermTree if name == "type tree" else TypeTree
            mirrors = [mirror(leaf=x) for x in _ATOMS + [c.leaf for c in drawn if c.is_leaf]]
            assert not set(drawn) & set(mirrors)
            assert all(c != m for c in drawn for m in mirrors)

    def test_tuple_key_is_the_one_in_fincat(self):
        assert _tuple_key is tuple_key

    @given(_ELEMENTS, _ELEMENTS)
    @_KEY_SETTINGS
    def test_the_presheaf_constructions_keep_their_cells_apart(self, xs, ys):
        base = _one_point_base()
        x, y, z = _constant(base, xs), _constant(base, ys), _constant(base, ["z"])
        apex, p1, p2 = pullback_presheaves(
            NatTrans(x, z, {"*": dict.fromkeys(xs, "z")}),
            NatTrans(y, z, {"*": dict.fromkeys(ys, "z")}))
        pairs = [(p1.apply("*", k), p2.apply("*", k)) for k in apex.at("*")]
        assert len(set(apex.at("*"))) == len(pairs) == len(xs) * len(ys)
        assert pairs == [(a, b) for a in xs for b in ys]
        total, injections = sum_presheaves([x, y])
        assert len(set(total.at("*"))) == len(xs) + len(ys)
        assert [i.apply("*", e) for i, es in zip(injections, (xs, ys)) for e in es] \
            == total.at("*")
        cat, proj = elements_cat(x)
        assert len(set(cat.object_keys)) == len(set(cat.all_morphisms())) == len(xs)
        assert check_category(cat).ok and proj.check() == []


# ---------------------------------------------------------------------------
# A model refuses a type or term key it never handed out
# ---------------------------------------------------------------------------

def _composite_over_one_type():
    m = term_model(range(1))
    return CompositeModel(m, m)


# the suite models whose types and terms are named by registries
_REGISTRY_MODELS = {
    "term-model:1": lambda: term_model(range(1)),
    "term-model:2": lambda: term_model(range(2)),
    "type": lambda: extend_by_type(term_model(range(1))),
    "unit": lambda: extend_by_unit(term_model(range(1))),
    "term": lambda: extend_by_term(term_model(range(1)), "T0"),
    "sigma": lambda: extend_by_sigma(term_model(range(1))),
    "composite": _composite_over_one_type,
    "P": propositions_model,
    "finite-sets:2": lambda: finite_sets_model(2),
}
# model files read back: a file refuses a cell it lacks with MissingCell,
# a LookupError, not a ValueError
_FILE_MODELS = {
    "file:term-model:1": lambda: parse_model(serialize_model(term_model(range(1)), 2)),
    "file:unit": lambda: parse_model(serialize_model(extend_by_unit(term_model(range(1))), 2)),
}
_KEY_BOUND = 2


class _World:
    """A model with its contexts, types, terms and morphisms into each
    context at ``_KEY_BOUND``, enumerated once."""

    def __init__(self, m: NaturalModel):
        self.m = m
        self.ctxs = m.base.objects(_KEY_BOUND)
        self.tys = {g: m.types(g, _KEY_BOUND) for g in self.ctxs}
        self.tms = {g: m.terms(g, _KEY_BOUND) for g in self.ctxs}
        self.into = {g: [s for d in self.ctxs for s in m.base.hom(d, g)] for g in self.ctxs}
        self.enumerated = {k for g in self.ctxs for k in self.tys[g] + self.tms[g]}


@functools.lru_cache(maxsize=None)
def _world(name: str) -> _World:
    return _World({**_REGISTRY_MODELS, **_FILE_MODELS}[name]())


@functools.lru_cache(maxsize=None)
def _key_pool() -> tuple[str, ...]:
    """The type and term keys every suite model enumerates at the bound, from
    fresh instances, and keys no model spells."""
    keys = {"bogus", "T9", "x99"}
    for build in _REGISTRY_MODELS.values():
        keys |= _World(build()).enumerated
    return tuple(sorted(keys))


def _handed_out(m) -> set[str]:
    """The keys in the type and term registries of m and of the models it is
    built on, so far: a key not among them, nor among m's own enumerated
    keys, is one m never handed out."""
    keys = {getattr(m, "new_ty", None), getattr(m, "_star", None)}
    for reg in ("tys", "tms"):
        if hasattr(m, reg):
            keys |= set(getattr(m, reg).cells)
    for part in ("inner", "p", "q"):
        if hasattr(m, part):
            keys |= _handed_out(getattr(m, part))
    return keys


_CALLS = ("typeof", "subst_ty", "subst_tm", "ext", "indsub by type", "indsub by term")


def _call(m: NaturalModel, how: str, g: str, sigma: str, ty: str, tm: str):
    if how == "typeof":
        return m.typeof(g, tm)
    if how == "subst_ty":
        return m.subst_ty(sigma, ty)
    if how == "subst_tm":
        return m.subst_tm(sigma, tm)
    if how == "ext":
        return m.ext(g, ty)
    if isinstance(m, TableModel):  # a file has no closed form: ⟨σ, a⟩ is searched
        return induced_sub(m, sigma, tm, ty)
    return m.indsub(sigma, tm, ty)


def _refused_over_other_contexts(name: str, other) -> int:
    """Hand each typeof, subst_tm and indsub of the model ``name`` a term,
    and each subst_ty and ext a type, of a context whose size is ``other``
    than the one the call is at, and assert each is refused, each typeof and
    indsub refusal naming the context of the call (g, or dom σ); returns how
    many typeof calls there were."""
    w = _world(name)
    m = w.m
    size = m.base.obj_size

    def elsewhere(d, cells=w.tms):
        return sorted({t for h in w.ctxs if other(size(h), size(d)) for t in cells[h]}
                      - set(cells[d]))

    calls = 0
    for g in w.ctxs:
        for ty in elsewhere(g, w.tys):
            with pytest.raises(ValueError):
                m.ext(g, ty)
            for sigma in w.into[g]:
                with pytest.raises(ValueError):
                    m.subst_ty(sigma, ty)
        for t in elsewhere(g):
            with pytest.raises(ValueError) as refused:
                m.typeof(g, t)
            assert t in str(refused.value) and g in str(refused.value)
            for sigma in w.into[g]:
                with pytest.raises(ValueError):
                    m.subst_tm(sigma, t)
            calls += 1
        for sigma in w.into[g]:
            d = m.base.dom(sigma)
            for t in elsewhere(d):
                for ty in w.tys[g]:
                    with pytest.raises(ValueError) as refused:
                        m.indsub(sigma, t, ty)
                    assert d in str(refused.value)
    return calls


class TestAForeignKeyIsRefused:
    @pytest.mark.parametrize("name", [*_REGISTRY_MODELS, *_FILE_MODELS])
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_a_key_the_model_never_handed_out_raises_value_error(self, name, data):
        w = _world(name)
        m = w.m
        own = _handed_out(m) | w.enumerated
        foreign = [k for k in _key_pool() if k not in own]
        assert foreign
        how = data.draw(st.sampled_from(_CALLS))
        key = data.draw(st.sampled_from(foreign))
        g = data.draw(st.sampled_from([g for g in w.ctxs if w.tys[g]]))
        sigma = data.draw(st.sampled_from(w.into[g]))
        ty, tm = key, key
        if how == "indsub by term":
            ty = data.draw(st.sampled_from(w.tys[g]))
        elif how == "indsub by type":
            tm = data.draw(st.sampled_from(w.tms[m.base.dom(sigma)] or [key]))
        with pytest.raises((ValueError, MissingCell) if name in _FILE_MODELS else ValueError) \
                as refused:
            _call(m, how, g, sigma, ty, tm)
        assert key in str(refused.value)

    # every call whose term lies over a larger context than the one the call
    # is at; a typeof refusal names the term, and every typeof and indsub
    # refusal the context of the call, not one of an inner model
    @pytest.mark.parametrize("name", ["term-model:1", "term-model:2", "type", "unit", "term",
                                      "sigma", "composite", "P", "finite-sets:2"])
    def test_a_term_of_a_larger_context_is_refused(self, name):
        assert _refused_over_other_contexts(name, operator.gt) > 0

    # the same with the smaller contexts, in the models where a term of one
    # is not also a term of a larger context
    @pytest.mark.parametrize("name", ["type", "unit", "P", "finite-sets:2"])
    def test_a_term_of_a_smaller_context_is_refused(self, name):
        assert _refused_over_other_contexts(name, operator.lt) > 0

    # the basic-type and unit extensions refuse a new term of theirs at
    # another context, or at an inner type, before they delegate: the
    # refusal names the term and the context of the call
    @pytest.mark.parametrize("name", ["type", "unit"])
    def test_a_new_term_out_of_place_is_refused_naming_its_context(self, name):
        w = _world(name)
        m = w.m
        new = {g: set(m.new_terms(g)) for g in w.ctxs}
        tags = set().union(*new.values())
        calls = 0
        for g in w.ctxs:
            for t in sorted(tags - new[g]):
                with pytest.raises(ValueError) as refused:
                    m.typeof(g, t)
                assert str(refused.value) == f"{t!r} is not a term over {g}"
                calls += 1
            for sigma in w.into[g]:
                d = m.base.dom(sigma)
                for ty in w.tys[g]:
                    for t in sorted(tags - new[d] if ty == m.new_ty else tags):
                        with pytest.raises(ValueError) as refused:
                            m.indsub(sigma, t, ty)
                        assert str(refused.value) == f"{t!r} is not a term of {ty} over {d}"
                        calls += 1
        assert calls > 0

    def test_the_refusals_of_keys_the_model_handed_out_name_the_context(self):
        x = extend_by_type(term_model(range(1)))
        for g in x.base.objects(2):
            x.terms(g, 2)  # ix(fs[]|2) hands out v0 and v1
        one = "ix(fs[]|1)"
        with pytest.raises(ValueError, match=r"^'v1' is not a term over ix\(fs\[\]\|1\)$"):
            x.typeof(one, "v1")
        with pytest.raises(ValueError, match=r"^'v0' is not a term of T0 over ix\(fs\[\]\|1\)$"):
            x.indsub(x.base.identity(one), "v0", "T0")
        u = extend_by_unit(term_model(range(1)))
        zero = u.base.objects(0)[0]
        assert zero == "ix(fs[]|0)"
        with pytest.raises(ValueError, match=r"^'star' is not a term of T0 over ix\(fs\[\]\|0\)$"):
            u.indsub(u.base.identity(zero), "star", "T0")

    @pytest.mark.parametrize("name", [*_REGISTRY_MODELS, *_FILE_MODELS])
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_a_key_the_model_handed_out_answers(self, name, data):
        w = _world(name)
        m = w.m
        how = data.draw(st.sampled_from(_CALLS))
        g = data.draw(st.sampled_from([g for g in w.ctxs if w.tys[g]]))
        sigma = data.draw(st.sampled_from(w.into[g]))
        d = m.base.dom(sigma)
        ty = data.draw(st.sampled_from(w.tys[g]))
        if how == "typeof":
            tm = data.draw(st.sampled_from(w.tms[g] or [None]))
            if tm is not None:
                assert tm in m.terms_of(g, _call(m, how, g, sigma, ty, tm), _KEY_BOUND)
        elif how == "subst_ty":
            assert _call(m, how, g, sigma, ty, None) in w.tys[d]
        elif how == "subst_tm":
            tm = data.draw(st.sampled_from(w.tms[g] or [None]))
            if tm is not None:
                assert _call(m, how, g, sigma, ty, tm) in w.tms[d]
        elif how == "ext":
            e = _call(m, how, g, sigma, ty, None)
            assert m.base.cod(e.proj) == g
            assert m.typeof(e.extended, e.var) == m.subst_ty(e.proj, ty)
        else:
            over = m.terms_of(d, m.subst_ty(sigma, ty), _KEY_BOUND)
            tm = data.draw(st.sampled_from(over or [None]))
            if tm is not None:
                tau = _call(m, how, g, sigma, ty, tm)
                e = m.ext(g, ty)
                assert m.base.compose(e.proj, tau) == sigma
                assert m.subst_tm(tau, e.var) == tm
