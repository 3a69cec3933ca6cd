import ast
import dataclasses
import hashlib
import itertools
import json
import random
import re
import signal
from pathlib import Path

import pytest

from natmod.fincat import FinSliceOpposite, join_escaped, truncate
from natmod.freemodel import (
    CompositeModel,
    ExtTermModel,
    _InterleavedCategory,
    _TreeCategory,
    _WrappedCategory,
    TermTree,
    TypeTree,
    extend_by_sigma,
    extend_by_term,
    extend_by_type,
    extend_by_unit,
    extend_term_universal,
    inclusion,
    initial_morphism,
    initiality_pins,
    interleaved_universal_pins,
    poly_composite_models,
    sigma_inclusion,
    sigma_of_tree,
    sigma_universal,
    sigma_universal_pins,
    substitution_morphism,
    term_model,
    term_universal_pins,
    tree_ext,
    tree_subst,
    tree_summation,
    tmtree_type,
    type_insertion,
    type_universal,
    unit_insertion,
    unit_universal,
)
from natmod.morphism import (
    check_morphism,
    check_sigma_morphism,
    compose_morphisms,
    count_morphisms,
    identity_morphism,
)
from natmod.modelio import parse_model
from natmod.natmodel import (
    _intro_inverse,
    check_eat,
    check_sigma,
    check_unit,
    extension_square_oracle,
    model_presheaves,
    sigma_square,
)

from helpers import (
    deadline,
    finite_sets_model,
    one_object_file,
    propositions_model,
    reference_interleaved_inclusion,
    reference_sigma_inclusion,
    reference_slice_compose,
    reference_term_inclusion,
)


class TestTermModel:
    def test_empty_index_gives_terminal_base(self):
        m = term_model(range(0))
        assert m.base.objects(3) == [m.base.objs.key(())]
        assert m.types(m.terminal, 3) == []
        assert m.terms(m.terminal, 3) == []

    def test_singleton_index_is_fin_op_with_constant_types(self):
        m = term_model(range(1))
        # objects at bound n: one per cardinality
        assert len(m.base.objects(3)) == 4
        for g in m.base.objects(3):
            assert m.types(g, 3) == ["T0"]
            assert len(m.terms(g, 3)) == len(m.base.objs.cell(g))

    def test_extension_data_appends_a_fresh_labelled_element(self):
        m = term_model(range(2))
        g = m.base.objs.key((0, 1))
        e = m.ext(g, "T1")
        assert m.base.objs.cell(e.extended) == (0, 1, 1)
        # the projection is the left inclusion
        assert m.base.mor_payload(e.proj) == (0, 1)
        assert e.var == "x2"

    def test_a_key_the_model_never_handed_out_raises_value_error(self):
        m = term_model(range(1))
        one = m.base.objs.key((0,))
        ident = m.base.identity(one)
        [x0], [t0] = m.terms(one, 1), m.types(one, 1)
        assert (m.typeof(one, x0), m.subst_tm(ident, x0)) == (t0, x0)
        for attempt in (lambda: m.typeof(one, "v0"), lambda: m.subst_tm(ident, "z0"),
                        lambda: m.subst_tm_row(ident, [x0, "z0"]),
                        lambda: m.indsub(ident, "v0", t0), lambda: m.ext(one, "X0")):
            with pytest.raises(ValueError, match="not a key"):
                attempt()
        # the image rules of the initial morphism read the same registries
        fm = initial_morphism(m, m, {0: t0})
        with pytest.raises(ValueError):
            fm.on_tm(one, "v0")
        with pytest.raises(ValueError):
            fm.on_ty(one, "X0")

    def test_a_variable_past_its_context_raises_value_error(self):
        m = term_model(range(1))
        one, two = m.base.objs.key((0,)), m.base.objs.key((0, 0))
        ident = m.base.identity(one)
        assert m.terms(two, 2) == ["x0", "x1"]  # hands out the key x1
        for attempt in (lambda: m.indsub(ident, "x1", "T0"), lambda: m.typeof(one, "x1"),
                        lambda: m.subst_tm(ident, "x1"),
                        lambda: m.subst_tm_row(ident, ["x0", "x1"])):
            with pytest.raises(ValueError, match=f"x1 is not a term over {re.escape(one)}"):
                attempt()

    def test_a_type_the_model_does_not_have_raises_value_error(self):
        m = term_model(range(2))
        ident = m.base.identity(m.terminal)
        assert (m.subst_ty(ident, "T1"), dict(m.subst_ty_row(ident, ["T0"]))) == ("T1", {"T0": "T0"})
        u = extend_by_unit(term_model(range(1)))
        for attempt in (lambda: m.subst_ty(ident, "T2"),
                        lambda: m.subst_ty_row(ident, ["T2", "bogus"]),
                        lambda: u.subst_ty(u.base.identity(u.terminal), "X")):
            with pytest.raises(ValueError, match="not a key"):
                attempt()

    def test_initiality_counts_for_three_targets(self):
        tm = term_model(range(2))
        targets = [
            (term_model(range(2)), {0: "T0", 1: "T1"}),
            (term_model(range(1)), {0: "T0", 1: "T0"}),
        ]
        u = extend_by_unit(term_model(range(0)))
        targets.append((u, {0: u.new_ty, 1: u.new_ty}))
        for target, images in targets:
            fm = initial_morphism(tm, target, images)
            assert check_morphism(fm, 2).ok
            assert count_morphisms(tm, target, 2, initiality_pins(tm, target, images)) == 1


class TestExtendByTerm:
    def setup_method(self):
        self.u = extend_by_unit(term_model(range(0)))
        self.ext = extend_by_term(self.u, self.u.new_ty)

    def test_types_are_types_of_the_weakened_context(self):
        # ty (Γ; ...) equals ty of the inner context extended by the new type
        key = self.ext.terminal
        under = self.ext.base.under(key)
        assert self.ext.types(key, 2) == self.u.types(under, 2)

    def test_normal_form_collapse_identifies_weakened_extensions(self):
        # extending (Γ;) by a type that does not mention the variable lands
        # on the inclusion image of the inner extension
        incl = inclusion(self.ext)
        g = self.u.terminal
        a = self.u.types(g, 1)[0]
        lifted = incl.on_ty(g, a)
        e = self.ext.ext(incl.on_obj(g), lifted)
        assert e.extended == incl.on_obj(self.u.ext(g, a).extended)

    def test_recorded_alignment_inverse_is_the_inverse(self):
        incl = inclusion(self.ext)
        g = self.u.terminal
        cells = [(incl.on_obj(g), incl.on_ty(g, a)) for a in self.u.types(g, 1)]
        for cell in cells:
            self.ext.ext(*cell)
        aligns = [self.ext.alignment(*cell) for cell in cells]
        assert any(aligns)
        for _, iso, inv in filter(None, aligns):
            assert self.u.base.is_iso(iso) == inv

    def test_inclusion_preserves_extension_strictly(self):
        incl = inclusion(self.ext)
        rep = check_morphism(incl, 2, strict=True)
        assert rep.ok, rep.violations

    def test_distinguished_term_and_substitution(self):
        s = substitution_morphism(self.ext, self.u._star)
        assert s.on_tm(self.ext.terminal, self.ext.x_term) == self.u._star
        si = compose_morphisms(s, inclusion(self.ext))
        for g in self.u.base.objects(2):
            assert si.on_obj(g) == g

    def test_universal_property_with_prescribed_term(self):
        mt = term_model(range(1))
        ext = extend_by_term(mt, "T0")
        target = extend_by_term(extend_by_type(term_model(range(0))), "X")
        fm = initial_morphism(mt, target, {0: "X"})
        sharp = extend_term_universal(ext, fm, "v0")
        assert check_morphism(sharp, 2).ok
        assert sharp.on_tm(ext.terminal, ext.x_term) == "v0"
        pins = term_universal_pins(ext, fm, "v0", 2)
        assert count_morphisms(ext, target, 2, pins) == 1

    def test_sharp_of_the_inclusion_at_the_variable_is_the_identity_on_contexts(self):
        # with the inclusion and o = x, the mediating morphism is the
        # identity (uniqueness forces it)
        sharp = extend_term_universal(
            self.ext, inclusion(self.ext), self.ext.x_term
        )
        for g in self.ext.base.objects(2):
            assert sharp.on_obj(g) == g

    def test_sharp_builds_no_second_free_model(self, monkeypatch):
        # F♯ maps straight into F's codomain: extend_term_universal builds
        # no term extension of the target, and neither do its images
        built = []
        init = ExtTermModel.__init__
        monkeypatch.setattr(
            ExtTermModel, "__init__", lambda m, *args: built.append(m) or init(m, *args)
        )
        mt = term_model(range(1))
        ext = extend_by_term(mt, "T0")
        target = extend_by_term(extend_by_type(term_model(range(0))), "X")
        fm = initial_morphism(mt, target, {0: "X"})
        built.clear()
        sharp = extend_term_universal(ext, fm, "v0")
        assert check_morphism(sharp, 2).ok
        assert built == []

    def test_a_type_depending_on_the_variable_extends_formally(self):
        # over finite sets, fam(0, 1) over ⋄•O = set2 depends on the new
        # variable, so it is kept as a formal extension; fam(1, 1) does not
        # and collapses.  Called directly: objects(bound) does not terminate
        # here, as these extensions can keep a context's size.
        from helpers import finite_sets_model

        fs = finite_sets_model(2)
        fam = fs.tys.key
        ext = extend_by_term(fs, fam((2,)))
        root = ext.i_obj(fs.base.objs.key(1))
        assert root == "xt(set1|)"
        e = ext.ext(root, fam((0, 1)))
        assert e.extended == "xt(set1|fam(0, 1))"
        assert ext.ext_parent(e.extended) == (root, "fam(0, 1)")
        assert ext.base.mor_payload(e.proj) == ("set1=>set2:(1,)",)
        assert ext.base.anchor(e.extended) == "set1=>set2:(1,)"
        e2 = ext.ext(e.extended, fam((0,)))
        assert ext.ext_parent(e2.extended) == (e.extended, "fam(0,)")
        assert ext.ext(root, fam((1, 1))).extended == root

    def test_a_candidate_parent_that_extends_elsewhere_is_no_parent(self):
        # over finite sets with set n = set1•fam(n,), the empty O weakens every
        # type to fam(), which collapses to the first preimage fam(0,): so
        # (set1;)•fam() is (set0;), and (set2;) has no parent
        from helpers import finite_sets_model

        class WithParents(type(finite_sets_model(2))):
            def ext_parent(self, ctx):
                n = self.base.obj_size(ctx)
                return None if n == 1 else (self.base.objs.key(1), self.tys.key((n,)))

        fs = WithParents()
        ext = extend_by_term(fs, fs.tys.key((0,)))
        one = ext.i_obj(fs.base.objs.key(1))
        zero, two = (ext.i_obj(fs.base.objs.key(n)) for n in (0, 2))
        assert ext.ext(one, fs.tys.key(())).extended == zero
        assert ext.ext_parent(zero) == (one, "fam()")
        assert ext.ext_parent(two) is None


class TestExtendByType:
    def test_types_gain_exactly_the_new_basic_type(self):
        m = term_model(range(1))
        xm = extend_by_type(m)
        key = xm.terminal
        assert xm.types(key, 2) == [xm.new_ty] + m.types(m.terminal, 2)

    def test_terms_gain_one_per_formal_slot(self):
        m = term_model(range(0))
        xm = extend_by_type(m)
        e = xm.ext(xm.terminal, xm.new_ty)
        e2 = xm.ext(e.extended, xm.new_ty)
        assert len(xm.terms(e.extended, 2)) == 1
        assert len(xm.terms(e2.extended, 2)) == 2

    def test_check_eat_passes(self):
        xm = extend_by_type(term_model(range(1)))
        assert check_eat(xm, 2).ok

    def test_type_insertion_retracts_the_inclusion(self):
        m = term_model(range(1))
        xm = extend_by_type(m)
        s = type_insertion(xm, "T0")
        assert s.on_ty(xm.terminal, xm.new_ty) == "T0"
        si = compose_morphisms(s, inclusion(xm))
        for g in m.base.objects(2):
            assert si.on_obj(g) == g
            for t in m.types(g, 2):
                assert si.on_ty(g, t) == t

    def test_universal_property(self):
        m0 = term_model(range(0))
        xm = extend_by_type(m0)
        target = term_model(range(1))
        fm = initial_morphism(m0, target, {})
        sharp = type_universal(xm, fm, "T0")
        assert check_morphism(sharp, 2).ok
        assert sharp.on_ty(xm.terminal, xm.new_ty) == "T0"
        pins = interleaved_universal_pins(xm, fm, 2, sharp)
        assert count_morphisms(xm, target, 2, pins) == 1

    def test_sharp_sends_contexts_to_iterated_extensions(self):
        # the free model on one basic type maps onto the term model on one
        # index: a context with k formal slots lands on the k-element object
        m0 = term_model(range(0))
        xm = extend_by_type(m0)
        target = term_model(range(1))
        sharp = type_universal(xm, initial_morphism(m0, target, {}), "T0")
        ctx = xm.terminal
        for k in range(1, 3):
            ctx = xm.ext(ctx, xm.new_ty).extended
            assert sharp.on_obj(ctx) == target.base.objs.key((0,) * k)

    def test_a_slot_shaped_key_is_a_new_term_only_where_the_context_has_that_slot(self):
        x = extend_by_type(term_model(range(0)))

        def answer(m, ctx):
            try:
                return m.typeof(ctx, "v0")
            except (LookupError, ValueError) as exc:
                return type(exc)

        # ⋄ has no slot, so "v0" is typed as the inner model types a key it
        # never handed out
        assert answer(x, x.terminal) == answer(x.inner, x.inner.terminal) == ValueError
        assert answer(x, x.ext(x.terminal, x.new_ty).extended) == x.new_ty

    def test_the_slot_prefix_stays_apart_from_a_closed_inner_term(self):
        # the base's closed term is v0, so the slots take an apostrophe
        x = extend_by_type(parse_model(one_object_file(["0"])))
        ctx = x.ext(x.terminal, x.new_ty).extended
        tms = x.terms(ctx, 2)
        assert tms == ["v'0", "v0"]
        assert [x.typeof(ctx, t) for t in tms] == [x.new_ty, "0"]


class TestExtendByUnit:
    def test_unit_structure_passes(self):
        u = extend_by_unit(term_model(range(1)))
        assert check_eat(u, 2).ok
        assert check_unit(u, u.unit_structure, 2).ok

    def test_formal_unit_projection_is_identity_on_the_underlying_context(self):
        u = extend_by_unit(term_model(range(1)))
        e = u.ext(u.terminal, u.new_ty)
        (s, _) = u.base.mor_payload(e.proj)
        under = u.base.under(u.terminal)
        assert s == u.inner.base.identity(under)

    def test_unit_insertion_retracts_inclusion(self):
        inner = extend_by_unit(term_model(range(0)))
        u2 = extend_by_unit(inner)
        n = unit_insertion(u2)
        assert check_morphism(n, 2).ok
        ni = compose_morphisms(n, inclusion(u2))
        for g in inner.base.objects(2):
            assert ni.on_obj(g) == g
            for t in inner.terms(g, 2):
                assert ni.on_tm(g, t) == t

    def test_universal_property(self):
        m0 = term_model(range(0))
        um = extend_by_unit(m0)
        target = extend_by_unit(term_model(range(0)))
        fm = initial_morphism(m0, target, {})
        sharp = unit_universal(um, fm)
        assert check_morphism(sharp, 2).ok
        assert sharp.on_ty(um.terminal, um.new_ty) == target.new_ty
        pins = interleaved_universal_pins(um, fm, 2, sharp)
        assert count_morphisms(um, target, 2, pins) == 1


class TestTypeTrees:
    def setup_method(self):
        self.m = term_model(range(1))
        self.s = extend_by_sigma(self.m)

    def test_leaf_tree_is_ordinary_extension(self):
        g = self.m.base.objs.key((0,))
        ext_m = self.m.ext(g, "T0")
        extended, proj, var = tree_ext(self.m, g, TypeTree(leaf="T0"))
        assert (extended, proj) == (ext_m.extended, ext_m.proj)
        assert var.leaf == ext_m.var

    def test_two_leaf_tree_extends_twice_with_composite_projection(self):
        g = self.m.base.objs.key(())
        t = TypeTree(left=TypeTree(leaf="T0"), right=TypeTree(leaf="T0"))
        extended, proj, _ = tree_ext(self.m, g, t)
        e1 = self.m.ext(g, "T0")
        e2 = self.m.ext(e1.extended, "T0")
        assert extended == e2.extended
        assert proj == self.m.base.compose(e1.proj, e2.proj)

    def test_tree_substitution_functoriality(self):
        rng = random.Random(12)
        m = self.m
        # a three-leaf tree over the empty context
        t = TypeTree(
            left=TypeTree(left=TypeTree(leaf="T0"), right=TypeTree(leaf="T0")),
            right=TypeTree(leaf="T0"),
        )
        g = m.base.objs.key(())
        for d1 in m.base.objects(2):
            for sig in m.base.hom(d1, g):
                for d2 in m.base.objects(2):
                    for tau in m.base.hom(d2, d1):
                        lhs = tree_subst(m, m.base.compose(sig, tau), t)
                        rhs = tree_subst(m, tau, tree_subst(m, sig, t))
                        assert lhs.key == rhs.key

    def test_sigma_model_passes_eat_and_sigma(self):
        assert check_eat(self.s, 2).ok
        assert check_sigma(self.s, self.s.sigma_structure, 2).ok

    def test_non_associativity_witness(self):
        # [[A,B],C] and [A,[B,C]] are distinct type keys, but the extended
        # contexts are isomorphic (found by hom enumeration)
        s = self.s
        g = s.terminal
        leaf = TypeTree(leaf="T0")
        ll = TypeTree(left=TypeTree(left=leaf, right=leaf), right=leaf)
        rr = TypeTree(left=leaf, right=TypeTree(left=leaf, right=leaf))
        kl, kr = s.tys.key(ll), s.tys.key(rr)
        assert kl != kr
        el = s.ext(g, kl).extended
        er = s.ext(g, kr).extended
        iso = None
        for h in s.base.hom(el, er):
            if s.base.is_iso(h):
                iso = h
                break
        assert iso is not None

    def test_pairing_restricts_to_fibre_bijections(self):
        # over each context, pair̂ bijects Σ_t terms(B[s_t]) with the fibre
        # of the classifier over the dependent sum
        s = self.s
        g = s.base.register(self.m.base.objs.key((0,)), ())
        st = s.sigma_structure
        for ty_a in s.types(g, 1):
            ext_a = s.ext(g, ty_a).extended
            for ty_b in s.types(ext_a, 1):
                sig = st.sigma(g, ty_a, ty_b)
                pairs = []
                for a in s.terms_of(g, ty_a, 1):
                    from natmod.natmodel import section

                    b_ty = s.subst_ty(section(s, g, a), ty_b)
                    for b in s.terms_of(g, b_ty, 2):
                        pairs.append(st.pair(g, ty_a, ty_b, a, b))
                fibre = s.terms_of(g, sig, 2)
                assert sorted(pairs) == sorted(fibre)
                assert len(set(pairs)) == len(pairs)

    def test_tree_summation_collapses_two_leaf_trees(self):
        s2 = extend_by_sigma(self.s)
        summ = tree_summation(s2)
        assert check_sigma_morphism(summ, 2).ok

    def test_collapse_comparison_inverse_is_the_inverse(self):
        s = self.s
        g = s.terminal
        leaf = TypeTree(leaf=s.types(g, 1)[0])
        tree = TypeTree(left=TypeTree(left=leaf, right=leaf), right=leaf)
        _, theta, theta_inv = sigma_of_tree(s, g, tree)
        b = s.base
        assert b.compose(theta_inv, theta) == b.identity(b.dom(theta))
        assert b.compose(theta, theta_inv) == b.identity(b.cod(theta))
        assert b.is_iso(theta) == theta_inv

    def test_sigma_universal_property(self):
        s = self.s
        incl = inclusion(s)
        sharp = sigma_universal(s, incl, bound=3)
        assert check_morphism(sharp, 2).ok
        for c in s.base.objects(2):
            assert sharp.on_obj(c) == c
        pins = sigma_universal_pins(s, incl, 2, sharp)
        assert count_morphisms(s, s, 2, pins) == 1


class TestSigmaSplit:
    """The free Σ-model's split reads a pair's children off its term tree."""

    @pytest.mark.parametrize("build,bound,n_terms", [
        (lambda: extend_by_sigma(term_model(range(1))), 3, 358),
        (lambda: extend_by_sigma(extend_by_unit(term_model(range(1)))), 2, 42),
        (lambda: extend_by_sigma(term_model(range(2))), 2, 34),
    ], ids=["sigma@3", "sigma-over-unit@2", "sigma-over-two-types@2"])
    def test_the_split_is_the_pairing_inverted_by_search(self, build, bound, n_terms):
        # the reference is the split read off the Σ square: pair̂ inverted
        m = build()
        s, comp = m.sigma_structure, CompositeModel(m, m)
        sq = sigma_square(m, s, bound)
        quadruple = _intro_inverse(sq)
        seen = 0
        for g in m.base.objects(bound):
            for key in comp.types(g, bound):
                ty_a, ty_b = comp.tys.cell(key)
                for t in m.terms_of(g, s.sigma(g, ty_a, ty_b), bound):
                    derived = sq.intro.parts[quadruple(g, ty_a, ty_b, t)][2:]
                    assert s.split(g, ty_a, ty_b, t) == derived
                    seen += 1
        assert seen == n_terms

    def test_a_target_without_a_split_is_refused_where_a_tree_collapses(self):
        # P's Σ structure without its split: a leaf needs none, and a node
        # is refused by sigma_of_tree and by the F♯ into P built on it
        p = propositions_model()
        p.sigma_structure = dataclasses.replace(p.sigma_structure, split=None)
        one = p.tys.key((1,))
        leaf = TypeTree(leaf=one)
        assert sigma_of_tree(p, p.terminal, leaf)[0] == one
        with pytest.raises(ValueError, match="^the target's Σ structure has no split"):
            sigma_of_tree(p, p.terminal, TypeTree(left=leaf, right=leaf))
        tm1 = term_model(range(1))
        sm = extend_by_sigma(tm1)
        sharp = sigma_universal(sm, initial_morphism(tm1, p, {0: one}))
        [t0] = sm.types(sm.terminal, 1)
        assert sharp.on_ty(sm.terminal, t0) == one
        [node] = [ty for ty in sm.types(sm.terminal, 2) if ty != t0]
        with pytest.raises(ValueError, match="^the target's Σ structure has no split"):
            sharp.on_ty(sm.terminal, node)

    def test_a_term_that_is_no_pair_of_the_sum_raises_value_error(self):
        m = extend_by_sigma(term_model(range(1)))
        s, g = m.sigma_structure, m.base.register(m.inner.base.objs.key((0,)), ())
        leaf = m.types(g, 1)[0]
        pair_ty = s.sigma(g, leaf, m.types(m.ext(g, leaf).extended, 1)[0])
        pair_tm = m.terms_of(g, pair_ty, 2)[0]
        for ctx, ty_a, ty_b, t in [
            (g, leaf, leaf, m.terms_of(g, leaf, 1)[0]),  # a variable, no pair
            (g, leaf, leaf, "never registered"),
            (g, leaf, pair_ty, pair_tm),  # the pair's B is not this B
            (g, pair_ty, leaf, pair_tm),  # nor its A this A
            (m.terminal, leaf, leaf, pair_tm),  # a pair over another context
        ]:
            with pytest.raises(ValueError, match="is not a pair of"):
                s.split(ctx, ty_a, ty_b, t)


class TestPolyCompositeModels:
    def test_composite_of_term_model_with_itself(self):
        m = term_model(range(1))
        comp = poly_composite_models(m, m)
        assert check_eat(comp, 2).ok
        assert extension_square_oracle(comp, 3, 2, 2).ok

    def test_projection_factors_through_both_extensions(self):
        m = term_model(range(1))
        comp = poly_composite_models(m, m)
        g = m.base.objs.key(())
        ty = comp.types(g, 2)[0]
        e = comp.ext(g, ty)
        a, b = comp.tys.cell(ty)
        e_q = m.ext(g, a)
        e_p = m.ext(e_q.extended, b)
        assert e.extended == e_p.extended
        assert e.proj == m.base.compose(e_q.proj, e_p.proj)

    def test_composite_variable_projects_to_the_constituent_data(self):
        m = term_model(range(1))
        comp = poly_composite_models(m, m)
        g = m.base.objs.key(())
        ty = comp.types(g, 2)[0]
        e = comp.ext(g, ty)
        a, b = comp.tys.cell(ty)
        e_q = m.ext(g, a)
        e_p = m.ext(e_q.extended, b)
        a2, b2, x2, y2 = comp.tms.cell(e.var)
        assert x2 == m.subst_tm(e_p.proj, e_q.var)
        assert y2 == e_p.var
        assert a2 == m.subst_ty(e.proj, a)

    @pytest.mark.parametrize("build", [CompositeModel, poly_composite_models])
    def test_models_over_two_bases_are_refused_by_name(self, build):
        p, q = term_model(range(1)), term_model(range(1))
        with pytest.raises(ValueError, match="shared base category") as exc:
            build(p, q)
        assert repr(p.base) in str(exc.value) and repr(q.base) in str(exc.value)

    def test_directly_constructed_composites_share_no_registry(self):
        m = term_model(range(1))
        first = CompositeModel(m, m)
        ty = first.types(m.base.objs.key(()), 2)[0]
        second = CompositeModel(m, m)
        with pytest.raises(KeyError):
            second.tys.cell(ty)

    def test_pairs_whose_parts_contain_the_separator_have_distinct_keys(self):
        # one object; each type extends it to itself by the identity and has
        # one term.  Spelled without escapes, (a|b, c) and (a, b|c) would
        # share the key (a|b|c).
        tys = ["a|b", "c", "a", "b|c", "\\", "\\|"]
        tms = [f"t{i}" for i in range(len(tys))]
        m = parse_model(json.dumps({
            "objects": ["*"], "terminal": "*", "identities": {"*": "id"},
            "homs": [{"src": "*", "dst": "*", "mors": ["id"]}],
            "compose": [{"g": "id", "f": "id", "gf": "id"}],
            "ty": {"*": tys}, "tm": {"*": tms},
            "typeof": [{"ctx": "*", "term": t, "type": a} for t, a in zip(tms, tys)],
            "subst_ty": [{"mor": "id", "type": a, "out": a} for a in tys],
            "subst_tm": [{"mor": "id", "term": t, "out": t} for t in tms],
            "ext": [{"ctx": "*", "type": a, "extended": "*", "proj": "id", "var": t}
                    for t, a in zip(tms, tys)],
        }))
        comp = CompositeModel(m, m)
        pairs, quads = comp.types("*", 2), comp.terms("*", 2)
        assert len(set(pairs)) == len(pairs) == 36 and len(set(quads)) == len(quads) == 36
        assert [comp.tys.cell(k) for k in pairs] == list(itertools.product(tys, tys))
        assert pairs[tys.index("c")] == "(a\\|b|c)"
        assert pairs[len(tys) * tys.index("a") + tys.index("b|c")] == "(a|b\\|c)"
        assert check_eat(comp, 1).ok


def _reference_composite(cat, g: str, f: str) -> str:
    """g∘f computed from the key formulas: for (Fin/I)^op, the function read
    back out of the keys; for a wrapped category, the key of the payload of
    the inner composite, spelled out."""
    if isinstance(cat, FinSliceOpposite):
        return reference_slice_compose(g, f)
    assert isinstance(cat, _WrappedCategory)
    gp, fp = cat.mor_payload(g), cat.mor_payload(f)
    inner = _reference_composite(cat.inner.base, gp[0], fp[0])
    if not isinstance(cat, _InterleavedCategory):
        payload = (inner,)
    else:  # f's tally read through g's, empty in the unit case
        payload = (inner, tuple(fp[1][j] for j in gp[1]))
    return f"{cat.dom(f)}=>{cat.cod(g)}${payload!r}"


def _composition_cases():
    tm = term_model(range(2))
    return [
        pytest.param(tm, 3, id="term"),
        pytest.param(extend_by_term(tm, tm.tys.key(0)), 2, id="ext-term"),
        pytest.param(extend_by_type(tm), 2, id="ext-type"),
        pytest.param(extend_by_unit(tm), 2, id="ext-unit"),
        pytest.param(extend_by_sigma(tm), 2, id="ext-sigma"),
        pytest.param(poly_composite_models(tm, tm), 2, id="poly"),
    ]


class TestComposeIsALookup:
    @pytest.mark.parametrize("model, bound", _composition_cases())
    def test_every_composite_matches_the_key_formula(self, model, bound):
        cat = model.base
        homs = truncate(cat, bound).homs
        pairs = 0
        for (x, y), fs in homs.items():
            for (y2, z), gs in homs.items():
                if y2 != y:
                    continue
                for f in fs:
                    for g in gs:
                        gf = cat.compose(g, f)
                        assert gf == _reference_composite(cat, g, f), (g, f)
                        assert (cat.dom(gf), cat.cod(gf)) == (x, z)
                        pairs += 1
        assert pairs > len(homs)

    @pytest.mark.parametrize("model, bound", _composition_cases())
    def test_a_non_composable_pair_raises(self, model, bound):
        cat = model.base
        e = model.ext(model.terminal, model.types(model.terminal, bound)[0])
        with pytest.raises(ValueError):
            cat.compose(e.proj, e.proj)

    def test_a_key_built_by_the_registry_composes_before_its_hom_set_is_listed(self):
        tm = term_model(range(2))
        cat = tm.base
        e1 = tm.ext(tm.terminal, tm.tys.key(0))
        e2 = tm.ext(e1.extended, tm.tys.key(1))
        assert not [k for k in vars(cat) if "_homs" in k]
        composite = cat.compose(e1.proj, e2.proj)
        assert composite == _reference_composite(cat, e1.proj, e2.proj)
        assert composite == cat.mors.key((e2.extended, tm.terminal, ()))
        assert cat.compose(e2.proj, cat.identity(e2.extended)) == e2.proj
        assert cat.hom(e2.extended, tm.terminal) == [composite]

    @pytest.mark.parametrize("make", [extend_by_sigma, extend_by_unit, extend_by_type],
                             ids=lambda f: f.__name__)
    def test_a_wrapped_projection_composes_before_its_hom_set_is_listed(self, make):
        model = make(term_model(range(1)))
        cat = model.base
        e = model.ext(model.terminal, model.types(model.terminal, 1)[0])
        assert not [k for k in vars(cat) if "_homs" in k]
        ident = cat.identity(e.extended)
        assert cat.compose(e.proj, ident) == e.proj
        assert cat.compose(cat.identity(model.terminal), e.proj) == e.proj
        assert e.proj in cat.hom(e.extended, model.terminal)


_FREEMODEL = Path(__file__).resolve().parent.parent / "src" / "natmod" / "freemodel.py"


class TestOneWrappedModelBase:
    hooks = {"subst_ty", "subst_tm", "subst_ty_row", "subst_tm_row", "ext_parent"}
    registries = {"objs", "mors", "keys", "cells"}
    mutators = {"setdefault", "update", "pop", "popitem", "clear"}

    def test_substitution_and_ext_parent_are_defined_once_on_the_base(self):
        classes = _classes(_FREEMODEL)
        wrapped = {"_WrappedModel"}
        for name, node in classes.items():  # a class follows its bases
            if {getattr(b, "id", None) for b in node.bases} & wrapped:
                wrapped.add(name)

        assert self.hooks <= _methods(classes["_WrappedModel"])
        subclasses = wrapped - {"_WrappedModel"}
        assert subclasses == {
            "ExtTermModel", "_InterleavedModel", "TypeExtModel", "UnitExtModel", "SigmaExtModel",
        }
        assert {c: _methods(classes[c]) & self.hooks for c in subclasses} \
            == {c: set() for c in subclasses}

    def test_only_the_categories_write_their_registries(self):
        module = ast.parse(_FREEMODEL.read_text(encoding="utf-8"))
        writes = []
        for top in module.body:
            if isinstance(top, ast.ClassDef) and top.name.startswith("_") \
                    and top.name.endswith("Category"):
                continue
            for node in ast.walk(top):
                if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
                    node = node.value  # x._under[k] = ... writes into x._under
                elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in self.mutators:
                    node = node.func.value  # x.keys.setdefault(...)
                elif not (isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load)):
                    continue
                if isinstance(node, ast.Attribute) and node.attr in self.registries:
                    writes.append((getattr(top, "name", None), node.lineno))
        assert writes == []

    def test_only_the_base_defines_the_parent_candidate(self):
        classes = _classes(_FREEMODEL)
        assert [c for c, node in classes.items() if "_parent_candidate" in _methods(node)] \
            == ["_WrappedModel"]

    def test_the_categories_take_their_terminal_from_the_inclusion(self):
        classes = _classes(_FREEMODEL)
        assert [c for c, node in classes.items()
                if c.startswith("_") and c.endswith("Category") and "terminal" in _methods(node)] \
            == ["_WrappedCategory"]

    def test_the_inclusion_is_built_once(self):
        module = ast.parse(_FREEMODEL.read_text(encoding="utf-8"))
        built = [n for n in ast.walk(module) if isinstance(n, ast.Call)
                 and getattr(n.func, "attr", None) == "morphism"
                 and [getattr(a, "value", None) for a in n.args] == ["I"]]
        assert len(built) == 1


def _classes(path: Path) -> dict[str, ast.ClassDef]:
    module = ast.parse(path.read_text(encoding="utf-8"))
    return {n.name: n for n in module.body if isinstance(n, ast.ClassDef)}


def _methods(node: ast.ClassDef) -> set[str]:
    return {n.name for n in node.body if isinstance(n, ast.FunctionDef)}


_INCLUSION_CASES = [
    ("term", lambda: extend_by_term(term_model(range(1)), "T0"), reference_term_inclusion, 3),
    ("term-over-unit", lambda: extend_by_term(extend_by_unit(term_model(range(0))), "unit"),
     reference_term_inclusion, 3),
    ("type", lambda: extend_by_type(term_model(range(2))), reference_interleaved_inclusion, 3),
    ("unit", lambda: extend_by_unit(term_model(range(1))), reference_interleaved_inclusion, 3),
    ("sigma", lambda: extend_by_sigma(term_model(range(1))), reference_sigma_inclusion, 2),
]


class TestOneInclusion:
    @pytest.mark.parametrize("make,reference,bound",
                             [c[1:] for c in _INCLUSION_CASES], ids=[c[0] for c in _INCLUSION_CASES])
    def test_the_inclusion_agrees_with_the_per_construction_form(self, make, reference, bound):
        ext = make()
        inner, incl, ref = ext.inner, inclusion(ext), reference(ext)
        ctxs = inner.base.objects(bound)
        assert [incl.on_obj(g) for g in ctxs] == [ref.on_obj(g) for g in ctxs]
        for g in ctxs:
            tys, tms = inner.types(g, bound), inner.terms(g, bound)
            assert [incl.on_ty(g, a) for a in tys] == [ref.on_ty(g, a) for a in tys]
            assert [incl.on_tm(g, a) for a in tms] == [ref.on_tm(g, a) for a in tms]
            mors = [m for d in ctxs for m in inner.base.hom(d, g)]
            assert mors and [incl.on_mor(m) for m in mors] == [ref.on_mor(m) for m in mors]

    def test_the_benchmark_name_is_the_inclusion(self):
        assert sigma_inclusion is inclusion

    @pytest.mark.parametrize("make,bound,sizes", [
        (lambda: extend_by_type(term_model(range(2))), 3, (40, 1228)),
        (lambda: extend_by_unit(term_model(range(2))), 3, (40, 1516)),
        (lambda: extend_by_sigma(term_model(range(1))), 3, (9, 897)),
    ], ids=["type", "unit", "sigma"])
    def test_the_presheaves_register_as_many_contexts_and_morphisms(self, make, bound, sizes):
        ext = make()
        model_presheaves(ext, bound, bound)
        assert (len(ext.base.objs.cells), len(ext.base.mors.cells)) == sizes


_SPELLING_CASES = [
    ("type", lambda: extend_by_type(term_model(range(2))), _InterleavedCategory),
    ("unit", lambda: extend_by_unit(term_model(range(2))), _InterleavedCategory),
    ("sigma", lambda: extend_by_sigma(term_model(range(1))), _TreeCategory),
]


class TestOneObjectRegistry:
    @pytest.mark.parametrize("make,cls", [c[1:] for c in _SPELLING_CASES],
                             ids=[c[0] for c in _SPELLING_CASES])
    def test_the_presheaves_spell_each_object_key_once(self, make, cls, monkeypatch):
        spelled = []
        for owner in (cls, FinSliceOpposite):
            def counting(cat, cell, spell=owner.spell_obj):
                spelled.append((id(cat), spell(cat, cell)))
                return spelled[-1][1]

            monkeypatch.setattr(owner, "spell_obj", counting)
        ext = make()
        model_presheaves(ext, 3, 3)
        cats = (ext.base, ext.inner.base)
        assert sorted(spelled) == sorted((id(c), k) for c in cats for k in c.objs.cells)
        spelled.clear()
        model_presheaves(ext, 3, 3)
        assert spelled == []

    @pytest.mark.parametrize("make", [
        lambda: extend_by_term(term_model(range(1)), "T0"),
        lambda: extend_by_type(term_model(range(1))),
        lambda: extend_by_unit(term_model(range(1))),
        lambda: extend_by_sigma(term_model(range(1))),
        lambda: (lambda tm: CompositeModel(tm, tm))(term_model(range(1))),
    ], ids=["term", "type", "unit", "sigma", "composite"])
    def test_fresh_instances_share_no_registry(self, make):
        def registries(m):
            regs = [m.base.objs, m.base.mors]
            regs += [getattr(m, r) for r in ("tys", "tms") if hasattr(m, r)]
            return {id(d) for reg in regs for d in (reg.keys, reg.cells)}

        first, second = make(), make()
        check_eat(first, 2)
        assert registries(first) and not registries(first) & registries(second)
        assert set(second.base.objs.cells) <= {second.terminal}
        assert len(first.base.objs.cells) > 1


class TestObjectKeysAreInjective:
    def test_a_type_key_holding_the_separator_keeps_its_own_context(self):
        # extending X by `a,0,b` and X by `a`, then `b`, gives two contexts
        # whose parts joined by commas would be spelled alike
        x = extend_by_type(parse_model(one_object_file(["a", "b", "a,0,b"])))
        over_x = x.ext(x.base.terminal, x.new_ty).extended
        one = x.ext(over_x, "a,0,b").extended
        two = x.ext(x.ext(over_x, "a").extended, "b").extended
        assert one != two
        assert x.base.objs.cell(one) == ("*", (1, 0), ("a,0,b",))
        assert x.base.objs.cell(two) == ("*", (1, 0, 0), ("a", "b"))
        assert len(x.base.objs.cells) == len(x.base.objs.keys) == 5

    def test_a_term_extension_escapes_its_separator(self):
        cat = extend_by_term(term_model(range(1)), "T0").base
        assert cat.spell_obj(("g", ("a;b",))) != cat.spell_obj(("g", ("a", "b")))
        assert cat.spell_obj(("g", ("a", "b"))) == "xt(g|a;b)"

    @pytest.mark.parametrize("one,two", [
        (("p|q", ("r",)), ("p", ("q|r",))),
        (("p|\\", ("r",)), ("p", ("|r",))),
    ])
    def test_a_term_extension_context_holding_a_bar_keeps_its_own_key(self, one, two):
        cat = extend_by_term(term_model(range(1)), "T0").base
        assert cat.spell_obj(one) != cat.spell_obj(two)

    @pytest.mark.parametrize("one,two", [
        (("p|1,a", (0, 0), ()), ("p", (1, 0), ("a|0",))),
        (("p|1,a\\", (0, 0), ()), ("p", (1, 0), ("a|0",))),
    ])
    def test_an_interleaved_context_holding_a_bar_keeps_its_own_key(self, one, two):
        cat = extend_by_type(term_model(range(1))).base
        assert cat.spell_obj(one) != cat.spell_obj(two)

    def test_a_key_without_separators_is_spelled_as_before(self):
        x = extend_by_type(term_model(range(1)))
        assert x.base.spell_obj(("fs[0]", (1, 0), ("T0",))) == "ix(fs[0]|1,T0,0)"

    def test_one_empty_part_is_not_the_empty_list(self):
        assert join_escaped(";", [""]) != join_escaped(";", []) == ""
        parts = ["", "a", ";", "\\", "a;b", "\\;"]
        lists = [list(p) for n in range(3) for p in itertools.product(parts, repeat=n)]
        assert len({join_escaped(";", p) for p in lists}) == len(lists)
        # a list whose parts are all non-empty is joined as before
        assert join_escaped(";", ["a", "b;c"]) == "a;b\\;c"

    def test_the_root_and_a_context_over_the_empty_type_keep_their_own_keys(self):
        # a one-object file with a type keyed by the empty string: the root
        # (*, ()) and the context (*, ("",)) were both spelled xt(*|)
        cat = extend_by_term(parse_model(one_object_file(["a", ""])), "a").base
        over_empty = cat.objs.key(("*", ("",)))
        assert over_empty != cat.terminal == cat.objs.key(("*", ()))
        assert len(cat.objs.keys) == len(cat.objs.cells) == 2

    def test_the_roadmap_pair_of_type_trees_keeps_two_keys(self):
        a, b_c, a_b, c = (TypeTree(leaf=x) for x in ("a", "b,c", "a,b", "c"))
        one, two = TypeTree(left=a, right=b_c), TypeTree(left=a_b, right=c)
        assert one.key != two.key and one != two
        ab, b = TermTree(leaf="a:b"), TermTree(leaf="b")
        assert (TermTree(left=TermTree(leaf="a"), rtype=TypeTree(leaf="b:c"), right=b).key
                != TermTree(left=ab, rtype=c, right=b).key)
        cat = extend_by_sigma(term_model(range(1))).base
        assert cat.spell_obj(("g", (one,))) != cat.spell_obj(("g", (two,)))

    def test_tree_keys_are_injective_over_every_separator(self):
        leaves = ["", "a", "\\", "[", "]", ",", ":", ";", "|", "a,b", "\\,", "[a,b]"]
        trees = _type_trees(leaves, 3)
        assert len({t.key for t in trees}) == len({_shape(t) for t in trees}) == len(trees)
        terms = [TermTree(leaf=x) for x in leaves]
        types = [t for t in trees if t.size() < 3]
        terms += [TermTree(left=l, rtype=ty, right=r) for l in terms for ty in types[::7]
                  for r in terms]
        assert len({t.key for t in terms}) == len({_shape(t) for t in terms}) == len(terms)
        cat = extend_by_sigma(term_model(range(1))).base
        cells = [(g, ts) for g in ["g", "g|", "g|a", "g\\", "tr(g|)", ""]
                 for n in range(3) for ts in itertools.product(types[::11], repeat=n)]
        assert len({cat.spell_obj(cell) for cell in cells}) == len(cells)

    @pytest.mark.parametrize("tys", [["a|b", "c", "a", "b|c"], ["a", "b,c", "a,b", "c"]],
                             ids=["bars", "commas"])
    @pytest.mark.parametrize("extend", [extend_by_type, extend_by_unit, extend_by_sigma],
                             ids=["type", "unit", "sigma"])
    def test_a_one_object_file_lists_as_many_keys_as_cells(self, tys, extend):
        # every extension keeps the one object; types pair at bound 2
        m = extend(parse_model(one_object_file(tys)))
        for ctx in m.base.objects(1):
            for a in m.types(ctx, 2):
                m.ext(ctx, a)
            m.terms(ctx, 2)
        regs = [m.base.objs, m.base.mors] + [getattr(m, r) for r in ("tys", "tms") if hasattr(m, r)]
        assert len(m.base.objs.cells) > 2
        assert [len(r.keys) for r in regs] == [len(r.cells) for r in regs]

    def test_tree_keys_over_a_term_model_are_spelled_as_before(self):
        t0, x0 = TypeTree(leaf="T0"), TermTree(leaf="x0")
        pair = TypeTree(left=t0, right=t0)
        assert TypeTree(left=pair, right=t0).key == "[[T0,T0],T0]"
        assert TermTree(left=x0, rtype=pair, right=x0).key == "[x0:[T0,T0]:x0]"
        cat = extend_by_sigma(term_model(range(1))).base
        assert cat.spell_obj(("fs[0]", (pair, t0))) == "tr(fs[0]|[T0,T0];T0)"
        assert cat.spell_obj(("tr(fs[0]|)", ())) == "tr(tr(fs[0]|)|)"


def _type_trees(leaves: list[str], n: int) -> list[TypeTree]:
    """Every type tree of at most n leaves drawn from ``leaves``."""
    by_size = {1: [TypeTree(leaf=x) for x in leaves]}
    for k in range(2, n + 1):
        by_size[k] = [TypeTree(left=l, right=r) for i in range(1, k)
                      for l in by_size[i] for r in by_size[k - i]]
    return [t for k in sorted(by_size) for t in by_size[k]]


def _shape(tree) -> object:
    """A tree as nested tuples of its leaves, compared without keys."""
    if tree.is_leaf:
        return tree.leaf
    if isinstance(tree, TermTree):
        return _shape(tree.left), _shape(tree.rtype), _shape(tree.right)
    return _shape(tree.left), _shape(tree.right)


def _memo_tables(model) -> list[dict]:
    owners = [model, model.base, model.inner, model.inner.base]
    return [t for o in owners for name, t in vars(o).items() if name.startswith("_memo_")]


class TestPerInstanceMemo:
    def test_fresh_models_share_no_memo_table(self):
        first, second = (extend_by_sigma(term_model(range(1))) for _ in range(2))
        for model in (first, second):
            assert check_eat(model, 2).ok
        tables = [_memo_tables(first), _memo_tables(second)]
        assert tables[0] and len(tables[0]) == len(tables[1])
        assert not {id(t) for t in tables[0]} & {id(t) for t in tables[1]}
        # the type trees of term trees are memoized on the inner model
        types = [vars(m.inner).get("_memo_tmtree_type") for m in (first, second)]
        assert all(types) and types[0] is not types[1]

    def test_objects_runs_its_closure_once_per_bound(self, monkeypatch):
        u = extend_by_unit(term_model(range(1)))
        seeds = []
        closure = type(u.base)._seeds
        monkeypatch.setattr(u.base, "_seeds", lambda b: seeds.append(b) or closure(u.base, b))
        first, second = u.base.objects(2), u.base.objects(2)
        assert first == second and first is not second
        assert seeds == [2]

    def test_every_sigma_term_keeps_its_type_at_bound_3(self):
        def by_calls(m, ctx, tree):
            if tree.is_leaf:
                return TypeTree(leaf=m.typeof(ctx, tree.leaf))
            return TypeTree(left=by_calls(m, ctx, tree.left), right=tree.rtype)

        sm = extend_by_sigma(term_model(range(1)))
        checked = 0
        for ctx in sm.base.objects(3):
            under = sm.base.under(ctx)
            for tm in sm.terms(ctx, 3):
                want = by_calls(sm.inner, under, sm.tms.cell(tm))
                assert tmtree_type(sm.inner, under, sm.tms.cell(tm)) == want
                assert sm.typeof(ctx, tm) == want.key
                checked += not want.is_leaf
        assert checked


def _by_term(inner):
    """The term extension by the first closed type of ``inner``."""
    return extend_by_term(inner, inner.types(inner.terminal, 1)[0])


_ONE_STEP = {"term": _by_term, "type": extend_by_type, "unit": extend_by_unit,
             "sigma": extend_by_sigma}
# the term-model matrix: each extension over term_model(range(n)), and each
# over the type, unit and Σ extensions of term_model(range(1)) and over the
# unit extension of term_model(range(0))
_TERM_MODEL_MATRIX = [
    (f"{name}/{n}", lambda ext=ext, n=n: ext(term_model(range(n))))
    for n in (0, 1, 2) for name, ext in _ONE_STEP.items() if (name, n) != ("term", 0)
] + [
    (f"{outer}.{inner}/{n}", lambda o=ext, i=_ONE_STEP[inner], n=n: o(i(term_model(range(n)))))
    for outer, ext in _ONE_STEP.items()
    for inner, n in [("type", 1), ("unit", 1), ("sigma", 1), ("unit", 0)]
]
_SELF_EXTENDING_TYPES = ["a|b", "c", "a", "b|c"]  # each extends the one object to itself
_SUITE_BASES = {
    "term-model:1": lambda: term_model(range(1)),
    "term-model:2": lambda: term_model(range(2)),
    "P": propositions_model,
    "finite-sets:2": lambda: finite_sets_model(2),
    "one-object-file": lambda: parse_model(one_object_file(_SELF_EXTENDING_TYPES)),
}


def test_a_deadline_fails_a_block_that_does_not_return():
    with pytest.raises(TimeoutError, match="still running after 0.05 s"):
        with deadline(0.05):
            while True:
                pass
    with deadline(5):
        pass
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


class TestEveryFormalStepCostsItsTypesSize:
    """A context's size is its root's inner size plus, per formal step by A,
    the larger of A's size and what the inner size grew by; so objects(b)
    returns over any base with finitely many objects per size."""

    def test_the_term_model_matrix_keeps_its_contexts_and_sizes(self):
        # the pin fixes every context and size over term models, so a change
        # of the size rule cannot move one silently
        listed = []
        for name, make in _TERM_MODEL_MATRIX:
            for bound in (1, 2, 3):
                m = make()
                listed.append((name, bound, [(k, m.base.obj_size(k)) for k in m.base.objects(bound)]))
        assert len(_TERM_MODEL_MATRIX) == 27 and sum(len(x[2]) for x in listed) == 828
        assert hashlib.sha256(json.dumps(listed).encode()).hexdigest() \
            == "c1e7deb654b5fc05574ec3744de3c5521008a3c5745ce2e11d857272a66d83a2"

    @pytest.mark.parametrize("base", list(_SUITE_BASES))
    @pytest.mark.parametrize("ext", ["term", "type", "unit", "sigma"])
    def test_a_formal_step_costs_at_least_its_types_size(self, base, ext):
        inner = _SUITE_BASES[base]()
        closed = inner.types(inner.terminal, 1)
        m = extend_by_term(inner, closed[-1]) if ext == "term" else _ONE_STEP[ext](inner)
        with deadline(20):
            ctxs = m.base.objects(3)
        size = m.base.obj_size
        steps = [(ctx, m._formal_parent(m.base.objs.cell(ctx))) for ctx in ctxs]
        steps = [(ctx, parent) for ctx, parent in steps if parent is not None]
        assert all(size(ctx) >= size(parent[0]) + m.ty_size(*parent) >= size(parent[0]) + 1
                   for ctx, parent in steps)
        assert steps or ext == "term"

    @pytest.mark.parametrize("ext,counts", [
        (extend_by_type, (7, 16)), (extend_by_unit, (7, 16)), (extend_by_sigma, (4, 11)),
    ], ids=["type", "unit", "sigma"])
    def test_objects_returns_over_p(self, ext, counts):
        m = ext(propositions_model())
        with deadline(20):
            assert (len(m.base.objects(2)), len(m.base.objects(3))) == counts

    def test_the_term_extension_by_a_pair_of_points_returns_over_finite_sets(self):
        # extending set2 by fam(2, 0) gives set2 again, so the inner size
        # alone let objects(3) grow without end
        fs = finite_sets_model(2)
        fs.types(fs.terminal, 1)
        m = extend_by_term(fs, "fam(2,)")
        with deadline(20):
            assert (len(m.base.objects(2)), len(m.base.objects(3))) == (2, 8)

    @pytest.mark.parametrize("ext,count", [
        (extend_by_type, 17), (extend_by_unit, 17), (extend_by_sigma, 20),
    ], ids=["type", "unit", "sigma"])
    def test_objects_returns_over_finite_sets(self, ext, count):
        m = ext(finite_sets_model(2))
        with deadline(20):
            assert len(m.base.objects(3)) == count

    def test_sigma_objects_returns_over_a_file_whose_core_is_closed_under_extension(self):
        m = extend_by_sigma(parse_model(one_object_file(_SELF_EXTENDING_TYPES)))
        with deadline(20):
            assert len(m.base.objects(2)) == 17


class TestUniversalPropertiesOverP:
    """The free Σ and unit extensions of P, the model of propositions in
    finite sets, at bound 2: P has the structure, so the identity factors
    uniquely through each."""

    def test_sigma_over_p(self):
        p = propositions_model()
        s = extend_by_sigma(p)
        with deadline(60):
            assert check_eat(s, 2).ok
            summation = tree_summation(s)
            assert check_morphism(summation, 2).ok
            assert check_sigma_morphism(summation, 2).ok
            pins = sigma_universal_pins(s, identity_morphism(p), 2, summation)
            assert count_morphisms(s, p, 2, pins) == 1

    def test_unit_over_p(self):
        p = propositions_model()
        u = extend_by_unit(p)
        with deadline(60):
            assert check_eat(u, 2).ok
            assert check_unit(u, u.unit_structure, 2).ok
            insertion = unit_insertion(u)
            assert check_morphism(insertion, 2).ok
            pins = interleaved_universal_pins(u, identity_morphism(p), 2, insertion)
            assert count_morphisms(u, p, 2, pins) == 1


class TestFreeFunctorsPreserveInitiality:
    def test_term_model_with_term_equals_free_types_and_terms_model(self):
        # the free model on one basic type and one term of it, built as the
        # term extension of the term model, admits a unique strict morphism
        # in each direction against itself (mutual uniqueness at the bound)
        mt = term_model(range(1))
        free = extend_by_term(mt, "T0")
        pins = term_universal_pins(
            free, inclusion(free), free.x_term, 2
        )
        assert count_morphisms(free, free, 2, pins) == 1


class TestMutualUniqueness:
    def test_relabelled_term_extensions_are_mutually_unique(self):
        # the free model on two basic types and a term of the first admits
        # exactly one generator-respecting morphism to and from the free
        # model with the term on the second type
        mt = term_model(range(2))
        m1 = extend_by_term(mt, "T0")
        m2 = extend_by_term(mt, "T1")
        swap = {0: "T1", 1: "T0"}
        for src, dst in ((m1, m2), (m2, m1)):
            fm = initial_morphism(mt, dst, swap)
            sharp = extend_term_universal(src, fm, dst.x_term)
            assert check_morphism(sharp, 2).ok
            pins = term_universal_pins(src, fm, dst.x_term, 2)
            assert count_morphisms(src, dst, 2, pins) == 1


class TestSubstitutionAsMediator:
    def test_sharp_of_the_identity_is_the_substitution_morphism(self):
        # F♯ of the identity with an arbitrary closed term o satisfies the
        # equations that define S_o: it retracts the inclusion, sends x to o,
        # and is a morphism of natural models
        base = extend_by_term(extend_by_type(term_model(range(0))), "X")
        ext = extend_by_term(base, "X")
        o = base.terms(base.terminal, 1)[0]
        sharp = extend_term_universal(ext, identity_morphism(base), o)
        si = compose_morphisms(sharp, inclusion(ext))
        for g in base.base.objects(2):
            assert si.on_obj(g) == g
            for t in base.types(g, 2):
                assert si.on_ty(g, t) == t
            for t in base.terms(g, 2):
                assert si.on_tm(g, t) == t
        for a in base.base.objects(2):
            for b in base.base.objects(2):
                for mm in base.base.hom(a, b):
                    assert si.on_mor(mm) == mm
        # x and o are both named v0, each the variable of its own extension:
        # the equation also places x's image at the terminal context
        root = ext.i_obj(base.terminal)
        assert sharp.on_obj(root) == base.terminal
        assert sharp.on_tm(root, ext.x_term) == o
        assert check_morphism(sharp, 2).ok

    def test_substitution_retracts_inclusion_on_all_four_sorts(self):
        u = extend_by_unit(term_model(range(0)))
        ext = extend_by_term(u, u.new_ty)
        s = substitution_morphism(ext, u._star)
        si = compose_morphisms(s, inclusion(ext))
        for g in u.base.objects(2):
            assert si.on_obj(g) == g
            for t in u.types(g, 2):
                assert si.on_ty(g, t) == t
            for t in u.terms(g, 2):
                assert si.on_tm(g, t) == t
        for a in u.base.objects(2):
            for b in u.base.objects(2):
                for mm in u.base.hom(a, b):
                    assert si.on_mor(mm) == mm


class TestNestedConstructions:
    def test_two_basic_type_extensions_use_fresh_keys(self):
        inner = extend_by_type(term_model(range(0)))
        outer = extend_by_type(inner)
        assert inner.new_ty != outer.new_ty
        assert check_eat(outer, 2).ok
        tys = outer.types(outer.terminal, 2)
        assert inner.new_ty in tys and outer.new_ty in tys
        # the slot prefixes over term and free models carry one apostrophe per level
        for m, slot in ((inner, "v0"), (outer, "v'0")):
            assert m.terms(m.ext(m.terminal, m.new_ty).extended, 2)[0] == slot

    def test_type_insertion_into_a_type_extension_reads_its_primed_slots(self):
        inner = extend_by_type(term_model(range(0)))
        outer = extend_by_type(inner)
        s = type_insertion(outer, inner.new_ty)
        assert check_morphism(s, 2).ok
        one = outer.ext(outer.terminal, outer.new_ty).extended
        assert s.on_tm(one, "v'0") == inner.terms(s.on_obj(one), 2)[0] == "v0"

    def test_sigma_over_sigma_keeps_a_leaf_apart_from_a_node(self):
        # the inner sum [T0,T0] is a leaf of the outer trees, and the outer
        # sum of two T0 leaves is a node: they are two types of size 1 and 2
        outer = extend_by_sigma(extend_by_sigma(term_model(range(1))))
        tys = outer.types(outer.terminal, 2)
        assert len(set(tys)) == 3
        assert "T0" in tys and "[T0,T0]" in tys
        sizes = {t: outer.ty_size(outer.terminal, t) for t in tys}
        assert sizes["[T0,T0]"] == 2
        assert sorted(sizes.values()) == [1, 1, 2]

    def test_extension_data_is_computed_once(self):
        m = extend_by_term(term_model(range(1)), "T0")
        g = m.terminal
        assert m.ext(g, "T0") is m.ext(g, "T0")

    def test_unit_over_sigma_keeps_the_sum_checker_green(self):
        s = extend_by_sigma(term_model(range(1)))
        u = extend_by_unit(s)
        assert check_eat(u, 2).ok
        assert check_unit(u, u.unit_structure, 2).ok


class TestSigmaOverUnit:
    def test_leaf_unit_structure_survives_the_tree_construction(self):
        # the configuration behind the polynomial pseudomonad: a model with
        # both a unit type and dependent sums; the inner unit lifts to leaf
        # trees and still satisfies the unit equations and pullback square
        from natmod.natmodel import UnitStructure

        u = extend_by_unit(term_model(range(0)))
        s = extend_by_sigma(u)
        from natmod.freemodel import TypeTree, TermTree

        unit_leaf = s.tys.key(TypeTree(leaf=u.new_ty))
        star_leaf = s.tms.key(TermTree(leaf=u._star))
        lifted = UnitStructure(unit_leaf, star_leaf)
        assert check_unit(s, lifted, 2).ok
        assert check_sigma(s, s.sigma_structure, 2).ok
