import ast
import dataclasses
import functools
import itertools
import json
import random
import time
from collections import Counter
from pathlib import Path

import pytest

from natmod import natmodel
from natmod.fincat import FinSliceOpposite, is_pullback_square, truncate
from natmod.freemodel import (
    SigmaExtModel,
    TermModel,
    _WrappedModel,
    extend_by_sigma,
    extend_by_term,
    extend_by_type,
    extend_by_unit,
    inclusion,
    initial_morphism,
    initiality_pins,
    poly_composite_models,
    term_model,
    tmtree_subst,
    tree_subst,
    tree_summation,
)
from natmod.morphism import (
    PREMORPHISM_LAWS,
    MorphismPins,
    NMorphism,
    check_morphism,
    check_sigma_morphism,
    classified_morphisms,
    compose_morphisms,
    count_morphisms,
    identity_morphism,
)
from natmod.natmodel import (
    CompositeModel,
    ExtensionData,
    PiStructure,
    SigmaStructure,
    UnitStructure,
    _intro_inverse,
    canonical_pullback,
    check_eat,
    check_pi,
    check_sigma,
    check_unit,
    extension_square_oracle,
    induced_sub,
    model_presheaves,
    pi_square,
    section,
    sigma_square,
    swap_iso,
)
from natmod.presheaf import NatTrans, check_pullback_square
from natmod.report import VerificationReport

from helpers import (
    check_pullback_square_by_cones,
    finite_sets_model,
    propositions_model,
    reference_classified,
)


class BrokenSubstModel:
    """Wrap a model, making type substitution ignore one morphism."""

    def __init__(self, inner, broken_mor):
        self._inner = inner
        self._broken = broken_mor
        self.base = inner.base

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def subst_ty(self, sigma, ty):
        if sigma == self._broken:
            return ty
        return self._inner.subst_ty(sigma, ty)


class _OmitsTheVariable(TermModel):
    """Lists every term of a context but its last variable."""

    def terms(self, ctx, bound):
        return super().terms(ctx, bound)[:-1]


class _ProjectionAsIndsub(TermModel):
    """⟨σ, a⟩ is the extension's projection, out of Γ•A instead of dom σ."""

    def indsub(self, sigma, term, ty):
        return self.ext(self.base.cod(sigma), ty).proj


class _OtherFirstComponent(TermModel):
    """⟨σ, a⟩ is ⟨σ', a⟩ for another σ' with σ's ends, where there is one."""

    def indsub(self, sigma, term, ty):
        base = self.base
        others = [m for m in base.hom(base.dom(sigma), base.cod(sigma)) if m != sigma]
        return super().indsub(others[0] if others else sigma, term, ty)


class _OtherVariable(TermModel):
    """⟨σ, a⟩ is ⟨σ, b⟩ for another variable b of a's type, where there is one."""

    def indsub(self, sigma, term, ty):
        src = self.base.dom(sigma)
        ty_a = self.typeof(src, term)
        others = [t for t in self.terms(src, 0) if t != term and self.typeof(src, t) == ty_a]
        return super().indsub(sigma, others[0] if others else term, ty)


class _ExtWrapper:
    """Wrap a model, changing its chosen extensions through ``ext``."""

    def __init__(self, inner):
        self._inner = inner
        self.base = inner.base

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _SelfExtension(_ExtWrapper):
    """Claims that the extension of a one-variable context is itself."""

    def ext(self, ctx, ty):
        e = self._inner.ext(ctx, ty)
        if ctx == self.base.objs.key((0,)):
            return ExtensionData(ctx, self.base.identity(ctx), "x0")
        return e


class _ForeignVariable(_ExtWrapper):
    """Names x1, a variable of a larger context, as the variable of ⋄•A."""

    def ext(self, ctx, ty):
        e = self._inner.ext(ctx, ty)
        if ctx == self.base.terminal:
            return ExtensionData(e.extended, e.proj, "x1")
        return e


class TestCheckEat:
    @pytest.mark.parametrize("model_cls,equation", [
        (_OmitsTheVariable, "xxi"),
        (_ProjectionAsIndsub, "xxiii"),
        (_OtherFirstComponent, "xxv"),
        (_OtherVariable, "xxvi"),
    ])
    def test_a_broken_representability_datum_names_its_equation(self, model_cls, equation):
        rep = check_eat(model_cls(range(1)), 2)
        assert equation in rep.violations
        assert check_eat(term_model(range(1)), 2).ok

    def test_term_models_pass_at_bound_three(self):
        for n in (0, 1):
            rep = check_eat(term_model(range(n)), 3)
            assert rep.ok, rep.violations

    def test_broken_substitution_cites_composition_equation(self):
        m = term_model(range(2))
        # pick a non-identity morphism whose substitution we break; since the
        # type presheaf is constant, breaking it alone would be invisible, so
        # break it on a wrapped model whose types vary: use the free type
        # extension, where the new basic type is fixed but inner types move.
        xm = extend_by_type(term_model(range(1)))
        ctxs = xm.base.objects(2)
        target = None
        for a in ctxs:
            for b in ctxs:
                for mm in xm.base.hom(a, b):
                    if mm != xm.base.identity(a) and a != b:
                        target = mm
                        break
                if target:
                    break
            if target:
                break
        broken = BrokenSubstModel(xm, target)
        rep = check_eat(broken, 2)
        # the constant-type models make a single broken substitution visible
        # through the composite equations (xii) or naturality (xviii) or the
        # identity equation—at minimum the report is nonempty when the broken
        # morphism has type-changing action; otherwise the model is unchanged
        if xm.subst_ty(target, "X") != "X":
            assert not rep.ok

    def test_eat_matches_extension_square_oracle(self):
        # a model passes the equations iff its extension squares pass the
        # pullback oracle, at desk scale
        m = term_model(range(1))
        assert check_eat(m, 2).ok
        assert extension_square_oracle(m, 3, 1, 2).ok

    def test_mutated_extension_fails_both_ways(self):
        m = term_model(range(1))
        bad = _SelfExtension(m)
        rep = check_eat(bad, 2)
        assert not rep.ok
        oracle = extension_square_oracle(bad, 3, 1, 2)
        assert not oracle.ok

    def test_maps_into_a_terminal_outside_the_checked_fragment_are_counted(self):
        from natmod.modelio import TableCategory, TableModel

        # X is the core; the terminal ⋄ is a boundary object (the extension
        # by its type A lies outside the file) with two maps from X into it
        homs = {("⋄", "⋄"): ["id⋄"], ("X", "⋄"): ["!", "!!"], ("X", "X"): ["idX"]}
        comp = {("id⋄", "id⋄"): "id⋄", ("idX", "idX"): "idX"}
        for m in ("!", "!!"):
            comp.update({(m, "idX"): m, ("id⋄", m): m})
        cat = TableCategory(["⋄", "X"], homs, comp, {"⋄": "id⋄", "X": "idX"},
                            terminal_key="⋄")
        model = TableModel(cat, {"⋄": ["A"], "X": []}, {"⋄": [], "X": []}, {},
                           {("id⋄", "A"): "A", ("!", "A"): "A", ("!!", "A"): "A"}, {},
                           {("⋄", "A"): ExtensionData("⋄.A", "p", "q")})
        assert cat.objects(0) == ["X"]
        rep = check_eat(model, 0)
        assert rep.violations["x"] == ["terminal: |hom(X,⋄)| = 2, expected 1"]


class TestCanonicalPullback:
    def test_identity_gives_identity(self):
        m = term_model(range(2))
        g = m.base.objs.key((0, 1))
        for ty in m.types(g, 1):
            assert canonical_pullback(m, m.base.identity(g), ty) == \
                m.base.identity(m.ext(g, ty).extended)

    def test_pasting_law(self):
        m = term_model(range(1))
        ctxs = m.base.objects(2)
        for theta in ctxs:
            for delta in ctxs:
                for gamma in ctxs:
                    for tau in m.base.hom(theta, delta):
                        for sig in m.base.hom(delta, gamma):
                            for ty in m.types(gamma, 1):
                                lhs = canonical_pullback(m, m.base.compose(sig, tau), ty)
                                rhs = m.base.compose(
                                    canonical_pullback(m, sig, ty),
                                    canonical_pullback(m, tau, m.subst_ty(sig, ty)),
                                )
                                assert lhs == rhs

    def test_section_laws(self):
        m = term_model(range(1))
        g = m.base.objs.key((0,))
        for a in m.terms(g, 1):
            s_a = section(m, g, a)
            e = m.ext(g, m.typeof(g, a))
            assert m.base.compose(e.proj, s_a) == m.base.identity(g)
            assert m.subst_tm(s_a, e.var) == a

    def test_indsub_retraction(self):
        # ⟨p∘σ, q[σ]⟩ = σ for all σ into an extension
        m = term_model(range(1))
        g = m.base.objs.key((0,))
        e = m.ext(g, "T0")
        for d in m.base.objects(2):
            for sp in m.base.hom(d, e.extended):
                back = induced_sub(
                    m, m.base.compose(e.proj, sp), m.subst_tm(sp, e.var), "T0"
                )
                assert back == sp


class TestSwapIso:
    def test_swap_isos_compose_to_identity(self):
        m = term_model(range(2))
        g = m.base.objs.key((0,))
        sw = swap_iso(m, g, "T0", "T1")
        sw_back = swap_iso(m, g, "T1", "T0")
        assert m.base.compose(sw_back, sw) == m.base.identity(m.base.dom(sw))
        assert m.base.compose(sw, sw_back) == m.base.identity(m.base.dom(sw_back))

    def test_swap_coheres_with_projections(self):
        m = term_model(range(2))
        g = m.base.objs.key(())
        sw = swap_iso(m, g, "T0", "T1")
        e_o = m.ext(g, "T0")
        e_a = m.ext(g, "T1")
        e_oa = m.ext(e_o.extended, m.subst_ty(e_o.proj, "T1"))
        e_ao = m.ext(e_a.extended, m.subst_ty(e_a.proj, "T0"))
        lhs = m.base.compose(e_a.proj, m.base.compose(e_ao.proj, sw))
        rhs = m.base.compose(e_o.proj, e_oa.proj)
        assert lhs == rhs


class TestUnitChecker:
    def test_free_unit_model_passes(self):
        u = extend_by_unit(term_model(range(1)))
        assert check_unit(u, u.unit_structure, 2).ok

    def test_wrong_star_fails(self):
        u = extend_by_unit(term_model(range(1)))
        bad = UnitStructure(u.new_ty, u.new_ty)  # a type key is not a term
        rep = check_unit(u, bad, 2)
        assert not rep.ok

    def test_a_slot_shaped_key_of_no_closed_term_is_a_violation_not_a_raise(self):
        # "v0" is no closed term of the type extension, so it must be
        # checked against the closed terms before it is typed
        x = extend_by_type(term_model(range(0)))
        rep = check_unit(x, UnitStructure(x.new_ty, "v0"), 2)
        assert rep.violations == {"ii": ["(ii) the distinguished term is not a closed term"]}

    @pytest.mark.parametrize("unit_ty,violations", [
        ("T0", [("ii", ["(ii) typeof(star) != unit"]),
                ("iv", ["(iv) variable of the unit extension is not star weakened"]),
                ("pullback", ["unit square is not a pullback within the bound"])]),
        ("nope", [("i", ["(i) the unit type is not a closed type"])]),
    ])
    def test_a_wrong_unit_type_names_its_equations(self, unit_ty, violations):
        u = extend_by_unit(term_model(range(1)))
        rep = check_unit(u, UnitStructure(unit_ty, u.unit_structure.star_tm), 2)
        assert list(rep.violations.items()) == violations

    def test_a_unit_extension_projecting_elsewhere_fails_iii(self):
        # into the terminal context there is one map, so only a model whose
        # ext row names another projection, here an identity, reaches (iii)
        from natmod.modelio import parse_model, serialize_model

        u = extend_by_unit(term_model(range(1)))
        doc = json.loads(serialize_model(u, 2))
        [row] = [r for r in doc["ext"] if (r["ctx"], r["type"]) == (u.terminal, u.new_ty)]
        row["proj"] = doc["identities"][row["extended"]]
        rep = check_unit(parse_model(json.dumps(doc)), u.unit_structure, 2)
        assert rep.violations == {
            "iii": ["(iii) projection of the unit extension is not the terminal map"]}


class TestSigmaChecker:
    def test_free_sigma_model_passes_with_beta_eta(self):
        s = extend_by_sigma(term_model(range(1)))
        rep = check_sigma(s, s.sigma_structure, 2)
        assert rep.ok, rep.violations

    def test_swapped_pairing_fails_computation_rule(self):
        s = extend_by_sigma(term_model(range(1)))
        good = s.sigma_structure

        def bad_pair(ctx, ty_a, ty_b, tm_a, tm_b):
            # swap the components in one fibre: over contexts with at least
            # two distinct terms of the same type this breaks fst∘pair
            terms = s.terms_of(ctx, ty_a, 1)
            if len(terms) >= 2 and tm_a == terms[0]:
                return good.pair(ctx, ty_a, ty_b, terms[1], tm_b)
            if len(terms) >= 2 and tm_a == terms[1]:
                return good.pair(ctx, ty_a, ty_b, terms[0], tm_b)
            return good.pair(ctx, ty_a, ty_b, tm_a, tm_b)

        rep = check_sigma(s, SigmaStructure(good.sigma, bad_pair), 2)
        assert not rep.ok
        # the split read off the swapped pairing's square inverts it, so β holds;
        # pair̂ is not natural (iv) and fst not stable under substitution (vi)
        assert list(rep.violations) == ["iv", "vi"]

    def test_a_pairing_outside_the_terms_is_reported_not_raised(self):
        # pair̂ lands outside Tm, so the square is not a pullback; the
        # pointwise oracle must say so instead of looking the term up in p
        s = extend_by_sigma(term_model(range(1)))
        rep = check_sigma(s, SigmaStructure(s.sigma_structure.sigma, lambda *a: "NOPE"), 2)
        assert rep.violations["pullback"] == ["Σ square is not a pullback within the bound"]
        u = extend_by_unit(term_model(range(0)))
        rep = check_pi(u, PiStructure(lambda c, a, b: u.new_ty, lambda *a: "NOPE"), 2)
        assert rep.violations["pullback"] == ["Π square is not a pullback within the bound"]

    def test_a_split_swapping_fst_and_snd_fails_the_computation_rules(self):
        s = extend_by_sigma(term_model(range(1)))
        good = s.sigma_structure
        swapped = SigmaStructure(good.sigma, good.pair, lambda *a: good.split(*a)[::-1])
        rep = check_sigma(s, swapped, 2)
        assert rep.instances == 4 and not rep.ok
        assert rep.violations["ix"] and rep.violations["x"]

    def test_a_split_naming_no_term_fails_v_without_raising(self):
        s = extend_by_sigma(term_model(range(1)))
        good = s.sigma_structure
        unknown = SigmaStructure(
            good.sigma, good.pair, lambda *a: ("NOPE", good.split(*a)[1])
        )
        rep = check_sigma(s, unknown, 2)
        assert not rep.ok
        assert any(v.startswith("(v) fst(") and "'NOPE' is not a term of" in v
                   for v in rep.violations["v"])
        assert "vii" not in rep.violations


# one component of the free Σ structure made wrong, and the equation and
# branch it reaches
SIGMA_FAULTS = {
    "fst-of-another-type": (lambda good, g, a, b, t: (t, good.split(g, a, b, t)[1]),
                            "v", "(v) typeof(fst("),
    "snd-no-term": (lambda good, g, a, b, t: (good.split(g, a, b, t)[0], "NOPE"),
                    "vii", "(vii) snd("),
    "snd-of-another-type": (lambda good, g, a, b, t: (good.split(g, a, b, t)[0], t),
                            "vii", "(vii) typeof(snd("),
}


class TestSigmaCheckerBranches:
    """Each FAIL branch of ``check_sigma`` fires on a structure made wrong for it."""

    @pytest.mark.parametrize("fault", SIGMA_FAULTS)
    def test_a_split_wrong_in_one_component_fails_its_equation(self, fault):
        s = extend_by_sigma(term_model(range(1)))
        split, eq, message = SIGMA_FAULTS[fault]
        bad = dataclasses.replace(s.sigma_structure,
                                  split=functools.partial(split, s.sigma_structure))
        rep = check_sigma(s, bad, 2)
        assert any(v.startswith(message) for v in rep.violations.get(eq, [])), rep.violations

    def test_a_pair_of_another_type_fails_iii(self):
        s = extend_by_sigma(term_model(range(1)))
        bad = dataclasses.replace(s.sigma_structure, pair=lambda g, a, b, x, y: x)
        assert "(iii) typeof(pair(x0,x0))" in check_sigma(s, bad, 2).violations["iii"]

    def test_a_split_that_raises_off_the_terminal_context_fails_vi_viii(self):
        # the split succeeds at the terminal context, so only the restriction
        # of a closed pair along a map into it reaches the failing split
        m = propositions_model()
        good = m.sigma_structure

        def split(g, a, b, t):
            if g != m.terminal:
                raise ValueError(f"no split over {g}")
            return good.split(g, a, b, t)

        rep = check_sigma(m, dataclasses.replace(good, split=split), 2)
        assert any(v.startswith("(vi/viii) no split over ") for v in rep.violations["vi/viii"])

    def test_a_second_component_not_stable_under_substitution_fails_viii(self):
        m = propositions_model()
        good = m.sigma_structure

        def split(g, a, b, t):
            fst, snd = good.split(g, a, b, t)
            return fst, snd if g == m.terminal else "NOPE"

        rep = check_sigma(m, dataclasses.replace(good, split=split), 2)
        assert any(v.startswith("(viii) snd(") for v in rep.violations["viii"])
        assert "vi" not in rep.violations


class TestPiCheckerBranches:
    """Each FAIL branch of ``check_pi`` fires on a structure made wrong for it."""

    def test_an_application_of_another_type_fails_v(self):
        # over the unit extension of one basic type, app(f, a) = a has type A,
        # not B[a], where B is the basic type
        u = extend_by_unit(term_model(range(1)))
        bad = PiStructure(lambda c, a, b: u.new_ty, lambda *a: u._star, lambda g, a, b, f, x: x)
        assert "(v) typeof(app(star,star))" in check_pi(u, bad, 2).violations["v"]

    def test_an_application_not_stable_under_substitution_fails_vi(self):
        m = propositions_model()
        good = m.pi_structure

        def app(g, a, b, f, x):
            return good.app(g, a, b, f, x) if g == m.terminal else "NOPE"

        rep = check_pi(m, dataclasses.replace(good, app=app), 2)
        assert any(v.startswith("(vi) app(") and v.endswith("]") for v in rep.violations["vi"])

    def test_an_abstraction_that_app_does_not_invert_fails_the_eta_witness(self):
        m = propositions_model()
        rep = check_pi(m, dataclasses.replace(m.pi_structure, lam=lambda *a: "NOPE"), 2)
        assert any(v.startswith("(viii) λ(app(") for v in rep.violations["viii"])


class TestPiChecker:
    def test_single_type_model_admits_products(self):
        # over the free unit model every context has one type and one term,
        # so the constant structure satisfies all eight equations, with app
        # read off the square and with the constant app supplied, which η
        # also calls over a Γ•A beyond the truncation
        u = extend_by_unit(term_model(range(0)))

        def pi(ctx, ty_a, ty_b):
            return u.new_ty

        def lam(ctx, ty_a, ty_b, b):
            return u._star

        for app in (None, lambda *a: u._star):
            rep = check_pi(u, PiStructure(pi, lam, app), 2)
            assert rep.ok, rep.violations

    def test_sort_mismatch_reported(self):
        u = extend_by_unit(term_model(range(0)))

        def pi(ctx, ty_a, ty_b):
            return "no-such-type"

        rep = check_pi(u, PiStructure(pi, lambda *a: u._star), 2)
        assert not rep.ok

    def test_an_application_that_fails_under_substitution_is_a_vi_violation(self):
        # over term_model(1) the unit extension has two types, so λ onto the
        # one unit term has two preimages; app(f, a)[σ] cannot be formed
        u = extend_by_unit(term_model(range(1)))
        rep = check_pi(u, PiStructure(lambda c, a, b: u.new_ty, lambda *a: u._star), 2)
        assert not rep.ok
        assert "(vi) 'star' over (ix(fs[0,0]|0), unit, T0) has 2 preimages" in rep.violations["vi"]

    def test_an_application_naming_no_term_fails_v_without_raising(self):
        u = extend_by_unit(term_model(range(0)))
        unknown = PiStructure(lambda c, a, b: u.new_ty, lambda *a: u._star, lambda *a: "NOPE")
        rep = check_pi(u, unknown, 2)
        assert not rep.ok
        assert any(v.startswith("(v) app(") and "'NOPE' is not a term of" in v
                   for v in rep.violations["v"])
        assert "vi" not in rep.violations

    @pytest.mark.parametrize("bound", [2, 3])
    def test_the_constant_and_propositions_apps_are_the_searched_ones(self, bound):
        # each supplied app is the derived one: f's one body b at ⟨id, a⟩
        u = extend_by_unit(term_model(range(0)))
        constant = PiStructure(lambda c, a, b: u.new_ty, lambda *a: u._star, lambda *a: u._star)
        m = propositions_model()
        checked = 0
        for model, s in ((u, constant), (m, m.pi_structure)):
            sq = pi_square(model, s, bound)
            body_of = _intro_inverse(sq)
            comp = CompositeModel(model, model)
            for g in model.base.objects(bound):
                for key in comp.types(g, bound):
                    ty_a, ty_b = comp.tys.cell(key)
                    for f in model.terms_of(g, s.pi(g, ty_a, ty_b), bound):
                        body = sq.intro.parts[body_of(g, ty_a, ty_b, f)][2]
                        for a in model.terms_of(g, ty_a, bound):
                            assert s.app(g, ty_a, ty_b, f, a) == model.subst_tm(
                                section(model, g, a), body)
                            checked += 1
        assert checked > 0


class TestAFibreWithTwoPreimages:
    """Without an eliminator, an introduction map sending two elements of one
    fibre over (Γ, A, B) to one term t fails the square, and the eliminator
    read off it names (Γ, A, B, t) where it is read."""

    def test_a_pairing_merging_two_first_components(self):
        s = extend_by_sigma(term_model(range(1)))
        good = s.sigma_structure

        def pair(ctx, ty_a, ty_b, tm_a, tm_b):
            terms = s.terms_of(ctx, ty_a, 1)
            if len(terms) >= 2 and tm_a == terms[1]:
                tm_a = terms[0]
            return good.pair(ctx, ty_a, ty_b, tm_a, tm_b)

        rep = check_sigma(s, SigmaStructure(good.sigma, pair), 2)
        assert rep.violations["pullback"] == ["Σ square is not a pullback within the bound"]
        assert "(xi) '[x0:T0:x0]' over (tr(fs[0,0]|), T0, T0) has 2 preimages" \
            in rep.violations["xi"]

    def test_a_lambda_merging_two_bodies(self):
        # over term_model(1)'s unit extension the constant λ sends both
        # variables of T0 over ix(fs[0]|0)•T0 to star
        u = extend_by_unit(term_model(range(1)))
        rep = check_pi(u, PiStructure(lambda c, a, b: u.new_ty, lambda *a: u._star), 2)
        assert rep.violations["pullback"] == ["Π square is not a pullback within the bound"]
        assert "(v) 'star' over (ix(fs[0]|0), T0, T0) has 2 preimages" in rep.violations["v"]


class TestPropositionsModel:
    """finite_sets_model(1) with unit, Σ and Π: the suite's non-trivial Π."""

    @pytest.mark.parametrize("bound, pairs", [(2, 13), (3, 40)])
    def test_unit_sigma_and_pi_pass_every_checker(self, bound, pairs):
        m = propositions_model()
        assert check_eat(m, bound).ok
        assert check_unit(m, m.unit_structure, bound).ok
        for check, s in ((check_sigma, m.sigma_structure), (check_pi, m.pi_structure)):
            rep = check(m, s, bound)
            assert rep.ok and rep.instances == pairs, rep.violations

    def test_sigmas_former_used_as_pi_fails_check_pi(self):
        m = propositions_model()
        swapped = dataclasses.replace(m.pi_structure, pi=m.sigma_structure.sigma)
        rep = check_pi(m, swapped, 2)
        assert {eq: len(ws) for eq, ws in rep.violations.items()} == {"pullback": 1, "iii": 4}
        assert rep.violations["pullback"] == ["Π square is not a pullback within the bound"]

    def test_pis_former_used_as_sigma_fails_check_sigma_under_xi(self):
        m = propositions_model()
        swapped = dataclasses.replace(m.sigma_structure, sigma=m.pi_structure.pi)
        rep = check_sigma(m, swapped, 2)
        assert not rep.ok
        assert rep.violations["pullback"] == ["Σ square is not a pullback within the bound"]
        assert rep.violations["xi"]


class TestNoSearchOnTheCheckerPaths:
    def test_the_searching_eliminators_are_called_nowhere_in_src(self):
        # check_sigma and check_pi read a missing eliminator off the square;
        # sigma_split stays defined in natmodel only because the benchmark's
        # layer trace names it, and pi_apply is gone
        root = Path(__file__).resolve().parent.parent
        files = sorted((root / "src" / "natmod").glob("*.py")) + sorted((root / "tests").glob("*.py"))
        searches = {"pi_apply", "sigma_split"}
        trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in files}
        defined = {name: {n.name for n in tree.body if isinstance(n, ast.FunctionDef)} & searches
                   for name, tree in trees.items()}
        assert {name: fns for name, fns in defined.items() if fns} == {"natmodel.py": {"sigma_split"}}
        calls = [
            (name, node.lineno)
            for name, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) in searches
        ]
        assert calls == []

    def test_a_supplied_eliminator_is_checked_without_inverting_the_square(self, monkeypatch):
        def inverted(sq):
            raise AssertionError("the square was inverted")

        monkeypatch.setattr(natmodel, "_intro_inverse", inverted)
        m = propositions_model()
        assert check_sigma(m, m.sigma_structure, 2).ok and check_pi(m, m.pi_structure, 2).ok
        with pytest.raises(AssertionError, match="inverted"):
            check_pi(m, dataclasses.replace(m.pi_structure, app=None), 2)


_SRC = Path(__file__).resolve().parent.parent / "src" / "natmod"


def _unread_locals(module: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of every function-local name assigned and never read.

    A name counts as read anywhere in the function, nested scopes included;
    names declared global or nonlocal and underscore names are exempt.
    """
    out = []
    for fn in ast.walk(module):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stores: dict[str, int] = {}
        loads, declared = set(), set()
        pending = list(fn.body)
        while pending:  # the function's own scope; nested bodies are read below
            node = pending.pop()
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stores.setdefault(node.id, node.lineno)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                                     ast.ClassDef, ast.comprehension)):
                pending.extend(ast.iter_child_nodes(node))
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                loads.add(node.id)
        out += [(name, line) for name, line in stores.items()
                if name not in loads | declared and not name.startswith("_")]
    return out


def _unreferenced_constants(modules: dict[str, ast.Module], readers: list[ast.AST]) -> list[str]:
    """Module-level names of src assigned and referenced by nothing in ``readers``."""
    used = {getattr(n, "id", getattr(n, "attr", None))
            for tree in readers for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute)) and not isinstance(n.ctx, ast.Store)}
    used |= {alias.name for tree in readers for n in ast.walk(tree)
             if isinstance(n, ast.ImportFrom) for alias in n.names}
    return [
        f"{path}:{target.id}"
        for path, module in modules.items() for node in module.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and not target.id.startswith("_")
        and target.id not in used
    ]


def _names_read(tree: ast.AST) -> Counter:
    """How often each name is read in ``tree``, as a name or an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load))


def _unnamed_methods(modules: dict[str, ast.Module], readers: list[ast.AST]) -> list[str]:
    """Non-dunder methods of src classes that nothing in ``readers`` names
    outside the method's own def (a method that only calls itself is dead)."""
    reads = sum((_names_read(tree) for tree in readers), Counter())
    return [
        f"{path}:{cls.name}.{fn.name}"
        for path, module in modules.items() for cls in ast.walk(module)
        if isinstance(cls, ast.ClassDef) for fn in cls.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (fn.name.startswith("__") and fn.name.endswith("__"))
        and reads[fn.name] <= _names_read(fn)[fn.name]
    ]


def _unnamed_functions(modules: dict[str, ast.Module], readers: list[ast.AST]) -> list[tuple[str, str]]:
    """(file, function) of each module-level function of src that nothing in
    ``readers`` names outside the function's own def."""
    reads = sum((_names_read(tree) for tree in readers), Counter())
    return [
        (path, fn.name)
        for path, module in modules.items() for fn in module.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and reads[fn.name] <= _names_read(fn)[fn.name]
    ]


def _unread_parameters(module: ast.Module) -> list[tuple[str, str]]:
    """(function, parameter) of every parameter of a module-level function
    that the function's body, nested scopes included, never reads."""
    out = []
    for fn in module.body:
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = fn.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [
            a for a in (args.vararg, args.kwarg) if a is not None]
        loads = {node.id for node in ast.walk(fn)
                 if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        out += [(fn.name, a.arg) for a in params if a.arg not in loads]
    return out


# the benchmark's universal workload still passes sigma_universal a bound; the
# parameter goes when that workload next changes
_UNREAD_PARAMETERS_KEPT = [("freemodel.py", "sigma_universal", "bound")]
# bench/layertrace.py names sigma_split only as a string, in its trace list;
# the function goes when that list next changes
_FUNCTIONS_NAMED_ONLY_AS_STRINGS = [("natmodel.py", "sigma_split")]


def _src_and_readers() -> tuple[dict[str, ast.Module], list[ast.AST]]:
    """The parsed src modules, and those with every test and bench module."""
    root = _SRC.parent.parent
    modules = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(_SRC.glob("*.py"))}
    return modules, list(modules.values()) + [
        ast.parse(p.read_text(encoding="utf-8"))
        for d in ("tests", "bench") for p in sorted((root / d).glob("*.py"))
    ]


class TestNoDeadCode:
    def test_module_level_functions_read_every_parameter(self):
        unread = [(path, fn, name) for path in sorted(p.name for p in _SRC.glob("*.py"))
                  for fn, name in _unread_parameters(
                      ast.parse((_SRC / path).read_text(encoding="utf-8")))]
        assert unread == _UNREAD_PARAMETERS_KEPT

    def test_src_assigns_no_name_that_nothing_reads(self):
        modules, readers = _src_and_readers()
        dead = [f"{path}:{line}:{name}"
                for path, module in modules.items() for name, line in _unread_locals(module)]
        assert dead + _unreferenced_constants(modules, readers) == []

    def test_every_method_is_named_outside_its_own_def(self):
        assert _unnamed_methods(*_src_and_readers()) == []

    def test_every_module_level_function_is_named_outside_its_own_def(self):
        assert _unnamed_functions(*_src_and_readers()) == _FUNCTIONS_NAMED_ONLY_AS_STRINGS


class TestMorphismChecker:
    def test_identity_is_strict(self):
        m = term_model(range(1))
        rep = check_morphism(identity_morphism(m), 2)
        assert rep.ok and not rep.violations

    def test_inclusions_are_strict(self):
        xm = extend_by_type(term_model(range(0)))
        assert check_morphism(inclusion(xm), 2).ok
        tm = extend_by_term(extend_by_unit(term_model(range(0))), "unit")
        assert check_morphism(inclusion(tm), 2).ok

    def test_iso_composed_morphism_is_weak_but_not_strict(self):
        # postcompose the identity's extension choice with a swap: contexts
        # land on an isomorphic-but-not-equal object
        m = term_model(range(1))

        def tweak(ctx):
            labels = m.base.objs.cell(ctx)
            return m.base.objs.key(tuple(reversed(labels)))

        def tweak_mor(mor):
            src, dst = m.base.dom(mor), m.base.cod(mor)
            fn = m.base.mor_payload(mor)
            n_src, n_dst = len(m.base.objs.cell(src)), len(m.base.objs.cell(dst))
            new_fn = tuple(
                (n_src - 1 - fn[n_dst - 1 - k]) for k in range(n_dst)
            )
            return m.base.mors.key((tweak(src), tweak(dst), new_fn))

        fm = NMorphism(
            m, m,
            on_obj=tweak,
            on_mor=tweak_mor,
            on_ty=lambda g, t: t,
            on_tm=lambda g, t: m.tms.key(len(m.base.objs.cell(g)) - 1 - m.tms.cell(t)),
            name="reverse",
        )
        rep = check_morphism(fm, 2, strict=False)
        assert rep.violations.keys().isdisjoint(PREMORPHISM_LAWS)
        assert rep.ok  # weak: mediating maps are isomorphisms
        strict_rep = check_morphism(fm, 2, strict=True)
        assert not strict_rep.ok  # extensions prepend rather than append
        assert "canonical-pullbacks" not in rep.violations

    def test_sigma_morphism_checker(self):
        s = extend_by_sigma(term_model(range(1)))
        s2 = extend_by_sigma(s)
        summ = tree_summation(s2)
        assert check_sigma_morphism(summ, 2)
        assert check_sigma_morphism(identity_morphism(s), 2)

        perturbed = NMorphism(
            summ.src, summ.dst, summ.on_obj, summ.on_mor,
            on_ty=lambda g, t: summ.on_ty(g, t),
            on_tm=summ.on_tm,
            name="perturbed",
        )

        def bad_ty(g, t):
            out = summ.on_ty(g, t)
            if t.startswith("["):
                tree = summ.src.tys.cell(t)
                if not tree.is_leaf:
                    # collapse to the left subtree instead of the sum
                    return summ.on_ty(g, tree.left.key)
            return out

        perturbed.on_ty = bad_ty
        assert not check_sigma_morphism(perturbed, 2)


class TestClassifiedMorphisms:
    def test_every_projection_is_classified(self):
        m = term_model(range(1))
        rep = classified_morphisms(m, 2)
        for g in m.base.objects(1):
            for ty in m.types(g, 1):
                e = m.ext(g, ty)
                assert e.proj in rep.classified

    def test_closure_under_pullback(self):
        m = term_model(range(1))
        rep = classified_morphisms(m, 2)
        assert rep.closure_ok, rep.closure_failures

    def test_identities_classified_only_with_unit_like_type(self):
        # in the term model no extension projection is invertible, so no
        # identity is classified; in the free unit model the unit extension
        # is an isomorphism and identities become classified
        m = term_model(range(1))
        rep = classified_morphisms(m, 2)
        for g in m.base.objects(1):
            assert m.base.identity(g) not in rep.classified
        u = extend_by_unit(term_model(range(0)))
        rep_u = classified_morphisms(u, 2)
        assert any(
            u.base.identity(g) in rep_u.classified for g in u.base.objects(1)
        )

    def test_composite_classified_with_sigma_structure(self):
        s = extend_by_sigma(term_model(range(1)))
        rep = classified_morphisms(s, 2)
        g = s.base.register("fs[]", ())
        leaf = [t for t in s.types(g, 1)][0]
        e1 = s.ext(g, leaf)
        e2 = s.ext(e1.extended, s.subst_ty(e1.proj, leaf))
        composite = s.base.compose(e1.proj, e2.proj)
        assert composite in rep.classified

    @pytest.mark.parametrize("build", [
        lambda: term_model(range(1)),
        lambda: term_model(range(2)),
        lambda: extend_by_unit(term_model(range(0))),
        lambda: extend_by_type(term_model(range(0))),
        lambda: extend_by_sigma(term_model(range(1))),
        lambda: extend_by_term(term_model(range(1)), "T0"),
        lambda: finite_sets_model(2),
    ], ids=["tm1", "tm2", "unit", "type", "sigma", "term", "finsets"])
    def test_the_inverses_read_through_induced_sub_classify_as_the_search(self, build):
        m = build()
        rep, want = classified_morphisms(m, 2), reference_classified(m, 2)
        assert {s: ty for s, (ty, _) in rep.classified.items()} == \
            {s: ty for s, (ty, _) in want.items()}
        for sigma, (ty, h) in rep.classified.items():
            assert m.base.compose(sigma, h) == m.ext(m.base.cod(sigma), ty).proj
            assert m.base.is_iso(h) is not None


class TestInitiality:
    def test_unique_selfmorphism(self):
        m = term_model(range(2))
        images = {0: "T0", 1: "T1"}
        fm = initial_morphism(m, m, images)
        assert check_morphism(fm, 2).ok
        assert count_morphisms(m, m, 2, initiality_pins(m, m, images)) == 1

    def test_no_morphism_with_wrong_terminal_pin(self):
        m = term_model(range(1))
        pins = initiality_pins(m, m, {0: "T0"})
        pins.on_obj[m.terminal] = m.base.objs.key((0,))  # not the terminal
        assert count_morphisms(m, m, 2, pins) == 0

    def test_empty_index_model_is_initial(self):
        m0 = term_model(range(0))
        target = extend_by_unit(term_model(range(0)))
        fm = initial_morphism(m0, target, {})
        assert check_morphism(fm, 2).ok
        assert count_morphisms(m0, target, 2, initiality_pins(m0, target, {})) == 1

    @pytest.mark.parametrize("k, target, expected", [
        (1, lambda: term_model(range(2)), 2),
        (2, lambda: term_model(range(2)), 4),
        (1, lambda: term_model(range(3)), 3),
        (2, lambda: term_model(range(3)), 9),
        (1, lambda: extend_by_unit(term_model(range(1))), 2),
        (2, lambda: extend_by_unit(term_model(range(1))), 4),
    ])
    def test_unpinned_morphisms_are_counted_by_their_closed_type_images(
        self, k, target, expected
    ):
        # initiality in counting form: one strict morphism per choice of a
        # closed type of the target for each basic type, so the search
        # backtracks across every solution
        dst = target()
        assert len(dst.types(dst.terminal, 2)) ** k == expected
        assert count_morphisms(term_model(range(k)), dst, 2, MorphismPins(),
                               max_count=100) == expected

    def test_counting_stops_at_max_count(self):
        src, dst = term_model(range(2)), term_model(range(3))
        assert count_morphisms(src, dst, 2, MorphismPins(), max_count=4) == 4


def _two_object_table_model(endo=(), endo_compose=None, terms=None, bang=None):
    """Objects ⋄ and X with hom(X, ⋄) = {!} and hom(X, X) = {idX, *endo}; one
    type A at each, whose extensions lie outside the model.  ``terms`` lists
    the terms of A at each object; ``bang`` gives t[!] (default t)."""
    from natmod.fincat import FinCatPresentation
    from natmod.modelio import TableModel

    homs = {("⋄", "⋄"): ["id⋄"], ("X", "⋄"): ["!"], ("X", "X"): ["idX", *endo]}
    comp = {("id⋄", "id⋄"): "id⋄", ("!", "idX"): "!", ("id⋄", "!"): "!",
            ("idX", "idX"): "idX"}
    for f in endo:
        comp.update({(f, "idX"): f, ("idX", f): f, ("!", f): "!"})
    comp.update(endo_compose or {})
    cat = FinCatPresentation(["⋄", "X"], homs, comp, {"⋄": "id⋄", "X": "idX"},
                             terminal_key="⋄")
    tm = terms or {"⋄": [], "X": []}
    return TableModel(
        cat, {"⋄": ["A"], "X": ["A"]}, tm,
        {(o, t): "A" for o in tm for t in tm[o]},
        {(m, "A"): "A" for ms in homs.values() for m in ms},
        {(m, t): (bang or {}).get(t, t) if m == "!" else t
         for (a, b), ms in homs.items() for m in ms for t in tm[b]},
        {(o, "A"): ExtensionData(f"{o}.A", f"p{o}", "q") for o in ("⋄", "X")},
    )


def _strict_ext_control():
    # the extension variable of ⋄•T0 is sent to the weakened constant
    src, dst = term_model(range(1)), extend_by_term(term_model(range(1)), "T0")
    pins = initiality_pins(src, dst, {0: "T0"})
    e = dst.ext(dst.terminal, "T0")
    weakened = [t for t in dst.terms(e.extended, 2) if t != e.var]
    pins.on_tm[(src.base.objs.key((0,)), "x0")] = weakened[0]
    return src, dst, 2, pins, 1


def _typing_control():
    # types swapped at ⋄, the closed term of T0 kept: its image has type T0
    m = extend_by_term(term_model(range(2)), "T0")
    pins = MorphismPins(on_ty={(m.terminal, "T0"): "T1", (m.terminal, "T1"): "T0"},
                        on_tm={(m.terminal, m.x_term): m.x_term})
    return m, m, 2, pins, 0


def _ty_naturality_control():
    # F(T1) at fs[0] is T0, but T1[p] = T1 at fs[0] and F(T1) = T1 at ⋄
    m = term_model(range(2))
    pins = initiality_pins(m, m, {0: "T0", 1: "T1"})
    pins.on_ty[(m.base.objs.key((0,)), "T1")] = "T0"
    return m, m, 2, pins, 1


def _tm_naturality_control():
    # a ↦ a at ⋄ but a[!] = a' ↦ b' at X
    m = _two_object_table_model(terms={"⋄": ["a", "b"], "X": ["a'", "b'"]},
                                bang={"a": "a'", "b": "b'"})
    pins = MorphismPins(on_obj={"X": "X"},
                        on_tm={("⋄", "a"): "a", ("⋄", "b"): "b", ("X", "a'"): "b'"})
    return m, m, 1, pins, 1


def _functoriality_control():
    # an involution e ∘ e = id sent to an idempotent f ∘ f = f
    src = _two_object_table_model(["e"], {("e", "e"): "idX"})
    dst = _two_object_table_model(["e"], {("e", "e"): "e"})
    pins = MorphismPins(on_obj={"X": "X"}, on_mor={"e": "e"})
    return src, dst, 1, pins, 1


class TestRivalSearchCatchesEarlyViolations:
    """Each control pins one value that breaks one constraint family whose
    last participant is context k <= 1.  The search must reject every
    candidate at step k, by the constraint check, and go no further."""

    @pytest.mark.parametrize("control", [
        _strict_ext_control, _typing_control, _ty_naturality_control,
        _tm_naturality_control, _functoriality_control,
    ], ids=["strict-ext", "typing", "ty-naturality", "tm-naturality", "functoriality"])
    def test_a_broken_early_constraint_gives_count_zero_at_its_step(self, control):
        from natmod.morphism import _Search

        src, dst, bound, pins, k = control()
        checks = []

        class Recorded(_Search):
            def _consistent_at(self, cand, i):
                ok = super()._consistent_at(cand, i)
                checks.append((i, ok))
                return ok

        assert count_morphisms(src, dst, bound, pins) == 0
        assert Recorded(src, dst, bound, bound, pins, 2).run() == 0
        assert all(ok for i, ok in checks if i < k)
        assert [ok for i, ok in checks if i == k] and not any(
            ok for i, ok in checks if i == k
        )
        assert all(i <= k for i, _ in checks)

    def test_each_control_without_its_broken_pin_has_a_morphism(self):
        # the controls' models and remaining pins admit a strict morphism
        src, dst, bound, pins, _ = _strict_ext_control()
        del pins.on_tm[(src.base.objs.key((0,)), "x0")]
        assert count_morphisms(src, dst, bound, pins) == 1
        m, _, _, _, _ = _typing_control()
        assert count_morphisms(m, m, 2, MorphismPins(
            on_ty={(m.terminal, "T0"): "T0", (m.terminal, "T1"): "T1"})) == 1
        m, _, _, pins, _ = _ty_naturality_control()
        del pins.on_ty[(m.base.objs.key((0,)), "T1")]
        assert count_morphisms(m, m, 2, pins) == 1
        m, _, _, pins, _ = _tm_naturality_control()
        del pins.on_tm[("X", "a'")]
        assert count_morphisms(m, m, 1, pins) == 1
        src, dst, _, pins, _ = _functoriality_control()
        pins.on_mor["e"] = "idX"
        assert count_morphisms(src, dst, 1, pins) == 1


class TestSwapCoherence:
    def test_braid_relation_for_elementary_swaps(self):
        # the two decompositions of the full reversal of three independent
        # extensions into elementary swaps yield the same morphism key
        m = term_model(range(3))
        g = m.base.objs.key(())

        def swap_at(ty_lo: str, ty_hi: str, prefix: list[str], tail: list[str]):
            """Elementary swap of two adjacent slots, lifted by the tail."""
            ctx = g
            for t in prefix:
                ctx = m.ext(ctx, t).extended
            sw = swap_iso(m, ctx, ty_lo, ty_hi)
            for t in tail:
                sw = canonical_pullback(m, sw, t)
            return sw

        # reversal of (T0, T1, T2): s1 swaps the bottom two slots (lifted
        # by the tail), the level-1 swaps exchange the top two
        def s1(a, b, tail):
            return swap_at(a, b, [], tail)

        # route one: s1(T0,T1) with tail T2, then s2 swapping (T0, T2) over
        # the new base, then s1(T1,T2) with tail T0
        r1 = s1("T0", "T1", ["T2"])
        r1 = m.base.compose(swap_at("T0", "T2", ["T1"], []), r1)
        r1 = m.base.compose(s1("T1", "T2", ["T0"]), r1)

        # route two: start at the top instead
        r2 = swap_at("T1", "T2", ["T0"], [])
        r2 = m.base.compose(s1("T0", "T2", ["T1"]), r2)
        r2 = m.base.compose(swap_at("T0", "T1", ["T2"], []), r2)

        assert m.base.dom(r1) == m.base.dom(r2)
        assert m.base.cod(r1) == m.base.cod(r2)
        assert r1 == r2

    def test_product_with_closed_extension_is_the_weakened_extension(self):
        # the span Γ <- Γ•A[t] -> ⋄•A is a product diagram: enumeration over
        # the truncated base finds the weakened extension as the product
        from natmod.fincat import product, truncate

        m = term_model(range(1))
        cat = truncate(m.base, 3)
        gamma = m.base.objs.key((0,))
        closed_ext = m.ext(m.terminal, "T0").extended
        got = product(cat, gamma, closed_ext)
        assert got is not None
        assert got[0] == m.ext(gamma, "T0").extended


class TestFiniteSetsModel:
    """A model with genuinely dependent types: substitution moves fibres."""

    def test_satisfies_the_theory(self):
        from helpers import finite_sets_model

        m = finite_sets_model(2)
        rep = check_eat(m, 3, ty_bound=1)
        assert rep.ok, dict(list(rep.violations.items())[:3])

    def test_extension_squares_pass_the_oracle(self):
        from helpers import finite_sets_model

        m = finite_sets_model(1)
        orc = extension_square_oracle(m, 3, 1, 2)
        assert orc.ok and orc.checked

    def test_substitution_acts_nontrivially(self):
        from helpers import finite_sets_model

        m = finite_sets_model(2)
        two = m.base.objs.key(2)
        swapper = m.base.mors.key((two, two, (1, 0)))
        assert m.subst_ty(swapper, m.tys.key((2, 1))) == "fam(1, 2)"

    def test_swap_isos_invert_on_a_dependent_model(self):
        from helpers import finite_sets_model

        m = finite_sets_model(2)
        g, fam = m.base.objs.key(1), m.tys.key
        sw = swap_iso(m, g, fam((2,)), fam((1,)))
        back = swap_iso(m, g, fam((1,)), fam((2,)))
        assert m.base.compose(back, sw) == m.base.identity(m.base.dom(sw))


def _swapped_pairing(s):
    """Σ-structure of s whose pair swaps the first two terms of A in each fibre."""
    good = s.sigma_structure

    def pair(ctx, ty_a, ty_b, tm_a, tm_b):
        terms = s.terms_of(ctx, ty_a, 1)
        if len(terms) >= 2 and tm_a in terms[:2]:
            tm_a = terms[1] if tm_a == terms[0] else terms[0]
        return good.pair(ctx, ty_a, ty_b, tm_a, tm_b)

    return SigmaStructure(good.sigma, pair)


class TestStructureInstances:
    def test_sigma_at_bound_one_quantifies_over_nothing_and_does_not_pass(self):
        s = extend_by_sigma(term_model(range(1)))
        good = s.sigma_structure
        nope = SigmaStructure(lambda *a: "NOPE", good.pair, good.split)
        rep = check_sigma(s, nope, 1)
        assert rep.instances == 0
        assert not rep.checks and not rep.violations and not rep.ok

    def test_sigma_at_bound_two_counts_its_pairs(self):
        s = extend_by_sigma(term_model(range(1)))
        rep = check_sigma(s, s.sigma_structure, 2)
        assert rep.ok and not rep.violations
        comp = CompositeModel(s, s)
        assert rep.instances == sum(len(comp.types(g, 2)) for g in s.base.objects(2)) == 4

    @pytest.mark.parametrize("bound", [0, 1, 2])
    def test_a_check_over_no_pair_fails_exactly_where_the_report_says_vacuous(self, bound):
        # in the free Σ model no pair (A, B) fits below bound 2, a type tree
        # being of size 1 at least; its Σ structure passes wherever one fits,
        # and a Π structure that is never called passes where none does
        s = extend_by_sigma(term_model(range(1)))

        def never(*args):
            raise AssertionError(f"called on {args}")

        checks = [("sigma", check_sigma(s, s.sigma_structure, bound))]
        if bound < 2:
            checks.append(("pi", check_pi(s, PiStructure(never, never, never), bound)))
        report = VerificationReport("structures", bound)
        for name, findings in checks:
            report.add_findings(name, findings)
        assert [(c.name, c.status) for c in report.checks] == [
            (name, "vacuous" if bound < 2 else "pass") for name, _ in checks]
        for (_, findings), record in zip(checks, report.checks):
            assert (findings.instances == 0) is (bound < 2) is record.vacuous
            assert findings.ok is (record.status == "pass") is not record.vacuous
            assert not findings.violations

    def test_a_composite_pair_is_as_large_as_its_parts(self):
        s = extend_by_sigma(term_model(range(1)))
        comp, ctx = CompositeModel(s, s), s.terminal
        sizes = {}
        for key in comp.types(ctx, 3):
            ty_a, ty_b = comp.tys.cell(key)
            mid = s.ext(ctx, ty_a).extended
            sizes[key] = comp.ty_size(ctx, key)
            assert sizes[key] == s.ty_size(ctx, ty_a) + s.ty_size(mid, ty_b)
        assert sorted(sizes.values()) == [2, 3, 3]
        for bound in range(4):
            assert comp.types(ctx, bound) == [k for k, n in sizes.items() if n <= bound]

    def test_the_constant_pi_structure_counts_its_pairs(self):
        u = extend_by_unit(term_model(range(0)))
        pi = PiStructure(lambda c, a, b: u.new_ty, lambda c, a, b, t: u._star)
        rep = check_pi(u, pi, 2)
        assert rep.ok and rep.instances > 0


class TestFormerSquaresAsNaturalTransformations:
    def test_the_swapped_pairing_breaks_the_naturality_of_pair(self):
        s = extend_by_sigma(term_model(range(1)))
        rep = check_sigma(s, _swapped_pairing(s), 2)
        naturality = [v for v in rep.violations["iv"] if v.startswith("(iv) naturality fails")]
        assert len(naturality) == 36
        assert all(" on pair(" in v for v in naturality)

    def test_a_former_outside_ty_breaks_equation_i(self):
        s = extend_by_sigma(term_model(range(1)))
        good = s.sigma_structure
        rep = check_sigma(s, SigmaStructure(lambda *a: "NOPE", good.pair, good.split), 2)
        assert any(v.startswith("(i) component at") and "Σ(" in v for v in rep.violations["i"])


def _perturbed(sq, rng, name="intro"):
    """sq with one component of its introduction map (or of the map ``name``)
    moved to another value."""
    nt = getattr(sq, name)
    sites = [(g, x) for g in sq.p.dom.base.object_keys for x in nt.dom.at(g)
             if len(nt.cod.at(g)) > 1]
    g, x = rng.choice(sites)
    comps = {obj: dict(comp) for obj, comp in nt.components.items()}
    comps[g][x] = rng.choice([t for t in nt.cod.at(g) if t != comps[g][x]])
    return sq._replace(**{name: NatTrans(nt.dom, nt.cod, comps)})


def _square_kind(sq):
    if check_pullback_square(*sq):
        return "pullback"
    base = sq.p.dom.base
    commutes = all(
        sq.former.apply(d, sq.leg.apply(d, z)) == sq.p.apply(d, sq.intro.apply(d, z))
        for d in base.object_keys for z in sq.intro.dom.at(d)
    )
    return "commuting non-pullback" if commutes else "non-commuting"


def _natural(sq):
    return all(next(nt.violations(), None) is None for nt in sq)


def _swapped_former_pi_square(pm):
    """The Π square of the propositions model with Σ's former in Π's place."""
    return pi_square(pm, dataclasses.replace(pm.pi_structure, pi=pm.sigma_structure.sigma), 2)


class TestFormerSquaresAgainstTheConeChaser:
    def test_the_verifiers_agree_wherever_the_four_maps_are_natural(self):
        sm = extend_by_sigma(term_model(range(1)))
        su = extend_by_sigma(extend_by_unit(term_model(range(0))))
        u0 = extend_by_unit(term_model(range(0)))
        u1 = extend_by_unit(term_model(range(1)))
        u0_pi = pi_square(u0, PiStructure(lambda c, a, b: u0.new_ty, lambda *a: u0._star), 2)
        squares = [
            sigma_square(sm, sm.sigma_structure, 2),
            sigma_square(su, su.sigma_structure, 2),
            pi_square(u1, PiStructure(lambda c, a, b: u1.new_ty, lambda *a: u1._star), 2),
        ]
        rng = random.Random(0)
        # u0 has one term per context, so its λ̂ has no other value to take
        perturbed = [_perturbed(sq, rng) for sq in squares for _ in range(10)]
        squares += [u0_pi, sigma_square(sm, _swapped_pairing(sm), 2)]
        # the propositions squares; like u0's, every context has one term, so
        # their introduction maps have no other value to take, but their
        # formers do: moving one of Σ̂'s or Π̂'s components gives squares that
        # are not natural, some of them commuting non-pullbacks
        pm = propositions_model()
        pm_squares = [sigma_square(pm, pm.sigma_structure, 2), pi_square(pm, pm.pi_structure, 2)]
        squares += pm_squares + [_swapped_former_pi_square(pm)]
        former_rng = random.Random(5)
        perturbed += [_perturbed(sq, former_rng, "former") for sq in pm_squares for _ in range(10)]
        kinds = Counter()
        for sq in squares + perturbed:
            # the cone chaser reads the definition, in which the four maps are
            # natural transformations; the pointwise oracle presupposes it
            assert check_pullback_square_by_cones(*sq) == (
                check_pullback_square(*sq) and _natural(sq)
            )
            kinds[_square_kind(sq)] += 1
        assert len(perturbed) >= 30
        assert min(kinds[k] for k in
                   ("pullback", "commuting non-pullback", "non-commuting")) >= 1, kinds

    def test_the_propositions_squares_are_pullbacks_and_the_swapped_former_is_not(self):
        pm = propositions_model()
        for sq in (sigma_square(pm, pm.sigma_structure, 2), pi_square(pm, pm.pi_structure, 2)):
            assert check_pullback_square(*sq) and check_pullback_square_by_cones(*sq)
        swapped = _swapped_former_pi_square(pm)
        assert not check_pullback_square(*swapped)
        assert not check_pullback_square_by_cones(*swapped)

    def test_the_swapped_pairing_is_a_pointwise_pullback_of_a_non_natural_pair(self):
        sm = extend_by_sigma(term_model(range(1)))
        sq = sigma_square(sm, _swapped_pairing(sm), 2)
        assert check_pullback_square(*sq)
        assert not check_pullback_square_by_cones(*sq)
        assert [law for law, _ in sq.intro.violations()] == ["naturality"] * 36


# term_model(range(2)), its four free extensions and its composite, fresh per call
_ROW_MODELS = {
    "term-model": lambda: term_model(range(2)),
    "term": lambda: extend_by_term(term_model(range(2)), "T0"),
    "type": lambda: extend_by_type(term_model(range(2))),
    "unit": lambda: extend_by_unit(term_model(range(2))),
    "sigma": lambda: extend_by_sigma(term_model(range(2))),
    "poly-compose": lambda: poly_composite_models(*[term_model(range(2))] * 2),
}


def _rows_cell_by_cell(model, bound):
    """The ty and tm rows of every morphism of the truncation, one cell at a
    time and in reverse morphism order.  A Σ cell is substituted along the
    morphism's inner payload directly, bypassing the model's memos."""
    cat = truncate(model.base, bound)
    tys = {g: model.types(g, bound) for g in cat.object_keys}
    tms = {g: model.terms(g, bound) for g in cat.object_keys}
    if isinstance(model, SigmaExtModel):
        def ty_cell(m, a):
            (s,) = model.base.mor_payload(m)
            return model.tys.key(tree_subst(model.inner, s, model.tys.cell(a)))

        def tm_cell(m, a):
            (s,) = model.base.mor_payload(m)
            return model.tms.key(tmtree_subst(model.inner, s, model.tms.cell(a)))
    else:
        ty_cell, tm_cell = model.subst_ty, model.subst_tm
    ty_rows, tm_rows = {}, {}
    for m in reversed(cat.all_morphisms()):
        b = cat.cod(m)
        ty_rows[m] = {a: ty_cell(m, a) for a in reversed(tys[b])}
        tm_rows[m] = {a: tm_cell(m, a) for a in reversed(tms[b])}
    return ty_rows, tm_rows


class TestSubstitutionRows:
    """``model_presheaves`` reads each morphism's action as one row from the
    model's row hooks; the Σ model computes a row once per inner payload."""

    @pytest.mark.parametrize("bound", [2, 3])
    @pytest.mark.parametrize("name", list(_ROW_MODELS))
    def test_every_row_is_the_cell_by_cell_substitution(self, name, bound):
        build = _ROW_MODELS[name]
        model = build()
        smaller = model_presheaves(model, bound, bound - 1)  # same morphisms, fewer cells
        ps = model_presheaves(model, bound, bound)
        assert smaller.cat.all_morphisms() == ps.cat.all_morphisms()
        ty_rows, tm_rows = _rows_cell_by_cell(build(), bound)
        assert ps.ty.action == ty_rows
        assert ps.tm.action == tm_rows
        assert sum(map(len, tm_rows.values())) > 0

    @pytest.mark.parametrize("name", list(_ROW_MODELS))
    def test_a_returned_row_belongs_to_its_caller(self, name):
        # a wrapped model's row is shared with its memo, and the term model's
        # ty row (Ty is constant) with every morphism, so writing into it
        # fails; the other rows are fresh, and a write leaves them unshared
        model = _ROW_MODELS[name]()
        first = model_presheaves(model, 2, 2)
        saved = [{m: dict(row) for m, row in rows.items()}
                 for rows in (first.ty.action, first.tm.action)]
        for rows in (first.ty.action, first.tm.action):
            shared = isinstance(model, _WrappedModel) or (
                name == "term-model" and rows is first.ty.action)
            for row in rows.values():
                for a in [*row, "NOPE"]:
                    if shared:
                        with pytest.raises(TypeError):
                            row[a] = "NOPE"
                    else:
                        row[a] = "NOPE"
        second = model_presheaves(model, 2, 2)
        assert [second.ty.action, second.tm.action] == saved

    def test_a_sigma_row_agrees_with_its_single_cells(self):
        sm = extend_by_sigma(term_model(range(1)))
        ps = model_presheaves(sm, 3, 3)
        for m, row in ps.tm.action.items():
            assert row == {a: sm.subst_tm(m, a) for a in row}
        for m, row in ps.ty.action.items():
            assert row == {a: sm.subst_ty(m, a) for a in row}


def _file_models():
    """(id, build, sections): model files of the suite, built on demand, and
    the sections a mutant changes (one type leaves Ty nothing to change)."""
    from natmod.modelio import serialize_model

    every = ("subst_ty", "subst_tm", "typeof", "compose")
    return [
        ("term-model:1@3", lambda: serialize_model(term_model(range(1)), 3),
         ("subst_tm", "compose")),
        ("term-model:2@3", lambda: serialize_model(term_model(range(2)), 3), every),
        ("type@3", lambda: serialize_model(extend_by_type(term_model(range(1))), 3), every),
    ]


def _mutated(model, section: str, rng):
    """Change one cell of ``section`` of a parsed file model over its core
    (the objects ``check_eat`` checks at bound 0) to another value of the
    same sort, in place."""
    base = model.base
    core = set(base.objects(0))

    def in_core(*mors):
        return {base.dom(m) for m in mors} | {base.cod(m) for m in mors} <= core

    if section == "compose":
        ids = set(base.identities.values())
        pairs = [(g, f) for (g, f), gf in base.compose_table.items()
                 if not {g, f} & ids and in_core(g, f)
                 and len(base.hom(base.dom(f), base.cod(g))) > 1]
        g, f = rng.choice(pairs)
        base.compose_table[(g, f)] = rng.choice(
            [m for m in base.hom(base.dom(f), base.cod(g)) if m != base.compose_table[(g, f)]])
        return
    table, sort, dom, inside = {
        "subst_ty": (model._subst_ty, model._ty, base.dom, in_core),
        "subst_tm": (model._subst_tm, model._tm, base.dom, in_core),
        "typeof": (model._typeof, model._ty, lambda g: g, core.__contains__),
    }[section]
    cells = [(key, out) for key, out in table.items()
             if inside(key[0]) and len(sort.get(dom(key[0]), ())) > 1]
    key, out = rng.choice(cells)
    table[key] = rng.choice([x for x in sort[dom(key[0])] if x != out])


class TestCheckEatAgainstTheReference:
    """``check_eat`` checks functoriality and naturality along the
    generators of a lawful category; on each mutant its report is the one
    the walk along every morphism gives."""

    @pytest.mark.parametrize("build,section", [
        pytest.param(build, section, id=f"{name}-{section}")
        for name, build, sections in _file_models() for section in sections])
    def test_one_wrong_cell(self, build, section, monkeypatch):
        from natmod.modelio import parse_model
        from natmod.presheaf import Presheaf
        from helpers import reference_nat_trans_violations, reference_presheaf_violations

        text = build()
        reports = []
        for seed in range(3):
            model = parse_model(text)
            _mutated(model, section, random.Random(seed))
            reports.append(check_eat(model, 0, 2).violations)
        with monkeypatch.context() as m:
            m.setattr(Presheaf, "violations",
                      lambda self, gens=None: reference_presheaf_violations(self))
            m.setattr(NatTrans, "violations",
                      lambda self, gens=None: reference_nat_trans_violations(self))
            for seed, got in enumerate(reports):
                model = parse_model(text)
                _mutated(model, section, random.Random(seed))
                assert got == check_eat(model, 0, 2).violations
        assert any(reports)


def _composite_of_one_model():
    m = term_model(range(1))
    return CompositeModel(m, m)


def _oracle_cases():
    """(id, build, bounds): the models and bounds on which the oracle must
    give the reference's report, each model built fresh per call."""
    from natmod.modelio import BOUNDARY_RANK, parse_model

    cases = [(f"term-model:{n}@{bounds}", functools.partial(term_model, range(n)), bounds)
             for n in range(3) for bounds in ((4, 1, 3), (3, 1, 2))]
    one = functools.partial(term_model, range(1))
    cases += [
        ("term", lambda: extend_by_term(one(), "T0"), (3, 2, 2)),
        ("type", lambda: extend_by_type(one()), (3, 2, 2)),
        ("unit", lambda: extend_by_unit(one()), (3, 2, 2)),
        ("sigma", lambda: extend_by_sigma(one()), (3, 2, 2)),
        ("composite", _composite_of_one_model, (3, 2, 2)),
        ("P", propositions_model, (2, 1, 1)),
        ("finite-sets:2", lambda: finite_sets_model(2), (2, 1, 1)),
        ("self-extension", lambda: _SelfExtension(one()), (3, 1, 2)),
        ("foreign-variable", lambda: _ForeignVariable(one()), (3, 1, 2)),
    ]
    for name, text, sections in _file_models():
        cases.append((name, lambda text=text: parse_model(text()), (BOUNDARY_RANK, 2, 0)))
        for section in sections:
            for seed in range(3):
                def mutant(text=text, section=section, seed=seed):
                    model = parse_model(text())
                    _mutated(model, section, random.Random(seed))
                    return model
                cases.append((f"{name}-{section}-{seed}", mutant, (BOUNDARY_RANK, 2, 0)))
    return cases


class TestSquareOracleAgainstTheReference:
    """The oracle reads only the cells of its squares; on every case its
    report is the one read off the whole tabulation."""

    @pytest.mark.parametrize("build,bounds", [
        pytest.param(build, bounds, id=name) for name, build, bounds in _oracle_cases()])
    def test_the_report_is_the_reference(self, build, bounds):
        from helpers import reference_extension_square_oracle

        got = extension_square_oracle(build(), *bounds)
        want = reference_extension_square_oracle(build(), *bounds)
        assert (got.checked, got.failed, got.skipped) == \
            (want.checked, want.failed, want.skipped)

    def test_a_variable_outside_the_extended_context_fails_its_square(self):
        from helpers import reference_extension_square_oracle

        for oracle in (extension_square_oracle, reference_extension_square_oracle):
            model = _ForeignVariable(term_model(range(1)))
            assert oracle(model, 3, 1, 2).failed == [(model.terminal, "T0")]

    def test_every_case_but_the_empty_signature_checks_squares_and_some_fail(self):
        reports = {name: extension_square_oracle(build(), *bounds)
                   for name, build, bounds in _oracle_cases()}
        assert [name for name, r in reports.items() if not r.checked] == \
            ["term-model:0@(4, 1, 3)", "term-model:0@(3, 1, 2)"]
        failing = {name for name, r in reports.items() if not r.ok}
        assert {"self-extension", "foreign-variable"} <= failing and len(failing) >= 20


class TestTheOracleReadsCells:
    """The oracle and ``check_unit`` read the cells of their squares one by
    one: no substitution row and no tabulation."""

    @staticmethod
    def _counted(model, monkeypatch):
        calls = Counter()
        for name in ("subst_tm", "subst_ty", "subst_tm_row", "subst_ty_row"):
            def counted(*args, _name=name, _inner=getattr(model, name)):
                calls[_name] += 1
                return _inner(*args)
            setattr(model, name, counted)

        def tabulate(*args, _inner=natmodel.model_presheaves):
            calls["model_presheaves"] += 1
            return _inner(*args)
        monkeypatch.setattr(natmodel, "model_presheaves", tabulate)
        return calls

    def test_the_oracle_reads_each_cell_of_its_squares_once(self, monkeypatch):
        m = term_model(range(2))
        calls = self._counted(m, monkeypatch)
        report = extension_square_oracle(m, 4, 1, 3)
        assert report.ok and len(report.checked) == 30
        assert calls == Counter(subst_tm=6528, subst_ty=3498)

    def test_the_unit_square_reads_its_cells(self, monkeypatch):
        u = extend_by_unit(term_model(range(1)))
        calls = self._counted(u, monkeypatch)
        assert check_unit(u, u.unit_structure, 2).ok
        assert not {"subst_tm_row", "subst_ty_row", "model_presheaves"} & calls.keys()
        assert calls["subst_ty"] and calls["subst_tm"]
