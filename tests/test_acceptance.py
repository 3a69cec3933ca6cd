"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is exact (counts and key equalities); bounds are stated in
each test.  Run with ``pytest tests/test_acceptance.py -s`` to see the
per-criterion lines.
"""

import random
import time

from natmod.freemodel import (
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
    sigma_universal,
    sigma_universal_pins,
    term_model,
    term_universal_pins,
    type_universal,
    unit_universal,
)
from natmod.morphism import check_morphism, count_morphisms
from natmod.natmodel import (
    check_eat,
    check_sigma,
    check_unit,
    extension_square_oracle,
)
from natmod.polyset import (
    all_adjustments,
    beck_chevalley_witness,
    check_pseudomonad_data,
    compose,
    compose_extension_iso,
    distributivity_witness,
    extend,
    extend_map,
    fin_map,
    partiality_pseudomonad,
    random_cartesian_pair,
    random_family,
    random_fin_map,
    random_polynomial,
    random_pullback_square,
    unique_adjustment,
    Polynomial,
)
from natmod.presheaf import (
    NatTrans,
    Presheaf,
    compose_nat,
    is_representable,
    pullback_presheaves,
    sum_nat_trans,
    yoneda,
    yoneda_map,
)

from helpers import chain_poset


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance] {status}  {criterion}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_eat_soundness_of_term_models():
    t0 = time.time()
    ok = True
    details = []
    for n in (0, 1, 2):
        m = term_model(range(n))
        eat = check_eat(m, 3)
        oracle = extension_square_oracle(m, 4, 1, 3)
        ok = ok and eat.ok and oracle.ok
        details.append(f"|I|={n}: eat={eat.ok} oracle={oracle.ok}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 60.0
    report(
        "1 EAT soundness: term models at bound 3 satisfy all 27 equations "
        "and every extension square is a pullback",
        ok, "; ".join(details) + f"; {elapsed:.1f}s < 60s",
    )


def test_criterion_2_initiality_of_the_two_type_term_model():
    tm = term_model(range(2))
    u = extend_by_unit(term_model(range(0)))
    x = extend_by_type(term_model(range(0)))
    targets = [
        ("itself", term_model(range(2)), {0: "T0", 1: "T1"}, 3),
        ("one-type term model", term_model(range(1)), {0: "T0", 1: "T0"}, 3),
        ("free unit model", u, {0: u.new_ty, 1: u.new_ty}, 2),
        ("free basic-type model", x, {0: x.new_ty, 1: x.new_ty}, 2),
    ]
    ok = True
    details = []
    for name, target, images, bound in targets:
        fm = initial_morphism(tm, target, images)
        good = check_morphism(fm, 2).ok
        count = count_morphisms(tm, target, bound, initiality_pins(tm, target, images))
        ok = ok and good and count == 1
        details.append(f"{name}: strict={good} count={count} (bound {bound})")
    report(
        "2 Initiality: exactly one strict morphism with prescribed "
        "basic-type images into each target",
        ok, "; ".join(details),
    )


def test_criterion_3_polynomial_composition_counts_and_naturality():
    rng = random.Random(2026)
    checked = 0
    ok = True
    while checked < 50:
        f = random_polynomial(rng, 3, tag="f")
        g0 = random_polynomial(rng, 3, tag="g")
        g = Polynomial(
            fin_map(g0.B, f.J, {b: rng.choice(f.J) for b in g0.B}),
            g0.f, g0.t,
        )
        xs = random_family(rng, f.I, 3)
        xs2 = random_family(rng, f.I, 3, tag="y")
        try:
            phi = {
                i: random_fin_map(rng, xs[i], xs2[i]) for i in f.I
            }
        except ValueError:
            continue  # a map into an empty component does not exist
        gf = compose(g, f)
        lhs = extend(gf, xs)
        mid = extend(f, xs)
        rhs = extend(g, mid)
        for k in g.J:
            if len(lhs[k]) != len(rhs[k]):
                ok = False
        isos = compose_extension_iso(g, f, xs)
        isos2 = compose_extension_iso(g, f, xs2)
        big = extend_map(gf, xs, xs2, phi)
        mid2 = extend(f, xs2)
        pf_phi = extend_map(f, xs, xs2, phi)
        pg_pf_phi = extend_map(g, mid, mid2, pf_phi)
        for k in g.J:
            fwd, _ = isos[k]
            fwd2, _ = isos2[k]
            for el in lhs[k]:
                if fwd2(big[k](el)) != pg_pf_phi[k](fwd(el)):
                    ok = False
        checked += 1
    report(
        "3 Polynomial composition: |P_{G·F}(X)| = |P_G(P_F(X))| exactly and "
        "the constructed bijection is natural",
        ok, f"{checked} random instances, zero tolerance",
    )


def test_criterion_4_beck_chevalley_and_distributivity():
    rng = random.Random(4044)
    ok = True
    for _ in range(50):
        v, f, u, g = random_pullback_square(rng, 3)
        family = random_family(rng, u.dom, 3)
        sums, prods = beck_chevalley_witness(v, f, u, g, family)
        if not (sums.check_roundtrips() and prods.check_roundtrips()):
            ok = False
        for d in g.dom:
            if len(sums.forward[d].dom) != len(sums.forward[d].cod):
                ok = False
            if len(prods.forward[d].dom) != len(prods.forward[d].cod):
                ok = False
    for _ in range(50):
        b = tuple(f"b{i}" for i in range(rng.randint(1, 3)))
        a = tuple(f"a{i}" for i in range(rng.randint(1, 3)))
        c = tuple(f"c{i}" for i in range(rng.randint(0, 3)))
        u2 = random_fin_map(rng, c, b)
        f2 = random_fin_map(rng, b, a)
        family = random_family(rng, c, 3)
        w = distributivity_witness(u2, f2, family)
        if not w.check_roundtrips():
            ok = False
        for a_el in f2.cod:
            if len(w.forward[a_el].dom) != len(w.forward[a_el].cod):
                ok = False
    report(
        "4 Beck-Chevalley and distributivity: both sides equinumerous and "
        "round trips are identities",
        ok, "50 + 50 random instances, zero tolerance",
    )


def test_criterion_5_free_structure_correctness():
    u = extend_by_unit(term_model(range(1)))
    unit_ok = check_eat(u, 2).ok and check_unit(u, u.unit_structure, 2).ok

    s = extend_by_sigma(term_model(range(1)))
    sig_rep = check_sigma(s, s.sigma_structure, 2)
    sigma_ok = check_eat(s, 2).ok and sig_rep.ok

    tmodel = extend_by_term(extend_by_unit(term_model(range(0))), "unit")
    term_ok = check_eat(tmodel, 3).ok
    xmodel = extend_by_type(term_model(range(1)))
    type_ok = check_eat(xmodel, 3).ok

    report(
        "5 Free-structure correctness: unit passes the unit checker, sigma "
        "passes the sum checker with the computation rules, term/type "
        "extensions satisfy the theory",
        unit_ok and sigma_ok and term_ok and type_ok,
        f"unit={unit_ok} sigma={sigma_ok} term={term_ok} type={type_ok} "
        "(beta/eta included at bound 2)",
    )


def test_criterion_6_universal_properties_at_bound_3():
    details = []
    ok = True

    # term extension
    mt = term_model(range(1))
    ext = extend_by_term(mt, "T0")
    target = extend_by_term(extend_by_type(term_model(range(0))), "X")
    fm = initial_morphism(mt, target, {0: "X"})
    sharp = extend_term_universal(ext, fm, "v0")
    eqs = check_morphism(sharp, 2).ok and sharp.on_tm(ext.terminal, ext.x_term) == "v0"
    count = count_morphisms(ext, target, 3, term_universal_pins(ext, fm, "v0", 3))
    ok = ok and eqs and count == 1
    details.append(f"term: eqs={eqs} count={count}")

    # basic type extension
    m0 = term_model(range(0))
    xm = extend_by_type(m0)
    t_target = term_model(range(1))
    f2 = initial_morphism(m0, t_target, {})
    sharp2 = type_universal(xm, f2, "T0")
    eqs2 = check_morphism(sharp2, 2).ok and sharp2.on_ty(xm.terminal, xm.new_ty) == "T0"
    count2 = count_morphisms(xm, t_target, 3, interleaved_universal_pins(xm, f2, 3, sharp2))
    ok = ok and eqs2 and count2 == 1
    details.append(f"type: eqs={eqs2} count={count2}")

    # unit extension
    um = extend_by_unit(m0)
    u_target = extend_by_unit(term_model(range(0)))
    f3 = initial_morphism(m0, u_target, {})
    sharp3 = unit_universal(um, f3)
    eqs3 = check_morphism(sharp3, 2).ok and \
        sharp3.on_ty(um.terminal, um.new_ty) == u_target.new_ty
    count3 = count_morphisms(um, u_target, 3, interleaved_universal_pins(um, f3, 3, sharp3))
    ok = ok and eqs3 and count3 == 1
    details.append(f"unit: eqs={eqs3} count={count3}")

    # dependent sum extension
    sm = extend_by_sigma(term_model(range(1)))
    incl = inclusion(sm)
    sharp4 = sigma_universal(sm, incl, bound=3)
    eqs4 = check_morphism(sharp4, 2).ok and all(
        sharp4.on_obj(c) == c for c in sm.base.objects(2)
    )
    count4 = count_morphisms(sm, sm, 3, sigma_universal_pins(sm, incl, 3, sharp4), ty_bound=3)
    ok = ok and eqs4 and count4 == 1
    details.append(f"sigma: eqs={eqs4} count={count4}")

    report(
        "6 Universal properties: each mediating morphism satisfies its "
        "defining equations and bounded enumeration finds no rival (bound 3)",
        ok, "; ".join(details),
    )


def test_criterion_7_adjustment_uniqueness_and_pseudomonad():
    rng = random.Random(777)
    found = 0
    ok = True
    while found < 20:
        pair = random_cartesian_pair(rng, 3)
        if pair is None:
            continue
        phi, psi = pair
        adjs = all_adjustments(phi, psi)
        if len(adjs) != 1:
            ok = False
        unique_adjustment(phi, psi)
        found += 1
    monad = check_pseudomonad_data(*partiality_pseudomonad())
    ok = ok and monad.ok and monad.checks.get("unit-law-bijections", False)
    report(
        "7 Adjustment uniqueness: one adjustment per random parallel "
        "cartesian pair; constructed pseudomonad data passes with the "
        "unit-law bijections verified elementwise",
        ok, f"{found} pairs; pseudomonad checks: "
            + ", ".join(k for k, v in sorted(monad.checks.items()) if v),
    )


def test_criterion_8_closure_properties_over_a_finite_base():
    base = chain_poset(3)
    y0, y1, y2 = (yoneda(base, k) for k in ["0", "1", "2"])
    q = yoneda_map(base, "0<=1", y0, y1)
    p = yoneda_map(base, "1<=2", y1, y2)
    base_ok = is_representable(p).ok and is_representable(q).ok
    comp_ok = is_representable(compose_nat(p, q)).ok
    sum_ok = is_representable(sum_nat_trans([p, q])).ok

    two_vals = {o: ["e0", "e1"] for o in base.object_keys}
    two = Presheaf(base, two_vals, {m: {x: x for x in ["e0", "e1"]}
                                    for m in base.all_morphisms()})
    into = NatTrans(two, y2, {
        o: {x: y2.at(o)[0] for x in two.at(o)} for o in base.object_keys
    })
    apex, pr1, pr2 = pullback_presheaves(into, p)
    pull_ok = is_representable(pr1).ok
    report(
        "8 Closure properties: composites, pullbacks and finite sums of "
        "representable transformations over a three-object base remain "
        "representable",
        base_ok and comp_ok and sum_ok and pull_ok,
        f"base={base_ok} composite={comp_ok} sum={sum_ok} pullback={pull_ok}",
    )


def test_criterion_9_non_associativity_witness():
    s = extend_by_sigma(term_model(range(1)))
    leaf = TypeTree(leaf="T0")
    ll = s.tys.key(TypeTree(left=TypeTree(left=leaf, right=leaf), right=leaf))
    rr = s.tys.key(TypeTree(left=leaf, right=TypeTree(left=leaf, right=leaf)))
    keys_distinct = ll != rr
    g = s.terminal
    el = s.ext(g, ll).extended
    er = s.ext(g, rr).extended
    iso = None
    for h in s.base.hom(el, er):
        if s.base.is_iso(h) is not None:
            iso = h
            break
    report(
        "9 Non-associativity witness: the two bracketings are distinct type "
        "keys whose extensions are isomorphic contexts",
        keys_distinct and iso is not None,
        f"keys {ll} vs {rr}; isomorphism found by hom enumeration",
    )
