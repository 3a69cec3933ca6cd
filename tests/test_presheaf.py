import random

import pytest
from hypothesis import given, settings, strategies as st

from natmod.fincat import FinCatPresentation, FinSliceOpposite, category_violations, truncate
from natmod.presheaf import (
    NatTrans,
    Presheaf,
    check_pullback_square,
    compose_nat,
    element_nat,
    elements_cat,
    identity_nat,
    is_representable,
    pullback_presheaves,
    represents,
    sum_nat_trans,
    sum_presheaves,
    yoneda,
    yoneda_map,
)
from natmod.fincat import check_category
from natmod.freemodel import extend_by_unit, term_model
from natmod.natmodel import model_presheaves

from helpers import (
    chain_poset,
    check_pullback_square_by_cones,
    diamond_lattice,
    reference_nat_trans_violations,
    reference_presheaf_violations,
)


def representable_bases():
    return [chain_poset(3), truncate(term_model(range(2)).base, 2)]


def constant_presheaf(base, elems):
    values = {o: list(elems) for o in base.object_keys}
    action = {m: {x: x for x in elems} for m in base.all_morphisms()}
    return Presheaf(base, values, action)


def unique_map(base, src: Presheaf, dst: Presheaf) -> NatTrans:
    comps = {
        o: {x: dst.at(o)[0] for x in src.at(o)} for o in base.object_keys
    }
    return NatTrans(src, dst, comps)


class TestYoneda:
    def test_yoneda_at_terminal_is_constant_singleton(self):
        base = chain_poset(3)
        y = yoneda(base, "2")
        for o in base.object_keys:
            assert len(y.at(o)) == 1
        assert y.check() == []

    def test_yoneda_values_are_hom_sets(self):
        base = truncate(FinSliceOpposite({0}), 3)
        for c in base.object_keys:
            y = yoneda(base, c)
            for d in base.object_keys:
                assert len(y.at(d)) == len(base.hom(d, c))

    def test_yoneda_counts_in_truncated_fin_op(self):
        # hom((B), (A)) in Fin^op is the set of plain functions A -> B, so
        # the representable at the 2-element object counts |d| ** 2.
        gen = FinSliceOpposite({0})
        base = truncate(gen, 3)
        c = gen.objs.key((0, 0))
        y = yoneda(base, c)
        for d in base.object_keys:
            assert len(y.at(d)) == len(gen.objs.cell(d)) ** 2

    def test_yoneda_faithfulness_at_desk_scale(self):
        base = truncate(FinSliceOpposite({0}), 3)
        for c in base.object_keys:
            for cprime in base.object_keys:
                yc = yoneda(base, c)
                ycp = yoneda(base, cprime)
                seen = {}
                for m in base.hom(c, cprime):
                    nt = yoneda_map(base, m, yc, ycp)
                    sig = tuple(
                        (o, x, nt.apply(o, x)) for o in base.object_keys for x in yc.at(o)
                    )
                    assert sig not in seen, f"{m} and {seen[sig]} induce the same map"
                    seen[sig] = m


class TestRepresentableAction:
    @pytest.mark.parametrize("base", representable_bases(), ids=["chain3", "term-model"])
    def test_action_is_precomposition(self, base):
        for c in base.object_keys:
            y = yoneda(base, c)
            for m in base.all_morphisms():
                for h in y.at(base.cod(m)):
                    assert y.restrict(m, h) == base.compose(h, m)
            assert y.check() == []

    @pytest.mark.parametrize("base", representable_bases(), ids=["chain3", "term-model"])
    def test_construction_composes_nothing(self, base):
        calls = []
        compose = base.compose
        base.compose = lambda g, f: calls.append((g, f)) or compose(g, f)
        for c in base.object_keys:
            yoneda(base, c)
        assert calls == []


class TestLawNames:
    def _chain_presheaf(self):
        base = chain_poset(2)
        values = {"0": ["a"], "1": ["b"]}
        action = {"0<=0": {"a": "a"}, "1<=1": {"b": "b"}, "0<=1": {"b": "a"}}
        return Presheaf(base, values, action)

    def test_a_functor_violates_nothing(self):
        assert list(self._chain_presheaf().violations()) == []

    def test_each_broken_cell_is_named_by_its_law(self):
        p = self._chain_presheaf()
        p.action["1<=1"]["b"] = "a"
        p.action["0<=1"]["b"] = "c"
        assert {law for law, _ in p.violations()} == {"identity", "closure", "composition"}

    def test_a_broken_component_breaks_naturality(self):
        p = self._chain_presheaf()
        q = Presheaf(p.base, {"0": ["u", "v"], "1": ["w"]},
                     {"0<=0": {"u": "u", "v": "v"}, "1<=1": {"w": "w"}, "0<=1": {"w": "u"}})
        nt = NatTrans(p, q, {"0": {"a": "u"}, "1": {"b": "w"}})
        assert nt.check() == []
        nt.components["0"]["a"] = "v"
        assert [law for law, _ in nt.violations()] == ["naturality"]
        nt.components["1"]["b"] = "z"
        assert "component" in {law for law, _ in nt.violations()}

    def test_a_missing_component_is_named_at_its_object(self):
        p = self._chain_presheaf()
        nt = NatTrans(p, p, {"0": {"a": "a"}})
        assert next(nt.violations()) == ("component", "no component at '1'")
        assert nt.check()[0] == "no component at '1'"


class TestElementsCat:
    def test_projection_is_a_functor(self):
        base = chain_poset(3)
        p = yoneda(base, "1")
        cat, proj = elements_cat(p)
        assert check_category(cat).ok
        assert proj.check() == []

    def test_elements_of_representable_matches_slice(self):
        # elements of y(c) over a poset = objects below c
        base = diamond_lattice()
        cat, _ = elements_cat(yoneda(base, "a"))
        assert len(cat.object_keys) == 2  # 0 and a

    @pytest.mark.parametrize("sort", ["ty", "tm"])
    @pytest.mark.parametrize("build", [
        lambda: term_model(range(1)),
        lambda: term_model(range(2)),
        lambda: extend_by_unit(term_model(range(1))),
    ], ids=["term-model-1", "term-model-2", "unit-over-term-model-1"])
    def test_the_elements_of_a_model_presheaf_form_a_category(self, build, sort):
        # the element and morphism keys of a term model contain ":" and "=>",
        # which the element category's own keys use as separators
        cat, proj = elements_cat(getattr(model_presheaves(build(), 2, 2), sort))
        assert check_category(cat).ok
        assert proj.check() == []

    @pytest.mark.parametrize("move", ["parallel", "identity"])
    def test_a_broken_projection_is_reported_not_raised(self, move):
        base = truncate(term_model(range(1)).base, 2)
        cat, proj = elements_cat(yoneda(base, "fs[0]"))
        ids = set(cat.identities.values())
        # the first non-identity element morphism whose base hom set has
        # another member: moved to that member, or to an identity
        moved = next(k for k in cat.all_morphisms() if k not in ids
                     and len(base.hom(base.dom(proj.mor_map[k]), base.cod(proj.mor_map[k]))) > 1)
        m = proj.mor_map[moved]
        proj.mor_map[moved] = (
            next(h for h in base.hom(base.dom(m), base.cod(m)) if h != m) if move == "parallel"
            else base.identity(base.dom(m))
        )
        dropped = cat.all_morphisms()[-1]
        assert dropped != moved
        del proj.mor_map[dropped]
        out = proj.check()
        assert check_category(cat).ok  # the category keeps its own tables
        assert f"no image for morphism {dropped}" in out
        if move == "parallel":
            assert any(msg.startswith("composition not preserved on (") and moved in msg
                       for msg in out)
        else:
            assert f"image of {moved} has wrong endpoints" in out


class TestPullbackSquareOracle:
    def test_identity_square_passes(self):
        base = chain_poset(2)
        p = yoneda(base, "1")
        q = yoneda(base, "0")
        f = yoneda_map(base, "0<=1", q, p)
        assert check_pullback_square(f, f, identity_nat(q), identity_nat(q))

    def test_padded_fibre_fails(self):
        base = chain_poset(2)
        y1 = yoneda(base, "1")
        y0 = yoneda(base, "0")
        f = yoneda_map(base, "0<=1", y0, y1)
        # pad the candidate apex with an extra element over object "0"
        padded_values = {o: list(y0.at(o)) for o in base.object_keys}
        padded_values["0"] = padded_values["0"] + ["ghost"]
        action = {}
        for m in base.all_morphisms():
            amap = {h: y0.restrict(m, h) for h in y0.at(base.cod(m))}
            if base.cod(m) == "0":
                amap["ghost"] = y0.at(base.dom(m))[0] if base.dom(m) != "0" else "ghost"
            action[m] = amap
        padded = Presheaf(base, padded_values, action)
        left = NatTrans(padded, y0, {
            o: {x: y0.at(o)[0] for x in padded.at(o)} for o in base.object_keys
        })
        top = NatTrans(padded, y0, left.components)
        good_left = identity_nat(y0)
        assert check_pullback_square(f, f, good_left, good_left)
        assert not check_pullback_square(f, f, top, left)

    def test_oracle_agrees_with_cone_chaser(self):
        base = diamond_lattice()
        y1 = yoneda(base, "1")
        ya = yoneda(base, "a")
        y0 = yoneda(base, "0")
        f = yoneda_map(base, "a<=1", ya, y1)
        x = yoneda_map(base, "b<=1", yoneda(base, "b"), y1)
        # pullback of a and b over 1 is 0, giving a genuine pullback square
        left = yoneda_map(base, "0<=b", y0, x.dom)
        top = yoneda_map(base, "0<=a", y0, ya)
        assert check_pullback_square(f, x, top, left)
        assert check_pullback_square_by_cones(f, x, top, left)
        # and a non-example
        bad_top = NatTrans(y0, ya, {
            o: {h: ya.at(o)[0] for h in y0.at(o)} if y0.at(o) and ya.at(o) else {}
            for o in base.object_keys
        })
        assert check_pullback_square(f, x, bad_top, left) == \
            check_pullback_square_by_cones(f, x, bad_top, left)


class TestRepresentability:
    def test_identity_is_representable_with_trivial_witness(self):
        base = chain_poset(3)
        p = yoneda(base, "1")
        witnesses, rep = is_representable(identity_nat(p))
        assert rep.ok and rep.instances == len(witnesses)
        for (obj, element), (b, g, y) in witnesses.items():
            assert (b, g, y) == (obj, base.identity(obj), element)

    def test_yoneda_image_maps_are_representable_over_a_lattice(self):
        base = diamond_lattice()
        y1 = yoneda(base, "1")
        ya = yoneda(base, "a")
        f = yoneda_map(base, "a<=1", ya, y1)
        assert is_representable(f)[1].ok

    def test_constant_two_element_presheaf_not_representable(self):
        # over the discrete two-object category there is no "product-like"
        # representing object, so 2 -> 1 has a non-representable fibre
        from helpers import poset_category
        base = poset_category(["u", "v"], lambda x, y: x == y)
        two = constant_presheaf(base, ["e0", "e1"])
        one = constant_presheaf(base, ["*"])
        nt = unique_map(base, two, one)
        witnesses, rep = is_representable(nt)
        assert not rep.ok and witnesses == {}
        assert rep.violations == {"representable": [
            f"no (B, g, y) represents the fibre over '*' in cod p({o})" for o in ("u", "v")]}

    def test_a_map_with_no_fibre_shows_nothing(self):
        # over an empty codomain there is no fibre to represent: vacuous
        base = chain_poset(2)
        empty = constant_presheaf(base, [])
        witnesses, rep = is_representable(identity_nat(empty))
        assert witnesses == {} and rep.instances == 0 and not rep.ok


class TestRepresents:
    """``represents`` decides one square over p, and a missing cell forms none."""

    def test_the_found_witness_represents_and_a_smaller_cone_does_not(self):
        base = chain_poset(3)
        p = identity_nat(yoneda(base, "1"))
        witnesses, rep = is_representable(p)
        assert rep.ok and witnesses[("1", "1<=1")] == ("1", "1<=1", "1<=1")
        assert represents(p, "1", "1<=1", "1", "1<=1", "1<=1")
        # y(0) over 0<=1 is a cone over the square, but not its pullback
        assert not represents(p, "1", "1<=1", "0", "0<=1", "0<=1")

    def test_an_element_outside_its_presheaf_forms_no_square(self):
        base = chain_poset(2)
        p = identity_nat(yoneda(base, "1"))
        assert represents(p, "1", "1<=1", "1", "1<=1", "1<=1")
        assert not represents(p, "1", "nowhere", "1", "1<=1", "1<=1")
        assert not represents(p, "1", "1<=1", "1", "1<=1", "nowhere")


class TestSumsAndPullbacks:
    def test_sum_with_empty_presheaf_is_isomorphic_copy(self):
        base = chain_poset(2)
        p = yoneda(base, "1")
        empty = Presheaf(base, {o: [] for o in base.object_keys},
                         {m: {} for m in base.all_morphisms()})
        total, (inj, _) = sum_presheaves([p, empty])
        for o in base.object_keys:
            assert len(total.at(o)) == len(p.at(o))
        assert total.check() == []
        assert inj.check() == []

    def test_pullback_of_p_along_itself_is_kernel_pair(self):
        base = chain_poset(2)
        y1 = yoneda(base, "1")
        y0 = yoneda(base, "0")
        f = yoneda_map(base, "0<=1", y0, y1)
        apex, p1, p2 = pullback_presheaves(f, f)
        for o in base.object_keys:
            fibre_sizes = {}
            for x in y0.at(o):
                v = f.apply(o, x)
                fibre_sizes[v] = fibre_sizes.get(v, 0) + 1
            assert len(apex.at(o)) == sum(n * n for n in fibre_sizes.values())
        assert apex.check() == []
        assert p1.check() == []

    def test_pairs_whose_parts_hold_the_separator_keep_their_own_keys(self):
        # (a|b, c) and (a, b|c) were both spelled (a|b|c), so the apex listed
        # four elements of which three were distinct
        base = FinCatPresentation(["*"], {("*", "*"): ["id"]}, {("id", "id"): "id"},
                                  {"*": "id"}, "*")
        xs, ys = ["a|b", "a"], ["c", "b|c"]
        x, y, z = (Presheaf(base, {"*": v}, {"id": {e: e for e in v}}) for v in (xs, ys, ["z"]))
        apex, p1, p2 = pullback_presheaves(NatTrans(x, z, {"*": dict.fromkeys(xs, "z")}),
                                           NatTrans(y, z, {"*": dict.fromkeys(ys, "z")}))
        assert len(set(apex.at("*"))) == 4
        assert [(p1.apply("*", k), p2.apply("*", k)) for k in apex.at("*")] \
            == [(a, b) for a in xs for b in ys]
        assert apex.check() == [] and p1.check() == [] and p2.check() == []

    def test_one_plus_p_values(self):
        base = chain_poset(2)
        y1 = yoneda(base, "1")
        y0 = yoneda(base, "0")
        one = constant_presheaf(base, ["*"])
        f = yoneda_map(base, "0<=1", y0, y1)
        one_plus_p = sum_nat_trans([identity_nat(one), f])
        for o in base.object_keys:
            assert len(one_plus_p.dom.at(o)) == 1 + len(y0.at(o))

    def test_closure_under_sum_composite_and_pullback(self):
        # over the chain poset, representables glue exactly (no truncation)
        base = chain_poset(3)
        y0, y1, y2 = (yoneda(base, k) for k in ["0", "1", "2"])
        q = yoneda_map(base, "0<=1", y0, y1)
        p = yoneda_map(base, "1<=2", y1, y2)
        assert is_representable(p)[1].ok and is_representable(q)[1].ok
        assert is_representable(compose_nat(p, q))[1].ok
        assert is_representable(sum_nat_trans([p, p]))[1].ok
        two = constant_presheaf(base, ["e0", "e1"])
        into = NatTrans(two, y2, {
            o: {x: y2.at(o)[0] for x in two.at(o)} for o in base.object_keys
        })
        apex, pr1, pr2 = pullback_presheaves(into, p)
        assert is_representable(pr1)[1].ok


class TestTermModelClassifier:
    def test_witness_search_recovers_the_chosen_extension_data(self):
        # on the truncated term model, the representability search finds,
        # for each in-bound fibre with room, exactly the construction's
        # (extension, projection, variable); boundary fibres are reported
        # as failures with the truncation caveat
        from natmod.freemodel import term_model
        from natmod.natmodel import model_presheaves

        m = term_model(range(1))
        ps = model_presheaves(m, 2, 1)
        witnesses, rep = is_representable(ps.p)
        fibres = [(g, a) for g in ps.cat.object_keys for a in ps.ty.at(g)]
        assert rep.instances == len(fibres)
        for g, a in fibres:
            e = m.ext(g, a)
            if len(m.base.objs.cell(g)) < 2:
                assert witnesses[(g, a)] == (e.extended, e.proj, e.var)
            else:
                # the witness would escape the truncation
                assert (g, a) not in witnesses
        assert len(rep.violations["representable"]) == len(fibres) - len(witnesses) > 0


class TestOracleSoundness:
    def test_cone_chaser_agrees_on_term_model_extension_squares(self):
        # the fibrewise oracle and the definition-chasing verifier agree on
        # every extension square of the truncated term model
        from natmod.freemodel import term_model
        from natmod.natmodel import model_presheaves

        m = term_model(range(1))
        ps = model_presheaves(m, 2, 1)
        yon = {c: yoneda(ps.cat, c) for c in ps.cat.object_keys}
        for g in m.base.objects(1):
            for ty in m.types(g, 1):
                e = m.ext(g, ty)
                x_nt = element_nat(ps.cat, ps.ty, ty, yon[g])
                top = element_nat(ps.cat, ps.tm, e.var, yon[e.extended])
                left = yoneda_map(ps.cat, e.proj, yon[e.extended], yon[g])
                fast = check_pullback_square(ps.p, x_nt, top, left)
                slow = check_pullback_square_by_cones(ps.p, x_nt, top, left)
                assert fast and slow


class TestElementMapsReadTheirColumn:
    """``element_nat`` reads its column in one pass, from the built rows
    where there are some and from the cell rule elsewhere."""

    @staticmethod
    def _half_built():
        ps = model_presheaves(term_model(range(2)), 3, 2)
        mors = ps.cat.all_morphisms()
        for m in mors[::2]:
            ps.ty.row(m)
        for m in mors[1::3]:
            ps.tm.row(m)
        return ps

    def test_it_equals_restrict_cell_by_cell(self):
        ps = self._half_built()
        assert ps.ty.action and ps.tm.action
        for c in ps.cat.object_keys:
            yon = yoneda(ps.cat, c)
            for p in (ps.ty, ps.tm):
                for x in p.at(c):
                    reference = {d: {h: p.restrict(h, x) for h in yon.at(d)}
                                 for d in ps.cat.object_keys}
                    assert element_nat(ps.cat, p, x, yon).components == reference

    def test_an_element_outside_its_object_raises_before_and_after_rows(self):
        ps = model_presheaves(term_model(range(2)), 3, 2)
        c = ps.cat.object_keys[1]  # one element, so x0 is its only term
        yon = yoneda(ps.cat, c)
        for _ in ("before rows", "after rows"):
            for p, x in ((ps.tm, "x2"), (ps.ty, "T7")):
                assert x not in p.at(c)
                with pytest.raises(KeyError):
                    element_nat(ps.cat, p, x, yon)
            for d in ps.cat.object_keys:
                for h in yon.at(d):
                    ps.ty.row(h), ps.tm.row(h)


def _functoriality_by_elements(p):
    """Presheaf.violations as checked one element at a time, transcribed from
    the element loop that the row comparison replaced."""
    def attempt(m, x):
        if x is None:
            return None
        try:
            return p.restrict(m, x)
        except KeyError:
            return None

    base = p.base
    at = {obj: set(p.at(obj)) for obj in base.object_keys}
    for obj in base.object_keys:
        i = base.identity(obj)
        for x in p.at(obj):
            if attempt(i, x) != x:
                yield "identity", f"identity action fails at {obj!r} on {x!r}"
    into = {obj: [] for obj in base.object_keys}
    for m in base.all_morphisms():
        src, dst = base.dom(m), base.cod(m)
        into[dst].append(m)
        for x in p.at(dst):
            try:
                image = p.restrict(m, x)
            except KeyError:
                yield "closure", f"no action of {m!r} on {x!r}"
                continue
            if image not in at[src]:
                yield "closure", f"action of {m!r} does not send {x!r} into P({src})"
    for f in base.all_morphisms():
        for g in into[base.dom(f)]:
            fg = base.compose(f, g)
            for x in p.at(base.cod(f)):
                if attempt(g, attempt(f, x)) != attempt(fg, x):
                    yield "composition", f"x[f][g] != x[f∘g] for f={f}, g={g}, x={x}"


class TestFunctorialityAgainstTheDefinition:
    @pytest.fixture(scope="class")
    def presheaves(self):
        from natmod.natmodel import model_presheaves

        ps = model_presheaves(term_model(range(2)), 2, 2)
        return ps.ty, ps.tm

    @pytest.mark.parametrize("which", [0, 1], ids=["ty", "tm"])
    def test_one_cell_and_dropped_row_mutations(self, presheaves, which):
        p = presheaves[which]
        base = p.base
        for m in base.all_morphisms():  # the rows are built on their first read
            p.row(m)
        cells = [(m, x) for m, row in p.action.items() for x in row]
        broken = set()
        for seed in range(12):
            rng = random.Random(seed)
            action = {m: dict(row) for m, row in p.action.items()}
            for _ in range(1 + seed % 3):
                m, x = rng.choice(cells)
                if seed % 4 == 3:
                    action.pop(m, None)  # a dropped row: every cell of m is missing
                elif seed % 4 == 2:
                    action[m][x] = rng.choice(sorted(set(p.values[base.cod(m)]) | {"junk"}))
                else:
                    action[m][x] = rng.choice(p.values[base.dom(m)])
            q = Presheaf(base, p.values, action)
            got = list(q.violations())
            assert got == list(_functoriality_by_elements(q)), seed
            broken |= {law for law, _ in got}
        assert broken == {"identity", "closure", "composition"}

    @pytest.mark.parametrize("seed", range(6))
    def test_a_representable_wrong_at_one_cell(self, seed):
        base = truncate(FinSliceOpposite((0, 1)), 2)
        c = base.object_keys[-1]
        rng = random.Random(seed)
        # odd seeds: x[m] is another element of hom(dom m, c); even: no cell
        m, x = rng.choice([(m, x) for m in base.all_morphisms()
                           for x in base.hom(base.cod(m), c)
                           if len(base.hom(base.dom(m), c)) > seed % 2])
        wrong = rng.choice([h for h in base.hom(base.dom(m), c) if h != base.compose(x, m)]
                           or [None])

        right = yoneda(base, c)

        def wrong_at_one_cell(m2, x2):
            if (m2, x2) != (m, x):
                return right.restrict(m2, x2)
            if seed % 2:
                return wrong
            raise KeyError((m, x))

        p = Presheaf(base, right.values, cell=wrong_at_one_cell)
        got = list(p.violations())
        assert got and got == list(_functoriality_by_elements(p))


# ---------------------------------------------------------------------------
# Functoriality and naturality along generators, against the walk over every
# morphism (tests/helpers.py)
# ---------------------------------------------------------------------------

def _category_check(base, objects=None):
    """(violations, returned generating set) of ``base``'s category check."""
    laws = category_violations(base, base.object_keys if objects is None else objects)
    found = []
    while True:
        try:
            found.append(next(laws))
        except StopIteration as stop:
            return found, stop.value


def _z2():
    """One object with a swap s, s∘s = e."""
    table = {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s", ("s", "s"): "e"}
    return FinCatPresentation(["*"], {("*", "*"): ["e", "s"]}, table, {"*": "e"})


_LAWFUL_BASES = [
    ("chain3", lambda: chain_poset(3)),
    ("diamond", diamond_lattice),
    ("z2", _z2),
    ("fin-op{0,1}@2", lambda: truncate(FinSliceOpposite((0, 1)), 2)),
]


def _tabulated(p):
    """p with its action written out as tables, which a test may change."""
    base = p.base
    return Presheaf(base, {o: list(p.at(o)) for o in base.object_keys},
                    {m: dict(p.row(m)) for m in base.all_morphisms()})


def _wrong_cells(draw, cells, choices):
    """Change up to three of ``cells`` (mapping, key) to a drawn choice of
    ``choices(key)`` or to junk, or drop one."""
    for _ in range(draw(st.integers(0, 3))):
        if not cells:
            break
        row, x, options = draw(st.sampled_from(cells))
        kind = draw(st.sampled_from(["other", "other", "junk", "drop"]))
        if kind == "other" and options:
            row[x] = draw(st.sampled_from(options))
        elif kind == "junk":
            row[x] = "junk"
        else:
            row.pop(x, None)


@st.composite
def _presheaves_over_lawful_bases(draw):
    """A sum of one or two representables over a lawful base, tabulated,
    with up to three cells changed; or, drawn cell by cell, any action."""
    base = draw(st.sampled_from([build for _, build in _LAWFUL_BASES]))()
    cs = draw(st.lists(st.sampled_from(base.object_keys), min_size=1, max_size=2))
    p = _tabulated(sum_presheaves([yoneda(base, c) for c in cs])[0])
    if draw(st.booleans()):
        cells = [(p.action[m], x, p.at(base.dom(m)))
                 for m in base.all_morphisms() for x in p.at(base.cod(m))]
        _wrong_cells(draw, cells, None)
    else:
        for m in base.all_morphisms():
            for x in p.at(base.cod(m)):
                p.action[m][x] = draw(st.sampled_from(p.at(base.dom(m)) or ["junk"]))
    return p


@st.composite
def _nat_trans_over_lawful_bases(draw):
    """A natural map between tabulated sums of representables (the identity
    or a postcomposition), with up to three component or action cells
    changed."""
    base = draw(st.sampled_from([build for _, build in _LAWFUL_BASES]))()
    g = draw(st.sampled_from(base.all_morphisms()))
    if draw(st.booleans()):
        p = _tabulated(yoneda(base, base.cod(g)))
        nt = identity_nat(p)
    else:
        src, dst = _tabulated(yoneda(base, base.dom(g))), _tabulated(yoneda(base, base.cod(g)))
        nt = yoneda_map(base, g, src, dst)
    nt.components = {o: dict(row) for o, row in nt.components.items()}
    cells = [(nt.components[o], x, nt.cod.at(o))
             for o in base.object_keys for x in nt.dom.at(o)]
    if draw(st.integers(0, 3)) == 0:  # an action cell of dom or cod too
        ps = draw(st.sampled_from([nt.dom, nt.cod]))
        cells = [(ps.action[m], x, ps.at(base.dom(m)))
                 for m in base.all_morphisms() for x in ps.at(base.cod(m))]
    _wrong_cells(draw, cells, None)
    return nt


class TestFunctorialityAlongGenerators:
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(_presheaves_over_lawful_bases())
    def test_random_small_tables(self, p):
        laws, gens = _category_check(p.base)
        assert laws == [] and gens
        assert list(p.violations(gens)) == list(reference_presheaf_violations(p))

    def test_a_functorial_presheaf_composes_the_generator_rows_only(self):
        ps = model_presheaves(term_model(range(2)), 3, 3)
        base = ps.cat
        _, gens = _category_check(base)
        rows = []
        compose_row = base.compose_row
        base.compose_row = lambda g, fs: rows.append(g) or compose_row(g, fs)
        assert list(ps.tm.violations(gens)) == []
        assert rows == gens and len(gens) < len(base.all_morphisms()) / 3
        rows.clear()
        assert list(ps.tm.violations()) == []
        assert rows == base.all_morphisms()


class TestNaturalityAlongGenerators:
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(_nat_trans_over_lawful_bases())
    def test_random_small_tables(self, nt):
        laws, gens = _category_check(nt.dom.base)
        assert laws == [] and gens
        functorial = not any(next(p.violations(), None) for p in (nt.dom, nt.cod))
        got = list(nt.violations(gens if functorial else None))
        assert got == list(reference_nat_trans_violations(nt))


def _suite_models():
    """(id, build, bound): the models of the suite, materialized at a bound."""
    from natmod.freemodel import (
        extend_by_sigma, extend_by_term, extend_by_type, extend_by_unit,
    )
    from helpers import finite_sets_model, propositions_model

    out = [(f"term-model:{n}@3", lambda n=n: term_model(range(n)), 3) for n in range(3)]
    for name, extend in [("term", lambda m: extend_by_term(m, "T0")), ("type", extend_by_type),
                         ("unit", extend_by_unit), ("sigma", extend_by_sigma)]:
        out.append((f"{name}@2", lambda extend=extend: extend(term_model(range(2))), 2))
    out += [
        ("term-over-unit@2", lambda: (lambda u: extend_by_term(u, u.new_ty))(
            extend_by_unit(term_model(range(0)))), 2),
        ("finite-sets@2", lambda: finite_sets_model(2), 2),
        ("propositions@3", propositions_model, 3),
    ]
    return out


def _with_one_wrong_cell(p, rng):
    """A copy of p with one action cell moved to another element, or None."""
    base = p.base
    cells = [(m, x) for m in base.all_morphisms() for x in p.at(base.cod(m))
             if len(p.at(base.dom(m))) > 1]
    if not cells:
        return None
    m, x = rng.choice(cells)
    action = dict(p.action)
    action[m] = dict(action[m])
    action[m][x] = rng.choice([y for y in p.at(base.dom(m)) if y != action[m][x]])
    return Presheaf(base, p.values, action)


def _with_one_wrong_component(nt, rng):
    """A copy of nt with one component cell moved to another element, or None."""
    cells = [(o, x) for o in nt.dom.base.object_keys for x in nt.dom.at(o)
             if len(nt.cod.at(o)) > 1]
    if not cells:
        return None
    o, x = rng.choice(cells)
    comps = dict(nt.components)
    comps[o] = dict(comps[o])
    comps[o][x] = rng.choice([y for y in nt.cod.at(o) if y != comps[o][x]])
    return NatTrans(nt.dom, nt.cod, comps)


class TestEverySuiteModelAgreesWithTheReference:
    @pytest.mark.parametrize("build,bound", [
        pytest.param(build, bound, id=name) for name, build, bound in _suite_models()])
    def test_lawful_and_with_one_wrong_cell(self, build, bound):
        ps = model_presheaves(build(), bound, bound)
        laws, gens = _category_check(ps.cat)
        assert laws == [] and gens
        for p in (ps.ty, ps.tm):
            assert list(p.violations(gens)) == list(reference_presheaf_violations(p)) == []
        assert list(ps.p.violations(gens)) == list(reference_nat_trans_violations(ps.p)) == []
        for seed in range(3):
            rng = random.Random(seed)
            for p in (ps.ty, ps.tm):
                q = _with_one_wrong_cell(p, rng)
                if q is not None:
                    assert list(q.violations(gens)) == list(reference_presheaf_violations(q))
            nt = _with_one_wrong_component(ps.p, rng)
            if nt is not None:
                assert list(nt.violations(gens)) == list(reference_nat_trans_violations(nt))

    @pytest.mark.parametrize("build,bound", [
        pytest.param(build, bound, id=name) for name, build, bound in _suite_models()
        if name.startswith(("term-model:1", "term-model:2", "type", "finite-sets"))])
    def test_a_wrong_composite_walks_every_morphism(self, build, bound):
        ps = model_presheaves(build(), bound, bound)
        cat = ps.cat
        _category_check(cat)  # fills the truncation's table
        ids = set(cat.identities.values())
        rng = random.Random(0)
        pairs = [(g, f) for (g, f), gf in cat.compose_table.items()
                 if not {g, f} & ids and len(cat.hom(cat.dom(f), cat.cod(g))) > 1]
        g, f = rng.choice(pairs)
        cat.compose_table[(g, f)] = rng.choice(
            [m for m in cat.hom(cat.dom(f), cat.cod(g)) if m != cat.compose_table[(g, f)]])
        laws, gens = _category_check(cat)
        assert {law for law, _ in laws} == {"associativity"} and gens is None
        for p in (ps.ty, ps.tm):
            assert list(p.violations(gens)) == list(reference_presheaf_violations(p))
        assert list(ps.p.violations(gens)) == list(reference_nat_trans_violations(ps.p))
