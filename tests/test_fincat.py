import ast
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from natmod import fincat
from natmod.fincat import (
    FinCatPresentation,
    FinSliceOpposite,
    category_violations,
    check_category,
    composable_pairs,
    functor_violations,
    is_pullback_square,
    is_set_pullback,
    memo,
    product,
    pullback,
    truncate,
)

from helpers import (
    broken_unit_category,
    chain_poset,
    diamond_lattice,
    finite_sets_model,
    one_object_category,
    one_object_file,
    poset_category,
    propositions_model,
    reference_category_violations,
    reference_functor_violations,
    reference_slice_compose,
    slice_parts,
)


class TestCheckCategory:
    def test_one_object_category_is_clean(self):
        assert check_category(one_object_category()) == []

    def test_broken_unit_law_is_reported_with_the_pair(self):
        report = check_category(broken_unit_category())
        assert any("unit law" in v and "e" in v for v in report)

    def test_truncated_fin_slice_opposite_is_a_category(self):
        cat = truncate(FinSliceOpposite({0, 1}), 3)
        assert check_category(cat) == []

    def test_poset_categories_are_clean(self):
        assert check_category(diamond_lattice()) == []
        assert check_category(chain_poset(4)) == []

    def test_a_morphism_in_two_hom_sets_is_reported_and_no_generating_set_returned(self):
        cat = FinCatPresentation(
            object_keys=["a", "b"],
            homs={("a", "a"): ["ida", "m"], ("a", "b"): ["m"], ("b", "b"): ["idb"]},
            compose_table={}, identities={"a": "ida", "b": "idb"},
        )
        laws = category_violations(cat, cat.object_keys)
        witnesses = []
        with pytest.raises(StopIteration) as stop:
            while True:
                witnesses.append(next(laws))
        assert witnesses[0] == ("hom-sets", "morphism 'm' appears in hom('a', 'a') and hom('a', 'b')")
        assert stop.value.value is None


    def test_a_generator_is_checked_over_an_object_list_composing_each_pair_once(self):
        calls = []

        # a pair counts whether it is composed alone or in a row
        class Counting(FinSliceOpposite):
            def compose(self, g, f):
                calls.append((g, f))
                return super().compose(g, f)

            def compose_row(self, g, fs):
                calls.extend((g, f) for f in fs)
                return super().compose_row(g, fs)

        gen = Counting({0, 1})
        assert list(category_violations(gen, gen.objects(2))) == []
        assert calls and len(calls) == len(set(calls))

    def test_a_broken_unit_law_is_named_by_its_law(self):
        laws = {law for law, _ in category_violations(
            broken_unit_category(), ["x", "y"])}
        assert "unit-right" in laws


class TestFinSliceOpposite:
    def test_object_counts(self):
        gen = FinSliceOpposite({0, 1})
        # sum over n <= 3 of 2^n labellings
        assert len(gen.objects(3)) == 1 + 2 + 4 + 8

    def test_hom_sets_are_label_preserving_functions(self):
        gen = FinSliceOpposite({0, 1})
        a = gen.objs.key((0, 1))
        b = gen.objs.key((0, 0, 1))
        # functions {0,1,2} -> {0,1} over I: slots for label 0 are {0}, {0}, {1}
        assert len(gen.hom(a, b)) == 1 * 1 * 1
        aa = gen.objs.key((0, 0))
        assert len(gen.hom(aa, b)) == 2 * 2 * 0 if False else len(gen.hom(aa, b)) == 0

    def test_compose_matches_function_composition(self):
        gen = FinSliceOpposite({0})
        x, y, z = gen.objs.key((0,)), gen.objs.key((0, 0)), gen.objs.key((0, 0, 0))
        for f in gen.hom(x, y):
            for g in gen.hom(y, z):
                gf = gen.compose(g, f)
                fb, gb = gen.mor_payload(f), gen.mor_payload(g)
                assert gen.mor_payload(gf) == tuple(fb[k] for k in gb)

    def test_terminal_is_the_empty_set(self):
        gen = FinSliceOpposite({0, 1})
        cat = truncate(gen, 2)
        for obj in cat.object_keys:
            assert len(cat.hom(obj, gen.terminal)) == 1


class TestPullback:
    def test_pullback_of_identity_cospan_is_the_object(self):
        c = one_object_category()
        got = pullback(c, "id*", "id*")
        assert got == ("*", "id*", "id*")

    def test_pullback_in_lattice_is_the_meet(self):
        c = diamond_lattice()
        # independent oracle: the meet of a and b is the greatest lower bound
        lower = [o for o in c.object_keys
                 if c.hom(o, "a") and c.hom(o, "b")]
        meet = [o for o in lower if all(c.hom(p, o) for p in lower)]
        assert meet == ["0"]
        got = pullback(c, "a<=1", "b<=1")
        assert got is not None
        apex, p1, p2 = got
        assert apex == "0" and p1 == "0<=a" and p2 == "0<=b"

    def test_pullback_of_projections_in_fin_slice_opposite(self):
        # In (Fin/I)^op the pullback of the two coprojections out of a
        # two-element object is the pushout of sets over I, dualized: for
        # the cospan fs[0] -> fs[] <- fs[1] the apex is the disjoint union.
        gen = FinSliceOpposite({0, 1})
        cat = truncate(gen, 2)
        f = cat.hom(gen.objs.key((0,)), gen.objs.key(()))[0]
        g = cat.hom(gen.objs.key((1,)), gen.objs.key(()))[0]
        got = pullback(cat, f, g)
        assert got is not None
        apex, _, _ = got
        assert sorted(gen.objs.cell(apex)) == [0, 1]

    def test_is_pullback_square_rejects_non_pullbacks(self):
        c = diamond_lattice()
        # apex 0 over the cospan a -> 1 <- 1 is a valid cone but not universal
        assert not is_pullback_square(
            c, 4, "0", "0<=a", "0<=1", "a<=1", "1<=1"
        )


class TestSetPullback:
    @staticmethod
    def _by_definition(apex, to_left, to_top, xs, left_leg, ys, top_leg) -> bool:
        """The square commutes and z ↦ (to_left z, to_top z) hits every
        matching pair (x, y) exactly once."""
        if any(left_leg(to_left(z)) != top_leg(to_top(z)) for z in apex):
            return False
        hits = [(to_left(z), to_top(z)) for z in apex]
        pairs = [(x, y) for x in xs for y in ys if left_leg(x) == top_leg(y)]
        return sorted(hits) == sorted(pairs)

    def test_agrees_with_the_definition_on_random_squares(self):
        rng = random.Random(11)
        verdicts = set()
        for _ in range(400):
            xs, ys, zs = (range(rng.randint(0, 3)) for _ in range(3))
            apex = range(rng.randint(0, 4))
            maps = [
                {a: rng.choice(cod) for a in dom}
                for dom, cod in ((xs, zs), (ys, zs), (apex, xs), (apex, ys))
                if cod or not dom
            ]
            if len(maps) < 4:
                continue  # a map into an empty set from a non-empty one
            left_leg, top_leg, to_left, to_top = (m.__getitem__ for m in maps)
            args = (apex, to_left, to_top, xs, left_leg, ys, top_leg)
            verdict = is_set_pullback(*args)
            assert verdict == self._by_definition(*args)
            verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_a_non_commuting_square_fails(self):
        # z ↦ (0, 1) misses the only matching pair (0, 0)
        assert not is_set_pullback([0], {0: 0}.get, {0: 1}.get, [0], {0: 0}.get,
                                   [0, 1], {0: 0, 1: 1}.get)
        assert is_set_pullback([0], {0: 0}.get, {0: 0}.get, [0], {0: 0}.get,
                               [0, 1], {0: 0, 1: 1}.get)


    def test_a_non_cospan_is_refused(self):
        with pytest.raises(ValueError, match="pullback requires a cospan"):
            pullback(diamond_lattice(), "0<=a", "b<=1")

    def test_a_cospan_with_no_cone_has_no_pullback(self):
        # x <= z >= y with no lower bound of x and y: no cone at all
        c = poset_category(["x", "y", "z"], lambda p, q: p == q or q == "z")
        assert pullback(c, "x<=z", "y<=z") is None


class TestProduct:
    def test_product_with_terminal_gives_other_factor(self):
        c = chain_poset(3)
        got = product(c, "1", "2")
        assert got is not None
        apex, p1, p2 = got
        assert apex == "1" and p1 == "1<=1"

    def test_product_in_truncated_fin_op_is_disjoint_union(self):
        gen = FinSliceOpposite({0})
        cat = truncate(gen, 4)
        one = gen.objs.key((0,))
        two = gen.objs.key((0, 0))
        got = product(cat, one, two)
        assert got is not None
        apex, _, _ = got
        assert len(gen.objs.cell(apex)) == 3

    def test_product_in_lattice_is_meet(self):
        c = diamond_lattice()
        got = product(c, "a", "b")
        assert got is not None
        assert got[0] == "0"

    def test_two_objects_with_no_common_lower_bound_have_no_product(self):
        c = poset_category(["x", "y", "z"], lambda p, q: p == q or q == "z")
        assert product(c, "x", "y") is None


class TestTruncate:
    def test_truncation_has_requested_objects(self):
        gen = FinSliceOpposite({0})
        cat = truncate(gen, 2)
        assert cat.object_keys == [gen.objs.key(()), gen.objs.key((0,)), gen.objs.key((0, 0))]
        assert cat.terminal_key == gen.objs.key(())

    def test_every_composite_lands_in_a_hom_set(self):
        cat = truncate(FinSliceOpposite({0, 1}), 2)
        assert check_category(cat) == []


class TestProducedCategoriesSatisfyTheLaws:
    def test_truncations_of_constructed_bases_are_categories(self):
        from natmod.freemodel import (
            extend_by_sigma,
            extend_by_term,
            extend_by_unit,
            term_model,
        )

        u = extend_by_unit(term_model(range(0)))
        models = [
            extend_by_sigma(term_model(range(1))),
            extend_by_term(u, u.new_ty),
            extend_by_unit(term_model(range(1))),
        ]
        for model in models:
            cat = truncate(model.base, 2)
            assert check_category(cat) == [], type(model).__name__


class _Doubler:
    def __init__(self):
        self.calls = 0

    @memo
    def double(self, x: int) -> int:
        self.calls += 1
        if x < 0:
            raise ValueError("negative")
        return 2 * x

    @memo
    def halve(self, x: int):
        """x // 2, or None for an odd x."""
        self.calls += 1
        return None if x % 2 else x // 2


class TestMemo:
    def test_repeated_calls_compute_once(self):
        d = _Doubler()
        assert [d.double(3), d.double(3), d.double(4)] == [6, 6, 8]
        assert d.calls == 2

    def test_instances_share_no_table(self):
        first, second = _Doubler(), _Doubler()
        first.double(3)
        assert second.double(3) == 6
        assert (first.calls, second.calls) == (1, 1)

    def test_exceptions_are_not_cached(self):
        d = _Doubler()
        for _ in range(2):
            with pytest.raises(ValueError):
                d.double(-1)
        assert d.calls == 2
        assert d.double(1) == 2 and d.calls == 3

    def test_a_none_result_is_cached(self):
        d = _Doubler()
        assert [d.halve(3), d.halve(3), d.halve(4), d.halve(4)] == [None, None, 2, 2]
        assert d.calls == 2

    def test_fin_slice_opposite_hom_returns_a_fresh_list(self):
        gen = FinSliceOpposite({0})
        a, b = gen.objs.key((0,)), gen.objs.key((0, 0))
        gen.hom(a, b).append("junk")
        assert gen.hom(a, b) == [gen.mors.key((a, b, (0, 0)))]


def _pullback_by_cone_enumeration(c, bound, apex, to_left, to_top, left_leg, top_leg):
    """The definition, transcribed literally: for every commuting cone
    (q1, q2) from an object of size <= bound, count the mediating maps."""
    x, y = c.cod(to_left), c.cod(to_top)
    if c.compose(left_leg, to_left) != c.compose(top_leg, to_top):
        return False
    for q in c.objects(bound):
        for q1 in c.hom(q, x):
            lhs = c.compose(left_leg, q1)
            for q2 in c.hom(q, y):
                if lhs != c.compose(top_leg, q2):
                    continue
                mediating = [
                    h for h in c.hom(q, apex)
                    if c.compose(to_left, h) == q1 and c.compose(to_top, h) == q2
                ]
                if len(mediating) != 1:
                    return False
    return True


def _random_squares(c, objects, rng, n):
    """n seeded squares (apex, to_left, to_top, left_leg, top_leg); to_top is
    drawn from the choices that make the square commute, or from those that
    do not, each half of the time, when such a choice exists."""
    out = []
    while len(out) < n:
        apex, x, y, z = (rng.choice(objects) for _ in range(4))
        homs = [c.hom(x, z), c.hom(y, z), c.hom(apex, x), c.hom(apex, y)]
        if not all(homs):
            continue
        left_leg, top_leg, to_left = (rng.choice(h) for h in homs[:3])
        commute = rng.random() < 0.5
        target = c.compose(left_leg, to_left)
        wanted = [t for t in homs[3] if (c.compose(top_leg, t) == target) == commute]
        to_top = rng.choice(wanted or homs[3])
        out.append((apex, to_left, to_top, left_leg, top_leg))
    return out


_KINDS = ("not commuting", "commuting, not a pullback", "pullback")


class TestPullbackSquareAgainstTheDefinition:
    """The skeleton's vertices give the verdicts of every vertex.  In the
    one-object file's Σ base all 17 vertices of bound 2 are isomorphic, and
    every hom set is a singleton, so every square there is a pullback."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("build,occurring", [
        (lambda: (FinSliceOpposite({0, 1}), 3, 3), _KINDS),
        (lambda: (_sigma_tree_category(), 2, 2), _KINDS),
        (lambda: (_one_object_file_sigma_category(), 2, 2), ("pullback",)),
    ], ids=["fin-slice-opposite", "sigma-tree-category", "one-object-file-sigma"])
    def test_one_pass_count_agrees_with_cone_enumeration(self, build, occurring, seed):
        c, square_bound, cone_bound = build()
        squares = _random_squares(c, c.objects(square_bound), random.Random(seed), 300)
        kinds = dict.fromkeys(_KINDS, 0)
        for square in squares:
            expected = _pullback_by_cone_enumeration(c, cone_bound, *square)
            assert is_pullback_square(c, cone_bound, *square) == expected, square
            apex, to_left, to_top, left_leg, top_leg = square
            if c.compose(left_leg, to_left) != c.compose(top_leg, to_top):
                kinds["not commuting"] += 1
            else:
                kinds["pullback" if expected else "commuting, not a pullback"] += 1
        assert {kind for kind, n in kinds.items() if n} == set(occurring), kinds
        assert min(kinds[kind] for kind in occurring) >= 5, kinds


def _sigma_tree_category():
    from natmod.freemodel import extend_by_sigma, term_model

    return extend_by_sigma(term_model(range(1))).base


def _one_object_file_sigma_category():
    from natmod.freemodel import extend_by_sigma
    from natmod.modelio import parse_model

    return extend_by_sigma(parse_model(one_object_file(["a|b", "c", "a", "b|c"]))).base


def _isomorphic(c, a, b) -> bool:
    """Some f : a → b and g : b → a compose to both identities: the
    definition, searched over both hom sets without ``is_iso``."""
    id_a, id_b = c.identity(a), c.identity(b)
    return any(c.compose(g, f) == id_a and c.compose(f, g) == id_b
               for f in c.hom(a, b) for g in c.hom(b, a))


class TestSkeleton:
    """``skeleton(bound)`` against counts checked by hand and against the
    definition of an isomorphism, searched pair by pair."""

    @pytest.mark.parametrize("build,bound,objects,classes", [
        # a set over {0, 1} is determined up to isomorphism by how many of
        # its elements lie over 0: n + 1 classes of size n, for n = 0..3
        (lambda: FinSliceOpposite({0, 1}), 3, 15, 10),
        # a context is isomorphic to the context of as many T0s as its
        # Σ-types have leaves: one class per count 0..bound (1, 1, 2, 5 and
        # 14 contexts of each count)
        (_sigma_tree_category, 3, 9, 4),
        (_sigma_tree_category, 4, 23, 5),
        # every hom set is a singleton, so every context is isomorphic to ⋄
        (_one_object_file_sigma_category, 3, 209, 1),
    ], ids=["fin-slice-opposite@3", "sigma-tree-category@3", "sigma-tree-category@4",
            "one-object-file-sigma@3"])
    def test_one_representative_per_class(self, build, bound, objects, classes):
        c = build()
        objs, reps = c.objects(bound), c.skeleton(bound)
        assert (len(objs), len(reps)) == (objects, classes)
        assert [a for a in objs if a in reps] == list(reps)
        # each object is isomorphic to exactly one representative, so no two
        # representatives are isomorphic
        for a in objs:
            assert sum(_isomorphic(c, a, r) for r in reps) == 1, a
        # each representative is the first object of its class
        for r in reps:
            assert not any(_isomorphic(c, a, r) for a in objs[:objs.index(r)]), r


def _pullback_with_composing_legs(c, bound, apex, to_left, to_top, left_leg, top_leg):
    """``is_pullback_square`` as it was when each leg acted by a fresh
    composite per element, before the legs read memoized rows."""
    x, y = c.cod(to_left), c.cod(to_top)
    if c.compose(left_leg, to_left) != c.compose(top_leg, to_top):
        return False

    def after(g):
        return lambda h: c.compose(g, h)

    for q in c.objects(bound):
        q1s = c.hom(q, x)
        if q1s and not is_set_pullback(c.hom(q, apex), after(to_left), after(to_top),
                                       q1s, after(left_leg), c.hom(q, y), after(top_leg)):
            return False
    return True


def _canonical_squares(model, bound):
    """The squares (Δ•A[m], p, m•A, m, p_A) of every m : Δ → Γ and type A
    of Γ in the truncation, as ``check_morphism`` sends their images."""
    from natmod.natmodel import canonical_pullback, model_presheaves

    ps = model_presheaves(model, bound, bound)
    for m in ps.cat.all_morphisms():
        a, b = ps.cat.dom(m), ps.cat.cod(m)
        for ty in ps.ty.values[b]:
            e_sub, e = model.ext(a, ps.ty.restrict(m, ty)), model.ext(b, ty)
            yield e_sub.extended, e_sub.proj, canonical_pullback(model, m, ty), m, e.proj


class TestPullbackSquareAgainstComposingLegs:
    """The legs' memoized rows give the verdicts, and the errors, of
    composing each leg per element."""

    @staticmethod
    def _squares():
        from natmod.freemodel import term_model

        tm = term_model(range(2))
        return tm.base, list(_canonical_squares(tm, 2))

    def test_canonical_squares(self):
        c, squares = self._squares()
        assert len(squares) > 20
        for square in squares:
            assert _pullback_with_composing_legs(c, 3, *square)
            assert is_pullback_square(c, 3, *square), square

    def test_one_leg_moved_to_a_parallel_morphism(self):
        c, squares = self._squares()
        verdicts = {True: 0, False: 0}
        for square in squares:
            for k in range(1, 5):
                leg = square[k]
                for other in c.hom(c.dom(leg), c.cod(leg)):
                    if other == leg:
                        continue
                    moved = square[:k] + (other,) + square[k + 1:]
                    expected = _pullback_with_composing_legs(c, 3, *moved)
                    assert is_pullback_square(c, 3, *moved) == expected, moved
                    verdicts[expected] += 1
        assert min(verdicts.values()) >= 5, verdicts

    @pytest.mark.parametrize("position", [0, 3], ids=["apex", "left-leg"])
    def test_a_leg_that_does_not_compose_raises_the_same_error(self, position):
        c, squares = self._squares()
        apex, to_left, to_top, left_leg, top_leg = square = squares[-1]
        if position == 0:  # the apex is not the domain of to_left and to_top
            wrong = c.terminal
        else:  # left_leg does not start where to_left ends
            wrong = c.identity(apex)
        assert wrong not in (apex, left_leg)
        square = square[:position] + (wrong,) + square[position + 1:]
        with pytest.raises(Exception) as reference:
            _pullback_with_composing_legs(c, 3, *square)
        with pytest.raises(Exception) as got:
            is_pullback_square(c, 3, *square)
        assert (type(got.value), str(got.value)) == (type(reference.value),
                                                      str(reference.value))
        assert "not composable" in str(got.value)


def _table_category():
    from natmod.freemodel import term_model
    from natmod.modelio import parse_model, serialize_model

    return parse_model(serialize_model(term_model(range(1)), 2)).base


def _mutate_one_composite(cat, kind, rng):
    """Change one composite g∘f of ``cat`` in place, by ``kind``:

    * ``associativity``: neither g nor f is an identity, and g∘f becomes
      another morphism of the same hom set, so no unit law can see it;
    * ``unit``: g is an identity and id∘f becomes another morphism of its
      hom set;
    * ``hom``: g∘f becomes a morphism of another hom set;
    * ``missing``: the table loses the cell (a category with a full table).
    """
    ends = {m: ab for ab, ms in cat.homs.items() for m in ms}
    identities = set(cat.identities.values())
    pairs = [(g, f) for f, (_, b) in ends.items()
             for c in cat.object_keys for g in cat.homs.get((b, c), [])]
    rng.shuffle(pairs)
    for g, f in pairs:
        same = cat.homs[(ends[f][0], ends[g][1])]
        gf = cat.compose(g, f)
        others = [m for m in same if m != gf]
        if kind == "associativity" and others and not {g, f} & identities:
            cat.compose_table[(g, f)] = rng.choice(others)
            return
        if kind == "unit" and others and g in identities and f not in identities:
            cat.compose_table[(g, f)] = rng.choice(others)
            return
        if kind == "hom":
            cat.compose_table[(g, f)] = rng.choice([m for m in ends if m not in same])
            return
        if kind == "missing":
            del cat.compose_table[(g, f)]
            return
    raise AssertionError(f"no composite to mutate by {kind}")


class TestAssociativityAgainstTheDefinition:
    @pytest.mark.parametrize("build,kinds", [
        (lambda: truncate(FinSliceOpposite((0, 1)), 2), ("associativity", "unit", "hom")),
        (_table_category, ("associativity", "unit", "hom", "missing")),
    ], ids=["truncated-fin-slice-opposite", "table-category"])
    def test_row_comparison_yields_the_per_triple_witnesses(self, build, kinds):
        associativity_only = 0
        for seed in range(20):
            cat = build()
            _mutate_one_composite(cat, kinds[seed % len(kinds)], random.Random(seed))
            got = list(category_violations(cat, cat.object_keys))
            assert got == list(reference_category_violations(cat, cat.object_keys))
            assert got, seed
            associativity_only += {law for law, _ in got} == {"associativity"}
        assert associativity_only >= 5


def _ends_and_rows(cat):
    """The (dom, cod) of every morphism, in the order the category checker
    enumerates them, and the rows ``post[g] = {f: g∘f}`` of a category
    whose composites are all present."""
    objs = cat.object_keys
    ends = {m: (a, b) for a in objs for b in objs for m in cat.hom(a, b)}
    post = {g: {f: cat.compose(g, f) for f, (_, b) in ends.items() if b == ends[g][0]}
            for g in ends}
    return ends, post


def _closure(gens, post) -> set:
    """The morphisms reached from ``gens`` by composing: every row
    ``post[g]`` is read again, adding g∘f for reached g and f, until a sweep
    adds nothing."""
    reached, grew = set(gens), True
    while grew:
        grew = False
        for g, row in post.items():
            if g in reached:
                for f, gf in row.items():
                    if f in reached and gf not in reached:
                        reached.add(gf)
                        grew = True
    return reached


def _bound_2_truncations():
    """(id, build): the base of every suite model, truncated at bound 2."""
    from natmod.freemodel import (
        extend_by_sigma, extend_by_term, extend_by_type, extend_by_unit, term_model,
    )

    models = [(f"term-model:{n}", lambda n=n: term_model(range(n))) for n in range(3)]
    for name, extend in [("term", lambda m: extend_by_term(m, "T0")), ("type", extend_by_type),
                         ("unit", extend_by_unit), ("sigma", extend_by_sigma)]:
        models.append((name, lambda extend=extend: extend(term_model(range(2)))))
    models += [
        ("term-over-unit", lambda: (lambda u: extend_by_term(u, u.new_ty))(
            extend_by_unit(term_model(range(0))))),
        ("finite-sets", lambda: finite_sets_model(2)),
        ("propositions", propositions_model),
    ]
    return [(f"{name}@2", lambda build=build: truncate(build().base, 2)) for name, build in models]


class TestGeneratingSet:
    @pytest.mark.parametrize("build", [
        pytest.param(build, id=name) for name, build in [
            ("fin-slice-opposite-2", lambda: truncate(FinSliceOpposite((0, 1)), 2)),
            ("fin-slice-opposite-3", lambda: truncate(FinSliceOpposite((0, 1)), 3)),
            ("table-category", _table_category),
            ("diamond", diamond_lattice), ("chain-4", lambda: chain_poset(4)),
            ("divisibility-12", lambda: poset_category(
                [1, 2, 3, 4, 6, 12], lambda a, b: b % a == 0)),
            ("one-object", one_object_category),
        ] + _bound_2_truncations()])
    def test_the_generators_generate_and_the_last_is_needed(self, build):
        ends, post = _ends_and_rows(build())
        gens = fincat._generating_set(ends, post)
        assert _closure(gens, post) == set(ends)
        assert _closure(gens[:-1], post) != set(ends)

    @pytest.mark.parametrize("build", [
        lambda: truncate(FinSliceOpposite((0,)), 3), _table_category,
    ], ids=["one-label-fin-slice-opposite-3", "table-category"])
    def test_no_generator_is_a_composite_of_the_ones_before_it(self, build):
        ends, post = _ends_and_rows(build())
        gens = fincat._generating_set(ends, post)
        for k, g in enumerate(gens):
            assert g not in _closure(gens[:k], post), g

    def test_a_third_of_the_bound_3_truncation_generates_it(self):
        cat = truncate(FinSliceOpposite((0, 1)), 3)
        gens = fincat._generating_set(*_ends_and_rows(cat))
        assert len(cat.all_morphisms()) == 389
        assert 3 * len(gens) <= 389

    @pytest.mark.parametrize("build,most", [
        (lambda F: F.term_model(range(2)), 49),
        (lambda F: F.extend_by_type(F.term_model(range(1))), None),
    ], ids=["term-model:2@3", "type-over-term-model:1@3"])
    def test_the_389_morphism_file_categories(self, build, most):
        from natmod import freemodel
        from natmod.modelio import parse_model, serialize_model

        ends, post = _ends_and_rows(parse_model(serialize_model(build(freemodel), 3)).base)
        gens = fincat._generating_set(ends, post)
        assert len(ends) == 389
        assert _closure(gens, post) == set(ends)
        # visiting first the morphisms that are g∘f for the fewest pairs; in
        # the checker's order of ``ends`` the set had 114 members
        assert most is None or len(gens) <= most

    def test_associativity_is_decided_on_the_generators_of_well_typed_tables(self, monkeypatch):
        generating_set = fincat._generating_set
        decided = []

        def spy(ends, post):
            gens = generating_set(ends, post)
            decided.append(len(gens))
            return gens

        monkeypatch.setattr(fincat, "_generating_set", spy)
        cat = truncate(FinSliceOpposite((0, 1)), 3)
        assert check_category(cat) == []
        assert decided == [len(generating_set(*_ends_and_rows(cat)))]
        _mutate_one_composite(cat, "hom", random.Random(0))
        assert check_category(cat) != []
        assert len(decided) == 1  # an ill-typed table skips the generators


@st.composite
def _small_tables(draw):
    """A table of 1-3 objects and 0-3 morphisms per hom set.  In half of the
    draws the first endomorphism of each object is a lawful identity; every
    other composite is drawn from its hom set, or, in tables with holes,
    left missing.  A composite whose hom set is empty is missing."""
    objs = [f"o{i}" for i in range(draw(st.integers(1, 3)))]
    lawful, holes = draw(st.booleans()), draw(st.booleans())
    homs = {}
    for a in objs:
        for b in objs:
            n = draw(st.integers(1 if lawful and a == b else 0, 3))
            if n:
                homs[(a, b)] = [f"{a}{b}:{k}" for k in range(n)]
    identities = {a: homs[(a, a)][0] for a in objs if (a, a) in homs}
    table = {}
    for (a, b), fs in homs.items():
        for c in objs:
            for g in homs.get((b, c), ()):
                for f in fs:
                    if lawful and g == identities[b]:
                        table[(g, f)] = f
                    elif lawful and f == identities[a]:
                        table[(g, f)] = g
                    else:
                        within = homs.get((a, c))
                        if not within:
                            continue
                        k = draw(st.integers(-1 if holes else 0, len(within) - 1))
                        if k >= 0:
                            table[(g, f)] = within[k]
    return FinCatPresentation(objs, homs, table, identities)


class TestGeneratingSetOnRandomTables:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(_small_tables())
    def test_the_generators_generate(self, cat):
        objs = cat.object_keys
        ends = {m: (a, b) for a in objs for b in objs for m in cat.hom(a, b)}
        post = {g: {f: cat.compose_table.get((g, f)) for f, (_, b) in ends.items()
                    if b == ends[g][0]} for g in ends}
        assume(all(gf in ends for row in post.values() for gf in row.values()))
        assert _closure(fincat._generating_set(ends, post), post) == set(ends)


class TestCategoryViolationsAgainstTheReference:
    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(_small_tables())
    def test_random_small_tables(self, cat):
        assert (list(category_violations(cat, cat.object_keys))
                == list(reference_category_violations(cat, cat.object_keys)))

    def test_a_failure_the_generators_cannot_see_is_listed(self):
        # x has a swap s (s∘s = id_x), y an idempotent e, and s swaps
        # u, v : y -> x; the composite u∘e is missing.  The greedy pass takes
        # id_x, s, u, id_y and e; v = s∘u is no generator.  Associativity
        # fails only at the middle v: s∘(v∘e) = s∘v = u, but (s∘v)∘e = u∘e is
        # missing.  No generator's row differs (u's row skips e), so only
        # the missing composite sends the check over every middle.
        homs = {("x", "x"): ["idx", "s"], ("y", "x"): ["u", "v"], ("y", "y"): ["idy", "e"]}
        table = {("idx", "idx"): "idx", ("idx", "s"): "s", ("s", "idx"): "s", ("s", "s"): "idx",
                 ("idx", "u"): "u", ("idx", "v"): "v", ("s", "u"): "v", ("s", "v"): "u",
                 ("u", "idy"): "u", ("v", "idy"): "v", ("v", "e"): "v",
                 ("idy", "idy"): "idy", ("idy", "e"): "e", ("e", "idy"): "e", ("e", "e"): "e"}
        cat = FinCatPresentation(["x", "y"], homs, table, {"x": "idx", "y": "idy"})
        got = list(category_violations(cat, cat.object_keys))
        assert got == list(reference_category_violations(cat, cat.object_keys))
        assert got == [("dom-comp", "no composite recorded for (u, e)"),
                       ("associativity", "associativity fails on (s, v, e)")]


def _term_over_unit():
    from natmod.freemodel import extend_by_term, extend_by_unit, term_model

    unit = extend_by_unit(term_model(range(0)))
    return truncate(extend_by_term(unit, unit.new_ty).base, 2)


def _suite_categories():
    """(id, build, mutable): the categories of the suite at bound <= 3, and
    whether one composite can be changed without breaking a unit law."""
    from natmod.freemodel import (
        extend_by_sigma, extend_by_term, extend_by_type, extend_by_unit, term_model,
    )
    from natmod.modelio import parse_model

    out = [(f"term-model:{n}@3", lambda n=n: truncate(term_model(range(n)).base, 3), n > 0)
           for n in range(3)]
    for name, extend in [("term", lambda m: extend_by_term(m, "T0")), ("type", extend_by_type),
                         ("unit", extend_by_unit), ("sigma", extend_by_sigma)]:
        out.append((f"{name}@2",
                    lambda extend=extend: truncate(extend(term_model(range(2))).base, 2), True))
    out += [
        ("term-over-unit@2", _term_over_unit, False),
        ("finite-sets@3", lambda: truncate(finite_sets_model(2).base, 3), True),
        ("propositions@3", lambda: truncate(propositions_model().base, 3), True),
        ("diamond", diamond_lattice, False),
        ("chain-4", lambda: chain_poset(4), False),
        ("divisibility-12", lambda: poset_category(
            [1, 2, 3, 4, 6, 12], lambda a, b: b % a == 0), False),
    ]
    data = Path(__file__).parent / "data"
    for path in sorted(data.rglob("*.json")):
        if path.name != "models.sha256.json":
            out.append((path.name, lambda path=path: parse_model(path.read_text()).base, True))
    return out


class TestEverySuiteCategoryAgreesWithTheReference:
    @pytest.mark.parametrize("build,mutable", [
        pytest.param(build, mutable, id=name) for name, build, mutable in _suite_categories()])
    def test_lawful_and_with_one_wrong_composite(self, build, mutable):
        cat = build()
        assert list(category_violations(cat, cat.object_keys)) == []
        assert list(reference_category_violations(cat, cat.object_keys)) == []
        if mutable:
            _mutate_one_composite(cat, "associativity", random.Random(0))
            got = list(category_violations(cat, cat.object_keys))
            assert got == list(reference_category_violations(cat, cat.object_keys))
            assert {law for law, _ in got} == {"associativity"}


def _composable_pairs(cat):
    """Every composable pair (g, f) of a truncation, f by f."""
    out_of: dict = {}
    for (a, _b), ms in cat.homs.items():
        out_of.setdefault(a, []).extend(ms)
    return [(g, f) for (_a, b), fs in cat.homs.items() for f in fs for g in out_of.get(b, ())]


class TestMorphismRegistry:
    def test_every_key_handed_out_spells_its_cell(self):
        from natmod.freemodel import term_model

        tm = term_model(range(2))
        cat, handed = tm.base, []
        trunc = truncate(cat, 3)
        for (a, b), ms in trunc.homs.items():
            handed += [(m, (a, b)) for m in cat.hom(a, b)]
        handed += [(cat.identity(a), (a, a)) for a in trunc.object_keys]
        for g, f in _composable_pairs(trunc):
            handed.append((cat.compose(g, f), (cat.dom(f), cat.cod(g))))
        for gamma in truncate(cat, 2).object_keys:
            for ty in tm.types(gamma, 2):
                e = tm.ext(gamma, ty)
                handed.append((e.proj, (e.extended, gamma)))
                for delta in truncate(cat, 2).object_keys:
                    for sigma in cat.hom(delta, gamma):
                        for term in tm.terms_of(delta, ty, 2):
                            handed.append((tm.indsub(sigma, term, ty), (delta, e.extended)))
        # every extension of a bound-2 context lands in the bound-3 truncation
        assert {m for m, _ in handed} == set(trunc.all_morphisms())
        for m, ends in handed:
            assert cat.mors.cell(m) == slice_parts(m), m
            assert cat.spell_mor(cat.mors.cell(m)) == m
            assert cat.mors.cell(m)[:2] == ends

    def test_a_registered_key_composes_before_its_hom_set_is_listed(self):
        cat = FinSliceOpposite((0, 1))
        a, b, c = cat.objs.key((0, 1)), cat.objs.key((1, 0, 0)), cat.objs.key((0,))
        f, g = cat.mors.key((b, a, (1, 0))), cat.mors.key((a, c, (0,)))
        assert not [k for k in vars(cat) if "_homs" in k]
        assert cat.compose(g, f) == reference_slice_compose(g, f) == cat.mors.key((b, c, (1,)))
        assert (cat.dom(f), cat.cod(f), cat.mor_payload(f)) == (b, a, (1, 0))
        assert cat.compose(g, f) in cat.hom(b, c)
        assert f in cat.hom(b, a)

    @pytest.mark.parametrize("key", [
        "fs[0,1]", "fs[0, 1]", "fs[0]=>fs[0]:(0)", "fs[0]=>fs[]:()", "junk", ""])
    def test_a_key_the_registry_never_handed_out_raises_key_error(self, key):
        cat = FinSliceOpposite((0, 1))
        one = cat.identity(cat.terminal)
        for read in (cat.obj_size, cat.identity, cat.dom, cat.cod, cat.mor_payload,
                     lambda k: cat.compose(one, k), lambda k: cat.compose(k, one),
                     lambda k: cat.compose_row(one, [one, k])):
            with pytest.raises(KeyError):
                read(key)
        assert key not in cat.objs.cells and key not in cat.mors.cells

    def test_a_speller_that_names_two_cells_alike_is_refused(self):
        reg = fincat.Registry(lambda cell: f"k{len(cell)}")
        assert reg.key("ab") == "k2"
        with pytest.raises(ValueError) as refused:
            reg.key("cd")
        assert str(refused.value) == "the key 'k2' would name two cells: 'ab' and 'cd'"
        # the first cell keeps its key and the second is not registered
        assert (reg.keys, reg.cells) == ({"ab": "k2"}, {"k2": "ab"})
        assert reg.key("ab") == "k2" and reg.key("e") == "k1"

    def test_a_non_composable_pair_raises_the_same_error(self):
        cat = FinSliceOpposite((0, 1))
        a, b = cat.objs.key((0, 1)), cat.objs.key((1, 0, 0))
        f = cat.hom(b, a)[0]
        with pytest.raises(ValueError) as got:
            cat.compose(f, f)
        with pytest.raises(ValueError) as want:
            reference_slice_compose(f, f)
        assert str(got.value) == str(want.value) == f"not composable: {f} after {f}"
        # in a row, after a composable f
        with pytest.raises(ValueError) as in_row:
            cat.compose_row(f, [cat.identity(b), f])
        assert str(in_row.value) == str(want.value)

    def test_fresh_term_models_share_no_registry_dict(self):
        from natmod.freemodel import term_model

        one, two = term_model(range(2)), term_model(range(2))
        trunc = truncate(one.base, 2)
        for g, f in _composable_pairs(trunc):
            one.base.compose(g, f)
        dicts = [{id(d) for reg in (m.base.objs, m.base.mors) for d in (reg.keys, reg.cells)}
                 for m in (one, two)]
        assert len(dicts[0]) == len(dicts[1]) == 4 and not dicts[0] & dicts[1]
        assert len(one.base.mors.keys) == len(trunc.all_morphisms())
        assert len(one.base.objs.keys) == len(trunc.object_keys)
        assert two.base.mors.keys == {} and two.base.mors.cells == {}
        assert two.base.objs.keys == {} and two.base.objs.cells == {}


@st.composite
def _slice_pairs(draw):
    """An index set of 1-3 labels and the cells (src, dst, function) of a
    composable pair (g, f) between objects of size at most 3 over it."""
    index = draw(st.lists(st.integers(0, 9), min_size=1, max_size=3, unique=True))
    x = tuple(draw(st.lists(st.sampled_from(index), max_size=3)))

    def arrow_into(src):
        fn = tuple(draw(st.lists(st.integers(0, len(src) - 1), max_size=3))) if src else ()
        return fn, tuple(src[k] for k in fn)

    f_fn, y = arrow_into(x)
    g_fn, z = arrow_into(y)
    return index, (y, z, g_fn), (x, y, f_fn), draw(st.booleans())


def _register(cat: FinSliceOpposite, cell) -> str:
    """The key of the morphism cell (src labels, dst labels, function)."""
    src, dst, fn = cell
    return cat.mors.key((cat.objs.key(src), cat.objs.key(dst), fn))


class TestComposeAgainstTheReference:
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(_slice_pairs())
    def test_random_composable_pairs(self, drawn):
        index, g_cell, f_cell, listed = drawn
        cat = FinSliceOpposite(index)
        if listed:  # the hom sets are listed before the pair is registered
            for src, dst, _fn in (g_cell, f_cell):
                cat.hom(cat.objs.key(src), cat.objs.key(dst))
        g, f = _register(cat, g_cell), _register(cat, f_cell)
        if listed:
            assert f in cat.hom(*slice_parts(f)[:2]) and g in cat.hom(*slice_parts(g)[:2])
        want = reference_slice_compose(g, f)
        assert cat.compose(g, f) == want
        assert cat.compose(g, f) == want
        assert cat.mors.cell(want) == slice_parts(want)

    def test_every_composable_pair_of_the_bound_3_truncation(self):
        gen = FinSliceOpposite((0, 1))
        pairs = _composable_pairs(truncate(gen, 3))
        assert len(pairs) == 11_501
        for g, f in pairs:
            assert gen.compose(g, f) == reference_slice_compose(g, f), (g, f)


class TestEachMorphismIsSpelledOnce:
    def test_composing_every_pair_twice(self, monkeypatch):
        spell_mor = FinSliceOpposite.spell_mor
        spelled = []

        def counting(self, cell):
            spelled.append(cell)
            return spell_mor(self, cell)

        monkeypatch.setattr(FinSliceOpposite, "spell_mor", counting)
        cat = FinSliceOpposite((0, 1))
        # cat spells each key as it lists its hom sets
        pairs = _composable_pairs(truncate(cat, 3))
        for g, f in pairs:
            cat.compose(g, f)
        assert len(spelled) == len(set(spelled)) == len(cat.mors.keys) == 389
        spelled.clear()
        for g, f in pairs:
            cat.compose(g, f)
        assert spelled == []

    def test_naming_the_hom_sets_of_the_bound_4_truncation(self, monkeypatch):
        spell_mor = FinSliceOpposite.spell_mor
        ref = FinSliceOpposite((0, 1))
        objs = ref.objects(4)
        listed = [spell_mor(ref, (a, b, p)) for a in objs for b in objs
                  for p in ref._hom_payloads(a, b)]
        spelled = []

        def counting(self, cell):
            spelled.append(cell)
            return spell_mor(self, cell)

        monkeypatch.setattr(FinSliceOpposite, "spell_mor", counting)
        cat = FinSliceOpposite((0, 1))
        trunc = truncate(cat, 4)
        keys = [m for a in trunc.object_keys for b in trunc.object_keys for m in trunc.hom(a, b)]
        assert keys == listed
        assert len(spelled) == len(set(spelled)) == len(cat.mors.keys) == 6559


class TestEachObjectIsSpelledOnce:
    def test_listing_the_truncation_and_composing_every_pair(self, monkeypatch):
        spell_obj = FinSliceOpposite.spell_obj
        spelled = []

        def counting(self, labels):
            spelled.append(labels)
            return spell_obj(self, labels)

        monkeypatch.setattr(FinSliceOpposite, "spell_obj", counting)
        cat = FinSliceOpposite((0, 1))
        for n_spelled in (15, 0):  # the second pass spells nothing
            spelled.clear()
            trunc = truncate(cat, 3)
            for g, f in _composable_pairs(trunc):
                cat.compose(g, f)
            assert len(spelled) == len(set(spelled)) == n_spelled
        assert len(cat.objs.keys) == len(trunc.object_keys) == 15


_SRC = Path(__file__).resolve().parent.parent / "src" / "natmod"


# The instance dicts outside the registry class.  None names a cell by a
# key spelled from it: the ranks of a file's objects, the images a morphism
# has derived, and the rival search's context indices and projections.
_OTHER_DICTS = {
    ("modelio.py", "TableCategory", "ranks"), ("modelio.py", "TableModel", "ranks"),
    ("morphism.py", "ForcedImages", "obj"), ("morphism.py", "ForcedImages", "mor"),
    ("morphism.py", "_Search", "idx"), ("morphism.py", "_Search", "proj"),
}


def _registry_assignments_and_memoized_composes(sources: dict[str, str]):
    """Each (module, class, attribute) that a class sets to a dict, and
    every ``compose`` decorated with ``memo``, in the given module sources."""
    assigning, memoized = set(), []
    for name, text in sources.items():
        for cls in ast.walk(ast.parse(text)):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in ast.walk(cls):
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign):
                    targets, value = [node.target], node.value
                else:
                    continue
                if isinstance(value, (ast.Dict, ast.DictComp)) or (
                        isinstance(value, ast.Call) and getattr(value.func, "id", None) == "dict"):
                    assigning.update((name, cls.name, t.attr) for t in targets
                                     if isinstance(t, ast.Attribute))
        for fn in ast.walk(ast.parse(text)):
            if isinstance(fn, ast.FunctionDef) and fn.name == "compose" and any(
                    getattr(d, "id", getattr(d, "attr", None)) == "memo"
                    for d in fn.decorator_list):
                memoized.append((name, fn.lineno))
    return assigning, memoized


class TestToTerminal:
    def test_the_unique_map_into_the_terminal_object(self):
        cat = diamond_lattice()
        assert [cat.to_terminal(a) for a in cat.object_keys] == ["0<=1", "a<=1", "b<=1", "1<=1"]

    def test_a_category_without_a_terminal_object_is_refused(self):
        with pytest.raises(ValueError, match="no distinguished terminal object"):
            broken_unit_category().to_terminal("x")

    @pytest.mark.parametrize("build,terminal,a,found", [
        (diamond_lattice, "a", "b", 0),  # a and b are incomparable
        (broken_unit_category, "y", "y", 2),  # y -> y holds the identity and e
    ], ids=["none", "two"])
    def test_a_terminal_object_with_other_than_one_map_into_it_is_refused(
        self, build, terminal, a, found
    ):
        cat = build()
        cat.terminal_key = terminal
        with pytest.raises(ValueError) as refused:
            cat.to_terminal(a)
        assert str(refused.value) == \
            f"expected exactly one morphism {a} -> {terminal}, found {found}"


class TestOneMorphismRegistry:
    def test_one_class_owns_the_registry_and_no_compose_is_memoized(self):
        """Only the registry class writes key↔cell dicts."""
        sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(_SRC.glob("*.py"))}
        assigning, memoized = _registry_assignments_and_memoized_composes(sources)
        assert assigning == {("fincat.py", "Registry", "keys"),
                             ("fincat.py", "Registry", "cells")} | _OTHER_DICTS
        assert memoized == []

    def test_the_guard_sees_a_naming_dict_put_back(self):
        text = (_SRC / "natmodel.py").read_text(encoding="utf-8")
        line = "        self.tms = Registry(_tuple_key)  # the quadruples (A, B, a, b)\n"
        mutant = text.replace(line, line + "        self._ty_reg: dict[str, tuple[str, str]] = {}\n")
        assert mutant != text
        assert ("natmodel.py", "CompositeModel", "_ty_reg") in \
            _registry_assignments_and_memoized_composes({"natmodel.py": mutant})[0]

    def test_the_guard_sees_a_memo_put_back(self):
        text = (_SRC / "fincat.py").read_text(encoding="utf-8")
        mutant = text.replace("    def compose(self, g: str, f: str) -> str:\n        # f : X",
                              "    @memo\n    def compose(self, g: str, f: str) -> str:\n        # f : X")
        assert mutant != text
        assert _registry_assignments_and_memoized_composes({"fincat.py": mutant})[1]


_PROCESS_CACHES = {"lru_cache", "cache", "cached_property"}


def _process_caches(sources: dict[str, str]) -> list[tuple[str, int]]:
    """Each use of a ``functools`` cache, as ``functools.lru_cache`` or
    imported by name, in the given module sources."""
    found = []
    for name, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Attribute) and node.attr in _PROCESS_CACHES and \
                    getattr(node.value, "id", None) == "functools":
                found.append((name, node.lineno))
            elif isinstance(node, ast.ImportFrom) and node.module == "functools" and \
                    any(alias.name in _PROCESS_CACHES for alias in node.names):
                found.append((name, node.lineno))
    return found


class TestEveryMemoLivesOnItsOwner:
    """A cache kept by the function outlives the model or category it
    serves; ``fincat.memo`` keeps each table on its owner instead."""

    def test_no_module_uses_a_functools_cache(self):
        sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(_SRC.glob("*.py"))}
        assert _process_caches(sources) == []

    @pytest.mark.parametrize("decorator,imports", [
        ("@functools.lru_cache(maxsize=None)", ""),
        ("@functools.cache", ""),
        ("@cached_property", "from functools import cached_property\n"),
    ])
    def test_the_guard_sees_a_cache_put_back(self, decorator, imports):
        text = (_SRC / "fincat.py").read_text(encoding="utf-8")
        mutant = imports + text.replace("    @memo\n    def _digits", f"    {decorator}\n    def _digits")
        assert mutant != imports + text
        assert _process_caches({"fincat.py": mutant})


def _parsed_keys(sources: dict[str, str]) -> list[tuple[str, int]]:
    """Each ``int(x[a:b])`` call, a number read out of a key, and each
    definition of ``parse_obj``/``parse_mor`` in the given module sources."""
    found = []
    for name, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "int" and any(
                    isinstance(a, ast.Subscript) and isinstance(a.slice, ast.Slice)
                    for a in node.args):
                found.append((name, node.lineno))
            elif isinstance(node, ast.FunctionDef) and node.name in ("parse_obj", "parse_mor"):
                found.append((name, node.lineno))
    return found


class TestKeysAreNeverParsed:
    def test_no_module_reads_a_key_back(self):
        sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(_SRC.glob("*.py"))}
        assert _parsed_keys(sources) == []

    def test_a_registry_is_made_from_its_speller_alone(self):
        module = ast.parse((_SRC / "fincat.py").read_text(encoding="utf-8"))
        [init] = [fn for cls in module.body if isinstance(cls, ast.ClassDef)
                  and cls.name == "Registry" for fn in cls.body
                  if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"]
        args = init.args
        assert [a.arg for a in args.posonlyargs + args.args] == ["self", "spell"]
        assert (args.vararg, args.kwonlyargs, args.kwarg) == (None, [], None)

    def test_the_guard_sees_a_parsed_key_put_back(self):
        text = (_SRC / "freemodel.py").read_text(encoding="utf-8")
        mutant = text.replace("fn[_read(self.tms, term)]", "fn[int(term[1:])]")
        assert mutant != text
        assert _parsed_keys({"freemodel.py": mutant})


def _registry_reads(sources: dict[str, str]) -> list[tuple[str, int]]:
    """Each ``….tys.cell(…)``, ``….tms.cell(…)``, ``….tys.cells[…]`` and
    ``….tms.cells[…]`` in the given module sources outside ``_read``: a read
    of a model's type or term registry that a foreign key would meet as a
    ``KeyError``.  ``….cells.get``, which tolerates a miss, is not one."""
    def of_a_model_registry(node) -> bool:
        return isinstance(node, ast.Attribute) and node.attr in ("tys", "tms")

    found = []
    for name, text in sources.items():
        tree = ast.parse(text)
        reader = {id(n) for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) and fn.name == "_read" for n in ast.walk(fn)}
        for node in ast.walk(tree):
            if id(node) in reader:
                continue
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "cell" and of_a_model_registry(node.func.value):
                found.append((name, node.lineno))
            elif isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute) \
                    and node.value.attr == "cells" and of_a_model_registry(node.value.value):
                found.append((name, node.lineno))
    return found


class TestRegistriesAreReadThroughOneReader:
    def test_no_module_reads_a_type_or_term_registry_past_the_reader(self):
        sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(_SRC.glob("*.py"))}
        assert _registry_reads(sources) == []

    def test_the_guard_sees_a_direct_read_put_back(self):
        text = (_SRC / "freemodel.py").read_text(encoding="utf-8")
        for mutant in (text.replace("        _read(self.tys, ty)\n", "        self.tys.cells[ty]\n", 1),
                       text.replace("_read(self.tms, term)", "self.tms.cell(term)", 1)):
            assert mutant != text
            assert _registry_reads({"freemodel.py": mutant})


def _vacuous_verdicts(text: str) -> list[int]:
    """The lines of a module source that make or read a VACUOUS verdict
    themselves: a ``CheckRecord`` built or imported, a ``.vacuous`` read or an
    ``add_vacuous`` call.  In ``cli.py`` there should be none: each check
    passes its instance count to ``VerificationReport.add``, which decides."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Name) and node.id in ("CheckRecord", "add_vacuous") \
                or isinstance(node, ast.Attribute) and node.attr in (
                    "CheckRecord", "vacuous", "add_vacuous") \
                or isinstance(node, ast.alias) and node.name == "CheckRecord":
            found.append(getattr(node, "lineno", 0))
    return found


class TestOneVacuousRule:
    def test_the_cli_leaves_every_vacuous_verdict_to_the_report(self):
        assert _vacuous_verdicts((_SRC / "cli.py").read_text(encoding="utf-8")) == []

    @pytest.mark.parametrize("put_back", [
        # the per-check helper that once decided VACUOUS in the command line
        "def _add_over(report, model, name, bound, run):\n"
        "    if model.base.objects(bound):\n"
        "        report.add(name, *run())\n"
        "    else:\n"
        "        report.add_vacuous(name, bound)\n",
        "def _sigma(report, sigma):\n"
        "    report.add('sigma-structure', sigma.ok and not sigma.vacuous)\n",
        "from .report import CheckRecord\n",
    ], ids=["add-over", "vacuous-read", "record-import"])
    def test_the_guard_sees_a_vacuous_decision_put_back(self, put_back):
        text = (_SRC / "cli.py").read_text(encoding="utf-8")
        anchor = "\n\ndef _composition_is_natural("
        assert anchor in text
        mutant = text.replace(anchor, "\n\n" + put_back + anchor, 1)
        assert _vacuous_verdicts(mutant)


# the result classes that are not a checker's Findings: the CLI's report, the
# oracle's checked, failed and skipped squares, and the representability search's
_REPORT_CLASSES = {"VerificationReport", "SquareOracleReport", "RepresentabilityReport"}


def _report_classes(sources: dict[str, str]) -> list[tuple[str, str]]:
    """Each (module, class) defined in the given module sources whose name
    ends in ``Report``."""
    return sorted((name, node.name) for name, text in sources.items()
                  for node in ast.walk(ast.parse(text))
                  if isinstance(node, ast.ClassDef) and node.name.endswith("Report"))


class TestOneFindingsType:
    def test_no_checker_has_a_report_class_of_its_own(self):
        sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(_SRC.glob("*.py"))}
        assert {cls for _, cls in _report_classes(sources)} == _REPORT_CLASSES

    def test_the_guard_sees_a_report_class_put_back(self):
        text = (_SRC / "natmodel.py").read_text(encoding="utf-8")
        anchor = "\n\ndef check_unit("
        assert anchor in text
        mutant = text.replace(anchor, "\n\nclass StructureReport:\n    pass\n" + anchor, 1)
        assert ("natmodel.py", "StructureReport") in _report_classes({"natmodel.py": mutant})


_TESTS = Path(__file__).resolve().parent


def _findings_checkers(sources: list[str]) -> set[str]:
    """The ``check_*`` functions of the given module sources annotated to
    return a ``Findings``."""
    return {node.name for text in sources for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.FunctionDef) and node.name.startswith("check_")
            and getattr(node.returns, "id", None) == "Findings"}


def _findings_as_truth_values(text: str, checkers: set[str]) -> list[int]:
    """The lines of a module source that read the result of one of
    ``checkers`` as a truth value (an ``assert``, ``if``, ``while`` or
    conditional test, a ``not``, an ``and``/``or`` operand or a ``bool()``
    argument), directly or through a name bound to it in the same function.
    A ``Findings`` is always true, so such a reading passes vacuously."""
    def is_check(node) -> bool:
        return isinstance(node, ast.Call) and \
            getattr(node.func, "id", getattr(node.func, "attr", None)) in checkers

    tree = ast.parse(text)
    module_code = ast.Module([s for s in tree.body if not isinstance(
        s, (ast.FunctionDef, ast.ClassDef))], [])
    found = []
    for scope in [module_code, *(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef))]:
        nodes = list(ast.walk(scope))
        bound = {target.id for node in nodes if isinstance(node, (ast.Assign, ast.NamedExpr))
                 and is_check(node.value)
                 for target in getattr(node, "targets", [getattr(node, "target", None)])
                 if isinstance(target, ast.Name)}
        for node in nodes:
            if isinstance(node, (ast.Assert, ast.If, ast.While, ast.IfExp)):
                tests = [node.test]
            elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
                tests = [node.operand]
            elif isinstance(node, ast.BoolOp):
                tests = node.values
            elif isinstance(node, ast.comprehension):
                tests = node.ifs
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "bool":
                tests = node.args
            else:
                continue
            found += [test.lineno for test in tests if is_check(test)
                      or isinstance(test, ast.Name) and test.id in bound]
    return sorted(set(found))


class TestNoFindingsReadAsABool:
    def _sources(self) -> dict[Path, str]:
        return {p: p.read_text(encoding="utf-8")
                for p in [*sorted(_SRC.glob("*.py")), *sorted(_TESTS.glob("*.py"))]}

    def test_every_findings_checker_result_is_read_through_ok(self):
        sources = self._sources()
        checkers = _findings_checkers([sources[p] for p in sources if p.parent == _SRC])
        assert {"check_eat", "check_morphism", "check_sigma_morphism"} <= checkers
        assert {p.name: lines for p, text in sources.items()
                if (lines := _findings_as_truth_values(text, checkers))} == {}

    @pytest.mark.parametrize("put_back", [
        "assert check_sigma_morphism(summ, 2)",
        "assert not check_sigma_morphism(perturbed, 2)",
        "rep = check_morphism(fm, 2)\n    if rep:\n        pass",
        "ok = all(check_eat(m, 1) and True for m in models)",
        "assert check_sigma_morphism(summ, 2).ok or bool(check_unit(u, s, 2))",
    ], ids=["assert", "assert-not", "bound-name", "and-operand", "bool-call"])
    def test_the_guard_sees_a_findings_read_as_a_bool(self, put_back):
        checkers = {"check_eat", "check_unit", "check_morphism", "check_sigma_morphism"}
        mutant = f"def test_put_back():\n    {put_back}\n"
        assert _findings_as_truth_values(mutant, checkers)
        fixed = f"def test_read_through_ok():\n    assert check_sigma_morphism(summ, 2).ok\n"
        assert _findings_as_truth_values(fixed, checkers) == []


def _row_categories():
    """(id, build, bound): a generated category of each kind, a parsed file's
    category and a truncation of each, fresh per call."""
    from natmod.freemodel import (
        extend_by_sigma, extend_by_term, extend_by_type, extend_by_unit, term_model,
    )
    from natmod.modelio import BOUNDARY_RANK, parse_model, serialize_model

    out = [("fin-op", lambda: FinSliceOpposite((0, 1)), 2)]
    for name, extend in [("term", lambda m: extend_by_term(m, "T0")), ("type", extend_by_type),
                         ("unit", extend_by_unit), ("sigma", extend_by_sigma)]:
        out.append((name, lambda extend=extend: extend(term_model(range(1))).base, 2))
    out.append(("file", lambda: parse_model(serialize_model(term_model(range(1)), 2)).base,
                BOUNDARY_RANK))
    return out + [(f"truncated {name}", lambda build=build, bound=bound: truncate(build(), bound),
                   bound) for name, build, bound in out]


class TestComposeRow:
    @pytest.mark.parametrize("build,bound", [
        pytest.param(build, bound, id=name) for name, build, bound in _row_categories()])
    def test_a_row_is_its_composites_and_refuses_as_compose_does(self, build, bound):
        by_row, by_pair = build(), build()  # neither reads composites the other made
        objs = by_row.objects(bound)
        into = {b: [f for a in objs for f in by_row.hom(a, b)] for b in objs}
        # the same keys name the same cells in the other
        assert by_pair.objects(bound) == objs
        assert {b: [f for a in objs for f in by_pair.hom(a, b)] for b in objs} == into
        rows = 0
        for a in objs:
            for b in objs:
                for g in by_row.hom(a, b):
                    fs = into[a]
                    assert by_row.compose_row(g, fs) == [by_pair.compose(g, f) for f in fs]
                    rows += len(fs) > 1
                    bad = next((f for c in objs if c != a for f in into[c]), None)
                    if bad is None:
                        continue
                    with pytest.raises(Exception) as want:
                        by_pair.compose(g, bad)
                    with pytest.raises(want.type) as got:
                        by_row.compose_row(g, [*fs, bad])
                    assert str(got.value) == str(want.value)
        assert rows

    @pytest.mark.parametrize("build,bound", [
        pytest.param(build, bound, id=name) for name, build, bound in _row_categories()])
    def test_a_leg_row_of_the_pullback_check_is_its_composites(self, build, bound):
        by_row, by_pair = build(), build()
        objs = by_row.objects(bound)
        legs = [g for a in objs for b in objs for g in by_row.hom(a, b)]
        # the same keys name the same cells in the other
        assert by_pair.objects(bound) == objs
        assert [g for a in objs for b in objs for g in by_pair.hom(a, b)] == legs
        rows = 0
        for q in objs:
            for g in legs:
                want = {h: by_pair.compose(g, h) for h in by_pair.hom(q, by_pair.dom(g))}
                assert fincat._post_row(by_row, q, g) == want
                rows += len(want) > 1
        assert rows


# ---------------------------------------------------------------------------
# The functor laws by rows yield what they yield pair by pair
# ---------------------------------------------------------------------------

def _functor_outcome(laws, *args):
    """The pairs a functor-law body yields, and what it raises, by type and text."""
    out = []
    try:
        for w in laws(*args):
            out.append(w)
    except Exception as exc:  # noqa: BLE001 -- the type and text are compared
        return out, (type(exc), str(exc))
    return out, None


def _pairwise_blocks(mors):
    """The composable pairs of ``mors`` as blocks of one f each, in order."""
    out_of: dict = {}
    for m, a, _b in mors:
        out_of.setdefault(a, []).append(m)
    return [([f], out_of.get(b, [])) for f, _a, b in mors]


def assert_functor_rows_match_pairs(src, dst, on_obj, on_mor, objects, mors):
    """The functor laws over the composable pairs of ``mors``, a row at a
    time in the blocks of :func:`composable_pairs` and pair by pair in
    blocks of one f; returns the shared outcome."""
    want = _functor_outcome(reference_functor_violations, src, dst, on_obj, on_mor,
                            objects, mors, _pairwise_blocks(mors))
    got = _functor_outcome(functor_violations, src, dst, on_obj, on_mor,
                           objects, mors, composable_pairs(mors))
    assert got == want
    return got


class TestFunctorLawsAgainstTheReference:
    def test_an_object_with_no_image_is_a_violation(self):
        c = one_object_category()
        got = list(functor_violations(c, c, lambda a: None, lambda m: None, ["*"], [], []))
        assert got == [("functor", "no image for object *")]

    @pytest.mark.parametrize("build,mutable", [
        pytest.param(build, mutable, id=name) for name, build, mutable in _suite_categories()])
    def test_every_suite_presentation_with_one_wrong_cell(self, build, mutable):
        src = build()
        mors = [(m, a, b) for (a, b), ms in src.homs.items() for m in ms]
        # str is the identity functor on the keys
        same = assert_functor_rows_match_pairs(src, build(), str, str, src.object_keys, mors)
        assert same == ([], None)
        outcomes = []
        for seed in range(3):
            rng, dst = random.Random(seed), build()
            kinds = ["associativity" if mutable else "hom", "hom"]
            if type(src) is not FinCatPresentation and src.row_rule is None:
                kinds.append("missing")  # a file's table: the reference raises
            if len(dst.homs) > 1:  # else the one composite has nowhere to move
                _mutate_one_composite(dst, kinds[seed % len(kinds)], rng)
            m, a, b = rng.choice(mors)
            moved = rng.choice([None, *dst.homs[(a, b)], *rng.choice(list(dst.homs.values()))])
            for on_mor in (str, lambda k, m=m, moved=moved: moved if k == m else k):
                outcomes.append(assert_functor_rows_match_pairs(
                    src, dst, str, on_mor, src.object_keys, mors))
        assert any(witnesses for witnesses, _raised in outcomes)

    def test_a_raise_after_a_witness_comes_where_the_pairs_meet_it(self):
        src, dst = _table_category(), _table_category()
        mors = [(m, a, b) for (a, b), ms in src.homs.items() for m in ms]
        pairs = [(g, f) for fs, gs in _pairwise_blocks(mors) for f in fs for g in gs]
        wrong = next((g, f) for g, f in pairs
                     if len(dst.homs[(dst.dom(f), dst.cod(g))]) > 1)
        missing = pairs[-1]
        assert pairs.index(wrong) < pairs.index(missing)
        hom = dst.homs[(dst.dom(wrong[1]), dst.cod(wrong[0]))]
        dst.compose_table[wrong] = next(m for m in hom if m != dst.compose(*wrong))
        del dst.compose_table[missing]
        witnesses, raised = assert_functor_rows_match_pairs(
            src, dst, str, str, src.object_keys, mors)
        assert witnesses and raised[0] is KeyError
