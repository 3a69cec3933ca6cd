"""Shared builders for small hand-made categories used across the test suite,
a model's presheaves with every row built, element-by-element reference forms of
the polynomial maps, the per-construction forms of the free extensions'
inclusions, the category laws checked one triple at a time, functoriality
and naturality checked along every morphism, the functor laws checked pair
by pair, the pullback of presheaves checked against every representable
cone, composition in (Fin/I)^op read back out of the keys, a one-object
model file, the searching reference for the classified morphisms, the
extension-square oracle read off every row, and a deadline that makes a hang
fail its test."""

from __future__ import annotations

import contextlib
import itertools
import json
import operator
import signal

from natmod.fincat import FinCatPresentation
from natmod.freemodel import TermTree, TypeTree
from natmod.morphism import ForcedImages
from natmod.natmodel import SquareOracleReport, canonical_pullback, model_presheaves
from natmod.presheaf import (
    NatTrans,
    check_pullback_square,
    compose_nat,
    element_nat,
    yoneda,
    yoneda_map,
)
from natmod.polyset import compose, extend, fin_map


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise TimeoutError in the enclosed block once it has run ``seconds``,
    so a computation that does not return fails its test instead of stalling
    the suite.  A SIGALRM timer: main thread only, and no deadlines nest."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def poset_category(elements, leq) -> FinCatPresentation:
    """The category of a finite poset: one morphism a->b iff leq(a, b)."""
    objs = [str(e) for e in elements]
    homs = {}
    identities = {}
    for a in elements:
        for b in elements:
            if leq(a, b):
                homs[(str(a), str(b))] = [f"{a}<={b}"]
    for a in elements:
        identities[str(a)] = f"{a}<={a}"

    def rule(g: str, fs: list[str]) -> list[str]:
        dst = g.split("<=")[1]
        return [f"{f.split('<=')[0]}<={dst}" for f in fs]

    tops = [a for a in elements if all(leq(b, a) for b in elements)]
    return FinCatPresentation(
        object_keys=objs,
        homs=homs,
        compose_table={},
        identities=identities,
        terminal_key=str(tops[0]) if tops else None,
        row_rule=rule,
    )


def diamond_lattice() -> FinCatPresentation:
    """The four-element lattice 0 < a, b < 1 (a, b incomparable)."""

    order = {
        ("0", "0"), ("0", "a"), ("0", "b"), ("0", "1"),
        ("a", "a"), ("a", "1"),
        ("b", "b"), ("b", "1"),
        ("1", "1"),
    }
    return poset_category(["0", "a", "b", "1"], lambda x, y: (x, y) in order)


def chain_poset(n: int) -> FinCatPresentation:
    """The linear order 0 <= 1 <= ... <= n-1 as a category."""
    return poset_category(list(range(n)), lambda x, y: x <= y)


def one_object_category() -> FinCatPresentation:
    return FinCatPresentation(
        object_keys=["*"],
        homs={("*", "*"): ["id*"]},
        compose_table={("id*", "id*"): "id*"},
        identities={"*": "id*"},
        terminal_key="*",
    )


def broken_unit_category() -> FinCatPresentation:
    """Two objects with a composition table violating a unit law."""
    homs = {
        ("x", "x"): ["idx"],
        ("y", "y"): ["idy", "e"],
        ("x", "y"): ["f"],
    }
    table = {
        ("idx", "idx"): "idx",
        ("idy", "idy"): "idy",
        ("e", "e"): "e",
        ("e", "idy"): "e",
        ("idy", "e"): "e",
        ("f", "idx"): "f",
        ("idy", "f"): "f",
        ("e", "f"): "f",
    }
    # break the right unit law for e: e ∘ idy should be e, redirect it
    table[("e", "idy")] = "idy"
    return FinCatPresentation(
        object_keys=["x", "y"],
        homs=homs,
        compose_table=table,
        identities={"x": "idx", "y": "idy"},
        terminal_key=None,
    )


def one_object_file(tys: list[str]) -> str:
    """A model file with one object *, whose only morphism is its identity,
    and one term per type, each type extending * to itself by the identity."""
    return json.dumps({
        "objects": ["*"], "homs": [{"src": "*", "dst": "*", "mors": ["id"]}],
        "compose": [{"g": "id", "f": "id", "gf": "id"}], "identities": {"*": "id"},
        "terminal": "*", "ty": {"*": tys}, "tm": {"*": [f"v{t}" for t in tys]},
        "typeof": [{"ctx": "*", "term": f"v{t}", "type": t} for t in tys],
        "subst_ty": [{"mor": "id", "type": t, "out": t} for t in tys],
        "subst_tm": [{"mor": "id", "term": f"v{t}", "out": f"v{t}"} for t in tys],
        "ext": [{"ctx": "*", "type": t, "extended": "*", "proj": "id", "var": f"v{t}"}
                for t in tys],
    })


def finite_sets_model(max_fibre: int = 2):
    """The standard model on finite sets, as a bounded generator.

    Contexts are finite cardinalities (the terminal context is the
    singleton), substitutions are all functions, a type over n is a family
    of fibre sizes bounded by ``max_fibre``, and a term is a choice of an
    element in each fibre.  Extension is the disjoint sum of the fibres in
    lexicographic layout.  Types here genuinely depend on the context, so
    substitution acts non-trivially.
    """
    from natmod.fincat import Registry, RegistryCategory
    from natmod.natmodel import ExtensionData, NaturalModel, _read

    class FinSets(RegistryCategory):
        """An object is its cardinality n, spelled ``set{n}``; a morphism's
        payload is its function as a tuple, spelled ``src=>dst:(…)``."""

        def spell_obj(self, n):
            return f"set{n}"

        def spell_mor(self, cell):
            return "%s=>%s:%s" % cell

        @property
        def terminal(self):
            return self.objs.key(1)

        def obj_size(self, a):
            return self.objs.cell(a)

        def objects(self, bound):
            return [self.objs.key(n) for n in range(bound + 1)]

        def _hom_payloads(self, a, b):
            return itertools.product(range(self.objs.cell(b)), repeat=self.objs.cell(a))

        def identity(self, a):
            return self.mors.key((a, a, tuple(range(self.objs.cell(a)))))

        def compose(self, g, f):
            gf, ff = self.mor_payload(g), self.mor_payload(f)
            return self.mors.key((self.dom(f), self.cod(g), tuple(gf[v] for v in ff)))

    class FiniteSetsModel(NaturalModel):
        """A type is its family of fibre sizes, spelled ``fam(…)``, and a
        term its family and section, spelled ``sec(…)|(…)``."""

        def __init__(self):
            self.base = FinSets()
            self.max_fibre = max_fibre
            self.tys = Registry("fam{}".format)
            self.tms = Registry("sec%s|%s".__mod__)

        def _fam(self, ty):
            return _read(self.tys, ty)

        def _sec(self, tm):
            return _read(self.tms, tm)

        def _over(self, key, fam, ctx):
            """Refuse the cell ``key`` of family ``fam`` unless it lies over ``ctx``."""
            if len(fam) != self.base.obj_size(ctx):
                raise ValueError(f"{key} is not a cell over {ctx}")

        def types(self, ctx, bound):
            n = self.base.obj_size(ctx)
            return [self.tys.key(fam)
                    for fam in itertools.product(range(self.max_fibre + 1), repeat=n)]

        def terms(self, ctx, bound):
            out = []
            for ty in self.types(ctx, bound):
                fam = self._fam(ty)
                for sec in itertools.product(*(range(k) for k in fam)):
                    out.append(self.tms.key((fam, sec)))
            return out

        def typeof(self, ctx, term):
            fam, _ = self._sec(term)
            self._over(term, fam, ctx)
            return self.tys.key(fam)

        def subst_ty(self, sigma, ty):
            fam = self._fam(ty)
            self._over(ty, fam, self.base.cod(sigma))
            fn = self.base.mor_payload(sigma)
            return self.tys.key(tuple(fam[v] for v in fn))

        def subst_tm(self, sigma, term):
            fam, sec = self._sec(term)
            self._over(term, fam, self.base.cod(sigma))
            fn = self.base.mor_payload(sigma)
            return self.tms.key((tuple(fam[v] for v in fn), tuple(sec[v] for v in fn)))

        def ext(self, ctx, ty):
            fam = self._fam(ty)
            self._over(ty, fam, ctx)
            extended = self.base.objs.key(sum(fam))
            proj = []
            var = []
            for x, k in enumerate(fam):
                proj.extend([x] * k)
                var.extend(range(k))
            wk_fam = tuple(fam[x] for x in proj)
            return ExtensionData(
                extended,
                self.base.mors.key((extended, ctx, tuple(proj))),
                self.tms.key((wk_fam, tuple(var))),
            )

        def indsub(self, sigma, term, ty):
            fam = self._fam(ty)
            self._over(ty, fam, self.base.cod(sigma))
            offsets = list(itertools.accumulate(fam, initial=0))
            fn = self.base.mor_payload(sigma)
            term_fam, sec = self._sec(term)
            self._over(term, term_fam, self.base.dom(sigma))
            out = tuple(offsets[fn[d]] + sec[d] for d in range(len(fn)))
            e = self.ext(self.base.cod(sigma), ty)
            return self.base.mors.key((self.base.dom(sigma), e.extended, out))

    return FiniteSetsModel()


def propositions_model():
    """``finite_sets_model(1)``, the model of propositions in finite sets, with
    unit, Σ and Π types.

    Every fibre has size 0 or 1, so a type has at most one term.  With o_x
    the offset of A's fibre x in Γ•A, Σ(A, B)_x is B at o_x if A_x = 1 and 0
    otherwise, and Π(A, B)_x is B at o_x if A_x = 1 and 1 otherwise.  The
    model carries ``unit_structure``, ``sigma_structure`` and
    ``pi_structure``; pair, λ, split and app return the unique term of their
    type, and split raises ValueError where A has no term.
    """
    from natmod.natmodel import PiStructure, SigmaStructure, UnitStructure, section

    m = finite_sets_model(1)

    def former(empty_fibre):
        def fn(ctx, ty_a, ty_b):
            fam_a, fam_b = m._fam(ty_a), m._fam(ty_b)
            offsets = itertools.accumulate(fam_a, initial=0)
            return m.tys.key(tuple(fam_b[o] if k else empty_fibre
                                   for k, o in zip(fam_a, offsets)))
        return fn

    def the_term(ty):
        fam = m._fam(ty)
        return m.tms.key((fam, (0,) * len(fam)))

    def at_arg(ctx, ty_b, a):
        return the_term(m.subst_ty(section(m, ctx, a), ty_b))  # B[⟨id, a⟩]

    sigma, pi = former(0), former(1)

    def split(ctx, ty_a, ty_b, t):
        if m.typeof(ctx, t) != sigma(ctx, ty_a, ty_b) or 0 in m._fam(ty_a):
            raise ValueError(f"{t!r} is no pair of ({ty_a}, {ty_b}) over {ctx}")
        a = the_term(ty_a)
        return a, at_arg(ctx, ty_b, a)

    m.unit_structure = UnitStructure(m.tys.key((1,)), m.tms.key(((1,), (0,))))
    m.sigma_structure = SigmaStructure(
        sigma, lambda ctx, ty_a, ty_b, a, b: the_term(sigma(ctx, ty_a, ty_b)), split
    )
    m.pi_structure = PiStructure(
        pi,
        lambda ctx, ty_a, ty_b, b: the_term(pi(ctx, ty_a, ty_b)),
        lambda ctx, ty_a, ty_b, f, a: at_arg(ctx, ty_b, a),
    )
    return m


# ---------------------------------------------------------------------------
# Reference polynomial maps, built one element at a time
# ---------------------------------------------------------------------------

def reference_extend_map(p, family, family2, maps) -> dict:
    """P_p(φ) per index, mapping each value of each section on its own."""
    ext1 = extend(p, family)
    ext2 = extend(p, family2)
    sd = p.s.as_dict

    def act(el):
        a, sec = el
        return (a, tuple((b, maps[sd[b]](v)) for b, v in sec))

    return {j: fin_map(ext1[j], ext2[j], act) for j in p.J}


def reference_composition_iso(g, f, family) -> dict:
    """P_{g·f}(X) ≅ P_g(P_f(X)) per index, as a (forward, backward) pair of
    maps that regroup each element's section by lookups in the fibres."""
    lhs = extend(compose(g, f), family)
    rhs = extend(g, extend(f, family))

    def fwd(el):
        (c, m), sec = el
        md = dict(m)
        secd = dict(sec)
        outer = tuple(
            (d, (md[d], tuple((b, secd[(c, m, d, b)]) for b in f.fibre(md[d]))))
            for d in g.fibre(c)
        )
        return (c, outer)

    def bwd(el):
        c, outer = el
        m = tuple((d, pair[0]) for d, pair in outer)
        outer_d = dict(outer)
        sec = []
        for d, a in m:
            inner = dict(outer_d[d][1])
            for b in f.fibre(a):
                sec.append(((c, m, d, b), inner[b]))
        return ((c, m), tuple(sec))

    return {k: (fin_map(lhs[k], rhs[k], fwd), fin_map(rhs[k], lhs[k], bwd)) for k in g.J}


# The inclusions of the inner model, one per construction, as they were
# written before the free extensions gave them one form over the hooks
# i_obj, i_ty, i_tm and i_payload.

def reference_term_inclusion(ext):
    """The strict inclusion of the inner model into its term extension."""
    inner = ext.inner

    def root_obj(ctx: str) -> str:
        return ext.i_obj(ctx)

    def ty_map(d, ctx: str, ty: str) -> str:
        return inner.subst_ty(ext._o_ext(ctx).proj, ty)

    def tm_map(d, ctx: str, tm: str) -> str:
        return inner.subst_tm(ext._o_ext(ctx).proj, tm)

    def root_mor(d, m: str) -> str:
        o_at = inner.subst_ty(inner.t(inner.base.cod(m)), ext.o_ty)
        return ext.base.mors.key((
            d.on_obj(inner.base.dom(m)), d.on_obj(inner.base.cod(m)),
            (canonical_pullback(inner, m, o_at),),
        ))

    return ForcedImages(inner, ext, root_obj, root_mor, ty_map, tm_map).morphism("I")


def reference_interleaved_inclusion(ext):
    """The strict inclusion of the inner model into an interleaved extension."""
    inner = ext.inner
    cat = ext.base

    def root_obj(ctx: str) -> str:
        return cat.register(ctx, (0,), ())

    def ty_map(d, ctx: str, ty: str) -> str:
        return ty

    def tm_map(d, ctx: str, tm: str) -> str:
        return tm

    def root_mor(d, m: str) -> str:
        return cat.mors.key((
            d.on_obj(inner.base.dom(m)), d.on_obj(inner.base.cod(m)), (m, ()),
        ))

    return ForcedImages(inner, ext, root_obj, root_mor, ty_map, tm_map).morphism("I")


def reference_sigma_inclusion(ext):
    """The strict inclusion of the inner model into its tree extension."""
    inner = ext.inner

    def root_obj(ctx: str) -> str:
        return ext.base.register(ctx, ())

    def ty_map(d, ctx: str, ty: str) -> str:
        return ext.tys.key(TypeTree(leaf=ty))

    def tm_map(d, ctx: str, tm: str) -> str:
        return ext.tms.key(TermTree(leaf=tm))

    def root_mor(d, m: str) -> str:
        return ext.base.mors.key((
            d.on_obj(inner.base.dom(m)), d.on_obj(inner.base.cod(m)), (m,),
        ))

    return ForcedImages(inner, ext, root_obj, root_mor, ty_map, tm_map).morphism("I")


def reference_category_violations(c, objects):
    """The category laws as :func:`natmod.fincat.category_violations`
    yields them, with associativity compared one triple at a time over
    every middle morphism: the definition that the row comparison and the
    generating set must reproduce witness for witness."""
    ends, by_src, by_dst = {}, {a: [] for a in objects}, {a: [] for a in objects}
    for a in objects:
        for b in objects:
            for m in c.hom(a, b):
                if m in ends and ends[m] != (a, b):
                    yield "hom-sets", f"morphism {m!r} appears in hom{ends[m]} and hom{(a, b)}"
                ends[m] = (a, b)
                by_src[a].append(m)
                by_dst[b].append(m)
    ids = {}
    for a in objects:
        try:
            ids[a] = c.identity(a)
        except KeyError:
            yield "dom-id", f"object {a!r} has no identity"
            continue
        where = ends.get(ids[a])
        if where != (a, a):
            law = "cod-id" if where and where[0] == a else "dom-id"
            yield law, f"identity of {a!r} is not in hom({a},{a})"
    comp = {}
    for f, (fs, ft) in ends.items():
        for g in by_src[ft]:
            gt = ends[g][1]
            try:
                gf = c.compose(g, f)
            except KeyError:
                yield "dom-comp", f"no composite recorded for ({g}, {f})"
                continue
            where = ends.get(gf)
            if where != (fs, gt):
                law = "cod-comp" if where and where[0] == fs else "dom-comp"
                yield law, f"composite {g} ∘ {f} = {gf!r} missing from hom({fs},{gt})"
                continue
            comp[(g, f)] = gf
    for m, (src, dst) in ends.items():
        if src in ids and comp.get((m, ids[src])) != m:
            yield "unit-right", f"unit law: {m} ∘ id_{src} != {m}"
        if dst in ids and comp.get((ids[dst], m)) != m:
            yield "unit-left", f"unit law: id_{dst} ∘ {m} != {m}"
    for g, (gs, gt) in ends.items():
        into = [(f, comp[(g, f)]) for f in by_dst[gs] if (g, f) in comp]
        for h in by_src[gt]:
            hg = comp.get((h, g))
            for f, gf in into:
                if comp.get((h, gf)) != comp.get((hg, f)):
                    yield "associativity", f"associativity fails on ({h}, {g}, {f})"
    t = c.terminal
    if t is not None:
        for a in objects:
            n = len(c.hom(a, t))
            if n != 1:
                yield "terminal", f"terminal: |hom({a},{t})| = {n}, expected 1"


def reference_functor_violations(src, dst, on_obj, on_mor, objects, morphisms, blocks):
    """The functor laws as :func:`natmod.fincat.functor_violations` yields
    them, with composition compared pair by pair, f by f over each block:
    the definition that comparing a block a row at a time must reproduce
    witness for witness, raising what it raises where it raises it."""
    for a in objects:
        fa = on_obj(a)
        if fa is None:
            yield "functor", f"no image for object {a}"
        elif on_mor(src.identity(a)) != dst.identity(fa):
            yield "functor", f"identity of {a} not preserved"
    misplaced = set()
    for m, a, b in morphisms:
        im = on_mor(m)
        if im is None:
            yield "functor", f"no image for morphism {m}"
        elif dst.dom(im) != on_obj(a) or dst.cod(im) != on_obj(b):
            yield "functor", f"image of {m} has wrong endpoints"
        else:
            continue
        misplaced.add(m)
    for fs, gs in blocks:
        if misplaced:
            gs = [g for g in gs if g not in misplaced]
        f_gs = list(map(on_mor, gs))
        for f in fs:
            if f in misplaced:
                continue
            f_f = on_mor(f)
            lhs = map(on_mor, map(src.compose, gs, itertools.repeat(f)))
            rhs = map(dst.compose, f_gs, itertools.repeat(f_f))
            for g in itertools.compress(gs, map(operator.ne, lhs, rhs)):
                yield "functor", f"composition not preserved on ({g}, {f})"
    return misplaced


def check_pullback_square_by_cones(
    f: NatTrans, x: NatTrans, top: NatTrans, left: NatTrans
) -> bool:
    """The pullback verifier that chases the universal property, the
    reference for :func:`natmod.presheaf.check_pullback_square`.

    Enumerates every cone whose apex is a representable presheaf y(D) —
    i.e. every pair of natural transformations a : y(D) -> X, b : y(D) -> Y
    with x∘a = f∘b, built from elements via Yoneda — and demands exactly
    one mediating natural transformation into the candidate apex.  This
    re-derives the answer of :func:`check_pullback_square` from the
    definition rather than from the fibrewise-bijection shortcut.  The
    definition is about natural transformations, so a square one of whose
    four maps is not natural is no pullback.
    """
    if any(next(nt.violations(), None) is not None for nt in (f, x, top, left)):
        return False
    base = x.dom.base
    p = top.dom
    yons = {d: yoneda(base, d) for d in base.object_keys}
    for d in base.object_keys:
        yd = yons[d]
        for u in x.dom.at(d):
            a = element_nat(base, x.dom, u, yd)
            for v in f.dom.at(d):
                b = element_nat(base, f.dom, v, yd)
                lhs = compose_nat(x, a)
                rhs = compose_nat(f, b)
                if any(
                    lhs.apply(e, h) != rhs.apply(e, h)
                    for e in base.object_keys for h in yd.at(e)
                ):
                    continue
                mediating = 0
                for z in p.at(d):
                    med = element_nat(base, p, z, yd)
                    la = compose_nat(left, med)
                    tb = compose_nat(top, med)
                    if all(
                        la.apply(e, h) == a.apply(e, h) and tb.apply(e, h) == b.apply(e, h)
                        for e in base.object_keys for h in yd.at(e)
                    ):
                        mediating += 1
                if mediating != 1:
                    return False
    # commutativity of the candidate square itself
    for d in base.object_keys:
        for z in p.at(d):
            if x.apply(d, left.apply(d, z)) != f.apply(d, top.apply(d, z)):
                return False
    return True


def slice_parts(m: str) -> tuple[str, str, tuple[int, ...]]:
    """(dom, cod, function) of a (Fin/I)^op morphism key, parsed from the key."""
    ends, inner = m.rsplit(":(", 1)
    src, dst = ends.split("=>", 1)
    inner = inner[:-1]
    return src, dst, tuple(int(s) for s in inner.split(",")) if inner else ()


def reference_slice_compose(g: str, f: str) -> str:
    """g∘f in (Fin/I)^op from the keys alone: both keys parsed and the
    composite's key spelled here, independently of
    :meth:`natmod.fincat.FinSliceOpposite.compose`, which looks composites
    up in its registry."""
    y, z, gb = slice_parts(g)
    x, y_f, fb = slice_parts(f)
    if y != y_f:
        raise ValueError(f"not composable: {g} after {f}")
    return f"{x}=>{z}:(" + ",".join(str(fb[k]) for k in gb) + ")"


def _attempt(fn, *args):
    """fn(*args), or None where a table has no such cell or an argument is None."""
    if None in args:
        return None
    try:
        return fn(*args)
    except KeyError:
        return None


def reference_presheaf_violations(p):
    """Functoriality as :meth:`natmod.presheaf.Presheaf.violations` yields
    it, with composition checked for every composable pair (f, g), one pair
    at a time: the definition that checking along generators must
    reproduce witness for witness."""
    base = p.base
    at = {obj: set(p.at(obj)) for obj in base.object_keys}
    for obj in base.object_keys:
        i = base.identity(obj)
        for x in p.at(obj):
            if _attempt(p.restrict, i, x) != x:
                yield "identity", f"identity action fails at {obj!r} on {x!r}"
    mors = base.all_morphisms()
    rows = {m: p.row(m) for m in mors}
    into = {obj: [] for obj in base.object_keys}
    for m in mors:
        src, dst = base.dom(m), base.cod(m)
        into[dst].append(m)
        row = rows[m]
        for x in p.at(dst):
            image = row.get(x)
            if image is None:
                yield "closure", f"no action of {m!r} on {x!r}"
            elif image not in at[src]:
                yield "closure", f"action of {m!r} does not send {x!r} into P({src})"
    for f in mors:
        xs = p.at(base.cod(f))
        x_f = list(map(rows[f].get, xs))
        for g in into[base.dom(f)]:
            fg = base.compose(f, g)
            x_f_g = list(map(rows[g].get, x_f))
            x_fg = list(map((rows[fg] if fg in rows else p.row(fg)).get, xs))
            if x_f_g != x_fg:
                for x, lhs, rhs in zip(xs, x_f_g, x_fg):
                    if lhs != rhs:
                        yield "composition", f"x[f][g] != x[f∘g] for f={f}, g={g}, x={x}"


def reference_nat_trans_violations(nt):
    """Naturality as :meth:`natmod.presheaf.NatTrans.violations` yields it,
    checked along every morphism."""
    base = nt.dom.base
    for obj in base.object_keys:
        comp = nt.components.get(obj)
        if comp is None:
            yield "component", f"no component at {obj!r}"
            continue
        cod = set(nt.cod.at(obj))
        for x in nt.dom.at(obj):
            if comp.get(x) not in cod:
                yield "component", (
                    f"component at {obj!r} does not send {nt.describe(x)} into codomain"
                )
    for m in base.all_morphisms():
        src, dst = base.dom(m), base.cod(m)
        for x in nt.dom.at(dst):
            lhs = _attempt(nt.cod.restrict, m, _attempt(nt.apply, dst, x))
            rhs = _attempt(nt.apply, src, _attempt(nt.dom.restrict, m, x))
            if lhs is None or lhs != rhs:
                yield "naturality", f"naturality fails for {m!r} on {nt.describe(x)}"


def reference_classified(model, bound: int) -> dict:
    """σ ↦ (A, h) as :func:`natmod.morphism.classified_morphisms` finds
    them, by searching hom(Γ•A, Γ') for an h with σ∘h = p_A and asking
    ``is_iso`` of each: the definition that reading the inverse candidates
    through ``induced_sub`` must reproduce, up to the choice of h."""
    base = model.base
    ps = model_presheaves(model, bound, bound)
    ctxs = ps.cat.object_keys
    out = {}
    for gp in ctxs:
        for g in ctxs:
            for sigma in ps.cat.homs.get((gp, g), ()):
                for ty in ps.ty.values[g]:
                    e = model.ext(g, ty)
                    h = next((h for h in base.hom(e.extended, gp)
                              if base.compose(sigma, h) == e.proj
                              and base.is_iso(h) is not None), None)
                    if h is not None:
                        out[sigma] = (ty, h)
                        break
    return out


def with_every_row(ps):
    """``ps`` with every row of Ty and Tm built, as a reader of whole rows
    builds them; ``action`` then holds them all."""
    for m in ps.cat.all_morphisms():
        ps.ty.row(m)
        ps.tm.row(m)
    return ps


def reference_extension_square_oracle(model, ctx_bound: int, ty_bound: int,
                                      square_ctx_bound: int) -> SquareOracleReport:
    """:func:`natmod.natmodel.extension_square_oracle` read off every
    substitution row of ``model_presheaves``, built before any square: the
    two element maps of a square restrict A and q_A along the rows, so a q_A
    outside Tm(Γ•A) has no row entry and fails its square.  The oracle that
    reads only the cells its squares use must reproduce its report."""
    ps = with_every_row(model_presheaves(model, ctx_bound, ty_bound))
    yons = {}
    report = SquareOracleReport(ctx_bound, ty_bound)
    in_cat = set(ps.cat.object_keys)
    for g in model.base.objects(square_ctx_bound):
        for a_ty in model.types(g, ty_bound):
            e = model.ext(g, a_ty)
            if e.extended not in in_cat:
                report.skipped.append((g, a_ty))
                continue
            report.checked.append((g, a_ty))
            for d in (g, e.extended):
                if d not in yons:
                    yons[d] = yoneda(ps.cat, d)
            try:
                x_nt = element_nat(ps.cat, ps.ty, a_ty, yons[g])
                top = element_nat(ps.cat, ps.tm, e.var, yons[e.extended])
                left = yoneda_map(ps.cat, e.proj, yons[e.extended], yons[g])
                is_pullback = check_pullback_square(ps.p, x_nt, top, left)
            except KeyError:
                is_pullback = False
            if not is_pullback:
                report.failed.append((g, a_ty))
    return report
