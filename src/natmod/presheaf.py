"""Presheaves over finite category presentations and the pullback oracle.

A presheaf assigns a finite set of element keys to every object and a
contravariant action to every morphism.  The central operation is
:func:`check_pullback_square`, which decides by enumeration whether a
square of natural transformations is a pullback.  It and the pullback
checks in a base category and in finite sets apply one finite-set test,
:func:`natmod.fincat.is_set_pullback`.

Functoriality and naturality are checked along the generators of the base
when its laws are known to hold: the morphisms along which each law holds
are closed under composition, so a set that generates every morphism
proves it everywhere.  Write x[f] for the action of f on x and α for a
natural transformation.

* Functoriality along f is x[f∘g] = x[f][g] for every g into dom f and every
  x in P(cod f).  If it holds along f₁ and f₂, every x[m] lies in P(dom m)
  and composition is associative, then

      x[(f₁∘f₂)∘g] = x[f₁][f₂∘g] = x[f₁][f₂][g] = x[f₁∘f₂][g].

* Naturality along f is α(x[f]) = α(x)[f] for every x in P(cod f).  If it
  holds along f₁ and f₂, both presheaves are functorial and α maps each
  P(c) into Q(c), then

      α(x[f₁∘f₂]) = α(x[f₁][f₂]) = α(x[f₁])[f₂] = α(x)[f₁][f₂] = α(x)[f₁∘f₂].

:func:`~natmod.fincat.category_violations` returns such a set for a lawful
base, and ``check_eat`` passes it to Ty and Tm, and to p once Ty and Tm are
functorial.  Every other caller walks every morphism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Optional

from .fincat import FinCatPresentation, FinFunctor, is_set_pullback


@dataclass
class Presheaf:
    """Contravariant finite-set-valued functor on a FinCatPresentation.

    A row of ``action`` may be a read-only mapping that the model shares
    between morphisms (see ``NaturalModel.subst_ty_row``), so rows are read,
    never written.
    """

    base: FinCatPresentation
    values: dict[str, list[str]]
    action: dict[str, Mapping[str, str]]  # morphism -> (element of P(cod) -> element of P(dom))

    def at(self, obj: str) -> list[str]:
        return self.values.get(obj, [])

    def restrict(self, m: str, x: str) -> str:
        """x[m], the action of morphism m on element x of P(cod m)."""
        return self.action[m][x]

    def row(self, m: str) -> Mapping[str, str]:
        """The action of m as a mapping x ↦ x[m]; an element with no cell is
        absent.  It may be a read-only mapping the model shares."""
        return self.action.get(m, {})

    def violations(self, gens: Optional[list[str]] = None) -> Iterator[tuple[str, str]]:
        """Functoriality by enumeration, as (law, witness) pairs.

        The laws are ``identity`` (x[id] = x), ``closure`` (x[m] lies in
        P(dom m)) and ``composition`` (x[f][g] = x[f∘g]).  A missing cell
        reads as None.  Identity and closure are checked on every cell.
        Composition is checked one f at a time: the composites f∘g over the
        gs into dom f are one row of the base, and per g the row of x[f][g]
        over P(cod f) is compared with the row of x[f∘g], and only rows
        that differ are walked to name their elements.

        ``gens`` is a generating set of a lawful base, as
        :func:`~natmod.fincat.category_violations` returns it.  When it is
        given and closure held, composition is checked with f in ``gens``
        only, which suffices by the closure argument of the module
        docstring; if a generator's row differs, every f is walked, so the
        witnesses are those of the check over every f.
        """
        base = self.base
        at = {obj: set(self.at(obj)) for obj in base.object_keys}
        for obj in base.object_keys:
            i = base.identity(obj)
            for x in self.at(obj):
                if _try(self.restrict, i, x) != x:
                    yield "identity", f"identity action fails at {obj!r} on {x!r}"
        mors = base.all_morphisms()
        rows = {m: self.row(m) for m in mors}
        into: dict[str, list[str]] = {obj: [] for obj in base.object_keys}
        closed = True
        for m in mors:
            src, dst = base.dom(m), base.cod(m)
            into[dst].append(m)
            row = rows[m]
            for x in self.at(dst):
                image = row.get(x)
                if image is None:
                    closed = False
                    yield "closure", f"no action of {m!r} on {x!r}"
                elif image not in at[src]:
                    closed = False
                    yield "closure", f"action of {m!r} does not send {x!r} into P({src})"

        def differing(f: str) -> Iterator[str]:
            """The witness of each (g, x) with x[f][g] != x[f∘g]."""
            xs = self.at(base.cod(f))
            x_f = list(map(rows[f].get, xs))
            gs = into[base.dom(f)]
            for g, fg in zip(gs, base.compose_row(f, gs)):
                x_f_g = list(map(rows[g].get, x_f))
                x_fg = list(map((rows[fg] if fg in rows else self.row(fg)).get, xs))
                if x_f_g != x_fg:
                    for x, lhs, rhs in zip(xs, x_f_g, x_fg):
                        if lhs != rhs:
                            yield f"x[f][g] != x[f∘g] for f={f}, g={g}, x={x}"

        if gens is None or not closed or any(next(differing(f), None) for f in gens):
            for f in mors:
                for msg in differing(f):
                    yield "composition", msg

    def check(self) -> list[str]:
        """Functoriality violations, by enumeration; empty list means ok."""
        return [msg for _law, msg in self.violations()]


def _try(fn: Callable[..., str], *args) -> Optional[str]:
    """fn(*args), or None where a table has no such cell or an argument is None."""
    if None in args:
        return None
    try:
        return fn(*args)
    except KeyError:
        return None


@dataclass
class NatTrans:
    """A pointwise map between presheaves over the same base."""

    dom: Presheaf
    cod: Presheaf
    components: dict[str, dict[str, str]]  # object -> (element -> element)

    def apply(self, obj: str, x: str) -> str:
        return self.components[obj][x]

    def describe(self, x: str) -> str:
        """The element x as a witness names it."""
        return repr(x)

    def violations(self, gens: Optional[list[str]] = None) -> Iterator[tuple[str, str]]:
        """Naturality by enumeration, as (law, witness) pairs.

        The laws are ``component`` (each component maps into the codomain)
        and ``naturality`` (the naturality square commutes).

        ``gens`` is a generating set of a lawful base, as
        :func:`~natmod.fincat.category_violations` returns it, over which
        both presheaves are functorial.  When it is given and every
        component maps into the codomain, naturality is checked along the
        morphisms of ``gens`` only, which suffices by the closure argument
        of the module docstring; if it fails along a generator, every
        morphism is walked, so the witnesses are those of the check along
        every morphism.
        """
        base = self.dom.base
        mapped = True
        for obj in base.object_keys:
            comp = self.components.get(obj)
            if comp is None:
                mapped = False
                yield "component", f"no component at {obj!r}"
                continue
            cod = set(self.cod.at(obj))
            for x in self.dom.at(obj):
                if comp.get(x) not in cod:
                    mapped = False
                    yield "component", (
                        f"component at {obj!r} does not send {self.describe(x)} into codomain"
                    )

        def failing(m: str) -> Iterator[str]:
            """The witness of each x on which the square along m fails."""
            src, dst = base.dom(m), base.cod(m)
            for x in self.dom.at(dst):
                lhs = _try(self.cod.restrict, m, _try(self.apply, dst, x))
                rhs = _try(self.apply, src, _try(self.dom.restrict, m, x))
                if lhs is None or lhs != rhs:
                    yield f"naturality fails for {m!r} on {self.describe(x)}"

        mors = base.all_morphisms()
        if gens is None or not mapped or any(next(failing(m), None) for m in gens):
            for m in mors:
                for msg in failing(m):
                    yield "naturality", msg

    def check(self) -> list[str]:
        return [msg for _law, msg in self.violations()]


def identity_nat(p: Presheaf) -> NatTrans:
    return NatTrans(p, p, {obj: {x: x for x in p.at(obj)} for obj in p.base.object_keys})


def compose_nat(g: NatTrans, f: NatTrans) -> NatTrans:
    comps = {
        obj: {x: g.apply(obj, f.apply(obj, x)) for x in f.dom.at(obj)}
        for obj in f.dom.base.object_keys
    }
    return NatTrans(f.dom, g.cod, comps)


class Representable(Presheaf):
    """The representable presheaf hom(-, c).

    Its values are the hom sets.  It keeps no action table: the action is
    precomposition, computed by :meth:`restrict` when asked.
    """

    def __init__(self, base: FinCatPresentation, c: str):
        super().__init__(base, {d: base.hom(d, c) for d in base.object_keys}, {})

    def restrict(self, m: str, x: str) -> str:
        return self.base.compose(x, m)

    def row(self, m: str) -> dict[str, str]:
        out = {}
        for x in self.at(self.base.cod(m)):
            try:
                out[x] = self.restrict(m, x)
            except KeyError:
                pass
        return out


def yoneda(base: FinCatPresentation, c: str) -> Presheaf:
    """The representable presheaf hom(-, c) with precomposition action."""
    return Representable(base, c)


def yoneda_map(base: FinCatPresentation, g: str, src_ps: Presheaf, dst_ps: Presheaf) -> NatTrans:
    """y(g) : y(dom g) -> y(cod g), postcomposition by g."""
    comps = {d: dict(zip(src_ps.at(d), base.compose_row(g, src_ps.at(d))))
             for d in base.object_keys}
    return NatTrans(src_ps, dst_ps, comps)


def element_nat(base: FinCatPresentation, ps: Presheaf, x: str, yon: Presheaf) -> NatTrans:
    """The natural transformation yon -> ps classifying x, with yon = y(c) for x in ps(c)."""
    comps = {d: {h: ps.restrict(h, x) for h in yon.at(d)} for d in base.object_keys}
    return NatTrans(yon, ps, comps)


def elements_cat(p: Presheaf) -> tuple[FinCatPresentation, FinFunctor]:
    """The category of elements of p, with its projection functor."""
    base = p.base
    objs = []
    for c in base.object_keys:
        for x in p.at(c):
            objs.append(f"el({c}|{x})")
    homs: dict[tuple[str, str], list[str]] = {}
    identities: dict[str, str] = {}
    obj_map: dict[str, str] = {}
    mor_map: dict[str, str] = {}

    def el_mor(m: str, src_el: str, dst_el: str) -> str:
        return f"{src_el}=>{dst_el}:{m}"

    for c in base.object_keys:
        for x in p.at(c):
            src_el = f"el({c}|{x})"
            obj_map[src_el] = c
            for d in base.object_keys:
                for y in p.at(d):
                    dst_el = f"el({d}|{y})"
                    ms = []
                    for m in base.hom(c, d):
                        if p.restrict(m, y) == x:
                            k = el_mor(m, src_el, dst_el)
                            ms.append(k)
                            mor_map[k] = m
                    if ms:
                        homs[(src_el, dst_el)] = ms
    for c in base.object_keys:
        for x in p.at(c):
            el = f"el({c}|{x})"
            identities[el] = el_mor(base.identity(c), el, el)

    def rule(g: str, f: str) -> str:
        return el_mor(base.compose(mor_map[g], mor_map[f]), cat.dom(f), cat.cod(g))

    cat = FinCatPresentation(
        object_keys=objs, homs=homs, compose_table={}, identities=identities,
        terminal_key=None, compose_rule=rule,
    )
    # the rule reads mor_map, so the functor gets a table of its own
    proj = FinFunctor(cat, base, obj_map, dict(mor_map))
    return cat, proj


def check_pullback_square(f: NatTrans, x: NatTrans, top: NatTrans, left: NatTrans) -> bool:
    """Decide whether the square below is a pullback, pointwise.

    ::

        P --top--> Y
        |          |
      left         f
        v          v
        X ---x---> U

    At every base object D, the canonical map
    P(D) -> {(u,v) in X(D) x Y(D) : x(u) = f(v)} must be a bijection.

    The four maps must be natural: the verdict is pointwise, and for maps
    that are not natural it can differ from the universal property, which
    rejects such a square.  Who guarantees it: for p,
    equation (xviii) of ``check_eat``; for the formers and introduction maps
    of Σ and Π, (ii) and (iv), reported beside the verdict by
    ``natmodel._square_report``; for the maps built by ``element_nat``,
    ``yoneda_map`` and ``identity_nat``, their construction over functorial
    presheaves.
    """
    if left.dom is not top.dom or x.dom is not left.cod or f.dom is not top.cod:
        raise ValueError("pullback square shape mismatch")
    if x.cod is not f.cod:
        raise ValueError("pullback square shape mismatch: different codomains")
    return all(
        is_set_pullback(
            top.dom.at(d), left.components[d].__getitem__, top.components[d].__getitem__,
            x.dom.at(d), x.components[d].__getitem__, f.dom.at(d), f.components[d].__getitem__,
        )
        for d in x.dom.base.object_keys
    )


@dataclass
class RepresentabilityWitness:
    obj: str
    element: str
    witness_obj: Optional[str] = None
    witness_mor: Optional[str] = None
    witness_elem: Optional[str] = None

    @property
    def found(self) -> bool:
        return self.witness_obj is not None


@dataclass
class RepresentabilityReport:
    bound_note: str
    entries: list[RepresentabilityWitness] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(e.found for e in self.entries)

    def failures(self) -> list[RepresentabilityWitness]:
        return [e for e in self.entries if not e.found]


def is_representable(p: NatTrans) -> RepresentabilityReport:
    """Search representability data for every fibre of p, in deterministic order.

    For each object Γ and each A in cod(p)(Γ), candidate witnesses
    (B, g : B -> Γ, y in dom(p)(B)) are tried in enumeration order — objects
    by position, then morphisms, then elements — and the first one whose
    square passes :func:`check_pullback_square` is recorded.  The report
    carries the truncation caveat: conclusions hold for the materialized
    base only.
    """
    base = p.dom.base
    yons = {d: yoneda(base, d) for d in base.object_keys}
    report = RepresentabilityReport(
        bound_note=f"verified up to the materialized base of {len(base.object_keys)} objects",
    )
    for gamma in base.object_keys:
        for a in p.cod.at(gamma):
            entry = RepresentabilityWitness(gamma, a)
            x_nt = element_nat(base, p.cod, a, yons[gamma])
            for b_obj in base.object_keys:
                if entry.found:
                    break
                for g in base.hom(b_obj, gamma):
                    if entry.found:
                        break
                    left = yoneda_map(base, g, yons[b_obj], yons[gamma])
                    for y in p.dom.at(b_obj):
                        top = element_nat(base, p.dom, y, yons[b_obj])
                        if check_pullback_square(p, x_nt, top, left):
                            entry.witness_obj = b_obj
                            entry.witness_mor = g
                            entry.witness_elem = y
                            break
            report.entries.append(entry)
    return report


def sum_presheaves(ps: list[Presheaf]) -> tuple[Presheaf, list[NatTrans]]:
    """Pointwise disjoint union, with the coproduct injections."""
    if not ps:
        raise ValueError("need at least one presheaf")
    base = ps[0].base
    tag = lambda i, x: f"i{i}:{x}"
    values = {
        obj: [tag(i, x) for i, p in enumerate(ps) for x in p.at(obj)]
        for obj in base.object_keys
    }
    action: dict[str, dict[str, str]] = {}
    for m in base.all_morphisms():
        amap = {}
        for i, p in enumerate(ps):
            for x in p.at(base.cod(m)):
                amap[tag(i, x)] = tag(i, p.restrict(m, x))
        action[m] = amap
    total = Presheaf(base, values, action)
    injections = [
        NatTrans(p, total, {obj: {x: tag(i, x) for x in p.at(obj)} for obj in base.object_keys})
        for i, p in enumerate(ps)
    ]
    return total, injections


def sum_nat_trans(fs: list[NatTrans]) -> NatTrans:
    """The coproduct of parallel families of natural transformations."""
    dom = sum_presheaves([f.dom for f in fs])[0]
    cod = sum_presheaves([f.cod for f in fs])[0]
    base = dom.base
    comps: dict[str, dict[str, str]] = {}
    for obj in base.object_keys:
        cmap = {}
        for i, f in enumerate(fs):
            for x in f.dom.at(obj):
                cmap[f"i{i}:{x}"] = f"i{i}:{f.apply(obj, x)}"
        comps[obj] = cmap
    return NatTrans(dom, cod, comps)


def pullback_presheaves(f: NatTrans, g: NatTrans) -> tuple[Presheaf, NatTrans, NatTrans]:
    """Pointwise fibre product of f : X -> Z and g : Y -> Z, with projections."""
    if f.cod is not g.cod:
        raise ValueError("pullback requires a common codomain")
    base = f.dom.base
    pair = lambda x, y: f"({x}|{y})"
    values: dict[str, list[str]] = {}
    pairs: dict[str, list[tuple[str, str]]] = {}
    for obj in base.object_keys:
        ps = [
            (x, y)
            for x in f.dom.at(obj)
            for y in g.dom.at(obj)
            if f.apply(obj, x) == g.apply(obj, y)
        ]
        pairs[obj] = ps
        values[obj] = [pair(x, y) for x, y in ps]
    action: dict[str, dict[str, str]] = {}
    for m in base.all_morphisms():
        action[m] = {
            pair(x, y): pair(f.dom.restrict(m, x), g.dom.restrict(m, y))
            for x, y in pairs[base.cod(m)]
        }
    apex = Presheaf(base, values, action)
    proj1 = NatTrans(apex, f.dom, {o: {pair(x, y): x for x, y in pairs[o]} for o in base.object_keys})
    proj2 = NatTrans(apex, g.dom, {o: {pair(x, y): y for x, y in pairs[o]} for o in base.object_keys})
    return apex, proj1, proj2

