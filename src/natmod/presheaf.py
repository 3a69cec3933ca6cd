"""Presheaves over finite category presentations and the pullback oracle.

A presheaf assigns a finite set of element keys to every object and a
contravariant action to every morphism, as tables or as a rule whose rows
are built on first read: a model's Ty and Tm have one materialization,
``natmodel.model_presheaves``, whose rule is the model's substitution.
The central operation is
:func:`check_pullback_square`, which decides by enumeration whether a
square of natural transformations is a pullback.  It and the pullback
checks in a base category and in finite sets apply one finite-set test,
:func:`natmod.fincat.is_set_pullback`.

A natural model is a representable map p: :func:`represents` is the one
place that builds and decides the square in which (B, g, y) represents the
fibre of p over a, and :func:`is_representable` finds the first such
witness of every fibre, with a :class:`~natmod.report.Findings` over them.

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

The sums, pullbacks and categories of elements name their cells through a
:class:`~natmod.fincat.Registry` spelled by :func:`~natmod.fincat.tuple_key`
and read the parts back from the cells, so no two cells share a key.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Optional

from .fincat import FinCatPresentation, FinFunctor, Registry, is_set_pullback, memo, tuple_key
from .report import Findings


@dataclass
class Presheaf:
    """Contravariant finite-set-valued functor on a FinCatPresentation.

    The action is the tables ``action``, or a rule: ``cell`` (m, x) ↦ x[m]
    and optionally ``row_rule`` (m, xs) ↦ {x: x[m]}, whose row is built on
    its first read and kept in ``action``.  A row may be a read-only mapping
    the model shares (see ``NaturalModel.subst_ty_row``): rows are never
    written.
    """

    base: FinCatPresentation
    values: dict[str, list[str]]
    action: dict[str, Mapping[str, str]] = field(default_factory=dict)  # morphism -> row
    cell: Optional[Callable[[str, str], str]] = None
    row_rule: Optional[Callable[[str, list[str]], Mapping[str, str]]] = None
    _elements: dict[str, set[str]] = field(default_factory=dict, init=False, repr=False)

    def at(self, obj: str) -> list[str]:
        return self.values.get(obj, [])

    def restrict(self, m: str, x: str) -> str:
        """x[m] for x in P(cod m); a cell the presheaf lacks raises ``KeyError``."""
        row = self.action.get(m)
        if row is not None:
            return row[x]
        if self.cell is None:
            raise KeyError(m)
        self.require(self.base.cod(m), x)
        return self.cell(m, x)

    def require(self, obj: str, x: str) -> None:
        """Raise ``KeyError`` unless x lies in P(obj)."""
        elements = self._elements.get(obj)
        if elements is None:
            elements = self._elements[obj] = set(self.at(obj))
        if x not in elements:
            raise KeyError(x)

    def row(self, m: str) -> Mapping[str, str]:
        """The action of m as a mapping x ↦ x[m]; an element with no cell is
        absent, and every element for an m outside the base."""
        row = self.action.get(m)
        if row is not None or self.cell is None:
            return {} if row is None else row
        try:
            xs = self.at(self.base.cod(m))
        except KeyError:
            return {}
        if self.row_rule is not None:
            row = self.action[m] = self.row_rule(m, xs)
            return row
        row = self.action[m] = {}
        for x in xs:
            with contextlib.suppress(KeyError):
                row[x] = self.cell(m, x)
        return row

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
        mors = base.all_morphisms()
        rows = {m: self.row(m) for m in mors}
        for obj in base.object_keys:
            i = base.identity(obj)
            row = rows[i] if i in rows else self.row(i)
            for x in self.at(obj):
                if row.get(x) != x:
                    yield "identity", f"identity action fails at {obj!r} on {x!r}"
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
            dom_row, cod_row = self.dom.row(m), self.cod.row(m)
            at_src, at_dst = self.components.get(src, {}), self.components.get(dst, {})
            for x in self.dom.at(dst):
                lhs, rhs = cod_row.get(at_dst.get(x)), at_src.get(dom_row.get(x))
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


@memo
def yoneda(base: FinCatPresentation, c: str) -> Presheaf:
    """The representable presheaf hom(-, c): its values are the hom sets and
    its rule is precomposition, x[m] = x∘m.  Each is built once per base."""
    return Presheaf(base, {d: base.hom(d, c) for d in base.object_keys},
                    cell=lambda m, x: base.compose(x, m))


def yoneda_map(base: FinCatPresentation, g: str, src_ps: Presheaf, dst_ps: Presheaf) -> NatTrans:
    """y(g) : y(dom g) -> y(cod g), postcomposition by g, composed as one
    row over every h into dom g."""
    homs = {d: src_ps.at(d) for d in base.object_keys}
    gh = iter(base.compose_row(g, [h for hs in homs.values() for h in hs]))
    # zip stops at the end of hs, so each component takes its own composites
    comps = {d: dict(zip(hs, gh)) for d, hs in homs.items()}
    return NatTrans(src_ps, dst_ps, comps)


def element_nat(base: FinCatPresentation, ps: Presheaf, x: str, yon: Presheaf) -> NatTrans:
    """The natural transformation yon -> ps classifying x, with yon = y(c) for x in ps(c).

    Its components are the column x[h] over every h into c, read in one
    pass: x is checked to lie in P(c) once, as every h has codomain c, and
    each x[h] is then taken from h's built row where there is one, else from
    the cell rule.  So the values and the cells read are those of
    :meth:`Presheaf.restrict` cell by cell, and an x outside P(c) raises
    ``KeyError``.
    """
    homs = {d: yon.at(d) for d in base.object_keys}
    first = next((hs[0] for hs in homs.values() if hs), None)
    if first is not None:
        ps.require(base.cod(first), x)
    # a table lacking h's row has no cells there: restrict raises
    action, cell = ps.action, ps.cell or ps.restrict
    comps = {d: {h: cell(h, x) if row is None else row[x]
                 for h, row in zip(hs, map(action.get, hs))}
             for d, hs in homs.items()}
    return NatTrans(yon, ps, comps)


def elements_cat(p: Presheaf) -> tuple[FinCatPresentation, FinFunctor]:
    """The category of elements of p, with its projection functor.

    An object is the cell (c, x) of a :class:`~natmod.fincat.Registry`,
    keyed ``el(c|x)``.  A morphism (c, x[m]) -> (d, y) is the cell (m, y) of
    another, keyed (m|y), for m : c -> d; composites and the projection
    read the cells.
    """
    base = p.base
    objs, mors = Registry(lambda cell: "el" + tuple_key(cell)), Registry(tuple_key)
    els = [(objs.key((c, x)), c, x) for c in base.object_keys for x in p.at(c)]
    homs: dict[tuple[str, str], list[str]] = {}
    for src, c, x in els:
        for dst, d, y in els:
            ms = [mors.key((m, y)) for m in base.hom(c, d) if p.row(m)[y] == x]
            if ms:
                homs[(src, dst)] = ms
    identities = {el: mors.key((base.identity(c), x)) for el, c, x in els}

    def row_rule(g: str, fs: list[str]) -> list[str]:
        gm, y = mors.cells[g]
        return [mors.key((m, y)) for m in base.compose_row(gm, [mors.cells[f][0] for f in fs])]

    cat = FinCatPresentation(
        object_keys=[el for el, _, _ in els], homs=homs, compose_table={},
        identities=identities, terminal_key=None, row_rule=row_rule,
    )
    obj_map = {el: c for el, c, _ in els}
    return cat, FinFunctor(cat, base, obj_map, {k: m for k, (m, _) in mors.cells.items()})


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


def represents(p: NatTrans, gamma: str, a: str, b: str, g: str, y: str) -> bool:
    """Whether (B, g : B -> Γ, y in dom p(B)) represents the fibre of p over
    a in cod p(Γ), that is whether this square is a pullback::

        y(B) --⌜y⌝--> dom p
         |              |
        y(g)            p
         v              v
        y(Γ) --⌜a⌝--> cod p

    A missing cell, as an a or a y outside its presheaf, forms no square.
    """
    base = p.dom.base
    try:
        return check_pullback_square(
            p, element_nat(base, p.cod, a, yoneda(base, gamma)),
            element_nat(base, p.dom, y, yoneda(base, b)),
            yoneda_map(base, g, yoneda(base, b), yoneda(base, gamma)),
        )
    except KeyError:
        return False


def is_representable(p: NatTrans) -> tuple[dict[tuple[str, str], tuple[str, str, str]], Findings]:
    """The first (B, g, y) that :func:`represents` each fibre (Γ, a) of p,
    tried by object position, then morphism, then element; and findings
    whose law ``representable`` has a witness per fibre with none, over the
    fibres as instances.  It holds for the materialized base only.
    """
    base = p.dom.base
    fibres = [(gamma, a) for gamma in base.object_keys for a in p.cod.at(gamma)]
    witnesses: dict[tuple[str, str], tuple[str, str, str]] = {}
    report = Findings(instances=len(fibres))
    for gamma, a in fibres:
        found = next(((b, g, y) for b in base.object_keys for g in base.hom(b, gamma)
                      for y in p.dom.at(b) if represents(p, gamma, a, b, g, y)), None)
        if found is not None:
            witnesses[(gamma, a)] = found
        report.record("representable", found is not None,
                      f"no (B, g, y) represents the fibre over {a!r} in cod p({gamma})")
    return witnesses, report


def sum_presheaves(ps: list[Presheaf]) -> tuple[Presheaf, list[NatTrans]]:
    """Pointwise disjoint union, with the coproduct injections.  An element
    is the cell (i, x) of a :class:`~natmod.fincat.Registry`, keyed (i|x),
    for x in the i-th presheaf."""
    if not ps:
        raise ValueError("need at least one presheaf")
    base = ps[0].base
    reg = Registry(tuple_key)
    tagged = {str(i): p for i, p in enumerate(ps)}
    values = {
        obj: [reg.key((i, x)) for i, p in tagged.items() for x in p.at(obj)]
        for obj in base.object_keys
    }

    def restrict(m: str, key: str) -> str:
        i, x = reg.cells[key]
        return reg.key((i, tagged[i].restrict(m, x)))

    total = Presheaf(base, values, cell=restrict)
    injections = [
        NatTrans(p, total, {obj: {x: reg.key((i, x)) for x in p.at(obj)} for obj in base.object_keys})
        for i, p in tagged.items()
    ]
    return total, injections


def sum_nat_trans(fs: list[NatTrans]) -> NatTrans:
    """The coproduct of parallel families of natural transformations: the
    i-th injection of x goes to the i-th injection of its image."""
    dom, dom_in = sum_presheaves([f.dom for f in fs])
    cod, cod_in = sum_presheaves([f.cod for f in fs])
    # an image outside f's codomain maps to None, a component violation
    comps = {
        obj: {x_in: into_cod.components[obj].get(f.apply(obj, x))
              for f, into_dom, into_cod in zip(fs, dom_in, cod_in)
              for x, x_in in into_dom.components[obj].items()}
        for obj in dom.base.object_keys
    }
    return NatTrans(dom, cod, comps)


def pullback_presheaves(f: NatTrans, g: NatTrans) -> tuple[Presheaf, NatTrans, NatTrans]:
    """Pointwise fibre product of f : X -> Z and g : Y -> Z, with projections.
    An element is the cell (x, y) of a :class:`~natmod.fincat.Registry`,
    keyed (x|y), and the projections read its parts."""
    if f.cod is not g.cod:
        raise ValueError("pullback requires a common codomain")
    base = f.dom.base
    reg = Registry(tuple_key)
    values = {
        obj: [reg.key((x, y)) for x in f.dom.at(obj) for y in g.dom.at(obj)
              if f.apply(obj, x) == g.apply(obj, y)]
        for obj in base.object_keys
    }

    def restrict(m: str, key: str) -> str:
        x, y = reg.cells[key]
        return reg.key((f.dom.restrict(m, x), g.dom.restrict(m, y)))

    apex = Presheaf(base, values, cell=restrict)
    proj1, proj2 = (
        NatTrans(apex, side, {o: {k: reg.cells[k][n] for k in values[o]} for o in base.object_keys})
        for n, side in enumerate((f.dom, g.dom))
    )
    return apex, proj1, proj2
