"""Polynomials in finite sets: extension, composition, and the 2/3-cell calculus.

A polynomial is a diagram I <- B -> A -> J of total maps between finite
sets; its extension sends an I-indexed family to the J-indexed family of
dependent pairs (a, section of the fibre over a).  Morphisms of polynomials
are triples over a chosen pullback carrier, cartesian when the comparison
map is a bijection; adjustments are carrier maps over B.  Chosen pullbacks
are the sets of pairs in lexicographic element order throughout, which
makes horizontal composition of cartesian cells a pure square chase.

Carrier invariant: a cell's carrier is the chosen pullback of the
codomain's middle map along φ₀, with (to_a, φ₁) its two projections, so
each carrier element is its own pair (a, d) with φ₀(a) = g(d).  The
calculus reads a carrier element off (a, d) directly, and the unique
adjustment into a cartesian cell is the closed form ψ₂⁻¹ ∘ φ₂.

Elements of derived sets are nested tuples; sections are represented as
tuples of (index, value) pairs in index order.

Block order: the component at j of an extension lists the positions a over
j in A order, and each position's elements as one contiguous block, its
sections in the lexicographic order of the product over the fibre B_a.  The
maps between extensions are read by place on this invariant: an image's
place in its component is the start of its position's block plus the
mixed-radix number of its section's digits, and the image is the
codomain's own element at that place, so no image tuple is built.

:func:`check_pseudomonad_data` returns a :class:`~natmod.report.Findings`
holding a verdict for every check it makes, the passing ones too.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .fincat import is_set_pullback, memo
from .report import Findings


@dataclass(frozen=True)
class FinMap:
    """A total function between finite sets of hashable elements.

    Its laws are checked by identity first: the graph's keys must be dom in
    order (a tuple comparison, which identity settles without comparing
    values) and each value's id must be one of cod's.  Only a miss is
    checked by value, by hashing, so the verdicts and messages are those of
    the check by value.
    """

    dom: tuple
    cod: tuple
    mapping: tuple  # tuple of (x, f(x)) pairs in dom order

    def __post_init__(self):
        mapping, dom, cod = self.mapping, self.dom, self.cod
        graph = dict(mapping)
        if not (len(graph) == len(mapping) and tuple(graph) == dom) and set(graph) != set(dom):
            raise ValueError("mapping does not cover the domain")
        own, cod_set = {id(y) for y in cod}, None
        for _, y in mapping:
            if id(y) not in own:
                cod_set = set(cod) if cod_set is None else cod_set
                if y not in cod_set:
                    raise ValueError(f"value {y!r} outside the codomain")
        object.__setattr__(self, "_graph", graph)

    def __call__(self, x):
        return self._graph[x]

    @property
    def as_dict(self) -> dict:
        """The graph as a dict, built once; callers must not mutate it."""
        return self._graph

    def fibre(self, y) -> tuple:
        return self.fibres().get(y, ())

    @memo
    def fibres(self) -> dict:
        """Each value's fibre, in dom order, built in one pass over dom."""
        out: dict = {}
        for x in self.dom:
            out.setdefault(self._graph[x], []).append(x)
        return {y: tuple(xs) for y, xs in out.items()}

    def is_bijection(self) -> bool:
        return len(self.dom) == len(self.cod) and len(set(self.as_dict.values())) == len(self.cod)

    def inverse(self) -> "FinMap":
        inv = {y: x for x, y in self._graph.items()}
        if not len(self.dom) == len(self.cod) == len(inv):
            raise ValueError(f"not a bijection: {self._bijection_witness()}")
        return fin_map(self.cod, self.dom, inv)

    def _bijection_witness(self) -> str:
        """Two elements with one image, else an element of cod with none."""
        first: dict = {}
        for x, y in self.mapping:
            if y in first:
                return f"{first[y]!r} and {x!r} both go to {y!r}"
            first[y] = x
        return f"nothing goes to {next((y for y in self.cod if y not in first), None)!r}"


def fin_map(dom: Iterable, cod: Iterable, mapping: dict | Callable) -> FinMap:
    dom = tuple(dom)
    cod = tuple(cod)
    if not callable(mapping):
        mapping = mapping.__getitem__
    return FinMap(dom, cod, tuple(zip(dom, map(mapping, dom))))


def identity_map(xs: Iterable) -> FinMap:
    xs = tuple(xs)
    return fin_map(xs, xs, lambda x: x)


def compose_map(g: FinMap, f: FinMap) -> FinMap:
    gd = g.as_dict
    fd = f.as_dict
    return fin_map(f.dom, g.cod, lambda x: gd[fd[x]])


def chosen_pullback(f: FinMap, g: FinMap) -> tuple[tuple, FinMap, FinMap]:
    """The pullback of a cospan as the set of pairs, in lexicographic order."""
    if f.cod != g.cod:
        raise ValueError("pullback requires a common codomain")
    fd, gd = f.as_dict, g.as_dict
    apex = tuple((x, y) for x in f.dom for y in g.dom if fd[x] == gd[y])
    return apex, fin_map(apex, f.dom, lambda p: p[0]), fin_map(apex, g.dom, lambda p: p[1])


def is_pullback_square(top: FinMap, left: FinMap, right: FinMap, bottom: FinMap) -> bool:
    """Does (left, top) exhibit its domain as the pullback of (bottom, right)?

    Square shape: top : P -> Y, left : P -> X, right : Y -> Z, bottom : X -> Z.
    """
    return is_set_pullback(
        left.dom, left.as_dict.__getitem__, top.as_dict.__getitem__,
        bottom.dom, bottom.as_dict.__getitem__, right.dom, right.as_dict.__getitem__,
    )


@dataclass(frozen=True)
class Polynomial:
    """A diagram I <-s- B -f-> A -t-> J of total maps of finite sets."""

    s: FinMap
    f: FinMap
    t: FinMap

    def __post_init__(self):
        if self.s.dom != self.f.dom:
            raise ValueError("s and f must share their domain B")
        if self.f.cod != self.t.dom:
            raise ValueError("cod(f) must be dom(t)")

    @property
    def I(self) -> tuple:
        return self.s.cod

    @property
    def B(self) -> tuple:
        return self.s.dom

    @property
    def A(self) -> tuple:
        return self.f.cod

    @property
    def J(self) -> tuple:
        return self.t.cod

    def fibre(self, a) -> tuple:
        return self.f.fibre(a)


def poly_from_map(f: FinMap) -> Polynomial:
    """A morphism viewed as a polynomial from 1 to 1."""
    one = ("*",)
    return Polynomial(
        fin_map(f.dom, one, lambda _: "*"),
        f,
        fin_map(f.cod, one, lambda _: "*"),
    )


def identity_poly(index: Iterable) -> Polynomial:
    """The identity polynomial I <- I -> I -> I."""
    i = identity_map(index)
    return Polynomial(i, i, i)


def _sections(index: tuple, values_at: Callable[[object], tuple]) -> list[tuple]:
    """All sections of a dependent family, as tuples of (index, value) pairs."""
    pools = [tuple((b, v) for v in values_at(b)) for b in index]
    return [tuple(choice) for choice in itertools.product(*pools)]


def _extension(p: Polynomial, family: dict) -> tuple[dict, dict]:
    """P(family) in block order, and each position's block as the range of
    its places in its component, built in one pass over A.  Position a's
    block is the pairs (a, section), one per choice of an element of the
    family at s(b) for each b in the fibre B_a, in lexicographic order."""
    if set(family) != set(p.I):
        raise ValueError("family must be indexed exactly by I")
    td, sd, fibres = p.t.as_dict, p.s.as_dict, p.f.fibres()
    out = {j: [] for j in p.J}
    spans = {}
    for a in p.A:
        component = out[td[a]]
        start = len(component)
        component += zip(itertools.repeat(a), itertools.product(
            *[[(b, x) for x in family[sd[b]]] for b in fibres.get(a, ())]))
        spans[a] = range(start, len(component))
    return {j: tuple(v) for j, v in out.items()}, spans


def _places(p: Polynomial, target: Callable[[object], tuple]) -> dict:
    """Per j, the places of the images of P(X)_j under a map sending each
    position a's block into one block of a block-ordered family.  ``target(a)``
    is that block's start and a (radix, places) pair per digit of a's block,
    most significant first: the element choosing the k-th value of each digit
    goes to the start plus the mixed-radix number of the k-th places."""
    td = p.t.as_dict
    out = {j: [] for j in p.J}
    for a in p.A:
        start, digits = target(a)
        offsets, width = [start], 1
        for radix, places in reversed(digits):
            offsets = [q * width + o for q in places for o in offsets]
            width *= radix
        out[td[a]] += offsets
    return out


def extend(p: Polynomial, family: dict) -> dict:
    """The extension of a polynomial applied to an I-indexed family of sets.

    The component at j is the set of pairs (a, section) with t(a) = j and
    the section assigning to each b in the fibre over a an element of the
    family at s(b).
    """
    return _extension(p, family)[0]


def extend_map(p: Polynomial, family: dict, family2: dict, maps: dict) -> dict:
    """Functorial action of the extension on a family of maps X -> X'.

    Position a's block of P(X) goes to a's block of P(X'), and the section
    choosing x_b goes to the one choosing φ_{s(b)}(x_b): its digits are the
    places of the φ_i(x) in X'_i, read by place off P(X').
    """
    ext1 = extend(p, family)
    ext2, span = _extension(p, family2)
    sd, fibres = p.s.as_dict, p.f.fibres()
    try:
        digit = {}
        for i in p.I:
            where = {y: n for n, y in enumerate(family2[i])}
            digit[i] = len(family2[i]), [where[y] for y in map(maps[i].as_dict.__getitem__, family[i])]
    except KeyError:  # a value outside X': FinMap names the first image holding one
        return {j: fin_map(ext1[j], ext2[j], lambda el: (
            el[0], tuple((b, maps[sd[b]](v)) for b, v in el[1]))) for j in p.J}
    places = _places(p, lambda a: (span[a].start, [digit[sd[b]] for b in fibres.get(a, ())]))
    return {j: FinMap(ext1[j], ext2[j], tuple(zip(ext1[j], map(ext2[j].__getitem__, places[j]))))
            for j in p.J}


def compose(g: Polynomial, f: Polynomial) -> Polynomial:
    """The polynomial composite g·f, with the explicit middle sets.

    For f : I -+-> J and g : J -+-> K the composite has positions
    M = Σ_{c in C} Π_{d in D_c} A and directions
    N = Σ_{(c,m) in M} Σ_{d in D_c} B_{m(d)}, with the evident projections.
    """
    if f.J != g.I:
        raise ValueError("middle index sets do not match")
    ud, sd = g.s.as_dict, f.s.as_dict
    over, fibres, f_fibres = f.t.fibres(), g.f.fibres(), f.f.fibres()
    m_set = tuple((c, m) for c in g.A for m in itertools.product(
        *[[(d, a) for a in over.get(ud[d], ())] for d in fibres.get(c, ())]))
    n_set = tuple((c, sec, d, b) for c, sec in m_set for d, a in sec for b in f_fibres.get(a, ()))
    vd = g.t.as_dict
    return Polynomial(
        fin_map(n_set, f.I, lambda el: sd[el[3]]),
        fin_map(n_set, m_set, lambda el: (el[0], el[1])),
        fin_map(m_set, g.J, lambda el: vd[el[0]]),
    )


def compose_extension_iso(g: Polynomial, f: Polynomial, family: dict) -> dict:
    """The structural bijection P_{g·f}(X) ≅ P_g(P_f(X)), per K-index.

    Returns, for each k, a pair (forward, backward) of maps realising the
    canonical isomorphism; naturality amounts to these maps commuting with
    the functorial action on family maps.

    The forward map is read by place.  The directions of g·f at a position
    (c, m) are the (c, m, d, b) for d in D_c, b in B_{m(d)}, grouped by d in
    m's order, so the block of (c, m) is the lexicographic product over that
    flat list.  A lexicographic product over a concatenation is the nested
    lexicographic product: over d in D_c, of the products over B_{m(d)}.
    Those inner products are the blocks of P_f(X) at the m(d), so the block
    of (c, m) goes to c's block of P_g(P_f(X)), with one digit per d: the
    places of m(d)'s block in P_f(X)_{u(d)}.  The backward map is the
    forward map's inverse, which exists only if it is a bijection.
    """
    gf = compose(g, f)
    lhs = extend(gf, family)
    mid, f_span = _extension(f, family)
    rhs, g_span = _extension(g, mid)
    ud = g.s.as_dict
    places = _places(gf, lambda cm: (
        g_span[cm[0]].start, [(len(mid[ud[d]]), f_span[a]) for d, a in cm[1]]))
    out = {}
    for k in g.J:
        fwd = FinMap(lhs[k], rhs[k], tuple(zip(lhs[k], map(rhs[k].__getitem__, places[k]))))
        out[k] = (fwd, fwd.inverse())
    return out


# ---------------------------------------------------------------------------
# Morphisms of polynomials, adjustments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolyMorphism:
    """A 2-cell between parallel polynomials, with chosen pullback carrier.

    (to_a, phi1) are the projections of ``chosen_pullback(phi0, dst.f)``,
    so the carrier element over (a, d) is the pair (a, d) itself; phi2
    compares the carrier with the domain's directions.  Cartesian iff phi2
    is a bijection.
    """

    src: Polynomial
    dst: Polynomial
    phi0: FinMap   # A -> C
    to_a: FinMap   # carrier -> A
    phi1: FinMap   # carrier -> D
    phi2: FinMap   # carrier -> B

    def __post_init__(self):
        if self.src.I != self.dst.I or self.src.J != self.dst.J:
            raise ValueError("morphisms require parallel polynomials")
        # outer triangles
        if compose_map(self.dst.t, self.phi0).mapping != self.src.t.mapping:
            raise ValueError("phi0 does not respect the target index")
        if compose_map(self.src.f, self.phi2).mapping != self.to_a.mapping:
            raise ValueError("phi2 does not lie over A")
        lhs = compose_map(self.src.s, self.phi2).mapping
        rhs = compose_map(self.dst.s, self.phi1).mapping
        if lhs != rhs:
            raise ValueError("phi1/phi2 do not agree over the source index")
        if (self.to_a, self.phi1) != chosen_pullback(self.phi0, self.dst.f)[1:]:
            raise ValueError("the lower square is not the chosen pullback")

    @property
    def carrier(self) -> tuple:
        return self.to_a.dom

    @property
    def cartesian(self) -> bool:
        return self.phi2.is_bijection()


def cell_from_square(
    src: Polynomial, dst: Polynomial, phi0: FinMap, phi1_direct: FinMap
) -> PolyMorphism:
    """The cartesian cell canonically induced by a pullback square.

    ``phi1_direct : B -> D`` together with phi0 must form a pullback square
    against the two middle maps; the cell's carrier is the chosen pullback
    and its comparison map is the induced bijection.
    """
    if not is_pullback_square(phi1_direct, src.f, dst.f, phi0):
        raise ValueError("the given square is not a pullback")
    apex, to_a, phi1 = chosen_pullback(phi0, dst.f)
    # carrier elements are pairs (a, d) with phi0(a) = g(d)
    fd = src.f.as_dict
    p1d = phi1_direct.as_dict
    inv: dict = {}
    for b in src.B:
        inv[(fd[b], p1d[b])] = b
    phi2 = fin_map(apex, src.B, lambda p: inv[p])
    return PolyMorphism(src, dst, phi0, to_a, phi1, phi2)


def identity_cell(p: Polynomial) -> PolyMorphism:
    return cell_from_square(p, p, identity_map(p.A), identity_map(p.B))


def vertical_compose(psi: PolyMorphism, phi: PolyMorphism) -> PolyMorphism:
    """ψ ∘ φ for φ : F => G and ψ : G => H, via the chosen pullbacks."""
    if phi.dst is not psi.src and phi.dst != psi.src:
        raise ValueError("cells are not composable")
    f_poly, h_poly = phi.src, psi.dst
    phi0 = compose_map(psi.phi0, phi.phi0)
    apex, to_a, phi1 = chosen_pullback(phi0, h_poly.f)
    phi0d, phi2d, psi2d = phi.phi0.as_dict, phi.phi2.as_dict, psi.phi2.as_dict
    # a carrier element (a, x) has h(x) = psi0(phi0(a)): psi's element over it
    # is (phi0(a), x), with comparison d, and phi's is (a, d)
    phi2 = fin_map(apex, f_poly.B, lambda p: phi2d[(p[0], psi2d[(phi0d[p[0]], p[1])])])
    return PolyMorphism(f_poly, h_poly, phi0, to_a, phi1, phi2)


def horizontal_compose(psi: PolyMorphism, phi: PolyMorphism) -> PolyMorphism:
    """ψ·φ : G·F => G'·F' for cartesian ψ : G => G' and φ : F => F'.

    Both cells must be cartesian; they are re-expressed as pullback squares
    and chased through the explicit construction of the composites.
    """
    if not (psi.cartesian and phi.cartesian):
        raise ValueError("horizontal composition is defined on cartesian cells")
    if phi.src.J != psi.src.I:
        raise ValueError("cells do not share the middle index")
    gf = compose(psi.src, phi.src)
    gf2 = compose(psi.dst, phi.dst)
    phi0d, phi1d = phi.phi0.as_dict, _square_of(phi).as_dict   # B -> B'
    psi0d, psi1d = psi.phi0.as_dict, _square_of(psi).as_dict   # D -> D'
    psi2d = psi.phi2.as_dict

    def on_m(el):
        # the direction d' over psi0(c) comes from psi₂(c, d') in D_c
        c, sec = el
        secd = dict(sec)
        c2 = psi0d[c]
        return (c2, tuple((d2, phi0d[secd[psi2d[(c, d2)]]]) for d2 in psi.dst.fibre(c2)))

    m_map = fin_map(gf.A, gf2.A, on_m)
    md = m_map.as_dict
    n_map = fin_map(gf.B, gf2.B, lambda el: (*md[el[:2]], psi1d[el[2]], phi1d[el[3]]))
    return cell_from_square(gf, gf2, m_map, n_map)


def _square_of(cell: PolyMorphism) -> FinMap:
    """The direct map B -> D of a cartesian cell in pullback-square form."""
    inv = cell.phi2.inverse().as_dict
    p1 = cell.phi1.as_dict
    return fin_map(cell.src.B, cell.dst.B, lambda b: p1[inv[b]])


def cell_action(cell: PolyMorphism, family: dict) -> dict:
    """The induced map on extensions, per outer index.

    At a position a with section t, the image position is phi0(a) and the
    image section assigns to a direction d the value of t at the comparison
    of the carrier element over (a, d).
    """
    src_ext = extend(cell.src, family)
    dst_ext = extend(cell.dst, family)
    phi0d = cell.phi0.as_dict
    phi2d = cell.phi2.as_dict
    out = {}
    for j in cell.src.J:
        def act(el, _j=j):
            a, sec = el
            secd = dict(sec)
            c = phi0d[a]
            new_sec = tuple(
                (d, secd[phi2d[(a, d)]])
                for d in cell.dst.fibre(c)
            )
            return (c, new_sec)

        out[j] = fin_map(src_ext[j], dst_ext[j], act)
    return out


def whisker_left(g: Polynomial, phi: PolyMorphism) -> PolyMorphism:
    """g·φ : g·F => g·F' (identity on the outer factor)."""
    return horizontal_compose(identity_cell(g), phi)


def whisker_right(psi: PolyMorphism, f: Polynomial) -> PolyMorphism:
    """ψ·f : G·f => G'·f (identity on the inner factor)."""
    return horizontal_compose(psi, identity_cell(f))


@dataclass(frozen=True)
class Adjustment:
    """A 3-cell: a carrier map between parallel 2-cells commuting over B."""

    src: PolyMorphism
    dst: PolyMorphism
    alpha: FinMap

    def __post_init__(self):
        if compose_map(self.dst.phi2, self.alpha).mapping != self.src.phi2.mapping:
            raise ValueError("the adjustment triangle over B does not commute")


def all_adjustments(phi: PolyMorphism, psi: PolyMorphism) -> list[Adjustment]:
    """Brute-force enumeration of all adjustments φ ⇛ ψ: the reference that
    :func:`unique_adjustment`'s closed form is tested against."""
    out = []
    for values in itertools.product(psi.carrier, repeat=len(phi.carrier)):
        alpha = fin_map(phi.carrier, psi.carrier, dict(zip(phi.carrier, values)))
        if compose_map(psi.phi2, alpha).mapping == phi.phi2.mapping:
            out.append(Adjustment(phi, psi, alpha))
    return out


def unique_adjustment(phi: PolyMorphism, psi: PolyMorphism) -> Adjustment:
    """The unique adjustment into a cartesian cell: ψ₂⁻¹ ∘ φ₂.

    ψ₂ is a bijection, so ψ₂∘α = φ₂ has exactly this solution.  Refuses
    non-cartesian ψ, where uniqueness can fail.
    """
    if not psi.cartesian:
        raise ValueError("codomain cell must be cartesian")
    return Adjustment(phi, psi, compose_map(psi.phi2.inverse(), phi.phi2))


# ---------------------------------------------------------------------------
# Beck–Chevalley, distributivity, and the two correspondence lemmas
# ---------------------------------------------------------------------------

@dataclass
class IndexedBijection:
    """A family of mutually inverse map pairs, keyed by an index."""

    forward: dict
    backward: dict

    def check_roundtrips(self) -> bool:
        for k, f in self.forward.items():
            b = self.backward[k]
            for x in f.dom:
                if b(f(x)) != x:
                    return False
            for y in b.dom:
                if f(b(y)) != y:
                    return False
        return True


def beck_chevalley_witness(
    v: FinMap, f: FinMap, u: FinMap, g: FinMap, family: dict
) -> tuple[IndexedBijection, IndexedBijection]:
    """Witness bijections for base change along a pullback square.

    Square (checked to be a pullback)::

        B --v--> D
        |        |
        f        g
        v        v
        A --u--> C

    For an A-indexed family X, returns for each d in D the sum-side
    bijection Σ_{a in A_{g(d)}} X_a ≅ Σ_{b in B_d} X_{f(b)} and the
    product-side bijection Π_{a in A_{g(d)}} X_a ≅ Π_{b in B_d} X_{f(b)},
    where A_c is the u-fibre.
    """
    if not is_pullback_square(v, f, g, u):
        raise ValueError("input square is not a pullback")
    fd, vd, gd = f.as_dict, v.as_dict, g.as_dict
    sum_fwd, sum_bwd = {}, {}
    prod_fwd, prod_bwd = {}, {}
    b_of = {(fd[b], vd[b]): b for b in f.dom}
    for d in g.dom:
        a_fibre = u.fibre(gd[d])
        b_fibre = v.fibre(d)
        lhs_sum = tuple((a, x) for a in a_fibre for x in family[a])
        rhs_sum = tuple((b, x) for b in b_fibre for x in family[fd[b]])
        sum_bwd[d] = fin_map(rhs_sum, lhs_sum, lambda p: (fd[p[0]], p[1]))
        sum_fwd[d] = fin_map(lhs_sum, rhs_sum, lambda p, _d=d: (b_of[(p[0], _d)], p[1]))
        lhs_prod = _sections(a_fibre, lambda a: tuple(family[a]))
        rhs_prod = _sections(b_fibre, lambda b: tuple(family[fd[b]]))
        prod_fwd[d] = fin_map(
            lhs_prod, rhs_prod,
            lambda sec, _bf=b_fibre: tuple((b, dict(sec)[fd[b]]) for b in _bf),
        )
        prod_bwd[d] = fin_map(
            rhs_prod, lhs_prod,
            lambda sec, _af=a_fibre, _d=d: tuple(
                (a, dict(sec)[b_of[(a, _d)]]) for a in _af
            ),
        )
    return (
        IndexedBijection(sum_fwd, sum_bwd),
        IndexedBijection(prod_fwd, prod_bwd),
    )


def distributivity_witness(u: FinMap, f: FinMap, family: dict) -> IndexedBijection:
    """The type-theoretic choice bijection, per element of the base.

    For C --u--> B --f--> A and a C-indexed family X, gives for each a the
    bijection Π_{b in B_a} Σ_{c in C_b} X_c ≅ Σ_{m in Π_b C_b} Π_b X_{m(b)}.
    """
    fwd, bwd = {}, {}
    for a in f.cod:
        b_fibre = f.fibre(a)
        lhs = _sections(
            b_fibre,
            lambda b: tuple((c, x) for c in u.fibre(b) for x in family[c]),
        )
        choices = _sections(b_fibre, lambda b: u.fibre(b))
        rhs = tuple(
            (m, sec)
            for m in choices
            for sec in _sections(b_fibre, lambda b, _m=m: tuple(family[dict(_m)[b]]))
        )
        fwd[a] = fin_map(
            lhs, rhs,
            lambda sec: (
                tuple((b, cx[0]) for b, cx in sec),
                tuple((b, cx[1]) for b, cx in sec),
            ),
        )
        bwd[a] = fin_map(
            rhs, lhs,
            lambda p: tuple(
                (b, (dict(p[0])[b], dict(p[1])[b])) for b in f.fibre(a)
            ),
        )
    return IndexedBijection(fwd, bwd)


def lemma_map_into_extension(
    f: FinMap, family_x: tuple, g: FinMap
) -> tuple[FinMap, FinMap]:
    """Split a map into Σ_{a in A} X^{B_a} into its two components.

    Given g : Y -> P_f(X), returns g1 : Y -> A and g2 : Δ_{g1}(B) -> X,
    with the chosen pullback carrier {(y, b) : f(b) = g1(y)}.
    """
    gd = g.as_dict
    g1 = fin_map(g.dom, f.cod, lambda y: gd[y][0])
    carrier, _, _ = chosen_pullback(g1, f)
    g2 = fin_map(carrier, family_x, lambda p: dict(gd[p[0]][1])[p[1]])
    return g1, g2


def lemma_pair_into_extension(
    f: FinMap, family_x: tuple, g1: FinMap, g2: FinMap
) -> FinMap:
    """Inverse direction: reassemble g : Y -> P_f(X) from (g1, g2)."""
    p_f_x = extend(poly_from_map(f), {"*": family_x})["*"]
    g2d = g2.as_dict

    def rebuild(y):
        a = g1(y)
        sec = tuple((b, g2d[(y, b)]) for b in f.fibre(a))
        return (a, sec)

    return fin_map(g1.dom, p_f_x, rebuild)


def quadruple_object(f: FinMap) -> tuple:
    """Σ_{a in A} Σ_{m in A^{B_a}} Σ_{b in B_a} B_{m(b)}, as nested tuples:
    the directions of the composite p·p for p = poly_from_map(f)."""
    p = poly_from_map(f)
    return compose(p, p).B


def lemma_split_quadruple(
    f: FinMap, g: FinMap
) -> tuple[FinMap, FinMap, FinMap, FinMap]:
    """Split g : Y -> Σ_a Σ_m Σ_{b in B_a} B_{m(b)} into four components.

    Returns (g1 : Y -> A, g2 : Δ_{g1}(B) -> A, g3 : Y -> B over A,
    g4 : Y -> B with f∘g4 = g2∘⟨id, g3⟩); the stated domains make the
    correspondence bijective, as the round-trip test demands.
    """
    gd = g.as_dict
    g1, g2 = lemma_map_into_extension(f, f.cod, g)
    g3 = fin_map(g.dom, f.dom, lambda y: gd[y][2])
    g4 = fin_map(g.dom, f.dom, lambda y: gd[y][3])
    return g1, g2, g3, g4


def lemma_join_quadruple(
    f: FinMap, g1: FinMap, g2: FinMap, g3: FinMap, g4: FinMap
) -> FinMap:
    """Inverse direction of the quadruple correspondence."""
    q = quadruple_object(f)
    g2d = g2.as_dict

    def rebuild(y):
        a = g1(y)
        m = tuple((b, g2d[(y, b)]) for b in f.fibre(a))
        return (a, m, g3(y), g4(y))

    return fin_map(g1.dom, q, rebuild)


# ---------------------------------------------------------------------------
# Pseudomonad data
# ---------------------------------------------------------------------------

def left_unitor(p: Polynomial) -> PolyMorphism:
    """The cartesian cell p => i₁·p (the canonical Σ_{x:1} A ≅ A backwards),
    with i₁ on J, where p lands."""
    i1 = identity_poly(p.J)
    ip = compose(i1, p)
    td = p.t.as_dict

    def on_a(a):
        j = td[a]
        return (j, ((j, a),))

    def on_b(b):
        a = p.f.as_dict[b]
        j = td[a]
        return (j, ((j, a),), j, b)

    return cell_from_square(p, ip, fin_map(p.A, ip.A, on_a), fin_map(p.B, ip.B, on_b))


def right_unitor(p: Polynomial) -> PolyMorphism:
    """The cartesian cell p => p·i₁ (the canonical Σ_{x:A} 1 ≅ A backwards)."""
    i1 = identity_poly(p.I)
    pi = compose(p, i1)
    sd = p.s.as_dict

    def on_a(a):
        sec = tuple((b, sd[b]) for b in p.fibre(a))
        return (a, sec)

    def on_b(b):
        a = p.f.as_dict[b]
        return (a, on_a(a)[1], b, sd[b])

    return cell_from_square(p, pi, fin_map(p.A, pi.A, on_a), fin_map(p.B, pi.B, on_b))


def associator(p: Polynomial, q: Polynomial, r: Polynomial) -> PolyMorphism:
    """The cartesian cell (r·q)·p => r·(q·p) re-bracketing the composite."""
    lhs = compose(compose(r, q), p)
    rhs = compose(r, compose(q, p))

    def on_m(el):
        # element of M_lhs: ((e, n), sec) with n a section of r's fibre in C_q
        # and sec keyed by the full direction quadruples of r·q
        (e, n), sec = el
        secd = dict(sec)
        nd = dict(n)
        outer = []
        for fdir in r.fibre(e):
            c = nd[fdir]
            inner = tuple(
                (d, secd[(e, n, fdir, d)])
                for d in q.fibre(c)
            )
            outer.append((fdir, (c, inner)))
        return (e, tuple(outer))

    # lhs N elements are ((e,n), sec, (e,n,fdir,d), b); rhs N elements are
    # (e, outer, fdir, n_qp) with n_qp = (c, inner, d, b) in N(q·p)
    def on_n(el):
        (c_l, m_l, d_l, b) = el
        e, outer = on_m((c_l, m_l))
        _, _, fdir, d = d_l
        outer_d = dict(outer)
        n_qp = (outer_d[fdir][0], outer_d[fdir][1], d, b)
        return (e, outer, fdir, n_qp)

    return cell_from_square(
        lhs, rhs, fin_map(lhs.A, rhs.A, on_m), fin_map(lhs.B, rhs.B, on_n)
    )


def check_pseudomonad_data(p: Polynomial, eta: PolyMorphism, mu: PolyMorphism) -> Findings:
    """Verify that (p, η, μ) generates a polynomial pseudomonad.

    Checks that η and μ are cartesian, constructs the three coherence
    composite pairs (conjugating by the associator and unitor cells so they
    become parallel), builds the unique adjustment between each pair in
    closed form, and checks the unit laws on positions (see
    :func:`_check_unit_laws`).  Each check is a law of the findings, passing
    ones included; a cell that does not build is its law's witness.
    """
    report = Findings()
    record = report.record
    record("eta-cartesian", eta.cartesian)
    record("mu-cartesian", mu.cartesian)
    if not (eta.cartesian and mu.cartesian):
        return report
    i1 = identity_poly(p.I)
    if eta.src != i1 or eta.dst != p:
        record("eta-shape", False, "η must be a cell i₁ => p")
        return report
    pp = compose(p, p)
    if mu.src != pp or mu.dst != p:
        record("mu-shape", False, "μ must be a cell p·p => p")
        return report

    def assoc_pair() -> tuple[PolyMorphism, PolyMorphism]:
        # the associativity pair over (p·p)·p
        lhs = vertical_compose(mu, vertical_compose(whisker_left(p, mu), associator(p, p, p)))
        rhs = vertical_compose(mu, whisker_right(mu, p))
        record("assoc-cells-cartesian", lhs.cartesian and rhs.cartesian)
        return lhs, rhs

    _coherence_pair(report, "assoc-adjustment", "assoc-adjustment-invertible",
                    "associativity", assoc_pair)
    _check_unit_laws(report, p, eta, mu)
    return report


def _coherence_pair(report: Findings, law: str, invertible: str, cell: str,
                    pair: Callable[[], tuple[PolyMorphism, PolyMorphism]]
                    ) -> Optional[PolyMorphism]:
    """Record under ``law`` that the unique adjustments between the pair
    (lhs, rhs) exist both ways, under ``invertible`` that they are mutually
    inverse, and a cell that does not build as the witness "``cell`` cell:
    ...".  Returns lhs, None if it did not build."""
    lhs = None
    try:
        lhs, rhs = pair()
        adj, adj_back = unique_adjustment(lhs, rhs), unique_adjustment(rhs, lhs)
    except ValueError as exc:
        report.record(law, False, f"{cell} cell: {exc}")
        return lhs
    report.record(law, True)
    report.record(invertible, compose_map(adj_back.alpha, adj.alpha).mapping
                  == identity_map(lhs.carrier).mapping)
    return lhs


def _check_unit_laws(report: Findings, p: Polynomial, eta: PolyMorphism, mu: PolyMorphism) -> None:
    """The left and right unit pairs over p, and ``unit-law-bijections``.

    The unit composites μ∘(η·p)∘λ and μ∘(p·η)∘ρ are cells p => p.  Each is
    paired with the identity cell by a unique invertible adjustment, and
    ``unit-law-bijections`` holds when both were built and their position
    maps A -> A are bijections: Σ_{x:1} A ≅ A ≅ Σ_{x:A} 1 as η and μ give it.
    """
    composites = []
    for side, whiskered, unitor in (
        ("left", lambda: whisker_right(eta, p), left_unitor),
        ("right", lambda: whisker_left(p, eta), right_unitor),
    ):
        composites.append(_coherence_pair(
            report, f"{side}-unit-adjustment", f"{side}-unit-invertible", f"{side} unit",
            lambda: (vertical_compose(mu, vertical_compose(whiskered(), unitor(p))),
                     identity_cell(p))))
    report.record(
        "unit-law-bijections",
        all(c is not None and c.phi0.is_bijection() for c in composites),
    )


def _one_direction_pseudomonad(
    positions: tuple, direction: str, unit, mu0: Callable
) -> tuple[Polynomial, PolyMorphism, PolyMorphism]:
    """(p, η, μ) for p with the one direction ``direction``, over ``unit``:
    η picks the unit with its direction, μ sends (c, m) in p·p to mu0."""
    b = (direction,)
    p = poly_from_map(fin_map(b, positions, {direction: unit}))
    eta = cell_from_square(
        identity_poly(("*",)), p,
        fin_map(("*",), positions, lambda _: unit),
        fin_map(("*",), b, lambda _: direction),
    )
    pp = compose(p, p)
    mu = cell_from_square(
        pp, p, fin_map(pp.A, positions, mu0), fin_map(pp.B, b, lambda _: direction)
    )
    return p, eta, mu


def trivial_pseudomonad() -> tuple[Polynomial, PolyMorphism, PolyMorphism]:
    """The identity-like instance: one position with a single direction."""
    return _one_direction_pseudomonad(("a0",), "b0", "a0", lambda _: "a0")


def partiality_pseudomonad() -> tuple[Polynomial, PolyMorphism, PolyMorphism]:
    """(p, η, μ) for P(X) = 1 + X in finite sets.

    This is the classifier of a natural model with two closed types — an
    empty type z and a unit type u — restricted to finite sets: positions
    are the types, directions their terms, η picks the unit with its term,
    and μ is the dependent sum of a constant family (fibre sizes 0 and 1
    are closed under fibre-sums, so the data is total on a finite carrier).
    """
    def mu0(el):
        c, sec = el
        if c == "z":
            return "z"
        (_, inner_a), = sec
        return inner_a

    return _one_direction_pseudomonad(("z", "u"), "du", "u", mu0)


# ---------------------------------------------------------------------------
# Seeded random generators for the property suites
# ---------------------------------------------------------------------------
#
# A generator's sequence of rng calls is part of its contract: the property
# tests, acceptance criteria 3, 4 and 7, `natmod poly` and the benchmark's
# polynomial inputs replay a seed and expect the same instances, and the
# digests of tests/test_polyset.py pin them.  A generator builds a FinMap
# only for a map it returns.

def random_fin_map(rng: random.Random, dom: tuple, cod: tuple) -> FinMap:
    if not cod and dom:
        raise ValueError("no maps into the empty set from a nonempty one")
    return FinMap(dom, cod, tuple((x, rng.choice(cod)) for x in dom))


def random_polynomial(rng: random.Random, max_size: int = 3, tag: str = "") -> Polynomial:
    i_set = tuple(f"i{tag}{k}" for k in range(rng.randint(1, max_size)))
    a_set = tuple(f"a{tag}{k}" for k in range(rng.randint(1, max_size)))
    b_set = tuple(f"b{tag}{k}" for k in range(rng.randint(0, max_size)))
    j_set = tuple(f"j{tag}{k}" for k in range(rng.randint(1, max_size)))
    return Polynomial(
        random_fin_map(rng, b_set, i_set),
        random_fin_map(rng, b_set, a_set),
        random_fin_map(rng, a_set, j_set),
    )


def random_family(rng: random.Random, index: tuple, max_size: int = 3, tag: str = "x") -> dict:
    return {
        i: tuple(f"{tag}{i}.{k}" for k in range(rng.randint(0, max_size)))
        for i in index
    }


def random_pullback_square(rng: random.Random, max_size: int = 3):
    """A random cospan completed to its chosen pullback square."""
    c_set = tuple(f"c{k}" for k in range(rng.randint(1, max_size)))
    a_set = tuple(f"a{k}" for k in range(rng.randint(1, max_size)))
    d_set = tuple(f"d{k}" for k in range(rng.randint(1, max_size)))
    u = random_fin_map(rng, a_set, c_set)
    g = random_fin_map(rng, d_set, c_set)
    _, f, v = chosen_pullback(u, g)
    return v, f, u, g


def random_cartesian_pair(rng: random.Random, max_size: int = 3):
    """A random parallel pair of cartesian cells between 1 -> 1 polynomials."""
    a_set = tuple(f"a{k}" for k in range(rng.randint(1, max_size)))
    b_set = tuple(f"b{k}" for k in range(rng.randint(0, max_size)))
    f = random_fin_map(rng, b_set, a_set)
    src = poly_from_map(f)
    # build the codomain as a pullback of a random map along random phi0
    c_set = tuple(f"c{k}" for k in range(rng.randint(1, max_size)))
    d_set = tuple(f"d{k}" for k in range(rng.randint(0, max_size)))
    g = random_fin_map(rng, d_set, c_set)
    dst = poly_from_map(g)
    f_sizes = [(a, len(f.fibre(a))) for a in a_set]
    g_sizes = {c: len(g.fibre(c)) for c in c_set}

    def random_cartesian() -> Optional[PolyMorphism]:
        for _ in range(40):
            # φ₀ is drawn as a dict and made a FinMap only once it is kept:
            # it needs fibrewise bijections B_a ≅ D_{φ₀(a)}
            phi0 = {a: rng.choice(c_set) for a in a_set}
            if any(n != g_sizes[phi0[a]] for a, n in f_sizes):
                continue
            mapping = {}
            for a in a_set:
                dn = list(g.fibre(phi0[a]))
                rng.shuffle(dn)
                mapping.update(zip(f.fibre(a), dn))
            return cell_from_square(
                src, dst, fin_map(a_set, c_set, phi0), fin_map(f.dom, g.dom, mapping))
        return None

    first = random_cartesian()
    second = random_cartesian()
    if first is None or second is None:
        return None
    return first, second
