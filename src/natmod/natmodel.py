"""Natural models, the essentially algebraic axiom checker, and morphisms.

A :class:`NaturalModel` packages a bounded category of contexts with finite
type and term families, a typing map, substitution, and chosen context
extension data.  :func:`check_eat` verifies the twenty-seven equations of
the underlying essentially algebraic theory on every instantiation within a
size bound; the structure checkers (:func:`check_unit`, :func:`check_sigma`,
:func:`check_pi`) verify the equational form of unit, dependent sum and
dependent product structure together with the pullback property, delegating
the latter to the presheaf oracle.

:func:`model_presheaves` tabulates every substitution row for the code that
reads whole rows (``check_eat``, the morphism checkers, the rival search, the
Σ and Π squares, the file writer); the extension-square oracle and
:func:`check_unit` read only the substitution cells of their squares.

Σ- and Π-types are squares over the polynomial composite p·p
(:class:`CompositeModel`, the one enumeration of the pairs (A, B) and
quadruples (A, B, a, b), each named by a :class:`~natmod.fincat.Registry`
like every generated cell): Σ is a cartesian map p·p ⇒ p and Π a cartesian
map P_p(p) ⇒ p, after Awodey's natural models.  The former Σ̂ or Π̂ and the
introduction map pair̂ or λ̂ are natural transformations whose laws are
equations (i), (ii) and (iv) of the structure.  A Σ structure is formation,
pairing and split (fst and snd), a Π structure formation, λ and app.  The
eliminator is optional: without one, the checker reads it off the square,
as the inverse of the introduction map on each fibre over (Γ, A, B), and a
fibre with no preimage or several fails the equation that reads it; a
supplied eliminator is checked as given against the introduction.

Every checker returns a :class:`~natmod.report.Findings`, per law its
verdict and witnesses, at the bound it was computed at; nothing is claimed
beyond it.  ``check_eat`` files each witness under its equation number, the
structure checkers each "(ii) typeof(star) != unit" under ``ii``, and a
square that is not a pullback under ``pullback``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Generator, Iterator, Mapping, NamedTuple, Optional

from .fincat import (
    BoundedCategory,
    FinCatPresentation,
    Registry,
    category_violations,
    memo,
    truncate,
    tuple_key as _tuple_key,
)
from .presheaf import (
    NatTrans,
    Presheaf,
    check_pullback_square,
    identity_nat,
    yoneda,
    yoneda_map,
)
from .report import Findings


@dataclass(frozen=True)
class ExtensionData:
    """Chosen context extension: the object Γ•A, its projection and variable."""

    extended: str
    proj: str
    var: str


def _read(reg: Registry, key: str):
    """The cell ``key`` names in ``reg``; a key it never handed out raises ``ValueError``."""
    try:
        return reg.cells[key]
    except KeyError:
        raise ValueError(f"not a key of this model: {key!r}") from None


class NaturalModel(ABC):
    """Bounded-enumerable model of the theory of natural models.

    Types and terms are string keys local to a context; ``types(ctx, bound)``
    enumerates those of size at most ``bound`` (size is 1 except for tree
    models).  Substitution and extension are total on their stated domains.

    A model naming its types and terms by registries reads them through
    :func:`_read`: a key it never handed out raises ``ValueError`` naming it,
    from ``typeof``, ``subst_ty``, ``subst_tm``, ``ext`` and ``indsub``.
    """

    base: BoundedCategory

    @property
    def terminal(self) -> str:
        t = self.base.terminal
        assert t is not None
        return t

    @abstractmethod
    def types(self, ctx: str, bound: int) -> list[str]: ...

    @abstractmethod
    def terms(self, ctx: str, bound: int) -> list[str]: ...

    @abstractmethod
    def typeof(self, ctx: str, term: str) -> str: ...

    @abstractmethod
    def subst_ty(self, sigma: str, ty: str) -> str:
        """A[σ] for σ : Δ -> Γ and A a type over Γ; result is a type over Δ."""

    @abstractmethod
    def subst_tm(self, sigma: str, term: str) -> str: ...

    @abstractmethod
    def ext(self, ctx: str, ty: str) -> ExtensionData: ...

    # -- optional hooks --------------------------------------------------
    # Closed forms and tabulations a model may supply; the defaults search
    # or go cell by cell.  ``model_presheaves`` reads the action of each
    # morphism through the two row hooks, and the morphism checkers compare
    # naturality through them.  A returned row is read-only: a model may
    # share one row between callers and between morphisms, as every free
    # extension in ``freemodel`` does per wrapped inner morphism.
    def indsub(self, sigma: str, term: str, ty: str) -> Optional[str]:
        """Closed form for ⟨σ, a⟩_A, if the model has one."""
        return None

    def ext_parent(self, ctx: str) -> Optional[tuple[str, str]]:
        """If ctx == ext(parent, A).extended canonically, return (parent, A)."""
        return None

    def ty_size(self, ctx: str, ty: str) -> int:
        return 1

    def subst_ty_row(self, sigma: str, tys: list[str]) -> Mapping[str, str]:
        """{A: A[σ]} over types A of cod σ; a mapping the caller must not
        write, as the model may share it."""
        return {a: self.subst_ty(sigma, a) for a in tys}

    def subst_tm_row(self, sigma: str, tms: list[str]) -> Mapping[str, str]:
        """{a: a[σ]} over terms a of cod σ; a mapping the caller must not
        write, as the model may share it."""
        return {a: self.subst_tm(sigma, a) for a in tms}

    # -- derived helpers -------------------------------------------------
    def t(self, ctx: str) -> str:
        """The unique substitution into the empty context."""
        return self.base.to_terminal(ctx)

    def terms_of(self, ctx: str, ty: str, bound: int) -> list[str]:
        return [a for a in self.terms(ctx, bound) if self.typeof(ctx, a) == ty]


@memo
def induced_sub(model: NaturalModel, sigma: str, term: str, ty: str) -> str:
    """⟨σ, a⟩_A — closed form if the model has one, else exhaustive search.

    Requires cod(σ) to carry the type A and typeof(a) == A[σ].  The search
    enumerates hom(dom σ, Γ•A) and asserts exactly one candidate satisfies
    the two projection equations.
    """
    out = model.indsub(sigma, term, ty)
    if out is not None:
        return out
    base = model.base
    e = model.ext(base.cod(sigma), ty)
    hits = [
        tau
        for tau in base.hom(base.dom(sigma), e.extended)
        if base.compose(e.proj, tau) == sigma and model.subst_tm(tau, e.var) == term
    ]
    if len(hits) != 1:
        raise ValueError(
            f"induced substitution not unique: {len(hits)} candidates for "
            f"⟨{sigma}, {term}⟩ at type {ty}"
        )
    return hits[0]


def section(model: NaturalModel, ctx: str, term: str) -> str:
    """s_a = ⟨id_Γ, a⟩ : Γ -> Γ•A for a term a of type A over Γ."""
    return induced_sub(model, model.base.identity(ctx), term, model.typeof(ctx, term))


@memo
def canonical_pullback(model: NaturalModel, sigma: str, ty: str) -> str:
    """σ•A : Δ•A[σ] -> Γ•A, the top of the canonical pullback square."""
    base = model.base
    e = model.ext(base.dom(sigma), model.subst_ty(sigma, ty))
    return induced_sub(model, base.compose(sigma, e.proj), e.var, ty)


def swap_iso(model: NaturalModel, ctx: str, ty_o: str, ty_a: str) -> str:
    """The swap isomorphism Γ•O•A[p_O] -> Γ•A•O[p_A] for O, A over Γ.

    Both sides are pullbacks of the cospan of projections; the morphism is
    the mediating map induced by the universal property.  Its inverse is
    ``swap_iso(model, ctx, ty_a, ty_o)``.
    """
    e_o = model.ext(ctx, ty_o)
    a_over_o = model.subst_ty(e_o.proj, ty_a)
    e_ao = model.ext(e_o.extended, a_over_o)
    # component into Γ•A
    into_a = induced_sub(
        model,
        model.base.compose(e_o.proj, e_ao.proj),
        e_ao.var,
        ty_a,
    )
    # O-variable, weakened one extension further
    o_term = model.subst_tm(e_ao.proj, e_o.var)
    o_over_a = model.subst_ty(model.ext(ctx, ty_a).proj, ty_o)
    return induced_sub(model, into_a, o_term, o_over_a)


# ---------------------------------------------------------------------------
# The essentially algebraic theory checker
# ---------------------------------------------------------------------------

# The equation of the theory that each layer checker's law is.  (viii) and
# (ix) hold by construction, t_Γ being read off hom(Γ, ⋄); overlapping hom
# sets break no single equation and keep their law's name.
CATEGORY_EQUATIONS = {
    "dom-id": "i", "cod-id": "ii", "dom-comp": "iii", "cod-comp": "iv",
    "unit-right": "v", "unit-left": "vi", "associativity": "vii", "terminal": "x",
}
TY_EQUATIONS = {"identity": "xi", "composition": "xii", "closure": "xiii"}
TM_EQUATIONS = {"identity": "xiv", "composition": "xv", "closure": "xvi"}
TYPING_EQUATIONS = {"component": "xvii", "naturality": "xviii"}


def _report_laws(report: Findings, equations: dict[str, str],
                 violations: Generator[tuple[str, str], None, object]) -> object:
    """Add a layer checker's (law, witness) pairs to ``report``, each under
    its equation; returns what the checker returns."""
    while True:
        try:
            law, msg = next(violations)
        except StopIteration as stop:
            return stop.value
        report.add(equations.get(law, law), msg)


def check_eat(model: NaturalModel, bound: int, ty_bound: Optional[int] = None) -> Findings:
    """Check the twenty-seven equations on every in-bound instantiation.

    Equations (i)-(xviii) are the laws of the category, of the presheaves
    Ty and Tm and of p : Tm -> Ty, checked by the layer checkers on the
    model's materialization.  The category check composes each pair once,
    a row at a time, and returns a generating set when the category is
    lawful; functoriality of Ty and Tm is then checked along it, and
    naturality of p too when Ty and Tm are functorial.
    (xix)-(xxvii), the representability data, are checked here.  Partial
    operations are checked only on their domains of definition.  Violations
    are keyed by equation number "i".."xxvii", except that a morphism lying
    in two hom sets of the base is keyed "hom-sets", which names no single
    equation.  The instances are the contexts of the truncation.
    """
    if ty_bound is None:
        ty_bound = bound
    base = model.base
    ps = model_presheaves(model, bound, ty_bound)
    ctxs = ps.cat.object_keys
    report = Findings(bound, len(ctxs))
    # the category laws are checked on the base over the truncation's
    # objects: its terminal object counts maps into it where the truncation
    # has none (a boundary object of a file), and the truncation keeps only
    # the composites the presheaf checks read, not every one the laws make.
    # The laws closed under composition are then checked along the
    # generators of a lawful category, naturality only over functorial Ty
    # and Tm.
    gens = _report_laws(report, CATEGORY_EQUATIONS, category_violations(base, ctxs))
    _report_laws(report, TY_EQUATIONS, ps.ty.violations(gens))
    _report_laws(report, TM_EQUATIONS, ps.tm.violations(gens))
    functorial = report.violations.keys().isdisjoint(
        [*TY_EQUATIONS.values(), *TM_EQUATIONS.values()])
    _report_laws(report, TYPING_EQUATIONS, ps.p.violations(gens if functorial else None))

    ctx_set = set(ctxs)
    mors = [(m, a, b) for (a, b), ms in ps.cat.homs.items() for m in ms]
    tys, tms = ps.ty.values, ps.tm.values

    # (xix)-(xxvii): a model with internally inconsistent extension data can
    # make the derived operations fail outright; such failures are recorded
    # as violations rather than raised, since violations are data here.
    exts = {}
    for g in ctxs:
        for a_ty in tys[g]:
            try:
                e = model.ext(g, a_ty)
                exts[(g, a_ty)] = e
                if base.dom(e.proj) != e.extended:
                    report.add("xix", f"dom(p) for ({g}, {a_ty})")
                if base.cod(e.proj) != g:
                    report.add("xx", f"cod(p) for ({g}, {a_ty})")
                if model.typeof(e.extended, e.var) != model.subst_ty(e.proj, a_ty):
                    report.add("xxii", f"typeof(q) for ({g}, {a_ty})")
                # (xxi): the variable is a term over the extended context;
                # verified via typeof plus membership when in bound.
                if e.extended in ctx_set and e.var not in tms[e.extended]:
                    report.add("xxi", f"q not among terms of {e.extended}")
            except (ValueError, LookupError) as exc:
                report.add("xix", f"extension data at ({g}, {a_ty}) broken: {exc}")

    # (xxiii)-(xxvi) induced substitutions
    for m, a, b in mors:
        for a_ty in tys[b]:
            if (b, a_ty) not in exts:
                continue
            target = ps.ty.restrict(m, a_ty)
            for tm in tms[a]:
                if ps.p.apply(a, tm) != target:
                    continue
                try:
                    tau = induced_sub(model, m, tm, a_ty)
                    e = exts[(b, a_ty)]
                    if base.dom(tau) != a:
                        report.add("xxiii", f"dom(⟨{m},{tm}⟩)")
                    if base.cod(tau) != e.extended:
                        report.add("xxiv", f"cod(⟨{m},{tm}⟩)")
                    if base.compose(e.proj, tau) != m:
                        report.add("xxv", f"p ∘ ⟨{m},{tm}⟩ != {m}")
                    if model.subst_tm(tau, e.var) != tm:
                        report.add("xxvi", f"q[⟨{m},{tm}⟩] != {tm}")
                except (ValueError, LookupError) as exc:
                    report.add("xxvii", f"⟨{m},{tm}⟩ at {a_ty}: {exc}")

    # (xxvii) uniqueness: ⟨p∘σ', q[σ']⟩ = σ' for every σ' into an extension
    for g in ctxs:
        for a_ty in tys[g]:
            if (g, a_ty) not in exts:
                continue
            e = exts[(g, a_ty)]
            for d in ctxs:
                try:
                    candidates = base.hom(d, e.extended)
                except (ValueError, LookupError) as exc:
                    report.add("xxvii", f"hom({d}, {e.extended}): {exc}")
                    continue
                for sp in candidates:
                    try:
                        m0 = base.compose(e.proj, sp)
                        tm0 = model.subst_tm(sp, e.var)
                        back = induced_sub(model, m0, tm0, a_ty)
                        if back != sp:
                            report.add("xxvii", f"⟨p∘{sp}, q[{sp}]⟩ = {back} != {sp}")
                    except (ValueError, LookupError) as exc:
                        # LookupError includes a cell a model file lacks: a
                        # projection with the wrong codomain asks for one
                        report.add("xxvii", f"retraction at {sp}: {exc}")
    return report


# ---------------------------------------------------------------------------
# Presheaf view of a model and the extension-square oracle
# ---------------------------------------------------------------------------

@dataclass
class ModelPresheaves:
    cat: FinCatPresentation
    ty: Presheaf
    tm: Presheaf
    p: NatTrans


def _classifier(model: NaturalModel, ctx_bound: int, ty_bound: int) -> ModelPresheaves:
    """Ty, Tm and p over the truncation: the values and the typing, no action yet."""
    cat = truncate(model.base, ctx_bound)
    ty_ps, tm_ps = (Presheaf(cat, {g: cells(g, ty_bound) for g in cat.object_keys}, {})
                    for cells in (model.types, model.terms))
    typing = {g: {a: model.typeof(g, a) for a in tm_ps.values[g]} for g in cat.object_keys}
    return ModelPresheaves(cat, ty_ps, tm_ps, NatTrans(tm_ps, ty_ps, typing))


def model_presheaves(model: NaturalModel, ctx_bound: int, ty_bound: int) -> ModelPresheaves:
    """Materialize the classifier p : U̇ -> U of a model over a base truncation.

    This is the one tabulation of a bounded model: every type, term, typing
    and substitution cell over the truncated base.  The action of each
    morphism on types and on terms is one row from the model's
    ``subst_ty_row``/``subst_tm_row`` hooks, for the code that reads them.
    """
    ps = _classifier(model, ctx_bound, ty_bound)
    for m in ps.cat.all_morphisms():
        dst = ps.cat.cod(m)
        ps.ty.action[m] = model.subst_ty_row(m, ps.ty.values[dst])
        ps.tm.action[m] = model.subst_tm_row(m, ps.tm.values[dst])
    return ps


def _element_cells(yon: Presheaf, ps: Presheaf, cell: Callable[[str, str], str],
                   x: str) -> NatTrans:
    """y(c) -> ps classifying x in ps(c), read cell by cell: h ↦ cell(h, x) = x[h]."""
    return NatTrans(yon, ps, {d: {h: cell(h, x) for h in yon.at(d)}
                              for d in yon.base.object_keys})


@dataclass
class SquareOracleReport:
    ctx_bound: int
    ty_bound: int
    checked: list[tuple[str, str]] = field(default_factory=list)
    failed: list[tuple[str, str]] = field(default_factory=list)
    skipped: list[tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failed


def extension_square_oracle(
    model: NaturalModel, ctx_bound: int, ty_bound: int, square_ctx_bound: int,
) -> SquareOracleReport:
    """Run the pullback oracle on every in-bound extension square.

    The base is truncated at ``ctx_bound`` and types at ``ty_bound``; squares
    are checked for contexts of size at most ``square_ctx_bound``, at most
    ``ctx_bound - 1`` keeping the extended object inside the truncation.
    Extensions that leave the truncation are reported as skipped.

    Ty, Tm and p are listed once, and each square reads only its cells A[σ]
    and q_A[h]; a q_A outside Tm(Γ•A) forms no square, and fails.
    """
    ps = _classifier(model, ctx_bound, ty_bound)
    yons: dict[str, Presheaf] = {}  # representables of the contexts the squares use
    report = SquareOracleReport(ctx_bound, ty_bound)
    for g in model.base.objects(square_ctx_bound):
        for a_ty in model.types(g, ty_bound):
            e = model.ext(g, a_ty)
            if e.extended not in ps.tm.values:
                report.skipped.append((g, a_ty))
                continue
            report.checked.append((g, a_ty))
            for d in (g, e.extended):
                if d not in yons:
                    yons[d] = yoneda(ps.cat, d)
            try:
                is_pullback = e.var in ps.tm.values[e.extended] and check_pullback_square(
                    ps.p,
                    _element_cells(yons[g], ps.ty, model.subst_ty, a_ty),
                    _element_cells(yons[e.extended], ps.tm, model.subst_tm, e.var),
                    yoneda_map(ps.cat, e.proj, yons[e.extended], yons[g]),
                )
            except KeyError:
                # a cell the square needs is missing: the data forms no square
                is_pullback = False
            if not is_pullback:
                report.failed.append((g, a_ty))
    return report


# ---------------------------------------------------------------------------
# The polynomial composite q·p, whose types and terms are the (A, B) pairs and
# (A, B, a, b) quadruples
# ---------------------------------------------------------------------------

class CompositeModel(NaturalModel):
    """The polynomial composite (ℂ, q·p) of two models over one base category.

    Types are pairs (A, B) with A a type of the outer model and B a type of
    the inner model over the outer extension; terms are the matching
    quadruples.  Both are named by a :class:`~natmod.fincat.Registry`,
    ``tys`` and ``tms``, which spells each as :func:`~natmod.fincat.tuple_key`.
    Extension composes the two chosen extensions.
    """

    def __init__(self, inner_p: NaturalModel, outer_q: NaturalModel):
        if inner_p.base is not outer_q.base:
            raise ValueError("polynomial composite requires a shared base category, "
                             f"not {inner_p.base!r} and {outer_q.base!r}")
        self.p = inner_p
        self.q = outer_q
        self.base = inner_p.base
        self.tys = Registry(_tuple_key)  # the pairs (A, B)
        self.tms = Registry(_tuple_key)  # the quadruples (A, B, a, b)

    def types(self, ctx: str, bound: int) -> list[str]:
        out = []
        for a in self.q.types(ctx, bound):
            za = self.q.ty_size(ctx, a)
            mid = self.q.ext(ctx, a).extended
            for b in self.p.types(mid, bound - za):
                out.append(self.tys.key((a, b)))
        return out

    def terms(self, ctx: str, bound: int) -> list[str]:
        out = []
        for key in self.types(ctx, bound):
            a, b = _read(self.tys, key)
            for x in self.q.terms_of(ctx, a, bound):
                s_x = section(self.q, ctx, x)
                b_at = self.p.subst_ty(s_x, b)
                for y in self.p.terms_of(ctx, b_at, bound):
                    out.append(self.tms.key((a, b, x, y)))
        return out

    def typeof(self, ctx: str, term: str) -> str:
        a, b, x, y = _read(self.tms, term)
        try:
            self.q.typeof(ctx, x)
            self.p.typeof(ctx, y)
        except ValueError:
            raise ValueError(f"{term} is not a term over {ctx}") from None
        return self.tys.key((a, b))

    def ty_size(self, ctx: str, ty: str) -> int:
        a, b = _read(self.tys, ty)
        mid = self.q.ext(ctx, a).extended
        return self.q.ty_size(ctx, a) + self.p.ty_size(mid, b)

    def subst_ty(self, sigma: str, ty: str) -> str:
        a, b = _read(self.tys, ty)
        sigma_ext = canonical_pullback(self.q, sigma, a)
        return self.tys.key((self.q.subst_ty(sigma, a), self.p.subst_ty(sigma_ext, b)))

    def subst_tm(self, sigma: str, term: str) -> str:
        a, b, x, y = _read(self.tms, term)
        sigma_ext = canonical_pullback(self.q, sigma, a)
        return self.tms.key((
            self.q.subst_ty(sigma, a),
            self.p.subst_ty(sigma_ext, b),
            self.q.subst_tm(sigma, x),
            self.p.subst_tm(sigma, y),
        ))

    @memo
    def ext(self, ctx: str, ty: str) -> ExtensionData:
        a, b = _read(self.tys, ty)
        e_q = self.q.ext(ctx, a)
        e_p = self.p.ext(e_q.extended, b)
        proj = self.base.compose(e_q.proj, e_p.proj)
        a_wk = self.q.subst_ty(proj, a)
        b_wk = self.p.subst_ty(canonical_pullback(self.q, proj, a), b)
        x_wk = self.q.subst_tm(e_p.proj, e_q.var)
        return ExtensionData(e_p.extended, proj, self.tms.key((a_wk, b_wk, x_wk, e_p.var)))

    def indsub(self, sigma: str, term: str, ty: str) -> Optional[str]:
        a, b = _read(self.tys, ty)
        _, _, x, y = _read(self.tms, term)
        tau1 = induced_sub(self.q, sigma, x, a)
        return induced_sub(self.p, tau1, y, b)


# ---------------------------------------------------------------------------
# Type theoretic structure
# ---------------------------------------------------------------------------

@dataclass
class UnitStructure:
    unit_ty: str
    star_tm: str


@dataclass
class SigmaStructure:
    # formation sigma(ctx, A, B) with B over ctx•A; pairing pair(ctx, A, B,
    # a, b) with typeof(a) = A and typeof(b) = B[⟨id, a⟩]; elimination
    # split(ctx, A, B, t) = (fst t, snd t) for a term t of Σ(A, B), raising
    # ValueError when t is not one.  Without a split, check_sigma inverts
    # the pairing on the Σ square, and sigma_of_tree refuses the structure.
    sigma: Callable[[str, str, str], str]
    pair: Callable[[str, str, str, str, str], str]
    split: Optional[Callable[[str, str, str, str], tuple[str, str]]] = None


@dataclass
class PiStructure:
    # formation pi(ctx, A, B) with B over ctx•A; abstraction lam(ctx, A, B, b)
    # with b over ctx•A; elimination app(ctx, A, B, f, a) = f(a) for a term f
    # of Π(A, B) and a of A, raising ValueError when it has no value.
    # Without an app, check_pi inverts λ on the Π square.
    pi: Callable[[str, str, str], str]
    lam: Callable[[str, str, str, str], str]
    app: Optional[Callable[[str, str, str, str, str], str]] = None


def _filer(report: Findings) -> Callable[[str, str], None]:
    """``add(eq, msg)``: file the witness "(eq) msg" under equation eq."""
    return lambda eq, msg: report.add(eq, f"({eq}) {msg}")


def check_unit(model: NaturalModel, u: UnitStructure, bound: int) -> Findings:
    """The four unit-type equations plus the pullback property via the oracle.

    The square reads unit[t_Δ] and ⋆[t_Δ] cell by cell, as the oracle does;
    its failure is filed under ``pullback``.  Sort mismatches (a structure
    component that is not a closed type or term) are reported as violations
    rather than raised.
    """
    report = Findings(bound)
    add = _filer(report)
    diamond = model.terminal
    if u.unit_ty not in model.types(diamond, bound):
        add("i", "the unit type is not a closed type")
        return report
    if u.star_tm not in model.terms(diamond, bound):
        add("ii", "the distinguished term is not a closed term")
        return report
    if model.typeof(diamond, u.star_tm) != u.unit_ty:
        add("ii", "typeof(star) != unit")
    e = model.ext(diamond, u.unit_ty)
    if e.proj != model.t(e.extended):
        add("iii", "projection of the unit extension is not the terminal map")
    if e.var != model.subst_tm(model.t(e.extended), u.star_tm):
        add("iv", "variable of the unit extension is not star weakened")

    ps = _classifier(model, bound, bound)
    y_d = yoneda(ps.cat, diamond)
    x_nt = _element_cells(y_d, ps.ty, model.subst_ty, u.unit_ty)
    top = _element_cells(y_d, ps.tm, model.subst_tm, u.star_tm)
    if not check_pullback_square(ps.p, x_nt, top, identity_nat(y_d)):
        report.add("pullback", "unit square is not a pullback within the bound")
    return report


def sigma_split(
    model: NaturalModel, s: SigmaStructure, ctx: str, ty_a: str, ty_b: str,
    pair_tm: str, bound: int,
) -> tuple[str, str]:
    """(fst, snd) of a term of Σ(A, B), found by enumerating the pairing's inputs.

    Nothing calls it: ``check_sigma`` reads a missing split off the Σ square.
    It is kept only because the benchmark's layer trace (``bench/layertrace.py``)
    names it in its trace list, and it goes when that list next changes.
    """
    hits = []
    for a in model.terms_of(ctx, ty_a, bound):
        s_a = section(model, ctx, a)
        b_ty = model.subst_ty(s_a, ty_b)
        for b in model.terms_of(ctx, b_ty, bound):
            if s.pair(ctx, ty_a, ty_b, a, b) == pair_tm:
                hits.append((a, b))
    if len(hits) != 1:
        raise ValueError(
            f"pairing not bijective onto {pair_tm!r} at ({ctx}, {ty_a}, {ty_b}): "
            f"{len(hits)} preimages"
        )
    return hits[0]


# The laws of a former square's two maps, as the equations they are: Σ̂ and
# Π̂ send each pair (A, B) to a type (i) stably under substitution (ii); pair̂
# and λ̂ send each element of E to a term (iii) stably under substitution (iv).
FORMER_EQUATIONS = {"component": "i", "naturality": "ii"}
INTRO_EQUATIONS = {"component": "iii", "naturality": "iv"}


class _StructureMap(NatTrans):
    """Σ̂, pair̂, Π̂ or λ̂: x ↦ fn(Γ, *parts[x]), its witnesses naming x as ``notation``."""

    def __init__(self, dom: Presheaf, cod: Presheaf, parts: dict[str, tuple[str, ...]],
                 fn: Callable[..., str], notation: str):
        super().__init__(dom, cod, {
            g: {x: fn(g, *parts[x]) for x in dom.at(g)} for g in dom.base.object_keys
        })
        self.parts, self.notation = parts, notation

    def describe(self, x: str) -> str:
        return self.notation.format(*self.parts[x])


class FormerSquare(NamedTuple):
    """The square of a type former, in :func:`check_pullback_square`'s order.

    ::

        E --intro--> Tm
        |            |
       leg           p
        v            v
        P --former-> Ty

    P is the Ty of the composite p·p: the pairs (A, B) with B over Γ•A.
    """

    p: NatTrans
    former: _StructureMap
    intro: _StructureMap
    leg: NatTrans


def _square_report(sq: FormerSquare, bound: int, name: str) -> Findings:
    """The laws of former and intro and the pullback verdict, over the pairs (A, B)."""
    report = Findings(bound, sum(map(len, sq.former.dom.values.values())))
    add = _filer(report)
    for equations, nt in ((FORMER_EQUATIONS, sq.former), (INTRO_EQUATIONS, sq.intro)):
        for law, msg in nt.violations():
            add(equations[law], msg)
    if not check_pullback_square(*sq):
        report.add("pullback", f"{name} square is not a pullback within the bound")
    return report


def _restrictions(sq: FormerSquare, g: str, key: str, *tms: str) -> Iterator[tuple]:
    """(m, Δ, A[m], B[m•A], *t[m]) for each m : Δ -> Γ = g of the truncation,
    (A, B) = key, read off the square's tabulated pairs and terms."""
    for d in sq.p.dom.base.object_keys:
        for m in sq.p.dom.base.hom(d, g):
            yield (m, d, *sq.former.parts[sq.former.dom.restrict(m, key)],
                   *(sq.p.dom.restrict(m, t) for t in tms))


def _intro_inverse(sq: FormerSquare) -> Callable[[str, str, str, str], str]:
    """(Γ, A, B, t) ↦ the one element of E over (A|B) that intro sends to t.

    intro inverted on each fibre over (Γ, A, B), Γ in the truncation: the
    eliminator of a pullback square.  A fibre with no such element, or with
    several, raises ``ValueError`` naming (Γ, A, B, t) and the count.
    """
    fibres: dict[tuple[str, ...], list[str]] = {}
    for g in sq.p.dom.base.object_keys:
        for x in sq.intro.dom.at(g):
            over = sq.former.parts[sq.leg.apply(g, x)]
            fibres.setdefault((g, *over, sq.intro.apply(g, x)), []).append(x)

    def inverse(g: str, ty_a: str, ty_b: str, t: str) -> str:
        hits = fibres.get((g, ty_a, ty_b, t), [])
        if len(hits) != 1:
            raise ValueError(f"{t!r} over ({g}, {ty_a}, {ty_b}) has {len(hits)} preimages")
        return hits[0]

    return inverse


def sigma_square(model: NaturalModel, s: SigmaStructure, bound: int) -> FormerSquare:
    """Σ̂ : p·p ⇒ p; E is the Tm of p·p, the quadruples (A, B, a, b)."""
    comp = CompositeModel(model, model)
    ps, pp = model_presheaves(model, bound, bound), model_presheaves(comp, bound, bound)
    return FormerSquare(
        ps.p,
        _StructureMap(pp.ty, ps.ty, comp.tys.cells, s.sigma, "Σ({},{})"),
        _StructureMap(pp.tm, ps.tm, comp.tms.cells, s.pair, "pair({2},{3})"),
        pp.p,
    )


def pi_square(model: NaturalModel, s: PiStructure, bound: int) -> FormerSquare:
    """Π̂ : P_p(p) ⇒ p; E is P_p(Tm), the bodies (A, b) with b a term over Γ•A.

    A body is the cell (A, B, b) of a :class:`~natmod.fincat.Registry`, keyed
    (A|B|b), B being the type of b; (A, b)[σ] = (A[σ], b[σ•A]) and the leg
    sends (A, b) to (A, B).
    """
    comp = CompositeModel(model, model)
    ps, pp = model_presheaves(model, bound, bound), model_presheaves(comp, bound, bound)
    cat = ps.cat
    reg = Registry(_tuple_key)
    bodies: dict[str, list[str]] = {g: [] for g in cat.object_keys}
    for g in cat.object_keys:
        for ty_a in ps.ty.at(g):
            over = model.ext(g, ty_a).extended
            for b in model.terms(over, bound - model.ty_size(g, ty_a)):
                bodies[g].append(reg.key((ty_a, model.typeof(over, b), b)))

    def restrict(m: str, key: str) -> str:
        ty_a, ty_b, b = reg.cells[key]
        m_a = canonical_pullback(model, m, ty_a)
        return reg.key((model.subst_ty(m, ty_a), model.subst_ty(m_a, ty_b), model.subst_tm(m_a, b)))

    body_ps = Presheaf(cat, bodies, {
        m: {k: restrict(m, k) for k in bodies[cat.cod(m)]} for m in cat.all_morphisms()
    })
    return FormerSquare(
        ps.p,
        _StructureMap(pp.ty, ps.ty, comp.tys.cells, s.pi, "Π({},{})"),
        _StructureMap(body_ps, ps.tm, reg.cells, s.lam, "λ({2})"),
        NatTrans(body_ps, pp.ty, {
            g: {k: comp.tys.key(reg.cells[k][:2]) for k in bodies[g]} for g in cat.object_keys
        }),
    )


def check_sigma(model: NaturalModel, s: SigmaStructure, bound: int) -> Findings:
    """The eleven Σ equations (including β/η) and the square of :func:`sigma_square`.

    (i), (ii) and (iv) are the laws of Σ̂ and pair̂; (iii) and (v)-(xi) are
    checked on every pair and quadruple of p·p, cross-checking the oracle.
    (v)-(xi) are read off ``s.split``; a component it returns that is no
    term of Γ in bound is reported under (v) or (vii).  Without a split, the
    split of t is the (a, b) of the one quadruple (A, B, a, b) that pair̂
    sends to t, and a t with no such quadruple or several fails where the
    split is read, under (xi) or (vi/viii).  The instances are the pairs
    (A, B).
    """
    sq = sigma_square(model, s, bound)
    report = _square_report(sq, bound, "Σ")
    split = s.split
    if split is None:
        quadruple = _intro_inverse(sq)

        def split(g: str, ty_a: str, ty_b: str, t: str) -> tuple[str, str]:
            return sq.intro.parts[quadruple(g, ty_a, ty_b, t)][2:]
    add = _filer(report)
    for g in sq.p.dom.base.object_keys:
        tys, tms = set(sq.p.cod.at(g)), set(sq.p.dom.at(g))
        splits = {}  # ((A|B), term of Σ(A, B)) -> (fst, snd)
        # (v)-(viii), (xi): projections on arbitrary terms of the sum type
        for key in sq.former.dom.at(g):
            sig = sq.former.apply(g, key)
            if sig not in tys:
                continue  # reported as (i)
            ty_a, ty_b = sq.former.parts[key]
            for p_tm in model.terms_of(g, sig, bound):
                try:
                    fa, sb = splits[key, p_tm] = split(g, ty_a, ty_b, p_tm)
                except ValueError as exc:
                    add("xi", str(exc))
                    continue
                if fa not in tms:
                    add("v", f"fst({p_tm}) = {fa!r} is not a term of {g} in bound")
                if sb not in tms:
                    add("vii", f"snd({p_tm}) = {sb!r} is not a term of {g} in bound")
                if fa not in tms or sb not in tms:
                    continue
                if model.typeof(g, fa) != ty_a:
                    add("v", f"typeof(fst({p_tm}))")
                elif model.typeof(g, sb) != model.subst_ty(section(model, g, fa), ty_b):
                    add("vii", f"typeof(snd({p_tm}))")
                if s.pair(g, ty_a, ty_b, fa, sb) != p_tm:
                    add("xi", f"pair(fst,snd)({p_tm})")
                for m, d, a_m, b_m, t_m, fa_m, sb_m in _restrictions(sq, g, key, p_tm, fa, sb):
                    try:
                        fa2, sb2 = split(d, a_m, b_m, t_m)
                    except ValueError as exc:
                        add("vi/viii", str(exc))
                        continue
                    if fa2 != fa_m:
                        add("vi", f"fst({p_tm})[{m}]")
                    if sb2 != sb_m:
                        add("viii", f"snd({p_tm})[{m}]")
        # (iii), (ix), (x): the typing and computation rules of pairs
        for quad in sq.intro.dom.at(g):
            key, pr = sq.leg.apply(g, quad), sq.intro.apply(g, quad)
            if sq.former.apply(g, key) not in tys or pr not in tms:
                continue  # reported as (i) or (iii)
            ty_a, ty_b, a, b = sq.intro.parts[quad]
            if sq.p.apply(g, pr) != sq.former.apply(g, key):
                add("iii", f"typeof(pair({a},{b}))")
            elif (key, pr) in splits:  # else its split failed, reported as (xi)
                fa, sb = splits[key, pr]
                if fa != a:
                    add("ix", f"fst(pair({a},{b})) = {fa}")
                if sb != b:
                    add("x", f"snd(pair({a},{b})) = {sb}")
    return report


def check_pi(model: NaturalModel, s: PiStructure, bound: int) -> Findings:
    """The eight Π equations and the square of :func:`pi_square`.

    (i), (ii) and (iv) are the laws of Π̂ and λ̂; (iii) and (v)-(viii) are
    checked on every pair (A, B) of p·p, cross-checking the oracle.
    (v)-(viii) are read off ``s.app``; an app(f, a) that is no term of Γ in
    bound is reported under (v).  Without an app, app(f, a) is b[⟨id, a⟩]
    for the one body b that λ̂ sends to f, and an f with no such body or
    several fails where app is read, under (v), (vi) or (vii).  That app is
    known only over the truncation, and η calls app over Γ•A, so for it η
    (viii) is checked only where Γ•A lies in the truncation.  The instances
    are the pairs (A, B).
    """
    sq = pi_square(model, s, bound)
    report = _square_report(sq, bound, "Π")
    app = s.app
    if app is None:
        body_of = _intro_inverse(sq)

        def app(g: str, ty_a: str, ty_b: str, f: str, a: str) -> str:
            b = sq.intro.parts[body_of(g, ty_a, ty_b, f)][2]
            return model.subst_tm(section(model, g, a), b)
    add = _filer(report)
    for g in sq.p.dom.base.object_keys:
        tys, tms = set(sq.p.cod.at(g)), set(sq.p.dom.at(g))
        # (iii), (vii): the typing and computation rules of λ on every body
        for body in sq.intro.dom.at(g):
            pi_ty, lam = sq.former.apply(g, sq.leg.apply(g, body)), sq.intro.apply(g, body)
            if pi_ty not in tys or lam not in tms:
                continue  # reported as (i) or (iii)
            ty_a, ty_b, b = sq.intro.parts[body]
            if sq.p.apply(g, lam) != pi_ty:
                add("iii", f"typeof(λ({b}))")
            for a in model.terms_of(g, ty_a, bound):
                try:
                    res = app(g, ty_a, ty_b, lam, a)
                except ValueError as exc:
                    add("vii", str(exc))
                    continue
                if res != model.subst_tm(section(model, g, a), b):
                    add("vii", f"app(λ({b}),{a})")
        # (v), (vi), (viii): application and η on arbitrary terms of Π(A, B)
        for key in sq.former.dom.at(g):
            pi_ty = sq.former.apply(g, key)
            if pi_ty not in tys:
                continue  # reported as (i)
            ty_a, ty_b = sq.former.parts[key]
            e = model.ext(g, ty_a)
            for f_tm in model.terms_of(g, pi_ty, bound):
                for a in model.terms_of(g, ty_a, bound):
                    try:
                        res = app(g, ty_a, ty_b, f_tm, a)
                    except ValueError as exc:
                        add("v", str(exc))
                        continue
                    if res not in tms:
                        add("v", f"app({f_tm},{a}) = {res!r} is not a term of {g} in bound")
                        continue
                    if model.typeof(g, res) != model.subst_ty(section(model, g, a), ty_b):
                        add("v", f"typeof(app({f_tm},{a}))")
                    for m, d, a_m, b_m, f_m, x_m, res_m in _restrictions(sq, g, key, f_tm, a, res):
                        try:
                            res2 = app(d, a_m, b_m, f_m, x_m)
                        except ValueError as exc:
                            add("vi", str(exc))
                            continue
                        if res2 != res_m:
                            add("vi", f"app({f_tm},{a})[{m}]")
                # (viii) η: λ(app(f[p_A], q_A)) = f, the body a term of B over Γ•A
                if s.app is None and e.extended not in sq.p.dom.values:
                    continue
                try:
                    body = app(
                        e.extended, model.subst_ty(e.proj, ty_a),
                        model.subst_ty(canonical_pullback(model, e.proj, ty_a), ty_b),
                        model.subst_tm(e.proj, f_tm), e.var,
                    )
                except ValueError as exc:
                    add("viii", str(exc))
                    continue
                if s.lam(g, ty_a, ty_b, body) != f_tm:
                    add("viii", f"λ(app({f_tm}[p], q)) != {f_tm}")
    return report
