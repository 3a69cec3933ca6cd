"""Natural models, the essentially algebraic axiom checker, and morphisms.

A :class:`NaturalModel` packages a bounded category of contexts with finite
type and term families, a typing map, substitution, and chosen context
extension data.  :func:`check_eat` verifies the twenty-seven equations of
the underlying essentially algebraic theory on every instantiation within a
size bound; the structure checkers (:func:`check_unit`, :func:`check_sigma`,
:func:`check_pi`) verify the equational form of unit, dependent sum and
dependent product structure together with the pullback property, delegating
the latter to the presheaf oracle.

All reports carry the bound they were computed at; nothing is claimed
beyond it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Optional

from .fincat import BoundedCategory, FinCatPresentation, category_violations, memo, truncate
from .presheaf import (
    NatTrans,
    Presheaf,
    check_pullback_square,
    element_nat,
    identity_nat,
    yoneda,
    yoneda_map,
)


@dataclass(frozen=True)
class ExtensionData:
    """Chosen context extension: the object Γ•A, its projection and variable."""

    extended: str
    proj: str
    var: str


class NaturalModel(ABC):
    """Bounded-enumerable model of the theory of natural models.

    Types and terms are string keys local to a context; ``types(ctx, bound)``
    enumerates those of size at most ``bound`` (size is 1 except for tree
    models).  Substitution and extension are total on their stated domains.
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
    def indsub(self, sigma: str, term: str, ty: str) -> Optional[str]:
        """Closed form for ⟨σ, a⟩_A, if the model has one."""
        return None

    def ext_parent(self, ctx: str) -> Optional[tuple[str, str]]:
        """If ctx == ext(parent, A).extended canonically, return (parent, A)."""
        return None

    def ty_size(self, ctx: str, ty: str) -> int:
        return 1

    def tm_size(self, ctx: str, term: str) -> int:
        return 1

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

ROMAN = [
    "i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix", "x",
    "xi", "xii", "xiii", "xiv", "xv", "xvi", "xvii", "xviii", "xix", "xx",
    "xxi", "xxii", "xxiii", "xxiv", "xxv", "xxvi", "xxvii",
]


@dataclass
class EatReport:
    bound: int
    violations: dict[str, list[str]] = field(default_factory=dict)

    def add(self, eq: str, msg: str) -> None:
        self.violations.setdefault(eq, []).append(msg)

    @property
    def ok(self) -> bool:
        return not self.violations


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


def check_eat(model: NaturalModel, bound: int, ty_bound: Optional[int] = None) -> EatReport:
    """Check the twenty-seven equations on every in-bound instantiation.

    Equations (i)-(xviii) are the laws of the category, of the presheaves
    Ty and Tm and of p : Tm -> Ty, checked by the layer checkers on the
    model's materialization; (xix)-(xxvii), the representability data, are
    checked here.  Partial operations are checked only on their domains of
    definition.  Violations are keyed by equation number "i".."xxvii",
    except that a morphism lying in two hom sets of the base is keyed
    "hom-sets", which names no single equation.
    """
    if ty_bound is None:
        ty_bound = bound
    base = model.base
    report = EatReport(bound)
    ps = model_presheaves(model, bound, ty_bound)
    ctxs = ps.cat.object_keys
    for equations, violations in (
        (CATEGORY_EQUATIONS, category_violations(base, ctxs)),
        (TY_EQUATIONS, ps.ty.violations()),
        (TM_EQUATIONS, ps.tm.violations()),
        (TYPING_EQUATIONS, ps.p.violations()),
    ):
        for law, msg in violations:
            report.add(equations.get(law, law), msg)

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
            except (ValueError, KeyError, IndexError) as exc:
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
                except (ValueError, KeyError, IndexError) as exc:
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
                except (ValueError, KeyError) as exc:
                    report.add("xxvii", f"hom({d}, {e.extended}): {exc}")
                    continue
                for sp in candidates:
                    try:
                        m0 = base.compose(e.proj, sp)
                        tm0 = model.subst_tm(sp, e.var)
                        back = induced_sub(model, m0, tm0, a_ty)
                        if back != sp:
                            report.add("xxvii", f"⟨p∘{sp}, q[{sp}]⟩ = {back} != {sp}")
                    except (ValueError, KeyError, IndexError) as exc:
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


def model_presheaves(model: NaturalModel, ctx_bound: int, ty_bound: int) -> ModelPresheaves:
    """Materialize the classifier p : U̇ -> U of a model over a base truncation.

    This is the one tabulation of a bounded model: every type, term, typing
    and substitution cell over the truncated base.
    """
    cat = truncate(model.base, ctx_bound)
    ty_vals = {g: model.types(g, ty_bound) for g in cat.object_keys}
    tm_vals = {g: model.terms(g, ty_bound) for g in cat.object_keys}
    ty_act = {}
    tm_act = {}
    for m in cat.all_morphisms():
        dst = cat.cod(m)
        ty_act[m] = {a: model.subst_ty(m, a) for a in ty_vals[dst]}
        tm_act[m] = {a: model.subst_tm(m, a) for a in tm_vals[dst]}
    ty_ps = Presheaf(cat, ty_vals, ty_act)
    tm_ps = Presheaf(cat, tm_vals, tm_act)
    p_nt = NatTrans(
        tm_ps, ty_ps,
        {g: {a: model.typeof(g, a) for a in tm_vals[g]} for g in cat.object_keys},
    )
    return ModelPresheaves(cat, ty_ps, tm_ps, p_nt)


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
    model: NaturalModel, ctx_bound: int, ty_bound: Optional[int] = None,
    square_ctx_bound: Optional[int] = None,
) -> SquareOracleReport:
    """Run the pullback oracle on every in-bound extension square.

    The base is truncated at ``ctx_bound``; squares are checked for contexts
    of size at most ``square_ctx_bound`` (default ``ctx_bound - 1`` so the
    extended object stays inside the truncation).  Extensions that leave the
    truncation are reported as skipped.
    """
    if ty_bound is None:
        ty_bound = ctx_bound
    if square_ctx_bound is None:
        square_ctx_bound = ctx_bound - 1
    ps = model_presheaves(model, ctx_bound, ty_bound)
    yons: dict[str, Presheaf] = {}  # representables of the contexts the squares use
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
                x_nt = element_nat(ps.cat, ps.ty, g, a_ty, yons[g])
                top = element_nat(ps.cat, ps.tm, e.extended, e.var, yons[e.extended])
                left = yoneda_map(ps.cat, e.proj, yons[e.extended], yons[g])
                is_pullback = check_pullback_square(ps.p, x_nt, top, left)
            except KeyError:
                # a cell the square needs is missing: the data forms no square
                is_pullback = False
            if not is_pullback:
                report.failed.append((g, a_ty))
    return report


# ---------------------------------------------------------------------------
# Type theoretic structure
# ---------------------------------------------------------------------------

@dataclass
class UnitStructure:
    unit_ty: str
    star_tm: str


@dataclass
class SigmaStructure:
    # sigma(ctx, A, B) with B over ctx•A; pair(ctx, A, B, a, b) with
    # typeof(a) = A and typeof(b) = B[⟨id, a⟩]
    sigma: Callable[[str, str, str], str]
    pair: Callable[[str, str, str, str, str], str]


@dataclass
class PiStructure:
    # pi(ctx, A, B) with B over ctx•A; lam(ctx, A, B, b) with b over ctx•A
    pi: Callable[[str, str, str], str]
    lam: Callable[[str, str, str, str], str]


@dataclass
class StructureReport:
    bound: int
    violations: list[str] = field(default_factory=list)

    def add(self, msg: str) -> None:
        self.violations.append(msg)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_unit(model: NaturalModel, u: UnitStructure, bound: int) -> StructureReport:
    """The four unit-type equations plus the pullback property via the oracle.

    Sort mismatches (a structure component that is not a closed type or
    term) are reported as violations rather than raised.
    """
    report = StructureReport(bound)
    diamond = model.terminal
    if u.unit_ty not in model.types(diamond, bound):
        report.add("(i) the unit type is not a closed type")
        return report
    try:
        if model.typeof(diamond, u.star_tm) != u.unit_ty:
            report.add("(ii) typeof(star) != unit")
    except (ValueError, KeyError, IndexError):
        report.add("(ii) the distinguished term is not a closed term")
        return report
    e = model.ext(diamond, u.unit_ty)
    if e.proj != model.t(e.extended):
        report.add("(iii) projection of the unit extension is not the terminal map")
    if e.var != model.subst_tm(model.t(e.extended), u.star_tm):
        report.add("(iv) variable of the unit extension is not star weakened")

    ps = model_presheaves(model, bound, bound)
    y_d = yoneda(ps.cat, diamond)
    x_nt = element_nat(ps.cat, ps.ty, diamond, u.unit_ty, y_d)
    top = element_nat(ps.cat, ps.tm, diamond, u.star_tm, y_d)
    left = identity_nat(y_d)
    if not check_pullback_square(ps.p, x_nt, top, left):
        report.add("unit square is not a pullback within the bound")
    return report


def sigma_split(
    model: NaturalModel, s: SigmaStructure, ctx: str, ty_a: str, ty_b: str,
    pair_tm: str, bound: int,
) -> tuple[str, str]:
    """Recover (fst, snd) of a term of Σ(A, B) by enumerating pairing inputs."""
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


def _type_pairs(model: NaturalModel, g: str, bound: int) -> list[tuple[str, str]]:
    """The pairs (A, B) over Γ with B over Γ•A and combined size within bound."""
    return [
        (ty_a, ty_b)
        for ty_a in model.types(g, bound)
        for ty_b in model.types(model.ext(g, ty_a).extended, bound - model.ty_size(g, ty_a))
    ]


def _sigma_tuples(model: NaturalModel, bound: int):
    """In-bound (Γ, A, B) with B over Γ•A and combined size within bound."""
    for g in model.base.objects(bound):
        for ty_a, ty_b in _type_pairs(model, g, bound):
            yield g, ty_a, ty_b


def check_sigma(model: NaturalModel, s: SigmaStructure, bound: int) -> StructureReport:
    """The eleven Σ equations (including β/η) plus the translated pullback square."""
    report = StructureReport(bound)
    base = model.base
    ctxs = base.objects(bound)

    for g, ty_a, ty_b in _sigma_tuples(model, bound):
        sig = s.sigma(g, ty_a, ty_b)
        if sig not in model.types(g, bound):
            report.add(f"(i) Σ({ty_a},{ty_b}) not a type over {g}")
            continue
        for d in ctxs:
            for m in base.hom(d, g):
                m_ext = canonical_pullback(model, m, ty_a)
                lhs = model.subst_ty(m, sig)
                rhs = s.sigma(d, model.subst_ty(m, ty_a), model.subst_ty(m_ext, ty_b))
                if lhs != rhs:
                    report.add(f"(ii) Σ({ty_a},{ty_b})[{m}]")
        for a in model.terms_of(g, ty_a, bound):
            s_a = section(model, g, a)
            b_ty = model.subst_ty(s_a, ty_b)
            for b in model.terms_of(g, b_ty, bound):
                pr = s.pair(g, ty_a, ty_b, a, b)
                if model.typeof(g, pr) != sig:
                    report.add(f"(iii) typeof(pair({a},{b}))")
                for d in ctxs:
                    for m in base.hom(d, g):
                        m_ext = canonical_pullback(model, m, ty_a)
                        lhs = model.subst_tm(m, pr)
                        rhs = s.pair(
                            d,
                            model.subst_ty(m, ty_a),
                            model.subst_ty(m_ext, ty_b),
                            model.subst_tm(m, a),
                            model.subst_tm(m, b),
                        )
                        if lhs != rhs:
                            report.add(f"(iv) pair({a},{b})[{m}]")
                # (ix)/(x) computation rules
                try:
                    fa, sb = sigma_split(model, s, g, ty_a, ty_b, pr, bound)
                except ValueError as exc:
                    report.add(f"(ix/x) {exc}")
                    continue
                if fa != a:
                    report.add(f"(ix) fst(pair({a},{b})) = {fa}")
                if sb != b:
                    report.add(f"(x) snd(pair({a},{b})) = {sb}")
        # (v)-(viii), (xi): projections on arbitrary terms of the sum type
        for p_tm in model.terms_of(g, sig, bound):
            try:
                fa, sb = sigma_split(model, s, g, ty_a, ty_b, p_tm, bound)
            except ValueError as exc:
                report.add(f"(xi) {exc}")
                continue
            if model.typeof(g, fa) != ty_a:
                report.add(f"(v) typeof(fst({p_tm}))")
            want = model.subst_ty(section(model, g, fa), ty_b)
            if model.typeof(g, sb) != want:
                report.add(f"(vii) typeof(snd({p_tm}))")
            if s.pair(g, ty_a, ty_b, fa, sb) != p_tm:
                report.add(f"(xi) pair(fst,snd)({p_tm})")
            for d in ctxs:
                for m in base.hom(d, g):
                    m_ext = canonical_pullback(model, m, ty_a)
                    a_s, b_s = model.subst_ty(m, ty_a), model.subst_ty(m_ext, ty_b)
                    try:
                        fa2, sb2 = sigma_split(
                            model, s, d, a_s, b_s, model.subst_tm(m, p_tm), bound
                        )
                    except ValueError as exc:
                        report.add(f"(vi/viii) {exc}")
                        continue
                    if fa2 != model.subst_tm(m, fa):
                        report.add(f"(vi) fst({p_tm})[{m}]")
                    if sb2 != model.subst_tm(m, sb):
                        report.add(f"(viii) snd({p_tm})[{m}]")

    # translated pullback square, checked by the presheaf oracle
    ps = model_presheaves(model, bound, bound)
    ok = _sigma_square_oracle(model, s, ps, bound)
    if not ok:
        report.add("Σ square is not a pullback within the bound")
    return report


def _sigma_square_oracle(
    model: NaturalModel, s: SigmaStructure, ps: ModelPresheaves, bound: int
) -> bool:
    """The (Σ̂, pair̂) square: quadruples (A, B, a, b) over the (A, B)-pairs."""

    def quads(g: str) -> list[tuple[str, ...]]:
        return [
            (ty_a, ty_b, a, b)
            for ty_a, ty_b in _type_pairs(model, g, bound)
            for a in model.terms_of(g, ty_a, bound)
            for b in model.terms_of(g, model.subst_ty(section(model, g, a), ty_b), bound)
        ]

    def act(m: str, quad: tuple[str, ...]) -> tuple[str, ...]:
        ty_a, ty_b, a, b = quad
        m_ext = canonical_pullback(model, m, ty_a)
        return (model.subst_ty(m, ty_a), model.subst_ty(m_ext, ty_b),
                model.subst_tm(m, a), model.subst_tm(m, b))

    return _pairs_square_oracle(
        model, ps, bound, quads, act,
        leg=lambda g, quad: quad[:2],
        former=s.sigma,
        intro=lambda g, quad: s.pair(g, *quad),
    )


def _pairs_square_oracle(
    model: NaturalModel,
    ps: ModelPresheaves,
    bound: int,
    elements: Callable[[str], list[tuple[str, ...]]],
    act: Callable[[str, tuple[str, ...]], tuple[str, ...]],
    leg: Callable[[str, tuple[str, ...]], tuple[str, str]],
    former: Callable[[str, str, str], str],
    intro: Callable[[str, tuple[str, ...]], str],
) -> bool:
    """Test the pullback square of a type former over the truncation ``ps``.

    ::

        E --intro--> U̇
        |            |
       leg           p
        v            v
        P --former-> U

    P(Γ) holds the pairs (A, B) with B over Γ•A, acted on by
    (A, B)[σ] = (A[σ], B[σ•A]).  E(Γ) holds ``elements(Γ)``, acted on by
    ``act``; ``leg`` sends an element to its pair.
    """
    cat = ps.cat
    key = lambda parts: "(" + "|".join(parts) + ")"

    def tabulate(elems: dict[str, list[tuple[str, ...]]], action) -> Presheaf:
        values = {g: [key(x) for x in elems[g]] for g in cat.object_keys}
        table = {
            m: {key(x): key(action(m, x)) for x in elems[cat.cod(m)]}
            for m in cat.all_morphisms()
        }
        return Presheaf(cat, values, table)

    def pair_act(m: str, pair: tuple[str, ...]) -> tuple[str, ...]:
        ty_a, ty_b = pair
        return model.subst_ty(m, ty_a), model.subst_ty(canonical_pullback(model, m, ty_a), ty_b)

    pairs = {g: _type_pairs(model, g, bound) for g in cat.object_keys}
    elems = {g: elements(g) for g in cat.object_keys}
    p_ps = tabulate(pairs, pair_act)
    e_ps = tabulate(elems, act)
    leg_nt = NatTrans(e_ps, p_ps, {
        g: {key(x): key(leg(g, x)) for x in elems[g]} for g in cat.object_keys
    })
    former_nt = NatTrans(p_ps, ps.ty, {
        g: {key(x): former(g, *x) for x in pairs[g]} for g in cat.object_keys
    })
    intro_nt = NatTrans(e_ps, ps.tm, {
        g: {key(x): intro(g, x) for x in elems[g]} for g in cat.object_keys
    })
    return check_pullback_square(ps.p, former_nt, intro_nt, leg_nt)


def pi_apply(
    model: NaturalModel, s: PiStructure, ctx: str, ty_a: str, ty_b: str,
    fn_tm: str, arg_tm: str, bound: int,
) -> str:
    """app(f, a), derived from the Π pullback by inverting λ on its fibre."""
    e = model.ext(ctx, ty_a)
    hits = [
        b for b in model.terms_of(e.extended, ty_b, bound)
        if s.lam(ctx, ty_a, ty_b, b) == fn_tm
    ]
    if len(hits) != 1:
        raise ValueError(f"λ not bijective onto {fn_tm!r}: {len(hits)} preimages")
    s_a = section(model, ctx, arg_tm)
    return model.subst_tm(s_a, hits[0])


def check_pi(model: NaturalModel, s: PiStructure, bound: int) -> StructureReport:
    """The eight Π equations plus the translated pullback square."""
    report = StructureReport(bound)
    base = model.base
    ctxs = base.objects(bound)
    for g, ty_a, ty_b in _sigma_tuples(model, bound):
        pi_ty = s.pi(g, ty_a, ty_b)
        if pi_ty not in model.types(g, bound):
            report.add(f"(i) Π({ty_a},{ty_b}) not a type over {g}")
            continue
        e = model.ext(g, ty_a)
        for d in ctxs:
            for m in base.hom(d, g):
                m_ext = canonical_pullback(model, m, ty_a)
                if model.subst_ty(m, pi_ty) != s.pi(
                    d, model.subst_ty(m, ty_a), model.subst_ty(m_ext, ty_b)
                ):
                    report.add(f"(ii) Π({ty_a},{ty_b})[{m}]")
        for b in model.terms_of(e.extended, ty_b, bound):
            lam = s.lam(g, ty_a, ty_b, b)
            if model.typeof(g, lam) != pi_ty:
                report.add(f"(iii) typeof(λ({b}))")
            for d in ctxs:
                for m in base.hom(d, g):
                    m_ext = canonical_pullback(model, m, ty_a)
                    lhs = model.subst_tm(m, lam)
                    rhs = s.lam(
                        d, model.subst_ty(m, ty_a), model.subst_ty(m_ext, ty_b),
                        model.subst_tm(m_ext, b),
                    )
                    if lhs != rhs:
                        report.add(f"(iv) λ({b})[{m}]")
            for a in model.terms_of(g, ty_a, bound):
                try:
                    res = pi_apply(model, s, g, ty_a, ty_b, lam, a, bound)
                except ValueError as exc:
                    report.add(f"(vii) {exc}")
                    continue
                s_a = section(model, g, a)
                if res != model.subst_tm(s_a, b):
                    report.add(f"(vii) app(λ({b}),{a})")
        for f_tm in model.terms_of(g, pi_ty, bound):
            for a in model.terms_of(g, ty_a, bound):
                try:
                    res = pi_apply(model, s, g, ty_a, ty_b, f_tm, a, bound)
                except ValueError as exc:
                    report.add(f"(v) {exc}")
                    continue
                s_a = section(model, g, a)
                if model.typeof(g, res) != model.subst_ty(s_a, ty_b):
                    report.add(f"(v) typeof(app({f_tm},{a}))")
                for d in ctxs:
                    for m in base.hom(d, g):
                        m_ext = canonical_pullback(model, m, ty_a)
                        lhs = model.subst_tm(m, res)
                        rhs = pi_apply(
                            model, s, d,
                            model.subst_ty(m, ty_a), model.subst_ty(m_ext, ty_b),
                            model.subst_tm(m, f_tm), model.subst_tm(m, a), bound,
                        )
                        if lhs != rhs:
                            report.add(f"(vi) app({f_tm},{a})[{m}]")
            # (viii) η: λ(app(f[p_A], q_A)) = f
            f_wk = model.subst_tm(e.proj, f_tm)
            try:
                body = pi_apply(
                    model, s, e.extended,
                    model.subst_ty(e.proj, ty_a),
                    model.subst_ty(canonical_pullback(model, e.proj, ty_a), ty_b),
                    f_wk, e.var, bound,
                )
            except ValueError as exc:
                report.add(f"(viii) {exc}")
                continue
            # body lives over (Γ•A)•(A weakened); substitute the diagonal to
            # land over Γ•A, then compare λ of it with f
            diag = induced_sub(
                model, base.identity(e.extended), e.var,
                model.subst_ty(e.proj, ty_a),
            )
            if s.lam(g, ty_a, ty_b, model.subst_tm(diag, body)) != f_tm:
                report.add(f"(viii) λ(app({f_tm}[p], q)) != {f_tm}")

    ps = model_presheaves(model, bound, bound)
    if not _pi_square_oracle(model, s, ps, bound):
        report.add("Π square is not a pullback within the bound")
    return report


def _pi_square_oracle(
    model: NaturalModel, s: PiStructure, ps: ModelPresheaves, bound: int
) -> bool:
    """The (Π̂, λ̂) square: bodies (A, b), with b a term over Γ•A, over the (A, B)-pairs."""

    def body_type(g: str, ty_a: str, b: str) -> str:
        return model.typeof(model.ext(g, ty_a).extended, b)

    def bodies(g: str) -> list[tuple[str, ...]]:
        return [
            (ty_a, b)
            for ty_a in model.types(g, bound)
            for b in model.terms(model.ext(g, ty_a).extended, bound - model.ty_size(g, ty_a))
        ]

    def act(m: str, body: tuple[str, ...]) -> tuple[str, ...]:
        ty_a, b = body
        return model.subst_ty(m, ty_a), model.subst_tm(canonical_pullback(model, m, ty_a), b)

    return _pairs_square_oracle(
        model, ps, bound, bodies, act,
        leg=lambda g, body: (body[0], body_type(g, *body)),
        former=s.pi,
        intro=lambda g, body: s.lam(g, body[0], body_type(g, *body), body[1]),
    )
