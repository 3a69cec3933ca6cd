"""Morphisms of natural models: checkers and bounded uniqueness enumeration.

A morphism is a terminal-preserving functor together with per-context maps
on types and terms (the right adjoint convention: components land in the
codomain model's families at the image context).  :func:`check_morphism`
verifies the premorphism laws and, depending on the flag, either strict
preservation of the chosen representability data or invertibility of the
mediating comparison maps; preservation of canonical pullback squares is
reported separately and never conflated with either.

Each law has one body, a generator of (check, witness) pairs over a scope
its caller passes: :func:`natmod.fincat.functor_violations`, and here
``_naturality``, ``_typing`` and ``_strictness``.  :func:`check_morphism`
passes the whole truncation, the rival search the constraints of a step.
Naturality compares whole rows: along each morphism it reads the source's
row and the images per context, and asks the codomain for one row per sort
through its ``subst_ty_row``/``subst_tm_row`` hooks, never for a single cell.

A strict morphism is determined by its root data: :class:`ForcedImages`
derives every other image, for the constructed morphisms of
:mod:`natmod.freemodel` and for the search's candidates alike.  The
checkers and the search read the source through ``model_presheaves``.

:func:`count_morphisms` enumerates all strict morphisms within a bound that
agree with a given set of pinned values, by treating the unknown images as
a finite constraint problem.  Every universal-property verification in the
package reduces to a call of this function asserting a count of one.  The
search visits contexts in order.  At context i it chooses the free values
one at a time (the types, then the terms, then the root morphisms) and
makes each choice on a fresh copy of the candidate, so backtracking undoes
nothing.  It checks each constraint once, at the step of its last
participant: the context of largest index among those the constraint reads.
Composition it checks only along generators; η for extensions in the
codomain gives the other composable pairs.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Optional

from .fincat import composable_pairs, functor_violations, is_pullback_square, memo
from .natmodel import (
    CompositeModel,
    ModelPresheaves,
    NaturalModel,
    SigmaStructure,
    canonical_pullback,
    induced_sub,
    model_presheaves,
)

_NO_IMAGES: Mapping[str, str] = MappingProxyType({})  # a context without images


@dataclass
class NMorphism:
    """A (candidate) morphism of natural models, given by four actions."""

    src: NaturalModel
    dst: NaturalModel
    on_obj: Callable[[str], str]
    on_mor: Callable[[str], str]
    on_ty: Callable[[str, str], str]   # (ctx, type) -> type over on_obj(ctx)
    on_tm: Callable[[str, str], str]
    name: str = ""


def identity_morphism(m: NaturalModel) -> NMorphism:
    return NMorphism(
        m, m,
        on_obj=lambda g: g,
        on_mor=lambda s: s,
        on_ty=lambda g, a: a,
        on_tm=lambda g, a: a,
        name="id",
    )


def compose_morphisms(g: NMorphism, f: NMorphism) -> NMorphism:
    """g ∘ f, composing the four actions (right adjoint convention)."""
    return NMorphism(
        f.src, g.dst,
        on_obj=lambda c: g.on_obj(f.on_obj(c)),
        on_mor=lambda s: g.on_mor(f.on_mor(s)),
        on_ty=lambda c, a: g.on_ty(f.on_obj(c), f.on_ty(c, a)),
        on_tm=lambda c, a: g.on_tm(f.on_obj(c), f.on_tm(c, a)),
        name=f"{g.name}∘{f.name}",
    )


class ForcedImages:
    """A strict morphism's images, derived from its root data.

    Strictness forces every image the extension decomposition reaches:
    identities go to identities, an extension context Γ•A to the codomain's
    ``ext`` of the images of Γ and A, and a morphism m into Γ•A to the
    induced substitution ⟨F(p∘m), F(q[m])⟩ at F(A).  The root data give the
    rest: ``root_obj(ctx)`` and ``root_mor(self, m)`` for contexts and
    morphisms the decomposition does not reach, and ``ty_image(self, ctx,
    ty)`` and ``tm_image(self, ctx, tm)``.  A root value of None means not
    (yet) known; every image derived from it is then None.  Derived images
    are cached in ``obj`` and ``mor``, which may be seeded with root values.
    """

    def __init__(self, src: NaturalModel, dst: NaturalModel, root_obj: Callable,
                 root_mor: Callable, ty_image: Callable, tm_image: Callable):
        self.src, self.dst = src, dst
        self._root_obj, self._root_mor = root_obj, root_mor
        self._ty_image, self._tm_image = ty_image, tm_image
        self.obj: dict[str, str] = {}
        self.mor: dict[str, str] = {}

    def on_ty(self, ctx: str, ty: str) -> Optional[str]:
        return self._ty_image(self, ctx, ty)

    def on_tm(self, ctx: str, tm: str) -> Optional[str]:
        return self._tm_image(self, ctx, tm)

    def on_obj(self, ctx: str) -> Optional[str]:
        if ctx not in self.obj:
            out = self._forced_obj(ctx)
            if out is None:
                return None
            self.obj[ctx] = out
        return self.obj[ctx]

    def on_mor(self, m: str) -> Optional[str]:
        if m not in self.mor:
            out = self._forced_mor(m)
            if out is None:
                return None
            self.mor[m] = out
        return self.mor[m]

    def _forced_obj(self, ctx: str) -> Optional[str]:
        parent = self.src.ext_parent(ctx)
        if parent is None:
            return self._root_obj(ctx)
        pctx, pty = parent
        fp, fty = self.on_obj(pctx), self.on_ty(pctx, pty)
        if fp is None or fty is None:
            return None
        return self.dst.ext(fp, fty).extended

    def _forced_mor(self, m: str) -> Optional[str]:
        src = self.src
        a, b = src.base.dom(m), src.base.cod(m)
        if a == b and m == src.base.identity(a):
            fa = self.on_obj(a)
            return None if fa is None else self.dst.base.identity(fa)
        parent = src.ext_parent(b)
        if parent is None:
            return self._root_mor(self, m)
        pctx, pty = parent
        e = src.ext(pctx, pty)
        f_base = self.on_mor(src.base.compose(e.proj, m))
        f_term = self.on_tm(a, src.subst_tm(m, e.var))
        f_ty = self.on_ty(pctx, pty)
        if f_base is None or f_term is None or f_ty is None:
            return None
        return self._induced(f_base, f_term, f_ty)

    def _induced(self, sigma: str, term: str, ty: str) -> Optional[str]:
        """⟨σ, a⟩_A in the codomain; a ValueError propagates."""
        return induced_sub(self.dst, sigma, term, ty)

    def morphism(self, name: str) -> NMorphism:
        return NMorphism(self.src, self.dst, self.on_obj, self.on_mor, self.on_ty, self.on_tm, name)


@dataclass
class MorphismReport:
    bound: int
    strict: bool
    checks: dict[str, list[str]] = field(default_factory=dict)

    def add(self, check: str, msg: str) -> None:
        self.checks.setdefault(check, []).append(msg)

    def ok_for(self, check: str) -> bool:
        return not self.checks.get(check)

    @property
    def premorphism_ok(self) -> bool:
        names = ["terminal", "functor", "ty-natural", "tm-natural", "typing"]
        return all(self.ok_for(n) for n in names)

    @property
    def ok(self) -> bool:
        if not self.premorphism_ok:
            return False
        if self.strict:
            return all(self.ok_for(n) for n in ["strict-ext", "strict-proj", "strict-var"])
        return self.ok_for("weak-tau")

    @property
    def preserves_canonical_pullbacks(self) -> bool:
        return self.ok_for("canonical-pullbacks")


def check_morphism(fm: NMorphism, bound: int, strict: bool = True) -> MorphismReport:
    """Verify morphism laws on every in-bound instantiation.

    The returned report contains separate entries for strict preservation of
    representability data, invertibility of the mediating maps (the weak
    condition), and preservation of canonical pullback squares; the latter
    two coincide within the bound but are computed independently.
    """
    report = MorphismReport(bound, strict)
    for check, msg in _checks(fm, model_presheaves(fm.src, bound, bound), bound):
        report.add(check, msg)
    return report


def _checks(fm: NMorphism, ps: ModelPresheaves, bound: int) -> Iterator[tuple[str, str]]:
    """check_morphism's checks over the whole truncation, law by law."""
    src, dst = fm.src, fm.dst
    if fm.on_obj(src.terminal) != dst.terminal:
        yield "terminal", "distinguished terminal object not preserved"
    ctxs = ps.cat.object_keys
    mors = [(m, a, b) for (a, b), ms in ps.cat.homs.items() for m in ms]
    # a morphism whose image has the wrong endpoints is reported once, by the
    # functor laws; the laws that compose or substitute along its image skip it
    misplaced = yield from functor_violations(
        src.base, dst.base, fm.on_obj, fm.on_mor, ctxs, mors, composable_pairs(mors))
    placed = [mor for mor in mors if mor[0] not in misplaced]
    ty_images = {g: {x: fm.on_ty(g, x) for x in ps.ty.values[g]} for g in ctxs}
    tm_images = {g: {x: fm.on_tm(g, x) for x in ps.tm.values[g]} for g in ctxs}
    yield from _naturality(fm, ps, placed, ty_images, tm_images)
    yield from _typing(fm, ps, ctxs)
    for g in ctxs:
        for ty in ps.ty.values[g]:
            yield from _strictness(fm, ((g, ty),))
            # weak condition: the mediating map ⟨F p, F q⟩ is invertible
            e = src.ext(g, ty)
            try:
                tau = induced_sub(
                    dst, fm.on_mor(e.proj), fm.on_tm(e.extended, e.var), fm.on_ty(g, ty)
                )
            except ValueError as exc:
                yield "weak-tau", f"({g}, {ty}): {exc}"
                continue
            # where F is strict here, τ = ⟨p, q⟩ is the identity, its own
            # inverse, so only a non-identity τ is searched
            if tau != dst.base.identity(dst.base.cod(tau)) and dst.base.is_iso(tau) is None:
                yield "weak-tau", f"mediating map at ({g}, {ty}) is not invertible"

    # preservation of canonical pullback squares, via the in-category oracle;
    # an image square whose legs do not compose is not preserved.  Image
    # squares repeat across (m, A): each distinct one is checked once, and its
    # fault is named under every (m, A) whose image it is
    faults: dict[tuple, Optional[str]] = {}  # image square -> None if a pullback
    for m, a, b in placed:
        for ty in ps.ty.values[b]:
            top = canonical_pullback(src, m, ty)
            e_sub = src.ext(a, ps.ty.restrict(m, ty))
            e = src.ext(b, ty)
            try:
                square = (fm.on_obj(e_sub.extended), fm.on_mor(e_sub.proj),
                          fm.on_mor(top), fm.on_mor(m), fm.on_mor(e.proj))
            except (ValueError, KeyError) as exc:
                yield "canonical-pullbacks", f"image square of ({m}, {ty}): {exc}"
                continue
            if square not in faults:
                faults[square] = _pullback_fault(dst.base, bound + 1, square)
            if faults[square] is not None:
                yield "canonical-pullbacks", f"image square of ({m}, {ty}){faults[square]}"


def _pullback_fault(c, bound: int, square: tuple) -> Optional[str]:
    """None if ``square`` is a pullback in ``c`` at ``bound``; otherwise the
    witness's suffix: empty, or the oracle's exception after a colon."""
    try:
        return None if is_pullback_square(c, bound, *square) else ""
    except (ValueError, KeyError) as exc:
        return f": {exc}"


# The laws of a strict morphism over a scope, as (check, witness) pairs; an
# image of None is a violation.  ``fm`` is an NMorphism or a search candidate:
# anything with src, dst and the four on_* actions.

def _naturality(
    fm, ps: ModelPresheaves, mors: Iterable[tuple[str, str, str]],
    ty: Mapping[str, Mapping[str, str]], tm: Mapping[str, Mapping[str, str]],
) -> Iterator[tuple[str, str]]:
    """ty-natural and tm-natural: F(x[m]) = F(x)[F m] for each (m, a, b) of
    ``mors`` and each type, then each term, x over b.  The image of m must
    lie in hom(F a, F b).

    ``ty`` and ``tm`` hold the images per context, ctx -> {x: F x}; a
    missing or None image is a violation.  Each (m, sort) is one comparison
    of rows: the images at a of the source row of m against the codomain's
    row along F m of the images at b, one ``subst_ty_row``/``subst_tm_row``
    call; the images at b are listed once per context.  Only a row that
    differs is walked, to name its cells in order.
    """
    dst = fm.dst
    laws = ((ps.ty, ty, dst.subst_ty_row, "ty-natural"),
            (ps.tm, tm, dst.subst_tm_row, "tm-natural"))
    at_b: dict[tuple[str, str], tuple[list, bool]] = {}  # (check, b) -> images at b, all there
    for m, a, b in mors:
        im = fm.on_mor(m)
        for sort, images, subst_row, check in laws:
            xs = sort.values[b]
            if not xs:
                continue
            if (check, b) not in at_b:
                fxs = list(map(images.get(b, _NO_IMAGES).get, xs))
                at_b[check, b] = fxs, None not in fxs
            fxs, complete = at_b[check, b]
            lhs = list(map(images.get(a, _NO_IMAGES).get, map(sort.row(m).__getitem__, xs)))
            row = None
            if complete:  # a substitution is never None, so equal rows hold no None
                row = subst_row(im, fxs)
                if lhs == list(map(row.__getitem__, fxs)):
                    continue
            for x, fmx, fx in zip(xs, lhs, fxs):
                if fmx is not None and fx is not None:
                    if row is None:  # the row of the cells that have both images
                        row = subst_row(im, [fy for fy, fmy in zip(fxs, lhs)
                                             if fy is not None and fmy is not None])
                    if fmx == row[fx]:
                        continue
                yield check, f"{x}[{m}]"


def _typing(fm, ps: ModelPresheaves, ctxs: Iterable[str]) -> Iterator[tuple[str, str]]:
    """typing: typeof(F t) = F(p t) at F Γ, for each Γ of ``ctxs`` and term t over it."""
    for g in ctxs:
        fg, p_g = fm.on_obj(g), ps.p.components[g]
        for tm in ps.tm.values[g]:
            ftm = fm.on_tm(g, tm)
            if fg is None or ftm is None or fm.dst.typeof(fg, ftm) != fm.on_ty(g, p_g[tm]):
                yield "typing", f"typeof({tm}) at {g}"


def _strictness(fm, cells: Iterable[tuple[str, str]]) -> Iterator[tuple[str, str]]:
    """strict-ext, strict-proj and strict-var: F sends Γ•A, p_A and q_A to
    FΓ•FA, p_FA and q_FA, for each extension cell (Γ, A) of ``cells``."""
    src, dst = fm.src, fm.dst
    for g, ty in cells:
        e = src.ext(g, ty)
        fg, fty = fm.on_obj(g), fm.on_ty(g, ty)
        e2 = None if fg is None or fty is None else dst.ext(fg, fty)
        if e2 is None or fm.on_obj(e.extended) != e2.extended:
            yield "strict-ext", f"F({g}•{ty})"
        if e2 is None or fm.on_mor(e.proj) != e2.proj:
            yield "strict-proj", f"F(p) at ({g}, {ty})"
        if e2 is None or fm.on_tm(e.extended, e.var) != e2.var:
            yield "strict-var", f"F(q) at ({g}, {ty})"


def check_sigma_morphism(fm: NMorphism, bound: int) -> bool:
    """Does fm preserve dependent sum structure on all in-bound pairs and quadruples?"""
    src, dst = fm.src, fm.dst
    s_src: SigmaStructure = src.sigma_structure  # type: ignore[attr-defined]
    s_dst: SigmaStructure = dst.sigma_structure  # type: ignore[attr-defined]
    comp = CompositeModel(src, src)
    for g in src.base.objects(bound):
        fg = fm.on_obj(g)
        images = {}  # (A|B) -> (F A, F B)
        for key in comp.types(g, bound):
            ty_a, ty_b = comp.tys.cell(key)
            f_a, f_b = images[key] = fm.on_ty(g, ty_a), fm.on_ty(src.ext(g, ty_a).extended, ty_b)
            if fm.on_ty(g, s_src.sigma(g, ty_a, ty_b)) != s_dst.sigma(fg, f_a, f_b):
                return False
        for quad in comp.terms(g, bound):
            ty_a, ty_b, a, b = comp.tms.cell(quad)
            lhs = fm.on_tm(g, s_src.pair(g, ty_a, ty_b, a, b))
            rhs = s_dst.pair(fg, *images[comp.typeof(g, quad)], fm.on_tm(g, a), fm.on_tm(g, b))
            if lhs != rhs:
                return False
    return True


@dataclass
class ClassifiedReport:
    bound: int
    classified: dict[str, tuple[str, str]] = field(default_factory=dict)
    closure_failures: list[str] = field(default_factory=list)

    @property
    def closure_ok(self) -> bool:
        return not self.closure_failures


def classified_morphisms(model: NaturalModel, bound: int) -> ClassifiedReport:
    """Morphisms classified by the model's classifier, with pullback closure.

    σ : Γ' -> Γ is classified iff some type A over Γ admits a slice
    isomorphism h : (Γ•A, p_A) -> (Γ', σ).  Then p_A∘h⁻¹ = σ, so
    h⁻¹ = ⟨σ, a⟩_A for the term a = q_A[h⁻¹] of A[σ]; the inverse candidates
    are read through ``induced_sub`` over the terms of A[σ], and h is the
    inverse of the first one that is invertible.  Closure under pullback is
    verified by pasting the canonical square with the witness isomorphism
    and running the in-category pullback oracle.
    """
    base = model.base
    report = ClassifiedReport(bound)
    ps = model_presheaves(model, bound, bound)
    ctxs = ps.cat.object_keys
    for gp in ctxs:
        for g in ctxs:
            for sigma in ps.cat.homs.get((gp, g), ()):
                witness = None
                for ty in ps.ty.values[g]:
                    for a in model.terms_of(gp, ps.ty.restrict(sigma, ty), bound):
                        h = base.is_iso(induced_sub(model, sigma, a, ty))
                        if h is not None:
                            witness = (ty, h)
                            break
                    if witness:
                        break
                if witness:
                    report.classified[sigma] = witness
    # closure under pullback along arbitrary in-bound morphisms
    for sigma, (ty, h) in report.classified.items():
        g = base.cod(sigma)
        for d in ctxs:
            for m in ps.cat.homs.get((d, g), ()):
                e_sub = model.ext(d, ps.ty.restrict(m, ty))
                top = canonical_pullback(model, m, ty)
                pasted_top = base.compose(h, top)
                ok = is_pullback_square(
                    base, bound + 1,
                    e_sub.extended, e_sub.proj, pasted_top, m, sigma,
                )
                if not ok:
                    report.closure_failures.append(
                        f"pullback of {sigma} along {m} is not classified-compatible"
                    )
    return report


# ---------------------------------------------------------------------------
# Bounded enumeration of strict morphisms
# ---------------------------------------------------------------------------

@dataclass
class MorphismPins:
    """Values a candidate morphism is required to take."""

    on_obj: dict[str, str] = field(default_factory=dict)
    on_ty: dict[tuple[str, str], str] = field(default_factory=dict)
    on_tm: dict[tuple[str, str], str] = field(default_factory=dict)
    on_mor: dict[str, str] = field(default_factory=dict)


def _per_context(pins: dict[tuple[str, str], str]) -> dict[str, dict[str, str]]:
    """Pinned images {(ctx, x): v} as {ctx: {x: v}}."""
    out: dict[str, dict[str, str]] = {}
    for (ctx, x), value in pins.items():
        out.setdefault(ctx, {})[x] = value
    return out


class _Candidate(ForcedImages):
    """Partial assignment of a strict morphism during the search.

    Its root data are the pinned and chosen values in ``obj``, ``ty``,
    ``tm`` and ``mor``; ``obj`` and ``mor`` also cache the images derived
    from them.  ``ty`` and ``tm`` keep the images per context, ctx -> {x:
    F x}, the tables ``_naturality`` reads.  A candidate is never assigned
    again once it has been copied for a choice, so every cached image stays
    a function of its own assignment; a choice of a type or term copies the
    outer table and the one inner table it writes, and shares the others.
    """

    def __init__(self, search: "_Search"):
        # on_ty and on_tm read the tables themselves
        super().__init__(
            search.src, search.dst, lambda ctx: None, lambda cand, m: None, None, None
        )
        self.obj.update(search.pins.on_obj)
        self.ty: dict[str, dict[str, str]] = _per_context(search.pins.on_ty)
        self.tm: dict[str, dict[str, str]] = _per_context(search.pins.on_tm)
        self.mor.update(search.pins.on_mor)

    def on_ty(self, ctx: str, ty: str) -> Optional[str]:
        return self.ty.get(ctx, _NO_IMAGES).get(ty)

    def on_tm(self, ctx: str, tm: str) -> Optional[str]:
        return self.tm.get(ctx, _NO_IMAGES).get(tm)

    def assigned(self, table: str, key, value: str) -> "_Candidate":
        """A copy of this candidate that also sends ``key`` to ``value`` in
        ``table``; a type or term key is a pair (ctx, x)."""
        out = copy.copy(self)
        out.obj, out.mor = dict(self.obj), dict(self.mor)
        if table in ("obj", "mor"):
            getattr(out, table)[key] = value
        else:
            ctx, x = key
            images = dict(getattr(self, table))
            images[ctx] = {**images.get(ctx, _NO_IMAGES), x: value}
            setattr(out, table, images)
        return out

    def _induced(self, sigma: str, term: str, ty: str) -> Optional[str]:
        try:
            return induced_sub(self.dst, sigma, term, ty)
        except ValueError:
            return None  # no induced substitution: no strict morphism extends this


class _Search:
    """The rival search of :func:`count_morphisms`.  Its constraints are
    check_morphism's laws over each step's scope (:meth:`_scope`).

    Functoriality is checked along generators only.  A generator is a
    morphism whose codomain is a root context (no ``ext_parent``) or a
    canonical projection p_A : Γ•A → Γ; the extension contexts whose
    composites need no check are classified once, in ``reduced``.  Checking
    the pairs (f, g) with g a generator suffices.  Let g : y → Γ•A and f :
    x → y, and suppose the pairs whose g ends at a context before Γ•A are
    preserved.  After p' = F(p_A) (strict-proj), F(g∘f) is F(p∘g∘f) by the
    block (g∘f, p), and F g ∘ F f is F(p∘g) ∘ F f = F(p∘g∘f) by the blocks
    (g, p) and (f, p∘g), the latter by induction, as p∘g ends at Γ.  After
    q' = F(q_A) (strict-var), q'[F(g∘f)] is F(q[g∘f]), and q'[F g ∘ F f] is
    q'[F g][F f] = F(q[g][f]) by tm-naturality along g and along f.  Both
    are maps F x → FΓ•FA (strict-ext), so by η they are equal.

    This presupposes that the codomain model is associative, that its Tm is
    a functor, and that it has η for extensions: h = ⟨p∘h, q[h]⟩.  Every
    caller's codomain is a free model; a parsed ``TableModel`` has no
    extension parents, so every morphism of it is a generator.  The
    argument also needs its own constraints in the truncation: Γ earlier
    than Γ•A, A a type of Γ and q_A a term of Γ•A within the bounds.  A
    context on the truncation boundary that misses one of these is not
    reduced, and a g into it keeps every block.  Naturality, typing and
    strictness stay exhaustive, and so does :func:`check_morphism`.
    """

    def __init__(
        self, src: NaturalModel, dst: NaturalModel, bound: int,
        ty_bound: int, pins: MorphismPins, max_count: int,
    ):
        self.src = src
        self.dst = dst
        self.ty_bound = ty_bound
        self.pins = pins
        self.max_count = max_count
        self.count = 0
        self.ps = ps = model_presheaves(src, bound, ty_bound)
        self.ctxs = ps.cat.object_keys
        self.idx = {c: i for i, c in enumerate(self.ctxs)}
        self.tys, self.tms = ps.ty.values, ps.tm.values
        self.hom = ps.cat.homs
        # Γ•A -> (Γ, p_A) for the extension contexts, and those of them
        # whose composites follow from the generators' (see above)
        self.proj: dict[str, tuple[str, str]] = {}
        self.reduced: set[str] = set()
        for k, z in enumerate(self.ctxs):
            parent = src.ext_parent(z)
            if parent is None:
                continue
            g, ty = parent
            e = src.ext(g, ty)
            self.proj[z] = (g, e.proj)
            if self.idx.get(g, k) < k and ty in self.tys[g] and e.var in self.tms[z]:
                self.reduced.add(z)

    def run(self) -> int:
        cand = _Candidate(self)
        # strict morphisms preserve the distinguished terminal object
        cand.obj.setdefault(self.src.terminal, self.dst.terminal)
        if cand.obj[self.src.terminal] != self.dst.terminal:
            return 0
        self._step(cand, 0)
        return self.count

    # -- constraint verification over assigned data ----------------------
    @memo
    def _scope(self, i: int) -> tuple[list, list, list, list]:
        """The constraints whose last participant is context i, as scopes of
        the law generators: the extension cells (Γ, A), Γ and Γ•A within
        0..i and one of them context i (so a cell whose Γ•A lies outside the
        truncation is never checked); the morphisms a -> b, a and b within
        0..i and one of them context i; and the composable blocks (hom(x, y),
        the generators out of y over the zs), one of x, y, z context i.  The
        other composable pairs follow from these (see :class:`_Search`).
        Last, the root morphisms among those a -> b: the ones whose b is not
        an extension.
        """
        ctx, upto, n = self.ctxs[i], self.ctxs[: i + 1], len(self.ctxs)
        cells = [(c, ty) for k, c in enumerate(upto) for ty in self.tys[c]
                 if max(k, self.idx.get(self.src.ext(c, ty).extended, n)) == i]
        pairs = [(a, ctx) for a in upto[:-1]] + [(ctx, b) for b in upto]
        mors = [(m, a, b) for a, b in pairs for m in self.hom.get((a, b), ())]
        roots = [m for m, _a, b in mors if b not in self.proj]
        out_of = {y: [g for z in upto for g in self._generators(y, z)] for y in upto}
        blocks = []
        for x in upto:
            for y in upto:
                fs = self.hom.get((x, y))
                gs = out_of[y] if ctx in (x, y) else self._generators(y, ctx)
                if fs and gs:
                    blocks.append((fs, gs))
        return cells, mors, blocks, roots

    def _generators(self, y: str, z: str) -> list[str]:
        """The generators y -> z: all of hom(y, z) unless z is reduced, else
        the projection p_A when y is z•A."""
        if z not in self.reduced:
            return self.hom.get((y, z), [])
        parent, p = self.proj.get(y, (None, None))
        return [p] if parent == z else []

    def _consistent_at(self, cand: _Candidate, i: int) -> bool:
        """Check the constraints whose last participant is context i.

        They are check_morphism's laws over the scope of step i, cheap first:
        strictness, typing, endpoints and naturality, then functoriality; the
        first witness rejects.  Those among contexts 0..i-1 passed at earlier
        steps and read no value assigned since, so each constraint is checked
        exactly once.  The identity law is not checked: candidates force it.
        """
        cells, mors, blocks, _roots = self._scope(i)
        src, dst = self.src.base, self.dst.base
        witnesses = itertools.chain(
            _strictness(cand, cells),
            _typing(cand, self.ps, (self.ctxs[i],)),
            functor_violations(src, dst, cand.on_obj, cand.on_mor, (), mors, ()),
            _naturality(cand, self.ps, mors, cand.ty, cand.tm),
            functor_violations(src, dst, cand.on_obj, cand.on_mor, (), (), blocks),
        )
        return next(witnesses, None) is None

    def _step(self, cand: _Candidate, i: int) -> None:
        """Visit the node at context i: choose its free values, then go on."""
        if self.count >= self.max_count:
            return
        if i == len(self.ctxs):
            self.count += 1
            return
        ctx = self.ctxs[i]
        if cand.on_obj(ctx) is None:
            return  # unpinned root context: no way to determine its image
        have_ty, have_tm = cand.ty.get(ctx, _NO_IMAGES), cand.tm.get(ctx, _NO_IMAGES)
        free = [("ty", (ctx, t)) for t in self.tys[ctx] if t not in have_ty]
        free += [("tm", (ctx, t)) for t in self.tms[ctx] if t not in have_tm]
        # the root morphisms still free; the rest are derived by strictness
        free += [("mor", m) for m in self._scope(i)[3] if cand.on_mor(m) is None]
        self._assign(cand, i, free)

    def _assign(self, cand: _Candidate, i: int, free: list[tuple[str, object]]) -> None:
        """Choose the free values in order, each on a fresh copy of the candidate."""
        if not free:
            if self._consistent_at(cand, i):
                self._step(cand, i + 1)
            return
        (table, key), rest = free[0], free[1:]
        for choice in self._choices(cand, table, key):
            self._assign(cand.assigned(table, key, choice), i, rest)
            if self.count >= self.max_count:
                return

    def _choices(self, cand: _Candidate, table: str, key) -> Iterable[str]:
        """The values a free type, term or root morphism may take."""
        dst = self.dst
        if table == "mor":
            fa = cand.on_obj(self.src.base.dom(key))
            fb = cand.on_obj(self.src.base.cod(key))
            return () if fa is None or fb is None else dst.base.hom(fa, fb)
        ctx, cell = key
        f_ctx = cand.on_obj(ctx)
        if table == "ty":
            return dst.types(f_ctx, self.ty_bound)
        want_ty = cand.on_ty(ctx, self.ps.p.apply(ctx, cell))
        return (
            c for c in dst.terms(f_ctx, self.ty_bound)
            if want_ty is None or dst.typeof(f_ctx, c) == want_ty
        )


def count_morphisms(
    src: NaturalModel, dst: NaturalModel, bound: int,
    pins: MorphismPins, ty_bound: Optional[int] = None,
    max_count: int = 2,
) -> int:
    """Number of strict morphisms src -> dst within the bound extending `pins`.

    Candidates are determined by their images on types, terms, and
    root-codomain morphisms; images of extension objects and of morphisms
    into extensions are forced by strictness and by the universal property
    of the induced substitutions, so the search ranges only over the free
    data, pruning on every theory equation along the way.  Each choice of a
    free value is made on a copy of the partial candidate; the images a
    candidate derives and caches depend only on values it already holds, so
    no choice has to be undone.  Counting stops at ``max_count``.

    Functoriality is checked only along generators (see :class:`_Search`),
    which presupposes that ``dst`` is associative, that its Tm is a functor
    and that it has η for extensions, h = ⟨p∘h, q[h]⟩: true of every free
    model, and vacuous for a source without extension contexts.
    """
    if ty_bound is None:
        ty_bound = bound
    return _Search(src, dst, bound, ty_bound, pins, max_count).run()
