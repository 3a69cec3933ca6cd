"""Morphisms of natural models: checkers and bounded uniqueness enumeration.

A morphism is a terminal-preserving functor together with per-context maps
on types and terms (the right adjoint convention: components land in the
codomain model's families at the image context).  :func:`check_morphism`
verifies the premorphism laws and, depending on the flag, either strict
preservation of the chosen representability data or invertibility of the
mediating comparison maps; preservation of canonical pullback squares is
reported separately and never conflated with either.

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
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from functools import partial
from operator import ne
from typing import Callable, Iterable, Optional

from .fincat import is_pullback_square
from .natmodel import (
    CompositeModel,
    NaturalModel,
    SigmaStructure,
    canonical_pullback,
    induced_sub,
    model_presheaves,
)


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


def check_morphism(
    fm: NMorphism, bound: int, strict: bool = True, ty_bound: Optional[int] = None
) -> MorphismReport:
    """Verify morphism laws on every in-bound instantiation.

    The returned report contains separate entries for strict preservation of
    representability data, invertibility of the mediating maps (the weak
    condition), and preservation of canonical pullback squares; the latter
    two coincide within the bound but are computed independently.
    """
    if ty_bound is None:
        ty_bound = bound
    src, dst = fm.src, fm.dst
    report = MorphismReport(bound, strict)
    ps = model_presheaves(src, bound, ty_bound)
    ctxs = ps.cat.object_keys

    if fm.on_obj(src.terminal) != dst.terminal:
        report.add("terminal", "distinguished terminal object not preserved")

    mors = [(m, a, b) for (a, b), ms in ps.cat.homs.items() for m in ms]
    for g in ctxs:
        if fm.on_mor(ps.cat.identity(g)) != dst.base.identity(fm.on_obj(g)):
            report.add("functor", f"identity of {g} not preserved")
    # a morphism whose image has the wrong endpoints is reported once here;
    # the laws that compose or substitute along its image skip it
    misplaced = set()
    for m, a, b in mors:
        im = fm.on_mor(m)
        if dst.base.dom(im) != fm.on_obj(a) or dst.base.cod(im) != fm.on_obj(b):
            report.add("functor", f"image of {m} has wrong endpoints")
            misplaced.add(m)
    out_of: dict[str, list[str]] = {a: [] for a in ctxs}
    for m, a, b in mors:
        out_of[a].append(m)
    for f, fs, ft in mors:
        for g in out_of[ft]:
            if f in misplaced or g in misplaced:
                continue
            if fm.on_mor(src.base.compose(g, f)) != dst.base.compose(fm.on_mor(g), fm.on_mor(f)):
                report.add("functor", f"composition not preserved on ({g}, {f})")

    tys, tms = ps.ty.values, ps.tm.values
    for m, a, b in mors:
        if m in misplaced:
            continue
        im = fm.on_mor(m)
        for ty in tys[b]:
            if fm.on_ty(a, ps.ty.restrict(m, ty)) != dst.subst_ty(im, fm.on_ty(b, ty)):
                report.add("ty-natural", f"{ty}[{m}]")
        for tm in tms[b]:
            if fm.on_tm(a, ps.tm.restrict(m, tm)) != dst.subst_tm(im, fm.on_tm(b, tm)):
                report.add("tm-natural", f"{tm}[{m}]")
    for g in ctxs:
        for tm in tms[g]:
            lhs = dst.typeof(fm.on_obj(g), fm.on_tm(g, tm))
            rhs = fm.on_ty(g, ps.p.apply(g, tm))
            if lhs != rhs:
                report.add("typing", f"typeof({tm}) at {g}")

    # representability data
    for g in ctxs:
        fg = fm.on_obj(g)
        for ty in tys[g]:
            e = src.ext(g, ty)
            fty = fm.on_ty(g, ty)
            e2 = dst.ext(fg, fty)
            if fm.on_obj(e.extended) != e2.extended:
                report.add("strict-ext", f"F({g}•{ty})")
            if fm.on_mor(e.proj) != e2.proj:
                report.add("strict-proj", f"F(p) at ({g}, {ty})")
            if fm.on_tm(e.extended, e.var) != e2.var:
                report.add("strict-var", f"F(q) at ({g}, {ty})")
            # weak condition: the mediating map ⟨F p, F q⟩ is invertible
            try:
                tau = induced_sub(
                    dst, fm.on_mor(e.proj), fm.on_tm(e.extended, e.var), fty
                )
            except ValueError as exc:
                report.add("weak-tau", f"({g}, {ty}): {exc}")
                continue
            if dst.base.is_iso(tau) is None:
                report.add("weak-tau", f"mediating map at ({g}, {ty}) is not invertible")

    # preservation of canonical pullback squares, via the in-category oracle;
    # an image square whose legs do not compose is not preserved
    for m, a, b in mors:
        if m in misplaced:
            continue
        for ty in tys[b]:
            top = canonical_pullback(src, m, ty)
            e_sub = src.ext(a, ps.ty.restrict(m, ty))
            e = src.ext(b, ty)
            try:
                ok = is_pullback_square(
                    dst.base, bound + 1,
                    fm.on_obj(e_sub.extended),
                    fm.on_mor(e_sub.proj),
                    fm.on_mor(top),
                    fm.on_mor(m),
                    fm.on_mor(e.proj),
                )
            except (ValueError, KeyError) as exc:
                report.add("canonical-pullbacks", f"image square of ({m}, {ty}): {exc}")
                continue
            if not ok:
                report.add("canonical-pullbacks", f"image square of ({m}, {ty})")
    return report


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
            ty_a, ty_b = comp._ty_parts(key)
            f_a, f_b = images[key] = fm.on_ty(g, ty_a), fm.on_ty(src.ext(g, ty_a).extended, ty_b)
            if fm.on_ty(g, s_src.sigma(g, ty_a, ty_b)) != s_dst.sigma(fg, f_a, f_b):
                return False
        for quad in comp.terms(g, bound):
            ty_a, ty_b, a, b = comp._tm_parts(quad)
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
    isomorphism (Γ•A, p_A) -> (Γ', σ); witnesses are searched exhaustively.
    Closure under pullback is verified by pasting the canonical square with
    the witness isomorphism and running the in-category pullback oracle.
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
                    e = model.ext(g, ty)
                    for h in base.hom(e.extended, gp):
                        if base.compose(sigma, h) != e.proj:
                            continue
                        if base.is_iso(h) is not None:
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


class _Candidate(ForcedImages):
    """Partial assignment of a strict morphism during the search.

    Its root data are the pinned and chosen values in ``obj``, ``ty``,
    ``tm`` and ``mor``; ``obj`` and ``mor`` also cache the images derived
    from them.  A candidate is never assigned again once it has been copied
    for a choice, so every cached image stays a function of its own
    assignment.
    """

    def __init__(self, search: "_Search"):
        super().__init__(
            search.src, search.dst, lambda ctx: None, lambda cand, m: None,
            lambda cand, ctx, ty: cand.ty.get((ctx, ty)),
            lambda cand, ctx, tm: cand.tm.get((ctx, tm)),
        )
        self.obj.update(search.pins.on_obj)
        self.ty: dict[tuple[str, str], str] = dict(search.pins.on_ty)
        self.tm: dict[tuple[str, str], str] = dict(search.pins.on_tm)
        self.mor.update(search.pins.on_mor)

    def assigned(self, table: str, key, value: str) -> "_Candidate":
        """A copy of this candidate that also sends ``key`` to ``value`` in ``table``."""
        out = copy.copy(self)
        out.obj, out.ty, out.tm, out.mor = (
            dict(self.obj), dict(self.ty), dict(self.tm), dict(self.mor)
        )
        getattr(out, table)[key] = value
        return out

    def _induced(self, sigma: str, term: str, ty: str) -> Optional[str]:
        try:
            return induced_sub(self.dst, sigma, term, ty)
        except ValueError:
            return None  # no induced substitution: no strict morphism extends this


class _Search:
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

    def run(self) -> int:
        cand = _Candidate(self)
        # strict morphisms preserve the distinguished terminal object
        cand.obj.setdefault(self.src.terminal, self.dst.terminal)
        if cand.obj[self.src.terminal] != self.dst.terminal:
            return 0
        self._step(cand, 0)
        return self.count

    # -- constraint verification over assigned data ----------------------
    def _last_at(self, i: int):
        """Context pairs (a, b) within 0..i whose later member is context i."""
        c = self.ctxs[i]
        for a in self.ctxs[:i]:
            yield a, c
        for b in self.ctxs[: i + 1]:
            yield c, b

    def _consistent_at(self, cand: _Candidate, i: int) -> bool:
        """Check the constraints whose last participant is context i.

        Those among contexts 0..i-1 passed at earlier steps and read no value
        assigned since, so each constraint is checked exactly once.
        """
        src, dst, ps = self.src, self.dst, self.ps
        ctx = self.ctxs[i]
        upto = self.ctxs[: i + 1]
        f_ctx = cand.on_obj(ctx)
        if f_ctx is None:
            return False
        for ty in self.tys[ctx]:
            if (ctx, ty) not in cand.ty:
                return False
        # strictness of extension data: (c, A) with max(idx c, idx c•A) = i
        for k, c in enumerate(upto):
            for ty in self.tys[c]:
                e = src.ext(c, ty)
                if max(k, self.idx.get(e.extended, i + 1)) != i:
                    continue
                e2 = dst.ext(cand.on_obj(c), cand.ty[(c, ty)])
                if cand.on_obj(e.extended) != e2.extended:
                    return False
                if cand.tm.get((e.extended, e.var)) != e2.var:
                    return False
                fp = cand.on_mor(e.proj)
                if fp is None or fp != e2.proj:
                    return False
        # typing
        for tm in self.tms[ctx]:
            ftm = cand.tm.get((ctx, tm))
            if ftm is None:
                return False
            if dst.typeof(f_ctx, ftm) != cand.ty.get((ctx, ps.p.apply(ctx, tm))):
                return False
        # morphism endpoints and naturality: a -> b with max(idx a, idx b) = i
        for a, b in self._last_at(i):
            for m in self.hom.get((a, b), ()):
                im = cand.on_mor(m)
                if im is None:
                    return False
                if dst.base.dom(im) != cand.on_obj(a) or dst.base.cod(im) != cand.on_obj(b):
                    return False
                for ty in self.tys[b]:
                    lhs = cand.ty.get((a, ps.ty.restrict(m, ty)))
                    if lhs is None or lhs != dst.subst_ty(im, cand.ty[(b, ty)]):
                        return False
                for tm in self.tms[b]:
                    lhs = cand.tm.get((a, ps.tm.restrict(m, tm)))
                    if lhs is None or lhs != dst.subst_tm(im, cand.tm[(b, tm)]):
                        return False
        # functoriality: x -> y -> z with max(idx x, idx y, idx z) = i.  Per
        # g, the row of F(g∘f) over the fs in hom(x, y) is compared with the
        # row of F(g)∘F(f), lazily, so the first f that differs ends the check.
        for x in upto:
            for y in upto:
                fs = self.hom.get((x, y), ())
                if not fs:
                    continue
                f_fs = list(map(cand.on_mor, fs))
                for z in upto if ctx in (x, y) else (ctx,):
                    for g in self.hom.get((y, z), ()):
                        lhs = map(cand.on_mor, map(partial(src.base.compose, g), fs))
                        rhs = map(partial(dst.base.compose, cand.on_mor(g)), f_fs)
                        if any(map(ne, lhs, rhs)):
                            return False
        return True

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
        free = [("ty", (ctx, t)) for t in self.tys[ctx] if (ctx, t) not in cand.ty]
        free += [("tm", (ctx, t)) for t in self.tms[ctx] if (ctx, t) not in cand.tm]
        free += [("mor", m) for m in self._pending_root_mors(cand, i)]
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
        want_ty = cand.ty.get((ctx, self.ps.p.apply(ctx, cell)))
        return (
            c for c in dst.terms(f_ctx, self.ty_bound)
            if want_ty is None or dst.typeof(f_ctx, c) == want_ty
        )

    def _pending_root_mors(self, cand: _Candidate, i: int) -> list[str]:
        """Unassigned root-codomain morphisms whose later endpoint is context i."""
        out = []
        for a, b in self._last_at(i):
            if self.src.ext_parent(b) is not None:
                continue  # derived through the extension decomposition
            for m in self.hom.get((a, b), ()):
                if cand.on_mor(m) is not None:
                    continue
                out.append(m)
        return out


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
    """
    if ty_bound is None:
        ty_bound = bound
    return _Search(src, dst, bound, ty_bound, pins, max_count).run()
