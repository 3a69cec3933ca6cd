"""Morphisms of natural models: checkers and bounded uniqueness enumeration.

A morphism is a terminal-preserving functor together with per-context maps
on types and terms (the right adjoint convention: components land in the
codomain model's families at the image context).  :func:`check_morphism`
verifies the premorphism laws and, depending on the flag, either strict
preservation of the chosen representability data or invertibility of the
mediating comparison maps; preservation of canonical pullback squares is
reported separately and never conflated with either.

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

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .fincat import is_pullback_square
from .natmodel import (
    CompositeModel,
    NaturalModel,
    SigmaStructure,
    canonical_pullback,
    induced_sub,
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
    ctxs = src.base.objects(bound)

    if fm.on_obj(src.terminal) != dst.terminal:
        report.add("terminal", "distinguished terminal object not preserved")

    mors = [(m, a, b) for a in ctxs for b in ctxs for m in src.base.hom(a, b)]
    for g in ctxs:
        if fm.on_mor(src.base.identity(g)) != dst.base.identity(fm.on_obj(g)):
            report.add("functor", f"identity of {g} not preserved")
    for m, a, b in mors:
        im = fm.on_mor(m)
        if dst.base.dom(im) != fm.on_obj(a) or dst.base.cod(im) != fm.on_obj(b):
            report.add("functor", f"image of {m} has wrong endpoints")
    out_of: dict[str, list[str]] = {a: [] for a in ctxs}
    for m, a, b in mors:
        out_of[a].append(m)
    for f, fs, ft in mors:
        for g in out_of[ft]:
            if fm.on_mor(src.base.compose(g, f)) != dst.base.compose(fm.on_mor(g), fm.on_mor(f)):
                report.add("functor", f"composition not preserved on ({g}, {f})")

    tys = {g: src.types(g, ty_bound) for g in ctxs}
    tms = {g: src.terms(g, ty_bound) for g in ctxs}
    for m, a, b in mors:
        im = fm.on_mor(m)
        for ty in tys[b]:
            if fm.on_ty(a, src.subst_ty(m, ty)) != dst.subst_ty(im, fm.on_ty(b, ty)):
                report.add("ty-natural", f"{ty}[{m}]")
        for tm in tms[b]:
            if fm.on_tm(a, src.subst_tm(m, tm)) != dst.subst_tm(im, fm.on_tm(b, tm)):
                report.add("tm-natural", f"{tm}[{m}]")
    for g in ctxs:
        for tm in tms[g]:
            lhs = dst.typeof(fm.on_obj(g), fm.on_tm(g, tm))
            rhs = fm.on_ty(g, src.typeof(g, tm))
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

    # preservation of canonical pullback squares, via the in-category oracle
    for m, a, b in mors:
        for ty in tys[b]:
            top = canonical_pullback(src, m, ty)
            e_sub = src.ext(a, src.subst_ty(m, ty))
            e = src.ext(b, ty)
            ok = is_pullback_square(
                dst.base, bound + 1,
                fm.on_obj(e_sub.extended),
                fm.on_mor(e_sub.proj),
                fm.on_mor(top),
                fm.on_mor(m),
                fm.on_mor(e.proj),
            )
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
    ctxs = base.objects(bound)
    for gp in ctxs:
        for g in ctxs:
            for sigma in base.hom(gp, g):
                witness = None
                for ty in model.types(g, bound):
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
            for m in base.hom(d, g):
                e_sub = model.ext(d, model.subst_ty(m, ty))
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


class _Candidate:
    """Partial assignment of a strict morphism during the search.

    ``obj`` and ``mor`` also cache the images derived from assigned values
    (extension contexts, morphisms into extensions).  A candidate is never
    assigned again once it has been copied for a choice, so every cached
    image stays a function of its own assignment.
    """

    def __init__(self, search: "_Search"):
        self.s = search
        self.obj: dict[str, str] = dict(search.pins.on_obj)
        self.ty: dict[tuple[str, str], str] = dict(search.pins.on_ty)
        self.tm: dict[tuple[str, str], str] = dict(search.pins.on_tm)
        self.mor: dict[str, str] = dict(search.pins.on_mor)

    def assigned(self, table: str, key, value: str) -> "_Candidate":
        """A copy of this candidate that also sends ``key`` to ``value`` in ``table``."""
        out = object.__new__(_Candidate)
        out.s = self.s
        out.obj, out.ty, out.tm, out.mor = (
            dict(self.obj), dict(self.ty), dict(self.tm), dict(self.mor)
        )
        getattr(out, table)[key] = value
        return out

    # image of a context: pinned or derived through the extension parent
    def obj_image(self, ctx: str) -> Optional[str]:
        if ctx in self.obj:
            return self.obj[ctx]
        parent = self.s.src.ext_parent(ctx)
        if parent is None:
            return None
        pctx, pty = parent
        fp = self.obj_image(pctx)
        fty = self.ty.get((pctx, pty))
        if fp is None or fty is None:
            return None
        out = self.s.dst.ext(fp, fty).extended
        self.obj[ctx] = out
        return out

    def mor_image(self, m: str) -> Optional[str]:
        if m in self.mor:
            return self.mor[m]
        src, dst_m = self.s.src, self.s.dst
        a, b = src.base.dom(m), src.base.cod(m)
        if m == src.base.identity(a) and a == b:
            fa = self.obj_image(a)
            if fa is None:
                return None
            out = dst_m.base.identity(fa)
            self.mor[m] = out
            return out
        parent = src.ext_parent(b)
        if parent is None:
            return None  # a root morphism must be assigned explicitly
        pctx, pty = parent
        e = src.ext(pctx, pty)
        base_part = src.base.compose(e.proj, m)
        term_part = src.subst_tm(m, e.var)
        f_base = self.mor_image(base_part)
        f_term = self.tm.get((a, term_part))
        f_ty = self.ty.get((pctx, pty))
        if f_base is None or f_term is None or f_ty is None:
            return None
        try:
            out = induced_sub(dst_m, f_base, f_term, f_ty)
        except ValueError:
            return None
        self.mor[m] = out
        return out


class _Search:
    def __init__(
        self, src: NaturalModel, dst: NaturalModel, bound: int,
        ty_bound: int, pins: MorphismPins, max_count: int,
    ):
        self.src = src
        self.dst = dst
        self.bound = bound
        self.ty_bound = ty_bound
        self.pins = pins
        self.max_count = max_count
        self.count = 0
        self.ctxs = src.base.objects(bound)
        self.idx = {c: i for i, c in enumerate(self.ctxs)}
        self.tys = {c: src.types(c, ty_bound) for c in self.ctxs}
        self.tms = {c: src.terms(c, ty_bound) for c in self.ctxs}
        self.hom = {(a, b): src.base.hom(a, b) for a in self.ctxs for b in self.ctxs}

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
        src, dst = self.src, self.dst
        ctx = self.ctxs[i]
        upto = self.ctxs[: i + 1]
        f_ctx = cand.obj_image(ctx)
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
                e2 = dst.ext(cand.obj_image(c), cand.ty[(c, ty)])
                if cand.obj_image(e.extended) != e2.extended:
                    return False
                if cand.tm.get((e.extended, e.var)) != e2.var:
                    return False
                fp = cand.mor_image(e.proj)
                if fp is None or fp != e2.proj:
                    return False
        # typing
        for tm in self.tms[ctx]:
            ftm = cand.tm.get((ctx, tm))
            if ftm is None:
                return False
            if dst.typeof(f_ctx, ftm) != cand.ty.get((ctx, src.typeof(ctx, tm))):
                return False
        # morphism endpoints and naturality: a -> b with max(idx a, idx b) = i
        for a, b in self._last_at(i):
            for m in self.hom[(a, b)]:
                im = cand.mor_image(m)
                if im is None:
                    return False
                if dst.base.dom(im) != cand.obj_image(a) or dst.base.cod(im) != cand.obj_image(b):
                    return False
                for ty in self.tys[b]:
                    lhs = cand.ty.get((a, src.subst_ty(m, ty)))
                    if lhs is None or lhs != dst.subst_ty(im, cand.ty[(b, ty)]):
                        return False
                for tm in self.tms[b]:
                    lhs = cand.tm.get((a, src.subst_tm(m, tm)))
                    if lhs is None or lhs != dst.subst_tm(im, cand.tm[(b, tm)]):
                        return False
        # functoriality: x -> y -> z with max(idx x, idx y, idx z) = i
        for x in upto:
            for y in upto:
                fs = self.hom[(x, y)]
                if not fs:
                    continue
                for z in upto if ctx in (x, y) else (ctx,):
                    for g in self.hom[(y, z)]:
                        fg = cand.mor_image(g)
                        for f in fs:
                            lhs = cand.mor_image(src.base.compose(g, f))
                            if lhs is None or lhs != dst.base.compose(fg, cand.mor_image(f)):
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
        if cand.obj_image(ctx) is None:
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
            fa = cand.obj_image(self.src.base.dom(key))
            fb = cand.obj_image(self.src.base.cod(key))
            return () if fa is None or fb is None else dst.base.hom(fa, fb)
        ctx, cell = key
        f_ctx = cand.obj_image(ctx)
        if table == "ty":
            return dst.types(f_ctx, self.ty_bound)
        want_ty = cand.ty.get((ctx, self.src.typeof(ctx, cell)))
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
            for m in self.hom[(a, b)]:
                if m in cand.mor or cand.mor_image(m) is not None:
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
