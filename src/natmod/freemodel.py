"""The free natural-model constructions and their universal-property verifiers.

Five constructions are provided: the term model on a family of basic types,
and the free extensions of an arbitrary model by a term, a basic type, a
unit type, and dependent sum types, together with
:func:`poly_composite_models`, the polynomial composite of two models over a
shared base (:class:`natmod.natmodel.CompositeModel`).  Each construction is paired with the
morphisms appearing in its universal property (inclusion, substitution /
insertion / summation, and the mediating extension of an arbitrary
morphism); existence is verified by the checkers in :mod:`natmod.natmodel`
and uniqueness by bounded enumeration via :mod:`natmod.morphism`.

Quotient identifications in the underlying categories of contexts are
implemented as normalization at construction time: a context is the cell of
its normal form, named like every morphism by the category's registries
(:class:`~natmod.fincat.RegistryCategory`), so equal contexts have equal keys.
The Σ model's type and term trees are plain values, compared and hashed
as tuples, and two :class:`~natmod.fincat.Registry` name them: a tree's key
is spelled once, when it is first registered, and never parsed.

The four free extensions share one base, :class:`_WrappedModel`: a context
morphism wraps a morphism of the inner model, its payload, and every one of
them substitutes along the payload and shares its rows per payload.  The
inclusion I of the inner model is one map, :func:`inclusion`, given by four
hooks of the base: ``i_obj`` (the root context (Γ;)), ``i_ty``, ``i_tm`` and
``i_payload``.  The terminal context, the seeds of ``objects``, the root case
of ``ext_parent`` and the pins of G ∘ I = F all read those hooks.  The
mediating morphisms share one recursion, :func:`_sharp`: F♯ is a single
:class:`~natmod.morphism.ForcedImages` over a comparison map
θ : F♯(ctx) -> F(under ctx) built once along ``ext_parent`` from the
construction's root and step rules, its roots are the contexts I(Γ), and
substitution, insertion and summation are each F♯ of the identity.  The
basic-type and unit extensions name their new terms per context, and how
many of them a morphism's tally carries, so no shared code asks which of
the two it serves.
"""

from __future__ import annotations

import itertools
from functools import partial
from operator import attrgetter
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional

from .fincat import FinSliceOpposite, Registry, RegistryCategory, join_escaped, memo
from .natmodel import (
    CompositeModel,
    ExtensionData,
    NaturalModel,
    SigmaStructure,
    UnitStructure,
    _read,
    canonical_pullback,
    induced_sub,
    swap_iso,
)
from .morphism import (
    ForcedImages, MorphismPins, NMorphism, identity_morphism,
)


# ---------------------------------------------------------------------------
# Shared plumbing for models built over another model
# ---------------------------------------------------------------------------

def _fresh_key(base_keys: list[str], stem: str) -> str:
    """A key for a new symbol that avoids clashing with existing ones."""
    key = stem
    used = set(base_keys)
    while key in used:
        key += "'"
    return key


class _WrappedCategory(RegistryCategory):
    """Base class for categories of formally extended contexts.

    An object is a normal-form cell (Γ, ..., formal part) over a context Γ
    of the inner model, and a morphism wraps a morphism of the inner
    category (possibly with extra payload), spelled ``src=>dst$payload``;
    the registries of :class:`~natmod.fincat.RegistryCategory` name both.
    ``under``, the inner context an object lies over, and its size are
    derived from its cell once.  Composites are made a row at a time:
    :meth:`compose_row` reads g's cell once, composes the inner morphisms
    of the row as one row of the inner base and looks each composite up
    once, and :meth:`compose` is its one-element row.  The pullback check's
    leg rows and the blocks of the functor laws read whole rows.
    """

    def __init__(self, model: _WrappedModel):
        super().__init__()
        self.model = model
        self.inner = model.inner

    @memo
    def obj_size(self, key: str) -> int:
        """The size of a context: a root's is the inner size of the context
        under it, and that of the extension of Γ by A adds to size(Γ) the
        larger of ``ty_size(Γ, A)`` and what the inner size grew by.

        So every formal step costs at least its type's size, which is at
        least 1, and :meth:`objects` returns whenever the inner base has
        finitely many objects of each size."""
        size = self.inner.base.obj_size
        parent = self.model._formal_parent(self.objs.cell(key))  # (Γ, A), or None at a root
        if parent is None:
            return size(self.under(key))
        grown = size(self.under(key)) - size(self.under(parent[0]))
        return self.obj_size(parent[0]) + max(self.model.ty_size(*parent), grown)

    def spell_mor(self, cell: tuple) -> str:
        return "%s=>%s$%r" % cell  # src=>dst$payload

    def identity(self, a: str) -> str:
        return self.mors.key((a, a, (self.inner.base.identity(self.under(a)),)))

    def compose(self, g: str, f: str) -> str:
        return self.compose_row(g, [f])[0]

    def compose_row(self, g: str, fs: list[str]) -> list[str]:
        mors = self.mors
        cells, keys = mors.cells, mors.keys
        y, z, gp = cells[g]
        f_cells = [cells[f] for f in fs]
        for _, y_f, _ in f_cells:
            if y_f != y:
                raise ValueError("not composable")
        out = []
        for (x, _, _), gfp in zip(f_cells, self._compose_payloads(gp, [c[2] for c in f_cells])):
            cell = (x, z, gfp)
            out.append(keys.get(cell) or mors.key(cell))
        return out

    def _compose_payloads(self, gp: tuple, fps: list[tuple]) -> Iterable[tuple]:
        """The payloads of the g∘f in order, from g's payload ``gp`` and
        the fs' payloads ``fps``."""
        return zip(self.inner.base.compose_row(gp[0], [fp[0] for fp in fps]))

    def objects(self, bound: int) -> list[str]:
        """The contexts of size at most ``bound``, closed under extension,
        found once per bound and returned as a fresh list.

        A context's size is :meth:`obj_size`.  Over a term model that is a
        length.  Over a file base every core context has rank 0 and every
        boundary context ``BOUNDARY_RANK`` (see
        :class:`~natmod.modelio.TableCategory`), so ``bound`` counts the
        formal steps, each at least 1: no context over the boundary is
        within a working bound, and an inner model whose core is empty
        leaves no context at all.  Each step adds to the size, so this
        returns whenever the inner base has finitely many objects of each
        size.
        """
        return list(self._objects(bound))

    @memo
    def _objects(self, bound: int) -> tuple[str, ...]:
        seeds = [s for s in self._seeds(bound) if self.obj_size(s) <= bound]
        seen = dict.fromkeys(seeds)
        frontier = list(seeds)
        while frontier:
            nxt = []
            for ctx in frontier:
                budget = bound - self.obj_size(ctx)
                if budget <= 0:
                    continue
                for ty in self.model.types(ctx, budget):
                    e = self.model.ext(ctx, ty)
                    if self.obj_size(e.extended) <= bound and e.extended not in seen:
                        seen[e.extended] = None
                        nxt.append(e.extended)
            frontier = nxt
        return tuple(sorted(seen, key=lambda c: (self.obj_size(c), c)))

    @property
    def terminal(self) -> Optional[str]:
        return self._terminal()

    @memo
    def _terminal(self) -> str:
        """The root context over the inner terminal, built on the first read."""
        return self.model.i_obj(self.inner.terminal)

    def _seeds(self, bound: int) -> list[str]:
        return [self.model.i_obj(g) for g in self.inner.base.objects(bound)]


class _WrappedModel(NaturalModel):
    """Base class of the free extensions: normal-form contexts over ``inner``.

    A context morphism wraps a morphism of the inner model, its payload
    (with a tally of slots in the basic-type case), and substituting along
    it is substituting along the payload: a subclass substitutes a single
    cell with ``_subst_ty``/``_subst_tm`` on the payload.  Many morphisms
    share one payload (over term_model(range(1)) at bound 3, the Σ model's
    897 morphisms share 60), so a row is memoized per payload and list and
    returned as the memo holds it, read-only and shared by every morphism
    with that payload.

    The inclusion I of the inner model is given by four hooks: ``i_obj``,
    the root context (Γ;) over an inner context, ``i_ty`` and ``i_tm``, the
    image of an inner type or term over Γ, and ``i_payload``, the payload of
    the image of an inner morphism.  A context is either a root or the
    extension of its one candidate parent: a subclass names the parent of a
    formal part with ``_formal_parent``, and a root's candidate is the
    inclusion of its inner parent.  The candidate is the parent when
    extending it gives the context back.
    """

    base: _WrappedCategory

    def __init__(self, inner: NaturalModel, category: type[_WrappedCategory]):
        self.inner = inner
        self.base = category(self)

    def subst_ty(self, sigma: str, ty: str) -> str:
        return self._subst_ty(self.base.mor_payload(sigma), ty)

    def subst_tm(self, sigma: str, term: str) -> str:
        return self._subst_tm(self.base.mor_payload(sigma), term)

    def subst_ty_row(self, sigma: str, tys: list[str]) -> Mapping[str, str]:
        return self._ty_row(self.base.mor_payload(sigma), tuple(tys))

    def subst_tm_row(self, sigma: str, tms: list[str]) -> Mapping[str, str]:
        return self._tm_row(self.base.mor_payload(sigma), tuple(tms))

    @memo
    def _ty_row(self, payload: tuple, tys: tuple[str, ...]) -> Mapping[str, str]:
        return MappingProxyType({a: self._subst_ty(payload, a) for a in tys})

    @memo
    def _tm_row(self, payload: tuple, tms: tuple[str, ...]) -> Mapping[str, str]:
        return MappingProxyType({a: self._subst_tm(payload, a) for a in tms})

    def _subst_ty(self, payload: tuple, ty: str) -> str:
        raise NotImplementedError

    def _subst_tm(self, payload: tuple, term: str) -> str:
        raise NotImplementedError

    def _indsub_refusal(self, src: str, term: str, exc: ValueError) -> ValueError:
        """The error of ``indsub`` at a σ out of src whose term the inner model
        refused with ``exc``: a term of another context is refused naming src,
        exc after it; the refusal of a term over src stands as it is."""
        try:
            self.typeof(src, term)
        except ValueError:
            return ValueError(f"{term!r} is not a term over {src}: {exc}")
        return exc

    def ext_parent(self, ctx: str) -> Optional[tuple[str, str]]:
        cand = self._parent_candidate(ctx)
        if cand is not None and self.ext(*cand).extended == ctx:
            return cand
        return None

    def _parent_candidate(self, ctx: str) -> Optional[tuple[str, str]]:
        """The (parent, A) that ctx can only be the extension of, if any."""
        info = self.base.objs.cell(ctx)
        cand = self._formal_parent(info)
        if cand is not None:
            return cand
        inner_parent = self.inner.ext_parent(info[0])
        if inner_parent is None:
            return None
        pctx, pty = inner_parent
        return self.i_obj(pctx), self.i_ty(pctx, pty)

    def _formal_parent(self, info: tuple) -> Optional[tuple[str, str]]:
        """The candidate parent of the context with ``info``, None at a root."""
        raise NotImplementedError

    # -- the inclusion I ---------------------------------------------------
    def i_obj(self, gamma: str) -> str:
        raise NotImplementedError

    def i_ty(self, gamma: str, ty: str) -> str:
        raise NotImplementedError

    def i_tm(self, gamma: str, tm: str) -> str:
        raise NotImplementedError

    def i_payload(self, m: str) -> tuple:
        raise NotImplementedError


def inclusion(ext: _WrappedModel) -> NMorphism:
    """The strict inclusion I of the inner model into a free extension."""
    inner = ext.inner

    def root_mor(d, m: str) -> str:
        return ext.base.mors.key((
            d.on_obj(inner.base.dom(m)), d.on_obj(inner.base.cod(m)), ext.i_payload(m),
        ))

    return ForcedImages(
        inner, ext, ext.i_obj, root_mor,
        lambda d, ctx, ty: ext.i_ty(ctx, ty), lambda d, ctx, tm: ext.i_tm(ctx, tm),
    ).morphism("I")


# the name the benchmark's universal workload calls
sigma_inclusion = inclusion


def _sharp(ext: _WrappedModel, f: NMorphism, theta_root, theta_step, ty_image, tm_image,
           retract=None) -> NMorphism:
    """F♯ out of a free extension, from the construction's own rules: θ is
    ``theta_root(d, ctx)`` at a root I(Γ) and ``theta_step(d, pctx, A,
    θ(pctx))`` at pctx•A; I(Γ) goes to F(Γ) and a morphism m into a root to
    F(payload) ∘ θ(dom m), then ``retract(cod m)`` where one is given."""
    target = f.dst

    @memo
    def theta(d, ctx: str) -> str:
        parent = ext.ext_parent(ctx)
        if parent is None:
            return theta_root(d, ctx)
        pctx, pty = parent
        return theta_step(d, pctx, pty, theta(d, pctx))

    def root_obj(ctx: str) -> str:
        gamma = ext.base.objs.cell(ctx)[0]
        assert ctx == ext.i_obj(gamma), f"{ctx} is not a root context"
        return f.on_obj(gamma)

    def root_mor(d, m: str) -> str:
        cat = ext.base
        out = target.base.compose(f.on_mor(cat.mor_payload(m)[0]), theta(d, cat.dom(m)))
        return out if retract is None else target.base.compose(retract(cat.cod(m)), out)

    return ForcedImages(
        ext, target, root_obj, root_mor, partial(ty_image, theta), partial(tm_image, theta),
    ).morphism("F#")


# ---------------------------------------------------------------------------
# The term model on a family of basic types
# ---------------------------------------------------------------------------

class TermModel(NaturalModel):
    """The free natural model on an I-indexed family of basic types.

    The base category is the opposite of finite sets over I; the type
    presheaf is constant with value I, the term presheaf is the domain
    functor, and extension by the basic type j appends a fresh element
    labelled j.  Two registries name the types and the variables: ``tys``
    spells the index element i ``T{i}`` and ``tms`` the position k ``x{k}``.
    """

    def __init__(self, index):
        self.index = tuple(sorted(set(index)))
        self.base = FinSliceOpposite(self.index)
        self.tys = Registry("T{}".format)
        self.tms = Registry("x{}".format)
        self._types = tuple(map(self.tys.key, self.index))

    @memo
    def _variables(self, n: int) -> tuple[str, ...]:
        """x0, …, x(n-1): the terms over a context of n elements."""
        return tuple(map(self.tms.key, range(n)))

    def types(self, ctx: str, bound: int) -> list[str]:
        return list(self._types)

    def terms(self, ctx: str, bound: int) -> list[str]:
        return list(self._variables(len(self.base.objs.cell(ctx))))

    def typeof(self, ctx: str, term: str) -> str:
        try:
            return self.tys.key(self.base.objs.cell(ctx)[_read(self.tms, term)])
        except IndexError:
            raise ValueError(f"{term} is not a term over {ctx}") from None

    def subst_ty(self, sigma: str, ty: str) -> str:
        _read(self.tys, ty)
        return ty

    def subst_tm(self, sigma: str, term: str) -> str:
        fn = self.base.mor_payload(sigma)
        try:
            return self.tms.key(fn[_read(self.tms, term)])
        except IndexError:
            raise ValueError(f"{term} is not a term over {self.base.cod(sigma)}") from None

    def subst_ty_row(self, sigma: str, tys: list[str]) -> Mapping[str, str]:
        return self._identity_row(tuple(tys))

    @memo
    def _identity_row(self, tys: tuple[str, ...]) -> Mapping[str, str]:
        """{A: A} over ``tys``: Ty is constant, so every morphism shares it.
        Each type is read once per distinct ``tys``."""
        for ty in tys:
            _read(self.tys, ty)
        return MappingProxyType(dict(zip(tys, tys)))

    def subst_tm_row(self, sigma: str, tms: list[str]) -> Mapping[str, str]:
        src, gamma, fn = self.base.mors.cell(sigma)
        var = self._variables(len(self.base.objs.cell(src)))
        try:
            return {a: var[fn[_read(self.tms, a)]] for a in tms}
        except IndexError:
            bad = next(a for a in tms if _read(self.tms, a) >= len(fn))
            raise ValueError(f"{bad} is not a term over {gamma}") from None

    @memo
    def ext(self, ctx: str, ty: str) -> ExtensionData:
        labels = self.base.objs.cell(ctx)
        n = len(labels)
        extended = self.base.objs.key(labels + (_read(self.tys, ty),))
        proj = self.base.mors.key((extended, ctx, tuple(range(n))))
        return ExtensionData(extended, proj, self.tms.key(n))

    def indsub(self, sigma: str, term: str, ty: str) -> Optional[str]:
        src, gamma, fn = self.base.mors.cell(sigma)
        extended = self.ext(gamma, ty).extended
        k = _read(self.tms, term)
        if k >= len(self.base.objs.cells[src]):
            raise ValueError(f"{term} is not a term over {src}")
        return self.base.mors.key((src, extended, fn + (k,)))

    def ext_parent(self, ctx: str) -> Optional[tuple[str, str]]:
        labels = self.base.objs.cell(ctx)
        if not labels:
            return None
        return self.base.objs.key(labels[:-1]), self.tys.key(labels[-1])


def term_model(index) -> TermModel:
    """The free natural model on an index-set of basic types, lazily
    generated and not truncated."""
    return TermModel(index)


@memo
def _variable_images(d: ForcedImages, ctx: str, var_ty: Optional[str]) -> list[str]:
    """The images of the variables of ctx that extend by ``var_ty`` (all of
    them if None), in order and weakened to d.on_obj(ctx)."""
    parent = d.src.ext_parent(ctx)
    if parent is None:
        return []
    pctx, pty = parent
    weakened = _variable_images(d, pctx, var_ty)
    e = d.dst.ext(d.on_obj(pctx), d.on_ty(pctx, pty))
    new = [e.var] if var_ty in (None, pty) else []
    return [d.dst.subst_tm(e.proj, v) for v in weakened] + new


def initial_morphism(tm: TermModel, target: NaturalModel, images: dict) -> NMorphism:
    """The unique strict morphism out of a term model with prescribed images.

    ``images`` maps each index element to a closed type of the target.  The
    image of a context is the iterated extension of the empty context by the
    weakened images of its labels; variables go to the matching slot
    variables and substitutions to tuples of slot projections.
    """
    o_tys = {i: images[i] for i in tm.index}

    def root_obj(ctx: str) -> str:
        assert ctx == tm.terminal
        return target.terminal

    def ty_map(d: ForcedImages, ctx: str, ty: str) -> str:
        return target.subst_ty(target.t(d.on_obj(ctx)), o_tys[_read(tm.tys, ty)])

    def tm_map(d: ForcedImages, ctx: str, term: str) -> str:
        return _variable_images(d, ctx, None)[_read(tm.tms, term)]

    def root_mor(d: ForcedImages, m: str) -> str:
        # the only root is the terminal context
        return target.t(d.on_obj(tm.base.dom(m)))

    return ForcedImages(tm, target, root_obj, root_mor, ty_map, tm_map).morphism("initial")


def _inclusion_pins(ext: _WrappedModel, f: NMorphism, bound: int) -> MorphismPins:
    """Pins expressing G ∘ I = F on every in-bound inner context, type, term
    and morphism, where I is the inclusion of the inner model into ``ext``."""
    inner, incl = ext.inner, inclusion(ext)
    pins = MorphismPins()
    ctxs = inner.base.objects(bound)
    for gamma in ctxs:
        key = incl.on_obj(gamma)
        pins.on_obj[key] = f.on_obj(gamma)
        for ty in inner.types(gamma, bound):
            pins.on_ty[(key, incl.on_ty(gamma, ty))] = f.on_ty(gamma, ty)
        for tm in inner.terms(gamma, bound):
            pins.on_tm[(key, incl.on_tm(gamma, tm))] = f.on_tm(gamma, tm)
        for delta in ctxs:
            for m in inner.base.hom(delta, gamma):
                pins.on_mor[incl.on_mor(m)] = f.on_mor(m)
    return pins


def initiality_pins(tm: TermModel, target: NaturalModel, images: dict) -> MorphismPins:
    pins = MorphismPins()
    pins.on_obj[tm.terminal] = target.terminal
    for i in tm.index:
        pins.on_ty[(tm.terminal, tm.tys.key(i))] = images[i]
    return pins


# ---------------------------------------------------------------------------
# Extension by a term of a basic type
# ---------------------------------------------------------------------------

class _ExtTermCategory(_WrappedCategory):
    """Contexts of the inner model formally extended by a term variable."""

    model: ExtTermModel

    def spell_obj(self, cell: tuple[str, tuple[str, ...]]) -> str:
        gamma, tys = cell
        # Γ is escaped too, so a `|` inside Γ or a type cannot move the split
        return f"xt({join_escaped('|', (gamma, join_escaped(';', tys)))})"

    @memo
    def under(self, key: str) -> str:
        """Γ•O•A₁•…•Aₙ for the context (Γ; A₁, …, Aₙ)."""
        gamma, tys = self.objs.cell(key)
        ctx = self.model._o_ext(gamma).extended
        for ty in tys:
            ctx = self.inner.ext(ctx, ty).extended
        return ctx

    @memo
    def anchor(self, key: str) -> str:
        """The structure map under(key) -> ⋄•O over which hom sets live."""
        gamma, tys = self.objs.cell(key)
        inner = self.inner
        if not tys:
            return canonical_pullback(inner, inner.t(gamma), self.model.o_ty)
        parent = self.objs.key((gamma, tys[:-1]))
        e = inner.ext(self.under(parent), tys[-1])
        return inner.base.compose(self.anchor(parent), e.proj)

    def _hom_payloads(self, a: str, b: str) -> Iterable[tuple]:
        anchor_a, anchor_b = self.anchor(a), self.anchor(b)
        for s in self.inner.base.hom(self.under(a), self.under(b)):
            if self.inner.base.compose(anchor_b, s) == anchor_a:
                yield (s,)


class ExtTermModel(_WrappedModel):
    """The free natural model on ``inner`` extended by a term x of type O.

    Contexts are pairs of an inner context and a list of formal extensions
    depending on the new variable; lists whose head does not depend on it
    are absorbed into the inner context (the normal form), and the swap
    isomorphism of :meth:`alignment` transports types and terms.
    """

    base: _ExtTermCategory

    def __init__(self, inner: NaturalModel, o_ty: str):
        super().__init__(inner, _ExtTermCategory)
        self.o_ty = o_ty
        # the variable of the anchor object ⋄•O
        self.x_term = inner.ext(inner.terminal, o_ty).var
        self.i_obj(inner.terminal)

    # -- context construction -------------------------------------------
    @memo
    def _o_ext(self, gamma: str) -> ExtensionData:
        """Extension of an inner context by the weakened new-variable type."""
        o_at = self.inner.subst_ty(self.inner.t(gamma), self.o_ty)
        return self.inner.ext(gamma, o_at)

    def i_obj(self, gamma: str) -> str:
        return self.base.objs.key((gamma, ()))

    def i_ty(self, gamma: str, ty: str) -> str:
        return self.inner.subst_ty(self._o_ext(gamma).proj, ty)

    def i_tm(self, gamma: str, tm: str) -> str:
        return self.inner.subst_tm(self._o_ext(gamma).proj, tm)

    def i_payload(self, m: str) -> tuple:
        inner = self.inner
        o_at = inner.subst_ty(inner.t(inner.base.cod(m)), self.o_ty)
        return (canonical_pullback(inner, m, o_at),)

    def types(self, ctx: str, bound: int) -> list[str]:
        return self.inner.types(self.base.under(ctx), bound)

    def terms(self, ctx: str, bound: int) -> list[str]:
        return self.inner.terms(self.base.under(ctx), bound)

    def typeof(self, ctx: str, term: str) -> str:
        try:
            return self.inner.typeof(self.base.under(ctx), term)
        except ValueError as exc:
            raise ValueError(f"{term!r} is not a term over {ctx}: {exc}") from None

    def ty_size(self, ctx: str, ty: str) -> int:
        return self.inner.ty_size(self.base.under(ctx), ty)

    def _subst_ty(self, payload: tuple, ty: str) -> str:
        return self.inner.subst_ty(payload[0], ty)

    def _subst_tm(self, payload: tuple, term: str) -> str:
        return self.inner.subst_tm(payload[0], term)

    @memo
    def alignment(self, ctx: str, ty: str) -> Optional[tuple[str, str, str]]:
        """Where extending ctx by ty collapses, if it does: when ctx is a root
        (Γ;) and ty is A'[p_O] for the first inner type A' over Γ that
        weakens to it, the type does not depend on the new variable and the
        extension is absorbed into the root (Γ•A';).  Returns that root, the
        swap Γ•A'•O -> Γ•O•A'[p_O] and its inverse, checked once; else None.
        """
        gamma, tys = self.base.objs.cell(ctx)
        if tys:
            return None
        inner = self.inner
        o_ext = self._o_ext(gamma)
        a_prime = next((a for a in inner.types(gamma, self.ty_size(ctx, ty))
                        if inner.subst_ty(o_ext.proj, a) == ty), None)
        if a_prime is None:
            return None
        o_at_g = inner.subst_ty(inner.t(gamma), self.o_ty)
        sw = swap_iso(inner, gamma, a_prime, o_at_g)
        sw_inv = swap_iso(inner, gamma, o_at_g, a_prime)
        ib = inner.base
        if ib.compose(sw_inv, sw) != ib.identity(ib.dom(sw)) or \
                ib.compose(sw, sw_inv) != ib.identity(ib.cod(sw)):
            raise ValueError("alignment isomorphism is not invertible")
        return self.i_obj(inner.ext(gamma, a_prime).extended), sw, sw_inv

    @memo
    def ext(self, ctx: str, ty: str) -> ExtensionData:
        cat = self.base
        inner = self.inner
        e_in = inner.ext(cat.under(ctx), ty)
        collapse = self.alignment(ctx, ty)
        if collapse is not None:
            new_key, sw, _ = collapse
            proj = cat.mors.key((new_key, ctx, (inner.base.compose(e_in.proj, sw),)))
            return ExtensionData(new_key, proj, inner.subst_tm(sw, e_in.var))
        gamma, tys = cat.objs.cell(ctx)
        new_key = cat.objs.key((gamma, tys + (ty,)))
        return ExtensionData(new_key, cat.mors.key((new_key, ctx, (e_in.proj,))), e_in.var)

    def indsub(self, sigma: str, term: str, ty: str) -> Optional[str]:
        gamma_ctx = self.base.cod(sigma)
        (s,) = self.base.mor_payload(sigma)
        e = self.ext(gamma_ctx, ty)
        try:
            tau = induced_sub(self.inner, s, term, ty)
        except ValueError as exc:
            raise self._indsub_refusal(self.base.dom(sigma), term, exc) from None
        collapse = self.alignment(gamma_ctx, ty)
        if collapse is not None:
            tau = self.inner.base.compose(collapse[2], tau)
        return self.base.mors.key((self.base.dom(sigma), e.extended, (tau,)))

    def _formal_parent(self, info: tuple) -> Optional[tuple[str, str]]:
        gamma, tys = info
        return (self.base.objs.key((gamma, tys[:-1])), tys[-1]) if tys else None


def extend_by_term(inner: NaturalModel, o_ty: str) -> ExtTermModel:
    """Freely extend a model by a term x of the closed type ``o_ty``.

    The distinguished term is ``model.x_term``, a term of the weakened type
    over the new terminal context.
    """
    return ExtTermModel(inner, o_ty)


def extend_term_universal(ext: ExtTermModel, f: NMorphism, o_term: str) -> NMorphism:
    """F♯ : the unique morphism out of the term extension with F♯(x) = o.

    θ is the section ⟨id, o[t]⟩ at a root (Γ;), and the canonical pullback
    of the parent's θ along F(A) at Γ•A, composed with the F-image of the
    alignment inverse where extending Γ by A collapsed.  With F the identity
    this is the substitution morphism S_o.
    """
    target = f.dst
    fo = f.on_ty(ext.inner.terminal, ext.o_ty)

    def theta_root(d, ctx: str) -> str:
        f_gamma = d.on_obj(ctx)
        t = target.t(f_gamma)
        return induced_sub(
            target, target.base.identity(f_gamma),
            target.subst_tm(t, o_term), target.subst_ty(t, fo),
        )

    def theta_step(d, pctx: str, pty: str, th: str) -> str:
        th = canonical_pullback(target, th, f.on_ty(ext.base.under(pctx), pty))
        collapse = ext.alignment(pctx, pty)
        if collapse is not None:
            th = target.base.compose(f.on_mor(collapse[2]), th)
        return th

    def ty_image(theta, d, ctx: str, ty: str) -> str:
        return target.subst_ty(theta(d, ctx), f.on_ty(ext.base.under(ctx), ty))

    def tm_image(theta, d, ctx: str, tm: str) -> str:
        return target.subst_tm(theta(d, ctx), f.on_tm(ext.base.under(ctx), tm))

    def retract(root: str) -> str:
        # the codomain is a root (Γ₀;): F(p_O) retracts the section
        return f.on_mor(ext._o_ext(ext.base.objs.cell(root)[0]).proj)

    return _sharp(ext, f, theta_root, theta_step, ty_image, tm_image, retract)


def substitution_morphism(ext: ExtTermModel, o_term: str) -> NMorphism:
    """S_o : substitute the closed term o for the formal variable x.

    F♯ of the identity, so S_o(x) = o and S_o ∘ I = id.
    """
    s_o = extend_term_universal(ext, identity_morphism(ext.inner), o_term)
    s_o.name = "S_o"
    return s_o


def term_universal_pins(
    ext_src: ExtTermModel, f: NMorphism, o_term: str, bound: int
) -> MorphismPins:
    """Pins expressing G ∘ I = F and G(x) = o for the rival search."""
    pins = _inclusion_pins(ext_src, f, bound)
    pins.on_tm[(ext_src.i_obj(ext_src.inner.terminal), ext_src.x_term)] = o_term
    return pins


# ---------------------------------------------------------------------------
# Extension by a basic type, and by a unit type
# ---------------------------------------------------------------------------

class _InterleavedCategory(_WrappedCategory):
    """Contexts interleaved with formal slots (shared by the X and unit cases).

    Objects are (Γ, k₀, A₁, k₁, …, Aₙ, kₙ) in normal form (either the bare
    pair (Γ, 0) or k₀ > 0).  Morphisms carry a function (a tally) from the
    first ``width`` slots of the codomain to those of the domain, where the
    owning model gives the width: every slot for X, none for the unit.
    """

    model: _InterleavedModel

    def spell_obj(self, cell: tuple[str, tuple[int, ...], tuple[str, ...]]) -> str:
        gamma, ks, tys = cell
        body = join_escaped(",", (
            x for pair in itertools.zip_longest(map(str, ks), tys, fillvalue=None)
            for x in pair if x is not None
        ))
        return f"ix({join_escaped('|', (gamma, body))})"

    def register(self, gamma: str, ks: tuple[int, ...], tys: tuple[str, ...]) -> str:
        # normalize: absorb leading type whenever the head slot count is zero
        while tys and ks[0] == 0:
            gamma = self.inner.ext(gamma, tys[0]).extended
            tys = tys[1:]
            ks = ks[1:]
        return self.objs.key((gamma, ks, tys))

    @memo
    def under(self, key: str) -> str:
        """Γ•A₁•…•Aₙ for the context (Γ, k₀, A₁, k₁, …, Aₙ, kₙ)."""
        gamma, _, tys = self.objs.cell(key)
        for ty in tys:
            gamma = self.inner.ext(gamma, ty).extended
        return gamma

    def count(self, key: str) -> int:  # the number of formal slots
        return sum(self.objs.cell(key)[1])

    def _hom_payloads(self, a: str, b: str) -> Iterable[tuple]:
        inner_homs = self.inner.base.hom(self.under(a), self.under(b))
        width = self.model.width
        # width(b) == 0 yields exactly the empty tally; width(a) == 0 < width(b) yields none
        tallies = list(itertools.product(range(width(a)), repeat=width(b)))
        return [(s, tally) for s in inner_homs for tally in tallies]

    def identity(self, a: str) -> str:
        tally = tuple(range(self.model.width(a)))
        return self.mors.key((a, a, (self.inner.base.identity(self.under(a)), tally)))

    def _compose_payloads(self, gp: tuple, fps: list[tuple]) -> Iterable[tuple]:
        gfs = self.inner.base.compose_row(gp[0], [fp[0] for fp in fps])
        return zip(gfs, [tuple([fp[1][j] for j in gp[1]]) for fp in fps])  # f's tally through g's


class _InterleavedModel(_WrappedModel):
    """Shared behaviour of the basic-type and unit-type free extensions.

    A subclass gives ``new_terms(ctx)``, the terms of the new type that ctx
    adds to the inner ones; ``_owns(term)``, whether a key is one of the new
    terms of some context; ``width(ctx)``, how many of them (the first) a
    tally carries, each as the index of its image among the domain's new
    terms; and ``_moved(tally, term)``, a new term's image along a tally
    (None for any other term).  ``typeof`` refuses a new term of another
    context, and ``indsub`` also one at an inner type, naming the context;
    only the keys they do not own reach the inner model, whose refusal of a
    term of another context is raised again naming the context of the call.
    """

    base: _InterleavedCategory
    new_ty: str

    def __init__(self, inner: NaturalModel):
        super().__init__(inner, _InterleavedCategory)

    def types(self, ctx: str, bound: int) -> list[str]:
        return [self.new_ty] + self.inner.types(self.base.under(ctx), bound)

    def terms(self, ctx: str, bound: int) -> list[str]:
        return [*self.new_terms(ctx), *self.inner.terms(self.base.under(ctx), bound)]

    def typeof(self, ctx: str, term: str) -> str:
        if not self._owns(term):
            try:
                return self.inner.typeof(self.base.under(ctx), term)
            except ValueError as exc:
                raise ValueError(f"{term!r} is not a term over {ctx}: {exc}") from None
        if term not in self.new_terms(ctx):
            raise ValueError(f"{term!r} is not a term over {ctx}")
        return self.new_ty

    def ty_size(self, ctx: str, ty: str) -> int:
        if ty == self.new_ty:
            return 1
        return self.inner.ty_size(self.base.under(ctx), ty)

    def _subst_ty(self, payload: tuple, ty: str) -> str:
        if ty == self.new_ty:
            return ty
        return self.inner.subst_ty(payload[0], ty)

    def _subst_tm(self, payload: tuple, term: str) -> str:
        moved = self._moved(payload[1], term)
        return self.inner.subst_tm(payload[0], term) if moved is None else moved

    @memo
    def ext(self, ctx: str, ty: str) -> ExtensionData:
        cat = self.base
        gamma, ks, tys = cat.objs.cell(ctx)
        under = cat.under(ctx)
        tally = tuple(range(self.width(ctx)))
        if ty == self.new_ty:
            new_key = cat.register(gamma, ks[:-1] + (ks[-1] + 1,), tys)
            proj = cat.mors.key((new_key, ctx, (self.inner.base.identity(under), tally)))
            return ExtensionData(new_key, proj, self.new_terms(new_key)[-1])
        e_in = self.inner.ext(under, ty)
        new_key = cat.register(gamma, ks + (0,), tys + (ty,))
        return ExtensionData(new_key, cat.mors.key((new_key, ctx, (e_in.proj, tally))), e_in.var)

    def indsub(self, sigma: str, term: str, ty: str) -> Optional[str]:
        cat = self.base
        src = cat.dom(sigma)
        s, tally = cat.mor_payload(sigma)
        e = self.ext(cat.cod(sigma), ty)
        own = self._owns(term)  # a new term is one only of the new type, over its own context
        if own != (ty == self.new_ty) or own and term not in self.new_terms(src):
            raise ValueError(f"{term!r} is not a term of {ty} over {src}")
        if not own:
            try:
                payload = (induced_sub(self.inner, s, term, ty), tally)
            except ValueError as exc:
                raise self._indsub_refusal(src, term, exc) from None
        elif self.width(e.extended) > len(tally):  # the tally carries the new term's image
            payload = (s, tally + (self.new_terms(src).index(term),))
        else:
            payload = (s, tally)
        return cat.mors.key((src, e.extended, payload))

    def _formal_parent(self, info: tuple) -> Optional[tuple[str, str]]:
        gamma, ks, tys = info
        if ks[-1] > 0:
            return self.base.register(gamma, ks[:-1] + (ks[-1] - 1,), tys), self.new_ty
        if tys:
            return self.base.register(gamma, ks[:-1], tys[:-1]), tys[-1]
        return None

    def i_obj(self, gamma: str) -> str:
        return self.base.register(gamma, (0,), ())

    def i_ty(self, gamma: str, ty: str) -> str:
        return ty

    def i_tm(self, gamma: str, tm: str) -> str:
        return tm

    def i_payload(self, m: str) -> tuple:
        return (m, ())


class TypeExtModel(_InterleavedModel):
    """The free natural model on ``inner`` extended by a basic type X.

    The new terms of a context are its slot variables, and a tally carries
    every one.  The new type and slot-term keys carry one apostrophe per
    nesting level, so iterated extensions never clash, and the slot prefix
    one more while a closed inner term reads as a slot variable.  The slot
    variables are named by the registry ``slot_vars``, whose cell is the
    slot index.
    """

    def __init__(self, inner: NaturalModel):
        super().__init__(inner)
        self.new_ty = _fresh_key(inner.types(inner.terminal, 4), "X")
        stems = [t.rstrip("0123456789") for t in inner.terms(inner.terminal, 4) if t[-1:].isdigit()]
        prefix = _fresh_key(stems, "v" + "'" * self.new_ty.count("'"))
        self.slot_vars = Registry(lambda j: f"{prefix}{j}")

    @memo
    def _slots(self, k: int) -> tuple[str, ...]:
        """The slot variables of a context with k slots, in slot order."""
        return tuple(map(self.slot_vars.key, range(k)))

    def new_terms(self, ctx: str) -> tuple[str, ...]:
        return self._slots(self.base.count(ctx))

    def _owns(self, term: str) -> bool:
        return term in self.slot_vars.cells

    def width(self, ctx: str) -> int:
        return self.base.count(ctx)

    def _moved(self, tally: tuple[int, ...], term: str) -> Optional[str]:
        slots = self._slots(len(tally))  # a tally is as wide as its codomain's slots
        return self.slot_vars.key(tally[slots.index(term)]) if term in slots else None


class UnitExtModel(_InterleavedModel):
    """The free natural model on ``inner`` admitting a unit type: every
    context has the one new term ⋆, which no tally carries."""

    def __init__(self, inner: NaturalModel):
        super().__init__(inner)
        self.new_ty = _fresh_key(inner.types(inner.terminal, 4), "unit")
        self._star = _fresh_key(inner.terms(inner.terminal, 4) + [self.new_ty], "star")
        self.unit_structure = UnitStructure(self.new_ty, self._star)

    def new_terms(self, ctx: str) -> tuple[str, ...]:
        return (self._star,)

    def _owns(self, term: str) -> bool:
        return term == self._star

    def width(self, ctx: str) -> int:
        return 0

    def _moved(self, tally: tuple[int, ...], term: str) -> Optional[str]:
        return term if term == self._star else None


def extend_by_type(inner: NaturalModel) -> TypeExtModel:
    """Freely adjoin a basic type; the new type key is ``model.new_ty``."""
    return TypeExtModel(inner)


def extend_by_unit(inner: NaturalModel) -> UnitExtModel:
    """Freely adjoin a unit type; the structure is ``model.unit_structure``."""
    return UnitExtModel(inner)


def _interleaved_collapse(ext: _InterleavedModel, f: NMorphism, slot_ty: str,
                          new_tm_image) -> NMorphism:
    """The mediating morphism out of an interleaved extension.

    Formal slots are sent to extensions by the closed type ``slot_ty`` of the
    target (weakened to the image context); inner types and terms are
    transported along the comparison morphism θ that forgets the slots.  A
    new term of ctx goes to ``new_tm_image(d, ctx, tm)``.  With ``f`` the
    identity this is the insertion morphism; in general it is F♯.
    """
    target = f.dst

    def theta_root(d, ctx: str) -> str:
        return target.base.identity(d.on_obj(ctx))

    def theta_step(d, pctx: str, pty: str, th: str) -> str:
        if pty == ext.new_ty:
            return target.base.compose(th, target.ext(d.on_obj(pctx), d.on_ty(pctx, pty)).proj)
        return canonical_pullback(target, th, f.on_ty(ext.base.under(pctx), pty))

    def ty_image(theta, d, ctx: str, ty: str) -> str:
        if ty == ext.new_ty:
            return target.subst_ty(target.t(d.on_obj(ctx)), slot_ty)
        return target.subst_ty(theta(d, ctx), f.on_ty(ext.base.under(ctx), ty))

    def tm_image(theta, d, ctx: str, tm: str) -> str:
        if tm in ext.new_terms(ctx):
            return new_tm_image(d, ctx, tm)
        return target.subst_tm(theta(d, ctx), f.on_tm(ext.base.under(ctx), tm))

    return _sharp(ext, f, theta_root, theta_step, ty_image, tm_image)


def type_universal(ext: TypeExtModel, f: NMorphism, o_ty: str) -> NMorphism:
    """F♯ out of the basic-type extension, sending X to the closed type o_ty."""

    def slot_image(d, ctx: str, tm: str) -> str:
        # a slot variable goes to the variable of its own extension by o_ty
        return _variable_images(d, ctx, ext.new_ty)[ext.new_terms(ctx).index(tm)]

    return _interleaved_collapse(ext, f, o_ty, slot_image)


def type_insertion(ext: TypeExtModel, o_ty: str) -> NMorphism:
    """S : send the formal basic type to an existing closed type of the inner model."""
    return type_universal(ext, identity_morphism(ext.inner), o_ty)


def unit_universal(ext: UnitExtModel, f: NMorphism) -> NMorphism:
    """F♯ out of the unit extension into a model admitting a unit type."""
    target = f.dst
    u: UnitStructure = target.unit_structure  # type: ignore[attr-defined]

    def star_image(d, ctx: str, tm: str) -> str:
        return target.subst_tm(target.t(d.on_obj(ctx)), u.star_tm)

    return _interleaved_collapse(ext, f, u.unit_ty, star_image)


def unit_insertion(ext: UnitExtModel) -> NMorphism:
    """N : collapse the formal units into the unit structure of the inner model."""
    return unit_universal(ext, identity_morphism(ext.inner))


def interleaved_universal_pins(
    ext: _InterleavedModel, f: NMorphism, bound: int, sharp: NMorphism,
) -> MorphismPins:
    """Pins for G ∘ I = F plus the prescribed images of the formal structure.

    The new type, and the new terms of a context no tally carries (the unit
    case's ⋆), are pinned at every in-bound context to the values any
    structure-preserving candidate is forced to take, as computed by the
    constructed mediating morphism.
    """
    pins = _inclusion_pins(ext, f, bound)
    for ctx in ext.base.objects(bound):
        pins.on_ty[(ctx, ext.new_ty)] = sharp.on_ty(ctx, ext.new_ty)
        if not ext.width(ctx):
            for tm in ext.new_terms(ctx):
                pins.on_tm[(ctx, tm)] = sharp.on_tm(ctx, tm)
    return pins


# ---------------------------------------------------------------------------
# Type trees and the free admission of dependent sum types
# ---------------------------------------------------------------------------

_LEAF_ESCAPES = str.maketrans({**{c: "\\" + c for c in "\\[],:"}, "|": "\\x7c"})


def _leaf_key(leaf: str) -> str:
    """The key of a leaf tree: the leaf with each "\\" and each of the node
    spellings' "[", "]", "," and ":" escaped by a "\\", and each "|" spelled
    "\\x7c".

    So a node's key splits into its children's keys at its one unescaped
    separator outside brackets, distinct trees have distinct keys, and no
    tree key holds a "|" (see :meth:`_TreeCategory.spell_obj`).  A leaf with
    none of these, as over a term model, is its own key.
    """
    return leaf.translate(_LEAF_ESCAPES)


class TypeTree(NamedTuple):
    """Leaf-labelled finite rooted binary tree of types.

    The right subtree of a node lives over the context extended by the left
    subtree.  A tree is a value: equal leaves in equal shapes are equal
    trees, and its key is spelled only when a registry names it.
    """

    leaf: Optional[str] = None
    left: Optional[TypeTree] = None
    right: Optional[TypeTree] = None

    @property
    def is_leaf(self) -> bool:
        return self.leaf is not None

    @property
    def key(self) -> str:
        if self.is_leaf:
            return _leaf_key(self.leaf)  # type: ignore[arg-type]
        return f"[{self.left.key},{self.right.key}]"

    def size(self) -> int:
        return 1 if self.is_leaf else self.left.size() + self.right.size()


class TermTree(NamedTuple):
    """Term tree; a node carries the type tree indexing its second component.

    A node (t₁, B, t₂) is a term of the dependent sum [p(t₁), B]; the second
    component t₂ lives over the same context, of type B substituted along the
    section of t₁.  Like a type tree, it is a value whose key is spelled only
    when a registry names it.
    """

    leaf: Optional[str] = None
    left: Optional[TermTree] = None
    rtype: Optional[TypeTree] = None
    right: Optional[TermTree] = None

    @property
    def is_leaf(self) -> bool:
        return self.leaf is not None

    @property
    def key(self) -> str:
        if self.is_leaf:
            return _leaf_key(self.leaf)  # type: ignore[arg-type]
        return f"[{self.left.key}:{self.rtype.key}:{self.right.key}]"


@memo
def tree_ext(m: NaturalModel, ctx: str, tree: TypeTree) -> tuple[str, str, TermTree]:
    """(Γ•T, p_T, q_T): extension data for a type tree, built from the leaves.

    p_T is the composite of the leaf projections; q_T pairs the weakened
    variables of the two subtrees.
    """
    if tree.is_leaf:
        e = m.ext(ctx, tree.leaf)
        return e.extended, e.proj, TermTree(leaf=e.var)
    c1, p1, q1 = tree_ext(m, ctx, tree.left)
    c2, p2, q2 = tree_ext(m, c1, tree.right)
    proj = m.base.compose(p1, p2)
    left_tm = tmtree_subst(m, p2, q1)
    rtype = tree_subst(m, canonical_pullback_tree(m, proj, tree.left), tree.right)
    return c2, proj, TermTree(left=left_tm, rtype=rtype, right=q2)


@memo
def canonical_pullback_tree(m: NaturalModel, sigma: str, tree: TypeTree) -> str:
    """σ•T : iterated canonical pullback along the leaves of a type tree,
    σ•[L, R] = (σ•L)•R."""
    if tree.is_leaf:
        return canonical_pullback(m, sigma, tree.leaf)
    return canonical_pullback_tree(
        m, canonical_pullback_tree(m, sigma, tree.left), tree.right
    )


@memo
def tree_subst(m: NaturalModel, sigma: str, tree: TypeTree) -> TypeTree:
    """T[σ], substituting leaf-wise with the canonical pullbacks in between."""
    if tree.is_leaf:
        return TypeTree(leaf=m.subst_ty(sigma, tree.leaf))
    left = tree_subst(m, sigma, tree.left)
    sigma_ext = canonical_pullback_tree(m, sigma, tree.left)
    return TypeTree(left=left, right=tree_subst(m, sigma_ext, tree.right))


@memo
def tmtree_subst(m: NaturalModel, sigma: str, tree: TermTree) -> TermTree:
    if tree.is_leaf:
        return TermTree(leaf=m.subst_tm(sigma, tree.leaf))
    left = tmtree_subst(m, sigma, tree.left)
    sigma_ext = canonical_pullback_tree(
        m, sigma, tmtree_type(m, m.base.cod(sigma), tree.left)
    )
    rtype = tree_subst(m, sigma_ext, tree.rtype)
    return TermTree(left=left, rtype=rtype, right=tmtree_subst(m, sigma, tree.right))


@memo
def tmtree_type(m: NaturalModel, ctx: str, tree: TermTree) -> TypeTree:
    """The type tree of a term tree (leafwise typing, node type from the index).
    Both components of a pair are typed over ``ctx``, so a pair whose second
    component is no term over ``ctx`` is refused as that component is."""
    if tree.is_leaf:
        return TypeTree(leaf=m.typeof(ctx, tree.leaf))
    tmtree_type(m, ctx, tree.right)
    return TypeTree(left=tmtree_type(m, ctx, tree.left), right=tree.rtype)


def tmtree_section(m: NaturalModel, ctx: str, tree: TermTree) -> str:
    """⟨id, t⟩_T : Γ -> Γ•T for a term tree t of type tree T over Γ."""
    return tree_indsub(m, m.base.identity(ctx), tree, tmtree_type(m, ctx, tree))


def tree_indsub(m: NaturalModel, sigma: str, tm: TermTree, ty: TypeTree) -> str:
    """⟨σ, t⟩_T = ⟨⟨σ, t₁⟩_{T₁}, t₂⟩_{T₂}, recursively through the tree."""
    if ty.is_leaf != tm.is_leaf:
        raise ValueError(f"term tree {tm.key} does not have the shape of type tree {ty.key}")
    if ty.is_leaf:
        return induced_sub(m, sigma, tm.leaf, ty.leaf)
    tau1 = tree_indsub(m, sigma, tm.left, ty.left)
    return tree_indsub(m, tau1, tm.right, ty.right)


class _TreeCategory(_WrappedCategory):
    """Contexts formally extended by lists of type trees."""

    def spell_obj(self, cell: tuple[str, tuple[TypeTree, ...]]) -> str:
        # no tree key holds a `|`, so the key splits at its last `|` and Γ,
        # a context of an inner Σ model say, is written as it is
        gamma, trees = cell
        return f"tr({gamma}|{join_escaped(';', (t.key for t in trees))})"

    def register(self, gamma: str, trees: tuple[TypeTree, ...]) -> str:
        while trees and trees[0].is_leaf:
            gamma = self.inner.ext(gamma, trees[0].leaf).extended
            trees = trees[1:]
        return self.objs.key((gamma, trees))

    @memo
    def under(self, key: str) -> str:
        """Γ•T₁•…•Tₙ for the context (Γ; T₁, …, Tₙ) of type trees."""
        gamma, trees = self.objs.cell(key)
        for tree in trees:
            gamma = tree_ext(self.inner, gamma, tree)[0]
        return gamma

    def _hom_payloads(self, a: str, b: str) -> Iterable[tuple]:
        return [(s,) for s in self.inner.base.hom(self.under(a), self.under(b))]


class SigmaExtModel(_WrappedModel):
    """The free natural model on ``inner`` admitting dependent sum types.

    Types are type trees over the underlying context, terms are term trees,
    and the dependent sum of (T, T') is the tree [T, T'].  The trees are
    values, named by two :class:`~natmod.fincat.Registry`, ``tys`` and
    ``tms``: a tree's key is spelled when it is first registered, and no
    code compares or parses keys.
    """

    base: _TreeCategory

    def __init__(self, inner: NaturalModel):
        super().__init__(inner, _TreeCategory)
        self.tys = Registry(attrgetter("key"))  # the type trees
        self.tms = Registry(attrgetter("key"))  # the term trees
        self.sigma_structure = SigmaStructure(self._sigma, self._pair, self._split)

    # -- model interface ---------------------------------------------------
    def types(self, ctx: str, bound: int) -> list[str]:
        under = self.base.under(ctx)
        return [self.tys.key(t) for t in self._gen_ty_trees(under, bound)]

    @memo
    def _gen_ty_trees(self, m_ctx: str, bound: int) -> list[TypeTree]:
        out: list[TypeTree] = []
        if bound >= 1:
            for leaf in self.inner.types(m_ctx, bound):
                out.append(TypeTree(leaf=leaf))
            for lsize in range(1, bound):
                for l_tree in self._gen_ty_trees(m_ctx, lsize):
                    if l_tree.size() != lsize:
                        continue
                    mid = tree_ext(self.inner, m_ctx, l_tree)[0]
                    for r_tree in self._gen_ty_trees(mid, bound - lsize):
                        out.append(TypeTree(left=l_tree, right=r_tree))
        return out

    def terms(self, ctx: str, bound: int) -> list[str]:
        under = self.base.under(ctx)
        out = []
        for ty in self._gen_ty_trees(under, bound):
            out.extend(self.tms.key(t) for t in self._gen_tm_trees(under, ty))
        return out

    @memo
    def _gen_tm_trees(self, m_ctx: str, ty: TypeTree) -> list[TermTree]:
        if ty.is_leaf:
            return [
                TermTree(leaf=a)
                for a in self.inner.terms_of(m_ctx, ty.leaf, max(ty.size(), 1))
            ]
        out = []
        for t1 in self._gen_tm_trees(m_ctx, ty.left):
            s_t1 = tmtree_section(self.inner, m_ctx, t1)
            ty2 = tree_subst(self.inner, s_t1, ty.right)
            for t2 in self._gen_tm_trees(m_ctx, ty2):
                out.append(TermTree(left=t1, rtype=ty.right, right=t2))
        return out

    @memo
    def typeof(self, ctx: str, term: str) -> str:
        tree = _read(self.tms, term)
        try:
            return self.tys.key(tmtree_type(self.inner, self.base.under(ctx), tree))
        except ValueError:
            raise ValueError(f"{term} is not a term over {ctx}") from None

    def ty_size(self, ctx: str, ty: str) -> int:
        return _read(self.tys, ty).size()

    # a tree substitution walks the whole tree, so cells are memoized too
    @memo
    def _subst_ty(self, payload: tuple, ty: str) -> str:
        return self.tys.key(tree_subst(self.inner, payload[0], _read(self.tys, ty)))

    @memo
    def _subst_tm(self, payload: tuple, term: str) -> str:
        return self.tms.key(tmtree_subst(self.inner, payload[0], _read(self.tms, term)))

    @memo
    def ext(self, ctx: str, ty: str) -> ExtensionData:
        cat = self.base
        gamma, trees = cat.objs.cell(ctx)
        tree = _read(self.tys, ty)
        new_key = cat.register(gamma, trees + (tree,))
        _, proj, var = tree_ext(self.inner, cat.under(ctx), tree)
        return ExtensionData(new_key, cat.mors.key((new_key, ctx, (proj,))), self.tms.key(var))

    def indsub(self, sigma: str, term: str, ty: str) -> Optional[str]:
        (s,) = self.base.mor_payload(sigma)
        e = self.ext(self.base.cod(sigma), ty)
        try:
            tau = tree_indsub(self.inner, s, _read(self.tms, term), _read(self.tys, ty))
        except ValueError as exc:
            raise self._indsub_refusal(self.base.dom(sigma), term, exc) from None
        return self.base.mors.key((self.base.dom(sigma), e.extended, (tau,)))

    def _formal_parent(self, info: tuple) -> Optional[tuple[str, str]]:
        gamma, trees = info
        return (self.base.register(gamma, trees[:-1]), self.tys.key(trees[-1])) if trees else None

    def i_obj(self, gamma: str) -> str:
        return self.base.register(gamma, ())

    def i_ty(self, gamma: str, ty: str) -> str:
        return self.tys.key(TypeTree(leaf=ty))

    def i_tm(self, gamma: str, tm: str) -> str:
        return self.tms.key(TermTree(leaf=tm))

    def i_payload(self, m: str) -> tuple:
        return (m,)

    # -- dependent sum structure -------------------------------------------
    def _sigma(self, ctx: str, ty_a: str, ty_b: str) -> str:
        return self.tys.key(TypeTree(left=_read(self.tys, ty_a), right=_read(self.tys, ty_b)))

    def _pair(self, ctx: str, ty_a: str, ty_b: str, tm_a: str, tm_b: str) -> str:
        return self.tms.key(TermTree(
            left=_read(self.tms, tm_a), rtype=_read(self.tys, ty_b), right=_read(self.tms, tm_b),
        ))

    def _split(self, ctx: str, ty_a: str, ty_b: str, tm: str) -> tuple[str, str]:
        """(fst, snd): the children of a node (t₁, B, t₂) whose t₁ has type A."""
        tree = self.tms.cells.get(tm)
        try:
            fits = (tree is not None and not tree.is_leaf
                    and tree.rtype == self.tys.cells.get(ty_b)
                    and self.typeof(ctx, self.tms.key(tree.left)) == ty_a)
        except ValueError:  # a term of another context
            fits = False
        if not fits:
            raise ValueError(f"{tm!r} is not a pair of Σ({ty_a}, {ty_b}) over {ctx}")
        return self.tms.key(tree.left), self.tms.key(tree.right)


def extend_by_sigma(inner: NaturalModel) -> SigmaExtModel:
    """Freely adjoin dependent sum types via type trees."""
    return SigmaExtModel(inner)


@memo
def sigma_of_tree(m: NaturalModel, ctx: str, tree: TypeTree) -> tuple[str, str, str]:
    """Collapse a type tree to a single type via the Σ structure of ``m``.

    Returns (S, θ, θ⁻¹): the Σ-collapsed type S over ctx and the canonical
    comparison isomorphism θ : ctx•S -> ctx•T-chain with its inverse.  θ⁻¹
    is built from its parts, and a θ for which the two composites are not
    identities raises ``ValueError``, as does a node when the Σ structure of
    ``m`` has no split.
    """
    s: SigmaStructure = m.sigma_structure  # type: ignore[attr-defined]
    base = m.base
    if tree.is_leaf:
        e = m.ext(ctx, tree.leaf)
        i = base.identity(e.extended)
        return tree.leaf, i, i
    if s.split is None:
        raise ValueError(f"the target's Σ structure has no split to collapse {tree.key} over {ctx}")
    s1, th1, th1_inv = sigma_of_tree(m, ctx, tree.left)
    mid = tree_ext(m, ctx, tree.left)[0]
    s2, th2, th2_inv = sigma_of_tree(m, mid, tree.right)
    # transport the collapsed right type along θ₁ to live over ctx•S₁
    b_ty = m.subst_ty(th1, s2)
    sig = s.sigma(ctx, s1, b_ty)
    e_sig = m.ext(ctx, sig)
    # θΣ : ctx•Σ(S₁,B) -> ctx•S₁•B via the projections of the generic pair
    a1_wk = m.subst_ty(e_sig.proj, s1)
    b_wk = m.subst_ty(canonical_pullback(m, e_sig.proj, s1), b_ty)
    fst_tm, snd_tm = s.split(e_sig.extended, a1_wk, b_wk, e_sig.var)
    into_s1 = induced_sub(m, e_sig.proj, fst_tm, s1)
    theta_sig = induced_sub(m, into_s1, snd_tm, b_ty)
    theta = base.compose(th2, base.compose(canonical_pullback(m, th1, s2), theta_sig))
    # θΣ⁻¹ : ctx•S₁•B -> ctx•Σ(S₁,B) classifies the pair of the two variables
    e1 = m.ext(ctx, s1)
    e_b = m.ext(e1.extended, b_ty)
    p = base.compose(e1.proj, e_b.proj)
    pair = s.pair(
        e_b.extended, m.subst_ty(p, s1), m.subst_ty(canonical_pullback(m, p, s1), b_ty),
        m.subst_tm(e_b.proj, e1.var), e_b.var,
    )
    theta_sig_inv = induced_sub(m, p, pair, sig)
    theta_inv = base.compose(
        theta_sig_inv, base.compose(canonical_pullback(m, th1_inv, b_ty), th2_inv)
    )
    if base.compose(theta_inv, theta) != base.identity(e_sig.extended) or \
            base.compose(theta, theta_inv) != base.identity(base.cod(theta)):
        raise ValueError(f"tree collapse comparison at {tree.key} is not invertible")
    return sig, theta, theta_inv


@memo
def pair_of_tree(m: NaturalModel, ctx: str, tm: TermTree) -> str:
    """Collapse a term tree to a single term via the Σ structure of ``m``."""
    s: SigmaStructure = m.sigma_structure  # type: ignore[attr-defined]
    if tm.is_leaf:
        return tm.leaf
    t1_ty = tmtree_type(m, ctx, tm.left)
    s1, th1, _ = sigma_of_tree(m, ctx, t1_ty)
    mid = tree_ext(m, ctx, t1_ty)[0]
    s2 = sigma_of_tree(m, mid, tm.rtype)[0]
    b_ty = m.subst_ty(th1, s2)
    a_tm = pair_of_tree(m, ctx, tm.left)
    b_tm = pair_of_tree(m, ctx, tm.right)
    return s.pair(ctx, s1, b_ty, a_tm, b_tm)


def tree_summation(ext: SigmaExtModel) -> NMorphism:
    """S : collapse tree contexts using the Σ structure of the inner model.

    Requires the inner model to admit dependent sum types.
    """
    return sigma_universal(ext, identity_morphism(ext.inner))


def sigma_universal(ext: SigmaExtModel, f: NMorphism, bound: int = 4) -> NMorphism:
    """F♯ out of the tree extension into a model admitting dependent sums.

    Built directly: trees are collapsed with the target's Σ structure after
    applying F to their leaves, and the comparison isomorphisms are tracked
    to transport types over formally extended contexts.  ``bound`` is
    ignored: the collapse reads the target's split and searches nothing.
    """
    target = f.dst
    src_m = ext.inner

    # F applied leafwise, once per (context, tree): shared subtrees are
    # mapped once per morphism
    @memo
    def map_ty_tree(d, m_ctx: str, tree: TypeTree) -> TypeTree:
        if tree.is_leaf:
            return TypeTree(leaf=f.on_ty(m_ctx, tree.leaf))
        left = map_ty_tree(d, m_ctx, tree.left)
        mid = tree_ext(src_m, m_ctx, tree.left)[0]
        return TypeTree(left=left, right=map_ty_tree(d, mid, tree.right))

    @memo
    def map_tm_tree(d, m_ctx: str, tree: TermTree) -> TermTree:
        if tree.is_leaf:
            return TermTree(leaf=f.on_tm(m_ctx, tree.leaf))
        t1_ty = tmtree_type(src_m, m_ctx, tree.left)
        mid = tree_ext(src_m, m_ctx, t1_ty)[0]
        return TermTree(
            left=map_tm_tree(d, m_ctx, tree.left),
            rtype=map_ty_tree(d, mid, tree.rtype),
            right=map_tm_tree(d, m_ctx, tree.right),
        )

    def theta_root(d, ctx: str) -> str:
        return target.base.identity(d.on_obj(ctx))

    def theta_step(d, pctx: str, pty: str, th: str) -> str:
        # built leafwise, with the collapse of the parent's tree tracked
        tree = map_ty_tree(d, ext.base.under(pctx), _read(ext.tys, pty))
        th_here = sigma_of_tree(target, d.on_obj(pctx), tree_subst(target, th, tree))[1]
        return target.base.compose(canonical_pullback_tree(target, th, tree), th_here)

    def ty_image(theta, d, ctx: str, ty: str) -> str:
        tree = map_ty_tree(d, ext.base.under(ctx), _read(ext.tys, ty))
        tree_img = tree_subst(target, theta(d, ctx), tree)
        return sigma_of_tree(target, d.on_obj(ctx), tree_img)[0]

    def tm_image(theta, d, ctx: str, tm: str) -> str:
        tree = map_tm_tree(d, ext.base.under(ctx), _read(ext.tms, tm))
        tree_img = tmtree_subst(target, theta(d, ctx), tree)
        return pair_of_tree(target, d.on_obj(ctx), tree_img)

    return _sharp(ext, f, theta_root, theta_step, ty_image, tm_image)


def sigma_universal_pins(
    ext: SigmaExtModel, f: NMorphism, bound: int, sharp: NMorphism
) -> MorphismPins:
    """Pins for G ∘ I = F plus Σ-preservation, which forces all tree images.

    Since dependent-sum preservation determines the image of every node from
    the images of its subtrees, every type and term image is pinned to the
    value of the constructed F♯; uniqueness search then ranges only over the
    morphism images.
    """
    pins = _inclusion_pins(ext, f, bound)
    for ctx in ext.base.objects(bound):
        for ty in ext.types(ctx, bound):
            pins.on_ty[(ctx, ty)] = sharp.on_ty(ctx, ty)
        for tm in ext.terms(ctx, bound):
            pins.on_tm[(ctx, tm)] = sharp.on_tm(ctx, tm)
    return pins


# ---------------------------------------------------------------------------
# Polynomial composite of two models over a shared base
# ---------------------------------------------------------------------------

def poly_composite_models(inner_p: NaturalModel, outer_q: NaturalModel) -> CompositeModel:
    """The polynomial composite model (ℂ, q·p); both models must share a base."""
    return CompositeModel(inner_p, outer_q)
