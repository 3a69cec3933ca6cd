"""Explicit finite categories, functors, and limits computed by enumeration.

Objects and morphisms are identified by canonical string keys; equality of
keys is equality of cells.  Categories with infinitely many objects are
represented by bounded generators (:class:`BoundedCategory`) that enumerate
objects up to a size bound and produce full finite hom sets on demand;
:func:`truncate` materializes such a generator into a
:class:`FinCatPresentation`.  Every generated cell is named through one
mechanism, :class:`Registry`, which spells a key only for a cell it has never
seen and reads each key back as its cell, never parsing one; a
:class:`RegistryCategory` holds one for its objects and one for its
morphisms, and the term model's types and variables, the Σ model's trees
and the cells of the presheaf constructions have theirs.  A hom set is
named in one pass, its registry's ``key`` mapped over its cells, and a
truncation records the endpoints of its morphisms a hom set at a time;
:class:`FinSliceOpposite` spells the part of a key that names a function
once per category, however many hom sets hold it.  :func:`tuple_key`
is the one spelling of a tuple of keys.  Composites are read a row at a
time where a caller needs many after one g:
:meth:`BoundedCategory.compose_row` gives g∘f over a list of fs, which a
table, a truncation, :class:`FinSliceOpposite` and the free extensions'
categories serve in one pass; the category laws, the legs of
:func:`is_pullback_square` and the blocks of the functor laws read rows.
The cone vertices of :func:`is_pullback_square` and :func:`product` are
one object per isomorphism class, :meth:`BoundedCategory.skeleton`: in a
category that satisfies the laws, an isomorphism i : q′ → q makes
precomposition a bijection hom(q, −) → hom(q′, −), natural in −, so the
pullback condition holds at q exactly when it holds at q′.
:func:`category_violations` checks the category laws, deciding
associativity on the middles of a generating set and listing every
composable triple only when that fails.  For a lawful category it returns
that generating set, along which the presheaf layer then checks the laws
closed under composition: functoriality of a presheaf and naturality of a
map between functorial presheaves.  The functor laws are checked in one
place, :func:`functor_violations`, over the scope its caller passes: a whole
presentation for :meth:`FinFunctor.check`, and for a morphism of natural
models a truncation or one step of the rival search.
"""

from __future__ import annotations

import collections
import functools
import itertools
import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Generator, Iterable, Iterator, Optional

from .report import Findings


_MISS = object()


def memo(fn: Callable) -> Callable:
    """Memoize ``fn(owner, *args)`` in a dict kept on ``owner`` itself.

    The table lives and dies with its owner (a model or a category), so
    fresh instances share nothing and a dropped model drops its tables.
    The remaining arguments must be hashable.  A lookup reads the table
    with a sentinel default, so a miss raises nothing and a memoized
    ``None`` is a hit.  A call that raises stores nothing, so it raises
    again when repeated.
    """
    slot = f"_memo_{fn.__qualname__}"

    @functools.wraps(fn)
    def cached(owner, *args):
        table = owner.__dict__.get(slot)
        if table is None:
            table = owner.__dict__[slot] = {}
        out = table.get(args, _MISS)
        if out is _MISS:
            out = table[args] = fn(owner, *args)
        return out

    return cached


class BoundedCategory(ABC):
    """A category presented by enumeration.

    Hom sets between any two objects are finite and fully enumerable even
    when the object collection is not; ``objects(bound)`` yields the finite
    fragment of objects whose size is at most ``bound``.
    """

    @property
    @abstractmethod
    def terminal(self) -> Optional[str]:
        """Key of the distinguished terminal object, if any."""

    @abstractmethod
    def objects(self, bound: int) -> list[str]:
        """All object keys of size <= bound, in deterministic order."""

    @abstractmethod
    def hom(self, a: str, b: str) -> list[str]:
        """All morphism keys a -> b, in deterministic order."""

    @abstractmethod
    def dom(self, m: str) -> str: ...

    @abstractmethod
    def cod(self, m: str) -> str: ...

    @abstractmethod
    def identity(self, a: str) -> str: ...

    @abstractmethod
    def compose(self, g: str, f: str) -> str:
        """Composite g after f; requires cod(f) == dom(g)."""

    def compose_row(self, g: str, fs: list[str]) -> list[str]:
        """[g∘f for f in fs], one row of composites after g.  A non-composable
        f raises the error ``compose`` raises on it."""
        return [self.compose(g, f) for f in fs]

    def obj_size(self, a: str) -> int:
        """The size of an object, as used by ``objects(bound)``."""
        return 0

    def to_terminal(self, a: str) -> str:
        """The unique morphism a -> terminal."""
        t = self.terminal
        if t is None:
            raise ValueError("category has no distinguished terminal object")
        ms = self.hom(a, t)
        if len(ms) != 1:
            raise ValueError(f"expected exactly one morphism {a} -> {t}, found {len(ms)}")
        return ms[0]

    def is_iso(self, m: str) -> Optional[str]:
        """Key of the two-sided inverse of m, or None."""
        a, b = self.dom(m), self.cod(m)
        for w in self.hom(b, a):
            if self.compose(w, m) == self.identity(a) and self.compose(m, w) == self.identity(b):
                return w
        return None

    @memo
    def skeleton(self, bound: int) -> tuple[str, ...]:
        """The first object of each isomorphism class of ``objects(bound)``,
        in ``objects(bound)`` order.  An object joins the class of an earlier
        representative r when some morphism r -> a passes :meth:`is_iso`.
        Only an r with as many endomorphisms as a is searched: conjugating
        by an isomorphism r -> a is a bijection hom(r, r) -> hom(a, a).

        The classes are those of a category that satisfies the laws; the
        cone vertices of :func:`is_pullback_square` and :func:`product`
        range over them.
        """
        reps: list[str] = []
        for a in self.objects(bound):
            ends = len(self.hom(a, a))
            if not any(self.is_iso(m) is not None
                       for r in reps if len(self.hom(r, r)) == ends
                       for m in self.hom(r, a)):
                reps.append(a)
        return tuple(reps)


@dataclass
class FinCatPresentation(BoundedCategory):
    """A finite category given by explicit tables.

    ``homs`` maps (src, dst) pairs to morphism key lists; ``compose_table``
    maps (g, f) to the composite g∘f for every composable pair.  A lazy
    ``row_rule`` may be supplied instead of a full table: it computes a row
    of composites at once, as :meth:`compose_row` does, on demand, and a
    missed single composite is made as a row of one.  Both are cached.
    """

    object_keys: list[str]
    homs: dict[tuple[str, str], list[str]]
    compose_table: dict[tuple[str, str], str]
    identities: dict[str, str]
    terminal_key: Optional[str] = None
    row_rule: Optional[Callable[[str, list[str]], list[str]]] = None
    _dom: dict[str, str] = field(default_factory=dict, repr=False)
    _cod: dict[str, str] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        for (src, dst), ms in self.homs.items():
            self._dom.update(dict.fromkeys(ms, src))
            self._cod.update(dict.fromkeys(ms, dst))

    @property
    def terminal(self) -> Optional[str]:
        return self.terminal_key

    def objects(self, bound: int) -> list[str]:
        return list(self.object_keys)

    def hom(self, a: str, b: str) -> list[str]:
        return list(self.homs.get((a, b), []))

    def dom(self, m: str) -> str:
        return self._dom[m]

    def cod(self, m: str) -> str:
        return self._cod[m]

    def identity(self, a: str) -> str:
        return self.identities[a]

    def compose(self, g: str, f: str) -> str:
        out = self.compose_table.get((g, f))
        if out is not None:
            return out
        if self.row_rule is None:
            raise KeyError(f"no composite for ({g}, {f})")
        return self.compose_row(g, [f])[0]

    def compose_row(self, g: str, fs: list[str]) -> list[str]:
        """The row after g read from the table; the entries it lacks are
        made by ``row_rule`` and cached, else raise ``KeyError``."""
        table = self.compose_table
        row = list(map(table.get, zip(itertools.repeat(g), fs)))
        lacking = row.count(None)
        if not lacking:
            return row
        missing = fs if lacking == len(row) else [f for f, gf in zip(fs, row) if gf is None]
        if self.row_rule is None:
            raise KeyError(f"no composite for ({g}, {missing[0]})")
        made = self.row_rule(g, missing)
        table.update(zip(zip(itertools.repeat(g), missing), made))
        if missing is fs:
            return made
        it = iter(made)
        return [next(it) if gf is None else gf for gf in row]

    def all_morphisms(self) -> list[str]:
        out = []
        for ms in self.homs.values():
            out.extend(ms)
        return out


def _generating_set(ends: dict[str, tuple[str, str]], post: dict[str, dict[str, str]]) -> list[str]:
    """A set of morphisms whose composites give every morphism of ``ends``.

    ``ends`` maps each morphism to its (dom, cod), and ``post[g]`` maps each
    f into dom g to g∘f, which must be present and a key of ``ends``.  One
    pass over the morphisms, from nothing: a morphism that is not yet
    reached becomes a generator, and it enters with every composite it makes
    with the morphisms reached before it, and theirs in turn, so the reached
    set is closed under composition after each generator.  Each composable
    pair of reached morphisms is read once, when the later of the two enters.
    It visits first the morphisms that are g∘f for the fewest pairs of
    ``post`` (ties in ``ends`` order), which the others then mostly arrive
    as composites of; every order reaches every morphism.
    """
    gens: list[str] = []
    reached: set[str] = set()
    out_of: dict[str, list[str]] = {}
    into: dict[str, list[str]] = {}
    made_by = collections.Counter(itertools.chain.from_iterable(map(dict.values, post.values())))
    for m in sorted(ends, key=made_by.__getitem__):
        if m in reached:
            continue
        gens.append(m)
        reached.add(m)
        entering = [m]
        for n in entering:
            src, dst = ends[n]
            out_of.setdefault(src, []).append(n)
            made = [post[x][n] for x in out_of.get(dst, ())]
            made.extend(map(post[n].__getitem__, into.get(src, ())))
            into.setdefault(dst, []).append(n)
            for gf in made:
                if gf not in reached:
                    reached.add(gf)
                    entering.append(gf)
    return gens


def category_violations(
    c: BoundedCategory, objects: list[str]
) -> Generator[tuple[str, str], None, Optional[list[str]]]:
    """The category laws on the full subcategory of ``objects``, by enumeration.

    Yields (law, witness) pairs.  The laws are ``dom-id``/``cod-id`` (id_a
    lies in hom(a, a)), ``dom-comp``/``cod-comp`` (g∘f exists and lies in
    hom(dom f, cod g)), ``unit-right``, ``unit-left``, ``associativity``,
    ``hom-sets`` (hom sets are disjoint) and ``terminal`` (exactly one map
    into the distinguished terminal object).  Each composable pair is
    composed once, a row ``post[g] = {f: g∘f}`` at a time by
    :meth:`BoundedCategory.compose_row`, and the endpoints of a row's
    composites are compared as a whole.  Only when a row differs or lacks a
    composite are the pairs walked f by f to name the ill-typed ones; a row
    with a missing composite, or every row when the hom sets overlap, is
    then composed pair by pair.  A composite that is missing or lies
    outside hom(dom f, cod g) is absent from its row and reads as None.

    Associativity is compared one middle g at a time: for each h after g,
    the row of h∘(g∘f) over the fs into dom g is compared with the row of
    (h∘g)∘f, and only rows that differ are walked to name their triples.
    It is decided on the middles of a generating set, and every middle is
    walked only when that fails.  Let A be the set of morphisms a with
    (x∘a)∘y = x∘(a∘y) for every composable x and y.  For a and b in A,

        (x∘(a∘b))∘y = ((x∘a)∘b)∘y = (x∘a)∘(b∘y) = x∘(a∘(b∘y)) = x∘((a∘b)∘y),

    so A is closed under composition.  That needs only that every composable
    pair has a composite in the right hom set, which holds when no
    ``hom-sets``, ``dom-comp`` or ``cod-comp`` violation was yielded.  Then
    a set S that generates every morphism proves associativity by S ⊆ A.
    S is :func:`_generating_set`, which assumes no unit law: an identity is
    a generator unless it is a composite.  Its visiting order, the
    morphisms made by the fewest pairs first, only keeps S small: every
    order gives a set that generates.  When the composites are not all well
    typed, or a middle in S has a differing row, every middle is walked as
    above, so the witnesses are those of the per-triple definition.

    When nothing was yielded, the generator returns S, the generating set
    of a lawful category, and otherwise None.  Every law closed under
    composition then needs checking on S only: :meth:`Presheaf.violations
    <natmod.presheaf.Presheaf.violations>` reads it for functoriality and
    :meth:`NatTrans.violations <natmod.presheaf.NatTrans.violations>` for
    naturality, as ``check_eat`` passes it.
    """
    gens: list[str] = []
    lawful = True
    for witness in _category_laws(c, objects, gens):
        lawful = False
        yield witness
    return gens if lawful else None


def _category_laws(
    c: BoundedCategory, objects: list[str], gens: list[str]
) -> Iterator[tuple[str, str]]:
    """The body of :func:`category_violations`; the generating set it
    decides associativity on is put into ``gens``."""
    well_typed = True
    ends: dict[str, tuple[str, str]] = {}
    by_src: dict[str, list[str]] = {a: [] for a in objects}
    by_dst: dict[str, list[str]] = {a: [] for a in objects}
    for a in objects:
        for b in objects:
            for m in c.hom(a, b):
                if m in ends and ends[m] != (a, b):
                    well_typed = False
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

    # rows need by_dst to list exactly the fs into each object, which holds
    # when the hom sets are disjoint
    post: dict[str, dict[str, str]] = {g: {} for g in ends}
    rows_typed = well_typed
    if well_typed:
        dom_of = {m: a for m, (a, _) in ends.items()}
        cod_of = {m: b for m, (_, b) in ends.items()}
        srcs_into = {b: list(map(dom_of.get, fs)) for b, fs in by_dst.items()}
        for g, (gs, gt) in ends.items():
            try:
                gfs = c.compose_row(g, by_dst[gs])
            except KeyError:
                rows_typed = False
                continue
            post[g] = dict(zip(by_dst[gs], gfs))
            if (list(map(dom_of.get, gfs)) != srcs_into[gs]
                    or not set(map(cod_of.get, gfs)) <= {gt}):
                rows_typed = False
    if not rows_typed:
        for f, (fs, ft) in ends.items():
            for g in by_src[ft]:
                gt = ends[g][1]
                row = post[g]
                gf = row.get(f)
                if gf is None:
                    try:
                        gf = c.compose(g, f)
                    except KeyError:
                        well_typed = False
                        yield "dom-comp", f"no composite recorded for ({g}, {f})"
                        continue
                where = ends.get(gf)
                if where != (fs, gt):
                    well_typed = False
                    row.pop(f, None)
                    law = "cod-comp" if where and where[0] == fs else "dom-comp"
                    yield law, f"composite {g} ∘ {f} = {gf!r} missing from hom({fs},{gt})"
                    continue
                row[f] = gf

    empty: dict[str, str] = {}
    for m, (src, dst) in ends.items():
        if src in ids and post[m].get(ids[src]) != m:
            yield "unit-right", f"unit law: {m} ∘ id_{src} != {m}"
        if dst in ids and post.get(ids[dst], empty).get(m) != m:
            yield "unit-left", f"unit law: id_{dst} ∘ {m} != {m}"

    def differing_rows(g: str) -> Iterator[tuple[str, list[str]]]:
        """Each h after g whose row differs, with the fs where it does."""
        gs, gt = ends[g]
        row = post[g]
        fs = [f for f in by_dst[gs] if f in row]
        gfs = [row[f] for f in fs]
        for h in by_src[gt]:
            h_row = post[h]
            hg_row = post.get(h_row.get(g), empty)
            if list(map(h_row.get, gfs)) != list(map(hg_row.get, fs)):
                yield h, [f for f, gf in zip(fs, gfs) if h_row.get(gf) != hg_row.get(f)]

    # next(...) is a differing row or None: any() stops at the first
    if well_typed:
        gens.extend(_generating_set(ends, post))
    if not well_typed or any(next(differing_rows(g), None) for g in gens):
        for g in ends:
            for h, fs in differing_rows(g):
                for f in fs:
                    yield "associativity", f"fails on ({h}, {g}, {f})"

    t = c.terminal
    if t is not None:
        for a in objects:
            n = len(c.hom(a, t))
            if n != 1:
                yield "terminal", f"|hom({a},{t})| = {n}, expected 1"


def check_category(c: FinCatPresentation) -> Findings:
    """The laws of :func:`category_violations` on the whole presentation;
    its objects are the instances."""
    report = Findings(instances=len(c.object_keys))
    report.file(category_violations(c, c.object_keys))
    return report


def functor_violations(
    src: BoundedCategory, dst: BoundedCategory,
    on_obj: Callable[[str], Optional[str]], on_mor: Callable[[str], Optional[str]],
    objects: Iterable[str], morphisms: Iterable[tuple[str, str, str]],
    blocks: Iterable[tuple[list[str], Iterable[str]]],
) -> Generator[tuple[str, str], None, set[str]]:
    """The functor laws of (on_obj, on_mor) : src -> dst over a scope.

    Yields ("functor", witness) pairs, law by law: identity on ``objects``;
    endpoints (F m in hom(F a, F b)) on the (m, a, b) of ``morphisms``; and
    composition on each block (fs, gs) of ``blocks``, every f in fs ending
    where every g in gs starts.  An image of None is a violation.  A morphism
    whose image is None or has the wrong endpoints is reported once, skipped
    by composition, and returned among the misplaced.  A block is compared
    one g at a time, F mapped over ``src.compose_row(g, fs)`` against
    ``dst.compose_row(F g, F fs)``.  Only a block with a row that differs
    or raises is walked f by f, F(g∘f) over gs against F g ∘ F f, lazily,
    so the witnesses, their order and what is raised are the pairwise
    definition's, and a caller that stops at the first witness composes no
    further.
    """
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
            fs = [f for f in fs if f not in misplaced]
            gs = [g for g in gs if g not in misplaced]
        try:
            f_fs = list(map(on_mor, fs))
            if all(list(map(on_mor, src.compose_row(g, fs))) == dst.compose_row(on_mor(g), f_fs)
                   for g in gs):
                continue
        except Exception:  # noqa: BLE001 -- the walk below raises it where the pairs do
            pass
        f_gs = list(map(on_mor, gs))
        for f in fs:
            f_f = on_mor(f)
            lhs = map(on_mor, map(src.compose, gs, itertools.repeat(f)))
            rhs = map(dst.compose, f_gs, itertools.repeat(f_f))
            for g in itertools.compress(gs, map(operator.ne, lhs, rhs)):
                yield "functor", f"composition not preserved on ({g}, {f})"
    return misplaced


def composable_pairs(
    morphisms: list[tuple[str, str, str]]
) -> Iterator[tuple[list[str], list[str]]]:
    """The composable pairs of ``morphisms`` as blocks (fs, gs) for
    :func:`functor_violations`: each run of consecutive fs into one b, and
    the gs out of b in order, so the pairs are listed f by f."""
    out_of: dict[str, list[str]] = {}
    for m, a, _b in morphisms:
        out_of.setdefault(a, []).append(m)
    for b, run in itertools.groupby(morphisms, operator.itemgetter(2)):
        yield [f for f, _a, _b in run], out_of.get(b, [])


@dataclass
class FinFunctor:
    """A functor between finite category presentations, given by tables."""

    source: FinCatPresentation
    target: FinCatPresentation
    obj_map: dict[str, str]
    mor_map: dict[str, str]

    def check(self) -> list[str]:
        """The functor laws over the whole source, by enumeration; empty = ok."""
        mors = [(m, a, b) for (a, b), ms in self.source.homs.items() for m in ms]
        return [msg for _check, msg in functor_violations(
            self.source, self.target, self.obj_map.get, self.mor_map.get,
            self.source.object_keys, mors, composable_pairs(mors),
        )]


def truncate(cat: BoundedCategory, bound: int) -> FinCatPresentation:
    """Materialize the fragment of `cat` on objects of size <= bound."""
    objs = cat.objects(bound)
    homs = {(a, b): ms for a in objs for b in objs if (ms := cat.hom(a, b))}
    identities = {a: cat.identity(a) for a in objs}
    term = cat.terminal if cat.terminal in identities else None
    return FinCatPresentation(
        object_keys=objs,
        homs=homs,
        compose_table={},
        identities=identities,
        terminal_key=term,
        row_rule=cat.compose_row,
    )


def is_set_pullback(apex: Iterable, to_left: Callable, to_top: Callable, xs: Iterable,
                    left_leg: Callable, ys: Iterable, top_leg: Callable) -> bool:
    """Is z ↦ (to_left z, to_top z) a bijection from ``apex`` onto the pairs
    (x, y) of xs × ys with left_leg x = top_leg y?

    The pullback condition for a square of finite sets in the shape of
    :func:`is_pullback_square`; a square that passes also commutes.  The ys
    are bucketed by their image, so each map is applied once per element.
    """
    over: dict = {}
    for y in ys:
        over.setdefault(top_leg(y), []).append(y)
    pairs = {(x, y) for x in xs for y in over.get(left_leg(x), ())}
    seen = set()
    for z in apex:
        pair = (to_left(z), to_top(z))
        if pair in seen or pair not in pairs:
            return False
        seen.add(pair)
    return len(seen) == len(pairs)


def is_pullback_square(
    c: BoundedCategory,
    bound: int,
    apex: str,
    to_left: str,
    to_top: str,
    left_leg: str,
    top_leg: str,
) -> bool:
    """Universal-property check for a commuting square, by enumeration.

    Shape::

        apex --to_top--> Y
          |              |
       to_left        top_leg
          v              v
          X --left_leg-> Z

    Requires ``left_leg ∘ to_left == top_leg ∘ to_top``.  Competing cones are
    drawn from all objects of size <= bound; each must have exactly one
    mediating map.  Per cone vertex q, this is :func:`is_set_pullback` of the
    hom sets out of q, with the legs acting by composition: each leg reads
    its row :func:`_post_row` at q, which the squares sharing that leg share.

    The vertices are chased one per isomorphism class, over
    :meth:`BoundedCategory.skeleton`.  If i : q′ → q is an isomorphism,
    precomposing with i is a bijection hom(q, −) → hom(q′, −), natural in −:
    it commutes with every leg acting by composition.  So the set-pullback
    condition holds at q exactly when it holds at q′, and every cone is
    still chased, from fewer vertices.  The precondition is that ``c``
    satisfies the category laws: the naturality is associativity, and the
    inverse of the bijection is precomposition with i⁻¹.
    """
    x, y = c.cod(to_left), c.cod(to_top)
    if c.compose(left_leg, to_left) != c.compose(top_leg, to_top):
        return False
    for q in c.skeleton(bound):
        q1s = c.hom(q, x)
        if q1s and not is_set_pullback(
            c.hom(q, apex), _post_row(c, q, to_left).__getitem__,
            _post_row(c, q, to_top).__getitem__, q1s, _post_row(c, q, left_leg).__getitem__,
            c.hom(q, y), _post_row(c, q, top_leg).__getitem__,
        ):
            return False
    return True


class _PostRow(dict):
    """The composites g∘h of one g keyed by h; an h the row does not hold is
    composed by the category, which refuses it as a direct composite would."""

    __slots__ = ("compose",)

    def __missing__(self, h: str) -> str:
        return self.compose(h)


@memo
def _post_row(c: BoundedCategory, q: str, g: str) -> _PostRow:
    """{h: g∘h for h in hom(q, dom g)}: how the leg g acts on the cone
    vertex q, composed as one :meth:`~BoundedCategory.compose_row` and
    shared by every square with leg g."""
    hs = c.hom(q, c.dom(g))
    row = _PostRow(zip(hs, c.compose_row(g, hs)))
    row.compose = functools.partial(c.compose, g)
    return row


def pullback(
    c: FinCatPresentation, f: str, g: str
) -> Optional[tuple[str, str, str]]:
    """A pullback of the cospan (f, g), found by exhaustive cone search.

    Returns (apex object, projection to dom(f), projection to dom(g)) for the
    first cone (in enumeration order) satisfying the universal property
    against all competing cones in the category, or None if there is none.
    """
    if c.cod(f) != c.cod(g):
        raise ValueError("pullback requires a cospan: cod(f) must equal cod(g)")
    x, y = c.dom(f), c.dom(g)
    n = len(c.object_keys)
    for apex in c.object_keys:
        for p1 in c.hom(apex, x):
            fp1 = c.compose(f, p1)
            for p2 in c.hom(apex, y):
                if fp1 != c.compose(g, p2):
                    continue
                if is_pullback_square(c, n, apex, p1, p2, f, g):
                    return (apex, p1, p2)
    return None


def product(c: FinCatPresentation, x: str, y: str) -> Optional[tuple[str, str, str]]:
    """A product of x and y, found by exhaustive cone search.

    Returns (object, projection to x, projection to y) for the first span
    satisfying the universal property, or None.  A span is a product when at
    every cone vertex q, h ↦ (p1∘h, p2∘h) is a bijection from hom(q, apex)
    onto hom(q, x) × hom(q, y): :func:`is_set_pullback` with both legs over
    one point.  The vertices q are one per isomorphism class, as in
    :func:`is_pullback_square`, whose argument and precondition hold here.
    """
    def point(_):
        return None

    vertices = c.skeleton(len(c.object_keys))
    for apex in c.object_keys:
        for p1 in c.hom(apex, x):
            for p2 in c.hom(apex, y):
                if all(is_set_pullback(
                    c.hom(q, apex), functools.partial(c.compose, p1),
                    functools.partial(c.compose, p2), c.hom(q, x), point, c.hom(q, y), point,
                ) for q in vertices):
                    return (apex, p1, p2)
    return None


def join_escaped(sep: str, parts: Iterable[str]) -> str:
    """The parts joined by the one-character ``sep``, with each ``\\`` and
    ``sep`` inside a part escaped by a ``\\``, so distinct lists of parts
    join to distinct strings.  A part with neither is written as it is.  A
    list of one empty part, which would join to ``""`` as the empty list
    does, is spelled ``\\``, which no escaped part is."""
    escaped = [x.replace("\\", "\\\\").replace(sep, "\\" + sep) for x in parts]
    return sep.join(escaped) if escaped != [""] else "\\"


def tuple_key(parts: tuple[str, ...]) -> str:
    """The key ``(x|y|…)`` of a tuple of keys, joined by
    :func:`join_escaped`, so distinct tuples have distinct keys."""
    return "(" + join_escaped("|", parts) + ")"


class Registry:
    """The two-way naming of the cells of one sort: ``keys`` maps a cell to
    its key, spelled by ``spell`` the first time, and ``cells`` a key to its
    cell.  A key is only ever handed out by its registry and never parsed:
    a key it did not spell raises ``KeyError``."""

    __slots__ = ("spell", "keys", "cells")

    def __init__(self, spell: Callable[..., str]) -> None:
        self.spell = spell
        self.keys: dict = {}
        self.cells: dict = {}

    def key(self, cell) -> str:
        """The key of ``cell``, spelled the first time it is asked for.  A
        spelling that names a second cell raises ``ValueError``."""
        key = self.keys.get(cell)
        if key is None:
            key = self.spell(cell)
            other = self.cells.setdefault(key, cell)
            if other is not cell and other != cell:
                raise ValueError(f"the key {key!r} would name two cells: {other!r} and {cell!r}")
            self.keys[cell] = key
        return key

    def cell(self, key: str):
        """The cell ``key`` names."""
        return self.cells[key]


class RegistryCategory(BoundedCategory):
    """A generated category whose objects and morphisms are named by its own
    two registries, ``objs`` and ``mors``.

    An object cell is the subclass's choice; a morphism cell is (dom, cod,
    payload), where the payload is what the subclass composes.  Endpoints
    are read from the registry, never parsed out of keys, and a composite is
    one composite payload and one lookup.
    """

    def __init__(self) -> None:
        self.objs = Registry(self.spell_obj)
        self.mors = Registry(self.spell_mor)

    @abstractmethod
    def spell_obj(self, cell) -> str:
        """The key string of an object cell."""

    @abstractmethod
    def spell_mor(self, cell: tuple) -> str:
        """The key string of the morphism cell (src, dst, payload)."""

    def mor_payload(self, m: str):
        return self.mors.cells[m][2]

    def dom(self, m: str) -> str:
        return self.mors.cells[m][0]

    def cod(self, m: str) -> str:
        return self.mors.cells[m][1]

    def hom(self, a: str, b: str) -> list[str]:
        return list(self._homs(a, b))

    @memo
    def _homs(self, a: str, b: str) -> tuple[str, ...]:
        cells = zip(itertools.repeat(a), itertools.repeat(b), self._hom_payloads(a, b))
        return tuple(map(self.mors.key, cells))

    @abstractmethod
    def _hom_payloads(self, a: str, b: str) -> Iterable:
        """The payloads of the morphisms a -> b, in deterministic order."""


class FinSliceOpposite(RegistryCategory):
    """The category (Fin/I)^op for a finite index set I, as a bounded generator.

    Objects are finite sets over I, skeletally presented: the object cell is
    the label tuple (i0, i1, ...), spelled ``fs[i0,i1,...]``, and stands for
    the set {0,..,n-1} with labelling function k |-> ik.  A morphism
    (A,u) -> (B,v) is a label-preserving function B -> A (direction reversed
    by the op).  Object size is the cardinality of the underlying set.

    A morphism key ``src=>dst:(k0,k1,...)`` names the cell (dom, cod,
    function).  Objects, hom sets, identities and composites read and extend
    the registries, so a composite reads its two operands' cells, builds the
    composite function and looks its key up, spelling it only the first
    time.
    """

    def __init__(self, index: Iterable[int]):
        super().__init__()
        self.index = tuple(sorted(set(index)))

    def spell_obj(self, labels: tuple[int, ...]) -> str:
        return "fs[" + ",".join(map(str, labels)) + "]"

    def spell_mor(self, cell: tuple[str, str, tuple[int, ...]]) -> str:
        src, dst, fn = cell
        return f"{src}=>{dst}:({self._digits(fn)})"

    @memo
    def _digits(self, fn: tuple[int, ...]) -> str:
        """``k0,k1,…``: a function's part of its keys, spelled once per
        category, as many hom sets hold the same function."""
        return ",".join(map(str, fn))

    # -- BoundedCategory interface --------------------------------------
    @property
    def terminal(self) -> str:
        return self.objs.key(())

    def obj_size(self, a: str) -> int:
        return len(self.objs.cell(a))

    def objects(self, bound: int) -> list[str]:
        key = self.objs.key
        return [key(labels) for n in range(bound + 1)
                for labels in itertools.product(self.index, repeat=n)]

    def _hom_payloads(self, a: str, b: str) -> Iterable[tuple[int, ...]]:
        # functions underlying(b) -> underlying(a) over I
        candidates_per_slot = list(map(self._slots(a).get, self.objs.cell(b)))
        if None in candidates_per_slot:
            return ()
        return itertools.product(*candidates_per_slot)

    @memo
    def _slots(self, a: str) -> dict[int, tuple[int, ...]]:
        """{i: the elements of a labelled i}, for each label i of a."""
        slots: dict[int, tuple[int, ...]] = {}
        for k, la in enumerate(self.objs.cell(a)):
            slots[la] = slots.get(la, ()) + (k,)
        return slots

    def identity(self, a: str) -> str:
        return self.mors.key((a, a, tuple(range(len(self.objs.cell(a))))))

    def compose(self, g: str, f: str) -> str:
        # f : X -> Y, g : Y -> Z; underlying functions fb : Y* -> X*, gb : Z* -> Y*
        mors = self.mors
        y, z, gb = mors.cells[g]
        x, y_f, fb = mors.cells[f]
        if y != y_f:
            raise ValueError(f"not composable: {g} after {f}")
        cell = (x, z, tuple([fb[k] for k in gb]))
        return mors.keys.get(cell) or mors.key(cell)

    def compose_row(self, g: str, fs: list[str]) -> list[str]:
        """The row after g, reading g's cell once."""
        mors = self.mors
        cells, keys = mors.cells, mors.keys
        y, z, gb = cells[g]
        # the composite's function picks its values out of f's function by
        # gb; a slice keeps a pick of one value or none a tuple
        pick = operator.itemgetter(
            *gb if len(gb) > 1 else [slice(gb[0], gb[0] + 1) if gb else slice(0)])
        out = []
        for f in fs:
            x, y_f, fb = cells[f]
            if y != y_f:
                raise ValueError(f"not composable: {g} after {f}")
            cell = (x, z, pick(fb))
            out.append(keys.get(cell) or mors.key(cell))
        return out
