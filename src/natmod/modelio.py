"""File formats for models and polynomials, and the table-backed model.

A model description file is a JSON document with sections ``objects``,
``homs``, ``compose``, ``identities``, ``terminal``, ``ty``, ``tm``,
``typeof``, ``subst_ty``, ``subst_tm``, ``ext``; unknown fields are
rejected.  Relational sections are arrays of records so that cell keys may
contain arbitrary characters.  A polynomial file is ``{I, B, A, J, s, f,
t}`` with the sets given as integer sizes (the set {0,..,n-1}) and the maps
as arrays.

Serialization is canonical: a file is ``json.dumps(doc, sort_keys=True,
indent=2)`` plus a newline, with the records of each section ordered by
their ``json.dumps(record, sort_keys=True)``, so parsing and re-serializing
a canonical file is the identity.  The writer writes the record sections
by their templates and every other section, ``homs`` included, by
``json.dumps``; ``tests/test_modelio.py`` proves the text equal to this
definition.  Each distinct string of a record section is quoted once, each
record written with its section's one template, and a section ordered by
sorting the record texts: no quoted key is a proper prefix of another, so
two texts first differ inside the first value that differs.  The reader
checks a record section whole: one ``itemgetter`` pass, field counts, one
set of value types, and each function section as one dict, the compose
rows with no set of composable pairs.  Only a section that fails is walked
record by record or row by row, to name its first bad one.
"""

from __future__ import annotations

import contextlib
import json
import operator
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterator

from .fincat import FinCatPresentation
from .natmodel import ExtensionData, NaturalModel, ext_violations, model_presheaves
from .polyset import FinMap, Polynomial, fin_map


MODEL_FIELDS = {
    "objects", "homs", "compose", "identities", "terminal",
    "ty", "tm", "typeof", "subst_ty", "subst_tm", "ext",
}
# the record sections and their records' fields; ``mors`` is the one field
# whose value is an array of keys rather than a key
RECORDS = {
    "homs": ("src", "dst", "mors"),
    "compose": ("g", "f", "gf"),
    "typeof": ("ctx", "term", "type"),
    "subst_ty": ("mor", "type", "out"),
    "subst_tm": ("mor", "term", "out"),
    "ext": ("ctx", "type", "extended", "proj", "var"),
}
POLY_FIELDS = {"I", "B", "A", "J", "s", "f", "t"}


class ParseError(ValueError):
    pass


class MissingCell(LookupError):
    """An operation needs a cell that the file's fragment does not hold.

    Not a ``ValueError``: callers that read a ``ValueError`` as "no such
    value" (and prune it from a search) must not mistake a truncated file
    for an answer.
    """

    def __str__(self) -> str:
        name, key = self.args
        return f"the model file holds no {name} cell for {key}"


def _cell(name: str, table: dict, key: tuple):
    """The cell ``key`` of section ``name``; one the file lacks raises MissingCell."""
    try:
        return table[key]
    except KeyError:
        raise MissingCell(name, key) from None


def _strings(value, what: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ParseError(f"{what} must be an array of strings")
    return list(value)


def _json_object(text: str, what: str) -> dict:
    """A file's JSON text read as an object; ``what`` names the file in the error."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{what} must be a JSON object")
    return doc


def _document(text: str) -> dict:
    """A model file's JSON object, with exactly the sections of the format."""
    doc = _json_object(text, "model file")
    unknown = set(doc) - MODEL_FIELDS
    if unknown:
        raise ParseError(f"unknown fields: {sorted(unknown)}")
    missing = MODEL_FIELDS - set(doc)
    if missing:
        raise ParseError(f"missing fields: {sorted(missing)}")
    return doc


def _records(doc, name: str) -> list[tuple]:
    """A record section, as tuples of its records' values in ``RECORDS`` order.

    Every value is a key string, except ``mors``, an array the caller checks.
    The section is validated in bulk; only a bad one is read record by
    record, to name its first bad record.
    """
    fields = RECORDS[name]
    entries = doc[name]
    if not isinstance(entries, list):
        raise ParseError(f"{name} must be an array of records")
    wanted = set(fields)
    keys = [f for f in fields if f != "mors"]
    # a record lacking a field fails itemgetter; the lengths add up if none has another
    with contextlib.suppress(KeyError):
        if set(map(type, entries)) <= {dict} and sum(map(len, entries)) == len(wanted) * len(entries):
            rows = list(map(operator.itemgetter(*fields), entries))
            values = rows if len(keys) == len(fields) else map(operator.itemgetter(*keys), entries)
            if set(map(type, chain.from_iterable(values))) <= {str}:
                return rows
    for entry in entries:
        if type(entry) is not dict or entry.keys() != wanted:
            raise ParseError(
                f"each {name} record must have exactly fields {sorted(fields)}"
            )
        if any(type(entry[f]) is not str for f in keys):
            raise ParseError(f"{name} record values must be strings: {entry}")
    raise AssertionError("a section that fails the bulk check has a bad record")


_KEY, _G, _F = operator.itemgetter(0, 1), operator.itemgetter(0), operator.itemgetter(1)


def _table(doc, name: str, cells: Callable[[], set[tuple]], exact=None) -> dict:
    """A function section: exactly one row for each cell of ``cells()``.

    Its two key fields and one value field are read into one dict, taken
    when no key repeats and the keys are the cells, or when ``exact(rows)``
    says so; only a section that fails is walked, to name its first bad row.
    """
    rows = _records(doc, name)
    table = dict(zip(map(_KEY, rows), map(operator.itemgetter(2), rows)))
    if len(table) == len(rows) and (exact(rows) if exact else table.keys() == cells()):
        return table
    cells, seen = cells(), set()
    for key in map(_KEY, rows):
        if key not in cells:
            raise ParseError(f"{name} row for an unknown cell {key}")
        if key in seen:
            raise ParseError(f"{name} has two rows for {key}")
        seen.add(key)
    raise ParseError(f"{name} has no row for {min(cells - seen)}")


def _families(doc, name: str, objects: set[str]) -> dict[str, list[str]]:
    value = doc[name]
    if not isinstance(value, dict) or not set(value) <= objects:
        raise ParseError(f"{name} must map objects to arrays of keys")
    families = {o: _strings(v, f"{name}[{o!r}]") for o, v in value.items()}
    for o, keys in families.items():
        if len(set(keys)) != len(keys):
            repeated = next(k for i, k in enumerate(keys) if k in keys[:i])
            raise ParseError(f"{name}[{o!r}] repeats {repeated!r}")
    return families


BOUNDARY_RANK = 1000


class TableCategory(FinCatPresentation):
    """A file-backed category whose boundary objects rank above the core.

    A serialized fragment of an infinite model contains objects whose
    extension data escapes the file; those rank far above any working bound
    while fully described objects rank 0, so ``objects(0)`` is the
    checkable core, constructions over the fragment never enumerate past
    it, and ``objects(BOUNDARY_RANK)`` is the whole fragment.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        self.ranks: dict[str, int] = {}

    def obj_size(self, a: str) -> int:
        return self.ranks.get(a, BOUNDARY_RANK)

    def objects(self, bound: int) -> list[str]:
        return [o for o in self.object_keys if self.obj_size(o) <= bound]


class TableModel(NaturalModel):
    """A natural model given entirely by finite tables."""

    def __init__(
        self,
        cat: FinCatPresentation,
        ty: dict[str, list[str]],
        tm: dict[str, list[str]],
        typeof_table: dict[tuple[str, str], str],
        subst_ty_table: dict[tuple[str, str], str],
        subst_tm_table: dict[tuple[str, str], str],
        ext_table: dict[tuple[str, str], ExtensionData],
    ):
        self.base = cat
        self._ty = ty
        self._tm = tm
        self._typeof = typeof_table
        self._subst_ty = subst_ty_table
        self._subst_tm = subst_tm_table
        self._ext = ext_table
        if isinstance(cat, TableCategory):
            obj_set = set(cat.object_keys)
            cat.ranks = {
                o: 0 if all(
                    (o, t) in ext_table and ext_table[(o, t)].extended in obj_set
                    for t in ty.get(o, [])
                ) else BOUNDARY_RANK
                for o in cat.object_keys
            }

    def types(self, ctx: str, bound: int) -> list[str]:
        return list(self._ty.get(ctx, []))

    def terms(self, ctx: str, bound: int) -> list[str]:
        return list(self._tm.get(ctx, []))

    def typeof(self, ctx: str, term: str) -> str:
        return _cell("typeof", self._typeof, (ctx, term))

    def subst_ty(self, sigma: str, ty: str) -> str:
        return _cell("subst_ty", self._subst_ty, (sigma, ty))

    def subst_tm(self, sigma: str, term: str) -> str:
        return _cell("subst_tm", self._subst_tm, (sigma, term))

    def ext(self, ctx: str, ty: str) -> ExtensionData:
        return _cell("ext", self._ext, (ctx, ty))

    def sort_violations(self) -> Iterator[tuple[str, str]]:
        """The equations on the rows that ``check_eat(model, 0)`` does not
        read, as (equation, witness) pairs, so that each equation instance
        is evaluated by one checker.

        ``check_eat`` reads the rows over the core, ``objects(0)``; these
        are the rest.  A ``subst_ty`` or ``subst_tm`` row whose morphism m
        has an endpoint outside the core must give a type (xiii) or a term
        (xvi) over dom m, and where m is an identity, A[id] = A (xi) or
        a[id] = a (xiv).  A ``typeof`` row at a boundary context Γ must give
        a type over Γ (xvii).  Along such an m, typeof(a[m]) = typeof(a)[m]
        (xviii) wherever the cells it reads have their sorts.  An ``ext``
        row at a boundary context is read by
        :func:`~natmod.natmodel.ext_violations`, (xix)-(xxvii), with every
        object of the file as a vertex: the file states every cell those
        instances read.  Two families go unchecked along a morphism with a
        boundary endpoint: the composition laws of Ty (xii) and of Tm (xv).
        """
        base = self.base
        dom, cod = base.dom, base.cod
        core = set(base.objects(0))
        ids = {base.identity(g) for g in base.object_keys}
        tys = {g: set(self._ty.get(g, ())) for g in base.object_keys}
        tms = {g: {a: self._typeof[g, a] for a in self._tm.get(g, ())} for g in base.object_keys}
        for eq, id_eq, name, table, sort, what in (
            ("xiii", "xi", "subst_ty", self._subst_ty, tys, "type"),
            ("xvi", "xiv", "subst_tm", self._subst_tm, tms, "term"),
        ):
            for (m, x), out in table.items():
                if dom(m) in core and cod(m) in core:
                    continue
                if out not in sort[dom(m)]:
                    yield eq, f"{name} row ({m}, {x}) gives {out!r}, not a {what} over {dom(m)}"
                if out != x and m in ids:
                    yield id_eq, f"{name} row ({m}, {x}) gives {out!r}, not {x!r}"
                if table is self._subst_tm:
                    # (xvi) and (xvii) hold for the cells read, else no instance
                    ty_x, ty_out = tms[cod(m)][x], tms[dom(m)].get(out)
                    if ty_x in tys[cod(m)] and ty_out in tys[dom(m)] \
                            and ty_out != (ty_m := self._subst_ty[m, ty_x]):
                        yield "xviii", (f"subst_tm row ({m}, {x}) gives {out!r} of type "
                                        f"{ty_out!r}, not {ty_x}[{m}] = {ty_m!r}")
        for (g, a), ty in self._typeof.items():
            if g not in core and ty not in tys[g]:
                yield "xvii", f"typeof row ({g}, {a}) gives {ty!r}, not a type over {g}"
        for g, a in self._ext:
            if g not in core:
                yield from ext_violations(self, g, a, base.object_keys, tms)


def parse_model(text: str) -> TableModel:
    doc = _document(text)
    objects = _strings(doc["objects"], "objects")
    obj_set = set(objects)
    if len(obj_set) != len(objects):
        raise ParseError("objects must not repeat")
    homs: dict[tuple[str, str], list[str]] = {}
    dom_of: dict[str, str] = {}
    cod_of: dict[str, str] = {}
    out_of: dict[str, list[str]] = {o: [] for o in objects}
    for src, dst, mors in _records(doc, "homs"):
        if src not in obj_set or dst not in obj_set or (src, dst) in homs:
            raise ParseError(f"homs record for an unknown or repeated pair ({src!r}, {dst!r})")
        homs[(src, dst)] = _strings(mors, "homs mors")
        for m in homs[(src, dst)]:
            if m in cod_of:
                if (dom_of[m], cod_of[m]) == (src, dst):
                    raise ParseError(f"homs mors for ({src!r}, {dst!r}) repeats {m!r}")
                raise ParseError(f"morphism {m!r} is in two hom sets")
            dom_of[m], cod_of[m] = src, dst
            out_of[src].append(m)

    def composable(rows: list[tuple]) -> bool:
        # distinct (g, f) rows are the composable pairs when there are
        # Σ_b |into b|·|out of b| of them and each f ends where its g starts
        cods = list(map(cod_of.get, map(_F, rows)))
        return len(rows) == sum(len(out_of[b]) for b in cod_of.values()) and \
            None not in cods and cods == list(map(dom_of.get, map(_G, rows)))

    compose_table = _table(doc, "compose", lambda: {
        (g, f) for f, b in cod_of.items() for g in out_of[b]}, composable)
    if not set(compose_table.values()) <= cod_of.keys():
        raise ParseError("compose names an unknown morphism")
    identities = doc["identities"]
    if not isinstance(identities, dict) or set(identities) != obj_set or \
            not all(isinstance(i, str) and i in cod_of for i in identities.values()):
        raise ParseError("identities must map every object to a listed morphism")
    terminal = doc["terminal"]
    if not isinstance(terminal, str) or terminal not in obj_set:
        raise ParseError("terminal must be one of the objects")
    cat = TableCategory(
        object_keys=objects,
        homs=homs,
        compose_table=compose_table,
        identities=dict(identities),
        terminal_key=terminal,
    )
    ty = _families(doc, "ty", obj_set)
    tm = _families(doc, "tm", obj_set)
    typeof_table = _table(doc, "typeof", lambda: {(o, t) for o, ts in tm.items() for t in ts})
    subst_ty_table = _table(doc, "subst_ty", lambda: {
        (m, t) for m, b in cod_of.items() for t in ty.get(b, [])})
    subst_tm_table = _table(doc, "subst_tm", lambda: {
        (m, t) for m, b in cod_of.items() for t in tm.get(b, [])})
    ext_table = {}
    for ctx, t, extended, proj, var in _records(doc, "ext"):
        if t not in ty.get(ctx, []) or (ctx, t) in ext_table:
            raise ParseError(f"ext row for an unknown or repeated cell ({ctx!r}, {t!r})")
        if extended not in obj_set or proj not in cod_of:
            raise ParseError(f"ext row at ({ctx!r}, {t!r}) names an unknown key")
        ext_table[(ctx, t)] = ExtensionData(extended, proj, var)
    return TableModel(
        cat, ty, tm, typeof_table, subst_ty_table, subst_tm_table, ext_table
    )


# a record's text in its section, with one %s per value in sorted-field
# order; the leading separator is the same for every record, so it does not
# change the order of the texts
_RECORD_TEMPLATES = {
    name: ",\n    {" + ",".join(f'\n      "{f}": %s' for f in sorted(fields)) + "\n    }"
    for name, fields in RECORDS.items() if name != "homs"
}


def _model_text(doc: dict) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)`` plus a newline, with each
    record section ordered by its records' ``json.dumps(record, sort_keys=True)``,
    by sorting the record texts.

    Every other section, and ``homs``, whose ``mors`` is an indented array
    (sorted by its records' JSON first), is ``json.dumps`` indented one level
    deeper: JSON holds no raw newline inside a string.
    """
    out: list[str] = []
    put = out.append
    sep = "{\n  "
    for name in sorted(doc):
        put(f'{sep}"{name}": ')
        sep = ",\n  "
        value = doc[name]
        if name == "homs":
            value = sorted(value, key=lambda r: json.dumps(r, sort_keys=True))
        if name not in _RECORD_TEMPLATES or not value:
            put(json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  "))
        else:
            fields = sorted(RECORDS[name])
            values = list(chain.from_iterable(map(operator.itemgetter(*fields), value)))
            quoted = {v: encode_basestring_ascii(v) for v in set(values)}
            encoded = map(quoted.__getitem__, values)
            # one record's values are the next len(fields) encoded ones
            texts = sorted(map(_RECORD_TEMPLATES[name].__mod__, zip(*[encoded] * len(fields))))
            texts[0] = "[" + texts[0][1:]
            out += texts
            put("\n  ]")
    put("\n}\n")
    return "".join(out)


def serialize_model(model: NaturalModel, bound: int) -> str:
    """Emit a model's materialization at a bound in the canonical file format."""
    return _model_text(_model_doc(model, bound))


def _model_doc(model: NaturalModel, bound: int) -> dict:
    """The file's sections, read off the materialization at ``bound``, which is then dropped."""
    ps = model_presheaves(model, bound, bound)
    cat = ps.cat
    objects = cat.object_keys
    homs = [{"src": a, "dst": b, "mors": ms} for (a, b), ms in cat.homs.items()]
    # the morphisms out of and into each object, in the order the truncation
    # lists its hom sets in; the composites after each g are one row
    out_of: dict[str, list[str]] = {a: [] for a in objects}
    into: dict[str, list[str]] = {a: [] for a in objects}
    for (a, b), ms in cat.homs.items():
        out_of[a].extend(ms)
        into[b].extend(ms)
    post = {g: dict(zip(into[a], cat.compose_row(g, into[a])))
            for a, gs in out_of.items() for g in gs}
    compose = [
        {"g": g, "f": f, "gf": post[g][f]}
        for (_, b), fs in cat.homs.items() for f in fs for g in out_of[b]
    ]
    typeof = [
        {"ctx": a, "term": t, "type": ty}
        for a, row in ps.p.components.items() for t, ty in row.items()
    ]
    mors = cat.all_morphisms()
    subst_ty = [
        {"mor": m, "type": t, "out": out} for m in mors for t, out in ps.ty.row(m).items()
    ]
    subst_tm = [
        {"mor": m, "term": t, "out": out} for m in mors for t, out in ps.tm.row(m).items()
    ]
    # only self-contained extension data: entries whose extended context
    # escapes the materialized fragment are dropped, and the source context
    # is then a boundary object of the file
    obj_set = set(objects)
    ext_entries = []
    for a in objects:
        for t in ps.ty.at(a):
            e = model.ext(a, t)
            if e.extended in obj_set:
                ext_entries.append({
                    "ctx": a, "type": t,
                    "extended": e.extended, "proj": e.proj, "var": e.var,
                })
    return {
        "objects": objects,
        "homs": homs,
        "compose": compose,
        "identities": cat.identities,
        "terminal": model.base.terminal,
        "ty": ps.ty.values,
        "tm": ps.tm.values,
        "typeof": typeof,
        "subst_ty": subst_ty,
        "subst_tm": subst_tm,
        "ext": ext_entries,
    }


def reserialize_model(text: str) -> str:
    """Parse and re-emit a model file in canonical form (identity on canonical files)."""
    doc = _document(text)
    # the records parse_model accepts, which the writer presumes
    for name in RECORDS:
        rows = _records(doc, name)
        if name == "homs":
            for _, _, mors in rows:
                _strings(mors, "homs mors")
    return _model_text(doc)


def parse_polynomial(text: str) -> Polynomial:
    doc = _json_object(text, "polynomial file")
    if set(doc) != POLY_FIELDS:
        raise ParseError(f"polynomial file must have exactly fields {sorted(POLY_FIELDS)}")
    # only a JSON integer parses to an int: true and false parse to bools,
    # which are ints, and 1.0 equals 1
    for name in ("I", "B", "A", "J"):
        if type(doc[name]) is not int or doc[name] < 0:
            raise ParseError(f"{name} must be a non-negative integer size, "
                             f"got {json.dumps(doc[name])}")
    i_set = tuple(range(doc["I"]))
    b_set = tuple(range(doc["B"]))
    a_set = tuple(range(doc["A"]))
    j_set = tuple(range(doc["J"]))

    def arr_map(name, dom, cod) -> FinMap:
        arr = doc[name]
        if not isinstance(arr, list) or len(arr) != len(dom):
            raise ParseError(f"{name} must be an array of length {len(dom)}")
        for v in arr:
            if type(v) is not int:
                raise ParseError(f"{name} value {json.dumps(v)} is not an integer")
            if v not in cod:
                raise ParseError(f"{name} value {v!r} outside its codomain")
        return fin_map(dom, cod, dict(zip(dom, arr)))

    return Polynomial(
        arr_map("s", b_set, i_set),
        arr_map("f", b_set, a_set),
        arr_map("t", a_set, j_set),
    )


def serialize_polynomial(p: Polynomial) -> str:
    def arr(m: FinMap) -> list:
        d = m.as_dict
        return [d[x] for x in m.dom]

    return json.dumps({
        "I": len(p.I), "B": len(p.B), "A": len(p.A), "J": len(p.J),
        "s": arr(p.s), "f": arr(p.f), "t": arr(p.t),
    }, sort_keys=True, indent=2) + "\n"
