"""File formats for models and polynomials, and the table-backed model.

A model description file is a JSON document with sections ``objects``,
``homs``, ``compose``, ``identities``, ``terminal``, ``ty``, ``tm``,
``typeof``, ``subst_ty``, ``subst_tm``, ``ext``; unknown fields are
rejected.  Relational sections are arrays of records so that cell keys may
contain arbitrary characters.  A polynomial file is ``{I, B, A, J, s, f,
t}`` with the sets given as integer sizes (the set {0,..,n-1}) and the maps
as arrays.

Serialization is canonical (sorted keys, two-space indent, sorted record
arrays, trailing newline), so parsing and re-serializing a canonical file
is the identity.
"""

from __future__ import annotations

import json
from typing import Optional

from .fincat import FinCatPresentation
from .natmodel import ExtensionData, NaturalModel
from .polyset import FinMap, Polynomial, fin_map


MODEL_FIELDS = {
    "objects", "homs", "compose", "identities", "terminal",
    "ty", "tm", "typeof", "subst_ty", "subst_tm", "ext",
}
EXT_FIELDS = {"ctx", "type", "extended", "proj", "var"}
POLY_FIELDS = {"I", "B", "A", "J", "s", "f", "t"}


class ParseError(ValueError):
    pass


def _records(doc, name: str, fields: set[str]) -> list[dict]:
    entries = doc[name]
    if not isinstance(entries, list):
        raise ParseError(f"{name} must be an array of records")
    for entry in entries:
        if not isinstance(entry, dict) or set(entry) != fields:
            raise ParseError(
                f"each {name} record must have exactly fields {sorted(fields)}"
            )
    return entries


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
        return self._typeof[(ctx, term)]

    def subst_ty(self, sigma: str, ty: str) -> str:
        return self._subst_ty[(sigma, ty)]

    def subst_tm(self, sigma: str, term: str) -> str:
        return self._subst_tm[(sigma, term)]

    def ext(self, ctx: str, ty: str) -> ExtensionData:
        return self._ext[(ctx, ty)]


def parse_model(text: str) -> TableModel:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("model file must be a JSON object")
    unknown = set(doc) - MODEL_FIELDS
    if unknown:
        raise ParseError(f"unknown fields: {sorted(unknown)}")
    missing = MODEL_FIELDS - set(doc)
    if missing:
        raise ParseError(f"missing fields: {sorted(missing)}")

    objects = list(doc["objects"])
    homs: dict[tuple[str, str], list[str]] = {}
    for entry in _records(doc, "homs", {"src", "dst", "mors"}):
        homs[(entry["src"], entry["dst"])] = list(entry["mors"])
    compose_table: dict[tuple[str, str], str] = {}
    for entry in _records(doc, "compose", {"g", "f", "gf"}):
        compose_table[(entry["g"], entry["f"])] = entry["gf"]
    identities = dict(doc["identities"])
    terminal = doc["terminal"]
    cat = TableCategory(
        object_keys=objects,
        homs=homs,
        compose_table=compose_table,
        identities=identities,
        terminal_key=terminal,
    )
    ty = {o: list(v) for o, v in doc["ty"].items()}
    tm = {o: list(v) for o, v in doc["tm"].items()}
    typeof_table = {}
    for entry in _records(doc, "typeof", {"ctx", "term", "type"}):
        typeof_table[(entry["ctx"], entry["term"])] = entry["type"]
    subst_ty_table = {}
    for entry in _records(doc, "subst_ty", {"mor", "type", "out"}):
        subst_ty_table[(entry["mor"], entry["type"])] = entry["out"]
    subst_tm_table = {}
    for entry in _records(doc, "subst_tm", {"mor", "term", "out"}):
        subst_tm_table[(entry["mor"], entry["term"])] = entry["out"]
    ext_table = {}
    for entry in _records(doc, "ext", EXT_FIELDS):
        ext_table[(entry["ctx"], entry["type"])] = ExtensionData(
            entry["extended"], entry["proj"], entry["var"]
        )
    return TableModel(
        cat, ty, tm, typeof_table, subst_ty_table, subst_tm_table, ext_table
    )


def _canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def serialize_model(model: NaturalModel, bound: int, ty_bound: Optional[int] = None) -> str:
    """Materialize a model at a bound and emit the canonical file format."""
    if ty_bound is None:
        ty_bound = bound
    base = model.base
    objects = base.objects(bound)
    homs = []
    mors = []
    for a in objects:
        for b in objects:
            ms = base.hom(a, b)
            if ms:
                homs.append({"src": a, "dst": b, "mors": ms})
                mors.extend((m, a, b) for m in ms)
    compose = []
    for f, fs, ft in mors:
        for g, gs, gt in mors:
            if gs != ft:
                continue
            compose.append({"g": g, "f": f, "gf": base.compose(g, f)})
    identities = {a: base.identity(a) for a in objects}
    ty = {a: model.types(a, ty_bound) for a in objects}
    tm = {a: model.terms(a, ty_bound) for a in objects}
    typeof = []
    for a in objects:
        for t in tm[a]:
            typeof.append({"ctx": a, "term": t, "type": model.typeof(a, t)})
    subst_ty = []
    subst_tm = []
    for m, a, b in mors:
        for t in ty[b]:
            subst_ty.append({"mor": m, "type": t, "out": model.subst_ty(m, t)})
        for t in tm[b]:
            subst_tm.append({"mor": m, "term": t, "out": model.subst_tm(m, t)})
    # only self-contained extension data: entries whose extended context
    # escapes the materialized fragment are dropped, and the source context
    # is then a boundary object of the file
    obj_set = set(objects)
    ext_entries = []
    for a in objects:
        for t in ty[a]:
            e = model.ext(a, t)
            if e.extended in obj_set:
                ext_entries.append({
                    "ctx": a, "type": t,
                    "extended": e.extended, "proj": e.proj, "var": e.var,
                })
    for section in (homs, compose, typeof, subst_ty, subst_tm, ext_entries):
        section.sort(key=lambda d: json.dumps(d, sort_keys=True))
    return _canonical({
        "objects": objects,
        "homs": homs,
        "compose": compose,
        "identities": identities,
        "terminal": base.terminal,
        "ty": ty,
        "tm": tm,
        "typeof": typeof,
        "subst_ty": subst_ty,
        "subst_tm": subst_tm,
        "ext": ext_entries,
    })


def reserialize_model(text: str) -> str:
    """Parse and re-emit a model file in canonical form (identity on canonical files)."""
    doc = json.loads(text)
    unknown = set(doc) - MODEL_FIELDS
    if unknown:
        raise ParseError(f"unknown fields: {sorted(unknown)}")
    for section in ("homs", "compose", "typeof", "subst_ty", "subst_tm", "ext"):
        doc[section] = sorted(
            doc[section], key=lambda d: json.dumps(d, sort_keys=True)
        )
    return _canonical(doc)


def parse_polynomial(text: str) -> Polynomial:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("polynomial file must be a JSON object")
    if set(doc) != POLY_FIELDS:
        raise ParseError(f"polynomial file must have exactly fields {sorted(POLY_FIELDS)}")
    for name in ("I", "B", "A", "J"):
        if not isinstance(doc[name], int) or doc[name] < 0:
            raise ParseError(f"{name} must be a non-negative integer size")
    i_set = tuple(range(doc["I"]))
    b_set = tuple(range(doc["B"]))
    a_set = tuple(range(doc["A"]))
    j_set = tuple(range(doc["J"]))

    def arr_map(name, dom, cod) -> FinMap:
        arr = doc[name]
        if not isinstance(arr, list) or len(arr) != len(dom):
            raise ParseError(f"{name} must be an array of length {len(dom)}")
        for v in arr:
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

    return _canonical({
        "I": len(p.I), "B": len(p.B), "A": len(p.A), "J": len(p.J),
        "s": arr(p.s), "f": arr(p.f), "t": arr(p.t),
    })
