"""The model file writer and reader against their definitions.

A canonical model file is ``json.dumps(doc, sort_keys=True, indent=2)`` plus
a newline, with each record section ordered by its records'
``json.dumps(record, sort_keys=True)``.  The writer produces that text
directly and the reader validates record sections in bulk; these tests keep
the definitions, a record-by-record reader and a row-by-row table reader as
the references that both must match.
"""

import json
import random
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from natmod import freemodel, modelio
from natmod.modelio import (
    MODEL_FIELDS,
    RECORDS,
    ParseError,
    _model_doc,
    _model_text,
    _records,
    parse_model,
    reserialize_model,
    serialize_model,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
try:
    from workloads import FILE_MODELS
finally:
    sys.path.pop(0)


# strings that json escapes or spells out: quotes, backslashes, control
# characters, non-ASCII and astral code points
TRICKY = st.text(
    alphabet=st.sampled_from(
        ["a", "b", " ", '"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f",
         "Σ", "•", "é", " ", "\ud800", "😀", "\U0010ffff", ":", ",", "[", "}"]
    ),
    max_size=6,
)
STRINGS = st.one_of(TRICKY, st.text(max_size=6))
JSON_VALUES = st.recursive(
    st.one_of(STRINGS, st.integers(), st.booleans(), st.none(), st.floats()),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(STRINGS, children, max_size=4),
    ),
    max_leaves=24,
)


# values that are prefixes of one another, before and after quoting
KEY_VALUES = ["", "a", "ab", "abc", "b", 'a"', 'a"b', "a\\", "a\\b", "a b", "a]", "Σ", "Σa",
              "\x00"]


def _random_doc(rng: random.Random) -> dict:
    """Record sections of random records over KEY_VALUES, with repeats."""
    def value(field):
        if field == "mors":
            return rng.sample(KEY_VALUES, rng.randint(0, 3))
        return rng.choice(KEY_VALUES)

    return {name: [{f: value(f) for f in fields} for _ in range(rng.randint(0, 12))]
            for name, fields in RECORDS.items()}


def _reference_text(doc: dict) -> str:
    """A model document as the format defines it: each record section sorted
    by its records' JSON with sorted keys, then json's indented writer."""
    return json.dumps(
        {name: sorted(value, key=lambda d: json.dumps(d, sort_keys=True))
         if name in RECORDS else value for name, value in doc.items()},
        sort_keys=True, indent=2,
    ) + "\n"


# the sections the writer hands to json whole, re-indented one level
OTHER_SECTIONS = sorted(MODEL_FIELDS - RECORDS.keys())


@settings(max_examples=500, derandomize=True, deadline=None)
@given(st.fixed_dictionaries(dict.fromkeys(OTHER_SECTIONS, JSON_VALUES)), st.integers(0, 999))
@example(dict.fromkeys(OTHER_SECTIONS, {}), 0)
@example(dict.fromkeys(OTHER_SECTIONS, []), 0)
@example(dict(zip(OTHER_SECTIONS, [{"a": {}, "b": [[], {}]}, [[[]], {}], "a\nb\\n",
                                    {"\n": ["\n  "]}, 1.5])), 1)
def test_the_writer_is_json_with_sorted_keys_and_indent_two(others, seed):
    doc = {**_random_doc(random.Random(seed)), **others}
    assert _model_text(doc) == _reference_text(doc)


def _edge_docs() -> list[dict]:
    """Every section empty; and one record per section, each ``mors`` empty."""
    one = {name: [{f: [] if f == "mors" else "a" for f in fields}]
           for name, fields in RECORDS.items()}
    return [{name: [] for name in RECORDS}, one]


@pytest.mark.parametrize("seed", range(3))
def test_records_are_ordered_by_their_json_with_sorted_keys(seed):
    rng = random.Random(seed)
    docs = _edge_docs() + [_random_doc(rng) for _ in range(1000)]
    assert any(not records for doc in docs[2:] for records in doc.values())
    assert any(not r["mors"] for doc in docs[2:] for r in doc["homs"])
    for doc in docs:
        assert _model_text(doc) == _reference_text(doc)


def _strings(value) -> int:
    """The strings json quotes in a value: dict keys, strings, and those in
    the lists and dicts within."""
    if isinstance(value, dict):
        return sum(1 + _strings(v) for v in value.values())
    if isinstance(value, list):
        return sum(map(_strings, value))
    return int(isinstance(value, str))


def _counting_quotes(monkeypatch) -> list[str]:
    """Patch the writer's quoting function; returns the strings it quotes."""
    quoted: list[str] = []

    def counting(s):
        quoted.append(s)
        return encode_basestring_ascii(s)

    monkeypatch.setattr(modelio, "encode_basestring_ascii", counting)
    return quoted


def test_each_record_value_is_encoded_once(monkeypatch):
    # every string of the file is quoted by json's C function at most once:
    # record values (``mors`` elements each), the field names of ``homs``,
    # and the strings of the other sections, dict keys and the section names
    # included; the writer itself quotes only the template sections' values
    model = freemodel.term_model(range(1))
    doc = _model_doc(model, 2)
    record_strings = sum(1 if type(v) is str else len(v)
                         for name in RECORDS for r in doc[name] for v in r.values())
    record_strings += len(RECORDS["homs"]) * len(doc["homs"])
    other_strings = _strings({name: v for name, v in doc.items() if name not in RECORDS})
    quoted = _counting_quotes(monkeypatch)
    serialize_model(model, 2)
    assert 0 < len(quoted) <= record_strings + other_strings


def test_each_distinct_string_of_a_record_section_is_quoted_once(monkeypatch):
    # a file lists every composite, so a key recurs across the records of a
    # section, and the writer quotes it once per section.  ``json.dumps``
    # quotes the rest: ``homs`` and the other sections
    doc = _model_doc(freemodel.term_model(range(2)), 3)
    distinct = sum(len({v for r in doc[name] for v in r.values()})
                   for name in RECORDS if name != "homs")
    values = sum(len(RECORDS[name]) * len(doc[name]) for name in RECORDS if name != "homs")
    quoted = _counting_quotes(monkeypatch)
    _model_text(doc)
    assert len(quoted) == distinct
    assert 8 * distinct < values


# a key json escapes: a quote, a backslash, a control and a non-ASCII character
ESCAPED_KEY = '"\\\x01Σ k'


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_a_recurring_escaped_key_is_written_as_json_writes_it(data):
    key = st.one_of(st.just(ESCAPED_KEY), TRICKY)
    doc = {name: data.draw(st.lists(st.fixed_dictionaries(
        {f: st.lists(key, max_size=3) if f == "mors" else key for f in fields}), max_size=8))
        for name, fields in RECORDS.items()}
    assume(any(sum(v == ESCAPED_KEY for r in doc[name] for v in r.values()) > 1
               for name in RECORDS if name != "homs"))
    assert _model_text(doc) == _reference_text(doc)


def _first_writer(model, bound: int) -> str:
    """serialize_model as json's encoder wrote it, sort keys included."""
    doc = _model_doc(model, bound)
    for section in ("homs", "compose", "typeof", "subst_ty", "subst_tm", "ext"):
        doc[section].sort(key=lambda d: json.dumps(d, sort_keys=True))
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("name,build,bound", FILE_MODELS, ids=[m[0] for m in FILE_MODELS])
def test_the_benchmark_files_are_unchanged(name, build, bound):
    text = serialize_model(build(freemodel), bound)
    assert text == _first_writer(build(freemodel), bound)
    assert reserialize_model(text) == text
    shuffled = json.loads(text)
    rng = random.Random(name)
    for section in RECORDS:
        rng.shuffle(shuffled[section])
    assert reserialize_model(json.dumps(shuffled)) == text


def _record_by_record(doc, name: str, fields: tuple) -> list[tuple]:
    """The record reader as first written: one record at a time."""
    entries = doc[name]
    if not isinstance(entries, list):
        raise ParseError(f"{name} must be an array of records")
    rows = []
    for entry in entries:
        if not isinstance(entry, dict) or set(entry) != set(fields):
            raise ParseError(
                f"each {name} record must have exactly fields {sorted(fields)}"
            )
        row = tuple(entry[f] for f in fields)
        if not all(isinstance(v, str) or f == "mors" for f, v in zip(fields, row)):
            raise ParseError(f"{name} record values must be strings: {entry}")
        rows.append(row)
    return rows


def _row_by_row_table(doc, name: str, cells: set[tuple]) -> dict:
    """The function-section reader as first written: one row at a time."""
    table = {}
    for *key, value in _record_by_record(doc, name, RECORDS[name]):
        key = tuple(key)
        if key not in cells:
            raise ParseError(f"{name} row for an unknown cell {key}")
        if key in table:
            raise ParseError(f"{name} has two rows for {key}")
        table[key] = value
    if len(table) != len(cells):
        raise ParseError(f"{name} has no row for {min(cells - table.keys())}")
    return table


def _row_by_row_parse(text: str, monkeypatch):
    """parse_model with every function section read by the row-by-row walk
    against its set of cells, for ``compose`` every composable pair."""
    def row_by_row(doc, name, cells, exact=None):
        return _row_by_row_table(doc, name, cells())

    with monkeypatch.context() as patch:
        patch.setattr(modelio, "_table", row_by_row)
        return parse_model(text)


def _outcome(parse, text: str):
    """The tables a parse reads, or the message it raises."""
    try:
        m = parse(text)
    except ParseError as exc:
        return str(exc)
    return m.base.compose_table, m._typeof, m._subst_ty, m._subst_tm, m._ext


TABLE_DEFECTS = ["drop", "duplicate", "unknown", "unknown-pair", "unrelated", "swap",
                 "duplicate-and-drop"]


def _table_defect(records: list[dict], name: str, kind: str, rng: random.Random):
    """A copy of a function section with one seeded defect, or None where
    the section has no place for it.  ``unknown`` names a key no section
    lists, and ``unknown-pair`` names two; ``unrelated`` pairs two listed keys that make no cell (in
    ``compose``, two morphisms that do not compose); ``swap`` exchanges the
    two key fields (g and f); ``duplicate-and-drop`` overwrites one row with
    a copy of another, which keeps the row count."""
    first, second = RECORDS[name][:2]
    rows = list(records)
    i = rng.randrange(len(rows))
    if kind == "drop":
        del rows[i]
    elif kind == "duplicate":
        rows.insert(rng.randrange(len(rows) + 1), rows[i])
    elif kind == "duplicate-and-drop":
        rows[rng.choice([j for j in range(len(rows)) if j != i])] = rows[i]
    elif kind == "unknown":
        rows[i] = {**rows[i], rng.choice([first, second]): "unknown"}
    elif kind == "unknown-pair":
        rows[i] = {**rows[i], first: "unknown", second: "unknown'"}
    elif kind == "unrelated":
        cells = {(r[first], r[second]) for r in rows}
        pairs = [(a, b) for a in sorted({r[first] for r in rows})
                 for b in sorted({r[second] for r in rows}) if (a, b) not in cells]
        if not pairs:
            return None
        a, b = rng.choice(pairs)
        rows[i] = {**rows[i], first: a, second: b}
    else:
        swappable = [j for j, r in enumerate(rows) if r[first] != r[second]]
        i = rng.choice(swappable)
        rows[i] = {**rows[i], first: rows[i][second], second: rows[i][first]}
    return rows


@pytest.fixture(scope="module")
def term_model_docs():
    return {name: json.loads(serialize_model(build(freemodel), bound))
            for name, build, bound in FILE_MODELS if name in ("term-model:1", "term-model:2")}


@pytest.mark.parametrize("file", ["term-model:1", "term-model:2"])
def test_the_reader_reads_the_tables_the_row_by_row_walk_reads(file, term_model_docs, monkeypatch):
    text = json.dumps(term_model_docs[file])
    tables = _outcome(parse_model, text)
    assert not isinstance(tables, str)
    assert tables == _outcome(lambda t: _row_by_row_parse(t, monkeypatch), text)


@pytest.mark.parametrize("kind", TABLE_DEFECTS)
@pytest.mark.parametrize("file", ["term-model:1", "term-model:2"])
def test_the_reader_rejects_a_table_defect_as_the_row_by_row_walk_does(
    file, kind, term_model_docs, monkeypatch
):
    # a check on the row count alone would take duplicate-and-drop
    base = term_model_docs[file]
    for name in ("compose", "typeof", "subst_ty", "subst_tm"):
        rng = random.Random(f"{file}:{kind}:{name}")
        rows = _table_defect(base[name], name, kind, rng)
        if rows is None:
            continue
        text = json.dumps({**base, name: rows})
        expected = _outcome(lambda t: _row_by_row_parse(t, monkeypatch), text)
        assert isinstance(expected, str), (name, kind)
        assert _outcome(parse_model, text) == expected


@pytest.fixture(scope="module")
def model_text():
    return serialize_model(freemodel.term_model(range(1)), 2)


def _defect(kind: str, record: dict) -> object:
    """A copy of a record, or what stands in its place, with one defect."""
    bad = dict(record)
    if kind == "not-a-record":
        return list(record.values())
    if kind == "missing-field":
        del bad[sorted(bad)[0]]
    elif kind == "extra-field":
        bad["extra"] = "x"
    elif kind == "number":
        bad[next(f for f in sorted(bad) if f != "mors")] = 7
    elif kind == "null":
        bad[next(f for f in sorted(bad) if f != "mors")] = None
    return bad


DEFECTS = ["not-a-record", "missing-field", "extra-field", "number", "null"]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.data())
def test_the_bulk_reader_names_the_record_a_record_by_record_reader_names(
    model_text, data
):
    doc = json.loads(model_text)
    name = data.draw(st.sampled_from(sorted(n for n in RECORDS if doc[n])))
    entries = doc[name]
    for _ in range(data.draw(st.integers(0, 3))):
        at = data.draw(st.integers(0, len(entries) - 1))
        if isinstance(entries[at], dict):
            entries[at] = _defect(data.draw(st.sampled_from(DEFECTS)), entries[at])
    try:
        expected = _record_by_record(doc, name, RECORDS[name])
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            _records(doc, name)
        assert str(got.value) == str(exc)
    else:
        assert _records(doc, name) == expected


@pytest.mark.parametrize("edit,message", [
    (lambda doc: doc.update(compose={}), "compose must be an array of records"),
    (lambda doc: doc["typeof"].__setitem__(1, "x"),
     "each typeof record must have exactly fields ['ctx', 'term', 'type']"),
    (lambda doc: doc["subst_ty"][2].pop("out"),
     "each subst_ty record must have exactly fields ['mor', 'out', 'type']"),
    (lambda doc: doc["ext"][0].update(var2="x"),
     "each ext record must have exactly fields ['ctx', 'extended', 'proj', 'type', 'var']"),
    (lambda doc: doc["subst_tm"][0].update(out=3),
     "subst_tm record values must be strings: {'mor': 'fs[0,0]=>fs[0,0]:(0,0)', "
     "'out': 3, 'term': 'x0'}"),
    (lambda doc: doc["homs"][0].update(mors="f"), "homs mors must be an array of strings"),
], ids=["section-not-an-array", "record-not-an-object", "missing-field", "extra-field",
        "value-not-a-string", "mors-not-an-array"])
def test_a_bad_record_keeps_its_message(edit, message, model_text):
    doc = json.loads(model_text)
    edit(doc)
    with pytest.raises(ParseError) as exc:
        parse_model(json.dumps(doc))
    assert str(exc.value) == message
    with pytest.raises(ParseError) as exc:
        reserialize_model(json.dumps(doc))
    assert str(exc.value) == message


@pytest.mark.parametrize("edit,message", [
    (lambda doc: doc["ty"]["fs[0]"].append("T0"), "ty['fs[0]'] repeats 'T0'"),
    (lambda doc: doc["tm"]["fs[0]"].append("x0"), "tm['fs[0]'] repeats 'x0'"),
    (lambda doc: doc["homs"][0]["mors"].append(doc["homs"][0]["mors"][0]),
     "homs mors for ('fs[0,0]', 'fs[0,0]') repeats 'fs[0,0]=>fs[0,0]:(0,0)'"),
    (lambda doc: doc["homs"][1]["mors"].append(doc["homs"][0]["mors"][0]),
     "morphism 'fs[0,0]=>fs[0,0]:(0,0)' is in two hom sets"),
], ids=["type", "term", "morphism-in-one-hom-set", "morphism-in-two-hom-sets"])
def test_a_repeated_key_is_named(edit, message, model_text):
    doc = json.loads(model_text)
    edit(doc)
    with pytest.raises(ParseError) as exc:
        parse_model(json.dumps(doc))
    assert str(exc.value) == message
