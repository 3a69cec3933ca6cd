"""The model file writer and reader against their definitions.

A canonical model file is ``json.dumps(doc, sort_keys=True, indent=2)`` plus
a newline, with each record section ordered by its records'
``json.dumps(record, sort_keys=True)``.  The writer produces that text
directly and the reader validates record sections in bulk; these tests keep
the definitions, and a record-by-record reader, as the references that both
must match.
"""

import json
import random
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from natmod import freemodel, modelio
from natmod.modelio import (
    RECORDS,
    ParseError,
    _canonical,
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


@settings(max_examples=500, derandomize=True, deadline=None)
@given(JSON_VALUES)
@example({})
@example([])
@example({"a": {}, "b": [[], {}]})
@example([[[]], {}])
def test_the_writer_is_json_with_sorted_keys_and_indent_two(value):
    assert _canonical(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


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
        {name: sorted(records, key=lambda d: json.dumps(d, sort_keys=True))
         for name, records in doc.items()},
        sort_keys=True, indent=2,
    ) + "\n"


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


def test_each_record_value_is_encoded_once(monkeypatch):
    # every string of the file is quoted by json's C function at most once:
    # record values (``mors`` elements each), the field names of ``homs``,
    # whose records ``_emit`` writes, and the strings of the other sections,
    # dict keys and the section names included
    model = freemodel.term_model(range(1))
    doc = _model_doc(model, 2, 2)

    def strings(value) -> int:
        if isinstance(value, dict):
            return sum(1 + strings(v) for v in value.values())
        if isinstance(value, list):
            return sum(map(strings, value))
        return int(isinstance(value, str))

    record_strings = sum(1 if type(v) is str else len(v)
                         for name in RECORDS for r in doc[name] for v in r.values())
    record_strings += len(RECORDS["homs"]) * len(doc["homs"])
    other_strings = strings({name: v for name, v in doc.items() if name not in RECORDS})
    calls = 0

    def counting(s):
        nonlocal calls
        calls += 1
        return encode_basestring_ascii(s)

    monkeypatch.setattr(modelio, "encode_basestring_ascii", counting)
    serialize_model(model, 2)
    assert 0 < calls <= record_strings + other_strings


def _first_writer(model, bound: int) -> str:
    """serialize_model as json's encoder wrote it, sort keys included."""
    doc = _model_doc(model, bound, bound)
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
