import functools
import json
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from natmod import polyset
from natmod.cli import main
from natmod.modelio import (
    BOUNDARY_RANK,
    MissingCell,
    ParseError,
    TableCategory,
    parse_model,
    parse_polynomial,
    reserialize_model,
    serialize_model,
    serialize_polynomial,
)
from natmod.freemodel import term_model
from natmod.natmodel import check_eat
from natmod.report import Findings, VerificationReport

from helpers import deadline, one_object_file


@pytest.fixture
def term_model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(serialize_model(term_model(range(1)), 2))
    return path


@pytest.fixture
def poly_file(tmp_path):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps({
        "I": 1, "B": 3, "A": 2, "J": 1,
        "s": [0, 0, 0], "f": [0, 0, 1], "t": [0, 0],
    }))
    return path


class TestModelIO:
    def test_serialize_parse_roundtrip_is_byte_identical(self, term_model_file):
        text = term_model_file.read_text()
        assert reserialize_model(text) == text

    def test_parsed_model_passes_eat_on_its_complete_core(self, term_model_file):
        model = parse_model(term_model_file.read_text())
        # contexts whose extensions stay in the file rank 0; the checker
        # quantifies over them while operations remain total on the rest
        assert check_eat(model, 0, ty_bound=2).ok

    def test_table_categories_share_no_ranks(self):
        cats = [
            TableCategory(object_keys=["*"], homs={("*", "*"): ["id"]},
                          compose_table={("id", "id"): "id"}, identities={"*": "id"})
            for _ in range(2)
        ]
        cats[0].ranks["*"] = 0
        assert cats[1].obj_size("*") == BOUNDARY_RANK

    def test_unknown_fields_rejected(self, term_model_file):
        doc = json.loads(term_model_file.read_text())
        doc["extra"] = 1
        with pytest.raises(ParseError):
            parse_model(json.dumps(doc))

    def test_missing_fields_rejected(self, term_model_file):
        doc = json.loads(term_model_file.read_text())
        del doc["ext"]
        with pytest.raises(ParseError):
            parse_model(json.dumps(doc))

    def test_polynomial_roundtrip(self, poly_file):
        p = parse_polynomial(poly_file.read_text())
        text = serialize_polynomial(p)
        assert serialize_polynomial(parse_polynomial(text)) == text

    def test_polynomial_bad_shape_rejected(self):
        with pytest.raises(ParseError):
            parse_polynomial(json.dumps({"I": 1, "B": 1, "A": 1, "J": 1, "s": [0], "f": [0]}))
        with pytest.raises(ParseError):
            parse_polynomial(json.dumps({
                "I": 1, "B": 1, "A": 1, "J": 1,
                "s": [0], "f": [5], "t": [0],
            }))

    @pytest.mark.parametrize("field,value,message", [
        ("I", True, "I must be a non-negative integer size, got true"),
        ("B", 3.0, "B must be a non-negative integer size, got 3.0"),
        ("A", False, "A must be a non-negative integer size, got false"),
        ("J", "1", 'J must be a non-negative integer size, got "1"'),
        ("s", [0, 0, True], "s value true is not an integer"),
        ("f", [0, False, 1], "f value false is not an integer"),
        ("t", [0, 0.0], "t value 0.0 is not an integer"),
    ])
    def test_a_non_integer_size_or_value_is_a_parse_error(
        self, poly_file, field, value, message, capsys
    ):
        doc = json.loads(poly_file.read_text())
        doc[field] = value
        poly_file.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_polynomial(poly_file.read_text())
        assert main(["poly", "extend", str(poly_file)]) == 2
        assert capsys.readouterr().err == f"parse error: {message}\n"


class TestCheckCommand:
    def test_good_model_exits_zero(self, term_model_file, capsys):
        rc = main(["check", str(term_model_file), "--bound", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "result: PASS" in out

    def test_broken_composition_table_exits_one_and_cites_the_law(
        self, term_model_file, capsys
    ):
        doc = json.loads(term_model_file.read_text())
        # redirect one composite with an identity to break a unit law
        idents = set(doc["identities"].values())
        for entry in doc["compose"]:
            if entry["f"] in idents and entry["gf"] == entry["g"] and entry["g"] not in idents:
                entry["gf"] = doc["identities"][doc["objects"][0]]
                break
        term_model_file.write_text(json.dumps(doc))
        rc = main(["check", str(term_model_file), "--bound", "2"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL" in out and "unit law" in out

    def test_malformed_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["check", str(bad)])
        assert rc == 2


class TestFreeCommand:
    def test_term_model_construction(self, capsys):
        rc = main(["free", "term-model", "--base", "term-model:1", "--bound", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "initiality-selfmap-unique" in out

    def test_unit_construction_with_machine_format(self, capsys):
        rc = main([
            "free", "unit", "--base", "term-model:0", "--bound", "2",
            "--format", "machine",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert records[0]["record"] == "header"
        assert all(r["status"] == "pass" for r in records[1:])

    def test_term_requires_type_argument(self, capsys):
        rc = main(["free", "term", "--base", "term-model:1", "--bound", "2"])
        assert rc == 2

    def test_serialized_output_model_reparses(self, tmp_path, capsys):
        out_model = tmp_path / "out.json"
        rc = main([
            "free", "type", "--base", "term-model:0", "--bound", "2",
            "--out-model", str(out_model),
        ])
        assert rc == 0
        model = parse_model(out_model.read_text())
        assert check_eat(model, 0, ty_bound=2).ok

    @pytest.mark.parametrize("fmt", ["text", "machine"])
    def test_timing_adds_the_time_and_changes_nothing_else(self, fmt, capsys):
        argv = ["free", "unit", "--base", "term-model:0", "--bound", "1", "--format", fmt]
        assert main(argv) == 0
        plain = capsys.readouterr().out.splitlines()
        assert main(argv + ["--timing"]) == 0
        timed = capsys.readouterr().out.splitlines()
        if fmt == "text":
            assert timed[:-1] == plain and re.fullmatch(r"time: \d+\.\d\ds", timed[-1])
        else:
            header = json.loads(timed[0])
            assert isinstance(header.pop("time_s"), float)
            assert header == json.loads(plain[0]) and timed[1:] == plain[1:]

    def test_reports_are_reproducible(self, tmp_path):
        out1 = tmp_path / "r1.txt"
        out2 = tmp_path / "r2.txt"
        for out in (out1, out2):
            rc = main([
                "free", "unit", "--base", "term-model:0", "--bound", "2",
                "--out", str(out),
            ])
            assert rc == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestPolyCommand:
    def test_extend_counts(self, poly_file, capsys):
        rc = main(["poly", "extend", str(poly_file), "--family", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        # fibres have sizes 2 and 1: 9 + 3 = 12 dependent pairs
        assert "12 elements" in out

    def test_extend_over_the_empty_index_takes_the_empty_family(self, tmp_path, capsys):
        path = tmp_path / "empty-index.json"
        path.write_text(json.dumps({"I": 0, "B": 0, "A": 2, "J": 1, "s": [], "f": [],
                                    "t": [0, 0]}))
        assert main(["poly", "extend", str(path), "--family", ""]) == 0
        assert "PASS  component-0  -- 2 elements\n" in capsys.readouterr().out

    def test_extend_defaults_to_one_element_at_each_index(self, tmp_path, capsys):
        path = tmp_path / "two-index.json"
        path.write_text(json.dumps({"I": 2, "B": 2, "A": 1, "J": 1, "s": [0, 1], "f": [0, 0],
                                    "t": [0]}))
        assert main(["poly", "extend", str(path)]) == 0
        # one position with one direction into each one-element index: 1 element
        assert "PASS  component-0  -- 1 elements\n" in capsys.readouterr().out

    def test_compose_identity(self, poly_file, tmp_path, capsys):
        ident = tmp_path / "id.json"
        ident.write_text(json.dumps({
            "I": 1, "B": 1, "A": 1, "J": 1, "s": [0], "f": [0], "t": [0],
        }))
        rc = main(["poly", "compose", str(ident), str(poly_file)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS  extension-preserves-composition" in out
        assert "elements at index 0" in out

    def test_compose_fails_on_a_non_natural_iso(self, poly_file, monkeypatch, capsys):
        # the iso at X' sends every block's elements in reverse order: still a
        # bijection per index, but no longer natural along X -> X'
        real = polyset.compose_extension_iso
        calls = []

        def reversed_at_the_second_family(g, f, family):
            calls.append(family)
            isos = real(g, f, family)
            if len(calls) == 1:
                return isos
            out = {}
            for k, (fwd, _) in isos.items():
                bad = polyset.FinMap(fwd.dom, fwd.cod, tuple(zip(fwd.dom, reversed(fwd.cod))))
                out[k] = (bad, bad.inverse())
            return out

        monkeypatch.setattr(polyset, "compose_extension_iso", reversed_at_the_second_family)
        rc = main(["poly", "compose", str(poly_file), str(poly_file), "--bound", "2"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL  extension-preserves-composition  -- at 0: not natural at ((" in out

    def test_compose_fails_when_the_iso_does_not_build(self, poly_file, monkeypatch, capsys):
        def constant(g, f, family):
            lhs = polyset.extend(polyset.compose(g, f), family)
            rhs = polyset.extend(g, polyset.extend(f, family))
            return {k: (polyset.fin_map(lhs[k], rhs[k], lambda _, k=k: rhs[k][0]).inverse(), None)
                    for k in g.J}

        monkeypatch.setattr(polyset, "compose_extension_iso", constant)
        rc = main(["poly", "compose", str(poly_file), str(poly_file), "--bound", "2"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL  extension-preserves-composition  -- a map does not build: " \
               "not a bijection: ((" in out
        assert "both go to" in out

    def test_compose_over_an_empty_extension_is_vacuous(self, poly_file, capsys):
        # seed 2 draws the empty family, so P_{g·f}(X) has no element to check
        rc = main(["poly", "compose", str(poly_file), str(poly_file), "--seed", "2"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "VACUOUS  extension-preserves-composition  -- 0 instances at bound 3" in out

    def test_compose_of_mismatched_files_is_a_parse_error(self, poly_file, tmp_path, capsys):
        two = tmp_path / "two.json"
        two.write_text(json.dumps({
            "I": 2, "B": 1, "A": 1, "J": 1, "s": [0], "f": [0], "t": [0],
        }))
        assert main(["poly", "compose", str(two), str(poly_file)]) == 2
        assert "middle index sets do not match" in capsys.readouterr().err

    def test_verify_bc_and_dist(self, capsys):
        assert main(["poly", "verify-bc", "--count", "10", "--seed", "1"]) == 0
        assert main(["poly", "verify-dist", "--count", "10", "--seed", "1"]) == 0

    @pytest.mark.parametrize("subcmd,name", [
        ("verify-bc", "beck-chevalley"), ("verify-dist", "distributivity")])
    def test_a_random_check_at_bound_0_draws_nothing_and_is_vacuous(self, subcmd, name, capsys):
        # the random sets need at least one element, which bound 0 leaves no room for
        assert main(["poly", subcmd, "--bound", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == (f"# poly-{subcmd} (bound=0, seed=0)\n"
                                f"VACUOUS  {name}  -- 0 instances at bound 0\nresult: FAIL\n")
        assert captured.err == ""
        assert main(["poly", subcmd, "--bound", "1"]) == 0
        assert f"\nPASS  {name}  -- 50 instances, 0 failures\n" in capsys.readouterr().out

    def test_pseudomonad(self, capsys):
        assert main(["poly", "pseudomonad"]) == 0

    def test_env_var_overrides_default_bound(self, monkeypatch, capsys):
        monkeypatch.setenv("NATMOD_BOUND", "2")
        rc = main(["poly", "pseudomonad"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "bound=2" in out

    def test_env_var_zero_is_bound_zero(self, monkeypatch, capsys):
        monkeypatch.setenv("NATMOD_BOUND", "0")
        assert main(["poly", "pseudomonad"]) == 0
        assert "bound=0" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["abc", "-4", "", "1.5"])
    def test_a_bad_env_var_bound_is_a_parse_error(self, monkeypatch, value, capsys):
        monkeypatch.setenv("NATMOD_BOUND", value)
        assert main(["poly", "pseudomonad"]) == 2
        assert capsys.readouterr().err == \
            f"parse error: NATMOD_BOUND must be a non-negative integer, got {value!r}\n"

    @pytest.mark.parametrize("argv,message", [
        (["extend"], "poly extend takes 1 polynomial file, got 0"),
        (["extend", "P", "P"], "poly extend takes 1 polynomial file, got 2"),
        (["compose", "P"], "poly compose takes 2 polynomial files, got 1"),
        (["compose", "P", "P", "P"], "poly compose takes 2 polynomial files, got 3"),
        (["verify-bc", "P"], "poly verify-bc takes 0 polynomial files, got 1"),
        (["verify-dist", "P"], "poly verify-dist takes 0 polynomial files, got 1"),
        (["pseudomonad", "P"], "poly pseudomonad takes 0 polynomial files, got 1"),
        (["extend", "P", "--family", "-1"], "--family sizes must be non-negative, got -1"),
        (["extend", "P", "--family", "1,2"], "--family needs 1 sizes, got 2"),
    ])
    def test_wrong_file_arguments_are_parse_errors(self, poly_file, argv, message, capsys):
        rc = main(["poly"] + [str(poly_file) if a == "P" else a for a in argv])
        assert rc == 2
        assert capsys.readouterr().err == f"parse error: {message}\n"


class TestConsoleEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "natmod.cli", "poly", "pseudomonad"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "result: PASS" in proc.stdout


class TestFreeSigmaAndComposite:
    def test_sigma_construction(self, capsys):
        rc = main(["free", "sigma", "--base", "term-model:1", "--bound", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "sigma-structure" in out

    def test_poly_compose_construction(self, capsys):
        rc = main(["free", "poly-compose", "--base", "term-model:1", "--bound", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "representability-oracle" in out


class TestConstructionsOverFileModels:
    def test_free_extensions_over_a_parsed_fragment(self, tmp_path):
        from natmod.freemodel import (
            extend_by_term,
            extend_by_type,
            extend_by_unit,
            term_model,
        )
        from natmod.modelio import serialize_model
        from natmod.natmodel import check_unit

        path = tmp_path / "base.json"
        path.write_text(serialize_model(term_model(range(1)), 3))
        table = parse_model(path.read_text())
        u = extend_by_unit(table)
        assert check_eat(u, 2).ok
        assert check_unit(u, u.unit_structure, 1).ok
        assert check_eat(extend_by_type(table), 2).ok
        assert check_eat(extend_by_term(table, "T0"), 2).ok

    def test_free_command_accepts_a_file_base(self, term_model_file, capsys):
        rc = main([
            "free", "unit", "--base", str(term_model_file), "--bound", "1",
        ])
        out = capsys.readouterr().out
        assert rc == 0, out

    @pytest.mark.parametrize("kind,bound", [("type", "1"), ("unit", "2"), ("sigma", "2")])
    def test_a_file_whose_core_is_closed_under_extension_is_a_base(
        self, kind, bound, tmp_path, capsys
    ):
        # every type extends the one object to itself; Σ's canonical
        # pullbacks are chased from one cone vertex, since every context of
        # its extension is isomorphic to the one object
        path = tmp_path / "one.json"
        path.write_text(one_object_file(["a|b", "c", "a", "b|c"]))
        with deadline(10):
            rc = main(["free", kind, "--base", str(path), "--bound", bound])
        out = capsys.readouterr().out
        assert rc == 0 and out.endswith("result: PASS\n"), out

    def test_an_identity_term_cell_set_to_another_term_fails_without_a_traceback(
        self, tmp_path, capsys
    ):
        # each identity subst_tm cell of a unit file whose context has
        # another term is set to the first such term; four of these left F♯
        # without an induced substitution, which check_morphism raised
        path = tmp_path / "u.json"
        assert main(["free", "unit", "--base", "term-model:1", "--bound", "2",
                     "--out-model", str(path)]) == 0
        capsys.readouterr()
        text = path.read_text()
        doc = json.loads(text)
        ctx_of = {ident: ctx for ctx, ident in doc["identities"].items()}
        terms = {}
        for row in doc["typeof"]:
            terms.setdefault(row["ctx"], []).append(row["term"])
        sites = [(i, other) for i, row in enumerate(doc["subst_tm"]) if row["mor"] in ctx_of
                 for other in [t for t in terms[ctx_of[row["mor"]]] if t != row["out"]][:1]]
        codes = []
        for i, other in sites:
            mutant = json.loads(text)
            mutant["subst_tm"][i]["out"] = other
            path.write_text(json.dumps(mutant))
            codes.append(main(["free", "type", "--base", str(path), "--bound", "1"]))
            out, err = capsys.readouterr()
            assert err == "" and (codes[-1] == 0) == out.endswith("result: PASS\n"), out
        assert codes == [0, 0, 1, 1, 1, 1, 0, 0, 1]


class TestFailingRecordsNameTheirWitness:
    def test_a_broken_identity_cell_of_a_base_file_is_named(self, tmp_path, capsys):
        # star[id] := x0 over ⋄•T0 breaks (xiv) in the extension and the
        # naturality of its mediating morphism
        path = tmp_path / "u.json"
        assert main(["free", "unit", "--base", "term-model:1", "--bound", "2",
                     "--out-model", str(path)]) == 0
        capsys.readouterr()
        doc = json.loads(path.read_text())
        ident = doc["identities"]["ix(fs[0]|0)"]
        next(r for r in doc["subst_tm"] if (r["mor"], r["term"]) == (ident, "star"))["out"] = "x0"
        path.write_text(json.dumps(doc))
        assert main(["free", "type", "--base", str(path), "--bound", "1"]) == 1
        out = capsys.readouterr().out
        assert ("\nFAIL  eat  -- xiv: identity action fails at " + r"'ix(ix(fs[0]\\|0)|0)'"
                + " on 'star' (+1 more)\n") in out
        fail = re.search(r"\nFAIL  mediating-strict  -- (.*)\n", out).group(1)
        assert fail.startswith("tm-natural: star[") and fail.endswith("] (+5 more)")
        assert "\nPASS  inclusion-strict\n" in out and out.endswith("result: FAIL\n")

    def test_the_detail_is_the_first_failing_law_that_decides(self):
        findings = Findings(2, 3, laws=frozenset({"b", "c"}))
        findings.add("a", "not deciding")
        findings.record("d", True)
        findings.add("b", "first")
        findings.add("b", "second")
        findings.add("b", "third")
        findings.record("c", False)
        report = VerificationReport("r", 2)
        report.add_findings("x", findings)
        assert [(c.status, c.detail) for c in report.checks] == [("fail", "b: first (+2 more)")]
        alone = Findings(2, 1)
        alone.record("c", False)
        assert alone.first_failure() == "c"
        passing = Findings(2, 1, laws=frozenset({"b"}))
        passing.add("a", "not deciding")
        assert passing.ok and passing.first_failure() == ""


class TestBadInputExitsTwo:
    @pytest.mark.parametrize("section", ["typeof", "subst_ty", "subst_tm", "compose"])
    def test_a_missing_row_is_a_parse_error(self, section, term_model_file, capsys):
        doc = json.loads(term_model_file.read_text())
        del doc[section][0]
        term_model_file.write_text(json.dumps(doc))
        assert main(["check", str(term_model_file)]) == 2
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.update(objects=5),
        lambda doc: doc.update(identities=list(doc["identities"].values())),
        lambda doc: doc["subst_ty"].append({"mor": "nope", "type": "T0", "out": "T0"}),
        lambda doc: doc["ext"][0].update(proj="nope"),
        lambda doc: doc["homs"][0].update(mors="f"),
        lambda doc: doc["ty"]["fs[0]"].append("T0"),
        lambda doc: doc["tm"]["fs[0]"].append("x0"),
    ], ids=["objects-not-an-array", "identities-not-a-map", "unknown-morphism",
            "dangling-proj", "mors-not-an-array", "repeated-type", "repeated-term"])
    def test_a_malformed_section_or_unknown_key_is_a_parse_error(
        self, edit, term_model_file, capsys
    ):
        doc = json.loads(term_model_file.read_text())
        edit(doc)
        term_model_file.write_text(json.dumps(doc))
        assert main(["check", str(term_model_file)]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_negative_bound_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["free", "sigma", "--bound", "-1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("subcmd", ["verify-bc", "verify-dist"])
    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_a_count_below_one_is_rejected(self, subcmd, count, capsys):
        # zero instances would pass vacuously
        with pytest.raises(SystemExit) as exc:
            main(["poly", subcmd, "--count", count])
        assert exc.value.code == 2
        assert "count must be at least 1" in capsys.readouterr().err

    def test_unknown_closed_type_is_rejected(self, capsys):
        assert main(["free", "term", "--base", "term-model:1", "--type", "NOPE"]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_a_construction_past_a_file_fragment_names_the_missing_cell(
        self, tmp_path, capsys
    ):
        fragment = tmp_path / "s.json"
        assert main(["free", "sigma", "--base", "term-model:1", "--bound", "2",
                     "--out-model", str(fragment)]) == 0
        capsys.readouterr()
        assert main(["free", "sigma", "--base", str(fragment), "--bound", "1"]) == 2
        err = capsys.readouterr().err
        assert "no ext cell for ('tr(fs[0,0]|)', 'T0')" in err
        assert "Traceback" not in err

    def test_a_missing_cell_is_not_a_value_error(self, term_model_file):
        # rival searches prune on ValueError; a truncated file is no answer
        model = parse_model(term_model_file.read_text())
        with pytest.raises(MissingCell) as exc:
            model.ext("no-such-context", "T0")
        assert not isinstance(exc.value, ValueError)

    @pytest.mark.parametrize("call,section,cell", [
        (lambda m: m.typeof("fs[]", "bogus"), "typeof", ("fs[]", "bogus")),
        (lambda m: m.subst_ty("fs[]=>fs[]:()", "bogus"), "subst_ty", ("fs[]=>fs[]:()", "bogus")),
        (lambda m: m.subst_tm("fs[]=>fs[]:()", "bogus"), "subst_tm", ("fs[]=>fs[]:()", "bogus")),
    ], ids=["typeof", "subst_ty", "subst_tm"])
    def test_a_cell_the_file_does_not_hold_is_a_missing_cell(
        self, term_model_file, call, section, cell
    ):
        model = parse_model(term_model_file.read_text())
        with pytest.raises(MissingCell) as exc:
            call(model)
        assert not isinstance(exc.value, KeyError)
        assert str(exc.value) == f"the model file holds no {section} cell for {cell}"

    def test_term_model_construction_needs_a_term_model_base(self, term_model_file, capsys):
        assert main(["free", "term-model", "--base", str(term_model_file)]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_a_negative_term_model_base_is_rejected(self, capsys):
        # term-model:-2 would be the empty family, and every check would pass
        assert main(["free", "type", "--base", "term-model:-2", "--bound", "1"]) == 2
        assert capsys.readouterr().err == \
            "parse error: term-model:N needs a non-negative N, got -2\n"

    @pytest.mark.parametrize("edit", [
        lambda path: path.unlink(),
        lambda path: path.write_text(json.dumps({"objects": []})),
    ], ids=["missing-file", "missing-sections"])
    def test_a_base_file_that_does_not_load_is_a_parse_error(
        self, edit, term_model_file, capsys
    ):
        edit(term_model_file)
        assert main(["free", "type", "--base", str(term_model_file), "--bound", "1"]) == 2
        assert capsys.readouterr().err.startswith("parse error: ")

    @pytest.mark.parametrize("text,message", [
        ("{not json", "invalid JSON: "),
        ("[1, 2]", "polynomial file must be a JSON object"),
    ])
    def test_a_polynomial_file_that_is_no_json_object_is_a_parse_error(
        self, text, message, tmp_path, capsys
    ):
        path = tmp_path / "poly.json"
        path.write_text(text)
        assert main(["poly", "extend", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"parse error: {message}")

    @pytest.mark.parametrize("argv", [
        ["check", "{file}"],
        ["free", "type", "--base", "{file}", "--bound", "1"],
        ["poly", "extend", "{file}"],
    ], ids=["check", "free-base", "poly"])
    def test_a_file_that_is_not_utf8_is_a_parse_error(self, argv, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes('{"objects": ["Γ"]}'.encode("utf-16"))
        assert main([arg.format(file=path) for arg in argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("parse error: 'utf-8' codec can't decode")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--out", "--out-model"])
    def test_a_path_that_cannot_be_written_is_a_parse_error(self, flag, tmp_path, capsys):
        path = tmp_path / "no-such-dir" / "out.txt"
        assert main(["free", "term-model", "--base", "term-model:1", "--bound", "1",
                     flag, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"parse error: cannot write {path}: No such file or directory\n"


@pytest.fixture(scope="module")
def two_type_model_text():
    # bound 3 gives a core (the contexts of size <= 2) with every kind of cell
    return serialize_model(term_model(range(2)), 3)


def _failing_checks(tmp_path, text: str) -> tuple[int, list[str]]:
    """Run ``natmod check`` on a model text; its exit code and failing checks."""
    path, report = tmp_path / "model.json", tmp_path / "report.jsonl"
    path.write_text(text)
    rc = main(["check", str(path), "--bound", "3", "--format", "machine",
               "--out", str(report)])
    records = [json.loads(line) for line in report.read_text().splitlines()]
    return rc, [r["name"] for r in records
                if r["record"] == "check" and r["status"] == "fail"]


class TestOneCellMutationsNameTheirLaw:
    @pytest.fixture(autouse=True)
    def _doc(self, two_type_model_text):
        self.doc = json.loads(two_type_model_text)
        self.core = set(parse_model(two_type_model_text).base.objects(0))
        self.ids = self.doc["identities"]
        self.homs = {(h["src"], h["dst"]): h["mors"] for h in self.doc["homs"]}
        self.ends = {m: key for key, ms in self.homs.items() for m in ms}

    def _check(self, tmp_path):
        return _failing_checks(tmp_path, json.dumps(self.doc))

    def _identity_row(self, table: str, values: dict) -> tuple[dict, str]:
        """A row of ``table`` at an identity of the core, and another value."""
        for row in self.doc[table]:
            g = self.ends[row["mor"]][0]
            if g in self.core and row["mor"] == self.ids[g]:
                others = [v for v in values.get(g, []) if v != row["out"]]
                if others:
                    return row, others[0]
        raise AssertionError(f"no identity row with an alternative in {table}")

    def test_compose_cell_breaking_a_unit_law(self, tmp_path):
        for row in self.doc["compose"]:
            src, dst = self.ends[row["f"]]
            others = [m for m in self.homs[(src, dst)] if m != row["f"]]
            if row["g"] == self.ids[dst] and {src, dst} <= self.core and others:
                row["gf"] = others[0]
                break
        rc, fails = self._check(tmp_path)
        assert rc == 1
        assert "category-laws" in fails
        assert {"eat-v", "eat-vi"} & set(fails)

    def test_changed_type_substitution_along_an_identity(self, tmp_path):
        row, other = self._identity_row("subst_ty", self.doc["ty"])
        row["out"] = other
        rc, fails = self._check(tmp_path)
        assert rc == 1 and "eat-xi" in fails

    def test_changed_term_substitution_along_an_identity(self, tmp_path):
        row, other = self._identity_row("subst_tm", self.doc["tm"])
        row["out"] = other
        rc, fails = self._check(tmp_path)
        assert rc == 1 and "eat-xiv" in fails

    def test_broken_naturality_of_typing(self, tmp_path):
        # retype a term over Γ that some non-identity map into Γ moves
        targets = {dst for m, (src, dst) in self.ends.items()
                   if {src, dst} <= self.core and m != self.ids[src]}
        for row in self.doc["typeof"]:
            if row["ctx"] in targets:
                row["type"] = next(t for t in self.doc["ty"][row["ctx"]] if t != row["type"])
                break
        rc, fails = self._check(tmp_path)
        assert rc == 1 and "eat-xviii" in fails


@pytest.mark.parametrize("kind", ["compose", "identities", "subst_tm", "subst_ty", "typeof"])
def test_benchmark_mutation_kind_fails_the_check_it_names(kind, two_type_model_text, tmp_path):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        from workloads import LAW, mutate, mutation_sites
    finally:
        sys.path.pop(0)
    kinds = sorted(mutation_sites(json.loads(two_type_model_text)))
    got, law, text = mutate(two_type_model_text, kinds.index(kind), random.Random(kind))
    assert (got, law) == (kind, LAW[kind])
    rc, fails = _failing_checks(tmp_path, text)
    assert rc == 1 and law in fails


@pytest.mark.parametrize("section,field", [
    ("typeof", "type"), ("subst_ty", "out"), ("subst_tm", "out"), ("compose", "gf"),
])
def test_a_value_naming_no_element_fails_a_check_without_a_traceback(
    section, field, term_model_file, capsys
):
    # every row of the section names a known key of the wrong sort or hom set
    doc = json.loads(term_model_file.read_text())
    for row in doc[section]:
        row[field] = doc["identities"][doc["terminal"]]
    term_model_file.write_text(json.dumps(doc))
    assert main(["check", str(term_model_file), "--bound", "2"]) == 1
    assert "FAIL" in capsys.readouterr().out


class TestFileCellsTheDataPointsAt:
    def test_a_projection_into_a_boundary_object_fails_xxvii_without_a_traceback(
        self, tmp_path, capsys
    ):
        path = tmp_path / "f.json"
        assert main(["free", "term-model", "--base", "term-model:1", "--bound", "2",
                     "--out-model", str(path)]) == 0
        capsys.readouterr()
        doc = json.loads(path.read_text())
        next(r for r in doc["ext"] if r["ctx"] == "fs[0]")["proj"] = "fs[0,0]=>fs[0,0]:(0,1)"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path), "--bound", "2"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  eat-xxvii" in out and "FAIL  eat-xx  -- cod(p) for (fs[0], T0)" in out
        eat = check_eat(parse_model(path.read_text()), 0, ty_bound=2)
        xxvii = eat.violations["xxvii"]
        assert any("no ext cell for ('fs[0,0]', 'T0')" in v for v in xxvii)
        # a FAIL line prints the first witness and counts the others
        lines = out.splitlines()
        assert len(xxvii) > 1 and len(eat.violations["xx"]) == 1
        assert f"FAIL  eat-xxvii  -- {xxvii[0]} (+{len(xxvii) - 1} more)" in lines
        assert "FAIL  eat-xx  -- cod(p) for (fs[0], T0)" in lines


    @pytest.mark.parametrize("section,key,field,eq", [
        ("subst_ty", "mor", "out", "xiii"),
        ("subst_tm", "mor", "out", "xvi"),
        ("typeof", "ctx", "type", "xvii"),
    ])
    def test_a_boundary_cell_of_the_wrong_sort_fails_its_equation(
        self, section, key, field, eq, tmp_path, capsys
    ):
        # a row over a boundary object lies outside check_eat's core; its
        # value is set to an object key, which is no type or term at all
        path = tmp_path / "f.json"
        assert main(["free", "term-model", "--base", "term-model:1", "--bound", "2",
                     "--out-model", str(path)]) == 0
        capsys.readouterr()
        doc = json.loads(path.read_text())
        model = parse_model(path.read_text())
        core = set(model.base.objects(0))
        row = next(r for r in doc[section]
                   if (model.base.dom(r[key]) if key == "mor" else r[key]) not in core)
        row[field] = "fs[0]"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path), "--bound", "2"]) == 1
        out = capsys.readouterr().out
        assert f"FAIL  eat-{eq}  -- {section} row ({row[key]}, " in out
        assert "'fs[0]', not a " in out


class TestVacuousChecks:
    @pytest.mark.parametrize("bound", [0, 1])
    def test_sigma_structure_over_no_instance_is_vacuous_and_fails(self, bound, capsys):
        assert main(["free", "sigma", "--bound", str(bound)]) == 1
        out = capsys.readouterr().out
        assert f"\nVACUOUS  sigma-structure  -- 0 instances at bound {bound}\n" in out
        assert "PASS  sigma-structure" not in out
        assert out.endswith("result: FAIL\n")

    @pytest.mark.parametrize("argv", [
        ["free", "poly-compose", "--bound", "1"],
        ["free", "term-model", "--base", "term-model:0", "--bound", "0"],
    ])
    def test_an_oracle_over_no_square_is_vacuous_and_fails(self, argv, capsys):
        assert main(argv) == 1
        out = capsys.readouterr().out
        bound = argv[-1]
        assert f"\nVACUOUS  representability-oracle  -- 0 instances at bound {bound}\n" in out
        assert "PASS  representability-oracle" not in out
        assert out.endswith("result: FAIL\n")

    def test_a_term_extension_below_its_root_is_vacuous_and_fails(self, capsys):
        # the root (⋄;) lies over ⋄•O, of size 1: at bound 0 the extension
        # has no context, while the inclusion still checks the inner ⋄
        assert main(["free", "term", "--type", "T0", "--bound", "0"]) == 1
        out = capsys.readouterr().out
        for name in ("eat", "mediating-strict", "universal-property-unique"):
            assert f"\nVACUOUS  {name}  -- 0 instances at bound 0\n" in out
        assert "\nPASS  inclusion-strict\n" in out
        assert out.endswith("result: FAIL\n")

    def test_the_machine_status_is_vacuous(self, capsys):
        assert main(["free", "sigma", "--bound", "1", "--format", "machine"]) == 1
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        status = {r["name"]: r["status"] for r in records if r["record"] == "check"}
        assert status["sigma-structure"] == "vacuous"
        assert records[0]["result"] == "fail"

    @pytest.mark.parametrize("bound,edit", [
        (0, lambda doc: None),
        (2, lambda doc: doc.update(ext=[])),
    ], ids=["bound-0-file", "file-without-ext"])
    def test_a_file_with_no_complete_context_is_vacuous_and_fails(
        self, bound, edit, tmp_path, capsys
    ):
        # every context has a type whose extension the file does not hold
        path = tmp_path / "f.json"
        assert main(["free", "term-model", "--base", "term-model:1", "--bound", str(bound),
                     "--out-model", str(path)]) == 0
        capsys.readouterr()
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        assert main(["check", str(path), "--bound", str(bound)]) == 1
        out = capsys.readouterr().out
        assert f"\nVACUOUS  eat  -- 0 instances at bound {bound}\n" in out
        assert (f"\nVACUOUS  representability-oracle  -- 0 instances at bound {bound}\n"
                in out)
        assert "\nPASS  category-laws\n" in out and out.endswith("result: FAIL\n")

    def test_a_vacuous_file_still_has_the_sort_of_its_cells_checked(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        assert main(["free", "term-model", "--base", "term-model:1", "--bound", "0",
                     "--out-model", str(path)]) == 0
        capsys.readouterr()
        doc = json.loads(path.read_text())
        doc["subst_ty"][0]["out"] = doc["objects"][0]
        path.write_text(json.dumps(doc))
        assert main(["check", str(path), "--bound", "0"]) == 1
        out = capsys.readouterr().out
        assert "\nFAIL  eat-xiii  -- subst_ty row " in out and "\nVACUOUS  eat  " in out

    def test_an_inclusion_over_an_inner_model_with_no_context_is_vacuous(
        self, tmp_path, capsys
    ):
        # a bound-0 file of term-model:1 holds ⋄ but not ⋄•T0: no complete context
        path = tmp_path / "f.json"
        assert main(["free", "term-model", "--base", "term-model:1", "--bound", "0",
                     "--out-model", str(path)]) == 0
        capsys.readouterr()
        assert main(["free", "type", "--base", str(path), "--bound", "1"]) == 1
        out = capsys.readouterr().out
        assert "\nVACUOUS  inclusion-strict  -- 0 instances at bound 1\n" in out
        assert "PASS" not in out and out.endswith("result: FAIL\n")

    def test_a_file_with_no_extension_square_has_a_vacuous_oracle(self, tmp_path, capsys):
        # term-model:0 has the one context ⋄ and no type, so no square
        path = tmp_path / "f.json"
        assert main(["free", "term-model", "--base", "term-model:0", "--bound", "1",
                     "--out-model", str(path)]) == 1
        capsys.readouterr()
        assert main(["check", str(path), "--bound", "1"]) == 1
        out = capsys.readouterr().out
        assert "\nPASS  eat\n" in out
        assert "\nVACUOUS  representability-oracle  -- 0 instances at bound 1\n" in out

    @pytest.mark.parametrize("kind", ["term-model", "poly-compose", "term", "type", "unit",
                                      "sigma"])
    def test_out_model_writes_no_file_its_own_reader_refuses(self, kind, tmp_path, capsys):
        # the term extension's terminal ⋄•O has size 1: its bound-0 file
        # would hold no object, and so no terminal, and would not parse
        argv = ["free", kind, "--base", "term-model:1", "--type", "T0", "--bound", "0"]
        rc = main(argv)
        report = capsys.readouterr().out
        path = tmp_path / "f.json"
        assert main(argv + ["--out-model", str(path)]) == rc
        out, err = capsys.readouterr()
        assert out == report
        if kind == "term":
            assert rc == 1 and not path.exists()
            assert err == (f"not written: {path}: the terminal context xt(fs[]|) "
                           "lies past bound 0\n")
        else:
            assert err == ""
            parse_model(path.read_text())
            assert main(["check", str(path), "--bound", "0"]) != 2

    @pytest.mark.parametrize("passed", [True, False])
    def test_a_record_over_no_instance_is_vacuous_whatever_its_verdict(self, passed):
        report = VerificationReport("c", 3)
        report.add("a", passed, "detail", instances=0)
        report.add("b", passed, "detail", instances=0, bound=2)
        report.add("c", passed, "detail", instances=4)
        report.add("d", passed, "detail")
        assert [(c.status, c.detail) for c in report.checks] == [
            ("vacuous", "0 instances at bound 3"), ("vacuous", "0 instances at bound 2"),
            ("pass" if passed else "fail", "detail"), ("pass" if passed else "fail", "detail")]
        assert not report.ok

    def test_sigma_structure_with_instances_passes_unchanged(self, capsys):
        assert main(["free", "sigma", "--bound", "2"]) == 0
        out = capsys.readouterr().out
        assert "\nPASS  sigma-structure\n" in out and "VACUOUS" not in out


def _leaves(node, path=()):
    """Paths to the string cells of a model file, in document order."""
    if isinstance(node, str):
        yield path
    elif isinstance(node, (list, dict)):
        for key, child in (enumerate(node) if isinstance(node, list) else node.items()):
            yield from _leaves(child, path + (key,))


def _fuzz_files():
    from natmod.freemodel import extend_by_sigma, extend_by_term, extend_by_type, extend_by_unit

    m = term_model(range(1))
    models = [m, extend_by_term(m, "T0"), extend_by_type(m), extend_by_unit(m), extend_by_sigma(m)]
    files = []
    for model in models:
        text = serialize_model(model, 2)
        doc = json.loads(text)
        paths = list(_leaves(doc))
        strings = sorted({functools.reduce(lambda node, k: node[k], p, doc) for p in paths})
        files.append((text, paths, strings))
    return files


FUZZ_FILES = []


@settings(max_examples=600, derandomize=True, deadline=None)
@given(st.data())
def test_one_cell_mutations_keep_the_exit_code_contract(tmp_path_factory, data):
    # term, basic-type, unit and Σ files at bound 2; one string cell is set to
    # another string of the same file
    if not FUZZ_FILES:
        FUZZ_FILES.extend(_fuzz_files())
    text, paths, strings = data.draw(st.sampled_from(FUZZ_FILES))
    path = data.draw(st.sampled_from(paths))
    value = data.draw(st.sampled_from(strings))
    doc = json.loads(text)
    functools.reduce(lambda node, k: node[k], path[:-1], doc)[path[-1]] = value
    workdir = tmp_path_factory.mktemp("fuzz")
    model, report = workdir / "m.json", workdir / "report.txt"
    model.write_text(json.dumps(doc))
    rc = main(["check", str(model), "--bound", "2", "--out", str(report)])
    assert rc in (0, 1, 2)
    if rc == 1:
        assert "\nFAIL  " in report.read_text()
