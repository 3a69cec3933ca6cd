import json
import subprocess
import sys

import pytest

from natmod.cli import main
from natmod.modelio import (
    BOUNDARY_RANK,
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

    def test_compose_identity(self, poly_file, tmp_path, capsys):
        ident = tmp_path / "id.json"
        ident.write_text(json.dumps({
            "I": 1, "B": 1, "A": 1, "J": 1, "s": [0], "f": [0], "t": [0],
        }))
        rc = main(["poly", "compose", str(ident), str(poly_file)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "extension-preserves-composition" in out

    def test_verify_bc_and_dist(self, capsys):
        assert main(["poly", "verify-bc", "--count", "10", "--seed", "1"]) == 0
        assert main(["poly", "verify-dist", "--count", "10", "--seed", "1"]) == 0

    def test_pseudomonad(self, capsys):
        assert main(["poly", "pseudomonad"]) == 0

    def test_env_var_overrides_default_bound(self, monkeypatch, capsys):
        monkeypatch.setenv("NATMOD_BOUND", "2")
        rc = main(["poly", "pseudomonad"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "bound=2" in out


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
