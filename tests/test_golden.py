"""Golden reports: the default text reports and serialized models stay byte-identical.

The files under ``tests/data/golden`` were produced by ``natmod free KIND
--base term-model:1 --bound 2`` (``--type T0`` for ``term``), by ``natmod
check term-model-1.json --bound 2`` on the model that ``free term-model``
serializes, and by ``--out-model`` for each construction (stored as SHA-256
digests).  A refactor of the model layer must reproduce them exactly.
"""

import hashlib
import json
from pathlib import Path

import pytest

from natmod.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
KINDS = ["term-model", "term", "type", "unit", "sigma", "poly-compose"]


def _free_argv(kind: str) -> list[str]:
    argv = ["free", kind, "--base", "term-model:1", "--bound", "2"]
    if kind == "term":
        argv += ["--type", "T0"]
    return argv


@pytest.mark.parametrize("kind", KINDS)
def test_free_report_and_serialized_model_are_unchanged(kind, tmp_path, capsys):
    out_model = tmp_path / "model.json"
    assert main(_free_argv(kind) + ["--out-model", str(out_model)]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"free-{kind}.txt").read_text()
    digests = json.loads((GOLDEN / "models.sha256.json").read_text())
    assert hashlib.sha256(out_model.read_bytes()).hexdigest() == digests[kind]


def test_check_report_on_a_serialized_term_model_is_unchanged(tmp_path, capsys):
    assert main(["check", str(GOLDEN / "term-model-1.json"), "--bound", "2"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "check-term-model-1.txt").read_text()
    out_model = tmp_path / "model.json"
    assert main(_free_argv("term-model") + ["--out-model", str(out_model)]) == 0
    assert out_model.read_text() == (GOLDEN / "term-model-1.json").read_text()
