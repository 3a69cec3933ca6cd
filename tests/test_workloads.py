"""The benchmark's verifications, run in-process at their smoke size.

``bench/workloads.py`` reads the checkers' results (``.ok`` of ``check_eat``
and ``check_morphism``, the law verdicts of ``check_pseudomonad_data``, the
records of ``natmod check``); a change to a checker that breaks what it reads
fails here, not only under ``bench/run.py``.
"""

import importlib
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
try:
    from workloads import WORKLOADS
finally:
    sys.path.pop(0)

_MODULES = ("fincat", "presheaf", "natmodel", "morphism", "polyset", "freemodel", "modelio",
            "report", "cli")


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_verification_gives_its_expected_answer(workload, tmp_path):
    nm = types.SimpleNamespace(**{
        name: importlib.import_module(f"natmod.{name}") for name in _MODULES})
    setup, verifications = WORKLOADS[workload]
    inputs = setup(nm, 1, True, str(tmp_path))
    wrong, ran = [], 0
    for name, expected, thunk in verifications(nm, inputs):
        outcome = thunk()
        ran += 1
        if outcome != expected:
            wrong.append((name, outcome, expected))
    assert ran > 0 and wrong == []
