"""Checker findings, and verification reports: one record per check, emitted
as text or JSON lines.

Every checker (``check_eat``, ``check_unit``, ``check_sigma``, ``check_pi``,
``check_morphism``, ``check_pseudomonad_data``) returns its verdicts as one
:class:`Findings`, law by law; the command line turns each into a record of
a :class:`VerificationReport`.  Both follow one rule: a check over no
instance shows nothing, so it does not pass.

Reports are deterministic for a fixed (input, bound, seed): check records are
sorted by name before emission and timing is excluded from the output unless
explicitly requested, keeping default output byte-identical across runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class Findings:
    """A checker's verdicts at one ``bound``, law by law.

    ``checks`` maps each law given a verdict to it, and ``violations`` each
    failing law to its witnesses in the order found.  ``instances`` counts
    what the checker quantified over (None where not counted); over none it
    shows nothing, so it is not ``ok``, as ``VerificationReport.add`` reports
    it VACUOUS.  ``laws`` are the laws that decide ``ok``, every law when
    None; ``check_morphism`` reports more laws than its strict or weak rule
    reads.
    """

    bound: Optional[int] = None
    instances: Optional[int] = None
    laws: Optional[frozenset[str]] = None
    checks: dict[str, bool] = field(default_factory=dict)
    violations: dict[str, list[str]] = field(default_factory=dict)

    def add(self, law: str, witness: str) -> None:
        """File ``witness`` against ``law``, which fails."""
        self.record(law, False, witness)

    def record(self, law: str, ok: bool, witness: str = "") -> None:
        """Give ``law`` a verdict, a failure with its witness if there is
        one; a pass never clears a failure."""
        if ok:
            self.checks.setdefault(law, True)
            return
        self.checks[law] = False
        witnesses = self.violations.setdefault(law, [])
        if witness:
            witnesses.append(witness)

    @property
    def ok(self) -> bool:
        laws = self.checks if self.laws is None else self.laws
        return self.instances != 0 and all(self.checks.get(law, True) for law in laws)

    def first_failure(self) -> str:
        """The first failing law that decides ``ok``, in the order found,
        with its first witness and a count of the others; empty if none."""
        laws = self.checks if self.laws is None else self.laws
        law, ws = next(((law, ws) for law, ws in self.violations.items() if law in laws), ("", []))
        more = f" (+{len(ws) - 1} more)" if len(ws) > 1 else ""
        return f"{law}: {ws[0]}{more}" if ws else law


@dataclass
class CheckRecord:
    name: str
    passed: bool
    detail: str = ""
    vacuous: bool = False  # quantified over no instance: shows nothing, so not a pass

    @property
    def status(self) -> str:
        return "vacuous" if self.vacuous else "pass" if self.passed else "fail"


@dataclass
class VerificationReport:
    construction: str
    bound: int
    seed: Optional[int] = None
    checks: list[CheckRecord] = field(default_factory=list)
    timing_s: Optional[float] = None

    def add(self, name: str, passed: bool, detail: str = "",
            instances: Optional[int] = None, bound: Optional[int] = None) -> None:
        """Record a check's verdict.  ``instances`` is how many instances it
        quantified over (None where not counted); a check over none shows
        nothing, so it is VACUOUS at ``bound`` (the report's bound by
        default), not a pass, whatever ``passed`` says."""
        if instances == 0:
            bound = self.bound if bound is None else bound
            self.checks.append(CheckRecord(name, False, f"0 instances at bound {bound}", True))
        else:
            self.checks.append(CheckRecord(name, passed, detail))

    def add_findings(self, name: str, findings: Findings) -> None:
        """Record a checker's verdict with its instance count, at its bound;
        a failure names its first failing law and witness."""
        self.add(name, findings.ok, findings.first_failure(), findings.instances, findings.bound)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def sorted_checks(self) -> list[CheckRecord]:
        return sorted(self.checks, key=lambda c: c.name)

    def to_text(self, with_timing: bool = False) -> str:
        lines = [f"# {self.construction} (bound={self.bound}"
                 + (f", seed={self.seed}" if self.seed is not None else "") + ")"]
        for c in self.sorted_checks():
            line = f"{c.status.upper()}  {c.name}"
            if c.detail:
                line += f"  -- {c.detail}"
            lines.append(line)
        lines.append(f"result: {'PASS' if self.ok else 'FAIL'}")
        if with_timing and self.timing_s is not None:
            lines.append(f"time: {self.timing_s:.2f}s")
        return "\n".join(lines) + "\n"

    def to_machine(self, with_timing: bool = False) -> str:
        header = {
            "record": "header",
            "construction": self.construction,
            "bound": self.bound,
            "seed": self.seed,
            "result": "pass" if self.ok else "fail",
        }
        if with_timing and self.timing_s is not None:
            header["time_s"] = round(self.timing_s, 2)
        lines = [json.dumps(header, sort_keys=True)]
        for c in self.sorted_checks():
            lines.append(json.dumps({
                "record": "check",
                "name": c.name,
                "status": c.status,
                "detail": c.detail,
            }, sort_keys=True))
        return "\n".join(lines) + "\n"
