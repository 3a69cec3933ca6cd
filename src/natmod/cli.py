"""Command-line workbench: load descriptions, run constructions and checks.

Three command families:

* ``natmod check MODEL.json`` — category laws, the equational theory, the
  representability oracle on every extension square.  The theory is checked
  on the file's core, the objects whose extension data is complete, and
  past it by ``TableModel.sort_violations``, which evaluates each instance
  the core does not, except composition across the boundary.
* ``natmod free KIND ...`` — run a free construction and its
  universal-property verifier; optionally serialize the result.  A base
  file is first checked as ``natmod check`` checks its category laws and
  equations, and refused if it fails them.
* ``natmod poly SUBCMD ...`` — polynomial operations: extension counts,
  composition with the extension-preservation check, Beck–Chevalley and
  distributivity witnesses on seeded random instances, pseudomonad data.

Every check that quantifies over contexts, extension squares, (Γ, A, B)
pairs or elements passes its instance count to the report, and a check
over no instance is reported as VACUOUS, not PASS, and fails the run: the
Σ structure at a bound where no Σ(A, B) fits, a check over a free
construction at a bound below its every context, ``inclusion-strict``
over an inner model with no context at the bound, ``natmod check`` on a
file with no complete context or no extension square, and ``natmod poly
verify-bc`` or ``verify-dist`` at bound 0, which draws no instance, as its
random sets need at least one element.  A checker's ``Findings`` becomes
records in one way: its summary record, whose failing detail names its
first failing law and witness, and one FAIL record ``name-<law>`` per
failing law that decides it (``eat-xiv``, ``category-laws-unit-left``,
``mediating-strict-tm-natural``), with that law's first witness and a count
of the others.  ``natmod free --out-model`` writes the
construction's fragment at its check bound, at most 2; where the terminal
context lies past that bound, a file would not parse, so none is written
and one stderr line says why.  ``natmod poly extend`` reads ``--family``
as one size per index, one element at each index by default and ``""`` the
empty family.

Exit codes: 0 if all checks pass, 1 on a check failure or a vacuous check,
2 on bad input: a file that fails to parse or is incomplete, a base file
whose category laws or equations fail (one ``parse error:`` line names the
first failing law and witness; a vacuous check is no failure), a free
construction whose bound reaches past the fragment a base file holds, a
negative bound, a negative ``term-model:N``, a ``--count`` below 1, a
``--type`` that is not a closed type of the base, a ``natmod poly``
subcommand given the wrong number of files, a negative ``--family`` size, a
file that cannot be read or is not UTF-8, or an ``--out`` or ``--out-model``
path that cannot be written.
``NATMOD_BOUND`` overrides the default bound; it is read as ``--bound`` is,
and a malformed or negative value exits 2.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time
from pathlib import Path
from typing import Optional

from . import freemodel, modelio, polyset
from .fincat import check_category
from .morphism import check_morphism, count_morphisms
from .natmodel import check_eat, check_sigma, check_unit, extension_square_oracle
from .report import Findings, VerificationReport


DEFAULT_BOUND = 3
# the number of polynomial files each ``natmod poly`` subcommand reads
POLY_FILES = {"extend": 1, "compose": 2, "verify-bc": 0, "verify-dist": 0, "pseudomonad": 0}


def _default_bound() -> int:
    """``NATMOD_BOUND`` read as a ``--bound`` value, else DEFAULT_BOUND."""
    env = os.environ.get("NATMOD_BOUND")
    if env is None:
        return DEFAULT_BOUND
    try:
        return non_negative_int(env)
    except (ValueError, argparse.ArgumentTypeError):
        raise ValueError(f"NATMOD_BOUND must be a non-negative integer, got {env!r}") from None


def non_negative_int(text: str) -> int:
    """A ``--bound`` value; argparse exits 2 on a negative one."""
    bound = int(text)
    if bound < 0:
        raise argparse.ArgumentTypeError(f"bound must be non-negative, got {bound}")
    return bound


def positive_int(text: str) -> int:
    """A ``--count`` value; argparse exits 2 on one below 1."""
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"count must be at least 1, got {count}")
    return count


def _emit(report: VerificationReport, args) -> int:
    text = (
        report.to_machine(with_timing=args.timing)
        if args.format == "machine"
        else report.to_text(with_timing=args.timing)
    )
    if not args.out:
        sys.stdout.write(text)
    elif not _write(args.out, text):
        return 2
    return 0 if report.ok else 1


def _write(path: str, text: str) -> bool:
    """Write ``text`` to ``path``, or say in a parse error line that it cannot."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        sys.stderr.write(f"parse error: cannot write {path}: {exc.strerror or exc}\n")
        return False
    return True


def _parse_file(path: str, parse):
    """``parse`` of the file's text; a file that cannot be read or is not
    UTF-8 raises ParseError, as one that does not parse does."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise modelio.ParseError(str(exc)) from None
    return parse(text)


def _load_base(spec: str):
    """A base model from 'term-model:N' or a model file path."""
    if spec.startswith("term-model:"):
        n = int(spec.split(":", 1)[1])
        if n < 0:
            raise ValueError(f"term-model:N needs a non-negative N, got {n}")
        return freemodel.term_model(range(n))
    return _parse_file(spec, modelio.parse_model)


def _file_findings(model: modelio.TableModel, bound: int) -> dict[str, Findings]:
    """The category laws and the theory's equations on a model file, by
    the name of their record."""
    # a file is a fragment: the theory's quantifiers range over its core,
    # the objects whose extension data is complete, which every working
    # bound holds whole; the instances that read a boundary row are
    # evaluated by sort_violations
    eat = check_eat(model, 0, ty_bound=bound)
    eat.file(model.sort_violations())
    eat.bound = bound
    return {"category-laws": check_category(model.base), "eat": eat}


def cmd_check(args) -> int:
    t0 = time.time()
    try:
        model = _parse_file(args.model, modelio.parse_model)
    except modelio.ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 2
    report = VerificationReport("check", args.bound, args.seed)
    for name, findings in _file_findings(model, args.bound).items():
        report.add_findings(name, findings)
    oracle = extension_square_oracle(model, modelio.BOUNDARY_RANK, args.bound, 0)
    report.add(
        "representability-oracle", oracle.ok,
        f"{len(oracle.checked)} squares checked, {len(oracle.skipped)} outside the truncation",
        instances=len(oracle.checked),
    )
    report.timing_s = time.time() - t0
    return _emit(report, args)


def cmd_free(args) -> int:
    t0 = time.time()
    try:
        base = _load_base(args.base)
    except ValueError as exc:  # a ParseError, or a malformed term-model:N
        sys.stderr.write(f"parse error: {exc}\n")
        return 2
    if isinstance(base, modelio.TableModel):
        # a construction over a file that ``natmod check`` fails is built on
        # bad input; a vacuous check is no failure
        for name, findings in _file_findings(base, args.bound).items():
            if failure := findings.first_failure():
                sys.stderr.write(f"parse error: {args.base}: {name} fails {failure}\n")
                return 2
    if args.kind == "term-model" and not isinstance(base, freemodel.TermModel):
        sys.stderr.write("parse error: free term-model needs --base term-model:N\n")
        return 2
    if args.kind == "term" and args.type not in base.types(base.terminal, args.bound):
        sys.stderr.write("parse error: --type must name a closed type of the base\n")
        return 2
    report = VerificationReport(f"free-{args.kind}", args.bound, args.seed)
    try:
        model = _free_checks(args, base, report)
        if args.out_model:
            ub, terminal = min(args.bound, 2), model.base.terminal
            if terminal not in model.base.objects(ub):
                # a file must hold its terminal context, or it does not parse
                sys.stderr.write(f"not written: {args.out_model}: the terminal context "
                                 f"{terminal} lies past bound {ub}\n")
            elif not _write(args.out_model, modelio.serialize_model(model, ub)):
                return 2
    except modelio.MissingCell as exc:
        # the base is a file fragment and the bound reaches past it
        sys.stderr.write(f"parse error: {exc}; try a smaller --bound\n")
        return 2
    report.timing_s = time.time() - t0
    return _emit(report, args)


def _free_checks(args, base, report: VerificationReport):
    """Build the construction of ``args.kind`` over base, adding its checks."""
    bound, ub = args.bound, min(args.bound, 2)
    if args.kind == "term-model":
        model = base
    elif args.kind == "poly-compose":
        model = freemodel.poly_composite_models(base, base)
    elif args.kind == "term":
        model = freemodel.extend_by_term(base, args.type)
    else:
        model = {"type": freemodel.extend_by_type, "unit": freemodel.extend_by_unit,
                 "sigma": freemodel.extend_by_sigma}[args.kind](base)
    report.add_findings("eat", check_eat(model, ub if args.kind == "sigma" else bound))
    if args.kind in ("term-model", "poly-compose"):
        # the composite's squares lie over contexts one size smaller
        squares = bound if args.kind == "term-model" else bound - 1
        oracle = extension_square_oracle(model, squares + 1, squares, squares)
        report.add("representability-oracle", oracle.ok, f"{len(oracle.checked)} squares",
                   instances=len(oracle.checked))
        if args.kind == "term-model":
            images = {i: model.tys.key(i) for i in model.index}
            pins = freemodel.initiality_pins(model, model, images)
            rivals = count_morphisms(model, model, ub, pins)
            report.add("initiality-selfmap-unique", rivals == 1, f"count={rivals}")
        return model
    incl = freemodel.inclusion(model)
    if args.kind in ("term", "type"):
        # the inclusion quantifies over the inner model's contexts
        report.add_findings("inclusion-strict", check_morphism(incl, ub))
    if args.kind == "term":
        sharp = freemodel.extend_term_universal(model, incl, model.x_term)
        pins = freemodel.term_universal_pins(model, incl, model.x_term, ub)
    elif args.kind == "type":
        sharp = freemodel.type_universal(model, incl, model.new_ty)
        pins = freemodel.interleaved_universal_pins(model, incl, ub, sharp)
    elif args.kind == "unit":
        report.add_findings("unit-structure", check_unit(model, model.unit_structure, bound))
        sharp = freemodel.unit_universal(model, incl)
        pins = freemodel.interleaved_universal_pins(model, incl, ub, sharp)
    else:
        report.add_findings("sigma-structure", check_sigma(model, model.sigma_structure, ub))
        sharp = freemodel.sigma_universal(model, incl)
        pins = freemodel.sigma_universal_pins(model, incl, ub, sharp)
    mediating = check_morphism(sharp, ub)  # over the model's contexts
    report.add_findings("mediating-strict", mediating)
    count = count_morphisms(model, model, ub, pins)
    report.add("universal-property-unique", count == 1, f"count={count}",
               instances=mediating.instances, bound=ub)
    return model


def _composition_is_natural(
    g, f, gf, rng: random.Random, bound: int
) -> tuple[bool, str, Optional[int]]:
    """|P_{g·f}(X)| = |P_g(P_f(X))| per index, and the iso is natural along a
    seeded φ : X -> X', as acceptance criterion 3 (tests/test_acceptance.py) does.

    A failure names one witness: an index whose counts differ, the error of
    a map that does not build, or an element whose naturality square fails.
    The third component counts the elements of P_{g·f}(X) checked, None
    when the counts already differ.
    """
    xs = polyset.random_family(rng, f.I, bound)
    ys = polyset.random_family(rng, f.I, bound, tag="y")
    while not all(ys[i] or not xs[i] for i in f.I):  # until a map X -> X' exists
        ys = polyset.random_family(rng, f.I, bound, tag="y")
    phi = {i: polyset.random_fin_map(rng, xs[i], ys[i]) for i in f.I}
    lhs = polyset.extend(gf, xs)
    mid = polyset.extend(f, xs)
    rhs = polyset.extend(g, mid)
    for k in g.J:
        if len(lhs[k]) != len(rhs[k]):
            return (False, f"at {k}: |P_(g.f)(X)| = {len(lhs[k])}, "
                    f"|P_g(P_f(X))| = {len(rhs[k])}", None)
    elements = sum(map(len, lhs.values()))
    try:
        isos = polyset.compose_extension_iso(g, f, xs)
        isos2 = polyset.compose_extension_iso(g, f, ys)
        big = polyset.extend_map(gf, xs, ys, phi)
        pg_pf_phi = polyset.extend_map(
            g, mid, polyset.extend(f, ys), polyset.extend_map(f, xs, ys, phi))
    except ValueError as exc:
        return False, f"a map does not build: {exc}", elements
    for k in g.J:
        for el in lhs[k]:
            if isos2[k][0](big[k](el)) != pg_pf_phi[k](isos[k][0](el)):
                return False, f"at {k}: not natural at {el!r}", elements
    return True, "natural along X -> X': " + ", ".join(
        f"{len(lhs[k])} elements at index {k}" for k in g.J), elements


def cmd_poly(args) -> int:
    t0 = time.time()
    rng = random.Random(args.seed)
    report = VerificationReport(f"poly-{args.subcmd}", args.bound, args.seed)

    want = POLY_FILES[args.subcmd]
    if len(args.files) != want:
        sys.stderr.write(f"parse error: poly {args.subcmd} takes {want} polynomial "
                         f"file{'' if want == 1 else 's'}, got {len(args.files)}\n")
        return 2
    count = args.count if args.bound else 0  # no random instance fits bound 0
    try:
        if args.subcmd == "extend":
            p = _parse_file(args.files[0], modelio.parse_polynomial)
            # one element at each index by default; "" is the empty family
            sizes = ([1] * len(p.I) if args.family is None
                     else [int(s) for s in args.family.split(",")] if args.family else [])
            if len(sizes) != len(p.I):
                raise modelio.ParseError(
                    f"--family needs {len(p.I)} sizes, got {len(sizes)}"
                )
            if min(sizes, default=0) < 0:
                raise modelio.ParseError(f"--family sizes must be non-negative, got {min(sizes)}")
            family = {i: tuple(f"x{i}.{k}" for k in range(sizes[idx]))
                      for idx, i in enumerate(p.I)}
            ext = polyset.extend(p, family)
            for j in p.J:
                report.add(f"component-{j}", True, f"{len(ext[j])} elements")
        elif args.subcmd == "compose":
            g, f = (_parse_file(path, modelio.parse_polynomial) for path in args.files)
            gf = polyset.compose(g, f)
            report.add("composite", True,
                       f"positions={len(gf.A)} directions={len(gf.B)}")
            passed, detail, elements = _composition_is_natural(g, f, gf, rng, args.bound)
            report.add("extension-preserves-composition", passed, detail, elements)
        elif args.subcmd == "verify-bc":
            failures = 0
            for k in range(count):
                v, f, u, g = polyset.random_pullback_square(rng, args.bound)
                family = polyset.random_family(rng, u.dom, args.bound)
                sums, prods = polyset.beck_chevalley_witness(v, f, u, g, family)
                if not (sums.check_roundtrips() and prods.check_roundtrips()):
                    failures += 1
            report.add("beck-chevalley", failures == 0,
                       f"{count} instances, {failures} failures", count)
        elif args.subcmd == "verify-dist":
            failures = 0
            for k in range(count):
                sizes = args.bound
                b = tuple(f"b{i}" for i in range(rng.randint(1, sizes)))
                a = tuple(f"a{i}" for i in range(rng.randint(1, sizes)))
                c = tuple(f"c{i}" for i in range(rng.randint(0, sizes)))
                u = polyset.random_fin_map(rng, c, b)
                f = polyset.random_fin_map(rng, b, a)
                family = polyset.random_family(rng, c, sizes)
                w = polyset.distributivity_witness(u, f, family)
                if not w.check_roundtrips():
                    failures += 1
            report.add("distributivity", failures == 0,
                       f"{count} instances, {failures} failures", count)
        elif args.subcmd == "pseudomonad":
            for name, data in [
                ("trivial", polyset.trivial_pseudomonad()),
                ("partiality", polyset.partiality_pseudomonad()),
            ]:
                report.add_findings(f"pseudomonad-{name}", polyset.check_pseudomonad_data(*data))
    except ValueError as exc:  # a ParseError, or polynomials that do not compose
        sys.stderr.write(f"parse error: {exc}\n")
        return 2
    report.timing_s = time.time() - t0
    return _emit(report, args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="natmod",
        description="workbench for natural models over finite categories",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--bound", type=non_negative_int, default=_default_bound())
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=["text", "machine"], default="text")
        p.add_argument("--out", default=None, help="write the report to a file")
        p.add_argument("--timing", action="store_true",
                       help="include timing (breaks bit-for-bit reproducibility)")

    p_check = sub.add_parser("check", help="verify a model description file")
    p_check.add_argument("model")
    common(p_check)
    p_check.set_defaults(fn=cmd_check)

    p_free = sub.add_parser("free", help="run a free construction and its verifier")
    p_free.add_argument(
        "kind",
        choices=["term-model", "term", "type", "unit", "sigma", "poly-compose"],
    )
    p_free.add_argument("--base", default="term-model:1",
                        help="'term-model:N' or a model file path")
    p_free.add_argument("--type", default=None,
                        help="closed type key (for 'term')")
    p_free.add_argument("--out-model", default=None,
                        help="serialize the constructed model to this path")
    common(p_free)
    p_free.set_defaults(fn=cmd_free)

    p_poly = sub.add_parser("poly", help="polynomial operations and witnesses")
    p_poly.add_argument("subcmd", choices=list(POLY_FILES))
    p_poly.add_argument("files", nargs="*")
    p_poly.add_argument("--family", default=None,
                        help="comma-separated family sizes, one per index (for 'extend'; "
                             "default one element at each index, '' the empty family)")
    p_poly.add_argument("--count", type=positive_int, default=50)
    common(p_poly)
    p_poly.set_defaults(fn=cmd_poly)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        parser = build_parser()
    except ValueError as exc:  # a bad NATMOD_BOUND
        sys.stderr.write(f"parse error: {exc}\n")
        return 2
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
