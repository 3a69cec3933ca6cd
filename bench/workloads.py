"""The benchmark's four workloads.

Each workload has a ``setup`` that makes its inputs from the seed and a
``verifications`` generator that yields ``(name, expected, thunk)``.  A thunk
performs one verification -- one PASS/FAIL verdict as the acceptance suite or
the ``natmod`` command reports it -- and returns the outcome, which must equal
``expected``.  Expected answers come from the theory, never from an earlier run
of the program.  Thunks build every model they use, so each pass starts from
fresh model instances: natmod keeps its memo caches on the instances, and a CLI
user pays for filling them in every process.

``nm`` is a namespace holding the natmod modules; thunks look functions up on
it when they run, so the traced run's patches take effect.
"""

from __future__ import annotations

import json
import os
import random

# ---------------------------------------------------------------------------
# term-oracle: the inputs of acceptance criterion 1
# ---------------------------------------------------------------------------

def term_oracle_setup(nm, seed: int, small: bool, workdir: str) -> dict:
    if small:
        return {"sizes": (0, 1, 2), "eat_bound": 2, "oracle": (3, 1, 2)}
    return {"sizes": (0, 1, 2), "eat_bound": 3, "oracle": (4, 1, 3)}


def term_oracle(nm, inp: dict):
    for n in inp["sizes"]:
        box: dict = {}

        def eat(n=n, box=box):
            box["model"] = nm.freemodel.term_model(range(n))
            return nm.natmodel.check_eat(box["model"], inp["eat_bound"]).ok

        def oracle(box=box):
            return nm.natmodel.extension_square_oracle(box.pop("model"), *inp["oracle"]).ok

        yield f"term-model:{n} eat", True, eat
        yield f"term-model:{n} oracle", True, oracle


# ---------------------------------------------------------------------------
# universal: acceptance criteria 2 and 6
# ---------------------------------------------------------------------------

def universal_setup(nm, seed: int, small: bool, workdir: str) -> dict:
    # rival enumeration runs at bound 3 as in the acceptance suite; the smoke
    # size keeps every verification but enumerates at bound 2
    return {"rival_bound": 2 if small else 3}


def universal(nm, inp: dict):
    F, M = nm.freemodel, nm.morphism
    rb = inp["rival_bound"]

    # criterion 2: initiality of the two-type term model
    targets = [
        ("itself", lambda: F.term_model(range(2)), lambda t: {0: "T0", 1: "T1"}, rb),
        ("one-type term model", lambda: F.term_model(range(1)), lambda t: {0: "T0", 1: "T0"}, rb),
        ("free unit model", lambda: F.extend_by_unit(F.term_model(range(0))),
         lambda t: {0: t.new_ty, 1: t.new_ty}, 2),
        ("free basic-type model", lambda: F.extend_by_type(F.term_model(range(0))),
         lambda t: {0: t.new_ty, 1: t.new_ty}, 2),
    ]
    shared: dict = {}
    for name, build, images_of, bound in targets:
        box: dict = {}

        def strict(build=build, images_of=images_of, box=box):
            if "tm" not in shared:
                shared["tm"] = F.term_model(range(2))
            box["target"] = build()
            box["images"] = images_of(box["target"])
            fm = F.initial_morphism(shared["tm"], box["target"], box["images"])
            return M.check_morphism(fm, 2).ok

        def rivals(bound=bound, box=box):
            tm, target, images = shared["tm"], box.pop("target"), box.pop("images")
            return M.count_morphisms(tm, target, bound, F.initiality_pins(tm, target, images))

        yield f"initiality {name}: strict", True, strict
        yield f"initiality {name}: rivals", 1, rivals
    shared.clear()

    # criterion 6: the four universal properties
    def term_ext(box):
        mt = F.term_model(range(1))
        ext = F.extend_by_term(mt, "T0")
        target = F.extend_by_term(F.extend_by_type(F.term_model(range(0))), "X")
        fm = F.initial_morphism(mt, target, {0: "X"})
        sharp = F.extend_term_universal(ext, fm, "v0")
        box["rivals"] = lambda: M.count_morphisms(
            ext, target, rb, F.term_universal_pins(ext, fm, "v0", rb))
        return M.check_morphism(sharp, 2).ok and sharp.on_tm(ext.terminal, ext.x_term) == "v0"

    def type_ext(box):
        m0 = F.term_model(range(0))
        xm = F.extend_by_type(m0)
        target = F.term_model(range(1))
        f = F.initial_morphism(m0, target, {})
        sharp = F.type_universal(xm, f, "T0")
        box["rivals"] = lambda: M.count_morphisms(
            xm, target, rb, F.interleaved_universal_pins(xm, f, rb, sharp))
        return M.check_morphism(sharp, 2).ok and sharp.on_ty(xm.terminal, xm.new_ty) == "T0"

    def unit_ext(box):
        m0 = F.term_model(range(0))
        um = F.extend_by_unit(m0)
        target = F.extend_by_unit(F.term_model(range(0)))
        f = F.initial_morphism(m0, target, {})
        sharp = F.unit_universal(um, f)
        box["rivals"] = lambda: M.count_morphisms(
            um, target, rb, F.interleaved_universal_pins(um, f, rb, sharp))
        return (M.check_morphism(sharp, 2).ok
                and sharp.on_ty(um.terminal, um.new_ty) == target.new_ty)

    def sigma_ext(box):
        sm = F.extend_by_sigma(F.term_model(range(1)))
        incl = F.sigma_inclusion(sm)
        sharp = F.sigma_universal(sm, incl, bound=3)
        box["rivals"] = lambda: M.count_morphisms(
            sm, sm, rb, F.sigma_universal_pins(sm, incl, rb, sharp), ty_bound=rb)
        return M.check_morphism(sharp, 2).ok and all(
            sharp.on_obj(c) == c for c in sm.base.objects(2))

    for name, strict in [("term", term_ext), ("type", type_ext), ("unit", unit_ext),
                         ("sigma", sigma_ext)]:
        box = {}
        yield f"universal {name}: strict", True, lambda strict=strict, box=box: strict(box)
        yield f"universal {name}: rivals", 1, lambda box=box: box.pop("rivals")()


# ---------------------------------------------------------------------------
# files: serialize, write, check; mutated cells must fail
# ---------------------------------------------------------------------------

# (name, builder, serialization bound); the largest file is the basic-type
# extension at bound 3, about 2.9 MB
FILE_MODELS = [
    ("term-model:1", lambda F: F.term_model(range(1)), 3),
    ("term-model:2", lambda F: F.term_model(range(2)), 3),
    ("term T0 over term-model:1", lambda F: F.extend_by_term(F.term_model(range(1)), "T0"), 3),
    ("type over term-model:1", lambda F: F.extend_by_type(F.term_model(range(1))), 3),
    ("unit over term-model:1", lambda F: F.extend_by_unit(F.term_model(range(1))), 2),
    ("sigma over term-model:1", lambda F: F.extend_by_sigma(F.term_model(range(1))), 2),
    ("poly-compose over term-model:1",
     lambda F: (lambda m: F.poly_composite_models(m, m))(F.term_model(range(1))), 3),
]
SMALL_FILE_MODELS = [
    ("term-model:1", lambda F: F.term_model(range(1)), 2),
    ("unit over term-model:0", lambda F: F.extend_by_unit(F.term_model(range(0))), 2),
    ("sigma over term-model:1", lambda F: F.extend_by_sigma(F.term_model(range(1))), 2),
]


def core_objects(doc: dict) -> list[str]:
    """Rank-0 objects of a model file: every type over them extends inside the file.

    This is the file format's checkable core; a cell that touches only
    boundary objects is outside what ``natmod check`` quantifies over.
    """
    objs = set(doc["objects"])
    ext = {(e["ctx"], e["type"]): e["extended"] for e in doc["ext"]}
    return [o for o in doc["objects"]
            if all(ext.get((o, t)) in objs for t in doc["ty"].get(o, []))]


def mutation_sites(doc: dict) -> dict[str, list[tuple]]:
    """Cells inside the core whose change the theory says must be caught.

    Each kind breaks a law for every choice of cell and replacement:

    * ``identities``: id_a := e for another endomorphism e; then
      id_a ∘ e = e != id_a breaks the unit law (category-laws);
    * ``compose``: id_b ∘ m := m' != m breaks the unit law (category-laws);
    * ``subst_ty``: A[id] := B != A breaks equation (xi);
    * ``subst_tm``: a[id] := b != a breaks equation (xiv);
    * ``typeof``: typeof(a) := B != A leaves ⟨id, a⟩ at type B with no
      candidate, which equation (xxvii) reports.
    """
    core = core_objects(doc)
    core_set = set(core)
    homs = {(h["src"], h["dst"]): h["mors"] for h in doc["homs"]}
    ids = doc["identities"]
    sites: dict[str, list[tuple]] = {k: [] for k in
                                     ("identities", "compose", "subst_ty", "subst_tm", "typeof")}
    for a in core:
        others = [e for e in homs.get((a, a), []) if e != ids[a]]
        if others:
            sites["identities"].append((a, others))
    id_of = {ids[a]: a for a in core}
    mor_ends = {m: key for key, ms in homs.items() for m in ms}
    for k, row in enumerate(doc["compose"]):
        b = id_of.get(row["g"])
        ends = mor_ends.get(row["f"])
        if b is None or ends is None or ends[0] not in core_set or ends[1] != b:
            continue
        others = [m for m in homs[ends] if m != row["f"]]
        if others:
            sites["compose"].append((k, others))
    for table, values in (("subst_ty", doc["ty"]), ("subst_tm", doc["tm"])):
        for k, row in enumerate(doc[table]):
            g = id_of.get(row["mor"])
            if g is None:
                continue
            others = [v for v in values.get(g, []) if v != row["out"]]
            if others:
                sites[table].append((k, others))
    for k, row in enumerate(doc["typeof"]):
        if row["ctx"] in core_set:
            others = [t for t in doc["ty"].get(row["ctx"], []) if t != row["type"]]
            if others:
                sites["typeof"].append((k, others))
    return {kind: s for kind, s in sites.items() if s}


LAW = {"identities": "category-laws", "compose": "category-laws",
       "subst_ty": "eat-xi", "subst_tm": "eat-xiv", "typeof": "eat-xxvii"}


def mutate(text: str, index: int, rng: random.Random) -> tuple[str, str, str] | None:
    """One mutated copy of a model file: (kind, law it must break, new text).

    The kind is fixed by the file's index, so that every seed checks the same
    kinds and does about the same work; the seed picks the cell and its new
    value.  None when the file's core has no cell of any kind above.
    """
    doc = json.loads(text)
    sites = mutation_sites(doc)
    if not sites:
        return None
    kinds = sorted(sites)
    kind = kinds[index % len(kinds)]
    where, others = rng.choice(sites[kind])
    new = rng.choice(others)
    if kind == "identities":
        doc["identities"][where] = new
    elif kind == "compose":
        doc["compose"][where]["gf"] = new
    elif kind in ("subst_ty", "subst_tm"):
        doc[kind][where]["out"] = new
    else:
        doc["typeof"][where]["type"] = new
    return kind, LAW[kind], json.dumps(doc, sort_keys=True, indent=2) + "\n"


def files_setup(nm, seed: int, small: bool, workdir: str) -> dict:
    models = []
    for i, (name, build, bound) in enumerate(SMALL_FILE_MODELS if small else FILE_MODELS):
        text = nm.modelio.serialize_model(build(nm.freemodel), bound)
        entry = {"name": name, "index": i, "build": build, "bound": bound,
                 "path": os.path.join(workdir, f"model-{i}.json"), "mutant": None}
        mutation = mutate(text, i, random.Random(f"{seed}:{name}"))
        if mutation is not None:
            entry["kind"], entry["law"], mutant = mutation
            entry["mutant"] = os.path.join(workdir, f"mutant-{i}.json")
            with open(entry["mutant"], "w") as fh:
                fh.write(mutant)
        models.append(entry)
    return {"models": models, "workdir": workdir}


def _check(nm, path: str, bound: int, report: str) -> tuple[int, list[str]]:
    """Run ``natmod check`` in-process; return its exit code and failing check names."""
    code = nm.cli.main(["check", path, "--bound", str(bound), "--format", "machine",
                        "--out", report])
    with open(report) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    return code, [r["name"] for r in records
                  if r.get("record") == "check" and r["status"] == "fail"]


def files(nm, inp: dict):
    for m in inp["models"]:
        report = os.path.join(inp["workdir"], f"report-{m['index']}.jsonl")

        def write(m=m):
            text = nm.modelio.serialize_model(m["build"](nm.freemodel), m["bound"])
            with open(m["path"], "w") as fh:
                fh.write(text)
            return nm.modelio.reserialize_model(text) == text

        def check(m=m, report=report):
            return _check(nm, m["path"], m["bound"], report)

        def check_mutant(m=m, report=report):
            code, fails = _check(nm, m["mutant"], m["bound"], report)
            return code, m["law"] in fails

        yield f"{m['name']}: serialize round trip", True, write
        yield f"{m['name']}: check", (0, []), check
        if m["mutant"] is not None:
            yield f"{m['name']}: mutated {m['kind']} cell", (1, True), check_mutant


# ---------------------------------------------------------------------------
# polynomial: the shapes of criteria 3, 4 and 7 at size 3
# ---------------------------------------------------------------------------

# Composites follow the distribution that criterion 3's generator draws,
# stratified by n1 and n2, the numbers of elements of P_G(P_F(X)) and of
# P_G(P_F(Y)).  The naturality check's time grows about as n1**2 (2e-6 s *
# n1**2 above n1 = 100) and its memory with n2, and both reach 24,389: so
# rare large draws would make a pass's time and peak memory hang on the
# seed.  The shares below are measured (``python3 bench/workloads.py``:
# 200,000 draws, 133,749 with a map X -> Y).  The body, n1 and n2 both at
# most BODY_MAX, is drawn from the seed, round(COMPOSITES * share) instances
# in each n1 band; draws outside it are dropped.  Each tail group is instead
# represented by fixed instances, the same for every seed: the median of each
# third of the group, ordered by n1 (time) or n2 (memory).  The n1 tail is
# 0.73% of instances but most of the expected time; its largest
# representative is the slowest verification.
BODY_MAX = 300
N1_SHARES = [(0, 9, 0.89652), (10, 29, 0.06280), (30, 59, 0.00989), (60, 120, 0.00947),
             (121, 300, 0.00581)]
TAIL_GROUPS = [("n1 > 300", lambda n: n[0] > BODY_MAX, lambda n: n[0]),
               ("n1 <= 300 < n2", lambda n: n[0] <= BODY_MAX < n[1], lambda n: n[1])]
TAILS = [(0.00733, [(165, 512, 1), (1514, 730, 65), (4448, 1728, 1728)]),  # (seed, n1, n2)
         (0.00819, [(6842, 127, 345), (5178, 65, 730), (567, 8, 1728)])]
COMPOSITES, SMALL_COMPOSITES = 400, 8
POLY_COUNTS = {"beck-chevalley": 300, "distributivity": 300, "adjustment": 60}
SMALL_POLY_COUNTS = {"beck-chevalley": 5, "distributivity": 5, "adjustment": 3}


def _extension_sizes(p, sizes: dict) -> dict:
    """|P(X)_j| for every j, from the sizes |X_i| alone (no enumeration)."""
    s, f, t = p.s.as_dict, p.f.as_dict, p.t.as_dict
    out = {j: 0 for j in p.J}
    for a in p.A:
        n = 1
        for b in p.B:
            if f[b] == a:
                n *= sizes[s[b]]
        out[t[a]] += n
    return out


def composite_elements(g, f, family: dict) -> int:
    """Number of elements of P_G(P_F(X)), summed over the indices."""
    inner = _extension_sizes(f, {i: len(xs) for i, xs in family.items()})
    return sum(_extension_sizes(g, inner).values())


def draw_composite(P, rng: random.Random):
    """One instance of criterion 3 at size 3, as the acceptance suite draws it.

    Returns (g, f, X, Y, φ : X -> Y, n1, n2), or None when a component of Y
    is empty and φ does not exist.
    """
    f = P.random_polynomial(rng, 3, tag="f")
    g0 = P.random_polynomial(rng, 3, tag="g")
    g = P.Polynomial(P.fin_map(g0.B, f.J, {b: rng.choice(f.J) for b in g0.B}), g0.f, g0.t)
    xs = P.random_family(rng, f.I, 3)
    ys = P.random_family(rng, f.I, 3, tag="y")
    try:
        phi = {i: P.random_fin_map(rng, xs[i], ys[i]) for i in f.I}
    except ValueError:
        return None
    return g, f, xs, ys, phi, composite_elements(g, f, xs), composite_elements(g, f, ys)


def polynomial_setup(nm, seed: int, small: bool, workdir: str) -> dict:
    P = nm.polyset
    rng = random.Random(seed)
    counts = SMALL_POLY_COUNTS if small else POLY_COUNTS
    total = SMALL_COMPOSITES if small else COMPOSITES
    quotas = [round(total * share) for _, _, share in N1_SHARES]
    drawn: list[list] = [[] for _ in N1_SHARES]
    while any(len(got) < want for got, want in zip(drawn, quotas)):
        inst = draw_composite(P, rng)
        if inst is None or inst[6] > BODY_MAX:
            continue
        for got, want, (low, high, _) in zip(drawn, quotas, N1_SHARES):
            if low <= inst[5] <= high and len(got) < want:
                got.append(inst[:5])
    composites = [inst for got in drawn for inst in got]
    for share, reps in ([] if small else TAILS):
        assert len(reps) == round(total * share)
        for draw_seed, n1, n2 in reps:
            inst = draw_composite(P, random.Random(draw_seed))
            if inst is None or inst[5:] != (n1, n2):
                raise RuntimeError(f"fixed tail composite {draw_seed} changed; draw TAILS again")
            composites.append(inst[:5])
    squares = []
    for _ in range(counts["beck-chevalley"]):
        v, f, u, g = P.random_pullback_square(rng, 3)
        squares.append((v, f, u, g, P.random_family(rng, u.dom, 3)))
    dists = []
    for _ in range(counts["distributivity"]):
        b = tuple(f"b{i}" for i in range(rng.randint(1, 3)))
        a = tuple(f"a{i}" for i in range(rng.randint(1, 3)))
        c = tuple(f"c{i}" for i in range(rng.randint(0, 3)))
        u = P.random_fin_map(rng, c, b)
        f = P.random_fin_map(rng, b, a)
        dists.append((u, f, P.random_family(rng, c, 3)))
    pairs = []
    while len(pairs) < counts["adjustment"]:
        pair = P.random_cartesian_pair(rng, 3)
        if pair is not None:
            pairs.append(pair)
    return {"composites": composites, "squares": squares, "dists": dists, "pairs": pairs}


def _composite_ok(P, g, f, xs, xs2, phi) -> bool:
    """|P_{G·F}(X)| = |P_G(P_F(X))| at every index, and the bijection is natural."""
    gf = P.compose(g, f)
    lhs = P.extend(gf, xs)
    mid = P.extend(f, xs)
    rhs = P.extend(g, mid)
    if any(len(lhs[k]) != len(rhs[k]) for k in g.J):
        return False
    isos = P.compose_extension_iso(g, f, xs)
    isos2 = P.compose_extension_iso(g, f, xs2)
    big = P.extend_map(gf, xs, xs2, phi)
    pf_phi = P.extend_map(f, xs, xs2, phi)
    pg_pf_phi = P.extend_map(g, mid, P.extend(f, xs2), pf_phi)
    return all(isos2[k][0](big[k](el)) == pg_pf_phi[k](isos[k][0](el))
               for k in g.J for el in lhs[k])


def _bijection_ok(w) -> bool:
    """Round trips are identities and both sides are equinumerous."""
    return w.check_roundtrips() and all(len(m.dom) == len(m.cod) for m in w.forward.values())


def _permuted(P):
    """The partiality pseudomonad with its unit and multiplication exchanged."""
    p, eta, mu = P.partiality_pseudomonad()
    return p, mu, eta


def _collapsed(P):
    """The partiality pseudomonad with μ sending every position to the empty type.

    It is a valid cell p·p => p, but not cartesian: the direction over the
    position that μ should send to the unit type is lost.
    """
    p, eta, mu = P.partiality_pseudomonad()
    pp = mu.src
    phi0 = P.fin_map(pp.A, p.A, lambda _: "z")
    apex, to_a, phi1 = P.chosen_pullback(phi0, p.f)
    return p, eta, P.PolyMorphism(pp, p, phi0, to_a, phi1, P.fin_map(apex, pp.B, {}))


def _two_to_one(P):
    """A cell ψ : y => y² whose comparison map sends both carrier elements to one direction.

    ψ is not cartesian, so adjustments ψ ⇛ ψ are not unique: they are the
    maps α of its two-element carrier with ψ₂ ∘ α = ψ₂, and since ψ₂ is
    constant every one of the 2² maps qualifies.
    """
    src = P.poly_from_map(P.fin_map(("b0",), ("a",), {"b0": "a"}))
    dst = P.poly_from_map(P.fin_map(("d0", "d1"), ("c",), {"d0": "c", "d1": "c"}))
    phi0 = P.fin_map(src.A, dst.A, {"a": "c"})
    apex, to_a, phi1 = P.chosen_pullback(phi0, dst.f)
    return P.PolyMorphism(src, dst, phi0, to_a, phi1, P.fin_map(apex, src.B, lambda _: "b0"))


# the checks check_pseudomonad_data records once η and μ pass the shape and
# cartesian guards: the associativity and unit coherences and the unit-law
# bijections
COHERENCE = {"assoc-cells-cartesian", "assoc-adjustment", "assoc-adjustment-invertible",
             "left-unit-adjustment", "left-unit-invertible", "right-unit-adjustment",
             "right-unit-invertible", "unit-law-bijections"}


def polynomial(nm, inp: dict):
    P = nm.polyset
    for k, args in enumerate(inp["composites"]):
        yield f"composite {k}", True, lambda args=args: _composite_ok(P, *args)
    for k, (v, f, u, g, fam) in enumerate(inp["squares"]):
        yield f"beck-chevalley {k}", True, lambda a=(v, f, u, g, fam): all(
            _bijection_ok(w) for w in P.beck_chevalley_witness(*a))
    for k, args in enumerate(inp["dists"]):
        yield f"distributivity {k}", True, lambda args=args: _bijection_ok(
            P.distributivity_witness(*args))

    def adjustments(phi, psi):
        adjs = P.all_adjustments(phi, psi)
        closed = P.unique_adjustment(phi, psi)
        return len(adjs), adjs[0].alpha.mapping == closed.alpha.mapping

    for k, (phi, psi) in enumerate(inp["pairs"]):
        yield f"adjustment {k}", (1, True), lambda phi=phi, psi=psi: adjustments(phi, psi)

    def pseudomonad(data):
        """(verdict, the checks that failed, whether every coherence check ran)."""
        rep = P.check_pseudomonad_data(*data)
        failed = tuple(sorted(name for name, ok in rep.checks.items() if not ok))
        return rep.ok, failed, COHERENCE <= set(rep.checks)

    def non_cartesian_adjustments():
        psi = _two_to_one(P)
        try:
            P.unique_adjustment(psi, psi)
            refused = False
        except ValueError:
            refused = True
        return len(P.all_adjustments(psi, psi)), refused

    yield "pseudomonad partiality", (True, (), True), lambda: pseudomonad(
        P.partiality_pseudomonad())
    yield "pseudomonad trivial", (True, (), True), lambda: pseudomonad(P.trivial_pseudomonad())
    # negative controls: they are correct only by failing, at the named check
    yield "pseudomonad permuted (η, μ exchanged)", (False, ("eta-shape",), False), \
        lambda: pseudomonad(_permuted(P))
    yield "pseudomonad collapsed μ", (False, ("mu-cartesian",), False), \
        lambda: pseudomonad(_collapsed(P))
    yield "adjustments into a non-cartesian cell", (4, True), non_cartesian_adjustments

WORKLOADS = {
    "term-oracle": (term_oracle_setup, term_oracle),
    "universal": (universal_setup, universal),
    "files": (files_setup, files),
    "polynomial": (polynomial_setup, polynomial),
}


if __name__ == "__main__":
    # the histogram of criterion 3's draws that N1_SHARES and TAILS come from
    import sys
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                    "src"))
    from natmod import polyset
    rng, sizes = random.Random(20261017), []
    for _ in range(200_000):
        inst = draw_composite(polyset, rng)
        if inst is not None:
            sizes.append(inst[5:])
    print(f"{len(sizes)} instances with a map X -> Y")
    for low, high, _ in N1_SHARES:
        share = sum(low <= n1 <= high and n2 <= BODY_MAX for n1, n2 in sizes) / len(sizes)
        print(f"n1 {low}-{high}, n2 <= {BODY_MAX}: {share:.5f}")
    for name, in_tail, by in TAIL_GROUPS:
        tail = sorted(by(n) for n in sizes if in_tail(n))
        thirds = [tail[int(q * len(tail))] for q in (1 / 6, 1 / 2, 5 / 6)]
        reps = []
        for size in thirds:
            draw_seed = 0
            while True:
                inst = draw_composite(polyset, random.Random(draw_seed))
                if inst is not None and in_tail(inst[5:]) and by(inst[5:]) == size:
                    break
                draw_seed += 1
            reps.append((draw_seed, *inst[5:]))
        print(f"{name}: share {len(tail) / len(sizes):.5f}, medians of its thirds {thirds}, "
              f"first draws with them (seed, n1, n2) {reps}")
