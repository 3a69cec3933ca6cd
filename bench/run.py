"""natmod's benchmark: timed verifications, end to end and layer by layer.

Usage, from the repository root::

    python3 bench/run.py --workload term-oracle --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --self-test

The benchmark drives natmod from the outside: one process, no threads, a
closed loop with one caller.  It imports natmod from ``src/`` of the checkout
it sits in.  A run

1. sets up several times -- each a fresh import of natmod plus the
   workload's inputs made from ``--seed`` -- and reports the median as
   ``setup_s``;
2. runs passes over the workload's verifications, as many as fill
   ``--seconds`` at the workload's nominal pass time (``PASS_S``), and at
   least one.  The count depends on ``--seconds`` only, not on how fast the
   machine is, so every run of a workload does the same work and reaches the
   same peak memory.  Every pass builds its models from scratch, so no pass
   times caches that an earlier pass filled;
3. compares every outcome with the answer the theory gives, counting a
   wrong outcome or an exception as failed;
4. prints one line per metric, then, as the last line, one JSON object with
   ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s``, and the
medians over passes of ``wall_ref_s`` (wall time of a pass), ``cpu_ref_s``
(process CPU time of a pass) and ``slowest_verdict_ref_s`` (the longest
verification of a pass), plus ``peak_rss_mb``, the process's peak resident
memory in MiB.  Every time of an untraced run, ``setup_s`` too, is in
reference seconds: the speed probe of ``probe.py`` samples how fast the
machine runs Python while the run measures, and scales each timed interval to
the speed of the machine the benchmark was defined on, so that a slow or fast
phase of a shared machine does not read as a slower or faster natmod.  The same
medians in raw seconds are printed beside them by the names ``wall_s``,
``cpu_s`` and ``slowest_verdict_s`` (and ``setup_raw_s``), with each pass's raw
time and speed as comment lines.  ``failed_frac`` (failed / attempted) is
printed too.  Neither is a metric of the result object: raw times spread
between runs by more than any useful bound, and ``failed_frac`` is 0 on a
correct program.

With ``--trace 1`` the run makes one untraced pass, then installs the layer
tracer of ``layertrace.py`` and makes one traced pass; the metrics are the traced
pass's per-layer numbers plus ``trace.overhead_s`` (traced minus untraced
pass wall time).  Traced runs take no probe samples and report raw seconds.
The spans are written to ``.bench_out/`` in the checkout.

``--self-test`` runs every workload at a small size, traced and untraced,
and checks the metric names and units against ``BENCHMARK.json``, that two
traced runs count the same, and that an outcome compared with a deliberately
wrong expected answer is counted as failed.
"""

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import types
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

from layertrace import METRIC_UNITS, NODES_METRIC, Tracer  # noqa: E402
from probe import MIN_SAMPLES, Probe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NATMOD_MODULES = ("fincat", "presheaf", "natmodel", "morphism", "polyset", "freemodel",
                  "modelio", "report", "cli")
# set up at least SETUP_REPS times, and until SETUP_MIN_S seconds have been
# spent setting up (at most SETUP_MAX_REPS times), so that a cheap set-up is
# measured often enough for a steady median
SETUP_REPS, SETUP_MIN_S, SETUP_MAX_REPS = 5, 2.0, 25
# nominal seconds per pass of each workload, measured on the sources the
# benchmark was defined on (Python 3.11, 2 cores); a run makes
# max(1, round(seconds / PASS_S)) passes
PASS_S = {"term-oracle": 12.0, "universal": 17.0, "files": 3.7, "polynomial": 8.5}
# stop starting passes once another one could end past this many seconds of
# measuring, so that a run ends well within three minutes on a slow machine
MEASURE_LIMIT_S = 120.0
E2E_UNITS = {"setup_s": "s", "wall_ref_s": "s", "cpu_ref_s": "s",
             "slowest_verdict_ref_s": "s", "peak_rss_mb": "MiB"}


@dataclass
class Verdict:
    name: str
    seconds: float  # reference seconds
    raw_seconds: float
    ok: bool
    detail: str


@dataclass
class Pass:
    wall: float  # reference seconds
    cpu: float
    raw_wall: float  # seconds
    raw_cpu: float
    speed: float
    verdicts: list


@dataclass
class Run:
    passes: list
    metrics: dict
    notes: dict  # diagnostics, printed as comment lines
    raw: dict = field(default_factory=dict)  # unscaled seconds, printed beside the metrics

    @property
    def attempted(self) -> int:
        return sum(len(p.verdicts) for p in self.passes)

    @property
    def failures(self) -> list:
        return [v for p in self.passes for v in p.verdicts if not v.ok]

    def result(self) -> dict:
        """The result object, the benchmark's last line of output."""
        return {"correct": not self.failures, "attempted": self.attempted,
                "failed": len(self.failures), "metrics": self.metrics}


def load_natmod() -> types.SimpleNamespace:
    """Import natmod afresh from the checkout's ``src/``, as a new process would."""
    for name in [n for n in sys.modules if n == "natmod" or n.startswith("natmod.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    importlib.import_module("natmod")
    return types.SimpleNamespace(**{
        name: importlib.import_module(f"natmod.{name}") for name in NATMOD_MODULES})


def run_pass(verifications, nm, inputs, probe: Probe, wrong: dict | None = None) -> Pass:
    """Run every verification once, timing each and the whole pass."""
    gc.collect()
    verdicts = []
    start = last = probe.mark()
    for name, expected, thunk in verifications(nm, inputs):
        if wrong and name in wrong:
            expected = wrong[name]
        try:
            outcome = thunk()
            ok = outcome == expected
            detail = "" if ok else f"got {outcome!r}, expected {expected!r}"
        except Exception as exc:  # a raised verification is a failed one
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        took = probe.seconds(last)
        verdicts.append(Verdict(name, took.wall, took.raw_wall, ok, detail))
        last = probe.mark()
    whole = probe.seconds(start)
    return Pass(whole.wall, whole.cpu, whole.raw_wall, whole.raw_cpu, whole.speed, verdicts)


def measure(workload: str, seed: int, seconds: float, trace: bool, small: bool = False,
            wrong: dict | None = None) -> Run:
    """One benchmark run."""
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    try:
        with Probe(active=not trace) as probe:
            return _measure(workload, seed, seconds, trace, small, wrong, workdir, probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(workload, seed, seconds, trace, small, wrong, workdir, probe) -> Run:
    setup, verifications = WORKLOADS[workload]
    setups = []
    while len(setups) < SETUP_REPS or (
            sum(s.raw_wall for s in setups) < SETUP_MIN_S and len(setups) < SETUP_MAX_REPS):
        gc.collect()
        mark = probe.mark()
        nm = load_natmod()
        inputs = setup(nm, seed, small, workdir)
        setups.append(probe.seconds(mark))
    if trace:
        untraced = run_pass(verifications, nm, inputs, probe, wrong)
        tracer = Tracer()
        tracer.install(nm)
        try:
            traced = run_pass(verifications, nm, inputs, probe, wrong)
        finally:
            tracer.uninstall()
        metrics = tracer.metrics()
        metrics["trace.overhead_s"]["value"] = traced.wall - untraced.wall
        spans = tracer.write_spans(os.path.join(OUT, f"trace-{workload}"))
        notes = {"untraced_wall_s": untraced.wall, "traced_wall_s": traced.wall,
                 "spans": len(tracer.s_start), "span_files": spans,
                 "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        return Run([untraced, traced], metrics, notes)
    passes = []
    begin = time.perf_counter()
    for _ in range(max(1, round(seconds / PASS_S[workload]))):
        passes.append(run_pass(verifications, nm, inputs, probe, wrong))
        if time.perf_counter() - begin + passes[-1].raw_wall > MEASURE_LIMIT_S:
            break
    values = {
        "setup_s": statistics.median(s.wall for s in setups),
        "wall_ref_s": statistics.median(p.wall for p in passes),
        "cpu_ref_s": statistics.median(p.cpu for p in passes),
        "slowest_verdict_ref_s": statistics.median(
            max(v.seconds for v in p.verdicts) for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    raw = {
        "setup_raw_s": statistics.median(s.raw_wall for s in setups),
        "wall_s": statistics.median(p.raw_wall for p in passes),
        "cpu_s": statistics.median(p.raw_cpu for p in passes),
        "slowest_verdict_s": statistics.median(
            max(v.raw_seconds for v in p.verdicts) for p in passes),
    }
    notes = {"setup_runs_raw_s": [round(s.raw_wall, 4) for s in setups],
             "pass_raw_wall_s": [round(p.raw_wall, 4) for p in passes],
             "pass_speed": [round(p.speed, 4) for p in passes],
             "probe_samples": len(probe.walls)}
    return Run(passes, metrics, notes, raw)


def print_run(workload: str, seed: int, run: Run) -> None:
    attempted, failed = run.attempted, len(run.failures)
    print(f"workload {workload}, seed {seed}: {len(run.passes)} passes, "
          f"{attempted} verifications, {failed} failed")
    for v in run.failures[:10]:
        print(f"  FAIL {v.name}: {v.detail}")
    for name, m in run.metrics.items():
        value = m["value"]
        text = m.get("absent", "") if value is None else f"{value:.6g}"
        print(f"  {name:44s} {text} {m['unit']}")
    for name, value in run.raw.items():
        print(f"  {name:44s} {value:.6g} s (raw seconds, unscaled by the probe)")
    print(f"  {'failed_frac':44s} {failed / attempted:.6g} ({failed} of {attempted})")
    for key, value in run.notes.items():
        print(f"  # {key}: {value}")
    print(json.dumps(run.result()))


def _expect(ok: bool, message) -> None:
    if not ok:
        raise SystemExit(f"self-test failed: {message}")


def self_test() -> int:
    """Smoke-run every workload at a small size and check the output's shape."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    _expect(e2e == E2E_UNITS, f"end-to-end metrics differ from BENCHMARK.json: {e2e}")
    _expect(layers == METRIC_UNITS, "per-layer metrics differ from BENCHMARK.json")
    _expect(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS), "workloads")
    with open(os.path.join(HERE, "layers.json")) as fh:
        layer_map = json.load(fh)["metrics"]
    _expect([m["name"] for m in layer_map] == [n for n in METRIC_UNITS if n != "trace.overhead_s"],
            "layers.json does not list every per-layer metric")
    for m in layer_map:
        named = [p["workload"] for p in m["should_move"]] + m["should_not_move"]
        _expect(set(named) <= set(WORKLOADS), m)
        _expect({p["end_to_end"] for p in m["should_move"]} <= set(e2e), m)
    for workload in WORKLOADS:
        t = time.perf_counter()
        plain = measure(workload, 1, 0, trace=False, small=True)
        _expect(plain.attempted > 0 and not plain.failures, plain.failures)
        got = {k: m["unit"] for k, m in plain.metrics.items()}
        _expect(got == e2e, got)
        _expect(all(m["value"] > 0 for m in plain.metrics.values()), plain.metrics)
        _expect(plain.notes["probe_samples"] > MIN_SAMPLES, "the speed probe's timer never fired")
        runs = [measure(workload, 1, 0, trace=True, small=True) for _ in range(2)]
        for run in runs:
            _expect(not run.failures, run.failures)
            got = {k: m["unit"] for k, m in run.metrics.items()}
            _expect(got == layers, sorted(set(got) ^ set(layers)))
            _expect(run.metrics[NODES_METRIC]["value"] is not None, run.metrics[NODES_METRIC])
        counts = [{k: m["value"] for k, m in run.metrics.items() if m["unit"] == "count"}
                  for run in runs]
        _expect(counts[0] == counts[1], "two traced runs counted differently")
        print(f"self-test {workload}: ok ({time.perf_counter() - t:.1f} s)")
    wrong = measure("polynomial", 1, 0, trace=False, small=True,
                    wrong={"pseudomonad trivial": False})
    _expect(not wrong.result()["correct"] and len(wrong.failures) == len(wrong.passes)
            and {v.name for v in wrong.failures} == {"pseudomonad trivial"}, wrong.failures)
    print("self-test wrong expected answer: counted as failed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload at a small size and check the output")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "natmod", "__init__.py")):
        sys.stderr.write(f"natmod sources not found under {SRC}\n")
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_run(args.workload, args.seed, run)
    return 0


if __name__ == "__main__":
    sys.exit(main())
