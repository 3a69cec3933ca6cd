"""Run the benchmark over several seeds and summarize it.

Usage, from the repository root::

    python3 bench/summarize.py --seeds 1-10 --sets 2 --traced 2 --commit <id> \\
        --out bench/baseline.json

Each run is a separate ``bench/run.py`` process, started only after the
previous one has ended.  Within a set the runs alternate between workloads
(seed 1 of every workload, then seed 2, ..., the workload order rotating from
seed to seed), so that a slow phase of the machine falls on several
workloads rather than on consecutive seeds of one.  For every workload and
end-to-end metric each set gives the median, the quartiles
(``statistics.quantiles(values, n=4)``), the sample count and the spread: the
distance between the quartiles as a share of the median, which
``BENCHMARK.json`` bounds.  A metric whose spread reaches its bound in some
set, or whose median in a later set is worse than the first set's by more
than the bound, is listed under ``unresolved`` with the reason.  Traced runs
add the per-layer numbers of the first traced run and whether every traced
run counted the same.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True, timeout=300)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def run_set(workloads: list[str], seeds: list[int], seconds: int) -> dict:
    results: dict = {w: [] for w in workloads}
    for k, seed in enumerate(seeds):
        for workload in workloads[k % len(workloads):] + workloads[:k % len(workloads)]:
            results[workload].append(run(workload, seed, seconds, 0))
            print(f"  seed {seed} {workload}: done", file=sys.stderr, flush=True)
    return results


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--sets", type=int, default=1, help="sets of runs over all seeds")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--traced", type=int, default=0, help="traced runs per workload")
    parser.add_argument("--commit", default=None, help="the sources' commit, for the record")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    doc = {"about": " ".join(__doc__.split("\n\n")[3].split()), "commit": args.commit,
           "python": platform.python_version(), "nproc": os.cpu_count(),
           "machine": platform.machine(), "run_seconds": args.seconds, "seeds": args.seeds,
           "sets": args.sets, "bounds": bounds, "workloads": {}}
    sets = [run_set(args.workloads, args.seeds, args.seconds) for _ in range(args.sets)]
    for workload in args.workloads:
        entry: dict = {"sets": [], "unresolved": []}
        for n, results in enumerate(sets, 1):
            attempted = [r["attempted"] for r in results[workload]]
            failed = [r["failed"] for r in results[workload]]
            e2e = {name: summary([r["metrics"][name]["value"] for r in results[workload]])
                   for name in bounds}
            entry["sets"].append({"correct": all(r["correct"] for r in results[workload]),
                                  "attempted": attempted, "failed": failed,
                                  "failed_frac": sum(failed) / sum(attempted), "end_to_end": e2e})
            print(f"{workload:12s} set {n} {'failed_frac':18s} {sum(failed) / sum(attempted):.4g} "
                  f"({sum(failed)} of {sum(attempted)} verifications)", flush=True)
            for name, s in e2e.items():
                flag = "ok" if s["spread"] < bounds[name] / 3 else (
                    "wide" if s["spread"] < bounds[name] else "OVER BOUND")
                print(f"{workload:12s} set {n} {name:18s} median {s['median']:.4g} {units[name]}  "
                      f"q1 {s['q1']:.4g}  q3 {s['q3']:.4g}  spread {s['spread']:.3f} "
                      f"(bound {bounds[name]}) {flag}", flush=True)
                if s["spread"] >= bounds[name]:
                    entry["unresolved"].append(
                        {"metric": name, "reason": f"spread {s['spread']:.3f} in set {n} "
                                                   f"reaches the bound {bounds[name]}"})
        first = entry["sets"][0]["end_to_end"]
        for n, later in enumerate(entry["sets"][1:], 2):
            for name in bounds:
                change = later["end_to_end"][name]["median"] / first[name]["median"] - 1
                entry.setdefault("median_change", {})[f"set {n}/set 1 {name}"] = change
                if change > bounds[name]:
                    entry["unresolved"].append(
                        {"metric": name, "reason": f"median of set {n} is {change:+.3f} of set "
                                                   f"1's, past the bound {bounds[name]}"})
        if args.traced:
            traced = [run(workload, args.seeds[0], args.seconds, 1) for _ in range(args.traced)]
            counts = [{k: m["value"] for k, m in r["metrics"].items() if m["unit"] == "count"}
                      for r in traced]
            entry["traced"] = {
                "runs": len(traced),
                "seed": args.seeds[0],
                "identical_counts": all(c == counts[0] for c in counts),
                "correct": all(r["correct"] for r in traced),
                "per_layer": {k: m["value"] for k, m in traced[0]["metrics"].items()},
                "overhead_s": [r["metrics"]["trace.overhead_s"]["value"] for r in traced],
            }
            print(f"{workload:12s} traced x{len(traced)}: identical counts "
                  f"{entry['traced']['identical_counts']}, overhead_s "
                  f"{entry['traced']['overhead_s']}", flush=True)
        for item in entry["unresolved"]:
            print(f"{workload:12s} UNRESOLVED {item['metric']}: {item['reason']}", flush=True)
        doc["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
