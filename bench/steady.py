"""Steadiness report: repeat every workload and summarize each metric.

    python3 bench/steady.py [--runs 10] [--seconds S] [--workloads ladder,...]
                            [--out bench/_work/steady.json]

Runs ``bench/run.py`` once per seed 1..runs on each workload (untraced;
by default the workloads and run length of BENCHMARK.json),
then twice traced at the default seed.  For every end-to-end metric it
prints the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread, (q3 - q1) / median, next to the bound in BENCHMARK.json.  From
the traced runs it prints each layer's self time per pass and its share
of the pass, checks that the count metrics repeat exactly, and reports
the tracing overhead: traced wall_s minus untraced wall_s at the same
seed.  Every run must report failed = 0.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import workloads  # noqa: E402

COUNTS = ("expr.evaluate.calls", "hj.entries", "hj.exact_zero_share",
          "hj.sampled_entries", "hj.unsampled_entries", "numeric.steps")
# per workload: the module groups or layers predicted to lead the traced
# pass, and the layers predicted to stay near 0
PREDICTIONS = {
    "ladder": ({"lagrangian", "hamiltonian", "forms", "hj"},
               ("expr.evaluate.ms", "numeric.integrate.ms",
                "numeric.lift.ms", "numeric.csv.ms")),
    "verdicts": ({"hj", "expr.evaluate"},
                 ("numeric.integrate.ms", "numeric.lift.ms",
                  "numeric.csv.ms")),
    "flows": ({"numeric"}, ()),
}
NEAR_ZERO_SHARE = 0.01


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = proc.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    result["context"] = dict(
        line[len("context "):].split(" = ", 1)
        for line in lines if line.startswith("context "))
    if proc.returncode != 0 or result["failed"]:
        raise SystemExit("%s seed %d failed:\n%s" % (workload, seed, proc.stderr))
    return result


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "values": values}


def layer_table(workload, metrics):
    wall_ms = metrics["trace.wall_s"]["value"] * 1e3
    times = {name[:-3]: m["value"] for name, m in metrics.items()
             if name.endswith(".ms")}
    accounted = sum(times.values())
    leads, near_zero = PREDICTIONS[workload]
    # a predicted lead names a module group or a single layer
    buckets = {}
    for name, ms in times.items():
        bucket = name if name in leads else name.split(".")[0]
        buckets[bucket] = buckets.get(bucket, 0.0) + ms
    predicted = sum(buckets.get(b, 0.0) for b in leads)
    others = max(v for b, v in buckets.items() if b not in leads)
    zeros = {name: metrics[name]["value"] / wall_ms for name in near_zero}
    return {
        "wall_ms": wall_ms,
        "accounted_ms": accounted,
        "buckets_ms": buckets,
        "layers_ms": times,
        "predicted_lead": sorted(leads),
        "predicted_ms": predicted,
        "largest_other_ms": others,
        "lead_holds": predicted > others,
        "near_zero_shares": zeros,
        "near_zero_holds": all(v < NEAR_ZERO_SHARE for v in zeros.values()),
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int)
    p.add_argument("--workloads",
                   help="comma-separated; default: those in BENCHMARK.json")
    p.add_argument("--out", default=os.path.join(BENCH, "_work", "steady.json"))
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])

    report = {"run_seconds": seconds, "runs": args.runs, "workloads": {}}
    for workload in names:
        untraced = [run(workload, seed, seconds, 0)
                    for seed in range(1, args.runs + 1)]
        traced = [run(workload, workloads.DEFAULT_SEED, seconds, 1)
                  for _ in range(2)]
        context = untraced[0]["context"]
        report["context"] = {k: context[k] for k in
                             ("python", "sympy", "numpy", "nproc", "commit")}
        report["context"]["machine"] = platform.machine()
        entry = {"metrics": {}, "ops_per_pass": context["ops_per_pass"],
                 "op_tail_percentile": context["op_tail_percentile"],
                 "passes": [r["context"]["passes"] for r in untraced]}
        print("\n## %s (%s ops per pass, op_tail_ms is p%s)"
              % (workload, context["ops_per_pass"],
                 context["op_tail_percentile"]))
        print("%-12s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3",
                                                "spread", "bound"))
        for name in untraced[0]["metrics"]:
            q = quartiles([r["metrics"][name]["value"] for r in untraced])
            q["unit"] = untraced[0]["metrics"][name]["unit"]
            q["bound"] = bounds.get(name)
            entry["metrics"][name] = q
            print("%-12s %12.5g %12.5g %12.5g %8.4f %6s" % (
                name, q["median"], q["q1"], q["q3"], q["spread"], q["bound"]))
        layers = traced[0]["metrics"]
        repeats = all(traced[0]["metrics"][c]["value"]
                      == traced[1]["metrics"][c]["value"] for c in COUNTS)
        same_seed = untraced[workloads.DEFAULT_SEED - 1]["metrics"]["wall_s"]
        table = layer_table(workload, layers)
        entry["traced"] = {
            "layers": {n: m["value"] for n, m in layers.items()},
            "counts_repeat": repeats,
            "overhead_s": [r["metrics"]["trace.wall_s"]["value"]
                           - same_seed["value"] for r in traced],
            "check": table,
        }
        print("traced: counts repeat exactly: %s; overhead %s s"
              % (repeats, ", ".join("%.3f" % v
                                    for v in entry["traced"]["overhead_s"])))
        print("layer self ms per pass (share of the traced pass):")
        for name, ms in sorted(table["layers_ms"].items(), key=lambda x: -x[1]):
            if ms > 0:
                print("  %-22s %10.1f  %5.1f%%"
                      % (name, ms, 100 * ms / table["wall_ms"]))
        print("accounted %.1f of %.1f ms; predicted lead %s: %.1f ms vs "
              "largest other group %.1f ms -> %s; near-zero layers hold: %s"
              % (table["accounted_ms"], table["wall_ms"],
                 "+".join(table["predicted_lead"]), table["predicted_ms"],
                 table["largest_other_ms"], table["lead_holds"],
                 table["near_zero_holds"]))
        report["workloads"][workload] = entry
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
