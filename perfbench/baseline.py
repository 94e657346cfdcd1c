#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

Run from the root of a checkout:

    python3 perfbench/baseline.py --workloads active_lp,busy_flex --seeds 1-10
    python3 perfbench/baseline.py --trace 1 --seeds 1-3
    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For every workload and metric it prints the median, the quartiles and
the spread (Q3 - Q1) / median next to the metric's bound from
BENCHMARK.json. With --out it writes the summary as JSON, stamped with
nproc, the OCaml version and the flambda flag, merging into an existing
file so end-to-end and traced summaries can be recorded separately.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time


# The seed a bare run uses, and one seed kept out of tuning for checking
# that a claimed gain holds on inputs it was not tuned on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 1009

# Figures bench.exe prints in its table but not in its JSON line.
TABLE_ONLY = ["failed_frac", "degraded_frac", "miss_frac", "ops", "unverified", "bound_only",
              "wall_ms_p50", "wall_ms_p90", "wall_throughput_ops_s", "reference_ms"]


def seeds_of(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def run(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    out = subprocess.run(cmd, capture_output=True, text=True)
    elapsed = time.monotonic() - start
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    # the benchmark prints its generator parameters from its own constants
    result["generator"] = next((l.split(":", 1)[1].strip() for l in lines if l.startswith("generator:")), None)
    # the table-only figures, for the record
    result["table"] = {l.split()[0]: float(l.split()[1]) for l in lines
                       if l.startswith("  ") and len(l.split()) == 3 and l.split()[0] in TABLE_ONLY}
    if not result["correct"] or result["failed"]:
        print(f"  {workload} seed {seed}: correct={result['correct']} failed={result['failed']}\n{out.stderr}")
    result["elapsed_s"] = elapsed
    return result


def stamp():
    def first_line(cmd):
        try:
            return subprocess.run(cmd, capture_output=True, text=True).stdout.strip().splitlines()[0]
        except (OSError, IndexError):
            return "unknown"
    flambda = "unknown"
    try:
        config = subprocess.run(["ocamlopt", "-config"], capture_output=True, text=True).stdout
        flambda = next(l.split(":", 1)[1].strip() for l in config.splitlines() if l.startswith("flambda:"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "ocaml": first_line(["ocamlopt", "-version"]), "flambda": flambda}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default=None)
    ap.add_argument("--verbose", action="store_true", help="print every run's value")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    summary = {}
    generators = {}
    for w in workloads:
        results = [run(bench, w, s, seconds, args.trace) for s in seeds_of(args.seeds)]
        generators[w] = results[0]["generator"]
        walls = [r["elapsed_s"] for r in results]
        print(f"{w}: {len(results)} runs, attempted {[r['attempted'] for r in results]}, "
              f"wall per run {statistics.mean(walls):.1f} s (max {max(walls):.1f} s)")
        summary[w] = {}
        for m in metrics:
            name = m["name"]
            vals = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            summary[w][name] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3, "spread": spread}
            bound = bounds[name]
            flag = "" if bound is None else f" bound {bound:.2f} {'OK' if spread < bound / 3 else 'WIDE'}"
            print(f"  {name:28s} {med:14.6g} {m['unit']:6s} q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f}{flag}")
            if args.verbose:
                print("      " + " ".join(f"{v:.5g}" for v in vals))
        if not args.trace:
            table = {name: statistics.median(r["table"][name] for r in results)
                     for name in TABLE_ONLY if all(name in r["table"] for r in results)}
            summary[w]["table_medians"] = table
            print("  table medians: " + ", ".join(f"{k} {v:.5g}" for k, v in table.items()))
    if args.out:
        doc = json.load(open(args.out)) if os.path.exists(args.out) else {}
        doc["environment"] = stamp()
        doc["run_seconds"] = seconds
        doc["seeds"] = {"default": DEFAULT_SEED, "held_out": HELD_OUT_SEED}
        recorded = doc.setdefault("workloads", {})
        for w in bench["workloads"]:
            entry = recorded.setdefault(w["name"], {})
            entry["why"] = w["why"]
            if w["name"] in generators:
                entry["generator"] = generators[w["name"]]
        section = doc.setdefault("per_layer" if args.trace else "end_to_end", {})
        section["seeds"] = seeds_of(args.seeds)
        section.setdefault("workloads", {}).update(summary)
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
