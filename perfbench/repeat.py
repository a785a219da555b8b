"""Run the benchmark over several seeds and print the reference tables.

    python3 perfbench/repeat.py --seeds 1-10            # untraced, all workloads
    python3 perfbench/repeat.py --seeds 1-10 --trace 1  # per-layer medians

Runs one seed at a time, in order, from the root of a checkout.  For each
end-to-end metric it prints the median, the quartiles as
statistics.quantiles(values, n=4) gives them, and the spread (Q3 - Q1) /
median; for per-layer metrics the median.  Raw results go to
perfbench/out/repeat-<trace>-<seeds>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    runs = {}
    for workload in args.workloads:
        for seed in args.seeds:
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
            ]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            runs.setdefault(workload, []).append(result)
            print(workload, seed, json.dumps(result), file=sys.stderr, flush=True)

    os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
    name = f"repeat-{args.trace}-{args.seeds[0]}-{args.seeds[-1]}.json"
    with open(os.path.join(BENCH, "out", name), "w") as fh:
        json.dump(runs, fh)

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    for workload, results in runs.items():
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{workload}: {len(results)} runs, attempted {results[0]['attempted']}, "
              f"failed share {sorted(shares)}, correct {all(r['correct'] for r in results)}")
        if args.trace:
            print("| metric | unit | median |\n| --- | --- | --- |")
        else:
            print("| metric | unit | median | Q1 | Q3 | spread | bound |\n| --- | --- | --- | --- | --- | --- | --- |")
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(values)
            if args.trace:
                print(f"| {m['name']} | {m['unit']} | {med:.4g} |")
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"| {m['name']} | {m['unit']} | {med:.4g} | {q1:.4g} | {q3:.4g} | {spread:.3f} | {m['bound']} |")


if __name__ == "__main__":
    main()
