#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark command from BENCHMARK.json once per seed on each
named workload and prints, per metric, the median of the runs and the
distance between their first and third quartiles as a share of the
median (Python's statistics.quantiles, n=4) next to the metric's bound.

    python3 perfbench/spread.py --workloads serve_mixed --seeds 1 2 3 4 5

Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    spec = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", args.trace,
            ]
            out = subprocess.run(cmd, capture_output=True, text=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if out.returncode != 0 or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: exit {out.returncode}, correct={result['correct']}")
            runs.append(result["metrics"])
        print(f"{workload}: {len(runs)} runs")
        for name in runs[0]:
            values = [r[name]["value"] for r in runs]
            med = statistics.median(values)
            if len(values) >= 2 and med:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / abs(med)
            else:
                spread = float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None or spread <= bound / 3 else "  <-- above bound/3"
            shown = "" if bound is None else f" bound {bound:.2f}"
            print(f"  {name:<36} median {med:>14.6f}  spread {spread:7.4f}{shown}{flag}")
            print("      runs: " + " ".join(f"{v:.4g}" for v in values))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
