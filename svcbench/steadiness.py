#!/usr/bin/env python3
"""Run-to-run steadiness of the service benchmark.

Runs every workload of BENCHMARK.json (or those named) once per seed,
untraced, and reports for each end-to-end metric the median, the
quartiles and the spread (interquartile range as a share of the median),
next to a third of the metric's bound, the steadiness target. With
--out it also writes the runs and the summary as JSON (the recorded
baseline is svcbench/baseline.json).

    python3 svcbench/steadiness.py --seeds 101-110 [--workloads coin_seq,...] [--out FILE]

Run it from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(arg):
    lo, _, hi = arg.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds, default=seeds("101-110"))
    ap.add_argument("--workloads")
    ap.add_argument("--out")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]

    runs = {}
    for name in names:
        runs[name] = []
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
            lines = proc.stdout.decode().strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"{name} seed {seed}: exit {proc.returncode}")
            result = json.loads(lines[-1])
            values = {k: v["value"] for k, v in result["metrics"].items()}
            runs[name].append({"seed": seed, "failed": result["failed"], **values})
            print(f"{name} seed {seed}: " + " ".join(f"{k}={v:.4g}" for k, v in values.items()),
                  file=sys.stderr, flush=True)

    summary = {}
    print(f"{'workload':14} {'metric':16} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>7} {'bound/3':>7}")
    for name in names:
        summary[name] = {}
        for m in spec["end_to_end"]:
            vals = [r[m["name"]] for r in runs[name]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary[name][m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            flag = "" if spread < m["bound"] / 3 or m["name"] == "setup_s" else "  <- above target"
            print(f"{name:14} {m['name']:16} {med:10.4g} {q1:10.4g} {q3:10.4g} "
                  f"{spread:7.3f} {m['bound'] / 3:7.3f}{flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"run_seconds": spec["run_seconds"], "summary": summary, "runs": runs}, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
