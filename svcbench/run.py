#!/usr/bin/env python3
"""Service benchmark entry point.

Builds the end-to-end driver (and, for a traced run, the per-layer
probes) from source, runs one workload, and prints as its last stdout
line one JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 svcbench/run.py --workload coin_seq --seed 1 --seconds 20 --trace 0

Run it from the repository root. The metric names and units it must
report come from BENCHMARK.json: the end_to_end list with --trace 0, the
per_layer list with --trace 1. Exits nonzero, without a result line, when
the build or any run fails, and nonzero with correct=false when an output
was wrong. See svcbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Every run must end within 180 s; the first one in a checkout also
# builds, which the caller allows more time for.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"svcbench: {msg}", file=sys.stderr)
    sys.exit(1)


def cargo_build(target_dir, packages):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    for p in packages:
        cmd += ["-p", p]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail(f"build of {' '.join(packages)} failed")


def run_json(cmd):
    """Runs `cmd` in its own process group, returns its last stdout line
    parsed as JSON and its exit code. Kills the whole group on timeout,
    so no node process outlives the run."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{os.path.basename(cmd[0])} timed out")
    finally:
        # Reap anything left in the group (node processes of a crashed
        # driver) and wait until the group is empty.
        for _ in range(500):
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                break
            time.sleep(0.01)
    lines = out.decode().strip().splitlines()
    if not lines:
        fail(f"{os.path.basename(cmd[0])} exited {proc.returncode} without a result")
    try:
        return json.loads(lines[-1]), proc.returncode
    except json.JSONDecodeError:
        fail(f"{os.path.basename(cmd[0])} printed no JSON result")


def main():
    ap = argparse.ArgumentParser(description="Thetacrypt service benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    bins = os.path.join(target, "release")
    # The end-to-end driver and the node CLIs build on their own, so a
    # broken probe cannot stop the end-to-end numbers.
    cargo_build(target, ["svcbench-e2e", "theta-core"])
    if args.trace:
        cargo_build(target, ["svcbench-probes"])

    work = os.path.join(ROOT, ".bench_run", f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed)]
        result, code = run_json([os.path.join(bins, "svcbench-e2e"), *common,
                                 "--seconds", str(args.seconds), "--trace", str(args.trace),
                                 "--bin-dir", bins, "--work-dir", work])
        if code not in (0, 1) or "metrics" not in result:
            fail(f"svcbench-e2e exited {code}")
        if args.trace:
            probes, code = run_json([os.path.join(bins, "svcbench-probes"), *common,
                                     "--work-dir", work])
            if code != 0:
                fail(f"svcbench-probes exited {code}")
            result["metrics"].update(probes["metrics"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail(f"metric {m['name']} was not reported")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} is in {got['unit']}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = got
    for name, m in metrics.items():
        print(f"{name:42} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    print(f"{'attempted':42} {result['attempted']:>14}\n{'failed':42} {result['failed']:>14}",
          file=sys.stderr)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
