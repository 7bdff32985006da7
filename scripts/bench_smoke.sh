#!/usr/bin/env bash
# Quick smoke run of the scalar-multiplication kernel benchmarks.
#
# Runs the Criterion `kernels` bench with a shrunken measurement budget
# (CRITERION_QUICK=1) and then the `bench_kernels` binary, which prints
# the old-vs-new speedup table (a quick run leaves the committed full-run
# BENCH_kernels.json alone; run it without CRITERION_QUICK to refresh it).
set -euo pipefail

cd "$(dirname "$0")/.."

export CRITERION_QUICK=1

echo "== criterion kernels bench (quick mode) =="
cargo bench -p theta-bench --bench kernels

echo
echo "== kernel speedup table (quick, printed only) =="
cargo run --release -p theta-bench --bin bench_kernels -- --quick

echo
echo "== observability instrumentation overhead -> BENCH_observability.json =="
cargo run --release -p theta-bench --bin bench_observability -- --quick

echo
echo "BENCH_observability.json:"
cat BENCH_observability.json
