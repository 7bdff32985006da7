#!/usr/bin/env bash
# Tier-1 CI gate: build (the workspace and the svcbench benchmark), full
# test suite, the release-mode concurrency stress suite, and clippy (deny
# warnings) workspace-wide.
#
# The static/dynamic analysis gate (loom model checking, secret-hygiene
# lint, Miri/TSan) lives in scripts/analysis.sh and runs as its own CI
# job; pass --with-analysis to chain it here locally.
#
# Every step runs even when an earlier one fails, so one host-sensitive
# gate cannot hide the rest; the failed steps are listed at the end and
# the script exits non-zero if there were any.
#
# Usage: scripts/ci.sh [--no-clippy] [--with-analysis]
set -uo pipefail

cd "$(dirname "$0")/.."

failed=()

# step <title> <command...>: runs one gate and records it if it fails.
step() {
    local title=$1
    shift
    echo
    echo "== $title =="
    if ! "$@"; then
        failed+=("$title")
    fi
}

step "cargo build --release" \
    cargo build --release

# svcbench links theta-core, theta-service and theta-orchestration by
# path, so a crate change can break the benchmark without breaking the
# workspace; build it the way svcbench/run.py does.
step "benchmark workspace build (svcbench)" \
    env CARGO_TARGET_DIR=.bench_build/ci \
        cargo build --release --offline --manifest-path svcbench/Cargo.toml

step "cargo test (workspace)" \
    cargo test --workspace -q

step "saturation stress test (release, full 64+ request mix)" \
    env RUST_BACKTRACE=1 cargo test -q --release --test stress_concurrency

step "gossip overlay integration (release, 20 nodes, partition + tamper)" \
    env RUST_BACKTRACE=1 cargo test -q --release --test integration_gossip

step "mailbox handoff interleaving harness (release, repeated runs)" \
    env RUST_BACKTRACE=1 cargo test -q --release -p theta-orchestration \
        handoff_interleaving_never_loses_messages

step "cross-instance batch verify smoke (release, >=1.5x gate)" \
    cargo run -q --release -p theta-bench --bin bench_cross_batch -- --quick

step "pairing kernel gate (release, shared projective multi-Miller loop >=2x the affine reference on 4 pairs)" \
    cargo run -q --release -p theta-bench --bin bench_kernels -- --quick

step "worker-pool scaling smoke (release; asserts 2-worker >= 1.5x when host_cores >= 2, records skip otherwise)" \
    cargo run -q --release -p theta-bench --bin bench_parallel -- --quick

step "observability overhead gate (tracing + profiler < 5% on the hot path, quick)" \
    cargo run -q --release -p theta-bench --bin bench_observability -- --quick --gate

step "front-end C10k gate (>=5k idle connections, flat threads, p99 delta < 10%)" \
    cargo run -q --release -p theta-bench --bin bench_frontend -- --quick --gate

if [[ " $* " != *" --no-clippy "* ]] && cargo clippy --version >/dev/null 2>&1; then
    step "cargo clippy -D warnings (workspace)" cargo clippy --workspace -- -D warnings
else
    echo
    echo "== clippy skipped =="
fi

if [[ " $* " == *" --with-analysis "* ]]; then
    step "analysis gate (loom, lint, proptest, miri/tsan)" scripts/analysis.sh
fi

echo
if ((${#failed[@]})); then
    echo "CI gate FAILED: ${#failed[@]} step(s) failed:"
    printf '  - %s\n' "${failed[@]}"
    exit 1
fi
echo "CI gate passed."
