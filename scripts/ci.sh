#!/usr/bin/env bash
# Tier-1 CI gate: build, full test suite, the release-mode concurrency
# stress suite, and clippy (deny warnings) workspace-wide.
#
# The static/dynamic analysis gate (loom model checking, secret-hygiene
# lint, Miri/TSan) lives in scripts/analysis.sh and runs as its own CI
# job; pass --with-analysis to chain it here locally.
#
# Usage: scripts/ci.sh [--no-clippy] [--with-analysis]
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release

echo
echo "== cargo test (workspace) =="
cargo test --workspace -q

echo
echo "== saturation stress test (release, full 64+ request mix) =="
RUST_BACKTRACE=1 cargo test -q --release --test stress_concurrency

echo
echo "== gossip overlay integration (release, 20 nodes, partition + tamper) =="
RUST_BACKTRACE=1 cargo test -q --release --test integration_gossip

echo
echo "== mailbox handoff interleaving harness (release, repeated runs) =="
RUST_BACKTRACE=1 cargo test -q --release -p theta-orchestration \
    handoff_interleaving_never_loses_messages

echo
echo "== cross-instance batch verify smoke (release, >=1.5x gate) =="
cargo run -q --release -p theta-bench --bin bench_cross_batch -- --quick

echo
echo "== pairing kernel gate (release, shared projective multi-Miller loop >=2x the affine reference on 4 pairs) =="
cargo run -q --release -p theta-bench --bin bench_kernels -- --quick

echo
echo "== worker-pool scaling smoke (release; asserts 2-worker >= 1.5x when host_cores >= 2, records skip otherwise) =="
cargo run -q --release -p theta-bench --bin bench_parallel -- --quick

echo
echo "== observability overhead gate (tracing + profiler < 5% on the hot path, quick) =="
cargo run -q --release -p theta-bench --bin bench_observability -- --quick --gate

echo
echo "== front-end C10k gate (>=5k idle connections, flat threads, p99 delta < 10%) =="
cargo run -q --release -p theta-bench --bin bench_frontend -- --quick --gate

if [[ " $* " != *" --no-clippy "* ]] && cargo clippy --version >/dev/null 2>&1; then
    echo
    echo "== cargo clippy -D warnings (workspace) =="
    cargo clippy --workspace -- -D warnings
else
    echo
    echo "== clippy skipped =="
fi

if [[ " $* " == *" --with-analysis "* ]]; then
    echo
    echo "== analysis gate (loom, lint, proptest, miri/tsan) =="
    scripts/analysis.sh
fi

echo
echo "CI gate passed."
