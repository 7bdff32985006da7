#!/usr/bin/env bash
# Static/dynamic analysis gate (DESIGN.md §10): loom model checking of
# the lock-free orchestration core, the secret-hygiene lint, randomized
# mailbox-accounting properties, and — when the nightly components are
# installed — Miri and ThreadSanitizer passes.
#
# Required (hard-fail): loom suites, theta-lint, mailbox proptests.
# Soft (skipped with a notice when the toolchain lacks them): Miri,
# TSan. CI treats only the required stages as blocking so the gate
# stays runnable on offline or stable-only hosts.
#
# Usage: scripts/analysis.sh
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== loom: exhaustive model checking (orchestration handshake) =="
RUST_BACKTRACE=1 cargo test -q -p theta-orchestration --features loom --test loom

echo
echo "== loom: exhaustive model checking (metrics counters/histograms) =="
RUST_BACKTRACE=1 cargo test -q -p theta-metrics --features loom --test loom

echo
echo "== loom: model checking (theta_sync::channel) =="
RUST_BACKTRACE=1 cargo test -q -p theta-sync --features loom --test loom

echo
echo "== loom: dual-mode sanity (unit suites with the loom feature on) =="
cargo test -q -p theta-orchestration --features loom --lib
cargo test -q -p theta-metrics --features loom --lib

echo
echo "== theta-lint: secret-hygiene scan =="
cargo run -q -p theta-lint

echo
echo "== theta-analyze: symbol-graph passes (taint, locks, blocking, panics) =="
# Required stage. Taint and lock-order findings always fail; blocking
# and panic-path findings fail unless justified (inline `theta: allow`,
# crates/lint/panics.allow, or the checked-in baseline). The SUMMARY
# line carries per-pass counts into the CI job summary.
analyze_log="$(mktemp)"
analyze_rc=0
cargo run -q -p theta-lint -- analyze 2>"$analyze_log" || analyze_rc=$?
cat "$analyze_log" >&2
if [[ "$analyze_rc" -ne 0 ]]; then
    rm -f "$analyze_log"
    echo "theta-analyze found unjustified findings — see the report above." >&2
    exit 1
fi
if [[ -n "${GITHUB_STEP_SUMMARY:-}" ]]; then
    {
        echo "### theta-analyze"
        grep '^SUMMARY' "$analyze_log" \
            | sed 's/^SUMMARY//; s/ /\n- /g' || true
    } >> "$GITHUB_STEP_SUMMARY"
fi
rm -f "$analyze_log"

echo
echo "== proptest: mailbox accounting under randomized interleavings =="
RUST_BACKTRACE=1 cargo test -q -p theta-orchestration --test proptest_mailbox

nightly_has() {
    rustup component list --toolchain nightly 2>/dev/null \
        | grep -q "^$1.*(installed)"
}

echo
if rustup run nightly cargo miri --version >/dev/null 2>&1; then
    echo "== miri: UB check on theta-codec + theta-metrics =="
    cargo +nightly miri test -q -p theta-codec -p theta-metrics
else
    echo "== miri skipped (nightly miri component not installed) =="
fi

echo
if nightly_has "rust-src"; then
    echo "== tsan: repeated saturation stress (nightly, instrumented std) =="
    host="$(rustc -vV | sed -n 's/^host: //p')"
    RUSTFLAGS="-Zsanitizer=thread" THETA_STRESS_REPEATS=3 RUST_BACKTRACE=1 \
        cargo +nightly test -q -Zbuild-std --target "$host" \
        --release --test stress_concurrency \
        saturation_mixed_schemes_all_agree_nothing_dropped
else
    echo "== tsan skipped (nightly rust-src component not installed) =="
fi

echo
echo "Analysis gate passed."
