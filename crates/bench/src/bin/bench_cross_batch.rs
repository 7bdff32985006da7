//! Cross-instance vs per-instance batched share verification, recorded
//! in `BENCH_cross_batch.json` at the repository root.
//!
//! The PR-7 acceptance measurement: 8 concurrent BLS04 signing
//! instances, each holding a quorum's worth of pending
//! partial-signature checks. The per-instance baseline settles each
//! instance alone — one pairing-product equation per instance, the
//! batch an instance-local verifier would run at quorum. Cross-instance
//! batching (this PR's pool aggregator) folds *all* instances' checks
//! into one RLC'd multi-Miller pairing product with a single shared
//! final exponentiation, via `theta_schemes::batch::settle_mixed`.
//!
//! Both paths verify the identical set of checks, so the aggregate
//! verify throughput (checks/s) is directly comparable; the bench
//! asserts the ≥ 1.5× acceptance gate on the BLS04 workload. A mixed
//! workload (BLS04 + BZ03 pairings + SG02/CKS05 DLEQ MSMs) is reported
//! alongside for context, unasserted.
//!
//! Timing is pure crypto (no network, no scheduling), so the numbers
//! are stable on a 1-core CI host. `--quick` / `CRITERION_QUICK=1`
//! shrinks the iteration count.

use rand::SeedableRng;
use std::io::Write;
use std::time::Instant;
use theta_schemes::batch::{settle_mixed, PendingCheck};
use theta_schemes::{bls04, bz03, cks05, sg02, ThresholdParams};

fn quick() -> bool {
    std::env::args().any(|a| a == "--quick")
        || std::env::var("CRITERION_QUICK").map(|v| v == "1").unwrap_or(false)
}

const INSTANCES: usize = 8;
const SHARES_PER_INSTANCE: usize = 4;
const ACCEPTANCE_SPEEDUP: f64 = 1.5;

/// `INSTANCES` BLS04 instances (distinct messages), each with
/// `SHARES_PER_INSTANCE` pending partial-signature checks — the state
/// of a loaded worker pool the moment a batch flush fires.
fn bls04_instances(r: &mut rand::rngs::StdRng) -> Vec<Vec<PendingCheck>> {
    let params = ThresholdParams::new(SHARES_PER_INSTANCE as u16 - 1, 8).unwrap();
    let (pk, keys) = bls04::keygen(params, r);
    (0..INSTANCES)
        .map(|i| {
            let msg = format!("block {i}").into_bytes();
            let h = bls04::hash_message(&msg).unwrap();
            keys.iter()
                .take(SHARES_PER_INSTANCE)
                .map(|k| {
                    let share = bls04::sign_share(k, &msg).unwrap();
                    bls04::pending_check_with_hash(&pk, &h, &share)
                })
                .collect()
        })
        .collect()
}

/// A mixed pool: 2 instances each of BLS04, BZ03, SG02 and CKS05.
fn mixed_instances(r: &mut rand::rngs::StdRng) -> Vec<Vec<PendingCheck>> {
    let params = ThresholdParams::new(SHARES_PER_INSTANCE as u16 - 1, 8).unwrap();
    let mut instances = Vec::new();
    let (pk, keys) = bls04::keygen(params, r);
    for i in 0..2 {
        let msg = format!("mixed block {i}").into_bytes();
        let h = bls04::hash_message(&msg).unwrap();
        instances.push(
            keys.iter()
                .take(SHARES_PER_INSTANCE)
                .map(|k| {
                    bls04::pending_check_with_hash(&pk, &h, &bls04::sign_share(k, &msg).unwrap())
                })
                .collect(),
        );
    }
    let (pk, keys) = bz03::keygen(params, r);
    for i in 0..2usize {
        let ct = bz03::encrypt(&pk, format!("label {i}").as_bytes(), b"m", r);
        instances.push(
            keys.iter()
                .take(SHARES_PER_INSTANCE)
                .map(|k| {
                    bz03::pending_check(&pk, &ct, &bz03::create_decryption_share(k, &ct).unwrap())
                })
                .collect(),
        );
    }
    let (pk, keys) = sg02::keygen(params, r);
    for i in 0..2usize {
        let ct = sg02::encrypt(&pk, format!("label {i}").as_bytes(), b"m", r);
        instances.push(
            keys.iter()
                .take(SHARES_PER_INSTANCE)
                .map(|k| {
                    sg02::pending_check(&pk, &ct, &sg02::create_decryption_share(k, &ct, r).unwrap())
                })
                .collect(),
        );
    }
    let (pk, keys) = cks05::keygen(params, r);
    for i in 0..2usize {
        let name = format!("round {i}").into_bytes();
        instances.push(
            keys.iter()
                .take(SHARES_PER_INSTANCE)
                .map(|k| cks05::pending_check(&pk, &name, &cks05::create_coin_share(k, &name, r)))
                .collect(),
        );
    }
    instances
}

struct Comparison {
    per_instance_us: f64,
    cross_batch_us: f64,
    speedup: f64,
}

/// Times both settle strategies over the same pool of pending checks.
/// `iters` repetitions; returns the mean per sweep of the whole pool.
fn compare(instances: &[Vec<PendingCheck>], iters: usize) -> Comparison {
    // Per-instance batching: one settle per instance.
    let start = Instant::now();
    for _ in 0..iters {
        for inst in instances {
            let refs: Vec<&PendingCheck> = inst.iter().collect();
            assert!(
                std::hint::black_box(settle_mixed(&refs)).iter().all(|&v| v),
                "valid per-instance batch must settle clean"
            );
        }
    }
    let per_instance_us = start.elapsed().as_micros() as f64 / iters as f64;

    // Cross-instance: the pool aggregator's view — every check, one settle.
    let all: Vec<&PendingCheck> = instances.iter().flatten().collect();
    let start = Instant::now();
    for _ in 0..iters {
        assert!(
            std::hint::black_box(settle_mixed(&all)).iter().all(|&v| v),
            "valid cross-instance batch must settle clean"
        );
    }
    let cross_batch_us = start.elapsed().as_micros() as f64 / iters as f64;

    Comparison { per_instance_us, cross_batch_us, speedup: per_instance_us / cross_batch_us }
}

fn main() {
    let iters = if quick() { 5 } else { 30 };
    let mut r = rand::rngs::StdRng::seed_from_u64(0xcb7c);
    let checks_total = INSTANCES * SHARES_PER_INSTANCE;

    // Warm-up (pairing tables, allocator).
    let warm = bls04_instances(&mut r);
    let refs: Vec<&PendingCheck> = warm.iter().flatten().collect();
    assert!(settle_mixed(&refs).iter().all(|&v| v));

    let bls = compare(&bls04_instances(&mut r), iters);
    println!(
        "bls04  {INSTANCES} instances x {SHARES_PER_INSTANCE} shares ({checks_total} checks)"
    );
    println!("  per-instance:      {:>9.1} µs/pool sweep", bls.per_instance_us);
    println!("  cross-instance:    {:>9.1} µs/pool sweep", bls.cross_batch_us);
    println!("  aggregate verify speedup: {:.2}x (gate {ACCEPTANCE_SPEEDUP}x)", bls.speedup);

    let mixed = compare(&mixed_instances(&mut r), iters);
    println!("mixed  8 instances across 4 schemes ({checks_total} checks)");
    println!("  per-instance:      {:>9.1} µs/pool sweep", mixed.per_instance_us);
    println!("  cross-instance:    {:>9.1} µs/pool sweep", mixed.cross_batch_us);
    println!("  aggregate verify speedup: {:.2}x (informational)", mixed.speedup);

    let json = format!(
        "{{\n  \"benchmark\": \"cross-instance vs per-instance batched share verification\",\n  \
         \"instances\": {INSTANCES},\n  \
         \"shares_per_instance\": {SHARES_PER_INSTANCE},\n  \
         \"checks_total\": {checks_total},\n  \
         \"iterations\": {iters},\n  \
         \"quick\": {},\n  \
         \"acceptance_gate_speedup\": {ACCEPTANCE_SPEEDUP},\n  \
         \"bls04\": {{ \"per_instance_us\": {:.1}, \"cross_batch_us\": {:.1}, \"speedup\": {:.3} }},\n  \
         \"mixed\": {{ \"per_instance_us\": {:.1}, \"cross_batch_us\": {:.1}, \"speedup\": {:.3} }}\n}}\n",
        quick(),
        bls.per_instance_us,
        bls.cross_batch_us,
        bls.speedup,
        mixed.per_instance_us,
        mixed.cross_batch_us,
        mixed.speedup,
    );
    let path =
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_cross_batch.json");
    let mut f = std::fs::File::create(&path).expect("create BENCH_cross_batch.json");
    f.write_all(json.as_bytes()).expect("write BENCH_cross_batch.json");
    println!("wrote {}", path.display());

    // The PR acceptance gate: fail loudly (CI-visible) on regression.
    assert!(
        bls.speedup >= ACCEPTANCE_SPEEDUP,
        "cross-instance batching regressed: {:.2}x < {ACCEPTANCE_SPEEDUP}x on BLS04",
        bls.speedup
    );
    println!("acceptance gate passed: {:.2}x >= {ACCEPTANCE_SPEEDUP}x", bls.speedup);
}
