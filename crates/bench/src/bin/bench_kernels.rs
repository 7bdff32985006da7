//! Measures each scalar-multiplication kernel against the serial path
//! it replaced and records the speedups in `BENCH_kernels.json` at the
//! repository root.
//!
//! Most pairs mirror `benches/kernels.rs`; `kg20/node4` times one
//! node's KG20 signing work with and without a shared signing set. This
//! binary exists so the numbers land in a machine-readable artifact
//! (consumed by DESIGN.md and the smoke script) rather than only in
//! Criterion's console output. `--quick` or `CRITERION_QUICK=1` shrinks
//! the measurement budget for CI smoke runs and only prints the table,
//! so the committed full-run `BENCH_kernels.json` is left alone. Every
//! run fails when the pairing product kernel (`pairing/multi4`) is under
//! 2x faster than the affine reference loop.

use rand::SeedableRng;
use std::io::Write;
use std::time::{Duration, Instant};
use theta_schemes::{bls04, sg02, ThresholdParams};

struct Pair {
    name: &'static str,
    old_ns: f64,
    new_ns: f64,
}

/// The shared projective multi-Miller loop must beat four affine
/// reference loops by this factor on `pairing/multi4`.
const PAIRING_GATE: f64 = 2.0;

fn quick() -> bool {
    std::env::args().any(|a| a == "--quick")
        || std::env::var("CRITERION_QUICK").map(|v| v == "1").unwrap_or(false)
}

/// Runs `f` repeatedly inside a wall-clock budget and returns the mean
/// nanoseconds per iteration (one warm-up call first).
fn measure<O>(budget: Duration, mut f: impl FnMut() -> O) -> f64 {
    std::hint::black_box(f());
    let start = Instant::now();
    let mut iters = 0u64;
    loop {
        std::hint::black_box(f());
        iters += 1;
        if start.elapsed() >= budget && iters >= 3 {
            break;
        }
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Mean nanoseconds per call of `f`, called once on each input (for
/// work that consumes its input, such as a single-use nonce).
fn measure_each<I, O>(inputs: Vec<I>, mut f: impl FnMut(I) -> O) -> f64 {
    let count = inputs.len();
    let start = Instant::now();
    for input in inputs {
        std::hint::black_box(f(input));
    }
    start.elapsed().as_nanos() as f64 / count as f64
}

fn main() {
    let budget = if quick() {
        Duration::from_millis(60)
    } else {
        Duration::from_millis(400)
    };
    let mut r = rand::rngs::StdRng::seed_from_u64(0x6e51);
    let mut pairs: Vec<Pair> = Vec::new();

    // Fixed-base: generic double-and-add vs the comb/window tables.
    {
        use theta_math::ed25519::{Point, Scalar};
        let s = Scalar::random(&mut r);
        let g = Point::base();
        pairs.push(Pair {
            name: "fixed_base/ed25519",
            old_ns: measure(budget, || g.mul(&s)),
            new_ns: measure(budget, || Point::mul_base(&s)),
        });
    }
    {
        use theta_math::bn254::{Fr, G1};
        let s = Fr::random(&mut r);
        let g1 = G1::generator();
        pairs.push(Pair {
            name: "fixed_base/bn254_g1",
            old_ns: measure(budget, || g1.mul(&s)),
            new_ns: measure(budget, || G1::mul_generator(&s)),
        });
    }
    {
        use theta_math::{BigUint, Montgomery};
        let m = {
            let mut v = BigUint::random_bits(&mut r, 1024);
            if v.is_even() {
                v = &v + &BigUint::one();
            }
            v
        };
        let base = BigUint::random_below(&mut r, &m);
        let exp = BigUint::random_bits(&mut r, 1024);
        let ctx = Montgomery::new(m);
        let table = ctx.precompute_base(&base, 1024);
        pairs.push(Pair {
            name: "fixed_base/modexp_1024",
            old_ns: measure(budget, || ctx.pow(&base, &exp)),
            new_ns: measure(budget, || ctx.pow_precomputed(&table, &exp)),
        });
    }

    // MSM: naive Σ sᵢ·Pᵢ loop vs the Straus kernel at quorum size.
    {
        use theta_math::ed25519::{Point, Scalar};
        let scalars: Vec<Scalar> = (0..16).map(|_| Scalar::random(&mut r)).collect();
        let points: Vec<Point> = scalars.iter().map(Point::mul_base).collect();
        let coeffs: Vec<&theta_math::BigUint> = scalars.iter().map(|s| s.to_biguint()).collect();
        pairs.push(Pair {
            name: "msm/ed25519_16",
            old_ns: measure(budget, || {
                let mut acc = Point::identity();
                for (p, s) in points.iter().zip(&scalars) {
                    acc = acc.add(&p.mul(s));
                }
                acc
            }),
            new_ns: measure(budget, || theta_math::msm::msm(&points, &coeffs)),
        });
    }
    {
        use theta_math::{BigUint, Montgomery};
        let m = {
            let mut v = BigUint::random_bits(&mut r, 1024);
            if v.is_even() {
                v = &v + &BigUint::one();
            }
            v
        };
        let bases: Vec<BigUint> = (0..5).map(|_| BigUint::random_below(&mut r, &m)).collect();
        let exps: Vec<BigUint> = (0..5).map(|_| BigUint::random_bits(&mut r, 256)).collect();
        let exp_refs: Vec<&BigUint> = exps.iter().collect();
        let ctx = Montgomery::new(m.clone());
        pairs.push(Pair {
            name: "msm/rsa_multiexp_5",
            old_ns: measure(budget, || {
                let mut acc = BigUint::one();
                for (base, exp) in bases.iter().zip(&exps) {
                    acc = (&acc * &ctx.pow(base, exp)).rem(&m);
                }
                acc
            }),
            new_ns: measure(budget, || ctx.multi_exp(&bases, &exp_refs)),
        });
    }

    // Pairings: the affine reference Miller loop (one per pair, dense
    // lines) vs the shared projective multi-Miller loop, both followed by
    // the same final exponentiation.
    {
        use theta_math::bn254::{miller_loop_affine, multi_pairing, pairing, Fp12, Fr, G1, G2};
        let g1: Vec<G1> = (0..4).map(|_| G1::mul_generator(&Fr::random(&mut r))).collect();
        let g2: Vec<G2> = (0..4).map(|_| G2::mul_generator(&Fr::random(&mut r))).collect();
        let reference = |n: usize| {
            let mut f = Fp12::ONE;
            for (p, q) in g1.iter().zip(&g2).take(n) {
                f = f.mul(&miller_loop_affine(p, q));
            }
            f.final_exponentiation()
        };
        pairs.push(Pair {
            name: "pairing/single",
            old_ns: measure(budget, || reference(1)),
            new_ns: measure(budget, || pairing(&g1[0], &g2[0])),
        });
        let four: Vec<(&G1, &G2)> = g1.iter().zip(&g2).collect();
        pairs.push(Pair {
            name: "pairing/multi4",
            old_ns: measure(budget, || reference(4)),
            new_ns: measure(budget, || multi_pairing(&four)),
        });
    }

    // Batched share verification at sixteen shares.
    let msg = b"kernel bench message".to_vec();
    let params16 = ThresholdParams::new(2, 16).unwrap();
    {
        let (pk, keys) = bls04::keygen(params16, &mut r);
        let shares: Vec<_> = keys.iter().map(|k| bls04::sign_share(k, &msg).unwrap()).collect();
        pairs.push(Pair {
            name: "verify_16/bls04",
            old_ns: measure(budget, || {
                for s in &shares {
                    assert!(bls04::verify_share(&pk, &msg, s));
                }
            }),
            new_ns: measure(budget, || bls04::verify_shares_batch(&pk, &msg, &shares).unwrap()),
        });
    }
    {
        let (pk, keys) = sg02::keygen(params16, &mut r);
        let ct = sg02::encrypt(&pk, b"bench", &msg, &mut r);
        let shares: Vec<_> = keys
            .iter()
            .map(|k| sg02::create_decryption_share(k, &ct, &mut r).unwrap())
            .collect();
        pairs.push(Pair {
            name: "verify_16/sg02",
            old_ns: measure(budget, || {
                for s in &shares {
                    assert!(sg02::verify_decryption_share(&pk, &ct, s));
                }
            }),
            new_ns: measure(budget, || {
                sg02::verify_decryption_shares_batch(&pk, &ct, &shares).unwrap()
            }),
        });
    }

    // Combine at a five-share quorum (t = 4): pre-PR serial path vs the
    // batched-verification + MSM path.
    let params5 = ThresholdParams::new(4, 9).unwrap();
    {
        let (pk, keys) = bls04::keygen(params5, &mut r);
        let shares: Vec<_> =
            keys[..5].iter().map(|k| bls04::sign_share(k, &msg).unwrap()).collect();
        pairs.push(Pair {
            name: "combine_t5/bls04",
            old_ns: measure(budget, || {
                bls04::combine_serial_baseline(&pk, &msg, &shares).unwrap()
            }),
            new_ns: measure(budget, || bls04::combine(&pk, &msg, &shares).unwrap()),
        });
    }
    {
        let (pk, keys) = sg02::keygen(params5, &mut r);
        let ct = sg02::encrypt(&pk, b"bench", &msg, &mut r);
        let shares: Vec<_> = keys[..5]
            .iter()
            .map(|k| sg02::create_decryption_share(k, &ct, &mut r).unwrap())
            .collect();
        pairs.push(Pair {
            name: "combine_t5/sg02",
            old_ns: measure(budget, || {
                sg02::combine_serial_baseline(&pk, &ct, &shares).unwrap()
            }),
            new_ns: measure(budget, || sg02::combine(&pk, &ct, &shares).unwrap()),
        });
    }

    // One node's KG20 work at n = 4 (sign, three verifies, combine):
    // the per-call free functions, each deriving the signing set again,
    // vs one `SigningSet` per instance. A nonce signs once, so every
    // call gets its own prepared instance.
    {
        use theta_schemes::kg20::{self, NonceCommitment, SignatureShare, SigningNonce, SigningSet};
        let params4 = ThresholdParams::new(1, 4).unwrap();
        let (pk, keys) = kg20::keygen(params4, &mut r);
        let instances = if quick() { 6 } else { 30 };
        let mut prepare = || -> Vec<(SigningNonce, Vec<NonceCommitment>, Vec<SignatureShare>)> {
            (0..instances)
                .map(|_| {
                    let mut nonces: Vec<SigningNonce> =
                        keys.iter().map(|k| kg20::generate_nonce(k, &mut r)).collect();
                    let commits: Vec<NonceCommitment> =
                        nonces.iter().map(|n| n.commitment().clone()).collect();
                    let set = SigningSet::new(&pk, &msg, &commits).unwrap();
                    let remote = keys[1..]
                        .iter()
                        .zip(nonces.drain(1..))
                        .map(|(k, n)| set.sign_share(k, n).unwrap())
                        .collect();
                    (nonces.pop().unwrap(), commits, remote)
                })
                .collect()
        };
        let old_inputs = prepare();
        let new_inputs = prepare();
        pairs.push(Pair {
            name: "kg20/node4",
            old_ns: measure_each(old_inputs, |(nonce, commits, mut shares)| {
                let own = kg20::sign_share(&keys[0], nonce, &msg, &commits).unwrap();
                for s in &shares {
                    assert!(kg20::verify_share(&pk, &msg, &commits, s));
                }
                shares.push(own);
                kg20::combine(&pk, &msg, &commits, &shares).unwrap()
            }),
            new_ns: measure_each(new_inputs, |(nonce, commits, mut shares)| {
                let set = SigningSet::new(&pk, &msg, &commits).unwrap();
                let own = set.sign_share(&keys[0], nonce).unwrap();
                for s in &shares {
                    assert!(set.verify_share(&pk, s));
                }
                shares.push(own);
                set.combine_preverified(&shares).unwrap()
            }),
        });
    }

    let mut json = String::from("{\n  \"benchmark\": \"scalar-multiplication kernels\",\n");
    json.push_str("  \"quick\": false,\n  \"results\": [\n");
    for (i, p) in pairs.iter().enumerate() {
        let speedup = p.old_ns / p.new_ns;
        println!(
            "{:<24} old {:>12.1} ns   new {:>12.1} ns   speedup {:>5.2}x",
            p.name, p.old_ns, p.new_ns, speedup
        );
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"old_ns\": {:.1}, \"new_ns\": {:.1}, \"speedup\": {:.2}}}{}\n",
            p.name,
            p.old_ns,
            p.new_ns,
            speedup,
            if i + 1 < pairs.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    if quick() {
        println!("quick run: BENCH_kernels.json left unchanged");
    } else {
        let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../BENCH_kernels.json");
        let mut f = std::fs::File::create(&path).expect("create BENCH_kernels.json");
        f.write_all(json.as_bytes()).expect("write BENCH_kernels.json");
        println!("wrote {}", path.display());
    }

    let multi4 = pairs
        .iter()
        .find(|p| p.name == "pairing/multi4")
        .map(|p| p.old_ns / p.new_ns)
        .unwrap_or(0.0);
    assert!(
        multi4 >= PAIRING_GATE,
        "pairing kernel regressed: pairing/multi4 {multi4:.2}x < {PAIRING_GATE}x"
    );
    println!("pairing gate passed: pairing/multi4 {multi4:.2}x >= {PAIRING_GATE}x");
}
