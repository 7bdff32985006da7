//! Criterion micro-benchmarks for the scalar-multiplication kernels:
//! each pair puts the pre-optimization serial path next to the kernel
//! that replaced it.
//!
//! Groups:
//!
//! - `fixed_base/*` — generic double-and-add vs the comb/window tables
//!   behind `Point::mul_base`, `G1::mul_generator` and
//!   `Montgomery::pow_precomputed`;
//! - `msm/*` — naive `Σ sᵢ·Pᵢ` loops vs the Straus/Pippenger kernel;
//! - `pairing/*` — the affine reference Miller loop (one per pair) vs
//!   the shared projective multi-Miller loop, for one and four pairs;
//! - `verify_16/*` — sixteen per-share verifications vs one batched
//!   random-linear-combination check;
//! - `combine_t5/*` — the pre-PR serial combine (per-share verify +
//!   per-share Lagrange) vs the batched MSM combine at a 5-share quorum.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use theta_schemes::{bls04, sg02, ThresholdParams};

fn rng() -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(0x6e51)
}

fn bench_fixed_base(c: &mut Criterion) {
    let mut group = c.benchmark_group("fixed_base");
    group.sample_size(20);

    {
        use theta_math::ed25519::{Point, Scalar};
        let mut r = rng();
        let s = Scalar::random(&mut r);
        let g = Point::base();
        group.bench_function("ed25519_double_and_add", |b| b.iter(|| g.mul(black_box(&s))));
        group.bench_function("ed25519_comb_table", |b| b.iter(|| Point::mul_base(black_box(&s))));
    }

    {
        use theta_math::bn254::{Fr, G1, G2};
        let mut r = rng();
        let s = Fr::random(&mut r);
        let g1 = G1::generator();
        group.bench_function("bn254_g1_double_and_add", |b| b.iter(|| g1.mul(black_box(&s))));
        group.bench_function("bn254_g1_comb_table", |b| b.iter(|| G1::mul_generator(black_box(&s))));
        let g2 = G2::generator();
        group.bench_function("bn254_g2_double_and_add", |b| b.iter(|| g2.mul(black_box(&s))));
        group.bench_function("bn254_g2_comb_table", |b| b.iter(|| G2::mul_generator(black_box(&s))));
    }

    {
        use theta_math::{BigUint, Montgomery};
        let mut r = rng();
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
        group.bench_function("modexp_1024_sliding_window", |b| {
            b.iter(|| ctx.pow(black_box(&base), black_box(&exp)))
        });
        group.bench_function("modexp_1024_fixed_base_table", |b| {
            b.iter(|| ctx.pow_precomputed(black_box(&table), black_box(&exp)))
        });
    }
    group.finish();
}

fn bench_msm(c: &mut Criterion) {
    let mut group = c.benchmark_group("msm");
    group.sample_size(10);

    {
        use theta_math::ed25519::{Point, Scalar};
        let mut r = rng();
        let scalars: Vec<Scalar> = (0..16).map(|_| Scalar::random(&mut r)).collect();
        let points: Vec<Point> = scalars.iter().map(Point::mul_base).collect();
        let coeffs: Vec<&theta_math::BigUint> = scalars.iter().map(|s| s.to_biguint()).collect();
        group.bench_function("ed25519_16_naive", |b| {
            b.iter(|| {
                let mut acc = Point::identity();
                for (p, s) in points.iter().zip(&scalars) {
                    acc = acc.add(&p.mul(s));
                }
                acc
            })
        });
        group.bench_function("ed25519_16_straus", |b| {
            b.iter(|| theta_math::msm::msm(black_box(&points), black_box(&coeffs)))
        });
        let scalars_64: Vec<Scalar> = (0..64).map(|_| Scalar::random(&mut r)).collect();
        let points_64: Vec<Point> = scalars_64.iter().map(Point::mul_base).collect();
        let coeffs_64: Vec<&theta_math::BigUint> =
            scalars_64.iter().map(|s| s.to_biguint()).collect();
        group.bench_function("ed25519_64_straus", |b| {
            b.iter(|| theta_math::msm::msm(black_box(&points_64), black_box(&coeffs_64)))
        });
        let scalars_256: Vec<Scalar> = (0..256).map(|_| Scalar::random(&mut r)).collect();
        let points_256: Vec<Point> = scalars_256.iter().map(Point::mul_base).collect();
        let coeffs_256: Vec<&theta_math::BigUint> =
            scalars_256.iter().map(|s| s.to_biguint()).collect();
        group.bench_function("ed25519_256_pippenger", |b| {
            b.iter(|| theta_math::msm::msm(black_box(&points_256), black_box(&coeffs_256)))
        });
    }

    {
        use theta_math::bn254::{Fr, G1};
        let mut r = rng();
        let scalars: Vec<Fr> = (0..16).map(|_| Fr::random(&mut r)).collect();
        let points: Vec<G1> = scalars.iter().map(G1::mul_generator).collect();
        let coeffs: Vec<&theta_math::BigUint> = scalars.iter().map(|s| s.to_biguint()).collect();
        group.bench_function("bn254_g1_16_naive", |b| {
            b.iter(|| {
                let mut acc = G1::identity();
                for (p, s) in points.iter().zip(&scalars) {
                    acc = acc.add(&p.mul(s));
                }
                acc
            })
        });
        group.bench_function("bn254_g1_16_straus", |b| {
            b.iter(|| theta_math::msm::msm(black_box(&points), black_box(&coeffs)))
        });
    }

    {
        use theta_math::{BigUint, Montgomery};
        let mut r = rng();
        let m = {
            let mut v = BigUint::random_bits(&mut r, 1024);
            if v.is_even() {
                v = &v + &BigUint::one();
            }
            v
        };
        let bases: Vec<BigUint> =
            (0..5).map(|_| BigUint::random_below(&mut r, &m)).collect();
        let exps: Vec<BigUint> = (0..5).map(|_| BigUint::random_bits(&mut r, 256)).collect();
        let exp_refs: Vec<&BigUint> = exps.iter().collect();
        let ctx = Montgomery::new(m.clone());
        group.bench_function("rsa_multiexp_5_serial", |b| {
            b.iter(|| {
                let mut acc = BigUint::one();
                for (base, exp) in bases.iter().zip(&exps) {
                    acc = (&acc * &ctx.pow(base, exp)).rem(&m);
                }
                acc
            })
        });
        group.bench_function("rsa_multiexp_5_straus", |b| {
            b.iter(|| ctx.multi_exp(black_box(&bases), black_box(&exp_refs)))
        });
    }
    group.finish();
}

fn bench_pairing(c: &mut Criterion) {
    use theta_math::bn254::{miller_loop_affine, multi_pairing, Fp12, Fr, G1, G2};
    let mut group = c.benchmark_group("pairing");
    group.sample_size(10);
    let mut r = rng();
    let g1: Vec<G1> = (0..4).map(|_| G1::mul_generator(&Fr::random(&mut r))).collect();
    let g2: Vec<G2> = (0..4).map(|_| G2::mul_generator(&Fr::random(&mut r))).collect();
    for n in [1usize, 4] {
        let pairs: Vec<(&G1, &G2)> = g1.iter().zip(&g2).take(n).collect();
        group.bench_function(&format!("affine_reference_{n}"), |b| {
            b.iter(|| {
                let mut f = Fp12::ONE;
                for (p, q) in &pairs {
                    f = f.mul(&miller_loop_affine(black_box(p), q));
                }
                f.final_exponentiation()
            })
        });
        group.bench_function(&format!("projective_multi_{n}"), |b| {
            b.iter(|| multi_pairing(black_box(&pairs)))
        });
    }
    group.finish();
}

fn bench_verify_16(c: &mut Criterion) {
    let mut group = c.benchmark_group("verify_16");
    group.sample_size(10);
    let params = ThresholdParams::new(2, 16).unwrap();
    let msg = b"kernel bench message".to_vec();

    {
        let mut r = rng();
        let (pk, keys) = bls04::keygen(params, &mut r);
        let shares: Vec<_> = keys.iter().map(|k| bls04::sign_share(k, &msg).unwrap()).collect();
        group.bench_function("bls04_serial", |b| {
            b.iter(|| {
                for s in &shares {
                    assert!(bls04::verify_share(&pk, &msg, s));
                }
            })
        });
        group.bench_function("bls04_batch", |b| {
            b.iter(|| bls04::verify_shares_batch(&pk, &msg, &shares).unwrap())
        });
    }

    {
        let mut r = rng();
        let (pk, keys) = sg02::keygen(params, &mut r);
        let ct = sg02::encrypt(&pk, b"bench", &msg, &mut r);
        let shares: Vec<_> = keys
            .iter()
            .map(|k| sg02::create_decryption_share(k, &ct, &mut r).unwrap())
            .collect();
        group.bench_function("sg02_serial", |b| {
            b.iter(|| {
                for s in &shares {
                    assert!(sg02::verify_decryption_share(&pk, &ct, s));
                }
            })
        });
        group.bench_function("sg02_batch", |b| {
            b.iter(|| sg02::verify_decryption_shares_batch(&pk, &ct, &shares).unwrap())
        });
    }
    group.finish();
}

fn bench_combine_t5(c: &mut Criterion) {
    let mut group = c.benchmark_group("combine_t5");
    group.sample_size(10);
    // t = 4, so a quorum is five shares.
    let params = ThresholdParams::new(4, 9).unwrap();
    let msg = b"kernel bench message".to_vec();

    {
        let mut r = rng();
        let (pk, keys) = bls04::keygen(params, &mut r);
        let shares: Vec<_> =
            keys[..5].iter().map(|k| bls04::sign_share(k, &msg).unwrap()).collect();
        group.bench_function("bls04_serial", |b| {
            b.iter(|| bls04::combine_serial_baseline(&pk, &msg, &shares).unwrap())
        });
        group.bench_function("bls04_batched", |b| {
            b.iter(|| bls04::combine(&pk, &msg, &shares).unwrap())
        });
    }

    {
        let mut r = rng();
        let (pk, keys) = sg02::keygen(params, &mut r);
        let ct = sg02::encrypt(&pk, b"bench", &msg, &mut r);
        let shares: Vec<_> = keys[..5]
            .iter()
            .map(|k| sg02::create_decryption_share(k, &ct, &mut r).unwrap())
            .collect();
        group.bench_function("sg02_serial", |b| {
            b.iter(|| sg02::combine_serial_baseline(&pk, &ct, &shares).unwrap())
        });
        group.bench_function("sg02_batched", |b| {
            b.iter(|| sg02::combine(&pk, &ct, &shares).unwrap())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_fixed_base,
    bench_msm,
    bench_pairing,
    bench_verify_16,
    bench_combine_t5
);
criterion_main!(benches);
