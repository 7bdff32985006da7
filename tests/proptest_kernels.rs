//! Property-based tests for the scalar-multiplication and pairing
//! kernels: the MSM agrees with the naive `Σ sᵢ·Pᵢ` loop on every group,
//! the shared projective multi-Miller loop agrees with the affine
//! reference loop, batched share verification accepts exactly when every
//! share verifies individually (with bisection naming the first culprit)
//! under either grouping of the cross-instance pairing product, and the
//! optimised combine paths produce the same results as the serial
//! baselines they replaced.

use proptest::prelude::*;
use rand::SeedableRng;
use thetacrypt::math::msm::msm;
use thetacrypt::math::BigUint;
use thetacrypt::schemes::batch::{self, PendingCheck};
use thetacrypt::schemes::ThresholdParams;

fn rng_from(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

/// Settles `checks` as one cross-instance batch: the combined equation
/// must accept exactly when every check holds alone, and the bisection
/// must reproduce every individual verdict.
fn cross_instance_matches_individual(checks: &[PendingCheck]) {
    let refs: Vec<&PendingCheck> = checks.iter().collect();
    let alone: Vec<bool> = checks.iter().map(PendingCheck::holds).collect();
    assert_eq!(batch::batch_holds(&refs), alone.iter().all(|&v| v));
    assert_eq!(batch::settle_mixed(&refs), alone);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn msm_matches_naive_ed25519(seed in any::<u64>(), n in 0usize..10) {
        use thetacrypt::math::ed25519::{Point, Scalar};
        let mut r = rng_from(seed);
        let scalars: Vec<Scalar> = (0..n).map(|_| Scalar::random(&mut r)).collect();
        let points: Vec<Point> =
            (0..n).map(|_| Point::mul_base(&Scalar::random(&mut r))).collect();
        let coeffs: Vec<&BigUint> = scalars.iter().map(|s| s.to_biguint()).collect();
        let mut naive = Point::identity();
        for (p, s) in points.iter().zip(&scalars) {
            naive = naive.add(&p.mul(s));
        }
        prop_assert_eq!(msm(&points, &coeffs), naive);
    }

    #[test]
    fn msm_matches_naive_bn254(seed in any::<u64>(), n in 0usize..6) {
        use thetacrypt::math::bn254::{Fr, G1, G2};
        let mut r = rng_from(seed);
        let scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut r)).collect();
        let coeffs: Vec<&BigUint> = scalars.iter().map(|s| s.to_biguint()).collect();
        let g1s: Vec<G1> = (0..n).map(|_| G1::mul_generator(&Fr::random(&mut r))).collect();
        let mut naive1 = G1::identity();
        for (p, s) in g1s.iter().zip(&scalars) {
            naive1 = naive1.add(&p.mul(s));
        }
        prop_assert_eq!(msm(&g1s, &coeffs), naive1);
        let g2s: Vec<G2> = (0..n).map(|_| G2::mul_generator(&Fr::random(&mut r))).collect();
        let mut naive2 = G2::identity();
        for (p, s) in g2s.iter().zip(&scalars) {
            naive2 = naive2.add(&p.mul(s));
        }
        prop_assert_eq!(msm(&g2s, &coeffs), naive2);
    }

    #[test]
    fn batch_lagrange_matches_per_party(seed in any::<u64>(), t in 0u16..5, extra in 1u16..4) {
        use thetacrypt::schemes::common::{
            lagrange_at_zero, lagrange_coeffs_at_zero, shamir_share, PartyId,
        };
        use thetacrypt::math::ed25519::Scalar;
        use rand::seq::SliceRandom;
        let n = 2 * t + extra;
        let params = ThresholdParams::new(t, n).unwrap();
        let mut r = rng_from(seed);
        let shares = shamir_share(&Scalar::random(&mut r), params, &mut r);
        let mut ids: Vec<PartyId> = shares.iter().map(|(id, _)| *id).collect();
        ids.shuffle(&mut r);
        ids.truncate((t + 1) as usize);
        let batch = lagrange_coeffs_at_zero::<Scalar>(&ids).unwrap();
        for (i, id) in ids.iter().enumerate() {
            prop_assert_eq!(&batch[i], &lagrange_at_zero::<Scalar>(*id, &ids).unwrap());
        }
    }

    #[test]
    fn bls04_batch_accepts_iff_all_valid(
        seed in any::<u64>(),
        msg in proptest::collection::vec(any::<u8>(), 0..64),
        bad in proptest::option::of(0usize..5),
    ) {
        use thetacrypt::schemes::{bls04, SchemeError};
        let mut r = rng_from(seed);
        let params = ThresholdParams::new(2, 5).unwrap();
        let (pk, keys) = bls04::keygen(params, &mut r);
        let mut shares: Vec<_> =
            keys.iter().map(|k| bls04::sign_share(k, &msg).unwrap()).collect();
        if let Some(i) = bad {
            // Forge share i by signing a different message with the
            // same key: individually well-formed, but invalid here.
            shares[i] = bls04::sign_share(&keys[i], b"forged").unwrap();
            // A forgery only exists when the messages actually differ.
            prop_assume!(msg != b"forged");
        }
        let all_valid = shares.iter().all(|s| bls04::verify_share(&pk, &msg, s));
        let batch = bls04::verify_shares_batch(&pk, &msg, &shares);
        prop_assert_eq!(all_valid, batch.is_ok());
        if let Some(i) = bad {
            match batch {
                Err(SchemeError::InvalidShare { party }) => {
                    prop_assert_eq!(party, shares[i].id().value());
                }
                other => prop_assert!(false, "expected InvalidShare, got {:?}", other),
            }
        }

        // The same shares as cross-instance checks. One instance: one hash
        // against five keys, so the product groups by hash.
        let h = bls04::hash_message(&msg).unwrap();
        let one: Vec<PendingCheck> =
            shares.iter().map(|s| bls04::pending_check_with_hash(&pk, &h, s)).collect();
        cross_instance_matches_individual(&one);
        // Parties 1–3 also sign four more messages: three keys against
        // five hashes, so the product groups by key.
        let mut many = one[..3].to_vec();
        for m in 0u8..4 {
            let other = [&msg[..], b"/instance", &[m]].concat();
            let h = bls04::hash_message(&other).unwrap();
            for k in &keys[..3] {
                let share = bls04::sign_share(k, &other).unwrap();
                many.push(bls04::pending_check_with_hash(&pk, &h, &share));
            }
        }
        cross_instance_matches_individual(&many);
    }

    #[test]
    fn bz03_batch_accepts_iff_all_valid(
        seed in any::<u64>(),
        msg in proptest::collection::vec(any::<u8>(), 0..64),
        bad in proptest::option::of(0usize..5),
    ) {
        use thetacrypt::schemes::{bz03, SchemeError};
        let mut r = rng_from(seed);
        let params = ThresholdParams::new(2, 5).unwrap();
        let (pk, keys) = bz03::keygen(params, &mut r);
        let ct = bz03::encrypt(&pk, b"label", &msg, &mut r);
        let other_ct = bz03::encrypt(&pk, b"label", &msg, &mut r);
        let mut shares: Vec<_> =
            keys.iter().map(|k| bz03::create_decryption_share(k, &ct).unwrap()).collect();
        if let Some(i) = bad {
            // A valid share for a *different* ciphertext.
            shares[i] = bz03::create_decryption_share(&keys[i], &other_ct).unwrap();
        }
        let all_valid = shares.iter().all(|s| bz03::verify_decryption_share(&pk, &ct, s));
        let batch = bz03::verify_decryption_shares_batch(&pk, &ct, &shares);
        prop_assert_eq!(all_valid, batch.is_ok());
        if let Some(i) = bad {
            prop_assert!(!all_valid);
            match batch {
                Err(SchemeError::InvalidShare { party }) => {
                    prop_assert_eq!(party, shares[i].id().value());
                }
                other => prop_assert!(false, "expected InvalidShare, got {:?}", other),
            }
        }

        // One ciphertext: one W against five keys, so the e(W, Y) terms
        // group by W.
        let one: Vec<PendingCheck> =
            shares.iter().map(|s| bz03::pending_check(&pk, &ct, s)).collect();
        cross_instance_matches_individual(&one);
        // Parties 1–3 also decrypt four more ciphertexts: three keys
        // against five Ws, so the e(W, Y) terms group by key.
        let mut many = one[..3].to_vec();
        for m in 0u8..4 {
            let ct_m = bz03::encrypt(&pk, &[b'i', m], &msg, &mut r);
            for k in &keys[..3] {
                let share = bz03::create_decryption_share(k, &ct_m).unwrap();
                many.push(bz03::pending_check(&pk, &ct_m, &share));
            }
        }
        cross_instance_matches_individual(&many);
    }

    #[test]
    fn sg02_batch_accepts_iff_all_valid(
        seed in any::<u64>(),
        msg in proptest::collection::vec(any::<u8>(), 0..64),
        bad in proptest::option::of(0usize..5),
    ) {
        use thetacrypt::schemes::{sg02, SchemeError};
        let mut r = rng_from(seed);
        let params = ThresholdParams::new(2, 5).unwrap();
        let (pk, keys) = sg02::keygen(params, &mut r);
        let ct = sg02::encrypt(&pk, b"label", &msg, &mut r);
        let other_ct = sg02::encrypt(&pk, b"label", &msg, &mut r);
        let mut shares: Vec<_> = keys
            .iter()
            .map(|k| sg02::create_decryption_share(k, &ct, &mut r).unwrap())
            .collect();
        if let Some(i) = bad {
            // A valid share for a *different* ciphertext: the proof
            // verifies against other_ct but not against ct.
            shares[i] = sg02::create_decryption_share(&keys[i], &other_ct, &mut r).unwrap();
        }
        let all_valid =
            shares.iter().all(|s| sg02::verify_decryption_share(&pk, &ct, s));
        let batch = sg02::verify_decryption_shares_batch(&pk, &ct, &shares);
        prop_assert_eq!(all_valid, batch.is_ok());
        if let Some(i) = bad {
            prop_assert!(!all_valid);
            match batch {
                Err(SchemeError::InvalidShare { party }) => {
                    prop_assert_eq!(party, shares[i].id().value());
                }
                other => prop_assert!(false, "expected InvalidShare, got {:?}", other),
            }
        }
    }

    #[test]
    fn optimized_combine_matches_serial_baseline(
        seed in any::<u64>(),
        msg in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        use thetacrypt::schemes::{bls04, sg02};
        let mut r = rng_from(seed);
        let params = ThresholdParams::new(2, 5).unwrap();

        let (bpk, bkeys) = bls04::keygen(params, &mut r);
        let bshares: Vec<_> =
            bkeys[..3].iter().map(|k| bls04::sign_share(k, &msg).unwrap()).collect();
        let fast = bls04::combine(&bpk, &msg, &bshares).unwrap();
        let slow = bls04::combine_serial_baseline(&bpk, &msg, &bshares).unwrap();
        prop_assert_eq!(fast, slow);

        let (spk, skeys) = sg02::keygen(params, &mut r);
        let ct = sg02::encrypt(&spk, b"label", &msg, &mut r);
        let sshares: Vec<_> = skeys[..3]
            .iter()
            .map(|k| sg02::create_decryption_share(k, &ct, &mut r).unwrap())
            .collect();
        let fast = sg02::combine(&spk, &ct, &sshares).unwrap();
        let slow = sg02::combine_serial_baseline(&spk, &ct, &sshares).unwrap();
        prop_assert_eq!(&fast, &msg);
        prop_assert_eq!(fast, slow);
    }
}

/// A G1/G2 point pair for the pairing oracle: `kind` 0 and 1 put the
/// identity on one side, anything else gives random non-identity points.
fn pairing_pair(
    r: &mut rand::rngs::StdRng,
    kind: u8,
) -> (thetacrypt::math::bn254::G1, thetacrypt::math::bn254::G2) {
    use thetacrypt::math::bn254::{Fr, G1, G2};
    let p = G1::mul_generator(&Fr::random(r));
    let q = G2::mul_generator(&Fr::random(r));
    match kind {
        0 => (G1::identity(), q),
        1 => (p, G2::identity()),
        _ => (p, q),
    }
}

proptest! {
    // Each case runs up to ten affine reference Miller loops.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn multi_pairing_matches_affine_reference(
        seed in any::<u64>(),
        kinds in proptest::collection::vec(0u8..6, 0..6),
        balanced in any::<bool>(),
    ) {
        use thetacrypt::math::bn254::{
            miller_loop_affine, multi_pairing, pairing_check, Fp12, Fr, G1, G2,
        };
        let mut r = rng_from(seed);
        let pairs: Vec<(G1, G2)> = kinds.iter().map(|&k| pairing_pair(&mut r, k)).collect();
        let refs: Vec<(&G1, &G2)> = pairs.iter().map(|(p, q)| (p, q)).collect();
        let reference = |pairs: &[(&G1, &G2)]| {
            let mut f = Fp12::ONE;
            for (p, q) in pairs {
                f = f.mul(&miller_loop_affine(p, q));
            }
            f.final_exponentiation().unwrap()
        };
        prop_assert_eq!(multi_pairing(&refs), reference(&refs));

        // pairing_check verdicts: e(s·A, B) == e(A, s·B) holds, and
        // breaks when one side is perturbed (unless a point is the identity).
        let (a1, a2) = pairing_pair(&mut r, kinds.first().copied().unwrap_or(5));
        let s = Fr::random(&mut r);
        let b1 = if balanced { a1.mul(&s) } else { a1.mul(&s).add(&G1::generator()) };
        let b2 = a2.mul(&s);
        let lhs = (&b1, &a2);
        let neg_a1 = a1.neg();
        let rhs = (&neg_a1, &b2);
        // e(b1, a2) == e(a1, b2)  ⟺  e(b1, a2)·e(−a1, b2) == 1
        let expect = reference(&[lhs, rhs]).is_one();
        prop_assert_eq!(pairing_check(&b1, &a2, &a1, &b2), expect);
        if balanced {
            prop_assert!(expect);
        }
    }
}
