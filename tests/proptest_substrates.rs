//! Property-based tests (proptest) over the mathematical and encoding
//! substrates: bigint ring axioms against a `u128` oracle, Montgomery
//! vs naive modexp, field/group laws on random inputs, codec roundtrips.

use proptest::prelude::*;
use thetacrypt::codec::{Decode, Encode};
use thetacrypt::math::{mod_inverse, BigUint, Montgomery};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------------- BigUint vs u128 oracle ----------------

    #[test]
    fn biguint_add_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        let sum = &BigUint::from_u64(a) + &BigUint::from_u64(b);
        prop_assert_eq!(sum.to_u128().unwrap(), a as u128 + b as u128);
    }

    #[test]
    fn biguint_mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        let prod = &BigUint::from_u64(a) * &BigUint::from_u64(b);
        prop_assert_eq!(prod.to_u128().unwrap(), a as u128 * b as u128);
    }

    #[test]
    fn biguint_divrem_matches_u128(a in any::<u128>(), b in 1u64..) {
        let (q, r) = BigUint::from_u128(a).divrem(&BigUint::from_u64(b));
        prop_assert_eq!(q.to_u128().unwrap(), a / b as u128);
        prop_assert_eq!(r.to_u64().unwrap(), (a % b as u128) as u64);
    }

    #[test]
    fn biguint_bytes_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let v = BigUint::from_bytes_be(&bytes);
        // Canonical re-encoding strips leading zeros.
        let canon = v.to_bytes_be();
        prop_assert_eq!(BigUint::from_bytes_be(&canon), v);
    }

    #[test]
    fn biguint_shift_roundtrip(a in any::<u128>(), shift in 0usize..200) {
        let v = BigUint::from_u128(a);
        prop_assert_eq!(&(&v << shift) >> shift, v);
    }

    #[test]
    fn biguint_mul_distributes(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let (ba, bb, bc) = (BigUint::from_u64(a), BigUint::from_u64(b), BigUint::from_u64(c));
        prop_assert_eq!(&ba * &(&bb + &bc), &(&ba * &bb) + &(&ba * &bc));
    }

    // ---------------- Montgomery vs plain modexp ----------------

    #[test]
    fn montgomery_pow_matches_naive(base in any::<u64>(), exp in any::<u32>(), m in any::<u64>()) {
        let modulus = BigUint::from_u64((m | 1).max(3));
        let ctx = Montgomery::new(modulus.clone());
        let b = BigUint::from_u64(base);
        let e = BigUint::from_u64(exp as u64);
        // Plain square-and-multiply oracle via divrem.
        let mut acc = BigUint::one().rem(&modulus);
        let mut sq = b.rem(&modulus);
        for i in 0..e.bits() {
            if e.bit(i) {
                acc = (&acc * &sq).rem(&modulus);
            }
            sq = (&sq * &sq).rem(&modulus);
        }
        prop_assert_eq!(ctx.pow(&b, &e), acc);
    }

    #[test]
    fn mod_inverse_is_inverse(a in 1u64.., p_sel in 0usize..3) {
        let primes = ["65537", "4294967311", "1000000007"];
        let p = BigUint::from_dec(primes[p_sel]).unwrap();
        let a = BigUint::from_u64(a).rem(&p);
        if !a.is_zero() {
            let inv = mod_inverse(&a, &p).unwrap();
            prop_assert!((&inv * &a).rem(&p).is_one());
        }
    }

    // ---------------- Ed25519 group laws ----------------

    #[test]
    fn ed25519_scalar_mul_additive(a in any::<u64>(), b in any::<u64>()) {
        use thetacrypt::math::ed25519::{Point, Scalar};
        let sa = Scalar::from_u64(a);
        let sb = Scalar::from_u64(b);
        let lhs = Point::mul_base(&sa.add(&sb));
        let rhs = Point::mul_base(&sa).add(&Point::mul_base(&sb));
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn ed25519_compress_roundtrip(k in 1u64..) {
        use thetacrypt::math::ed25519::{Point, Scalar};
        let p = Point::mul_base(&Scalar::from_u64(k));
        let c = p.compress();
        // `==` is coset equality: the decoded representative may differ
        // from `p` by 4-torsion and still be the same element.
        let q = Point::decompress(&c).unwrap();
        prop_assert_eq!(q, p);
        prop_assert_eq!(q.compress(), c);
    }

    // ---------------- BN254 group laws ----------------

    #[test]
    fn bn254_g1_scalar_mul_additive(a in any::<u32>(), b in any::<u32>()) {
        use thetacrypt::math::bn254::{Fr, G1};
        let sa = Fr::from_u64(a as u64);
        let sb = Fr::from_u64(b as u64);
        let lhs = G1::mul_generator(&sa.add(&sb));
        let rhs = G1::mul_generator(&sa).add(&G1::mul_generator(&sb));
        prop_assert_eq!(lhs, rhs);
    }

    // ---------------- Symmetric primitives ----------------

    #[test]
    fn aead_roundtrip(
        key in any::<[u8; 32]>(),
        nonce in any::<[u8; 12]>(),
        aad in proptest::collection::vec(any::<u8>(), 0..32),
        msg in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        use thetacrypt::primitives::aead;
        let sealed = aead::seal(&key, &nonce, &aad, &msg);
        prop_assert_eq!(aead::open(&key, &nonce, &aad, &sealed).unwrap(), msg);
    }

    #[test]
    fn aead_tamper_rejected(
        key in any::<[u8; 32]>(),
        nonce in any::<[u8; 12]>(),
        msg in proptest::collection::vec(any::<u8>(), 1..64),
        flip_bit in 0usize..64,
    ) {
        use thetacrypt::primitives::aead;
        let mut sealed = aead::seal(&key, &nonce, b"", &msg);
        let idx = flip_bit % (sealed.len() * 8);
        sealed[idx / 8] ^= 1 << (idx % 8);
        prop_assert!(aead::open(&key, &nonce, b"", &sealed).is_err());
    }

    #[test]
    fn sha256_incremental_any_split(
        data in proptest::collection::vec(any::<u8>(), 0..300),
        split_frac in 0.0f64..1.0,
    ) {
        use thetacrypt::primitives::Sha256;
        let split = (data.len() as f64 * split_frac) as usize;
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    // ---------------- Codec roundtrips ----------------

    #[test]
    fn codec_roundtrip_composite(
        a in any::<u64>(),
        b in proptest::collection::vec(any::<u8>(), 0..64),
        c in proptest::option::of(any::<u32>()),
        s in "[a-z]{0,16}",
    ) {
        let v = (a, b, (c, s));
        let bytes = v.encoded();
        let back: (u64, Vec<u8>, (Option<u32>, String)) = Decode::decoded(&bytes).unwrap();
        prop_assert_eq!(back, v);
    }

    #[test]
    fn codec_rejects_truncation(
        a in any::<u64>(),
        b in proptest::collection::vec(any::<u8>(), 1..32),
        cut in 1usize..8,
    ) {
        let v = (a, b);
        let bytes = v.encoded();
        let cut = cut.min(bytes.len() - 1);
        let truncated = &bytes[..bytes.len() - cut];
        let r: Result<(u64, Vec<u8>), _> = Decode::decoded(truncated);
        prop_assert!(r.is_err());
    }
}
