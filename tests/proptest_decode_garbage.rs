//! Fuzz-style property tests: decoding attacker-controlled bytes into
//! any wire type must never panic — only return structured errors —
//! and mutated valid encodings must never decode into a *different*
//! valid object that passes verification.

use proptest::prelude::*;
use rand::SeedableRng;
use thetacrypt::codec::{Decode, Encode};
use thetacrypt::schemes::ThresholdParams;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_bytes_never_panic_decoders(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        use thetacrypt::schemes::{bls04, bz03, cks05, kg20, sg02, sh00, dkg};
        // Scheme objects.
        let _ = sg02::PublicKey::decoded(&bytes);
        let _ = sg02::Ciphertext::decoded(&bytes);
        let _ = sg02::DecryptionShare::decoded(&bytes);
        let _ = bz03::Ciphertext::decoded(&bytes);
        let _ = bz03::DecryptionShare::decoded(&bytes);
        let _ = sh00::PublicKey::decoded(&bytes);
        let _ = sh00::SignatureShare::decoded(&bytes);
        let _ = bls04::PublicKey::decoded(&bytes);
        let _ = bls04::SignatureShare::decoded(&bytes);
        let _ = bls04::Signature::decoded(&bytes);
        let _ = kg20::NonceCommitment::decoded(&bytes);
        let _ = kg20::SignatureShare::decoded(&bytes);
        let _ = kg20::Signature::decoded(&bytes);
        let _ = cks05::CoinShare::decoded(&bytes);
        let _ = dkg::Commitment::decoded(&bytes);
        let _ = dkg::DealtShare::decoded(&bytes);
        // Orchestration envelopes.
        let _ = thetacrypt::orchestration::Envelope::decoded(&bytes);
        let _ = thetacrypt::orchestration::Request::decoded(&bytes);
        // Service frames.
        let _ =
            thetacrypt::service::Frame::<thetacrypt::service::RpcRequest>::decoded(&bytes);
        let _ =
            thetacrypt::service::Frame::<thetacrypt::service::RpcResponse>::decoded(&bytes);
    }

    #[test]
    fn mutated_share_never_verifies(seed in any::<u64>(), flip in 0usize..512) {
        use thetacrypt::schemes::sg02;
        let mut r = rand::rngs::StdRng::seed_from_u64(seed);
        let params = ThresholdParams::new(1, 4).unwrap();
        let (pk, keys) = sg02::keygen(params, &mut r);
        let ct = sg02::encrypt(&pk, b"l", b"m", &mut r);
        let share = sg02::create_decryption_share(&keys[0], &ct, &mut r).unwrap();
        let mut bytes = share.encoded();
        let bit = flip % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        // Either the mutation breaks decoding, or the decoded share fails
        // verification — it must never verify as a different valid share.
        if let Ok(mutated) = sg02::DecryptionShare::decoded(&bytes) {
            prop_assert!(
                !sg02::verify_decryption_share(&pk, &ct, &mutated) || mutated == share,
                "bit flip produced a distinct verifying share"
            );
        }
    }

    #[test]
    fn mutated_signature_never_verifies(seed in any::<u64>(), flip in 0usize..264) {
        use thetacrypt::schemes::bls04;
        let mut r = rand::rngs::StdRng::seed_from_u64(seed);
        let params = ThresholdParams::new(0, 1).unwrap();
        let (pk, keys) = bls04::keygen(params, &mut r);
        let share = bls04::sign_share(&keys[0], b"msg").unwrap();
        let sig = bls04::combine(&pk, b"msg", &[share]).unwrap();
        let mut bytes = sig.encoded();
        let bit = flip % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        if let Ok(mutated) = bls04::Signature::decoded(&bytes) {
            prop_assert!(
                !bls04::verify(&pk, b"msg", &mutated) || mutated == sig,
                "bit flip produced a distinct verifying signature"
            );
        }
    }

    #[test]
    fn accepted_point_bytes_reencode_identically(
        bytes in proptest::collection::vec(any::<u8>(), 32..33),
        k in 1u64..,
        flip in 0usize..256,
    ) {
        use thetacrypt::codec::Reader;
        use thetacrypt::math::ed25519::{Point, Scalar};
        use thetacrypt::schemes::wire::get_point;
        // Random strings, and valid encodings with one bit flipped.
        let mut valid = Point::mul_base(&Scalar::from_u64(k)).compress();
        valid[flip / 8] ^= 1 << (flip % 8);
        let mut random = [0u8; 32];
        random.copy_from_slice(&bytes);
        for candidate in [random, valid] {
            if let Ok(p) = get_point(&mut Reader::new(&candidate)) {
                prop_assert_eq!(p.compress(), candidate);
            }
        }
    }
}
