//! Wire-format helpers for the math types (points, scalars, big integers).
//!
//! `theta-codec` and `theta-math` are independent crates, so the codec
//! traits cannot be implemented on the math types directly; these free
//! functions provide the canonical encodings instead.
//!
//! Ed25519 points travel as 32-byte Ristretto255 encodings (RFC 9496).
//! Decoding accepts exactly the canonical encodings of prime-order group
//! elements, so [`get_point`] needs no subgroup multiplication and every
//! element has one wire form.

use theta_codec::{CodecError, Decode, Encode, Reader, Result, Writer};
use theta_math::bn254::{Fr, G1, G2};
use theta_math::ed25519::{Point, Scalar};
use theta_math::BigUint;

/// Appends an Ed25519 point as its Ristretto255 encoding (32 bytes).
pub fn put_point(w: &mut Writer, p: &Point) {
    p.compress().encode(w);
}

/// Reads a Ristretto255-encoded Ed25519 point.
///
/// # Errors
///
/// [`CodecError::InvalidValue`] unless the bytes are the canonical
/// encoding of a group element.
pub fn get_point(r: &mut Reader) -> Result<Point> {
    let bytes = <[u8; 32]>::decode(r)?;
    Point::decompress(&bytes)
        .ok_or_else(|| CodecError::InvalidValue("not a ristretto255 encoding".into()))
}

/// Appends an Ed25519 scalar (32 bytes, little-endian).
pub fn put_scalar(w: &mut Writer, s: &Scalar) {
    s.to_bytes().encode(w);
}

/// Reads an Ed25519 scalar, rejecting non-canonical encodings.
///
/// # Errors
///
/// [`CodecError::InvalidValue`] when the value is ≥ ℓ.
pub fn get_scalar(r: &mut Reader) -> Result<Scalar> {
    let bytes = <[u8; 32]>::decode(r)?;
    let raw = BigUint::from_bytes_le(&bytes);
    if &raw >= Scalar::order_biguint() {
        return Err(CodecError::InvalidValue("non-canonical scalar".into()));
    }
    Ok(Scalar::from_bytes(&bytes))
}

/// Appends a compressed BN254 G1 point (33 bytes).
pub fn put_g1(w: &mut Writer, p: &G1) {
    p.to_compressed().encode(w);
}

/// Reads a compressed BN254 G1 point.
///
/// # Errors
///
/// [`CodecError::InvalidValue`] for invalid encodings.
pub fn get_g1(r: &mut Reader) -> Result<G1> {
    let bytes = <[u8; 33]>::decode(r)?;
    G1::from_compressed(&bytes)
        .ok_or_else(|| CodecError::InvalidValue("not a bn254 G1 point".into()))
}

/// Appends a compressed BN254 G2 point (65 bytes).
pub fn put_g2(w: &mut Writer, p: &G2) {
    p.to_compressed().encode(w);
}

/// Reads a compressed BN254 G2 point (includes the subgroup check).
///
/// # Errors
///
/// [`CodecError::InvalidValue`] for invalid or off-subgroup encodings.
pub fn get_g2(r: &mut Reader) -> Result<G2> {
    let bytes = <[u8; 65]>::decode(r)?;
    G2::from_compressed(&bytes)
        .ok_or_else(|| CodecError::InvalidValue("not a bn254 G2 point".into()))
}

/// Appends a BN254 scalar (32 bytes, little-endian).
pub fn put_fr(w: &mut Writer, s: &Fr) {
    s.to_bytes().encode(w);
}

/// Reads a BN254 scalar, rejecting non-canonical encodings.
///
/// # Errors
///
/// [`CodecError::InvalidValue`] when the value is ≥ r.
pub fn get_fr(r: &mut Reader) -> Result<Fr> {
    let bytes = <[u8; 32]>::decode(r)?;
    let raw = BigUint::from_bytes_le(&bytes);
    if &raw >= Fr::modulus() {
        return Err(CodecError::InvalidValue("non-canonical Fr scalar".into()));
    }
    Ok(Fr::from_bytes(&bytes))
}

/// Appends an arbitrary-precision unsigned integer (length-prefixed,
/// big-endian, canonical: no leading zero bytes).
pub fn put_biguint(w: &mut Writer, v: &BigUint) {
    w.put_bytes(&v.to_bytes_be());
}

/// Reads a [`BigUint`], rejecting non-canonical (zero-padded) encodings.
///
/// # Errors
///
/// [`CodecError::InvalidValue`] on a leading zero byte.
pub fn get_biguint(r: &mut Reader) -> Result<BigUint> {
    let bytes = r.take_bytes()?;
    if bytes.first() == Some(&0) {
        return Err(CodecError::InvalidValue("non-canonical biguint".into()));
    }
    Ok(BigUint::from_bytes_be(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0x111e)
    }

    #[test]
    fn point_roundtrip() {
        let mut r = rng();
        let p = Point::mul_base(&Scalar::random(&mut r));
        let mut w = Writer::new();
        put_point(&mut w, &p);
        let bytes = w.into_bytes();
        let mut rd = Reader::new(&bytes);
        assert_eq!(get_point(&mut rd).unwrap(), p);
    }

    #[test]
    fn point_rejects_garbage() {
        let mut w = Writer::new();
        [0xffu8; 32].encode(&mut w);
        let bytes = w.into_bytes();
        let mut rd = Reader::new(&bytes);
        assert!(get_point(&mut rd).is_err());
    }

    fn decode_point(bytes: [u8; 32]) -> Result<Point> {
        let mut w = Writer::new();
        bytes.encode(&mut w);
        let buf = w.into_bytes();
        get_point(&mut Reader::new(&buf))
    }

    #[test]
    fn point_rejects_non_canonical_and_negative() {
        // p + 1 reduces to 1: a second wire form under a plain field load.
        let mut p_plus_1 = [0xffu8; 32];
        p_plus_1[0] = 0xee;
        p_plus_1[31] = 0x7f;
        assert!(decode_point(p_plus_1).is_err());
        // An odd s is negative; the encoding of −P as p − s is odd.
        let mut one = [0u8; 32];
        one[0] = 1;
        assert!(decode_point(one).is_err());
        let p = Point::mul_base(&Scalar::random(&mut rng()));
        let mut w = Writer::new();
        put_point(&mut w, &p);
        let enc: [u8; 32] = w.into_bytes().try_into().unwrap();
        let flipped = theta_math::ed25519::Fe::from_bytes(&enc).neg().to_bytes();
        assert_eq!(flipped[0] & 1, 1);
        assert!(decode_point(flipped).is_err());
        assert_eq!(decode_point(enc).unwrap(), p);
        // The identity's canonical form is 32 zero bytes.
        assert!(decode_point([0u8; 32]).unwrap().is_identity());
    }

    #[test]
    fn scalar_rejects_noncanonical() {
        // ℓ itself (little-endian) is non-canonical.
        let l = Scalar::order_biguint();
        let mut bytes = [0u8; 32];
        let le = l.to_bytes_le();
        bytes[..le.len()].copy_from_slice(&le);
        let mut w = Writer::new();
        bytes.encode(&mut w);
        let buf = w.into_bytes();
        let mut rd = Reader::new(&buf);
        assert!(get_scalar(&mut rd).is_err());
    }

    #[test]
    fn g1_g2_roundtrip() {
        let mut r = rng();
        let fr = Fr::random(&mut r);
        let p1 = G1::mul_generator(&fr);
        let p2 = G2::mul_generator(&fr);
        let mut w = Writer::new();
        put_g1(&mut w, &p1);
        put_g2(&mut w, &p2);
        let bytes = w.into_bytes();
        let mut rd = Reader::new(&bytes);
        assert_eq!(get_g1(&mut rd).unwrap(), p1);
        assert_eq!(get_g2(&mut rd).unwrap(), p2);
        assert!(rd.is_at_end());
    }

    #[test]
    fn fr_roundtrip_and_reject() {
        let mut r = rng();
        let s = Fr::random(&mut r);
        let mut w = Writer::new();
        put_fr(&mut w, &s);
        let bytes = w.into_bytes();
        let mut rd = Reader::new(&bytes);
        assert_eq!(get_fr(&mut rd).unwrap(), s);

        let m = Fr::modulus();
        let mut enc = [0u8; 32];
        let le = m.to_bytes_le();
        enc[..le.len()].copy_from_slice(&le);
        let mut w = Writer::new();
        enc.encode(&mut w);
        let buf = w.into_bytes();
        let mut rd = Reader::new(&buf);
        assert!(get_fr(&mut rd).is_err());
    }

    #[test]
    fn biguint_roundtrip_and_canonical() {
        let v = BigUint::from_dec("123456789012345678901234567890").unwrap();
        let mut w = Writer::new();
        put_biguint(&mut w, &v);
        let bytes = w.into_bytes();
        let mut rd = Reader::new(&bytes);
        assert_eq!(get_biguint(&mut rd).unwrap(), v);

        // Leading zero rejected.
        let mut w = Writer::new();
        w.put_bytes(&[0, 1]);
        let bytes = w.into_bytes();
        let mut rd = Reader::new(&bytes);
        assert!(get_biguint(&mut rd).is_err());

        // Zero encodes as empty.
        let mut w = Writer::new();
        put_biguint(&mut w, &BigUint::zero());
        let bytes = w.into_bytes();
        let mut rd = Reader::new(&bytes);
        assert!(get_biguint(&mut rd).unwrap().is_zero());
    }
}
