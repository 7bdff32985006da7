//! Field arithmetic over GF(2^255 − 19) in radix-2^51.
//!
//! Five 64-bit limbs, each holding 51 bits plus slack; products use `u128`.
//! This is the classic representation from the ref10/curve25519-dalek
//! lineage, re-derived here from scratch.

use crate::BigUint;

const MASK51: u64 = (1u64 << 51) - 1;

/// An element of GF(2^255 − 19).
#[derive(Clone, Copy, Debug)]
pub struct Fe([u64; 5]);

impl Fe {
    /// The additive identity.
    pub const ZERO: Fe = Fe([0, 0, 0, 0, 0]);
    /// The multiplicative identity.
    pub const ONE: Fe = Fe([1, 0, 0, 0, 0]);

    /// Decodes 32 little-endian bytes; the top bit (bit 255) is ignored,
    /// matching RFC 8032 field-element decoding.
    pub fn from_bytes(bytes: &[u8; 32]) -> Fe {
        let load = |b: &[u8]| -> u64 {
            let mut v = [0u8; 8];
            v[..b.len()].copy_from_slice(b);
            u64::from_le_bytes(v)
        };
        let l0 = load(&bytes[0..8]) & MASK51;
        let l1 = (load(&bytes[6..14]) >> 3) & MASK51;
        let l2 = (load(&bytes[12..20]) >> 6) & MASK51;
        let l3 = (load(&bytes[19..27]) >> 1) & MASK51;
        let l4 = (load(&bytes[24..32]) >> 12) & MASK51;
        Fe([l0, l1, l2, l3, l4])
    }

    /// Encodes to 32 little-endian bytes in fully-reduced canonical form.
    pub fn to_bytes(self) -> [u8; 32] {
        let t = self.reduce_full();
        let mut out = [0u8; 32];
        // Pack 5×51 bits into 255 bits.
        let mut acc: u128 = 0;
        let mut acc_bits = 0u32;
        let mut idx = 0usize;
        for i in 0..5 {
            acc |= (t.0[i] as u128) << acc_bits;
            acc_bits += 51;
            while acc_bits >= 8 {
                out[idx] = acc as u8;
                acc >>= 8;
                acc_bits -= 8;
                idx += 1;
            }
        }
        if idx < 32 {
            out[idx] = acc as u8;
        }
        let _ = t;
        out
    }

    /// Fully reduces to the canonical representative in `[0, p)`.
    fn reduce_full(self) -> Fe {
        let mut t = self.carry();
        // t is now < 2^255 + small; conditionally subtract p up to twice.
        for _ in 0..2 {
            let mut borrow: i128 = t.0[0] as i128 - (MASK51 - 18) as i128; // p0 = 2^51 - 19
            let mut r = [0u64; 5];
            r[0] = (borrow as u64) & MASK51;
            borrow >>= 51;
            for (i, limb) in r.iter_mut().enumerate().skip(1) {
                let cur = t.0[i] as i128 - MASK51 as i128 + borrow;
                *limb = (cur as u64) & MASK51;
                borrow = cur >> 51;
            }
            if borrow == 0 {
                t = Fe(r);
            }
        }
        t
    }

    /// One pass of carry propagation, bringing all limbs under 2^52.
    fn carry(self) -> Fe {
        let mut l = self.0;
        let mut c: u64;
        for _ in 0..2 {
            c = l[0] >> 51;
            l[0] &= MASK51;
            l[1] += c;
            c = l[1] >> 51;
            l[1] &= MASK51;
            l[2] += c;
            c = l[2] >> 51;
            l[2] &= MASK51;
            l[3] += c;
            c = l[3] >> 51;
            l[3] &= MASK51;
            l[4] += c;
            c = l[4] >> 51;
            l[4] &= MASK51;
            l[0] += c * 19;
        }
        Fe(l)
    }

    /// Addition.
    pub fn add(&self, rhs: &Fe) -> Fe {
        Fe([
            self.0[0] + rhs.0[0],
            self.0[1] + rhs.0[1],
            self.0[2] + rhs.0[2],
            self.0[3] + rhs.0[3],
            self.0[4] + rhs.0[4],
        ])
        .carry()
    }

    /// Subtraction.
    pub fn sub(&self, rhs: &Fe) -> Fe {
        // Add 2p to keep limbs non-negative.
        let two_p = [
            (MASK51 - 18) << 1, // 2·(2^51 − 19)
            MASK51 << 1,
            MASK51 << 1,
            MASK51 << 1,
            MASK51 << 1,
        ];
        Fe([
            self.0[0] + two_p[0] - rhs.0[0],
            self.0[1] + two_p[1] - rhs.0[1],
            self.0[2] + two_p[2] - rhs.0[2],
            self.0[3] + two_p[3] - rhs.0[3],
            self.0[4] + two_p[4] - rhs.0[4],
        ])
        .carry()
    }

    /// Negation.
    pub fn neg(&self) -> Fe {
        Fe::ZERO.sub(self)
    }

    /// Multiplication.
    pub fn mul(&self, rhs: &Fe) -> Fe {
        let [a0, a1, a2, a3, a4] = self.0;
        let [b0, b1, b2, b3, b4] = rhs.0;
        let m = |x: u64, y: u64| x as u128 * y as u128;

        let r0 = m(a0, b0) + 19 * (m(a1, b4) + m(a2, b3) + m(a3, b2) + m(a4, b1));
        let mut r1 = m(a0, b1) + m(a1, b0) + 19 * (m(a2, b4) + m(a3, b3) + m(a4, b2));
        let mut r2 = m(a0, b2) + m(a1, b1) + m(a2, b0) + 19 * (m(a3, b4) + m(a4, b3));
        let mut r3 = m(a0, b3) + m(a1, b2) + m(a2, b1) + m(a3, b0) + 19 * m(a4, b4);
        let mut r4 = m(a0, b4) + m(a1, b3) + m(a2, b2) + m(a3, b1) + m(a4, b0);

        // Carry chain over u128 accumulators.
        let mut out = [0u64; 5];
        let c = r0 >> 51;
        out[0] = (r0 as u64) & MASK51;
        r1 += c;
        let c = r1 >> 51;
        out[1] = (r1 as u64) & MASK51;
        r2 += c;
        let c = r2 >> 51;
        out[2] = (r2 as u64) & MASK51;
        r3 += c;
        let c = r3 >> 51;
        out[3] = (r3 as u64) & MASK51;
        r4 += c;
        let c = r4 >> 51;
        out[4] = (r4 as u64) & MASK51;
        out[0] += (c as u64) * 19;
        Fe(out).carry()
    }

    /// Squaring.
    pub fn square(&self) -> Fe {
        self.mul(self)
    }

    /// `self^(2^n)` (n repeated squarings).
    fn sq_n(&self, n: u32) -> Fe {
        let mut t = *self;
        for _ in 0..n {
            t = t.square();
        }
        t
    }

    /// Multiplicative inverse (`self^(p−2)`); returns zero for zero.
    pub fn invert(&self) -> Fe {
        // Standard ref10 addition chain for p − 2 = 2^255 − 21.
        let z = *self;
        let z2 = z.square(); // 2
        let z8 = z2.sq_n(2); // 8
        let z9 = z.mul(&z8); // 9
        let z11 = z2.mul(&z9); // 11
        let z22 = z11.square(); // 22
        let z_5_0 = z9.mul(&z22); // 2^5 − 2^0 = 31
        let z_10_5 = z_5_0.sq_n(5);
        let z_10_0 = z_10_5.mul(&z_5_0);
        let z_20_10 = z_10_0.sq_n(10);
        let z_20_0 = z_20_10.mul(&z_10_0);
        let z_40_20 = z_20_0.sq_n(20);
        let z_40_0 = z_40_20.mul(&z_20_0);
        let z_50_10 = z_40_0.sq_n(10);
        let z_50_0 = z_50_10.mul(&z_10_0);
        let z_100_50 = z_50_0.sq_n(50);
        let z_100_0 = z_100_50.mul(&z_50_0);
        let z_200_100 = z_100_0.sq_n(100);
        let z_200_0 = z_200_100.mul(&z_100_0);
        let z_250_50 = z_200_0.sq_n(50);
        let z_250_0 = z_250_50.mul(&z_50_0);
        let z_255_5 = z_250_0.sq_n(5);
        z_255_5.mul(&z11)
    }

    /// `self^((p−5)/8)` = `self^(2^252 − 3)`, the core of square-root extraction.
    pub fn pow22523(&self) -> Fe {
        let z = *self;
        let z2 = z.square();
        let z8 = z2.sq_n(2);
        let z9 = z.mul(&z8);
        let z11 = z2.mul(&z9);
        let z22 = z11.square();
        let z_5_0 = z9.mul(&z22);
        let z_10_5 = z_5_0.sq_n(5);
        let z_10_0 = z_10_5.mul(&z_5_0);
        let z_20_10 = z_10_0.sq_n(10);
        let z_20_0 = z_20_10.mul(&z_10_0);
        let z_40_20 = z_20_0.sq_n(20);
        let z_40_0 = z_40_20.mul(&z_20_0);
        let z_50_10 = z_40_0.sq_n(10);
        let z_50_0 = z_50_10.mul(&z_10_0);
        let z_100_50 = z_50_0.sq_n(50);
        let z_100_0 = z_100_50.mul(&z_50_0);
        let z_200_100 = z_100_0.sq_n(100);
        let z_200_0 = z_200_100.mul(&z_100_0);
        let z_250_50 = z_200_0.sq_n(50);
        let z_250_0 = z_250_50.mul(&z_50_0);
        let z_252_2 = z_250_0.sq_n(2);
        z_252_2.mul(&z)
    }

    /// True when this element is zero.
    pub fn is_zero(&self) -> bool {
        self.to_bytes() == [0u8; 32]
    }

    /// Canonical "sign": the least-significant bit of the reduced encoding
    /// (RFC 8032 uses this to disambiguate x given y).
    pub fn is_negative(&self) -> bool {
        self.to_bytes()[0] & 1 == 1
    }

    /// The non-negative one of `±self` (RFC 9496 CT_ABS).
    pub fn abs(&self) -> Fe {
        if self.is_negative() {
            self.neg()
        } else {
            *self
        }
    }

    /// Square root: returns `r` with `r² = self` when one exists.
    ///
    /// Uses `r = self^((p+3)/8)` corrected by `sqrt(−1)` when needed.
    pub fn sqrt(&self) -> Option<Fe> {
        let candidate = self.mul(&self.pow22523()); // self^((p+3)/8)
        let square = candidate.square();
        if square == *self {
            return Some(candidate);
        }
        let corrected = candidate.mul(&sqrt_m1());
        if corrected.square() == *self {
            return Some(corrected);
        }
        None
    }

    /// Parses from a decimal string (helper for curve constants).
    pub fn from_dec(s: &str) -> Fe {
        let v = BigUint::from_dec(s).expect("valid decimal");
        let p = (BigUint::one() << 255) - BigUint::from_u64(19);
        let v = v.rem(&p);
        let mut bytes = [0u8; 32];
        let le = v.to_bytes_le();
        bytes[..le.len()].copy_from_slice(&le);
        Fe::from_bytes(&bytes)
    }

    /// Converts to a [`BigUint`] (canonical representative).
    pub fn to_biguint(self) -> BigUint {
        BigUint::from_bytes_le(&self.to_bytes())
    }
}

impl PartialEq for Fe {
    fn eq(&self, other: &Self) -> bool {
        self.to_bytes() == other.to_bytes()
    }
}

impl Eq for Fe {}

/// The Edwards `d` parameter: −121665/121666 mod p.
pub fn edwards_d() -> Fe {
    static CACHE: std::sync::OnceLock<Fe> = std::sync::OnceLock::new();
    *CACHE.get_or_init(|| {
        Fe::from_dec(
            "37095705934669439343138083508754565189542113879843219016388785533085940283555",
        )
    })
}

/// `sqrt(−1) mod p` (a fourth root of unity).
pub fn sqrt_m1() -> Fe {
    static CACHE: std::sync::OnceLock<Fe> = std::sync::OnceLock::new();
    *CACHE.get_or_init(|| {
        Fe::from_dec(
            "19681161376707505956807079304988542015446066515923890162744021073123829784752",
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0xed25519)
    }

    fn random_fe(r: &mut impl RngCore) -> Fe {
        let mut b = [0u8; 32];
        r.fill_bytes(&mut b);
        b[31] &= 0x7f;
        Fe::from_bytes(&b)
    }

    fn p() -> BigUint {
        (BigUint::one() << 255) - BigUint::from_u64(19)
    }

    #[test]
    fn bytes_roundtrip() {
        let mut r = rng();
        for _ in 0..100 {
            let fe = random_fe(&mut r);
            assert_eq!(Fe::from_bytes(&fe.to_bytes()), fe);
        }
    }

    #[test]
    fn add_matches_biguint() {
        let mut r = rng();
        for _ in 0..100 {
            let a = random_fe(&mut r);
            let b = random_fe(&mut r);
            let expect = (&a.to_biguint() + &b.to_biguint()).rem(&p());
            assert_eq!(a.add(&b).to_biguint(), expect);
        }
    }

    #[test]
    fn sub_matches_biguint() {
        let mut r = rng();
        for _ in 0..100 {
            let a = random_fe(&mut r);
            let b = random_fe(&mut r);
            let pa = a.to_biguint();
            let pb = b.to_biguint();
            let expect = if pa >= pb {
                &pa - &pb
            } else {
                &(&pa + &p()) - &pb
            };
            assert_eq!(a.sub(&b).to_biguint(), expect);
        }
    }

    #[test]
    fn mul_matches_biguint() {
        let mut r = rng();
        for _ in 0..100 {
            let a = random_fe(&mut r);
            let b = random_fe(&mut r);
            let expect = (&a.to_biguint() * &b.to_biguint()).rem(&p());
            assert_eq!(a.mul(&b).to_biguint(), expect);
        }
    }

    #[test]
    fn invert_matches() {
        let mut r = rng();
        for _ in 0..20 {
            let a = random_fe(&mut r);
            if a.is_zero() {
                continue;
            }
            let inv = a.invert();
            assert_eq!(a.mul(&inv), Fe::ONE);
        }
    }

    #[test]
    fn invert_zero_is_zero() {
        assert!(Fe::ZERO.invert().is_zero());
    }

    #[test]
    fn sqrt_of_squares() {
        let mut r = rng();
        for _ in 0..20 {
            let a = random_fe(&mut r);
            let sq = a.square();
            let root = sq.sqrt().expect("square must have a root");
            assert!(root.square() == sq);
        }
    }

    #[test]
    fn sqrt_of_non_residue_fails() {
        // 2 is a non-residue mod p (p ≡ 5 mod 8).
        let two = Fe::from_dec("2");
        assert!(two.sqrt().is_none());
    }

    #[test]
    fn sqrt_m1_is_fourth_root() {
        let i = sqrt_m1();
        assert_eq!(i.square(), Fe::ZERO.sub(&Fe::ONE));
    }

    #[test]
    fn d_constant_equation() {
        // d = -121665/121666
        let num = Fe::from_dec("121665").neg();
        let den = Fe::from_dec("121666");
        assert_eq!(edwards_d(), num.mul(&den.invert()));
    }

    #[test]
    fn non_canonical_input_reduced() {
        // p + 1 encodes as 1.
        let p_plus_1 = &p() + &BigUint::one();
        let mut bytes = [0u8; 32];
        let le = p_plus_1.to_bytes_le();
        bytes[..le.len()].copy_from_slice(&le);
        let fe = Fe::from_bytes(&bytes);
        assert_eq!(fe.to_biguint(), BigUint::one());
    }
}
