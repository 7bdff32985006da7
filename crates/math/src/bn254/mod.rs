//! The BN254 pairing-friendly curve (the paper's "Bn254", Table 3) with a
//! complete optimal-ate pairing, built from scratch.
//!
//! Tower: `Fp2 = Fp[u]/(u²+1)`, `Fp6 = Fp2[v]/(v³−ξ)`, `Fp12 = Fp6[w]/(w²−v)`
//! with ξ = 9 + u. G1 is `y² = x³ + 3` over F_p (cofactor 1); G2 is the
//! r-order subgroup of the D-type sextic twist `y² = x³ + 3/ξ` over F_p².
//!
//! # Example
//!
//! ```
//! use theta_math::bn254::{pairing, Fr, G1, G2};
//! use rand::SeedableRng;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let sk = Fr::random(&mut rng);
//! // BLS-style: e(sk·H, G2) == e(H, sk·G2)
//! let h = G1::mul_generator(&Fr::from_u64(42));
//! let lhs = pairing(&h.mul(&sk), &G2::generator());
//! let rhs = pairing(&h, &G2::mul_generator(&sk));
//! assert_eq!(lhs, rhs);
//! ```

mod curve;
mod fp;
mod fp12;
mod fp2;
mod fp6;
mod fr;
mod g1;
mod g2;
mod pairing;

pub use fp::Fp;
pub use fp12::Fp12;
pub use fp2::Fp2;
pub use fp6::Fp6;
pub use fr::Fr;
pub use g1::G1;
pub use g2::G2;
pub use pairing::{miller_loop, multi_pairing, pairing, pairing_check};
#[doc(hidden)]
pub use pairing::miller_loop_affine;

/// The width-`w` non-adjacent form of `n` in `N` signed digits, least
/// significant first: every non-zero digit is odd and below 2^(w−1) in
/// magnitude, and any `w` consecutive digits hold at most one of them.
/// Width 2 is the plain NAF (digits −1, 0, 1). Drives the Miller loop over
/// 6x + 2 and the exponentiation by x in the final exponentiation.
const fn wnaf<const N: usize>(mut n: u128, w: u32) -> [i8; N] {
    let window = 1u128 << w;
    let mut digits = [0i8; N];
    let mut i = 0;
    while n > 0 {
        if n & 1 == 1 {
            let r = n & (window - 1);
            if r >= window / 2 {
                digits[i] = (r as i16 - window as i16) as i8;
                n += window - r;
            } else {
                digits[i] = r as i8;
                n -= r;
            }
        }
        n >>= 1;
        i += 1;
    }
    digits
}

#[cfg(test)]
mod tests {
    #[test]
    fn wnaf_digits_encode_their_value() {
        fn check<const N: usize>(n: u128, w: u32) {
            let digits = super::wnaf::<N>(n, w);
            let mut value: i128 = 0;
            for (i, d) in digits.iter().enumerate() {
                value += (*d as i128) << i;
                if *d != 0 {
                    assert!(d % 2 != 0 && d.unsigned_abs() < 1 << (w - 1), "digit {d} at {i}");
                    let window = &digits[i.saturating_sub(w as usize - 1)..i];
                    assert!(window.iter().all(|x| *x == 0), "two non-zero digits within {w} at {i}");
                }
            }
            assert_eq!(value, n as i128);
            assert_ne!(digits[N - 1], 0, "N is the exact digit count");
        }
        check::<66>(29793968203157093288, 2); // 6x + 2
        check::<63>(4965661367192848881, 4); // x
    }
}
