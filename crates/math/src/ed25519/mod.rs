//! The Ed25519 group as Ristretto255 (RFC 9496) and its scalar field.
//!
//! This is the discrete-log group used by the SG02 threshold cipher,
//! the KG20/FROST threshold signature and the CKS05 coin in the paper's
//! Table 3 (256-bit keys). Points are Curve25519 twisted-Edwards points
//! in extended coordinates, exposed as the prime-order Ristretto255
//! group: canonical 32-byte encodings, decoding without a subgroup
//! check, coset equality, and the RFC 9496 one-way map for hashing. KG20
//! thereby runs in the group of RFC 9591's FROST(ristretto255, SHA-512)
//! ciphersuite (its hashing differs, so there is no interoperability).
//!
//! # Example
//!
//! ```
//! use theta_math::ed25519::{Point, Scalar};
//! use rand::SeedableRng;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let sk = Scalar::random(&mut rng);
//! let pk = Point::mul_base(&sk);
//! let bytes = pk.compress();
//! assert_eq!(Point::decompress(&bytes), Some(pk));
//! assert_eq!(Point::identity().compress(), [0u8; 32]);
//! ```

mod fe;
mod point;
mod scalar;

pub use fe::{edwards_d, sqrt_m1, Fe};
pub use point::Point;
pub use scalar::Scalar;
