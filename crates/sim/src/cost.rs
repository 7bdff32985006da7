//! Per-scheme computation cost models, calibrated by timing the *real*
//! scheme implementations on this host.
//!
//! This is the substitution that makes the virtual-time testbed honest:
//! the paper measures wall-clock latency of MIRACL-backed crypto on 1
//! vCPU; we measure our own from-scratch crypto and feed those costs into
//! the discrete-event engine. Relative scheme ordering (ECDH < pairings <
//! RSA) is therefore *measured*, not assumed.
//!
//! SH00 is calibrated at a reduced modulus (safe-prime generation at
//! 2048 bits takes minutes) and extrapolated cubically — RSA
//! exponentiation is Θ(bits³) for proportionally-sized exponents — to
//! the paper's 2048-bit setting.

use rand::SeedableRng;
use std::time::{Duration, Instant};
use theta_schemes::registry::SchemeId;
use theta_schemes::{bls04, bz03, cks05, kg20, sg02, sh00, ThresholdParams};

/// Costs of a non-interactive scheme's node-side operations.
#[derive(Clone, Copy, Debug)]
pub struct OneRoundCost {
    /// Producing this node's share (includes ciphertext validation).
    pub create: Duration,
    /// Verifying one received share.
    pub verify: Duration,
    /// Assembling the result: fixed part.
    pub combine_fixed: Duration,
    /// Assembling the result: additional cost per share in the quorum.
    pub combine_per_share: Duration,
    /// Extra cost per payload byte (hashing / AEAD).
    pub per_byte: Duration,
}

/// Costs of the two-round KG20 protocol.
#[derive(Clone, Copy, Debug)]
pub struct TwoRoundCost {
    /// Round 1: nonce/commitment generation.
    pub round1: Duration,
    /// Round 2 signing: fixed part.
    pub round2_fixed: Duration,
    /// Round 2 signing: per group member (binding factors, group nonce).
    pub round2_per_member: Duration,
    /// Verifying one response against the instance's signing set.
    pub verify: Duration,
    /// Aggregation of verified responses: fixed part.
    pub combine_fixed: Duration,
    /// Aggregation of verified responses: per response.
    pub combine_per_share: Duration,
    /// Extra cost per payload byte.
    pub per_byte: Duration,
}

/// The scheme cost table driving the simulator.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// SG02 costs.
    pub sg02: OneRoundCost,
    /// BZ03 costs.
    pub bz03: OneRoundCost,
    /// SH00 costs (at the paper's 2048-bit modulus).
    pub sh00: OneRoundCost,
    /// BLS04 costs.
    pub bls04: OneRoundCost,
    /// CKS05 costs.
    pub cks05: OneRoundCost,
    /// KG20 costs.
    pub kg20: TwoRoundCost,
}

impl CostModel {
    /// Reference cost table (measured once on the development host with
    /// [`CostModel::calibrate`]; used when skipping live calibration).
    ///
    /// The *relative* ordering is what matters: ECDH-based share ops in
    /// the hundreds of microseconds, pairing-based ops in the tens of
    /// milliseconds, 2048-bit RSA slowest per the cubic extrapolation.
    pub fn reference() -> CostModel {
        let ms = Duration::from_micros;
        CostModel {
            sg02: OneRoundCost {
                create: ms(600),
                verify: ms(450),
                combine_fixed: ms(250),
                combine_per_share: ms(650),
                per_byte: Duration::from_nanos(3),
            },
            bz03: OneRoundCost {
                create: ms(11_000),
                verify: ms(21_000),
                combine_fixed: ms(11_000),
                combine_per_share: ms(21_300),
                per_byte: Duration::from_nanos(3),
            },
            sh00: OneRoundCost {
                create: ms(35_000),
                verify: ms(48_000),
                combine_fixed: ms(19_000),
                combine_per_share: ms(49_000),
                per_byte: Duration::from_nanos(2),
            },
            bls04: OneRoundCost {
                create: ms(2_300),
                verify: ms(21_000),
                combine_fixed: ms(21_200),
                combine_per_share: ms(1_300),
                per_byte: Duration::from_nanos(2),
            },
            cks05: OneRoundCost {
                create: ms(550),
                verify: ms(450),
                combine_fixed: ms(120),
                combine_per_share: ms(640),
                per_byte: Duration::from_nanos(1),
            },
            kg20: TwoRoundCost {
                round1: ms(250),
                round2_fixed: ms(350),
                round2_per_member: ms(260),
                verify: ms(500),
                combine_fixed: ms(300),
                combine_per_share: ms(5),
                per_byte: Duration::from_nanos(1),
            },
        }
    }

    /// Measures every scheme's operations on this host.
    ///
    /// `sh00_calibration_bits` controls the RSA modulus actually timed
    /// (costs are then extrapolated cubically to 2048); 512 keeps the
    /// whole calibration under ~10 s on a laptop.
    pub fn calibrate(sh00_calibration_bits: usize) -> CostModel {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xca11b8);
        let params_small = ThresholdParams::new(2, 7).expect("valid");
        let params_large = ThresholdParams::new(6, 19).expect("valid");
        let payload = vec![0x5au8; 256];

        // --- SG02 ---
        let sg02 = {
            let (pk, keys) = sg02::keygen(params_small, &mut rng);
            let (pk_l, keys_l) = sg02::keygen(params_large, &mut rng);
            let ct = sg02::encrypt(&pk, b"cal", &payload, &mut rng);
            let ct_l = sg02::encrypt(&pk_l, b"cal", &payload, &mut rng);
            let create = time_op(8, || {
                let _ = sg02::create_decryption_share(&keys[0], &ct, &mut rand::rngs::OsRng);
            });
            let share = sg02::create_decryption_share(&keys[1], &ct, &mut rng).unwrap();
            let verify = time_op(8, || {
                assert!(sg02::verify_decryption_share(&pk, &ct, &share));
            });
            let shares_3: Vec<_> = keys[..3]
                .iter()
                .map(|k| sg02::create_decryption_share(k, &ct, &mut rng).unwrap())
                .collect();
            let shares_7: Vec<_> = keys_l[..7]
                .iter()
                .map(|k| sg02::create_decryption_share(k, &ct_l, &mut rng).unwrap())
                .collect();
            let c3 = time_op(6, || {
                let _ = sg02::combine(&pk, &ct, &shares_3).unwrap();
            });
            let c7 = time_op(6, || {
                let _ = sg02::combine(&pk_l, &ct_l, &shares_7).unwrap();
            });
            let (fixed, per_share) = linear_fit(3, c3, 7, c7);
            OneRoundCost {
                create,
                verify,
                combine_fixed: fixed,
                combine_per_share: per_share,
                per_byte: aead_per_byte(),
            }
        };

        // --- BZ03 ---
        let bz03 = {
            let (pk, keys) = bz03::keygen(params_small, &mut rng);
            let ct = bz03::encrypt(&pk, b"cal", &payload, &mut rng);
            let create = time_op(3, || {
                let _ = bz03::create_decryption_share(&keys[0], &ct).unwrap();
            });
            let share = bz03::create_decryption_share(&keys[1], &ct).unwrap();
            let verify = time_op(3, || {
                assert!(bz03::verify_decryption_share(&pk, &ct, &share));
            });
            // Combine batch-verifies the quorum with one RLC pairing
            // check plus a G2 MSM, so its slope is far below a full
            // per-share verify: fit it from two measured quorum sizes.
            let shares_3: Vec<_> = keys[..3]
                .iter()
                .map(|k| bz03::create_decryption_share(k, &ct).unwrap())
                .collect();
            let shares_7: Vec<_> = keys[..7]
                .iter()
                .map(|k| bz03::create_decryption_share(k, &ct).unwrap())
                .collect();
            let c3 = time_op(2, || {
                let _ = bz03::combine(&pk, &ct, &shares_3).unwrap();
            });
            let c7 = time_op(2, || {
                let _ = bz03::combine(&pk, &ct, &shares_7).unwrap();
            });
            let (fixed, per_share) = linear_fit(3, c3, 7, c7);
            OneRoundCost {
                create,
                verify,
                combine_fixed: fixed,
                combine_per_share: per_share,
                per_byte: aead_per_byte(),
            }
        };

        // --- BLS04 ---
        let bls04 = {
            let (pk, keys) = bls04::keygen(params_small, &mut rng);
            let create = time_op(5, || {
                let _ = bls04::sign_share(&keys[0], &payload).unwrap();
            });
            let share = bls04::sign_share(&keys[1], &payload).unwrap();
            let verify = time_op(3, || {
                assert!(bls04::verify_share(&pk, &payload, &share));
            });
            let shares_3: Vec<_> = keys[..3]
                .iter()
                .map(|k| bls04::sign_share(k, &payload).unwrap())
                .collect();
            let shares_7: Vec<_> = keys[..7]
                .iter()
                .map(|k| bls04::sign_share(k, &payload).unwrap())
                .collect();
            // Combine's fixed part is the RLC batch pairing check plus
            // final verification; the slope (MSM bucket work per share)
            // is fit from two quorum sizes rather than assumed.
            let c3 = time_op(2, || {
                let _ = bls04::combine(&pk, &payload, &shares_3).unwrap();
            });
            let c7 = time_op(2, || {
                let _ = bls04::combine(&pk, &payload, &shares_7).unwrap();
            });
            let (fixed, per_share) = linear_fit(3, c3, 7, c7);
            OneRoundCost {
                create,
                verify,
                combine_fixed: fixed,
                combine_per_share: per_share,
                per_byte: hash_per_byte(),
            }
        };

        // --- CKS05 ---
        let cks05 = {
            let (pk, keys) = cks05::keygen(params_small, &mut rng);
            let (pk_l, keys_l) = cks05::keygen(params_large, &mut rng);
            let create = time_op(8, || {
                let _ = cks05::create_coin_share(&keys[0], b"cal", &mut rand::rngs::OsRng);
            });
            let share = cks05::create_coin_share(&keys[1], b"cal", &mut rng);
            let verify = time_op(8, || {
                assert!(cks05::verify_coin_share(&pk, b"cal", &share));
            });
            let s3: Vec<_> = keys[..3]
                .iter()
                .map(|k| cks05::create_coin_share(k, b"cal", &mut rng))
                .collect();
            let s7: Vec<_> = keys_l[..7]
                .iter()
                .map(|k| cks05::create_coin_share(k, b"cal", &mut rng))
                .collect();
            let c3 = time_op(6, || {
                let _ = cks05::combine(&pk, b"cal", &s3).unwrap();
            });
            let c7 = time_op(6, || {
                let _ = cks05::combine(&pk_l, b"cal", &s7).unwrap();
            });
            let (fixed, per_share) = linear_fit(3, c3, 7, c7);
            OneRoundCost {
                create,
                verify,
                combine_fixed: fixed,
                combine_per_share: per_share,
                per_byte: hash_per_byte(),
            }
        };

        // --- SH00 (calibrated small, extrapolated cubically to 2048) ---
        let sh00 = {
            let bits = sh00_calibration_bits.max(192);
            let scale = {
                let f = 2048.0 / bits as f64;
                f * f * f
            };
            let (pk, keys) = sh00::keygen(params_small, bits, &mut rng).expect("keygen");
            let create = time_op(3, || {
                let _ = sh00::sign_share(&keys[0], &payload, &mut rand::rngs::OsRng);
            });
            let share = sh00::sign_share(&keys[1], &payload, &mut rng);
            let verify = time_op(3, || {
                assert!(sh00::verify_share(&pk, &payload, &share));
            });
            let shares_3: Vec<_> = keys[..3]
                .iter()
                .map(|k| sh00::sign_share(k, &payload, &mut rng))
                .collect();
            let shares_7: Vec<_> = keys[..7]
                .iter()
                .map(|k| sh00::sign_share(k, &payload, &mut rng))
                .collect();
            // Combine shares one Montgomery context and fixed-base
            // tables across the quorum, so the per-share slope is well
            // below a standalone verify: fit it from two quorum sizes.
            let c3 = time_op(2, || {
                let _ = sh00::combine(&pk, &payload, &shares_3).unwrap();
            });
            let c7 = time_op(2, || {
                let _ = sh00::combine(&pk, &payload, &shares_7).unwrap();
            });
            let (fixed, per_share) = linear_fit(3, c3, 7, c7);
            OneRoundCost {
                create: create.mul_f64(scale),
                verify: verify.mul_f64(scale),
                combine_fixed: fixed.mul_f64(scale),
                combine_per_share: per_share.mul_f64(scale),
                per_byte: hash_per_byte(),
            }
        };

        // --- KG20 ---
        let kg20 = {
            let (pk, keys) = kg20::keygen(params_small, &mut rng);
            let round1 = time_op(10, || {
                let _ = kg20::generate_nonce(&keys[0], &mut rand::rngs::OsRng);
            });
            // Round-2 signing (derive the signing set, sign) at two group
            // sizes for the linear fit. A nonce signs once, so each timed
            // call gets its own nonce and commitment list.
            let sign_at = |group: usize, rng: &mut rand::rngs::StdRng| {
                min_over_batches(|| {
                    let runs: Vec<_> = (0..6)
                        .map(|_| {
                            let mut nonces: Vec<_> = keys[..group]
                                .iter()
                                .map(|k| kg20::generate_nonce(k, rng))
                                .collect();
                            let commits: Vec<_> =
                                nonces.iter().map(|n| n.commitment().clone()).collect();
                            (nonces.swap_remove(0), commits)
                        })
                        .collect();
                    let calls = runs.len() as u32;
                    let start = Instant::now();
                    for (nonce0, commits) in runs {
                        let _ = kg20::sign_share(&keys[0], nonce0, &payload, &commits).unwrap();
                    }
                    start.elapsed() / calls
                })
            };
            let s3 = sign_at(3, &mut rng);
            let s7 = sign_at(7, &mut rng);
            let (round2_fixed, round2_per_member) = linear_fit(3, s3, 7, s7);
            // A node derives the signing set once per instance, verifies
            // each response against it, then combines the verified
            // responses: time both against a prepared set, the combine at
            // two group sizes for the linear fit.
            let signed_set = |group: usize, rng: &mut rand::rngs::StdRng| {
                let nonces: Vec<_> = keys[..group]
                    .iter()
                    .map(|k| kg20::generate_nonce(k, rng))
                    .collect();
                let commits: Vec<_> = nonces.iter().map(|n| n.commitment().clone()).collect();
                let set = kg20::SigningSet::new(&pk, &payload, &commits).unwrap();
                let shares: Vec<_> = keys[..group]
                    .iter()
                    .zip(nonces)
                    .map(|(k, n)| set.sign_share(k, n).unwrap())
                    .collect();
                (set, shares)
            };
            let (set3, shares3) = signed_set(3, &mut rng);
            let (set7, shares7) = signed_set(7, &mut rng);
            let verify = time_op(8, || {
                assert!(set3.verify_share(&pk, &shares3[1]));
            });
            let c3 = time_op(6, || {
                let _ = set3.combine_preverified(&shares3).unwrap();
            });
            let c7 = time_op(6, || {
                let _ = set7.combine_preverified(&shares7).unwrap();
            });
            let (combine_fixed, combine_per_share) = linear_fit(3, c3, 7, c7);
            TwoRoundCost {
                round1,
                round2_fixed,
                round2_per_member,
                verify,
                combine_fixed,
                combine_per_share,
                per_byte: hash_per_byte(),
            }
        };

        CostModel { sg02, bz03, sh00, bls04, cks05, kg20 }
    }

    /// Ablation (paper §4.4 design choice): the cost table with share
    /// verification disabled. Per-share verification goes to zero and the
    /// combine slope keeps only its non-verification remainder (Lagrange
    /// arithmetic) — the paper's protocols always verify, "ensuring a
    /// fair comparison"; this table quantifies what that fairness costs.
    pub fn without_share_verification(&self) -> CostModel {
        fn strip(c: OneRoundCost) -> OneRoundCost {
            OneRoundCost {
                verify: Duration::ZERO,
                combine_per_share: c.combine_per_share.saturating_sub(c.verify),
                ..c
            }
        }
        CostModel {
            sg02: strip(self.sg02),
            bz03: strip(self.bz03),
            sh00: strip(self.sh00),
            bls04: strip(self.bls04),
            cks05: strip(self.cks05),
            // KG20's combine takes responses already verified.
            kg20: TwoRoundCost { verify: Duration::ZERO, ..self.kg20 },
        }
    }

    /// The one-round cost row for a scheme (`None` for KG20).
    pub fn one_round(&self, scheme: SchemeId) -> Option<OneRoundCost> {
        match scheme {
            SchemeId::Sg02 => Some(self.sg02),
            SchemeId::Bz03 => Some(self.bz03),
            SchemeId::Sh00 => Some(self.sh00),
            SchemeId::Bls04 => Some(self.bls04),
            SchemeId::Cks05 => Some(self.cks05),
            SchemeId::Kg20 => None,
        }
    }
}

/// Per-call cost of `f`: one warm-up call, then the minimum over
/// batches of `iters` calls of the batch mean (see [`min_over_batches`]).
fn time_op(iters: u32, mut f: impl FnMut()) -> Duration {
    f();
    min_over_batches(|| {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        start.elapsed() / iters
    })
}

/// Runs `batch` (which returns one batch's per-call mean) until its
/// minimum is stable, and returns that minimum. The fastest batch is the
/// one least disturbed by other work on the host, so it reproduces from
/// run to run where a single mean does not. Stable means no improvement
/// of more than 1% in [`STABLE_BATCHES`] batches in a row; a calibration
/// step stops anyway once [`BATCH_BUDGET`] is spent.
fn min_over_batches(mut batch: impl FnMut() -> Duration) -> Duration {
    let started = Instant::now();
    let mut best = batch();
    let mut since_improved = 0;
    while since_improved < STABLE_BATCHES && started.elapsed() < BATCH_BUDGET {
        let mean = batch();
        if mean < best.mul_f64(0.99) {
            since_improved = 0;
        } else {
            since_improved += 1;
        }
        best = best.min(mean);
    }
    best
}

/// Batches without a 1% improvement after which a minimum counts as stable.
const STABLE_BATCHES: u32 = 4;
/// Wall-clock cap on timing one calibration step.
const BATCH_BUDGET: Duration = Duration::from_millis(1500);

/// Solves `cost(k) = fixed + k · per_item` from two measurements.
fn linear_fit(k1: u32, c1: Duration, k2: u32, c2: Duration) -> (Duration, Duration) {
    let per_item = if c2 > c1 {
        (c2 - c1) / (k2 - k1)
    } else {
        Duration::ZERO
    };
    let fixed = c1.saturating_sub(per_item * k1);
    (fixed, per_item)
}

fn hash_per_byte() -> Duration {
    let data = vec![0xabu8; 1 << 16];
    let elapsed = time_op(4, || {
        let _ = theta_primitives_digest(&data);
    });
    elapsed / (1 << 16)
}

fn theta_primitives_digest(data: &[u8]) -> [u8; 32] {
    use theta_schemes::hashing::hash_to_key;
    hash_to_key("thetacrypt/sim/calibration", &[data])
}

fn aead_per_byte() -> Duration {
    use theta_primitives::aead;
    let key = [7u8; 32];
    let nonce = [1u8; 12];
    let data = vec![0xcdu8; 1 << 16];
    let sealed = aead::seal(&key, &nonce, b"", &data);
    let elapsed = time_op(4, || {
        let _ = aead::open(&key, &nonce, b"", &sealed).unwrap();
    });
    elapsed / (1 << 16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_model_ordering() {
        // The headline qualitative result of §4.5: ECDH < pairings < RSA.
        let m = CostModel::reference();
        assert!(m.sg02.create < m.bz03.create);
        assert!(m.sg02.create < m.sh00.create);
        assert!(m.bz03.verify < m.sh00.verify);
        assert!(m.cks05.create < m.bls04.combine_fixed);
    }

    #[test]
    fn linear_fit_exact() {
        let (fixed, per) = linear_fit(
            2,
            Duration::from_micros(50),
            6,
            Duration::from_micros(130),
        );
        assert_eq!(per, Duration::from_micros(20));
        assert_eq!(fixed, Duration::from_micros(10));
    }

    #[test]
    fn linear_fit_degenerate() {
        let (fixed, per) = linear_fit(
            2,
            Duration::from_micros(100),
            6,
            Duration::from_micros(90),
        );
        assert_eq!(per, Duration::ZERO);
        assert_eq!(fixed, Duration::from_micros(100));
    }

    #[test]
    fn calibration_runs_and_preserves_ordering() {
        // Full calibration at a small RSA size; asserts the qualitative
        // grouping the whole evaluation hinges on.
        let m = CostModel::calibrate(256);
        // ECDH schemes are the cheapest per share.
        assert!(m.sg02.create < m.bz03.create, "{:?} vs {:?}", m.sg02.create, m.bz03.create);
        assert!(m.cks05.create < m.bz03.create);
        // RSA at (extrapolated) 2048 bits is the most expensive.
        assert!(m.sh00.create > m.sg02.create * 4);
        // Pairing verify dominates ECDH verify.
        assert!(m.bz03.verify > m.sg02.verify);
        // One-round lookup covers five schemes.
        let mut count = 0;
        for id in SchemeId::ALL {
            if m.one_round(id).is_some() {
                count += 1;
            }
        }
        assert_eq!(count, 5);
    }
}
