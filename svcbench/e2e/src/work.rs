//! Seeded request generation and output checks.
//!
//! Every request body is distinct (it embeds the seed and a running
//! counter): instance ids are content-addressed, so a repeated body
//! would be answered from the result cache instead of the protocol.

use rand::{Rng, RngCore, SeedableRng};
use theta_codec::{Decode, Encode};
use theta_orchestration::{KeyRef, Request};
use theta_schemes::registry::SchemeId;
use theta_schemes::{bls04, kg20, sg02};
use theta_service::RpcClient;

/// The public half of the key a target runs against, as the checks
/// need it.
pub enum PublicKey {
    Cks05,
    Sg02(sg02::PublicKey),
    Bls04(bls04::PublicKey),
    Kg20(kg20::PublicKey),
}

/// One kind of request the load can send: a scheme, optionally scoped
/// to a tenant key.
pub struct Target {
    pub keyref: Option<KeyRef>,
    pub key: PublicKey,
}

impl Target {
    /// Resolves the public key of `scheme` (the dealer's, or the tenant
    /// key's when `keyref` is set) through the RPC scheme API.
    pub fn resolve(
        client: &mut RpcClient,
        scheme: SchemeId,
        keyref: Option<KeyRef>,
    ) -> Result<Target, String> {
        let bytes = match &keyref {
            None if scheme == SchemeId::Cks05 => Vec::new(),
            None => client
                .public_key(scheme)
                .map_err(|e| format!("public key {scheme}: {e}"))?,
            Some(kr) => {
                let (got, bytes) = client
                    .tenant_key(kr.clone())
                    .map_err(|e| format!("tenant key {kr}: {e}"))?;
                if got != scheme {
                    return Err(format!("tenant key {kr} is {got}, expected {scheme}"));
                }
                bytes
            }
        };
        let bad = |e: theta_codec::CodecError| format!("public key {scheme} does not decode: {e}");
        let key = match scheme {
            SchemeId::Cks05 => PublicKey::Cks05,
            SchemeId::Sg02 => PublicKey::Sg02(sg02::PublicKey::decoded(&bytes).map_err(bad)?),
            SchemeId::Bls04 => PublicKey::Bls04(bls04::PublicKey::decoded(&bytes).map_err(bad)?),
            SchemeId::Kg20 => PublicKey::Kg20(kg20::PublicKey::decoded(&bytes).map_err(bad)?),
            other => return Err(format!("scheme {other} is not driven by this benchmark")),
        };
        Ok(Target { keyref, key })
    }
}

/// What a reply must satisfy: the target it ran against and the body
/// (coin name, plaintext or signed message) it was generated from.
#[derive(Clone)]
pub struct Expect {
    pub target: usize,
    pub body: Vec<u8>,
}

/// Seeded request stream over weighted targets.
pub struct Gen {
    rng: rand::rngs::StdRng,
    seed: u64,
    counter: u64,
    /// Position in the golden-ratio sequence that picks targets: every
    /// stretch of requests matches the weights closely, so the mix does
    /// not drift from run to run.
    phase: f64,
    targets: Vec<Target>,
    cumulative: Vec<f64>,
}

impl Gen {
    /// `weights` pairs with `targets`; they need not sum to one.
    pub fn new(seed: u64, targets: Vec<Target>, weights: &[f64]) -> Gen {
        assert_eq!(targets.len(), weights.len());
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cumulative = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let phase = rng.gen();
        Gen {
            rng,
            seed,
            counter: 0,
            phase,
            targets,
            cumulative,
        }
    }

    /// The next request and what its reply must satisfy.
    pub fn next(&mut self) -> (Request, Expect) {
        self.phase = (self.phase + 0.618_033_988_749_894_9) % 1.0;
        let target = self
            .cumulative
            .iter()
            .position(|c| self.phase < *c)
            .unwrap_or(self.targets.len() - 1);
        self.counter += 1;
        let mut body = format!("svcbench/{}/{}/", self.seed, self.counter).into_bytes();
        let mut salt = [0u8; 16];
        self.rng.fill_bytes(&mut salt);
        body.extend_from_slice(&salt);
        let inner = match &self.targets[target].key {
            PublicKey::Cks05 => Request::Cks05Coin(body.clone()),
            PublicKey::Sg02(pk) => {
                let ct = sg02::encrypt(pk, b"svcbench", &body, &mut self.rng);
                Request::Sg02Decrypt(ct.encoded())
            }
            PublicKey::Bls04(_) => Request::Bls04Sign(body.clone()),
            PublicKey::Kg20(_) => Request::Kg20Sign(body.clone()),
        };
        let request = match &self.targets[target].keyref {
            Some(kr) => Request::scoped(kr.clone(), inner),
            None => inner,
        };
        (request, Expect { target, body })
    }

    /// True when `output` is a correct reply for `expect`: a 32-byte
    /// coin, the original plaintext, or a signature that verifies under
    /// the target's public key.
    pub fn check(&self, expect: &Expect, output: &[u8]) -> bool {
        match &self.targets[expect.target].key {
            PublicKey::Cks05 => output.len() == 32,
            PublicKey::Sg02(_) => output == expect.body.as_slice(),
            PublicKey::Bls04(pk) => bls04::Signature::decoded(output)
                .is_ok_and(|sig| bls04::verify(pk, &expect.body, &sig)),
            PublicKey::Kg20(pk) => kg20::Signature::decoded(output)
                .is_ok_and(|sig| kg20::verify(pk, &expect.body, &sig)),
        }
    }

    /// True for coin targets, whose value can be re-read elsewhere.
    pub fn is_coin(&self, expect: &Expect) -> bool {
        matches!(self.targets[expect.target].key, PublicKey::Cks05)
    }
}

/// Zipf weights `1/rank^s` for `n` targets listed in rank order.
pub fn zipf_weights(n: usize, s: f64) -> Vec<f64> {
    (1..=n).map(|rank| 1.0 / (rank as f64).powf(s)).collect()
}
