//! Per-layer probes of the service benchmark (part of the traced run).
//!
//! Times calls into each layer's public functions with the workload's
//! seeded inputs, from the outside in:
//!
//! - **descent**: one seeded request sequence is sent in at successively
//!   lower entry points — `RpcClient` → `NodeHandle::submit` → all `n`
//!   `ProtocolDriver`s of one instance stepped in one thread with
//!   in-memory hand-off → the scheme free functions on that instance's
//!   critical path. A layer's figure is its per-scheme medians averaged
//!   over the mix; each layer's self time is the difference between
//!   adjacent layers' figures, so the self times add up to the RPC figure;
//! - **protocols / schemes**: per scheme, the stepped instance and its
//!   create / verify / combine calls, plus a 16-check batch settle;
//! - **math**: pairing, Miller loop, 4-pairing product, 16-point MSM;
//! - **network**: AEAD seal + open of a share-sized frame;
//! - **keymanager**: `KeyManager::load` of a sealed record, cold and hot.
//!
//! ```text
//! svcbench-probes --workload coin_seq --seed 1 --work-dir <scratch dir>
//! ```
//!
//! Prints one JSON line `{"metrics": {...}}` on stdout.

use rand::{RngCore, SeedableRng};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use theta_codec::Encode;
use theta_core::keymanager::{KeyManager, KeystoreKey};
use theta_core::ThetaNetworkBuilder;
use theta_orchestration::{KeyRef, Request};
use theta_protocols::kg20_protocol::Kg20Sign;
use theta_protocols::one_round::{Bls04Sign, Cks05Coin, OneRoundProtocol, Sg02Decrypt};
use theta_protocols::{InboundMessage, OutboundMessage, ProtocolDriver};
use theta_schemes::batch::PendingCheck;
use theta_schemes::registry::SchemeId;
use theta_schemes::{bls04, cks05, kg20, sg02, PartyId, ThresholdParams};
use theta_service::RpcClient;

const T: u16 = 1;
const N: u16 = 4;
/// Instances per scheme for the stepped-protocol and scheme timings.
const REPS: usize = 15;

type Rng = rand::rngs::StdRng;

/// Median of `reps` timings of `f`, in microseconds.
fn time_us<O>(reps: usize, mut f: impl FnMut() -> O) -> f64 {
    std::hint::black_box(f());
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&mut samples)
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Dealer keys for the four driven schemes.
struct Keys {
    cks05: (cks05::PublicKey, Vec<cks05::KeyShare>),
    sg02: (sg02::PublicKey, Vec<sg02::KeyShare>),
    bls04: (bls04::PublicKey, Vec<bls04::KeyShare>),
    kg20: (kg20::PublicKey, Vec<kg20::KeyShare>),
}

impl Keys {
    fn deal(rng: &mut Rng) -> Keys {
        let params = ThresholdParams::new(T, N).expect("valid threshold");
        Keys {
            cks05: cks05::keygen(params, rng),
            sg02: sg02::keygen(params, rng),
            bls04: bls04::keygen(params, rng),
            kg20: kg20::keygen(params, rng),
        }
    }
}

/// A distinct, seeded request body.
fn body(rng: &mut Rng, tag: &str, i: usize) -> Vec<u8> {
    let mut salt = [0u8; 8];
    rng.fill_bytes(&mut salt);
    let mut b = format!("svcbench/probe/{tag}/{i}/").into_bytes();
    b.extend_from_slice(&salt);
    b
}

fn scheme_name(s: SchemeId) -> &'static str {
    match s {
        SchemeId::Cks05 => "cks05",
        SchemeId::Sg02 => "sg02",
        SchemeId::Bls04 => "bls04",
        SchemeId::Kg20 => "kg20",
        _ => "other",
    }
}

/// The drivers of one instance of `scheme` over `body`: the quorum for
/// one-round schemes (the other parties are not on node 1's path), all
/// `n` for KG20, whose signing group is every party. Index 0 is node 1.
fn drivers(keys: &Keys, scheme: SchemeId, body: &[u8], rng: &mut Rng) -> Vec<ProtocolDriver> {
    let quorum = (T + 1) as usize;
    match scheme {
        SchemeId::Cks05 => keys.cks05.1[..quorum]
            .iter()
            .map(|k| {
                ProtocolDriver::new(Box::new(OneRoundProtocol::new_pooled(Cks05Coin::new(
                    k.clone(),
                    body.to_vec(),
                ))))
            })
            .collect(),
        SchemeId::Sg02 => {
            let ct = sg02::encrypt(&keys.sg02.0, b"svcbench", body, rng);
            keys.sg02.1[..quorum]
                .iter()
                .map(|k| {
                    ProtocolDriver::new(Box::new(OneRoundProtocol::new_pooled(Sg02Decrypt::new(
                        k.clone(),
                        ct.clone(),
                    ))))
                })
                .collect()
        }
        SchemeId::Bls04 => keys.bls04.1[..quorum]
            .iter()
            .map(|k| {
                ProtocolDriver::new(Box::new(OneRoundProtocol::new_pooled(Bls04Sign::new(
                    k.clone(),
                    body.to_vec(),
                ))))
            })
            .collect(),
        _ => keys
            .kg20
            .1
            .iter()
            .map(|k| ProtocolDriver::new(Box::new(Kg20Sign::new(k.clone(), body.to_vec()))))
            .collect(),
    }
}

/// Steps one instance in this thread until node 1's driver finishes.
/// Messages from other parties are handed over before node 1's own,
/// and to node 1 first; another party receives messages only until it
/// has sent its last round (`rounds`), so the work done is node 1's
/// critical path. Deferred share checks are settled at once, as a
/// batch of one.
fn step_instance(ds: &mut [ProtocolDriver], rounds: u16, rng: &mut Rng) -> Result<Vec<u8>, String> {
    // Two hand-off queues: messages from other parties, node 1's own.
    type Queue = VecDeque<(usize, OutboundMessage)>;
    fn push(from: usize, msgs: Vec<OutboundMessage>, others: &mut Queue, mine: &mut Queue) {
        let queue = if from == 0 { mine } else { others };
        queue.extend(msgs.into_iter().map(|m| (from, m)));
    }
    let (mut others, mut mine) = (Queue::new(), Queue::new());
    for (i, d) in ds.iter_mut().enumerate() {
        let out = d.start(rng).map_err(|e| format!("start: {e}"))?;
        push(i, out.messages, &mut others, &mut mine);
    }
    while let Some((from, msg)) = others.pop_front().or_else(|| mine.pop_front()) {
        let inbound = InboundMessage {
            sender: ds[from].party(),
            round: msg.round,
            payload: msg.payload,
        };
        for (to, d) in ds.iter_mut().enumerate() {
            if to == from || (to != 0 && d.current_round() >= rounds) {
                continue;
            }
            d.deliver(&inbound).map_err(|e| format!("deliver: {e}"))?;
            let checks = d.take_pending_checks();
            if !checks.is_empty() {
                let refs: Vec<&PendingCheck> = checks.iter().map(|(_, c)| c).collect();
                let verdicts = theta_schemes::batch::settle_mixed(&refs);
                let resolved: Vec<(PartyId, bool)> = checks
                    .iter()
                    .zip(verdicts)
                    .map(|((p, _), ok)| (*p, ok))
                    .collect();
                d.resolve_checks(&resolved);
            }
            let step = d.advance(rng);
            push(
                to,
                step.outputs.into_iter().flat_map(|o| o.messages).collect(),
                &mut others,
                &mut mine,
            );
            if let (0, Some(finished)) = (to, step.finished) {
                return finished
                    .map(|o| o.as_bytes().to_vec())
                    .map_err(|e| format!("finish: {e}"));
            }
        }
    }
    Err("instance stalled before node 1 finished".into())
}

/// True when a stepped instance's output is right for `body`: the
/// plaintext itself, a signature that verifies, or a 32-byte coin.
fn output_ok(keys: &Keys, scheme: SchemeId, body: &[u8], out: &[u8]) -> bool {
    use theta_codec::Decode;
    match scheme {
        SchemeId::Cks05 => out.len() == 32,
        SchemeId::Sg02 => out == body,
        SchemeId::Bls04 => {
            bls04::Signature::decoded(out).is_ok_and(|sig| bls04::verify(&keys.bls04.0, body, &sig))
        }
        _ => kg20::Signature::decoded(out).is_ok_and(|sig| kg20::verify(&keys.kg20.0, body, &sig)),
    }
}

/// Protocol rounds of `scheme`: KG20 is the two-round member.
fn rounds(scheme: SchemeId) -> u16 {
    if scheme == SchemeId::Kg20 {
        2
    } else {
        1
    }
}

/// Create / verify / combine timings of one scheme, in microseconds.
struct SchemeCost {
    create: f64,
    verify: f64,
    combine: f64,
}

impl SchemeCost {
    /// Scheme time on node 1's critical path when one instance is
    /// stepped in one thread: the quorum's shares created, the remote
    /// ones verified, one combine. KG20 signs with all `n` parties, and
    /// its "create" is both rounds (nonce + response).
    fn critical_us(&self, scheme: SchemeId) -> f64 {
        let parties = if scheme == SchemeId::Kg20 { N } else { T + 1 } as f64;
        parties * self.create + (parties - 1.0) * self.verify + self.combine
    }
}

/// Times each scheme operation once (after one untimed call) on fresh
/// inputs, and the batch settle of 16 checks from 16 instances where the
/// scheme defers checks.
fn scheme_costs(keys: &Keys, scheme: SchemeId, rng: &mut Rng) -> (SchemeCost, Option<f64>) {
    let msg = body(rng, "scheme", 0);
    let msgs: Vec<Vec<u8>> = (0..16).map(|i| body(rng, "batch", i)).collect();
    match scheme {
        SchemeId::Cks05 => {
            let (pk, ks) = &keys.cks05;
            let shares: Vec<_> = ks[..2]
                .iter()
                .map(|k| cks05::create_coin_share(k, &msg, rng))
                .collect();
            let mut r = Rng::seed_from_u64(rng.next_u64());
            let cost = SchemeCost {
                create: time_us(1, || cks05::create_coin_share(&ks[0], &msg, &mut r)),
                verify: time_us(1, || cks05::verify_coin_share(pk, &msg, &shares[1])),
                combine: time_us(1, || cks05::combine_preverified(pk, &msg, &shares)),
            };
            (cost, None)
        }
        SchemeId::Sg02 => {
            let (pk, ks) = &keys.sg02;
            let ct = sg02::encrypt(pk, b"svcbench", &msg, rng);
            let shares: Vec<_> = ks[..2]
                .iter()
                .map(|k| sg02::create_decryption_share(k, &ct, rng).expect("valid ct"))
                .collect();
            let checks: Vec<PendingCheck> = msgs
                .iter()
                .map(|m| {
                    let ct = sg02::encrypt(pk, b"svcbench", m, rng);
                    let share = sg02::create_decryption_share(&ks[1], &ct, rng).expect("valid ct");
                    sg02::pending_check(pk, &ct, &share)
                })
                .collect();
            let refs: Vec<&PendingCheck> = checks.iter().collect();
            let mut r = Rng::seed_from_u64(rng.next_u64());
            let cost = SchemeCost {
                create: time_us(1, || sg02::create_decryption_share(&ks[0], &ct, &mut r)),
                verify: time_us(1, || sg02::verify_decryption_share(pk, &ct, &shares[1])),
                combine: time_us(1, || sg02::combine_preverified(pk, &ct, &shares)),
            };
            (
                cost,
                Some(time_us(1, || theta_schemes::batch::batch_holds(&refs))),
            )
        }
        SchemeId::Bls04 => {
            let (pk, ks) = &keys.bls04;
            let shares: Vec<_> = ks[..2]
                .iter()
                .map(|k| bls04::sign_share(k, &msg).expect("hashable"))
                .collect();
            let checks: Vec<PendingCheck> = msgs
                .iter()
                .map(|m| {
                    let h = bls04::hash_message(m).expect("hashable");
                    let share = bls04::sign_share(&ks[1], m).expect("hashable");
                    bls04::pending_check_with_hash(pk, &h, &share)
                })
                .collect();
            let refs: Vec<&PendingCheck> = checks.iter().collect();
            let cost = SchemeCost {
                create: time_us(1, || bls04::sign_share(&ks[0], &msg)),
                verify: time_us(1, || bls04::verify_share(pk, &msg, &shares[1])),
                combine: time_us(1, || bls04::combine_preverified(pk, &msg, &shares)),
            };
            (
                cost,
                Some(time_us(1, || theta_schemes::batch::batch_holds(&refs))),
            )
        }
        _ => {
            let (pk, ks) = &keys.kg20;
            let nonces: Vec<_> = ks.iter().map(|k| kg20::generate_nonce(k, rng)).collect();
            let commitments: Vec<_> = nonces.iter().map(|n| n.commitment().clone()).collect();
            let shares: Vec<_> = ks
                .iter()
                .zip(nonces)
                .map(|(k, n)| {
                    kg20::sign_share(k, n, &msg, &commitments).expect("valid signing set")
                })
                .collect();
            let mut r = Rng::seed_from_u64(rng.next_u64());
            let cost = SchemeCost {
                create: time_us(1, || {
                    // Both rounds of node 1's share: a fresh nonce whose
                    // commitment replaces node 1's in the signing set.
                    let nonce = kg20::generate_nonce(&ks[0], &mut r);
                    let mut set = commitments.clone();
                    set[0] = nonce.commitment().clone();
                    kg20::sign_share(&ks[0], nonce, &msg, &set)
                }),
                verify: time_us(1, || kg20::verify_share(pk, &msg, &commitments, &shares[1])),
                combine: time_us(1, || kg20::combine(pk, &msg, &commitments, &shares)),
            };
            (cost, None)
        }
    }
}

fn main() {
    if let Err(e) = run() {
        eprintln!("svcbench-probes: {e}");
        std::process::exit(2);
    }
}

fn run() -> Result<(), String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut work_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let work_dir = work_dir.ok_or("--work-dir is required")?;
    // The descent replays the workload's scheme mix on an in-process
    // cluster (the only shape whose inner entry points are reachable).
    let mix: &[SchemeId] = match workload.as_str() {
        "coin_seq" => &[SchemeId::Cks05],
        "mixed_burst" => &[
            SchemeId::Sg02,
            SchemeId::Bls04,
            SchemeId::Cks05,
            SchemeId::Kg20,
        ],
        "tenant_gossip" => &[SchemeId::Bls04, SchemeId::Sg02],
        other => return Err(format!("unknown workload {other}")),
    };
    let mut rng = Rng::seed_from_u64(seed ^ 0x9e0b);
    let keys = Keys::deal(&mut rng);
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();

    // Schemes, then the stepped protocol instance, per scheme.
    let all = [
        SchemeId::Cks05,
        SchemeId::Sg02,
        SchemeId::Bls04,
        SchemeId::Kg20,
    ];
    let mut critical = std::collections::HashMap::new();
    for scheme in all {
        // Scheme calls and stepped instances alternate, so both see the
        // same machine conditions.
        let name = scheme_name(scheme);
        let (mut create, mut verify, mut combine, mut batch16, mut local) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for i in 0..REPS {
            let (cost, batch) = scheme_costs(&keys, scheme, &mut rng);
            create.push(cost.create);
            verify.push(cost.verify);
            combine.push(cost.combine);
            batch16.extend(batch);
            let b = body(&mut rng, "local", i);
            let start = Instant::now();
            let mut ds = drivers(&keys, scheme, &b, &mut rng);
            let out = step_instance(&mut ds, rounds(scheme), &mut rng)?;
            local.push(start.elapsed().as_secs_f64() * 1e3);
            if !output_ok(&keys, scheme, &b, &out) {
                return Err(format!("stepped {name} instance produced a wrong output"));
            }
        }
        let cost = SchemeCost {
            create: median(&mut create),
            verify: median(&mut verify),
            combine: median(&mut combine),
        };
        metrics.push((format!("schemes.{name}.create_us"), cost.create, "us"));
        metrics.push((format!("schemes.{name}.verify_us"), cost.verify, "us"));
        metrics.push((format!("schemes.{name}.combine_us"), cost.combine, "us"));
        if !batch16.is_empty() {
            metrics.push((
                format!("schemes.{name}.batch_verify16_us"),
                median(&mut batch16),
                "us",
            ));
        }
        let crit_ms = cost.critical_us(scheme) / 1e3;
        critical.insert(scheme, crit_ms);
        let local = median(&mut local);
        metrics.push((format!("protocols.local_ms.{name}"), local, "ms"));
        metrics.push((format!("protocols.self_ms.{name}"), local - crit_ms, "ms"));
    }

    // Descent over the workload's mix, round-robin.
    let requests = if mix.len() == 1 { 100 } else { 15 * mix.len() };
    let mut builder = ThetaNetworkBuilder::new(T, N).seed(seed);
    for s in mix {
        builder = match s {
            SchemeId::Cks05 => builder.with_cks05(),
            SchemeId::Sg02 => builder.with_sg02(),
            SchemeId::Bls04 => builder.with_bls04(),
            _ => builder.with_kg20(0),
        };
    }
    let mut net = builder.build().map_err(|e| format!("build network: {e}"))?;
    let addr = net
        .serve_rpc(1, "127.0.0.1:0".parse().expect("literal address"))
        .map_err(|e| format!("serve rpc: {e}"))?;
    let sg02_pk = net.public_keys().sg02.clone();
    let make = |s: SchemeId, b: Vec<u8>, rng: &mut Rng| -> Request {
        match s {
            SchemeId::Cks05 => Request::Cks05Coin(b),
            SchemeId::Sg02 => Request::Sg02Decrypt(
                sg02::encrypt(
                    sg02_pk.as_ref().expect("sg02 provisioned"),
                    b"svcbench",
                    &b,
                    rng,
                )
                .encoded(),
            ),
            SchemeId::Bls04 => Request::Bls04Sign(b),
            _ => Request::Kg20Sign(b),
        }
    };
    let mut client =
        RpcClient::connect(addr, Duration::from_secs(5)).map_err(|e| format!("connect: {e}"))?;
    client.set_response_timeout(Some(Duration::from_secs(60)));
    // Warm the cluster past its first-request retry.
    for i in 0..8 {
        let r = make(mix[i % mix.len()], body(&mut rng, "warm", i), &mut rng);
        client
            .run_protocol(r)
            .map_err(|e| format!("warm-up: {e}"))?;
    }
    // Samples per layer (RPC, submit, stepped) and scheme in the mix.
    let mut samples = vec![[Vec::new(), Vec::new(), Vec::new()]; mix.len()];
    for i in 0..requests {
        let (k, s) = (i % mix.len(), mix[i % mix.len()]);
        let r = make(s, body(&mut rng, "rpc", i), &mut rng);
        let start = Instant::now();
        client
            .run_protocol(r)
            .map_err(|e| format!("rpc layer: {e}"))?;
        samples[k][0].push(start.elapsed().as_secs_f64() * 1e3);

        let r = make(s, body(&mut rng, "submit", i), &mut rng);
        let start = Instant::now();
        let done = net.node(1).submit(r).wait_timeout(Duration::from_secs(60));
        samples[k][1].push(start.elapsed().as_secs_f64() * 1e3);
        done.map_err(|e| format!("submit layer: {e}"))?
            .outcome
            .map_err(|e| format!("submit layer: {e}"))?;

        let b = body(&mut rng, "local", i);
        let start = Instant::now();
        let mut ds = drivers(&keys, s, &b, &mut rng);
        let out = step_instance(&mut ds, rounds(s), &mut rng)?;
        samples[k][2].push(start.elapsed().as_secs_f64() * 1e3);
        if !output_ok(&keys, s, &b, &out) {
            return Err("stepped instance produced a wrong output".into());
        }
    }
    drop(client);
    drop(net);
    // A layer's figure is the mean over the mix of its per-scheme
    // medians: a median of the pooled, multi-modal mix could land in a
    // different scheme's mode on each layer.
    let layer = |l: usize| {
        let mut sum = 0.0;
        for per_scheme in &samples {
            sum += median(&mut per_scheme[l].clone());
        }
        sum / mix.len() as f64
    };
    let (rpc, submit, local) = (layer(0), layer(1), layer(2));
    let scheme = mix.iter().map(|s| critical[s]).sum::<f64>() / mix.len() as f64;
    metrics.push(("descent.rpc_ms".into(), rpc, "ms"));
    metrics.push(("service.self_ms".into(), rpc - submit, "ms"));
    metrics.push(("orchestration.self_ms".into(), submit - local, "ms"));
    metrics.push(("protocols.self_ms".into(), local - scheme, "ms"));
    metrics.push(("schemes.self_ms".into(), scheme, "ms"));

    // Math kernels.
    {
        use theta_math::bn254::{miller_loop, multi_pairing, pairing, Fr, G1, G2};
        let g1: Vec<G1> = (0..4)
            .map(|_| G1::mul_generator(&Fr::random(&mut rng)))
            .collect();
        let g2: Vec<G2> = (0..4)
            .map(|_| G2::mul_generator(&Fr::random(&mut rng)))
            .collect();
        let pairs: Vec<(&G1, &G2)> = g1.iter().zip(&g2).collect();
        metrics.push((
            "math.pairing_us".into(),
            time_us(REPS, || pairing(&g1[0], &g2[0])),
            "us",
        ));
        metrics.push((
            "math.miller_loop_us".into(),
            time_us(REPS, || miller_loop(&g1[0], &g2[0])),
            "us",
        ));
        metrics.push((
            "math.multi_pairing4_us".into(),
            time_us(REPS, || multi_pairing(&pairs)),
            "us",
        ));
        use theta_math::ed25519::{Point, Scalar};
        let points: Vec<Point> = (0..16)
            .map(|_| Point::mul_base(&Scalar::random(&mut rng)))
            .collect();
        let scalars: Vec<theta_math::BigUint> = (0..16)
            .map(|_| theta_math::BigUint::random_bits(&mut rng, 252))
            .collect();
        let refs: Vec<&theta_math::BigUint> = scalars.iter().collect();
        metrics.push((
            "math.msm_ed25519_16_us".into(),
            time_us(REPS, || theta_math::msm(&points, &refs)),
            "us",
        ));
    }

    // Network: the AEAD framing every mesh message pays, on a frame the
    // size of an encoded SG02 decryption share.
    {
        use theta_primitives::aead;
        let ct = sg02::encrypt(&keys.sg02.0, b"svcbench", b"frame", &mut rng);
        let frame = sg02::create_decryption_share(&keys.sg02.1[0], &ct, &mut rng)
            .expect("valid ct")
            .encoded();
        let (key, nonce, aad) = ([7u8; 32], [1u8; 12], [0u8; 16]);
        let us = time_us(200, || {
            let sealed = aead::seal(&key, &nonce, &aad, &frame);
            aead::open(&key, &nonce, &aad, &sealed).expect("authentic frame")
        });
        metrics.push(("network.aead_frame_us".into(), us, "us"));
    }

    // Key manager: sealed records loaded cold (a one-entry cache that two
    // keys keep evicting) and hot.
    {
        let dir = work_dir.join("keystore-probe");
        let _ = std::fs::remove_dir_all(&dir);
        let storage = || KeystoreKey::derive(b"svcbench probe passphrase");
        let cold = KeyManager::open(&dir, storage(), 1).map_err(|e| format!("keystore: {e}"))?;
        let refs = [KeyRef::new("probe", "a"), KeyRef::new("probe", "b")];
        for (kr, share) in refs.iter().zip(&keys.bls04.1) {
            cold.install(
                kr,
                SchemeId::Bls04,
                &share.encoded(),
                &keys.bls04.0.encoded(),
            )?;
        }
        let mut flip = 0;
        let cold_ms = time_us(REPS, || {
            flip ^= 1;
            cold.load(&refs[flip]).expect("sealed record loads")
        }) / 1e3;
        let hot = KeyManager::open(&dir, storage(), 8).map_err(|e| format!("keystore: {e}"))?;
        let hot_us = time_us(200, || hot.load(&refs[0]).expect("sealed record loads"));
        let _ = std::fs::remove_dir_all(&dir);
        metrics.push(("keymanager.cold_load_ms".into(), cold_ms, "ms"));
        metrics.push(("keymanager.hot_load_us".into(), hot_us, "us"));
    }

    if let Some((name, ..)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("metric {name} is not a finite number"));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!("{{\"metrics\": {{{}}}}}", body.join(", "));
    Ok(())
}
