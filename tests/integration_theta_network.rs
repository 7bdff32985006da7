//! Cross-crate integration tests: full Θ-networks running every scheme
//! end-to-end through orchestration and the in-memory network, plus
//! fault injection (byzantine shares, crashes, latency).

use rand::SeedableRng;
use std::time::Duration;
use theta_codec::Encode;
use thetacrypt::core::ThetaNetworkBuilder;
use thetacrypt::network::LinkProfile;
use thetacrypt::orchestration::Request;
use thetacrypt::protocols::ProtocolOutput;

fn rng() -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(0x17e5)
}

#[test]
fn every_scheme_end_to_end_on_one_network() {
    let mut r = rng();
    let net = ThetaNetworkBuilder::new(1, 4)
        .with_all_schemes()
        .seed(11)
        .build()
        .expect("build");

    // SG02 decrypt.
    let pk = net.public_keys().sg02.as_ref().unwrap();
    let ct = thetacrypt::schemes::sg02::encrypt(pk, b"l", b"sg02 e2e", &mut r);
    let out = net
        .submit_and_wait(1, Request::Sg02Decrypt(ct.encoded()))
        .unwrap();
    assert_eq!(out, ProtocolOutput::Plaintext(b"sg02 e2e".to_vec()));

    // BZ03 decrypt.
    let pk = net.public_keys().bz03.as_ref().unwrap();
    let ct = thetacrypt::schemes::bz03::encrypt(pk, b"l", b"bz03 e2e", &mut r);
    let out = net
        .submit_and_wait(2, Request::Bz03Decrypt(ct.encoded()))
        .unwrap();
    assert_eq!(out, ProtocolOutput::Plaintext(b"bz03 e2e".to_vec()));

    // SH00 sign + verify.
    let out = net
        .submit_and_wait(3, Request::Sh00Sign(b"sh00 e2e".to_vec()))
        .unwrap();
    let ProtocolOutput::Signature(bytes) = out else { panic!("expected sig") };
    let sig = <thetacrypt::schemes::sh00::Signature as theta_codec::Decode>::decoded(&bytes)
        .unwrap();
    let pk = net.public_keys().sh00.as_ref().unwrap();
    assert!(thetacrypt::schemes::sh00::verify(pk, b"sh00 e2e", &sig));

    // BLS04 sign + verify.
    let out = net
        .submit_and_wait(4, Request::Bls04Sign(b"bls04 e2e".to_vec()))
        .unwrap();
    let ProtocolOutput::Signature(bytes) = out else { panic!("expected sig") };
    let sig = <thetacrypt::schemes::bls04::Signature as theta_codec::Decode>::decoded(&bytes)
        .unwrap();
    let pk = net.public_keys().bls04.as_ref().unwrap();
    assert!(thetacrypt::schemes::bls04::verify(pk, b"bls04 e2e", &sig));

    // KG20 sign + verify (full two-round mode, all 4 nodes).
    let out = net
        .submit_and_wait(1, Request::Kg20Sign(b"kg20 e2e".to_vec()))
        .unwrap();
    let ProtocolOutput::Signature(bytes) = out else { panic!("expected sig") };
    let sig = <thetacrypt::schemes::kg20::Signature as theta_codec::Decode>::decoded(&bytes)
        .unwrap();
    let pk = net.public_keys().kg20.as_ref().unwrap();
    assert!(thetacrypt::schemes::kg20::verify(pk, b"kg20 e2e", &sig));

    // CKS05 coin, agreed across nodes.
    let a = net
        .submit_and_wait(2, Request::Cks05Coin(b"c".to_vec()))
        .unwrap();
    let b = net
        .submit_and_wait(3, Request::Cks05Coin(b"c".to_vec()))
        .unwrap();
    assert_eq!(a, b);
}

#[test]
fn survives_t_crashes_for_robust_schemes() {
    let mut r = rng();
    // 7 nodes, t = 2: crash two nodes, the remaining five still serve.
    let net = ThetaNetworkBuilder::new(2, 7)
        .with_sg02()
        .with_bls04()
        .seed(22)
        .build()
        .unwrap();
    net.hub().isolate_node(6, true);
    net.hub().isolate_node(7, true);

    let pk = net.public_keys().sg02.as_ref().unwrap();
    let ct = thetacrypt::schemes::sg02::encrypt(pk, b"l", b"crashing", &mut r);
    let out = net
        .submit_and_wait(1, Request::Sg02Decrypt(ct.encoded()))
        .unwrap();
    assert_eq!(out, ProtocolOutput::Plaintext(b"crashing".to_vec()));

    let out = net
        .submit_and_wait(2, Request::Bls04Sign(b"still alive".to_vec()))
        .unwrap();
    assert!(matches!(out, ProtocolOutput::Signature(_)));
}

#[test]
fn kg20_stalls_under_crashes_as_designed() {
    // FROST's fixed signing group = all nodes: one crash stalls it
    // (non-robustness, paper §3.5) and the instance times out.
    let net = ThetaNetworkBuilder::new(1, 4)
        .with_kg20(0)
        .seed(33)
        .instance_timeout(Duration::from_secs(2))
        .build()
        .unwrap();
    net.hub().isolate_node(4, true);
    let result = net.submit_and_wait(1, Request::Kg20Sign(b"doomed".to_vec()));
    assert!(result.is_err(), "kg20 must not complete with a crashed member");
}

#[test]
fn latency_injection_slows_but_completes() {
    let r = rng();
    let net = ThetaNetworkBuilder::new(1, 4)
        .with_cks05()
        .link_profile(LinkProfile::fixed(Duration::from_millis(40)))
        .seed(44)
        .build()
        .unwrap();
    let _ = r; // deterministic request
    let start = std::time::Instant::now();
    let out = net
        .submit_and_wait(1, Request::Cks05Coin(b"slow link".to_vec()))
        .unwrap();
    let elapsed = start.elapsed();
    assert!(matches!(out, ProtocolOutput::Coin(_)));
    // One share exchange must cross the 40 ms links at least once.
    assert!(elapsed >= Duration::from_millis(35), "elapsed {elapsed:?}");
}

#[test]
fn byzantine_share_injection_is_tolerated() {
    // A byzantine peer broadcasts garbage envelopes and corrupted shares;
    // honest nodes drop them and the protocol still completes.
    use theta_network::inmemory::{InMemoryConfig, InMemoryHub};
    use theta_network::Network;
    use theta_orchestration::{spawn_node, Envelope, InstanceId, KeyChest, NodeConfig};
    use thetacrypt::schemes::ThresholdParams;

    let mut r = rng();
    let params = ThresholdParams::new(1, 4).unwrap();
    let (pk, keys) = thetacrypt::schemes::cks05::keygen(params, &mut r);
    let (_hub, mut nets) = InMemoryHub::build(4, InMemoryConfig::default());
    // Node 4 is the adversary: it never runs the protocol, it only spams.
    let adversary = nets.pop().unwrap();
    let handles: Vec<_> = keys[..3]
        .iter()
        .zip(nets)
        .map(|(key, net)| {
            let mut chest = KeyChest::new();
            chest.cks05 = Some(key.clone());
            spawn_node(chest, Box::new(net) as Box<dyn Network>, NodeConfig::default())
        })
        .collect();

    let request = Request::Cks05Coin(b"under attack".to_vec());
    // Spam 1: totally malformed bytes.
    adversary.broadcast_p2p(vec![0xff; 64]);
    // Spam 2: well-formed envelope with a garbage payload for the real instance.
    let envelope = Envelope {
        instance: request.instance_id(),
        request: request.clone(),
        round: 1,
        sender: 4,
        payload: vec![1, 2, 3, 4],
    };
    adversary.broadcast_p2p(envelope.encoded());
    // Spam 3: envelope whose claimed instance id does not match its request.
    let bogus = Envelope {
        instance: InstanceId([9u8; 32]),
        request: request.clone(),
        round: 1,
        sender: 4,
        payload: vec![],
    };
    adversary.broadcast_p2p(bogus.encoded());

    let pending: Vec<_> = handles.iter().map(|h| h.submit(request.clone())).collect();
    let mut outputs = Vec::new();
    for p in pending {
        let result = p.wait_timeout(Duration::from_secs(15)).expect("completion");
        outputs.push(result.outcome.expect("coin"));
    }
    assert_eq!(outputs[0], outputs[1]);
    assert_eq!(outputs[1], outputs[2]);
    // Sanity: the coin verifies against the real key set.
    let _ = pk;
}

#[test]
fn lossy_network_retries_nothing_but_quorum_still_forms() {
    // 10% loss on P2P: with n = 7 and quorum 3, enough shares get through.
    use theta_network::inmemory::{InMemoryConfig, InMemoryHub};
    use theta_network::Network;
    use theta_orchestration::{spawn_node, KeyChest, NodeConfig};
    use thetacrypt::schemes::ThresholdParams;

    let mut r = rng();
    let params = ThresholdParams::new(2, 7).unwrap();
    let (_pk, keys) = thetacrypt::schemes::cks05::keygen(params, &mut r);
    let (_hub, nets) = InMemoryHub::build(
        7,
        InMemoryConfig { drop_probability: 0.10, seed: 5, ..Default::default() },
    );
    let handles: Vec<_> = keys
        .iter()
        .zip(nets)
        .map(|(key, net)| {
            let mut chest = KeyChest::new();
            chest.cks05 = Some(key.clone());
            spawn_node(chest, Box::new(net) as Box<dyn Network>, NodeConfig::default())
        })
        .collect();
    let request = Request::Cks05Coin(b"lossy".to_vec());
    let pending: Vec<_> = handles.iter().map(|h| h.submit(request.clone())).collect();
    let mut ok = 0;
    for p in pending {
        if let Ok(result) = p.wait_timeout(Duration::from_secs(15)) {
            if result.outcome.is_ok() {
                ok += 1;
            }
        }
    }
    assert!(ok >= 5, "most nodes should complete under 10% loss, got {ok}");
}

#[test]
fn tcp_mesh_runs_a_real_protocol() {
    // End-to-end over real TCP sockets (the standalone deployment mode):
    // mesh degree 0 is the full mesh.
    use theta_network::gossip::GossipMesh;
    use theta_network::handshake::MeshAuth;
    use theta_network::Network;
    use theta_orchestration::{spawn_node, KeyChest, NodeConfig};
    use thetacrypt::schemes::ThresholdParams;

    let mut r = rng();
    let params = ThresholdParams::new(1, 4).unwrap();
    let (pk, sg_keys) = thetacrypt::schemes::sg02::keygen(params, &mut r);
    let (_, kg_keys) = thetacrypt::schemes::kg20::keygen(params, &mut r);

    // Bind every listener on an OS-assigned port first, then hand the
    // real address list to each node — no fixed ports to collide on.
    let listeners: Vec<std::net::TcpListener> = (0..4)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    let addrs: Vec<std::net::SocketAddr> =
        listeners.iter().map(|l| l.local_addr().unwrap()).collect();
    let meshes: Vec<_> = listeners
        .into_iter()
        .zip(1..=4u16)
        .map(|(listener, id)| {
            let list = addrs.clone();
            std::thread::spawn(move || {
                let auth = MeshAuth::insecure_dev(id, 4, 0xC0FFEE);
                let mesh = GossipMesh::connect_listener(id, listener, &list, auth, 0).unwrap();
                assert!(mesh.is_complete());
                mesh
            })
        })
        .collect();
    let handles: Vec<_> = meshes
        .into_iter()
        .enumerate()
        .map(|(i, join)| {
            let mesh = join.join().unwrap();
            let mut chest = KeyChest::new();
            chest.sg02 = Some(sg_keys[i].clone());
            chest.kg20 = Some(kg_keys[i].clone());
            spawn_node(chest, Box::new(mesh) as Box<dyn Network>, NodeConfig::default())
        })
        .collect();

    // One-round scheme over TCP.
    let ct = thetacrypt::schemes::sg02::encrypt(&pk, b"l", b"over tcp", &mut r);
    let pending: Vec<_> = handles
        .iter()
        .map(|h| h.submit(Request::Sg02Decrypt(ct.encoded())))
        .collect();
    for p in pending {
        let result = p.wait_timeout(Duration::from_secs(20)).expect("completion");
        assert_eq!(
            result.outcome.unwrap(),
            ProtocolOutput::Plaintext(b"over tcp".to_vec())
        );
    }

    // Two-round KG20 exercises the TCP TOB sequencer.
    let pending: Vec<_> = handles
        .iter()
        .map(|h| h.submit(Request::Kg20Sign(b"tcp frost".to_vec())))
        .collect();
    for p in pending {
        let result = p.wait_timeout(Duration::from_secs(20)).expect("completion");
        assert!(matches!(result.outcome.unwrap(), ProtocolOutput::Signature(_)));
    }
}

#[test]
fn first_coin_never_waits_for_a_retry() {
    // A share check deferred to the batch aggregator after the router
    // last armed its timer must be flushed at its batch age, not at the
    // next P2P retry. With the first retry 5 s out, a missed router wake
    // shows as a first coin far slower than its crypto.
    use thetacrypt::network::inmemory::{InMemoryConfig, InMemoryHub};
    use thetacrypt::network::Network;
    use thetacrypt::orchestration::{spawn_node, KeyChest, NodeConfig};
    use thetacrypt::schemes::ThresholdParams;

    let mut r = rng();
    let params = ThresholdParams::new(1, 4).unwrap();
    for cluster in 0..10 {
        let (_, keys) = thetacrypt::schemes::cks05::keygen(params, &mut r);
        let (_hub, nets) = InMemoryHub::build(4, InMemoryConfig::default());
        let handles: Vec<_> = keys
            .iter()
            .zip(nets)
            .map(|(key, net)| {
                let mut chest = KeyChest::new();
                chest.cks05 = Some(key.clone());
                let config = NodeConfig {
                    retry_initial_backoff: Duration::from_secs(5),
                    ..NodeConfig::default()
                };
                spawn_node(chest, Box::new(net) as Box<dyn Network>, config)
            })
            .collect();
        let start = std::time::Instant::now();
        let result = handles[0]
            .submit(Request::Cks05Coin(format!("first coin {cluster}").into_bytes()))
            .wait_timeout(Duration::from_secs(20))
            .expect("coin completes");
        let elapsed = start.elapsed();
        assert!(result.outcome.is_ok(), "cluster {cluster}: {:?}", result.outcome);
        assert!(
            elapsed < Duration::from_secs(1),
            "cluster {cluster}: first coin took {elapsed:?} — it waited for a retry"
        );
    }
}

#[test]
fn idle_cluster_routers_do_not_wake() {
    let net = ThetaNetworkBuilder::new(1, 4)
        .with_cks05()
        .seed(12)
        .build()
        .expect("build");
    // One coin first, so every router has armed (and then passed) the
    // timers a finished instance leaves behind.
    net.submit_and_wait(1, Request::Cks05Coin(b"warm".to_vec()))
        .expect("coin");
    std::thread::sleep(Duration::from_millis(300));
    let before: Vec<u64> = (1..=4).map(|id| net.node_counters(id).wakeups).collect();
    std::thread::sleep(Duration::from_secs(2));
    for id in 1..=4u16 {
        let woke = net.node_counters(id).wakeups - before[id as usize - 1];
        assert!(woke <= 2, "idle router {id} woke {woke} times in 2 s");
    }
}
