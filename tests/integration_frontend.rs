//! Integration tests for the event-driven service front-end and the
//! multi-tenant key manager: on-demand keygen → scoped sign → verify →
//! restart-reload, per-tenant quotas, and backpressure interleave on one
//! pipelined connection. Shutdown hygiene is in
//! `integration_frontend_shutdown.rs`.

use std::time::Duration;
use thetacrypt::core::ThetaNetworkBuilder;
use thetacrypt::network::LinkProfile;
use thetacrypt::orchestration::{KeyRef, Request};
use thetacrypt::schemes::registry::SchemeId;
use thetacrypt::service::{RpcClient, RpcError};

fn keystore_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "theta-frontend-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The paper's on-demand story, end to end over RPC: a client asks a
/// live Θ-network to deal a tenant key, signs under it, verifies the
/// signature against the served tenant public key — and after the whole
/// network restarts, signing works again purely from the sealed
/// keystore records on disk.
#[test]
fn on_demand_keygen_sign_verify_and_restart_reload() {
    let dir = keystore_dir("e2e");
    let keyref = KeyRef::new("acme", "signing");

    let tenant_pk = {
        let mut net = ThetaNetworkBuilder::new(1, 3)
            .with_bls04()
            .seed(41)
            .with_keystore(&dir, b"correct horse battery staple")
            .build()
            .expect("build");
        let addr = net.serve_rpc(1, "127.0.0.1:0".parse().unwrap()).unwrap();
        let mut client = RpcClient::connect(addr, Duration::from_secs(10)).unwrap();

        // Nothing yet; then deal on demand.
        assert!(client.list_keys("acme").unwrap().is_empty());
        let pk_bytes = client.keygen(keyref.clone(), SchemeId::Bls04).unwrap();
        assert_eq!(
            client.list_keys("acme").unwrap(),
            vec![("signing".to_string(), SchemeId::Bls04)]
        );
        // Re-dealing the same name is refused.
        assert!(matches!(
            client.keygen(keyref.clone(), SchemeId::Bls04),
            Err(RpcError::Server(_))
        ));

        // Sign under the tenant key and verify against its public key.
        let (scheme, served_pk) = client.tenant_key(keyref.clone()).unwrap();
        assert_eq!(scheme, SchemeId::Bls04);
        assert_eq!(served_pk, pk_bytes);
        let (sig, _) = client
            .run_protocol(Request::scoped(keyref.clone(), Request::Bls04Sign(b"epoch-1".to_vec())))
            .unwrap();
        let pk = <thetacrypt::schemes::bls04::PublicKey as thetacrypt::codec::Decode>::decoded(
            &pk_bytes,
        )
        .unwrap();
        let sig = <thetacrypt::schemes::bls04::Signature as thetacrypt::codec::Decode>::decoded(
            &sig,
        )
        .unwrap();
        assert!(thetacrypt::schemes::bls04::verify(&pk, b"epoch-1", &sig));
        // The tenant key is NOT the dealer's network-wide key.
        let dealer_pk = net.public_keys().bls04.as_ref().unwrap();
        assert!(!thetacrypt::schemes::bls04::verify(dealer_pk, b"epoch-1", &sig));
        pk_bytes
    };

    // The network is gone (nodes, services, hot caches). Rebuild over
    // the same keystore directory: shares come back from the sealed
    // records alone — no keygen this time.
    let mut net = ThetaNetworkBuilder::new(1, 3)
        .with_bls04()
        .seed(42)
        .with_keystore(&dir, b"correct horse battery staple")
        .build()
        .expect("rebuild");
    let addr = net.serve_rpc(1, "127.0.0.1:0".parse().unwrap()).unwrap();
    let mut client = RpcClient::connect(addr, Duration::from_secs(10)).unwrap();
    let (_, served_pk) = client.tenant_key(keyref.clone()).unwrap();
    assert_eq!(served_pk, tenant_pk, "tenant key must survive the restart");
    let (sig, _) = client
        .run_protocol(Request::scoped(keyref.clone(), Request::Bls04Sign(b"epoch-2".to_vec())))
        .unwrap();
    let pk = <thetacrypt::schemes::bls04::PublicKey as thetacrypt::codec::Decode>::decoded(
        &tenant_pk,
    )
    .unwrap();
    let sig = <thetacrypt::schemes::bls04::Signature as thetacrypt::codec::Decode>::decoded(
        &sig,
    )
    .unwrap();
    assert!(thetacrypt::schemes::bls04::verify(&pk, b"epoch-2", &sig));
    // The reload shows up in the key-manager metrics.
    let metrics = client.metrics().unwrap();
    let loaded = metrics
        .lines()
        .find(|l| l.starts_with("theta_keys_loaded_total"))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0);
    assert!(loaded >= 1, "expected a keystore load after restart:\n{metrics}");

    // A wrong passphrase fails closed: the records do not decrypt.
    let bad = ThetaNetworkBuilder::new(1, 3)
        .with_bls04()
        .seed(43)
        .with_keystore(&dir, b"wrong passphrase")
        .build()
        .expect("build with wrong passphrase");
    assert!(bad.key_manager(1).unwrap().load(&keyref).is_err());
}

/// One tenant at its in-flight cap gets the retryable `Overloaded`
/// refusal while its earlier request is still running — and the slot
/// frees once that request completes.
#[test]
fn per_tenant_quota_rejects_excess_in_flight_requests() {
    let dir = keystore_dir("quota");
    let mut net = ThetaNetworkBuilder::new(1, 3)
        .with_bls04()
        .seed(7)
        .with_keystore(&dir, b"pass")
        .tenant_quota(1)
        // Slow links keep the first scoped sign in flight while the
        // rest of the burst arrives.
        .link_profile(LinkProfile::fixed(Duration::from_millis(150)))
        .build()
        .expect("build");
    let addr = net.serve_rpc(1, "127.0.0.1:0".parse().unwrap()).unwrap();
    let mut client = RpcClient::connect(addr, Duration::from_secs(20)).unwrap();
    let keyref = KeyRef::new("acme", "burst");
    client.keygen(keyref.clone(), SchemeId::Bls04).unwrap();

    // Pipeline a burst of scoped signs on one connection.
    let ids: Vec<u64> = (0..4)
        .map(|i| {
            client
                .submit_protocol(Request::scoped(
                    keyref.clone(),
                    Request::Bls04Sign(format!("msg-{i}").into_bytes()),
                ))
                .unwrap()
        })
        .collect();
    let mut ok = 0;
    let mut overloaded = 0;
    for id in ids {
        match client.collect_protocol(id) {
            Ok(_) => ok += 1,
            Err(RpcError::Overloaded) => overloaded += 1,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert_eq!(ok + overloaded, 4);
    assert!(ok >= 1, "the first request holds the only slot and completes");
    assert!(overloaded >= 1, "the burst must overrun a quota of 1");

    // The slot was released on completion: a fresh scoped sign succeeds.
    client
        .run_protocol(Request::scoped(keyref.clone(), Request::Bls04Sign(b"after".to_vec())))
        .unwrap();
    // And the rejections are visible in the metrics plane.
    let metrics = client.metrics().unwrap();
    let rejected = metrics
        .lines()
        .find(|l| l.starts_with("theta_quota_rejections_total"))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0);
    assert_eq!(rejected, overloaded as u64, "metrics:\n{metrics}");
}

/// A full submission queue refuses with `Overloaded` while earlier
/// accepted requests on the *same pipelined connection* still complete:
/// both kinds of response correlate correctly however they interleave.
#[test]
fn backpressure_interleaves_with_successes_on_one_connection() {
    let mut net = ThetaNetworkBuilder::new(0, 1)
        .with_bls04()
        .seed(9)
        .submission_queue_capacity(1)
        .worker_threads(1)
        .build()
        .expect("build");
    let addr = net.serve_rpc(1, "127.0.0.1:0".parse().unwrap()).unwrap();
    let mut client = RpcClient::connect(addr, Duration::from_secs(20)).unwrap();

    // Burst hard enough that the front-end's submit loop overruns the
    // router's dequeue at least once. The capacity-1 queue makes any
    // concurrent pair a refusal; a few rounds kill scheduling luck.
    let mut ok = 0;
    let mut overloaded = 0;
    for round in 0..8 {
        let ids: Vec<u64> = (0..64)
            .map(|i| {
                client
                    .submit_protocol(Request::Bls04Sign(
                        format!("burst-{round}-{i}").into_bytes(),
                    ))
                    .unwrap()
            })
            .collect();
        for id in ids {
            match client.collect_protocol(id) {
                Ok((sig, _)) => {
                    assert!(!sig.is_empty());
                    ok += 1;
                }
                Err(RpcError::Overloaded) => overloaded += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        if ok >= 1 && overloaded >= 1 {
            break;
        }
    }
    assert!(ok >= 1, "some requests must clear the queue");
    assert!(
        overloaded >= 1,
        "a 64-deep burst against a capacity-1 queue must be refused at least once"
    );

    // The connection survives the refusals: a quiet request succeeds.
    client.run_protocol(Request::Bls04Sign(b"calm".to_vec())).unwrap();
}

/// Request tag 4 is retired: a frame carrying it is malformed. The
/// front-end counts it in `theta_frontend_frame_errors_total` and drops
/// that connection, and the node keeps serving new ones.
#[test]
fn retired_request_tag_is_a_frame_error() {
    use std::io::{Read, Write};
    use thetacrypt::codec::Encode;
    use thetacrypt::service::{Frame, RpcRequest};

    let mut net = ThetaNetworkBuilder::new(0, 1).with_bls04().seed(13).build().unwrap();
    let addr = net.serve_rpc(1, "127.0.0.1:0".parse().unwrap()).unwrap();

    // A well-formed `GetMetrics` frame with its request tag (the byte
    // after the 8-byte correlation id) rewritten to 4.
    let mut body = Frame { id: 1, body: RpcRequest::GetMetrics }.encoded();
    body[8] = 4;
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    raw.write_all(&(body.len() as u32).to_le_bytes()).unwrap();
    raw.write_all(&body).unwrap();
    let mut buf = [0u8; 64];
    match raw.read(&mut buf) {
        Ok(0) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        other => panic!("a retired tag must close the connection, got {other:?}"),
    }

    let mut client = RpcClient::connect(addr, Duration::from_secs(5)).unwrap();
    let text = client.metrics().unwrap();
    assert!(
        text.lines().any(|l| l == "theta_frontend_frame_errors_total 1"),
        "frame error not counted:\n{text}"
    );
    client.run_protocol(Request::Bls04Sign(b"still served".to_vec())).unwrap();
}
