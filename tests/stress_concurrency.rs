//! Saturation stress test for the router + worker-pool orchestration:
//! a 4-node in-memory mesh under a burst of concurrent mixed
//! submissions (sg02 decrypt, bls04 sign, kg20/FROST sign), every
//! request submitted at every node at once.
//!
//! Asserted invariants:
//! - every subscriber at every node receives an `Ok` terminal result;
//! - for each request, all four nodes agree on the output;
//! - no message was lost: the `dropped_{malformed,spoofed}` counters
//!   and the mailbox-overflow counter stay zero at every node
//!   (residual drops — traffic for already-finished instances — are
//!   the normal post-quorum case and are exempt);
//! - instance accounting balances: starts == completions, no timeouts.
//!
//! The full ≥64-request mix runs in release (CI runs this under
//! `cargo test --release`, see scripts/ci.sh); debug builds run a
//! scaled-down mix so the tier-1 gate stays fast on small hosts.

use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use thetacrypt::codec::Encode;
use thetacrypt::core::ThetaNetworkBuilder;
use thetacrypt::orchestration::Request;
use thetacrypt::protocols::ProtocolOutput;

/// Extracts the value of an exact metric line (`name value` or
/// `name{labels} value`) from a Prometheus text exposition.
fn metric_value(text: &str, series: &str) -> f64 {
    text.lines()
        .find_map(|line| {
            let rest = line.strip_prefix(series)?;
            let rest = rest.strip_prefix(' ')?;
            rest.trim().parse().ok()
        })
        .unwrap_or(0.0)
}

#[test]
fn saturation_mixed_schemes_all_agree_nothing_dropped() {
    // `THETA_STRESS_REPEATS=n` re-runs the whole mix on a fresh mesh n
    // times. scripts/analysis.sh uses this to soak the orchestration
    // layer under ThreadSanitizer, where a single run's interleavings
    // are too few to trust.
    let repeats: usize = std::env::var("THETA_STRESS_REPEATS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    for rep in 1..=repeats {
        if repeats > 1 {
            eprintln!("stress repeat {rep}/{repeats}");
        }
        run_saturation_mix();
    }
}

fn run_saturation_mix() {
    // ≥64 distinct requests in release; a lighter mix in debug so the
    // default `cargo test -q` gate stays quick on 1-core hosts.
    let per_scheme: usize = if cfg!(debug_assertions) { 6 } else { 22 };
    let total = 3 * per_scheme; // 66 distinct requests in release

    let net = ThetaNetworkBuilder::new(1, 4)
        .with_sg02()
        .with_bls04()
        .with_kg20(0) // full two-round FROST: exercises multi-round hosts
        .seed(0x57e5)
        .instance_timeout(Duration::from_secs(120))
        .build()
        .expect("build 4-node mesh");

    // Pre-encrypt one distinct ciphertext per sg02 request.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x57e5);
    let pk = net.public_keys().sg02.clone().unwrap();
    let requests: Vec<Request> = (0..per_scheme)
        .flat_map(|i| {
            let msg = format!("stress message {i}").into_bytes();
            let ct = thetacrypt::schemes::sg02::encrypt(&pk, b"stress", &msg, &mut rng);
            [
                Request::Sg02Decrypt(ct.encoded()),
                Request::Bls04Sign(msg.clone()),
                Request::Kg20Sign(msg),
            ]
        })
        .collect();
    assert_eq!(requests.len(), total);

    // One submitter thread per node: submit the whole mix back-to-back
    // (saturating the router + pool), then collect every result.
    let requests = Arc::new(requests);
    let collectors: Vec<_> = (1..=4u16)
        .map(|node_id| {
            let node = net.node(node_id).clone();
            let requests = requests.clone();
            std::thread::spawn(move || {
                let pending: Vec<_> =
                    requests.iter().map(|req| node.submit(req.clone())).collect();
                pending
                    .into_iter()
                    .enumerate()
                    .map(|(i, p)| {
                        let result = p
                            .wait_timeout(Duration::from_secs(180))
                            .unwrap_or_else(|e| {
                                panic!("node {node_id}, request {i}: wait failed: {e}")
                            });
                        let output = result.outcome.unwrap_or_else(|e| {
                            panic!("node {node_id}, request {i}: instance failed: {e}")
                        });
                        (i, output)
                    })
                    .collect::<HashMap<usize, ProtocolOutput>>()
            })
        })
        .collect();

    let per_node: Vec<HashMap<usize, ProtocolOutput>> =
        collectors.into_iter().map(|j| j.join().expect("collector thread")).collect();

    // Cross-node agreement, request by request.
    for i in 0..total {
        let reference = &per_node[0][&i];
        for (node_idx, outputs) in per_node.iter().enumerate().skip(1) {
            assert_eq!(
                &outputs[&i], reference,
                "request {i}: node {} disagrees with node 1",
                node_idx + 1
            );
        }
    }

    // Loss-free accounting at every node.
    for id in 1..=4u16 {
        let obs = net.node_observability(id);
        let counter = |name: &str| obs.registry.counter_value(name, &[]).expect(name);
        assert_eq!(
            counter("theta_instances_started_total"),
            total as u64,
            "node {id}: every distinct request starts exactly one instance"
        );
        assert_eq!(
            counter("theta_instances_completed_total"),
            total as u64,
            "node {id}: starts and completions must balance"
        );
        assert_eq!(
            counter("theta_instances_timed_out_total"),
            0,
            "node {id}: no instance may time out"
        );

        let text = obs.render_prometheus();
        for series in [
            "theta_messages_dropped_total{reason=\"malformed\"}",
            "theta_messages_dropped_total{reason=\"spoofed\"}",
            "theta_mailbox_dropped_total",
            "theta_overload_rejections_total",
        ] {
            assert_eq!(
                metric_value(&text, series),
                0.0,
                "node {id}: {series} must stay zero under saturation"
            );
        }
        // The pool fully drained: nothing left in flight or queued.
        assert_eq!(metric_value(&text, "theta_inflight_instances"), 0.0, "node {id}");
        assert_eq!(metric_value(&text, "theta_runqueue_depth"), 0.0, "node {id}");
    }
}

/// The service layer refuses — with the dedicated `Overloaded` wire
/// response, not an opaque error string or unbounded queueing — when the
/// node's submission queue is at its bound.
#[test]
fn rpc_overload_returns_overloaded_response() {
    use thetacrypt::network::inmemory::{InMemoryConfig, InMemoryHub};
    use thetacrypt::network::Network;
    use thetacrypt::orchestration::{spawn_node, KeyChest, NodeConfig};
    use thetacrypt::service::client::RpcError;
    use thetacrypt::service::{serve, PublicKeyChest, RpcClient};

    let (_hub, mut nets) = InMemoryHub::build(1, InMemoryConfig::default());
    let node = Arc::new(spawn_node(
        KeyChest::new(),
        Box::new(nets.pop().unwrap()) as Box<dyn Network>,
        // A zero-capacity submission queue: every protocol RPC must be
        // refused up front.
        NodeConfig { submission_queue_capacity: 0, ..NodeConfig::default() },
    ));
    let service = serve(
        "127.0.0.1:0".parse().unwrap(),
        node.clone(),
        PublicKeyChest::default(),
        Duration::from_secs(5),
    )
    .expect("bind rpc");
    let mut client = RpcClient::connect(service.addr(), Duration::from_secs(5)).unwrap();

    match client.run_protocol(Request::Cks05Coin(b"refused".to_vec())) {
        Err(RpcError::Overloaded) => {}
        other => panic!("expected RpcError::Overloaded, got {other:?}"),
    }

    // The refusal is counted, and nothing was buffered behind the router.
    let text = node.observability().render_prometheus();
    assert!(
        metric_value(&text, "theta_overload_rejections_total") >= 1.0,
        "overload rejection must be counted:\n{text}"
    );
    assert_eq!(
        node.observability().registry.counter_value("theta_instances_started_total", &[]),
        Some(0),
        "nothing may have been queued"
    );
}
