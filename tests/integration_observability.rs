//! End-to-end observability test: a 4-node in-memory Θ-network driven
//! through the RPC service, asserting that the observability endpoints
//! (`GetMetrics`, `GetTrace`) agree with the trace journal and with the
//! work actually performed.

use std::time::Duration;
use thetacrypt::core::ThetaNetworkBuilder;
use thetacrypt::metrics::TraceEventKind;
use thetacrypt::orchestration::Request;
use thetacrypt::service::RpcClient;

/// Extracts the value of an exact metric line (`name value` or
/// `name{labels} value`) from a Prometheus text exposition.
fn metric_value(text: &str, series: &str) -> Option<f64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(series)?;
        let rest = rest.strip_prefix(' ')?;
        rest.trim().parse().ok()
    })
}

#[test]
fn observability_endpoints_agree_end_to_end() {
    let mut net = ThetaNetworkBuilder::new(1, 4)
        .with_bls04()
        .seed(41)
        .build()
        .expect("build");
    let addr = net.serve_rpc(1, "127.0.0.1:0".parse().unwrap()).unwrap();
    let mut client = RpcClient::connect(addr, Duration::from_secs(5)).unwrap();

    // Drive three distinct signing requests plus one duplicate (the
    // duplicate must be answered from the result cache, not start a
    // fourth instance).
    let messages: [&[u8]; 3] = [b"block 1", b"block 2", b"block 3"];
    for msg in messages {
        let (sig, _) = client.run_protocol(Request::Bls04Sign(msg.to_vec())).unwrap();
        assert!(!sig.is_empty());
    }
    let (dup, _) = client
        .run_protocol(Request::Bls04Sign(messages[0].to_vec()))
        .unwrap();
    assert!(!dup.is_empty());

    // --- GetMetrics: instance counters vs the trace journal ----------
    let text = client.metrics().unwrap();
    assert_eq!(metric_value(&text, "theta_instances_started_total"), Some(3.0));
    assert_eq!(metric_value(&text, "theta_instances_completed_total"), Some(3.0));
    assert_eq!(metric_value(&text, "theta_instances_timed_out_total"), Some(0.0));
    let obs = net.node_observability(1);
    assert_eq!(
        Some(obs.journal.instances_started() as f64),
        metric_value(&text, "theta_instances_started_total"),
        "trace journal and event-loop counters must agree on starts"
    );

    // --- GetMetrics: per-phase histograms ----------------------------
    for name in [
        "theta_share_compute_seconds",
        "theta_share_verify_seconds",
        "theta_combine_seconds",
        "theta_e2e_seconds",
    ] {
        assert!(
            text.contains(&format!("# TYPE {name} histogram")),
            "metrics text is missing histogram {name}:\n{text}"
        );
    }
    // The e2e histogram records one sample per completed instance; the
    // cache-hit duplicate must not add one.
    assert_eq!(metric_value(&text, "theta_e2e_seconds_count"), Some(3.0));
    assert_eq!(
        metric_value(&text, "theta_share_compute_seconds_count"),
        Some(3.0)
    );
    assert_eq!(metric_value(&text, "theta_combine_seconds_count"), Some(3.0));
    assert_eq!(metric_value(&text, "theta_cache_hits_total"), Some(1.0));

    // --- GetMetrics: per-peer network counters -----------------------
    // Node 1 broadcasts its share to each of the three peers once per
    // instance (more under retries, never less).
    for peer in 2..=4 {
        let series = format!("theta_net_messages_sent_total{{peer=\"{peer}\"}}");
        let sent = metric_value(&text, &series)
            .unwrap_or_else(|| panic!("missing series {series} in:\n{text}"));
        assert!(sent >= 3.0, "{series} = {sent}, expected >= 3");
    }
    // Quorum is 2-of-4, so at least one peer share arrived per instance.
    let received: f64 = (2..=4)
        .filter_map(|peer| {
            metric_value(
                &text,
                &format!("theta_net_messages_received_total{{peer=\"{peer}\"}}"),
            )
        })
        .sum();
    assert!(received >= 3.0, "received {received} peer messages, expected >= 3");

    // --- GetMetrics: RPC-layer counters ------------------------------
    // 4 protocol calls (3 + duplicate) on this connection so far.
    let protocol_rpcs =
        metric_value(&text, "theta_rpc_requests_total{method=\"protocol\"}").unwrap();
    assert_eq!(protocol_rpcs, 4.0);

    // --- GetTrace: ordered lifecycle ---------------------------------
    let instance = Request::Bls04Sign(messages[1].to_vec()).instance_id().0;
    let trace = client.trace(instance).unwrap();
    assert!(!trace.truncated, "nothing was evicted, the trace must be complete");
    assert!(trace.wall_anchor_micros > 0, "journal must carry a wall-clock anchor");
    let events = trace.events;
    assert!(events.iter().all(|e| e.instance == instance));
    assert!(
        events.windows(2).all(|w| w[0].at_micros <= w[1].at_micros),
        "trace timestamps must be monotonic"
    );
    let position = |kind: TraceEventKind| {
        events
            .iter()
            .position(|e| e.kind == kind)
            .unwrap_or_else(|| panic!("trace is missing {}", kind.label()))
    };
    let lifecycle = [
        TraceEventKind::RpcReceived,
        TraceEventKind::InstanceStarted,
        TraceEventKind::ShareComputed,
        TraceEventKind::ShareSent,
        TraceEventKind::QuorumReached,
        TraceEventKind::Combined,
        TraceEventKind::ResultDelivered,
    ];
    let positions: Vec<usize> = lifecycle.iter().map(|&k| position(k)).collect();
    assert!(
        positions.windows(2).all(|w| w[0] < w[1]),
        "lifecycle out of order: {positions:?}"
    );
    // At least one peer share was received and verified on the way.
    assert!(events
        .iter()
        .any(|e| e.kind == TraceEventKind::ShareVerified && e.peer != 0));

    // The duplicate shows up as a cache hit on the first instance's trace.
    let first = Request::Bls04Sign(messages[0].to_vec()).instance_id().0;
    let first_events = client.trace(first).unwrap().events;
    assert!(first_events
        .iter()
        .any(|e| e.kind == TraceEventKind::CacheHit));

    // --- Unknown-instance error path ---------------------------------
    let err = client.trace([0xEE; 32]).unwrap_err();
    assert!(
        matches!(err, thetacrypt::service::client::RpcError::Server(_)),
        "unknown instance id must yield a server error, got {err:?}"
    );
}

/// `GetTrace` on an instance whose journal entries were (partially)
/// evicted by the ring must flag the trace truncated on the wire
/// instead of silently serving the suffix as if it were complete.
#[test]
fn get_trace_flags_ring_evicted_instances() {
    let mut net = ThetaNetworkBuilder::new(1, 4)
        .with_bls04()
        .seed(42)
        .build()
        .expect("build");
    let addr = net.serve_rpc(1, "127.0.0.1:0".parse().unwrap()).unwrap();
    let mut client = RpcClient::connect(addr, Duration::from_secs(5)).unwrap();

    let (sig, _) = client
        .run_protocol(Request::Bls04Sign(b"soon evicted".to_vec()))
        .unwrap();
    assert!(!sig.is_empty());
    let instance = Request::Bls04Sign(b"soon evicted".to_vec()).instance_id().0;
    let complete = client.trace(instance).unwrap();
    assert!(!complete.truncated);
    let full_len = complete.events.len();
    assert!(full_len > 0);

    // Wrap the ring: enough filler traffic from other instances to push
    // the signing instance's *oldest* events out of the journal while
    // its tail survives (a fully evicted instance reads as "nothing
    // recorded", which is a different, already-tested path).
    assert!(full_len > 3, "trace too short to evict partially");
    let obs = net.node_observability(1);
    for i in 0..thetacrypt::metrics::DEFAULT_JOURNAL_CAPACITY - full_len + 3 {
        let mut filler = [0xAB; 32];
        filler[..8].copy_from_slice(&(i as u64).to_le_bytes());
        obs.journal.record(filler, TraceEventKind::RpcReceived);
    }

    let evicted = client.trace(instance).unwrap();
    assert!(
        evicted.truncated,
        "ring-evicted instance must be flagged truncated over the wire"
    );
    assert!(
        evicted.events.len() < full_len,
        "eviction must have shortened the trace ({} -> {})",
        full_len,
        evicted.events.len()
    );
    assert_eq!(
        evicted.wall_anchor_micros, complete.wall_anchor_micros,
        "the wall anchor is a journal-creation constant"
    );
}

/// Each event-loop counter is one registry series: a fresh node's
/// `GetMetrics` text carries exactly one `# TYPE` line and one value
/// line per name, at 0. A name registered twice (say, once in the
/// registry and once by a hand-rendered loop) would show up twice.
#[test]
fn fresh_node_renders_each_event_loop_counter_once() {
    let mut net = ThetaNetworkBuilder::new(1, 4)
        .with_cks05()
        .seed(43)
        .build()
        .expect("build");
    let addr = net.serve_rpc(1, "127.0.0.1:0".parse().unwrap()).unwrap();
    let mut client = RpcClient::connect(addr, Duration::from_secs(5)).unwrap();
    let text = client.metrics().unwrap();
    for name in [
        "theta_event_loop_wakeups_total",
        "theta_event_loop_events_total",
        "theta_event_loop_commands_total",
        "theta_event_loop_retries_total",
        "theta_event_loop_cache_evictions_total",
        "theta_instances_started_total",
        "theta_instances_completed_total",
        "theta_instances_timed_out_total",
    ] {
        let type_line = format!("# TYPE {name} counter");
        let types = text.lines().filter(|l| *l == type_line).count();
        assert_eq!(types, 1, "{name}: {types} TYPE lines in:\n{text}");
        let values: Vec<&str> = text
            .lines()
            .filter(|l| l.split(' ').next() == Some(name))
            .collect();
        assert_eq!(values, [format!("{name} 0")], "{name} in:\n{text}");
    }
}
