//! `theta-client` — a small CLI against a node's RPC endpoint.
//!
//! ```text
//! theta-client --node 127.0.0.1:8001 coin epoch-7
//! theta-client --node 127.0.0.1:8001 sign bls04 "block 42"
//! theta-client --node 127.0.0.1:8001 keygen acme signing bls04
//! theta-client --node 127.0.0.1:8001 list-keys acme
//! theta-client --node 127.0.0.1:8001 sign --tenant acme --key signing bls04 "block 42"
//! theta-client --node 127.0.0.1:8001 seal-open sg02 "secret payload"
//! theta-client --node 127.0.0.1:8001 pubkey cks05
//! theta-client --node 127.0.0.1:8001 metrics
//! theta-client --node 127.0.0.1:8001 trace <instance-id-hex>
//! ```

use std::net::SocketAddr;
use std::time::Duration;
use theta_orchestration::{KeyRef, Request};
use theta_schemes::registry::SchemeId;
use theta_service::RpcClient;

fn parse_instance(hex: &str) -> [u8; 32] {
    let bytes = theta_primitives::from_hex(hex)
        .filter(|b| b.len() == 32)
        .unwrap_or_else(|| {
            eprintln!("trace expects a 64-char hex instance id");
            std::process::exit(2);
        });
    let mut instance = [0u8; 32];
    instance.copy_from_slice(&bytes);
    instance
}

fn usage() -> ! {
    eprintln!(
        "usage: theta-client --node ADDR <command>\n\
         commands:\n\
           coin <name>                 flip the CKS05 coin\n\
           sign [--tenant T --key K] <scheme> <message>\n\
                                       threshold-sign (sh00|bls04|kg20); with\n\
                                       --tenant/--key, under that tenant key\n\
           keygen <tenant> <name> <scheme>\n\
                                       deal a tenant key on demand\n\
           list-keys <tenant>          the tenant's keys (name + scheme)\n\
           seal-open <scheme> <msg>    encrypt via scheme API, decrypt via protocol API (sg02|bz03)\n\
           pubkey <scheme>             fetch a public key (hex)\n\
           metrics                     Prometheus text exposition of the node's metrics\n\
           health                      SLO watchdog verdict (ready/degraded + reasons)\n\
           trace <instance-hex>        lifecycle trace of one protocol instance\n\
           trace --cluster <hex>       merged cross-node timeline (fans GetTrace over the roster)"
    );
    std::process::exit(2);
}

/// Verifies a combined signature against an encoded public key, both
/// decoded per `scheme`.
fn verify_with(scheme: SchemeId, pk: &[u8], message: &[u8], sig: &[u8]) -> bool {
    use theta_codec::Decode;
    match scheme {
        SchemeId::Sh00 => {
            let (Ok(pk), Ok(sig)) = (
                theta_schemes::sh00::PublicKey::decoded(pk),
                theta_schemes::sh00::Signature::decoded(sig),
            ) else {
                return false;
            };
            theta_schemes::sh00::verify(&pk, message, &sig)
        }
        SchemeId::Bls04 => {
            let (Ok(pk), Ok(sig)) = (
                theta_schemes::bls04::PublicKey::decoded(pk),
                theta_schemes::bls04::Signature::decoded(sig),
            ) else {
                return false;
            };
            theta_schemes::bls04::verify(&pk, message, &sig)
        }
        SchemeId::Kg20 => {
            let (Ok(pk), Ok(sig)) = (
                theta_schemes::kg20::PublicKey::decoded(pk),
                theta_schemes::kg20::Signature::decoded(sig),
            ) else {
                return false;
            };
            theta_schemes::kg20::verify(&pk, message, &sig)
        }
        _ => false,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut node: Option<SocketAddr> = None;
    let mut rest = Vec::new();
    let mut iter = args.into_iter();
    while let Some(a) = iter.next() {
        if a == "--node" {
            node = iter.next().and_then(|v| v.parse().ok());
        } else {
            rest.push(a);
        }
    }
    let Some(addr) = node else { usage() };
    if rest.is_empty() {
        usage()
    }

    let mut client =
        RpcClient::connect(addr, Duration::from_secs(5)).expect("connect to node RPC");

    match rest[0].as_str() {
        "coin" if rest.len() == 2 => {
            let request = Request::Cks05Coin(rest[1].clone().into_bytes());
            println!("instance = {}", theta_primitives::to_hex(&request.instance_id().0));
            let (value, latency) = client.run_protocol(request).expect("coin");
            println!("coin  = {}", theta_primitives::to_hex(&value));
            println!("server-side latency: {latency:?}");
        }
        "sign" if rest.len() == 3 => {
            let scheme = SchemeId::from_name(&rest[1]).unwrap_or_else(|| usage());
            let message = rest[2].clone().into_bytes();
            let request = match scheme {
                SchemeId::Sh00 => Request::Sh00Sign(message.clone()),
                SchemeId::Bls04 => Request::Bls04Sign(message.clone()),
                SchemeId::Kg20 => Request::Kg20Sign(message.clone()),
                _ => usage(),
            };
            println!("instance = {}", theta_primitives::to_hex(&request.instance_id().0));
            let (sig, latency) = client.run_protocol(request).expect("sign");
            println!("signature = {}", theta_primitives::to_hex(&sig));
            println!("server-side latency: {latency:?}");
            let ok = client
                .verify_signature(scheme, &message, &sig)
                .expect("verify");
            println!("verified: {ok}");
        }
        // sign --tenant T --key K <scheme> <message>
        "sign" if rest.len() == 7 && rest[1] == "--tenant" && rest[3] == "--key" => {
            let keyref = KeyRef::new(rest[2].clone(), rest[4].clone());
            let scheme = SchemeId::from_name(&rest[5]).unwrap_or_else(|| usage());
            let message = rest[6].clone().into_bytes();
            let inner = match scheme {
                SchemeId::Sh00 => Request::Sh00Sign(message.clone()),
                SchemeId::Bls04 => Request::Bls04Sign(message.clone()),
                SchemeId::Kg20 => Request::Kg20Sign(message.clone()),
                _ => usage(),
            };
            let request = Request::scoped(keyref.clone(), inner);
            println!("instance = {}", theta_primitives::to_hex(&request.instance_id().0));
            let (sig, latency) = client.run_protocol(request).expect("sign");
            println!("signature = {}", theta_primitives::to_hex(&sig));
            println!("server-side latency: {latency:?}");
            // The server's verify endpoint checks against the dealer's
            // network key; a tenant signature must be checked against
            // the tenant's own public key, fetched and verified here.
            let (served_scheme, pk) = client.tenant_key(keyref).expect("tenant key");
            assert_eq!(served_scheme, scheme, "tenant key has a different scheme");
            let ok = verify_with(scheme, &pk, &message, &sig);
            println!("verified against tenant key: {ok}");
            if !ok {
                std::process::exit(1);
            }
        }
        "keygen" if rest.len() == 4 => {
            let scheme = SchemeId::from_name(&rest[3]).unwrap_or_else(|| usage());
            let keyref = KeyRef::new(rest[1].clone(), rest[2].clone());
            let pk = client.keygen(keyref, scheme).expect("keygen");
            println!("dealt {}/{} ({scheme})", rest[1], rest[2]);
            println!("public key = {}", theta_primitives::to_hex(&pk));
        }
        "list-keys" if rest.len() == 2 => {
            let keys = client.list_keys(&rest[1]).expect("list keys");
            if keys.is_empty() {
                println!("no keys for tenant {}", rest[1]);
            }
            for (name, scheme) in keys {
                println!("{}/{name}  {scheme}", rest[1]);
            }
        }
        "seal-open" if rest.len() == 3 => {
            let scheme = SchemeId::from_name(&rest[1]).unwrap_or_else(|| usage());
            let message = rest[2].clone().into_bytes();
            let ct = client
                .encrypt(scheme, b"theta-client", &message)
                .expect("encrypt");
            println!("ciphertext bytes: {}", ct.len());
            let request = match scheme {
                SchemeId::Sg02 => Request::Sg02Decrypt(ct),
                SchemeId::Bz03 => Request::Bz03Decrypt(ct),
                _ => usage(),
            };
            println!("instance = {}", theta_primitives::to_hex(&request.instance_id().0));
            let (plain, latency) = client.run_protocol(request).expect("decrypt");
            assert_eq!(plain, message, "roundtrip mismatch");
            println!("decrypted: {:?}", String::from_utf8_lossy(&plain));
            println!("server-side latency: {latency:?}");
        }
        "pubkey" if rest.len() == 2 => {
            let scheme = SchemeId::from_name(&rest[1]).unwrap_or_else(|| usage());
            let pk = client.public_key(scheme).expect("public key");
            println!("{}", theta_primitives::to_hex(&pk));
        }
        "metrics" if rest.len() == 1 => {
            // Raw Prometheus text — pipeable straight into promtool or a
            // file_sd-backed scrape.
            print!("{}", client.metrics().expect("metrics"));
        }
        "health" if rest.len() == 1 => {
            let report = client.health().expect("health");
            println!("verdict: {}", if report.ready { "ready" } else { "degraded" });
            for reason in &report.reasons {
                println!("  - {reason}");
            }
            println!("e2e p99          : {:.3} ms", report.e2e_p99_micros as f64 / 1000.0);
            println!("run queue        : {}", report.runqueue_depth);
            println!("submission queue : {}", report.submission_queue_depth);
            println!("mailbox drops    : {}", report.mailbox_dropped);
            println!("overload rejects : {}", report.overload_rejections);
            println!("link faults      : {}", report.link_errors);
            if !report.ready {
                std::process::exit(1);
            }
        }
        "trace" if rest.len() == 2 => {
            let instance = parse_instance(&rest[1]);
            let trace = client.trace(instance).expect("trace");
            println!(
                "trace for {} ({} event(s){}):",
                &rest[1][..16],
                trace.events.len(),
                if trace.truncated { ", TRUNCATED: ring evicted earlier events" } else { "" }
            );
            for ev in trace.events {
                let peer = if ev.peer == 0 {
                    String::new()
                } else {
                    format!(" peer={}", ev.peer)
                };
                let detail = if ev.detail.is_empty() {
                    String::new()
                } else {
                    format!("  [{}]", ev.detail)
                };
                println!(
                    "  {:>10.3} ms  {:<18}{}{}",
                    ev.at_micros as f64 / 1000.0,
                    ev.kind.label(),
                    peer,
                    detail
                );
            }
        }
        "trace" if rest.len() == 3 && rest[1] == "--cluster" => {
            let instance = parse_instance(&rest[2]);
            let trace = client.collect_trace(instance).expect("collect trace");
            println!(
                "cluster timeline for {} — {} event(s) from {} node(s){}{}",
                &rest[2][..16],
                trace.entries.len(),
                trace.nodes_reporting,
                if trace.truncated { ", TRUNCATED" } else { "" },
                if trace.causality_violations > 0 {
                    format!(", {} causality violation(s)", trace.causality_violations)
                } else {
                    String::new()
                },
            );
            let origin = trace.entries.first().map_or(0, |e| e.aligned_micros);
            for entry in trace.entries {
                let ev = entry.event;
                let peer = if ev.peer == 0 {
                    String::new()
                } else {
                    format!(" peer={}", ev.peer)
                };
                let detail = if ev.detail.is_empty() {
                    String::new()
                } else {
                    format!("  [{}]", ev.detail)
                };
                println!(
                    "  {:>10.3} ms  node {:<3} {:<18}{}{}",
                    (entry.aligned_micros - origin) as f64 / 1000.0,
                    entry.node,
                    ev.kind.label(),
                    peer,
                    detail
                );
            }
        }
        _ => usage(),
    }
}
