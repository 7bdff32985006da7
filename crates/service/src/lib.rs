//! # theta-service
//!
//! The paper's *service layer* (§3.4): the RPC boundary through which an
//! application invokes its local Thetacrypt instance, with the two
//! endpoints of the paper:
//!
//! - the **protocol API** — submit a threshold operation as a black box
//!   and receive the network-wide result;
//! - the **scheme API** — direct access to cryptographic primitives
//!   (public keys, encryption, signature verification) without running a
//!   protocol.
//!
//! The original uses gRPC/protobuf; this reproduction frames
//! `theta-codec` messages over TCP with a `u32` length prefix. Request
//! ids allow pipelining; the server answers protocol requests from a
//! per-request waiter thread, so slow instances never block the
//! connection.

pub mod client;
mod frontend;
pub mod server;

pub use client::{RpcClient, RpcError};
pub use frontend::ServiceHandle;
pub use server::{
    serve, serve_on, serve_on_with_options, serve_with_cluster, ClusterConfig, KeyAdmin,
    ServiceOptions, SloThresholds,
};

use theta_codec::{CodecError, Decode, Encode, Reader, Writer};
use theta_orchestration::{KeyRef, Request};
use theta_schemes::registry::SchemeId;
use theta_schemes::{bls04, bz03, cks05, kg20, sg02, sh00};

/// Public keys of every provisioned scheme — what the scheme API serves.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PublicKeyChest {
    /// SG02 public key, when provisioned.
    pub sg02: Option<sg02::PublicKey>,
    /// BZ03 public key, when provisioned.
    pub bz03: Option<bz03::PublicKey>,
    /// SH00 public key, when provisioned.
    pub sh00: Option<sh00::PublicKey>,
    /// BLS04 public key, when provisioned.
    pub bls04: Option<bls04::PublicKey>,
    /// KG20 public key, when provisioned.
    pub kg20: Option<kg20::PublicKey>,
    /// CKS05 public key, when provisioned.
    pub cks05: Option<cks05::PublicKey>,
}

impl PublicKeyChest {
    /// Encoded public key for `scheme`, or `None` when not provisioned.
    pub fn encoded_key(&self, scheme: SchemeId) -> Option<Vec<u8>> {
        match scheme {
            SchemeId::Sg02 => self.sg02.as_ref().map(Encode::encoded),
            SchemeId::Bz03 => self.bz03.as_ref().map(Encode::encoded),
            SchemeId::Sh00 => self.sh00.as_ref().map(Encode::encoded),
            SchemeId::Bls04 => self.bls04.as_ref().map(Encode::encoded),
            SchemeId::Kg20 => self.kg20.as_ref().map(Encode::encoded),
            SchemeId::Cks05 => self.cks05.as_ref().map(Encode::encoded),
        }
    }
}

/// A call to the service layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RpcRequest {
    /// Protocol API: run a threshold operation across the Θ-network.
    Protocol(Request),
    /// Scheme API: fetch the public key of a scheme.
    GetPublicKey(SchemeId),
    /// Scheme API: encrypt locally under the threshold public key
    /// (SG02 or BZ03), returning the encoded ciphertext.
    Encrypt {
        /// Target cipher (must be [`SchemeId::Sg02`] or [`SchemeId::Bz03`]).
        scheme: SchemeId,
        /// Ciphertext label.
        label: Vec<u8>,
        /// Plaintext to protect.
        message: Vec<u8>,
    },
    /// Scheme API: verify a combined signature locally.
    VerifySignature {
        /// Signature scheme (SH00, BLS04 or KG20).
        scheme: SchemeId,
        /// Signed message.
        message: Vec<u8>,
        /// Encoded signature.
        signature: Vec<u8>,
    },
    /// Observability: the node's full metrics registry rendered in the
    /// Prometheus text exposition format.
    GetMetrics,
    /// Observability: the recorded trace-journal events for one protocol
    /// instance, in recording order.
    GetTrace([u8; 32]),
    /// Observability: fan a [`RpcRequest::GetTrace`] out across the whole
    /// roster and merge the per-node journals into one offset-aligned
    /// cross-node timeline.
    CollectTrace([u8; 32]),
    /// Observability: the SLO watchdog's machine-readable ready/degraded
    /// verdict for the serving node.
    GetHealth,
    /// Key manager: deal a fresh tenant key on demand (dealer-on-node);
    /// answers with [`RpcResponse::PublicKey`].
    Keygen {
        /// The tenant/name the new key will live under.
        keyref: KeyRef,
        /// The scheme to generate a key for.
        scheme: SchemeId,
    },
    /// Key manager: list a tenant's keys as `(name, scheme)` pairs.
    ListKeys(String),
    /// Key manager: fetch the public key of one tenant key.
    GetTenantKey(KeyRef),
}

impl Encode for RpcRequest {
    fn encode(&self, w: &mut Writer) {
        match self {
            RpcRequest::Protocol(req) => {
                0u8.encode(w);
                req.encode(w);
            }
            RpcRequest::GetPublicKey(scheme) => {
                1u8.encode(w);
                scheme.encode(w);
            }
            RpcRequest::Encrypt { scheme, label, message } => {
                2u8.encode(w);
                scheme.encode(w);
                label.encode(w);
                message.encode(w);
            }
            RpcRequest::VerifySignature { scheme, message, signature } => {
                3u8.encode(w);
                scheme.encode(w);
                message.encode(w);
                signature.encode(w);
            }
            RpcRequest::GetMetrics => {
                5u8.encode(w);
            }
            RpcRequest::GetTrace(instance) => {
                6u8.encode(w);
                instance.encode(w);
            }
            RpcRequest::CollectTrace(instance) => {
                7u8.encode(w);
                instance.encode(w);
            }
            RpcRequest::GetHealth => {
                8u8.encode(w);
            }
            RpcRequest::Keygen { keyref, scheme } => {
                9u8.encode(w);
                keyref.encode(w);
                scheme.encode(w);
            }
            RpcRequest::ListKeys(tenant) => {
                10u8.encode(w);
                tenant.encode(w);
            }
            RpcRequest::GetTenantKey(keyref) => {
                11u8.encode(w);
                keyref.encode(w);
            }
        }
    }
}

impl Decode for RpcRequest {
    fn decode(r: &mut Reader) -> theta_codec::Result<Self> {
        match u8::decode(r)? {
            0 => Ok(RpcRequest::Protocol(Request::decode(r)?)),
            1 => Ok(RpcRequest::GetPublicKey(SchemeId::decode(r)?)),
            2 => Ok(RpcRequest::Encrypt {
                scheme: SchemeId::decode(r)?,
                label: Vec::<u8>::decode(r)?,
                message: Vec::<u8>::decode(r)?,
            }),
            3 => Ok(RpcRequest::VerifySignature {
                scheme: SchemeId::decode(r)?,
                message: Vec::<u8>::decode(r)?,
                signature: Vec::<u8>::decode(r)?,
            }),
            // Tag 4 stays unassigned: a stats request from an older
            // client must fail to decode, not be read as another request.
            5 => Ok(RpcRequest::GetMetrics),
            6 => Ok(RpcRequest::GetTrace(<[u8; 32]>::decode(r)?)),
            7 => Ok(RpcRequest::CollectTrace(<[u8; 32]>::decode(r)?)),
            8 => Ok(RpcRequest::GetHealth),
            9 => Ok(RpcRequest::Keygen {
                keyref: KeyRef::decode(r)?,
                scheme: SchemeId::decode(r)?,
            }),
            10 => Ok(RpcRequest::ListKeys(String::decode(r)?)),
            11 => Ok(RpcRequest::GetTenantKey(KeyRef::decode(r)?)),
            other => Err(CodecError::InvalidTag(other as u32)),
        }
    }
}

/// One node's trace-journal slice for an instance, with the clock anchor
/// needed to place it on a cross-node timeline.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeTrace {
    /// UNIX-epoch wall clock (µs) at the journal's creation — added to
    /// each event's monotonic `at_micros` to recover a wall timestamp.
    pub wall_anchor_micros: u64,
    /// True when the journal's ring evicted part of this instance's
    /// history: the events below are a suffix, not the full trace.
    pub truncated: bool,
    /// The recorded events, in recording order.
    pub events: Vec<theta_metrics::TraceEvent>,
}

/// One event on the merged cross-node timeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClusterTraceEntry {
    /// Roster node that recorded the event.
    pub node: u16,
    /// Event time mapped onto the collecting node's clock:
    /// `wall_anchor + at_micros - offset(collector → node)`.
    pub aligned_micros: i64,
    /// The event as recorded.
    pub event: theta_metrics::TraceEvent,
}

/// A merged, offset-aligned cross-node timeline for one instance.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClusterTrace {
    /// All nodes' events sorted by aligned timestamp.
    pub entries: Vec<ClusterTraceEntry>,
    /// Nodes whose journal contributed events (including the collector).
    pub nodes_reporting: u16,
    /// True when any contributing journal had evicted part of the
    /// instance's history — the timeline is a suffix.
    pub truncated: bool,
    /// Receives whose earliest matching send aligns *after* them — 0
    /// unless clock-offset estimation was off by more than the true
    /// network latency.
    pub causality_violations: u32,
}

/// The SLO watchdog's verdict plus the numerics it judged.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HealthReport {
    /// True when every SLO check passed since the previous poll.
    pub ready: bool,
    /// One line per failed check; empty when ready.
    pub reasons: Vec<String>,
    /// Cumulative p99 end-to-end protocol latency (µs; 0 = no samples).
    pub e2e_p99_micros: u64,
    /// Current worker run-queue depth.
    pub runqueue_depth: i64,
    /// Current submission-queue depth.
    pub submission_queue_depth: i64,
    /// Cumulative instance-mailbox drops.
    pub mailbox_dropped: u64,
    /// Cumulative admission-control rejections.
    pub overload_rejections: u64,
    /// Cumulative link faults (send errors + reader exits + AEAD
    /// failures), 0 on transports without those counters.
    pub link_errors: u64,
}

fn encode_trace_events(events: &[theta_metrics::TraceEvent], w: &mut Writer) {
    (events.len() as u32).encode(w);
    for ev in events {
        ev.instance.encode(w);
        ev.kind.code().encode(w);
        ev.at_micros.encode(w);
        ev.peer.encode(w);
        ev.detail.encode(w);
    }
}

fn decode_trace_events(r: &mut Reader) -> theta_codec::Result<Vec<theta_metrics::TraceEvent>> {
    let len = u32::decode(r)? as usize;
    let mut events = Vec::with_capacity(len.min(4096));
    for _ in 0..len {
        events.push(decode_trace_event(r)?);
    }
    Ok(events)
}

fn decode_trace_event(r: &mut Reader) -> theta_codec::Result<theta_metrics::TraceEvent> {
    let instance = <[u8; 32]>::decode(r)?;
    let code = u8::decode(r)?;
    let kind = theta_metrics::TraceEventKind::from_code(code)
        .ok_or(CodecError::InvalidTag(code as u32))?;
    Ok(theta_metrics::TraceEvent {
        instance,
        kind,
        at_micros: u64::decode(r)?,
        peer: u16::decode(r)?,
        detail: String::decode(r)?,
    })
}

/// Successful RPC payloads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RpcResponse {
    /// Result of a protocol run: the output bytes (plaintext, encoded
    /// signature or coin) plus the server-side latency in microseconds.
    ProtocolResult {
        /// Output bytes.
        output: Vec<u8>,
        /// Server-side latency in microseconds (paper's latency metric).
        server_latency_us: u64,
    },
    /// An encoded public key.
    PublicKey(Vec<u8>),
    /// An encoded ciphertext.
    Ciphertext(Vec<u8>),
    /// Outcome of a signature verification.
    Verified(bool),
    /// The request failed.
    Error(String),
    /// The serving node was at capacity (submission queue or
    /// live-instance cap) and refused the request without queueing it;
    /// safe to retry later or against another node.
    Overloaded,
    /// Prometheus text exposition of the node's metrics registry.
    MetricsText(String),
    /// One node's trace-journal slice for an instance, with its clock
    /// anchor and truncation flag.
    Trace(NodeTrace),
    /// The merged, offset-aligned cross-node timeline for an instance.
    ClusterTrace(ClusterTrace),
    /// The SLO watchdog's ready/degraded verdict.
    Health(HealthReport),
    /// A tenant's keys as `(name, scheme)` pairs, sorted by name.
    KeyList(Vec<(String, SchemeId)>),
    /// One tenant key's scheme and encoded public key.
    TenantKey {
        /// The key's scheme.
        scheme: SchemeId,
        /// The encoded public key.
        key: Vec<u8>,
    },
}

impl Encode for RpcResponse {
    fn encode(&self, w: &mut Writer) {
        match self {
            RpcResponse::ProtocolResult { output, server_latency_us } => {
                0u8.encode(w);
                output.encode(w);
                server_latency_us.encode(w);
            }
            RpcResponse::PublicKey(bytes) => {
                1u8.encode(w);
                bytes.encode(w);
            }
            RpcResponse::Ciphertext(bytes) => {
                2u8.encode(w);
                bytes.encode(w);
            }
            RpcResponse::Verified(ok) => {
                3u8.encode(w);
                ok.encode(w);
            }
            RpcResponse::Error(msg) => {
                4u8.encode(w);
                msg.encode(w);
            }
            RpcResponse::MetricsText(text) => {
                6u8.encode(w);
                text.encode(w);
            }
            RpcResponse::Overloaded => {
                8u8.encode(w);
            }
            RpcResponse::Trace(trace) => {
                // `TraceEvent` lives in theta-metrics (no codec
                // dependency), so its fields are framed here.
                7u8.encode(w);
                trace.wall_anchor_micros.encode(w);
                trace.truncated.encode(w);
                encode_trace_events(&trace.events, w);
            }
            RpcResponse::ClusterTrace(trace) => {
                9u8.encode(w);
                (trace.entries.len() as u32).encode(w);
                for entry in &trace.entries {
                    entry.node.encode(w);
                    entry.aligned_micros.encode(w);
                    entry.event.instance.encode(w);
                    entry.event.kind.code().encode(w);
                    entry.event.at_micros.encode(w);
                    entry.event.peer.encode(w);
                    entry.event.detail.encode(w);
                }
                trace.nodes_reporting.encode(w);
                trace.truncated.encode(w);
                trace.causality_violations.encode(w);
            }
            RpcResponse::Health(report) => {
                10u8.encode(w);
                report.ready.encode(w);
                (report.reasons.len() as u32).encode(w);
                for reason in &report.reasons {
                    reason.encode(w);
                }
                report.e2e_p99_micros.encode(w);
                report.runqueue_depth.encode(w);
                report.submission_queue_depth.encode(w);
                report.mailbox_dropped.encode(w);
                report.overload_rejections.encode(w);
                report.link_errors.encode(w);
            }
            RpcResponse::KeyList(keys) => {
                11u8.encode(w);
                (keys.len() as u32).encode(w);
                for (name, scheme) in keys {
                    name.encode(w);
                    scheme.encode(w);
                }
            }
            RpcResponse::TenantKey { scheme, key } => {
                12u8.encode(w);
                scheme.encode(w);
                key.encode(w);
            }
        }
    }
}

impl Decode for RpcResponse {
    fn decode(r: &mut Reader) -> theta_codec::Result<Self> {
        match u8::decode(r)? {
            0 => Ok(RpcResponse::ProtocolResult {
                output: Vec::<u8>::decode(r)?,
                server_latency_us: u64::decode(r)?,
            }),
            1 => Ok(RpcResponse::PublicKey(Vec::<u8>::decode(r)?)),
            2 => Ok(RpcResponse::Ciphertext(Vec::<u8>::decode(r)?)),
            3 => Ok(RpcResponse::Verified(bool::decode(r)?)),
            4 => Ok(RpcResponse::Error(String::decode(r)?)),
            // Tag 5 stays unassigned, as request tag 4 does.
            6 => Ok(RpcResponse::MetricsText(String::decode(r)?)),
            7 => Ok(RpcResponse::Trace(NodeTrace {
                wall_anchor_micros: u64::decode(r)?,
                truncated: bool::decode(r)?,
                events: decode_trace_events(r)?,
            })),
            8 => Ok(RpcResponse::Overloaded),
            9 => {
                let len = u32::decode(r)? as usize;
                let mut entries = Vec::with_capacity(len.min(4096));
                for _ in 0..len {
                    entries.push(ClusterTraceEntry {
                        node: u16::decode(r)?,
                        aligned_micros: i64::decode(r)?,
                        event: decode_trace_event(r)?,
                    });
                }
                Ok(RpcResponse::ClusterTrace(ClusterTrace {
                    entries,
                    nodes_reporting: u16::decode(r)?,
                    truncated: bool::decode(r)?,
                    causality_violations: u32::decode(r)?,
                }))
            }
            10 => {
                let ready = bool::decode(r)?;
                let len = u32::decode(r)? as usize;
                let mut reasons = Vec::with_capacity(len.min(64));
                for _ in 0..len {
                    reasons.push(String::decode(r)?);
                }
                Ok(RpcResponse::Health(HealthReport {
                    ready,
                    reasons,
                    e2e_p99_micros: u64::decode(r)?,
                    runqueue_depth: i64::decode(r)?,
                    submission_queue_depth: i64::decode(r)?,
                    mailbox_dropped: u64::decode(r)?,
                    overload_rejections: u64::decode(r)?,
                    link_errors: u64::decode(r)?,
                }))
            }
            11 => {
                let len = u32::decode(r)? as usize;
                let mut keys = Vec::with_capacity(len.min(4096));
                for _ in 0..len {
                    keys.push((String::decode(r)?, SchemeId::decode(r)?));
                }
                Ok(RpcResponse::KeyList(keys))
            }
            12 => Ok(RpcResponse::TenantKey {
                scheme: SchemeId::decode(r)?,
                key: Vec::<u8>::decode(r)?,
            }),
            other => Err(CodecError::InvalidTag(other as u32)),
        }
    }
}

/// One frame on the wire: correlation id + body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame<T> {
    /// Correlation id chosen by the client.
    pub id: u64,
    /// Request or response body.
    pub body: T,
}

impl<T: Encode> Encode for Frame<T> {
    fn encode(&self, w: &mut Writer) {
        self.id.encode(w);
        self.body.encode(w);
    }
}

impl<T: Decode> Decode for Frame<T> {
    fn decode(r: &mut Reader) -> theta_codec::Result<Self> {
        Ok(Frame { id: u64::decode(r)?, body: T::decode(r)? })
    }
}

pub(crate) fn write_frame<T: Encode>(
    stream: &mut std::net::TcpStream,
    frame: &Frame<T>,
) -> std::io::Result<()> {
    use std::io::Write;
    let body = frame.encoded();
    stream.write_all(&(body.len() as u32).to_le_bytes())?;
    stream.write_all(&body)
}

pub(crate) fn read_frame<T: Decode>(stream: &mut std::net::TcpStream) -> std::io::Result<Frame<T>> {
    use std::io::Read;
    let mut len_bytes = [0u8; 4];
    stream.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes);
    if len > 64 << 20 {
        return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, "frame too large"));
    }
    let mut body = vec![0u8; len as usize];
    stream.read_exact(&mut body)?;
    Frame::<T>::decoded(&body)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rpc_request_codec() {
        let reqs = [
            RpcRequest::Protocol(Request::Cks05Coin(b"r".to_vec())),
            RpcRequest::GetPublicKey(SchemeId::Bls04),
            RpcRequest::Encrypt {
                scheme: SchemeId::Sg02,
                label: b"l".to_vec(),
                message: b"m".to_vec(),
            },
            RpcRequest::VerifySignature {
                scheme: SchemeId::Sh00,
                message: b"m".to_vec(),
                signature: vec![1, 2, 3],
            },
            RpcRequest::GetMetrics,
            RpcRequest::GetTrace([7u8; 32]),
            RpcRequest::CollectTrace([8u8; 32]),
            RpcRequest::GetHealth,
        ];
        for r in reqs {
            assert_eq!(RpcRequest::decoded(&r.encoded()).unwrap(), r);
        }
        assert!(matches!(RpcRequest::decoded(&[4]), Err(CodecError::InvalidTag(4))));
    }

    #[test]
    fn rpc_response_codec() {
        let resps = [
            RpcResponse::ProtocolResult { output: vec![1], server_latency_us: 42 },
            RpcResponse::PublicKey(vec![2]),
            RpcResponse::Ciphertext(vec![3]),
            RpcResponse::Verified(true),
            RpcResponse::Error("nope".into()),
            RpcResponse::Overloaded,
            RpcResponse::MetricsText("# TYPE x counter\nx 1\n".into()),
            RpcResponse::Trace(NodeTrace {
                wall_anchor_micros: 1_700_000_000_000_000,
                truncated: true,
                events: vec![theta_metrics::TraceEvent {
                    instance: [9u8; 32],
                    kind: theta_metrics::TraceEventKind::ShareVerified,
                    at_micros: 1234,
                    peer: 3,
                    detail: "ok".into(),
                }],
            }),
            RpcResponse::ClusterTrace(ClusterTrace {
                entries: vec![ClusterTraceEntry {
                    node: 2,
                    aligned_micros: -5,
                    event: theta_metrics::TraceEvent {
                        instance: [1u8; 32],
                        kind: theta_metrics::TraceEventKind::PeerRecv,
                        at_micros: 77,
                        peer: 1,
                        detail: "span=0101010101010101 hop=1".into(),
                    },
                }],
                nodes_reporting: 4,
                truncated: false,
                causality_violations: 1,
            }),
            RpcResponse::Health(HealthReport {
                ready: false,
                reasons: vec!["queue depth 300 > 256".into()],
                e2e_p99_micros: 123_456,
                runqueue_depth: 300,
                submission_queue_depth: 12,
                mailbox_dropped: 2,
                overload_rejections: 9,
                link_errors: 0,
            }),
        ];
        for r in resps {
            assert_eq!(RpcResponse::decoded(&r.encoded()).unwrap(), r);
        }
        assert!(matches!(RpcResponse::decoded(&[5]), Err(CodecError::InvalidTag(5))));
    }

    #[test]
    fn frame_codec() {
        let f = Frame { id: 99, body: RpcResponse::Verified(false) };
        assert_eq!(Frame::<RpcResponse>::decoded(&f.encoded()).unwrap(), f);
    }

    #[test]
    fn key_manager_codec() {
        let reqs = [
            RpcRequest::Keygen {
                keyref: KeyRef::new("acme", "signing-1"),
                scheme: SchemeId::Bls04,
            },
            RpcRequest::ListKeys("acme".into()),
            RpcRequest::GetTenantKey(KeyRef::new("acme", "signing-1")),
            RpcRequest::Protocol(Request::scoped(
                KeyRef::new("acme", "signing-1"),
                Request::Bls04Sign(b"m".to_vec()),
            )),
        ];
        for r in reqs {
            assert_eq!(RpcRequest::decoded(&r.encoded()).unwrap(), r);
        }
        let resps = [
            RpcResponse::KeyList(vec![
                ("signing-1".into(), SchemeId::Bls04),
                ("sealing".into(), SchemeId::Sg02),
            ]),
            RpcResponse::KeyList(vec![]),
            RpcResponse::TenantKey { scheme: SchemeId::Bls04, key: vec![1, 2, 3] },
        ];
        for r in resps {
            assert_eq!(RpcResponse::decoded(&r.encoded()).unwrap(), r);
        }
    }

    #[test]
    fn bad_tags_rejected() {
        assert!(RpcRequest::decoded(&[12]).is_err());
        assert!(RpcResponse::decoded(&[13]).is_err());
    }
}
