//! The RPC server's domain logic: request dispatch, the scheme API, the
//! multi-tenant key-manager endpoints, per-tenant admission quotas, and
//! the cluster observability plane.
//!
//! The I/O itself — accepting sockets, framing, pipelining, completion
//! delivery — lives in the event-driven front-end (`crate::frontend`).
//! This module decides *what happens* to each decoded request:
//!
//! - scheme-API and observability calls are answered inline (pure
//!   in-memory work);
//! - protocol-API calls are admitted through the bounded submission
//!   queue ([`theta_orchestration::NodeHandle::try_submit_with`]) and
//!   answered later via the front-end's completion queue, with
//!   per-tenant in-flight quotas enforced at admission;
//! - the rare slow endpoints — on-demand tenant keygen and the
//!   CollectTrace roster fan-out — run on short-lived offload threads
//!   so the readiness loop never blocks.
//!
//! Two cluster-plane endpoints live here as well:
//!
//! - **CollectTrace** fans `GetTrace` out across the roster
//!   ([`ClusterConfig::peers`]) and merges the per-node journals into one
//!   timeline on the collector's clock, using the per-link offsets the
//!   transport probed at handshake time
//!   (`theta_clock_offset_micros{peer}`);
//! - **GetHealth** is an SLO watchdog: cumulative fault counters are
//!   judged as *deltas since the previous poll*, and the end-to-end p99
//!   over the same window, so a node that saturated and then drained
//!   reports degraded exactly once and ready thereafter.

use crate::frontend::{completion_for, spawn_frontend, Completion, FrontendShared, ServiceHandle};
use crate::{
    ClusterTrace, ClusterTraceEntry, HealthReport, NodeTrace, PublicKeyChest, RpcClient,
    RpcRequest, RpcResponse,
};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};
use theta_codec::Decode;
use theta_metrics::histogram::HistogramSnapshot;
use theta_metrics::observability::{
    E2E_HISTOGRAM, MAILBOX_DROPPED_COUNTER, OVERLOAD_REJECTIONS_COUNTER, RUNQUEUE_DEPTH_GAUGE,
    SUBMISSION_QUEUE_DEPTH_GAUGE,
};
use theta_metrics::{NodeObservability, TraceEventKind};
use theta_orchestration::{InstanceResult, KeyRef, NodeHandle, SubmitError};
use theta_schemes::registry::SchemeId;

/// SLO thresholds the [`RpcRequest::GetHealth`] watchdog judges against.
#[derive(Clone, Debug)]
pub struct SloThresholds {
    /// End-to-end p99 latency bound, applied to the samples recorded
    /// since the previous health poll.
    pub p99_e2e: Duration,
    /// Bound on the instantaneous run-queue and submission-queue depths.
    pub max_queue_depth: i64,
}

impl Default for SloThresholds {
    fn default() -> Self {
        SloThresholds { p99_e2e: Duration::from_secs(5), max_queue_depth: 256 }
    }
}

/// Cluster-plane configuration: the roster CollectTrace fans out to and
/// the SLO thresholds GetHealth judges against.
#[derive(Clone, Debug, Default)]
pub struct ClusterConfig {
    /// `(node id, RPC address)` of every node, including the serving
    /// node (its own entry is answered locally, not dialed).
    pub peers: Vec<(u16, SocketAddr)>,
    /// The serving node's 1-based roster id.
    pub self_id: u16,
    /// Health-plane SLOs.
    pub slo: SloThresholds,
}

/// The key-manager backing the on-demand keygen endpoints. The service
/// layer is agnostic of how shares are dealt and persisted; `theta-core`
/// provides the concrete manager (per-tenant namespaces, encrypted
/// share persistence, hot-key cache).
pub trait KeyAdmin: Send + Sync {
    /// Deals a fresh key for `keyref` under `scheme`, installs the
    /// shares, and returns the encoded public key. Generating a name
    /// that already exists is an error (keys are immutable once dealt).
    fn generate(&self, keyref: &KeyRef, scheme: SchemeId) -> Result<Vec<u8>, String>;

    /// A tenant's keys as `(name, scheme)` pairs, sorted by name.
    fn list(&self, tenant: &str) -> Vec<(String, SchemeId)>;

    /// The scheme and encoded public key of one tenant key.
    fn tenant_public_key(&self, keyref: &KeyRef) -> Result<(SchemeId, Vec<u8>), String>;
}

/// Optional service behaviour beyond the bare protocol/scheme APIs.
#[derive(Clone, Default)]
pub struct ServiceOptions {
    /// Roster and SLO thresholds for the cluster plane.
    pub cluster: ClusterConfig,
    /// The key manager answering `Keygen`/`ListKeys`/`GetTenantKey` and
    /// backing tenant-scoped protocol requests; `None` refuses those
    /// endpoints.
    pub key_admin: Option<Arc<dyn KeyAdmin>>,
    /// Per-tenant cap on in-flight tenant-scoped protocol requests
    /// (0 = unlimited). Exceeding it yields [`RpcResponse::Overloaded`],
    /// the same retryable refusal as a full submission queue, so one
    /// tenant cannot monopolize the node's capacity.
    pub tenant_quota: usize,
}

/// The watchdog's memory between health polls: the counter and
/// histogram values seen last time, so checks judge the window since
/// the previous poll instead of the process lifetime.
#[derive(Default)]
struct HealthBaseline {
    e2e: HistogramSnapshot,
    mailbox_dropped: u64,
    overload_rejections: u64,
    link_errors: u64,
}

/// Everything the front-end needs to answer requests: the node handle,
/// key material, cluster plane, quotas and metric handles.
pub(crate) struct ServiceContext {
    node: Arc<NodeHandle>,
    keys: PublicKeyChest,
    cluster: Arc<ClusterConfig>,
    admin: Option<Arc<dyn KeyAdmin>>,
    tenant_quota: usize,
    /// In-flight tenant-scoped protocol requests per tenant. Slots are
    /// taken at admission and released when the router's completion
    /// drains through the loop — never tied to connection lifetime, so
    /// a client dying mid-request cannot leak quota.
    quotas: Mutex<HashMap<String, usize>>,
    health_prev: Mutex<HealthBaseline>,
    pub(crate) obs: Arc<NodeObservability>,
    pub(crate) rpc_timer: Arc<theta_metrics::histogram::Histogram>,
    quota_rejections: Arc<theta_metrics::registry::Counter>,
}

impl ServiceContext {
    /// Takes one in-flight slot for `tenant`; `false` means the tenant
    /// is at its cap and the request must be refused as `Overloaded`.
    fn try_acquire_quota(&self, tenant: &str) -> bool {
        if self.tenant_quota == 0 {
            return true;
        }
        let mut quotas = self.quotas.lock();
        let slot = quotas.entry(tenant.to_string()).or_insert(0);
        if *slot >= self.tenant_quota {
            false
        } else {
            *slot += 1;
            true
        }
    }

    /// Returns an in-flight slot. Idle tenants are dropped from the map
    /// so the table stays proportional to *active* tenants.
    pub(crate) fn release_quota(&self, tenant: &str) {
        if self.tenant_quota == 0 {
            return;
        }
        let mut quotas = self.quotas.lock();
        if let Some(slot) = quotas.get_mut(tenant) {
            *slot = slot.saturating_sub(1);
            if *slot == 0 {
                quotas.remove(tenant);
            }
        }
    }
}

/// Starts serving the two Thetacrypt APIs for a node, standalone: no
/// roster (CollectTrace reports this node only), default SLOs, no key
/// manager.
///
/// `node` is the orchestration handle whose Θ-network executes protocol
/// requests; `keys` backs the scheme API. Binds `addr` (use port 0 for
/// an ephemeral port, then read [`ServiceHandle::addr`]).
///
/// # Errors
///
/// I/O errors from binding the listener.
pub fn serve(
    addr: SocketAddr,
    node: Arc<NodeHandle>,
    keys: PublicKeyChest,
    request_timeout: Duration,
) -> std::io::Result<ServiceHandle> {
    serve_with_cluster(addr, node, keys, request_timeout, ClusterConfig::default())
}

/// [`serve`] plus the cluster plane: a roster for CollectTrace fan-out
/// and SLO thresholds for GetHealth.
///
/// # Errors
///
/// I/O errors from binding the listener.
pub fn serve_with_cluster(
    addr: SocketAddr,
    node: Arc<NodeHandle>,
    keys: PublicKeyChest,
    request_timeout: Duration,
    cluster: ClusterConfig,
) -> std::io::Result<ServiceHandle> {
    serve_on(TcpListener::bind(addr)?, node, keys, request_timeout, cluster)
}

/// [`serve_with_cluster`] on a pre-bound listener — lets a caller bind
/// every node's ephemeral port first, learn the full roster, and only
/// then start the servers with that roster.
///
/// # Errors
///
/// I/O errors reading the listener's local address.
pub fn serve_on(
    listener: TcpListener,
    node: Arc<NodeHandle>,
    keys: PublicKeyChest,
    request_timeout: Duration,
    cluster: ClusterConfig,
) -> std::io::Result<ServiceHandle> {
    serve_on_with_options(
        listener,
        node,
        keys,
        request_timeout,
        ServiceOptions { cluster, ..ServiceOptions::default() },
    )
}

/// The full-surface entry point: [`serve_on`] plus a key manager for
/// the on-demand keygen endpoints and a per-tenant in-flight quota.
///
/// # Errors
///
/// I/O errors reading the listener's local address or spawning the
/// front-end thread.
pub fn serve_on_with_options(
    listener: TcpListener,
    node: Arc<NodeHandle>,
    keys: PublicKeyChest,
    request_timeout: Duration,
    options: ServiceOptions,
) -> std::io::Result<ServiceHandle> {
    let obs = node.observability();
    let rpc_timer = obs.registry.histogram("theta_rpc_request_seconds");
    let quota_rejections = obs.registry.counter("theta_quota_rejections_total");
    let ctx = Arc::new(ServiceContext {
        node,
        keys,
        cluster: Arc::new(options.cluster),
        admin: options.key_admin,
        tenant_quota: options.tenant_quota,
        quotas: Mutex::new(HashMap::new()),
        health_prev: Mutex::new(HealthBaseline::default()),
        obs,
        rpc_timer,
        quota_rejections,
    });
    spawn_frontend(listener, ctx, request_timeout)
}

/// Short method label used by the per-variant RPC counters.
fn method_name(request: &RpcRequest) -> &'static str {
    match request {
        RpcRequest::Protocol(_) => "protocol",
        RpcRequest::GetPublicKey(_) => "get_public_key",
        RpcRequest::Encrypt { .. } => "encrypt",
        RpcRequest::VerifySignature { .. } => "verify_signature",
        RpcRequest::GetMetrics => "get_metrics",
        RpcRequest::GetTrace(_) => "get_trace",
        RpcRequest::CollectTrace(_) => "collect_trace",
        RpcRequest::GetHealth => "get_health",
        RpcRequest::Keygen { .. } => "keygen",
        RpcRequest::ListKeys(_) => "list_keys",
        RpcRequest::GetTenantKey(_) => "get_tenant_key",
    }
}

/// How the front-end should treat a dispatched request.
pub(crate) enum Dispatch {
    /// Answered synchronously — write the response now.
    Inline(RpcResponse),
    /// Admitted to the router; a completion will arrive, and the
    /// request-timeout backstop applies.
    Submitted,
    /// Running on an offload thread; a completion will arrive, no
    /// service-level deadline (the work bounds itself).
    Offloaded,
}

/// Maps a router result onto the wire, preserving the PR-4 contract:
/// the live-instance admission cap surfaces as the same retryable
/// `Overloaded` as a full submission queue.
pub(crate) fn respond_to_result(result: InstanceResult) -> RpcResponse {
    match result.outcome {
        Ok(output) => RpcResponse::ProtocolResult {
            output: output.as_bytes().to_vec(),
            server_latency_us: result.elapsed.as_micros() as u64,
        },
        Err(theta_schemes::SchemeError::Overloaded) => RpcResponse::Overloaded,
        Err(theta_schemes::SchemeError::Shutdown) => {
            RpcResponse::Error("the node stopped before delivering the result".into())
        }
        Err(e) => RpcResponse::Error(e.to_string()),
    }
}

/// Decides what happens to one decoded request. Runs on the event-loop
/// thread, so everything here must be non-blocking; slow endpoints are
/// offloaded.
pub(crate) fn dispatch_request(
    ctx: &Arc<ServiceContext>,
    shared: &Arc<FrontendShared>,
    conn: u64,
    frame_id: u64,
    started: Instant,
    request: RpcRequest,
) -> Dispatch {
    ctx.obs
        .registry
        .counter_with("theta_rpc_requests_total", &[("method", method_name(&request))])
        .inc();
    match request {
        RpcRequest::Protocol(request) => {
            let instance = request.instance_id().0;
            ctx.obs.journal.record(instance, TraceEventKind::RpcReceived);
            // Per-tenant admission quota, taken before the submission
            // queue so one tenant's burst is refused at its own cap
            // rather than consuming shared queue slots.
            let quota_tenant = match request.keyref() {
                Some(keyref) if ctx.tenant_quota > 0 => {
                    if !ctx.try_acquire_quota(&keyref.tenant) {
                        ctx.quota_rejections.inc();
                        ctx.obs.journal.record(instance, TraceEventKind::QuotaRejected);
                        return Dispatch::Inline(RpcResponse::Overloaded);
                    }
                    Some(keyref.tenant.clone())
                }
                _ => None,
            };
            // Backpressure-aware admission: a full submission queue
            // refuses the request up front instead of buffering it
            // without bound behind the router.
            let callback_shared = shared.clone();
            let callback_tenant = quota_tenant.clone();
            let submitted = ctx.node.try_submit_with(request, move |result| {
                // Runs on the router thread: push the completion and
                // wake the loop — nothing heavier.
                callback_shared.complete(completion_for(
                    conn,
                    frame_id,
                    started,
                    callback_tenant,
                    result,
                ));
            });
            match submitted {
                Ok(()) => Dispatch::Submitted,
                Err(e) => {
                    if let Some(tenant) = &quota_tenant {
                        ctx.release_quota(tenant);
                    }
                    Dispatch::Inline(match e {
                        SubmitError::Overloaded => RpcResponse::Overloaded,
                        SubmitError::NodeStopped => {
                            RpcResponse::Error("the node has stopped".into())
                        }
                    })
                }
            }
        }
        RpcRequest::Keygen { keyref, scheme } => {
            let Some(admin) = ctx.admin.clone() else {
                return Dispatch::Inline(RpcResponse::Error(
                    "no key manager on this node".into(),
                ));
            };
            // Dealing a key is seconds of modular arithmetic — far too
            // slow for the loop thread.
            let shared = shared.clone();
            let spawned = std::thread::Builder::new()
                .name("theta-keygen".into())
                .spawn(move || {
                    let response = match admin.generate(&keyref, scheme) {
                        Ok(public) => RpcResponse::PublicKey(public),
                        Err(e) => RpcResponse::Error(e),
                    };
                    shared.complete(Completion {
                        conn,
                        frame_id,
                        started,
                        response,
                        quota_tenant: None,
                        tracked: false,
                    });
                });
            match spawned {
                Ok(_) => Dispatch::Offloaded,
                Err(_) => Dispatch::Inline(RpcResponse::Error("cannot spawn keygen".into())),
            }
        }
        RpcRequest::ListKeys(tenant) => Dispatch::Inline(match &ctx.admin {
            Some(admin) => RpcResponse::KeyList(admin.list(&tenant)),
            None => RpcResponse::Error("no key manager on this node".into()),
        }),
        RpcRequest::GetTenantKey(keyref) => Dispatch::Inline(match &ctx.admin {
            Some(admin) => match admin.tenant_public_key(&keyref) {
                Ok((scheme, key)) => RpcResponse::TenantKey { scheme, key },
                Err(e) => RpcResponse::Error(e),
            },
            None => RpcResponse::Error("no key manager on this node".into()),
        }),
        RpcRequest::GetMetrics => {
            Dispatch::Inline(RpcResponse::MetricsText(ctx.obs.render_prometheus()))
        }
        RpcRequest::GetTrace(instance) => {
            let (events, truncated) = ctx.obs.journal.events_for_flagged(&instance);
            Dispatch::Inline(if events.is_empty() && !truncated {
                RpcResponse::Error("no trace recorded for that instance id".into())
            } else {
                RpcResponse::Trace(NodeTrace {
                    wall_anchor_micros: ctx.obs.journal.wall_anchor_micros(),
                    truncated,
                    events,
                })
            })
        }
        RpcRequest::CollectTrace(instance) => {
            // Dials every roster peer with a 5 s budget each — offload.
            let ctx = ctx.clone();
            let shared = shared.clone();
            let spawned = std::thread::Builder::new()
                .name("theta-trace-fanout".into())
                .spawn(move || {
                    let response = RpcResponse::ClusterTrace(collect_cluster_trace(
                        &ctx.obs,
                        &ctx.cluster,
                        instance,
                    ));
                    shared.complete(Completion {
                        conn,
                        frame_id,
                        started,
                        response,
                        quota_tenant: None,
                        tracked: false,
                    });
                });
            match spawned {
                Ok(_) => Dispatch::Offloaded,
                Err(_) => Dispatch::Inline(RpcResponse::Error("cannot spawn fan-out".into())),
            }
        }
        RpcRequest::GetHealth => {
            Dispatch::Inline(RpcResponse::Health(health_report(ctx)))
        }
        other => Dispatch::Inline(answer_scheme_api(other, &ctx.keys)),
    }
}

fn answer_scheme_api(request: RpcRequest, keys: &PublicKeyChest) -> RpcResponse {
    match request {
        RpcRequest::GetPublicKey(scheme) => match keys.encoded_key(scheme) {
            Some(bytes) => RpcResponse::PublicKey(bytes),
            None => RpcResponse::Error(format!("scheme {scheme} not provisioned")),
        },
        RpcRequest::Encrypt { scheme, label, message } => {
            let mut rng = rand::rngs::OsRng;
            match scheme {
                SchemeId::Sg02 => match &keys.sg02 {
                    Some(pk) => {
                        let ct = theta_schemes::sg02::encrypt(pk, &label, &message, &mut rng);
                        RpcResponse::Ciphertext(theta_codec::Encode::encoded(&ct))
                    }
                    None => RpcResponse::Error("sg02 not provisioned".into()),
                },
                SchemeId::Bz03 => match &keys.bz03 {
                    Some(pk) => {
                        let ct = theta_schemes::bz03::encrypt(pk, &label, &message, &mut rng);
                        RpcResponse::Ciphertext(theta_codec::Encode::encoded(&ct))
                    }
                    None => RpcResponse::Error("bz03 not provisioned".into()),
                },
                other => RpcResponse::Error(format!("{other} is not a cipher")),
            }
        }
        RpcRequest::VerifySignature { scheme, message, signature } => {
            let verified = match scheme {
                SchemeId::Sh00 => keys.sh00.as_ref().map(|pk| {
                    theta_schemes::sh00::Signature::decoded(&signature)
                        .map(|sig| theta_schemes::sh00::verify(pk, &message, &sig))
                        .unwrap_or(false)
                }),
                SchemeId::Bls04 => keys.bls04.as_ref().map(|pk| {
                    theta_schemes::bls04::Signature::decoded(&signature)
                        .map(|sig| theta_schemes::bls04::verify(pk, &message, &sig))
                        .unwrap_or(false)
                }),
                SchemeId::Kg20 => keys.kg20.as_ref().map(|pk| {
                    theta_schemes::kg20::Signature::decoded(&signature)
                        .map(|sig| theta_schemes::kg20::verify(pk, &message, &sig))
                        .unwrap_or(false)
                }),
                other => return RpcResponse::Error(format!("{other} is not a signature scheme")),
            };
            match verified {
                Some(ok) => RpcResponse::Verified(ok),
                None => RpcResponse::Error(format!("scheme {scheme} not provisioned")),
            }
        }
        RpcRequest::Protocol(_)
        | RpcRequest::GetMetrics
        | RpcRequest::GetTrace(_)
        | RpcRequest::CollectTrace(_)
        | RpcRequest::GetHealth
        | RpcRequest::Keygen { .. }
        | RpcRequest::ListKeys(_)
        | RpcRequest::GetTenantKey(_) => {
            unreachable!("handled by dispatch_request")
        }
    }
}

/// Per-peer dial/read bound for the CollectTrace fan-out: a slow or
/// dead peer costs at most this, and the merged timeline simply omits
/// it (`nodes_reporting` says how many answered).
const FANOUT_TIMEOUT: Duration = Duration::from_secs(5);

/// Fans `GetTrace(instance)` out across the roster and merges every
/// answering node's journal slice into one timeline on this node's
/// clock, using the handshake-probed per-peer offsets.
fn collect_cluster_trace(
    obs: &NodeObservability,
    cluster: &ClusterConfig,
    instance: [u8; 32],
) -> ClusterTrace {
    let mut slices: Vec<(u16, i64, NodeTrace)> = Vec::new();
    let (local_events, local_truncated) = obs.journal.events_for_flagged(&instance);
    if !local_events.is_empty() || local_truncated {
        slices.push((
            cluster.self_id,
            0,
            NodeTrace {
                wall_anchor_micros: obs.journal.wall_anchor_micros(),
                truncated: local_truncated,
                events: local_events,
            },
        ));
    }
    for &(peer_id, addr) in &cluster.peers {
        if peer_id == cluster.self_id {
            continue;
        }
        let Ok(mut peer) = RpcClient::connect(addr, FANOUT_TIMEOUT) else { continue };
        // A peer with no trace answers with an error; that is "nothing
        // to contribute", not a fan-out failure.
        let Ok(slice) = peer.trace(instance) else { continue };
        let offset = obs
            .registry
            .gauge_value("theta_clock_offset_micros", &[("peer", &peer_id.to_string())])
            .unwrap_or(0);
        slices.push((peer_id, offset, slice));
    }
    merge_cluster_trace(slices)
}

/// Merges per-node journal slices into one sorted timeline.
///
/// Each event's wall time on its recording node is `wall_anchor +
/// at_micros`; the handshake probe estimated `offset ≈ remote_wall −
/// local_wall` per peer, so subtracting it maps the event onto the
/// collector's clock. The audit pass then checks the joined order is
/// causal: every receive must align after the earliest send its origin
/// node recorded for the instance.
fn merge_cluster_trace(slices: Vec<(u16, i64, NodeTrace)>) -> ClusterTrace {
    let nodes_reporting = slices.len() as u16;
    let truncated = slices.iter().any(|(_, _, s)| s.truncated);
    let mut entries: Vec<ClusterTraceEntry> = Vec::new();
    for (node, offset, slice) in slices {
        let anchor = slice.wall_anchor_micros as i64;
        for event in slice.events {
            entries.push(ClusterTraceEntry {
                node,
                aligned_micros: anchor + event.at_micros as i64 - offset,
                event,
            });
        }
    }
    entries.sort_by_key(|e| (e.aligned_micros, e.node));
    let mut causality_violations = 0u32;
    for e in &entries {
        if e.event.kind != TraceEventKind::PeerRecv {
            continue;
        }
        let earliest_send = entries
            .iter()
            .filter(|s| s.node == e.event.peer && s.event.kind == TraceEventKind::PeerSend)
            .map(|s| s.aligned_micros)
            .min();
        if earliest_send.is_some_and(|send| send > e.aligned_micros) {
            causality_violations += 1;
        }
    }
    ClusterTrace { entries, nodes_reporting, truncated, causality_violations }
}

/// The SLO watchdog: judges queue depths instantaneously and the fault
/// counters / e2e p99 over the window since the previous poll, so a
/// saturated-then-drained node reports degraded once and ready after.
fn health_report(ctx: &ServiceContext) -> HealthReport {
    let registry = &ctx.obs.registry;
    let slo = &ctx.cluster.slo;
    let e2e = registry.histogram_snapshot(E2E_HISTOGRAM, &[]).unwrap_or_default();
    let e2e_p99_micros = e2e.percentile(99.0).map_or(0, |s| (s * 1e6) as u64);
    let runqueue_depth = registry.gauge_value(RUNQUEUE_DEPTH_GAUGE, &[]).unwrap_or(0);
    let submission_queue_depth =
        registry.gauge_value(SUBMISSION_QUEUE_DEPTH_GAUGE, &[]).unwrap_or(0);
    let mailbox_dropped = registry.counter_value(MAILBOX_DROPPED_COUNTER, &[]).unwrap_or(0);
    let overload_rejections =
        registry.counter_value(OVERLOAD_REJECTIONS_COUNTER, &[]).unwrap_or(0);
    let link_errors = [
        "theta_tcp_send_errors_total",
        "theta_tcp_reader_exits_total",
        "theta_net_aead_failures_total",
    ]
    .iter()
    .map(|name| registry.counter_value(name, &[]).unwrap_or(0))
    .sum::<u64>();

    // Window everything cumulative against the previous poll's baseline.
    let (window, dropped_delta, rejected_delta, link_delta) = {
        let mut prev = ctx.health_prev.lock();
        let mut window = e2e.clone();
        for (w, p) in window.buckets.iter_mut().zip(&prev.e2e.buckets) {
            *w = w.saturating_sub(*p);
        }
        window.sum_micros = window.sum_micros.saturating_sub(prev.e2e.sum_micros);
        let deltas = (
            window,
            mailbox_dropped.saturating_sub(prev.mailbox_dropped),
            overload_rejections.saturating_sub(prev.overload_rejections),
            link_errors.saturating_sub(prev.link_errors),
        );
        *prev = HealthBaseline { e2e, mailbox_dropped, overload_rejections, link_errors };
        deltas
    };

    let mut reasons = Vec::new();
    if let Some(p99) = window.percentile(99.0) {
        let bound = slo.p99_e2e.as_secs_f64();
        if p99 > bound {
            reasons.push(format!("e2e p99 {p99:.3}s over the {bound:.3}s SLO since the last poll"));
        }
    }
    if runqueue_depth > slo.max_queue_depth {
        reasons.push(format!("run-queue depth {runqueue_depth} > {}", slo.max_queue_depth));
    }
    if submission_queue_depth > slo.max_queue_depth {
        reasons.push(format!(
            "submission-queue depth {submission_queue_depth} > {}",
            slo.max_queue_depth
        ));
    }
    if dropped_delta > 0 {
        reasons.push(format!("{dropped_delta} mailbox drop(s) since the last poll"));
    }
    if rejected_delta > 0 {
        reasons.push(format!("{rejected_delta} overload rejection(s) since the last poll"));
    }
    if link_delta > 0 {
        reasons.push(format!("{link_delta} link fault(s) since the last poll"));
    }
    HealthReport {
        ready: reasons.is_empty(),
        reasons,
        e2e_p99_micros,
        runqueue_depth,
        submission_queue_depth,
        mailbox_dropped,
        overload_rejections,
        link_errors,
    }
}
