//! The router thread: the thin orchestration core of a node.
//!
//! The router owns everything *about* instances — the registry, the
//! result cache, deadlines, retry schedules, subscriber lists and the
//! network handle — but never runs protocol crypto itself. Every input
//! it reacts to (client submissions, worker upcalls, network events,
//! batch-aggregator wakes) arrives on one inbox channel, and the thread
//! blocks on that inbox until the next message or its earliest
//! deadline, whichever comes first. Each
//! `do_round` / `update` / `finalize` happens inside an
//! [`InstanceHost`](crate::instance_host::InstanceHost) on one of N pool
//! workers; the router only demultiplexes network events onto bounded
//! per-instance mailboxes (routing by the 32-byte instance id that
//! leads every envelope, without a full decode on the residual path)
//! and applies the hosts' upcalls (broadcasts, terminal results) to the
//! world.
//!
//! Backpressure is explicit at every boundary: the submission queue and
//! the live-instance count are capped (`Overloaded` instead of
//! unbounded buffering), and mailboxes are bounded (drops are counted;
//! P2P retransmission re-delivers protocol traffic). Shutdown drains:
//! live instances get a bounded window to finish, then fail with
//! [`SchemeError::Shutdown`], so every subscriber always receives a
//! terminal result.

use crate::batcher::{BatchAggregator, FlushReason};
use crate::cache::ResultCache;
use crate::instance_host::{HostMsg, InstanceHost, Upcall};
use crate::worker_pool::{schedule, InstanceSlot, PoolJob, WorkerPool};
use crate::{Envelope, InstanceId, KeyChest, KeyProvider, Request, StaticKeys};
use rand::{RngCore, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;
use theta_sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use theta_codec::Decode;
use theta_metrics::registry::{Counter, MetricsRegistry};
use theta_metrics::trace::TraceEventKind;
use theta_metrics::{NodeObservability, PoolMetrics};
use theta_network::{demux, Network, NetworkEvent};
use theta_protocols::kg20_protocol::Kg20Sign;
use theta_protocols::one_round::{
    Bls04Sign, Bz03Decrypt, Cks05Coin, OneRoundProtocol, Sg02Decrypt, Sh00Sign,
};
use theta_protocols::{InboundMessage, ProtocolDriver, ProtocolOutput, ThresholdRoundProtocol};
use theta_schemes::{PartyId, SchemeError};
use theta_sync::channel::{
    unbounded, Receiver, RecvTimeoutError, SendError, Sender, TryRecvError,
};

/// Upper bound on inbox messages handled per wakeup, so one firehose
/// burst cannot starve timer service.
const EVENT_BATCH: usize = 64;

/// Node-level configuration knobs.
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// Instances with no progress past this deadline are failed.
    pub instance_timeout: Duration,
    /// The cross-instance batch aggregator settles as soon as this many
    /// checks are pending (the size flush, run by the submitting worker).
    pub batch_flush_size: usize,
    /// A pending check older than this triggers a flush even below the
    /// size threshold — bounds the latency cost of batching.
    pub batch_flush_age: Duration,
    /// RNG seed (`None` = entropy from the OS).
    pub rng_seed: Option<u64>,
    /// Finished results kept for duplicate submissions, at most this many.
    pub result_cache_capacity: usize,
    /// Finished results older than this are dropped from the cache.
    pub result_cache_ttl: Duration,
    /// First re-broadcast of an instance's P2P messages fires after this.
    pub retry_initial_backoff: Duration,
    /// Backoff doubles per retry up to this ceiling.
    pub retry_max_backoff: Duration,
    /// Crypto worker threads (`0` = one per available core).
    pub worker_threads: usize,
    /// Live-instance admission cap: submissions and first-contact starts
    /// beyond it are refused with [`SchemeError::Overloaded`].
    pub max_inflight_instances: usize,
    /// Bound of each instance's mailbox; events past it are dropped
    /// (and re-delivered by P2P retransmission).
    pub mailbox_capacity: usize,
    /// Submissions queued ahead of the router beyond this make
    /// [`NodeHandle::try_submit`] refuse with
    /// [`SubmitError::Overloaded`].
    pub submission_queue_capacity: usize,
    /// How long [`NodeHandle::shutdown`] lets live instances finish
    /// before failing them with [`SchemeError::Shutdown`].
    pub shutdown_drain: Duration,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            instance_timeout: Duration::from_secs(30),
            batch_flush_size: 16,
            batch_flush_age: Duration::from_millis(1),
            rng_seed: None,
            result_cache_capacity: 4096,
            result_cache_ttl: Duration::from_secs(300),
            retry_initial_backoff: Duration::from_millis(200),
            retry_max_backoff: Duration::from_secs(5),
            worker_threads: 0,
            max_inflight_instances: 1024,
            mailbox_capacity: 256,
            submission_queue_capacity: 1024,
            shutdown_drain: Duration::from_secs(5),
        }
    }
}

/// A pending result: completion data for one submitted request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InstanceResult {
    /// The instance this result belongs to.
    pub instance: InstanceId,
    /// The protocol output or the failure that ended the instance.
    pub outcome: Result<ProtocolOutput, SchemeError>,
    /// Server-side latency: submission (or first message) to completion.
    pub elapsed: Duration,
}

/// Why a wait on a [`PendingResult`] yielded no result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WaitError {
    /// The timeout elapsed; the instance may still complete later.
    TimedOut,
    /// The node stopped (shut down or died) and will never deliver this
    /// result — retrying the wait is pointless.
    NodeStopped,
}

impl std::fmt::Display for WaitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WaitError::TimedOut => write!(f, "timed out waiting for the instance result"),
            WaitError::NodeStopped => {
                write!(f, "the node stopped before delivering the instance result")
            }
        }
    }
}

impl std::error::Error for WaitError {}

/// Why a [`NodeHandle::try_submit`] was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The submission queue is at capacity — retry later.
    Overloaded,
    /// The node stopped; no submission will ever be served.
    NodeStopped,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Overloaded => write!(f, "node overloaded: submission queue full"),
            SubmitError::NodeStopped => write!(f, "the node has stopped"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Receiver half for one submitted request.
pub struct PendingResult {
    rx: Receiver<InstanceResult>,
}

impl std::fmt::Debug for PendingResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PendingResult").finish_non_exhaustive()
    }
}

impl PendingResult {
    /// Blocks until the instance completes or `timeout` elapses.
    ///
    /// # Errors
    ///
    /// [`WaitError::TimedOut`] when the window elapsed with the node
    /// still alive; [`WaitError::NodeStopped`] when the node shut down
    /// or died without delivering — the two deserve different user
    /// messages, so they are distinct.
    pub fn wait_timeout(&self, timeout: Duration) -> Result<InstanceResult, WaitError> {
        match self.rx.recv_timeout(timeout) {
            Ok(r) => Ok(r),
            Err(RecvTimeoutError::Timeout) => Err(WaitError::TimedOut),
            Err(RecvTimeoutError::Disconnected) => Err(WaitError::NodeStopped),
        }
    }

    /// Non-blocking poll: `Ok(None)` means not ready yet.
    ///
    /// # Errors
    ///
    /// [`WaitError::NodeStopped`] when the node will never deliver.
    pub fn try_take(&self) -> Result<Option<InstanceResult>, WaitError> {
        match self.rx.try_recv() {
            Ok(r) => Ok(Some(r)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(WaitError::NodeStopped),
        }
    }
}

/// Completion callback for [`NodeHandle::try_submit_with`]: invoked on
/// the router thread with the terminal result, so it must stay cheap
/// (push to a queue, write a wakeup byte).
pub type CompletionFn = Box<dyn FnOnce(InstanceResult) + Send>;

/// A callback subscriber armed with a drop guard: if the router dies (or
/// drops a queued submit) without delivering, the guard fires the
/// callback with [`SchemeError::Shutdown`] — callback submitters get the
/// same always-a-terminal-result guarantee channel waiters get from a
/// disconnect.
pub(crate) struct NotifyGuard {
    instance: InstanceId,
    f: Option<CompletionFn>,
}

impl NotifyGuard {
    fn new(instance: InstanceId, f: CompletionFn) -> NotifyGuard {
        NotifyGuard { instance, f: Some(f) }
    }

    fn call(mut self, result: InstanceResult) {
        if let Some(f) = self.f.take() {
            f(result);
        }
    }

    /// Disarms the guard so dropping it fires nothing — for paths that
    /// report the failure synchronously instead.
    fn defuse(&mut self) {
        self.f = None;
    }
}

impl Drop for NotifyGuard {
    fn drop(&mut self) {
        if let Some(f) = self.f.take() {
            f(InstanceResult {
                instance: self.instance,
                outcome: Err(SchemeError::Shutdown),
                elapsed: Duration::ZERO,
            });
        }
    }
}

/// One party interested in an instance's terminal result: either a
/// channel being waited on ([`PendingResult`]) or a completion callback
/// (the event-loop front-end's wakeup path).
pub(crate) enum Subscriber {
    Channel(Sender<InstanceResult>),
    Notify(NotifyGuard),
}

impl Subscriber {
    /// Delivers the terminal result. `Err(())` means a channel
    /// subscriber hung up before delivery (callbacks cannot refuse).
    fn deliver(self, result: InstanceResult) -> Result<(), ()> {
        match self {
            Subscriber::Channel(tx) => tx.send(result).map_err(|_| ()),
            Subscriber::Notify(guard) => {
                guard.call(result);
                Ok(())
            }
        }
    }
}

/// Everything the router thread reacts to, on its one inbox.
pub(crate) enum RouterMsg {
    /// A client request and where its terminal result goes.
    Submit { request: Request, reply: Subscriber },
    /// Stop, letting live instances finish for up to `drain`.
    Shutdown { drain: Duration },
    /// A worker's report about one instance.
    Upcall(Upcall),
    /// A demultiplexed delivery from the network.
    Net(NetworkEvent),
    /// The batch aggregator's age-flush deadline may have moved (checks
    /// became pending, or a flush released its claim with checks left
    /// over): the loop re-reads it before blocking again.
    BatchWake,
}

/// Handle to a running Thetacrypt node (router thread + worker pool).
pub struct NodeHandle {
    tx: Sender<RouterMsg>,
    join: Option<std::thread::JoinHandle<()>>,
    party: PartyId,
    obs: Arc<NodeObservability>,
    queue_depth: Arc<AtomicUsize>,
    queue_capacity: usize,
    overload_rejections: Arc<Counter>,
    drain: Duration,
}

impl NodeHandle {
    /// Submits a request; the returned [`PendingResult`] resolves when
    /// the Θ-network completes the instance at this node. Never refuses:
    /// use [`NodeHandle::try_submit`] for backpressure-aware admission.
    pub fn submit(&self, request: Request) -> PendingResult {
        let (reply_tx, reply_rx) = unbounded();
        self.queue_depth.fetch_add(1, Ordering::SeqCst);
        if self
            .tx
            .send(RouterMsg::Submit { request, reply: Subscriber::Channel(reply_tx) })
            .is_err()
        {
            // The router thread is gone; dropping the reply sender makes
            // the pending result report NodeStopped. Count it too.
            self.queue_depth.fetch_sub(1, Ordering::SeqCst);
            self.obs.registry.counter("theta_event_loop_errors_total").inc();
            self.obs.journal.record_detail(
                [0u8; 32],
                TraceEventKind::Error,
                "submit to a dead router thread",
            );
        }
        PendingResult { rx: reply_rx }
    }

    /// Backpressure-aware submission: refuses instead of queueing when
    /// the submission queue is at its configured bound.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Overloaded`] at the queue bound (counted in
    /// `theta_overload_rejections_total`); [`SubmitError::NodeStopped`]
    /// when the router is gone.
    pub fn try_submit(&self, request: Request) -> Result<PendingResult, SubmitError> {
        if self.queue_depth.load(Ordering::SeqCst) >= self.queue_capacity {
            self.overload_rejections.inc();
            return Err(SubmitError::Overloaded);
        }
        let (reply_tx, reply_rx) = unbounded();
        self.queue_depth.fetch_add(1, Ordering::SeqCst);
        if self
            .tx
            .send(RouterMsg::Submit { request, reply: Subscriber::Channel(reply_tx) })
            .is_err()
        {
            self.queue_depth.fetch_sub(1, Ordering::SeqCst);
            return Err(SubmitError::NodeStopped);
        }
        Ok(PendingResult { rx: reply_rx })
    }

    /// Backpressure-aware submission with a completion callback instead
    /// of a channel: `on_complete` runs exactly once, on the router
    /// thread, with the terminal result — including synthesized
    /// [`SchemeError::Shutdown`] results if the node stops first. This
    /// is the thread-free path the event-loop front-end uses: the
    /// callback posts to a completion queue and writes a wakeup byte,
    /// so no waiter thread ever parks on the result.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Overloaded`] at the queue bound (counted);
    /// [`SubmitError::NodeStopped`] when the router is gone. On either
    /// error the callback is dropped unrun — the refusal is the
    /// terminal answer.
    pub fn try_submit_with(
        &self,
        request: Request,
        on_complete: impl FnOnce(InstanceResult) + Send + 'static,
    ) -> Result<(), SubmitError> {
        if self.queue_depth.load(Ordering::SeqCst) >= self.queue_capacity {
            self.overload_rejections.inc();
            return Err(SubmitError::Overloaded);
        }
        let guard = NotifyGuard::new(request.instance_id(), Box::new(on_complete));
        self.queue_depth.fetch_add(1, Ordering::SeqCst);
        if let Err(SendError(msg)) =
            self.tx.send(RouterMsg::Submit { request, reply: Subscriber::Notify(guard) })
        {
            self.queue_depth.fetch_sub(1, Ordering::SeqCst);
            // Defuse before dropping: the synchronous NodeStopped below
            // is the caller's answer, the guard must not also fire.
            if let RouterMsg::Submit { reply: Subscriber::Notify(mut guard), .. } = msg {
                guard.defuse();
            }
            return Err(SubmitError::NodeStopped);
        }
        Ok(())
    }

    /// This node's party id.
    pub fn party(&self) -> PartyId {
        self.party
    }

    /// The node's observability bundle (metrics registry, trace journal,
    /// phase histograms) — what the service layer exposes over RPC.
    pub fn observability(&self) -> Arc<NodeObservability> {
        self.obs.clone()
    }

    /// Stops the node gracefully: live instances get up to
    /// `NodeConfig::shutdown_drain` to finish, then fail with
    /// [`SchemeError::Shutdown`]; every subscriber receives a terminal
    /// result either way.
    pub fn shutdown(mut self) {
        let _ = self.tx.send(RouterMsg::Shutdown { drain: self.drain });
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

impl Drop for NodeHandle {
    fn drop(&mut self) {
        // Fail-fast drain: no finish window, but subscribers still get
        // their Shutdown terminal results.
        let _ = self.tx.send(RouterMsg::Shutdown { drain: Duration::ZERO });
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

/// Spawns the router + worker pool for one node with a fresh
/// observability bundle.
pub fn spawn_node(keys: KeyChest, network: Box<dyn Network>, config: NodeConfig) -> NodeHandle {
    spawn_node_observed(keys, network, config, Arc::new(NodeObservability::new()))
}

/// Spawns the router + worker pool for one node, wiring the given
/// observability bundle through every layer.
pub fn spawn_node_observed(
    keys: KeyChest,
    network: Box<dyn Network>,
    config: NodeConfig,
    obs: Arc<NodeObservability>,
) -> NodeHandle {
    spawn_node_with_keys(Box::new(StaticKeys::new(keys)), network, config, obs)
}

/// Spawns the router + worker pool for one node with a dynamic
/// [`KeyProvider`] — the multi-tenant deployment mode, where the
/// provider loads tenant chests on demand.
pub fn spawn_node_with_keys(
    keys: Box<dyn KeyProvider>,
    mut network: Box<dyn Network>,
    config: NodeConfig,
    obs: Arc<NodeObservability>,
) -> NodeHandle {
    network.attach_registry(&obs.registry);
    network.attach_journal(&obs.journal);
    let (tx, rx) = unbounded::<RouterMsg>();
    let net_tx = tx.clone();
    network.set_event_sink(Box::new(move |event| {
        // Fails only once the router has exited; the event is moot then.
        let _ = net_tx.send(RouterMsg::Net(event));
    }));
    let party = PartyId(network.node_id());
    let queue_depth = Arc::new(AtomicUsize::new(0));
    let overload_rejections = obs
        .registry
        .counter(theta_metrics::observability::OVERLOAD_REJECTIONS_COUNTER);
    let queue_capacity = config.submission_queue_capacity;
    let drain = config.shutdown_drain;
    // Resolved before the router thread starts, so the router's counters
    // are in the node's exposition from the moment this returns.
    let metrics = RouterMetrics::resolve(&obs.registry);
    let thread_obs = obs.clone();
    let thread_depth = queue_depth.clone();
    let inbox_tx = tx.clone();
    let join = std::thread::Builder::new()
        .name(format!("theta-router-{}", party.value()))
        .spawn(move || {
            Router::new(keys, network, config, rx, inbox_tx, thread_obs, metrics, thread_depth)
                .run()
        })
        .expect("spawn router thread");
    NodeHandle {
        tx,
        join: Some(join),
        party,
        obs,
        queue_depth,
        queue_capacity,
        overload_rejections,
        drain,
    }
}

/// Router-side state for one live instance: everything *about* it, while
/// the protocol itself lives in the worker-owned host.
struct RouterEntry {
    slot: Arc<InstanceSlot>,
    subscribers: Vec<Subscriber>,
    started: Instant,
    deadline: Instant,
    /// Encoded envelopes of every P2P broadcast this instance has made,
    /// re-sent verbatim on retry (protocol `update`s are idempotent).
    p2p_history: Vec<Vec<u8>>,
    /// When the next re-broadcast fires (also validates heap entries).
    next_retry: Instant,
    /// Current backoff step (doubles per retry, capped).
    retry_backoff: Duration,
}

/// Registry counters the router touches, resolved once at startup so
/// hot paths never take the registry lock.
struct RouterMetrics {
    cache_hits: Arc<Counter>,
    dropped_malformed: Arc<Counter>,
    dropped_spoofed: Arc<Counter>,
    dropped_residual: Arc<Counter>,
    shares_rejected: Arc<Counter>,
    event_loop_errors: Arc<Counter>,
    shares_pruned: Arc<Counter>,
    eager_verifies: Arc<Counter>,
    shares_cross_batched: Arc<Counter>,
    shares_unread: Arc<Counter>,
    /// Returns from the router's blocking inbox wait — for a message or
    /// at its earliest deadline (instance expiry, P2P retry, batch age
    /// flush). One per loop iteration, each at most one thread wakeup;
    /// an idle router with no pending deadline adds none.
    wakeups: Arc<Counter>,
    /// Network events (P2P + TOB deliveries) handled.
    events_processed: Arc<Counter>,
    /// Local submissions handled.
    commands_processed: Arc<Counter>,
    /// P2P messages re-broadcast by the retry/backoff machinery.
    retries_sent: Arc<Counter>,
    /// Entries evicted from the bounded result cache (capacity or TTL).
    cache_evictions: Arc<Counter>,
    /// Protocol instances started at this node.
    instances_started: Arc<Counter>,
    /// Instances finished (success or failure, incl. timeouts).
    instances_completed: Arc<Counter>,
    /// Instances that hit their deadline before reaching quorum.
    instances_timed_out: Arc<Counter>,
}

impl RouterMetrics {
    fn resolve(registry: &MetricsRegistry) -> RouterMetrics {
        RouterMetrics {
            cache_hits: registry.counter("theta_cache_hits_total"),
            dropped_malformed: registry
                .counter_with("theta_messages_dropped_total", &[("reason", "malformed")]),
            dropped_spoofed: registry
                .counter_with("theta_messages_dropped_total", &[("reason", "spoofed")]),
            dropped_residual: registry
                .counter_with("theta_messages_dropped_total", &[("reason", "residual")]),
            shares_rejected: registry.counter("theta_shares_rejected_total"),
            event_loop_errors: registry.counter("theta_event_loop_errors_total"),
            shares_pruned: registry.counter("theta_shares_pruned_total"),
            eager_verifies: registry.counter("theta_share_verifications_eager_total"),
            shares_cross_batched: registry.counter("theta_shares_cross_batched_total"),
            shares_unread: registry.counter("theta_shares_unread_total"),
            wakeups: registry.counter("theta_event_loop_wakeups_total"),
            events_processed: registry.counter("theta_event_loop_events_total"),
            commands_processed: registry.counter("theta_event_loop_commands_total"),
            retries_sent: registry.counter("theta_event_loop_retries_total"),
            cache_evictions: registry.counter("theta_event_loop_cache_evictions_total"),
            instances_started: registry.counter("theta_instances_started_total"),
            instances_completed: registry.counter("theta_instances_completed_total"),
            instances_timed_out: registry.counter("theta_instances_timed_out_total"),
        }
    }
}

/// Pass-through hasher for the instances map: instance ids are already
/// 32 bytes of a cryptographic hash (uniformly distributed by
/// construction), so running them through SipHash again only burns
/// router-thread cycles on the per-message demux path. Folding the id's
/// 8-byte chunks with XOR preserves the distribution and costs four
/// word ops.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.0 ^= u64::from_le_bytes(word);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type InstanceMap = HashMap<InstanceId, RouterEntry, BuildHasherDefault<IdHasher>>;

fn resolve_worker_threads(configured: usize) -> usize {
    if configured > 0 {
        configured
    } else {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    }
}

struct Router {
    keys: Box<dyn KeyProvider>,
    network: Box<dyn Network>,
    config: NodeConfig,
    /// The router's one input: submissions, upcalls, network events and
    /// batch wakes, in arrival order.
    inbox: Receiver<RouterMsg>,
    queue_depth: Arc<AtomicUsize>,
    instances: InstanceMap,
    finished: ResultCache<InstanceResult>,
    /// Min-heap of `(deadline, id)` — lazily validated against the live
    /// instance on pop (an entry for a finished instance is skipped).
    expiry_heap: BinaryHeap<Reverse<(Instant, InstanceId)>>,
    /// Min-heap of `(retry-due, id)`, same lazy-validation discipline.
    retry_heap: BinaryHeap<Reverse<(Instant, InstanceId)>>,
    obs: Arc<NodeObservability>,
    metrics: RouterMetrics,
    pool_metrics: PoolMetrics,
    pool: WorkerPool,
    /// The node-wide cross-instance batch aggregator, shared with every
    /// worker. The router only triggers its age/shutdown flushes.
    agg: Arc<BatchAggregator>,
    /// Handed to each instance host for its upcalls.
    inbox_tx: Sender<RouterMsg>,
    /// Master RNG: only ever used to derive per-host seeds; all protocol
    /// randomness is drawn worker-side.
    rng: rand::rngs::StdRng,
}

impl Router {
    #[allow(clippy::too_many_arguments)] // construction site is single; a builder would be noise
    fn new(
        keys: Box<dyn KeyProvider>,
        network: Box<dyn Network>,
        config: NodeConfig,
        inbox: Receiver<RouterMsg>,
        inbox_tx: Sender<RouterMsg>,
        obs: Arc<NodeObservability>,
        metrics: RouterMetrics,
        queue_depth: Arc<AtomicUsize>,
    ) -> Self {
        let rng = match config.rng_seed {
            Some(seed) => rand::rngs::StdRng::seed_from_u64(seed),
            None => rand::rngs::StdRng::from_entropy(),
        };
        let finished = ResultCache::new(config.result_cache_capacity, config.result_cache_ttl);
        let workers = resolve_worker_threads(config.worker_threads);
        let pool_metrics = PoolMetrics::register(&obs.registry, workers);
        let wake_tx = inbox_tx.clone();
        let agg = Arc::new(BatchAggregator::new(
            config.batch_flush_size,
            config.batch_flush_age,
            Box::new(move || {
                let _ = wake_tx.send(RouterMsg::BatchWake);
            }),
        ));
        let pool = WorkerPool::spawn(workers, network.node_id(), &pool_metrics, agg.clone());
        Router {
            keys,
            network,
            config,
            inbox,
            queue_depth,
            instances: InstanceMap::default(),
            finished,
            expiry_heap: BinaryHeap::new(),
            retry_heap: BinaryHeap::new(),
            obs,
            metrics,
            pool_metrics,
            pool,
            agg,
            inbox_tx,
            rng,
        }
    }

    /// Counts a contained failure and records it in the trace journal —
    /// errors must be visible, never silently swallowed, never fatal.
    fn note_error(&self, instance: [u8; 32], detail: String) {
        self.metrics.event_loop_errors.inc();
        self.obs.journal.record_detail(instance, TraceEventKind::Error, detail);
    }

    /// Earliest pending deadline across both heaps and the aggregator's
    /// age flush, if any. Heap entries may be stale (their instance
    /// already finished) — a stale head only causes one early wakeup
    /// that pops and discards it. The age flush is absent while a flush
    /// is claimed; the aggregator sends a [`RouterMsg::BatchWake`] when
    /// that changes.
    fn next_deadline(&self) -> Option<Instant> {
        let expiry = self.expiry_heap.peek().map(|Reverse((t, _))| *t);
        let retry = self.retry_heap.peek().map(|Reverse((t, _))| *t);
        let flush = self.agg.next_age_flush();
        [expiry, retry, flush].into_iter().flatten().min()
    }

    /// Age-trigger service: when the oldest pending check has aged out
    /// and no flush is running, claim the duty and hand the settle to a
    /// worker — batch crypto never runs on the router thread.
    fn flush_if_aged(&mut self, now: Instant) {
        if self.agg.claim_if_aged(now) {
            let _ = self.pool.injector().send(PoolJob::Flush(FlushReason::Age));
        }
    }

    // theta: event-loop
    fn run(mut self) {
        loop {
            let deadline = self.next_deadline();
            // theta: allow(blocking): the router's one designated wait — every input arrives on this inbox and the deadline covers expiries, retries and the batch age flush
            let first = self.inbox.recv_deadline(deadline);
            // Stamped when the wait returns, so blocked time is excluded
            // and the router-busy counter measures the serial stage alone.
            let work_start = Instant::now();
            self.metrics.wakeups.inc();
            let mut stop = match first {
                Ok(msg) => self.handle(msg),
                Err(RecvTimeoutError::Timeout) => None,
                // Unreachable while the router holds `inbox_tx`; stop
                // rather than spin if it ever happens.
                Err(RecvTimeoutError::Disconnected) => Some(Duration::ZERO),
            };
            // Drain a bounded batch per wakeup: cheaper than one blocking
            // round-trip per message, but timers still run regularly.
            for _ in 1..EVENT_BATCH {
                if stop.is_some() {
                    break;
                }
                match self.inbox.try_recv() {
                    Ok(msg) => stop = self.handle(msg),
                    Err(_) => break,
                }
            }
            if let Some(drain) = stop {
                self.shutdown(drain);
                return;
            }
            let now = Instant::now();
            self.expire_instances(now);
            self.retry_due(now);
            self.flush_if_aged(now);
            self.pool_metrics.router_busy_nanos.add(work_start.elapsed().as_nanos() as u64);
        }
    }

    /// Applies one inbox message; `Some(drain)` asks the loop to stop.
    fn handle(&mut self, msg: RouterMsg) -> Option<Duration> {
        match msg {
            RouterMsg::Submit { request, reply } => {
                self.queue_depth.fetch_sub(1, Ordering::SeqCst);
                self.pool_metrics
                    .submission_queue_depth
                    .set(self.queue_depth.load(Ordering::SeqCst) as i64);
                self.metrics.commands_processed.inc();
                self.handle_submit(request, reply);
            }
            RouterMsg::Shutdown { drain } => return Some(drain),
            RouterMsg::Upcall(upcall) => self.handle_upcall(upcall),
            RouterMsg::Net(event) => {
                // Counted *before* handling — completions notify
                // subscribers who may read the counters.
                self.metrics.events_processed.inc();
                self.handle_network_event(event);
            }
            // The loop re-reads the aggregator's deadline next.
            RouterMsg::BatchWake => {}
        }
        None
    }

    /// Drain phase: give live instances up to `drain` to finish (network
    /// and upcall processing keep running), then fail the remainder with
    /// [`SchemeError::Shutdown`] so every subscriber gets a terminal
    /// result. Dropping `self` afterwards stops and joins the workers.
    // theta: event-loop
    fn shutdown(&mut self, drain: Duration) {
        let deadline = Instant::now() + drain;
        // Settle whatever the aggregator holds so draining instances
        // whose checks are parked there can still reach quorum.
        if self.agg.claim_for_shutdown() {
            let _ = self.pool.injector().send(PoolJob::Flush(FlushReason::Shutdown));
        }
        while !self.instances.is_empty() && Instant::now() < deadline {
            let wake = self.next_deadline().map_or(deadline, |t| t.min(deadline));
            // theta: allow(blocking): the drain phase's designated wait on the same single inbox, bounded by the drain deadline
            match self.inbox.recv_deadline(Some(wake)) {
                // Only the handle submits, and the handle is gone or
                // shutting down. Dropping a reply still answers it
                // (NodeStopped for a channel, Shutdown for a callback).
                Ok(RouterMsg::Submit { .. } | RouterMsg::Shutdown { .. }) => {}
                Ok(msg) => {
                    let _ = self.handle(msg);
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
            let now = Instant::now();
            self.expire_instances(now);
            self.retry_due(now);
            // Checks deferred *during* the drain still need settling.
            self.flush_if_aged(now);
        }
        let leftover: Vec<InstanceId> = self.instances.keys().copied().collect();
        for id in leftover {
            self.finish_instance(id, Err(SchemeError::Shutdown), None);
        }
    }

    fn handle_submit(&mut self, request: Request, reply: Subscriber) {
        let id = request.instance_id();
        if let Some(done) = self.finished.get(&id, Instant::now()) {
            self.metrics.cache_hits.inc();
            self.obs.journal.record(id.0, TraceEventKind::CacheHit);
            if reply.deliver(done.clone()).is_err() {
                self.note_error(id.0, "cache-hit reply channel closed".into());
            }
            return;
        }
        if let Some(entry) = self.instances.get_mut(&id) {
            entry.subscribers.push(reply);
            return;
        }
        if self.instances.len() >= self.config.max_inflight_instances {
            // Admission control: refuse rather than buffer without bound.
            self.pool_metrics.overload_rejections.inc();
            self.obs.journal.record_detail(
                id.0,
                TraceEventKind::InstanceFailed,
                "refused: live-instance cap reached",
            );
            if reply
                .deliver(InstanceResult {
                    instance: id,
                    outcome: Err(SchemeError::Overloaded),
                    elapsed: Duration::ZERO,
                })
                .is_err()
            {
                self.note_error(id.0, "overloaded reply channel closed".into());
            }
            return;
        }
        match self.start_instance(&request) {
            Ok(()) => {
                // The start is asynchronous (the first round runs on a
                // worker), so the entry is guaranteed still live here.
                if let Some(entry) = self.instances.get_mut(&id) {
                    entry.subscribers.push(reply);
                }
            }
            Err(err) => {
                self.obs.journal.record_detail(
                    id.0,
                    TraceEventKind::InstanceFailed,
                    format!("{err:?}"),
                );
                if reply
                    .deliver(InstanceResult {
                        instance: id,
                        outcome: Err(err),
                        elapsed: Duration::ZERO,
                    })
                    .is_err()
                {
                    self.note_error(id.0, "reply channel closed".into());
                }
            }
        }
    }

    fn build_protocol(
        &mut self,
        request: &Request,
    ) -> Result<Box<dyn ThresholdRoundProtocol>, SchemeError> {
        let malformed = |e: theta_codec::CodecError| SchemeError::Malformed(e.to_string());
        // A scoped request resolves its tenant chest through the key
        // provider, then builds the inner operation against it; plain
        // requests resolve the default chest the same way.
        let inner = match request {
            Request::Scoped { inner, .. } => &**inner,
            plain => plain,
        };
        let shared = self.keys.chest(request.keyref())?;
        let mut chest = shared.lock().unwrap_or_else(|e| e.into_inner());
        match inner {
            Request::Sg02Decrypt(bytes) => {
                let key = chest.sg02.clone().ok_or_else(|| {
                    SchemeError::KeyMismatch("no sg02 key provisioned".into())
                })?;
                let ct = theta_schemes::sg02::Ciphertext::decoded(bytes).map_err(malformed)?;
                Ok(Box::new(OneRoundProtocol::new_pooled(Sg02Decrypt::new(key, ct))))
            }
            Request::Bz03Decrypt(bytes) => {
                let key = chest.bz03.clone().ok_or_else(|| {
                    SchemeError::KeyMismatch("no bz03 key provisioned".into())
                })?;
                let ct = theta_schemes::bz03::Ciphertext::decoded(bytes).map_err(malformed)?;
                Ok(Box::new(OneRoundProtocol::new_pooled(Bz03Decrypt::new(key, ct))))
            }
            Request::Sh00Sign(message) => {
                let key = chest.sh00.clone().ok_or_else(|| {
                    SchemeError::KeyMismatch("no sh00 key provisioned".into())
                })?;
                Ok(Box::new(OneRoundProtocol::new_pooled(Sh00Sign::new(key, message.clone()))))
            }
            Request::Bls04Sign(message) => {
                let key = chest.bls04.clone().ok_or_else(|| {
                    SchemeError::KeyMismatch("no bls04 key provisioned".into())
                })?;
                Ok(Box::new(OneRoundProtocol::new_pooled(Bls04Sign::new(key, message.clone()))))
            }
            Request::Kg20Sign(message) => {
                let key = chest.kg20.clone().ok_or_else(|| {
                    SchemeError::KeyMismatch("no kg20 key provisioned".into())
                })?;
                // The stock is empty unless the node was provisioned
                // with precomputed nonces.
                Ok(Box::new(match chest.kg20_nonces.pop_front() {
                    Some(n) => Kg20Sign::with_precomputed_nonce(key, message.clone(), n),
                    None => Kg20Sign::new(key, message.clone()),
                }))
            }
            Request::Cks05Coin(name) => {
                let key = chest.cks05.clone().ok_or_else(|| {
                    SchemeError::KeyMismatch("no cks05 key provisioned".into())
                })?;
                Ok(Box::new(OneRoundProtocol::new_pooled(Cks05Coin::new(key, name.clone()))))
            }
            Request::Scoped { .. } => {
                // Unreachable by construction (depth-one invariant), but
                // fail closed rather than recurse.
                Err(SchemeError::InvalidParameters("nested scoped request".into()))
            }
        }
    }

    /// Builds the protocol (cheap: key clones and decoding, no crypto),
    /// registers the instance and hands its first round to the pool.
    fn start_instance(&mut self, request: &Request) -> Result<(), SchemeError> {
        let id = request.instance_id();
        let protocol = self.build_protocol(request)?;
        let driver = ProtocolDriver::new(protocol);
        // Each host gets a private RNG seeded off the master: protocol
        // randomness is drawn worker-side, never on the router.
        let host_rng = rand::rngs::StdRng::seed_from_u64(self.rng.next_u64());
        let host = InstanceHost::new(
            id,
            driver,
            request.clone(),
            self.network.node_id(),
            host_rng,
            self.obs.clone(),
            self.metrics.shares_rejected.clone(),
            self.inbox_tx.clone(),
        );
        let slot = Arc::new(InstanceSlot::new(id, self.config.mailbox_capacity, host));
        let now = Instant::now();
        let deadline = now + self.config.instance_timeout;
        let next_retry = now + self.config.retry_initial_backoff;
        self.instances.insert(
            id,
            RouterEntry {
                slot: slot.clone(),
                subscribers: Vec::new(),
                started: now,
                deadline,
                p2p_history: Vec::new(),
                next_retry,
                retry_backoff: self.config.retry_initial_backoff,
            },
        );
        self.expiry_heap.push(Reverse((deadline, id)));
        self.retry_heap.push(Reverse((next_retry, id)));
        self.pool_metrics.inflight_instances.set(self.instances.len() as i64);
        // Counter and journal stay in lockstep: every counted start has
        // an `InstanceStarted` journal entry and vice versa.
        self.metrics.instances_started.inc();
        self.obs.journal.record(id.0, TraceEventKind::InstanceStarted);
        // A fresh mailbox can always take its Start message.
        let scheduled =
            schedule(&slot, self.pool.injector(), &self.pool_metrics, HostMsg::Start);
        debug_assert!(scheduled.is_ok(), "fresh mailbox refused Start");
        Ok(())
    }

    // theta: entrypoint(network)
    fn handle_network_event(&mut self, event: NetworkEvent) {
        let (from, payload) = match event {
            NetworkEvent::P2p { from, payload } => (from, payload),
            NetworkEvent::Tob { from, payload, .. } => (from, payload),
        };
        // Route by the leading 32-byte instance id before decoding the
        // whole envelope — residual traffic for finished instances is
        // the post-quorum common case and costs only this peek.
        let Some(key) = demux::peek_key(&payload) else {
            self.metrics.dropped_malformed.inc();
            self.obs.journal.record_full(
                [0u8; 32],
                TraceEventKind::MessageDropped,
                from,
                "malformed envelope".into(),
            );
            return;
        };
        let id = InstanceId(key);
        if self.finished.contains(&id, Instant::now()) {
            // Residual message for a completed request — normal traffic
            // past quorum; counted but not journaled per-message.
            self.metrics.dropped_residual.inc();
            return;
        }
        let Ok(envelope) = Envelope::decoded(&payload) else {
            // Malformed traffic is dropped — but counted and journaled.
            self.metrics.dropped_malformed.inc();
            self.obs.journal.record_full(
                id.0,
                TraceEventKind::MessageDropped,
                from,
                "malformed envelope".into(),
            );
            return;
        };
        debug_assert_eq!(envelope.instance, id, "demux key disagrees with envelope");
        if envelope.sender != from {
            // Spoofed sender field. This applies to TOB deliveries too:
            // the transport stamps `from` with the authenticated
            // submitter, so a mismatching envelope is an impersonation
            // attempt (a peer trying to inject shares as someone else).
            self.metrics.dropped_spoofed.inc();
            self.obs.journal.record_full(
                id.0,
                TraceEventKind::MessageDropped,
                from,
                format!("spoofed sender {} != {}", envelope.sender, from),
            );
            return;
        }
        if !self.instances.contains_key(&id) {
            // First contact: start our own instance from the embedded
            // request (validates against our keys).
            if envelope.request.instance_id() != id {
                self.metrics.dropped_spoofed.inc();
                self.obs.journal.record_full(
                    id.0,
                    TraceEventKind::MessageDropped,
                    from,
                    "embedded request does not hash to instance id".into(),
                );
                return;
            }
            if self.instances.len() >= self.config.max_inflight_instances {
                self.pool_metrics.overload_rejections.inc();
                self.obs.journal.record_full(
                    id.0,
                    TraceEventKind::MessageDropped,
                    from,
                    "refused first contact: live-instance cap reached".into(),
                );
                return;
            }
            if let Err(err) = self.start_instance(&envelope.request) {
                self.note_error(
                    id.0,
                    format!("instance start on first contact failed: {err:?}"),
                );
                return;
            }
        }
        // TOB self-deliveries carry our own messages back; skip those.
        if envelope.sender == self.network.node_id() {
            return;
        }
        let inbound = InboundMessage {
            sender: PartyId(envelope.sender),
            round: envelope.round,
            payload: envelope.payload,
        };
        if let Some(entry) = self.instances.get(&id) {
            if schedule(
                &entry.slot,
                self.pool.injector(),
                &self.pool_metrics,
                HostMsg::Deliver { from, inbound },
            )
            .is_err()
            {
                // Mailbox full (or closing): drop and count. P2P
                // retransmission re-delivers protocol traffic later.
                self.pool_metrics.mailbox_dropped.inc();
                self.obs.journal.record_full(
                    id.0,
                    TraceEventKind::MessageDropped,
                    from,
                    "instance mailbox full".into(),
                );
            }
        }
    }

    fn handle_upcall(&mut self, upcall: Upcall) {
        match upcall {
            Upcall::Broadcast { id, p2p, tob } => {
                // The entry is gone when the instance timed out or shut
                // down between the worker's send and now; drop silently.
                let Some(entry) = self.instances.get_mut(&id) else { return };
                for bytes in p2p {
                    self.network.broadcast_p2p(bytes.clone());
                    entry.p2p_history.push(bytes);
                }
                for bytes in tob {
                    self.network.submit_tob(bytes);
                }
            }
            Upcall::Finished { id, outcome, stats } => {
                self.finish_instance(id, outcome, Some(stats));
            }
        }
    }

    fn finish_instance(
        &mut self,
        id: InstanceId,
        outcome: Result<ProtocolOutput, SchemeError>,
        stats: Option<theta_protocols::ProtocolStats>,
    ) {
        let Some(entry) = self.instances.remove(&id) else { return };
        // Close the mailbox: the worker discards residual work and late
        // pushes fail fast.
        entry.slot.mailbox.close();
        self.pool_metrics.inflight_instances.set(self.instances.len() as i64);
        if let Some(stats) = stats {
            // Fold the protocol's verification stats into the registry
            // now that the instance is final.
            self.metrics.shares_pruned.add(stats.shares_pruned);
            self.metrics.eager_verifies.add(stats.eager_verifies);
            self.metrics.shares_cross_batched.add(stats.cross_batched);
            self.metrics.shares_unread.add(stats.shares_unread);
        }
        let result = InstanceResult { instance: id, outcome, elapsed: entry.started.elapsed() };
        // Account and cache *before* notifying: a subscriber thread may
        // inspect counters the moment its result arrives.
        self.metrics.instances_completed.inc();
        // The e2e histogram records *every* finish (success, failure,
        // timeout), mirroring `instances_completed` semantics.
        self.obs.phases.e2e.record(result.elapsed);
        match &result.outcome {
            Ok(_) => self.obs.journal.record(id.0, TraceEventKind::ResultDelivered),
            Err(err) => self.obs.journal.record_detail(
                id.0,
                TraceEventKind::InstanceFailed,
                format!("{err:?}"),
            ),
        }
        let evicted = self.finished.insert(id, result.clone(), Instant::now());
        self.metrics.cache_evictions.add(evicted);
        for sub in entry.subscribers {
            if sub.deliver(result.clone()).is_err() {
                self.note_error(
                    id.0,
                    "subscriber channel closed before result delivery".into(),
                );
            }
        }
        // Heap entries for `id` are now stale; pops skip them.
    }

    /// Pops every due expiry deadline and fails the instances that are
    /// still live, with the real timeout error (subscribers see exactly
    /// what the cache later serves).
    fn expire_instances(&mut self, now: Instant) {
        while let Some(&Reverse((due, id))) = self.expiry_heap.peek() {
            if due > now {
                break;
            }
            self.expiry_heap.pop();
            let still_live = self
                .instances
                .get(&id)
                .is_some_and(|entry| entry.deadline <= now);
            if !still_live {
                continue; // finished already, or a stale entry
            }
            self.metrics.instances_timed_out.inc();
            self.obs.journal.record(id.0, TraceEventKind::InstanceTimedOut);
            // The host may still hold the protocol; closing the mailbox
            // (in finish) makes the worker drop it. A late Finished
            // upcall for this id is ignored via the registry miss.
            self.finish_instance(
                id,
                Err(SchemeError::InvalidShareSet(
                    "instance timed out before reaching quorum".into(),
                )),
                None,
            );
        }
    }

    /// Pops every due retry deadline, re-broadcasts that instance's P2P
    /// history and reschedules it with doubled (capped) backoff.
    fn retry_due(&mut self, now: Instant) {
        while let Some(&Reverse((due, id))) = self.retry_heap.peek() {
            if due > now {
                break;
            }
            self.retry_heap.pop();
            let Some(entry) = self.instances.get_mut(&id) else {
                continue; // instance finished; stale entry
            };
            if entry.next_retry > now {
                continue; // superseded by a newer schedule
            }
            let resend: Vec<Vec<u8>> = entry.p2p_history.clone();
            entry.retry_backoff = (entry.retry_backoff * 2).min(self.config.retry_max_backoff);
            entry.next_retry = now + entry.retry_backoff;
            let next = entry.next_retry;
            if !resend.is_empty() {
                self.obs.journal.record_detail(
                    id.0,
                    TraceEventKind::RetryBroadcast,
                    format!("{} message(s)", resend.len()),
                );
            }
            for bytes in resend {
                self.network.broadcast_p2p(bytes);
                self.metrics.retries_sent.inc();
            }
            self.retry_heap.push(Reverse((next, id)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use theta_codec::Encode;
    use theta_network::inmemory::{InMemoryConfig, InMemoryHub};
    use theta_schemes::ThresholdParams;

    fn seeded() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0x0a0a)
    }

    fn build_network(n: u16) -> (InMemoryHub, Vec<Box<dyn Network>>) {
        let (hub, nodes) = InMemoryHub::build(n, InMemoryConfig::default());
        let boxed = nodes
            .into_iter()
            .map(|n| Box::new(n) as Box<dyn Network>)
            .collect();
        (hub, boxed)
    }

    fn full_chests(t: u16, n: u16, r: &mut rand::rngs::StdRng) -> Vec<KeyChest> {
        let params = ThresholdParams::new(t, n).unwrap();
        let (_, sg02) = theta_schemes::sg02::keygen(params, r);
        let (_, bls04) = theta_schemes::bls04::keygen(params, r);
        let (_, cks05) = theta_schemes::cks05::keygen(params, r);
        let (_, kg20) = theta_schemes::kg20::keygen(params, r);
        let mut chests: Vec<KeyChest> = (0..n).map(|_| KeyChest::new()).collect();
        for (i, chest) in chests.iter_mut().enumerate() {
            chest.sg02 = Some(sg02[i].clone());
            chest.bls04 = Some(bls04[i].clone());
            chest.cks05 = Some(cks05[i].clone());
            chest.kg20 = Some(kg20[i].clone());
        }
        chests
    }

    fn spawn_all(chests: Vec<KeyChest>, nets: Vec<Box<dyn Network>>) -> Vec<NodeHandle> {
        chests
            .into_iter()
            .zip(nets)
            .map(|(chest, net)| {
                spawn_node(
                    chest,
                    net,
                    NodeConfig { instance_timeout: Duration::from_secs(10), ..Default::default() },
                )
            })
            .collect()
    }

    const WAIT: Duration = Duration::from_secs(15);

    /// Current value of one of the node's unlabelled registry counters.
    fn counter(h: &NodeHandle, name: &str) -> u64 {
        h.observability().registry.counter_value(name, &[]).expect("counter registered")
    }

    #[test]
    fn coin_request_end_to_end() {
        let mut r = seeded();
        let (_hub, nets) = build_network(4);
        let handles = spawn_all(full_chests(1, 4, &mut r), nets);
        let pending: Vec<PendingResult> = handles
            .iter()
            .map(|h| h.submit(Request::Cks05Coin(b"round-1".to_vec())))
            .collect();
        let mut outputs = Vec::new();
        for p in pending {
            let result = p.wait_timeout(WAIT).expect("completion");
            outputs.push(result.outcome.expect("coin value"));
        }
        for o in &outputs[1..] {
            assert_eq!(*o, outputs[0]);
        }
        // Every node started, completed and accounted for the instance.
        for h in &handles {
            assert_eq!(counter(h, "theta_instances_started_total"), 1);
            assert_eq!(counter(h, "theta_instances_completed_total"), 1);
            assert_eq!(counter(h, "theta_instances_timed_out_total"), 0);
            assert!(counter(h, "theta_event_loop_events_total") >= 1);
        }
    }

    #[test]
    fn bls_sign_only_quorum_submits() {
        // Only 2 of 4 applications ask; shares from all 4 nodes are not
        // needed — but only submitting nodes *start* instances, so the
        // other two nodes join on first contact via the envelope request.
        let mut r = seeded();
        let (_hub, nets) = build_network(4);
        let handles = spawn_all(full_chests(1, 4, &mut r), nets);
        let p0 = handles[0].submit(Request::Bls04Sign(b"block".to_vec()));
        let p2 = handles[2].submit(Request::Bls04Sign(b"block".to_vec()));
        let r0 = p0.wait_timeout(WAIT).expect("node 1 result");
        let r2 = p2.wait_timeout(WAIT).expect("node 3 result");
        assert_eq!(r0.outcome.unwrap(), r2.outcome.unwrap());
    }

    #[test]
    fn kg20_two_round_through_router() {
        let mut r = seeded();
        let (_hub, nets) = build_network(3);
        let handles = spawn_all(full_chests(0, 3, &mut r), nets);
        let pending: Vec<PendingResult> = handles
            .iter()
            .map(|h| h.submit(Request::Kg20Sign(b"frost via router".to_vec())))
            .collect();
        for p in pending {
            let result = p.wait_timeout(WAIT).expect("completion");
            let out = result.outcome.expect("signature");
            assert!(matches!(out, ProtocolOutput::Signature(_)));
        }
    }

    #[test]
    fn duplicate_submission_attaches_to_same_instance() {
        let mut r = seeded();
        let (_hub, nets) = build_network(4);
        let handles = spawn_all(full_chests(1, 4, &mut r), nets);
        for h in &handles[1..] {
            let _ = h.submit(Request::Cks05Coin(b"dup".to_vec()));
        }
        let first = handles[0].submit(Request::Cks05Coin(b"dup".to_vec()));
        let second = handles[0].submit(Request::Cks05Coin(b"dup".to_vec()));
        let a = first.wait_timeout(WAIT).unwrap();
        let b = second.wait_timeout(WAIT).unwrap();
        assert_eq!(a.outcome.unwrap(), b.outcome.unwrap());
        assert_eq!(a.instance, b.instance);
    }

    #[test]
    fn missing_key_fails_fast() {
        let (_hub, mut nets) = build_network(1);
        let handle = spawn_node(KeyChest::new(), nets.pop().unwrap(), NodeConfig::default());
        let pending = handle.submit(Request::Bls04Sign(b"x".to_vec()));
        let result = pending.wait_timeout(Duration::from_secs(5)).expect("fast failure");
        assert!(matches!(result.outcome, Err(SchemeError::KeyMismatch(_))));
    }

    #[test]
    fn crash_tolerance_with_t_failures() {
        // 4 nodes, t = 1: isolate one node; the other 3 still decrypt.
        let mut r = seeded();
        let (hub, nets) = build_network(4);
        let params = ThresholdParams::new(1, 4).unwrap();
        let (pk, sg02_keys) = theta_schemes::sg02::keygen(params, &mut r);
        let mut chests: Vec<KeyChest> = (0..4).map(|_| KeyChest::new()).collect();
        for (i, chest) in chests.iter_mut().enumerate() {
            chest.sg02 = Some(sg02_keys[i].clone());
        }
        let handles = spawn_all(chests, nets);
        hub.isolate_node(4, true);
        let ct = theta_schemes::sg02::encrypt(&pk, b"l", b"crash test", &mut r);
        let pending: Vec<PendingResult> = handles[..3]
            .iter()
            .map(|h| h.submit(Request::Sg02Decrypt(theta_codec::Encode::encoded(&ct))))
            .collect();
        for p in pending {
            let result = p.wait_timeout(WAIT).expect("completion despite crash");
            assert_eq!(
                result.outcome.unwrap(),
                ProtocolOutput::Plaintext(b"crash test".to_vec())
            );
        }
    }

    #[test]
    fn timeout_reported_when_quorum_unreachable() {
        // 4 nodes, t = 2 (quorum 3), but only 2 nodes are reachable.
        let mut r = seeded();
        let (hub, nets) = build_network(4);
        let params = ThresholdParams::new(2, 4).unwrap();
        let (pk, keys) = theta_schemes::sg02::keygen(params, &mut r);
        let mut chests: Vec<KeyChest> = (0..4).map(|_| KeyChest::new()).collect();
        for (i, chest) in chests.iter_mut().enumerate() {
            chest.sg02 = Some(keys[i].clone());
        }
        let handles: Vec<NodeHandle> = chests
            .into_iter()
            .zip(nets)
            .map(|(chest, net)| {
                spawn_node(
                    chest,
                    net,
                    NodeConfig {
                        instance_timeout: Duration::from_millis(500),
                        ..Default::default()
                    },
                )
            })
            .collect();
        hub.isolate_node(3, true);
        hub.isolate_node(4, true);
        let ct = theta_schemes::sg02::encrypt(&pk, b"l", b"unreachable", &mut r);
        let pending = handles[0].submit(Request::Sg02Decrypt(theta_codec::Encode::encoded(&ct)));
        let result = pending.wait_timeout(WAIT).expect("timeout result");
        // Subscribers must see the real timeout error, not a placeholder
        // finished-then-retagged variant.
        match result.outcome {
            Err(SchemeError::InvalidShareSet(msg)) => {
                assert!(
                    msg.contains("timed out before reaching quorum"),
                    "unexpected message: {msg}"
                );
            }
            other => panic!("expected the timeout error, got {other:?}"),
        }
        assert_eq!(counter(&handles[0], "theta_instances_timed_out_total"), 1);
    }

    #[test]
    fn idle_router_does_not_spin() {
        // With no instances and no traffic, the loop must block on its
        // inbox rather than busy-poll: the wakeup counter stays flat.
        let (_hub, mut nets) = build_network(1);
        let handle = spawn_node(KeyChest::new(), nets.pop().unwrap(), NodeConfig::default());
        std::thread::sleep(Duration::from_millis(200));
        let before = counter(&handle, "theta_event_loop_wakeups_total");
        std::thread::sleep(Duration::from_millis(500));
        let after = counter(&handle, "theta_event_loop_wakeups_total");
        assert!(
            after - before <= 2,
            "idle loop woke {} times in 500 ms",
            after - before
        );
    }

    #[test]
    fn result_cache_eviction_gets_fresh_instance() {
        // Capacity-1 cache: finishing coin "b" evicts coin "a"'s result.
        // Re-submitting "a" must run a *fresh* instance (not serve a stale
        // or missing entry) and, the coin being deterministic, reproduce
        // the same value.
        let mut r = seeded();
        let (_hub, mut nets) = build_network(1);
        let params = ThresholdParams::new(0, 1).unwrap();
        let (_, keys) = theta_schemes::cks05::keygen(params, &mut r);
        let mut chest = KeyChest::new();
        chest.cks05 = Some(keys[0].clone());
        let handle = spawn_node(
            chest,
            nets.pop().unwrap(),
            NodeConfig { result_cache_capacity: 1, ..Default::default() },
        );
        let first = handle
            .submit(Request::Cks05Coin(b"a".to_vec()))
            .wait_timeout(WAIT)
            .expect("first run");
        let _ = handle
            .submit(Request::Cks05Coin(b"b".to_vec()))
            .wait_timeout(WAIT)
            .expect("second run evicts the first");
        let again = handle
            .submit(Request::Cks05Coin(b"a".to_vec()))
            .wait_timeout(WAIT)
            .expect("fresh re-run after eviction");
        assert_eq!(first.outcome.unwrap(), again.outcome.unwrap());
        assert_eq!(
            counter(&handle, "theta_instances_started_total"),
            3,
            "evicted result must be recomputed"
        );
        assert!(counter(&handle, "theta_event_loop_cache_evictions_total") >= 2);
    }

    #[test]
    fn duplicate_submit_within_cache_serves_cached_result() {
        let mut r = seeded();
        let (_hub, mut nets) = build_network(1);
        let params = ThresholdParams::new(0, 1).unwrap();
        let (_, keys) = theta_schemes::cks05::keygen(params, &mut r);
        let mut chest = KeyChest::new();
        chest.cks05 = Some(keys[0].clone());
        let handle = spawn_node(chest, nets.pop().unwrap(), NodeConfig::default());
        let first = handle
            .submit(Request::Cks05Coin(b"cached".to_vec()))
            .wait_timeout(WAIT)
            .expect("first run");
        let again = handle
            .submit(Request::Cks05Coin(b"cached".to_vec()))
            .wait_timeout(WAIT)
            .expect("cache hit");
        assert_eq!(first.outcome.unwrap(), again.outcome.unwrap());
        assert_eq!(
            counter(&handle, "theta_instances_started_total"),
            1,
            "second submit is a cache hit"
        );
    }

    #[test]
    fn spoofed_sender_is_dropped_even_via_tob() {
        // An envelope whose claimed sender disagrees with the transport's
        // authenticated `from` must be ignored on the TOB path too (the
        // seed only checked P2P). If it were accepted, the receiving node
        // would start an instance for the embedded request.
        let mut r = seeded();
        let params = ThresholdParams::new(1, 2).unwrap();
        let (_, keys) = theta_schemes::cks05::keygen(params, &mut r);
        let (_hub, mut nets) = build_network(2);
        let injector = nets.remove(0); // raw handle for node 1, no router
        let mut chest = KeyChest::new();
        chest.cks05 = Some(keys[1].clone());
        let handle = spawn_node(chest, nets.pop().unwrap(), NodeConfig::default());

        let request = Request::Cks05Coin(b"spoof-tob".to_vec());
        let spoofed = Envelope {
            instance: request.instance_id(),
            request: request.clone(),
            round: 1,
            sender: 7, // does not match the true submitter (node 1)
            payload: vec![1, 2, 3],
        };
        injector.submit_tob(spoofed.encoded());
        std::thread::sleep(Duration::from_millis(300));
        assert_eq!(
            counter(&handle, "theta_instances_started_total"),
            0,
            "spoofed TOB envelope must not start an instance"
        );

        // The honest version of the same message is accepted.
        let honest = Envelope {
            instance: request.instance_id(),
            request,
            round: 1,
            sender: 1,
            payload: vec![1, 2, 3],
        };
        injector.submit_tob(honest.encoded());
        std::thread::sleep(Duration::from_millis(300));
        assert_eq!(counter(&handle, "theta_instances_started_total"), 1);
    }

    #[test]
    fn retries_rebroadcast_p2p_history() {
        // Partition node 2 while node 1 starts a coin; the share is lost.
        // Heal the partition: the retry machinery must re-deliver node
        // 1's share so node 2 (which hears of the instance only through
        // the retry) completes — and both agree.
        let mut r = seeded();
        let params = ThresholdParams::new(1, 2).unwrap();
        let (_, keys) = theta_schemes::cks05::keygen(params, &mut r);
        let (hub, nets) = build_network(2);
        let handles: Vec<NodeHandle> = keys
            .iter()
            .zip(nets)
            .map(|(key, net)| {
                let mut chest = KeyChest::new();
                chest.cks05 = Some(key.clone());
                spawn_node(
                    chest,
                    net,
                    NodeConfig {
                        retry_initial_backoff: Duration::from_millis(100),
                        ..Default::default()
                    },
                )
            })
            .collect();
        hub.isolate_node(2, true);
        let pending = handles[0].submit(Request::Cks05Coin(b"retry me".to_vec()));
        std::thread::sleep(Duration::from_millis(250));
        hub.isolate_node(2, false);
        let result = pending.wait_timeout(WAIT).expect("completion after heal");
        assert!(result.outcome.is_ok());
        assert!(
            counter(&handles[0], "theta_event_loop_retries_total") >= 1,
            "node 1 must have re-broadcast its share"
        );
    }

    // ------------------------------------------------------------------
    // Router/worker-pool specific coverage.
    // ------------------------------------------------------------------

    #[test]
    fn crypto_runs_on_worker_threads_not_router() {
        // The InstanceHost debug-asserts it never executes on a thread
        // named `theta-router-*`; completing an instance under
        // debug_assertions therefore proves the split. The per-worker
        // busy histogram proves work actually reached the pool.
        let mut r = seeded();
        let (_hub, mut nets) = build_network(1);
        let params = ThresholdParams::new(0, 1).unwrap();
        let (_, keys) = theta_schemes::cks05::keygen(params, &mut r);
        let mut chest = KeyChest::new();
        chest.cks05 = Some(keys[0].clone());
        let handle = spawn_node(
            chest,
            nets.pop().unwrap(),
            NodeConfig { worker_threads: 2, ..Default::default() },
        );
        let result = handle
            .submit(Request::Cks05Coin(b"threads".to_vec()))
            .wait_timeout(WAIT)
            .expect("completion");
        assert!(result.outcome.is_ok());
        // The worker records its busy time *after* the host delivers the
        // terminal result (the histogram write is deliberately off the
        // result path), so poll briefly instead of reading once.
        let obs = handle.observability();
        let busy_total = || -> u64 {
            (0..2)
                .map(|w| {
                    obs.registry
                        .histogram_snapshot(
                            theta_metrics::observability::WORKER_BUSY_HISTOGRAM,
                            &[("worker", &w.to_string())],
                        )
                        .map_or(0, |s| s.count())
                })
                .sum()
        };
        let deadline = std::time::Instant::now() + WAIT;
        while busy_total() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(busy_total() >= 1, "no worker recorded busy time — crypto ran elsewhere?");
    }

    #[test]
    fn overloaded_submission_is_refused_not_queued() {
        // Two isolated nodes (instances can never finish) and a cap of 2:
        // the third distinct submission must be refused with Overloaded.
        let mut r = seeded();
        let params = ThresholdParams::new(1, 2).unwrap();
        let (_, keys) = theta_schemes::cks05::keygen(params, &mut r);
        let (hub, mut nets) = build_network(2);
        hub.isolate_node(1, true);
        let mut chest = KeyChest::new();
        chest.cks05 = Some(keys[0].clone());
        let handle = spawn_node(
            chest,
            nets.remove(0),
            NodeConfig {
                max_inflight_instances: 2,
                instance_timeout: Duration::from_secs(30),
                ..Default::default()
            },
        );
        let _a = handle.submit(Request::Cks05Coin(b"a".to_vec()));
        let _b = handle.submit(Request::Cks05Coin(b"b".to_vec()));
        let c = handle.submit(Request::Cks05Coin(b"c".to_vec()));
        let refused = c.wait_timeout(Duration::from_secs(5)).expect("immediate refusal");
        assert_eq!(refused.outcome, Err(SchemeError::Overloaded));
        let obs = handle.observability();
        let rejected = obs
            .registry
            .counter_value(theta_metrics::observability::OVERLOAD_REJECTIONS_COUNTER, &[])
            .unwrap_or(0);
        assert!(rejected >= 1, "overload rejection must be counted");
    }

    #[test]
    fn try_submit_applies_queue_backpressure() {
        let (_hub, mut nets) = build_network(1);
        let handle = spawn_node(
            KeyChest::new(),
            nets.pop().unwrap(),
            NodeConfig { submission_queue_capacity: 0, ..Default::default() },
        );
        // Zero capacity: every try_submit is refused up front.
        match handle.try_submit(Request::Cks05Coin(b"never".to_vec())) {
            Err(SubmitError::Overloaded) => {}
            other => panic!("expected Overloaded, got {other:?}"),
        }
        // The unconditional path still queues.
        let pending = handle.submit(Request::Cks05Coin(b"queued".to_vec()));
        let result = pending.wait_timeout(Duration::from_secs(5)).expect("served");
        // No cks05 key: fails fast, but it was *served*, not refused.
        assert!(matches!(result.outcome, Err(SchemeError::KeyMismatch(_))));
    }

    #[test]
    fn shutdown_drains_live_instances_with_terminal_results() {
        // A quorum-blocked instance (peer isolated) cannot finish inside
        // the drain window: the subscriber must still get a terminal
        // result, tagged Shutdown.
        let mut r = seeded();
        let params = ThresholdParams::new(1, 2).unwrap();
        let (_, keys) = theta_schemes::cks05::keygen(params, &mut r);
        let (hub, mut nets) = build_network(2);
        hub.isolate_node(1, true);
        let mut chest = KeyChest::new();
        chest.cks05 = Some(keys[0].clone());
        let handle = spawn_node(
            chest,
            nets.remove(0),
            NodeConfig {
                shutdown_drain: Duration::from_millis(200),
                ..Default::default()
            },
        );
        let pending = handle.submit(Request::Cks05Coin(b"drain me".to_vec()));
        std::thread::sleep(Duration::from_millis(100)); // let the instance start
        handle.shutdown();
        let result = pending
            .wait_timeout(Duration::from_secs(1))
            .expect("shutdown must deliver a terminal result");
        assert_eq!(result.outcome, Err(SchemeError::Shutdown));
    }

    #[test]
    fn shutdown_drain_lets_completing_instances_finish() {
        // A completable instance submitted right before shutdown finishes
        // inside the drain window and delivers its real result.
        let mut r = seeded();
        let (_hub, mut nets) = build_network(1);
        let params = ThresholdParams::new(0, 1).unwrap();
        let (_, keys) = theta_schemes::cks05::keygen(params, &mut r);
        let mut chest = KeyChest::new();
        chest.cks05 = Some(keys[0].clone());
        let handle = spawn_node(chest, nets.pop().unwrap(), NodeConfig::default());
        let pending = handle.submit(Request::Cks05Coin(b"finish me".to_vec()));
        handle.shutdown();
        let result = pending
            .wait_timeout(Duration::from_secs(1))
            .expect("result delivered before or during drain");
        assert!(result.outcome.is_ok(), "drain should let the coin finish");
    }

    #[test]
    fn pending_result_reports_node_stopped() {
        // A reply channel whose sender is gone (router died / command
        // never served) must report NodeStopped, not TimedOut.
        let (tx, rx) = unbounded::<InstanceResult>();
        let pending = PendingResult { rx };
        drop(tx);
        assert_eq!(
            pending.wait_timeout(Duration::from_millis(10)),
            Err(WaitError::NodeStopped)
        );
        assert_eq!(pending.try_take(), Err(WaitError::NodeStopped));

        // And a live-but-empty channel reports TimedOut / not-ready.
        let (_tx2, rx2) = unbounded::<InstanceResult>();
        let pending2 = PendingResult { rx: rx2 };
        assert_eq!(
            pending2.wait_timeout(Duration::from_millis(10)),
            Err(WaitError::TimedOut)
        );
        assert_eq!(pending2.try_take(), Ok(None));
    }

    #[test]
    fn distinct_instances_progress_concurrently() {
        // With 2 workers and 2 slow-to-quorum instances, both must be
        // live at once (inflight gauge reaches 2) — instances do not
        // serialize behind one another.
        let mut r = seeded();
        let params = ThresholdParams::new(1, 2).unwrap();
        let (_, keys) = theta_schemes::cks05::keygen(params, &mut r);
        let (hub, mut nets) = build_network(2);
        hub.isolate_node(1, true);
        let mut chest = KeyChest::new();
        chest.cks05 = Some(keys[0].clone());
        let handle = spawn_node(
            chest,
            nets.remove(0),
            NodeConfig { worker_threads: 2, ..Default::default() },
        );
        let _a = handle.submit(Request::Cks05Coin(b"parallel-a".to_vec()));
        let _b = handle.submit(Request::Cks05Coin(b"parallel-b".to_vec()));
        std::thread::sleep(Duration::from_millis(200));
        let obs = handle.observability();
        let inflight = obs
            .registry
            .gauge(theta_metrics::observability::INFLIGHT_INSTANCES_GAUGE)
            .get();
        assert_eq!(inflight, 2, "both instances must be live concurrently");
    }

    // ------------------------------------------------------------------
    // Cross-instance batch verification (PR 7).
    // ------------------------------------------------------------------

    #[test]
    fn cross_instance_batch_settles_and_traces() {
        // Several concurrent BLS04 instances on a 4-node network: shares
        // from all instances must verify through the pool aggregator
        // (not per-instance checks), the flush counters/histogram must
        // record it, and each instance's journal must show the full
        // batch lifecycle (BatchEnqueued → BatchSettled → ShareVerified)
        // — what GetTrace serves to the operator.
        let mut r = seeded();
        let (_hub, nets) = build_network(4);
        let chests = full_chests(1, 4, &mut r);
        let handles: Vec<NodeHandle> = chests
            .into_iter()
            .zip(nets)
            .map(|(chest, net)| {
                spawn_node(
                    chest,
                    net,
                    NodeConfig {
                        batch_flush_size: 4,
                        batch_flush_age: Duration::from_millis(2),
                        ..Default::default()
                    },
                )
            })
            .collect();
        const REQS: usize = 4;
        let pending: Vec<(InstanceId, PendingResult)> = (0..REQS)
            .map(|i| {
                let req = Request::Bls04Sign(format!("batched-{i}").into_bytes());
                (req.instance_id(), handles[0].submit(req))
            })
            .collect();
        for (_, p) in &pending {
            let result = p.wait_timeout(WAIT).expect("completion");
            assert!(result.outcome.is_ok(), "batched instance failed: {:?}", result.outcome);
        }
        let obs = handles[0].observability();
        // Shares verified via the pool-scoped batch, not instance-local.
        let deadline = std::time::Instant::now() + WAIT;
        let cross = || {
            obs.registry
                .counter_value("theta_shares_cross_batched_total", &[])
                .unwrap_or(0)
        };
        // Stats fold on Finished upcalls which race this check briefly.
        while cross() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(cross() >= 1, "no share was cross-batch verified");
        // Only the shares the quorum needs are verified: t = 1 per
        // instance on this node. Every node folds the shares it held
        // past its quorum into the unread counter.
        assert!(cross() <= REQS as u64, "verified {} peer shares for {REQS} instances", cross());
        let unread = || {
            handles
                .iter()
                .map(|h| {
                    h.observability()
                        .registry
                        .counter_value("theta_shares_unread_total", &[])
                        .unwrap_or(0)
                })
                .sum::<u64>()
        };
        while unread() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(unread() >= 1, "no node dropped a held share unread");
        // At least one flush fired, and the size histogram saw it.
        let flushes: u64 = ["size", "age", "shutdown"]
            .iter()
            .map(|reason| {
                obs.registry
                    .counter_value(
                        theta_metrics::observability::BATCH_FLUSHES_COUNTER,
                        &[("reason", reason)],
                    )
                    .unwrap_or(0)
            })
            .sum();
        assert!(flushes >= 1, "no batch flush recorded");
        let sizes = obs
            .registry
            .histogram_snapshot(theta_metrics::observability::BATCH_SIZE_HISTOGRAM, &[])
            .expect("batch size histogram registered");
        assert!(sizes.count() >= 1, "no batch size recorded");
        // Per-instance trace: the request's shares rode a batch.
        let (id, _) = &pending[0];
        let kinds: Vec<TraceEventKind> =
            obs.journal.events_for(&id.0).iter().map(|e| e.kind).collect();
        assert!(
            kinds.contains(&TraceEventKind::BatchEnqueued),
            "journal missing BatchEnqueued: {kinds:?}"
        );
        assert!(
            kinds.contains(&TraceEventKind::BatchSettled),
            "journal missing BatchSettled: {kinds:?}"
        );
        assert!(kinds.contains(&TraceEventKind::ShareVerified));
    }

    #[test]
    fn forged_share_in_cross_batch_prunes_only_culprit() {
        // Node 2 holds a key share from an *independent* keygen: its
        // shares decode fine but fail verification. With t = 2 (quorum
        // 3) the three honest nodes must still complete every instance —
        // the failed batch bisects down to node 2's checks and prunes
        // exactly those, never the innocent instances' valid shares.
        let mut r = seeded();
        let params = ThresholdParams::new(2, 4).unwrap();
        let (_, honest_keys) = theta_schemes::bls04::keygen(params, &mut r);
        let (_, foreign_keys) = theta_schemes::bls04::keygen(params, &mut r);
        let (hub, nets) = build_network(4);
        // A node checks only the first two peer shares it receives. Node
        // 4's links to nodes 1 and 3 are slow, so there the forger's
        // share is among those two: it is checked and pruned, and node
        // 4's share completes the quorum when it arrives.
        for to in [1, 3] {
            hub.set_link(4, to, theta_network::LinkProfile::fixed(Duration::from_millis(150)));
        }
        let handles: Vec<NodeHandle> = (0..4usize)
            .zip(nets)
            .map(|(i, net)| {
                let mut chest = KeyChest::new();
                chest.bls04 = Some(if i == 1 {
                    foreign_keys[i].clone() // the forger
                } else {
                    honest_keys[i].clone()
                });
                // One wide batch window: the checked shares of both
                // instances, the forged ones included, land in the same
                // settle.
                spawn_node(
                    chest,
                    net,
                    NodeConfig {
                        batch_flush_size: 64,
                        batch_flush_age: Duration::from_millis(50),
                        ..Default::default()
                    },
                )
            })
            .collect();
        // Two concurrent instances so the forged shares share a batch
        // with innocent checks from another instance.
        let pending: Vec<PendingResult> = (0..2)
            .flat_map(|i| {
                let msg = format!("forged-batch-{i}").into_bytes();
                [&handles[0], &handles[2], &handles[3]]
                    .map(|h| h.submit(Request::Bls04Sign(msg.clone())))
            })
            .collect();
        for p in pending {
            let result = p.wait_timeout(WAIT).expect("completion despite forger");
            assert!(
                result.outcome.is_ok(),
                "honest quorum must survive a forged share in the batch: {:?}",
                result.outcome
            );
        }
        // At least one honest node saw node 2's share fail the batch
        // settle and pruned it (journaled with the batch reject detail).
        let pruned_somewhere = [0usize, 2, 3].iter().any(|&i| {
            let obs = handles[i].observability();
            obs.journal.events_for(&Request::Bls04Sign(b"forged-batch-0".to_vec()).instance_id().0)
                .iter()
                .any(|e| {
                    e.kind == TraceEventKind::ShareRejected
                        && e.detail.contains("cross-instance batch")
                })
        });
        assert!(pruned_somewhere, "no honest node journaled the batch-verdict prune");
    }
}
