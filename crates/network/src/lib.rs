//! # theta-network
//!
//! The paper's *network layer* (§3.6): peer-to-peer communication plus an
//! optional total-order broadcast (TOB) channel, behind one [`Network`]
//! interface so the orchestration layer never cares which transport
//! backs it.
//!
//! Two implementations ship, mirroring the paper's deployment modes:
//!
//! - [`inmemory`] — an in-process mesh with configurable per-link latency,
//!   jitter, loss and partitions. This plays the role of the paper's
//!   DigitalOcean fleets for tests and the evaluation harness (the RTTs
//!   of Table 2 become [`LinkProfile`]s), and doubles as the failure
//!   injection harness.
//! - [`gossip`] — real TCP links authenticated and encrypted by
//!   [`handshake`], as a full mesh or a sparse flood overlay, with a
//!   leader-sequencer TOB, standing in for the libp2p overlay / TOB
//!   proxy of the original system.
//!
//! TOB semantics: every submitted message is delivered to **all** nodes
//! (including the submitter) in one global sequence order. P2P broadcast
//! excludes the sender (a node already knows its own protocol messages).

pub mod demux;
pub mod gossip;
pub mod handshake;
pub mod inmemory;

use parking_lot::Mutex;
use std::time::Duration;
use theta_sync::channel::{unbounded, Receiver, Sender};

/// A node identifier on the network layer (1-based, aligning with the
/// scheme layer's party ids).
pub type NodeId = u16;

/// An event delivered by the network to its node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetworkEvent {
    /// A peer-to-peer message.
    P2p {
        /// Sending node.
        from: NodeId,
        /// Opaque payload.
        payload: Vec<u8>,
    },
    /// A totally-ordered broadcast delivery.
    Tob {
        /// Global sequence number (0-based, gap-free per node).
        seq: u64,
        /// Submitting node.
        from: NodeId,
        /// Opaque payload.
        payload: Vec<u8>,
    },
}

/// Where a transport delivers its events (see [`Network::set_event_sink`]).
pub type EventSink = Box<dyn Fn(NetworkEvent) + Send + Sync>;

/// The delivery end a transport shares with its delivery threads.
/// Until a sink is installed, events wait in a local buffer that the
/// transports' `recv_timeout` reads (transport tests and tools use
/// it); installing a sink forwards the buffer first, so no event is
/// lost or reordered across the switch.
pub(crate) struct EventOutlet {
    sink: Mutex<Option<EventSink>>,
    buffer_tx: Sender<NetworkEvent>,
    buffer_rx: Receiver<NetworkEvent>,
}

impl EventOutlet {
    pub(crate) fn new() -> EventOutlet {
        let (buffer_tx, buffer_rx) = unbounded();
        EventOutlet { sink: Mutex::new(None), buffer_tx, buffer_rx }
    }

    /// Hands one event to the sink, or buffers it while none is set.
    pub(crate) fn deliver(&self, event: NetworkEvent) {
        // The lock spans the call so `install` cannot slip between a
        // buffered event and a later one delivered straight to the sink.
        let sink = self.sink.lock();
        match sink.as_ref() {
            Some(f) => f(event),
            None => {
                let _ = self.buffer_tx.send(event);
            }
        }
    }

    pub(crate) fn install(&self, sink: EventSink) {
        let mut slot = self.sink.lock();
        while let Ok(event) = self.buffer_rx.try_recv() {
            sink(event);
        }
        *slot = Some(sink);
    }

    /// Waits up to `timeout` for the next buffered event; always `None`
    /// once a sink is installed.
    pub(crate) fn recv_timeout(&self, timeout: Duration) -> Option<NetworkEvent> {
        self.buffer_rx.recv_timeout(timeout).ok()
    }
}

/// Errors surfaced by network implementations.
#[derive(Debug)]
pub enum NetworkError {
    /// The underlying transport failed.
    Io(std::io::Error),
    /// The mesh could not be established (bad peer list, handshake...).
    Setup(String),
}

impl std::fmt::Display for NetworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetworkError::Io(e) => write!(f, "network i/o error: {e}"),
            NetworkError::Setup(msg) => write!(f, "network setup failed: {msg}"),
        }
    }
}

impl std::error::Error for NetworkError {}

impl From<std::io::Error> for NetworkError {
    fn from(e: std::io::Error) -> Self {
        NetworkError::Io(e)
    }
}

/// The transport abstraction handed to each Thetacrypt instance
/// (the paper's *network manager* view: P2P plus optional TOB).
pub trait Network: Send {
    /// This node's identifier.
    fn node_id(&self) -> NodeId;

    /// Total number of nodes in the Θ-network.
    fn num_nodes(&self) -> usize;

    /// Sends `payload` to every *other* node (gossip-style broadcast).
    fn broadcast_p2p(&self, payload: Vec<u8>);

    /// Sends `payload` to one specific peer.
    fn send_to(&self, peer: NodeId, payload: Vec<u8>);

    /// Submits `payload` to the total-order broadcast channel; it will be
    /// delivered to all nodes (including this one) in sequence order.
    fn submit_tob(&self, payload: Vec<u8>);

    /// Installs the sink this node's events are delivered into, fully
    /// demultiplexed and (for TOB) already released in gap-free
    /// sequence order. The transport calls it from its own delivery
    /// thread, one event at a time, so the sink must not block: the
    /// orchestration layer's sink pushes onto the router's inbox.
    /// Events that arrived before the call are forwarded first, in
    /// order. Called once, before the node's event loop starts.
    fn set_event_sink(&mut self, sink: EventSink);

    /// Attaches a metrics registry: implementations register their
    /// per-peer traffic counters (`theta_net_messages_sent_total`,
    /// `theta_net_bytes_sent_total`, receive equivalents, connect
    /// counts) against it. Called once by the orchestration layer before
    /// the event loop starts; the default is a no-op so transports
    /// without instrumentation keep working.
    fn attach_registry(&mut self, registry: &std::sync::Arc<theta_metrics::MetricsRegistry>) {
        let _ = registry;
    }

    /// Attaches the node's trace journal: implementations record
    /// `PeerSend` / `PeerRecv` (and, on relaying overlays, `RelayHop`)
    /// events for envelope traffic, keyed by the instance id peeked
    /// from the payload (see [`demux::peek_key`]). Called once by the
    /// orchestration layer alongside [`Network::attach_registry`]; the
    /// default is a no-op.
    fn attach_journal(&mut self, journal: &std::sync::Arc<theta_metrics::TraceJournal>) {
        let _ = journal;
    }
}

/// Per-peer traffic counters (messages + bytes), resolved once at
/// registration so the send/receive hot paths touch only atomics.
/// Shared by both transport implementations.
pub(crate) struct PeerTraffic {
    msgs: Vec<std::sync::Arc<theta_metrics::Counter>>,
    bytes: Vec<std::sync::Arc<theta_metrics::Counter>>,
}

impl PeerTraffic {
    /// Registers one `{peer="i"}` series pair per node.
    pub(crate) fn register(
        registry: &theta_metrics::MetricsRegistry,
        msgs_name: &str,
        bytes_name: &str,
        n: usize,
    ) -> PeerTraffic {
        let mut msgs = Vec::with_capacity(n);
        let mut bytes = Vec::with_capacity(n);
        for peer in 1..=n {
            let label = peer.to_string();
            msgs.push(registry.counter_with(msgs_name, &[("peer", &label)]));
            bytes.push(registry.counter_with(bytes_name, &[("peer", &label)]));
        }
        PeerTraffic { msgs, bytes }
    }

    /// Counts one message of `nbytes` for `peer` (1-based; out-of-range
    /// ids are ignored).
    pub(crate) fn count(&self, peer: NodeId, nbytes: usize) {
        if peer >= 1 && (peer as usize) <= self.msgs.len() {
            self.msgs[peer as usize - 1].inc();
            self.bytes[peer as usize - 1].add(nbytes as u64);
        }
    }
}

/// Per-link latency description (one direction).
#[derive(Clone, Copy, Debug)]
pub struct LinkProfile {
    /// Mean one-way latency.
    pub latency: Duration,
    /// Uniform jitter added in `[0, jitter]`.
    pub jitter: Duration,
}

impl LinkProfile {
    /// A link with fixed latency and no jitter.
    pub fn fixed(latency: Duration) -> LinkProfile {
        LinkProfile { latency, jitter: Duration::ZERO }
    }

    /// The paper's local (same-datacenter) profile: ≈0.65 ms RTT.
    pub fn local() -> LinkProfile {
        LinkProfile {
            latency: Duration::from_micros(325),
            jitter: Duration::from_micros(50),
        }
    }
}

/// Reorder buffer releasing TOB deliveries in gap-free sequence order.
///
/// Shared by both network implementations: physical arrival order may
/// differ per node, but each node must observe the identical sequence.
#[derive(Debug, Default)]
pub struct TobReorderBuffer {
    next_seq: u64,
    pending: std::collections::BTreeMap<u64, (NodeId, Vec<u8>)>,
}

impl TobReorderBuffer {
    /// Creates an empty buffer expecting sequence number 0 first.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts an arrival; returns every delivery now releasable in order.
    pub fn insert(&mut self, seq: u64, from: NodeId, payload: Vec<u8>) -> Vec<NetworkEvent> {
        if seq >= self.next_seq {
            self.pending.insert(seq, (from, payload));
        }
        let mut out = Vec::new();
        while let Some((from, payload)) = self.pending.remove(&self.next_seq) {
            out.push(NetworkEvent::Tob { seq: self.next_seq, from, payload });
            self.next_seq += 1;
        }
        out
    }

    /// Number of buffered out-of-order deliveries.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reorder_buffer_releases_in_order() {
        let mut buf = TobReorderBuffer::new();
        assert!(buf.insert(1, 2, vec![1]).is_empty());
        assert!(buf.insert(2, 3, vec![2]).is_empty());
        assert_eq!(buf.pending_len(), 2);
        let released = buf.insert(0, 1, vec![0]);
        assert_eq!(released.len(), 3);
        for (i, ev) in released.iter().enumerate() {
            match ev {
                NetworkEvent::Tob { seq, .. } => assert_eq!(*seq, i as u64),
                _ => panic!("expected tob"),
            }
        }
    }

    #[test]
    fn reorder_buffer_ignores_duplicates_below_cursor() {
        let mut buf = TobReorderBuffer::new();
        let r = buf.insert(0, 1, vec![9]);
        assert_eq!(r.len(), 1);
        // Replay of an already-released sequence number is dropped.
        assert!(buf.insert(0, 1, vec![9]).is_empty());
        assert_eq!(buf.pending_len(), 0);
    }

    #[test]
    fn link_profile_constructors() {
        let l = LinkProfile::fixed(Duration::from_millis(5));
        assert_eq!(l.latency, Duration::from_millis(5));
        assert_eq!(l.jitter, Duration::ZERO);
        assert!(LinkProfile::local().latency < Duration::from_millis(1));
    }

    #[test]
    fn error_display() {
        let e = NetworkError::Setup("boom".into());
        assert!(e.to_string().contains("boom"));
    }
}
