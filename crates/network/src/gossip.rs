//! The TCP transport: mutually authenticated, AEAD-encrypted links,
//! with one flood frame format carrying P2P traffic and the node-1
//! sequencer TOB (standing in for the libp2p overlay and TOB proxy of
//! the original system).
//!
//! **Topology.** `mesh_degree` selects one of two graphs:
//!
//! - **Complete** (`mesh_degree == 0`, or any degree whose neighbors
//!   already reach all `n-1` peers): node `a` dials node `b` iff
//!   `a < b`, so every pair shares exactly one link. This is the
//!   paper's standalone full mesh.
//! - **Sparse** (any other degree): neighbor *offsets* are the powers of
//!   two strictly below `n/2`, truncated to `ceil(mesh_degree / 2)`
//!   entries. Node `i` dials `(i-1+o) mod n + 1` for each offset `o` and
//!   accepts from the mirror set, giving a connected circulant graph
//!   `C(n; 1, 2, 4, ...)` of total degree ≈ `mesh_degree`. Messages are
//!   **flooded**: every frame carries an `(origin, counter)` message id,
//!   and a node delivers the first copy it sees and relays it to every
//!   neighbor except the link it arrived on. A message thus reaches all
//!   nodes in O(diameter) hops over O(degree) links per node. The
//!   offset-1 ring keeps the graph connected, so any single dropped link
//!   leaves flooding intact whenever `mesh_degree` admits a second
//!   offset.
//!
//! The constructor derives which graph it built; no option selects it.
//! On the complete graph three things change: nothing is relayed,
//! addressed frames (`send_to`, a TOB submit) travel only on the
//! addressee's link, and a frame whose origin is not its link's
//! authenticated peer is dropped.
//!
//! **Link security.** Every link runs the Noise-IK handshake and AEAD
//! framing of [`crate::handshake`]: the dialer's first bytes carry its
//! node id, an ephemeral key and an authentication tag, the accepter
//! answers, and both sides derive per-direction ChaCha20-Poly1305
//! session keys. Every later frame is a `u32`-length-prefixed AEAD
//! ciphertext, and one that fails authentication tears the link down.
//! Handshake reads time out after `HANDSHAKE_TIMEOUT`, so a mute dialer
//! cannot stall setup, and a second connection claiming an
//! already-connected peer id is rejected. Right after each handshake the
//! dialer runs [`handshake::offset_probe_initiate`], so both ends hold a
//! wall-clock offset estimate (`theta_clock_offset_micros{peer=...}`)
//! for the cluster-trace merge.
//!
//! **Sender attribution.** On the complete graph every frame's origin is
//! the peer the handshake proved, so no member can speak for another: not
//! in P2P traffic, not in a TOB submit, and not as the sequencer. On a
//! sparse graph only the *first hop* is attributed; relayed frames carry
//! the origin id on the word of the relaying neighbor, and a member
//! forging origins there is outside the threat model (DESIGN.md §5). On
//! both graphs a TOB delivery counts only if its origin is the sequencer.
//!
//! TOB: submits travel to the sequencer (node 1), which assigns sequence
//! numbers and sends the deliveries to all its links; each node's
//! [`TobReorderBuffer`] releases them gap-free in order, so all nodes
//! observe the identical TOB sequence.
//!
//! Link health: write failures count into `theta_tcp_send_errors_total`,
//! and a reader thread ending (EOF, I/O error, tampered frame) into
//! `theta_tcp_reader_exits_total` (AEAD failures also into
//! `theta_net_aead_failures_total`), so a dead link shows in the metrics.

use crate::demux::{peek_key, span_hex, span_of, SPAN_LEN};
use crate::handshake::{self, MeshAuth, RecvCipher, SendCipher, Session};
use crate::{
    EventOutlet, EventSink, Network, NetworkError, NetworkEvent, NodeId, PeerTraffic,
    TobReorderBuffer,
};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;
use theta_metrics::{TraceEventKind, TraceJournal};
use theta_sync::channel::{unbounded, Receiver, Sender};

/// The fixed TOB sequencer node.
const SEQUENCER: NodeId = 1;

/// Read timeout applied while a connection is mid-handshake, so a
/// dialer that connects and never speaks cannot stall mesh setup.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(3);

/// Inner message kinds carried by a flood frame.
const KIND_P2P_BCAST: u8 = 0;
const KIND_P2P_DIRECT: u8 = 1;
const KIND_TOB_SUBMIT: u8 = 2;
const KIND_TOB_DELIVER: u8 = 3;

/// Flood frame header:
/// `origin (2) | counter (8) | span (8) | hop (1) | kind (1)`.
///
/// `span`/`hop` are the trace context: the span id of the protocol
/// instance the payload belongs to and the number of links the frame
/// has traversed along this path. The origin stamps `hop = 1`; every
/// relay increments the byte in place before re-flooding, so the first
/// copy arriving at a node `d` links away carries `hop = d`.
const HEADER_LEN: usize = 2 + 8 + SPAN_LEN + 1 + 1;
/// Byte offset of the hop counter inside the header (mutated by relays).
const HOP_OFF: usize = 2 + 8 + SPAN_LEN;

/// Bound on the dedup window (message ids remembered per node).
const SEEN_CAP: usize = 1 << 16;

/// Sentinel "link index" for locally-originated traffic routed through
/// the demux thread (the sequencer's own TOB submissions).
const LOCAL: usize = usize::MAX;

/// Neighbor offsets for an `n`-node circulant graph of total degree
/// ≈ `mesh_degree`: powers of two strictly below `n/2` (so an offset
/// and its mirror never coincide), truncated to `ceil(mesh_degree/2)`.
/// Always at least one offset — the ring keeps the graph connected.
pub fn flood_offsets(n: usize, mesh_degree: usize) -> Vec<usize> {
    if n <= 1 {
        return Vec::new();
    }
    let mut offsets = Vec::new();
    let mut o = 1;
    while o * 2 < n {
        offsets.push(o);
        o *= 2;
    }
    if offsets.is_empty() {
        offsets.push(1); // n == 2 or 3: the ring is the whole graph
    }
    offsets.truncate(mesh_degree.div_ceil(2).max(1));
    offsets
}

/// The peers node `id` dials and the peers it accepts. Degree 0, or a
/// degree whose circulant neighbors already reach every other node,
/// yields the complete graph with one link per pair (the lower id
/// dials); any other degree the circulant graph of [`flood_offsets`].
fn plan_links(n: usize, id: NodeId, mesh_degree: usize) -> (Vec<NodeId>, HashSet<NodeId>) {
    let offsets = flood_offsets(n, mesh_degree);
    let out: Vec<NodeId> =
        offsets.iter().map(|o| ((id as usize - 1 + o) % n + 1) as NodeId).collect();
    let inbound: HashSet<NodeId> =
        offsets.iter().map(|o| ((id as usize - 1 + n - o) % n + 1) as NodeId).collect();
    let reach: HashSet<&NodeId> = out.iter().chain(&inbound).collect();
    if mesh_degree == 0 || reach.len() + 1 >= n {
        return ((id + 1..=n as NodeId).collect(), (1..id).collect());
    }
    (out, inbound)
}

fn dial_with_retry(addr: SocketAddr) -> Result<TcpStream, NetworkError> {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => {
                // Flood frames and clock probes are small and
                // latency-sensitive; Nagle would hold them for the
                // previous frame's ACK.
                s.set_nodelay(true).ok();
                return Ok(s);
            }
            Err(e) => {
                if std::time::Instant::now() >= deadline {
                    return Err(NetworkError::Setup(format!("dial {addr}: {e}")));
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

/// Link-health tallies accumulated before (and after) a registry is
/// attached; the pre-attach values are transferred into the registry
/// counters at attach time.
#[derive(Default)]
struct LinkHealth {
    send_errors: AtomicU64,
    reader_exits: AtomicU64,
    aead_failures: AtomicU64,
    handshakes: AtomicU64,
}

struct LinkConn {
    stream: TcpStream,
    cipher: SendCipher,
}

/// One established, encrypted neighbor link.
struct Link {
    peer: NodeId,
    conn: Mutex<LinkConn>,
}

struct GossipMetrics {
    sent: PeerTraffic,
    recv: PeerTraffic,
    send_errors: Arc<theta_metrics::Counter>,
    reader_exits: Arc<theta_metrics::Counter>,
    aead_failures: Arc<theta_metrics::Counter>,
    relayed: Arc<theta_metrics::Counter>,
    duplicates: Arc<theta_metrics::Counter>,
}

struct GossipShared {
    links: Vec<Link>,
    id: NodeId,
    /// Whether `links` reach every other node directly (see the module
    /// docs for what this changes).
    complete: bool,
    /// Message-id counter for frames this node originates.
    msg_counter: AtomicU64,
    /// Sequencer state (used only on node 1's demux thread).
    tob_seq: AtomicU64,
    health: LinkHealth,
    metrics: OnceLock<GossipMetrics>,
    /// Estimated wall-clock offset to each node (µs to *add* to our
    /// wall clock to land on theirs); only neighbor slots are probed,
    /// the rest stay 0.
    clock_offsets: Vec<AtomicI64>,
    journal: OnceLock<Arc<TraceJournal>>,
}

impl GossipShared {
    /// Seals and sends `body` on link `idx`, counting failures.
    fn send_on_link(&self, idx: usize, body: &[u8]) {
        let link = &self.links[idx];
        let mut conn = link.conn.lock();
        let result = {
            let LinkConn { stream, cipher } = &mut *conn;
            handshake::write_sealed(stream, cipher, body)
        };
        match result {
            Ok(()) => {
                if let Some(m) = self.metrics.get() {
                    m.sent.count(link.peer, body.len() + 16);
                }
            }
            Err(_) => {
                self.health.send_errors.fetch_add(1, Ordering::Relaxed);
                if let Some(m) = self.metrics.get() {
                    m.send_errors.inc();
                }
            }
        }
    }

    /// Sends `body` on every link except `except` (use [`LOCAL`] for
    /// "all links": the initial flood of an own message).
    fn flood(&self, body: &[u8], except: usize) {
        for idx in 0..self.links.len() {
            if idx != except {
                self.send_on_link(idx, body);
            }
        }
    }

    /// Sends a frame addressed to `peer`: on the complete graph only its
    /// link carries it; a sparse graph floods it for relays to carry on.
    fn send_addressed(&self, peer: NodeId, body: &[u8]) {
        if !self.complete {
            self.flood(body, LOCAL);
        } else if let Some(idx) = self.links.iter().position(|l| l.peer == peer) {
            self.send_on_link(idx, body);
        }
    }

    /// Builds a flood frame this node originates (fresh message id),
    /// stamping the trace context. `hop` is 1 for frames about to
    /// traverse their first link, 0 for a sequencer-local submit that
    /// has not travelled yet.
    fn own_frame(&self, kind: u8, span: &[u8; SPAN_LEN], hop: u8, rest: &[u8]) -> Vec<u8> {
        let counter = self.msg_counter.fetch_add(1, Ordering::Relaxed);
        let mut body = Vec::with_capacity(HEADER_LEN + rest.len());
        body.extend_from_slice(&self.id.to_le_bytes());
        body.extend_from_slice(&counter.to_le_bytes());
        body.extend_from_slice(span);
        body.push(hop);
        body.push(kind);
        body.extend_from_slice(rest);
        body
    }

    /// Journals an envelope leaving this node (`peer` 0 = broadcast).
    fn trace_send(&self, peer: NodeId, payload: &[u8]) {
        if let (Some(j), Some(key)) = (self.journal.get(), peek_key(payload)) {
            let span = span_of(payload);
            j.record_full(key, TraceEventKind::PeerSend, peer, format!("span={}", span_hex(&span)));
        }
    }

    /// Journals an envelope delivered to this node's event sink.
    fn trace_recv(&self, peer: NodeId, span: &[u8; SPAN_LEN], hop: u8, payload: &[u8]) {
        if let (Some(j), Some(key)) = (self.journal.get(), peek_key(payload)) {
            j.record_full(
                key,
                TraceEventKind::PeerRecv,
                peer,
                format!("span={} hop={hop}", span_hex(span)),
            );
        }
    }

    fn count_reader_exit(&self) {
        self.health.reader_exits.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = self.metrics.get() {
            m.reader_exits.inc();
        }
    }

    fn count_aead_failure(&self) {
        self.health.aead_failures.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = self.metrics.get() {
            m.aead_failures.inc();
        }
    }
}

/// A node of the TCP transport. Implements [`Network`] (P2P broadcast
/// and direct sends plus TOB) over its links.
pub struct GossipMeshNode {
    shared: Arc<GossipShared>,
    n: usize,
    outlet: Arc<EventOutlet>,
    raw_tx: Sender<(usize, Vec<u8>)>,
}

/// Builder for the TCP transport.
pub struct GossipMesh;

impl GossipMesh {
    /// Connects node `id` (1-based) into the mesh described by `addrs`
    /// (address `i` belongs to node `i + 1`), binding the listener at
    /// `addrs[id-1]`. `mesh_degree` 0 builds the complete graph; any
    /// other degree a circulant graph of total degree ≈ `mesh_degree`
    /// (see [`flood_offsets`]), or the complete graph where that one
    /// already reaches every peer.
    ///
    /// # Errors
    ///
    /// [`NetworkError`] when binding, dialing or a handshake fail.
    pub fn connect(
        id: NodeId,
        addrs: &[SocketAddr],
        auth: MeshAuth,
        mesh_degree: usize,
    ) -> Result<GossipMeshNode, NetworkError> {
        let n = addrs.len();
        if id == 0 || id as usize > n {
            return Err(NetworkError::Setup(format!("node id {id} outside 1..={n}")));
        }
        let listener = TcpListener::bind(addrs[id as usize - 1])?;
        Self::connect_listener(id, listener, addrs, auth, mesh_degree)
    }

    /// Like [`GossipMesh::connect`], but with a pre-bound listener
    /// (the OS-assigned-port pattern; `addrs[id-1]` is ignored).
    ///
    /// Dialing and accepting run concurrently — a circulant graph has
    /// cycles, so a node must be able to accept its in-neighbors while
    /// its own dials are still in flight.
    ///
    /// # Errors
    ///
    /// [`NetworkError`] on bind/dial/handshake failure, an unexpected
    /// or duplicate in-neighbor, or a mute dialer timing out setup.
    pub fn connect_listener(
        id: NodeId,
        listener: TcpListener,
        addrs: &[SocketAddr],
        auth: MeshAuth,
        mesh_degree: usize,
    ) -> Result<GossipMeshNode, NetworkError> {
        let n = addrs.len();
        if id == 0 || id as usize > n {
            return Err(NetworkError::Setup(format!("node id {id} outside 1..={n}")));
        }
        if auth.roster.len() != n {
            return Err(NetworkError::Setup(format!(
                "roster has {} entries for a {n}-node mesh",
                auth.roster.len()
            )));
        }
        let auth = Arc::new(auth);
        let (out_peers, in_peers) = plan_links(n, id, mesh_degree);

        // Dial out-neighbors on a separate thread while accepting
        // in-neighbors here: a ring has cycles, so doing these
        // sequentially would deadlock the whole overlay.
        let dialer = {
            let addrs = addrs.to_vec();
            let auth = auth.clone();
            std::thread::spawn(
                move || -> Result<Vec<(NodeId, TcpStream, Session, i64)>, NetworkError> {
                    let mut out = Vec::new();
                    for peer in out_peers {
                        let mut stream = dial_with_retry(addrs[peer as usize - 1])?;
                        stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
                        let responder_static = auth.roster.get(peer).ok_or_else(|| {
                            NetworkError::Setup(format!("no roster entry for {peer}"))
                        })?;
                        let mut session =
                            handshake::initiate(&mut stream, id, &auth.identity, responder_static)?;
                        let offset = handshake::offset_probe_initiate(&mut stream, &mut session)?;
                        stream.set_read_timeout(None)?;
                        out.push((peer, stream, session, offset));
                    }
                    Ok(out)
                },
            )
        };

        let mut accepted = HashSet::new();
        let mut inbound = Vec::new();
        while accepted.len() < in_peers.len() {
            let (mut stream, _) = listener.accept()?;
            stream.set_nodelay(true).ok();
            stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
            let (peer_id, mut session) =
                handshake::respond(&mut stream, &auth.identity, &auth.roster)?;
            if !in_peers.contains(&peer_id) {
                return Err(NetworkError::Setup(format!(
                    "unexpected in-neighbor {peer_id} (expected one of {in_peers:?})"
                )));
            }
            if !accepted.insert(peer_id) {
                return Err(NetworkError::Setup(format!(
                    "duplicate hello from peer {peer_id}: a connection for that id is already \
                     established"
                )));
            }
            let offset = handshake::offset_probe_respond(&mut stream, &mut session)?;
            stream.set_read_timeout(None)?;
            inbound.push((peer_id, stream, session, offset));
        }
        let outbound = dialer
            .join()
            .map_err(|_| NetworkError::Setup("dialer thread panicked".into()))??;

        let (raw_tx, raw_rx) = unbounded::<(usize, Vec<u8>)>();
        let mut links = Vec::new();
        let mut readers = Vec::new();
        let mut offsets = vec![0i64; n];
        for (peer, stream, session, offset) in outbound.into_iter().chain(inbound) {
            readers.push((stream.try_clone()?, links.len(), peer, session.recv));
            links.push(Link {
                peer,
                conn: Mutex::new(LinkConn { stream, cipher: session.send }),
            });
            offsets[peer as usize - 1] = offset;
        }
        // A sparse plan reaches fewer than n-1 peers (`plan_links` turns
        // any plan reaching all of them into the complete graph), so the
        // link count tells the two graphs apart.
        let complete = links.len() + 1 == n;
        let handshakes = AtomicU64::new(links.len() as u64);
        let shared = Arc::new(GossipShared {
            links,
            id,
            complete,
            msg_counter: AtomicU64::new(0),
            tob_seq: AtomicU64::new(0),
            health: LinkHealth { handshakes, ..LinkHealth::default() },
            metrics: OnceLock::new(),
            clock_offsets: offsets.into_iter().map(AtomicI64::new).collect(),
            journal: OnceLock::new(),
        });
        for (stream, idx, peer, recv) in readers {
            spawn_link_reader(stream, idx, peer, recv, raw_tx.clone(), shared.clone());
        }
        let outlet = Arc::new(EventOutlet::new());
        spawn_flood_demux(raw_rx, outlet.clone(), shared.clone());
        Ok(GossipMeshNode { shared, n, outlet, raw_tx })
    }
}

impl GossipMeshNode {
    /// Waits up to `timeout` for this node's next event. Only events
    /// that arrive before [`Network::set_event_sink`] are returned here.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<NetworkEvent> {
        self.outlet.recv_timeout(timeout)
    }

    /// Number of live-at-setup neighbor links (the node's degree).
    pub fn degree(&self) -> usize {
        self.shared.links.len()
    }

    /// Whether this node links directly to every other node (the
    /// complete graph: no relaying, origins checked against links).
    pub fn is_complete(&self) -> bool {
        self.shared.complete
    }

    /// The distinct neighbor ids this node is linked to.
    pub fn neighbors(&self) -> Vec<NodeId> {
        let mut peers: Vec<NodeId> = self.shared.links.iter().map(|l| l.peer).collect();
        peers.sort_unstable();
        peers.dedup();
        peers
    }

    /// Failure injection: tears down every link to `peer` (both sides'
    /// readers see the shutdown). The overlay keeps routing around the
    /// lost edge as long as the remaining graph is connected.
    pub fn drop_link(&self, peer: NodeId) {
        self.link_controller().drop_link(peer);
    }

    /// A detached failure-injection handle, usable after the node itself
    /// has been boxed into the orchestration layer (integration tests
    /// drop or corrupt links *mid-protocol* through this).
    pub fn link_controller(&self) -> GossipLinkController {
        GossipLinkController { shared: self.shared.clone() }
    }
}

/// Failure injection for a gossip node whose [`GossipMeshNode`] has been
/// handed off (e.g. to `spawn_node`): drop links or corrupt frames on
/// the wire to exercise partition and tamper handling.
pub struct GossipLinkController {
    shared: Arc<GossipShared>,
}

impl GossipLinkController {
    /// See [`GossipMeshNode::drop_link`].
    pub fn drop_link(&self, peer: NodeId) {
        for link in &self.shared.links {
            if link.peer == peer {
                let _ = link.conn.lock().stream.shutdown(std::net::Shutdown::Both);
            }
        }
    }

    /// Writes a garbage frame (valid length prefix, unauthenticated
    /// bytes) directly onto the first link to `peer`, bypassing the
    /// session cipher — the peer's AEAD open must fail and tear the
    /// link down.
    pub fn corrupt_link(&self, peer: NodeId) {
        use std::io::Write;
        if let Some(link) = self.shared.links.iter().find(|l| l.peer == peer) {
            let mut conn = link.conn.lock();
            let garbage = [0x5au8; 24];
            let _ = conn.stream.write_all(&(garbage.len() as u32).to_le_bytes());
            let _ = conn.stream.write_all(&garbage);
        }
    }

    /// The node's link-health tallies `(send_errors, reader_exits,
    /// aead_failures)` — lets tests observe teardown without a registry.
    pub fn health(&self) -> (u64, u64, u64) {
        (
            self.shared.health.send_errors.load(Ordering::Relaxed),
            self.shared.health.reader_exits.load(Ordering::Relaxed),
            self.shared.health.aead_failures.load(Ordering::Relaxed),
        )
    }
}

/// Parsed flood-frame header. Owned (no borrow of the frame), so the
/// demux can increment the hop byte in the frame buffer before
/// re-flooding it.
struct FloodMsg {
    origin: NodeId,
    counter: u64,
    span: [u8; SPAN_LEN],
    hop: u8,
    kind: u8,
}

fn parse_flood(body: &[u8]) -> Option<FloodMsg> {
    if body.len() < HEADER_LEN {
        return None;
    }
    let origin = NodeId::from_le_bytes([body[0], body[1]]);
    let mut counter_bytes = [0u8; 8];
    counter_bytes.copy_from_slice(&body[2..10]);
    let mut span = [0u8; SPAN_LEN];
    span.copy_from_slice(&body[10..10 + SPAN_LEN]);
    Some(FloodMsg {
        origin,
        counter: u64::from_le_bytes(counter_bytes),
        span,
        hop: body[HOP_OFF],
        kind: body[HOP_OFF + 1],
    })
}

/// The protocol payload inside a flood frame's `rest`, for journal
/// keying: what [`peek_key`] should look at per message kind.
fn inner_payload(kind: u8, rest: &[u8]) -> Option<&[u8]> {
    match kind {
        KIND_P2P_BCAST | KIND_TOB_SUBMIT => Some(rest),
        KIND_P2P_DIRECT => rest.get(2..),
        KIND_TOB_DELIVER => rest.get(10..),
        _ => None,
    }
}

/// Reads AEAD frames off one link and feeds them into the demux, tagged
/// with the link index (for relay exclusion and the origin check). An
/// AEAD failure kills the link, and every exit is counted.
// theta: event-loop
fn spawn_link_reader(
    mut stream: TcpStream,
    link_idx: usize,
    peer: NodeId,
    mut cipher: RecvCipher,
    tx: Sender<(usize, Vec<u8>)>,
    shared: Arc<GossipShared>,
) {
    std::thread::Builder::new()
        .name(format!("theta-gossip-reader-{peer}"))
        .spawn(move || {
            loop {
                let body = match handshake::read_sealed(&mut stream, &mut cipher) {
                    Ok(body) => body,
                    Err(e) => {
                        if e.kind() == std::io::ErrorKind::InvalidData {
                            shared.count_aead_failure();
                            let _ = stream.shutdown(std::net::Shutdown::Both);
                        }
                        break;
                    }
                };
                if let Some(m) = shared.metrics.get() {
                    m.recv.count(peer, body.len() + 16);
                }
                if tx.send((link_idx, body)).is_err() {
                    break;
                }
            }
            shared.count_reader_exit();
        })
        .expect("spawn gossip reader");
}

/// The flood engine: drops frames from origins their link may not
/// speak for, dedups by message id (remembering the best hop count seen
/// per message), relays fresh frames — and shorter-path duplicates — to
/// every other link on a sparse graph, and demultiplexes P2P/TOB into
/// the ordered event sink. Single-threaded by construction, so the dedup
/// window, the reorder buffer and (on node 1) the sequencer state need
/// no further locking.
// theta: event-loop
// theta: entrypoint(network)
fn spawn_flood_demux(
    raw_rx: Receiver<(usize, Vec<u8>)>,
    outlet: Arc<EventOutlet>,
    shared: Arc<GossipShared>,
) {
    std::thread::Builder::new()
        .name(format!("theta-gossip-demux-{}", shared.id))
        .spawn(move || {
            let sequencing = shared.id == SEQUENCER;
            let mut reorder = TobReorderBuffer::new();
            // Message id → smallest hop count any copy arrived with.
            let mut seen: HashMap<(NodeId, u64), u8> = HashMap::new();
            let mut seen_fifo: VecDeque<(NodeId, u64)> = VecDeque::new();
            // theta: allow(blocking): the demux thread's designated wait — it owns this queue and has nothing else to do
            while let Ok((link_idx, mut body)) = raw_rx.recv() {
                let Some(msg) = parse_flood(&body) else {
                    continue; // malformed (but authenticated) frame
                };
                let from_local = link_idx == LOCAL;
                if !from_local {
                    let link_peer = shared.links[link_idx].peer;
                    if msg.origin == shared.id {
                        continue; // echo of our own flood
                    }
                    // Only the sequencer originates deliveries: one from
                    // any other origin would take a sequence slot and
                    // split the total order.
                    if msg.kind == KIND_TOB_DELIVER && msg.origin != SEQUENCER {
                        continue;
                    }
                    // Nothing is relayed on the complete graph, so an
                    // origin other than the link's authenticated peer is
                    // forged.
                    if shared.complete && msg.origin != link_peer {
                        continue;
                    }
                    let dedup_key = (msg.origin, msg.counter);
                    let best = seen.get(&dedup_key).copied();
                    if let Some(best) = best {
                        // A duplicate copy. It still crossed a link, so
                        // journal it (for the kinds every node journals
                        // on first sight) — then, if it witnesses a
                        // *shorter* path than the copy that won the
                        // arrival race, relay the improvement onward
                        // (asynchronous distance relaxation): without
                        // this a node whose first copy came the long
                        // way poisons every downstream hop count, and
                        // per-pair minimum hops would only match the
                        // topology's shortest paths probabilistically.
                        // Hops strictly decrease per improvement, so
                        // the extra relays are bounded by the graph
                        // diameter per message. The payload itself is
                        // never re-delivered.
                        if matches!(msg.kind, KIND_P2P_BCAST | KIND_TOB_DELIVER) {
                            if let Some(inner) = inner_payload(msg.kind, &body[HEADER_LEN..]) {
                                shared.trace_recv(msg.origin, &msg.span, msg.hop, inner);
                            }
                        }
                        if msg.hop < best && !shared.complete {
                            seen.insert(dedup_key, msg.hop);
                            body[HOP_OFF] = msg.hop.saturating_add(1);
                            shared.flood(&body, link_idx);
                            if let Some(m) = shared.metrics.get() {
                                m.relayed.inc();
                            }
                        } else if let Some(m) = shared.metrics.get() {
                            m.duplicates.inc();
                        }
                        continue;
                    }
                    seen.insert(dedup_key, msg.hop);
                    seen_fifo.push_back(dedup_key);
                    if seen_fifo.len() > SEEN_CAP {
                        if let Some(old) = seen_fifo.pop_front() {
                            seen.remove(&old);
                        }
                    }
                    // First sight on a sparse graph: increment the hop
                    // count (the copies we forward have crossed one more
                    // link) and relay to everyone except the arrival link
                    // *before* local processing, to keep the flood front
                    // moving.
                    if !shared.complete {
                        body[HOP_OFF] = msg.hop.saturating_add(1);
                        shared.flood(&body, link_idx);
                        body[HOP_OFF] = msg.hop;
                        if let Some(m) = shared.metrics.get() {
                            m.relayed.inc();
                        }
                        if let Some(j) = shared.journal.get() {
                            if let Some(key) =
                                inner_payload(msg.kind, &body[HEADER_LEN..]).and_then(peek_key)
                            {
                                j.record_full(
                                    key,
                                    TraceEventKind::RelayHop,
                                    link_peer,
                                    format!(
                                        "origin={} span={} hop={}",
                                        msg.origin,
                                        span_hex(&msg.span),
                                        msg.hop.saturating_add(1)
                                    ),
                                );
                            }
                        }
                    }
                }
                let rest = &body[HEADER_LEN..];
                let released = match msg.kind {
                    KIND_P2P_BCAST => {
                        shared.trace_recv(msg.origin, &msg.span, msg.hop, rest);
                        vec![NetworkEvent::P2p { from: msg.origin, payload: rest.to_vec() }]
                    }
                    KIND_P2P_DIRECT => {
                        if rest.len() < 2 {
                            continue;
                        }
                        let to = NodeId::from_le_bytes([rest[0], rest[1]]);
                        if to != shared.id {
                            continue; // relayed above; not for us
                        }
                        shared.trace_recv(msg.origin, &msg.span, msg.hop, &rest[2..]);
                        vec![NetworkEvent::P2p {
                            from: msg.origin,
                            payload: rest[2..].to_vec(),
                        }]
                    }
                    KIND_TOB_SUBMIT => {
                        if !sequencing {
                            continue; // relayed above; the sequencer acts
                        }
                        if !from_local {
                            shared.trace_recv(msg.origin, &msg.span, msg.hop, rest);
                        }
                        let seq = shared.tob_seq.fetch_add(1, Ordering::SeqCst);
                        let mut deliver_rest = Vec::with_capacity(8 + 2 + rest.len());
                        deliver_rest.extend_from_slice(&seq.to_le_bytes());
                        deliver_rest.extend_from_slice(&msg.origin.to_le_bytes());
                        deliver_rest.extend_from_slice(rest);
                        // The delivery continues the submit's causal
                        // chain: it leaves here having crossed the
                        // submit's hops plus the link it is about to
                        // take (a local submit has crossed none yet).
                        let out_hop = msg.hop.saturating_add(1);
                        let deliver =
                            shared.own_frame(KIND_TOB_DELIVER, &msg.span, out_hop, &deliver_rest);
                        if let Some(j) = shared.journal.get() {
                            if let Some(key) = peek_key(rest) {
                                if from_local {
                                    j.record_full(
                                        key,
                                        TraceEventKind::PeerSend,
                                        0,
                                        format!("span={}", span_hex(&msg.span)),
                                    );
                                } else {
                                    j.record_full(
                                        key,
                                        TraceEventKind::RelayHop,
                                        msg.origin,
                                        format!(
                                            "origin={} span={} hop={out_hop}",
                                            msg.origin,
                                            span_hex(&msg.span)
                                        ),
                                    );
                                }
                            }
                        }
                        shared.flood(&deliver, LOCAL);
                        reorder.insert(seq, msg.origin, rest.to_vec())
                    }
                    KIND_TOB_DELIVER => {
                        if rest.len() < 10 {
                            continue;
                        }
                        let mut seq_bytes = [0u8; 8];
                        seq_bytes.copy_from_slice(&rest[..8]);
                        let seq = u64::from_le_bytes(seq_bytes);
                        let from = NodeId::from_le_bytes([rest[8], rest[9]]);
                        shared.trace_recv(msg.origin, &msg.span, msg.hop, &rest[10..]);
                        reorder.insert(seq, from, rest[10..].to_vec())
                    }
                    _ => continue,
                };
                for ev in released {
                    outlet.deliver(ev);
                }
            }
        })
        .expect("spawn gossip demux");
}

impl Drop for GossipMeshNode {
    fn drop(&mut self) {
        for link in &self.shared.links {
            let _ = link.conn.lock().stream.shutdown(std::net::Shutdown::Both);
        }
    }
}

impl Network for GossipMeshNode {
    fn node_id(&self) -> NodeId {
        self.shared.id
    }

    fn num_nodes(&self) -> usize {
        self.n
    }

    fn broadcast_p2p(&self, payload: Vec<u8>) {
        self.shared.trace_send(0, &payload);
        let body = self.shared.own_frame(KIND_P2P_BCAST, &span_of(&payload), 1, &payload);
        self.shared.flood(&body, LOCAL);
    }

    fn send_to(&self, peer: NodeId, payload: Vec<u8>) {
        if peer == self.shared.id {
            return;
        }
        self.shared.trace_send(peer, &payload);
        let mut rest = Vec::with_capacity(2 + payload.len());
        rest.extend_from_slice(&peer.to_le_bytes());
        rest.extend_from_slice(&payload);
        let body = self.shared.own_frame(KIND_P2P_DIRECT, &span_of(&payload), 1, &rest);
        self.shared.send_addressed(peer, &body);
    }

    fn submit_tob(&self, payload: Vec<u8>) {
        let span = span_of(&payload);
        if self.shared.id == SEQUENCER {
            // Route through the demux thread: a single owner serializes
            // local submissions with the flooded ones. Hop 0: the frame
            // has not traversed a link yet (the delivery it turns into
            // records the PeerSend).
            let body = self.shared.own_frame(KIND_TOB_SUBMIT, &span, 0, &payload);
            let _ = self.raw_tx.send((LOCAL, body));
        } else {
            self.shared.trace_send(SEQUENCER, &payload);
            let body = self.shared.own_frame(KIND_TOB_SUBMIT, &span, 1, &payload);
            self.shared.send_addressed(SEQUENCER, &body);
        }
    }

    fn set_event_sink(&mut self, sink: EventSink) {
        self.outlet.install(sink);
    }

    fn attach_registry(&mut self, registry: &Arc<theta_metrics::MetricsRegistry>) {
        let metrics = GossipMetrics {
            sent: PeerTraffic::register(
                registry,
                "theta_net_messages_sent_total",
                "theta_net_bytes_sent_total",
                self.n,
            ),
            recv: PeerTraffic::register(
                registry,
                "theta_net_messages_received_total",
                "theta_net_bytes_received_total",
                self.n,
            ),
            send_errors: registry.counter("theta_tcp_send_errors_total"),
            reader_exits: registry.counter("theta_tcp_reader_exits_total"),
            aead_failures: registry.counter("theta_net_aead_failures_total"),
            relayed: registry.counter("theta_gossip_relayed_total"),
            duplicates: registry.counter("theta_gossip_duplicates_total"),
        };
        registry
            .counter("theta_net_handshakes_total")
            .add(self.shared.health.handshakes.load(Ordering::Relaxed));
        metrics
            .send_errors
            .add(self.shared.health.send_errors.load(Ordering::Relaxed));
        metrics
            .reader_exits
            .add(self.shared.health.reader_exits.load(Ordering::Relaxed));
        metrics
            .aead_failures
            .add(self.shared.health.aead_failures.load(Ordering::Relaxed));
        // Pairwise clock offsets for probed (neighbor) links.
        let neighbors: HashSet<NodeId> = self.shared.links.iter().map(|l| l.peer).collect();
        for peer in neighbors {
            let off = self.shared.clock_offsets[peer as usize - 1].load(Ordering::Relaxed);
            registry
                .gauge_with("theta_clock_offset_micros", &[("peer", &peer.to_string())])
                .set(off);
        }
        let _ = self.shared.metrics.set(metrics);
    }

    fn attach_journal(&mut self, journal: &Arc<TraceJournal>) {
        let _ = self.shared.journal.set(journal.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{IpAddr, Ipv4Addr};
    use std::time::{Duration, Instant};

    const TICK: Duration = Duration::from_secs(5);

    fn loopback() -> SocketAddr {
        SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), 0)
    }

    /// Binds `n` ephemeral-port listeners and connects the mesh — no
    /// fixed port ranges, so parallel test binaries cannot collide.
    fn build_gossip(n: u16, degree: usize, seed: u64) -> Vec<GossipMeshNode> {
        let listeners: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind(loopback()).expect("bind ephemeral"))
            .collect();
        let addrs: Vec<SocketAddr> =
            listeners.iter().map(|l| l.local_addr().expect("local addr")).collect();
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(i, listener)| {
                let list = addrs.clone();
                std::thread::spawn(move || {
                    let auth = MeshAuth::insecure_dev(i as u16 + 1, n, seed);
                    GossipMesh::connect_listener(i as u16 + 1, listener, &list, auth, degree)
                        .unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    /// Polls `cond` until it holds, failing with `what` after [`TICK`].
    fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
        let deadline = Instant::now() + TICK;
        while !cond() {
            assert!(Instant::now() < deadline, "{what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn counter(registry: &theta_metrics::MetricsRegistry, name: &str) -> u64 {
        registry.counter_value(name, &[]).unwrap_or(0)
    }

    /// Sends `body` from `node` on its link to `peer`, bypassing every
    /// check the honest send paths apply: what a malicious roster member
    /// can put on its own authenticated link.
    fn inject(node: &GossipMeshNode, peer: NodeId, body: &[u8]) {
        let idx = node.shared.links.iter().position(|l| l.peer == peer).expect("link");
        node.shared.send_on_link(idx, body);
    }

    /// A TOB delivery frame originated by `node` (its own id and message
    /// counter) claiming sequence slot `seq` for `payload`.
    fn delivery_frame(node: &GossipMeshNode, seq: u64, payload: &[u8]) -> Vec<u8> {
        let mut rest = seq.to_le_bytes().to_vec();
        rest.extend_from_slice(&node.shared.id.to_le_bytes());
        rest.extend_from_slice(payload);
        node.shared.own_frame(KIND_TOB_DELIVER, &span_of(payload), 1, &rest)
    }

    #[test]
    fn offsets_are_powers_of_two_truncated_by_degree() {
        assert_eq!(flood_offsets(20, 6), vec![1, 2, 4]);
        assert_eq!(flood_offsets(20, 2), vec![1]);
        assert_eq!(flood_offsets(20, 100), vec![1, 2, 4, 8]);
        assert_eq!(flood_offsets(2, 4), vec![1]);
        assert_eq!(flood_offsets(3, 4), vec![1]);
        assert_eq!(flood_offsets(1, 4), Vec::<usize>::new());
        // Offsets stay strictly below n/2: no offset collides with its
        // mirror, so dialing and accepting never race on the same edge.
        for off in flood_offsets(64, 100) {
            assert!(off * 2 < 64);
        }
    }

    #[test]
    fn degree_zero_or_a_saturating_degree_is_the_complete_graph() {
        // (dials, accepts): the lower id of each pair dials.
        assert_eq!(plan_links(4, 2, 0), (vec![3, 4], HashSet::from([1])));
        assert_eq!(plan_links(20, 1, 0), ((2..=20).collect(), HashSet::new()));
        // n = 3: the ring already links every pair.
        assert_eq!(plan_links(3, 3, 2), (vec![], HashSet::from([1, 2])));
        // n = 2: one link, not a dial and an accept to the same peer.
        assert_eq!(plan_links(2, 1, 2), (vec![2], HashSet::new()));
        // n = 4 at degree 2 (the ring) stays sparse.
        assert_eq!(plan_links(4, 1, 2), (vec![2], HashSet::from([4])));

        for node in build_gossip(4, 0, 20) {
            assert!(node.is_complete());
            assert_eq!(node.degree(), 3);
        }
        for node in build_gossip(3, 2, 20) {
            assert!(node.is_complete());
            assert_eq!(node.degree(), 2);
        }
    }

    #[test]
    fn degree_is_sublinear() {
        let nodes = build_gossip(8, 4, 21);
        for node in &nodes {
            assert!(!node.is_complete());
            assert!(
                node.degree() < 7,
                "degree {} is not sublinear for n=8",
                node.degree()
            );
            assert_eq!(node.degree(), 4); // offsets {1,2}: 2 out + 2 in
        }
    }

    #[test]
    fn broadcast_floods_to_all_nodes() {
        for (n, degree) in [(8, 4), (4, 0)] {
            let nodes = build_gossip(n, degree, 22);
            nodes[2].broadcast_p2p(b"flood hello".to_vec());
            for (i, node) in nodes.iter().enumerate() {
                if i == 2 {
                    continue;
                }
                let ev = node.recv_timeout(TICK).expect("flood delivery");
                assert_eq!(ev, NetworkEvent::P2p { from: 3, payload: b"flood hello".to_vec() });
            }
            // The origin must not see its own broadcast echoed back.
            assert!(nodes[2].recv_timeout(Duration::from_millis(100)).is_none());
        }
    }

    #[test]
    fn direct_send_reaches_only_the_target() {
        for degree in [2, 0] {
            let nodes = build_gossip(6, degree, 23);
            // Node 2 → node 5: several ring hops away on the sparse
            // graph, so the frame is relayed through nodes that must not
            // deliver it.
            nodes[1].send_to(5, b"for five".to_vec());
            let ev = nodes[4].recv_timeout(TICK).expect("direct delivery");
            assert_eq!(ev, NetworkEvent::P2p { from: 2, payload: b"for five".to_vec() });
            for (i, node) in nodes.iter().enumerate() {
                if i == 4 {
                    continue;
                }
                assert!(
                    node.recv_timeout(Duration::from_millis(100)).is_none(),
                    "node {} saw a frame addressed to node 5 (degree {degree})",
                    i + 1
                );
            }
        }
    }

    #[test]
    fn tob_total_order_over_gossip() {
        for degree in [2, 0] {
            let nodes = build_gossip(5, degree, 24);
            nodes[1].submit_tob(b"x".to_vec());
            nodes[4].submit_tob(b"y".to_vec());
            nodes[0].submit_tob(b"z".to_vec());
            let mut views = Vec::new();
            for node in &nodes {
                let mut seen = Vec::new();
                for _ in 0..3 {
                    match node.recv_timeout(TICK) {
                        Some(NetworkEvent::Tob { seq, payload, .. }) => seen.push((seq, payload)),
                        other => panic!("expected tob, got {other:?}"),
                    }
                }
                views.push(seen);
            }
            for v in &views[1..] {
                assert_eq!(*v, views[0]);
            }
        }
    }

    #[test]
    fn flood_survives_a_dropped_link() {
        // Degree 4 (offsets {1,2}) on 6 nodes: dropping one edge leaves
        // the graph connected, so broadcasts still reach everyone.
        let nodes = build_gossip(6, 4, 25);
        nodes[0].drop_link(2);
        nodes[1].drop_link(1);
        std::thread::sleep(Duration::from_millis(50)); // let readers die
        nodes[0].broadcast_p2p(b"around the gap".to_vec());
        for node in &nodes[1..] {
            let ev = node.recv_timeout(TICK).expect("delivery despite dropped link");
            assert_eq!(
                ev,
                NetworkEvent::P2p { from: 1, payload: b"around the gap".to_vec() }
            );
        }
    }

    #[test]
    fn tampered_frame_tears_the_link_down_without_crashing() {
        for degree in [2, 0] {
            let mut nodes = build_gossip(4, degree, 26);
            let registry = Arc::new(theta_metrics::MetricsRegistry::new());
            nodes[1].attach_registry(&registry);

            // Corrupt bytes injected on node 1's link toward node 2.
            {
                let link = nodes[0]
                    .shared
                    .links
                    .iter()
                    .find(|l| l.peer == 2)
                    .expect("link 1→2");
                let mut conn = link.conn.lock();
                let garbage = [7u8; 8];
                conn.stream.write_all(&(garbage.len() as u32).to_le_bytes()).unwrap();
                conn.stream.write_all(&garbage).unwrap();
            }

            wait_until("tampering never tore the link down", || {
                counter(&registry, "theta_net_aead_failures_total") >= 1
                    && counter(&registry, "theta_tcp_reader_exits_total") >= 1
            });
            // The victim stays up. The sparse flood routes around the
            // dead edge (ring direction 2→3→4→1 still works); the
            // complete graph relays nothing, so only node 1 misses out.
            nodes[1].broadcast_p2p(b"still alive".to_vec());
            for (i, node) in nodes.iter().enumerate() {
                if i == 1 {
                    continue;
                }
                let cut_off = degree == 0 && i == 0;
                let wait = if cut_off { Duration::from_millis(100) } else { TICK };
                let want = (!cut_off)
                    .then(|| NetworkEvent::P2p { from: 2, payload: b"still alive".to_vec() });
                assert_eq!(node.recv_timeout(wait), want, "node {} at degree {degree}", i + 1);
            }
        }
    }

    /// The trace context rides the flood: a direct send three ring hops
    /// away arrives with `hop = 3` journaled, and intermediate nodes
    /// journal the relay.
    #[test]
    fn hop_count_reflects_ring_distance() {
        let mut nodes = build_gossip(6, 2, 28); // offsets [1]: a pure ring
        let journals: Vec<Arc<TraceJournal>> =
            (0..6).map(|_| Arc::new(TraceJournal::new(256))).collect();
        for (node, j) in nodes.iter_mut().zip(&journals) {
            node.attach_journal(j);
        }

        let mut instance = [0u8; 32];
        instance[..4].copy_from_slice(&[0xca, 0xfe, 0xf0, 0x0d]);
        let payload = instance.to_vec();
        nodes[0].send_to(4, payload); // 1 → 4: three links either way
        let ev = nodes[3].recv_timeout(TICK).expect("direct delivery");
        assert!(matches!(ev, NetworkEvent::P2p { from: 1, .. }));

        let mut recv = None;
        wait_until("receive never journaled", || {
            recv = journals[3]
                .events_for(&instance)
                .into_iter()
                .find(|e| e.kind == TraceEventKind::PeerRecv);
            recv.is_some()
        });
        let recv = recv.unwrap();
        assert_eq!(recv.peer, 1, "PeerRecv must carry the origin");
        assert!(recv.detail.contains("span=cafef00d00000000"), "detail: {}", recv.detail);
        assert!(recv.detail.contains("hop=3"), "detail: {}", recv.detail);

        // An intermediate ring node (2 or 6, one hop from the origin)
        // journaled the relay with the incremented hop.
        let relay = journals[1]
            .events_for(&instance)
            .into_iter()
            .chain(journals[5].events_for(&instance))
            .find(|e| e.kind == TraceEventKind::RelayHop)
            .expect("an adjacent node must have relayed");
        assert!(relay.detail.contains("origin=1"), "detail: {}", relay.detail);
        assert!(relay.detail.contains("hop=2"), "detail: {}", relay.detail);
    }

    /// The trace context survives AEAD framing end to end: a payload
    /// whose leading 32 bytes are an instance id yields PeerSend at the
    /// sender and PeerRecv (with span and hop=1) at the receiver.
    #[test]
    fn trace_context_travels_with_the_frame() {
        let mut nodes = build_gossip(2, 0, 35);
        let j1 = Arc::new(TraceJournal::new(64));
        let j2 = Arc::new(TraceJournal::new(64));
        nodes[0].attach_journal(&j1);
        nodes[1].attach_journal(&j2);

        let mut instance = [0u8; 32];
        instance[..8].copy_from_slice(&[0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4]);
        let mut payload = instance.to_vec();
        payload.extend_from_slice(b"envelope body");
        nodes[0].send_to(2, payload);
        let ev = nodes[1].recv_timeout(TICK).expect("delivery");
        assert!(matches!(ev, NetworkEvent::P2p { from: 1, .. }));

        let sends = j1.events_for(&instance);
        assert_eq!(sends.len(), 1);
        assert_eq!(sends[0].kind, TraceEventKind::PeerSend);
        assert_eq!(sends[0].peer, 2);
        assert!(sends[0].detail.contains("span=deadbeef01020304"));

        // The receive is journaled off the demux thread; give it a tick.
        let mut recvs = Vec::new();
        wait_until("receive never journaled", || {
            recvs = j2.events_for(&instance);
            !recvs.is_empty()
        });
        assert_eq!(recvs[0].kind, TraceEventKind::PeerRecv);
        assert_eq!(recvs[0].peer, 1);
        assert!(recvs[0].detail.contains("span=deadbeef01020304"));
        assert!(recvs[0].detail.contains("hop=1"), "detail: {}", recvs[0].detail);
    }

    /// The sequencer turning a TOB submit into a delivery increments the
    /// hop count and journals the relay — the one relay on the complete
    /// graph.
    #[test]
    fn sequencer_relay_increments_hop_and_journals() {
        let mut nodes = build_gossip(3, 0, 29);
        let journals: Vec<Arc<TraceJournal>> =
            (0..3).map(|_| Arc::new(TraceJournal::new(64))).collect();
        for (node, j) in nodes.iter_mut().zip(&journals) {
            node.attach_journal(j);
        }

        let mut instance = [7u8; 32];
        instance[0] = 0xab;
        nodes[2].submit_tob(instance.to_vec()); // node 3 → sequencer → everyone
        for node in &nodes {
            let ev = node.recv_timeout(TICK).expect("tob delivery");
            assert!(matches!(ev, NetworkEvent::Tob { from: 3, .. }));
        }

        let find = |j: &TraceJournal, kind: TraceEventKind| {
            let mut found = None;
            wait_until(&format!("no {kind:?} journaled"), || {
                found = j.events_for(&instance).into_iter().find(|e| e.kind == kind);
                found.is_some()
            });
            found.unwrap()
        };
        // Sequencer: received the submit at hop 1, relayed at hop 2.
        let relay = find(&journals[0], TraceEventKind::RelayHop);
        assert_eq!(relay.peer, 3);
        assert!(relay.detail.contains("hop=2"), "relay detail: {}", relay.detail);
        // Node 2 (pure bystander): the delivery crossed two links —
        // submitter→sequencer, sequencer→node 2.
        let recv = find(&journals[1], TraceEventKind::PeerRecv);
        assert_eq!(recv.peer, SEQUENCER);
        assert!(recv.detail.contains("hop=2"), "recv detail: {}", recv.detail);
    }

    #[test]
    fn duplicate_floods_are_counted_not_delivered() {
        let mut nodes = build_gossip(4, 4, 27);
        // All four nodes share one registry (same counter names resolve
        // to the same counter), because *which* node sees the duplicate
        // is a race: n=4 floods over the ring 1-2-3-4, and the cycle
        // guarantees some node receives a second copy, but relay timing
        // decides whether that is node 3 (one copy via each neighbor)
        // or a neighbor whose direct copy lost to the ring relay.
        let registry = Arc::new(theta_metrics::MetricsRegistry::new());
        for node in nodes.iter_mut() {
            node.attach_registry(&registry);
        }
        nodes[0].broadcast_p2p(b"dup me".to_vec());
        for node in &mut nodes[1..] {
            let ev = node.recv_timeout(TICK).expect("delivery");
            assert_eq!(ev, NetworkEvent::P2p { from: 1, payload: b"dup me".to_vec() });
        }
        // The redundant copy arrives on its own schedule: poll the
        // counter rather than sleeping a fixed interval.
        wait_until("a flood around a cycle must produce a counted duplicate", || {
            counter(&registry, "theta_gossip_duplicates_total") >= 1
        });
        // Exactly one delivery per node despite multiple arrival paths.
        for node in &mut nodes[1..] {
            assert!(node.recv_timeout(Duration::from_millis(100)).is_none());
        }
    }

    /// The complete graph costs what a full mesh costs: n−1 frames per
    /// broadcast, one per direct send, and no relays or duplicates.
    #[test]
    fn complete_graph_sends_one_frame_per_addressee() {
        let mut nodes = build_gossip(4, 0, 30);
        let registry = Arc::new(theta_metrics::MetricsRegistry::new());
        nodes[0].attach_registry(&registry); // node 1 only
        assert_eq!(counter(&registry, "theta_net_handshakes_total"), 3);
        let sent = |peer: &str| {
            registry.counter_value("theta_net_messages_sent_total", &[("peer", peer)]).unwrap()
        };
        let sent_total = || ["2", "3", "4"].map(sent).iter().sum::<u64>();

        nodes[0].broadcast_p2p(b"abcd".to_vec());
        for node in &nodes[1..] {
            assert!(node.recv_timeout(TICK).is_some());
        }
        assert_eq!(sent_total(), 3);
        // 20-byte flood header + 4-byte payload + 16-byte AEAD tag.
        assert_eq!(
            registry.counter_value("theta_net_bytes_sent_total", &[("peer", "2")]),
            Some(40)
        );

        nodes[0].send_to(3, b"abcd".to_vec());
        assert!(nodes[2].recv_timeout(TICK).is_some());
        assert_eq!(sent_total(), 4);
        assert_eq!(sent("3"), 2);

        nodes[1].send_to(1, b"xy".to_vec());
        assert!(nodes[0].recv_timeout(TICK).is_some());
        assert_eq!(
            registry.counter_value("theta_net_messages_received_total", &[("peer", "2")]),
            Some(1)
        );
        // Header + 2-byte addressee + 2-byte payload + AEAD tag.
        assert_eq!(
            registry.counter_value("theta_net_bytes_received_total", &[("peer", "2")]),
            Some(40)
        );
        assert_eq!(counter(&registry, "theta_gossip_relayed_total"), 0);
        assert_eq!(counter(&registry, "theta_gossip_duplicates_total"), 0);

        // Every link ran the post-handshake probe; both ends share one
        // clock, so the offsets must be (near) zero.
        for peer in ["2", "3", "4"] {
            let off = registry
                .gauge_value("theta_clock_offset_micros", &[("peer", peer)])
                .expect("offset gauge registered");
            assert!(off.abs() < 1_000_000, "same-host offset too large: {off}µs");
        }
    }

    /// Regression: a roster member could originate a "delivery" under its
    /// own id and take a sequence slot ahead of the sequencer, so nodes
    /// disagreed on the total order. Deliveries count only from node 1.
    #[test]
    fn delivery_from_a_non_sequencer_origin_is_dropped() {
        for degree in [2, 0] {
            let nodes = build_gossip(4, degree, 31);
            let forged = delivery_frame(&nodes[2], 0, b"forged");
            for peer in [2, 4] {
                inject(&nodes[2], peer, &forged);
            }
            nodes[1].submit_tob(b"honest".to_vec());
            for node in &nodes {
                match node.recv_timeout(TICK) {
                    Some(NetworkEvent::Tob { seq: 0, from: 2, payload }) => {
                        assert_eq!(payload, b"honest", "degree {degree}");
                    }
                    other => panic!("expected the honest delivery at seq 0, got {other:?}"),
                }
                assert!(node.recv_timeout(Duration::from_millis(100)).is_none());
            }
        }
    }

    /// On the complete graph no member can speak for another: P2P
    /// frames, TOB submits and TOB deliveries whose origin is not the
    /// link's authenticated peer are all dropped.
    #[test]
    fn complete_graph_drops_frames_with_a_foreign_origin() {
        let nodes = build_gossip(3, 0, 32);
        let as_origin = |mut body: Vec<u8>, origin: NodeId| {
            body[..2].copy_from_slice(&origin.to_le_bytes());
            body
        };
        // Node 3 claims to be node 2 in a broadcast to node 1.
        let p2p = nodes[2].shared.own_frame(KIND_P2P_BCAST, &[0; SPAN_LEN], 1, b"who am i");
        inject(&nodes[2], 1, &as_origin(p2p, 2));
        // ... submits to the sequencer as node 2 ...
        let submit = nodes[2].shared.own_frame(KIND_TOB_SUBMIT, &[0; SPAN_LEN], 1, b"forged");
        inject(&nodes[2], 1, &as_origin(submit, 2));
        // ... and pushes a delivery to node 2 as the sequencer.
        inject(&nodes[2], 2, &as_origin(delivery_frame(&nodes[2], 0, b"fake"), SEQUENCER));

        // An honest submit afterwards is the only event anyone sees.
        nodes[2].submit_tob(b"honest".to_vec());
        for node in &nodes {
            match node.recv_timeout(TICK) {
                Some(NetworkEvent::Tob { seq: 0, from: 3, payload }) => {
                    assert_eq!(payload, b"honest");
                }
                other => panic!("expected the honest submit first, got {other:?}"),
            }
            assert!(node.recv_timeout(Duration::from_millis(100)).is_none());
        }
    }

    #[test]
    fn bad_node_id_rejected() {
        let list = vec![
            TcpListener::bind(loopback()).unwrap().local_addr().unwrap(),
            TcpListener::bind(loopback()).unwrap().local_addr().unwrap(),
        ];
        let auth = |id| MeshAuth::insecure_dev(id, 2, 33);
        assert!(GossipMesh::connect(0, &list, auth(1), 0).is_err());
        assert!(GossipMesh::connect(3, &list, auth(3), 0).is_err());
    }

    /// Regression: a second connection claiming an already-seen peer id
    /// used to overwrite the live peer's slot and leave the original
    /// half-dead; it must be rejected at setup instead.
    #[test]
    fn duplicate_hello_is_rejected() {
        let listener = TcpListener::bind(loopback()).unwrap();
        let addr = listener.local_addr().unwrap();
        // Node 3 of a complete 3-mesh expects inbound from nodes 1 and 2.
        let addrs = vec![addr, addr, addr];
        let accepter = std::thread::spawn(move || {
            GossipMesh::connect_listener(3, listener, &addrs, MeshAuth::insecure_dev(3, 3, 77), 0)
        });
        // Two dialers, both with node 1's (valid!) identity. A real
        // dialer follows the handshake with the offset probe, so these
        // do too (the accepter's probe would otherwise time out before
        // it ever sees the duplicate).
        let dial = || {
            let auth = MeshAuth::insecure_dev(1, 3, 77);
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.set_read_timeout(Some(TICK)).unwrap();
            let target = *auth.roster.get(3).unwrap();
            let result = handshake::initiate(&mut stream, 1, &auth.identity, &target);
            if let Ok(mut session) = result {
                let _ = handshake::offset_probe_initiate(&mut stream, &mut session);
            }
            stream
        };
        let _first = dial();
        let _second = dial();
        match accepter.join().unwrap() {
            Err(NetworkError::Setup(msg)) => {
                assert!(msg.contains("duplicate"), "unexpected message: {msg}")
            }
            Err(other) => panic!("expected duplicate-hello rejection, got {other:?}"),
            Ok(_) => panic!("expected duplicate-hello rejection, got a mesh"),
        }
    }

    /// Regression: a dialer that connects and never speaks used to stall
    /// mesh setup forever on the blocking hello read; the handshake read
    /// timeout must fail setup instead.
    #[test]
    fn mute_dialer_cannot_stall_mesh_setup() {
        let listener = TcpListener::bind(loopback()).unwrap();
        let addr = listener.local_addr().unwrap();
        let addrs = vec![addr, addr];
        let accepter = std::thread::spawn(move || {
            GossipMesh::connect_listener(2, listener, &addrs, MeshAuth::insecure_dev(2, 2, 78), 0)
        });
        // Connect and say nothing, keeping the socket open.
        let mute = TcpStream::connect(addr).unwrap();
        let start = Instant::now();
        let result = accepter.join().unwrap();
        assert!(result.is_err(), "mesh setup must fail on a mute dialer");
        assert!(
            start.elapsed() < HANDSHAKE_TIMEOUT + Duration::from_secs(5),
            "setup took too long: {:?}",
            start.elapsed()
        );
        drop(mute);
    }

    /// Regression: write errors used to vanish into `let _ =` and
    /// reader-thread deaths were invisible; both must count.
    #[test]
    fn dead_link_is_observable_in_counters() {
        let mut nodes = build_gossip(2, 0, 34);
        let registry = Arc::new(theta_metrics::MetricsRegistry::new());
        let node2 = nodes.pop().unwrap();
        let mut node1 = nodes.pop().unwrap();
        node1.attach_registry(&registry);
        drop(node2); // closes its sockets: node 1's link is now dead

        // The reader sees EOF and its exit is counted.
        wait_until("reader exit never counted", || {
            counter(&registry, "theta_tcp_reader_exits_total") >= 1
        });
        // Writes to the dead link eventually fail (first ones may land
        // in the kernel buffer) and the failures are counted.
        wait_until("send error never counted", || {
            node1.send_to(2, vec![0u8; 4096]);
            counter(&registry, "theta_tcp_send_errors_total") >= 1
        });
    }

    /// A man-in-the-middle recording the wire must see only handshake
    /// material and ciphertext: every inter-node byte after the hello is
    /// AEAD-protected.
    #[test]
    fn wire_carries_no_plaintext() {
        let captured: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));

        fn pipe(mut from: TcpStream, mut to: TcpStream, cap: Arc<Mutex<Vec<u8>>>) {
            let mut buf = [0u8; 4096];
            loop {
                match from.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => {
                        cap.lock().extend_from_slice(&buf[..n]);
                        if to.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                }
            }
        }

        let node2_listener = TcpListener::bind(loopback()).unwrap();
        let node2_addr = node2_listener.local_addr().unwrap();
        // The forwarder takes node 2's place in node 1's address list.
        let mitm_listener = TcpListener::bind(loopback()).unwrap();
        let mitm_addr = mitm_listener.local_addr().unwrap();
        let cap = captured.clone();
        std::thread::spawn(move || {
            let (client, _) = mitm_listener.accept().unwrap();
            let server = TcpStream::connect(node2_addr).unwrap();
            let c2 = client.try_clone().unwrap();
            let s2 = server.try_clone().unwrap();
            let cap2 = cap.clone();
            std::thread::spawn(move || pipe(c2, server, cap));
            std::thread::spawn(move || pipe(s2, client, cap2));
        });

        let node1_listener = TcpListener::bind(loopback()).unwrap();
        let node1_addrs = vec![node1_listener.local_addr().unwrap(), mitm_addr];
        let node2_addrs = vec![node1_addrs[0], node2_addr];
        let node2 = std::thread::spawn(move || {
            let auth = MeshAuth::insecure_dev(2, 2, 79);
            GossipMesh::connect_listener(2, node2_listener, &node2_addrs, auth, 0).unwrap()
        });
        let auth = MeshAuth::insecure_dev(1, 2, 79);
        let node1 = GossipMesh::connect_listener(1, node1_listener, &node1_addrs, auth, 0).unwrap();
        let node2 = node2.join().unwrap();

        let secret = b"ATTACK AT DAWN: distinctive plaintext marker 5f2c9a";
        node1.broadcast_p2p(secret.to_vec());
        let ev = node2.recv_timeout(TICK).expect("delivery through the mitm");
        assert_eq!(ev, NetworkEvent::P2p { from: 1, payload: secret.to_vec() });
        node2.send_to(1, secret.to_vec());
        let _ = node1.recv_timeout(TICK).expect("reverse delivery");

        let wire = captured.lock().clone();
        assert!(!wire.is_empty(), "the mitm saw no traffic at all");
        // Not even a 16-byte fragment of the payload may appear.
        assert!(
            !wire.windows(16).any(|w| secret.windows(16).any(|s| s == w)),
            "plaintext leaked onto the wire"
        );
    }
}
