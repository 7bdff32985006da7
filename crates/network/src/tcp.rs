//! Real TCP full-mesh transport with a leader-sequencer TOB, over
//! authenticated encrypted links.
//!
//! Replaces the libp2p overlay of the original system for standalone
//! deployments: every node dials every higher-id node and accepts from
//! every lower-id node, and node 1 doubles as the TOB sequencer (the
//! "proxy to a replicated service" collapsed to its simplest faithful
//! form: a single ordering point).
//!
//! **Link security.** Connection setup runs the Noise-IK-style
//! handshake of [`crate::handshake`]: the dialer's first bytes are
//! handshake message A (its node id in the clear plus an ephemeral key
//! and an authentication tag), the accepter answers with message B, and
//! both sides derive per-direction ChaCha20-Poly1305 session keys. From
//! then on every frame on the wire is a `u32`-length-prefixed AEAD
//! ciphertext; a frame that fails authentication tears the connection
//! down. Handshake reads carry a timeout so a mute or stalled dialer
//! cannot wedge mesh setup, and a second connection claiming an
//! already-connected peer id is rejected instead of clobbering the
//! live link.
//!
//! Frame layout *inside* the AEAD plaintext:
//! `tag(u8) | fields... | span([u8;8]) | hop(u8) | payload` with tags
//! `0` = P2P message (`from: u16`),
//! `1` = TOB submit (`from: u16`) — only sent *to* the sequencer,
//! `2` = TOB deliver (`seq: u64, from: u16`) — only sent *by* it.
//!
//! `span`/`hop` are the **trace context**: the 8-byte span id of the
//! protocol instance the payload belongs to (see
//! [`crate::demux::span_of`]) and the number of links the frame has
//! traversed. The full mesh is single-hop, so senders stamp `hop = 1`;
//! the only relay is the sequencer turning a TOB submit into a
//! delivery, which increments the hop (and records a `RelayHop` journal
//! event). Because the context sits inside the AEAD plaintext, any
//! tampering with it is indistinguishable from tampering with the
//! payload: the frame fails authentication and the link is torn down.
//!
//! Directly after each link's handshake, the dialer runs the
//! [`handshake::offset_probe_initiate`] ping-pong so both ends hold an
//! estimate of the pairwise wall-clock offset; the estimates surface as
//! `theta_clock_offset_micros{peer=...}` gauges and feed the
//! cluster-trace merge.
//!
//! Sender identity is **connection-derived and cryptographically
//! verified**: each reader thread knows which peer its socket belongs
//! to (proved by the handshake, not merely claimed by a hello byte) and
//! stamps/validates every frame against it. A peer cannot impersonate
//! another node in P2P traffic, cannot submit TOB messages under a
//! foreign id, and cannot forge TOB deliveries unless it *is* the
//! sequencer connection.
//!
//! Per node, one demultiplexer thread owns the TOB reorder buffer (and,
//! on node 1, the sequencer state) and feeds one ordered event stream
//! into the sink installed by [`Network::set_event_sink`].
//!
//! Link-health observability: write failures no longer vanish into
//! `let _ =` — they count into `theta_tcp_send_errors_total` — and a
//! reader thread ending (EOF, I/O error, malformed or tampered frame)
//! counts into `theta_tcp_reader_exits_total` (AEAD failures also into
//! `theta_net_aead_failures_total`), so a dead link is visible in the
//! metrics instead of silently eating traffic.

use crate::demux::{span_hex, span_of, SPAN_LEN};
use crate::handshake::{self, MeshAuth, RecvCipher, SendCipher};
use crate::{
    EventOutlet, EventSink, Network, NetworkError, NetworkEvent, NodeId, PeerTraffic,
    TobReorderBuffer,
};
use parking_lot::Mutex;
use std::collections::HashSet;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;
use theta_metrics::{TraceEventKind, TraceJournal};
use theta_sync::channel::{unbounded, Receiver, Sender};

pub(crate) const TAG_P2P: u8 = 0;
pub(crate) const TAG_TOB_SUBMIT: u8 = 1;
pub(crate) const TAG_TOB_DELIVER: u8 = 2;

/// Trace context carried by every frame: span id + hop count.
pub(crate) const CTX_LEN: usize = SPAN_LEN + 1;

/// The fixed TOB sequencer node.
pub(crate) const SEQUENCER: NodeId = 1;

/// Read timeout applied while a connection is mid-handshake, so a
/// dialer that connects and never speaks cannot stall mesh setup.
pub(crate) const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(3);

enum Inbound {
    P2p { from: NodeId, span: [u8; SPAN_LEN], hop: u8, payload: Vec<u8> },
    TobSubmit { from: NodeId, span: [u8; SPAN_LEN], hop: u8, payload: Vec<u8> },
    TobDeliver { seq: u64, from: NodeId, span: [u8; SPAN_LEN], hop: u8, payload: Vec<u8> },
}

/// Header length for P2P / TOB-submit frames:
/// `tag(1) | from(2) | span(8) | hop(1)`.
const P2P_HEADER_LEN: usize = 1 + 2 + CTX_LEN;
/// Header length for TOB-deliver frames:
/// `tag(1) | seq(8) | from(2) | span(8) | hop(1)`.
const DELIVER_HEADER_LEN: usize = 1 + 8 + 2 + CTX_LEN;

fn read_span(body: &[u8], at: usize) -> [u8; SPAN_LEN] {
    let mut span = [0u8; SPAN_LEN];
    span.copy_from_slice(&body[at..at + SPAN_LEN]);
    span
}

fn parse_frame(body: &[u8]) -> Option<Inbound> {
    match *body.first()? {
        tag @ (TAG_P2P | TAG_TOB_SUBMIT) => {
            if body.len() < P2P_HEADER_LEN {
                return None;
            }
            let from = u16::from_le_bytes([body[1], body[2]]);
            let span = read_span(body, 3);
            let hop = body[11];
            let payload = body[P2P_HEADER_LEN..].to_vec();
            Some(if tag == TAG_P2P {
                Inbound::P2p { from, span, hop, payload }
            } else {
                Inbound::TobSubmit { from, span, hop, payload }
            })
        }
        TAG_TOB_DELIVER => {
            if body.len() < DELIVER_HEADER_LEN {
                return None;
            }
            let mut seq_bytes = [0u8; 8];
            seq_bytes.copy_from_slice(&body[1..9]);
            let seq = u64::from_le_bytes(seq_bytes);
            let from = u16::from_le_bytes([body[9], body[10]]);
            let span = read_span(body, 11);
            let hop = body[19];
            Some(Inbound::TobDeliver {
                seq,
                from,
                span,
                hop,
                payload: body[DELIVER_HEADER_LEN..].to_vec(),
            })
        }
        _ => None,
    }
}

/// Builds a P2P / TOB-submit frame: sender-stamped trace context with
/// `hop = 1` (the frame is about to traverse its first link).
fn p2p_frame(tag: u8, from: NodeId, payload: &[u8]) -> Vec<u8> {
    let mut body = Vec::with_capacity(P2P_HEADER_LEN + payload.len());
    body.push(tag);
    body.extend_from_slice(&from.to_le_bytes());
    body.extend_from_slice(&span_of(payload));
    body.push(1);
    body.extend_from_slice(payload);
    body
}

/// Traffic counters attached to a mesh node after setup. Reader and
/// writer paths check the `OnceLock` per frame — a relaxed pointer load
/// when attached, a no-op when not.
struct TcpMetrics {
    sent: PeerTraffic,
    recv: PeerTraffic,
    send_errors: Arc<theta_metrics::Counter>,
    reader_exits: Arc<theta_metrics::Counter>,
    aead_failures: Arc<theta_metrics::Counter>,
}

/// Link-health tallies accumulated before (and after) a registry is
/// attached; the pre-attach values are transferred into the registry
/// counters at attach time, mirroring `connects_established`.
#[derive(Default)]
pub(crate) struct LinkHealth {
    pub(crate) send_errors: AtomicU64,
    pub(crate) reader_exits: AtomicU64,
    pub(crate) aead_failures: AtomicU64,
    pub(crate) handshakes: AtomicU64,
}

/// One established, encrypted write half.
struct Conn {
    stream: TcpStream,
    cipher: SendCipher,
}

struct Shared {
    /// Write halves, indexed by node id − 1 (`None` at our own slot).
    peers: Vec<Option<Mutex<Conn>>>,
    id: NodeId,
    /// Sequencer state (used only on node 1's demux thread).
    tob_seq: AtomicU64,
    /// Connections established during mesh setup (dials + accepts),
    /// transferred into the registry when metrics are attached.
    connects_established: AtomicU64,
    health: LinkHealth,
    metrics: OnceLock<TcpMetrics>,
    /// Estimated wall-clock offset to each peer (µs to *add* to our
    /// wall clock to land on theirs), measured by the post-handshake
    /// ping-pong probe; 0 at our own slot and for unprobed peers.
    clock_offsets: Vec<AtomicI64>,
    journal: OnceLock<Arc<TraceJournal>>,
}

impl Shared {
    /// Journals an envelope leaving this node (`peer` 0 = broadcast).
    fn trace_send(&self, peer: NodeId, payload: &[u8]) {
        if let (Some(j), Some(key)) = (self.journal.get(), crate::demux::peek_key(payload)) {
            let span = span_of(payload);
            j.record_full(key, TraceEventKind::PeerSend, peer, format!("span={}", span_hex(&span)));
        }
    }

    /// Journals an envelope arriving from `peer` with its trace context.
    fn trace_recv(&self, peer: NodeId, span: &[u8; SPAN_LEN], hop: u8, payload: &[u8]) {
        if let (Some(j), Some(key)) = (self.journal.get(), crate::demux::peek_key(payload)) {
            j.record_full(
                key,
                TraceEventKind::PeerRecv,
                peer,
                format!("span={} hop={hop}", span_hex(span)),
            );
        }
    }
    fn send_raw(&self, peer: NodeId, body: &[u8]) {
        if let Some(Some(conn)) = self.peers.get(peer as usize - 1) {
            let mut conn = conn.lock();
            let result = {
                let Conn { stream, cipher } = &mut *conn;
                handshake::write_sealed(stream, cipher, body)
            };
            match result {
                Ok(()) => {
                    if let Some(m) = self.metrics.get() {
                        // Count wire bytes (ciphertext + tag), what the
                        // peer's receive counter will also see.
                        m.sent.count(peer, body.len() + 16);
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

/// A node of the TCP mesh. Build a whole mesh with [`TcpMesh::connect`]
/// or [`TcpMesh::connect_listener`].
pub struct TcpMeshNode {
    shared: Arc<Shared>,
    n: usize,
    /// Where the demux delivers ordered events.
    outlet: Arc<EventOutlet>,
    /// Raw inbound channel into the demux thread; also used for the
    /// sequencer's own TOB submissions so all ordering happens in one
    /// place. Held here to keep the demux alive as long as the node.
    raw_tx: Sender<Inbound>,
}

/// Builder for a full TCP mesh on one or more machines.
pub struct TcpMesh;

impl TcpMesh {
    /// Connects node `id` (1-based) into the mesh described by `addrs`
    /// (address `i` belongs to node `i + 1`; `addrs[id-1]` is the local
    /// bind address), authenticating every link with `auth`.
    ///
    /// Dial direction: node `a` dials node `b` iff `a < b`. The dialer
    /// opens with handshake message A (which carries its id).
    ///
    /// # Errors
    ///
    /// [`NetworkError`] when binding, dialing or the handshake fail.
    pub fn connect(
        id: NodeId,
        addrs: &[SocketAddr],
        auth: MeshAuth,
    ) -> Result<TcpMeshNode, NetworkError> {
        let n = addrs.len();
        if id == 0 || id as usize > n {
            return Err(NetworkError::Setup(format!("node id {id} outside 1..={n}")));
        }
        let listener = TcpListener::bind(addrs[id as usize - 1])?;
        Self::connect_listener(id, listener, addrs, auth)
    }

    /// Like [`TcpMesh::connect`], but with a pre-bound listener — the
    /// pattern for OS-assigned (port 0) addresses: bind every listener
    /// first, exchange the real addresses, then connect the mesh. The
    /// entry `addrs[id-1]` is ignored (the listener stands in for it).
    ///
    /// # Errors
    ///
    /// [`NetworkError`] when accepting, dialing or the handshake fail —
    /// including a peer id claimed twice (the duplicate is rejected
    /// rather than allowed to clobber the live peer's slot) and a
    /// dialer that connects but never completes its handshake within
    /// [`HANDSHAKE_TIMEOUT`].
    pub fn connect_listener(
        id: NodeId,
        listener: TcpListener,
        addrs: &[SocketAddr],
        auth: MeshAuth,
    ) -> Result<TcpMeshNode, NetworkError> {
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
        let (raw_tx, raw_rx) = unbounded::<Inbound>();

        let mut peers: Vec<Option<Mutex<Conn>>> = Vec::with_capacity(n);
        for _ in 0..n {
            peers.push(None);
        }

        // Accept connections from all lower-id nodes. Each accepted
        // socket must complete the authentication handshake within
        // HANDSHAKE_TIMEOUT, and each peer id may appear only once.
        let expected_inbound = id as usize - 1;
        let mut accepted = HashSet::new();
        let mut inbound_streams = Vec::new();
        let mut offsets = vec![0i64; n];
        listener.set_nonblocking(false)?;
        while accepted.len() < expected_inbound {
            let (mut stream, _) = listener.accept()?;
            stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
            let (peer_id, mut session) =
                handshake::respond(&mut stream, &auth.identity, &auth.roster)?;
            if peer_id == 0 || peer_id >= id {
                return Err(NetworkError::Setup(format!("unexpected hello from {peer_id}")));
            }
            if !accepted.insert(peer_id) {
                return Err(NetworkError::Setup(format!(
                    "duplicate hello from peer {peer_id}: a connection for that id is already \
                     established"
                )));
            }
            // Clock-offset probe, responder side, while the handshake
            // read timeout is still armed (a mute initiator cannot
            // wedge setup here either).
            offsets[peer_id as usize - 1] = handshake::offset_probe_respond(&mut stream, &mut session)?;
            stream.set_read_timeout(None)?;
            inbound_streams.push((peer_id, stream, session));
        }

        // Dial all higher-id nodes (with retries while they come up).
        let mut outbound_streams = Vec::new();
        for peer in (id + 1)..=(n as u16) {
            let addr = addrs[peer as usize - 1];
            let mut stream = dial_with_retry(addr)?;
            stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
            let responder_static = auth
                .roster
                .get(peer)
                .ok_or_else(|| NetworkError::Setup(format!("no roster entry for {peer}")))?;
            let mut session =
                handshake::initiate(&mut stream, id, &auth.identity, responder_static)?;
            offsets[peer as usize - 1] =
                handshake::offset_probe_initiate(&mut stream, &mut session)?;
            stream.set_read_timeout(None)?;
            outbound_streams.push((peer, stream, session));
        }

        let mut readers = Vec::new();
        let mut connects = 0u64;
        for (peer, stream, session) in outbound_streams.into_iter().chain(inbound_streams) {
            readers.push((stream.try_clone()?, peer, session.recv));
            peers[peer as usize - 1] =
                Some(Mutex::new(Conn { stream, cipher: session.send }));
            connects += 1;
        }

        let shared = Arc::new(Shared {
            peers,
            id,
            tob_seq: AtomicU64::new(0),
            connects_established: AtomicU64::new(connects),
            health: LinkHealth::default(),
            metrics: OnceLock::new(),
            clock_offsets: offsets.into_iter().map(AtomicI64::new).collect(),
            journal: OnceLock::new(),
        });
        shared.health.handshakes.store(connects, Ordering::Relaxed);
        for (stream, peer, recv) in readers {
            spawn_reader(stream, peer, recv, raw_tx.clone(), shared.clone());
        }
        let outlet = Arc::new(EventOutlet::new());
        spawn_demux(raw_rx, outlet.clone(), shared.clone(), n);
        Ok(TcpMeshNode { shared, n, outlet, raw_tx })
    }
}

pub(crate) fn dial_with_retry(addr: SocketAddr) -> Result<TcpStream, NetworkError> {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => {
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

/// Reads AEAD frames from one connection, enforcing the connection
/// identity `conn_peer` proved during the handshake:
///
/// - P2P frames are **stamped** with `conn_peer`, whatever they claim;
/// - TOB submits claiming a different sender are dropped (spoofing);
/// - TOB deliveries are accepted only from the sequencer's connection;
/// - a frame failing AEAD authentication tears the connection down
///   (and the exit is counted, so dead links are observable).
// theta: event-loop
// theta: entrypoint(network)
fn spawn_reader(
    mut stream: TcpStream,
    conn_peer: NodeId,
    mut cipher: RecvCipher,
    tx: Sender<Inbound>,
    shared: Arc<Shared>,
) {
    std::thread::Builder::new()
        .name(format!("theta-tcp-reader-{conn_peer}"))
        .spawn(move || {
            loop {
                let body = match handshake::read_sealed(&mut stream, &mut cipher) {
                    Ok(body) => body,
                    Err(e) => {
                        if e.kind() == std::io::ErrorKind::InvalidData {
                            // Tampered/forged traffic: kill the link so
                            // the peer (or the attacker splicing into
                            // it) cannot keep probing the stream state.
                            shared.count_aead_failure();
                            let _ = stream.shutdown(std::net::Shutdown::Both);
                        }
                        break;
                    }
                };
                if let Some(m) = shared.metrics.get() {
                    m.recv.count(conn_peer, body.len() + 16);
                }
                let inbound = match parse_frame(&body) {
                    Some(Inbound::P2p { span, hop, payload, .. }) => {
                        shared.trace_recv(conn_peer, &span, hop, &payload);
                        Inbound::P2p { from: conn_peer, span, hop, payload }
                    }
                    Some(Inbound::TobSubmit { from, span, hop, payload }) => {
                        if from != conn_peer {
                            continue; // spoofed submit: drop it
                        }
                        shared.trace_recv(conn_peer, &span, hop, &payload);
                        Inbound::TobSubmit { from, span, hop, payload }
                    }
                    Some(Inbound::TobDeliver { seq, from, span, hop, payload }) => {
                        if conn_peer != SEQUENCER {
                            continue; // only the sequencer delivers
                        }
                        shared.trace_recv(conn_peer, &span, hop, &payload);
                        Inbound::TobDeliver { seq, from, span, hop, payload }
                    }
                    None => break, // malformed frame: drop the connection
                };
                if tx.send(inbound).is_err() {
                    break;
                }
            }
            shared.count_reader_exit();
        })
        .expect("spawn reader");
}

/// The per-node demultiplexer: single owner of the TOB reorder buffer
/// (and of the sequencer state on node 1), turning the raw inbound
/// stream into one ordered [`NetworkEvent`] stream.
// theta: event-loop
fn spawn_demux(
    raw_rx: Receiver<Inbound>,
    outlet: Arc<EventOutlet>,
    shared: Arc<Shared>,
    n: usize,
) {
    std::thread::Builder::new()
        .name(format!("theta-tcp-demux-{}", shared.id))
        .spawn(move || {
            let sequencing = shared.id == SEQUENCER;
            let mut reorder = TobReorderBuffer::new();
            // theta: allow(blocking): the demux thread's designated wait — it owns this queue and has nothing else to do
            while let Ok(inbound) = raw_rx.recv() {
                let released = match inbound {
                    Inbound::P2p { from, payload, .. } => {
                        vec![NetworkEvent::P2p { from, payload }]
                    }
                    Inbound::TobSubmit { from, span, hop, payload } => {
                        if !sequencing {
                            continue; // stray submit at a non-sequencer
                        }
                        let seq = shared.tob_seq.fetch_add(1, Ordering::SeqCst);
                        // The sequencer relays the submit as a delivery:
                        // the context travels on, one hop further.
                        let out_hop = hop.saturating_add(1);
                        let mut body =
                            Vec::with_capacity(DELIVER_HEADER_LEN + payload.len());
                        body.push(TAG_TOB_DELIVER);
                        body.extend_from_slice(&seq.to_le_bytes());
                        body.extend_from_slice(&from.to_le_bytes());
                        body.extend_from_slice(&span);
                        body.push(out_hop);
                        body.extend_from_slice(&payload);
                        if let (Some(j), Some(key)) =
                            (shared.journal.get(), crate::demux::peek_key(&payload))
                        {
                            if from == shared.id {
                                j.record_full(
                                    key,
                                    TraceEventKind::PeerSend,
                                    0,
                                    format!("span={}", span_hex(&span)),
                                );
                            } else {
                                j.record_full(
                                    key,
                                    TraceEventKind::RelayHop,
                                    from,
                                    format!(
                                        "origin={from} span={} hop={out_hop}",
                                        span_hex(&span)
                                    ),
                                );
                            }
                        }
                        for peer in 1..=n as u16 {
                            if peer != shared.id {
                                shared.send_raw(peer, &body);
                            }
                        }
                        reorder.insert(seq, from, payload)
                    }
                    Inbound::TobDeliver { seq, from, payload, .. } => {
                        reorder.insert(seq, from, payload)
                    }
                };
                for ev in released {
                    outlet.deliver(ev);
                }
            }
        })
        .expect("spawn demux");
}

impl TcpMeshNode {
    /// Waits up to `timeout` for this node's next event. Only events
    /// that arrive before [`Network::set_event_sink`] are returned here.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<NetworkEvent> {
        self.outlet.recv_timeout(timeout)
    }
}

impl Drop for TcpMeshNode {
    fn drop(&mut self) {
        // Reader threads hold cloned fds of every connection, so merely
        // dropping the write halves would leave the sockets open (and
        // peers none the wiser). Shut them down so both sides' readers
        // see EOF promptly.
        for conn in self.shared.peers.iter().flatten() {
            let _ = conn.lock().stream.shutdown(std::net::Shutdown::Both);
        }
    }
}

impl Network for TcpMeshNode {
    fn node_id(&self) -> NodeId {
        self.shared.id
    }

    fn num_nodes(&self) -> usize {
        self.n
    }

    fn broadcast_p2p(&self, payload: Vec<u8>) {
        self.shared.trace_send(0, &payload);
        let body = p2p_frame(TAG_P2P, self.shared.id, &payload);
        for peer in 1..=self.n as u16 {
            if peer != self.shared.id {
                self.shared.send_raw(peer, &body);
            }
        }
    }

    fn send_to(&self, peer: NodeId, payload: Vec<u8>) {
        if peer == self.shared.id {
            return;
        }
        self.shared.trace_send(peer, &payload);
        let body = p2p_frame(TAG_P2P, self.shared.id, &payload);
        self.shared.send_raw(peer, &body);
    }

    fn submit_tob(&self, payload: Vec<u8>) {
        if self.shared.id == SEQUENCER {
            // Route through the demux thread so local submissions are
            // serialized with remote ones by a single sequencing owner.
            // No link traversed yet: hop 0 (the deliver fan-out stamps
            // hop 1 and records the PeerSend).
            let span = span_of(&payload);
            let _ = self.raw_tx.send(Inbound::TobSubmit {
                from: self.shared.id,
                span,
                hop: 0,
                payload,
            });
        } else {
            self.shared.trace_send(SEQUENCER, &payload);
            let body = p2p_frame(TAG_TOB_SUBMIT, self.shared.id, &payload);
            self.shared.send_raw(SEQUENCER, &body);
        }
    }

    fn set_event_sink(&mut self, sink: EventSink) {
        self.outlet.install(sink);
    }

    fn attach_registry(&mut self, registry: &Arc<theta_metrics::MetricsRegistry>) {
        let metrics = TcpMetrics {
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
        };
        // Events from before the registry existed (setup connects, early
        // failures) are transferred so the counters stay cumulative.
        registry
            .counter("theta_net_connects_total")
            .add(self.shared.connects_established.load(Ordering::Relaxed));
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
        // Pairwise clock offsets measured by the post-handshake probe,
        // for the cluster-trace merge and operator inspection.
        for peer in 1..=self.n as u16 {
            if peer != self.shared.id {
                let off = self.shared.clock_offsets[peer as usize - 1].load(Ordering::Relaxed);
                registry
                    .gauge_with("theta_clock_offset_micros", &[("peer", &peer.to_string())])
                    .set(off);
            }
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

    /// Shared dev-mode auth domain for mesh tests.
    const DEV_SEED: u64 = 42;

    /// Binds `n` ephemeral-port listeners and connects the full mesh —
    /// no fixed port ranges, so parallel test binaries cannot collide.
    fn build_mesh(n: u16) -> Vec<TcpMeshNode> {
        let loopback = SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), 0);
        let listeners: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind(loopback).expect("bind ephemeral"))
            .collect();
        let addr_list: Vec<SocketAddr> = listeners
            .iter()
            .map(|l| l.local_addr().expect("local addr"))
            .collect();
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(i, listener)| {
                let list = addr_list.clone();
                std::thread::spawn(move || {
                    let auth = MeshAuth::insecure_dev(i as u16 + 1, n, DEV_SEED);
                    TcpMesh::connect_listener(i as u16 + 1, listener, &list, auth).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    const TICK: Duration = Duration::from_secs(3);

    #[test]
    fn p2p_over_tcp() {
        let nodes = build_mesh(3);
        nodes[0].broadcast_p2p(b"tcp hello".to_vec());
        for node in &nodes[1..] {
            let ev = node.recv_timeout(TICK).expect("delivery");
            assert_eq!(ev, NetworkEvent::P2p { from: 1, payload: b"tcp hello".to_vec() });
        }
    }

    #[test]
    fn direct_send_over_tcp() {
        let nodes = build_mesh(3);
        nodes[2].send_to(1, b"up".to_vec());
        let ev = nodes[0].recv_timeout(TICK).unwrap();
        assert_eq!(ev, NetworkEvent::P2p { from: 3, payload: b"up".to_vec() });
    }

    #[test]
    fn tob_total_order_over_tcp() {
        let nodes = build_mesh(3);
        nodes[1].submit_tob(b"x".to_vec());
        nodes[2].submit_tob(b"y".to_vec());
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

    #[test]
    fn bad_node_id_rejected() {
        let loopback = SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), 0);
        let list = vec![
            TcpListener::bind(loopback).unwrap().local_addr().unwrap(),
            TcpListener::bind(loopback).unwrap().local_addr().unwrap(),
        ];
        assert!(TcpMesh::connect(0, &list, MeshAuth::insecure_dev(1, 2, DEV_SEED)).is_err());
        assert!(TcpMesh::connect(3, &list, MeshAuth::insecure_dev(3, 2, DEV_SEED)).is_err());
    }

    #[test]
    fn p2p_sender_is_stamped_from_connection() {
        // Node 3 claims to be node 9 inside the frame; the receiver must
        // see the connection-derived sender instead.
        let nodes = build_mesh(3);
        let body = p2p_frame(TAG_P2P, 9, b"who am i");
        nodes[2].shared.send_raw(1, &body);
        let ev = nodes[0].recv_timeout(TICK).expect("delivery");
        assert_eq!(ev, NetworkEvent::P2p { from: 3, payload: b"who am i".to_vec() });
    }

    #[test]
    fn spoofed_tob_submit_is_dropped() {
        // Node 3 submits to the sequencer claiming to be node 2: the
        // frame must be discarded, and honest traffic keeps flowing.
        let nodes = build_mesh(3);
        let body = p2p_frame(TAG_TOB_SUBMIT, 2, b"forged");
        nodes[2].shared.send_raw(1, &body);
        // An honest submit afterwards is the only delivery anyone sees.
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
    fn forged_tob_deliver_from_non_sequencer_is_dropped() {
        // Only node 1's connection may carry TOB deliveries; node 3
        // pushing a fake delivery to node 2 must be ignored.
        let nodes = build_mesh(3);
        let mut body = vec![TAG_TOB_DELIVER];
        body.extend_from_slice(&0u64.to_le_bytes());
        body.extend_from_slice(&1u16.to_le_bytes());
        body.extend_from_slice(&[0u8; SPAN_LEN]);
        body.push(1); // hop
        body.extend_from_slice(b"fake");
        nodes[2].shared.send_raw(2, &body);
        assert!(nodes[1].recv_timeout(Duration::from_millis(200)).is_none());
    }

    #[test]
    fn tcp_counters_track_traffic() {
        let mut nodes = build_mesh(2);
        let registry = Arc::new(theta_metrics::MetricsRegistry::new());
        nodes[1].attach_registry(&registry); // node 2 only
        assert_eq!(registry.counter_value("theta_net_connects_total", &[]), Some(1));
        assert_eq!(registry.counter_value("theta_net_handshakes_total", &[]), Some(1));

        nodes[0].send_to(2, b"abcd".to_vec());
        let ev = nodes[1].recv_timeout(TICK).expect("delivery");
        assert!(matches!(ev, NetworkEvent::P2p { from: 1, .. }));
        // Received: one frame from peer 1 — 12-byte header (tag, from,
        // span, hop) + 4-byte payload + 16-byte AEAD tag on the wire.
        assert_eq!(
            registry.counter_value("theta_net_messages_received_total", &[("peer", "1")]),
            Some(1)
        );
        assert_eq!(
            registry.counter_value("theta_net_bytes_received_total", &[("peer", "1")]),
            Some(32)
        );

        nodes[1].send_to(1, b"xy".to_vec());
        let _ = nodes[0].recv_timeout(TICK).expect("delivery back");
        assert_eq!(
            registry.counter_value("theta_net_messages_sent_total", &[("peer", "1")]),
            Some(1)
        );
        assert_eq!(
            registry.counter_value("theta_net_bytes_sent_total", &[("peer", "1")]),
            Some(30)
        );

        // The post-handshake probe left a pairwise offset gauge; both
        // processes share one clock, so it must be (near) zero.
        let off = registry
            .gauge_value("theta_clock_offset_micros", &[("peer", "1")])
            .expect("offset gauge registered");
        assert!(off.abs() < 1_000_000, "same-host offset too large: {off}µs");
    }

    /// The trace context survives AEAD framing end to end: a payload
    /// whose leading 32 bytes are an instance id yields PeerSend at the
    /// sender and PeerRecv (with span and hop=1) at the receiver.
    #[test]
    fn trace_context_travels_with_the_frame() {
        let mut nodes = build_mesh(2);
        let j1 = Arc::new(TraceJournal::new(64));
        let j2 = Arc::new(TraceJournal::new(64));
        nodes[0].attach_journal(&j1);
        nodes[1].attach_journal(&j2);

        let mut instance = [0u8; 32];
        instance[..8].copy_from_slice(&[0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4]);
        let mut payload = instance.to_vec();
        payload.extend_from_slice(b"envelope body");
        nodes[0].send_to(2, payload.clone());
        let ev = nodes[1].recv_timeout(TICK).expect("delivery");
        assert!(matches!(ev, NetworkEvent::P2p { from: 1, .. }));

        let sends = j1.events_for(&instance);
        assert_eq!(sends.len(), 1);
        assert_eq!(sends[0].kind, TraceEventKind::PeerSend);
        assert_eq!(sends[0].peer, 2);
        assert!(sends[0].detail.contains("span=deadbeef01020304"));

        // The receive is journaled off the reader thread; give it a tick.
        let deadline = std::time::Instant::now() + TICK;
        loop {
            let recvs = j2.events_for(&instance);
            if !recvs.is_empty() {
                assert_eq!(recvs[0].kind, TraceEventKind::PeerRecv);
                assert_eq!(recvs[0].peer, 1);
                assert!(recvs[0].detail.contains("span=deadbeef01020304"));
                assert!(recvs[0].detail.contains("hop=1"));
                break;
            }
            assert!(std::time::Instant::now() < deadline, "receive never journaled");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// The sequencer relaying a TOB submit into a delivery increments
    /// the hop count and records the relay in its journal.
    #[test]
    fn sequencer_relay_increments_hop_and_journals() {
        let mut nodes = build_mesh(3);
        let journals: Vec<Arc<TraceJournal>> =
            (0..3).map(|_| Arc::new(TraceJournal::new(64))).collect();
        for (node, j) in nodes.iter_mut().zip(&journals) {
            node.attach_journal(j);
        }

        let mut instance = [7u8; 32];
        instance[0] = 0xab;
        let payload = instance.to_vec();
        nodes[2].submit_tob(payload); // node 3 → sequencer → everyone
        for node in &nodes {
            let ev = node.recv_timeout(TICK).expect("tob delivery");
            assert!(matches!(ev, NetworkEvent::Tob { from: 3, .. }));
        }

        let wait_for = |j: &TraceJournal, kind: TraceEventKind| -> theta_metrics::TraceEvent {
            let deadline = std::time::Instant::now() + TICK;
            loop {
                if let Some(ev) =
                    j.events_for(&instance).into_iter().find(|e| e.kind == kind)
                {
                    return ev;
                }
                assert!(std::time::Instant::now() < deadline, "no {kind:?} journaled");
                std::thread::sleep(Duration::from_millis(5));
            }
        };

        // Sequencer: received the submit at hop 1, relayed at hop 2.
        let relay = wait_for(&journals[0], TraceEventKind::RelayHop);
        assert_eq!(relay.peer, 3);
        assert!(relay.detail.contains("hop=2"), "relay detail: {}", relay.detail);
        // Node 2 (pure bystander): delivery arrived having crossed two
        // links — submitter→sequencer, sequencer→node 2.
        let recv = wait_for(&journals[1], TraceEventKind::PeerRecv);
        assert_eq!(recv.peer, SEQUENCER);
        assert!(recv.detail.contains("hop=2"), "recv detail: {}", recv.detail);
    }

    /// Regression (PR 6): a second connection claiming an already-seen
    /// peer id used to overwrite the live peer's slot and leave the
    /// original half-dead; it must be rejected at setup instead.
    #[test]
    fn duplicate_hello_is_rejected() {
        let loopback = SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), 0);
        let listener = TcpListener::bind(loopback).unwrap();
        let addr = listener.local_addr().unwrap();
        // Node 3 of a 3-mesh expects inbound from nodes 1 and 2.
        let addrs = vec![addr, addr, addr];
        let accepter = std::thread::spawn(move || {
            TcpMesh::connect_listener(3, listener, &addrs, MeshAuth::insecure_dev(3, 3, 77))
        });
        // Two dialers, both with node 1's (valid!) identity. A real
        // dialer follows the handshake with the offset probe, so these
        // do too (the accepter's probe would otherwise time out before
        // it ever sees the duplicate).
        let dial = |_| {
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
        let _first = dial(0);
        let _second = dial(1);
        let err = accepter.join().unwrap();
        match err {
            Err(NetworkError::Setup(msg)) => {
                assert!(msg.contains("duplicate"), "unexpected message: {msg}")
            }
            Err(other) => panic!("expected duplicate-hello rejection, got {other:?}"),
            Ok(_) => panic!("expected duplicate-hello rejection, got a mesh"),
        }
    }

    /// Regression (PR 6): a dialer that connects and never speaks used
    /// to stall mesh setup forever on the blocking hello read; the
    /// handshake read timeout must fail setup instead.
    #[test]
    fn mute_dialer_cannot_stall_mesh_setup() {
        let loopback = SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), 0);
        let listener = TcpListener::bind(loopback).unwrap();
        let addr = listener.local_addr().unwrap();
        let addrs = vec![addr, addr];
        let accepter = std::thread::spawn(move || {
            TcpMesh::connect_listener(2, listener, &addrs, MeshAuth::insecure_dev(2, 2, 78))
        });
        // Connect and say nothing, keeping the socket open.
        let mute = TcpStream::connect(addr).unwrap();
        let start = std::time::Instant::now();
        let result = accepter.join().unwrap();
        assert!(result.is_err(), "mesh setup must fail on a mute dialer");
        assert!(
            start.elapsed() < HANDSHAKE_TIMEOUT + Duration::from_secs(5),
            "setup took too long: {:?}",
            start.elapsed()
        );
        drop(mute);
    }

    /// Regression (PR 6): write errors used to vanish into `let _ =` and
    /// reader-thread deaths were invisible; both must count.
    #[test]
    fn dead_link_is_observable_in_counters() {
        let mut nodes = build_mesh(2);
        let registry = Arc::new(theta_metrics::MetricsRegistry::new());
        let node2 = nodes.pop().unwrap();
        let mut node1 = nodes.pop().unwrap();
        node1.attach_registry(&registry);
        drop(node2); // closes its sockets: node 1's link is now dead

        // The reader sees EOF and its exit is counted.
        let deadline = std::time::Instant::now() + TICK;
        loop {
            if registry
                .counter_value("theta_tcp_reader_exits_total", &[])
                .unwrap_or(0)
                >= 1
            {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "reader exit never counted");
            std::thread::sleep(Duration::from_millis(10));
        }

        // Writes to the dead link eventually fail (first ones may land
        // in the kernel buffer) and the failures are counted.
        let deadline = std::time::Instant::now() + TICK;
        loop {
            node1.send_to(2, vec![0u8; 4096]);
            if registry
                .counter_value("theta_tcp_send_errors_total", &[])
                .unwrap_or(0)
                >= 1
            {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "send error never counted");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// A man-in-the-middle recording the wire must see only handshake
    /// material and ciphertext: the acceptance bar for "every inter-node
    /// byte after the hello is AEAD-protected".
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

        let loopback = SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), 0);
        let node2_listener = TcpListener::bind(loopback).unwrap();
        let node2_addr = node2_listener.local_addr().unwrap();
        // The forwarder takes node 2's place in node 1's address list.
        let mitm_listener = TcpListener::bind(loopback).unwrap();
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

        let node1_listener = TcpListener::bind(loopback).unwrap();
        let node1_addrs = vec![node1_listener.local_addr().unwrap(), mitm_addr];
        let node2_addrs = vec![node1_addrs[0], node2_addr];
        let node2 = std::thread::spawn(move || {
            TcpMesh::connect_listener(
                2,
                node2_listener,
                &node2_addrs,
                MeshAuth::insecure_dev(2, 2, 79),
            )
            .unwrap()
        });
        let node1 = TcpMesh::connect_listener(
            1,
            node1_listener,
            &node1_addrs,
            MeshAuth::insecure_dev(1, 2, 79),
        )
        .unwrap();
        let node2 = node2.join().unwrap();

        let secret = b"ATTACK AT DAWN: distinctive plaintext marker 5f2c9a";
        node1.broadcast_p2p(secret.to_vec());
        let ev = node2.recv_timeout(TICK).expect("delivery through the mitm");
        assert_eq!(ev, NetworkEvent::P2p { from: 1, payload: secret.to_vec() });
        node2.send_to(1, secret.to_vec());
        let _ = node1.recv_timeout(TICK).expect("reverse delivery");

        let wire = captured.lock().clone();
        assert!(!wire.is_empty(), "the mitm saw no traffic at all");
        assert!(
            !wire
                .windows(secret.len())
                .any(|w| w == &secret[..]),
            "plaintext payload leaked onto the wire"
        );
        // Not even a fragment of the payload may appear.
        assert!(
            !wire.windows(16).any(|w| secret.windows(16).any(|s| s == w)),
            "plaintext fragment leaked onto the wire"
        );
    }

    /// Tampering with a frame in flight must kill the link, not crash or
    /// desync the node.
    #[test]
    fn tampered_frame_tears_the_link_down() {
        let mut nodes = build_mesh(2);
        let registry = Arc::new(theta_metrics::MetricsRegistry::new());
        nodes[1].attach_registry(&registry);

        // Honest traffic first, to prove the link works.
        nodes[0].send_to(2, b"before".to_vec());
        assert!(nodes[1].recv_timeout(TICK).is_some());

        // Write garbage directly into node 1's write half: node 2's
        // AEAD open fails and its reader tears the connection down.
        {
            let conn = nodes[0].shared.peers[1].as_ref().unwrap();
            let mut conn = conn.lock();
            let garbage = [9u8, 9, 9, 9];
            conn.stream
                .write_all(&(garbage.len() as u32).to_le_bytes())
                .unwrap();
            conn.stream.write_all(&garbage).unwrap();
        }

        let deadline = std::time::Instant::now() + TICK;
        loop {
            let aead = registry
                .counter_value("theta_net_aead_failures_total", &[])
                .unwrap_or(0);
            let exits = registry
                .counter_value("theta_tcp_reader_exits_total", &[])
                .unwrap_or(0);
            if aead >= 1 && exits >= 1 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "tampering never tore the link down (aead={aead}, exits={exits})"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        // The victim node is still alive (its event channel works).
        assert!(nodes[1].recv_timeout(Duration::from_millis(50)).is_none());
    }
}
