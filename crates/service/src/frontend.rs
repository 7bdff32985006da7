//! The event-driven service front-end: one thread, a poll(2) readiness
//! loop, and zero per-connection or per-request threads.
//!
//! The pre-refactor server spawned an OS thread per connection plus a
//! waiter thread per in-flight protocol request — ~2 threads and two
//! stacks per idle subscriber, which caps a node at a few hundred
//! clients. This loop holds every connection in one thread:
//!
//! - the listener and every connection socket are non-blocking; one
//!   `poll(2)` call (hand-rolled FFI — the workspace vendors no libc)
//!   waits on all of them plus a wakeup pipe;
//! - reads go through a shared 64 KiB scratch buffer, so a connection's
//!   heap cost is proportional to the bytes it actually sent, never to
//!   the length its frame header claims (the 64 MiB frame cap still
//!   bounds a single frame);
//! - protocol requests are submitted to the router with a completion
//!   *callback* ([`theta_orchestration::NodeHandle::try_submit_with`])
//!   that pushes the finished result onto [`FrontendShared`] and writes
//!   one byte into the wakeup pipe — the loop picks it up and writes
//!   the response frame, so a pipelined connection with a thousand
//!   requests in flight still costs zero threads;
//! - the rare slow endpoints (tenant keygen, cluster trace fan-out) run
//!   on short-lived offload threads that complete through the same
//!   queue, keeping the loop itself non-blocking.
//!
//! Shutdown is deterministic: [`ServiceHandle::stop`] sets a flag and
//! writes a wakeup byte; the loop observes it, closes every socket and
//! exits — no dummy self-connect, idempotent, and no leaked fds.

use crate::server::{dispatch_request, respond_to_result, Dispatch, ServiceContext};
use crate::{Frame, RpcRequest, RpcResponse};
use parking_lot::Mutex;
use std::collections::{BinaryHeap, HashMap};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use theta_codec::Decode;
use theta_metrics::registry::Counter;

/// Largest single read per connection per wakeup, and the buffer size a
/// connection is allowed to keep across idle periods. Bounds both the
/// per-wakeup allocation a hostile frame header can force and the
/// steady-state memory of an idle subscriber.
const READ_CHUNK: usize = 64 * 1024;

/// Frames larger than this are refused outright (matches the blocking
/// codec's cap in `read_frame`).
const MAX_FRAME: usize = 64 << 20;

/// A connection whose client stops reading while we owe it more than
/// this many buffered response bytes is dropped: the old design let TCP
/// backpressure block a writer thread, the loop must bound user-space
/// buffering instead.
const MAX_WRITE_BUFFER: usize = 64 << 20;

// poll(2) FFI — the workspace vendors no libc crate, so the two
// constants and the syscall binding live here (Linux/unix ABI).
const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout_ms: i32) -> i32;
}

/// EINTR-safe poll over `fds`; `timeout` of `None` blocks indefinitely.
fn poll_fds(fds: &mut [PollFd], timeout: Option<Duration>) -> std::io::Result<usize> {
    let timeout_ms = match timeout {
        // Round up so a 1µs-away deadline does not busy-spin at 0ms.
        Some(t) => t.as_millis().saturating_add(1).min(i32::MAX as u128) as i32,
        None => -1,
    };
    loop {
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// The loop's wakeup half: producers (router callbacks, offload
/// threads, [`ServiceHandle::stop`]) call [`Waker::wake`]; the loop
/// polls the read end. The armed flag keeps at most one byte in flight,
/// so the pipe can never fill and `wake` never blocks.
struct Waker {
    pipe: UnixStream,
    armed: AtomicBool,
}

impl Waker {
    fn wake(&self) {
        if !self.armed.swap(true, Ordering::SeqCst) {
            let _ = (&self.pipe).write(&[1u8]);
        }
    }
}

/// One finished asynchronous request: which connection and frame it
/// answers, the response, and the bookkeeping the loop settles on
/// delivery (latency histogram sample, tenant quota release).
pub(crate) struct Completion {
    pub(crate) conn: u64,
    pub(crate) frame_id: u64,
    pub(crate) started: Instant,
    pub(crate) response: RpcResponse,
    /// `Some(tenant)` when this request held a per-tenant in-flight
    /// quota slot — released by the loop when the completion lands, so
    /// a connection dying mid-request can never leak quota.
    pub(crate) quota_tenant: Option<String>,
    /// True for router-submitted requests (which have a pending entry
    /// and a service-level deadline); false for offload completions.
    /// A tracked completion whose pending entry is already gone was
    /// answered by the timeout backstop and must not be written twice.
    pub(crate) tracked: bool,
}

/// What the router callbacks and offload threads share with the loop:
/// the completion queue and the waker.
pub(crate) struct FrontendShared {
    completions: Mutex<Vec<Completion>>,
    waker: Waker,
}

impl FrontendShared {
    /// Queues a finished request and wakes the loop. Callable from any
    /// thread; cheap enough for the router thread.
    pub(crate) fn complete(&self, completion: Completion) {
        self.completions.lock().push(completion);
        self.waker.wake();
    }

    fn drain(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.completions.lock())
    }
}

/// Handle to a running RPC service.
pub struct ServiceHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    shared: Arc<FrontendShared>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl ServiceHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the service: the loop closes the listener and every
    /// connection, then its thread exits. Idempotent — any number of
    /// calls (and the eventual drop) stop it exactly once, and no
    /// dummy self-connection is involved.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.shared.waker.wake();
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }

    /// Consuming alias of [`ServiceHandle::stop`], kept for callers of
    /// the original API.
    pub fn shutdown(mut self) {
        self.stop();
    }
}

impl Drop for ServiceHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Why a request admitted to the loop is still unanswered.
struct PendingRequest {
    deadline: Instant,
}

/// Per-connection state: the socket plus read/write buffers. An idle
/// subscriber that has sent nothing holds two empty `Vec`s — its cost
/// is this struct and the kernel socket, nothing else.
struct Conn {
    stream: TcpStream,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    /// Bytes of `write_buf` already flushed to the socket.
    write_pos: usize,
    dead: bool,
}

impl Conn {
    fn wants_write(&self) -> bool {
        self.write_pos < self.write_buf.len()
    }

    /// Appends an encoded response frame and flushes what the socket
    /// will take right now; the loop arms `POLLOUT` for the rest.
    fn queue_frame(&mut self, frame: &Frame<RpcResponse>) {
        use theta_codec::Encode;
        let body = frame.encoded();
        self.write_buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
        self.write_buf.extend_from_slice(&body);
        if self.write_buf.len() - self.write_pos > MAX_WRITE_BUFFER {
            // The client stopped reading while piling up requests.
            self.dead = true;
            return;
        }
        self.flush();
    }

    /// Writes until the socket would block. Leaves `dead` set on hard
    /// I/O errors.
    fn flush(&mut self) {
        while self.write_pos < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.write_pos..]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => self.write_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        if self.write_pos == self.write_buf.len() {
            self.write_buf.clear();
            self.write_pos = 0;
            // An idle connection keeps at most READ_CHUNK of buffer
            // capacity — the "flat memory under C10k" guarantee.
            if self.write_buf.capacity() > READ_CHUNK {
                self.write_buf = Vec::new();
            }
        }
    }
}

/// Where a poll slot points.
enum PollTarget {
    Listener,
    Wakeup,
    Conn(u64),
}

pub(crate) struct EventLoop {
    listener: TcpListener,
    wake_rx: UnixStream,
    shared: Arc<FrontendShared>,
    ctx: Arc<ServiceContext>,
    stop: Arc<AtomicBool>,
    request_timeout: Duration,
    conns: HashMap<u64, Conn>,
    next_conn_id: u64,
    /// Admitted-but-unanswered protocol requests, keyed by
    /// `(connection, frame id)` — only for the request-timeout backstop;
    /// results normally arrive through the completion queue first.
    pending: HashMap<(u64, u64), PendingRequest>,
    deadlines: BinaryHeap<std::cmp::Reverse<(Instant, u64, u64)>>,
    scratch: Vec<u8>,
    /// The poll set, maintained INCREMENTALLY across iterations (slots
    /// 0/1 are the listener and the wakeup pipe, connections follow):
    /// rebuilding it from `conns` every wakeup made each poll cost
    /// O(connections) in userspace on top of the kernel's own fd scan,
    /// which is the dominant per-wakeup cost with thousands of idle
    /// subscribers. `targets` is parallel to `pollfds`; `slot_of` maps a
    /// connection id to its slot.
    pollfds: Vec<PollFd>,
    targets: Vec<PollTarget>,
    slot_of: HashMap<u64, usize>,
    /// Connections whose state may have changed this iteration: their
    /// slot's event mask is refreshed and, if dead, they are reaped —
    /// so per-wakeup work scales with the connections *involved*, never
    /// with the connections that exist.
    touched: Vec<u64>,
    /// `theta_frontend_frame_errors_total` — malformed or internally
    /// inconsistent frames (counted and dropped, never panicked on).
    frame_errors: Arc<Counter>,
}

/// Spawns the front-end thread serving `listener`.
pub(crate) fn spawn_frontend(
    listener: TcpListener,
    ctx: Arc<ServiceContext>,
    request_timeout: Duration,
) -> std::io::Result<ServiceHandle> {
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let (wake_rx, wake_tx) = UnixStream::pair()?;
    wake_rx.set_nonblocking(true)?;
    let shared = Arc::new(FrontendShared {
        completions: Mutex::new(Vec::new()),
        waker: Waker { pipe: wake_tx, armed: AtomicBool::new(false) },
    });
    let stop = Arc::new(AtomicBool::new(false));
    let frame_errors = ctx.obs.registry.counter("theta_frontend_frame_errors_total");
    let event_loop = EventLoop {
        listener,
        wake_rx,
        shared: shared.clone(),
        ctx,
        stop: stop.clone(),
        request_timeout,
        conns: HashMap::new(),
        next_conn_id: 0,
        pending: HashMap::new(),
        deadlines: BinaryHeap::new(),
        scratch: vec![0u8; READ_CHUNK],
        pollfds: Vec::new(),
        targets: Vec::new(),
        slot_of: HashMap::new(),
        touched: Vec::new(),
        frame_errors,
    };
    let join = std::thread::Builder::new()
        .name("theta-rpc-frontend".into())
        .spawn(move || event_loop.run())?;
    Ok(ServiceHandle { addr, stop, shared, join: Some(join) })
}

impl EventLoop {
    // theta: event-loop
    fn run(mut self) {
        let connections_gauge = self.ctx.obs.registry.gauge("theta_frontend_connections");
        let accepts = self.ctx.obs.registry.counter("theta_frontend_accepts_total");
        self.pollfds.push(PollFd {
            fd: self.listener.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        });
        self.targets.push(PollTarget::Listener);
        self.pollfds
            .push(PollFd { fd: self.wake_rx.as_raw_fd(), events: POLLIN, revents: 0 });
        self.targets.push(PollTarget::Wakeup);
        let mut ready: Vec<(u64, i16)> = Vec::new();
        while !self.stop.load(Ordering::SeqCst) {
            let timeout = self
                .next_request_deadline()
                .map(|t| t.saturating_duration_since(Instant::now()));
            if poll_fds(&mut self.pollfds, timeout).is_err() {
                // poll can only fail structurally (EINVAL/ENOMEM);
                // back off rather than spin.
                // theta: allow(blocking): deliberate backoff after a structural poll(2) failure, not a message-path stall
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            // poll(2) wrote every slot's revents; pull out the ready
            // ones first so dispatch can borrow `self` mutably.
            let mut accept_ready = false;
            let mut wake_ready = false;
            ready.clear();
            for (slot, target) in self.pollfds.iter().zip(&self.targets) {
                if slot.revents == 0 {
                    continue;
                }
                match target {
                    PollTarget::Listener => accept_ready = true,
                    PollTarget::Wakeup => wake_ready = true,
                    PollTarget::Conn(id) => ready.push((*id, slot.revents)),
                }
            }
            if accept_ready {
                self.accept_burst(&accepts, &connections_gauge);
            }
            if wake_ready {
                self.drain_wakeup();
            }
            for &(id, revents) in &ready {
                if revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL) != 0 {
                    self.read_burst(id);
                }
                if revents & POLLOUT != 0 {
                    if let Some(conn) = self.conns.get_mut(&id) {
                        conn.flush();
                    }
                }
                self.touched.push(id);
            }
            // Completions may have queued while we serviced sockets.
            self.deliver_completions();
            self.expire_requests();
            self.settle_touched(&connections_gauge);
        }
        // Shutdown: everything (listener, sockets, wake pipe ends) is
        // dropped here; stop() joins this thread, so by the time stop
        // returns no fd of ours is left open.
    }

    fn next_request_deadline(&mut self) -> Option<Instant> {
        while let Some(std::cmp::Reverse((t, conn, frame))) = self.deadlines.peek().copied() {
            match self.pending.get(&(conn, frame)) {
                // Stale entries (already answered) are discarded here.
                Some(p) if p.deadline == t => return Some(t),
                _ => {
                    self.deadlines.pop();
                }
            }
        }
        None
    }

    fn accept_burst(
        &mut self,
        accepts: &Arc<theta_metrics::registry::Counter>,
        gauge: &Arc<theta_metrics::registry::Gauge>,
    ) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    stream.set_nodelay(true).ok();
                    let id = self.next_conn_id;
                    self.next_conn_id += 1;
                    self.slot_of.insert(id, self.pollfds.len());
                    self.pollfds.push(PollFd {
                        fd: stream.as_raw_fd(),
                        events: POLLIN,
                        revents: 0,
                    });
                    self.targets.push(PollTarget::Conn(id));
                    self.conns.insert(
                        id,
                        Conn {
                            stream,
                            read_buf: Vec::new(),
                            write_buf: Vec::new(),
                            write_pos: 0,
                            dead: false,
                        },
                    );
                    accepts.inc();
                    gauge.set(self.conns.len() as i64);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                // Transient per-connection failures (ECONNABORTED et
                // al.): skip the connection, keep accepting.
                Err(_) => break,
            }
        }
    }

    fn drain_wakeup(&mut self) {
        let mut sink = [0u8; 64];
        while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
        // Clearing `armed` *before* draining the queue guarantees a
        // producer that pushes after our drain writes a fresh byte.
        self.shared.waker.armed.store(false, Ordering::SeqCst);
        self.deliver_completions();
    }

    fn deliver_completions(&mut self) {
        for completion in self.shared.drain() {
            if let Some(tenant) = &completion.quota_tenant {
                self.ctx.release_quota(tenant);
            }
            let key = (completion.conn, completion.frame_id);
            let was_pending = self.pending.remove(&key).is_some();
            if completion.tracked && !was_pending {
                // The timeout backstop already answered this frame (and
                // recorded the timer); the late result only releases
                // quota, above.
                continue;
            }
            self.ctx.rpc_timer.record(completion.started.elapsed());
            if let Some(conn) = self.conns.get_mut(&completion.conn) {
                conn.queue_frame(&Frame {
                    id: completion.frame_id,
                    body: completion.response,
                });
                self.touched.push(completion.conn);
            }
        }
    }

    /// Request-timeout backstop: answers pending frames whose window
    /// elapsed. The router delivers real terminal results (including
    /// its own instance timeout) through the completion queue; this
    /// only fires when the service-level window is shorter.
    fn expire_requests(&mut self) {
        let now = Instant::now();
        while let Some(std::cmp::Reverse((t, conn_id, frame_id))) = self.deadlines.peek().copied()
        {
            if t > now {
                break;
            }
            self.deadlines.pop();
            let still_pending = self
                .pending
                .get(&(conn_id, frame_id))
                .is_some_and(|p| p.deadline <= now);
            if !still_pending {
                continue;
            }
            self.pending.remove(&(conn_id, frame_id));
            // Quota (if held) is NOT released here — the completion
            // that eventually arrives releases it, keeping the
            // in-flight accounting truthful.
            // A timed-out request took (by definition) the full window.
            self.ctx.rpc_timer.record(self.request_timeout);
            if let Some(conn) = self.conns.get_mut(&conn_id) {
                conn.queue_frame(&Frame {
                    id: frame_id,
                    body: RpcResponse::Error("request timed out".into()),
                });
                self.touched.push(conn_id);
            }
        }
    }

    fn read_burst(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else { return };
        loop {
            match conn.stream.read(&mut self.scratch) {
                Ok(0) => {
                    conn.dead = true;
                    break;
                }
                Ok(n) => {
                    conn.read_buf.extend_from_slice(&self.scratch[..n]);
                    // Oversized-frame check happens during parsing; a
                    // hostile 64 MiB length header costs nothing until
                    // the bytes actually arrive.
                    if n < self.scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
        self.parse_frames(id);
    }

    /// Decodes and dispatches every complete frame in the read buffer.
    // theta: event-loop
    // theta: entrypoint(network)
    fn parse_frames(&mut self, id: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&id) else { return };
            if conn.dead || conn.read_buf.len() < 4 {
                break;
            }
            // Wire input never panics the event loop: both the header
            // and the body are fetched with `get`, and the impossible
            // branches are counted error paths, not unwraps.
            let Some(header) = conn.read_buf.get(..4).and_then(|h| <[u8; 4]>::try_from(h).ok())
            else {
                self.frame_errors.inc();
                conn.dead = true;
                break;
            };
            let len = u32::from_le_bytes(header) as usize;
            if len > MAX_FRAME {
                self.frame_errors.inc();
                conn.dead = true;
                break;
            }
            if conn.read_buf.len() < 4 + len {
                break; // incomplete frame; wait for more bytes
            }
            let Some(body) = conn.read_buf.get(4..4 + len) else {
                self.frame_errors.inc();
                conn.dead = true;
                break;
            };
            let frame = match Frame::<RpcRequest>::decoded(body) {
                Ok(f) => f,
                Err(_) => {
                    // Malformed request (a retired or unknown tag
                    // included): counted, then drop the connection.
                    self.frame_errors.inc();
                    conn.dead = true;
                    break;
                }
            };
            conn.read_buf.drain(..4 + len);
            if conn.read_buf.is_empty() && conn.read_buf.capacity() > READ_CHUNK {
                conn.read_buf = Vec::new();
            }
            self.handle_frame(id, frame);
        }
        // After a burst, release an emptied oversized buffer even if
        // the last frame left the conn borrowed above.
        if let Some(conn) = self.conns.get_mut(&id) {
            if conn.read_buf.is_empty() && conn.read_buf.capacity() > READ_CHUNK {
                conn.read_buf = Vec::new();
            }
        }
    }

    fn handle_frame(&mut self, conn_id: u64, frame: Frame<RpcRequest>) {
        let started = Instant::now();
        let frame_id = frame.id;
        match dispatch_request(&self.ctx, &self.shared, conn_id, frame_id, started, frame.body)
        {
            Dispatch::Inline(response) => {
                self.ctx.rpc_timer.record(started.elapsed());
                if let Some(conn) = self.conns.get_mut(&conn_id) {
                    conn.queue_frame(&Frame { id: frame_id, body: response });
                }
            }
            Dispatch::Submitted => {
                let deadline = started + self.request_timeout;
                self.pending.insert((conn_id, frame_id), PendingRequest { deadline });
                self.deadlines
                    .push(std::cmp::Reverse((deadline, conn_id, frame_id)));
            }
            Dispatch::Offloaded => {
                // Offload threads (keygen, trace fan-out) answer
                // through the completion queue without a deadline —
                // they bound their own work.
            }
        }
    }

    /// End-of-iteration pass over every connection an event, completion
    /// or timeout touched: refresh its slot's event mask (write interest
    /// comes and goes with the buffer) and reap it if it died. Only
    /// touched connections are visited — the thousands of idle ones
    /// cost nothing.
    fn settle_touched(&mut self, gauge: &Arc<theta_metrics::registry::Gauge>) {
        let mut reaped = false;
        while let Some(id) = self.touched.pop() {
            let Some(conn) = self.conns.get(&id) else { continue };
            if conn.dead {
                self.conns.remove(&id);
                self.unregister(id);
                // Forget the per-request timeout entries; quota held by
                // in-flight requests is released when their completions
                // arrive, so nothing leaks with the connection gone.
                self.pending.retain(|&(conn, _), _| conn != id);
                reaped = true;
            } else if let Some(&slot) = self.slot_of.get(&id) {
                let mut events = POLLIN;
                if conn.wants_write() {
                    events |= POLLOUT;
                }
                self.pollfds[slot].events = events;
            }
        }
        if reaped {
            gauge.set(self.conns.len() as i64);
        }
    }

    /// Drops a connection's poll slot, patching the bookkeeping of the
    /// slot `swap_remove` moved into its place.
    fn unregister(&mut self, id: u64) {
        let Some(slot) = self.slot_of.remove(&id) else { return };
        self.pollfds.swap_remove(slot);
        self.targets.swap_remove(slot);
        if slot < self.targets.len() {
            // The listener/wakeup slots sit at 0/1 and are never
            // removed, so a moved tail slot is always a connection.
            if let PollTarget::Conn(moved) = self.targets[slot] {
                self.slot_of.insert(moved, slot);
            }
        }
    }
}

/// Helper the completion-callback path uses to translate a router
/// result into a queued completion.
pub(crate) fn completion_for(
    conn: u64,
    frame_id: u64,
    started: Instant,
    quota_tenant: Option<String>,
    result: theta_orchestration::InstanceResult,
) -> Completion {
    Completion {
        conn,
        frame_id,
        started,
        response: respond_to_result(result),
        quota_tenant,
        tracked: true,
    }
}
