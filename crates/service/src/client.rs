//! The RPC client used by applications (and by the benchmarking client,
//! exactly as in the paper's §4.1 setup).

use crate::{read_frame, write_frame, Frame, RpcRequest, RpcResponse};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;
use theta_orchestration::Request;
use theta_schemes::registry::SchemeId;

/// Errors surfaced by RPC calls.
#[derive(Debug)]
pub enum RpcError {
    /// Transport failure.
    Io(std::io::Error),
    /// The server answered with an error.
    Server(String),
    /// The node refused the request at its capacity bound without
    /// queueing it — retry later or against another node.
    Overloaded,
    /// The server answered with an unexpected response kind.
    UnexpectedResponse,
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcError::Io(e) => write!(f, "rpc i/o error: {e}"),
            RpcError::Server(msg) => write!(f, "server error: {msg}"),
            RpcError::Overloaded => {
                write!(f, "node overloaded: submission refused, retry later")
            }
            RpcError::UnexpectedResponse => write!(f, "unexpected response kind"),
        }
    }
}

impl std::error::Error for RpcError {}

impl From<std::io::Error> for RpcError {
    fn from(e: std::io::Error) -> Self {
        RpcError::Io(e)
    }
}

/// A blocking RPC client over one TCP connection.
///
/// Calls are correlated by id, so out-of-order server responses (protocol
/// results racing scheme-API answers) are handled transparently.
pub struct RpcClient {
    stream: TcpStream,
    next_id: u64,
    /// Bounds each *awaited response*, not the connection lifetime:
    /// every wait gets a fresh window, restarted whenever any complete
    /// frame arrives (an answering server is making progress).
    response_timeout: Option<Duration>,
    /// Responses that arrived while waiting for a different id.
    parked: HashMap<u64, RpcResponse>,
}

impl RpcClient {
    /// Connects to a Thetacrypt service endpoint. `timeout` bounds the
    /// TCP connect and becomes the initial per-response timeout: each
    /// awaited response gets the full window (a server that is slow but
    /// answering within it never errors, however many responses are
    /// awaited over the connection's life), while a server that accepts
    /// the connection and then goes silent surfaces as an
    /// [`RpcError::Io`] timeout instead of blocking the caller forever.
    ///
    /// # Errors
    ///
    /// I/O errors from the TCP connect.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> Result<RpcClient, RpcError> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true).ok();
        Ok(RpcClient {
            stream,
            next_id: 0,
            response_timeout: Some(timeout),
            parked: HashMap::new(),
        })
    }

    /// Overrides the per-response timeout (`None` waits forever).
    /// Useful when the connect budget and the protocol-latency budget
    /// differ — e.g. a 1 s dial but minute-long keygen waits.
    pub fn set_response_timeout(&mut self, timeout: Option<Duration>) {
        self.response_timeout = timeout;
    }

    fn call(&mut self, body: RpcRequest) -> Result<RpcResponse, RpcError> {
        let id = self.next_id;
        self.next_id += 1;
        write_frame(&mut self.stream, &Frame { id, body })?;
        self.wait_for(id)
    }

    fn wait_for(&mut self, id: u64) -> Result<RpcResponse, RpcError> {
        if let Some(resp) = self.parked.remove(&id) {
            return Ok(resp);
        }
        // Regression (PR 6 follow-up): the timeout used to be applied
        // once at connect as the socket's read timeout, which made it a
        // *per-read* bound for the whole connection — response N+1 only
        // got whatever window response N had left unused on a pipelined
        // wait, and a legitimately slow-but-answering server tripped it.
        // Each awaited response now gets its own full window, tracked
        // as a deadline so partial reads cannot stretch it.
        let mut deadline = self.response_timeout.map(|t| std::time::Instant::now() + t);
        loop {
            match deadline {
                Some(d) => {
                    let remaining = d.saturating_duration_since(std::time::Instant::now());
                    if remaining.is_zero() {
                        return Err(RpcError::Io(std::io::Error::new(
                            std::io::ErrorKind::TimedOut,
                            "timed out waiting for the response",
                        )));
                    }
                    self.stream.set_read_timeout(Some(remaining))?;
                }
                None => self.stream.set_read_timeout(None)?,
            }
            let frame: Frame<RpcResponse> = read_frame(&mut self.stream)?;
            // A complete frame arrived — the server is alive and
            // draining its queue, so the window restarts.
            deadline = self.response_timeout.map(|t| std::time::Instant::now() + t);
            if frame.id == id {
                return Ok(frame.body);
            }
            self.parked.insert(frame.id, frame.body);
        }
    }

    /// Protocol API: runs a threshold operation to completion, returning
    /// `(output bytes, server-side latency)`.
    ///
    /// # Errors
    ///
    /// [`RpcError::Server`] when the Θ-network failed or timed out.
    pub fn run_protocol(&mut self, request: Request) -> Result<(Vec<u8>, Duration), RpcError> {
        match self.call(RpcRequest::Protocol(request))? {
            RpcResponse::ProtocolResult { output, server_latency_us } => {
                Ok((output, Duration::from_micros(server_latency_us)))
            }
            RpcResponse::Overloaded => Err(RpcError::Overloaded),
            RpcResponse::Error(msg) => Err(RpcError::Server(msg)),
            _ => Err(RpcError::UnexpectedResponse),
        }
    }

    /// Submits a protocol request without waiting; returns the id to pass
    /// to [`RpcClient::collect_protocol`]. Lets load generators pipeline.
    ///
    /// # Errors
    ///
    /// Transport failures only.
    pub fn submit_protocol(&mut self, request: Request) -> Result<u64, RpcError> {
        let id = self.next_id;
        self.next_id += 1;
        write_frame(&mut self.stream, &Frame { id, body: RpcRequest::Protocol(request) })?;
        Ok(id)
    }

    /// Collects a previously submitted protocol request.
    ///
    /// # Errors
    ///
    /// Same as [`RpcClient::run_protocol`].
    pub fn collect_protocol(&mut self, id: u64) -> Result<(Vec<u8>, Duration), RpcError> {
        match self.wait_for(id)? {
            RpcResponse::ProtocolResult { output, server_latency_us } => {
                Ok((output, Duration::from_micros(server_latency_us)))
            }
            RpcResponse::Overloaded => Err(RpcError::Overloaded),
            RpcResponse::Error(msg) => Err(RpcError::Server(msg)),
            _ => Err(RpcError::UnexpectedResponse),
        }
    }

    /// Scheme API: fetches the encoded public key for `scheme`.
    ///
    /// # Errors
    ///
    /// [`RpcError::Server`] when the scheme is not provisioned.
    pub fn public_key(&mut self, scheme: SchemeId) -> Result<Vec<u8>, RpcError> {
        match self.call(RpcRequest::GetPublicKey(scheme))? {
            RpcResponse::PublicKey(bytes) => Ok(bytes),
            RpcResponse::Error(msg) => Err(RpcError::Server(msg)),
            _ => Err(RpcError::UnexpectedResponse),
        }
    }

    /// Scheme API: server-side encryption under the threshold key.
    ///
    /// # Errors
    ///
    /// [`RpcError::Server`] for non-cipher schemes or missing keys.
    pub fn encrypt(
        &mut self,
        scheme: SchemeId,
        label: &[u8],
        message: &[u8],
    ) -> Result<Vec<u8>, RpcError> {
        match self.call(RpcRequest::Encrypt {
            scheme,
            label: label.to_vec(),
            message: message.to_vec(),
        })? {
            RpcResponse::Ciphertext(bytes) => Ok(bytes),
            RpcResponse::Error(msg) => Err(RpcError::Server(msg)),
            _ => Err(RpcError::UnexpectedResponse),
        }
    }

    /// Observability: the node's metrics registry rendered as Prometheus
    /// text exposition.
    ///
    /// # Errors
    ///
    /// Transport failures, or an unexpected response kind.
    pub fn metrics(&mut self) -> Result<String, RpcError> {
        match self.call(RpcRequest::GetMetrics)? {
            RpcResponse::MetricsText(text) => Ok(text),
            RpcResponse::Error(msg) => Err(RpcError::Server(msg)),
            _ => Err(RpcError::UnexpectedResponse),
        }
    }

    /// Observability: the node's trace-journal slice for `instance` —
    /// its events in recording order plus the wall-clock anchor and a
    /// flag saying whether the ring evicted part of the history.
    ///
    /// # Errors
    ///
    /// [`RpcError::Server`] when the node has no trace for that id.
    pub fn trace(&mut self, instance: [u8; 32]) -> Result<crate::NodeTrace, RpcError> {
        match self.call(RpcRequest::GetTrace(instance))? {
            RpcResponse::Trace(trace) => Ok(trace),
            RpcResponse::Error(msg) => Err(RpcError::Server(msg)),
            _ => Err(RpcError::UnexpectedResponse),
        }
    }

    /// Observability: asks the node to fan `GetTrace` out across its
    /// roster and merge every journal into one offset-aligned cross-node
    /// timeline for `instance`.
    ///
    /// # Errors
    ///
    /// Transport failures, or an unexpected response kind.
    pub fn collect_trace(&mut self, instance: [u8; 32]) -> Result<crate::ClusterTrace, RpcError> {
        match self.call(RpcRequest::CollectTrace(instance))? {
            RpcResponse::ClusterTrace(trace) => Ok(trace),
            RpcResponse::Error(msg) => Err(RpcError::Server(msg)),
            _ => Err(RpcError::UnexpectedResponse),
        }
    }

    /// Observability: the node's SLO watchdog verdict.
    ///
    /// # Errors
    ///
    /// Transport failures, or an unexpected response kind.
    pub fn health(&mut self) -> Result<crate::HealthReport, RpcError> {
        match self.call(RpcRequest::GetHealth)? {
            RpcResponse::Health(report) => Ok(report),
            RpcResponse::Error(msg) => Err(RpcError::Server(msg)),
            _ => Err(RpcError::UnexpectedResponse),
        }
    }

    /// Key manager: deals a fresh key for `keyref` under `scheme` on
    /// demand and returns its encoded public key.
    ///
    /// # Errors
    ///
    /// [`RpcError::Server`] when the node has no key manager, the name
    /// already exists, or dealing failed.
    pub fn keygen(
        &mut self,
        keyref: theta_orchestration::KeyRef,
        scheme: SchemeId,
    ) -> Result<Vec<u8>, RpcError> {
        match self.call(RpcRequest::Keygen { keyref, scheme })? {
            RpcResponse::PublicKey(bytes) => Ok(bytes),
            RpcResponse::Error(msg) => Err(RpcError::Server(msg)),
            _ => Err(RpcError::UnexpectedResponse),
        }
    }

    /// Key manager: a tenant's keys as `(name, scheme)` pairs.
    ///
    /// # Errors
    ///
    /// [`RpcError::Server`] when the node has no key manager.
    pub fn list_keys(&mut self, tenant: &str) -> Result<Vec<(String, SchemeId)>, RpcError> {
        match self.call(RpcRequest::ListKeys(tenant.to_string()))? {
            RpcResponse::KeyList(keys) => Ok(keys),
            RpcResponse::Error(msg) => Err(RpcError::Server(msg)),
            _ => Err(RpcError::UnexpectedResponse),
        }
    }

    /// Key manager: the scheme and encoded public key of one tenant key.
    ///
    /// # Errors
    ///
    /// [`RpcError::Server`] when the key does not exist or the node has
    /// no key manager.
    pub fn tenant_key(
        &mut self,
        keyref: theta_orchestration::KeyRef,
    ) -> Result<(SchemeId, Vec<u8>), RpcError> {
        match self.call(RpcRequest::GetTenantKey(keyref))? {
            RpcResponse::TenantKey { scheme, key } => Ok((scheme, key)),
            RpcResponse::Error(msg) => Err(RpcError::Server(msg)),
            _ => Err(RpcError::UnexpectedResponse),
        }
    }

    /// Scheme API: verifies a combined signature.
    ///
    /// # Errors
    ///
    /// [`RpcError::Server`] for non-signature schemes or missing keys.
    pub fn verify_signature(
        &mut self,
        scheme: SchemeId,
        message: &[u8],
        signature: &[u8],
    ) -> Result<bool, RpcError> {
        match self.call(RpcRequest::VerifySignature {
            scheme,
            message: message.to_vec(),
            signature: signature.to_vec(),
        })? {
            RpcResponse::Verified(ok) => Ok(ok),
            RpcResponse::Error(msg) => Err(RpcError::Server(msg)),
            _ => Err(RpcError::UnexpectedResponse),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Regression (PR 6): `connect` never applied its timeout to reads,
    /// so a server that accepted the connection but never answered hung
    /// the client forever. Reads must now time out.
    #[test]
    fn reads_time_out_against_an_accept_but_silent_server() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            // Accept, hold the connection open, never answer.
            let (stream, _) = listener.accept().unwrap();
            std::thread::sleep(Duration::from_secs(3));
            drop(stream);
        });
        let start = std::time::Instant::now();
        let mut client = RpcClient::connect(addr, Duration::from_millis(300)).unwrap();
        let err = client.metrics();
        assert!(
            matches!(err, Err(RpcError::Io(_))),
            "expected an i/o timeout, got {err:?}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "client hung on a silent server for {:?}",
            start.elapsed()
        );
    }

    /// Regression: the read timeout used to be set once at connect, so
    /// on a connection that stayed up it effectively bounded the sum of
    /// reads rather than each awaited response. A server that is slow
    /// (here ~3× slower than the window would allow cumulatively) but
    /// answers every request within the window must never trip it.
    #[test]
    fn slow_but_live_server_does_not_trip_the_response_timeout() {
        use crate::RpcRequest;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            // Answer each request ~250 ms after it arrives.
            while let Ok(frame) = crate::read_frame::<RpcRequest>(&mut stream) {
                std::thread::sleep(Duration::from_millis(250));
                let body = RpcResponse::MetricsText("# slow\n".into());
                if crate::write_frame(&mut stream, &Frame { id: frame.id, body }).is_err() {
                    break;
                }
            }
        });
        let mut client = RpcClient::connect(addr, Duration::from_millis(400)).unwrap();
        // Sequential: each of the four responses takes ~250 ms — fine
        // per-response, but 1 s cumulatively, which the old
        // per-connection socket timeout would have misjudged.
        for _ in 0..4 {
            client.metrics().expect("slow-but-live server must not time out");
        }
        // Pipelined: submit three, then wait; responses arrive ~250 ms
        // apart and each arrival restarts the window.
        let ids: Vec<u64> = (0..3)
            .map(|_| {
                let id = client.next_id;
                client.next_id += 1;
                write_frame(&mut client.stream, &Frame { id, body: RpcRequest::GetMetrics })
                    .unwrap();
                id
            })
            .collect();
        for id in ids {
            let resp = client.wait_for(id).expect("pipelined responses within the window");
            assert!(matches!(resp, RpcResponse::MetricsText(_)));
        }
    }
}
