//! Noise-IK-style authenticated key agreement for the TCP transports.
//!
//! Every mesh node holds a long-term Ed25519 **static identity**
//! (deterministically derived from a 32-byte seed in its key file) and
//! knows the full **roster** of peer static public keys. Public keys are
//! Ristretto255 elements: roster entries and handshake points decode
//! through one path (canonical RFC 9496 decoding, identity rejected), and
//! DH outputs and transcript inputs are their canonical encodings. A dialer
//! authenticates to an accepter — and vice versa — with a two-message
//! handshake patterned after Noise IK (the initiator already knows the
//! responder's static key), built entirely from primitives this
//! workspace owns: Ed25519 scalar multiplication for Diffie–Hellman,
//! SHA-256 for the running transcript hash, HKDF (HMAC-SHA256) as the
//! chaining-key mixer, and ChaCha20-Poly1305 for the authentication
//! tags and the session frames.
//!
//! ```text
//!   pre   :  h ← H(PROTOCOL) ; mix(h, S_r)           (responder static)
//!   A → B :  id_i (2, clear) | E_i (32) | tag_i (16)
//!            ck ← extract(ck, DH(e_i, S_r))          "es"
//!            ck ← extract(ck, DH(s_i, S_r))          "ss"
//!            tag_i = AEAD(expand(ck, "msg-a"), n=0, aad=h, ∅)
//!   B → A :  E_r (32) | tag_r (16)
//!            ck ← extract(ck, DH(e_r, E_i))          "ee"
//!            ck ← extract(ck, DH(e_r, S_i))          "se"
//!            tag_r = AEAD(expand(ck, "msg-b"), n=0, aad=h, ∅)
//!   keys  :  k_{i→r} = expand(ck, "sess-i2r"),  k_{r→i} = expand(ck, "sess-r2i")
//! ```
//!
//! Every handshake byte (and the responder's static, via the
//! pre-message) is absorbed into `h`, and both tags authenticate `h` as
//! AEAD associated data, so the two sides agree on the entire transcript
//! before any session traffic flows. The initiator's node id travels in
//! the clear — ids and their static keys are public roster data (the
//! plaintext hello already exposed them) — but the *proof* of the id
//! is the `ss`/`es` mix: only the holder of `s_i` can produce `tag_i`
//! toward an honest responder, and only the holder of `s_r` can answer
//! with a valid `tag_r`. A third party can neither impersonate a roster
//! member nor replay a recorded message 1 to any effect: the response
//! keys mix the fresh `ee`/`se` outputs, so a replayed initiation yields
//! a session the replayer cannot read or speak on.
//!
//! After the handshake, each direction carries length-prefixed AEAD
//! frames under its own session key with a monotone 64-bit nonce
//! counter ([`SendCipher`] / [`RecvCipher`]): tampering, truncation,
//! reordering or replay of any frame fails authentication and tears
//! the connection down.

use crate::{NetworkError, NodeId};
use std::io::{Read, Write};
use std::net::TcpStream;
use theta_math::ed25519::{Point, Scalar};
use theta_primitives::{aead, hkdf_expand_key, hkdf_extract, Sha256};

/// Domain string that seeds the transcript hash and chaining key.
const PROTOCOL: &str = "theta/noise-ik/v1";

/// Maximum accepted frame size (matches the plaintext transport bound).
pub(crate) const MAX_FRAME: u32 = 64 << 20;

/// Frame bodies are read in chunks of this size, so a hostile length
/// prefix never triggers one giant upfront allocation.
pub(crate) const READ_CHUNK: usize = 64 << 10;

/// Wire size of handshake message A: `id (2) | E (32) | tag (16)`.
const MSG_A_LEN: usize = 2 + 32 + 16;
/// Wire size of handshake message B: `E (32) | tag (16)`.
const MSG_B_LEN: usize = 32 + 16;

/// A 32-byte seed from which a node's static identity is derived.
///
/// This is the secret that key files persist; everything else (the
/// static scalar, the roster entry) is derived from it.
pub struct IdentitySeed(pub(crate) [u8; 32]);

impl IdentitySeed {
    /// Wraps raw seed bytes.
    pub fn new(bytes: [u8; 32]) -> IdentitySeed {
        IdentitySeed(bytes)
    }

    /// The raw bytes (for key-file serialization only).
    pub fn bytes(&self) -> &[u8; 32] {
        &self.0
    }
}

impl Clone for IdentitySeed {
    fn clone(&self) -> IdentitySeed {
        IdentitySeed(self.0)
    }
}

impl std::fmt::Debug for IdentitySeed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("IdentitySeed(redacted)")
    }
}

impl Drop for IdentitySeed {
    fn drop(&mut self) {
        theta_math::wipe_bytes(&mut self.0);
    }
}

/// A node's long-term Ed25519 identity keypair.
pub struct StaticIdentity {
    secret_key: Scalar,
    public: Point,
}

impl StaticIdentity {
    /// Derives the identity from its persisted seed (domain-separated,
    /// wide reduction, so the scalar is uniform in the group order).
    pub fn from_seed(seed: &IdentitySeed) -> StaticIdentity {
        let wide = theta_primitives::expand("theta/identity/v1", &seed.0, 64);
        let mut bytes = [0u8; 64];
        bytes.copy_from_slice(&wide);
        let secret_key = Scalar::from_bytes_wide(&bytes);
        let public = Point::mul_base(&secret_key);
        StaticIdentity { secret_key, public }
    }

    /// The public half, compressed (what the roster distributes).
    pub fn public_bytes(&self) -> [u8; 32] {
        self.public.compress()
    }
}

impl std::fmt::Debug for StaticIdentity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "StaticIdentity {{ secret_key: redacted, public: {} }}",
            theta_primitives::to_hex(&self.public.compress())
        )
    }
}

impl Drop for StaticIdentity {
    fn drop(&mut self) {
        self.secret_key.wipe();
    }
}

/// The roster of static public keys, indexed by node id (1-based).
#[derive(Clone, Debug)]
pub struct Roster {
    keys: Vec<Point>,
}

impl Roster {
    /// Validates and decodes a roster of static public keys.
    ///
    /// # Errors
    ///
    /// [`NetworkError::Setup`] when an entry is not the canonical
    /// Ristretto255 encoding of a non-identity element (a malicious
    /// roster entry must not be able to zero out a DH).
    pub fn from_bytes(entries: &[[u8; 32]]) -> Result<Roster, NetworkError> {
        let mut keys = Vec::with_capacity(entries.len());
        for (i, bytes) in entries.iter().enumerate() {
            let point = decode_public(bytes).ok_or_else(|| {
                NetworkError::Setup(format!("roster entry {} is not a valid point", i + 1))
            })?;
            keys.push(point);
        }
        Ok(Roster { keys })
    }

    /// Builds the roster for a list of identities (dealer-side).
    pub fn from_identities(identities: &[StaticIdentity]) -> Roster {
        Roster { keys: identities.iter().map(|id| id.public).collect() }
    }

    /// Number of nodes in the roster.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when the roster is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The static public key of node `id` (1-based).
    pub fn get(&self, id: NodeId) -> Option<&Point> {
        (id >= 1).then(|| self.keys.get(id as usize - 1)).flatten()
    }

    /// Compressed entries, in id order (what the public key file stores).
    pub fn to_bytes(&self) -> Vec<[u8; 32]> {
        self.keys.iter().map(|p| p.compress()).collect()
    }
}

/// A node's full authentication material for joining a mesh: its own
/// identity plus the roster of everyone's static public keys.
pub struct MeshAuth {
    /// This node's static identity.
    pub identity: StaticIdentity,
    /// All nodes' static public keys, indexed by id.
    pub roster: Roster,
}

impl MeshAuth {
    /// **Test/dev only**: derives every node's identity from the public
    /// pair `(domain_seed, id)`, so a whole mesh can authenticate
    /// without a dealer. The seeds are guessable by construction —
    /// real deployments must use `theta-keygen`-provisioned seeds.
    pub fn insecure_dev(id: NodeId, n: u16, domain_seed: u64) -> MeshAuth {
        let ident = |i: u16| {
            let mut seed = [0u8; 32];
            seed[..8].copy_from_slice(&domain_seed.to_le_bytes());
            seed[8..10].copy_from_slice(&i.to_le_bytes());
            StaticIdentity::from_seed(&IdentitySeed(seed))
        };
        let identities: Vec<StaticIdentity> = (1..=n).map(ident).collect();
        let roster = Roster::from_identities(&identities);
        MeshAuth { identity: ident(id), roster }
    }
}

/// The sending half of an established session: key + nonce counter.
pub struct SendCipher {
    key: [u8; 32],
    counter: u64,
}

/// The receiving half of an established session: key + nonce counter.
pub struct RecvCipher {
    key: [u8; 32],
    counter: u64,
}

fn nonce_for(counter: u64) -> [u8; 12] {
    let mut nonce = [0u8; 12];
    nonce[4..].copy_from_slice(&counter.to_le_bytes());
    nonce
}

impl SendCipher {
    /// Seals one frame body; the nonce counter advances per frame.
    pub fn seal(&mut self, body: &[u8]) -> Vec<u8> {
        let nonce = nonce_for(self.counter);
        self.counter += 1;
        aead::seal(&self.key, &nonce, &[], body)
    }
}

impl std::fmt::Debug for SendCipher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SendCipher {{ key: redacted, counter: {} }}", self.counter)
    }
}

impl Drop for SendCipher {
    fn drop(&mut self) {
        theta_math::wipe_bytes(&mut self.key);
    }
}

impl RecvCipher {
    /// Opens one frame body; a failure means the link is compromised
    /// (tampered, truncated, replayed or reordered) and must be torn
    /// down — the counter is *not* advanced past a bad frame.
    pub fn open(&mut self, boxed: &[u8]) -> Result<Vec<u8>, aead::AeadError> {
        let nonce = nonce_for(self.counter);
        let body = aead::open(&self.key, &nonce, &[], boxed)?;
        self.counter += 1;
        Ok(body)
    }
}

impl std::fmt::Debug for RecvCipher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RecvCipher {{ key: redacted, counter: {} }}", self.counter)
    }
}

impl Drop for RecvCipher {
    fn drop(&mut self) {
        theta_math::wipe_bytes(&mut self.key);
    }
}

/// Both directions of an established session.
pub struct Session {
    /// Cipher for frames this node sends.
    pub send: SendCipher,
    /// Cipher for frames this node receives.
    pub recv: RecvCipher,
}

/// Running SHA-256 transcript hash.
fn mix_hash(h: &[u8; 32], data: &[u8]) -> [u8; 32] {
    let mut s = Sha256::new();
    s.update(h);
    s.update(data);
    s.finalize()
}

/// One DH between a secret scalar and a validated public point.
fn dh(secret: &Scalar, public: &Point) -> [u8; 32] {
    public.mul(secret).compress()
}

/// Decodes a public key: a canonical Ristretto255 encoding, not the
/// identity. Roster entries and handshake points share this one path.
fn decode_public(bytes: &[u8; 32]) -> Option<Point> {
    Point::decompress(bytes).filter(|p| !p.is_identity())
}

/// Decodes and validates a peer-supplied curve point.
fn parse_point(bytes: &[u8; 32]) -> Result<Point, NetworkError> {
    decode_public(bytes).ok_or_else(|| NetworkError::Setup("handshake: invalid curve point".into()))
}

fn transcript_start(responder_static: &Point) -> ([u8; 32], [u8; 32]) {
    let h = Sha256::digest(PROTOCOL.as_bytes());
    let h = mix_hash(&h, &responder_static.compress());
    let ck = Sha256::digest(format!("{PROTOCOL}/ck").as_bytes());
    (h, ck)
}

fn session_keys(ck: &[u8; 32]) -> ([u8; 32], [u8; 32]) {
    (hkdf_expand_key(ck, b"sess-i2r"), hkdf_expand_key(ck, b"sess-r2i"))
}

/// Random ephemeral scalar from OS entropy.
fn ephemeral() -> Scalar {
    use rand::RngCore;
    let mut bytes = [0u8; 64];
    rand::rngs::OsRng.fill_bytes(&mut bytes);
    Scalar::from_bytes_wide(&bytes)
}

fn handshake_io_err(e: std::io::Error) -> NetworkError {
    if matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    ) {
        NetworkError::Setup("handshake timed out waiting for the peer".into())
    } else {
        NetworkError::Io(e)
    }
}

/// Runs the initiator side of the handshake over `stream`: sends message
/// A (claiming `local_id`), reads message B, verifies it against
/// `responder_static` and returns the session ciphers.
///
/// The caller is responsible for setting a read timeout on the stream
/// for the duration of the handshake.
///
/// # Errors
///
/// [`NetworkError::Setup`] when the responder fails to authenticate or
/// the handshake times out; [`NetworkError::Io`] on transport failures.
pub fn initiate(
    stream: &mut TcpStream,
    local_id: NodeId,
    identity: &StaticIdentity,
    responder_static: &Point,
) -> Result<Session, NetworkError> {
    let (mut h, mut ck) = transcript_start(responder_static);

    let mut e = ephemeral();
    let eph_pub = Point::mul_base(&e).compress();
    h = mix_hash(&h, &local_id.to_le_bytes());
    h = mix_hash(&h, &eph_pub);

    let mut es = dh(&e, responder_static);
    ck = hkdf_extract(&ck, &es);
    let mut ss = dh(&identity.secret_key, responder_static);
    ck = hkdf_extract(&ck, &ss);
    theta_math::wipe_bytes(&mut es);
    theta_math::wipe_bytes(&mut ss);

    let mut ka = hkdf_expand_key(&ck, b"msg-a");
    let tag_a = aead::seal(&ka, &nonce_for(0), &h, &[]);
    theta_math::wipe_bytes(&mut ka);
    h = mix_hash(&h, &tag_a);

    let mut msg_a = Vec::with_capacity(MSG_A_LEN);
    msg_a.extend_from_slice(&local_id.to_le_bytes());
    msg_a.extend_from_slice(&eph_pub);
    msg_a.extend_from_slice(&tag_a);
    stream.write_all(&msg_a).map_err(handshake_io_err)?;

    let mut msg_b = [0u8; MSG_B_LEN];
    stream.read_exact(&mut msg_b).map_err(handshake_io_err)?;
    let mut re_bytes = [0u8; 32];
    re_bytes.copy_from_slice(&msg_b[..32]);
    let responder_eph = parse_point(&re_bytes)?;
    h = mix_hash(&h, &re_bytes);

    let mut ee = dh(&e, &responder_eph);
    ck = hkdf_extract(&ck, &ee);
    let mut se = dh(&identity.secret_key, &responder_eph);
    ck = hkdf_extract(&ck, &se);
    theta_math::wipe_bytes(&mut ee);
    theta_math::wipe_bytes(&mut se);
    e.wipe();

    let mut kb = hkdf_expand_key(&ck, b"msg-b");
    let tag_ok = aead::open(&kb, &nonce_for(0), &h, &msg_b[32..]).is_ok();
    theta_math::wipe_bytes(&mut kb);
    if !tag_ok {
        return Err(NetworkError::Setup(
            "handshake: responder failed to authenticate".into(),
        ));
    }

    let (k_i2r, k_r2i) = session_keys(&ck);
    theta_math::wipe_bytes(&mut ck);
    Ok(Session {
        send: SendCipher { key: k_i2r, counter: 0 },
        recv: RecvCipher { key: k_r2i, counter: 0 },
    })
}

/// Runs the responder side of the handshake over `stream`: reads message
/// A, authenticates the claimed initiator against the roster, answers
/// with message B and returns the initiator's id plus session ciphers.
///
/// The caller is responsible for setting a read timeout on the stream
/// for the duration of the handshake (a mute dialer must not stall
/// mesh setup).
///
/// # Errors
///
/// [`NetworkError::Setup`] when the initiator is unknown or fails to
/// authenticate, or the handshake times out; [`NetworkError::Io`] on
/// transport failures.
pub fn respond(
    stream: &mut TcpStream,
    identity: &StaticIdentity,
    roster: &Roster,
) -> Result<(NodeId, Session), NetworkError> {
    let mut msg_a = [0u8; MSG_A_LEN];
    stream.read_exact(&mut msg_a).map_err(handshake_io_err)?;
    let claimed = NodeId::from_le_bytes([msg_a[0], msg_a[1]]);
    let initiator_static = roster
        .get(claimed)
        .ok_or_else(|| NetworkError::Setup(format!("handshake: unknown peer id {claimed}")))?;
    let mut ie_bytes = [0u8; 32];
    ie_bytes.copy_from_slice(&msg_a[2..34]);
    let initiator_eph = parse_point(&ie_bytes)?;

    let (mut h, mut ck) = transcript_start(&identity.public);
    h = mix_hash(&h, &claimed.to_le_bytes());
    h = mix_hash(&h, &ie_bytes);

    let mut es = dh(&identity.secret_key, &initiator_eph);
    ck = hkdf_extract(&ck, &es);
    let mut ss = dh(&identity.secret_key, initiator_static);
    ck = hkdf_extract(&ck, &ss);
    theta_math::wipe_bytes(&mut es);
    theta_math::wipe_bytes(&mut ss);

    let mut ka = hkdf_expand_key(&ck, b"msg-a");
    let tag_ok = aead::open(&ka, &nonce_for(0), &h, &msg_a[34..]).is_ok();
    theta_math::wipe_bytes(&mut ka);
    if !tag_ok {
        return Err(NetworkError::Setup(format!(
            "handshake: peer claiming id {claimed} failed to authenticate"
        )));
    }
    h = mix_hash(&h, &msg_a[34..]);

    let mut e = ephemeral();
    let eph_pub = Point::mul_base(&e).compress();
    h = mix_hash(&h, &eph_pub);

    let mut ee = dh(&e, &initiator_eph);
    ck = hkdf_extract(&ck, &ee);
    let mut se = dh(&e, initiator_static);
    ck = hkdf_extract(&ck, &se);
    theta_math::wipe_bytes(&mut ee);
    theta_math::wipe_bytes(&mut se);
    e.wipe();

    let mut kb = hkdf_expand_key(&ck, b"msg-b");
    let tag_b = aead::seal(&kb, &nonce_for(0), &h, &[]);
    theta_math::wipe_bytes(&mut kb);

    let mut msg_b = Vec::with_capacity(MSG_B_LEN);
    msg_b.extend_from_slice(&eph_pub);
    msg_b.extend_from_slice(&tag_b);
    stream.write_all(&msg_b).map_err(handshake_io_err)?;

    let (k_i2r, k_r2i) = session_keys(&ck);
    theta_math::wipe_bytes(&mut ck);
    Ok((
        claimed,
        Session {
            send: SendCipher { key: k_r2i, counter: 0 },
            recv: RecvCipher { key: k_i2r, counter: 0 },
        },
    ))
}

/// Writes one AEAD-sealed, `u32`-length-prefixed frame.
///
/// # Errors
///
/// Transport errors from the underlying writes.
pub fn write_sealed(
    stream: &mut TcpStream,
    cipher: &mut SendCipher,
    body: &[u8],
) -> std::io::Result<()> {
    let sealed = cipher.seal(body);
    stream.write_all(&(sealed.len() as u32).to_le_bytes())?;
    stream.write_all(&sealed)
}

/// Reads one length-prefixed AEAD frame and opens it.
///
/// # Errors
///
/// Transport errors, `InvalidData` for an oversized length prefix, and
/// [`std::io::ErrorKind::InvalidData`] with an "aead" message when
/// authentication fails (the caller must tear the link down).
pub fn read_sealed(stream: &mut TcpStream, cipher: &mut RecvCipher) -> std::io::Result<Vec<u8>> {
    let mut len_bytes = [0u8; 4];
    stream.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME as usize {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "frame exceeds limit",
        ));
    }
    // Grow the buffer chunk by chunk: memory use tracks bytes actually
    // received, not the (attacker-controlled) claimed length.
    let mut sealed = Vec::with_capacity(len.min(READ_CHUNK));
    let mut chunk = [0u8; READ_CHUNK];
    let mut remaining = len;
    while remaining > 0 {
        let take = remaining.min(READ_CHUNK);
        stream.read_exact(&mut chunk[..take])?;
        sealed.extend_from_slice(&chunk[..take]);
        remaining -= take;
    }
    cipher.open(&sealed).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "aead authentication failed")
    })
}

/// UNIX-epoch microseconds right now (0 for a clock before 1970).
pub fn wall_micros() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

fn probe_err(msg: &'static str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// Rounds per clock-offset probe. The NTP formula's error is bounded by
/// half the round-trip delay of the sample it came from, so the probe
/// runs several exchanges and keeps the minimum-delay one — a single
/// round descheduled mid-flight (easy during a noisy mesh bring-up,
/// when every node is spawning threads and running key agreement) would
/// otherwise leak tens of milliseconds into the estimate.
const PROBE_ROUNDS: usize = 5;

/// Clock-offset probe, initiator side — the first sealed frames of a
/// session, run immediately after [`initiate`] while the handshake read
/// timeout is still armed.
///
/// NTP-style four-timestamp exchange, [`PROBE_ROUNDS`] times over: each
/// round the initiator sends its wall clock `t0`, the responder answers
/// with its receive/send stamps `(t1, t2)`, and on receipt at `t3` the
/// initiator forms `offset = ((t1 − t0) + (t2 − t3)) / 2` —
/// microseconds to *add* to the local wall clock to land on the
/// responder's — and `delay = (t3 − t0) − (t2 − t1)`. The offset from
/// the minimum-delay round wins and is shared back, so the responder
/// learns the negated offset without a second round trip (both frames
/// ride the authenticated session, so within the mesh trust model the
/// echo is as good as measuring).
///
/// # Errors
///
/// Transport errors, or `InvalidData` for malformed probe frames.
pub fn offset_probe_initiate(
    stream: &mut TcpStream,
    session: &mut Session,
) -> std::io::Result<i64> {
    let mut best: Option<(i64, i64)> = None; // (delay, offset)
    for _ in 0..PROBE_ROUNDS {
        let t0 = wall_micros() as i64;
        write_sealed(stream, &mut session.send, &(t0 as u64).to_le_bytes())?;
        let reply = read_sealed(stream, &mut session.recv)?;
        let t3 = wall_micros() as i64;
        if reply.len() != 16 {
            return Err(probe_err("malformed offset-probe reply"));
        }
        let mut b = [0u8; 8];
        b.copy_from_slice(&reply[..8]);
        let t1 = u64::from_le_bytes(b) as i64;
        b.copy_from_slice(&reply[8..]);
        let t2 = u64::from_le_bytes(b) as i64;
        let delay = (t3 - t0) - (t2 - t1);
        let offset = ((t1 - t0) + (t2 - t3)) / 2;
        if best.is_none_or(|(d, _)| delay < d) {
            best = Some((delay, offset));
        }
    }
    let offset = best.expect("PROBE_ROUNDS >= 1").1;
    write_sealed(stream, &mut session.send, &offset.to_le_bytes())?;
    Ok(offset)
}

/// Clock-offset probe, responder side (see [`offset_probe_initiate`]).
/// Returns this node's estimated offset to the *initiator* (the
/// negation of the initiator's estimate).
///
/// # Errors
///
/// Transport errors, or `InvalidData` for malformed probe frames.
pub fn offset_probe_respond(
    stream: &mut TcpStream,
    session: &mut Session,
) -> std::io::Result<i64> {
    for _ in 0..PROBE_ROUNDS {
        let ping = read_sealed(stream, &mut session.recv)?;
        if ping.len() != 8 {
            return Err(probe_err("malformed offset-probe ping"));
        }
        let t1 = wall_micros();
        let mut reply = [0u8; 16];
        reply[..8].copy_from_slice(&t1.to_le_bytes());
        let t2 = wall_micros();
        reply[8..].copy_from_slice(&t2.to_le_bytes());
        write_sealed(stream, &mut session.send, &reply)?;
    }
    let echoed = read_sealed(stream, &mut session.recv)?;
    if echoed.len() != 8 {
        return Err(probe_err("malformed offset-probe echo"));
    }
    let mut b = [0u8; 8];
    b.copy_from_slice(&echoed);
    Ok(-(i64::from_le_bytes(b)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Duration;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        for s in [&client, &server] {
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        }
        (client, server)
    }

    fn run_handshake(
        init_auth: MeshAuth,
        resp_auth: MeshAuth,
        init_id: NodeId,
        resp_id: NodeId,
    ) -> (Result<Session, NetworkError>, Result<(NodeId, Session), NetworkError>) {
        let (mut a, mut b) = pair();
        let resp = std::thread::spawn(move || respond(&mut b, &resp_auth.identity, &resp_auth.roster));
        let target = *init_auth.roster.get(resp_id).unwrap();
        let init = initiate(&mut a, init_id, &init_auth.identity, &target);
        (init, resp.join().unwrap())
    }

    #[test]
    fn handshake_derives_matching_session_keys() {
        let (init, resp) = run_handshake(
            MeshAuth::insecure_dev(1, 2, 7),
            MeshAuth::insecure_dev(2, 2, 7),
            1,
            2,
        );
        let mut init = init.unwrap();
        let (claimed, mut resp) = resp.unwrap();
        assert_eq!(claimed, 1);

        // Initiator → responder and back, multiple frames (counters track).
        for msg in [&b"alpha"[..], &b"beta"[..], &b""[..]] {
            let sealed = init.send.seal(msg);
            assert_eq!(resp.recv.open(&sealed).unwrap(), msg);
            let sealed = resp.send.seal(msg);
            assert_eq!(init.recv.open(&sealed).unwrap(), msg);
        }
    }

    #[test]
    fn offset_probe_agrees_between_loopback_peers() {
        let (mut a, mut b) = pair();
        let resp_auth = MeshAuth::insecure_dev(2, 2, 11);
        let resp = std::thread::spawn(move || {
            let (_, mut session) = respond(&mut b, &resp_auth.identity, &resp_auth.roster).unwrap();
            let off = offset_probe_respond(&mut b, &mut session).unwrap();
            (off, session)
        });
        let init_auth = MeshAuth::insecure_dev(1, 2, 11);
        let target = *init_auth.roster.get(2).unwrap();
        let mut session = initiate(&mut a, 1, &init_auth.identity, &target).unwrap();
        let init_off = offset_probe_initiate(&mut a, &mut session).unwrap();
        let (resp_off, mut resp_session) = resp.join().unwrap();

        // Same host, same clock: the measured skew is bounded by the
        // loopback round trip, and the responder sees the negation.
        assert!(init_off.abs() < 1_000_000, "offset {init_off}µs on loopback");
        assert_eq!(resp_off, -init_off);

        // The probe consumed matching nonces on both sides: ordinary
        // traffic still flows afterwards.
        let sealed = session.send.seal(b"after-probe");
        assert_eq!(resp_session.recv.open(&sealed).unwrap(), b"after-probe");
        let sealed = resp_session.send.seal(b"reply");
        assert_eq!(session.recv.open(&sealed).unwrap(), b"reply");
    }

    #[test]
    fn sealed_frames_are_direction_separated_and_replay_proof() {
        let (init, resp) = run_handshake(
            MeshAuth::insecure_dev(1, 2, 8),
            MeshAuth::insecure_dev(2, 2, 8),
            1,
            2,
        );
        let mut init = init.unwrap();
        let (_, mut resp) = resp.unwrap();
        let sealed = init.send.seal(b"one");
        // Reflecting a frame back to its sender fails (distinct keys).
        assert!(init.recv.open(&sealed).is_err());
        // Delivery works once...
        assert_eq!(resp.recv.open(&sealed).unwrap(), b"one");
        // ...and replay fails (the nonce counter moved on).
        assert!(resp.recv.open(&sealed).is_err());
    }

    #[test]
    fn impostor_initiator_is_rejected() {
        // The initiator claims id 1 but holds a different (wrong-seed)
        // identity: the responder must refuse.
        let impostor = MeshAuth {
            identity: MeshAuth::insecure_dev(1, 2, 999).identity,
            roster: MeshAuth::insecure_dev(1, 2, 9).roster,
        };
        let (init, resp) = run_handshake(impostor, MeshAuth::insecure_dev(2, 2, 9), 1, 2);
        assert!(resp.is_err(), "responder accepted an impostor");
        // The initiator never gets a message B (or gets a dead socket).
        assert!(init.is_err());
    }

    #[test]
    fn impostor_responder_is_rejected() {
        // The responder holds a different identity than the roster entry
        // the initiator pins: the initiator must refuse message B.
        let impostor = MeshAuth {
            identity: MeshAuth::insecure_dev(2, 2, 999).identity,
            roster: MeshAuth::insecure_dev(2, 2, 10).roster,
        };
        let (mut a, mut b) = pair();
        let resp = std::thread::spawn(move || {
            // The impostor *thinks* it is node 2 of mesh 999, and uses
            // its own (mismatched) roster to check the initiator — to
            // drive its side far enough to send message B, give it the
            // initiator's real roster... it still cannot forge tag_b
            // without the real s_2.
            let roster = MeshAuth::insecure_dev(2, 2, 10).roster;
            respond(&mut b, &impostor.identity, &roster)
        });
        let real = MeshAuth::insecure_dev(1, 2, 10);
        let target = *real.roster.get(2).unwrap();
        let init = initiate(&mut a, 1, &real.identity, &target);
        let _ = resp.join().unwrap();
        assert!(init.is_err(), "initiator accepted an impostor responder");
    }

    #[test]
    fn unknown_peer_id_is_rejected() {
        let (mut a, mut b) = pair();
        let resp_auth = MeshAuth::insecure_dev(2, 2, 11);
        let resp =
            std::thread::spawn(move || respond(&mut b, &resp_auth.identity, &resp_auth.roster));
        let init_auth = MeshAuth::insecure_dev(1, 2, 11);
        let target = *init_auth.roster.get(2).unwrap();
        // Claim id 9: outside the 2-node roster.
        let _ = initiate(&mut a, 9, &init_auth.identity, &target);
        let err = resp.join().unwrap();
        assert!(matches!(err, Err(NetworkError::Setup(ref m)) if m.contains("unknown peer")));
    }

    #[test]
    fn mute_dialer_times_out_the_responder() {
        let (a, mut b) = pair();
        b.set_read_timeout(Some(Duration::from_millis(200))).unwrap();
        let auth = MeshAuth::insecure_dev(2, 2, 12);
        let start = std::time::Instant::now();
        let err = respond(&mut b, &auth.identity, &auth.roster);
        assert!(matches!(err, Err(NetworkError::Setup(ref m)) if m.contains("timed out")));
        assert!(start.elapsed() < Duration::from_secs(5));
        drop(a);
    }

    #[test]
    fn roster_rejects_invalid_points() {
        // All-ones bytes are not a reduced field element; s = 1 is
        // negative (odd). Neither is a Ristretto255 encoding.
        let bad = [[0xffu8; 32]];
        assert!(Roster::from_bytes(&bad).is_err());
        let mut odd = [0u8; 32];
        odd[0] = 1;
        assert!(Roster::from_bytes(&[odd]).is_err());
    }

    #[test]
    fn roster_rejects_identity_and_non_canonical_entries() {
        let auth = MeshAuth::insecure_dev(1, 2, 16);
        let good = auth.roster.to_bytes();
        // 32 zero bytes: the identity's canonical encoding.
        assert!(Roster::from_bytes(&[good[0], [0u8; 32]]).is_err());
        assert!(parse_point(&[0u8; 32]).is_err());
        // A valid key with bit 255 set: a plain field load ignores the
        // bit, so these bytes would name the same key a second way.
        let mut high_bit = good[1];
        high_bit[31] |= 0x80;
        assert!(Roster::from_bytes(&[good[0], high_bit]).is_err());
        // p + 1 is a non-canonical form of s = 1.
        let mut p_plus_1 = [0xffu8; 32];
        p_plus_1[0] = 0xee;
        p_plus_1[31] = 0x7f;
        assert!(Roster::from_bytes(&[p_plus_1]).is_err());
        assert!(parse_point(&p_plus_1).is_err());
        assert!(Roster::from_bytes(&good).is_ok());
    }

    #[test]
    fn roster_roundtrips_through_bytes() {
        let auth = MeshAuth::insecure_dev(1, 4, 13);
        let bytes = auth.roster.to_bytes();
        let back = Roster::from_bytes(&bytes).unwrap();
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(back.len(), 4);
    }

    #[test]
    fn sealed_frame_io_reassembles_chunked_frames() {
        let (mut a, mut b) = pair();
        let resp_auth = MeshAuth::insecure_dev(2, 2, 15);
        let reader = std::thread::spawn(move || {
            let (_, mut sess) = respond(&mut b, &resp_auth.identity, &resp_auth.roster).unwrap();
            read_sealed(&mut b, &mut sess.recv).unwrap()
        });
        let init_auth = MeshAuth::insecure_dev(1, 2, 15);
        let target = *init_auth.roster.get(2).unwrap();
        let mut sess = initiate(&mut a, 1, &init_auth.identity, &target).unwrap();
        // Crosses multiple READ_CHUNK boundaries with a ragged tail.
        let big: Vec<u8> = (0..READ_CHUNK * 2 + 333).map(|i| (i % 251) as u8).collect();
        write_sealed(&mut a, &mut sess.send, &big).unwrap();
        assert_eq!(reader.join().unwrap(), big);
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let (mut a, mut b) = pair();
        a.write_all(&(MAX_FRAME + 1).to_le_bytes()).unwrap();
        let mut cipher = RecvCipher { key: [0u8; 32], counter: 0 };
        let err = read_sealed(&mut b, &mut cipher).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_giant_frame_fails_without_upfront_allocation() {
        // A hostile prefix claiming the full MAX_FRAME with only a few
        // bytes behind it must fail on the read, not OOM on a 64 MiB
        // allocation.
        let (mut a, mut b) = pair();
        a.write_all(&MAX_FRAME.to_le_bytes()).unwrap();
        a.write_all(&[1, 2, 3]).unwrap();
        drop(a);
        let mut cipher = RecvCipher { key: [0u8; 32], counter: 0 };
        assert!(read_sealed(&mut b, &mut cipher).is_err());
    }

    #[test]
    fn secret_types_have_redacted_debug() {
        let seed = IdentitySeed::new([3u8; 32]);
        assert_eq!(format!("{seed:?}"), "IdentitySeed(redacted)");
        let id = StaticIdentity::from_seed(&seed);
        let dbg = format!("{id:?}");
        assert!(dbg.contains("redacted"));
        let (init, _) = run_handshake(
            MeshAuth::insecure_dev(1, 2, 14),
            MeshAuth::insecure_dev(2, 2, 14),
            1,
            2,
        );
        let session = init.unwrap();
        assert!(format!("{:?}", session.send).contains("redacted"));
        assert!(format!("{:?}", session.recv).contains("redacted"));
    }
}
