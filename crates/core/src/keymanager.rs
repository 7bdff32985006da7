//! The multi-tenant on-demand key manager: per-tenant key namespaces,
//! encrypted share persistence, and an LRU hot-key cache.
//!
//! Each node runs one [`KeyManager`] over its own keystore directory.
//! A tenant key is identified by a [`KeyRef`] (`tenant/name`); its share
//! is persisted as one file, sealed with ChaCha20-Poly1305 under a
//! storage key derived from the node's keystore passphrase
//! ([`KeystoreKey::derive`], HKDF with the `theta/keystore/v1` domain).
//! The file's plaintext header (tenant, name, scheme) doubles as the
//! AEAD's associated data, so renaming or header-tampering a record
//! makes it fail closed, as does any ciphertext flip or a wrong storage
//! key.
//!
//! The manager implements [`KeyProvider`], so the router resolves
//! tenant-scoped requests ([`theta_orchestration::Request::Scoped`])
//! through it: unscoped requests get the node's static default chest
//! (legacy behaviour unchanged), scoped ones hit the LRU cache and fall
//! back to decrypt-from-disk, emitting `KeyLoaded`/`KeyEvicted` journal
//! events and the `theta_keys_loaded_total` / `theta_keys_evicted_total`
//! / `theta_keystore_open_failures_total` counters.
//!
//! Dealing happens on demand through [`ClusterKeyAdmin`] (the service
//! layer's [`KeyAdmin`]): the dealer runs locally and installs share
//! *i* into node *i*'s manager. Distributed key generation without a
//! dealer remains a roadmap item; the wire protocol and storage format
//! here do not change when it lands.

use parking_lot::Mutex;
use rand::RngCore;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use theta_codec::{Decode, Encode, Reader, Writer};
use theta_metrics::{NodeObservability, TraceEventKind};
use theta_orchestration::{KeyChest, KeyProvider, KeyRef, SharedChest};
use theta_primitives::kdf::{hkdf_expand_key, hkdf_extract, DomainHasher};
use theta_primitives::aead;
use theta_schemes::registry::SchemeId;
use theta_schemes::{SchemeError, ThresholdParams};
use theta_service::KeyAdmin;

/// Magic prefix of sealed keystore records.
const RECORD_MAGIC: &[u8; 8] = b"THETAKS2";
/// Magic of records sealed while Ed25519 points used the Edwards encoding.
const EDWARDS_RECORD_MAGIC: &[u8; 8] = b"THETAKS1";

/// HKDF domain for deriving the storage key from a passphrase.
const STORAGE_KDF_DOMAIN: &[u8] = b"theta/keystore/v1";

/// Domain for hashing a [`KeyRef`] into a stable record id — used both
/// as the on-disk filename and as the journal "instance" for
/// `KeyLoaded`/`KeyEvicted` events, so a key's lifecycle is traceable.
const RECORD_ID_DOMAIN: &str = "theta/keystore/record-id/v1";

/// The symmetric key sealing keystore records at rest.
///
/// Secret-bearing: its `Debug` is redacted and the bytes are
/// volatile-wiped on drop (see `theta-lint`'s registry).
pub struct KeystoreKey([u8; 32]);

impl KeystoreKey {
    /// Wraps raw key bytes (e.g. from a provisioning system).
    pub fn new(bytes: [u8; 32]) -> KeystoreKey {
        KeystoreKey(bytes)
    }

    /// Derives the storage key from a passphrase with HKDF under the
    /// `theta/keystore/v1` domain.
    pub fn derive(passphrase: &[u8]) -> KeystoreKey {
        let prk = hkdf_extract(STORAGE_KDF_DOMAIN, passphrase);
        KeystoreKey(hkdf_expand_key(&prk, b"storage"))
    }

    fn bytes(&self) -> &[u8; 32] {
        &self.0
    }
}

impl std::fmt::Debug for KeystoreKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("KeystoreKey(redacted)")
    }
}

impl Drop for KeystoreKey {
    fn drop(&mut self) {
        theta_math::wipe_bytes(&mut self.0);
    }
}

/// The stable 32-byte id of a keystore record.
fn record_id(keyref: &KeyRef) -> [u8; 32] {
    DomainHasher::new(RECORD_ID_DOMAIN)
        .chain(keyref.tenant.as_bytes())
        .chain(keyref.name.as_bytes())
        .finish32()
}

fn record_path(dir: &Path, keyref: &KeyRef) -> PathBuf {
    let id = record_id(keyref);
    let mut name = String::with_capacity(68);
    for b in id {
        name.push_str(&format!("{b:02x}"));
    }
    name.push_str(".key");
    dir.join(name)
}

/// The plaintext record header — also the AEAD associated data, binding
/// the ciphertext to its tenant, name and scheme.
struct RecordHeader {
    tenant: String,
    name: String,
    scheme: SchemeId,
}

impl Encode for RecordHeader {
    fn encode(&self, w: &mut Writer) {
        self.tenant.encode(w);
        self.name.encode(w);
        self.scheme.encode(w);
    }
}

impl Decode for RecordHeader {
    fn decode(r: &mut Reader) -> theta_codec::Result<Self> {
        Ok(RecordHeader {
            tenant: String::decode(r)?,
            name: String::decode(r)?,
            scheme: SchemeId::decode(r)?,
        })
    }
}

/// One decrypted tenant key, pinned in the hot cache.
///
/// `Debug` shows scheme and public key only; the chest stays opaque.
pub struct LoadedKey {
    /// The key's scheme.
    pub scheme: SchemeId,
    /// Encoded public key (what `GetTenantKey` serves).
    pub public: Vec<u8>,
    /// The share chest the router executes against.
    pub chest: SharedChest,
}

impl std::fmt::Debug for LoadedKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoadedKey")
            .field("scheme", &self.scheme)
            .field("public", &format_args!("{} bytes", self.public.len()))
            .finish_non_exhaustive()
    }
}

/// Journal/metric handles, attached once the node's observability
/// bundle exists (the manager is constructed before the node spawns).
struct Hooks {
    journal: Arc<theta_metrics::TraceJournal>,
    loaded: Arc<theta_metrics::registry::Counter>,
    evicted: Arc<theta_metrics::registry::Counter>,
    open_failures: Arc<theta_metrics::registry::Counter>,
}

struct CacheState {
    /// LRU order: front = coldest, back = hottest. Capacities are small
    /// (tens), so the linear touch is cheaper than a linked structure.
    entries: VecDeque<(String, Arc<LoadedKey>)>,
}

/// One node's tenant keystore: sealed persistence plus a hot-key cache.
pub struct KeyManager {
    dir: PathBuf,
    storage: KeystoreKey,
    default_chest: SharedChest,
    cache_capacity: usize,
    cache: Mutex<CacheState>,
    hooks: Mutex<Option<Hooks>>,
}

impl KeyManager {
    /// Opens (creating if needed) the keystore at `dir`. `cache_capacity`
    /// bounds the number of decrypted tenant keys held hot (minimum 1).
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory.
    pub fn open(
        dir: impl Into<PathBuf>,
        storage: KeystoreKey,
        cache_capacity: usize,
    ) -> std::io::Result<KeyManager> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(KeyManager {
            dir,
            storage,
            default_chest: Arc::new(std::sync::Mutex::new(KeyChest::new())),
            cache_capacity: cache_capacity.max(1),
            cache: Mutex::new(CacheState { entries: VecDeque::new() }),
            hooks: Mutex::new(None),
        })
    }

    /// Sets the chest served to *unscoped* requests — the node's static
    /// dealer-provisioned keys, preserving legacy behaviour.
    pub fn set_default_chest(&self, chest: KeyChest) {
        *self.default_chest.lock().unwrap_or_else(|e| e.into_inner()) = chest;
    }

    /// Wires the node's observability bundle in: key lifecycle events go
    /// to its trace journal, counts to its registry. Without this the
    /// manager still works, silently.
    pub fn attach_observability(&self, obs: &NodeObservability) {
        *self.hooks.lock() = Some(Hooks {
            journal: obs.journal.clone(),
            loaded: obs.registry.counter("theta_keys_loaded_total"),
            evicted: obs.registry.counter("theta_keys_evicted_total"),
            open_failures: obs.registry.counter("theta_keystore_open_failures_total"),
        });
    }

    /// True when a sealed record exists for `keyref`.
    pub fn exists(&self, keyref: &KeyRef) -> bool {
        record_path(&self.dir, keyref).exists()
    }

    /// Seals and persists one tenant key share, then pins it hot. The
    /// same chest columns as the static [`KeyChest`] apply: `share` is
    /// the encoded per-scheme key share, `public` the encoded public
    /// key served to clients.
    ///
    /// # Errors
    ///
    /// A description when the record already exists or persisting fails.
    pub fn install(
        &self,
        keyref: &KeyRef,
        scheme: SchemeId,
        share: &[u8],
        public: &[u8],
    ) -> Result<(), String> {
        keyref.validate().map_err(|e| e.to_string())?;
        let path = record_path(&self.dir, keyref);
        if path.exists() {
            return Err(format!("key {keyref} already exists"));
        }
        let header = RecordHeader {
            tenant: keyref.tenant.clone(),
            name: keyref.name.clone(),
            scheme,
        };
        let header_bytes = header.encoded();
        let mut plaintext = Writer::new();
        share.to_vec().encode(&mut plaintext);
        public.to_vec().encode(&mut plaintext);
        let mut plaintext = plaintext.into_bytes();
        let mut nonce = [0u8; 12];
        rand::rngs::OsRng.fill_bytes(&mut nonce);
        let sealed = aead::seal(self.storage.bytes(), &nonce, &header_bytes, &plaintext);
        theta_math::wipe_bytes(&mut plaintext);
        let mut w = Writer::new();
        w.put_raw(RECORD_MAGIC);
        header_bytes.encode(&mut w);
        w.put_raw(&nonce);
        sealed.encode(&mut w);
        // Write-then-rename so a crash mid-write never leaves a
        // half-record under the real name.
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, w.into_bytes()).map_err(|e| format!("persist {keyref}: {e}"))?;
        std::fs::rename(&tmp, &path).map_err(|e| format!("persist {keyref}: {e}"))?;
        let loaded = self
            .chest_from_share(scheme, share, public)
            .map_err(|e| format!("installed share for {keyref} does not decode: {e}"))?;
        self.pin(keyref, Arc::new(loaded));
        Ok(())
    }

    /// The decrypted key for `keyref`: hot-cache hit or sealed-record
    /// load.
    ///
    /// # Errors
    ///
    /// A description when the record is missing, tampered with, sealed
    /// under a different storage key, or undecodable.
    pub fn load(&self, keyref: &KeyRef) -> Result<Arc<LoadedKey>, String> {
        let cache_key = keyref.to_string();
        {
            let mut cache = self.cache.lock();
            if let Some(pos) =
                cache.entries.iter().position(|(name, _)| *name == cache_key)
            {
                // Touch: move to the hot end.
                let entry = cache.entries.remove(pos).expect("position just found");
                let hit = entry.1.clone();
                cache.entries.push_back(entry);
                return Ok(hit);
            }
        }
        let path = record_path(&self.dir, keyref);
        let bytes = std::fs::read(&path).map_err(|_| format!("unknown key {keyref}"))?;
        let loaded = match self.open_record(keyref, &bytes) {
            Ok(l) => l,
            Err(e) => {
                if let Some(hooks) = &*self.hooks.lock() {
                    hooks.open_failures.inc();
                }
                return Err(e);
            }
        };
        let loaded = Arc::new(loaded);
        if let Some(hooks) = &*self.hooks.lock() {
            hooks.loaded.inc();
            hooks.journal.record_full(
                record_id(keyref),
                TraceEventKind::KeyLoaded,
                0,
                cache_key.clone(),
            );
        }
        self.pin(keyref, loaded.clone());
        Ok(loaded)
    }

    /// Parses and opens one sealed record, checking every binding.
    fn open_record(&self, keyref: &KeyRef, bytes: &[u8]) -> Result<LoadedKey, String> {
        let mut r = Reader::new(bytes);
        let parse = |_: theta_codec::CodecError| format!("keystore record for {keyref} is malformed");
        crate::keyfile::check_magic(
            r.take(8).map_err(parse)?,
            RECORD_MAGIC,
            EDWARDS_RECORD_MAGIC,
            &format!("keystore record for {keyref}"),
        )?;
        let header_bytes = Vec::<u8>::decode(&mut r).map_err(parse)?;
        let mut nonce = [0u8; 12];
        nonce.copy_from_slice(r.take(12).map_err(parse)?);
        let sealed = Vec::<u8>::decode(&mut r).map_err(parse)?;
        if !r.is_at_end() {
            return Err(format!("keystore record for {keyref} is malformed"));
        }
        let header = RecordHeader::decoded(&header_bytes).map_err(parse)?;
        if header.tenant != keyref.tenant || header.name != keyref.name {
            // A record copied under another ref's filename: the AEAD
            // would also refuse (the header is the AAD), but fail early
            // with a precise message.
            return Err(format!("keystore record for {keyref} names a different key"));
        }
        let mut plaintext = aead::open(self.storage.bytes(), &nonce, &header_bytes, &sealed)
            .map_err(|_| {
                format!(
                    "keystore record for {keyref} failed to authenticate \
                     (tampered, or wrong storage key)"
                )
            })?;
        let decoded = (|| -> theta_codec::Result<(Vec<u8>, Vec<u8>)> {
            let mut r = Reader::new(&plaintext);
            let share = Vec::<u8>::decode(&mut r)?;
            let public = Vec::<u8>::decode(&mut r)?;
            if !r.is_at_end() {
                return Err(theta_codec::CodecError::TrailingBytes(r.remaining()));
            }
            Ok((share, public))
        })();
        theta_math::wipe_bytes(&mut plaintext);
        let (mut share, public) = decoded.map_err(parse)?;
        let result = self.chest_from_share(header.scheme, &share, &public);
        theta_math::wipe_bytes(&mut share);
        result.map_err(|e| format!("keystore record for {keyref}: {e}"))
    }

    /// Builds a single-scheme chest around a decoded share.
    fn chest_from_share(
        &self,
        scheme: SchemeId,
        share: &[u8],
        public: &[u8],
    ) -> Result<LoadedKey, String> {
        let parse = |e: theta_codec::CodecError| format!("share does not decode: {e}");
        let mut chest = KeyChest::new();
        match scheme {
            SchemeId::Sg02 => {
                chest.sg02 = Some(theta_schemes::sg02::KeyShare::decoded(share).map_err(parse)?)
            }
            SchemeId::Bz03 => {
                chest.bz03 = Some(theta_schemes::bz03::KeyShare::decoded(share).map_err(parse)?)
            }
            SchemeId::Sh00 => {
                chest.sh00 = Some(theta_schemes::sh00::KeyShare::decoded(share).map_err(parse)?)
            }
            SchemeId::Bls04 => {
                chest.bls04 = Some(theta_schemes::bls04::KeyShare::decoded(share).map_err(parse)?)
            }
            SchemeId::Kg20 => {
                chest.kg20 = Some(theta_schemes::kg20::KeyShare::decoded(share).map_err(parse)?)
            }
            SchemeId::Cks05 => {
                chest.cks05 = Some(theta_schemes::cks05::KeyShare::decoded(share).map_err(parse)?)
            }
        }
        Ok(LoadedKey {
            scheme,
            public: public.to_vec(),
            chest: Arc::new(std::sync::Mutex::new(chest)),
        })
    }

    /// Inserts into the LRU, evicting the coldest entries over capacity.
    fn pin(&self, keyref: &KeyRef, loaded: Arc<LoadedKey>) {
        let cache_key = keyref.to_string();
        let mut evicted_names = Vec::new();
        {
            let mut cache = self.cache.lock();
            cache.entries.retain(|(name, _)| *name != cache_key);
            cache.entries.push_back((cache_key, loaded));
            while cache.entries.len() > self.cache_capacity {
                if let Some((name, _)) = cache.entries.pop_front() {
                    evicted_names.push(name);
                }
            }
        }
        if evicted_names.is_empty() {
            return;
        }
        if let Some(hooks) = &*self.hooks.lock() {
            for name in evicted_names {
                hooks.evicted.inc();
                // The evicted name is "tenant/name"; re-derive its id.
                let id = match name.split_once('/') {
                    Some((tenant, key)) => record_id(&KeyRef::new(tenant, key)),
                    None => [0u8; 32],
                };
                hooks.journal.record_full(id, TraceEventKind::KeyEvicted, 0, name);
            }
        }
    }

    /// Every record's `(tenant, name, scheme)` for one tenant, read from
    /// the plaintext headers (no storage key needed), sorted by name.
    pub fn list(&self, tenant: &str) -> Vec<(String, SchemeId)> {
        let mut out = Vec::new();
        let Ok(entries) = std::fs::read_dir(&self.dir) else { return out };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("key") {
                continue;
            }
            let Ok(bytes) = std::fs::read(&path) else { continue };
            let Some(header) = peek_header(&bytes) else { continue };
            if header.tenant == tenant {
                out.push((header.name, header.scheme));
            }
        }
        out.sort();
        out
    }
}

/// Parses just the plaintext header of a sealed record.
fn peek_header(bytes: &[u8]) -> Option<RecordHeader> {
    let mut r = Reader::new(bytes);
    if r.take(8).ok()? != RECORD_MAGIC {
        return None;
    }
    let header_bytes = Vec::<u8>::decode(&mut r).ok()?;
    RecordHeader::decoded(&header_bytes).ok()
}

impl KeyProvider for KeyManager {
    fn chest(&self, keyref: Option<&KeyRef>) -> Result<SharedChest, SchemeError> {
        match keyref {
            None => Ok(self.default_chest.clone()),
            Some(kr) => self
                .load(kr)
                .map(|loaded| loaded.chest.clone())
                .map_err(SchemeError::KeyMismatch),
        }
    }
}

/// A `KeyProvider` that shares one [`KeyManager`] — the router takes a
/// `Box<dyn KeyProvider>`, the service layer an `Arc<dyn KeyAdmin>`, so
/// both sides alias the same manager through this wrapper.
pub struct SharedKeyManager(pub Arc<KeyManager>);

impl KeyProvider for SharedKeyManager {
    fn chest(&self, keyref: Option<&KeyRef>) -> Result<SharedChest, SchemeError> {
        self.0.chest(keyref)
    }
}

/// The `KeyAdmin` of a standalone node (`theta-node`): serves
/// `ListKeys`/`GetTenantKey` and tenant-scoped requests from the node's
/// own keystore, but refuses on-demand dealing — one process holds one
/// share, so dealing must happen where every node's keystore is
/// reachable (the in-process [`ClusterKeyAdmin`], or `theta-keygen
/// --tenant` writing sealed records per node).
pub struct LocalKeyAdmin(pub Arc<KeyManager>);

impl KeyAdmin for LocalKeyAdmin {
    fn generate(&self, _keyref: &KeyRef, _scheme: SchemeId) -> Result<Vec<u8>, String> {
        Err("this node cannot deal on demand: it holds only its own share. \
             Deal tenant keys with `theta-keygen --tenant T --key K` into every \
             node's keystore"
            .into())
    }

    fn list(&self, tenant: &str) -> Vec<(String, SchemeId)> {
        self.0.list(tenant)
    }

    fn tenant_public_key(&self, keyref: &KeyRef) -> Result<(SchemeId, Vec<u8>), String> {
        let loaded = self.0.load(keyref)?;
        Ok((loaded.scheme, loaded.public.clone()))
    }
}

/// The on-demand dealer backing the `Keygen` RPC: deals a fresh key for
/// the requested scheme and installs share *i* into node *i*'s manager.
pub struct ClusterKeyAdmin {
    managers: Vec<Arc<KeyManager>>,
    params: ThresholdParams,
    /// Modulus size for on-demand SH00 keys. Dealt keys default to the
    /// test-grade 256 bits; production deployments should configure the
    /// paper's 2048.
    sh00_modulus_bits: usize,
}

impl ClusterKeyAdmin {
    /// A dealer over one manager per node, for a `(t+1)`-of-`n` network
    /// (`n == managers.len()` must hold).
    pub fn new(managers: Vec<Arc<KeyManager>>, params: ThresholdParams) -> ClusterKeyAdmin {
        assert_eq!(
            managers.len(),
            params.n() as usize,
            "one key manager per roster node"
        );
        ClusterKeyAdmin { managers, params, sh00_modulus_bits: 256 }
    }

    /// Overrides the SH00 modulus size for on-demand keys.
    pub fn sh00_modulus_bits(mut self, bits: usize) -> ClusterKeyAdmin {
        self.sh00_modulus_bits = bits;
        self
    }

    fn deal(
        &self,
        scheme: SchemeId,
    ) -> Result<(Vec<u8>, Vec<Vec<u8>>), SchemeError> {
        let mut rng = rand::rngs::OsRng;
        let encode_all = |shares: Vec<Vec<u8>>, public: Vec<u8>| (public, shares);
        Ok(match scheme {
            SchemeId::Sg02 => {
                let (pk, shares) = theta_schemes::sg02::keygen(self.params, &mut rng);
                encode_all(shares.iter().map(Encode::encoded).collect(), pk.encoded())
            }
            SchemeId::Bz03 => {
                let (pk, shares) = theta_schemes::bz03::keygen(self.params, &mut rng);
                encode_all(shares.iter().map(Encode::encoded).collect(), pk.encoded())
            }
            SchemeId::Sh00 => {
                let (pk, shares) =
                    theta_schemes::sh00::keygen(self.params, self.sh00_modulus_bits, &mut rng)?;
                encode_all(shares.iter().map(Encode::encoded).collect(), pk.encoded())
            }
            SchemeId::Bls04 => {
                let (pk, shares) = theta_schemes::bls04::keygen(self.params, &mut rng);
                encode_all(shares.iter().map(Encode::encoded).collect(), pk.encoded())
            }
            SchemeId::Kg20 => {
                let (pk, shares) = theta_schemes::kg20::keygen(self.params, &mut rng);
                encode_all(shares.iter().map(Encode::encoded).collect(), pk.encoded())
            }
            SchemeId::Cks05 => {
                let (pk, shares) = theta_schemes::cks05::keygen(self.params, &mut rng);
                encode_all(shares.iter().map(Encode::encoded).collect(), pk.encoded())
            }
        })
    }
}

impl KeyAdmin for ClusterKeyAdmin {
    fn generate(&self, keyref: &KeyRef, scheme: SchemeId) -> Result<Vec<u8>, String> {
        keyref.validate().map_err(|e| e.to_string())?;
        if self.managers.iter().any(|m| m.exists(keyref)) {
            return Err(format!("key {keyref} already exists"));
        }
        let (public, mut shares) = self.deal(scheme).map_err(|e| e.to_string())?;
        for (manager, share) in self.managers.iter().zip(shares.iter()) {
            manager.install(keyref, scheme, share, &public)?;
        }
        for share in &mut shares {
            theta_math::wipe_bytes(share);
        }
        Ok(public)
    }

    fn list(&self, tenant: &str) -> Vec<(String, SchemeId)> {
        self.managers[0].list(tenant)
    }

    fn tenant_public_key(&self, keyref: &KeyRef) -> Result<(SchemeId, Vec<u8>), String> {
        let loaded = self.managers[0].load(keyref)?;
        Ok((loaded.scheme, loaded.public.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "theta-keystore-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn seeded_manager(tag: &str, capacity: usize) -> KeyManager {
        KeyManager::open(tempdir(tag), KeystoreKey::derive(b"test-pass"), capacity).unwrap()
    }

    fn deal_one(manager: &KeyManager, keyref: &KeyRef) -> Vec<u8> {
        let params = ThresholdParams::new(0, 1).unwrap();
        let mut rng = rand::rngs::OsRng;
        let (pk, shares) = theta_schemes::bls04::keygen(params, &mut rng);
        manager
            .install(keyref, SchemeId::Bls04, &shares[0].encoded(), &pk.encoded())
            .unwrap();
        pk.encoded()
    }

    #[test]
    fn install_load_roundtrip_across_reopen() {
        let dir = tempdir("roundtrip");
        let keyref = KeyRef::new("acme", "signing");
        let public = {
            let manager =
                KeyManager::open(&dir, KeystoreKey::derive(b"pass"), 4).unwrap();
            deal_one(&manager, &keyref)
        };
        // A fresh manager (same dir + passphrase) reloads the share
        // from the sealed record.
        let manager = KeyManager::open(&dir, KeystoreKey::derive(b"pass"), 4).unwrap();
        let loaded = manager.load(&keyref).unwrap();
        assert_eq!(loaded.scheme, SchemeId::Bls04);
        assert_eq!(loaded.public, public);
        assert!(manager
            .chest(Some(&keyref))
            .unwrap()
            .lock()
            .unwrap()
            .has(SchemeId::Bls04));
        assert_eq!(manager.list("acme"), vec![("signing".into(), SchemeId::Bls04)]);
        assert!(manager.list("other").is_empty());
    }

    #[test]
    fn wrong_storage_key_fails_closed() {
        let dir = tempdir("wrongkey");
        let keyref = KeyRef::new("acme", "signing");
        {
            let manager = KeyManager::open(&dir, KeystoreKey::derive(b"pass"), 4).unwrap();
            deal_one(&manager, &keyref);
        }
        let manager = KeyManager::open(&dir, KeystoreKey::derive(b"other-pass"), 4).unwrap();
        let err = manager.load(&keyref).unwrap_err();
        assert!(err.contains("failed to authenticate"), "got: {err}");
    }

    #[test]
    fn tampered_record_rejected_and_counted() {
        let dir = tempdir("tamper");
        let keyref = KeyRef::new("acme", "signing");
        {
            let manager = KeyManager::open(&dir, KeystoreKey::derive(b"pass"), 4).unwrap();
            deal_one(&manager, &keyref);
        }
        let path = record_path(&dir, &keyref);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01; // flip one ciphertext/tag bit
        std::fs::write(&path, &bytes).unwrap();
        let manager = KeyManager::open(&dir, KeystoreKey::derive(b"pass"), 4).unwrap();
        let obs = NodeObservability::new();
        manager.attach_observability(&obs);
        assert!(manager.load(&keyref).is_err());
        assert_eq!(
            obs.registry.counter_value("theta_keystore_open_failures_total", &[]),
            Some(1)
        );
    }

    #[test]
    fn edwards_record_fails_with_re_deal_error() {
        let dir = tempdir("edwards");
        let keyref = KeyRef::new("acme", "signing");
        {
            let manager = KeyManager::open(&dir, KeystoreKey::derive(b"pass"), 4).unwrap();
            deal_one(&manager, &keyref);
        }
        let path = record_path(&dir, &keyref);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[..8].copy_from_slice(EDWARDS_RECORD_MAGIC);
        std::fs::write(&path, &bytes).unwrap();
        let manager = KeyManager::open(&dir, KeystoreKey::derive(b"pass"), 4).unwrap();
        let err = manager.load(&keyref).unwrap_err();
        assert!(
            err.contains("old Edwards point encoding; re-deal it with theta_keygen"),
            "got: {err}"
        );
    }

    #[test]
    fn lru_evicts_coldest_and_counts() {
        let manager = seeded_manager("lru", 2);
        let obs = NodeObservability::new();
        manager.attach_observability(&obs);
        let refs: Vec<KeyRef> =
            (0..3).map(|i| KeyRef::new("acme", format!("k{i}"))).collect();
        for keyref in &refs {
            deal_one(&manager, keyref);
        }
        // Install pins hot; three installs through capacity 2 evicted
        // the coldest (k0).
        assert_eq!(
            obs.registry.counter_value("theta_keys_evicted_total", &[]),
            Some(1)
        );
        // k0 must reload from disk (counted), k2 is still hot.
        assert_eq!(obs.registry.counter_value("theta_keys_loaded_total", &[]), Some(0));
        manager.load(&refs[0]).unwrap();
        assert_eq!(obs.registry.counter_value("theta_keys_loaded_total", &[]), Some(1));
        manager.load(&refs[2]).unwrap();
        assert_eq!(obs.registry.counter_value("theta_keys_loaded_total", &[]), Some(1));
    }

    #[test]
    fn duplicate_names_and_unknown_keys_are_errors() {
        let manager = seeded_manager("dups", 4);
        let keyref = KeyRef::new("acme", "signing");
        deal_one(&manager, &keyref);
        let params = ThresholdParams::new(0, 1).unwrap();
        let (pk, shares) = theta_schemes::bls04::keygen(params, &mut rand::rngs::OsRng);
        assert!(manager
            .install(&keyref, SchemeId::Bls04, &shares[0].encoded(), &pk.encoded())
            .unwrap_err()
            .contains("already exists"));
        assert!(manager
            .load(&KeyRef::new("acme", "nope"))
            .unwrap_err()
            .contains("unknown key"));
    }

    #[test]
    fn admin_deals_across_managers_and_lists() {
        let params = ThresholdParams::new(1, 3).unwrap();
        let managers: Vec<Arc<KeyManager>> = (0..3)
            .map(|i| Arc::new(seeded_manager(&format!("admin-{i}"), 4)))
            .collect();
        let admin = ClusterKeyAdmin::new(managers.clone(), params);
        let keyref = KeyRef::new("acme", "shared");
        let public = admin.generate(&keyref, SchemeId::Cks05).unwrap();
        // Every node holds a share for the ref, all serving the same
        // public key.
        for manager in &managers {
            let loaded = manager.load(&keyref).unwrap();
            assert_eq!(loaded.scheme, SchemeId::Cks05);
            assert_eq!(loaded.public, public);
        }
        assert_eq!(admin.list("acme"), vec![("shared".into(), SchemeId::Cks05)]);
        let (scheme, pk) = admin.tenant_public_key(&keyref).unwrap();
        assert_eq!(scheme, SchemeId::Cks05);
        assert_eq!(pk, public);
        // Re-dealing the same name is refused.
        assert!(admin.generate(&keyref, SchemeId::Cks05).is_err());
    }
}
