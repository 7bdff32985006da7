//! # theta-core
//!
//! The integrated Thetacrypt node: one facade tying together the schemes,
//! protocols, orchestration, network and service layers into the
//! deployable unit the paper describes — and a [`ThetaNetwork`] builder
//! that stands up a whole Θ-network in-process (trusted-dealer setup,
//! §4.4) for applications, tests and benchmarks.
//!
//! ## Example
//!
//! ```
//! use theta_core::ThetaNetworkBuilder;
//! use theta_orchestration::Request;
//!
//! let net = ThetaNetworkBuilder::new(1, 4)
//!     .with_cks05()
//!     .seed(7)
//!     .build()
//!     .unwrap();
//! let coin = net.submit_and_wait(1, Request::Cks05Coin(b"round".to_vec())).unwrap();
//! assert_eq!(coin.as_bytes().len(), 32);
//! ```

pub mod keyfile;
pub mod keymanager;

use crate::keymanager::{ClusterKeyAdmin, KeyManager, KeystoreKey, SharedKeyManager};
use rand::SeedableRng;
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use theta_metrics::NodeObservability;
use theta_network::inmemory::{InMemoryConfig, InMemoryHub};
use theta_network::{LinkProfile, Network};
use theta_orchestration::{
    spawn_node, spawn_node_with_keys, KeyChest, NodeConfig, NodeHandle, Request,
};
use theta_protocols::ProtocolOutput;
use theta_schemes::registry::SchemeId;
use theta_schemes::{SchemeError, ThresholdParams};
use theta_service::{PublicKeyChest, ServiceHandle, ServiceOptions};

/// Errors from Θ-network construction and use.
#[derive(Debug)]
pub enum CoreError {
    /// Invalid builder parameters.
    Config(String),
    /// A scheme-level failure (keygen or request execution).
    Scheme(SchemeError),
    /// The request did not complete within the deadline.
    Timeout,
    /// The node stopped (shut down or died) before delivering the
    /// result; retrying against the same handle is pointless.
    NodeStopped,
    /// Transport/service failure.
    Io(std::io::Error),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Config(msg) => write!(f, "configuration error: {msg}"),
            CoreError::Scheme(e) => write!(f, "scheme error: {e}"),
            CoreError::Timeout => write!(f, "request timed out"),
            CoreError::NodeStopped => {
                write!(f, "the node stopped before delivering the result")
            }
            CoreError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<SchemeError> for CoreError {
    fn from(e: SchemeError) -> Self {
        CoreError::Scheme(e)
    }
}

impl From<std::io::Error> for CoreError {
    fn from(e: std::io::Error) -> Self {
        CoreError::Io(e)
    }
}

/// Builder for an in-process Θ-network with a trusted-dealer setup.
pub struct ThetaNetworkBuilder {
    t: u16,
    n: u16,
    schemes: HashSet<SchemeId>,
    link: LinkProfile,
    seed: Option<u64>,
    sh00_modulus_bits: usize,
    kg20_nonce_stock: usize,
    instance_timeout: Duration,
    worker_threads: usize,
    keystore: Option<(PathBuf, Vec<u8>)>,
    keystore_cache: usize,
    tenant_quota: usize,
    submission_queue_capacity: Option<usize>,
}

impl ThetaNetworkBuilder {
    /// Starts a builder for a `(t+1)`-out-of-`n` network.
    pub fn new(t: u16, n: u16) -> ThetaNetworkBuilder {
        ThetaNetworkBuilder {
            t,
            n,
            schemes: HashSet::new(),
            link: LinkProfile::fixed(Duration::ZERO),
            seed: None,
            sh00_modulus_bits: 256,
            kg20_nonce_stock: 0,
            instance_timeout: Duration::from_secs(30),
            worker_threads: 0,
            keystore: None,
            keystore_cache: 8,
            tenant_quota: 0,
            submission_queue_capacity: None,
        }
    }

    /// Provisions the SG02 threshold cipher.
    pub fn with_sg02(mut self) -> Self {
        self.schemes.insert(SchemeId::Sg02);
        self
    }

    /// Provisions the BZ03 threshold cipher.
    pub fn with_bz03(mut self) -> Self {
        self.schemes.insert(SchemeId::Bz03);
        self
    }

    /// Provisions SH00 threshold RSA with the given modulus size.
    /// Key generation cost grows steeply with size (safe primes); tests
    /// use 256, the paper's evaluation uses 2048.
    pub fn with_sh00(mut self, modulus_bits: usize) -> Self {
        self.schemes.insert(SchemeId::Sh00);
        self.sh00_modulus_bits = modulus_bits;
        self
    }

    /// Provisions BLS04 threshold signatures.
    pub fn with_bls04(mut self) -> Self {
        self.schemes.insert(SchemeId::Bls04);
        self
    }

    /// Provisions KG20/FROST with a precomputed-nonce stock per node
    /// (0 = generate nonces on demand, i.e. the full two-round mode).
    pub fn with_kg20(mut self, nonce_stock: usize) -> Self {
        self.schemes.insert(SchemeId::Kg20);
        self.kg20_nonce_stock = nonce_stock;
        self
    }

    /// Provisions the CKS05 coin.
    pub fn with_cks05(mut self) -> Self {
        self.schemes.insert(SchemeId::Cks05);
        self
    }

    /// Provisions every scheme (SH00 at its default test size).
    pub fn with_all_schemes(self) -> Self {
        self.with_sg02()
            .with_bz03()
            .with_sh00(256)
            .with_bls04()
            .with_kg20(0)
            .with_cks05()
    }

    /// Applies a uniform link profile (e.g. the paper's local/global RTTs).
    pub fn link_profile(mut self, link: LinkProfile) -> Self {
        self.link = link;
        self
    }

    /// Deterministic RNG seed for reproducible keygen and protocols.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Per-instance timeout at every node.
    pub fn instance_timeout(mut self, timeout: Duration) -> Self {
        self.instance_timeout = timeout;
        self
    }

    /// Crypto worker threads per node (`0` = one per available core).
    pub fn worker_threads(mut self, workers: usize) -> Self {
        self.worker_threads = workers;
        self
    }

    /// Bounds each node's submission queue: `try_submit` refuses with
    /// `Overloaded` at the bound. Defaults to the orchestration layer's
    /// own default.
    pub fn submission_queue_capacity(mut self, capacity: usize) -> Self {
        self.submission_queue_capacity = Some(capacity);
        self
    }

    /// Enables the multi-tenant key manager: node `i` persists its
    /// tenant key shares under `<dir>/node-<i>`, sealed with a storage
    /// key derived from `passphrase`. The RPC services then answer
    /// on-demand `keygen`/`list_keys`/`get_tenant_key`, and tenant-scoped
    /// protocol requests resolve through the keystore.
    pub fn with_keystore(mut self, dir: impl Into<PathBuf>, passphrase: &[u8]) -> Self {
        self.keystore = Some((dir.into(), passphrase.to_vec()));
        self
    }

    /// Bounds the decrypted tenant keys each node holds hot (default 8).
    pub fn keystore_cache(mut self, capacity: usize) -> Self {
        self.keystore_cache = capacity;
        self
    }

    /// Caps concurrent in-flight tenant-scoped protocol requests per
    /// tenant at every RPC service (0 = unlimited). Excess requests get
    /// the retryable `Overloaded` refusal.
    pub fn tenant_quota(mut self, quota: usize) -> Self {
        self.tenant_quota = quota;
        self
    }

    /// Runs the trusted dealer, stands up the mesh and spawns all nodes.
    ///
    /// # Errors
    ///
    /// [`CoreError::Config`] for bad parameters or no schemes;
    /// [`CoreError::Scheme`] when key generation fails.
    pub fn build(self) -> Result<ThetaNetwork, CoreError> {
        if self.schemes.is_empty() {
            return Err(CoreError::Config("no schemes provisioned".into()));
        }
        let params = ThresholdParams::new(self.t, self.n)
            .map_err(|e| CoreError::Config(e.to_string()))?;
        let mut rng = match self.seed {
            Some(s) => rand::rngs::StdRng::seed_from_u64(s),
            None => rand::rngs::StdRng::from_entropy(),
        };

        let n = self.n as usize;
        let mut chests: Vec<KeyChest> = (0..n).map(|_| KeyChest::new()).collect();
        let mut public_keys = PublicKeyChest::default();

        if self.schemes.contains(&SchemeId::Sg02) {
            let (pk, shares) = theta_schemes::sg02::keygen(params, &mut rng);
            public_keys.sg02 = Some(pk);
            for (chest, share) in chests.iter_mut().zip(shares) {
                chest.sg02 = Some(share);
            }
        }
        if self.schemes.contains(&SchemeId::Bz03) {
            let (pk, shares) = theta_schemes::bz03::keygen(params, &mut rng);
            public_keys.bz03 = Some(pk);
            for (chest, share) in chests.iter_mut().zip(shares) {
                chest.bz03 = Some(share);
            }
        }
        if self.schemes.contains(&SchemeId::Sh00) {
            let (pk, shares) =
                theta_schemes::sh00::keygen(params, self.sh00_modulus_bits, &mut rng)?;
            public_keys.sh00 = Some(pk);
            for (chest, share) in chests.iter_mut().zip(shares) {
                chest.sh00 = Some(share);
            }
        }
        if self.schemes.contains(&SchemeId::Bls04) {
            let (pk, shares) = theta_schemes::bls04::keygen(params, &mut rng);
            public_keys.bls04 = Some(pk);
            for (chest, share) in chests.iter_mut().zip(shares) {
                chest.bls04 = Some(share);
            }
        }
        if self.schemes.contains(&SchemeId::Kg20) {
            let (pk, shares) = theta_schemes::kg20::keygen(params, &mut rng);
            public_keys.kg20 = Some(pk);
            for (chest, share) in chests.iter_mut().zip(shares) {
                for nonce in
                    theta_schemes::kg20::precompute_nonces(&share, self.kg20_nonce_stock, &mut rng)
                {
                    chest.kg20_nonces.push_back(nonce);
                }
                chest.kg20 = Some(share);
            }
        }
        if self.schemes.contains(&SchemeId::Cks05) {
            let (pk, shares) = theta_schemes::cks05::keygen(params, &mut rng);
            public_keys.cks05 = Some(pk);
            for (chest, share) in chests.iter_mut().zip(shares) {
                chest.cks05 = Some(share);
            }
        }

        let (hub, net_nodes) = InMemoryHub::build(
            self.n,
            InMemoryConfig {
                default_link: self.link,
                drop_probability: 0.0,
                seed: self.seed.unwrap_or(0),
            },
        );
        let node_config = |builder: &ThetaNetworkBuilder| NodeConfig {
            instance_timeout: builder.instance_timeout,
            worker_threads: builder.worker_threads,
            submission_queue_capacity: builder
                .submission_queue_capacity
                .unwrap_or(NodeConfig::default().submission_queue_capacity),
            ..NodeConfig::default()
        };
        let mut managers: Vec<Arc<KeyManager>> = Vec::new();
        let nodes: Vec<Arc<NodeHandle>> = match &self.keystore {
            None => chests
                .into_iter()
                .zip(net_nodes)
                .map(|(chest, net)| {
                    Arc::new(spawn_node(
                        chest,
                        Box::new(net) as Box<dyn Network>,
                        node_config(&self),
                    ))
                })
                .collect(),
            Some((dir, passphrase)) => {
                // Keystore mode: every node's KeyProvider is its own
                // KeyManager (dealer chest as the unscoped default), so
                // tenant-scoped requests resolve through the sealed
                // per-node keystore.
                let mut nodes = Vec::with_capacity(n);
                for (i, (chest, net)) in chests.into_iter().zip(net_nodes).enumerate() {
                    let manager = Arc::new(
                        KeyManager::open(
                            dir.join(format!("node-{}", i + 1)),
                            KeystoreKey::derive(passphrase),
                            self.keystore_cache,
                        )
                        .map_err(CoreError::Io)?,
                    );
                    manager.set_default_chest(chest);
                    let obs = Arc::new(NodeObservability::new());
                    manager.attach_observability(&obs);
                    nodes.push(Arc::new(spawn_node_with_keys(
                        Box::new(SharedKeyManager(manager.clone())),
                        Box::new(net) as Box<dyn Network>,
                        node_config(&self),
                        obs,
                    )));
                    managers.push(manager);
                }
                nodes
            }
        };
        let key_admin = (!managers.is_empty()).then(|| {
            Arc::new(
                ClusterKeyAdmin::new(managers.clone(), params)
                    .sh00_modulus_bits(self.sh00_modulus_bits),
            )
        });

        Ok(ThetaNetwork {
            params,
            hub,
            nodes,
            public_keys,
            services: Vec::new(),
            managers,
            key_admin,
            tenant_quota: self.tenant_quota,
        })
    }
}

/// A running in-process Θ-network.
pub struct ThetaNetwork {
    params: ThresholdParams,
    hub: InMemoryHub,
    nodes: Vec<Arc<NodeHandle>>,
    public_keys: PublicKeyChest,
    services: Vec<ServiceHandle>,
    managers: Vec<Arc<KeyManager>>,
    key_admin: Option<Arc<ClusterKeyAdmin>>,
    tenant_quota: usize,
}

impl ThetaNetwork {
    /// Threshold parameters of the deployment.
    pub fn params(&self) -> ThresholdParams {
        self.params
    }

    /// The dealer's public keys.
    pub fn public_keys(&self) -> &PublicKeyChest {
        &self.public_keys
    }

    /// The network hub, for fault injection (latency, partitions, loss).
    pub fn hub(&self) -> &InMemoryHub {
        &self.hub
    }

    /// The orchestration handle of node `id` (1-based).
    ///
    /// # Panics
    ///
    /// Panics when `id` is outside `1..=n`.
    pub fn node(&self, id: u16) -> &Arc<NodeHandle> {
        &self.nodes[id as usize - 1]
    }

    /// Event-loop counters of node `id` (1-based): wakeups, events,
    /// retries, cache evictions and instance lifecycle tallies.
    ///
    /// # Panics
    ///
    /// Panics when `id` is outside `1..=n`.
    pub fn node_counters(&self, id: u16) -> theta_metrics::EventLoopSnapshot {
        self.node(id).counters()
    }

    /// Full observability bundle of node `id` (1-based): metrics registry,
    /// trace journal and per-phase latency histograms.
    ///
    /// # Panics
    ///
    /// Panics when `id` is outside `1..=n`.
    pub fn node_observability(&self, id: u16) -> Arc<theta_metrics::NodeObservability> {
        self.node(id).observability()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Always false (a Θ-network has at least one node).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Submits `request` at node `id` and blocks for the result.
    ///
    /// # Errors
    ///
    /// [`CoreError::Timeout`] after 60 s, or the scheme-level failure.
    pub fn submit_and_wait(&self, id: u16, request: Request) -> Result<ProtocolOutput, CoreError> {
        let pending = self.node(id).submit(request);
        let result = pending
            .wait_timeout(Duration::from_secs(60))
            .map_err(|e| match e {
                theta_orchestration::WaitError::TimedOut => CoreError::Timeout,
                theta_orchestration::WaitError::NodeStopped => CoreError::NodeStopped,
            })?;
        result.outcome.map_err(CoreError::from)
    }

    /// The on-demand key admin (present when the network was built
    /// [`ThetaNetworkBuilder::with_keystore`]).
    pub fn key_admin(&self) -> Option<Arc<ClusterKeyAdmin>> {
        self.key_admin.clone()
    }

    /// Node `id`'s key manager (1-based; keystore mode only).
    ///
    /// # Panics
    ///
    /// Panics when `id` is outside `1..=n`.
    pub fn key_manager(&self, id: u16) -> Option<&Arc<KeyManager>> {
        self.managers.get(id as usize - 1)
    }

    /// The service options every RPC server of this network runs with.
    fn service_options(&self, cluster: theta_service::ClusterConfig) -> ServiceOptions {
        ServiceOptions {
            cluster,
            key_admin: self
                .key_admin
                .clone()
                .map(|a| a as Arc<dyn theta_service::KeyAdmin>),
            tenant_quota: self.tenant_quota,
        }
    }

    /// Starts the RPC service for node `id` on `addr` (port 0 = ephemeral);
    /// returns the bound address.
    ///
    /// # Errors
    ///
    /// I/O errors from binding.
    pub fn serve_rpc(&mut self, id: u16, addr: std::net::SocketAddr) -> Result<std::net::SocketAddr, CoreError> {
        let listener = std::net::TcpListener::bind(addr)?;
        let options = self.service_options(theta_service::ClusterConfig::default());
        let handle = theta_service::serve_on_with_options(
            listener,
            self.node(id).clone(),
            self.public_keys.clone(),
            Duration::from_secs(60),
            options,
        )?;
        let bound = handle.addr();
        self.services.push(handle);
        Ok(bound)
    }

    /// Starts an RPC service for *every* node on an ephemeral port, each
    /// configured with the full roster — so `CollectTrace` on any node
    /// fans out across the whole Θ-network — and the given health SLOs.
    /// Returns the bound addresses in node order (index 0 = node 1).
    ///
    /// # Errors
    ///
    /// I/O errors from binding.
    pub fn serve_rpc_cluster(
        &mut self,
        slo: theta_service::SloThresholds,
    ) -> Result<Vec<std::net::SocketAddr>, CoreError> {
        // Bind every listener first: each server needs the complete
        // roster (ephemeral ports included) before it starts answering.
        let mut listeners = Vec::with_capacity(self.nodes.len());
        let mut peers = Vec::with_capacity(self.nodes.len());
        for i in 0..self.nodes.len() {
            let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
            peers.push(((i + 1) as u16, listener.local_addr()?));
            listeners.push(listener);
        }
        for (i, listener) in listeners.into_iter().enumerate() {
            let cluster = theta_service::ClusterConfig {
                peers: peers.clone(),
                self_id: (i + 1) as u16,
                slo: slo.clone(),
            };
            let options = self.service_options(cluster);
            let handle = theta_service::serve_on_with_options(
                listener,
                self.nodes[i].clone(),
                self.public_keys.clone(),
                Duration::from_secs(60),
                options,
            )?;
            self.services.push(handle);
        }
        Ok(peers.into_iter().map(|(_, addr)| addr).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_rejects_empty_and_bad_params() {
        assert!(matches!(
            ThetaNetworkBuilder::new(1, 4).build(),
            Err(CoreError::Config(_))
        ));
        assert!(matches!(
            ThetaNetworkBuilder::new(4, 4).with_cks05().build(),
            Err(CoreError::Config(_))
        ));
    }

    #[test]
    fn coin_round_trip() {
        let net = ThetaNetworkBuilder::new(1, 4).with_cks05().seed(1).build().unwrap();
        let a = net
            .submit_and_wait(1, Request::Cks05Coin(b"r".to_vec()))
            .unwrap();
        let b = net
            .submit_and_wait(3, Request::Cks05Coin(b"r".to_vec()))
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn sg02_encrypt_decrypt_through_network() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let net = ThetaNetworkBuilder::new(1, 4).with_sg02().seed(2).build().unwrap();
        let pk = net.public_keys().sg02.as_ref().unwrap();
        let ct = theta_schemes::sg02::encrypt(pk, b"l", b"core facade", &mut rng);
        let out = net
            .submit_and_wait(2, Request::Sg02Decrypt(theta_codec::Encode::encoded(&ct)))
            .unwrap();
        assert_eq!(out, ProtocolOutput::Plaintext(b"core facade".to_vec()));
    }

    #[test]
    fn rpc_service_end_to_end() {
        use theta_schemes::registry::SchemeId;
        let mut net = ThetaNetworkBuilder::new(1, 4)
            .with_sg02()
            .with_bls04()
            .seed(3)
            .build()
            .unwrap();
        let addr = net
            .serve_rpc(1, "127.0.0.1:0".parse().unwrap())
            .unwrap();
        let mut client =
            theta_service::RpcClient::connect(addr, Duration::from_secs(5)).unwrap();
        // Scheme API: encrypt server-side, then protocol API: decrypt.
        let ct = client.encrypt(SchemeId::Sg02, b"l", b"via rpc").unwrap();
        let (plain, latency) = client.run_protocol(Request::Sg02Decrypt(ct)).unwrap();
        assert_eq!(plain, b"via rpc");
        assert!(latency > Duration::ZERO);
        // Sign + verify through both APIs.
        let (sig, _) = client.run_protocol(Request::Bls04Sign(b"block".to_vec())).unwrap();
        assert!(client.verify_signature(SchemeId::Bls04, b"block", &sig).unwrap());
        assert!(!client.verify_signature(SchemeId::Bls04, b"other", &sig).unwrap());
        // Public key endpoint returns a decodable key.
        let pk_bytes = client.public_key(SchemeId::Bls04).unwrap();
        assert!(
            <theta_schemes::bls04::PublicKey as theta_codec::Decode>::decoded(&pk_bytes).is_ok()
        );
        // Node-stats endpoint reflects the two protocol runs above and
        // matches the in-process counter view.
        let stats = client.node_stats().unwrap();
        assert_eq!(stats.instances_started, 2);
        assert_eq!(stats.instances_completed, 2);
        assert_eq!(stats.instances_timed_out, 0);
        assert_eq!(stats, net.node_counters(1));
    }
}
