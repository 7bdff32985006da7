//! `theta-node` — a standalone Thetacrypt node over real TCP: loads its
//! key file, joins the mesh, and serves the RPC endpoints (the
//! paper's standalone deployment mode).
//!
//! ```text
//! theta-node --id 1 --keys keys/node-1.keys --public keys/public.keys \
//!            --peers 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003,127.0.0.1:7004 \
//!            --rpc 127.0.0.1:8001
//! ```
//!
//! Peer `i` in the list is node `i+1`'s mesh address; the node binds its
//! own entry. Node 1 doubles as the TOB sequencer.
//!
//! Every mesh link is authenticated and encrypted: the node's key file
//! carries its static transport identity, the public key file carries
//! the roster, and connection setup runs the Noise-IK handshake before
//! any protocol byte flows. By default (`--mesh-degree 0`) the nodes
//! form a full mesh of `n-1` links per node. `--mesh-degree D` (with
//! `D > 0`) instead joins a gossip/flood overlay with ≈D links per node
//! — the mode for fleets too large to fully connect — unless D already
//! links every pair, which is the full mesh again.
//!
//! `--rpc-peers a1,a2,...` (the RPC address of every node, in roster
//! order) enables the cluster plane: with it, `CollectTrace` fans out
//! across the roster and `theta-client trace --cluster` returns the
//! merged, clock-aligned timeline instead of just this node's slice.
//!
//! `--keystore DIR` attaches the multi-tenant key manager: tenant key
//! shares sealed under `DIR` (dealt by `theta-keygen --tenant`) serve
//! tenant-scoped protocol requests and the `list-keys`/tenant-key RPCs.
//! The storage passphrase comes from `$THETA_KEYSTORE_PASS` (or
//! `--keystore-pass`, which leaks it to the process list — prefer the
//! environment). `--tenant-quota N` caps each tenant's concurrent
//! in-flight scoped requests.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;
use theta_core::keyfile::{self, decode_public_with_roster};
use theta_core::keymanager::{KeyManager, KeystoreKey, LocalKeyAdmin, SharedKeyManager};
use theta_network::gossip::GossipMesh;
use theta_network::handshake::{MeshAuth, Roster, StaticIdentity};
use theta_network::Network;
use theta_orchestration::{spawn_node_observed, spawn_node_with_keys, NodeConfig};
use theta_service::{
    serve_on_with_options, ClusterConfig, ServiceOptions, SloThresholds,
};

struct Args {
    id: u16,
    keys: std::path::PathBuf,
    public: std::path::PathBuf,
    peers: Vec<SocketAddr>,
    rpc: SocketAddr,
    rpc_peers: Vec<SocketAddr>,
    workers: usize,
    mesh_degree: usize,
    keystore: Option<std::path::PathBuf>,
    keystore_pass: Option<String>,
    tenant_quota: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut id = None;
    let mut keys = None;
    let mut public = None;
    let mut peers = None;
    let mut rpc = None;
    let mut rpc_peers = Vec::new();
    let mut workers = 0;
    let mut mesh_degree = 0;
    let mut keystore = None;
    let mut keystore_pass = None;
    let mut tenant_quota = 0;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("missing value for {flag}"));
        match flag.as_str() {
            "--id" => id = Some(value()?.parse().map_err(|e| format!("--id: {e}"))?),
            "--keys" => keys = Some(std::path::PathBuf::from(value()?)),
            "--public" => public = Some(std::path::PathBuf::from(value()?)),
            "--rpc" => rpc = Some(value()?.parse().map_err(|e| format!("--rpc: {e}"))?),
            "--workers" => {
                workers = value()?.parse().map_err(|e| format!("--workers: {e}"))?;
            }
            "--mesh-degree" => {
                mesh_degree =
                    value()?.parse().map_err(|e| format!("--mesh-degree: {e}"))?;
            }
            "--keystore" => keystore = Some(std::path::PathBuf::from(value()?)),
            "--keystore-pass" => keystore_pass = Some(value()?),
            "--tenant-quota" => {
                tenant_quota =
                    value()?.parse().map_err(|e| format!("--tenant-quota: {e}"))?;
            }
            "--peers" => {
                peers = Some(
                    value()?
                        .split(',')
                        .map(|a| a.trim().parse().map_err(|e| format!("--peers: {e}")))
                        .collect::<Result<Vec<SocketAddr>, String>>()?,
                );
            }
            "--rpc-peers" => {
                rpc_peers = value()?
                    .split(',')
                    .map(|a| a.trim().parse().map_err(|e| format!("--rpc-peers: {e}")))
                    .collect::<Result<Vec<SocketAddr>, String>>()?;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        id: id.ok_or("--id is required")?,
        keys: keys.ok_or("--keys is required")?,
        public: public.ok_or("--public is required")?,
        peers: peers.ok_or("--peers is required")?,
        rpc: rpc.ok_or("--rpc is required")?,
        rpc_peers,
        workers,
        mesh_degree,
        keystore,
        keystore_pass,
        tenant_quota,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: theta-node --id I --keys FILE --public FILE \
                 --peers a1,a2,... --rpc ADDR [--rpc-peers a1,a2,...] \
                 [--workers N] [--mesh-degree D] [--keystore DIR] \
                 [--keystore-pass P] [--tenant-quota N]"
            );
            std::process::exit(2);
        }
    };

    let mut key_bytes = std::fs::read(&args.keys).expect("read node key file");
    // decode_node_key volatile-wipes key_bytes: the on-disk encoding is
    // the secret shares themselves and must not linger in this buffer.
    let mut key_file =
        keyfile::decode_node_key(&mut key_bytes).expect("parse node key file");
    assert_eq!(
        key_file.node_id, args.id,
        "key file belongs to node {}, not {}",
        key_file.node_id, args.id
    );
    let public_bytes = std::fs::read(&args.public).expect("read public key file");
    let (public, roster_bytes) =
        decode_public_with_roster(&public_bytes).expect("parse public key file");

    let seed = key_file.identity_seed.take().unwrap_or_else(|| {
        panic!(
            "key file {} has no transport identity — re-deal with theta-keygen",
            args.keys.display()
        )
    });
    assert!(
        !roster_bytes.is_empty(),
        "public key file {} has no mesh roster — re-deal with theta-keygen",
        args.public.display()
    );
    assert_eq!(
        roster_bytes.len(),
        args.peers.len(),
        "roster covers {} nodes but --peers lists {}",
        roster_bytes.len(),
        args.peers.len()
    );
    let auth = MeshAuth {
        identity: StaticIdentity::from_seed(&seed),
        roster: Roster::from_bytes(&roster_bytes).expect("validate mesh roster"),
    };
    drop(seed); // wiped on drop; the derived identity lives on in auth

    println!(
        "node {} joining a {}-node mesh (TOB sequencer: node 1, mesh degree {})...",
        args.id,
        args.peers.len(),
        args.mesh_degree
    );
    let mesh = GossipMesh::connect(args.id, &args.peers, auth, args.mesh_degree)
        .expect("mesh setup");
    println!(
        "mesh connected (all links authenticated + encrypted): {} links, {}",
        mesh.degree(),
        if mesh.is_complete() { "full mesh" } else { "gossip flood" }
    );
    let mesh: Box<dyn Network> = Box::new(mesh);

    let config = NodeConfig { worker_threads: args.workers, ..NodeConfig::default() };
    let obs = Arc::new(theta_metrics::NodeObservability::new());
    let (handle, key_admin) = match &args.keystore {
        None => (
            Arc::new(spawn_node_observed(key_file.into_chest(), mesh, config, obs)),
            None,
        ),
        Some(dir) => {
            let passphrase = args
                .keystore_pass
                .clone()
                .or_else(|| std::env::var("THETA_KEYSTORE_PASS").ok())
                .expect(
                    "--keystore needs a passphrase: set $THETA_KEYSTORE_PASS \
                     or pass --keystore-pass",
                );
            let manager = Arc::new(
                KeyManager::open(dir, KeystoreKey::derive(passphrase.as_bytes()), 8)
                    .expect("open keystore"),
            );
            manager.set_default_chest(key_file.into_chest());
            manager.attach_observability(&obs);
            println!("keystore attached at {}", dir.display());
            (
                Arc::new(spawn_node_with_keys(
                    Box::new(SharedKeyManager(manager.clone())),
                    mesh,
                    config,
                    obs,
                )),
                Some(Arc::new(LocalKeyAdmin(manager)) as Arc<dyn theta_service::KeyAdmin>),
            )
        }
    };
    if !args.rpc_peers.is_empty() {
        assert_eq!(
            args.rpc_peers.len(),
            args.peers.len(),
            "--rpc-peers lists {} nodes but the mesh has {}",
            args.rpc_peers.len(),
            args.peers.len()
        );
    }
    let cluster = ClusterConfig {
        peers: args
            .rpc_peers
            .iter()
            .enumerate()
            .map(|(i, addr)| (i as u16 + 1, *addr))
            .collect(),
        self_id: args.id,
        slo: SloThresholds::default(),
    };
    let listener = std::net::TcpListener::bind(args.rpc).expect("bind rpc endpoint");
    let service = serve_on_with_options(
        listener,
        handle,
        public,
        Duration::from_secs(60),
        ServiceOptions { cluster, key_admin, tenant_quota: args.tenant_quota },
    )
    .expect("start rpc service");
    println!("serving Thetacrypt RPC on {}", service.addr());
    println!("ready — press ctrl-c to stop");

    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
