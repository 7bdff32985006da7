//! The two cluster shapes: an in-process Θ-network on the zero-latency
//! in-memory mesh, and four `theta_node` processes on loopback TCP.

use crate::sys::{self, Metrics, OsSnapshot};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use theta_core::{ThetaNetwork, ThetaNetworkBuilder};
use theta_schemes::registry::SchemeId;
use theta_service::RpcClient;

pub const NODES: u16 = 4;
pub const THRESHOLD: u16 = 1;
const KEYSTORE_PASS: &str = "svcbench keystore passphrase";

pub enum Cluster {
    InProcess {
        /// Held only to keep the nodes and their RPC services running.
        _net: Box<ThetaNetwork>,
        rpc: Vec<SocketAddr>,
    },
    Processes {
        nodes: Nodes,
        rpc: Vec<SocketAddr>,
    },
}

/// Node processes and their working directory; the processes are
/// killed and reaped, and the directory removed, on drop.
pub struct Nodes {
    children: Vec<Child>,
    dir: PathBuf,
}

impl Drop for Nodes {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
        }
        for child in &mut self.children {
            let _ = child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Cluster {
    /// RPC endpoints in node order (index 0 = node 1).
    pub fn rpc(&self) -> &[SocketAddr] {
        match self {
            Cluster::InProcess { rpc, .. } | Cluster::Processes { rpc, .. } => rpc,
        }
    }

    /// CPU time and voluntary context switches of the cluster: the
    /// whole process for an in-process cluster (the client's small share
    /// included), the node processes otherwise.
    pub fn os(&self) -> OsSnapshot {
        match self {
            Cluster::InProcess { .. } => sys::self_snapshot(),
            Cluster::Processes { nodes, .. } => {
                let pids: Vec<u32> = nodes.children.iter().map(Child::id).collect();
                sys::procs_snapshot(&pids)
            }
        }
    }

    /// Cluster-wide totals of every node's `GetMetrics` exposition.
    pub fn scrape(&self) -> Result<Metrics, String> {
        scrape(self.rpc())
    }
}

/// Sums the `GetMetrics` expositions of the nodes at `addrs`.
pub fn scrape(addrs: &[SocketAddr]) -> Result<Metrics, String> {
    let mut total = Metrics::default();
    for addr in addrs {
        let mut client = RpcClient::connect(*addr, Duration::from_secs(5))
            .map_err(|e| format!("metrics connect {addr}: {e}"))?;
        let text = client
            .metrics()
            .map_err(|e| format!("metrics {addr}: {e}"))?;
        total.add(&Metrics::parse(&text));
    }
    Ok(total)
}

/// An in-process 2-of-4 network provisioned with `schemes`, with an
/// RPC endpoint on every node.
pub fn in_process(schemes: &[SchemeId], seed: u64) -> Result<Cluster, String> {
    let mut builder = ThetaNetworkBuilder::new(THRESHOLD, NODES).seed(seed);
    for scheme in schemes {
        builder = match scheme {
            SchemeId::Sg02 => builder.with_sg02(),
            SchemeId::Bls04 => builder.with_bls04(),
            SchemeId::Kg20 => builder.with_kg20(0),
            SchemeId::Cks05 => builder.with_cks05(),
            other => return Err(format!("scheme {other} is not driven by this benchmark")),
        };
    }
    let mut net = builder.build().map_err(|e| format!("build network: {e}"))?;
    let mut rpc = Vec::new();
    for id in 1..=NODES {
        let addr = net
            .serve_rpc(id, "127.0.0.1:0".parse().expect("literal address"))
            .map_err(|e| format!("serve rpc on node {id}: {e}"))?;
        rpc.push(addr);
    }
    Ok(Cluster::InProcess {
        _net: Box::new(net),
        rpc,
    })
}

/// One tenant key to deal before the nodes start.
pub struct TenantKey {
    pub tenant: String,
    pub name: String,
    pub scheme: SchemeId,
}

/// Four `theta_node` processes on loopback TCP with AEAD links, a
/// gossip overlay of degree `mesh_degree`, and a sealed keystore per
/// node holding `tenants`, all dealt by `theta_keygen`.
pub fn processes(
    bin_dir: &Path,
    dir: PathBuf,
    seed: u64,
    mesh_degree: usize,
    tenants: &[TenantKey],
) -> Result<Cluster, String> {
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let keygen = bin_dir.join("theta_keygen");
    let common = ["--t", "1", "--n", "4", "--out"];
    let mut deal = Command::new(&keygen);
    deal.args(common)
        .arg(&dir)
        .args(["--seed", &seed.to_string()]);
    wait_ok(spawn_quiet(&mut deal)?, "theta_keygen")?;
    // Tenant keys land in disjoint record files, so they are dealt
    // concurrently.
    let mut dealers = Vec::new();
    for (i, t) in tenants.iter().enumerate() {
        let mut cmd = Command::new(&keygen);
        cmd.args(common)
            .arg(&dir)
            .args([
                "--tenant",
                &t.tenant,
                "--key",
                &t.name,
                "--schemes",
                t.scheme.name(),
            ])
            .args(["--seed", &(seed + 1 + i as u64).to_string()])
            .env("THETA_KEYSTORE_PASS", KEYSTORE_PASS);
        dealers.push(spawn_quiet(&mut cmd)?);
    }
    for dealer in dealers {
        wait_ok(dealer, "theta_keygen --tenant")?;
    }

    let ports = free_ports(2 * NODES as usize)?;
    let (mesh, rpc) = ports.split_at(NODES as usize);
    let peers: Vec<String> = mesh.iter().map(|a| a.to_string()).collect();
    let mut nodes = Nodes {
        children: Vec::new(),
        dir: dir.clone(),
    };
    for id in 1..=NODES {
        let log = std::fs::File::create(dir.join(format!("node-{id}.log")))
            .map_err(|e| format!("node log: {e}"))?;
        let child = Command::new(bin_dir.join("theta_node"))
            .args(["--id", &id.to_string()])
            .arg("--keys")
            .arg(dir.join(format!("node-{id}.keys")))
            .arg("--public")
            .arg(dir.join("public.keys"))
            .args(["--peers", &peers.join(",")])
            .args(["--rpc", &rpc[id as usize - 1].to_string()])
            .args(["--mesh-degree", &mesh_degree.to_string()])
            .arg("--keystore")
            .arg(dir.join("keystore").join(format!("node-{id}")))
            .env("THETA_KEYSTORE_PASS", KEYSTORE_PASS)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawn theta_node: {e}"))?;
        nodes.children.push(child);
    }
    // A node serves RPC only after its mesh links are up.
    let deadline = Instant::now() + Duration::from_secs(60);
    for addr in rpc {
        loop {
            for child in &mut nodes.children {
                if let Ok(Some(status)) = child.try_wait() {
                    return Err(format!("theta_node exited during start-up: {status}"));
                }
            }
            if RpcClient::connect(*addr, Duration::from_secs(1)).is_ok() {
                break;
            }
            if Instant::now() > deadline {
                return Err(format!("node at {addr} did not come up"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    Ok(Cluster::Processes {
        nodes,
        rpc: rpc.to_vec(),
    })
}

fn spawn_quiet(cmd: &mut Command) -> Result<Child, String> {
    cmd.stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {:?}: {e}", cmd.get_program()))
}

fn wait_ok(child: Child, what: &str) -> Result<(), String> {
    let out = child
        .wait_with_output()
        .map_err(|e| format!("{what}: {e}"))?;
    if out.status.success() {
        Ok(())
    } else {
        Err(format!(
            "{what} failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ))
    }
}

/// Loopback addresses whose ports were free a moment ago.
fn free_ports(count: usize) -> Result<Vec<SocketAddr>, String> {
    let listeners: Vec<TcpListener> = (0..count)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("reserve port: {e}"))?;
    listeners
        .iter()
        .map(|l| l.local_addr().map_err(|e| e.to_string()))
        .collect()
}
