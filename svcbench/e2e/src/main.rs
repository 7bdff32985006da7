//! End-to-end driver of the service benchmark.
//!
//! For one workload it stands up a 4-node 2-of-4 cluster (several times,
//! to time set-up), drives it from this single client process through
//! the public RPC front-end, checks every output, and prints one JSON
//! line `{"correct", "attempted", "failed", "metrics"}` on stdout.
//! With `--trace 1` it adds a second, traced window (metric scrapes
//! during the load) and reports the per-layer counters read through
//! `GetMetrics`, diffed over that window.
//!
//! ```text
//! svcbench-e2e --workload coin_seq --seed 1 --seconds 15 --trace 0 \
//!              --bin-dir <dir with theta_node, theta_keygen> --work-dir <scratch dir>
//! ```
//!
//! `svcbench/run.py` builds and runs it; `svcbench/README.md` explains
//! the workloads and metrics.

mod cluster;
mod load;
mod sys;
mod work;

use cluster::{Cluster, TenantKey, NODES};
use load::{Outcome, Scheduled};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use sys::{percentile, Metrics, OsSnapshot};
use theta_orchestration::{KeyRef, Request};
use theta_schemes::registry::SchemeId;
use theta_service::RpcClient;
use work::{Gen, Target};

/// Idle window before any load in a traced run (context switches/s).
const IDLE_WINDOW: Duration = Duration::from_secs(2);
/// Metric scrape period inside the traced window.
const TRACE_SCRAPE_EVERY: Duration = Duration::from_millis(250);
/// Coins re-read at a second node after the windows.
const COIN_REREADS: usize = 16;
/// `GetPublicKey` round trips behind `service.rpc_floor_us`.
const FLOOR_CALLS: usize = 200;
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(60);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut bin_dir = None;
    let mut work_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("missing value for {flag}"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value != "0",
            "--bin-dir" => bin_dir = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        bin_dir: bin_dir.ok_or("--bin-dir is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
    })
}

/// How a workload loads its cluster.
enum Shape {
    /// In-process cluster, one connection to node 1 keeping `depth`
    /// requests outstanding, uniform over `schemes`.
    Closed {
        schemes: &'static [SchemeId],
        depth: usize,
    },
    /// Process cluster with a gossip overlay and tenant keystores; an
    /// open loop at `rate` req/s alternating over `entries` (0-based
    /// node indices), `conns` connections each, tenants drawn from a
    /// Zipf(`skew`) distribution over `tenants` keys.
    Open {
        rate: f64,
        entries: &'static [usize],
        conns: usize,
        tenants: usize,
        skew: f64,
        mesh_degree: usize,
    },
}

struct Workload {
    shape: Shape,
    /// Set-ups per run; `setup_s` is their median.
    setups: usize,
    warmup: Duration,
}

fn workload(name: &str) -> Result<Workload, String> {
    // In-process set-up takes milliseconds, so it is repeated more often.
    let (shape, setups, warmup) = match name {
        "coin_seq" => (
            Shape::Closed {
                schemes: &[SchemeId::Cks05],
                depth: 1,
            },
            15,
            8,
        ),
        "mixed_burst" => (
            Shape::Closed {
                schemes: &[
                    SchemeId::Sg02,
                    SchemeId::Bls04,
                    SchemeId::Cks05,
                    SchemeId::Kg20,
                ],
                depth: 16,
            },
            15,
            8,
        ),
        "tenant_gossip" => (
            Shape::Open {
                rate: 15.0,
                entries: &[0, 2],
                conns: 4,
                tenants: 12,
                skew: 1.0,
                mesh_degree: 2,
            },
            5,
            8,
        ),
        other => return Err(format!("unknown workload {other}")),
    };
    Ok(Workload {
        shape,
        setups,
        warmup: Duration::from_secs(warmup),
    })
}

/// The tenant keys in popularity-rank order. Schemes alternate by rank
/// (BLS04 at odd ranks, SG02 at even ones), so the scheme mix is the
/// same for every seed; the seed only decides which tenant names are
/// hot.
fn tenant_keys(count: usize, seed: u64) -> Vec<TenantKey> {
    let mut names: Vec<usize> = (0..count).collect();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed ^ 0x21bf);
    for i in (1..count).rev() {
        names.swap(i, rand::Rng::gen_range(&mut rng, 0..=i));
    }
    names
        .into_iter()
        .enumerate()
        .map(|(rank, name)| TenantKey {
            tenant: format!("t{name:02}"),
            name: "k".into(),
            scheme: if rank % 2 == 0 {
                SchemeId::Bls04
            } else {
                SchemeId::Sg02
            },
        })
        .collect()
}

fn start_cluster(w: &Workload, args: &Args, rep: usize) -> Result<Cluster, String> {
    match &w.shape {
        Shape::Closed { schemes, .. } => cluster::in_process(schemes, args.seed),
        Shape::Open {
            tenants,
            mesh_degree,
            ..
        } => cluster::processes(
            &args.bin_dir,
            args.work_dir.join(format!("cluster-{rep}")),
            args.seed,
            *mesh_degree,
            &tenant_keys(*tenants, args.seed),
        ),
    }
}

fn connect(addr: SocketAddr) -> Result<RpcClient, String> {
    let mut client = RpcClient::connect(addr, Duration::from_secs(5))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    client.set_response_timeout(Some(RESPONSE_TIMEOUT));
    Ok(client)
}

/// The load generator bound to a running cluster.
enum Load {
    Closed {
        client: RpcClient,
        depth: usize,
    },
    Open {
        entries: Vec<SocketAddr>,
        conns: usize,
        rate: f64,
    },
}

impl Load {
    fn run(&mut self, gen: &mut Gen, secs: f64) -> Result<Vec<Outcome>, String> {
        match self {
            Load::Closed { client, depth } => Ok(load::closed(
                client,
                gen,
                *depth,
                Instant::now() + Duration::from_secs_f64(secs),
            )),
            Load::Open {
                entries,
                conns,
                rate,
            } => {
                // Generate (and encrypt) everything before the clock starts.
                let jobs: Vec<_> = (0..(*rate * secs).round() as usize)
                    .map(|_| gen.next())
                    .collect();
                let start = Instant::now() + Duration::from_millis(50);
                let schedule = jobs
                    .into_iter()
                    .enumerate()
                    .map(|(i, (request, expect))| Scheduled {
                        due: start + Duration::from_secs_f64(i as f64 / *rate),
                        entry: i % entries.len(),
                        request,
                        expect,
                    })
                    .collect();
                load::open(entries, *conns, schedule)
            }
        }
    }
}

/// One timed window: what the client saw plus the cluster's counter
/// and OS deltas over it.
struct Window {
    outcomes: Vec<Outcome>,
    secs: f64,
    os: OsSnapshot,
    counters: Metrics,
}

impl Window {
    fn ok_latencies(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .filter(|o| o.result.is_ok())
            .map(Outcome::latency_ms)
            .collect()
    }

    fn ok(&self) -> f64 {
        self.outcomes.iter().filter(|o| o.result.is_ok()).count() as f64
    }
}

fn window(
    cluster: &Cluster,
    load: &mut Load,
    gen: &mut Gen,
    secs: f64,
    scrape_every: Option<Duration>,
) -> Result<Window, String> {
    let before = cluster.scrape()?;
    let os_before = cluster.os();
    let stop = Arc::new(AtomicBool::new(false));
    let scraper = scrape_every.map(|every| {
        let addrs = cluster.rpc().to_vec();
        let stop = stop.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(every);
                let _ = cluster::scrape(&addrs);
            }
        })
    });
    let start = Instant::now();
    let outcomes = load.run(gen, secs);
    let end = Instant::now();
    stop.store(true, Ordering::Relaxed);
    if let Some(s) = scraper {
        s.join()
            .map_err(|_| "metrics scraper panicked".to_string())?;
    }
    let outcomes = outcomes?;
    let os = cluster.os().since(&os_before);
    let counters = cluster.scrape()?.since(&before);
    let last = outcomes.iter().map(|o| o.done).max().unwrap_or(end);
    Ok(Window {
        outcomes,
        secs: last.duration_since(start).as_secs_f64(),
        os,
        counters,
    })
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let w = workload(&args.workload)?;

    // Set-up, repeated: each from nothing until every node answers an
    // RPC (keygen, mesh links and handshakes, RPC listen). The first
    // protocol request is timed on its own: on a cold cluster it often
    // waits out the first P2P retry, which would make set-up bimodal.
    let mut setups = Vec::new();
    let mut first_requests = Vec::new();
    let mut cluster: Option<Cluster> = None;
    for rep in 0..w.setups {
        drop(cluster.take());
        let start = Instant::now();
        let c = start_cluster(&w, args, rep)?;
        for addr in c.rpc() {
            connect(*addr)?
                .public_key(SchemeId::Cks05)
                .map_err(|e| format!("node {addr}: {e}"))?;
        }
        setups.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        let name = format!("svcbench/setup/{}/{rep}", args.seed).into_bytes();
        let (coin, _) = connect(c.rpc()[0])?
            .run_protocol(Request::Cks05Coin(name))
            .map_err(|e| format!("first request: {e}"))?;
        if coin.len() != 32 {
            return Err("first request returned a malformed coin".into());
        }
        first_requests.push(start.elapsed().as_secs_f64() * 1e3);
        cluster = Some(c);
    }
    let cluster = cluster.expect("at least one set-up");
    eprintln!("setup: {setups:?} s; first request: {first_requests:?} ms");

    let mut admin = connect(cluster.rpc()[0])?;
    let (targets, weights, mut load) = match &w.shape {
        Shape::Closed { schemes, depth } => {
            let targets = schemes
                .iter()
                .map(|s| Target::resolve(&mut admin, *s, None))
                .collect::<Result<Vec<_>, _>>()?;
            let load = Load::Closed {
                client: connect(cluster.rpc()[0])?,
                depth: *depth,
            };
            (targets, vec![1.0; schemes.len()], load)
        }
        Shape::Open {
            rate,
            entries,
            conns,
            tenants,
            skew,
            ..
        } => {
            let targets = tenant_keys(*tenants, args.seed)
                .into_iter()
                .map(|t| Target::resolve(&mut admin, t.scheme, Some(KeyRef::new(t.tenant, t.name))))
                .collect::<Result<Vec<_>, _>>()?;
            let entries = entries.iter().map(|e| cluster.rpc()[*e]).collect();
            (
                targets,
                work::zipf_weights(*tenants, *skew),
                Load::Open {
                    entries,
                    conns: *conns,
                    rate: *rate,
                },
            )
        }
    };
    let mut gen = Gen::new(args.seed, targets, &weights);

    let idle_cs_per_s = if args.trace {
        let before = cluster.os();
        std::thread::sleep(IDLE_WINDOW);
        cluster.os().since(&before).vol_cs as f64 / IDLE_WINDOW.as_secs_f64()
    } else {
        0.0
    };

    let warm = load.run(&mut gen, w.warmup.as_secs_f64())?;
    // A traced run splits its measuring time between an untraced and a
    // traced window, so it takes no longer than an untraced run.
    let secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let plain = window(&cluster, &mut load, &mut gen, secs, None)?;
    let traced = if args.trace {
        Some(window(
            &cluster,
            &mut load,
            &mut gen,
            secs,
            Some(TRACE_SCRAPE_EVERY),
        )?)
    } else {
        None
    };
    let windows: Vec<&Window> = std::iter::once(&plain).chain(traced.as_ref()).collect();

    // Output checks. No request of a timed window may be served from
    // the result cache: every body is distinct, so a hit means the
    // benchmark measured the cache rather than the protocol.
    let mut correct = true;
    for win in &windows {
        let hits = win.counters.family("theta_cache_hits_total");
        if hits != 0.0 {
            eprintln!("error: {hits} result-cache hit(s) during a timed window");
            correct = false;
        }
    }
    // Every reply after set-up is checked, spread over the cores
    // (signature verification is the slow part).
    let all: Vec<&Outcome> = warm
        .iter()
        .chain(windows.iter().flat_map(|w| w.outcomes.iter()))
        .collect();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut wrong: usize = std::thread::scope(|s| {
        let checks: Vec<_> = all
            .chunks(all.len().div_ceil(threads).max(1))
            .map(|part| {
                let gen = &gen;
                s.spawn(move || {
                    part.iter()
                        .filter(|o| matches!(&o.result, Ok(out) if !gen.check(&o.expect, out)))
                        .count()
                })
            })
            .collect();
        checks
            .into_iter()
            .map(|c| c.join().expect("output check panicked"))
            .sum()
    });
    // Re-read a sample of coins at a second node: both must agree.
    let mut second = connect(cluster.rpc()[1])?;
    let coins: Vec<&Outcome> = plain
        .outcomes
        .iter()
        .filter(|o| o.result.is_ok() && gen.is_coin(&o.expect))
        .collect();
    let step = (coins.len() / COIN_REREADS).max(1);
    for o in coins.iter().step_by(step).take(COIN_REREADS) {
        let reread = second
            .run_protocol(Request::Cks05Coin(o.expect.body.clone()))
            .map(|(c, _)| c)
            .map_err(|e| e.to_string());
        if reread.as_ref().ok() != o.result.as_ref().ok() {
            wrong += 1;
        }
    }
    if wrong > 0 {
        eprintln!("error: {wrong} wrong output(s)");
        correct = false;
    }
    let errors = all.iter().filter(|o| o.result.is_err()).count();
    if let Some(e) = all.iter().find_map(|o| o.result.as_ref().err()) {
        eprintln!("first failed request: {e}");
    }

    let lat = plain.ok_latencies();
    if lat.is_empty() {
        return Err("no request completed in the timed window".into());
    }
    let p50 = percentile(&lat, 0.50);
    let mut metrics = vec![
        ("setup_s", median(&setups), "s"),
        ("latency_p50_ms", p50, "ms"),
        ("latency_p90_ms", percentile(&lat, 0.90), "ms"),
        ("client.latency_p99_ms", percentile(&lat, 0.99), "ms"),
        ("throughput_rps", plain.ok() / plain.secs, "1/s"),
        ("cpu_ms_per_req", plain.os.cpu_s * 1e3 / plain.ok(), "ms"),
    ];
    eprintln!(
        "window: {} requests ({} ok) in {:.2} s; p50 {:.3} ms, p99 {:.3} ms over {} samples",
        plain.outcomes.len(),
        plain.ok(),
        plain.secs,
        p50,
        percentile(&lat, 0.99),
        lat.len()
    );

    if let Some(t) = &traced {
        let c = &t.counters;
        let done = t.ok().max(1.0);
        let flushes = c.family("theta_batch_flushes_total");
        let batches = c.family("theta_batch_size_count");
        let max_late_ms = windows
            .iter()
            .flat_map(|w| w.outcomes.iter())
            .map(|o| o.sent.duration_since(o.start).as_secs_f64() * 1e3)
            .fold(0.0, f64::max);
        let mut floor = Vec::with_capacity(FLOOR_CALLS);
        for _ in 0..FLOOR_CALLS {
            let start = Instant::now();
            admin
                .public_key(SchemeId::Cks05)
                .map_err(|e| format!("public key: {e}"))?;
            floor.push(start.elapsed().as_secs_f64() * 1e6);
        }
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        metrics.extend([
            ("service.rpc_floor_us", percentile(&floor, 0.5), "us"),
            ("service.first_request_ms", median(&first_requests), "ms"),
            (
                "orchestration.wakeups_per_req",
                c.family("theta_event_loop_wakeups_total") / done,
                "count",
            ),
            (
                "orchestration.retries_per_req",
                c.family("theta_event_loop_retries_total") / done,
                "count",
            ),
            (
                "orchestration.batch_size_mean",
                ratio(c.family("theta_batch_size_sum") * 1e6, batches),
                "count",
            ),
            (
                "orchestration.batch_age_flush_frac",
                ratio(
                    c.series("theta_batch_flushes_total{reason=\"age\"}"),
                    flushes,
                ),
                "fraction",
            ),
            (
                "orchestration.router_busy_ms_per_req",
                c.family("theta_router_busy_nanos_total") / 1e6 / done,
                "ms",
            ),
            (
                "orchestration.worker_busy_ms_per_req",
                c.family("theta_worker_busy_nanos_total") / 1e6 / done,
                "ms",
            ),
            (
                "orchestration.mailbox_drops",
                c.family("theta_mailbox_dropped_total"),
                "count",
            ),
            (
                "orchestration.overload_rejections",
                c.family("theta_overload_rejections_total"),
                "count",
            ),
            ("orchestration.idle_cs_per_s", idle_cs_per_s, "1/s"),
            (
                "network.msgs_per_req",
                c.family("theta_net_messages_sent_total") / done,
                "count",
            ),
            (
                "network.bytes_per_req",
                c.family("theta_net_bytes_sent_total") / done,
                "B",
            ),
            (
                "network.relays_per_req",
                c.family("theta_gossip_relayed_total") / done,
                "count",
            ),
            (
                "network.dups_per_req",
                c.family("theta_gossip_duplicates_total") / done,
                "count",
            ),
            (
                "keymanager.miss_frac",
                c.family("theta_keys_loaded_total") / (done * NODES as f64),
                "fraction",
            ),
            ("loadgen.max_late_ms", max_late_ms, "ms"),
            (
                "trace_overhead_pct",
                (percentile(&t.ok_latencies(), 0.5) / p50 - 1.0) * 100.0,
                "%",
            ),
        ]);
    }
    if let Some((name, ..)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("metric {name} is not a finite number"));
    }
    Ok(Report {
        correct,
        attempted: all.len(),
        failed: errors + wrong,
        metrics,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("svcbench-e2e: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            println!("{}", report.json());
            std::process::exit(if report.correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("svcbench-e2e: {e}");
            std::process::exit(2);
        }
    }
}
