//! Operating-system counters (CPU time, voluntary context switches),
//! metric-text parsing and percentiles.

use std::collections::HashMap;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs
/// (`ru_maxrss` … `ru_nivcsw`); `ru_nvcsw` is the thirteenth.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sysconf(name: i32) -> i64;
}

const RUSAGE_SELF: i32 = 0;
const SC_CLK_TCK: i32 = 2;
const RU_NVCSW: usize = 12;

/// CPU seconds (user + sys) and voluntary context switches of a set of
/// processes at one instant.
#[derive(Clone, Copy, Debug, Default)]
pub struct OsSnapshot {
    pub cpu_s: f64,
    pub vol_cs: u64,
}

impl OsSnapshot {
    pub fn since(&self, earlier: &OsSnapshot) -> OsSnapshot {
        OsSnapshot {
            cpu_s: self.cpu_s - earlier.cpu_s,
            vol_cs: self.vol_cs.saturating_sub(earlier.vol_cs),
        }
    }
}

/// This process, every thread included, from `getrusage`.
pub fn self_snapshot() -> OsSnapshot {
    let mut usage = std::mem::MaybeUninit::<Rusage>::zeroed();
    // SAFETY: `usage` is a writable, correctly sized `struct rusage`.
    let rc = unsafe { getrusage(RUSAGE_SELF, usage.as_mut_ptr()) };
    assert_eq!(rc, 0, "getrusage failed");
    // SAFETY: getrusage returned 0, so it filled the struct.
    let u = unsafe { usage.assume_init() };
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    OsSnapshot {
        cpu_s: secs(&u.utime) + secs(&u.stime),
        vol_cs: u.rest[RU_NVCSW] as u64,
    }
}

/// The given processes, summed over their threads, from `/proc`.
pub fn procs_snapshot(pids: &[u32]) -> OsSnapshot {
    // SAFETY: sysconf has no memory effects.
    let ticks = unsafe { sysconf(SC_CLK_TCK) }.max(1) as f64;
    let mut snap = OsSnapshot::default();
    for pid in pids {
        if let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) {
            // Fields after the parenthesised command name start at
            // `state` (field 3); utime and stime are fields 14 and 15.
            let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
            let fields: Vec<&str> = rest.split_whitespace().collect();
            let field = |i: usize| {
                fields
                    .get(i)
                    .and_then(|v| v.parse::<f64>().ok())
                    .unwrap_or(0.0)
            };
            snap.cpu_s += (field(11) + field(12)) / ticks;
        }
        let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
            continue;
        };
        for task in tasks.flatten() {
            let Ok(status) = std::fs::read_to_string(task.path().join("status")) else {
                continue;
            };
            snap.vol_cs += status
                .lines()
                .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
                .and_then(|v| v.trim().parse::<u64>().ok())
                .unwrap_or(0);
        }
    }
    snap
}

/// Metric series (`name{labels}`) → value, parsed from the text
/// exposition a node serves through `GetMetrics`.
#[derive(Clone, Debug, Default)]
pub struct Metrics(HashMap<String, f64>);

impl Metrics {
    pub fn parse(text: &str) -> Metrics {
        let mut map = HashMap::new();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            if let Some((series, value)) = line.rsplit_once(' ') {
                if let Ok(v) = value.parse::<f64>() {
                    map.insert(series.to_string(), v);
                }
            }
        }
        Metrics(map)
    }

    /// Adds every series of `other` into `self` (cluster-wide totals).
    pub fn add(&mut self, other: &Metrics) {
        for (k, v) in &other.0 {
            *self.0.entry(k.clone()).or_insert(0.0) += v;
        }
    }

    /// Per-series change since `earlier` (counters over a window).
    pub fn since(&self, earlier: &Metrics) -> Metrics {
        Metrics(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v - earlier.series(k)))
                .collect(),
        )
    }

    /// One series, exactly as rendered (0 when absent).
    pub fn series(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    /// Sum over every label set of the metric `name`.
    pub fn family(&self, name: &str) -> f64 {
        self.0
            .iter()
            .filter(|(k, _)| {
                k.strip_prefix(name)
                    .is_some_and(|rest| rest.is_empty() || rest.starts_with('{'))
            })
            .map(|(_, v)| v)
            .fold(0.0, |a, b| a + b)
    }
}

/// Nearest-rank percentile (`q` in 0..=1) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}
