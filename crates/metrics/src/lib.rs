//! # theta-metrics
//!
//! The evaluation metrics of the paper's §4.3, reproduced exactly:
//!
//! - percentile latencies `L_k` (nearest-rank),
//! - the **threshold latency** `L_θ` with `θ = (t+1)/n · 100` — how fast
//!   the fastest quorum finishes,
//! - the **residual delay factor** `δ_res = (L95 − L_θ)/L_θ` — how much
//!   slow nodes keep loading the network after the result is ready,
//! - the **latency fairness index** `η_θ = L_θ/L95 ∈ (0, 1]` — how evenly
//!   nodes contribute,
//! - throughput with the paper's 10 % grace-period rule, and
//! - knee-capacity detection (rate maximizing throughput/latency).

pub mod histogram;
pub mod observability;
pub mod profiler;
pub mod registry;
pub mod trace;

pub use histogram::{Histogram, HistogramSnapshot, NUM_BUCKETS};
pub use observability::{NodeObservability, PhaseTimers, PoolMetrics};
pub use profiler::{PhaseScope, WorkerPhase, WorkerPhases, WORKER_PHASE_HISTOGRAM};
pub use registry::{Counter, Gauge, MetricsRegistry};
pub use trace::{TraceEvent, TraceEventKind, TraceJournal, DEFAULT_JOURNAL_CAPACITY};

/// Latency values in seconds.
pub type Seconds = f64;

/// Nearest-rank percentile of an unsorted sample set.
///
/// # Panics
///
/// Panics when `samples` is empty or `pct` is outside `[0, 100]`.
pub fn percentile(samples: &[Seconds], pct: f64) -> Seconds {
    assert!(!samples.is_empty(), "percentile of empty sample set");
    assert!((0.0..=100.0).contains(&pct), "percentile out of range");
    let mut sorted: Vec<Seconds> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    if pct == 0.0 {
        return sorted[0];
    }
    // Nearest-rank: ⌈p/100 · N⌉-th smallest (1-based).
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The θ parameter of the paper: `(t+1)/n · 100`.
pub fn theta_percentile(t: u16, n: u16) -> f64 {
    (t as f64 + 1.0) / n as f64 * 100.0
}

/// Summary of a latency distribution pooled across nodes (the paper's
/// `L^net` metrics plus the derived indices).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencySummary {
    /// Median `L50`.
    pub l50: Seconds,
    /// Tail `L95`.
    pub l95: Seconds,
    /// Threshold latency `L_θ`.
    pub l_theta: Seconds,
    /// Residual delay factor `δ_res`.
    pub delta_res: f64,
    /// Fairness index `η_θ`.
    pub eta_theta: f64,
}

/// Computes the paper's latency metrics from pooled per-node latencies.
///
/// `samples` holds one latency per (request, node) completion; `t`/`n`
/// define θ. The derived indices assume the paper's BFT sizing, where
/// θ ≈ 34 < 95; for degenerate parameters with θ > 95 the quorum
/// percentile exceeds the tail and `δ_res` goes negative.
///
/// # Panics
///
/// Panics when `samples` is empty.
pub fn latency_summary(samples: &[Seconds], t: u16, n: u16) -> LatencySummary {
    let theta = theta_percentile(t, n);
    let l50 = percentile(samples, 50.0);
    let l95 = percentile(samples, 95.0);
    let l_theta = percentile(samples, theta);
    let delta_res = if l_theta > 0.0 { (l95 - l_theta) / l_theta } else { 0.0 };
    let eta_theta = if l95 > 0.0 { l_theta / l95 } else { 1.0 };
    LatencySummary { l50, l95, l_theta, delta_res, eta_theta }
}

/// Throughput estimation per §4.3: completed requests over the span from
/// first to last completion, except that when processing drags more than
/// 10 % past the nominal experiment duration (or requests were left
/// unprocessed), the full experiment duration is used instead.
///
/// - `completions`: completion timestamps (seconds from experiment start)
///   of successfully processed requests;
/// - `first_start`: start timestamp of the first request (seconds);
/// - `experiment_duration`: the nominal duration (seconds);
/// - `all_processed`: whether every injected request completed.
pub fn throughput(
    completions: &[Seconds],
    first_start: Seconds,
    experiment_duration: Seconds,
    all_processed: bool,
) -> f64 {
    if completions.is_empty() {
        return 0.0;
    }
    let last = completions.iter().cloned().fold(f64::MIN, f64::max);
    let grace_limit = experiment_duration * 1.10;
    // The grace check is on the measured span (last completion relative
    // to the first start), not the raw completion timestamp: a run whose
    // first request starts late must not be misclassified as dragging.
    let span = if !all_processed || last - first_start > grace_limit {
        experiment_duration
    } else {
        (last - first_start).max(f64::EPSILON)
    };
    completions.len() as f64 / span
}

/// One point of a capacity-test series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CapacityPoint {
    /// Offered load (requests/s).
    pub offered_rate: f64,
    /// Measured throughput (requests/s).
    pub throughput: f64,
    /// `L95` latency at this load (seconds).
    pub l95: Seconds,
}

/// Finds the knee capacity: the offered rate maximizing the ratio of
/// throughput to latency (§4.4). Returns `None` for an empty series.
pub fn knee_capacity(series: &[CapacityPoint]) -> Option<CapacityPoint> {
    series
        .iter()
        .copied()
        .filter(|p| p.l95 > 0.0)
        .max_by(|a, b| {
            let ra = a.throughput / a.l95;
            let rb = b.throughput / b.l95;
            ra.partial_cmp(&rb).expect("finite ratios")
        })
}

/// Usable capacity: the highest offered rate whose throughput kept up
/// with (≥ 90 % of) the offered load. Returns `None` when no point did.
pub fn usable_capacity(series: &[CapacityPoint]) -> Option<CapacityPoint> {
    series
        .iter()
        .copied()
        .filter(|p| p.throughput >= 0.9 * p.offered_rate)
        .max_by(|a, b| a.offered_rate.partial_cmp(&b.offered_rate).expect("finite"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 95.0), 10.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 10.0), 1.0);
        assert_eq!(percentile(&s, 34.0), 4.0);
    }

    #[test]
    fn percentile_unsorted_input() {
        let s = [5.0, 1.0, 3.0];
        assert_eq!(percentile(&s, 50.0), 3.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        let _ = percentile(&[], 50.0);
    }

    #[test]
    fn theta_for_bft_sizes() {
        // Paper: θ ≈ 34 for n = 3t+1 deployments.
        assert!((theta_percentile(2, 7) - 42.857).abs() < 0.01);
        assert!((theta_percentile(10, 31) - 35.48).abs() < 0.01);
        assert!((theta_percentile(42, 127) - 33.86).abs() < 0.01);
    }

    #[test]
    fn summary_relationships() {
        // A skewed distribution: fast quorum, slow stragglers.
        let mut samples = vec![0.1; 40]; // fast third
        samples.extend(vec![0.3; 40]);
        samples.extend(vec![0.9; 20]); // slow tail
        let s = latency_summary(&samples, 10, 31);
        assert!(s.l_theta <= s.l50);
        assert!(s.l50 <= s.l95);
        assert!(s.delta_res > 0.0);
        assert!(s.eta_theta > 0.0 && s.eta_theta <= 1.0);
        // δ_res and η_θ are inversely related: (l95−lθ)/lθ and lθ/l95.
        let expect_eta = s.l_theta / s.l95;
        assert!((s.eta_theta - expect_eta).abs() < 1e-12);
        let expect_delta = (s.l95 - s.l_theta) / s.l_theta;
        assert!((s.delta_res - expect_delta).abs() < 1e-12);
    }

    #[test]
    fn summary_uniform_distribution_is_fair() {
        let samples = vec![0.2; 100];
        let s = latency_summary(&samples, 2, 7);
        assert_eq!(s.delta_res, 0.0);
        assert_eq!(s.eta_theta, 1.0);
    }

    #[test]
    fn throughput_normal_case() {
        // 60 completions over [0, 60]s, all processed in time.
        let completions: Vec<f64> = (1..=60).map(|i| i as f64).collect();
        let tput = throughput(&completions, 0.0, 60.0, true);
        assert!((tput - 1.0).abs() < 0.05);
    }

    #[test]
    fn throughput_grace_period() {
        // Slightly past the end (< 10%): still measured on actual span.
        let completions: Vec<f64> = (1..=65).map(|i| i as f64).collect();
        let tput = throughput(&completions, 0.0, 60.0, true);
        assert!((tput - 1.0).abs() < 0.05);
        // Far past the end: clamped to experiment duration.
        let completions = vec![10.0, 90.0];
        let tput = throughput(&completions, 0.0, 60.0, true);
        assert!((tput - 2.0 / 60.0).abs() < 1e-9);
    }

    #[test]
    fn throughput_grace_is_relative_to_first_start() {
        // The first request starts at t=10 and the last completion lands
        // at t=68: the measured span is 58 s — inside the 66 s grace
        // limit — so throughput must use the measured span, not be
        // clamped to the nominal duration.
        let completions: Vec<f64> = (11..=68).map(|i| i as f64).collect();
        let tput = throughput(&completions, 10.0, 60.0, true);
        assert!((tput - 58.0 / 58.0).abs() < 0.05, "tput {tput}");
        // And a genuinely dragging run (span 75 s > 66 s) is clamped.
        let completions = vec![20.0, 85.0];
        let tput = throughput(&completions, 10.0, 60.0, true);
        assert!((tput - 2.0 / 60.0).abs() < 1e-9);
    }

    #[test]
    fn throughput_unprocessed_requests_use_full_duration() {
        let completions = vec![1.0, 2.0];
        let tput = throughput(&completions, 0.0, 60.0, false);
        assert!((tput - 2.0 / 60.0).abs() < 1e-9);
    }

    #[test]
    fn throughput_empty_is_zero() {
        assert_eq!(throughput(&[], 0.0, 60.0, true), 0.0);
    }

    #[test]
    fn knee_detection() {
        // Throughput saturates at 8 req/s while latency explodes.
        let series = vec![
            CapacityPoint { offered_rate: 1.0, throughput: 1.0, l95: 0.10 },
            CapacityPoint { offered_rate: 2.0, throughput: 2.0, l95: 0.10 },
            CapacityPoint { offered_rate: 4.0, throughput: 4.0, l95: 0.11 },
            CapacityPoint { offered_rate: 8.0, throughput: 8.0, l95: 0.15 },
            CapacityPoint { offered_rate: 16.0, throughput: 9.0, l95: 1.2 },
            CapacityPoint { offered_rate: 32.0, throughput: 9.0, l95: 4.0 },
        ];
        let knee = knee_capacity(&series).unwrap();
        assert_eq!(knee.offered_rate, 8.0);
        let usable = usable_capacity(&series).unwrap();
        assert_eq!(usable.offered_rate, 8.0);
    }

    #[test]
    fn knee_empty_series() {
        assert!(knee_capacity(&[]).is_none());
        assert!(usable_capacity(&[]).is_none());
    }
}
