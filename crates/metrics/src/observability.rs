//! Per-node observability bundle: the metrics registry, the trace
//! journal, the event-loop counters and the four per-phase latency
//! histograms, wired together so every layer of a node shares one
//! clone-able handle.

use crate::counters::EventLoopCounters;
use crate::histogram::Histogram;
use crate::profiler::WorkerPhases;
use crate::registry::{Counter, Gauge, MetricsRegistry};
use crate::trace::TraceJournal;
use std::sync::Arc;

/// Canonical metric names for the per-phase latency histograms. The
/// `_seconds` suffix follows the Prometheus naming convention; values
/// are recorded in microseconds internally and rendered in seconds.
pub const SHARE_COMPUTE_HISTOGRAM: &str = "theta_share_compute_seconds";
/// Name of the share-verification phase histogram.
pub const SHARE_VERIFY_HISTOGRAM: &str = "theta_share_verify_seconds";
/// Name of the combine phase histogram.
pub const COMBINE_HISTOGRAM: &str = "theta_combine_seconds";
/// Name of the end-to-end (instance started → result delivered)
/// histogram.
pub const E2E_HISTOGRAM: &str = "theta_e2e_seconds";

/// Gauge: live protocol instances currently hosted by the worker pool.
pub const INFLIGHT_INSTANCES_GAUGE: &str = "theta_inflight_instances";
/// Gauge: instance slots queued on the worker-pool run queue (scheduled
/// but not yet picked up by a worker).
pub const RUNQUEUE_DEPTH_GAUGE: &str = "theta_runqueue_depth";
/// Gauge: submissions sitting in the node's command queue, waiting for
/// the router to admit them.
pub const SUBMISSION_QUEUE_DEPTH_GAUGE: &str = "theta_submission_queue_depth";
/// Counter: submissions rejected because a queue bound was hit (the
/// service's `Overloaded` error and the router's admission cap both
/// count here).
pub const OVERLOAD_REJECTIONS_COUNTER: &str = "theta_overload_rejections_total";
/// Counter: network events dropped because an instance mailbox was full
/// or already closed.
pub const MAILBOX_DROPPED_COUNTER: &str = "theta_mailbox_dropped_total";
/// Name of the per-worker busy-time histogram; each worker records with
/// a `{worker="i"}` label.
pub const WORKER_BUSY_HISTOGRAM: &str = "theta_worker_busy_seconds";
/// Counter: total nanoseconds the router thread spent doing work (not
/// blocked on its inbox). Nanosecond resolution because one router
/// iteration is often sub-microsecond — the histogram above would
/// truncate it to zero.
pub const ROUTER_BUSY_NANOS_COUNTER: &str = "theta_router_busy_nanos_total";
/// Counter: total nanoseconds workers spent running instance slots,
/// summed across the pool (the per-worker histograms give the shape;
/// this gives an exact total for utilization math).
pub const WORKER_BUSY_NANOS_COUNTER: &str = "theta_worker_busy_nanos_total";
/// Histogram: checks per cross-instance batch settle. Recorded as a raw
/// count (not a duration), so the bucket bounds read as batch sizes.
pub const BATCH_SIZE_HISTOGRAM: &str = "theta_batch_size";
/// Counter: cross-instance batch flushes, labeled
/// `{reason="size"|"age"|"shutdown"}`.
pub const BATCH_FLUSHES_COUNTER: &str = "theta_batch_flushes_total";

/// Pre-resolved handles for the router/worker-pool metrics, so the
/// router hot path and the workers record without touching the registry
/// lock.
#[derive(Clone)]
pub struct PoolMetrics {
    /// Live instances hosted across the pool.
    pub inflight_instances: Arc<Gauge>,
    /// Scheduled-but-unclaimed instance slots on the run queue.
    pub runqueue_depth: Arc<Gauge>,
    /// Commands waiting for router admission.
    pub submission_queue_depth: Arc<Gauge>,
    /// Bounded-queue rejections (service + router admission).
    pub overload_rejections: Arc<Counter>,
    /// Events dropped at a full or closed instance mailbox.
    pub mailbox_dropped: Arc<Counter>,
    /// Per-worker busy-time histograms, indexed by worker id.
    pub worker_busy: Vec<Arc<Histogram>>,
    /// Per-worker phase-profiler sinks (idle / share-verify / combine /
    /// batch-settle), indexed by worker id; each worker installs its
    /// entry as the thread-local sink at startup.
    pub worker_phases: Vec<WorkerPhases>,
    /// Exact nanoseconds the router spent working (blocked time excluded).
    pub router_busy_nanos: Arc<Counter>,
    /// Exact nanoseconds workers spent running slots, pool-wide.
    pub worker_busy_nanos: Arc<Counter>,
    /// Checks per cross-instance batch settle (recorded as raw counts).
    pub batch_size: Arc<Histogram>,
    /// Cross-instance batch flushes that fired on the size threshold.
    pub batch_flushes_size: Arc<Counter>,
    /// Cross-instance batch flushes that fired on the age threshold.
    pub batch_flushes_age: Arc<Counter>,
    /// Cross-instance batch flushes forced by node shutdown.
    pub batch_flushes_shutdown: Arc<Counter>,
}

impl PoolMetrics {
    /// Resolves the pool metrics against `registry`, pre-registering one
    /// `{worker="i"}` busy histogram per worker (0-based ids).
    pub fn register(registry: &MetricsRegistry, workers: usize) -> PoolMetrics {
        let mut worker_busy = Vec::with_capacity(workers);
        let mut worker_phases = Vec::with_capacity(workers);
        for w in 0..workers {
            let label = w.to_string();
            worker_busy.push(registry.histogram_with(WORKER_BUSY_HISTOGRAM, &[("worker", &label)]));
            worker_phases.push(WorkerPhases::register(registry, w));
        }
        PoolMetrics {
            inflight_instances: registry.gauge(INFLIGHT_INSTANCES_GAUGE),
            runqueue_depth: registry.gauge(RUNQUEUE_DEPTH_GAUGE),
            submission_queue_depth: registry.gauge(SUBMISSION_QUEUE_DEPTH_GAUGE),
            overload_rejections: registry.counter(OVERLOAD_REJECTIONS_COUNTER),
            mailbox_dropped: registry.counter(MAILBOX_DROPPED_COUNTER),
            worker_busy,
            worker_phases,
            router_busy_nanos: registry.counter(ROUTER_BUSY_NANOS_COUNTER),
            worker_busy_nanos: registry.counter(WORKER_BUSY_NANOS_COUNTER),
            batch_size: registry.histogram(BATCH_SIZE_HISTOGRAM),
            batch_flushes_size: registry
                .counter_with(BATCH_FLUSHES_COUNTER, &[("reason", "size")]),
            batch_flushes_age: registry.counter_with(BATCH_FLUSHES_COUNTER, &[("reason", "age")]),
            batch_flushes_shutdown: registry
                .counter_with(BATCH_FLUSHES_COUNTER, &[("reason", "shutdown")]),
        }
    }
}

/// Pre-resolved handles to the four per-phase histograms, so the
/// event-loop hot path records without touching the registry lock.
#[derive(Clone)]
pub struct PhaseTimers {
    /// Time to compute this node's own share (`do_round`).
    pub share_compute: Arc<Histogram>,
    /// Time to verify one received share (`update`).
    pub share_verify: Arc<Histogram>,
    /// Time to combine shares into the final result (`finalize`).
    pub combine: Arc<Histogram>,
    /// Instance started → result delivered.
    pub e2e: Arc<Histogram>,
}

/// Everything a node exposes about itself, shared across layers.
///
/// One `Arc<NodeObservability>` is created per node at build time and
/// handed to the service layer, the instance manager and the network
/// backend. All parts are individually lock-free or short-lock bounded;
/// cloning the `Arc` is the only way the handle travels.
pub struct NodeObservability {
    /// Named counters/gauges/histograms (includes the phase timers).
    pub registry: Arc<MetricsRegistry>,
    /// Bounded ring buffer of per-instance lifecycle events.
    pub journal: Arc<TraceJournal>,
    /// The PR-1 event-loop counters, kept for `GetNodeStats`.
    pub counters: Arc<EventLoopCounters>,
    /// Fast handles to the four per-phase histograms.
    pub phases: PhaseTimers,
}

impl Default for NodeObservability {
    fn default() -> Self {
        NodeObservability::new()
    }
}

impl NodeObservability {
    /// A fresh bundle with the four phase histograms pre-registered.
    pub fn new() -> NodeObservability {
        let registry = Arc::new(MetricsRegistry::new());
        let phases = PhaseTimers {
            share_compute: registry.histogram(SHARE_COMPUTE_HISTOGRAM),
            share_verify: registry.histogram(SHARE_VERIFY_HISTOGRAM),
            combine: registry.histogram(COMBINE_HISTOGRAM),
            e2e: registry.histogram(E2E_HISTOGRAM),
        };
        NodeObservability {
            registry,
            journal: Arc::new(TraceJournal::default()),
            counters: Arc::new(EventLoopCounters::new()),
            phases,
        }
    }

    /// Renders everything the node knows about itself in the Prometheus
    /// text exposition format: the registry (counters, gauges, phase
    /// histograms) followed by the event-loop counters and the trace
    /// journal's own health gauges.
    pub fn render_prometheus(&self) -> String {
        let mut out = self.registry.render_prometheus();
        let c = self.counters.snapshot();
        for (name, value) in [
            ("theta_event_loop_wakeups_total", c.wakeups),
            ("theta_event_loop_events_total", c.events_processed),
            ("theta_event_loop_commands_total", c.commands_processed),
            ("theta_event_loop_retries_total", c.retries_sent),
            ("theta_event_loop_cache_evictions_total", c.cache_evictions),
            ("theta_instances_started_total", c.instances_started),
            ("theta_instances_completed_total", c.instances_completed),
            ("theta_instances_timed_out_total", c.instances_timed_out),
        ] {
            out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
        }
        out.push_str(&format!(
            "# TYPE theta_trace_journal_events gauge\ntheta_trace_journal_events {}\n",
            self.journal.len()
        ));
        out.push_str(&format!(
            "# TYPE theta_trace_journal_dropped_total counter\ntheta_trace_journal_dropped_total {}\n",
            self.journal.dropped()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEventKind;
    use std::time::Duration;

    #[test]
    fn bundle_renders_phases_counters_and_journal_health() {
        let obs = NodeObservability::new();
        obs.phases.e2e.record(Duration::from_millis(12));
        EventLoopCounters::bump(&obs.counters.instances_started);
        obs.journal.record([7u8; 32], TraceEventKind::InstanceStarted);
        let text = obs.render_prometheus();
        assert!(text.contains("# TYPE theta_e2e_seconds histogram"));
        assert!(text.contains("theta_e2e_seconds_count 1"));
        assert!(text.contains("theta_share_compute_seconds_count 0"));
        assert!(text.contains("theta_share_verify_seconds_count 0"));
        assert!(text.contains("theta_combine_seconds_count 0"));
        assert!(text.contains("theta_instances_started_total 1"));
        assert!(text.contains("theta_trace_journal_events 1"));
    }

    #[test]
    fn pool_metrics_register_and_render() {
        let obs = NodeObservability::new();
        let pool = PoolMetrics::register(&obs.registry, 2);
        pool.inflight_instances.set(3);
        pool.runqueue_depth.set(1);
        pool.overload_rejections.inc();
        pool.mailbox_dropped.add(2);
        pool.worker_busy[1].record(Duration::from_micros(250));
        pool.router_busy_nanos.add(480);
        pool.worker_busy_nanos.add(250_000);
        let text = obs.render_prometheus();
        assert!(text.contains("theta_inflight_instances 3"));
        assert!(text.contains("theta_runqueue_depth 1"));
        assert!(text.contains("theta_submission_queue_depth 0"));
        assert!(text.contains("theta_overload_rejections_total 1"));
        assert!(text.contains("theta_mailbox_dropped_total 2"));
        assert!(text.contains("theta_worker_busy_seconds_count{worker=\"1\"} 1"));
        assert!(text.contains("theta_worker_busy_seconds_count{worker=\"0\"} 0"));
        assert!(text.contains("theta_router_busy_nanos_total 480"));
        assert!(text.contains("theta_worker_busy_nanos_total 250000"));
    }

    #[test]
    fn phase_handles_alias_registry_histograms() {
        let obs = NodeObservability::new();
        obs.phases.share_compute.record(Duration::from_micros(500));
        let snap = obs
            .registry
            .histogram_snapshot(SHARE_COMPUTE_HISTOGRAM, &[])
            .unwrap();
        assert_eq!(snap.count(), 1);
    }
}
