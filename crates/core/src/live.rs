//! The live observability plane: wall-clock-side metrics the simulation
//! updates as it advances.
//!
//! A [`LiveMetrics`] bundle holds atomic counters, gauges and a log-bucketed
//! latency histogram registered in a [`MetricsRegistry`]; the simulation
//! bumps them at its existing phase-transition sites and a
//! [`fabricsim_obs::MetricsServer`] serves the registry as Prometheus text
//! exposition format while the run is still in progress.
//!
//! Determinism contract: the plane is strictly **write-only** from the
//! simulation's perspective. Nothing in the event loop ever reads a live
//! value back, so attaching a bundle (or scraping it concurrently) cannot
//! change a run's outcome; with no bundle attached the per-site cost is one
//! branch on an `Option`. Like the other observability toggles, the plane is
//! masked out of [`crate::SimConfig::digest`]'s provenance hash.

use std::sync::{Arc, OnceLock};

use fabricsim_obs::{
    Counter, Gauge, HealthEventKind, LiveHistogram, MetricsRegistry, HEALTH_STATIONS,
    HEALTH_STATION_COUNT,
};

/// The simulator's live metric handles, all registered in one registry.
///
/// Metric names follow Prometheus conventions (`_total` counters, base-unit
/// `_seconds` histograms). Every handle is cheap to clone and safe to bump
/// from the simulation thread while an exporter renders concurrently.
#[derive(Debug)]
pub struct LiveMetrics {
    registry: MetricsRegistry,
    /// Transactions admitted by a client pool.
    pub txs_created: Counter,
    /// Transactions committed with `ValidationCode::Valid`.
    pub txs_committed_valid: Counter,
    /// Transactions committed but flagged invalid (MVCC conflict, policy…).
    pub txs_committed_invalid: Counter,
    /// Arrivals dropped at a saturated client submission queue.
    pub txs_failed_overload: Counter,
    /// Endorsement-collection failures.
    pub txs_failed_endorsement: Counter,
    /// Client-side ordering timeouts.
    pub txs_failed_timeout: Counter,
    /// Blocks cut by the ordering service (first delivery wins).
    pub blocks_cut: Counter,
    /// Transactions carried by those blocks.
    pub block_txs: Counter,
    /// Simulation runs started in this process.
    pub runs_started: Counter,
    /// Simulation runs completed in this process.
    pub runs_completed: Counter,
    /// End-to-end latency of committed transactions (virtual seconds).
    pub e2e_latency: LiveHistogram,
    /// Current virtual time of the in-progress run.
    pub sim_time: Gauge,
    /// Transactions in flight (created, not yet terminal).
    pub inflight: Gauge,
    /// Summed queue depth per station class, indexed like
    /// [`fabricsim_obs::HEALTH_STATIONS`] (labelled `pool_prep` … `osn_cpu`).
    pub queue_depth: [Gauge; HEALTH_STATION_COUNT],
    /// Max per-peer VSCC-station utilization so far.
    pub util_peer_vscc: Gauge,
    /// Max per-peer commit-station utilization so far.
    pub util_peer_commit: Gauge,
    /// Current regime severity per health-plane station class (0 stable,
    /// 1 saturating, 2 overloaded), indexed like
    /// [`fabricsim_obs::HEALTH_STATIONS`]. Driven by the online health plane
    /// when [`crate::ObsConfig::health_events`] is set.
    pub health_regime: [Gauge; HEALTH_STATION_COUNT],
    /// Most recent window's SLO burn rate (violating fraction over a 1%
    /// error budget; 1.0 burns the budget exactly at its rate).
    pub health_slo_burn: Gauge,
    /// Health events emitted, by kind, indexed like
    /// [`fabricsim_obs::HealthEventKind::ALL`].
    pub health_events: [Counter; 4],
}

impl LiveMetrics {
    /// Registers a fresh bundle in its own registry.
    pub fn new() -> Arc<LiveMetrics> {
        LiveMetrics::register(MetricsRegistry::new())
    }

    /// Registers the simulator's metric families in `registry`. Also installs
    /// the peer-pipeline and ordering-cutter hooks (process-global; the first
    /// registry to install them wins).
    pub fn register(registry: MetricsRegistry) -> Arc<LiveMetrics> {
        let committed = "Transactions committed at the observer peer, by validity.";
        let failed = "Transactions that terminated without committing, by reason.";
        let queue = "Summed jobs in system over the station class.";
        let util = "Max per-station utilization of the class so far this run.";
        let m = LiveMetrics {
            txs_created: registry.counter(
                "fabricsim_txs_created_total",
                "Transactions admitted by a client pool.",
                &[],
            ),
            txs_committed_valid: registry.counter(
                "fabricsim_txs_committed_total",
                committed,
                &[("validity", "valid")],
            ),
            txs_committed_invalid: registry.counter(
                "fabricsim_txs_committed_total",
                committed,
                &[("validity", "invalid")],
            ),
            txs_failed_overload: registry.counter(
                "fabricsim_txs_failed_total",
                failed,
                &[("reason", "overload")],
            ),
            txs_failed_endorsement: registry.counter(
                "fabricsim_txs_failed_total",
                failed,
                &[("reason", "endorsement")],
            ),
            txs_failed_timeout: registry.counter(
                "fabricsim_txs_failed_total",
                failed,
                &[("reason", "ordering_timeout")],
            ),
            blocks_cut: registry.counter(
                "fabricsim_blocks_cut_total",
                "Blocks cut by the ordering service.",
                &[],
            ),
            block_txs: registry.counter(
                "fabricsim_block_txs_total",
                "Transactions carried by cut blocks.",
                &[],
            ),
            runs_started: registry.counter(
                "fabricsim_runs_started_total",
                "Simulation runs started.",
                &[],
            ),
            runs_completed: registry.counter(
                "fabricsim_runs_completed_total",
                "Simulation runs completed.",
                &[],
            ),
            e2e_latency: registry.histogram(
                "fabricsim_e2e_latency_seconds",
                "End-to-end latency of committed transactions (virtual time).",
                &[],
                1e-4,
                3600.0,
                5,
            ),
            sim_time: registry.gauge(
                "fabricsim_sim_time_seconds",
                "Current virtual time of the in-progress run.",
                &[],
            ),
            inflight: registry.gauge(
                "fabricsim_inflight_txs",
                "Transactions created but not yet terminal.",
                &[],
            ),
            queue_depth: HEALTH_STATIONS.map(|station| {
                let class = station.replace('.', "_");
                registry.gauge("fabricsim_queue_depth", queue, &[("station", &class)])
            }),
            util_peer_vscc: registry.gauge(
                "fabricsim_station_utilization",
                util,
                &[("station", "peer_vscc")],
            ),
            util_peer_commit: registry.gauge(
                "fabricsim_station_utilization",
                util,
                &[("station", "peer_commit")],
            ),
            health_regime: HEALTH_STATIONS.map(|station| {
                registry.gauge(
                    "fabricsim_health_regime",
                    "Current health-plane regime severity of the station class \
                     (0 stable, 1 saturating, 2 overloaded).",
                    &[("station", station)],
                )
            }),
            health_slo_burn: registry.gauge(
                "fabricsim_health_slo_burn",
                "Most recent window's SLO burn rate (violating fraction / 1% budget).",
                &[],
            ),
            health_events: HealthEventKind::ALL.map(|kind| {
                registry.counter(
                    "fabricsim_health_events_total",
                    "Health-plane events emitted, by kind.",
                    &[("kind", kind.label())],
                )
            }),
            registry,
        };
        fabricsim_peer::install_metrics(fabricsim_peer::PipelineMetrics::register(&m.registry));
        fabricsim_ordering::install_metrics(fabricsim_ordering::CutterMetrics::register(
            &m.registry,
        ));
        Arc::new(m)
    }

    /// The registry backing this bundle (what an exporter serves).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }
}

static GLOBAL: OnceLock<Arc<LiveMetrics>> = OnceLock::new();

/// Installs (or returns the already-installed) process-global bundle. CLI
/// binaries call this once when `--serve-metrics` is requested; every
/// [`crate::Simulation`] constructed afterwards reports into it.
pub fn install_global() -> Arc<LiveMetrics> {
    GLOBAL.get_or_init(LiveMetrics::new).clone()
}

/// The process-global bundle, if one was installed.
pub fn global() -> Option<Arc<LiveMetrics>> {
    GLOBAL.get().cloned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabricsim_obs::validate_exposition;

    #[test]
    fn fresh_bundle_renders_a_valid_exposition() {
        let m = LiveMetrics::new();
        m.txs_created.add(10);
        m.txs_committed_valid.add(9);
        m.txs_committed_invalid.inc();
        m.e2e_latency.observe(0.75);
        m.sim_time.set(12.5);
        m.queue_depth[3].set(4.0);
        let text = m.registry().render();
        validate_exposition(&text).unwrap_or_else(|e| panic!("invalid exposition: {e}\n{text}"));
        assert!(text.contains("fabricsim_txs_committed_total{validity=\"valid\"} 9"));
        assert!(text.contains("fabricsim_e2e_latency_seconds_count 1"));
        assert!(text.contains("fabricsim_queue_depth{station=\"peer_vscc\"} 4"));
    }

    #[test]
    fn health_families_are_registered() {
        let m = LiveMetrics::new();
        m.health_regime[3].set(2.0);
        m.health_slo_burn.set(42.0);
        m.health_events[0].add(3);
        let text = m.registry().render();
        validate_exposition(&text).unwrap_or_else(|e| panic!("invalid exposition: {e}\n{text}"));
        assert!(text.contains("fabricsim_health_regime{station=\"peer.vscc\"} 2"));
        assert!(text.contains("fabricsim_health_events_total{kind=\"regime\"} 3"));
        assert!(text.contains("fabricsim_health_slo_burn 42"));
    }

    #[test]
    fn install_global_is_idempotent() {
        let a = install_global();
        let b = install_global();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(global().is_some());
    }
}
