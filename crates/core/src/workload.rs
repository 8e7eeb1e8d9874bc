//! Simulation configuration and workload definitions.

use fabricsim_policy::Policy;
use fabricsim_types::{BatchConfig, OrdererType};

use crate::model::CostModel;

/// Which endorsement policy the channel uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicySpec {
    /// `OR('Org1.peer', …, 'OrgN.peer')` — any one of the first `n` orgs.
    OrN(u32),
    /// `AND('Org1.peer', …, 'OrgX.peer')` — all of the first `x` orgs.
    /// As in the paper's Table II, `x` is clamped to the number of deployed
    /// endorsing peers.
    AndX(u32),
    /// Any policy in textual form, e.g. a k-of-n policy
    /// `OutOf(k,'Org1.peer',…,'OrgN.peer')`.
    Custom(String),
}

impl PolicySpec {
    /// Resolves the spec against `deployed` endorsing peers into a concrete
    /// [`Policy`].
    ///
    /// # Errors
    /// Describes why the spec names no policy: no endorsing peer, a count
    /// of zero (`OR0`, `AND0`), or custom text that does not parse (an
    /// `OutOf` asking for none, or for more than it lists, included).
    pub fn try_resolve(&self, deployed: u32) -> Result<Policy, String> {
        if deployed == 0 {
            return Err("need at least one endorsing peer".into());
        }
        match self {
            PolicySpec::OrN(0) | PolicySpec::AndX(0) => Err(format!(
                "policy {} needs at least one principal",
                self.label()
            )),
            PolicySpec::OrN(n) => Ok(Policy::or_of_orgs((*n).min(deployed))),
            PolicySpec::AndX(x) => Ok(Policy::and_of_orgs((*x).min(deployed))),
            PolicySpec::Custom(text) => text.parse().map_err(|e| format!("{e} in {text:?}")),
        }
    }

    /// [`PolicySpec::try_resolve`] for a spec that [`SimConfig::validate`]
    /// accepted.
    ///
    /// # Panics
    /// Panics if `try_resolve` refuses the spec.
    #[expect(
        clippy::expect_used,
        reason = "fail-fast: SimConfig::validate refuses every spec that does not resolve"
    )]
    pub fn resolve(&self, deployed: u32) -> Policy {
        self.try_resolve(deployed).expect("invalid policy")
    }

    /// Short label for reports (`OR10`, `AND5`, …).
    pub fn label(&self) -> String {
        match self {
            PolicySpec::OrN(n) => format!("OR{n}"),
            PolicySpec::AndX(x) => format!("AND{x}"),
            PolicySpec::Custom(_) => "custom".to_string(),
        }
    }
}

/// The transaction mix the workload generator drives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Blind `put` writes of `payload_bytes` to per-transaction unique keys —
    /// the paper's benchmark workload ("transaction size of 1 byte"),
    /// conflict-free.
    KvPut {
        /// Value size in bytes.
        payload_bytes: usize,
    },
    /// Read-modify-write over a bounded keyspace: genuine MVCC conflicts
    /// under contention.
    KvRmw {
        /// Number of distinct keys; smaller ⇒ more conflicts.
        keyspace: usize,
        /// Value size in bytes.
        payload_bytes: usize,
    },
    /// Money transfers between accounts (the `asset-transfer` chaincode).
    Transfer {
        /// Number of accounts seeded at genesis.
        accounts: u32,
    },
    /// The Smallbank banking benchmark (Blockbench's standard workload): six
    /// operation types over savings/checking account pairs, with the
    /// benchmark's canonical mix (25 % payments, 15 % each of the rest).
    Smallbank {
        /// Number of customers seeded at genesis.
        customers: u32,
    },
}

impl Default for WorkloadKind {
    fn default() -> Self {
        WorkloadKind::KvPut { payload_bytes: 1 }
    }
}

/// Gossip-based block dissemination configuration (when `Some`, only a few
/// leader peers subscribe to the ordering service for block delivery; all
/// other peers receive blocks over the gossip mesh, as in production Fabric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GossipConfig {
    /// How many peers connect to the ordering service directly.
    pub leader_peers: u32,
    /// Push fanout per novel block.
    pub fanout: usize,
    /// Anti-entropy pull period, milliseconds.
    pub anti_entropy_ms: u64,
}

impl Default for GossipConfig {
    fn default() -> Self {
        GossipConfig {
            leader_peers: 2,
            fanout: 3,
            anti_entropy_ms: 500,
        }
    }
}

/// Observability configuration: what the run records beyond the summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObsConfig {
    /// Record structured per-transaction phase events (exportable as JSONL).
    /// Off by default: large runs emit one event per phase transition.
    pub trace_events: bool,
    /// Record causal span-graph events (per-peer endorsement, consensus
    /// message legs, per-hop gossip delivery, per-peer validation/commit).
    /// Off by default for the same reason as `trace_events`.
    pub span_events: bool,
    /// Deterministic head-sampling rate in `[0, 1]` applied to *tx-scoped*
    /// trace and span records (seeded on the tx id, so rates nest: every tx
    /// kept at 1 % is also kept at 50 %). Block-scoped spans are always
    /// recorded. `1.0` keeps everything.
    pub trace_sample: f64,
    /// Capacity of the bounded in-memory event/span rings; oldest records
    /// are evicted beyond this and reported as `dropped_events` /
    /// `dropped_spans`. Must be positive.
    pub trace_buffer_cap: usize,
    /// Enable the DES kernel self-profiler: host-ns attribution of the
    /// event loop per event-family label, plus heap and loop overhead.
    /// Write-only with respect to the simulation.
    pub profile: bool,
    /// Sampler period in virtual seconds: the width of the windows the
    /// metrics table and the health plane read (queue depths, utilization,
    /// in-flight transactions, block-cut cadence). The sampler always runs;
    /// the period is at least 1 ms.
    pub sample_period_s: f64,
    /// Enable the health plane: per-station regime detection,
    /// bottleneck-shift onsets and SLO burn tracking, folded over the
    /// sampler's windows after the run. Write-only with respect to the
    /// simulation.
    pub health_events: bool,
    /// End-to-end p99 latency objective the health plane's SLO burn tracker
    /// measures against, in seconds. Must be positive and finite.
    pub slo_p99_s: f64,
}

/// Shortest sampler period a run accepts, seconds. The sampler reschedules
/// itself every period, so a period that rounds to 0 ns would never let
/// virtual time advance.
const MIN_SAMPLE_PERIOD_S: f64 = 1e-3;

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            trace_events: false,
            span_events: false,
            trace_sample: 1.0,
            trace_buffer_cap: 1 << 20,
            profile: false,
            sample_period_s: 1.0,
            health_events: false,
            slo_p99_s: 2.0,
        }
    }
}

/// Full configuration of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Root RNG seed; equal seeds give bit-identical runs.
    pub seed: u64,
    /// Consensus backing the ordering service.
    pub orderer_type: OrdererType,
    /// Number of endorsing peers (one org each; one client pool each).
    pub endorsing_peers: u32,
    /// Number of additional validate-only peers (≥1; the first is the
    /// measurement observer, as in the paper's Fig. 1 third phase).
    pub committing_peers: u32,
    /// Endorsement policy.
    pub policy: PolicySpec,
    /// Ordering-service nodes (ignored for Solo, which always has 1).
    pub osn_count: u32,
    /// Kafka brokers (Kafka mode).
    pub broker_count: u32,
    /// ZooKeeper ensemble size (Kafka mode).
    pub zk_count: u32,
    /// Open-loop Poisson arrival rate, transactions per second.
    pub arrival_rate_tps: f64,
    /// Total virtual duration, seconds.
    pub duration_secs: f64,
    /// Measurement window start (warm-up excluded), seconds.
    pub warmup_secs: f64,
    /// Tail excluded from the measurement window, seconds.
    pub cooldown_secs: f64,
    /// Block cutting parameters (paper defaults: 100 txs / 1 s).
    pub batch: BatchConfig,
    /// Client-side ordering timeout, ms (paper: 3 000).
    pub ordering_timeout_ms: u64,
    /// The workload mix.
    pub workload: WorkloadKind,
    /// Number of channels (independent ledgers/partitions; paper §II). Client
    /// load is spread round-robin across channels; peers host one ledger per
    /// channel on shared hardware; each channel gets its own consensus
    /// instance (its own Raft group / Kafka partition), exactly as in Fabric.
    pub channels: u32,
    /// The run's host thread budget. The per-channel event-loop worlds are
    /// multiplexed onto `min(sim_workers, channels)` threads under a
    /// conservative lookahead barrier, and a thread left over is a spare
    /// thread for the *lane*, which runs the pure half of each peer's next
    /// block validation (data hash, dedup, VSCC) ahead of the event loop
    /// while MVCC and the commit stay on it. With two or more event-loop
    /// threads, a thread waiting at a window barrier serves the lane too.
    /// `0` (the default) is one event-loop thread plus the spare thread
    /// when the host has a second core; `1` is exactly one thread;
    /// `n > channels` adds the spare thread. Every worker count produces
    /// byte-identical reports (the determinism suite locks workers
    /// {0, 1, 2, 4} on one channel and {0, 1, 2, 8} on four against each
    /// other) and the same [`SimConfig::digest`], so this knob trades wall
    /// clock only (DESIGN.md §15).
    pub sim_workers: u32,
    /// Block dissemination: `None` = every peer subscribes to an OSN directly;
    /// `Some` = leader peers + gossip mesh.
    pub gossip: Option<GossipConfig>,
    /// The calibrated cost model.
    pub cost: CostModel,
    /// Observability: event tracing and time-series sampling.
    pub obs: ObsConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 42,
            orderer_type: OrdererType::Solo,
            endorsing_peers: 10,
            committing_peers: 1,
            policy: PolicySpec::OrN(10),
            osn_count: 3,
            broker_count: 3,
            zk_count: 3,
            arrival_rate_tps: 100.0,
            duration_secs: 60.0,
            warmup_secs: 10.0,
            cooldown_secs: 5.0,
            batch: BatchConfig::default(),
            ordering_timeout_ms: 3_000,
            workload: WorkloadKind::default(),
            channels: 1,
            sim_workers: 0,
            gossip: None,
            cost: CostModel::default(),
            obs: ObsConfig::default(),
        }
    }
}

impl SimConfig {
    /// Validates cross-field consistency.
    ///
    /// # Errors
    /// A description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.endorsing_peers == 0 {
            return Err("need at least one endorsing peer".into());
        }
        if self.committing_peers == 0 {
            return Err("need at least one committing (observer) peer".into());
        }
        self.policy.try_resolve(self.endorsing_peers)?;
        if !self.arrival_rate_tps.is_finite() || self.arrival_rate_tps <= 0.0 {
            return Err("arrival rate must be a finite positive number".into());
        }
        for (name, secs) in [
            ("duration", self.duration_secs),
            ("warmup", self.warmup_secs),
            ("cooldown", self.cooldown_secs),
        ] {
            if !secs.is_finite() || secs < 0.0 {
                return Err(format!(
                    "{name} must be a finite non-negative number of seconds"
                ));
            }
        }
        if self.duration_secs <= self.warmup_secs + self.cooldown_secs {
            return Err("duration must exceed warmup + cooldown".into());
        }
        if self.orderer_type != OrdererType::Solo && self.osn_count == 0 {
            return Err("need at least one OSN".into());
        }
        if self.orderer_type == OrdererType::Kafka && (self.broker_count == 0 || self.zk_count == 0)
        {
            return Err("kafka mode needs brokers and a zookeeper ensemble".into());
        }
        if let Some(g) = &self.gossip {
            if g.leader_peers == 0 || g.fanout == 0 || g.anti_entropy_ms == 0 {
                return Err("gossip needs leader peers, fanout and a pull period".into());
            }
            if self.channels > 1 {
                return Err("gossip delivery currently supports a single channel".into());
            }
        }
        if self.channels == 0 || self.channels > 32 {
            return Err("channels must be in 1..=32".into());
        }
        if self.sim_workers > 64 {
            return Err("sim_workers must be in 0..=64".into());
        }
        let propagation_ms = self.cost.link_propagation_ms;
        if !propagation_ms.is_finite() || propagation_ms < 0.0 {
            return Err("link_propagation_ms must be a finite non-negative number".into());
        }
        if self.channels > 1 && propagation_ms <= 0.0 {
            return Err(
                "channel worlds synchronize on a lookahead of link_propagation_ms, \
                 which must be positive when channels > 1"
                    .into(),
            );
        }
        let period = self.obs.sample_period_s;
        if !(period >= MIN_SAMPLE_PERIOD_S && period.is_finite()) {
            return Err(format!(
                "metrics sample period must be a finite number of seconds \
                 >= {MIN_SAMPLE_PERIOD_S} (got {period})"
            ));
        }
        if !self.obs.trace_sample.is_finite()
            || self.obs.trace_sample < 0.0
            || self.obs.trace_sample > 1.0
        {
            return Err("trace sample rate must be a finite number in [0, 1]".into());
        }
        if self.obs.trace_buffer_cap == 0 {
            return Err("trace buffer capacity must be positive".into());
        }
        if !self.obs.slo_p99_s.is_finite() || self.obs.slo_p99_s <= 0.0 {
            return Err("SLO p99 latency objective must be a finite positive number".into());
        }
        self.batch.validate()
    }

    /// A short stable fingerprint of everything that shapes the run's
    /// *results*: SHA-256 over the canonical `Debug` rendering of the
    /// config with the observability block normalized away (tracing and
    /// sampling never perturb the simulation, so two runs that differ only
    /// there are the same experiment). 16 hex chars — enough to compare
    /// artifacts, short enough for a CSV column.
    ///
    /// The digest identifies a config *within one build* of the simulator;
    /// it is not stable across field additions (any new cost-model knob
    /// deliberately changes it).
    pub fn digest(&self) -> String {
        let canonical = SimConfig {
            obs: ObsConfig {
                trace_events: false,
                span_events: false,
                trace_sample: 0.0,
                trace_buffer_cap: 0,
                profile: false,
                sample_period_s: 0.0,
                health_events: false,
                slo_p99_s: 0.0,
            },
            // Every worker count yields byte-identical results (locked by
            // the determinism suite): a thread count is not an experiment.
            sim_workers: 0,
            ..self.clone()
        };
        let hash = fabricsim_crypto::sha256(format!("{canonical:?}").as_bytes());
        hash.to_hex()[..16].to_string()
    }

    /// The effective number of OSNs (Solo always runs exactly one).
    pub fn effective_osns(&self) -> u32 {
        if self.orderer_type == OrdererType::Solo {
            1
        } else {
            self.osn_count
        }
    }

    /// Signatures per transaction under the resolved policy (what VSCC pays).
    pub fn signatures_per_tx(&self) -> usize {
        self.policy.resolve(self.endorsing_peers).min_endorsements()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_spec_resolution_clamps_to_deployment() {
        assert_eq!(PolicySpec::OrN(10).resolve(3), Policy::or_of_orgs(3));
        assert_eq!(PolicySpec::AndX(5).resolve(3), Policy::and_of_orgs(3));
        assert_eq!(PolicySpec::AndX(5).resolve(10), Policy::and_of_orgs(5));
    }

    #[test]
    fn policy_labels() {
        assert_eq!(PolicySpec::OrN(10).label(), "OR10");
        assert_eq!(PolicySpec::AndX(5).label(), "AND5");
        let out_of = PolicySpec::Custom("OutOf(2,'Org1.peer','Org2.peer')".into());
        assert_eq!(out_of.label(), "custom");
    }

    #[test]
    fn custom_policy_parses() {
        let spec = PolicySpec::Custom("AND('Org1.peer','Org2.peer')".into());
        assert_eq!(spec.resolve(5), Policy::and_of_orgs(2));
        let spec = PolicySpec::Custom("OutOf(2,'Org1.peer','Org2.peer','Org3.peer')".into());
        assert_eq!(spec.resolve(5), Policy::k_of_n_orgs(2, 3));
    }

    #[test]
    fn default_config_is_valid() {
        assert_eq!(SimConfig::default().validate(), Ok(()));
    }

    #[test]
    fn validate_refuses_a_policy_that_does_not_resolve() {
        for policy in [
            PolicySpec::OrN(0),
            PolicySpec::AndX(0),
            PolicySpec::Custom("garbage(".into()),
            PolicySpec::Custom("OutOf(2,'Org1.peer')".into()),
            PolicySpec::Custom("OutOf(0,'Org1.peer','Org2.peer','Org3.peer')".into()),
            PolicySpec::Custom("OutOf(5,'Org1.peer','Org2.peer','Org3.peer')".into()),
        ] {
            let c = SimConfig {
                policy: policy.clone(),
                ..SimConfig::default()
            };
            let err = c.validate().expect_err("refused");
            assert!(err.starts_with("policy "), "{policy:?}: {err}");
        }
    }

    #[test]
    fn validation_catches_problems() {
        let c = SimConfig {
            endorsing_peers: 0,
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());

        let c = SimConfig {
            duration_secs: 5.0,
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());

        let c = SimConfig {
            orderer_type: OrdererType::Kafka,
            broker_count: 0,
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());

        // NaN slips past every `<=` comparison, and ±∞ is no rate or horizon
        // the kernel can schedule: each must be refused, not panic later.
        let fields: [fn(&mut SimConfig, f64); 4] = [
            |c, v| c.arrival_rate_tps = v,
            |c, v| c.duration_secs = v,
            |c, v| c.warmup_secs = v,
            |c, v| c.cooldown_secs = v,
        ];
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for (i, set) in fields.iter().enumerate() {
                let mut c = SimConfig::default();
                set(&mut c, bad);
                assert!(c.validate().is_err(), "field {i} = {bad} must be refused");
            }
        }
        let c = SimConfig {
            warmup_secs: -1.0,
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());

        // The sampler always runs: a period of 0, or one that rounds to 0 ns,
        // would reschedule it at the same instant forever; one just above
        // that writes 10⁴ rows a second.
        for (period, ok) in [
            (0.0, false),
            (1e-3, true),
            (0.25, true),
            (1e-12, false),
            (1e-10, false),
            (1e-4, false),
            (0.000_999, false),
            (-1.0, false),
            (f64::NAN, false),
            (f64::INFINITY, false),
        ] {
            let mut c = SimConfig::default();
            c.obs.sample_period_s = period;
            assert_eq!(c.validate().is_ok(), ok, "sample period {period}");
        }
    }

    #[test]
    fn signatures_per_tx_follows_policy() {
        let mut c = SimConfig {
            policy: PolicySpec::OrN(10),
            ..SimConfig::default()
        };
        assert_eq!(c.signatures_per_tx(), 1);
        c.policy = PolicySpec::AndX(5);
        assert_eq!(c.signatures_per_tx(), 5);
        c.endorsing_peers = 3;
        assert_eq!(c.signatures_per_tx(), 3, "AND5 with 3 deployed = AND3");
    }

    #[test]
    fn digest_tracks_experiment_identity_not_observability() {
        let base = SimConfig::default();
        let d = base.digest();
        assert_eq!(d.len(), 16);
        assert!(d.chars().all(|c| c.is_ascii_hexdigit()));
        // Deterministic, and insensitive to observability toggles…
        let mut traced = base.clone();
        traced.obs.trace_events = true;
        traced.obs.span_events = true;
        traced.obs.trace_sample = 0.01;
        traced.obs.trace_buffer_cap = 64;
        traced.obs.profile = true;
        traced.obs.sample_period_s = 0.25;
        traced.obs.health_events = true;
        traced.obs.slo_p99_s = 0.75;
        assert_eq!(traced.digest(), d);
        // …but sensitive to anything that shapes results.
        for cfg in [
            SimConfig {
                seed: 43,
                ..base.clone()
            },
            SimConfig {
                arrival_rate_tps: 101.0,
                ..base.clone()
            },
            SimConfig {
                policy: PolicySpec::AndX(5),
                ..base.clone()
            },
        ] {
            assert_ne!(cfg.digest(), d, "{cfg:?}");
        }
        let mut pooled = base.clone();
        pooled.cost.validator_pool_size = 4;
        assert_ne!(pooled.digest(), d);
    }

    #[test]
    fn solo_always_one_osn() {
        let mut c = SimConfig {
            osn_count: 5,
            ..SimConfig::default()
        };
        assert_eq!(c.effective_osns(), 1);
        c.orderer_type = OrdererType::Raft;
        assert_eq!(c.effective_osns(), 5);
    }
}
