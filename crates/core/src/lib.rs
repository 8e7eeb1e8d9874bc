//! # fabricsim — performance characterization of Hyperledger Fabric
//!
//! This crate is the paper's contribution as a library: a complete, phase-
//! instrumented model of a Hyperledger Fabric v1.4-style network — clients,
//! endorsing peers, ordering service (Solo / Kafka / Raft) and validating
//! peers — running on a deterministic discrete-event simulation with a
//! CPU/network cost model calibrated to the paper's 20-machine testbed
//! (see `DESIGN.md` §5).
//!
//! The building blocks come from the sibling crates (`fabricsim-peer`,
//! `fabricsim-ordering`, `fabricsim-raft`, `fabricsim-kafka`, …); this crate
//! wires them into a [`Simulation`], drives an open-loop Poisson workload
//! through the execute → order → validate pipeline, and reports per-phase
//! throughput and latency exactly as the paper measures them.
//!
//! ## Quickstart
//!
//! ```
//! use fabricsim::{PolicySpec, SimConfig, Simulation};
//! use fabricsim::OrdererType;
//!
//! let mut cfg = SimConfig::default();
//! cfg.orderer_type = OrdererType::Solo;
//! cfg.endorsing_peers = 3;
//! cfg.policy = PolicySpec::OrN(3);
//! cfg.arrival_rate_tps = 100.0;
//! cfg.duration_secs = 10.0;
//! cfg.warmup_secs = 2.0;
//!
//! let report = Simulation::new(cfg).run();
//! assert!(report.committed_tps() > 80.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytic;
pub mod experiment;
pub mod metrics;
mod model;
pub mod report;
mod sim;
mod workload;

pub use analytic::{predict, Phase, Prediction};
pub use fabricsim_des::{KernelProfile, LabelProfile};
pub use fabricsim_obs as obs;
pub use fabricsim_types::{BatchConfig, ChannelId, OrdererType, ValidationCode};
pub use metrics::{PhaseReport, SummaryReport, TxOutcome, TxTrace};
pub use model::CostModel;
pub use sim::{Fault, LaneStats, RunObservability, RunResult, Simulation, UtilizationReport};
pub use workload::{GossipConfig, ObsConfig, PolicySpec, SimConfig, WorkloadKind};
