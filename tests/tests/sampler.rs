//! The sampler's artifacts against frozen bytes.
//!
//! `tests/fixtures/sampler/` holds the `--metrics-out` CSV and the
//! `--health-out` timeline of one short run past the validate knee, both
//! written from the sampler's rows, exactly as
//!
//! ```text
//! fabricsim --policy AND5 --peers 5 --validator-pool 1 --channels 2 \
//!     --rate 300 --duration 6.7 --metrics-window 0.5 --slo-p99-ms 500 \
//!     --seed 42 --metrics-out metrics.csv --health-out health.jsonl
//! ```
//!
//! writes them. The run covers every path of both planes: two channel
//! worlds, regime, shift, SLO-burn and Little's-law events, and a 0.2 s
//! tail window whose block-cut cadence is rescaled to per-period units.
//!
//! A change that moves these bytes changes simulated output. Re-record the
//! fixtures only together with the `fabricsim diff` artifact of old against
//! new that explains the move.

use fabricsim::obs::{metrics_csv, RunProvenance};
use fabricsim::{OrdererType, PolicySpec, SimConfig, Simulation};

macro_rules! fixture {
    ($name:literal) => {
        include_str!(concat!("../fixtures/sampler/", $name))
    };
}

/// The configuration the CLI command in the module docs builds.
fn config() -> SimConfig {
    let mut cfg = SimConfig {
        orderer_type: OrdererType::Solo,
        endorsing_peers: 5,
        policy: PolicySpec::AndX(5),
        channels: 2,
        arrival_rate_tps: 300.0,
        duration_secs: 6.7,
        warmup_secs: 6.7 * 0.2,
        cooldown_secs: 6.7 * 0.1,
        seed: 42,
        ..SimConfig::default()
    };
    cfg.cost.validator_pool_size = 1;
    cfg.obs.sample_period_s = 0.5;
    cfg.obs.slo_p99_s = 0.5;
    cfg.obs.health_events = true;
    cfg
}

/// Fails at the first line where `got` leaves `want`, naming the fixture.
fn assert_same_bytes(name: &str, got: &str, want: &str) {
    if got == want {
        return;
    }
    let mismatch = got
        .lines()
        .zip(want.lines())
        .enumerate()
        .find(|(_, (g, w))| g != w);
    match mismatch {
        Some((i, (g, w))) => panic!("{name} line {}:\n  got  {g}\n  want {w}", i + 1),
        None => panic!(
            "{name}: {} lines, fixture has {}",
            got.lines().count(),
            want.lines().count()
        ),
    }
}

#[test]
fn sampler_artifacts_match_the_recorded_bytes() {
    let cfg = config();
    let period = cfg.obs.sample_period_s;
    let r = Simulation::new(cfg).run_detailed();
    let obs = &r.observability;
    let health = obs.health.as_ref().expect("health plane on");
    let prov = RunProvenance {
        seed: r.summary.seed,
        config_digest: r.summary.config_digest.clone(),
    };
    assert_same_bytes(
        "metrics.csv",
        &metrics_csv(period, &obs.samples),
        fixture!("metrics.csv"),
    );
    assert_same_bytes(
        "health.jsonl",
        &health.to_jsonl(Some(&prov)),
        fixture!("health.jsonl"),
    );
}
