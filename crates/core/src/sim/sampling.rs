//! Read-only observation of a world: gauge sweeps feeding the metrics
//! recorder, the online health plane and the live plane.

use fabricsim_des::{SimDuration, SimTime, Station};
use fabricsim_obs::{HealthWindow, MetricsRecorder, HEALTH_STATION_COUNT};

use crate::metrics::TxOutcome;

use super::world::{ObsState, World, K};

/// One read-only sweep of the gauges both sampling surfaces consume.
pub(super) struct GaugeSweep {
    pool_prep: usize,
    pool_recv: usize,
    peer_endorse: usize,
    peer_vscc: usize,
    peer_commit: usize,
    osn_cpu: usize,
    vscc_util: f64,
    commit_util: f64,
    inflight: usize,
    /// Blocks cut since the previous sweep.
    new_cuts: usize,
    /// Cumulative busy seconds per health-plane station class
    /// ([`fabricsim_obs::HEALTH_STATIONS`] order). Busy time accrues at
    /// submit, so differencing consecutive sweeps yields the *offered* work
    /// per window — the health plane's saturation signal.
    busy_s: [f64; HEALTH_STATION_COUNT],
    /// Provisioned servers per health-plane station class.
    servers: [f64; HEALTH_STATION_COUNT],
}

fn sweep_gauges(world: &mut World, now: SimTime) -> GaugeSweep {
    let cuts = world.block_cuts.len();
    let new_cuts = cuts - world.obs.last_block_cuts;
    world.obs.last_block_cuts = cuts;
    // Cumulative (busy seconds, servers) per health-plane station class,
    // summed over the class's stations, in HEALTH_STATIONS order.
    let mut busy_s = [0.0; HEALTH_STATION_COUNT];
    let mut servers = [0.0; HEALTH_STATION_COUNT];
    {
        let mut lane = |i: usize, s: &Station| {
            busy_s[i] += s.busy_time().as_secs_f64();
            servers[i] += s.servers() as f64;
        };
        for p in &world.pools {
            lane(0, &p.prep);
            lane(1, &p.recv);
        }
        for p in &world.peers {
            lane(2, &p.endorse);
            lane(3, &p.vscc);
            lane(4, &p.commit);
        }
        for o in &world.osns {
            lane(5, &o.station);
        }
    }
    GaugeSweep {
        busy_s,
        servers,
        pool_prep: world.pools.iter().map(|p| p.prep.jobs_in_system(now)).sum(),
        pool_recv: world.pools.iter().map(|p| p.recv.jobs_in_system(now)).sum(),
        peer_endorse: world
            .peers
            .iter()
            .map(|p| p.endorse.jobs_in_system(now))
            .sum(),
        peer_vscc: world.peers.iter().map(|p| p.vscc.jobs_in_system(now)).sum(),
        peer_commit: world
            .peers
            .iter()
            .map(|p| p.commit.jobs_in_system(now))
            .sum(),
        osn_cpu: world
            .osns
            .iter()
            .map(|o| o.station.jobs_in_system(now))
            .sum(),
        vscc_util: world
            .peers
            .iter()
            .map(|p| p.vscc.utilization(now))
            .fold(0.0, f64::max),
        commit_util: world
            .peers
            .iter()
            .map(|p| p.commit.utilization(now))
            .fold(0.0, f64::max),
        inflight: world
            .traces
            .iter()
            .filter(|t| matches!(t.outcome, TxOutcome::InFlight))
            .count()
            // Exported home stubs stay InFlight forever; the receiving shard
            // counts the live copy.
            .saturating_sub(world.shard.exported),
        new_cuts,
    }
}

/// Publishes a sweep to the live plane's gauges, if one is attached. Only
/// shard 0 drives the gauges (counters stay cross-shard: they are atomic and
/// increment-only); on a multi-channel run the gauges then cover channel 0's
/// slice of the deployment, which keeps the exporter deterministic-read safe
/// without cross-thread coordination.
fn publish_live(world: &World, now: SimTime, s: &GaugeSweep) {
    let Some(live) = &world.obs.live else { return };
    if world.shard.shard_id != 0 {
        return;
    }
    live.sim_time.set(now.as_secs_f64());
    live.inflight.set(s.inflight as f64);
    live.q_pool_prep.set(s.pool_prep as f64);
    live.q_pool_recv.set(s.pool_recv as f64);
    live.q_peer_endorse.set(s.peer_endorse as f64);
    live.q_peer_vscc.set(s.peer_vscc as f64);
    live.q_peer_commit.set(s.peer_commit as f64);
    live.q_osn_cpu.set(s.osn_cpu as f64);
    live.util_peer_vscc.set(s.vscc_util);
    live.util_peer_commit.set(s.commit_util);
}

/// The sampler cadence: the configured period, or 1 s when only the live
/// plane is attached (`sample_period_s == 0` disables the recorder).
pub(super) fn sample_period_s(world: &World) -> f64 {
    if world.cfg.obs.sample_period_s > 0.0 {
        world.cfg.obs.sample_period_s
    } else {
        1.0
    }
}

/// The series-name prefix of this world's recorder: empty on a
/// single-channel run, `ch{c}.` on channel `c` of several so the merged
/// table keeps every channel's series distinct.
fn sweep_prefix(world: &World) -> String {
    if world.shard.channels.len() > 1 {
        format!("ch{}.", world.shard.shard_id)
    } else {
        String::new()
    }
}

/// Records a sweep into the recorder's per-window series.
fn record_sweep(rec: &mut MetricsRecorder, s: &GaugeSweep, cut_scale: f64, prefix: &str) {
    rec.sample(&format!("{prefix}queue.pool_prep"), s.pool_prep as f64);
    rec.sample(&format!("{prefix}queue.pool_recv"), s.pool_recv as f64);
    rec.sample(
        &format!("{prefix}queue.peer_endorse"),
        s.peer_endorse as f64,
    );
    rec.sample(&format!("{prefix}queue.peer_vscc"), s.peer_vscc as f64);
    rec.sample(&format!("{prefix}queue.peer_commit"), s.peer_commit as f64);
    rec.sample(&format!("{prefix}queue.osn_cpu"), s.osn_cpu as f64);
    rec.sample(&format!("{prefix}util.peer_vscc"), s.vscc_util);
    rec.sample(&format!("{prefix}util.peer_commit"), s.commit_util);
    rec.sample(&format!("{prefix}inflight.txs"), s.inflight as f64);
    rec.sample(
        &format!("{prefix}blocks.cut_per_tick"),
        s.new_cuts as f64 * cut_scale,
    );
}

/// Closes one health-plane window from a sweep and mirrors the detectors'
/// state into the live plane's gauges (shard 0 only, same rule as
/// [`publish_live`]). No-op when the health plane is off.
fn health_close(world: &mut World, s: &GaugeSweep, t_end_s: f64, width_s: f64) {
    let shard0 = world.shard.shard_id == 0;
    let ObsState { health, live, .. } = &mut world.obs;
    let Some(h) = health.as_mut() else { return };
    h.close_window(&HealthWindow {
        t_end_s,
        width_s,
        busy_s: s.busy_s,
        queue: [
            s.pool_prep as f64,
            s.pool_recv as f64,
            s.peer_endorse as f64,
            s.peer_vscc as f64,
            s.peer_commit as f64,
            s.osn_cpu as f64,
        ],
        servers: s.servers,
        inflight: s.inflight as f64,
    });
    if !shard0 {
        return;
    }
    if let Some(live) = live {
        for (gauge, sev) in live.health_regime.iter().zip(h.severities()) {
            gauge.set(sev as f64);
        }
        live.health_slo_burn.set(h.current_burn());
        for (counter, delta) in live.health_events.iter().zip(h.take_kind_deltas()) {
            counter.add(delta);
        }
    }
}

/// Periodic read-only gauge sweep feeding the [`MetricsRecorder`], the
/// online health plane and the live plane.
pub(super) fn obs_sample(world: &mut World, k: &mut K) {
    let now = k.now();
    let s = sweep_gauges(world, now);
    publish_live(world, now, &s);
    let prefix = sweep_prefix(world);
    if let Some(rec) = world.obs.recorder.as_mut() {
        record_sweep(rec, &s, 1.0, &prefix);
        rec.end_tick();
    }
    let period = sample_period_s(world);
    health_close(world, &s, now.as_secs_f64(), period);
    let period = SimDuration::from_secs_f64(period);
    k.schedule_in_labeled(period, "obs.sample", obs_sample);
}

/// Flushes the final partial window at the horizon. The sampler only fires
/// on whole periods, so a run whose duration is not an exact multiple of the
/// period used to silently drop the tail; this closes the gap with a
/// width-weighted window for both the recorder and the health plane (whose
/// regime dwells must tile the horizon exactly). The cadence series is
/// scaled by `period / width` so its weighted mean stays in
/// blocks-per-period units. A horizon landing exactly on a tick boundary
/// (modulo fp noise) flushes no tail.
pub(super) fn flush_partial_tick(world: &mut World, horizon: SimTime) {
    let duration = world.cfg.duration_secs;
    // One sweep serves every surface (the sweep mutates block-cut
    // bookkeeping, so it must run at most once per virtual instant). It also
    // leaves the live gauges at their horizon values.
    let s = sweep_gauges(world, horizon);
    publish_live(world, horizon, &s);
    if let Some(health) = world.obs.health.as_ref() {
        let period = sample_period_s(world);
        let windows = health.windows();
        let width = duration - windows as f64 * period;
        if width > 1e-9 {
            health_close(world, &s, duration, width.min(period));
        }
        if let Some(h) = world.obs.health.as_mut() {
            h.finish(duration);
        }
    }
    let Some(rec) = world.obs.recorder.as_ref() else {
        return;
    };
    let period = world.cfg.obs.sample_period_s;
    let width = duration - rec.ticks() as f64 * period;
    if width <= 1e-9 {
        return;
    }
    let width = width.min(period);
    let prefix = sweep_prefix(world);
    if let Some(rec) = world.obs.recorder.as_mut() {
        record_sweep(rec, &s, period / width, &prefix);
        rec.end_partial_tick(width);
    }
}
