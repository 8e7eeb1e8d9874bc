//! Online health plane: streaming regime detection over the sampler's
//! per-window gauge sweeps.
//!
//! The paper's central observation is that the dominant bottleneck *moves*
//! with offered load (endorse → order → validate as load crosses the knee),
//! yet whole-run aggregates average that movement away. This module watches
//! the run *while it happens*: every sampler window, the simulator feeds one
//! [`HealthWindow`] (per-station offered utilization, queue depth, in-flight
//! count) plus the window's tx completions into an [`OnlineHealth`] engine,
//! which maintains per-station EWMA/CUSUM change-point detectors and
//! classifies each station into a [`Regime`] (`stable` / `saturating` /
//! `overloaded`). Regime transitions, bottleneck-shift onsets, SLO burn-rate
//! breaches and Little's-law self-consistency anomalies are emitted as typed
//! [`HealthEvent`]s into a bounded buffer (mirroring the span-sink idiom) and
//! rendered as a flat JSONL artifact with run provenance.
//!
//! Everything here is pure `f64` arithmetic driven only by virtual-time
//! inputs, so identical seeds produce byte-identical health timelines and a
//! health-attached run is byte-identical to a health-free run (the engine is
//! write-only from the simulation's perspective).
//!
//! ## The telescoping contract
//!
//! Regime transitions are stamped at the *start* of the window that first
//! exhibits the new regime, and every closed window adds its full width to
//! exactly one regime's dwell counter. Per-station regime dwells therefore
//! tile the run horizon exactly: `Σ_regime dwell_s == horizon_s` (to fp
//! noise, checked at 1e-6 by `analyze --health` and CI).

use crate::json::{escape, read_jsonl, Json};
use crate::RunProvenance;

/// Default capacity of the bounded health-event buffer.
pub const DEFAULT_HEALTH_CAPACITY: usize = 4096;

/// Number of station classes the health plane watches.
pub const HEALTH_STATION_COUNT: usize = 6;

/// Dotted wire labels of the watched station classes, in pipeline order.
/// Index `i` of every per-station array in this module refers to
/// `HEALTH_STATIONS[i]`.
pub const HEALTH_STATIONS: [&str; HEALTH_STATION_COUNT] = [
    "pool.prep",
    "pool.recv",
    "peer.endorse",
    "peer.vscc",
    "peer.commit",
    "osn.cpu",
];

/// Load regime of one station over one sampler window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Regime {
    /// Offered load comfortably below capacity; queues bounded.
    Stable,
    /// Approaching the knee: offered load near capacity or a queue is
    /// building faster than the drift allowance.
    Saturating,
    /// Past the knee: offered load exceeds capacity or the queue has grown
    /// past the sustained-backlog threshold.
    Overloaded,
}

impl Regime {
    /// Every regime, in severity order.
    pub const ALL: [Regime; 3] = [Regime::Stable, Regime::Saturating, Regime::Overloaded];

    /// Stable snake_case label used on the wire.
    pub fn label(self) -> &'static str {
        match self {
            Regime::Stable => "stable",
            Regime::Saturating => "saturating",
            Regime::Overloaded => "overloaded",
        }
    }

    /// Inverse of [`Regime::label`].
    pub fn from_label(s: &str) -> Option<Regime> {
        Regime::ALL.into_iter().find(|r| r.label() == s)
    }

    /// Severity index: 0 stable, 1 saturating, 2 overloaded.
    pub fn severity(self) -> usize {
        match self {
            Regime::Stable => 0,
            Regime::Saturating => 1,
            Regime::Overloaded => 2,
        }
    }

    fn from_severity(s: usize) -> Regime {
        match s {
            0 => Regime::Stable,
            1 => Regime::Saturating,
            _ => Regime::Overloaded,
        }
    }
}

impl std::fmt::Display for Regime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The category of a [`HealthEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HealthEventKind {
    /// A station crossed a regime boundary (`from`/`to` are regime labels).
    Regime,
    /// The hottest non-stable station changed identity (`from`/`to` are
    /// station labels, `"-"` for "no bottleneck").
    Shift,
    /// The windowed SLO burn rate crossed the breach threshold (`from`/`to`
    /// are `"ok"` / `"burning"`).
    SloBurn,
    /// The Little's-law residual |L − λW| stopped reconciling — a
    /// self-consistency check on the instrumentation itself (`from`/`to` are
    /// `"ok"` / `"anomalous"`).
    LittleAnomaly,
}

impl HealthEventKind {
    /// Every kind, in wire order.
    pub const ALL: [HealthEventKind; 4] = [
        HealthEventKind::Regime,
        HealthEventKind::Shift,
        HealthEventKind::SloBurn,
        HealthEventKind::LittleAnomaly,
    ];

    /// Stable snake_case label used on the wire.
    pub fn label(self) -> &'static str {
        match self {
            HealthEventKind::Regime => "regime",
            HealthEventKind::Shift => "shift",
            HealthEventKind::SloBurn => "slo_burn",
            HealthEventKind::LittleAnomaly => "little_anomaly",
        }
    }

    /// Inverse of [`HealthEventKind::label`].
    pub fn from_label(s: &str) -> Option<HealthEventKind> {
        HealthEventKind::ALL.into_iter().find(|k| k.label() == s)
    }
}

impl std::fmt::Display for HealthEventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One typed health-plane event, stamped at the start of the window that
/// triggered it.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthEvent {
    /// Virtual time of the start of the triggering window, seconds.
    pub t_s: f64,
    /// Event category.
    pub kind: HealthEventKind,
    /// Channel the emitting engine watches.
    pub channel: u32,
    /// Station the event concerns (`"-"` for channel-level events).
    pub station: String,
    /// Previous state label (regime, station or ok/burning — see
    /// [`HealthEventKind`]).
    pub from: String,
    /// New state label.
    pub to: String,
    /// The detector statistic that triggered the event (EWMA utilization for
    /// regime/shift, burn rate for slo_burn, normalized residual for
    /// little_anomaly).
    pub value: f64,
}

impl HealthEvent {
    /// Serializes the event as one JSON object (no trailing newline).
    /// `t_s` uses 9 decimals (virtual time is integer nanoseconds); `value`
    /// uses shortest-round-trip formatting so the codec is lossless.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"t_s\":{:.9},\"kind\":\"{}\",\"channel\":{},\"station\":\"{}\",\"from\":\"{}\",\"to\":\"{}\",\"value\":{}}}",
            self.t_s,
            self.kind.label(),
            self.channel,
            escape(&self.station),
            escape(&self.from),
            escape(&self.to),
            self.value
        )
    }

    /// Parses one JSONL line produced by [`HealthEvent::to_json`].
    ///
    /// # Errors
    /// A description of the first syntax or schema problem found.
    pub fn from_json(line: &str) -> Result<HealthEvent, String> {
        HealthEvent::from_value(&Json::parse(line)?)
    }

    fn from_value(v: &Json) -> Result<HealthEvent, String> {
        Ok(HealthEvent {
            t_s: v.num("t_s")?,
            kind: HealthEventKind::from_label(v.string("kind")?)
                .ok_or_else(|| "unknown health event kind".to_string())?,
            channel: v.uint("channel")?,
            station: v.string("station")?.to_string(),
            from: v.string("from")?.to_string(),
            to: v.string("to")?.to_string(),
            value: v.num("value")?,
        })
    }
}

/// Detector tuning for the online health engine. The defaults are calibrated
/// against the paper's knee experiments: `util` here is *offered* load per
/// window (service time submitted / capacity), so values above 1 mean the
/// station was handed more work than it can drain.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthConfig {
    /// End-to-end latency objective (p99), seconds.
    pub slo_p99_s: f64,
    /// Bounded event-buffer capacity; overflow increments the drop counter.
    pub capacity: usize,
    /// EWMA smoothing factor for utilization and queue depth.
    pub ewma_alpha: f64,
    /// CUSUM drift allowance: per-window queue growth (jobs per server)
    /// tolerated before the cumulative sum starts climbing.
    pub cusum_k: f64,
    /// CUSUM decision threshold (jobs per server of sustained excess growth).
    pub cusum_h: f64,
    /// EWMA offered utilization at which a station counts as saturating.
    pub util_saturating: f64,
    /// EWMA offered utilization at which a station counts as overloaded.
    pub util_overloaded: f64,
    /// EWMA queue depth (jobs per server) at which a station saturates.
    pub queue_saturating: f64,
    /// EWMA queue depth (jobs per server) at which a station is overloaded.
    pub queue_overloaded: f64,
    /// Windowed SLO burn rate (fraction violating / 0.01 error budget) at
    /// which a breach event fires.
    pub burn_threshold: f64,
    /// Normalized Little's-law residual EWMA above which the
    /// self-consistency anomaly fires.
    pub little_threshold: f64,
    /// Consecutive calmer windows required before a station steps *down* a
    /// regime level (hysteresis against flapping).
    pub cooldown_windows: u32,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            slo_p99_s: 2.0,
            capacity: DEFAULT_HEALTH_CAPACITY,
            ewma_alpha: 0.35,
            cusum_k: 1.0,
            cusum_h: 32.0,
            util_saturating: 0.85,
            util_overloaded: 1.05,
            queue_saturating: 8.0,
            queue_overloaded: 64.0,
            burn_threshold: 1.0,
            little_threshold: 0.75,
            cooldown_windows: 3,
        }
    }
}

impl HealthConfig {
    /// Default tuning with an explicit latency objective.
    pub fn with_slo(slo_p99_s: f64) -> HealthConfig {
        HealthConfig {
            slo_p99_s,
            ..HealthConfig::default()
        }
    }
}

/// One closed sampler window's gauge readings, fed by the simulator. Arrays
/// are indexed by [`HEALTH_STATIONS`] order.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthWindow {
    /// Virtual time of the window's end, seconds.
    pub t_end_s: f64,
    /// Width of the window, seconds (the sampler period, or the shorter
    /// horizon remainder for the final partial window).
    pub width_s: f64,
    /// Cumulative busy seconds per station class (monotone; the engine
    /// differences consecutive windows). Busy time accrues at submit, so the
    /// per-window delta measures *offered* work, which exceeds
    /// `width_s × servers` exactly when the station is past capacity.
    pub busy_s: [f64; HEALTH_STATION_COUNT],
    /// Jobs in system per station class at the window's end.
    pub queue: [f64; HEALTH_STATION_COUNT],
    /// Provisioned servers per station class.
    pub servers: [f64; HEALTH_STATION_COUNT],
    /// In-flight transactions at the window's end (Little's-law `L`).
    pub inflight: f64,
}

/// Per-station streaming detector state.
#[derive(Debug, Clone)]
struct StationDetector {
    prev_busy_s: f64,
    prev_queue_norm: f64,
    util_ewma: f64,
    queue_ewma: f64,
    cusum: f64,
    regime: Regime,
    below_streak: u32,
    windows: u64,
    dwell_s: [f64; 3],
    onset_s: [Option<f64>; 3],
}

impl StationDetector {
    fn new() -> StationDetector {
        StationDetector {
            prev_busy_s: 0.0,
            prev_queue_norm: 0.0,
            util_ewma: 0.0,
            queue_ewma: 0.0,
            cusum: 0.0,
            regime: Regime::Stable,
            below_streak: 0,
            windows: 0,
            dwell_s: [0.0; 3],
            // Every station starts the run stable at t = 0.
            onset_s: [Some(0.0), None, None],
        }
    }

    fn raw_class(&self, cfg: &HealthConfig) -> Regime {
        if self.util_ewma >= cfg.util_overloaded
            || self.queue_ewma >= cfg.queue_overloaded
            || self.cusum >= cfg.cusum_h
        {
            Regime::Overloaded
        } else if self.util_ewma >= cfg.util_saturating
            || self.queue_ewma >= cfg.queue_saturating
            || self.cusum >= cfg.cusum_h * 0.5
        {
            Regime::Saturating
        } else {
            Regime::Stable
        }
    }

    /// Updates the detector with one closed window and returns the regime
    /// transition `(from, to)` it triggered, if any. The window's full width
    /// is attributed to the (possibly new) regime, so dwells telescope.
    fn close(
        &mut self,
        busy_s: f64,
        queue: f64,
        servers: f64,
        width_s: f64,
        t_start_s: f64,
        cfg: &HealthConfig,
    ) -> Option<(Regime, Regime)> {
        let servers = servers.max(1.0);
        let offered = (busy_s - self.prev_busy_s) / (width_s * servers);
        let queue_norm = queue / servers;
        if self.windows == 0 {
            self.util_ewma = offered;
            self.queue_ewma = queue_norm;
        } else {
            self.util_ewma += cfg.ewma_alpha * (offered - self.util_ewma);
            self.queue_ewma += cfg.ewma_alpha * (queue_norm - self.queue_ewma);
        }
        // One-sided CUSUM over queue *increments*: only sustained growth
        // beyond the drift allowance accumulates; draining resets toward 0.
        self.cusum = (self.cusum + (queue_norm - self.prev_queue_norm) - cfg.cusum_k).max(0.0);
        self.prev_busy_s = busy_s;
        self.prev_queue_norm = queue_norm;
        self.windows += 1;

        let raw = self.raw_class(cfg).severity();
        let cur = self.regime.severity();
        // Step-limited transitions (±1 level per window): a station always
        // passes through `saturating` on its way to `overloaded`, and steps
        // down only after `cooldown_windows` consecutive calmer windows.
        let next = if raw > cur {
            self.below_streak = 0;
            cur + 1
        } else if raw < cur {
            self.below_streak += 1;
            if self.below_streak >= cfg.cooldown_windows {
                self.below_streak = 0;
                cur - 1
            } else {
                cur
            }
        } else {
            self.below_streak = 0;
            cur
        };
        let next = Regime::from_severity(next);
        let prev = self.regime;
        self.regime = next;
        self.dwell_s[next.severity()] += width_s;
        if self.onset_s[next.severity()].is_none() {
            self.onset_s[next.severity()] = Some(t_start_s);
        }
        (next != prev).then_some((prev, next))
    }
}

/// The streaming health engine: one per event-loop world, i.e. one per
/// channel.
///
/// Drive it with [`OnlineHealth::observe_completion`] on every committed
/// transaction and [`OnlineHealth::close_window`] on every sampler tick,
/// then [`OnlineHealth::finish`] at the horizon and
/// [`OnlineHealth::into_report`] to extract the artifact.
#[derive(Debug, Clone)]
pub struct OnlineHealth {
    cfg: HealthConfig,
    channel: u32,
    window_hint_s: f64,
    stations: Vec<StationDetector>,
    events: Vec<HealthEvent>,
    dropped: u64,
    windows: u64,
    completions: u64,
    violations: u64,
    burn_windows: u64,
    max_burn: f64,
    burning: bool,
    hottest: Option<usize>,
    little_ewma: f64,
    little_anomalous: bool,
    win_n: u64,
    win_viol: u64,
    win_lat_sum: f64,
    horizon_s: f64,
}

impl OnlineHealth {
    /// Creates an engine for `channel` expecting windows of roughly
    /// `window_hint_s` (recorded in the report; actual widths come from
    /// [`OnlineHealth::close_window`]).
    pub fn new(channel: u32, window_hint_s: f64, cfg: HealthConfig) -> OnlineHealth {
        OnlineHealth {
            cfg,
            channel,
            window_hint_s,
            stations: (0..HEALTH_STATION_COUNT)
                .map(|_| StationDetector::new())
                .collect(),
            events: Vec::new(),
            dropped: 0,
            windows: 0,
            completions: 0,
            violations: 0,
            burn_windows: 0,
            max_burn: 0.0,
            burning: false,
            hottest: None,
            little_ewma: 0.0,
            little_anomalous: false,
            win_n: 0,
            win_viol: 0,
            win_lat_sum: 0.0,
            horizon_s: 0.0,
        }
    }

    /// Windows closed so far (the simulator uses this to size the final
    /// partial window).
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Records one committed transaction's end-to-end latency into the
    /// current window.
    pub fn observe_completion(&mut self, e2e_s: f64) {
        self.win_n += 1;
        self.win_lat_sum += e2e_s;
        if e2e_s > self.cfg.slo_p99_s {
            self.win_viol += 1;
        }
    }

    fn push_event(&mut self, ev: HealthEvent) {
        if self.events.len() >= self.cfg.capacity {
            self.dropped += 1;
            return;
        }
        self.events.push(ev);
    }

    /// Closes one sampler window: updates every station detector, the SLO
    /// burn tracker and the Little's-law residual, emitting events for every
    /// edge crossed. Events are stamped at the window's *start*.
    pub fn close_window(&mut self, w: &HealthWindow) {
        let t0 = w.t_end_s - w.width_s;
        let channel = self.channel;
        // Per-station regime detection, in fixed station order.
        for (i, name) in HEALTH_STATIONS.iter().enumerate() {
            let transition = self.stations[i].close(
                w.busy_s[i],
                w.queue[i],
                w.servers[i],
                w.width_s,
                t0,
                &self.cfg,
            );
            if let Some((from, to)) = transition {
                let value = self.stations[i].util_ewma;
                self.push_event(HealthEvent {
                    t_s: t0,
                    kind: HealthEventKind::Regime,
                    channel,
                    station: (*name).to_string(),
                    from: from.label().to_string(),
                    to: to.label().to_string(),
                    value,
                });
            }
        }
        // Bottleneck identity: hottest non-stable station by (severity,
        // offered utilization, queue); first index wins ties, so the choice
        // is deterministic.
        let mut hottest: Option<usize> = None;
        for (i, d) in self.stations.iter().enumerate() {
            if d.regime == Regime::Stable {
                continue;
            }
            let better = match hottest {
                None => true,
                Some(j) => {
                    let a = &self.stations[j];
                    let key =
                        |s: &StationDetector| (s.regime.severity(), s.util_ewma, s.queue_ewma);
                    let (bs, bu, bq) = key(d);
                    let (as_, au, aq) = key(a);
                    match bs.cmp(&as_) {
                        std::cmp::Ordering::Greater => true,
                        std::cmp::Ordering::Less => false,
                        std::cmp::Ordering::Equal => {
                            matches!(
                                bu.total_cmp(&au).then_with(|| bq.total_cmp(&aq)),
                                std::cmp::Ordering::Greater
                            )
                        }
                    }
                }
            };
            if better {
                hottest = Some(i);
            }
        }
        if hottest != self.hottest {
            let name = |o: Option<usize>| {
                o.map_or_else(|| "-".to_string(), |i| HEALTH_STATIONS[i].to_string())
            };
            let value = hottest.map_or(0.0, |i| self.stations[i].util_ewma);
            self.push_event(HealthEvent {
                t_s: t0,
                kind: HealthEventKind::Shift,
                channel,
                station: name(hottest),
                from: name(self.hottest),
                to: name(hottest),
                value,
            });
            self.hottest = hottest;
        }
        // SLO burn rate: fraction of this window's completions violating the
        // objective, scaled by a 1% error budget (burn 1.0 = budget-rate).
        let (n, viol, lat_sum) = (self.win_n, self.win_viol, self.win_lat_sum);
        self.win_n = 0;
        self.win_viol = 0;
        self.win_lat_sum = 0.0;
        self.completions += n;
        self.violations += viol;
        let burn = if n > 0 {
            (viol as f64 / n as f64) / 0.01
        } else {
            0.0
        };
        self.max_burn = self.max_burn.max(burn);
        let breaching = burn >= self.cfg.burn_threshold;
        if breaching {
            self.burn_windows += 1;
        }
        if breaching != self.burning {
            self.push_event(HealthEvent {
                t_s: t0,
                kind: HealthEventKind::SloBurn,
                channel,
                station: "-".to_string(),
                from: if self.burning { "burning" } else { "ok" }.to_string(),
                to: if breaching { "burning" } else { "ok" }.to_string(),
                value: burn,
            });
            self.burning = breaching;
        }
        // Little's-law residual |L − λW|, normalized by L: in steady state
        // the identity holds and the residual sits near 0; sustained
        // divergence means the system is non-stationary (or the
        // instrumentation disagrees with itself — the check's real purpose).
        let lambda = n as f64 / w.width_s;
        let mean_wait = if n > 0 { lat_sum / n as f64 } else { 0.0 };
        let residual = (w.inflight - lambda * mean_wait).abs() / w.inflight.max(1.0);
        if self.windows == 0 {
            self.little_ewma = residual;
        } else {
            self.little_ewma += self.cfg.ewma_alpha * (residual - self.little_ewma);
        }
        let anomalous = self.little_ewma >= self.cfg.little_threshold;
        if anomalous != self.little_anomalous {
            self.push_event(HealthEvent {
                t_s: t0,
                kind: HealthEventKind::LittleAnomaly,
                channel,
                station: "-".to_string(),
                from: if self.little_anomalous {
                    "anomalous"
                } else {
                    "ok"
                }
                .to_string(),
                to: if anomalous { "anomalous" } else { "ok" }.to_string(),
                value: self.little_ewma,
            });
            self.little_anomalous = anomalous;
        }
        self.windows += 1;
    }

    /// Seals the engine at the run horizon. Call after the final (possibly
    /// partial) window was closed.
    pub fn finish(&mut self, horizon_s: f64) {
        self.horizon_s = horizon_s;
    }

    /// Extracts the report artifact.
    pub fn into_report(self) -> HealthReport {
        let stations = self
            .stations
            .iter()
            .enumerate()
            .map(|(i, d)| StationHealth {
                channel: self.channel,
                station: HEALTH_STATIONS[i].to_string(),
                regime: d.regime,
                dwell_s: d.dwell_s,
                onset_s: d.onset_s,
            })
            .collect();
        HealthReport {
            window_s: self.window_hint_s,
            horizon_s: self.horizon_s,
            slo_p99_s: self.cfg.slo_p99_s,
            channels: 1,
            windows: self.windows,
            completions: self.completions,
            slo_violations: self.violations,
            burn_windows: self.burn_windows,
            max_burn: self.max_burn,
            dropped_events: self.dropped,
            events: self.events,
            stations,
        }
    }
}

/// Final regime state and dwell accounting of one station on one channel.
#[derive(Debug, Clone, PartialEq)]
pub struct StationHealth {
    /// Channel the engine watched.
    pub channel: u32,
    /// Station label (one of [`HEALTH_STATIONS`]).
    pub station: String,
    /// Regime at the horizon.
    pub regime: Regime,
    /// Seconds spent in each regime, indexed by severity. Sums to the run
    /// horizon (the telescoping contract).
    pub dwell_s: [f64; 3],
    /// First time each regime was entered, indexed by severity (`None` if
    /// never entered). `onset_s[0]` is always 0: every station starts
    /// stable.
    pub onset_s: [Option<f64>; 3],
}

impl StationHealth {
    /// Serializes as one flat JSON object (no trailing newline), with a
    /// `"station_health":1` discriminator. Absent onsets are omitted.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"station_health\":1,\"channel\":{},\"station\":\"{}\",\"regime\":\"{}\",\"dwell_stable_s\":{},\"dwell_saturating_s\":{},\"dwell_overloaded_s\":{}",
            self.channel,
            escape(&self.station),
            self.regime.label(),
            self.dwell_s[0],
            self.dwell_s[1],
            self.dwell_s[2]
        );
        for (r, onset) in Regime::ALL.into_iter().zip(self.onset_s) {
            if let Some(t) = onset {
                out.push_str(&format!(",\"onset_{}_s\":{t}", r.label()));
            }
        }
        out.push('}');
        out
    }

    /// Parses one line produced by [`StationHealth::to_json`].
    ///
    /// # Errors
    /// A description of the first syntax or schema problem found.
    pub fn from_json(line: &str) -> Result<StationHealth, String> {
        StationHealth::from_value(&Json::parse(line)?)
    }

    fn from_value(v: &Json) -> Result<StationHealth, String> {
        let regime = v.string("regime")?;
        let mut dwell_s = [0.0; 3];
        let mut onset_s = [None; 3];
        for (i, r) in Regime::ALL.into_iter().enumerate() {
            dwell_s[i] = v.num(&format!("dwell_{}_s", r.label()))?;
            onset_s[i] = v.opt_num(&format!("onset_{}_s", r.label()))?;
        }
        Ok(StationHealth {
            channel: v.uint("channel")?,
            station: v.string("station")?.to_string(),
            regime: Regime::from_label(regime)
                .ok_or_else(|| format!("unknown regime {regime:?}"))?,
            dwell_s,
            onset_s,
        })
    }
}

/// The health-plane artifact of one run: every emitted event plus
/// per-station dwell/onset accounting and channel-level SLO totals.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// Sampler window width, seconds (the final window may be shorter).
    pub window_s: f64,
    /// Run horizon, seconds.
    pub horizon_s: f64,
    /// Latency objective the burn tracker measured against, seconds.
    pub slo_p99_s: f64,
    /// Number of per-channel engines merged into this report.
    pub channels: u32,
    /// Total windows closed across all engines.
    pub windows: u64,
    /// Committed transactions observed.
    pub completions: u64,
    /// Completions that violated the latency objective.
    pub slo_violations: u64,
    /// Windows whose burn rate breached the threshold.
    pub burn_windows: u64,
    /// Worst windowed burn rate seen.
    pub max_burn: f64,
    /// Events lost to the bounded buffer.
    pub dropped_events: u64,
    /// Every retained event, canonically ordered (see
    /// [`HealthReport::sort_events`]).
    pub events: Vec<HealthEvent>,
    /// Per-channel, per-station final accounting, in channel-major station
    /// order.
    pub stations: Vec<StationHealth>,
}

impl HealthReport {
    /// Merges another engine's report into this one (multi-channel runs merge
    /// per-channel reports in channel order, then call
    /// [`HealthReport::sort_events`] once).
    pub fn merge(&mut self, mut other: HealthReport) {
        debug_assert!(
            self.window_s.to_bits() == other.window_s.to_bits(),
            "merging health reports with different window widths"
        );
        self.horizon_s = if other.horizon_s > self.horizon_s {
            other.horizon_s
        } else {
            self.horizon_s
        };
        self.channels += other.channels;
        self.windows += other.windows;
        self.completions += other.completions;
        self.slo_violations += other.slo_violations;
        self.burn_windows += other.burn_windows;
        self.max_burn = self.max_burn.max(other.max_burn);
        self.dropped_events += other.dropped_events;
        self.events.append(&mut other.events);
        self.stations.append(&mut other.stations);
    }

    /// Restores canonical event order after merging: `(t_s, channel)`,
    /// stable, so same-window events keep each engine's deterministic
    /// emission order and the merged stream is identical at every worker
    /// count.
    pub fn sort_events(&mut self) {
        self.events
            .sort_by(|a, b| a.t_s.total_cmp(&b.t_s).then(a.channel.cmp(&b.channel)));
    }

    /// Largest per-station violation of the telescoping contract:
    /// `max |Σ dwell − horizon|` over stations (0 when empty).
    pub fn telescoping_error(&self) -> f64 {
        self.stations
            .iter()
            .map(|s| (s.dwell_s.iter().sum::<f64>() - self.horizon_s).abs())
            .fold(0.0, f64::max)
    }

    /// Earliest onset of `regime` for `station`, across channels.
    pub fn onset_of(&self, station: &str, regime: Regime) -> Option<f64> {
        self.stations
            .iter()
            .filter(|s| s.station == station)
            .filter_map(|s| s.onset_s[regime.severity()])
            .min_by(|a, b| a.total_cmp(b))
    }

    /// Renders the artifact as a JSONL document: optional provenance line,
    /// events, per-station accounting, and a `"health_summary":1` trailer.
    pub fn to_jsonl(&self, prov: Option<&RunProvenance>) -> String {
        let mut out = String::new();
        if let Some(p) = prov {
            out.push_str(&p.to_json());
            out.push('\n');
        }
        for ev in &self.events {
            out.push_str(&ev.to_json());
            out.push('\n');
        }
        for st in &self.stations {
            out.push_str(&st.to_json());
            out.push('\n');
        }
        out.push_str(&format!(
            "{{\"health_summary\":1,\"window_s\":{},\"horizon_s\":{},\"slo_p99_s\":{},\"channels\":{},\"windows\":{},\"completions\":{},\"slo_violations\":{},\"burn_windows\":{},\"max_burn\":{},\"dropped_events\":{}}}\n",
            self.window_s,
            self.horizon_s,
            self.slo_p99_s,
            self.channels,
            self.windows,
            self.completions,
            self.slo_violations,
            self.burn_windows,
            self.max_burn,
            self.dropped_events
        ));
        out
    }

    /// Parses a JSONL document produced by [`HealthReport::to_jsonl`],
    /// returning the embedded provenance (if any) alongside the report. A
    /// document without its `"health_summary"` trailer is truncated and
    /// rejected.
    ///
    /// # Errors
    /// The line number and description of the first bad line, or a
    /// truncation diagnosis.
    pub fn from_jsonl(text: &str) -> Result<(Option<RunProvenance>, HealthReport), String> {
        let mut events = Vec::new();
        let mut stations = Vec::new();
        let mut report: Option<HealthReport> = None;
        // Three record kinds and a trailer rule: the closure files each line
        // itself, so the reader's own list stays empty.
        let (prov, _) = read_jsonl(text, |v| {
            if report.is_some() {
                return Err(
                    "content after the health_summary trailer (two artifacts concatenated?)".into(),
                );
            }
            if v.get("station_health").is_some() {
                stations.push(StationHealth::from_value(v)?);
            } else if v.get("health_summary").is_some() {
                report = Some(HealthReport {
                    window_s: v.num("window_s")?,
                    horizon_s: v.num("horizon_s")?,
                    slo_p99_s: v.num("slo_p99_s")?,
                    channels: v.uint("channels")?,
                    windows: v.uint("windows")?,
                    completions: v.uint("completions")?,
                    slo_violations: v.uint("slo_violations")?,
                    burn_windows: v.uint("burn_windows")?,
                    max_burn: v.num("max_burn")?,
                    dropped_events: v.uint("dropped_events")?,
                    events: Vec::new(),
                    stations: Vec::new(),
                });
            } else {
                events.push(HealthEvent::from_value(v)?);
            }
            Ok(())
        })?;
        let report = report.ok_or_else(|| {
            "missing health_summary trailer (truncated health artifact?)".to_string()
        })?;
        Ok((
            prov,
            HealthReport {
                events,
                stations,
                ..report
            },
        ))
    }

    /// True when `text` looks like a health JSONL artifact (cheap sniff used
    /// by `fabricsim diff` before committing to the full parse).
    pub fn sniff(text: &str) -> bool {
        text.contains("\"health_summary\"")
    }

    /// Single-document JSON form (what `analyze --json` embeds), as opposed
    /// to the JSONL artifact: summary counters, the telescoping error, the
    /// full event stream and the per-station accounting.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"window_s\":{},\"horizon_s\":{},\"slo_p99_s\":{},\"channels\":{},\"windows\":{},\"completions\":{},\"slo_violations\":{},\"burn_windows\":{},\"max_burn\":{},\"dropped_events\":{},\"telescoping_error_s\":{}",
            self.window_s,
            self.horizon_s,
            self.slo_p99_s,
            self.channels,
            self.windows,
            self.completions,
            self.slo_violations,
            self.burn_windows,
            self.max_burn,
            self.dropped_events,
            self.telescoping_error()
        );
        out.push_str(",\"events\":[");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&ev.to_json());
        }
        out.push_str("],\"stations\":[");
        for (i, st) in self.stations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&st.to_json());
        }
        out.push_str("]}");
        out
    }

    /// Human-readable regime timeline: run header, the event stream, then
    /// the per-station dwell/onset table with the telescoping verdict
    /// (durations must tile the horizon within 1e-6 s).
    pub fn render_timeline(&self) -> String {
        use std::fmt::Write as _;
        const TOP: usize = 48;
        let mut out = String::new();
        let _ = writeln!(out, "== health: regime timeline ==");
        let _ = writeln!(
            out,
            "run        : horizon {:.3}s, window {:.3}s, SLO p99 {:.3}s, {} channel(s)",
            self.horizon_s, self.window_s, self.slo_p99_s, self.channels
        );
        let _ = writeln!(
            out,
            "slo        : {} of {} completions violated; {} burn window(s), max burn {:.2}x",
            self.slo_violations, self.completions, self.burn_windows, self.max_burn
        );
        let _ = writeln!(
            out,
            "events     : {} retained, {} dropped",
            self.events.len(),
            self.dropped_events
        );
        for ev in self.events.iter().take(TOP) {
            let _ = writeln!(
                out,
                "{:>10.3}s  ch{} {:<14} {:<14} {} -> {}  ({:.3})",
                ev.t_s,
                ev.channel,
                ev.kind.label(),
                ev.station,
                ev.from,
                ev.to,
                ev.value
            );
        }
        if self.events.len() > TOP {
            let _ = writeln!(
                out,
                "... {} later event(s) omitted (see --json)",
                self.events.len() - TOP
            );
        }
        let _ = writeln!(
            out,
            "{:<16} {:>3} {:<11} {:>10} {:>11} {:>11} {:>10} {:>10}",
            "station",
            "ch",
            "final",
            "stable_s",
            "saturat_s",
            "overload_s",
            "onset_sat",
            "onset_over"
        );
        let onset = |o: Option<f64>| o.map_or_else(|| "-".to_string(), |t| format!("{t:.3}"));
        for s in &self.stations {
            let _ = writeln!(
                out,
                "{:<16} {:>3} {:<11} {:>10.3} {:>11.3} {:>11.3} {:>10} {:>10}",
                s.station,
                s.channel,
                s.regime.label(),
                s.dwell_s[0],
                s.dwell_s[1],
                s.dwell_s[2],
                onset(s.onset_s[1]),
                onset(s.onset_s[2])
            );
        }
        let err = self.telescoping_error();
        let verdict = if err <= 1e-6 { "PASS" } else { "FAIL" };
        let _ = writeln!(
            out,
            "telescoping: max |Σ dwell − horizon| = {err:.3e}s ({verdict} @ 1e-6)"
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(t_end: f64, width: f64, busy: [f64; 6], queue: [f64; 6]) -> HealthWindow {
        HealthWindow {
            t_end_s: t_end,
            width_s: width,
            busy_s: busy,
            queue,
            servers: [1.0; 6],
            inflight: queue.iter().sum(),
        }
    }

    /// Feeds `n` windows of constant per-window offered utilization and
    /// linearly growing queue on station `idx`.
    fn drive(h: &mut OnlineHealth, n: usize, idx: usize, util: f64, q_step: f64) {
        let start = h.windows() as f64;
        for i in 0..n {
            let t_end = start + i as f64 + 1.0;
            let mut busy = [0.0; 6];
            busy[idx] = util * t_end;
            let mut queue = [0.0; 6];
            queue[idx] = q_step * t_end;
            h.close_window(&window(t_end, 1.0, busy, queue));
        }
    }

    #[test]
    fn overload_ramps_through_saturating() {
        let mut h = OnlineHealth::new(0, 1.0, HealthConfig::default());
        // Offered load 10× capacity, queue growing 100 jobs/window: raw
        // class is overloaded immediately, but the step limiter must emit
        // stable→saturating then saturating→overloaded.
        drive(&mut h, 5, 3, 10.0, 100.0);
        let regimes: Vec<_> = h
            .events
            .iter()
            .filter(|e| e.kind == HealthEventKind::Regime && e.station == "peer.vscc")
            .map(|e| (e.t_s, e.from.clone(), e.to.clone()))
            .collect();
        assert_eq!(regimes.len(), 2, "{:?}", h.events);
        assert_eq!(regimes[0], (0.0, "stable".into(), "saturating".into()));
        assert_eq!(regimes[1], (1.0, "saturating".into(), "overloaded".into()));
        // The bottleneck-shift onset names the station.
        assert!(h
            .events
            .iter()
            .any(|e| e.kind == HealthEventKind::Shift && e.to == "peer.vscc"));
        let report = {
            let mut h = h;
            h.finish(5.0);
            h.into_report()
        };
        assert_eq!(report.onset_of("peer.vscc", Regime::Overloaded), Some(1.0));
        assert!(report.telescoping_error() < 1e-9, "{report:?}");
    }

    #[test]
    fn cooldown_hysteresis_limits_flapping() {
        let cfg = HealthConfig::default();
        let cooldown = cfg.cooldown_windows as usize;
        let mut h = OnlineHealth::new(0, 1.0, cfg);
        drive(&mut h, 4, 3, 10.0, 100.0); // drive to overloaded
                                          // EWMA needs a few calm windows to decay below the thresholds, then
                                          // the cooldown gates each downward step for `cooldown` more windows.
        drive(&mut h, 30, 3, 0.0, 0.0);
        let last = h
            .events
            .iter()
            .rfind(|e| e.kind == HealthEventKind::Regime && e.station == "peer.vscc")
            .cloned()
            .expect("recovery transition");
        assert_eq!(last.to, "stable");
        // Downward steps are at least `cooldown` windows apart.
        let downs: Vec<f64> = h
            .events
            .iter()
            .filter(|e| {
                e.kind == HealthEventKind::Regime
                    && e.station == "peer.vscc"
                    && Regime::from_label(&e.to).unwrap().severity()
                        < Regime::from_label(&e.from).unwrap().severity()
            })
            .map(|e| e.t_s)
            .collect();
        assert_eq!(downs.len(), 2, "{downs:?}");
        assert!(downs[1] - downs[0] >= cooldown as f64, "{downs:?}");
    }

    #[test]
    fn dwells_telescope_with_partial_tail() {
        let mut h = OnlineHealth::new(0, 1.0, HealthConfig::default());
        drive(&mut h, 3, 4, 0.5, 0.0);
        // Final partial window of 0.25 s.
        let mut busy = [0.0; 6];
        busy[4] = 0.5 * 3.25;
        h.close_window(&window(3.25, 0.25, busy, [0.0; 6]));
        h.finish(3.25);
        let report = h.into_report();
        assert_eq!(report.windows, 4);
        assert!(report.telescoping_error() < 1e-9);
        for s in &report.stations {
            assert_eq!(s.regime, Regime::Stable, "{}", s.station);
            assert_eq!(s.onset_s, [Some(0.0), None, None], "{}", s.station);
        }
    }

    #[test]
    fn timeline_and_json_render_the_report() {
        let mut h = OnlineHealth::new(0, 1.0, HealthConfig::default());
        drive(&mut h, 5, 3, 10.0, 100.0);
        h.finish(5.0);
        let report = h.into_report();
        let table = report.render_timeline();
        assert!(table.contains("regime timeline"), "{table}");
        assert!(table.contains("peer.vscc"), "{table}");
        assert!(table.contains("saturating -> overloaded"), "{table}");
        assert!(table.contains("PASS @ 1e-6"), "{table}");
        let json = report.to_json();
        assert!(json.contains("\"telescoping_error_s\":"), "{json}");
        let parsed = crate::json::Json::parse(&json).expect("self-parse");
        assert!(parsed.get("stations").is_some());
        assert!(parsed.get("events").is_some());
    }

    #[test]
    fn slo_burn_events_are_edge_triggered() {
        let mut h = OnlineHealth::new(0, 1.0, HealthConfig::with_slo(0.5));
        // Window 1: all completions violate → breach fires.
        h.observe_completion(2.0);
        h.observe_completion(3.0);
        h.close_window(&window(1.0, 1.0, [0.0; 6], [0.0; 6]));
        // Window 2: still violating → no new event.
        h.observe_completion(2.0);
        h.close_window(&window(2.0, 1.0, [0.0; 6], [0.0; 6]));
        // Window 3: clean → recovery event.
        h.observe_completion(0.1);
        h.close_window(&window(3.0, 1.0, [0.0; 6], [0.0; 6]));
        let burns: Vec<_> = h
            .events
            .iter()
            .filter(|e| e.kind == HealthEventKind::SloBurn)
            .map(|e| (e.from.clone(), e.to.clone()))
            .collect();
        assert_eq!(
            burns,
            vec![
                ("ok".to_string(), "burning".to_string()),
                ("burning".to_string(), "ok".to_string())
            ]
        );
        let report = {
            let mut h = h;
            h.finish(3.0);
            h.into_report()
        };
        assert_eq!(report.completions, 4);
        assert_eq!(report.slo_violations, 3);
        assert_eq!(report.burn_windows, 2);
        assert!((report.max_burn - 100.0).abs() < 1e-12);
    }

    #[test]
    fn event_buffer_is_bounded() {
        let cfg = HealthConfig {
            capacity: 3,
            ..HealthConfig::default()
        };
        let mut h = OnlineHealth::new(0, 1.0, cfg);
        // Alternate every station between overload and recovery to spray
        // transitions past the cap.
        for round in 0..20 {
            let hot = round % 2 == 0;
            let util = if hot { 10.0 } else { 0.0 };
            drive(&mut h, 4, round % 6, util, 0.0);
        }
        assert_eq!(h.events.len(), 3);
        let dropped = h.dropped;
        assert!(dropped > 0);
        h.finish(80.0);
        let report = h.into_report();
        assert_eq!(report.dropped_events, dropped);
    }

    #[test]
    fn jsonl_round_trips() {
        let mut h = OnlineHealth::new(2, 1.0, HealthConfig::default());
        h.observe_completion(5.0);
        drive(&mut h, 4, 3, 10.0, 100.0);
        h.finish(4.0);
        let report = h.into_report();
        let prov = RunProvenance {
            seed: 42,
            config_digest: "feedface00112233".into(),
        };
        let doc = report.to_jsonl(Some(&prov));
        let (p, back) = HealthReport::from_jsonl(&doc).expect("parses");
        assert_eq!(p, Some(prov));
        assert_eq!(back, report);
        assert!(HealthReport::sniff(&doc));
        // Headerless documents parse with no provenance.
        let (p, back2) = HealthReport::from_jsonl(&report.to_jsonl(None)).expect("parses");
        assert_eq!(p, None);
        assert_eq!(back2, report);
    }

    #[test]
    fn truncated_documents_are_rejected_not_panicked() {
        let mut h = OnlineHealth::new(0, 1.0, HealthConfig::default());
        drive(&mut h, 3, 3, 10.0, 100.0);
        h.finish(3.0);
        let doc = h.into_report().to_jsonl(None);
        // Drop the trailer: truncation must be diagnosed.
        let no_trailer: String = doc
            .lines()
            .filter(|l| !l.contains("health_summary"))
            .map(|l| format!("{l}\n"))
            .collect();
        let err = HealthReport::from_jsonl(&no_trailer).expect_err("truncated");
        assert!(err.contains("truncated"), "{err}");
        // Byte-level truncation mid-line fails with a line diagnosis.
        for cut in [doc.len() / 4, doc.len() / 2, doc.len() - 2] {
            if let Some(prefix) = doc.get(..cut) {
                assert!(
                    HealthReport::from_jsonl(prefix).is_err(),
                    "cut at {cut} should fail"
                );
            }
        }
        assert!(HealthReport::from_jsonl("").is_err());
        // Trailing content after the trailer is two artifacts concatenated.
        let twice = format!("{doc}{doc}");
        assert!(HealthReport::from_jsonl(&twice)
            .expect_err("concatenated")
            .contains("after the health_summary"));
    }

    #[test]
    fn merge_is_canonical() {
        let mk = |channel: u32, util: f64| {
            let mut h = OnlineHealth::new(channel, 1.0, HealthConfig::default());
            drive(&mut h, 4, 3, util, 0.0);
            h.finish(4.0);
            h.into_report()
        };
        let a = mk(0, 10.0);
        let b = mk(1, 10.0);
        let mut merged = a.clone();
        merged.merge(b.clone());
        merged.sort_events();
        assert_eq!(merged.channels, 2);
        assert_eq!(merged.windows, a.windows + b.windows);
        assert_eq!(merged.stations.len(), 12);
        // Same-timestamp events order by channel.
        let ts: Vec<(f64, u32)> = merged.events.iter().map(|e| (e.t_s, e.channel)).collect();
        let mut sorted = ts.clone();
        sorted.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
        assert_eq!(ts, sorted);
        assert!(merged.telescoping_error() < 1e-9);
    }

    #[test]
    fn labels_round_trip() {
        for r in Regime::ALL {
            assert_eq!(Regime::from_label(r.label()), Some(r));
            assert_eq!(Regime::from_severity(r.severity()), r);
        }
        for k in HealthEventKind::ALL {
            assert_eq!(HealthEventKind::from_label(k.label()), Some(k));
        }
        assert_eq!(Regime::from_label("melting"), None);
    }

    #[test]
    fn event_codec_rejects_bad_lines() {
        assert!(HealthEvent::from_json("not json").is_err());
        assert!(HealthEvent::from_json("{}").is_err());
        assert!(HealthEvent::from_json(
            r#"{"t_s":1,"kind":"warp","channel":0,"station":"s","from":"a","to":"b","value":0}"#
        )
        .is_err());
        assert!(StationHealth::from_json("{}").is_err());
        assert!(StationHealth::from_json(
            r#"{"station_health":1,"channel":0,"station":"s","regime":"warp","dwell_stable_s":0,"dwell_saturating_s":0,"dwell_overloaded_s":0}"#
        )
        .is_err());
    }
}
