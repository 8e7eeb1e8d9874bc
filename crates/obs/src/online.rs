//! Health plane: regime detection folded over the sampler's rows after the
//! run.
//!
//! The paper's central observation is that the dominant bottleneck *moves*
//! with offered load (endorse → order → validate as load crosses the knee),
//! yet whole-run aggregates average that movement away. This module
//! recovers the movement from what the sampler recorded: once the run has
//! ended, [`HealthReport::fold`] walks every channel world's [`SampleRow`]s
//! (per-station offered work, queue depth, in-flight count) together with
//! the end-to-end latencies committed in each window, keeps per-station
//! EWMA/CUSUM change-point detectors and classifies each station into a
//! [`Regime`] (`stable` / `saturating` / `overloaded`). Regime transitions,
//! bottleneck-shift onsets, SLO burn-rate breaches and Little's-law
//! self-consistency anomalies are emitted as typed [`HealthEvent`]s into a
//! buffer bounded per channel and rendered as a flat JSONL artifact with run
//! provenance.
//!
//! Everything here is pure `f64` arithmetic over virtual-time inputs, so
//! identical seeds produce byte-identical health timelines, and the fold
//! cannot perturb the run it reads.
//!
//! ## The telescoping contract
//!
//! Regime transitions are stamped at the *start* of the window that first
//! exhibits the new regime, and every window adds its full width to
//! exactly one regime's dwell counter. Per-station regime dwells therefore
//! tile the run horizon exactly: `Σ_regime dwell_s == horizon_s` (to fp
//! noise, checked at 1e-6 by `analyze --health` and CI).

use crate::json::{escape, read_jsonl, Json};
use crate::{RunProvenance, SampleRow, Samples, StationClass};

/// Events each channel keeps; later ones are counted as dropped.
const CAPACITY: usize = 4096;

// Detector tuning, calibrated against the paper's knee experiments. `util`
// is *offered* load per window (service time submitted / capacity), so
// values above 1 mean the station was handed more work than it can drain.

/// EWMA smoothing factor for utilization, queue depth and the Little's-law
/// residual.
const EWMA_ALPHA: f64 = 0.35;
/// CUSUM drift allowance: per-window queue growth (jobs per server)
/// tolerated before the cumulative sum starts climbing.
const CUSUM_K: f64 = 1.0;
/// CUSUM decision threshold (jobs per server of sustained excess growth).
const CUSUM_H: f64 = 32.0;
/// EWMA offered utilization at which a station counts as saturating.
const UTIL_SATURATING: f64 = 0.85;
/// EWMA offered utilization at which a station counts as overloaded.
const UTIL_OVERLOADED: f64 = 1.05;
/// EWMA queue depth (jobs per server) at which a station saturates.
const QUEUE_SATURATING: f64 = 8.0;
/// EWMA queue depth (jobs per server) at which a station is overloaded.
const QUEUE_OVERLOADED: f64 = 64.0;
/// Windowed SLO burn rate (fraction violating / 0.01 error budget) at which
/// a breach event fires.
const BURN_THRESHOLD: f64 = 1.0;
/// Normalized Little's-law residual EWMA above which the self-consistency
/// anomaly fires.
const LITTLE_THRESHOLD: f64 = 0.75;
/// Consecutive calmer windows required before a station steps *down* a
/// regime level (hysteresis against flapping).
const COOLDOWN_WINDOWS: u32 = 3;

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
    /// Channel whose window triggered the event.
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

/// Per-station detector state.
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

    fn raw_class(&self) -> Regime {
        if self.util_ewma >= UTIL_OVERLOADED
            || self.queue_ewma >= QUEUE_OVERLOADED
            || self.cusum >= CUSUM_H
        {
            Regime::Overloaded
        } else if self.util_ewma >= UTIL_SATURATING
            || self.queue_ewma >= QUEUE_SATURATING
            || self.cusum >= CUSUM_H * 0.5
        {
            Regime::Saturating
        } else {
            Regime::Stable
        }
    }

    /// Updates the detector with one window and returns the regime
    /// transition `(from, to)` it triggered, if any. The window's full width
    /// is attributed to the (possibly new) regime, so dwells telescope.
    fn close(
        &mut self,
        busy_s: f64,
        queue: f64,
        servers: f64,
        width_s: f64,
        t_start_s: f64,
    ) -> Option<(Regime, Regime)> {
        let servers = servers.max(1.0);
        let offered = (busy_s - self.prev_busy_s) / (width_s * servers);
        let queue_norm = queue / servers;
        if self.windows == 0 {
            self.util_ewma = offered;
            self.queue_ewma = queue_norm;
        } else {
            self.util_ewma += EWMA_ALPHA * (offered - self.util_ewma);
            self.queue_ewma += EWMA_ALPHA * (queue_norm - self.queue_ewma);
        }
        // One-sided CUSUM over queue *increments*: only sustained growth
        // beyond the drift allowance accumulates; draining resets toward 0.
        self.cusum = (self.cusum + (queue_norm - self.prev_queue_norm) - CUSUM_K).max(0.0);
        self.prev_busy_s = busy_s;
        self.prev_queue_norm = queue_norm;
        self.windows += 1;

        let raw = self.raw_class().severity();
        let cur = self.regime.severity();
        // Step-limited transitions (±1 level per window): a station always
        // passes through `saturating` on its way to `overloaded`, and steps
        // down only after `COOLDOWN_WINDOWS` consecutive calmer windows.
        let next = if raw > cur {
            self.below_streak = 0;
            cur + 1
        } else if raw < cur {
            self.below_streak += 1;
            if self.below_streak >= COOLDOWN_WINDOWS {
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

/// The detectors and counters of one channel while the fold walks its
/// windows.
#[derive(Debug)]
struct ChannelFold {
    channel: u32,
    /// Indexed like [`StationClass::WIRE`].
    stations: [StationDetector; 6],
    windows: u64,
    completions: u64,
    violations: u64,
    burn_windows: u64,
    max_burn: f64,
    burning: bool,
    hottest: Option<usize>,
    little_ewma: f64,
    little_anomalous: bool,
    retained: usize,
    dropped: u64,
}

impl ChannelFold {
    fn new(channel: u32) -> ChannelFold {
        ChannelFold {
            channel,
            stations: std::array::from_fn(|_| StationDetector::new()),
            windows: 0,
            completions: 0,
            violations: 0,
            burn_windows: 0,
            max_burn: 0.0,
            burning: false,
            hottest: None,
            little_ewma: 0.0,
            little_anomalous: false,
            retained: 0,
            dropped: 0,
        }
    }

    /// Appends an event stamped `t_s` to `events`, or counts it as dropped
    /// once this channel has used its share of the buffer.
    fn emit(
        &mut self,
        events: &mut Vec<HealthEvent>,
        t_s: f64,
        kind: HealthEventKind,
        station: &str,
        (from, to): (&str, &str),
        value: f64,
    ) {
        if self.retained >= CAPACITY {
            self.dropped += 1;
            return;
        }
        self.retained += 1;
        events.push(HealthEvent {
            t_s,
            kind,
            channel: self.channel,
            station: station.to_string(),
            from: from.to_string(),
            to: to.to_string(),
            value,
        });
    }

    /// Folds one window — its row and the end-to-end latencies committed
    /// during it, in commit order — into the detectors, the SLO burn tracker
    /// and the Little's-law residual, emitting an event for every edge
    /// crossed. Events are stamped at the window's *start*.
    fn close(
        &mut self,
        w: &SampleRow,
        e2e_s: &[f64],
        slo_p99_s: f64,
        events: &mut Vec<HealthEvent>,
    ) {
        let t0 = w.t_end_s - w.width_s;
        // Per-station regime detection, in fixed station order.
        for (i, class) in StationClass::WIRE.into_iter().enumerate() {
            let transition =
                self.stations[i].close(w.busy_s[i], w.queue[i], w.servers[i], w.width_s, t0);
            if let Some((from, to)) = transition {
                let value = self.stations[i].util_ewma;
                let labels = (from.label(), to.label());
                self.emit(
                    events,
                    t0,
                    HealthEventKind::Regime,
                    class.wire_label(),
                    labels,
                    value,
                );
            }
        }
        // Bottleneck identity: hottest non-stable station by (severity,
        // offered utilization, queue); first index wins ties, so the choice
        // is deterministic.
        let hotter = |b: &StationDetector, a: &StationDetector| {
            let by_severity = b.regime.severity().cmp(&a.regime.severity());
            let by_util = || b.util_ewma.total_cmp(&a.util_ewma);
            let by_queue = || b.queue_ewma.total_cmp(&a.queue_ewma);
            by_severity.then_with(by_util).then_with(by_queue).is_gt()
        };
        let mut hottest: Option<usize> = None;
        for (i, d) in self.stations.iter().enumerate() {
            if d.regime != Regime::Stable && hottest.is_none_or(|j| hotter(d, &self.stations[j])) {
                hottest = Some(i);
            }
        }
        if hottest != self.hottest {
            let name = |o: Option<usize>| o.map_or("-", |i| StationClass::WIRE[i].wire_label());
            let value = hottest.map_or(0.0, |i| self.stations[i].util_ewma);
            let labels = (name(self.hottest), name(hottest));
            self.emit(
                events,
                t0,
                HealthEventKind::Shift,
                name(hottest),
                labels,
                value,
            );
            self.hottest = hottest;
        }
        // SLO burn rate: fraction of this window's completions violating the
        // objective, scaled by a 1% error budget (burn 1.0 = budget-rate).
        let n = e2e_s.len() as u64;
        let viol = e2e_s.iter().filter(|&&e| e > slo_p99_s).count() as u64;
        let lat_sum = e2e_s.iter().fold(0.0, |sum, e| sum + e);
        self.completions += n;
        self.violations += viol;
        let burn = if n > 0 {
            (viol as f64 / n as f64) / 0.01
        } else {
            0.0
        };
        self.max_burn = self.max_burn.max(burn);
        let breaching = burn >= BURN_THRESHOLD;
        if breaching {
            self.burn_windows += 1;
        }
        if breaching != self.burning {
            let label = |b: bool| if b { "burning" } else { "ok" };
            let labels = (label(self.burning), label(breaching));
            self.emit(events, t0, HealthEventKind::SloBurn, "-", labels, burn);
            self.burning = breaching;
        }
        // Little's-law residual |L − λW|, normalized by L: in steady state
        // the identity holds and the residual sits near 0; sustained
        // divergence means the system is non-stationary (or the
        // instrumentation disagrees with itself — the check's real purpose).
        let inflight = w.inflight as f64;
        let lambda = n as f64 / w.width_s;
        let mean_wait = if n > 0 { lat_sum / n as f64 } else { 0.0 };
        let residual = (inflight - lambda * mean_wait).abs() / inflight.max(1.0);
        if self.windows == 0 {
            self.little_ewma = residual;
        } else {
            self.little_ewma += EWMA_ALPHA * (residual - self.little_ewma);
        }
        let anomalous = self.little_ewma >= LITTLE_THRESHOLD;
        if anomalous != self.little_anomalous {
            let label = |a: bool| if a { "anomalous" } else { "ok" };
            let labels = (label(self.little_anomalous), label(anomalous));
            let value = self.little_ewma;
            self.emit(
                events,
                t0,
                HealthEventKind::LittleAnomaly,
                "-",
                labels,
                value,
            );
            self.little_anomalous = anomalous;
        }
        self.windows += 1;
    }
}

/// Final regime state and dwell accounting of one station on one channel.
#[derive(Debug, Clone, PartialEq)]
pub struct StationHealth {
    /// Channel the station belongs to.
    pub channel: u32,
    /// Station label (a [`StationClass::wire_label`]).
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
    /// Number of channels folded into this report.
    pub channels: u32,
    /// Total windows folded, summed over channels.
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
    /// Every retained event, in `(t_s, channel)` order (see
    /// [`HealthReport::fold`]).
    pub events: Vec<HealthEvent>,
    /// Per-channel, per-station final accounting, in channel-major station
    /// order.
    pub stations: Vec<StationHealth>,
}

impl HealthReport {
    /// Folds a finished run's sampler record — one [`Samples`] per channel
    /// world, in channel order — into its health report. Windows are of
    /// `window_s` (the last may be shorter), the dwells tile `horizon_s`,
    /// and SLO burn is measured against `slo_p99_s`.
    ///
    /// The fold is window-major, then channel order. Every channel world
    /// samples at the same instants, so this is the `(t_s, channel)` order,
    /// with one channel's same-window events in detection order. Each window
    /// sums the latencies committed during it in commit order, so the burn
    /// and Little's-law values are exactly those of the window's own
    /// completions. Each channel keeps at most 4 096 events and counts the
    /// rest as dropped.
    pub fn fold(worlds: &[Samples], window_s: f64, horizon_s: f64, slo_p99_s: f64) -> HealthReport {
        let mut folds: Vec<ChannelFold> = (0..worlds.len() as u32).map(ChannelFold::new).collect();
        let mut events = Vec::new();
        let windows = worlds.iter().map(|w| w.rows.len()).max().unwrap_or(0);
        for i in 0..windows {
            for (w, fold) in worlds.iter().zip(&mut folds) {
                if let Some(row) = w.rows.get(i) {
                    fold.close(row, w.completions_in(i), slo_p99_s, &mut events);
                }
            }
        }
        let stations = folds
            .iter()
            .flat_map(|f| {
                f.stations
                    .iter()
                    .zip(StationClass::WIRE)
                    .map(|(d, class)| StationHealth {
                        channel: f.channel,
                        station: class.wire_label().to_string(),
                        regime: d.regime,
                        dwell_s: d.dwell_s,
                        onset_s: d.onset_s,
                    })
            })
            .collect();
        let sum = |field: fn(&ChannelFold) -> u64| folds.iter().map(field).sum();
        HealthReport {
            window_s,
            horizon_s,
            slo_p99_s,
            channels: folds.len() as u32,
            windows: sum(|f| f.windows),
            completions: sum(|f| f.completions),
            slo_violations: sum(|f| f.violations),
            burn_windows: sum(|f| f.burn_windows),
            max_burn: folds.iter().map(|f| f.max_burn).fold(0.0, f64::max),
            dropped_events: sum(|f| f.dropped),
            events,
            stations,
        }
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

    /// The report's records, one JSON object each, in artifact order: the
    /// events, the per-station accounting, then the `"health_summary"`
    /// trailer. They are the report's one encoding: `--health-out` writes
    /// them one per line ([`HealthReport::to_jsonl`]) and `analyze --health
    /// --json` embeds them as its `health` array.
    pub fn records(&self) -> Vec<String> {
        let mut out: Vec<String> = self.events.iter().map(HealthEvent::to_json).collect();
        out.extend(self.stations.iter().map(StationHealth::to_json));
        out.push(format!(
            "{{\"health_summary\":1,\"window_s\":{},\"horizon_s\":{},\"slo_p99_s\":{},\"channels\":{},\"windows\":{},\"completions\":{},\"slo_violations\":{},\"burn_windows\":{},\"max_burn\":{},\"dropped_events\":{}}}",
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

    /// Renders the artifact as a JSONL document: optional provenance line,
    /// then [`HealthReport::records`], one per line.
    pub fn to_jsonl(&self, prov: Option<&RunProvenance>) -> String {
        let mut out = String::new();
        if let Some(p) = prov {
            out.push_str(&p.to_json());
            out.push('\n');
        }
        for record in self.records() {
            out.push_str(&record);
            out.push('\n');
        }
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
        let (prov, records) = read_jsonl(text, |v| Ok(v.clone()))?;
        Ok((prov, HealthReport::from_records(&records)?))
    }

    /// The one decoder of [`HealthReport::records`], given as parsed values:
    /// the lines of a timeline after its provenance header, or the `health`
    /// array `analyze --health --json` embeds.
    pub(crate) fn from_records(records: &[Json]) -> Result<HealthReport, String> {
        let mut events = Vec::new();
        let mut stations = Vec::new();
        let mut report: Option<HealthReport> = None;
        for (i, v) in records.iter().enumerate() {
            let at = |e: String| format!("health record {}: {e}", i + 1);
            if report.is_some() {
                return Err(at(
                    "content after the health_summary trailer (two artifacts concatenated?)".into(),
                ));
            }
            if v.get("station_health").is_some() {
                stations.push(StationHealth::from_value(v).map_err(at)?);
            } else if v.get("health_summary").is_some() {
                report = Some(HealthReport::summary_from_value(v).map_err(at)?);
            } else {
                events.push(HealthEvent::from_value(v).map_err(at)?);
            }
        }
        let report = report.ok_or_else(|| {
            "missing health_summary trailer (truncated health artifact?)".to_string()
        })?;
        Ok(HealthReport {
            events,
            stations,
            ..report
        })
    }

    /// The trailer's summary counters, with no events or stations.
    fn summary_from_value(v: &Json) -> Result<HealthReport, String> {
        Ok(HealthReport {
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
        })
    }

    /// True when `text` is a health JSONL artifact: its last line is the
    /// `"health_summary"` trailer. An `analyze --json` document that embeds
    /// the records is one object and does not match. A cheap sniff used by
    /// `fabricsim diff` before committing to the full parse.
    pub fn sniff(text: &str) -> bool {
        text.contains("\"health_summary\"")
            && text
                .lines()
                .rev()
                .find(|l| !l.trim().is_empty())
                .and_then(|l| Json::parse(l).ok())
                .is_some_and(|v| v.get("health_summary").is_some())
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

    /// Appends the window ending at `t_end` after committing `e2e` in it.
    fn close(
        s: &mut Samples,
        t_end: f64,
        width: f64,
        busy: [f64; 6],
        queue: [f64; 6],
        e2e: &[f64],
    ) {
        s.e2e_s.extend_from_slice(e2e);
        s.rows.push(SampleRow {
            t_end_s: t_end,
            width_s: width,
            queue,
            busy_s: busy,
            servers: [1.0; 6],
            vscc_util: 0.0,
            commit_util: 0.0,
            inflight: queue.iter().sum::<f64>() as usize,
            new_cuts: 0,
            completions: s.e2e_s.len(),
        });
    }

    /// Appends `n` one-second windows of constant per-window offered
    /// utilization and linearly growing queue on station `idx`.
    fn drive(s: &mut Samples, n: usize, idx: usize, util: f64, q_step: f64) {
        let start = s.rows.len() as f64;
        for i in 0..n {
            let t_end = start + i as f64 + 1.0;
            let mut busy = [0.0; 6];
            busy[idx] = util * t_end;
            let mut queue = [0.0; 6];
            queue[idx] = q_step * t_end;
            close(s, t_end, 1.0, busy, queue, &[]);
        }
    }

    /// The report of one channel's windows, up to the last one's end.
    fn fold_with_slo(s: &Samples, slo_p99_s: f64) -> HealthReport {
        let horizon = s.rows.last().map_or(0.0, |r| r.t_end_s);
        HealthReport::fold(std::slice::from_ref(s), 1.0, horizon, slo_p99_s)
    }

    fn fold(s: &Samples) -> HealthReport {
        fold_with_slo(s, 2.0)
    }

    #[test]
    fn overload_ramps_through_saturating() {
        // Offered load 10× capacity, queue growing 100 jobs/window: raw
        // class is overloaded immediately, but the step limiter must emit
        // stable→saturating then saturating→overloaded.
        let mut s = Samples::default();
        drive(&mut s, 5, 3, 10.0, 100.0);
        let report = fold(&s);
        let regimes: Vec<_> = report
            .events
            .iter()
            .filter(|e| e.kind == HealthEventKind::Regime && e.station == "peer.vscc")
            .map(|e| (e.t_s, e.from.clone(), e.to.clone()))
            .collect();
        assert_eq!(regimes.len(), 2, "{:?}", report.events);
        assert_eq!(regimes[0], (0.0, "stable".into(), "saturating".into()));
        assert_eq!(regimes[1], (1.0, "saturating".into(), "overloaded".into()));
        // The bottleneck-shift onset names the station.
        assert!(report
            .events
            .iter()
            .any(|e| e.kind == HealthEventKind::Shift && e.to == "peer.vscc"));
        assert_eq!(report.onset_of("peer.vscc", Regime::Overloaded), Some(1.0));
        assert!(report.telescoping_error() < 1e-9, "{report:?}");
    }

    #[test]
    fn cooldown_hysteresis_limits_flapping() {
        let mut s = Samples::default();
        drive(&mut s, 4, 3, 10.0, 100.0); // drive to overloaded
                                          // EWMA needs a few calm windows to decay below the thresholds, then
                                          // the cooldown gates each downward step for `COOLDOWN_WINDOWS` more.
        drive(&mut s, 30, 3, 0.0, 0.0);
        let events = fold(&s).events;
        let last = events
            .iter()
            .rfind(|e| e.kind == HealthEventKind::Regime && e.station == "peer.vscc")
            .cloned()
            .expect("recovery transition");
        assert_eq!(last.to, "stable");
        // Downward steps are at least `COOLDOWN_WINDOWS` windows apart.
        let downs: Vec<f64> = events
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
        assert!(downs[1] - downs[0] >= COOLDOWN_WINDOWS as f64, "{downs:?}");
    }

    #[test]
    fn dwells_telescope_with_partial_tail() {
        let mut s = Samples::default();
        drive(&mut s, 3, 4, 0.5, 0.0);
        // Final partial window of 0.25 s.
        let mut busy = [0.0; 6];
        busy[4] = 0.5 * 3.25;
        close(&mut s, 3.25, 0.25, busy, [0.0; 6], &[]);
        let report = fold(&s);
        assert_eq!(report.horizon_s, 3.25);
        assert_eq!(report.windows, 4);
        assert!(report.telescoping_error() < 1e-9);
        for s in &report.stations {
            assert_eq!(s.regime, Regime::Stable, "{}", s.station);
            assert_eq!(s.onset_s, [Some(0.0), None, None], "{}", s.station);
        }
    }

    #[test]
    fn timeline_and_json_render_the_report() {
        let mut s = Samples::default();
        drive(&mut s, 5, 3, 10.0, 100.0);
        let report = fold(&s);
        let table = report.render_timeline();
        assert!(table.contains("regime timeline"), "{table}");
        assert!(table.contains("peer.vscc"), "{table}");
        assert!(table.contains("saturating -> overloaded"), "{table}");
        assert!(table.contains("PASS @ 1e-6"), "{table}");
        // The records, embedded as one array, decode to the same report.
        let json = format!("[{}]", report.records().join(","));
        let parsed = Json::parse(&json).expect("self-parse");
        let records = parsed.as_array().expect("an array");
        assert_eq!(
            records.len(),
            report.events.len() + report.stations.len() + 1
        );
        assert_eq!(HealthReport::from_records(records), Ok(report));
    }

    #[test]
    fn slo_burn_events_are_edge_triggered() {
        let mut s = Samples::default();
        let quiet = |s: &mut Samples, t_end: f64, e2e: &[f64]| {
            close(s, t_end, 1.0, [0.0; 6], [0.0; 6], e2e);
        };
        // Window 1: all completions violate → breach fires.
        quiet(&mut s, 1.0, &[2.0, 3.0]);
        // Window 2: still violating → no new event.
        quiet(&mut s, 2.0, &[2.0]);
        // Window 3: clean → recovery event.
        quiet(&mut s, 3.0, &[0.1]);
        let report = fold_with_slo(&s, 0.5);
        let burns: Vec<_> = report
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
        assert_eq!(report.completions, 4);
        assert_eq!(report.slo_violations, 3);
        assert_eq!(report.burn_windows, 2);
        assert!((report.max_burn - 100.0).abs() < 1e-12);
    }

    #[test]
    fn event_buffer_is_bounded() {
        // Overload one station and let it recover, over and over, rotating
        // through the stations, until far more transitions than the buffer
        // holds have fired.
        let mut s = Samples::default();
        for round in 0..1200 {
            drive(&mut s, 4, round % 6, 10.0, 0.0);
            drive(&mut s, 12, round % 6, 0.0, 0.0);
        }
        let one = fold(&s);
        assert_eq!(one.events.len(), CAPACITY);
        assert!(one.dropped_events > 0);
        // The oldest events are the ones kept.
        assert_eq!(one.events[0].t_s, 0.0);
        // Each channel has its own share of the buffer.
        let both = HealthReport::fold(&[s.clone(), s], 1.0, one.horizon_s, 2.0);
        assert_eq!(both.events.len(), 2 * CAPACITY);
        assert_eq!(both.dropped_events, 2 * one.dropped_events);
    }

    #[test]
    fn jsonl_round_trips() {
        let mut s = Samples::default();
        s.e2e_s.push(5.0);
        drive(&mut s, 4, 3, 10.0, 100.0);
        let report = fold(&s);
        assert_eq!(report.completions, 1);
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
        let mut s = Samples::default();
        drive(&mut s, 3, 3, 10.0, 100.0);
        let doc = fold(&s).to_jsonl(None);
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
        // Two channels with different histories: the multi-channel fold
        // must hold exactly each channel's own events, in the stable
        // `(t_s, channel)` order, and concatenate the accounting.
        let mut a = Samples::default();
        drive(&mut a, 4, 3, 10.0, 100.0);
        let mut b = Samples::default();
        drive(&mut b, 4, 0, 0.9, 0.0);
        let merged = HealthReport::fold(&[a.clone(), b.clone()], 1.0, 4.0, 2.0);
        let (ra, mut rb) = (fold(&a), fold(&b));
        for e in &mut rb.events {
            e.channel = 1;
        }
        let mut want: Vec<HealthEvent> = ra.events.iter().chain(&rb.events).cloned().collect();
        want.sort_by(|x, y| x.t_s.total_cmp(&y.t_s).then(x.channel.cmp(&y.channel)));
        assert!(!rb.events.is_empty());
        assert_eq!(merged.events, want);
        assert_eq!(merged.channels, 2);
        assert_eq!(merged.windows, ra.windows + rb.windows);
        assert_eq!(merged.stations.len(), 12);
        assert_eq!(merged.stations[..6], ra.stations[..]);
        assert_eq!(merged.stations[6].channel, 1);
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
