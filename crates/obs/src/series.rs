//! The periodic sampler's record, and the metrics table built from it.
//!
//! Every sampler period the simulator sweeps each channel world's gauges
//! once and appends one typed [`SampleRow`] to that world's [`Samples`].
//! When the horizon is not a whole number of periods, a final *partial* row
//! carries the remainder's actual width, so width-weighted statistics don't
//! under-report the tail of short runs. Nothing reads the rows while the run
//! is going: after it, [`MetricsRecorder::from_samples`] lays them out as
//! aligned [`TimeSeries`] — sample `i` of every series belongs to the window
//! starting at `i * period_s`, so exports are a plain rectangular table —
//! and [`crate::HealthReport::fold`] folds the same rows into the health
//! plane.

use crate::StationClass;

/// One sampler window of one channel world: the gauges swept at its end.
/// The per-class arrays are in [`StationClass::WIRE`] order. Every field
/// keeps full precision; only the table's CSV and JSON renderings round.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleRow {
    /// Virtual time of the window's end, seconds.
    pub t_end_s: f64,
    /// Width of the window, seconds: the sampler period, or the shorter
    /// horizon remainder for the final partial window.
    pub width_s: f64,
    /// Jobs in system per station class at the window's end.
    pub queue: [f64; 6],
    /// Cumulative busy seconds per station class. Busy time accrues at
    /// submit, so differencing consecutive rows yields the *offered* work per
    /// window, which exceeds `width_s × servers` exactly when the station is
    /// past capacity.
    pub busy_s: [f64; 6],
    /// Provisioned servers per station class.
    pub servers: [f64; 6],
    /// Highest VSCC-stage utilization among the peers.
    pub vscc_util: f64,
    /// Highest commit-stage utilization among the peers.
    pub commit_util: f64,
    /// In-flight transactions at the window's end (Little's-law `L`).
    pub inflight: usize,
    /// Blocks cut during the window.
    pub new_cuts: usize,
    /// Completions recorded by the window's end: the window's own are the
    /// `e2e_s` entries between the previous row's count and this one.
    pub completions: usize,
}

/// Everything one channel world's sampler recorded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Samples {
    /// One row per window, in time order.
    pub rows: Vec<SampleRow>,
    /// Whether the last row is the horizon's partial window.
    pub tail: bool,
    /// End-to-end latency of every committed transaction, seconds, in commit
    /// order. Recorded only when the health plane is on.
    pub e2e_s: Vec<f64>,
}

impl Samples {
    /// The end-to-end latencies of the transactions that committed during
    /// window `i`, in commit order.
    pub(crate) fn completions_in(&self, i: usize) -> &[f64] {
        let from = i.checked_sub(1).map_or(0, |p| self.rows[p].completions);
        &self.e2e_s[from..self.rows[i].completions]
    }
}

/// One named, periodically sampled metric.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    /// Metric name, e.g. `"queue.peer_vscc"`.
    pub name: String,
    /// Sampling period in virtual seconds.
    pub period_s: f64,
    /// Samples; index `i` was taken at virtual time `i * period_s`.
    pub values: Vec<f64>,
    /// Width of the final window when it was cut short by the simulation
    /// horizon (`None` when every window is a full period).
    pub tail_width_s: Option<f64>,
}

impl TimeSeries {
    /// Iterates `(virtual_time_s, value)` points.
    pub fn points(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let period = self.period_s;
        self.values
            .iter()
            .enumerate()
            .map(move |(i, &v)| (i as f64 * period, v))
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }

    /// Width-weighted mean sample (0 when empty): every window weighs its
    /// own duration, so a partial tail contributes proportionally to its
    /// actual width instead of a full period.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let n = self.values.len();
        let tail_w = match self.tail_width_s {
            Some(w) => w,
            None => self.period_s,
        };
        let mut num = 0.0;
        let mut den = 0.0;
        for (i, &v) in self.values.iter().enumerate() {
            let w = if i == n - 1 { tail_w } else { self.period_s };
            num += v * w;
            den += w;
        }
        num / den
    }
}

/// The metrics table of a run: every channel world's sampler rows as
/// aligned, named [`TimeSeries`], built once by
/// [`MetricsRecorder::from_samples`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsRecorder {
    period_s: f64,
    series: Vec<TimeSeries>,
    /// Number of sampled windows.
    ticks: usize,
    /// Width of the final (partial) window, if the horizon cut it short.
    tail_width_s: Option<f64>,
}

impl MetricsRecorder {
    /// Lays out the rows of every channel world, in channel order, as ten
    /// series each: `queue.{class}` per [`StationClass::WIRE`] class,
    /// `util.peer_vscc`, `util.peer_commit`, `inflight.txs` and
    /// `blocks.cut_per_tick`. With several worlds every name of world `c`
    /// carries a `ch{c}.` prefix. The cadence series is scaled by
    /// `period / width`, so a partial tail stays in blocks-per-period units.
    pub fn from_samples(period_s: f64, worlds: &[Samples]) -> MetricsRecorder {
        let first = worlds.first();
        let tail_width_s = first
            .filter(|w| w.tail)
            .and_then(|w| w.rows.last())
            .map(|r| r.width_s);
        let mut series = Vec::with_capacity(10 * worlds.len());
        for (c, w) in worlds.iter().enumerate() {
            let prefix = if worlds.len() > 1 {
                format!("ch{c}.")
            } else {
                String::new()
            };
            let mut push = |name: &str, value: &dyn Fn(&SampleRow) -> f64| {
                series.push(TimeSeries {
                    name: format!("{prefix}{name}"),
                    period_s,
                    values: w.rows.iter().map(value).collect(),
                    tail_width_s,
                });
            };
            for (i, class) in StationClass::WIRE.into_iter().enumerate() {
                let column = class.wire_label().replace('.', "_");
                push(&format!("queue.{column}"), &|r| r.queue[i]);
            }
            push("util.peer_vscc", &|r| r.vscc_util);
            push("util.peer_commit", &|r| r.commit_util);
            push("inflight.txs", &|r| r.inflight as f64);
            push("blocks.cut_per_tick", &|r| {
                r.new_cuts as f64 * (period_s / r.width_s)
            });
        }
        MetricsRecorder {
            period_s,
            series,
            ticks: first.map_or(0, |w| w.rows.len()),
            tail_width_s,
        }
    }

    /// Number of sampled windows (a partial tail counts as one).
    pub fn ticks(&self) -> usize {
        self.ticks
    }

    /// Width of the final partial window, if the run ended mid-window.
    pub fn tail_width_s(&self) -> Option<f64> {
        self.tail_width_s
    }

    /// All series, in channel order and then the order
    /// [`MetricsRecorder::from_samples`] lists.
    pub fn series(&self) -> &[TimeSeries] {
        &self.series
    }

    /// Looks a series up by name.
    pub fn get(&self, name: &str) -> Option<&TimeSeries> {
        self.series.iter().find(|s| s.name == name)
    }

    /// Renders a rectangular CSV: `t_s` column then one column per series.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("t_s");
        for s in &self.series {
            out.push(',');
            out.push_str(&s.name);
        }
        out.push('\n');
        for tick in 0..self.ticks {
            out.push_str(&format!("{:.3}", tick as f64 * self.period_s));
            for s in &self.series {
                out.push_str(&format!(",{:.6}", s.values[tick]));
            }
            out.push('\n');
        }
        out
    }

    /// Renders the table as a JSON object:
    /// `{"period_s":..,"ticks":..[,"tail_width_s":..],"series":{"name":[..],..}}`.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"period_s\":{},\"ticks\":{}", self.period_s, self.ticks);
        if let Some(w) = self.tail_width_s {
            out.push_str(&format!(",\"tail_width_s\":{w}"));
        }
        out.push_str(",\"series\":{");
        for (i, s) in self.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":[", crate::json::escape(&s.name)));
            for (j, v) in s.values.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{v:.6}"));
            }
            out.push(']');
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A window whose pool-prep queue holds `queue` jobs and which cut
    /// `new_cuts` blocks.
    fn row(width_s: f64, queue: f64, new_cuts: usize) -> SampleRow {
        let mut q = [0.0; 6];
        q[0] = queue;
        SampleRow {
            t_end_s: 0.0,
            width_s,
            queue: q,
            busy_s: [0.0; 6],
            servers: [1.0; 6],
            vscc_util: 0.25,
            commit_util: 0.0,
            inflight: 0,
            new_cuts,
            completions: 0,
        }
    }

    fn world(rows: Vec<SampleRow>, tail: bool) -> Samples {
        Samples {
            rows,
            tail,
            e2e_s: Vec::new(),
        }
    }

    #[test]
    fn csv_is_rectangular_with_time_column() {
        let rec = MetricsRecorder::from_samples(
            2.0,
            &[world(vec![row(2.0, 3.0, 1), row(2.0, 5.0, 0)], false)],
        );
        let csv = rec.to_csv();
        let lines: Vec<_> = csv.lines().collect();
        assert_eq!(
            lines[0],
            "t_s,queue.pool_prep,queue.pool_recv,queue.peer_endorse,queue.peer_vscc,\
             queue.peer_commit,queue.osn_cpu,util.peer_vscc,util.peer_commit,\
             inflight.txs,blocks.cut_per_tick"
        );
        assert!(lines[1].starts_with("0.000,3.000000,0.000000"));
        assert!(lines[2].starts_with("2.000,5.000000,0.000000"));
        assert!(lines[1].ends_with(",0.250000,0.000000,0.000000,1.000000"));
        assert_eq!(lines.len(), 3);
    }

    #[test]
    fn json_export_contains_all_series() {
        let rec = MetricsRecorder::from_samples(1.0, &[world(vec![row(1.0, 1.5, 0)], false)]);
        let json = rec.to_json();
        assert!(json.contains("\"period_s\":1"));
        assert!(json.contains("\"queue.pool_prep\":[1.500000]"));
        assert!(!json.contains("tail_width_s"));
        assert_eq!(rec.series().len(), 10);
    }

    #[test]
    fn stats_helpers() {
        let ts = TimeSeries {
            name: "x".into(),
            period_s: 1.0,
            values: vec![1.0, 3.0],
            tail_width_s: None,
        };
        assert_eq!(ts.max(), 3.0);
        assert_eq!(ts.mean(), 2.0);
    }

    #[test]
    fn partial_tail_is_flushed_and_weighted() {
        // Two full 1 s windows then a 0.25 s tail the horizon cut short.
        let rows = vec![row(1.0, 2.0, 0), row(1.0, 4.0, 0), row(0.25, 8.0, 1)];
        let rec = MetricsRecorder::from_samples(1.0, &[world(rows, true)]);
        assert_eq!(rec.ticks(), 3);
        assert_eq!(rec.tail_width_s(), Some(0.25));
        let s = rec.get("queue.pool_prep").unwrap();
        assert_eq!(s.values, vec![2.0, 4.0, 8.0]);
        assert_eq!(s.tail_width_s, Some(0.25));
        // Weighted: (2·1 + 4·1 + 8·0.25) / 2.25, not the naive (2+4+8)/3.
        let want = (2.0 + 4.0 + 8.0 * 0.25) / 2.25;
        assert!((s.mean() - want).abs() < 1e-12, "{} vs {want}", s.mean());
        // One block in a quarter window is four per period.
        let cuts = rec.get("blocks.cut_per_tick").unwrap();
        assert_eq!(cuts.values, vec![0.0, 0.0, 4.0]);
        // The tail row still appears in exports.
        assert_eq!(rec.to_csv().lines().count(), 4);
        assert!(rec.to_json().contains("\"tail_width_s\":0.25"));
    }

    #[test]
    fn channels_are_prefixed_and_kept_in_order() {
        let a = world(vec![row(1.0, 1.0, 0)], false);
        let b = world(vec![row(1.0, 2.0, 0)], false);
        let rec = MetricsRecorder::from_samples(1.0, &[a, b]);
        assert_eq!(rec.series().len(), 20);
        assert_eq!(rec.series()[0].name, "ch0.queue.pool_prep");
        assert_eq!(rec.series()[10].name, "ch1.queue.pool_prep");
        assert_eq!(rec.get("ch1.queue.pool_prep").unwrap().values, [2.0]);
        assert!(rec.get("queue.pool_prep").is_none());
    }

    #[test]
    fn completions_are_split_by_window() {
        let mut w = world(vec![row(1.0, 0.0, 0), row(1.0, 0.0, 0)], false);
        w.e2e_s = vec![0.1, 0.2, 0.3];
        w.rows[0].completions = 2;
        w.rows[1].completions = 3;
        assert_eq!(w.completions_in(0), [0.1, 0.2]);
        assert_eq!(w.completions_in(1), [0.3]);
    }
}
