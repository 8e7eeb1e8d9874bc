//! Windowed time-series metrics sampled on the virtual clock.
//!
//! A [`MetricsRecorder`] is driven by a periodic sampler event inside the
//! simulation: every `period_s` virtual seconds the simulator reads whatever
//! gauges it cares about (queue depths, utilization, in-flight transactions)
//! and calls [`MetricsRecorder::sample`]. Series are aligned — sample `i` of
//! every series was taken at virtual time `i * period_s` — so exports are a
//! plain rectangular table.
//!
//! When the simulation horizon is not a whole number of periods, the final
//! *partial* window is flushed with [`MetricsRecorder::end_partial_tick`] and
//! carries its actual width, so width-weighted statistics don't under-report
//! the tail of short runs.

use std::collections::HashMap;

/// One named, periodically sampled metric.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    /// Metric name, e.g. `"peer0.validate.queue_depth"`.
    pub name: String,
    /// Sampling period in virtual seconds.
    pub period_s: f64,
    /// Samples; index `i` was taken at virtual time `i * period_s`.
    pub values: Vec<f64>,
    /// Width of the final window when it was cut short by the simulation
    /// horizon (`None` when every window is a full period). Set by
    /// [`MetricsRecorder::end_partial_tick`].
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
    /// own duration, so a flushed partial tail contributes proportionally to
    /// its actual width instead of a full period.
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

/// Collects aligned [`TimeSeries`] as the simulation's sampler fires.
///
/// Series are created lazily on first [`sample`](MetricsRecorder::sample) and
/// keep their first-touch order, so exports are deterministic for a
/// deterministic simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsRecorder {
    period_s: f64,
    series: Vec<TimeSeries>,
    index: HashMap<String, usize>,
    /// Number of completed sampling ticks.
    ticks: usize,
    /// Width of the final (partial) tick, once flushed.
    tail_width_s: Option<f64>,
}

impl MetricsRecorder {
    /// Creates a recorder sampling every `period_s` virtual seconds.
    ///
    /// # Panics
    /// Panics unless `period_s` is positive and finite.
    pub fn new(period_s: f64) -> Self {
        assert!(
            period_s > 0.0 && period_s.is_finite(),
            "invalid sample period"
        );
        MetricsRecorder {
            period_s,
            series: Vec::new(),
            index: HashMap::new(),
            ticks: 0,
            tail_width_s: None,
        }
    }

    /// Sampling period in virtual seconds.
    pub fn period_s(&self) -> f64 {
        self.period_s
    }

    /// Number of completed sampling ticks (a flushed partial tail counts as
    /// one tick).
    pub fn ticks(&self) -> usize {
        self.ticks
    }

    /// Width of the flushed final partial window, if the run ended mid-window
    /// (see [`MetricsRecorder::end_partial_tick`]).
    pub fn tail_width_s(&self) -> Option<f64> {
        self.tail_width_s
    }

    /// Records `value` for `name` at the current tick. A series that first
    /// appears mid-run is back-filled with zeros so all series stay aligned.
    pub fn sample(&mut self, name: &str, value: f64) {
        let idx = match self.index.get(name) {
            Some(&i) => i,
            None => {
                let i = self.series.len();
                self.series.push(TimeSeries {
                    name: name.to_string(),
                    period_s: self.period_s,
                    values: vec![0.0; self.ticks],
                    tail_width_s: None,
                });
                self.index.insert(name.to_string(), i);
                i
            }
        };
        let s = &mut self.series[idx];
        // Tolerate multiple samples per tick by keeping the latest.
        if s.values.len() > self.ticks {
            s.values[self.ticks] = value;
        } else {
            while s.values.len() < self.ticks {
                s.values.push(0.0);
            }
            s.values.push(value);
        }
    }

    /// Marks the end of one sampling tick; series not sampled this tick are
    /// padded with zero so indices keep meaning "tick number".
    pub fn end_tick(&mut self) {
        assert!(
            self.tail_width_s.is_none(),
            "end_tick after the partial tail was flushed"
        );
        self.ticks += 1;
        for s in &mut self.series {
            while s.values.len() < self.ticks {
                s.values.push(0.0);
            }
        }
    }

    /// Flushes the final *partial* window: like [`MetricsRecorder::end_tick`]
    /// but records that this last window spans only `width_s` virtual
    /// seconds (the remainder of the horizon), so width-weighted statistics
    /// treat it proportionally. Call at most once, as the last tick of the
    /// run.
    ///
    /// # Panics
    /// Panics unless `0 < width_s ≤ period_s`, or if a tail was already
    /// flushed.
    pub fn end_partial_tick(&mut self, width_s: f64) {
        assert!(
            width_s > 0.0 && width_s <= self.period_s && width_s.is_finite(),
            "partial tick width {width_s} outside (0, {}]",
            self.period_s
        );
        self.end_tick();
        self.tail_width_s = Some(width_s);
        for s in &mut self.series {
            s.tail_width_s = Some(width_s);
        }
    }

    /// Appends every series of `other` into this recorder, preserving
    /// `other`'s first-touch order. Used to merge the per-channel recorders
    /// of a multi-channel run into one rectangular table: every channel
    /// world samples on the same virtual cadence, so the merged table stays
    /// aligned.
    ///
    /// Series names must be disjoint (channel recorders prefix theirs with
    /// `ch{c}.`); a duplicate name is skipped under a debug assertion.
    ///
    /// # Panics
    /// Panics (debug builds) when the cadence or tick counts disagree.
    pub fn absorb(&mut self, other: &MetricsRecorder) {
        debug_assert!(
            self.period_s.to_bits() == other.period_s.to_bits(),
            "absorb: sampler cadence mismatch ({} vs {})",
            self.period_s,
            other.period_s
        );
        debug_assert_eq!(self.ticks, other.ticks, "absorb: tick count mismatch");
        for s in &other.series {
            if self.index.contains_key(&s.name) {
                debug_assert!(false, "absorb: duplicate series `{}`", s.name);
                continue;
            }
            self.index.insert(s.name.clone(), self.series.len());
            self.series.push(s.clone());
        }
    }

    /// All series, in first-touch order.
    pub fn series(&self) -> &[TimeSeries] {
        &self.series
    }

    /// Looks a series up by name.
    pub fn get(&self, name: &str) -> Option<&TimeSeries> {
        self.index.get(name).map(|&i| &self.series[i])
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
                out.push_str(&format!(
                    ",{:.6}",
                    s.values.get(tick).copied().unwrap_or(0.0)
                ));
            }
            out.push('\n');
        }
        out
    }

    /// Renders the recorder as a JSON object:
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

    #[test]
    fn series_align_even_when_created_mid_run() {
        let mut rec = MetricsRecorder::new(0.5);
        rec.sample("a", 1.0);
        rec.end_tick();
        rec.sample("a", 2.0);
        rec.sample("b", 9.0); // first appears on tick 1
        rec.end_tick();
        rec.end_tick(); // nobody sampled on tick 2
        assert_eq!(rec.ticks(), 3);
        assert_eq!(rec.get("a").unwrap().values, vec![1.0, 2.0, 0.0]);
        assert_eq!(rec.get("b").unwrap().values, vec![0.0, 9.0, 0.0]);
        let pts: Vec<_> = rec.get("b").unwrap().points().collect();
        assert_eq!(pts, vec![(0.0, 0.0), (0.5, 9.0), (1.0, 0.0)]);
    }

    #[test]
    fn repeated_samples_within_a_tick_keep_latest() {
        let mut rec = MetricsRecorder::new(1.0);
        rec.sample("x", 1.0);
        rec.sample("x", 4.0);
        rec.end_tick();
        assert_eq!(rec.get("x").unwrap().values, vec![4.0]);
    }

    #[test]
    fn csv_is_rectangular_with_time_column() {
        let mut rec = MetricsRecorder::new(2.0);
        rec.sample("q", 3.0);
        rec.end_tick();
        rec.sample("q", 5.0);
        rec.sample("u", 0.25);
        rec.end_tick();
        let csv = rec.to_csv();
        let lines: Vec<_> = csv.lines().collect();
        assert_eq!(lines[0], "t_s,q,u");
        assert!(lines[1].starts_with("0.000,3.000000,0.000000"));
        assert!(lines[2].starts_with("2.000,5.000000,0.250000"));
    }

    #[test]
    fn json_export_contains_all_series() {
        let mut rec = MetricsRecorder::new(1.0);
        rec.sample("a", 1.5);
        rec.end_tick();
        let json = rec.to_json();
        assert!(json.contains("\"period_s\":1"));
        assert!(json.contains("\"a\":[1.500000]"));
        assert!(!json.contains("tail_width_s"));
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
        let mut rec = MetricsRecorder::new(1.0);
        rec.sample("q", 2.0);
        rec.end_tick();
        rec.sample("q", 4.0);
        rec.end_tick();
        rec.sample("q", 8.0);
        rec.end_partial_tick(0.25);
        assert_eq!(rec.ticks(), 3);
        assert_eq!(rec.tail_width_s(), Some(0.25));
        let s = rec.get("q").unwrap();
        assert_eq!(s.values, vec![2.0, 4.0, 8.0]);
        // Weighted: (2·1 + 4·1 + 8·0.25) / 2.25, not the naive (2+4+8)/3.
        let want = (2.0 + 4.0 + 8.0 * 0.25) / 2.25;
        assert!((s.mean() - want).abs() < 1e-12, "{} vs {want}", s.mean());
        // The tail row still appears in exports.
        assert_eq!(rec.to_csv().lines().count(), 4);
        assert!(rec.to_json().contains("\"tail_width_s\":0.25"));
    }

    #[test]
    fn partial_tail_pads_unsampled_series() {
        let mut rec = MetricsRecorder::new(1.0);
        rec.sample("a", 1.0);
        rec.sample("b", 5.0);
        rec.end_tick();
        rec.sample("a", 3.0); // "b" not sampled in the tail window
        rec.end_partial_tick(0.5);
        assert_eq!(rec.get("b").unwrap().values, vec![5.0, 0.0]);
        assert_eq!(rec.get("b").unwrap().tail_width_s, Some(0.5));
    }

    #[test]
    #[should_panic(expected = "after the partial tail")]
    fn ticks_after_the_tail_panic() {
        let mut rec = MetricsRecorder::new(1.0);
        rec.end_partial_tick(0.5);
        rec.end_tick();
    }

    #[test]
    #[should_panic(expected = "outside (0,")]
    fn oversized_tail_panics() {
        MetricsRecorder::new(1.0).end_partial_tick(1.5);
    }
}
