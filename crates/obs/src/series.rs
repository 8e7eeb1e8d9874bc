//! The periodic sampler's record, and the metrics table written from it.
//!
//! Every sampler period the simulator sweeps each channel world's gauges
//! once and appends one typed [`SampleRow`] to that world's [`Samples`].
//! When the horizon is not a whole number of periods, a final *partial* row
//! carries the remainder's actual width, so width-weighted statistics don't
//! under-report the tail of short runs. Nothing reads the rows while the run
//! is going. After it, the rows are the one record of both sampler planes:
//! [`metrics_csv`] writes them as the metrics table — row `i` of every world
//! is the window starting at `i * period_s` — and
//! [`crate::HealthReport::fold`] folds them into the health plane.

use std::fmt::Write as _;

use crate::StationClass;

/// One sampler window of one channel world: the gauges swept at its end.
/// The per-class arrays are in [`StationClass::WIRE`] order. Every field
/// keeps full precision; only the table's CSV rendering rounds.
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

/// The metrics table of a run, as `--metrics-out` writes it: a `t_s`
/// column (the window's start, `i × period_s`), then ten columns per channel
/// world, in channel order — `queue.{class}` per [`StationClass::WIRE`]
/// class, `util.peer_vscc`, `util.peer_commit`, `inflight.txs` and
/// `blocks.cut_per_tick`. With several worlds every name of world `c`
/// carries a `ch{c}.` prefix. The cadence column is scaled by
/// `period / width`, so a partial tail stays in blocks-per-period units.
/// Every world samples at the same instants, so all have the same rows.
pub fn metrics_csv(period_s: f64, worlds: &[Samples]) -> String {
    let mut names = StationClass::WIRE
        .map(|class| format!("queue.{}", class.wire_label().replace('.', "_")))
        .to_vec();
    names.extend(
        [
            "util.peer_vscc",
            "util.peer_commit",
            "inflight.txs",
            "blocks.cut_per_tick",
        ]
        .map(String::from),
    );
    let mut out = String::from("t_s");
    for c in 0..worlds.len() {
        for name in &names {
            out.push(',');
            if worlds.len() > 1 {
                let _ = write!(out, "ch{c}.");
            }
            out.push_str(name);
        }
    }
    out.push('\n');
    for tick in 0..worlds.first().map_or(0, |w| w.rows.len()) {
        let _ = write!(out, "{:.3}", tick as f64 * period_s);
        for w in worlds {
            let r = &w.rows[tick];
            let cadence = r.new_cuts as f64 * (period_s / r.width_s);
            let rest = [r.vscc_util, r.commit_util, r.inflight as f64, cadence];
            for v in r.queue.iter().chain(&rest) {
                let _ = write!(out, ",{v:.6}");
            }
        }
        out.push('\n');
    }
    out
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
        let csv = metrics_csv(
            2.0,
            &[world(vec![row(2.0, 3.0, 1), row(2.0, 5.0, 0)], false)],
        );
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
        assert!(lines.iter().all(|l| l.split(',').count() == 11));
    }

    #[test]
    fn partial_tail_is_flushed_and_weighted() {
        // Two full 1 s windows then a 0.25 s tail the horizon cut short.
        let rows = vec![row(1.0, 2.0, 0), row(1.0, 4.0, 0), row(0.25, 8.0, 1)];
        let csv = metrics_csv(1.0, &[world(rows, true)]);
        let lines: Vec<_> = csv.lines().collect();
        // The tail row is a row of its own, stamped at its window's start.
        assert_eq!(lines.len(), 4);
        assert!(lines[3].starts_with("2.000,8.000000,"), "{}", lines[3]);
        // One block in a quarter window is four per period.
        assert!(lines[2].ends_with(",0.000000"), "{}", lines[2]);
        assert!(lines[3].ends_with(",4.000000"), "{}", lines[3]);
    }

    #[test]
    fn channels_are_prefixed_and_kept_in_order() {
        let a = world(vec![row(1.0, 1.0, 0)], false);
        let b = world(vec![row(1.0, 2.0, 0)], false);
        let csv = metrics_csv(1.0, &[a, b]);
        let lines: Vec<_> = csv.lines().collect();
        let header: Vec<_> = lines[0].split(',').collect();
        assert_eq!(header.len(), 21);
        assert_eq!(header[1], "ch0.queue.pool_prep");
        assert_eq!(header[11], "ch1.queue.pool_prep");
        assert!(!header.contains(&"queue.pool_prep"));
        let values: Vec<_> = lines[1].split(',').collect();
        assert_eq!((values[1], values[11]), ("1.000000", "2.000000"));
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
