//! Bottleneck attribution: decompose end-to-end latency per station.
//!
//! The paper attributes Fabric's throughput ceiling by measuring, for each
//! transaction, how long it *waited* versus how long it was *served* at each
//! pipeline station, then naming the station whose queue dominates (§IV,
//! Finding 3: the validation phase). This module computes exactly that from
//! per-transaction breakdowns the simulator records at each `Station::submit`
//! call site: `queued = would_start_at(now) - now`, `service` = the sampled
//! service demand.

/// The pipeline stations latency is attributed to.
///
/// A small closed enum (rather than free-form strings) so breakdowns are flat
/// fixed-size arrays and windows aggregate with no hashing on the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StationClass {
    /// Client-side proposal preparation (signing, marshalling).
    ClientPrep,
    /// Client-side endorsement collection / response verification.
    ClientRecv,
    /// Peer endorsement (simulate + sign) — parallel across endorsers, so
    /// per-tx accumulation takes the max over the visit set (critical path).
    PeerEndorse,
    /// Ordering-service CPU (batching, consensus bookkeeping).
    OsnCpu,
    /// VSCC stage of the peer's validation pipeline (signatures, endorsement
    /// policy) — the parallelizable part.
    PeerVscc,
    /// Serial tail of the validation pipeline (MVCC read-set check, state-DB
    /// and blockstore write).
    PeerCommit,
}

impl StationClass {
    /// Every class, in pipeline order.
    pub const ALL: [StationClass; 6] = [
        StationClass::ClientPrep,
        StationClass::ClientRecv,
        StationClass::PeerEndorse,
        StationClass::OsnCpu,
        StationClass::PeerVscc,
        StationClass::PeerCommit,
    ];

    /// Human-readable label, matching the simulator's utilization report
    /// naming (`"peer vscc"` etc.).
    pub fn label(self) -> &'static str {
        match self {
            StationClass::ClientPrep => "client prep",
            StationClass::ClientRecv => "client recv",
            StationClass::PeerEndorse => "peer endorse",
            StationClass::OsnCpu => "osn cpu",
            StationClass::PeerVscc => "peer vscc",
            StationClass::PeerCommit => "peer commit",
        }
    }

    /// Every class in sampler order: the order of a [`crate::SampleRow`]'s
    /// per-class arrays, of the metrics table's `queue.*` columns and of the
    /// health plane's stations. The OSN comes last here and fourth in
    /// [`StationClass::ALL`].
    pub const WIRE: [StationClass; 6] = [
        StationClass::ClientPrep,
        StationClass::ClientRecv,
        StationClass::PeerEndorse,
        StationClass::PeerVscc,
        StationClass::PeerCommit,
        StationClass::OsnCpu,
    ];

    /// Dotted label the sampler's artifacts use (`"peer.vscc"` etc.).
    pub fn wire_label(self) -> &'static str {
        match self {
            StationClass::ClientPrep => "pool.prep",
            StationClass::ClientRecv => "pool.recv",
            StationClass::PeerEndorse => "peer.endorse",
            StationClass::OsnCpu => "osn.cpu",
            StationClass::PeerVscc => "peer.vscc",
            StationClass::PeerCommit => "peer.commit",
        }
    }

    /// Index of this class in the per-station arrays
    /// ([`TxStationBreakdown::queued_s`] / [`TxStationBreakdown::service_s`]).
    pub fn idx(self) -> usize {
        match self {
            StationClass::ClientPrep => 0,
            StationClass::ClientRecv => 1,
            StationClass::PeerEndorse => 2,
            StationClass::OsnCpu => 3,
            StationClass::PeerVscc => 4,
            StationClass::PeerCommit => 5,
        }
    }
}

/// Per-transaction latency decomposition across station classes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TxStationBreakdown {
    /// Virtual commit time, seconds. Used to assign the tx to a window.
    pub commit_s: f64,
    /// End-to-end latency (created → committed), seconds.
    pub end_to_end_s: f64,
    /// Time spent queued at each class, indexed per [`StationClass::ALL`].
    pub queued_s: [f64; 6],
    /// Time spent in service at each class, same indexing.
    pub service_s: [f64; 6],
}

impl TxStationBreakdown {
    /// Adds one sequential station visit.
    pub fn add(&mut self, class: StationClass, queued_s: f64, service_s: f64) {
        let i = class.idx();
        self.queued_s[i] += queued_s;
        self.service_s[i] += service_s;
    }

    /// Folds in one of several *parallel* visits (e.g. fan-out endorsement):
    /// only the slowest branch is on the critical path, so keep the max
    /// queued+service pair rather than summing.
    pub fn add_max(&mut self, class: StationClass, queued_s: f64, service_s: f64) {
        let i = class.idx();
        if queued_s + service_s > self.queued_s[i] + self.service_s[i] {
            self.queued_s[i] = queued_s;
            self.service_s[i] = service_s;
        }
    }

    /// Cumulative `(queued, service)` seconds attributed across every class
    /// up to and including `class` (classes are pipeline-ordered, so this is
    /// "everything attributed by the time the tx cleared `class`"). Used to
    /// stamp phase events with running attribution totals.
    pub fn cumulative_through(&self, class: StationClass) -> (f64, f64) {
        let n = class.idx() + 1;
        (
            self.queued_s[..n].iter().sum(),
            self.service_s[..n].iter().sum(),
        )
    }

    /// Total attributed queueing time.
    pub fn total_queued_s(&self) -> f64 {
        self.queued_s.iter().sum()
    }

    /// Total attributed service time.
    pub fn total_service_s(&self) -> f64 {
        self.service_s.iter().sum()
    }

    /// Latency not attributed to any station (network propagation, batching
    /// delay while a block waits to cut, etc.). Clamped at zero.
    pub fn unattributed_s(&self) -> f64 {
        (self.end_to_end_s - self.total_queued_s() - self.total_service_s()).max(0.0)
    }
}

/// Aggregated attribution for one time window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowAttribution {
    /// Window start, virtual seconds.
    pub t0_s: f64,
    /// Committed transactions in the window.
    pub tx_count: u64,
    /// Mean queueing seconds per tx, per class (indexed per [`StationClass::ALL`]).
    pub mean_queued_s: [f64; 6],
    /// Mean service seconds per tx, per class.
    pub mean_service_s: [f64; 6],
    /// Mean end-to-end latency in the window.
    pub mean_e2e_s: f64,
}

impl WindowAttribution {
    /// The station class with the largest mean queueing time — the window's
    /// bottleneck in the paper's sense. `None` for an empty window.
    pub fn dominant(&self) -> Option<StationClass> {
        if self.tx_count == 0 {
            return None;
        }
        let mut best = StationClass::ALL[0];
        for c in StationClass::ALL {
            if self.mean_queued_s[c.idx()] > self.mean_queued_s[best.idx()] {
                best = c;
            }
        }
        Some(best)
    }
}

/// Whole-run bottleneck attribution: per-window aggregates plus run totals.
#[derive(Debug, Clone, PartialEq)]
pub struct BottleneckReport {
    /// Window length, virtual seconds.
    pub window_s: f64,
    /// Per-window aggregates, ordered by window start (empty windows kept so
    /// the timeline has no gaps).
    pub windows: Vec<WindowAttribution>,
    /// Whole-run aggregate (window `t0_s = 0`, spanning everything).
    pub overall: WindowAttribution,
    /// Mean latency not attributed to any station (propagation, block-cut
    /// batching delay), per committed tx.
    pub mean_unattributed_s: f64,
}

impl BottleneckReport {
    /// Builds a report from per-transaction breakdowns.
    ///
    /// # Panics
    /// Panics unless `window_s` is positive and finite.
    pub fn from_breakdowns(txs: &[TxStationBreakdown], window_s: f64) -> Self {
        assert!(
            window_s > 0.0 && window_s.is_finite(),
            "invalid window length"
        );
        let horizon = txs.iter().map(|t| t.commit_s).fold(0.0, f64::max);
        let n_windows = if txs.is_empty() {
            0
        } else {
            (horizon / window_s).floor() as usize + 1
        };
        let mut acc: Vec<(u64, [f64; 6], [f64; 6], f64)> =
            vec![(0, [0.0; 6], [0.0; 6], 0.0); n_windows];
        let mut overall = (0u64, [0.0f64; 6], [0.0f64; 6], 0.0f64);
        let mut unattributed = 0.0;
        fn fold(slot: &mut (u64, [f64; 6], [f64; 6], f64), tx: &TxStationBreakdown) {
            slot.0 += 1;
            for i in 0..6 {
                slot.1[i] += tx.queued_s[i];
                slot.2[i] += tx.service_s[i];
            }
            slot.3 += tx.end_to_end_s;
        }
        for tx in txs {
            let w = ((tx.commit_s / window_s).floor() as usize).min(n_windows.saturating_sub(1));
            fold(&mut acc[w], tx);
            fold(&mut overall, tx);
            unattributed += tx.unattributed_s();
        }
        let finish = |t0_s: f64, (count, queued, service, e2e): (u64, [f64; 6], [f64; 6], f64)| {
            let div = if count == 0 { 1.0 } else { count as f64 };
            WindowAttribution {
                t0_s,
                tx_count: count,
                mean_queued_s: queued.map(|v| v / div),
                mean_service_s: service.map(|v| v / div),
                mean_e2e_s: e2e / div,
            }
        };
        let windows = acc
            .into_iter()
            .enumerate()
            .map(|(i, slot)| finish(i as f64 * window_s, slot))
            .collect();
        let total = overall.0;
        BottleneckReport {
            window_s,
            windows,
            overall: finish(0.0, overall),
            mean_unattributed_s: if total == 0 {
                0.0
            } else {
                unattributed / total as f64
            },
        }
    }

    /// The run-level dominant queue, by mean queueing time.
    pub fn dominant(&self) -> Option<StationClass> {
        self.overall.dominant()
    }

    /// Renders a fixed-width human-readable table: one row per station class
    /// with mean queued/service seconds and their share of end-to-end
    /// latency, then per-window dominant queues.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str("bottleneck attribution (per committed tx)\n");
        out.push_str(&format!(
            "{:<14} {:>12} {:>12} {:>8}\n",
            "station", "queued_s", "service_s", "share"
        ));
        let e2e = self.overall.mean_e2e_s.max(f64::MIN_POSITIVE);
        for c in StationClass::ALL {
            let q = self.overall.mean_queued_s[c.idx()];
            let s = self.overall.mean_service_s[c.idx()];
            out.push_str(&format!(
                "{:<14} {:>12.6} {:>12.6} {:>7.1}%\n",
                c.label(),
                q,
                s,
                100.0 * (q + s) / e2e
            ));
        }
        out.push_str(&format!(
            "{:<14} {:>12} {:>12} {:>7.1}%\n",
            "unattributed",
            "-",
            "-",
            100.0 * self.mean_unattributed_s / e2e
        ));
        match self.dominant() {
            Some(c) => out.push_str(&format!("dominant queue: {}\n", c.label())),
            None => out.push_str("dominant queue: n/a (no committed txs)\n"),
        }
        if self.windows.len() > 1 {
            out.push_str("per-window dominant queue:\n");
            for w in &self.windows {
                let name = w.dominant().map(StationClass::label).unwrap_or("-");
                out.push_str(&format!(
                    "  [{:>8.1}s..{:>8.1}s) txs={:<6} mean_e2e={:>9.4}s  {}\n",
                    w.t0_s,
                    w.t0_s + self.window_s,
                    w.tx_count,
                    w.mean_e2e_s,
                    name
                ));
            }
        }
        out
    }

    /// Renders the report as a JSON object. Every float is printed
    /// shortest-round-trip, so each leaf parses back to the exact `f64`.
    pub fn to_json(&self) -> String {
        let arr = |xs: &[f64; 6]| {
            let items: Vec<String> = xs.iter().map(f64::to_string).collect();
            format!("[{}]", items.join(","))
        };
        let win = |w: &WindowAttribution| {
            format!(
                "{{\"t0_s\":{},\"tx_count\":{},\"mean_queued_s\":{},\"mean_service_s\":{},\"mean_e2e_s\":{},\"dominant\":{}}}",
                w.t0_s,
                w.tx_count,
                arr(&w.mean_queued_s),
                arr(&w.mean_service_s),
                w.mean_e2e_s,
                match w.dominant() {
                    Some(c) => format!("\"{}\"", c.label()),
                    None => "null".into(),
                }
            )
        };
        let mut out = format!("{{\"window_s\":{},\"stations\":[", self.window_s);
        for (i, c) in StationClass::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\"", c.label()));
        }
        out.push_str(&format!(
            "],\"overall\":{},\"mean_unattributed_s\":{},\"windows\":[",
            win(&self.overall),
            self.mean_unattributed_s
        ));
        for (i, w) in self.windows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&win(w));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic two-station tandem queue: station A fast (no queue), station
    /// B slow (queue builds). The report must finger B.
    #[test]
    fn two_station_queue_names_the_slow_station() {
        let mut txs = Vec::new();
        for i in 0..100u64 {
            let mut b = TxStationBreakdown::default();
            // A: 1 ms service, no queueing.
            b.add(StationClass::PeerEndorse, 0.0, 0.001);
            // B: 10 ms service, queue grows linearly with arrival index.
            let queued = 0.01 * i as f64;
            b.add(StationClass::PeerVscc, queued, 0.010);
            b.commit_s = 0.011 + queued;
            b.end_to_end_s = b.total_queued_s() + b.total_service_s() + 0.002;
            txs.push(b);
        }
        let report = BottleneckReport::from_breakdowns(&txs, 0.25);
        assert_eq!(report.dominant(), Some(StationClass::PeerVscc));
        assert_eq!(report.overall.tx_count, 100);
        // Mean queued at B = 0.01 * mean(0..100) = 0.01 * 49.5.
        let qb = report.overall.mean_queued_s[StationClass::PeerVscc.idx()];
        assert!((qb - 0.495).abs() < 1e-9, "mean queued {qb}");
        // The 2 ms of network delay is unattributed.
        assert!((report.mean_unattributed_s - 0.002).abs() < 1e-9);
        // Windows tile [0, max commit] with no gaps.
        let total: u64 = report.windows.iter().map(|w| w.tx_count).sum();
        assert_eq!(total, 100);
        // Later windows hold later (more-queued) txs; each still blames B.
        for w in report.windows.iter().filter(|w| w.tx_count > 0) {
            assert_eq!(w.dominant(), Some(StationClass::PeerVscc));
        }
        let table = report.render_table();
        assert!(table.contains("dominant queue: peer vscc"), "{table}");
        let json = report.to_json();
        assert!(json.contains("\"dominant\":\"peer vscc\""), "{json}");
    }

    #[test]
    fn json_leaves_parse_back_to_the_exact_floats() {
        use crate::json::Json;
        // Means of thirds and window starts of 0.1 s have no short decimal.
        let txs: Vec<_> = (0..7u64)
            .map(|i| {
                let mut b = TxStationBreakdown::default();
                b.add(StationClass::PeerVscc, i as f64 / 3.0, 0.01 / 3.0);
                b.add(StationClass::OsnCpu, 1e-10 * i as f64, 1.0 / 7.0);
                b.commit_s = 0.1 * i as f64 + 1.0 / 3.0;
                b.end_to_end_s = b.total_queued_s() + b.total_service_s() + 1e-7 / 3.0;
                b
            })
            .collect();
        let report = BottleneckReport::from_breakdowns(&txs, 0.1);
        let json = Json::parse(&report.to_json()).expect("parses");
        let exact = |v: Option<&Json>, want: f64, what: &str| {
            let got = v.and_then(Json::as_f64).expect(what);
            assert_eq!(got.to_bits(), want.to_bits(), "{what}: {got} vs {want}");
        };
        exact(json.get("window_s"), report.window_s, "window_s");
        exact(
            json.get("mean_unattributed_s"),
            report.mean_unattributed_s,
            "mean_unattributed_s",
        );
        let windows = json
            .get("windows")
            .and_then(Json::as_array)
            .expect("windows");
        assert_eq!(windows.len(), report.windows.len());
        let all = std::iter::once((json.get("overall").expect("overall"), &report.overall))
            .chain(windows.iter().zip(&report.windows));
        for (j, w) in all {
            exact(j.get("t0_s"), w.t0_s, "t0_s");
            exact(j.get("mean_e2e_s"), w.mean_e2e_s, "mean_e2e_s");
            assert_eq!(j.get("tx_count").and_then(Json::as_u64), Some(w.tx_count));
            for (key, want) in [
                ("mean_queued_s", &w.mean_queued_s),
                ("mean_service_s", &w.mean_service_s),
            ] {
                let got = j.get(key).and_then(Json::as_array).expect(key);
                assert_eq!(got.len(), want.len());
                for (g, &v) in got.iter().zip(want) {
                    exact(Some(g), v, key);
                }
            }
        }
    }

    #[test]
    fn cumulative_through_is_a_prefix_sum_in_pipeline_order() {
        let mut b = TxStationBreakdown::default();
        b.add(StationClass::ClientPrep, 0.1, 0.2);
        b.add(StationClass::PeerEndorse, 0.3, 0.4);
        b.add(StationClass::PeerCommit, 0.5, 0.6);
        let (q, s) = b.cumulative_through(StationClass::ClientPrep);
        assert_eq!((q, s), (0.1, 0.2));
        let (q, s) = b.cumulative_through(StationClass::OsnCpu);
        assert!((q - 0.4).abs() < 1e-12 && (s - 0.6).abs() < 1e-12);
        let (q, s) = b.cumulative_through(StationClass::PeerCommit);
        assert!((q - b.total_queued_s()).abs() < 1e-12);
        assert!((s - b.total_service_s()).abs() < 1e-12);
    }

    #[test]
    fn parallel_visits_keep_critical_path_only() {
        let mut b = TxStationBreakdown::default();
        b.add_max(StationClass::PeerEndorse, 0.001, 0.004);
        b.add_max(StationClass::PeerEndorse, 0.010, 0.002); // slowest branch
        b.add_max(StationClass::PeerEndorse, 0.000, 0.003);
        let i = StationClass::PeerEndorse.idx();
        assert_eq!((b.queued_s[i], b.service_s[i]), (0.010, 0.002));
    }

    #[test]
    fn empty_report_is_well_formed() {
        let report = BottleneckReport::from_breakdowns(&[], 1.0);
        assert_eq!(report.dominant(), None);
        assert!(report.windows.is_empty());
        assert_eq!(report.overall.tx_count, 0);
        assert!(report.render_table().contains("n/a"));
        assert!(report.to_json().contains("\"dominant\":null"));
    }

    #[test]
    fn labels_are_stable() {
        // The acceptance pipeline matches on these exact strings.
        let labels: Vec<_> = StationClass::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(
            labels,
            vec![
                "client prep",
                "client recv",
                "peer endorse",
                "osn cpu",
                "peer vscc",
                "peer commit"
            ]
        );
        for c in StationClass::ALL {
            assert_eq!(StationClass::ALL[c.idx()], c);
        }
        let wire: Vec<_> = StationClass::WIRE.iter().map(|c| c.wire_label()).collect();
        assert_eq!(
            wire,
            vec![
                "pool.prep",
                "pool.recv",
                "peer.endorse",
                "peer.vscc",
                "peer.commit",
                "osn.cpu"
            ]
        );
    }
}
