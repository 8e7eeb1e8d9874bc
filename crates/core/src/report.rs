//! Text tables and CSV output for experiment results.

use std::fmt::Write as _;

use fabricsim_obs::json::escape;

use crate::metrics::SummaryReport;

/// One labelled row of an experiment (e.g. a sweep point).
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label (e.g. `"Solo/OR λ=150"`).
    pub label: String,
    /// The run's summary.
    pub summary: SummaryReport,
}

/// Renders rows as a fixed-width text table with per-phase columns.
pub fn phase_table(title: &str, rows: &[Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let _ = writeln!(
        out,
        "{:<26} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8} {:>8} {:>8}",
        "run",
        "offered",
        "exec_tps",
        "order_tps",
        "valid_tps",
        "exec_lat",
        "o&v_lat",
        "overall",
        "timeout",
        "blk_t"
    );
    for r in rows {
        let s = &r.summary;
        let _ = writeln!(
            out,
            "{:<26} {:>8.0} {:>9.1} {:>9.1} {:>9.1} {:>8.3}s {:>8.3}s {:>7.3}s {:>8} {:>7.2}s",
            r.label,
            s.offered_tps,
            s.execute.throughput_tps,
            s.order.throughput_tps,
            s.validate.throughput_tps,
            s.execute.latency.mean_s,
            s.validate.latency.mean_s,
            s.overall_latency.mean_s,
            s.ordering_timeouts,
            s.mean_block_time_s,
        );
    }
    out
}

/// Renders rows as CSV (one line per row, with a header).
///
/// Each latency phase (`execute`, `order`, `order_validate`, `overall`) gets
/// the full mean/p50/p95/p99 quartet so decomposition plots don't need a
/// re-run, and the trailing `seed`/`config_digest` columns tie every row back
/// to the exact run that produced it.
pub fn to_csv(rows: &[Row]) -> String {
    let mut out = String::from(
        "label,offered_tps,execute_tps,order_tps,validate_tps,execute_lat_mean_s,execute_lat_p50_s,execute_lat_p95_s,execute_lat_p99_s,order_lat_mean_s,order_lat_p50_s,order_lat_p95_s,order_lat_p99_s,order_validate_lat_mean_s,order_validate_lat_p50_s,order_validate_lat_p95_s,order_validate_lat_p99_s,overall_lat_mean_s,overall_lat_p50_s,overall_lat_p95_s,overall_lat_p99_s,created,committed_valid,committed_invalid,overload_dropped,ordering_timeouts,ordering_timeouts_per_s,overload_dropped_per_s,endorsement_failures,mean_block_time_s,mean_block_size,blocks_cut,seed,config_digest\n",
    );
    for r in rows {
        let s = &r.summary;
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            escape_csv(&r.label),
            s.offered_tps,
            s.execute.throughput_tps,
            s.order.throughput_tps,
            s.validate.throughput_tps,
            s.execute.latency.mean_s,
            s.execute.latency.p50_s,
            s.execute.latency.p95_s,
            s.execute.latency.p99_s,
            s.order.latency.mean_s,
            s.order.latency.p50_s,
            s.order.latency.p95_s,
            s.order.latency.p99_s,
            s.validate.latency.mean_s,
            s.validate.latency.p50_s,
            s.validate.latency.p95_s,
            s.validate.latency.p99_s,
            s.overall_latency.mean_s,
            s.overall_latency.p50_s,
            s.overall_latency.p95_s,
            s.overall_latency.p99_s,
            s.created,
            s.committed_valid,
            s.committed_invalid,
            s.overload_dropped,
            s.ordering_timeouts,
            s.ordering_timeouts_per_s,
            s.overload_dropped_per_s,
            s.endorsement_failures,
            s.mean_block_time_s,
            s.mean_block_size,
            s.blocks_cut,
            s.seed,
            escape_csv(&s.config_digest),
        );
    }
    out
}

fn escape_csv(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// The JSON document of one run: its label, the summary's own fields
/// ([`SummaryReport::write_fields`], so provenance — `seed`,
/// `config_digest` — sits at the top level), the rings' drop counts, the
/// most utilized station and the bottleneck attribution report. One object,
/// printed on a single line — the document behind `fabricsim --json`, and
/// one of the artifact families `fabricsim diff` compares.
pub fn run_summary_json(label: &str, result: &crate::sim::RunResult) -> String {
    let obs = &result.observability;
    let (hot_name, hot_load) = result.utilization.hottest();
    let mut out = format!("{{\"label\":\"{}\",", escape(label));
    result.summary.write_fields(&mut out);
    let _ = write!(
        out,
        ",\"dropped_events\":{},\"dropped_spans\":{},\"hottest_station\":\"{}\",\
         \"hottest_utilization\":{},\"bottleneck\":{}}}",
        obs.dropped_events,
        obs.dropped_spans,
        escape(hot_name),
        hot_load,
        obs.bottleneck.to_json(),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{LatencyStats, PhaseReport};

    fn dummy(label: &str) -> Row {
        Row {
            label: label.into(),
            summary: SummaryReport {
                offered_tps: 100.0,
                window_secs: 10.0,
                execute: PhaseReport {
                    throughput_tps: 99.0,
                    latency: LatencyStats {
                        count: 1,
                        mean_s: 0.25,
                        p50_s: 0.25,
                        p95_s: 0.3,
                        p99_s: 0.35,
                        max_s: 0.4,
                    },
                },
                order: PhaseReport::default(),
                validate: PhaseReport::default(),
                overall_latency: LatencyStats::default(),
                created: 1000,
                committed_valid: 990,
                committed_invalid: 0,
                overload_dropped: 0,
                ordering_timeouts: 10,
                ordering_timeouts_per_s: 1.0,
                overload_dropped_per_s: 0.0,
                endorsement_failures: 0,
                mean_block_time_s: 1.0,
                mean_block_size: 99.0,
                blocks_cut: 10,
                seed: 42,
                config_digest: "deadbeefdeadbeef".into(),
            },
        }
    }

    #[test]
    fn table_contains_rows_and_title() {
        let t = phase_table("Fig 2", &[dummy("Solo/OR λ=100")]);
        assert!(t.contains("== Fig 2 =="));
        assert!(t.contains("Solo/OR λ=100"));
        assert!(t.contains("99.0"));
    }

    #[test]
    fn csv_has_header_and_data() {
        let csv = to_csv(&[dummy("a"), dummy("b")]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("label,offered_tps"));
        assert!(lines[1].starts_with("a,100"));
        // Header and data rows have the same number of columns.
        let cols = lines[0].split(',').count();
        assert_eq!(lines[1].split(',').count(), cols);
        // Per-phase percentile columns and provenance are present.
        for col in [
            "execute_lat_p50_s",
            "order_lat_p99_s",
            "order_validate_lat_p50_s",
            "overall_lat_p99_s",
            "seed",
            "config_digest",
        ] {
            assert!(lines[0].split(',').any(|c| c == col), "missing {col}");
        }
        assert!(lines[1].ends_with("42,deadbeefdeadbeef"));
    }

    #[test]
    fn csv_escapes_commas() {
        assert_eq!(escape_csv("a,b"), "\"a,b\"");
        assert_eq!(escape_csv("plain"), "plain");
        assert_eq!(escape_csv("q\"q"), "\"q\"\"q\"");
    }
}
