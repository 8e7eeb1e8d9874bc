//! `benchmark compare A B`: do two sets of runs agree?
//!
//! Each file holds the lines `--out` appended, one run each. Host metrics are
//! compared by their medians over a file's runs, against the metric's bound;
//! simulated values and exact counts are compared run by run for equal seeds
//! and must be bit-identical. The same tool answers "is this the same code
//! measured twice" and, later, "did this change make anything worse".

use std::collections::BTreeMap;
use std::fmt::Write as _;

use fabricsim::obs::Json;

use crate::metrics::{Better, Check, END_TO_END, PER_LAYER};
use crate::stats;

/// `(workload, metric) → (seed, value)` of every run in one file.
type Runs = BTreeMap<(String, String), Vec<(u64, f64)>>;

/// Parses the lines `--out` wrote.
///
/// # Errors
/// A line is not a JSON object of the expected shape; the message names it.
pub fn parse(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("line {}: {what}", n + 1);
        let json = Json::parse(line).map_err(|e| bad(&e))?;
        let workload = json
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("no workload"))?;
        let seed = json
            .get("seed")
            .and_then(Json::as_f64)
            .ok_or_else(|| bad("no seed"))? as u64;
        let Some(Json::Obj(metrics)) = json.get("metrics") else {
            return Err(bad("no metrics object"));
        };
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| bad(&format!("metric {name} has no value")))?;
            runs.entry((workload.to_string(), name.clone()))
                .or_default()
                .push((seed, value));
        }
    }
    Ok(runs)
}

/// How much worse `b` is than `a`, as a share of `a`; negative when better.
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    let change = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// The table and whether every comparison passed.
pub fn compare(a: &Runs, b: &Runs) -> (String, bool) {
    let mut out = String::new();
    let mut ok = true;
    let bounded = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better, m.bound))
        .chain(PER_LAYER.iter().filter_map(|m| match m.check {
            Check::Within(bound) => Some((m.name, m.unit, m.better, bound)),
            _ => None,
        }));
    let _ = writeln!(
        out,
        "{:<28} {:<34} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "A (median)", "B (median)", "worse", "bound"
    );
    for (name, unit, better, bound) in bounded {
        for ((workload, metric), runs_a) in a.iter().filter(|((_, m), _)| m == name) {
            let Some(runs_b) = b.get(&(workload.clone(), metric.clone())) else {
                continue;
            };
            let median = |runs: &[(u64, f64)]| {
                stats::median(&runs.iter().map(|(_, v)| *v).collect::<Vec<_>>())
            };
            let (ma, mb) = (median(runs_a), median(runs_b));
            if ma == 0.0 && mb == 0.0 {
                continue; // a layer this workload does not exercise
            }
            let worse = worsening(ma, mb, better);
            let verdict = if worse > bound {
                ok = false;
                "  FAIL"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "{workload:<28} {:<34} {ma:>14.4} {mb:>14.4} {:>+7.1}% {:>5.0}%{verdict}",
                format!("{name} [{unit}]"),
                100.0 * worse,
                100.0 * bound
            );
        }
    }
    // Exact metrics: equal seeds, equal bits.
    let mut exact_checked = 0usize;
    for m in PER_LAYER.iter().filter(|m| m.check == Check::Exact) {
        for ((workload, metric), runs_a) in a.iter().filter(|((_, n), _)| n == m.name) {
            let Some(runs_b) = b.get(&(workload.clone(), metric.clone())) else {
                continue;
            };
            for (seed, va) in runs_a {
                for (_, vb) in runs_b.iter().filter(|(s, _)| s == seed) {
                    exact_checked += 1;
                    if va.to_bits() != vb.to_bits() {
                        ok = false;
                        let _ = writeln!(
                            out,
                            "{workload:<28} {:<34} seed {seed}: {va} != {vb}  FAIL (exact)",
                            m.name
                        );
                    }
                }
            }
        }
    }
    let _ = writeln!(
        out,
        "{exact_checked} exact values compared for equal seeds; {}",
        if ok {
            "the two sets agree"
        } else {
            "the two sets DISAGREE"
        }
    );
    (out, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(workload: &str, seed: u64, metrics: &[(&str, f64)]) -> String {
        let body: Vec<String> = metrics
            .iter()
            .map(|(n, v)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"x\"}}"))
            .collect();
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": 0, \"metrics\": {{{}}}}}\n",
            body.join(", ")
        )
    }

    #[test]
    fn within_bound_passes_and_beyond_fails_in_the_bad_direction_only() {
        let a = parse(&line(
            "w",
            1,
            &[("host_tx_per_s", 1000.0), ("host_cpu_us_per_tx", 100.0)],
        ))
        .unwrap();
        let same = parse(&line(
            "w",
            2,
            &[("host_tx_per_s", 800.0), ("host_cpu_us_per_tx", 120.0)],
        ))
        .unwrap();
        assert!(compare(&a, &same).1);
        let slower = parse(&line("w", 2, &[("host_tx_per_s", 700.0)])).unwrap();
        let (table, ok) = compare(&a, &slower);
        assert!(!ok && table.contains("FAIL"), "{table}");
        let faster = parse(&line(
            "w",
            2,
            &[("host_tx_per_s", 2000.0), ("host_cpu_us_per_tx", 10.0)],
        ))
        .unwrap();
        assert!(compare(&a, &faster).1, "an improvement is never a failure");
    }

    #[test]
    fn exact_metrics_must_match_bit_for_bit_on_equal_seeds() {
        let a = parse(&line("w", 42, &[("sim.committed_tps", 203.69)])).unwrap();
        let b = parse(&line("w", 42, &[("sim.committed_tps", 203.69)])).unwrap();
        assert!(compare(&a, &b).1);
        let drifted = parse(&line("w", 42, &[("sim.committed_tps", 203.690_000_1)])).unwrap();
        assert!(!compare(&a, &drifted).1);
        let other_seed = parse(&line("w", 43, &[("sim.committed_tps", 199.0)])).unwrap();
        assert!(
            compare(&a, &other_seed).1,
            "different seeds are not compared exactly"
        );
    }

    #[test]
    fn medians_are_taken_over_a_files_runs_and_bad_lines_are_named() {
        let text: String = [900.0, 1000.0, 5000.0]
            .iter()
            .map(|v| line("w", 1, &[("host_tx_per_s", *v)]))
            .collect();
        let a = parse(&text).unwrap();
        let b = parse(&line("w", 1, &[("host_tx_per_s", 1000.0)])).unwrap();
        assert!(compare(&a, &b).1);
        assert!(parse("{\"seed\": 1}").unwrap_err().contains("line 1"));
        assert!(parse("not json").is_err());
    }
}
