//! Readers of the host the benchmark runs on: CPU time, peak memory, core
//! count and a fixed calibration loop. The `/proc` readers return an error
//! with the reason on a host without them; callers omit the metric.

use std::time::Instant;

/// Linux reports `/proc` CPU times in `USER_HZ` ticks, which is 100 on every
/// architecture the kernel supports.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of this process, all threads, exited ones
/// included. Resolution is one tick (10 ms), so take deltas over seconds.
///
/// # Errors
/// `/proc/self/stat` is missing or malformed.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    parse_stat_cpu_ticks(&stat).map(|ticks| ticks as f64 / USER_HZ)
}

/// `utime + stime` (fields 14 and 15) of a `/proc/<pid>/stat` line. The
/// command name (field 2) may contain spaces and parentheses, so fields are
/// counted from the last `)`.
fn parse_stat_cpu_ticks(stat: &str) -> Result<u64, String> {
    let (_, rest) = stat
        .rsplit_once(')')
        .ok_or("no command name in /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so field 14 is index 11.
    let tick = |i: usize| -> Result<u64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| format!("field {} of /proc/self/stat is not a number", i + 3))
    };
    Ok(tick(11)? + tick(12)?)
}

/// Peak resident set size (`VmHWM`) of this process, MiB.
///
/// # Errors
/// `/proc/self/status` is missing or carries no `VmHWM` line.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

fn parse_vm_hwm_kib(status: &str) -> Result<u64, String> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Milliseconds a fixed xorshift loop takes: a yardstick for comparing host
/// numbers recorded on different machines or under different load.
pub fn calibration_ms() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_survives_hostile_command_names() {
        let line = "42 (a b) c)) R 1 42 42 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 3 0 100 1 1";
        assert_eq!(parse_stat_cpu_ticks(line), Ok(300));
        assert!(parse_stat_cpu_ticks("42 no-parens R").is_err());
        assert!(parse_stat_cpu_ticks("42 (x) R 1 2").is_err());
    }

    #[test]
    fn vm_hwm_parser_reads_kib_and_reports_absence() {
        let status = "Name:\tbench\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Ok(20480));
        assert!(parse_vm_hwm_kib("Name:\tbench\n").is_err());
    }
}
