//! The repository's benchmark: six workloads, two clocks, one command.
//!
//! ```text
//! benchmark --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]
//!           [--out FILE] [--spans-out FILE]
//! benchmark compare A.jsonl B.jsonl
//! benchmark manifest | list
//! ```
//!
//! A run measures one workload in this process, checks its outputs, and
//! prints as the last line of standard output one JSON object: the
//! end-to-end metrics with `--trace 0`, the per-layer ledger with
//! `--trace 1`. See `README.md` beside this crate.

mod compare;
mod des;
mod gen;
mod harness;
mod host;
mod metrics;
mod pipe;
mod spans;
mod stats;

use std::io::Write as _;
use std::process::{Command, ExitCode};
use std::time::Instant;

use harness::RunArgs;

const USAGE: &str = "usage: benchmark --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]
                 [--out FILE] [--spans-out FILE]
       benchmark compare A.jsonl B.jsonl
       benchmark manifest
       benchmark list";

const EXIT_FAILED: u8 = 1;
const EXIT_USAGE: u8 = 2;
const EXIT_SKIPPED: u8 = 3;

struct Cli {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    spans_out: Option<String>,
    setup_only: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: String::new(),
        seed: 42,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        out: None,
        spans_out: None,
        setup_only: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            cli.setup_only = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |what: &str| format!("{flag} takes {what}, not {value:?}");
        match flag.as_str() {
            "--workload" => cli.workload = value.clone(),
            "--seed" => cli.seed = value.parse().map_err(|_| number("a whole number"))?,
            "--seconds" => {
                cli.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| number("a positive number"))?;
            }
            "--trace" => {
                cli.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(number("0 or 1")),
                }
            }
            "--out" => cli.out = Some(value.clone()),
            "--spans-out" => cli.spans_out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if cli.workload != "all" && metrics::workload(&cli.workload).is_none() {
        return Err(format!(
            "unknown workload {:?}; `benchmark list` names them",
            cli.workload
        ));
    }
    Ok(cli)
}

fn append_line(path: &str, line: &str) -> Result<(), String> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("cannot open {path}: {e}"))?;
    writeln!(file, "{line}").map_err(|e| format!("cannot write {path}: {e}"))
}

/// Runs one workload in this process and prints its result line.
fn run_one(cli: &Cli, process_start: Instant) -> Result<(), String> {
    let args = RunArgs {
        workload: &cli.workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
    };
    let mut output = harness::run(&args, process_start)?;
    let calibration_ms = host::calibration_ms();
    if cli.trace {
        let v = &mut output.report.values;
        v.insert("bench.nproc", host::nproc() as f64);
        v.insert("bench.calibration_ms", calibration_ms);
    }
    let json = output.report.to_json(cli.trace)?;
    if let Some(path) = &cli.out {
        // Every recorded line says where it was measured.
        let line = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"nproc\": {}, \
             \"calibration_ms\": {calibration_ms}, {}",
            cli.workload,
            cli.seed,
            u8::from(cli.trace),
            host::nproc(),
            &json[1..]
        );
        append_line(path, &line)?;
    }
    if let Some(path) = &cli.spans_out {
        std::fs::write(path, spans::to_jsonl(&output.spans))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    println!("{json}");
    Ok(())
}

/// Runs every workload, each in a fresh child process so that peak memory
/// and lazily initialised state are the workload's own.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::from(EXIT_FAILED);
        }
    };
    let mut code = ExitCode::SUCCESS;
    for w in metrics::WORKLOADS {
        let child_args: Vec<&str> = args
            .iter()
            .map(|a| if a == "all" { w.name } else { a.as_str() })
            .collect();
        match Command::new(&exe).args(&child_args).output() {
            Ok(out) => {
                std::io::stderr().write_all(&out.stderr).ok();
                let stdout = String::from_utf8_lossy(&out.stdout);
                let result = stdout.lines().last().and_then(|l| l.strip_prefix('{'));
                match (out.status.code(), result) {
                    (Some(0), Some(result)) => {
                        println!("{{\"workload\": \"{}\", {result}", w.name);
                    }
                    (Some(c), _) if c == i32::from(EXIT_SKIPPED) => {
                        println!("{{\"workload\": \"{}\", \"skipped\": true}}", w.name);
                    }
                    _ => {
                        println!("{{\"workload\": \"{}\", \"correct\": false}}", w.name);
                        code = ExitCode::from(EXIT_FAILED);
                    }
                }
            }
            Err(e) => {
                eprintln!("cannot start the child for {}: {e}", w.name);
                code = ExitCode::from(EXIT_FAILED);
            }
        }
    }
    code
}

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let read = |path: &str| -> Result<_, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        compare::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (table, ok) = compare::compare(&read(a)?, &read(b)?);
    print!("{table}");
    Ok(ok)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let words: Vec<&str> = args.iter().map(String::as_str).collect();
    match words.as_slice() {
        ["manifest"] => {
            print!("{}", metrics::manifest_json());
            return ExitCode::SUCCESS;
        }
        ["list"] => {
            for w in metrics::WORKLOADS {
                println!("{:<28} {}", w.name, w.why);
            }
            return ExitCode::SUCCESS;
        }
        ["compare", a, b] => {
            return match compare_files(a, b) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::from(EXIT_FAILED),
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::from(EXIT_USAGE)
                }
            };
        }
        _ => {}
    }
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    if cli.workload == "all" {
        return run_all(&args);
    }
    let outcome = if cli.setup_only {
        // The child half of `setup_s`: set up, say how long it took, leave.
        harness::set_up(&cli.workload, cli.seed)
            .map(|_| println!("{}", process_start.elapsed().as_secs_f64()))
    } else {
        run_one(&cli, process_start)
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.starts_with("skipped:") => {
            eprintln!("{e}");
            ExitCode::from(EXIT_SKIPPED)
        }
        Err(e) => {
            eprintln!("{}: {e}", cli.workload);
            ExitCode::from(EXIT_FAILED)
        }
    }
}
