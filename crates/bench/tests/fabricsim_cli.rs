//! `fabricsim` refuses a policy it cannot resolve the way it refuses every
//! other bad flag: "invalid configuration: …" on stderr and exit 2, before
//! any simulation starts, never a panic. An out-of-range `--trace-sample`,
//! `--metrics-window` or `--slo-p99-ms` goes the same way: the CLI leaves
//! their ranges to `SimConfig::validate`, so each value has one check.

use std::process::Command;

#[test]
fn a_policy_that_does_not_resolve_exits_2_with_the_reason() {
    // `profile` takes the deployment flags but not the run's observation
    // flags, so those rows are checked in the run mode only.
    let both: &[&[&str]] = &[&[], &["profile"]];
    let run: &[&[&str]] = &[&[]];
    for (modes, args, reason) in [
        (both, &["--policy", "garbage("][..], "unknown operator"),
        (
            both,
            &["--policy", "OR0"][..],
            "policy OR0 needs at least one principal",
        ),
        (
            both,
            &["--policy", "AND0"][..],
            "policy AND0 needs at least one principal",
        ),
        (
            both,
            &["--peers", "3", "--policy", "OutOf(2,'Org1.peer')"][..],
            "OutOf(2) over 1 operands",
        ),
        (
            run,
            &["--trace-sample", "2"][..],
            "trace sample rate must be a finite number in [0, 1]",
        ),
        (
            run,
            &["--metrics-window", "0"][..],
            "metrics sample period must be a finite number of seconds",
        ),
        (
            run,
            &["--slo-p99-ms", "-1"][..],
            "SLO p99 latency objective must be a finite positive number",
        ),
    ] {
        for mode in modes {
            let out = Command::new(env!("CARGO_BIN_EXE_fabricsim"))
                .args(*mode)
                .args(args)
                .args(["--duration", "1"])
                .output()
                .expect("spawn fabricsim");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(
                out.status.code(),
                Some(2),
                "{mode:?} {args:?}: stderr {stderr}"
            );
            assert!(
                stderr.starts_with("invalid configuration: ") && stderr.contains(reason),
                "{mode:?} {args:?}: stderr {stderr}"
            );
            assert!(out.stdout.is_empty(), "{mode:?} {args:?} printed a report");
        }
    }
}
