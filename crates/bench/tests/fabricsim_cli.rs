//! `fabricsim` refuses a policy it cannot resolve the way it refuses every
//! other bad flag: "invalid configuration: …" on stderr and exit 2, before
//! any simulation starts, never a panic.

use std::process::Command;

#[test]
fn a_policy_that_does_not_resolve_exits_2_with_the_reason() {
    for (args, reason) in [
        (&["--policy", "garbage("][..], "unknown operator"),
        (
            &["--policy", "OR0"][..],
            "policy OR0 needs at least one principal",
        ),
        (
            &["--policy", "AND0"][..],
            "policy AND0 needs at least one principal",
        ),
        (
            &["--peers", "3", "--policy", "OutOf(2,'Org1.peer')"][..],
            "OutOf(2) over 1 operands",
        ),
    ] {
        for mode in [&[][..], &["profile"][..]] {
            let out = Command::new(env!("CARGO_BIN_EXE_fabricsim"))
                .args(mode)
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
