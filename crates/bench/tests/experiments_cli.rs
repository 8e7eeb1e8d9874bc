//! The `experiments` binary refuses arguments it does not understand: an
//! unknown target or a misspelt flag exits 2 before any scenario runs, so it
//! never writes a silently wrong `results/`.

use std::path::PathBuf;
use std::process::Command;

#[test]
fn unknown_target_and_misspelt_flag_exit_2_without_results() {
    for (name, args) in [
        ("unknown_target", &["fig9"][..]),
        ("misspelt_flag", &["--quik", "pool"][..]),
    ] {
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("spawn experiments");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
        assert!(
            stderr.contains("fig2") && stderr.contains("ablations"),
            "{args:?}: the error lists the targets: {stderr}"
        );
        assert!(
            !dir.join("results").exists(),
            "{args:?} wrote results/ before refusing"
        );
    }
}
