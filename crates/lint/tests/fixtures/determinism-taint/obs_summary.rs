// Fed to the structural tests as `crates/obs/src/summary.rs` — a
// NON-sim-critical crate, whose hash iteration becomes a taint source the
// moment sim-critical code calls into it.
use std::collections::HashMap;

pub fn summarize(m: &HashMap<String, u64>) -> u64 {
    let mut total = 0;
    for (_k, v) in m.iter() {
        total += v;
    }
    total
}
