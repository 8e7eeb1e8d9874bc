// obs_summary.rs over a map with a named, unseeded hasher, fed to the
// structural tests as the same `crates/obs/src/summary.rs`. The hasher fixes
// each key's hash, not the map's iteration order, which still follows its
// insertion history: `.iter()` here is as much a taint source as over a
// `RandomState` map.
use std::collections::HashMap;

use fabricsim_types::FxBuildHasher;

pub fn summarize(m: &HashMap<String, u64, FxBuildHasher>) -> u64 {
    let mut total = 0;
    for (_k, v) in m.iter() {
        total += v;
    }
    total
}
