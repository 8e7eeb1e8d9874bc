// Fed to the structural tests as `crates/core/src/world.rs`: the panic in
// `inner` is two hops from the `ShardWorld::deliver` handler, and the
// diagnostic must spell out the whole chain.
impl ShardWorld for World {
    fn deliver(&mut self, at: u64, ev: u64) {
        route(ev);
    }
}

fn route(ev: u64) {
    inner(ev);
}

fn inner(ev: u64) {
    if ev > 3 {
        panic!("poisoned message");
    }
}
