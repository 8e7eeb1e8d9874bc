// Clean twin of bad.rs: the helper returns an Option instead of panicking,
// so no panic site is reachable from the handler.
impl ShardWorld for World {
    fn deliver(&mut self, at: u64, ev: u64) {
        route(ev);
    }
}

fn route(ev: u64) {
    inner(ev);
}

fn inner(ev: u64) -> Option<u64> {
    let v: Option<u64> = Some(ev);
    v
}
