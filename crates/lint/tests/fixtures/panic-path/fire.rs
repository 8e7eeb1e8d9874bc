// Fed to the structural tests as `crates/core/src/world.rs`: `commit`
// schedules nothing and implements no trait — the kernel reaches it only
// through the `Model::fire` match arm, which is where the chain must start.
impl Model for World {
    type Event = Ev;

    fn fire(&mut self, ev: Ev, k: &mut Kernel<World>) {
        match ev {
            Ev::Commit(number) => commit(self, number),
        }
    }

    fn label(ev: &Ev) -> &'static str {
        "validate.commit"
    }
}

fn commit(world: &mut World, number: u64) {
    if number > world.height {
        unreachable!("blocks are delivered in order");
    }
}
