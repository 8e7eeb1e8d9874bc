//! Scheduled fault injections.

use std::sync::Arc;

use fabricsim_chaincode::samples::{KvWrite, Nondeterministic};
use fabricsim_des::SimTime;
use fabricsim_types::encode::WireSize;
use fabricsim_types::Block;

use super::world::{Ev, World, K};

/// Scheduled fault injections.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Crash these Kafka brokers at the given virtual second.
    pub crash_brokers: Vec<(u32, f64)>,
    /// Crash these OSNs at the given virtual second.
    pub crash_osns: Vec<(u32, f64)>,
    /// Make these endorsing peers run *non-deterministic chaincode* from the
    /// given virtual second: their simulation results diverge from honest
    /// replicas (the classic Fabric failure mode). Only meaningful for the
    /// `KvPut`/`KvRmw` workloads.
    pub nondeterministic_peers: Vec<(u32, f64)>,
}

impl FaultPlan {
    /// True when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.crash_brokers.is_empty()
            && self.crash_osns.is_empty()
            && self.nondeterministic_peers.is_empty()
    }
}

pub(super) fn schedule_faults(faults: &FaultPlan, k: &mut K) {
    for &(peer, at) in &faults.nondeterministic_peers {
        k.schedule(SimTime::from_secs_f64(at), Ev::Nondeterministic { peer });
    }
    for &(broker, at) in &faults.crash_brokers {
        k.schedule(SimTime::from_secs_f64(at), Ev::CrashBroker { broker });
    }
    for &(osn, at) in &faults.crash_osns {
        k.schedule(SimTime::from_secs_f64(at), Ev::CrashOsn { osn });
    }
}

/// Endorsing peer `peer` starts running non-deterministic chaincode.
pub(super) fn go_nondeterministic(world: &mut World, peer: u32) {
    if let Some(node) = world.peers.get_mut(peer as usize) {
        node.peer.install_chaincode(Box::new(Nondeterministic {
            inner: KvWrite,
            taint: peer,
        }));
    }
}

/// Broker `b` stops handling anything.
pub(super) fn crash_broker(world: &mut World, b: u32) {
    if let Some(actor) = world.brokers.get_mut(b as usize) {
        actor.alive = false;
    }
}

/// OSN `o` stops; its subscribers reconnect to the first live OSN and seek
/// from their height.
pub(super) fn crash_osn(world: &mut World, k: &mut K, o: u32) {
    let o = o as usize;
    let Some(actor) = world.osns.get_mut(o) else {
        return;
    };
    actor.alive = false;
    let orphans = std::mem::take(&mut actor.subscribers);
    let Some(target) = world.osns.iter().position(|a| a.alive) else {
        return; // no ordering service left (Solo crash)
    };
    for peer in orphans {
        world.osns[target].subscribers.push(peer);
        let missing: Vec<Arc<Block>> = world.osns[target]
            .delivered
            .iter()
            .filter(|blk| blk.header.number >= world.peers[peer].next_expected_block)
            .cloned()
            .collect();
        let now = k.now();
        for block in missing {
            let bytes = block.wire_size();
            let arrival = world.osns[target].egress.transfer(now, bytes);
            k.schedule(arrival, Ev::PeerBlock { peer, block });
        }
    }
}
