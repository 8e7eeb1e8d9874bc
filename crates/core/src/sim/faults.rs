//! Scheduled fault injections: one typed schedule of `(virtual second,
//! Fault)` pairs, each scheduled into every channel world.

use std::sync::Arc;

use fabricsim_chaincode::samples::{KvWrite, Nondeterministic};
use fabricsim_des::SimTime;
use fabricsim_types::encode::WireSize;
use fabricsim_types::{Block, OrdererType};

use crate::workload::{SimConfig, WorkloadKind};

use super::world::{Ev, World, K};

/// One fault a run injects at a virtual instant
/// ([`super::Simulation::with_faults`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Kafka broker `id` crashes and stops handling anything.
    CrashBroker(u32),
    /// OSN `id` crashes; its subscribers re-subscribe to the first live OSN
    /// and replay from their height.
    CrashOsn(u32),
    /// Endorsing peer `id` starts running *non-deterministic chaincode*: its
    /// simulation results diverge from honest replicas (the classic Fabric
    /// failure mode). Only the `KvPut`/`KvRmw` workloads invoke it.
    Nondeterministic(u32),
}

/// Refuses a fault `cfg`'s run could not inject: a time that is not a
/// finite non-negative second, or a target the run does not have. A time
/// past `duration_secs` is allowed; it never fires.
pub(super) fn check(cfg: &SimConfig, at: f64, fault: Fault) -> Result<(), String> {
    if !at.is_finite() || at < 0.0 {
        return Err(format!(
            "{fault:?}: fault time must be a finite non-negative number of seconds (got {at})"
        ));
    }
    let (id, count, what) = match fault {
        Fault::CrashBroker(id) => {
            if cfg.orderer_type != OrdererType::Kafka {
                return Err(format!(
                    "{fault:?}: only the kafka orderer has brokers (got {})",
                    cfg.orderer_type
                ));
            }
            (id, cfg.broker_count, "brokers")
        }
        Fault::CrashOsn(id) => (id, cfg.effective_osns(), "OSNs"),
        Fault::Nondeterministic(id) => {
            if !matches!(
                cfg.workload,
                WorkloadKind::KvPut { .. } | WorkloadKind::KvRmw { .. }
            ) {
                return Err(format!(
                    "{fault:?}: only the KvPut and KvRmw workloads invoke the \
                     non-deterministic chaincode"
                ));
            }
            (id, cfg.endorsing_peers, "endorsing peers")
        }
    };
    if id >= count {
        return Err(format!("{fault:?}: the run has {count} {what}"));
    }
    Ok(())
}

pub(super) fn schedule_faults(faults: &[(f64, Fault)], k: &mut K) {
    for &(at, fault) in faults {
        k.schedule(SimTime::from_secs_f64(at), Ev::Fault(fault));
    }
}

/// `fault` takes effect in `world`.
pub(super) fn inject(world: &mut World, k: &mut K, fault: Fault) {
    match fault {
        Fault::CrashBroker(b) => crash_broker(world, b),
        Fault::CrashOsn(o) => crash_osn(world, k, o),
        Fault::Nondeterministic(peer) => go_nondeterministic(world, peer),
    }
}

/// Endorsing peer `peer` starts running non-deterministic chaincode.
fn go_nondeterministic(world: &mut World, peer: u32) {
    if let Some(node) = world.peers.get_mut(peer as usize) {
        node.peer.install_chaincode(Box::new(Nondeterministic {
            inner: KvWrite,
            taint: peer,
        }));
    }
}

/// Broker `b` stops handling anything.
fn crash_broker(world: &mut World, b: u32) {
    if let Some(actor) = world.brokers.get_mut(b as usize) {
        actor.alive = false;
    }
}

/// OSN `o` stops; its subscribers reconnect to the first live OSN and seek
/// from their height.
fn crash_osn(world: &mut World, k: &mut K, o: u32) {
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
