//! Scheduled fault injections.

use std::sync::Arc;

use fabricsim_chaincode::samples::{KvWrite, Nondeterministic};
use fabricsim_des::SimTime;
use fabricsim_types::encode::WireSize;
use fabricsim_types::Block;

use super::peer::peer_receive_block;
use super::world::{World, K};

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
        k.schedule_labeled(
            SimTime::from_secs_f64(at),
            "fault",
            move |w: &mut World, _| {
                if let Some(node) = w.peers.get_mut(peer as usize) {
                    node.peer.install_chaincode(Box::new(Nondeterministic {
                        inner: KvWrite,
                        taint: peer,
                    }));
                }
            },
        );
    }
    for &(b, at) in &faults.crash_brokers {
        k.schedule_labeled(
            SimTime::from_secs_f64(at),
            "fault",
            move |w: &mut World, _| {
                if let Some(actor) = w.brokers.get_mut(b as usize) {
                    actor.alive = false;
                }
            },
        );
    }
    for &(o, at) in &faults.crash_osns {
        k.schedule_labeled(
            SimTime::from_secs_f64(at),
            "fault",
            move |w: &mut World, k| {
                let o = o as usize;
                let Some(actor) = w.osns.get_mut(o) else {
                    return;
                };
                actor.alive = false;
                let orphans = std::mem::take(&mut actor.subscribers);
                // Peers reconnect to another OSN and seek from their height.
                let Some(target) = w.osns.iter().position(|a| a.alive) else {
                    return; // no ordering service left (Solo crash)
                };
                for peer_idx in orphans {
                    w.osns[target].subscribers.push(peer_idx);
                    let missing: Vec<Arc<Block>> = w.osns[target]
                        .delivered
                        .iter()
                        .filter(|blk| blk.header.number >= w.peers[peer_idx].next_expected_block)
                        .cloned()
                        .collect();
                    let now = k.now();
                    for b in missing {
                        let bytes = b.wire_size();
                        let arrival = w.osns[target].egress.transfer(now, bytes);
                        k.schedule_labeled(arrival, "peer.block", move |w, k| {
                            peer_receive_block(w, k, peer_idx, b);
                        });
                    }
                }
            },
        );
    }
}
