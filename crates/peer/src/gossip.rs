//! Gossip block dissemination between peers.
//!
//! In production Fabric only a subset of peers (org *leader peers*) connect to
//! the ordering service for block delivery; everyone else receives blocks over
//! the gossip mesh (push with a small fanout, plus anti-entropy pulls to
//! repair losses). The paper's related work highlights exactly this
//! dissemination path as the network-bandwidth bottleneck at larger peer
//! counts, so fabricsim models it explicitly.
//!
//! [`GossipNode`] is a deterministic state machine in the house style:
//! feed it inputs, apply the returned effects.
//!
//! Blocks travel as `Arc<Block>`: a block is immutable from the moment it is
//! cut until a committer takes its own copy, so forwarding, buffering and
//! caching it share one allocation instead of deep-copying every transaction
//! at every hop.

use std::collections::BTreeMap;
use std::sync::Arc;

use fabricsim_types::Block;

/// Messages exchanged over the gossip mesh.
#[derive(Debug, Clone, PartialEq)]
pub enum GossipMsg {
    /// Push a (possibly new) block to a neighbour.
    Push {
        /// The block.
        block: Arc<Block>,
        /// Gossip depth of this push: 1 for the first hop off an
        /// orderer-connected leader, incremented on every re-forward.
        /// Observability-only — delivery logic never branches on it.
        hop: u32,
    },
    /// Anti-entropy: ask a neighbour for anything above our height.
    PullRequest {
        /// The requester's contiguous delivered height.
        have: u64,
    },
    /// Reply to a pull with the missing blocks, in order.
    PullResponse {
        /// Blocks starting at the requester's height.
        blocks: Vec<Arc<Block>>,
    },
}

/// Effects the host must apply after driving a gossip node.
#[derive(Debug, Clone, PartialEq)]
pub enum GossipEffect {
    /// Send `message` to gossip neighbour `to` (a peer index).
    Send {
        /// Destination peer.
        to: u32,
        /// The message.
        message: GossipMsg,
    },
    /// A block became deliverable in order: hand it to the committer.
    Deliver(Arc<Block>),
}

/// Per-peer gossip state: contiguous delivered height, an out-of-order
/// buffer, a bounded cache of delivered blocks (to answer pulls), and a
/// deterministic RNG for fanout selection.
#[derive(Debug, Clone)]
pub struct GossipNode {
    id: u32,
    neighbours: Vec<u32>,
    fanout: usize,
    delivered_height: u64,
    buffered: BTreeMap<u64, Arc<Block>>,
    cache: BTreeMap<u64, Arc<Block>>,
    cache_blocks: usize,
    rng: u64,
}

impl GossipNode {
    /// Creates a node with the given mesh neighbours and push fanout.
    ///
    /// # Panics
    /// Panics if `fanout == 0`.
    pub fn new(id: u32, neighbours: Vec<u32>, fanout: usize, seed: u64) -> Self {
        assert!(fanout > 0, "gossip fanout must be positive");
        GossipNode {
            id,
            neighbours,
            fanout,
            delivered_height: 0,
            buffered: BTreeMap::new(),
            cache: BTreeMap::new(),
            cache_blocks: 64,
            rng: seed | 1,
        }
    }

    /// The node's peer index.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Contiguous height delivered to the committer so far.
    pub fn delivered_height(&self) -> u64 {
        self.delivered_height
    }

    fn next_rng(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn pick_fanout(&mut self) -> Vec<u32> {
        if self.neighbours.is_empty() {
            return Vec::new();
        }
        let mut targets = self.neighbours.clone();
        // Partial Fisher–Yates for the first `fanout` picks.
        let k = self.fanout.min(targets.len());
        for i in 0..k {
            let j = i + (self.next_rng() as usize) % (targets.len() - i);
            targets.swap(i, j);
        }
        targets.truncate(k);
        targets
    }

    /// A block arrived from the ordering service (leader peers only).
    pub fn on_block_from_orderer(&mut self, block: Arc<Block>) -> Vec<GossipEffect> {
        self.ingest(block, 0)
    }

    /// Processes a gossip message from `from`.
    pub fn step(&mut self, from: u32, message: GossipMsg) -> Vec<GossipEffect> {
        match message {
            GossipMsg::Push { block, hop } => self.ingest(block, hop),
            GossipMsg::PullRequest { have } => {
                let blocks: Vec<Arc<Block>> = self
                    .cache
                    .range(have..)
                    .map(|(_, b)| b.clone())
                    .take(8)
                    .collect();
                if blocks.is_empty() {
                    Vec::new()
                } else {
                    vec![GossipEffect::Send {
                        to: from,
                        message: GossipMsg::PullResponse { blocks },
                    }]
                }
            }
            GossipMsg::PullResponse { blocks } => {
                let mut effects = Vec::new();
                for b in blocks {
                    // Anti-entropy repair restarts the push depth count.
                    effects.extend(self.ingest(b, 0));
                }
                effects
            }
        }
    }

    /// Anti-entropy tick: pull from one random neighbour (repairs losses and
    /// feeds non-leader peers that missed pushes).
    pub fn tick(&mut self) -> Vec<GossipEffect> {
        if self.neighbours.is_empty() {
            return Vec::new();
        }
        let i = (self.next_rng() as usize) % self.neighbours.len();
        vec![GossipEffect::Send {
            to: self.neighbours[i],
            message: GossipMsg::PullRequest {
                have: self.delivered_height,
            },
        }]
    }

    fn ingest(&mut self, block: Arc<Block>, hop: u32) -> Vec<GossipEffect> {
        let number = block.header.number;
        // Duplicate or already-buffered: nothing to do, nothing to forward.
        if number < self.delivered_height || self.buffered.contains_key(&number) {
            return Vec::new();
        }
        let mut effects = Vec::new();
        // Forward the novel block to a random fanout before delivery.
        for to in self.pick_fanout() {
            effects.push(GossipEffect::Send {
                to,
                message: GossipMsg::Push {
                    block: block.clone(),
                    hop: hop + 1,
                },
            });
        }
        self.buffered.insert(number, block);
        // Drain in-order prefix.
        while let Some(b) = self.buffered.remove(&self.delivered_height) {
            self.cache.insert(b.header.number, b.clone());
            if self.cache.len() > self.cache_blocks {
                self.cache.pop_first();
            }
            self.delivered_height += 1;
            effects.push(GossipEffect::Deliver(b));
        }
        effects
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabricsim_crypto::Hash256;
    use fabricsim_types::ChannelId;

    fn block(n: u64) -> Arc<Block> {
        Arc::new(Block::assemble(
            ChannelId::default_channel(),
            n,
            Hash256::ZERO,
            Vec::new(),
        ))
    }

    fn deliveries(effects: &[GossipEffect]) -> Vec<u64> {
        effects
            .iter()
            .filter_map(|e| match e {
                GossipEffect::Deliver(b) => Some(b.header.number),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn in_order_blocks_deliver_and_forward() {
        let mut g = GossipNode::new(0, vec![1, 2, 3], 2, 7);
        let e0 = g.on_block_from_orderer(block(0));
        assert_eq!(deliveries(&e0), vec![0]);
        let pushes = e0
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    GossipEffect::Send {
                        message: GossipMsg::Push { .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(pushes, 2, "fanout pushes");
        assert_eq!(g.delivered_height(), 1);
    }

    #[test]
    fn forwarding_and_caching_share_the_block_they_were_handed() {
        let mut g = GossipNode::new(0, vec![1, 2, 3], 2, 7);
        let b = block(0);
        let effects = g.on_block_from_orderer(Arc::clone(&b));
        assert_eq!(effects.len(), 3, "two pushes and a delivery");
        for e in &effects {
            let carried = match e {
                GossipEffect::Send {
                    message: GossipMsg::Push { block, .. },
                    ..
                } => block,
                GossipEffect::Deliver(block) => block,
                other => panic!("unexpected effect {other:?}"),
            };
            assert!(Arc::ptr_eq(carried, &b), "no deep copy on the way");
        }
        // ours + two pushes + the delivery + the pull cache
        assert_eq!(Arc::strong_count(&b), 5);
    }

    #[test]
    fn out_of_order_blocks_buffer_until_gap_fills() {
        let mut g = GossipNode::new(0, vec![1], 1, 7);
        let e2 = g.step(
            1,
            GossipMsg::Push {
                block: block(2),
                hop: 1,
            },
        );
        assert!(deliveries(&e2).is_empty(), "gap: block 0/1 missing");
        let e0 = g.step(
            1,
            GossipMsg::Push {
                block: block(0),
                hop: 1,
            },
        );
        assert_eq!(deliveries(&e0), vec![0]);
        let e1 = g.step(
            1,
            GossipMsg::Push {
                block: block(1),
                hop: 1,
            },
        );
        assert_eq!(
            deliveries(&e1),
            vec![1, 2],
            "buffered block drains in order"
        );
        assert_eq!(g.delivered_height(), 3);
    }

    #[test]
    fn duplicates_are_absorbed_without_reforwarding() {
        let mut g = GossipNode::new(0, vec![1, 2], 2, 7);
        g.on_block_from_orderer(block(0));
        let again = g.step(
            2,
            GossipMsg::Push {
                block: block(0),
                hop: 1,
            },
        );
        assert!(again.is_empty(), "duplicate push must not echo");
    }

    #[test]
    fn pull_repairs_missing_blocks() {
        let mut source = GossipNode::new(0, vec![1], 1, 7);
        for n in 0..5 {
            source.on_block_from_orderer(block(n));
        }
        let mut lagging = GossipNode::new(1, vec![0], 1, 8);
        // Tick produces a pull request; route it to the source.
        let pulls = lagging.tick();
        let GossipEffect::Send { to: 0, message } = &pulls[0] else {
            panic!("expected a pull request, got {pulls:?}");
        };
        let responses = source.step(1, message.clone());
        let GossipEffect::Send { to: 1, message } = &responses[0] else {
            panic!("expected a pull response");
        };
        let effects = lagging.step(0, message.clone());
        assert_eq!(deliveries(&effects), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn pull_with_nothing_new_is_silent() {
        let mut source = GossipNode::new(0, vec![1], 1, 7);
        source.on_block_from_orderer(block(0));
        let effects = source.step(1, GossipMsg::PullRequest { have: 1 });
        assert!(effects.is_empty());
    }

    #[test]
    fn mesh_converges_under_lossy_pushes() {
        // 8 peers, only peer 0 hears from the orderer; pushes to odd peers
        // are dropped; anti-entropy pulls must still converge everyone.
        let n = 8u32;
        let mut nodes: Vec<GossipNode> = (0..n)
            .map(|i| {
                let neighbours: Vec<u32> = (0..n).filter(|&j| j != i).collect();
                GossipNode::new(i, neighbours, 2, 100 + i as u64)
            })
            .collect();
        let mut inflight: Vec<(u32, u32, GossipMsg)> = Vec::new();
        let drive = |nodes: &mut Vec<GossipNode>, inflight: &mut Vec<(u32, u32, GossipMsg)>| {
            for _ in 0..200 {
                // Anti-entropy everywhere.
                for i in 0..n {
                    for e in nodes[i as usize].tick() {
                        if let GossipEffect::Send { to, message } = e {
                            inflight.push((i, to, message));
                        }
                    }
                }
                while let Some((from, to, msg)) = inflight.pop() {
                    // Drop pushes to odd-numbered peers.
                    if matches!(msg, GossipMsg::Push { .. }) && to % 2 == 1 {
                        continue;
                    }
                    for e in nodes[to as usize].step(from, msg.clone()) {
                        if let GossipEffect::Send { to: t2, message } = e {
                            inflight.push((to, t2, message));
                        }
                    }
                }
            }
        };
        for blk in 0..10 {
            for e in nodes[0].on_block_from_orderer(block(blk)) {
                if let GossipEffect::Send { to, message } = e {
                    inflight.push((0, to, message));
                }
            }
        }
        drive(&mut nodes, &mut inflight);
        for node in &nodes {
            assert_eq!(
                node.delivered_height(),
                10,
                "peer {} did not converge",
                node.id()
            );
        }
    }
}
