//! Micro-benchmarks for the hot primitives of the pipeline: hashing,
//! signing/verification, policy evaluation, block cutting, MVCC, ledger
//! commit, Raft/Kafka state-machine steps and the DES kernel itself.
//!
//! Runs on the in-repo [`fabricsim_bench::microbench`] harness (Criterion is
//! unavailable offline): `cargo bench --bench micro [-- FILTER]`.

#![expect(
    clippy::unwrap_used,
    reason = "a bench body whose fixture fails must abort the run, not time an error path"
)]

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;

use fabricsim_bench::microbench::Runner;
use fabricsim_crypto::{
    compress_portable, sha256, KeyPair, MerkleTree, PublicKey, Sha256, VerifyingKey,
};
use fabricsim_des::{Kernel, Model, ShardWorld, ShardedKernel, SimDuration, SimTime, Station};
use fabricsim_kafka::{Broker, BrokerMsg, Record};
use fabricsim_ledger::Ledger;
use fabricsim_msp::{Certificate, CertificateAuthority, Msp, SigningIdentity};
use fabricsim_peer::{Peer, PeerConfig, ValidationPipeline};
use fabricsim_policy::Policy;
use fabricsim_raft::{Effect, Entry, Message, RaftNode, Role};
use fabricsim_types::{
    codec, Block, ChannelId, CheckedBlock, ClientId, Endorsement, OrgId, Principal, Proposal,
    ProposalResponse, RwSet, Transaction, ValidationCode,
};

fn tx(nonce: u64) -> Transaction {
    let creator = ClientId(0);
    let mut rw = RwSet::new();
    rw.record_write(&format!("k{nonce}"), Some(&[1u8]));
    Transaction {
        tx_id: Proposal::derive_tx_id(creator, nonce),
        channel: ChannelId::default_channel(),
        chaincode: "kvwrite".into(),
        rw_set: rw,
        payload: Vec::new(),
        endorsements: Vec::new(),
        creator,
        signature: KeyPair::from_seed(b"c").sign(b"t"),
    }
}

fn bench_crypto(r: &mut Runner) {
    let data = vec![0xABu8; 1024];
    r.bench("crypto/sha256_1k", || sha256(black_box(&data)));
    // Where absorbing the whole slice in one call shows: 1024 blocks, state
    // in registers throughout on the SHA-NI body.
    let long = vec![0xABu8; 64 * 1024];
    r.bench("crypto/sha256_64k", || sha256(black_box(&long)));
    // Absorbing exactly one block, unfinished: one compression, no padding —
    // through the dispatch (whichever body `sha256_backend()` names), then
    // the portable body by name, so the two sit side by side on one host.
    r.bench("crypto/sha256_compress_64B", || {
        let mut h = Sha256::new();
        h.update(black_box(&data[..64]));
        h
    });
    let block: [u8; 64] = [0xAB; 64];
    r.bench("crypto/sha256_compress_64B_portable", || {
        let mut state = [0x6a09_e667u32; 8];
        compress_portable(&mut state, black_box(&block));
        state
    });
    let kp = KeyPair::from_seed(b"bench");
    r.bench("crypto/schnorr_sign", || kp.sign(black_box(&data)));
    let sig = kp.sign(&data);
    r.bench("crypto/schnorr_verify", || {
        kp.public.verify(black_box(&data), &sig)
    });
    // What a caller that already holds the digest pays: no message hash.
    let digest = sha256(&data);
    r.bench("crypto/sign_digest", || kp.sign_digest(black_box(&digest)));
    r.bench("crypto/verify_digest", || {
        kp.public.verify_digest(black_box(&digest), &sig)
    });
    // What a verifier that keeps the key pays: the table once, then 31
    // multiplications per signature instead of 105.
    r.bench("crypto/expand_key", || {
        VerifyingKey::new(black_box(kp.public))
    });
    let expanded = VerifyingKey::new(kp.public);
    r.bench("crypto/verify_digest_expanded", || {
        expanded.verify_digest(black_box(&digest), &sig)
    });
    let leaves: Vec<Vec<u8>> = (0..100).map(|i| format!("tx{i}").into_bytes()).collect();
    r.bench("crypto/merkle_root_100", || {
        MerkleTree::from_leaves(black_box(leaves.iter()))
    });
}

fn bench_policy(r: &mut Runner) {
    let or10 = Policy::or_of_orgs(10);
    let and5 = Policy::and_of_orgs(5);
    let endorsers: Vec<Principal> = (1..=5).map(|i| Principal::peer(OrgId(i))).collect();
    r.bench("policy/eval_or10", || {
        or10.is_satisfied_by(black_box(&endorsers[..1]))
    });
    r.bench("policy/eval_and5", || {
        and5.is_satisfied_by(black_box(&endorsers))
    });
    r.bench("policy/parse", || {
        "OutOf(2,'Org1.peer','Org2.peer','Org3.peer')".parse::<Policy>()
    });
    let p = Policy::k_of_n_orgs(3, 10);
    r.bench("policy/minimal_sets_k_of_n_3_10", || {
        p.minimal_satisfying_sets()
    });
}

fn bench_codec(r: &mut Runner) {
    let t = tx(1);
    let bytes = codec::encode_tx(&t);
    r.bench("codec/encode_tx", || codec::encode_tx(black_box(&t)));
    r.bench("codec/decode_tx", || codec::decode_tx(black_box(&bytes)));
    let block = Block::assemble(
        ChannelId::default_channel(),
        0,
        fabricsim_crypto::Hash256::ZERO,
        (0..100).map(tx).collect(),
    );
    r.bench("codec/encode_block_100tx", || {
        codec::encode_block(black_box(&block))
    });
    // What a Raft OSN pays per AND5 block: the leader encodes it, every node
    // decodes it (checking each distinct endorser key once).
    let and5 = signed_block(Policy::and_of_orgs(5), 5, 1, 100).block;
    let and5_bytes = codec::encode_block(&and5);
    r.bench("types/encode_block_100tx_and5", || {
        codec::encode_block(black_box(&and5))
    });
    r.bench("types/decode_block_100tx_and5", || {
        codec::decode_block(black_box(&and5_bytes)).unwrap()
    });
}

fn bench_ledger(r: &mut Runner) {
    r.bench("ledger/validate_and_commit_100tx_block", || {
        let mut ledger = Ledger::new("bench");
        let block = Block::assemble(
            ChannelId::default_channel(),
            0,
            fabricsim_crypto::Hash256::ZERO,
            (0..100).map(tx).collect(),
        );
        let checked = ledger.blocks().admit(block).unwrap();
        let flags = ledger.validate_and_commit(checked, &[None; 100]).unwrap();
        assert!(flags.iter().all(|f| *f == ValidationCode::Valid));
        ledger
    });
}

/// A CA, one client, `orgs` endorsing peers and a block of `txs` transactions
/// each writing `value_bytes` and signed by all of them, with the trust
/// directories a committer needs.
struct SignedBlock {
    msp: Msp,
    client: SigningIdentity,
    endorsers: Vec<SigningIdentity>,
    client_certs: HashMap<ClientId, Certificate>,
    endorser_keys: HashMap<Principal, Vec<PublicKey>>,
    config: PeerConfig,
    block: Block,
}

fn signed_block(policy: Policy, orgs: u32, value_bytes: usize, txs: u64) -> SignedBlock {
    let ca = CertificateAuthority::new("bench-ca", 1);
    let client = ca.enroll(
        Principal {
            org: OrgId(1),
            role: "client".into(),
        },
        "client0",
    );
    let endorsers: Vec<_> = (1..=orgs)
        .map(|i| ca.enroll(Principal::peer(OrgId(i)), &format!("peer{i}")))
        .collect();
    let mut endorser_keys: HashMap<Principal, Vec<_>> = HashMap::new();
    for e in &endorsers {
        endorser_keys
            .entry(e.principal().clone())
            .or_default()
            .push(e.certificate().public_key);
    }
    let config = PeerConfig {
        channel: ChannelId::default_channel(),
        endorsement_policy: policy,
        is_endorser: false,
        validator_pool_size: 1,
    };
    let txs: Vec<Transaction> = (0..txs)
        .map(|nonce| {
            let creator = ClientId(0);
            let tx_id = Proposal::derive_tx_id(creator, nonce);
            let mut rw = RwSet::new();
            rw.record_write(&format!("k{nonce}"), Some(&vec![1; value_bytes]));
            let resp = ProposalResponse::signed_bytes(tx_id, &rw, b"");
            let endorsements = endorsers
                .iter()
                .map(|e| Endorsement {
                    endorser: e.principal().clone(),
                    endorser_key: e.certificate().public_key,
                    signature: e.sign(&resp),
                })
                .collect();
            let mut t = Transaction {
                tx_id,
                channel: ChannelId::default_channel(),
                chaincode: "kv".into(),
                rw_set: rw,
                payload: Vec::new(),
                endorsements,
                creator,
                signature: KeyPair::from_seed(b"tmp").sign(b"x"),
            };
            t.signature = client.sign(&t.signed_bytes());
            t
        })
        .collect();
    SignedBlock {
        msp: Msp::new(ca.root_of_trust()),
        client_certs: HashMap::from([(ClientId(0), client.certificate().clone())]),
        client,
        endorsers,
        endorser_keys,
        config,
        block: Block::assemble(
            ChannelId::default_channel(),
            0,
            fabricsim_crypto::Hash256::ZERO,
            txs,
        ),
    }
}

fn bench_vscc(r: &mut Runner) {
    let SignedBlock {
        msp,
        client_certs,
        endorser_keys,
        config,
        block,
        ..
    } = signed_block(Policy::and_of_orgs(3), 3, 1, 1024);
    // ISSUE acceptance pair: the VSCC stage serial vs a 4-wide pool on a
    // 1000+-tx block of fully signed AND3 transactions.
    let vscc = |pool: usize| {
        let mut flags = vec![None; block.len()];
        ValidationPipeline::new(pool).vscc_flags(
            black_box(&block),
            &config,
            &msp,
            &client_certs,
            &endorser_keys,
            &mut flags,
        );
        flags
    };
    r.bench("peer/vscc_1024tx_serial", || vscc(1));
    r.bench("peer/vscc_1024tx_pool4", || vscc(4));
}

/// The per-component numbers of the validate-and-commit path: what one
/// committer pays for a 100-tx AND5 block, and the pieces it is made of.
fn bench_commit_path(r: &mut Runner) {
    let s = signed_block(Policy::and_of_orgs(5), 5, 1, 100);
    let cert = s.client.certificate();
    let envelope = s.block.transactions[0].signed_bytes();
    let sig = s.block.transactions[0].signature;
    // Every call verifies the certificate's CA signature, then the
    // envelope's signature under the certificate's key.
    assert!(s.msp.verify(cert, &envelope, &sig).is_ok());
    r.bench("msp/verify", || {
        s.msp.verify(black_box(cert), black_box(&envelope), &sig)
    });
    // Encode + hash every envelope, Merkle root, compare: the one pass over
    // the block's bytes a committer makes.
    r.bench("types/checked_block_100tx", || {
        CheckedBlock::new(black_box(s.block.clone()))
    });
    // The whole path on a fresh peer at height 0 (the clone of the block is
    // the copy each ledger must own; building the peer is a few µs): the
    // signature-heavy block, and one where the bytes hashed dominate.
    let whole_path = |r: &mut Runner, name: &str, s: &SignedBlock| {
        r.bench(name, || {
            let mut peer = Peer::new(s.endorsers[0].clone(), s.msp.clone(), s.config.clone());
            peer.register_client(ClientId(0), s.client.certificate().clone());
            for e in &s.endorsers {
                peer.register_endorser(e.principal().clone(), e.certificate().public_key);
            }
            let flags = peer
                .validate_and_commit(black_box(s.block.clone()))
                .unwrap();
            assert!(flags.iter().all(|f| f.is_valid()));
            peer
        });
    };
    whole_path(r, "peer/validate_and_commit_100tx_and5", &s);
    let or1_1k = signed_block(Policy::or_of_orgs(1), 1, 1024, 100);
    whole_path(r, "peer/validate_and_commit_100tx_or1_1k", &or1_1k);
}

fn bench_raft(r: &mut Runner) {
    let mut node = RaftNode::new(1, vec![1], 7);
    while node.role() != Role::Leader {
        node.tick();
    }
    r.bench("raft/propose_replicate_commit", || {
        node.propose(black_box(b"tx".to_vec())).unwrap()
    });
    r.bench("raft/follower_append_100", || {
        let mut follower = RaftNode::new(2, vec![1, 2], 7);
        let entries: Vec<Entry> = (1..=100)
            .map(|i| Entry {
                term: 1,
                index: i,
                data: Arc::from(&b"tx"[..]),
            })
            .collect();
        follower.step(
            1,
            Message::AppendEntries {
                term: 1,
                prev_log_index: 0,
                prev_log_term: 0,
                entries,
                leader_commit: 100,
            },
        )
    });
    // One `pipe_or1_rmw_hot_1k`-sized block through a 3-node group: the
    // leader stores the encoded bytes, both followers append them, and the
    // first ack commits. Each iteration starts from the same elected trio.
    let trio = elected_trio();
    let block_bytes = vec![0xA5u8; 117 * 1024];
    r.bench("raft/replicate_commit_117k", || {
        let [mut leader, mut f2, mut f3] = trio.clone();
        let (_, sends) = leader.propose(black_box(&block_bytes[..])).unwrap();
        let mut committed = false;
        for e in sends {
            let Effect::Send { to, message } = e else {
                continue;
            };
            let follower = if to == 2 { &mut f2 } else { &mut f3 };
            for ack in follower.step(1, message) {
                if let Effect::Send { message, .. } = ack {
                    let effects = leader.step(to, message);
                    committed |= effects.iter().any(|e| matches!(e, Effect::Commit(_)));
                }
            }
        }
        assert!(committed);
        [leader, f2, f3]
    });
}

/// Node 1 leading nodes 2 and 3, with both followers holding its no-op.
fn elected_trio() -> [RaftNode; 3] {
    let mut nodes = [1, 2, 3].map(|id| RaftNode::new(id, vec![1, 2, 3], id));
    while nodes[0].role() != Role::Candidate {
        nodes[0].tick();
    }
    let term = nodes[0].term();
    let mut inflight: Vec<(u64, Effect)> = nodes[0]
        .step(
            2,
            Message::RequestVoteResponse {
                term,
                granted: true,
            },
        )
        .into_iter()
        .map(|e| (1, e))
        .collect();
    while let Some((from, e)) = inflight.pop() {
        if let Effect::Send { to, message } = e {
            let replies = nodes[to as usize - 1].step(from, message);
            inflight.extend(replies.into_iter().map(|e| (to, e)));
        }
    }
    assert_eq!(nodes[0].role(), Role::Leader);
    nodes
}

fn bench_kafka(r: &mut Runner) {
    let mut broker = Broker::new(1);
    let mut effects = Vec::new();
    broker.step(
        BrokerMsg::AppointLeader {
            epoch: 1,
            replicas: vec![1],
        },
        &mut effects,
    );
    r.bench("kafka/produce_single_replica", || {
        effects.clear();
        broker.step(
            BrokerMsg::Produce {
                reply_to: 0,
                record: Record::payload(black_box(b"tx".to_vec())),
            },
            &mut effects,
        );
        effects.len()
    });
}

/// The kernel rows' world: a counter every event bumps.
#[derive(Default)]
struct Count(u64);

enum Bump {
    /// Counts.
    Once,
    /// Counts, and re-arms itself 1 ns later until the count is 10 000.
    Cascade,
}

impl Model for Count {
    type Event = Bump;

    fn fire(&mut self, event: Bump, k: &mut Kernel<Self>) {
        self.0 += 1;
        if let Bump::Cascade = event {
            if self.0 < 10_000 {
                k.schedule_in(SimDuration::from_nanos(1), Bump::Cascade);
            }
        }
    }

    fn label(_: &Bump) -> &'static str {
        "bump"
    }
}

/// The Kafka small-blocks shape of a run: a 5 ms tick starts a chain of
/// nine sub-millisecond link hops and arms a 3 s ordering timeout, which
/// the chain's end acknowledges for all but one chain in a hundred. About
/// 600 timeouts sit in the queue at any time, as in the real run, and each
/// fires and checks its chain's ack.
#[derive(Default)]
struct KafkaShape {
    fired: u64,
    /// By chain: whether its end acknowledged it.
    acked: Vec<bool>,
    expired: u64,
    rng: u64,
}

enum KafkaEv {
    Tick,
    Hop { left: u8, chain: usize },
    Timeout { chain: usize },
}

impl Model for KafkaShape {
    type Event = KafkaEv;

    fn fire(&mut self, event: KafkaEv, k: &mut Kernel<Self>) {
        self.fired += 1;
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let hop = SimDuration::from_micros(50 + self.rng % 850);
        match event {
            KafkaEv::Tick => {
                k.schedule_in(SimDuration::from_millis(5), KafkaEv::Tick);
                let chain = self.acked.len();
                self.acked.push(false);
                k.schedule_in(SimDuration::from_secs(3), KafkaEv::Timeout { chain });
                k.schedule_in(hop, KafkaEv::Hop { left: 8, chain });
            }
            KafkaEv::Hop { left: 0, chain } => {
                self.acked[chain] = !(chain + 1).is_multiple_of(100);
            }
            KafkaEv::Hop { left, chain } => {
                k.schedule_in(
                    hop,
                    KafkaEv::Hop {
                        left: left - 1,
                        chain,
                    },
                );
            }
            KafkaEv::Timeout { chain } => {
                if !self.acked[chain] {
                    self.expired += 1;
                }
            }
        }
    }

    fn label(_: &KafkaEv) -> &'static str {
        "kafka"
    }
}

fn bench_des_kernel(r: &mut Runner) {
    r.bench("des/kernel_10k_events", || {
        let mut k = Kernel::new();
        let mut count = Count::default();
        for i in 0..10_000u64 {
            k.schedule(SimTime::from_nanos(i), Bump::Once);
        }
        k.run_until(&mut count, SimTime::MAX);
        assert_eq!(count.0, 10_000);
    });
    // 20 s of the Kafka shape: 4 000 ticks, 36 000 hops and the 3 400
    // timeouts due by then; one chain in a hundred expires.
    r.bench("des/kafka_shape_ticks_hops_timeouts_20s", || {
        let mut k = Kernel::new();
        let mut world = KafkaShape {
            rng: 0x9e37_79b9_7f4a_7c15,
            ..KafkaShape::default()
        };
        k.schedule(SimTime::ZERO, KafkaEv::Tick);
        k.run_until(&mut world, SimTime::from_secs_f64(20.0));
        assert!(world.fired > 43_000 && world.expired >= 30);
        world.fired
    });
    r.bench("des/kernel_cascade_10k", || {
        let mut k = Kernel::new();
        let mut count = Count::default();
        k.schedule(SimTime::ZERO, Bump::Cascade);
        k.run_until(&mut count, SimTime::MAX);
        count.0
    });
    // The observability acceptance gate: a station submit loop must cost the
    // same whether or not a (disabled) tracer check guards each submission.
    r.bench("des/station_submit_10k_untraced", || {
        let mut s = Station::new("bench", 2);
        let d = SimDuration::from_micros(3);
        for i in 0..10_000u64 {
            s.submit(SimTime::from_nanos(i * 1_000), d);
        }
        s.jobs()
    });
    r.bench("des/station_submit_10k_disabled_tracer", || {
        let sink = fabricsim_obs::Sink::<fabricsim_obs::PhaseEvent>::disabled();
        let mut s = Station::new("bench", 2);
        let d = SimDuration::from_micros(3);
        for i in 0..10_000u64 {
            let now = SimTime::from_nanos(i * 1_000);
            s.submit(now, d);
            if sink.enabled() {
                unreachable!("sink is disabled");
            }
        }
        s.jobs()
    });
}

fn bench_sharded_kernel(r: &mut Runner) {
    // Heap schedule/pop throughput under a worst-case (scattered) insertion
    // order — every push percolates instead of appending in time order.
    r.bench("des/heap_schedule_pop_scattered_32k", || {
        let mut k = Kernel::new();
        let mut count = Count::default();
        let mut x = 0x9e3779b97f4a7c15u64;
        for _ in 0..32_768u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            k.schedule(SimTime::from_nanos(x % 1_000_000_000), Bump::Once);
        }
        k.run_until(&mut count, SimTime::MAX);
        assert_eq!(count.0, 32_768);
    });

    // Serial monolithic kernel vs the sharded kernel on the same event load:
    // one 40k-event heap against four 10k-event heaps advanced in
    // conservative windows (1 ms lookahead, ~10 windows). The 1-worker pair
    // isolates the window/barrier bookkeeping cost; the 4-worker variant
    // additionally shows thread-level scaling on multicore hosts.
    #[derive(Default)]
    struct Tick {
        count: u64,
        out: Vec<(usize, SimTime, ())>,
    }
    impl Model for Tick {
        type Event = ();
        fn fire(&mut self, (): (), _: &mut Kernel<Self>) {
            self.count += 1;
        }
        fn label((): &()) -> &'static str {
            "tick"
        }
    }
    impl ShardWorld for Tick {
        type Msg = ();
        fn drain_outbox(&mut self) -> Vec<(usize, SimTime, ())> {
            std::mem::take(&mut self.out)
        }
        fn deliver(&mut self, _kernel: &mut Kernel<Self>, _at: SimTime, (): ()) {}
    }
    r.bench("des/serial_kernel_40k_events", || {
        let mut k = Kernel::new();
        let mut count = Count::default();
        for i in 0..40_000u64 {
            k.schedule(SimTime::from_nanos(i * 250), Bump::Once);
        }
        k.run_until(&mut count, SimTime::MAX);
        assert_eq!(count.0, 40_000);
    });
    let sharded = |workers: usize| {
        let mut sk: ShardedKernel<Tick> = ShardedKernel::new(SimDuration::from_millis(1));
        for _ in 0..4 {
            let mut k = Kernel::new();
            for i in 0..10_000u64 {
                k.schedule(SimTime::from_nanos(i * 1_000), ());
            }
            sk.push_shard(k, Tick::default());
        }
        let report = sk.run(workers, &|| false);
        assert_eq!(report.events, 40_000);
        report
    };
    r.bench("des/sharded_4x10k_events_1worker", || sharded(1));
    r.bench("des/sharded_4x10k_events_4workers", || sharded(4));
}

fn main() {
    let mut r = Runner::from_args();
    bench_crypto(&mut r);
    bench_policy(&mut r);
    bench_codec(&mut r);
    bench_ledger(&mut r);
    bench_vscc(&mut r);
    bench_commit_path(&mut r);
    bench_raft(&mut r);
    bench_kafka(&mut r);
    bench_des_kernel(&mut r);
    bench_sharded_kernel(&mut r);
}
