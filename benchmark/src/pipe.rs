//! The pipe workloads: the real pipeline crates driven directly, without the
//! DES — `ClientSdk` → `Peer::endorse` → `EndorsementCollector` →
//! `OsnNode::handle` → `Peer::validate_and_commit`.
//!
//! Closed loop: one client, one block in flight. The client endorses a
//! block's worth of transactions against the committed state, the ordering
//! service cuts the block on the last of them, every peer commits it, and
//! only then does the next block's first proposal go out. A slow system is
//! therefore offered less load, which is why throughput, not latency under
//! load, is what these workloads report.
//!
//! Topology: five endorsing peers (one org each) plus one validate-only
//! observer, as in the paper's Fig. 1 and the DES's `committing_peers`. In a
//! traced repetition the observer is put together by this driver from the
//! parts `Peer::validate_and_commit` composes, so VSCC, MVCC and commit are
//! timed apart from outside while the work done stays what it was.

use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

use fabricsim_chaincode::samples::KvWrite;
use fabricsim_chaincode::{Chaincode, ChaincodeStub};
use fabricsim_client::{ClientSdk, CollectState, EndorsementCollector, TargetSelector};
use fabricsim_crypto::{sha256, Hash256, KeyPair, MerkleTree, PublicKey};
use fabricsim_ledger::{Ledger, StateDb};
use fabricsim_msp::{Certificate, CertificateAuthority, Msp};
use fabricsim_ordering::{OsnEffect, OsnInput, OsnNode};
use fabricsim_peer::{Peer, PeerConfig, ValidationPipeline};
use fabricsim_policy::Policy;
use fabricsim_types::codec::{decode_block, encode_block};
use fabricsim_types::{
    BatchConfig, Block, ChannelId, ClientId, OrgId, Principal, Transaction, ValidationCode,
};

use crate::gen::{self, Mix, Op, SplitMix};
use crate::harness::{Mode, Rep, Subject};
use crate::metrics::Values;
use crate::spans::{self, Recorder, Span};
use crate::stats;

const ENDORSERS: u32 = 5;
/// Endorsing peers plus the observer: everyone who commits each block.
const COMMITTERS: u64 = ENDORSERS as u64 + 1;
const RAFT_OSNS: u32 = 3;
/// Transactions the replay probes work on: enough for a steady median, few
/// enough that probing takes a fraction of a second.
const PROBE_TXS: usize = 1000;
const PROBE_PASSES: usize = 5;

struct Spec {
    policy: Policy,
    mix: Mix,
    block_txs: usize,
    blocks: usize,
    raft: bool,
}

pub struct PipeSubject {
    spec: Spec,
    seed: u64,
    ops: Vec<Op>,
    /// What the last traced repetition left behind, for the replay probes.
    traced: Option<Artifacts>,
}

struct Artifacts {
    spans: Vec<Span>,
    blocks: Vec<Block>,
    state: StateDb,
    client_cert: Certificate,
    msp: Msp,
}

/// The pipe workload of that name with its inputs generated from `seed`, or
/// `None` for another kind of name.
pub fn subject(name: &str, seed: u64) -> Option<PipeSubject> {
    let spec = match name {
        // 40 blocks of 100: 240 `validate_and_commit` samples a repetition,
        // twelve of them beyond the 95th percentile.
        "pipe_and5_kvput" => Spec {
            policy: Policy::and_of_orgs(ENDORSERS),
            mix: Mix::KvPut { value_bytes: 1 },
            block_txs: 100,
            blocks: 40,
            raft: false,
        },
        // A block touches half as many hot keys as there are, so about a
        // fifth of its transactions read a version an earlier one replaced.
        "pipe_or1_rmw_hot_1k" => Spec {
            policy: Policy::or_of_orgs(ENDORSERS),
            mix: Mix::Rmw {
                keyspace: 200,
                value_bytes: 1024,
            },
            block_txs: 100,
            blocks: 40,
            raft: true,
        },
        _ => return None,
    };
    let ops = gen::generate(seed, spec.mix, spec.block_txs * spec.blocks);
    Some(PipeSubject {
        spec,
        seed,
        ops,
        traced: None,
    })
}

/// A committing peer assembled from public parts, stage by stage, exactly as
/// `Peer::validate_and_commit` composes them.
struct StagedPeer {
    config: PeerConfig,
    msp: Msp,
    client_certs: HashMap<ClientId, Certificate>,
    endorser_keys: HashMap<Principal, Vec<PublicKey>>,
    ledger: Ledger,
}

enum Observer {
    Whole(Box<Peer>),
    Staged(Box<StagedPeer>),
}

impl Observer {
    fn ledger(&self) -> &Ledger {
        match self {
            Observer::Whole(p) => p.ledger(),
            Observer::Staged(s) => &s.ledger,
        }
    }
}

struct World {
    channel: ChannelId,
    sdk: ClientSdk,
    client_cert: Certificate,
    msp: Msp,
    endorsers: Vec<Peer>,
    observer: Observer,
    osns: Vec<OsnNode>,
    leader: usize,
    /// Endorser indices to target, one set per proposal, round-robin.
    target_sets: Vec<Vec<usize>>,
}

/// Identity enrolment, chaincode installation, genesis state and — for Raft —
/// the election. Fresh for every repetition, so repetitions share no state.
fn build_world(spec: &Spec, seed: u64, staged_observer: bool) -> Result<World, String> {
    let channel = ChannelId::default_channel();
    let ca = CertificateAuthority::new("bench-ca", seed);
    let msp = Msp::new(ca.root_of_trust());
    let config = |is_endorser| PeerConfig {
        channel: channel.clone(),
        endorsement_policy: spec.policy.clone(),
        is_endorser,
        validator_pool_size: 1,
    };
    let client_id = ClientId(0);
    let client = ca.enroll(
        Principal {
            org: OrgId(1),
            role: "client".into(),
        },
        "client0",
    );
    let client_cert = client.certificate().clone();
    let identities: Vec<_> = (0..ENDORSERS)
        .map(|i| ca.enroll(Principal::peer(OrgId(i + 1)), &format!("peer{i}")))
        .collect();
    let genesis: Vec<(String, Vec<u8>)> = match spec.mix {
        Mix::KvPut { .. } => Vec::new(),
        Mix::Rmw {
            keyspace,
            value_bytes,
        } => (0..keyspace)
            .map(|k| (gen::hot_key(k), SplitMix::new(seed ^ k).bytes(value_bytes)))
            .collect(),
    };

    let whole_peer = |identity, is_endorser| {
        let mut peer = Peer::new(identity, msp.clone(), config(is_endorser));
        peer.install_chaincode(Box::new(KvWrite));
        peer.register_client(client_id, client_cert.clone());
        for e in &identities {
            peer.register_endorser(e.principal().clone(), e.certificate().public_key);
        }
        for (key, value) in &genesis {
            peer.seed_state(key, value.clone());
        }
        peer
    };
    let endorsers: Vec<Peer> = identities
        .iter()
        .map(|id| whole_peer(id.clone(), true))
        .collect();
    let observer = if staged_observer {
        let mut endorser_keys: HashMap<Principal, Vec<PublicKey>> = HashMap::new();
        for e in &identities {
            endorser_keys
                .entry(e.principal().clone())
                .or_default()
                .push(e.certificate().public_key);
        }
        let mut ledger = Ledger::new(channel.0.clone());
        for (key, value) in &genesis {
            ledger.state_mut_for_bootstrap().seed(key, value.clone());
        }
        Observer::Staged(Box::new(StagedPeer {
            config: config(false),
            msp: msp.clone(),
            client_certs: HashMap::from([(client_id, client_cert.clone())]),
            endorser_keys,
            ledger,
        }))
    } else {
        let identity = ca.enroll(Principal::peer(OrgId(100)), "observer");
        Observer::Whole(Box::new(whole_peer(identity, false)))
    };

    // Minimal satisfying sets as endorser indices (org n is endorser n − 1).
    let mut selector = TargetSelector::new(&spec.policy);
    let target_sets = (0..selector.set_count())
        .map(|_| {
            selector
                .next_targets()
                .iter()
                .map(|p| p.org.0 as usize - 1)
                .collect()
        })
        .collect();

    let batch = BatchConfig {
        max_message_count: spec.block_txs,
        ..BatchConfig::default()
    };
    let (osns, leader) = if spec.raft {
        let mut osns: Vec<OsnNode> = (0..RAFT_OSNS)
            .map(|o| {
                OsnNode::raft(
                    o,
                    channel.clone(),
                    batch,
                    (0..RAFT_OSNS).collect(),
                    seed ^ 0xABCD ^ u64::from(o),
                )
            })
            .collect();
        let leader = elect(&mut osns)?;
        (osns, leader)
    } else {
        (vec![OsnNode::solo(0, channel.clone(), batch)], 0)
    };

    Ok(World {
        sdk: ClientSdk::new(client_id, client),
        channel,
        client_cert,
        msp,
        endorsers,
        observer,
        osns,
        leader,
        target_sets,
    })
}

/// Feeds `input` to OSN `to` and delivers every OSN-to-OSN message that
/// follows, first in first out and with no delay, until the group is quiet.
/// Returns the blocks OSN `deliver_from` handed to its subscribers and adds
/// the messages sent to `msgs`.
fn drive(
    osns: &mut [OsnNode],
    to: usize,
    input: OsnInput,
    deliver_from: usize,
    rec: &mut Recorder,
    id: u64,
    msgs: &mut u64,
) -> Vec<Block> {
    let mut blocks = Vec::new();
    let mut queue = VecDeque::from([(to, input)]);
    while let Some((to, input)) = queue.pop_front() {
        let effects = rec.time("ordering.handle", id, || osns[to].handle(input));
        for effect in effects {
            match effect {
                OsnEffect::SendOsn { to: next, message } => {
                    *msgs += 1;
                    queue.push_back((
                        next as usize,
                        OsnInput::Osn {
                            from: to as u32,
                            message,
                        },
                    ));
                }
                OsnEffect::BlockReady(block) if to == deliver_from => blocks.push(block),
                // Acks go to a client that does not wait for them here, the
                // batch timer never fires because every block fills, and
                // followers deliver to nobody.
                _ => {}
            }
        }
    }
    blocks
}

/// Ticks the group until it has a leader and returns its index.
fn elect(osns: &mut [OsnNode]) -> Result<usize, String> {
    let mut rec = Recorder::new(false);
    let mut msgs = 0;
    for _ in 0..10_000 {
        for o in 0..osns.len() {
            drive(osns, o, OsnInput::Tick, usize::MAX, &mut rec, 0, &mut msgs);
        }
        if let Some(leader) = osns.iter().position(OsnNode::is_leader) {
            return Ok(leader);
        }
    }
    Err("the raft group elected no leader in 10000 ticks".into())
}

/// Counters the driver keeps while a repetition runs.
#[derive(Default)]
struct Counts {
    refused: u64,
    endorse_calls: u64,
    endorsements: u64,
    raft_msgs: u64,
    vscc_txs: u64,
    commit_ms: Vec<f64>,
}

fn commit_everywhere(
    world: &mut World,
    block: Block,
    rec: &mut Recorder,
    counts: &mut Counts,
) -> Result<(), String> {
    let number = block.header.number;
    for peer in &mut world.endorsers {
        let copy = block.clone();
        let start = Instant::now();
        rec.time("peer.validate_and_commit", number, || {
            peer.validate_and_commit(copy)
        })
        .map_err(|e| format!("block {number} does not chain: {e}"))?;
        counts.commit_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let start = Instant::now();
    match &mut world.observer {
        Observer::Whole(peer) => {
            rec.time("peer.validate_and_commit", number, || {
                peer.validate_and_commit(block)
            })
            .map_err(|e| format!("block {number} does not chain: {e}"))?;
        }
        Observer::Staged(s) => {
            let pipeline = ValidationPipeline::new(s.config.validator_pool_size);
            rec.enter("peer.staged_commit", number);
            let mut pre = rec.time("peer.block_checks", number, || {
                pipeline.block_checks(&block)
            });
            counts.vscc_txs += pre.iter().filter(|f| f.is_none()).count() as u64;
            rec.time("peer.vscc", number, || {
                pipeline.vscc_flags(
                    &block,
                    &s.config,
                    &s.msp,
                    &s.client_certs,
                    &s.endorser_keys,
                    &mut pre,
                );
            });
            let flags = rec
                .time("ledger.mvcc", number, || s.ledger.mvcc_flags(&block, &pre))
                .map_err(|e| format!("block {number} does not chain: {e}"))?;
            rec.time("ledger.commit", number, || s.ledger.commit(block, flags));
            rec.exit();
        }
    }
    counts.commit_ms.push(start.elapsed().as_secs_f64() * 1e3);
    Ok(())
}

/// The flags every committer stamped into each block, after checking that
/// all six ledgers agree on them, on the chain and on the world state.
fn check_ledgers(world: &World, blocks: usize) -> Result<Vec<Vec<ValidationCode>>, String> {
    // The tip hash covers transactions, not the flags stamped at commit.
    let flags = |l: &Ledger| -> Vec<Vec<ValidationCode>> {
        l.blocks()
            .iter()
            .map(|b| b.metadata.flags.clone())
            .collect()
    };
    let reference = world.observer.ledger();
    let reference_flags = flags(reference);
    reference
        .blocks()
        .verify_chain()
        .map_err(|e| format!("the observer's chain does not verify: {e}"))?;
    for (i, peer) in world.endorsers.iter().enumerate() {
        let ledger = peer.ledger();
        if ledger.height() != blocks as u64 || reference.height() != blocks as u64 {
            return Err(format!(
                "peer {i} is at height {}, the observer at {}, and {blocks} blocks were cut",
                ledger.height(),
                reference.height()
            ));
        }
        if ledger.blocks().tip_hash() != reference.blocks().tip_hash() {
            return Err(format!(
                "peer {i} and the observer disagree on the tip hash"
            ));
        }
        ledger
            .blocks()
            .verify_chain()
            .map_err(|e| format!("peer {i}'s chain does not verify: {e}"))?;
        if !ledger
            .state()
            .range("", "")
            .eq(reference.state().range("", ""))
        {
            return Err(format!(
                "peer {i} and the observer disagree on the world state"
            ));
        }
        if flags(ledger) != reference_flags {
            return Err(format!(
                "peer {i} and the observer disagree on validation flags"
            ));
        }
    }
    Ok(reference_flags)
}

impl PipeSubject {
    /// How many transactions must come out invalid: none when keys are
    /// unique, and exactly the oracle's losers under contention.
    fn check_flags(&self, flags: &[Vec<ValidationCode>]) -> Result<(), String> {
        for (b, (got, ops)) in flags
            .iter()
            .zip(self.ops.chunks(self.spec.block_txs))
            .enumerate()
        {
            let want: Vec<ValidationCode> = match self.spec.mix {
                Mix::KvPut { .. } => vec![ValidationCode::Valid; ops.len()],
                Mix::Rmw { .. } => gen::rmw_oracle(ops)
                    .into_iter()
                    .map(|wins| {
                        if wins {
                            ValidationCode::Valid
                        } else {
                            ValidationCode::MvccReadConflict
                        }
                    })
                    .collect(),
            };
            if *got != want {
                let at = got.iter().zip(&want).position(|(g, w)| g != w);
                return Err(format!(
                    "block {b}: flags differ from the expected ones (first at tx {at:?}: got {:?})",
                    at.map(|i| got[i])
                ));
            }
        }
        Ok(())
    }

    fn layer_values(
        &self,
        spans: &[Span],
        wall_s: f64,
        counts: &Counts,
        flags: &[Vec<ValidationCode>],
        state_writes: u64,
    ) -> Result<Values, String> {
        let txs = flags.iter().map(Vec::len).sum::<usize>() as f64;
        let blocks = flags.len() as f64;
        let st = spans::self_times(spans);
        let self_ns = |name: &str| st.get(name).map_or(0, |s| s.self_ns) as f64;
        let us_per_tx = |name: &str| self_ns(name) / txs / 1e3;

        // The trace must account for the time it claims to explain.
        let total_ns: f64 = st.values().map(|s| s.self_ns as f64).sum();
        let span_sum_ratio = total_ns / (wall_s * 1e9);
        if (span_sum_ratio - 1.0).abs() > 0.01 {
            return Err(format!(
                "span self times sum to {:.3} of the repetition's wall, not within 1%",
                span_sum_ratio
            ));
        }

        let mut v = Values::new();
        for (metric, span) in [
            ("client.create_proposal_us_per_tx", "client.create_proposal"),
            ("client.collect_us_per_tx", "client.collect"),
            ("client.assemble_us_per_tx", "client.assemble"),
            ("peer.endorse_us_per_tx", "peer.endorse"),
            ("ordering.handle_us_per_tx", "ordering.handle"),
            // Staged spans are one committer's work on each transaction.
            ("peer.block_checks_us_per_tx", "peer.block_checks"),
            ("peer.vscc_us_per_tx", "peer.vscc"),
            ("ledger.mvcc_us_per_tx", "ledger.mvcc"),
            ("ledger.commit_us_per_tx", "ledger.commit"),
        ] {
            v.insert(metric, us_per_tx(span));
        }
        v.insert(
            "peer.validate_and_commit_us_per_tx",
            us_per_tx("peer.validate_and_commit") / f64::from(ENDORSERS),
        );
        v.insert(
            "bench.driver_us_per_tx",
            us_per_tx("rep") + us_per_tx("peer.staged_commit"),
        );
        v.insert("bench.span_sum_ratio", span_sum_ratio);
        v.insert("peer.endorse_calls", counts.endorse_calls as f64);
        v.insert("peer.vscc_txs", counts.vscc_txs as f64);
        v.insert("ordering.blocks_cut", blocks);
        v.insert("ordering.txs_per_block", txs / blocks);
        v.insert("raft.msgs_per_tx", counts.raft_msgs as f64 / txs);
        v.insert("raft.msgs_per_block", counts.raft_msgs as f64 / blocks);
        let conflicts = flags
            .iter()
            .flatten()
            .filter(|f| **f == ValidationCode::MvccReadConflict)
            .count();
        let valid = flags.iter().flatten().filter(|f| f.is_valid()).count();
        v.insert("ledger.mvcc_conflicts", conflicts as f64);
        v.insert("ledger.state_writes", state_writes as f64);
        v.insert("ledger.valid_share", valid as f64 / txs);
        // Signatures the protocol asks for, counted where the driver makes
        // the calls (certificate checks inside the MSP are not counted):
        // proposal and envelope by the client, one per endorsement; each
        // endorser checks the proposal, each committer the envelope and
        // every endorsement on it.
        let signs = 2.0 * txs + counts.endorsements as f64;
        let verifies =
            counts.endorse_calls as f64 + COMMITTERS as f64 * (txs + counts.endorsements as f64);
        v.insert("crypto.signs_per_tx", signs / txs);
        v.insert("crypto.verifies_per_tx", verifies / txs);
        Ok(v)
    }
}

impl Subject for PipeSubject {
    fn rep(&mut self, mode: Mode) -> Result<Rep, String> {
        let traced = mode == Mode::Traced;
        if mode == Mode::WarmUp {
            eprintln!(
                "{} operations generated from seed {}, digest {}",
                self.ops.len(),
                self.seed,
                gen::digest(&self.ops)
            );
        }
        let mut world = build_world(&self.spec, self.seed, traced)?;
        let mut rec = Recorder::new(traced);
        let mut counts = Counts::default();
        let mut next_set = 0usize;

        let start = Instant::now();
        rec.enter("rep", 0);
        for (n, op) in self.ops.iter().enumerate() {
            let n = n as u64;
            let args = op.args();
            let proposal = rec.time("client.create_proposal", n, || {
                world
                    .sdk
                    .create_proposal(world.channel.clone(), "kvwrite", args)
            });
            let targets = &world.target_sets[next_set];
            next_set = (next_set + 1) % world.target_sets.len();
            let mut collector =
                EndorsementCollector::new(proposal.tx_id, self.spec.policy.clone(), targets.len());
            let mut state = CollectState::Pending;
            for &t in targets {
                let response =
                    rec.time("peer.endorse", n, || world.endorsers[t].endorse(&proposal));
                counts.endorse_calls += 1;
                state = rec.time("client.collect", n, || collector.add(response));
            }
            if state != CollectState::Satisfied {
                counts.refused += 1;
                continue;
            }
            let tx = rec
                .time("client.assemble", n, || {
                    world.sdk.assemble(&proposal, collector.responses())
                })
                .map_err(|e| format!("tx {n}: {e}"))?;
            counts.endorsements += tx.endorsements.len() as u64;
            let leader = world.leader;
            let cut = drive(
                &mut world.osns,
                leader,
                OsnInput::Broadcast(tx),
                leader,
                &mut rec,
                n,
                &mut counts.raft_msgs,
            );
            for block in cut {
                commit_everywhere(&mut world, block, &mut rec, &mut counts)?;
            }
        }
        rec.exit();
        let wall_s = start.elapsed().as_secs_f64();

        // Output checks.
        let flags = check_ledgers(&world, self.spec.blocks)?;
        let landed = flags.iter().map(Vec::len).sum::<usize>() as u64;
        if landed + counts.refused != self.ops.len() as u64 {
            return Err(format!(
                "{} transactions submitted, {} refused, but {landed} reached a block",
                self.ops.len(),
                counts.refused
            ));
        }
        if counts.refused != 0 {
            return Err(format!(
                "{} proposals were refused endorsement",
                counts.refused
            ));
        }
        self.check_flags(&flags)?;

        let mut layers = Values::new();
        if traced {
            let spans = rec.into_spans();
            let ledger = world.observer.ledger();
            layers = self.layer_values(
                &spans,
                wall_s,
                &counts,
                &flags,
                ledger.state().writes_applied(),
            )?;
            self.traced = Some(Artifacts {
                spans,
                blocks: ledger.blocks().iter().cloned().collect(),
                state: ledger.state().clone(),
                client_cert: world.client_cert,
                msp: world.msp,
            });
        }
        Ok(Rep {
            wall_s,
            txs: landed,
            attempted: self.ops.len() as u64,
            // Conflicts the generator intends are outcomes, checked one by
            // one above; an operation fails when the system refuses it or
            // rules against the expected verdict, and either fails the run.
            failed: counts.refused,
            commit_ms: counts.commit_ms,
            layers,
        })
    }

    fn probes(&mut self) -> Result<Values, String> {
        let a = self
            .traced
            .as_ref()
            .ok_or("no traced repetition to replay")?;
        Ok(replay_probes(a, &self.spec.policy, &self.ops))
    }

    fn take_spans(&mut self) -> Vec<Span> {
        self.traced
            .as_mut()
            .map_or_else(Vec::new, |a| std::mem::take(&mut a.spans))
    }
}

/// Median over a few passes of `pass`'s wall nanoseconds per operation.
fn ns_per_op(ops_per_pass: usize, mut pass: impl FnMut()) -> f64 {
    let per_pass: Vec<f64> = (0..PROBE_PASSES)
        .map(|_| {
            let start = Instant::now();
            pass();
            start.elapsed().as_nanos() as f64 / ops_per_pass.max(1) as f64
        })
        .collect();
    stats::median(&per_pass)
}

/// Times the leaf crates' public functions on the bytes the traced
/// repetition really signed, hashed and encoded — not on synthetic data.
fn replay_probes(a: &Artifacts, policy: &Policy, ops: &[Op]) -> Values {
    let mut v = Values::new();
    let txs: Vec<&Transaction> = a
        .blocks
        .iter()
        .flat_map(|b| &b.transactions)
        .take(PROBE_TXS)
        .collect();

    let responses: Vec<Vec<u8>> = txs.iter().map(|tx| tx.response_bytes()).collect();
    let endorsements: usize = txs.iter().map(|tx| tx.endorsements.len()).sum();
    v.insert(
        "crypto.verify_ns_per_op",
        ns_per_op(endorsements, || {
            for (tx, bytes) in txs.iter().zip(&responses) {
                for e in &tx.endorsements {
                    assert!(black_box(
                        e.endorser_key.verify(black_box(bytes), &e.signature)
                    ));
                }
            }
        }),
    );
    let signer = KeyPair::from_seed(b"benchmark-probe");
    v.insert(
        "crypto.sign_ns_per_op",
        ns_per_op(responses.len(), || {
            for bytes in &responses {
                black_box(signer.sign(black_box(bytes)));
            }
        }),
    );
    let envelopes: Vec<Vec<u8>> = txs.iter().map(|tx| tx.signed_bytes()).collect();
    v.insert(
        "msp.verify_ns_per_op",
        ns_per_op(txs.len(), || {
            for (tx, bytes) in txs.iter().zip(&envelopes) {
                assert!(black_box(
                    a.msp
                        .verify(&a.client_cert, black_box(bytes), &tx.signature)
                )
                .is_ok());
            }
        }),
    );
    let principals: Vec<Vec<&Principal>> = txs
        .iter()
        .map(|tx| tx.endorsements.iter().map(|e| &e.endorser).collect())
        .collect();
    v.insert(
        "policy.eval_ns_per_op",
        ns_per_op(principals.len(), || {
            for p in &principals {
                assert!(black_box(
                    policy.is_satisfied_by(black_box(p).iter().copied())
                ));
            }
        }),
    );
    let invocations: Vec<Vec<Vec<u8>>> = ops.iter().take(PROBE_TXS).map(Op::args).collect();
    v.insert(
        "chaincode.invoke_ns_per_op",
        ns_per_op(invocations.len(), || {
            for args in &invocations {
                let mut stub = ChaincodeStub::new(&a.state);
                let payload = KvWrite.invoke(&mut stub, black_box(args));
                assert!(payload.is_ok());
                black_box(stub.into_rw_set());
            }
        }),
    );

    let probe_blocks = &a.blocks[..a.blocks.len().min(PROBE_TXS / 100)];
    let encoded: Vec<Vec<u8>> = probe_blocks.iter().map(encode_block).collect();
    let kib: f64 = encoded.iter().map(|b| b.len() as f64 / 1024.0).sum();
    v.insert(
        "types.block_bytes",
        encoded.iter().map(Vec::len).sum::<usize>() as f64 / encoded.len() as f64,
    );
    v.insert(
        "types.encode_block_us",
        ns_per_op(probe_blocks.len(), || {
            for b in probe_blocks {
                black_box(encode_block(black_box(b)));
            }
        }) / 1e3,
    );
    v.insert(
        "types.decode_block_us",
        ns_per_op(encoded.len(), || {
            for bytes in &encoded {
                assert!(black_box(decode_block(black_box(bytes))).is_ok());
            }
        }) / 1e3,
    );
    // Per KiB, so one pass's operations are the KiB it hashes.
    let sha_ns_per_pass_op = ns_per_op(1, || {
        for bytes in &encoded {
            black_box(sha256(black_box(bytes)));
        }
    });
    v.insert("crypto.sha256_ns_per_kib", sha_ns_per_pass_op / kib);
    let leaves: Vec<Vec<Hash256>> = probe_blocks
        .iter()
        .map(|b| {
            b.transactions
                .iter()
                .map(Transaction::envelope_hash)
                .collect()
        })
        .collect();
    v.insert(
        "crypto.merkle_root_us_per_block",
        ns_per_op(leaves.len(), || {
            for l in &leaves {
                black_box(MerkleTree::from_leaf_hashes(black_box(l.clone())).root());
            }
        }) / 1e3,
    );
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(name: &str, blocks: usize) -> PipeSubject {
        let mut s = subject(name, 9).expect("a pipe workload");
        s.spec.blocks = blocks;
        s.ops.truncate(s.spec.block_txs * blocks);
        s
    }

    #[test]
    fn kvput_commits_everything_valid_on_all_six_ledgers() {
        let mut s = small("pipe_and5_kvput", 2);
        let rep = s.rep(Mode::Timed).unwrap();
        assert_eq!((rep.txs, rep.attempted, rep.failed), (200, 200, 0));
        assert_eq!(rep.commit_ms.len(), 2 * COMMITTERS as usize);
        assert!(rep.layers.is_empty());
    }

    #[test]
    fn traced_rmw_matches_the_oracle_and_accounts_for_its_wall() {
        let mut s = small("pipe_or1_rmw_hot_1k", 3);
        let rep = s.rep(Mode::Traced).unwrap();
        let l = &rep.layers;
        assert_eq!(l["ordering.blocks_cut"], 3.0);
        assert_eq!(l["peer.endorse_calls"], 300.0);
        assert_eq!(l["crypto.signs_per_tx"], 3.0);
        assert_eq!(l["crypto.verifies_per_tx"], 1.0 + 6.0 * 2.0);
        assert!(l["ledger.mvcc_conflicts"] > 0.0 && l["ledger.valid_share"] < 1.0);
        assert_eq!(
            l["ledger.state_writes"],
            300.0 - l["ledger.mvcc_conflicts"],
            "only winners write"
        );
        assert!(
            l["raft.msgs_per_block"] >= 4.0,
            "two followers, request and reply"
        );
        assert!((l["bench.span_sum_ratio"] - 1.0).abs() <= 0.01);
        let probes = s.probes().unwrap();
        assert!(probes["crypto.verify_ns_per_op"] > 0.0);
        assert!(probes["types.block_bytes"] > 100.0 * 1024.0, "1 KiB values");
        assert!(!s.take_spans().is_empty());
    }

    #[test]
    fn a_wrong_verdict_fails_the_check() {
        let s = small("pipe_or1_rmw_hot_1k", 1);
        let mut flags: Vec<ValidationCode> = gen::rmw_oracle(&s.ops)
            .into_iter()
            .map(|w| {
                if w {
                    ValidationCode::Valid
                } else {
                    ValidationCode::MvccReadConflict
                }
            })
            .collect();
        assert!(s.check_flags(&[flags.clone()]).is_ok());
        flags[0] = ValidationCode::MvccReadConflict;
        assert!(s.check_flags(&[flags]).is_err());
    }
}
