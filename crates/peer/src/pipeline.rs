//! The staged validation pipeline: block checks → parallel VSCC → serial
//! MVCC + commit.
//!
//! The paper finds the validate phase to be the system bottleneck, and the
//! follow-up literature (Javaid et al., *Optimizing Validation Phase of
//! Hyperledger Fabric*; Thakkar et al.) shows why the fix is architectural:
//! per-transaction VSCC (signature checks + policy evaluation) is
//! embarrassingly parallel, while the MVCC read-set check and the
//! state/blockstore commit must stay serial to preserve block order. This
//! module is the single source of truth for that decomposition — the
//! simulation layer models the same three stages as DES stations
//! (`peer.vscc`, `peer.commit`).
//!
//! Determinism contract: for any `validator_pool_size`, the flags come back
//! **in transaction order** and are **bit-for-bit identical** to the serial
//! path. Workers write into disjoint, tx-indexed chunks of the output, so the
//! result never depends on thread scheduling; with a pool of 1 no threads are
//! spawned at all.

use std::collections::{HashMap, HashSet};

use fabricsim_crypto::{Hash256, PublicKey};
use fabricsim_msp::{Certificate, Msp};
use fabricsim_types::{
    Block, CheckedBlock, ClientId, FxBuildHasher, Principal, Transaction, TxId, ValidationCode,
};

use crate::committer::{expand_endorser_keys, vscc_tx_hashed, Trust};
use crate::peer::PeerConfig;

/// The committer's staged validation pipeline.
///
/// Stages (paper §II, "validate phase"):
/// 1. **Block checks** ([`ValidationPipeline::block_checks`]): intra-block
///    transaction-id deduplication — a duplicated id is marked
///    `DUPLICATE_TXID` on every occurrence after the first, as in Fabric.
/// 2. **VSCC** ([`ValidationPipeline::vscc_flags`]): per-transaction creator
///    signature, endorsement signatures and endorsement-policy evaluation,
///    fanned out over a [`std::thread::scope`] worker pool of
///    `pool_size` threads.
/// 3. **MVCC + commit**: serial; owned by `fabricsim_ledger::Ledger`
///    (`mvcc_flags` then `commit`).
///
/// These are the staged parts a caller composes itself; the fused path,
/// which hashes each envelope once, is `Peer::validate_and_commit`.
#[derive(Debug, Clone, Copy)]
pub struct ValidationPipeline {
    pool_size: usize,
}

impl ValidationPipeline {
    /// Creates a pipeline whose VSCC stage uses `pool_size` workers
    /// (0 is treated as 1 = the serial stock-Fabric path).
    pub fn new(pool_size: usize) -> Self {
        ValidationPipeline {
            pool_size: pool_size.max(1),
        }
    }

    /// Stage 1: block-level checks. Flags every transaction whose id already
    /// appeared earlier in the same block (`None` = still eligible).
    pub fn block_checks(&self, block: &Block) -> Vec<Option<ValidationCode>> {
        let mut seen: HashSet<TxId, FxBuildHasher> =
            HashSet::with_capacity_and_hasher(block.transactions.len(), FxBuildHasher);
        block
            .transactions
            .iter()
            .map(|tx| {
                if seen.insert(tx.tx_id) {
                    None
                } else {
                    Some(ValidationCode::DuplicateTxId)
                }
            })
            .collect()
    }

    /// Stage 2: runs VSCC for every transaction not already flagged by stage
    /// 1, writing results into `flags` in transaction order. Each transaction
    /// is hashed here, by the worker that checks it; each endorser key the
    /// block names is expanded, and each creator's certificate validated,
    /// once for the whole call.
    pub fn vscc_flags(
        &self,
        block: &Block,
        config: &PeerConfig,
        msp: &Msp,
        client_certs: &HashMap<ClientId, Certificate>,
        endorser_keys: &HashMap<Principal, Vec<PublicKey>>,
        flags: &mut [Option<ValidationCode>],
    ) {
        let txs = &block.transactions;
        let endorser_keys = expand_endorser_keys(endorser_keys, txs);
        let trust = Trust::new(config, msp, client_certs, &endorser_keys, txs);
        self.vscc_stage(txs, None, &trust, flags);
    }

    /// The VSCC stage proper. `digests`, when given, is the pair of
    /// index-aligned slices a `CheckedBlock` kept (response digests, envelope
    /// hashes); otherwise each worker hashes the transactions of its chunk.
    fn vscc_stage(
        &self,
        txs: &[Transaction],
        digests: Option<(&[Hash256], &[Hash256])>,
        trust: &Trust<'_>,
        flags: &mut [Option<ValidationCode>],
    ) {
        assert_eq!(flags.len(), txs.len(), "one flag slot per transaction");
        let n = txs.len();
        let workers = self.pool_size.min(n.max(1));
        let run = |out: &mut [Option<ValidationCode>],
                   txs: &[Transaction],
                   digests: Option<(&[Hash256], &[Hash256])>| {
            for (i, (slot, tx)) in out.iter_mut().zip(txs).enumerate() {
                if slot.is_none() {
                    let (response_digest, envelope_hash) =
                        digests.map_or_else(|| tx.digests(), |(r, e)| (r[i], e[i]));
                    *slot = vscc_tx_hashed(tx, &response_digest, &envelope_hash, trust);
                }
            }
        };
        if workers <= 1 {
            run(flags, txs, digests);
        } else {
            // Each worker owns a disjoint tx-indexed chunk of the output, so
            // the merged result is independent of scheduling order.
            let chunk = n.div_ceil(workers);
            let run = &run;
            std::thread::scope(|s| {
                for (c, (out, txs)) in flags.chunks_mut(chunk).zip(txs.chunks(chunk)).enumerate() {
                    let span = c * chunk..c * chunk + txs.len();
                    let digests = digests.map(|(r, e)| (&r[span.clone()], &e[span]));
                    s.spawn(move || run(out, txs, digests));
                }
            });
        }
    }

    /// Stages 1 + 2 for a block whose envelopes were already hashed to prove
    /// its data hash: the pre-commit flags the ledger's MVCC stage consumes
    /// (`None` = eligible, `Some(code)` = rejected). VSCC verifies each
    /// creator and endorsement signature against the digests the proof kept.
    pub(crate) fn pre_commit_flags_checked(
        &self,
        checked: &CheckedBlock,
        trust: &Trust<'_>,
    ) -> Vec<Option<ValidationCode>> {
        let block = checked.block();
        let mut flags = self.block_checks(block);
        self.vscc_stage(
            &block.transactions,
            Some((checked.response_digests(), checked.envelope_hashes())),
            trust,
            &mut flags,
        );
        flags
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{endorsed_tx, fixture, mixed_txs, Fixture};
    use fabricsim_policy::Policy;
    use fabricsim_types::ChannelId;

    fn block_of(txs: Vec<Transaction>) -> Block {
        Block::assemble(ChannelId::default_channel(), 0, Hash256::ZERO, txs)
    }

    /// Stages 1 + 2 as a caller composes them, at `pool` workers: block
    /// checks, then VSCC for the transactions they left eligible.
    fn staged(f: &Fixture, pool: usize, block: &Block) -> Vec<Option<ValidationCode>> {
        let pipeline = ValidationPipeline::new(pool);
        let mut flags = pipeline.block_checks(block);
        pipeline.vscc_flags(
            block,
            &f.config,
            &f.msp,
            &f.client_certs,
            &f.endorser_keys,
            &mut flags,
        );
        flags
    }

    /// A block mixing valid, policy-failing, bad-endorser-signature and
    /// bad-creator-signature transactions, `n` in total.
    fn mixed_block(f: &Fixture, n: u64) -> Block {
        block_of(mixed_txs(f, 0, n))
    }

    #[test]
    fn pooled_vscc_is_identical_to_serial_across_pool_sizes() {
        let f = fixture(Policy::and_of_orgs(2), 2);
        let block = mixed_block(&f, 41);
        // A pool of one runs inline, on the caller's thread.
        let serial = staged(&f, 1, &block);
        // The mix really exercises every verdict class.
        assert!(serial.contains(&None));
        assert!(serial.contains(&Some(ValidationCode::EndorsementPolicyFailure)));
        assert!(serial.contains(&Some(ValidationCode::BadEndorserSignature)));
        assert!(serial.contains(&Some(ValidationCode::BadCreatorSignature)));
        for pool in [1, 2, 8] {
            assert_eq!(
                staged(&f, pool, &block),
                serial,
                "pool size {pool} diverged from serial"
            );
            // And from the digests a `CheckedBlock` kept, chunked per worker.
            let checked = CheckedBlock::new(block.clone()).expect("consistent block");
            let txs = &block.transactions;
            let endorser_keys = expand_endorser_keys(&f.endorser_keys, txs);
            let from_digests = ValidationPipeline::new(pool).pre_commit_flags_checked(
                &checked,
                &Trust::new(&f.config, &f.msp, &f.client_certs, &endorser_keys, txs),
            );
            assert_eq!(from_digests, serial, "digest path at pool {pool} diverged");
        }
    }

    #[test]
    fn pool_larger_than_the_block_is_fine() {
        let f = fixture(Policy::or_of_orgs(2), 2);
        let block = mixed_block(&f, 3);
        assert_eq!(staged(&f, 64, &block), staged(&f, 1, &block));
    }

    #[test]
    fn empty_block_yields_no_flags() {
        let f = fixture(Policy::or_of_orgs(1), 1);
        let block = block_of(Vec::new());
        for pool in [1, 4] {
            assert!(staged(&f, pool, &block).is_empty());
        }
    }

    #[test]
    fn duplicate_tx_ids_are_flagged_after_the_first() {
        let f = fixture(Policy::or_of_orgs(1), 1);
        let dup = endorsed_tx(&f, 7, &[0]);
        let block = block_of(vec![dup.clone(), endorsed_tx(&f, 8, &[0]), dup]);
        for pool in [1, 4] {
            assert_eq!(
                staged(&f, pool, &block),
                vec![None, None, Some(ValidationCode::DuplicateTxId)],
                "pool size {pool}"
            );
        }
    }

    #[test]
    fn zero_pool_size_is_clamped_to_serial() {
        assert_eq!(
            format!("{:?}", ValidationPipeline::new(0)),
            format!("{:?}", ValidationPipeline::new(1))
        );
        let f = fixture(Policy::and_of_orgs(2), 2);
        let block = mixed_block(&f, 9);
        assert_eq!(staged(&f, 0, &block), staged(&f, 1, &block));
    }

    /// Wall-clock speedup of the parallel VSCC stage — the ISSUE's acceptance
    /// bar (> 1.5× at 4 workers on a ≥1000-tx block). Timing-sensitive, so it
    /// only runs when asked for explicitly (CI runs it under `--release`):
    /// `cargo test --release -p fabricsim-peer -- --ignored vscc_pool_speedup`
    #[test]
    #[ignore = "wall-clock benchmark; run with --release -- --ignored"]
    #[expect(
        clippy::disallowed_methods,
        reason = "a wall-clock speedup benchmark times the host by definition"
    )]
    fn vscc_pool_speedup_exceeds_1_5x_at_4_workers() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        if cores < 4 {
            eprintln!("skipping speedup assertion: only {cores} core(s) available");
            return;
        }
        let f = fixture(Policy::and_of_orgs(3), 3);
        let txs = (0..1200).map(|n| endorsed_tx(&f, n, &[0, 1, 2])).collect();
        let block = block_of(txs);
        let time = |workers: usize| {
            let mut best = f64::INFINITY;
            for _ in 0..3 {
                let t0 = std::time::Instant::now();
                let flags = staged(&f, workers, &block);
                best = best.min(t0.elapsed().as_secs_f64());
                assert_eq!(flags.len(), 1200);
            }
            best
        };
        let serial = time(1);
        let pooled = time(4);
        let speedup = serial / pooled;
        assert!(
            speedup > 1.5,
            "VSCC at 4 workers must beat serial by >1.5x: serial {serial:.3}s, \
             pooled {pooled:.3}s, speedup {speedup:.2}x"
        );
    }
}
