//! The calibrated CPU / network cost model (DESIGN.md §5).
//!
//! Every constant here is a *measured-capacity calibration* against the
//! paper's testbed (Fabric v1.4.3, Node SDK 1.0, i7-2600 machines, 1 Gbps):
//! the derivations are spelled out field by field. Everything downstream —
//! knees, saturation order, latency blow-up past the peak — is emergent from
//! queueing, not hard-coded.

use fabricsim_des::SimDuration;

/// CPU and network service-time constants.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    // ---- client pools (workload generator + Node SDK) ----
    /// Proposal preparation on the pool's submission thread, ms. 19 ms ⇒
    /// ≈52 tps per pool, matching the paper's ≈50 tps-per-endorsing-peer
    /// execute-phase scaling (Table II).
    pub client_prep_ms: f64,
    /// Uniform jitter applied to preparation (± this many ms).
    pub client_prep_jitter_ms: f64,
    /// Fixed asynchronous SDK pipeline latency before the proposal leaves the
    /// client, ms (Node event loop + MSP context).
    pub sdk_pre_ms: f64,
    /// Fixed asynchronous SDK pipeline latency after collection, ms.
    pub sdk_post_ms: f64,
    /// Threads on the pool's response-processing station.
    pub client_recv_threads: usize,
    /// Base cost to process a satisfied endorsement set, ms.
    pub client_assemble_base_ms: f64,
    /// Additional per-endorsement verification/decode cost at the client, ms.
    /// This is what stretches execute latency under `AND-x` (Table III:
    /// 0.30 → 0.57 s as x grows 1 → 5).
    pub client_assemble_per_endorsement_ms: f64,
    /// Exponential-mean network/scheduling jitter per endorsement path, ms.
    /// Under `AND-x` the client waits for the max over x paths.
    pub endorse_path_jitter_ms: f64,
    /// Queue-depth cap per pool submission station; arrivals beyond it are
    /// dropped as overload (they could never meet the 3 s budget).
    pub client_queue_cap: usize,

    // ---- endorsing peers ----
    /// Proposal verification (the four checks), ms.
    pub peer_verify_proposal_ms: f64,
    /// Chaincode execution (Docker container call in real Fabric), ms.
    pub peer_execute_ms: f64,
    /// ESCC response signing, ms.
    pub peer_sign_ms: f64,
    /// Hardware threads on the peer's endorsement station (i7-2600: 8).
    pub peer_endorse_threads: usize,

    // ---- validating peers (the committer pipeline) ----
    /// Per-block overhead (header checks, ledger append), ms.
    pub validate_block_overhead_ms: f64,
    /// VSCC fixed cost per transaction, ms.
    pub vscc_base_ms: f64,
    /// VSCC cost per endorsement signature verified, ms. With the base cost
    /// this calibrates validate capacity to ≈310 tps at one signature (`OR`)
    /// and ≈205 tps at five (`AND5`) — the paper's bottleneck numbers.
    pub vscc_per_sig_ms: f64,
    /// MVCC read-set check per transaction, ms.
    pub mvcc_ms: f64,
    /// State + block store write per transaction, ms.
    pub commit_ms: f64,
    /// Committer threads (Fabric 1.4's commit path is serial: 1).
    pub validate_threads: usize,
    /// VSCC worker-pool size *within* one committer pipeline: per-tx VSCC
    /// checks for one block are fanned out over this many workers while MVCC
    /// and the state/blockstore commit stay serial (Javaid et al.; Thakkar et
    /// al.). 1 = stock Fabric 1.4 behaviour.
    pub validator_pool_size: usize,

    // ---- ordering service ----
    /// OSN admission (envelope checks) per transaction, ms.
    pub osn_admission_ms: f64,
    /// Solo consensus cost per transaction, ms.
    pub solo_order_ms: f64,
    /// Kafka broker append/fetch handling per message, ms.
    pub kafka_broker_op_ms: f64,
    /// Raft leader append + replication handling per message, ms.
    pub raft_op_ms: f64,
    /// OSN consume-poll period (Kafka mode) and Raft tick period, ms.
    pub osn_tick_ms: f64,
    /// Kafka broker replication/fetch tick period, ms.
    pub broker_tick_ms: f64,
    /// Broker → ZooKeeper heartbeat period, ms.
    pub zk_heartbeat_ms: f64,
    /// CPU threads per ordering-service node (admission + consensus work).
    pub osn_cpu_threads: usize,
    /// CPU threads per Kafka broker.
    pub broker_cpu_threads: usize,

    // ---- network ----
    /// Link bandwidth, bits per second (paper: 1 Gbps Ethernet).
    pub link_bandwidth_bps: u64,
    /// One-way propagation delay, ms.
    pub link_propagation_ms: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            client_prep_ms: 19.0,
            client_prep_jitter_ms: 2.0,
            sdk_pre_ms: 100.0,
            sdk_post_ms: 95.0,
            client_recv_threads: 8,
            client_assemble_base_ms: 12.0,
            client_assemble_per_endorsement_ms: 30.0,
            endorse_path_jitter_ms: 18.0,
            client_queue_cap: 220,

            peer_verify_proposal_ms: 0.4,
            peer_execute_ms: 1.8,
            peer_sign_ms: 0.5,
            peer_endorse_threads: 8,

            validate_block_overhead_ms: 1.0,
            vscc_base_ms: 2.0,
            vscc_per_sig_ms: 0.42,
            mvcc_ms: 0.25,
            commit_ms: 0.55,
            validate_threads: 1,
            validator_pool_size: 1,

            osn_admission_ms: 0.10,
            solo_order_ms: 0.05,
            kafka_broker_op_ms: 0.15,
            raft_op_ms: 0.15,
            osn_tick_ms: 10.0,
            broker_tick_ms: 5.0,
            zk_heartbeat_ms: 500.0,
            osn_cpu_threads: 2,
            broker_cpu_threads: 2,

            link_bandwidth_bps: 1_000_000_000,
            link_propagation_ms: 0.15,
        }
    }
}

impl CostModel {
    /// Validate-phase CPU per transaction carrying `sigs` endorsement
    /// signatures, ms.
    pub fn validate_tx_ms(&self, sigs: usize) -> f64 {
        self.vscc_base_ms + self.vscc_per_sig_ms * sigs as f64 + self.mvcc_ms + self.commit_ms
    }

    /// VSCC stage CPU per transaction (creator + endorsement signature
    /// checks, policy evaluation) at `sigs` signatures, ms. This is the part
    /// of [`CostModel::validate_tx_ms`] that parallelizes across the
    /// validator pool.
    pub fn vscc_tx_ms(&self, sigs: usize) -> f64 {
        self.vscc_base_ms + self.vscc_per_sig_ms * sigs as f64
    }

    /// Serial commit-stage CPU per transaction (MVCC read-set check + state
    /// and blockstore writes), ms.
    pub fn commit_tx_ms(&self) -> f64 {
        self.mvcc_ms + self.commit_ms
    }

    /// Makespan of running the per-transaction VSCC costs `per_tx_ms` over
    /// `workers` pool workers, ms. Deterministic greedy list schedule:
    /// transactions are assigned in tx order to the earliest-free worker —
    /// exactly the schedule the functional pipeline's chunk split
    /// approximates, and at `workers == 1` it degenerates to the plain
    /// left-to-right sum (bit-identical f64 accumulation). `free` is the
    /// workers' table, cleared here: a caller that keeps it allocates it
    /// once.
    pub fn vscc_makespan_ms(
        per_tx_ms: impl ExactSizeIterator<Item = f64>,
        workers: usize,
        free: &mut Vec<f64>,
    ) -> f64 {
        free.clear();
        free.resize(workers.max(1).min(per_tx_ms.len().max(1)), 0.0);
        for c in per_tx_ms {
            #[expect(
                clippy::expect_used,
                reason = "free is non-empty: its length has a max(.., 1) lower bound"
            )]
            let slot = free
                .iter_mut()
                .enumerate()
                .min_by(|(ai, a), (bi, b)| a.total_cmp(b).then(ai.cmp(bi)))
                .map(|(_, v)| v)
                .expect("at least one worker");
            *slot += c;
        }
        free.iter().fold(0.0f64, |m, &v| m.max(v))
    }

    /// One block's schedule at a peer's validate station, from the signature
    /// count of each of its transactions in block order: the services of its
    /// VSCC and commit stages, and each transaction's `(vscc_done, done)`
    /// offsets from the instant the VSCC stage starts. `free` is the VSCC
    /// pool's worker table ([`CostModel::vscc_makespan_ms`]).
    ///
    /// At a pool of 1 (stock Fabric) the block's total service is one f64
    /// sum and the VSCC stage is carved out of it by *integer* subtraction,
    /// so the two stages add up to the single-station service bit for bit;
    /// each transaction's VSCC check heads its own serial slice. With a
    /// wider pool the VSCC stage is the makespan of the per-transaction
    /// checks and a barrier, behind which MVCC and the ledger write run
    /// serially.
    pub(crate) fn validate_schedule<'a, I>(
        &'a self,
        sigs: I,
        free: &mut Vec<f64>,
    ) -> (
        SimDuration,
        SimDuration,
        impl Iterator<Item = (SimDuration, SimDuration)> + 'a,
    )
    where
        I: ExactSizeIterator<Item = usize> + Clone + 'a,
    {
        let ms = |x: f64| SimDuration::from_millis_f64(x.max(0.0));
        let overhead_ms = self.validate_block_overhead_ms;
        let serial = self.validator_pool_size <= 1;
        let (vscc, commit) = if serial {
            let per_tx_ms: f64 = sigs.clone().map(|s| self.validate_tx_ms(s)).sum();
            let total = ms(overhead_ms + per_tx_ms);
            let vscc_ms: f64 = sigs.clone().map(|s| self.vscc_tx_ms(s)).sum();
            let vscc = ms(vscc_ms).min(total);
            (vscc, total - vscc)
        } else {
            let per_tx_ms = sigs.clone().map(|s| self.vscc_tx_ms(s));
            let vscc = ms(Self::vscc_makespan_ms(
                per_tx_ms,
                self.validator_pool_size,
                free,
            ));
            let commit_ms = overhead_ms + self.commit_tx_ms() * sigs.len() as f64;
            (vscc, ms(commit_ms))
        };
        // Milliseconds of serial work before the next transaction: the
        // block's so far (serial), or the commit stage's so far (pooled).
        let mut acc = overhead_ms;
        let offsets = sigs.map(move |s| {
            let at = SimDuration::from_millis_f64;
            if serial {
                // A tx's vscc-done instant never lands after its done.
                let c = self.validate_tx_ms(s);
                let (vscc_done, done) = (at(acc + self.vscc_tx_ms(s)), at(acc + c));
                acc += c;
                (vscc_done.min(done), done)
            } else {
                acc += self.commit_tx_ms();
                (vscc, vscc + at(acc))
            }
        });
        (vscc, commit, offsets)
    }

    /// Effective validate-phase CPU per transaction at `sigs` signatures,
    /// ignoring block overhead, ms. Accounts for the VSCC pool: with `p` pool
    /// workers the VSCC stage of a full block shrinks ≈`1/p` while MVCC +
    /// commit stay serial.
    pub fn pooled_validate_tx_ms(&self, sigs: usize) -> f64 {
        if self.validator_pool_size <= 1 {
            return self.validate_tx_ms(sigs);
        }
        self.vscc_tx_ms(sigs) / self.validator_pool_size as f64 + self.commit_tx_ms()
    }

    /// Theoretical validate-phase capacity (tps) at `sigs` signatures per
    /// transaction, ignoring block overhead
    /// ([`CostModel::pooled_validate_tx_ms`]).
    pub fn validate_capacity_tps(&self, sigs: usize) -> f64 {
        1000.0 * self.validate_threads as f64 / self.pooled_validate_tx_ms(sigs)
    }

    /// Theoretical execute-phase capacity (tps) with `pools` client pools.
    pub fn execute_capacity_tps(&self, pools: usize) -> f64 {
        1000.0 * pools as f64 / self.client_prep_ms
    }

    /// Endorsement CPU per proposal at a peer, ms.
    pub fn endorse_tx_ms(&self) -> f64 {
        self.peer_verify_proposal_ms + self.peer_execute_ms + self.peer_sign_ms
    }

    /// Helper: a millisecond count as a [`SimDuration`].
    pub fn ms(x: f64) -> SimDuration {
        SimDuration::from_millis_f64(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_matches_the_paper() {
        let m = CostModel::default();
        // Validate bottleneck: ~310 tps under OR (1 sig), ~205 under AND5.
        let or = m.validate_capacity_tps(1);
        let and5 = m.validate_capacity_tps(5);
        assert!((300.0..325.0).contains(&or), "OR validate capacity {or}");
        assert!(
            (195.0..215.0).contains(&and5),
            "AND5 validate capacity {and5}"
        );
        // Execute phase: ~52 tps per client pool.
        let per_pool = m.execute_capacity_tps(1);
        assert!((50.0..55.0).contains(&per_pool), "pool capacity {per_pool}");
        // Endorsement is never the bottleneck: >2000 tps per peer.
        let peer_cap = 1000.0 * m.peer_endorse_threads as f64 / m.endorse_tx_ms();
        assert!(peer_cap > 2000.0, "peer endorse capacity {peer_cap}");
    }

    #[test]
    fn validate_cost_grows_with_signatures() {
        let m = CostModel::default();
        assert!(m.validate_tx_ms(5) > m.validate_tx_ms(1));
        assert!((m.validate_tx_ms(5) - m.validate_tx_ms(1) - 4.0 * m.vscc_per_sig_ms).abs() < 1e-9);
    }

    #[test]
    fn ms_helper() {
        assert_eq!(CostModel::ms(1.5).as_nanos(), 1_500_000);
    }

    #[test]
    fn stage_costs_sum_to_the_whole() {
        let m = CostModel::default();
        for sigs in [1, 3, 5] {
            assert!((m.vscc_tx_ms(sigs) + m.commit_tx_ms() - m.validate_tx_ms(sigs)).abs() < 1e-12);
        }
    }

    #[test]
    fn vscc_pool_relieves_the_validate_bottleneck() {
        // The Javaid-style relief curve: capacity grows with pool size but
        // saturates at the serial commit stage (Amdahl).
        let mut m = CostModel::default();
        let c1 = m.validate_capacity_tps(1);
        m.validator_pool_size = 4;
        let c4 = m.validate_capacity_tps(1);
        m.validator_pool_size = 1024;
        let ceiling = m.validate_capacity_tps(1);
        assert!(c4 > c1 * 1.5, "4 workers should relieve VSCC: {c1} -> {c4}");
        let serial_cap = 1000.0 / m.commit_tx_ms();
        assert!(
            ceiling < serial_cap && ceiling > serial_cap * 0.9,
            "huge pools pin capacity at the serial commit stage: {ceiling} vs {serial_cap}"
        );
    }

    fn makespan(costs: &[f64], workers: usize) -> f64 {
        CostModel::vscc_makespan_ms(costs.iter().copied(), workers, &mut Vec::new())
    }

    #[test]
    fn makespan_single_worker_is_the_plain_sum() {
        let costs = [2.42, 2.42, 4.1, 0.3, 2.42];
        let serial: f64 = costs.iter().sum();
        assert_eq!(makespan(&costs, 1), serial);
        assert_eq!(makespan(&costs, 0), serial);
    }

    #[test]
    fn makespan_shrinks_with_workers_but_not_below_critical_path() {
        let costs: Vec<f64> = (0..100).map(|i| 2.0 + (i % 7) as f64 * 0.42).collect();
        let serial: f64 = costs.iter().sum();
        let m2 = makespan(&costs, 2);
        let m4 = makespan(&costs, 4);
        assert!(m2 < serial && m4 < m2, "{serial} {m2} {m4}");
        // Greedy list scheduling is within 2x of the lower bound sum/p.
        assert!(m4 >= serial / 4.0 && m4 <= serial / 2.0);
        // More workers than jobs: the longest single job is the makespan.
        let longest = costs.iter().fold(0.0f64, |m, &v| m.max(v));
        assert_eq!(makespan(&costs, 1000), longest);
    }

    #[test]
    fn validate_schedule_tiles_the_block_service() {
        let sigs = [5usize, 5, 1, 5, 3];
        for pool in [1, 4] {
            let m = CostModel {
                validator_pool_size: pool,
                ..CostModel::default()
            };
            let (vscc, commit, offsets) =
                m.validate_schedule(sigs.iter().copied(), &mut Vec::new());
            let end = vscc + commit;
            if pool == 1 {
                let per_tx_ms: f64 = sigs.iter().map(|&s| m.validate_tx_ms(s)).sum();
                assert_eq!(end, CostModel::ms(m.validate_block_overhead_ms + per_tx_ms));
            }
            let offsets: Vec<_> = offsets.collect();
            assert_eq!(offsets.len(), sigs.len());
            let mut last_done = SimDuration::ZERO;
            for &(vscc_done, done) in &offsets {
                assert!(vscc_done <= done && last_done < done, "pool {pool}");
                if pool > 1 {
                    assert_eq!(vscc_done, vscc, "the pooled VSCC stage is a barrier");
                }
                last_done = done;
            }
            // The last transaction is done when the block is, up to the
            // rounding of summing its costs in another order.
            let gap = end.as_nanos().abs_diff(last_done.as_nanos());
            assert!(gap <= 1, "pool {pool}: {gap} ns");
        }
    }

    #[test]
    fn makespan_of_empty_block_is_zero() {
        assert_eq!(makespan(&[], 4), 0.0);
    }
}
