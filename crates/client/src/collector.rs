//! Asynchronous endorsement collection.

use std::sync::Arc;

use fabricsim_policy::Policy;
use fabricsim_types::{ProposalResponse, TxId};

/// Collection status after each response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectState {
    /// More responses are needed.
    Pending,
    /// The policy is satisfied; the envelope can be assembled.
    Satisfied,
    /// Collection can never succeed (a peer failed or results diverged).
    Failed,
}

/// Accumulates proposal responses for one transaction until the endorsement
/// policy is satisfied (or provably unsatisfiable), checking result agreement
/// along the way — what the Node SDK does between `sendTransactionProposal`
/// and `sendTransaction`.
#[derive(Debug)]
pub struct EndorsementCollector {
    tx_id: TxId,
    /// The channel's policy, shared by every collection in flight on it.
    policy: Arc<Policy>,
    expected: usize,
    responses: Vec<ProposalResponse>,
    failed: bool,
    received: usize,
}

impl EndorsementCollector {
    /// Starts collecting for `tx_id` under `policy`, expecting `expected`
    /// responses in total (the number of targeted peers). A caller holding
    /// the channel's policy as an `Arc<Policy>` shares it; an owned `Policy`
    /// is moved into a new one.
    pub fn new(tx_id: TxId, policy: impl Into<Arc<Policy>>, expected: usize) -> Self {
        EndorsementCollector {
            tx_id,
            policy: policy.into(),
            expected,
            responses: Vec::with_capacity(expected),
            failed: false,
            received: 0,
        }
    }

    /// The transaction being collected.
    pub fn tx_id(&self) -> TxId {
        self.tx_id
    }

    /// Responses accepted so far (successful, matching ones).
    pub fn responses(&self) -> &[ProposalResponse] {
        &self.responses
    }

    /// Feeds one response; returns the new state.
    pub fn add(&mut self, response: ProposalResponse) -> CollectState {
        self.received += 1;
        if self.failed || response.tx_id != self.tx_id || !response.ok {
            self.failed = true;
            return self.state();
        }
        // Every accepted response is for `tx_id`, and the signed encoding is
        // canonical and injective, so equal results are equal signed bytes:
        // comparing with the first accepted response needs no encoding.
        if let Some(first) = self.responses.first() {
            if first.rw_set != response.rw_set || first.payload != response.payload {
                self.failed = true;
                return self.state();
            }
        }
        self.responses.push(response);
        self.state()
    }

    /// Current state.
    pub fn state(&self) -> CollectState {
        if self.failed {
            return CollectState::Failed;
        }
        // The policy counts each principal once, however often it answered.
        let principals = self
            .responses
            .iter()
            .filter_map(|r| r.endorsement.as_ref().map(|e| &e.endorser));
        if self.policy.is_satisfied_by(principals) {
            CollectState::Satisfied
        } else if self.received >= self.expected {
            // Everyone answered and the policy still isn't met.
            CollectState::Failed
        } else {
            CollectState::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabricsim_crypto::KeyPair;
    use fabricsim_types::{ClientId, Endorsement, OrgId, Principal, Proposal, RwSet};

    fn response(tx_id: TxId, org: u32, ok: bool, value: &[u8]) -> ProposalResponse {
        let kp = KeyPair::from_seed(format!("peer{org}").as_bytes());
        let mut rw = RwSet::new();
        rw.record_write("k", Some(value));
        let bytes = ProposalResponse::signed_bytes(tx_id, &rw, b"");
        ProposalResponse {
            tx_id,
            rw_set: rw,
            payload: Vec::new(),
            ok,
            endorsement: ok.then(|| Endorsement {
                endorser: Principal::peer(OrgId(org)),
                endorser_key: kp.public,
                signature: kp.sign(&bytes),
            }),
        }
    }

    fn txid() -> TxId {
        Proposal::derive_tx_id(ClientId(0), 1)
    }

    #[test]
    fn or_satisfied_by_first_response() {
        let mut c = EndorsementCollector::new(txid(), Policy::or_of_orgs(3), 1);
        assert_eq!(c.state(), CollectState::Pending);
        assert_eq!(
            c.add(response(txid(), 2, true, b"v")),
            CollectState::Satisfied
        );
        assert_eq!(c.responses().len(), 1);
    }

    #[test]
    fn and_waits_for_all() {
        let mut c = EndorsementCollector::new(txid(), Policy::and_of_orgs(3), 3);
        assert_eq!(
            c.add(response(txid(), 1, true, b"v")),
            CollectState::Pending
        );
        assert_eq!(
            c.add(response(txid(), 2, true, b"v")),
            CollectState::Pending
        );
        assert_eq!(
            c.add(response(txid(), 3, true, b"v")),
            CollectState::Satisfied
        );
    }

    #[test]
    fn failed_peer_fails_collection() {
        let mut c = EndorsementCollector::new(txid(), Policy::and_of_orgs(2), 2);
        assert_eq!(
            c.add(response(txid(), 1, false, b"v")),
            CollectState::Failed
        );
        // Subsequent good responses cannot resurrect it.
        assert_eq!(c.add(response(txid(), 2, true, b"v")), CollectState::Failed);
    }

    #[test]
    fn divergent_results_fail() {
        let mut c = EndorsementCollector::new(txid(), Policy::and_of_orgs(2), 2);
        c.add(response(txid(), 1, true, b"v1"));
        assert_eq!(
            c.add(response(txid(), 2, true, b"v2")),
            CollectState::Failed
        );
    }

    #[test]
    fn exhausted_without_satisfaction_fails() {
        // Policy needs Org3 but we only targeted Orgs 1-2.
        let mut c =
            EndorsementCollector::new(txid(), Policy::Principal(Principal::peer(OrgId(3))), 2);
        assert_eq!(
            c.add(response(txid(), 1, true, b"v")),
            CollectState::Pending
        );
        assert_eq!(c.add(response(txid(), 2, true, b"v")), CollectState::Failed);
    }

    #[test]
    fn duplicate_endorser_does_not_satisfy_and() {
        // The same org answering twice is one principal, not two.
        let mut c = EndorsementCollector::new(txid(), Policy::and_of_orgs(2), 3);
        assert_eq!(
            c.add(response(txid(), 1, true, b"v")),
            CollectState::Pending
        );
        assert_eq!(
            c.add(response(txid(), 1, true, b"v")),
            CollectState::Pending
        );
        assert_eq!(
            c.add(response(txid(), 2, true, b"v")),
            CollectState::Satisfied
        );
    }

    #[test]
    fn responses_accumulate_in_order() {
        let mut c = EndorsementCollector::new(txid(), Policy::and_of_orgs(2), 2);
        c.add(response(txid(), 1, true, b"v"));
        c.add(response(txid(), 2, true, b"v"));
        let orgs: Vec<u32> = c
            .responses()
            .iter()
            .map(|r| r.endorsement.as_ref().unwrap().endorser.org.0)
            .collect();
        assert_eq!(orgs, vec![1, 2]);
        assert_eq!(c.tx_id(), txid());
    }

    #[test]
    fn owned_and_shared_policies_collect_identically() {
        let shared = Arc::new(Policy::k_of_n_orgs(2, 3));
        let feeds: [&[(u32, bool, &[u8])]; 5] = [
            &[(1, true, b"v"), (1, true, b"v"), (3, true, b"v")],
            &[(2, true, b"v"), (3, true, b"w")],
            &[(1, false, b"v"), (2, true, b"v")],
            &[(1, true, b"v"), (2, true, b"v"), (3, true, b"v")],
            &[(3, true, b"v"), (9, true, b"v"), (3, true, b"v")],
        ];
        for feed in feeds {
            let mut owned = EndorsementCollector::new(txid(), (*shared).clone(), feed.len());
            let mut by_arc = EndorsementCollector::new(txid(), Arc::clone(&shared), feed.len());
            let states = |c: &mut EndorsementCollector| -> Vec<CollectState> {
                let mut seen = vec![c.state()];
                seen.extend(
                    feed.iter()
                        .map(|&(org, ok, value)| c.add(response(txid(), org, ok, value))),
                );
                seen
            };
            assert_eq!(states(&mut owned), states(&mut by_arc), "{feed:?}");
            assert_eq!(owned.responses(), by_arc.responses());
        }
    }

    #[test]
    fn wrong_tx_fails() {
        let mut c = EndorsementCollector::new(txid(), Policy::or_of_orgs(1), 1);
        let other = Proposal::derive_tx_id(ClientId(9), 9);
        assert_eq!(c.add(response(other, 1, true, b"v")), CollectState::Failed);
    }
}
