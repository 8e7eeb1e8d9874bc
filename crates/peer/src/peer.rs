//! The peer node object.

use std::sync::Arc;

use fabricsim_chaincode::{Chaincode, ChaincodeRegistry, ChaincodeStub};
use fabricsim_crypto::{sha256, PublicKey, VerifyingKey};
use fabricsim_ledger::{ChainError, Ledger};
use fabricsim_msp::{Certificate, Msp, SigningIdentity};
use fabricsim_policy::Policy;
use fabricsim_types::{
    Block, ChannelId, ClientId, Endorsement, Principal, Proposal, ProposalResponse, ValidationCode,
};

use crate::validator::{BlockValidator, Prevalidated};

/// Static configuration for a peer.
#[derive(Debug, Clone)]
pub struct PeerConfig {
    /// The channel this peer participates in.
    pub channel: ChannelId,
    /// The channel's endorsement policy (used by VSCC).
    pub endorsement_policy: Policy,
    /// Whether this peer endorses proposals (endorsing peers also validate;
    /// non-endorsing peers only validate — paper Fig. 1).
    pub is_endorser: bool,
    /// VSCC worker-pool size for the committer's validation pipeline
    /// (1 = stock Fabric 1.4 serial validation).
    pub validator_pool_size: usize,
}

/// A peer node: identity, ledger, installed chaincodes and the trust
/// directories needed to verify clients and fellow endorsers.
#[derive(Debug)]
pub struct Peer {
    identity: SigningIdentity,
    msp: Msp,
    ledger: Ledger,
    chaincodes: ChaincodeRegistry,
    /// The configuration and every registered key, shared with whoever
    /// checks blocks for this peer ahead of the commit.
    validator: Arc<BlockValidator>,
}

impl Peer {
    /// Creates a peer.
    pub fn new(identity: SigningIdentity, msp: Msp, config: PeerConfig) -> Self {
        let channel = config.channel.0.clone();
        Peer {
            identity,
            msp,
            ledger: Ledger::new(channel),
            chaincodes: ChaincodeRegistry::new(),
            validator: Arc::new(BlockValidator::new(config)),
        }
    }

    /// This peer's principal (org + role).
    pub fn principal(&self) -> &Principal {
        self.identity.principal()
    }

    /// Whether this peer endorses proposals.
    pub fn is_endorser(&self) -> bool {
        self.validator.config.is_endorser
    }

    /// What this peer checks blocks against, as a snapshot that can be
    /// handed to another thread: [`BlockValidator::check`] on it is the pure
    /// half of [`Peer::validate_and_commit`]. A later registration does not
    /// change a snapshot already handed out.
    pub fn validator(&self) -> Arc<BlockValidator> {
        Arc::clone(&self.validator)
    }

    /// Read access to the ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Lets go of the bodies of committed blocks numbered `number` or lower
    /// ([`Ledger::retire_through`]).
    pub fn retire_blocks_through(&mut self, number: u64) {
        self.ledger.retire_through(number);
    }

    /// The ledger, taken out of the peer.
    pub fn into_ledger(self) -> Ledger {
        self.ledger
    }

    /// Installs a chaincode and runs its `init`, seeding the bootstrap state
    /// directly (genesis world state, before any blocks).
    ///
    /// # Panics
    /// Panics if `init` fails — a deployment-time error.
    pub fn install_chaincode(&mut self, chaincode: Box<dyn Chaincode>) {
        {
            let mut stub = ChaincodeStub::new(self.ledger.state());
            #[expect(
                clippy::expect_used,
                reason = "deployment fail-fast: an init error aborts setup"
            )]
            chaincode
                .init(&mut stub)
                .expect("chaincode init must succeed at deployment");
            for w in stub.into_rw_set().writes {
                self.seed_state(&w.key, w.value.unwrap_or_default());
            }
        }
        self.chaincodes.install(chaincode);
    }

    /// Seeds a genesis key (version 0) in the world state.
    pub fn seed_state(&mut self, key: &str, value: impl Into<Arc<[u8]>>) {
        // Route through the ledger's state db at the genesis version.
        self.ledger_state_mut().seed(key, value);
    }

    fn ledger_state_mut(&mut self) -> &mut fabricsim_ledger::StateDb {
        // Ledger exposes read-only state; peers own their ledger, so provide
        // interior mutation through a dedicated path.
        // (Ledger has no public mutator for seeding; go through a local shim.)
        self.ledger.state_mut_for_bootstrap()
    }

    /// Registers a client identity as authorized on the channel. The MSP
    /// validates the certificate here, once, and the expanded key it returns
    /// is what every proposal the client sends and every transaction it
    /// creates is verified under; a certificate the MSP refuses registers
    /// the client as untrusted, and everything it signs is refused.
    /// Registering a client again replaces its key.
    pub fn register_client(&mut self, client: ClientId, cert: Certificate) {
        let key = self.msp.verified_key(&cert).map(Arc::new).ok();
        Arc::make_mut(&mut self.validator)
            .client_keys
            .insert(client, key);
    }

    /// Registers a fellow endorsing peer's public key under its principal
    /// (used by VSCC to authenticate endorsement signatures). The key is
    /// expanded here, once, for every endorsement it will be checked against.
    pub fn register_endorser(&mut self, principal: Principal, key: PublicKey) {
        Arc::make_mut(&mut self.validator)
            .endorser_keys
            .entry(principal)
            .or_default()
            .push(VerifyingKey::new(key));
    }

    // ---- execute phase -------------------------------------------------------

    /// Processes a proposal: the four endorsement checks, chaincode execution,
    /// and ESCC signing. Always returns a response; failed checks yield
    /// `ok = false` with no endorsement.
    pub fn endorse(&mut self, proposal: &Proposal) -> ProposalResponse {
        let fail = |tx_id| ProposalResponse {
            tx_id,
            rw_set: fabricsim_types::RwSet::new(),
            payload: Vec::new(),
            ok: false,
            endorsement: None,
        };

        let validator = &*self.validator;
        if !validator.config.is_endorser {
            return fail(proposal.tx_id);
        }
        // Check 1: well-formed.
        if proposal.channel != validator.config.channel
            || proposal.chaincode.is_empty()
            || proposal.args.is_empty()
            || proposal.tx_id != Proposal::derive_tx_id(proposal.creator, proposal.nonce)
        {
            return fail(proposal.tx_id);
        }
        // Check 2: not submitted in the past.
        if self.ledger.blocks().contains_tx(&proposal.tx_id) {
            return fail(proposal.tx_id);
        }
        // Checks 3 & 4: submitter authorized on the channel (registered with
        // a certificate the MSP trusts); signature valid under its key.
        let Some(Some(key)) = validator.client_keys.get(&proposal.creator) else {
            return fail(proposal.tx_id);
        };
        if !key.verify_digest(&sha256(&proposal.signed_bytes()), &proposal.signature) {
            return fail(proposal.tx_id);
        }

        // Execute the chaincode against committed state.
        let Ok(chaincode) = self.chaincodes.get(&proposal.chaincode) else {
            return fail(proposal.tx_id);
        };
        let mut stub = ChaincodeStub::new(self.ledger.state());
        let payload = match chaincode.invoke(&mut stub, &proposal.args) {
            Ok(p) => p,
            Err(_) => return fail(proposal.tx_id),
        };
        let rw_set = stub.into_rw_set();

        // ESCC: sign (tx id, rw-set, payload).
        let to_sign = ProposalResponse::signed_bytes(proposal.tx_id, &rw_set, &payload);
        let endorsement = Endorsement {
            endorser: self.identity.principal().clone(),
            endorser_key: self.identity.certificate().public_key,
            signature: self.identity.sign(&to_sign),
        };
        ProposalResponse {
            tx_id: proposal.tx_id,
            rw_set,
            payload,
            ok: true,
            endorsement: Some(endorsement),
        }
    }

    // ---- validate phase --------------------------------------------------------

    /// Validates and commits a delivered block through the staged
    /// [`ValidationPipeline`]: (1) block checks + dedup, (2) per-tx VSCC over
    /// the configured worker pool, (3) serial MVCC + state/blockstore commit.
    /// It is [`Peer::commit_prevalidated`] of this peer's
    /// [`BlockValidator::check`]: the pure half, then the stateful half.
    ///
    /// Each envelope is encoded and hashed once: the data hash is verified by
    /// building a [`fabricsim_types::CheckedBlock`], VSCC verifies creator
    /// signatures against the digests that proof kept, and the ledger commits
    /// the proof without recomputing the Merkle root. Each creator's key is
    /// the one resolved when it was registered: no certificate is looked at
    /// here.
    ///
    /// Returns the validation flags stamped into the committed block, one per
    /// transaction in block order.
    ///
    /// # Errors
    /// Returns [`ChainError`] if the block does not chain onto this peer's
    /// ledger tip: number, then previous-hash, then data hash.
    ///
    /// [`ValidationPipeline`]: crate::ValidationPipeline
    pub fn validate_and_commit(&mut self, block: Block) -> Result<Vec<ValidationCode>, ChainError> {
        let checked = self.validator.check(block);
        self.commit_prevalidated(checked)
    }

    /// The stateful half of validation, for a block whose pure half is done
    /// (by [`BlockValidator::check`], on any thread): the link check against
    /// the tip ([`ChainError::WrongNumber`], then
    /// [`ChainError::BrokenChain`]), then [`ChainError::BadDataHash`] if the
    /// data hash did not hold, then MVCC, the block append and the state
    /// writes. Nothing is written on an error.
    ///
    /// The flags are the ones the snapshot that checked the block trusted;
    /// the caller decides which snapshot that is.
    ///
    /// # Errors
    /// The first [`ChainError`] in the order above.
    pub fn commit_prevalidated(
        &mut self,
        block: Prevalidated,
    ) -> Result<Vec<ValidationCode>, ChainError> {
        self.ledger.blocks().check_links(block.header())?;
        let (checked, pre_flags) = block.into_checked().ok_or(ChainError::BadDataHash)?;
        self.ledger.validate_and_commit(checked, &pre_flags)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabricsim_chaincode::samples::KvWrite;
    use fabricsim_crypto::KeyPair;
    use fabricsim_msp::CertificateAuthority;
    use fabricsim_types::OrgId;

    fn setup() -> (Peer, SigningIdentity, CertificateAuthority) {
        let ca = CertificateAuthority::new("ca", 1);
        let peer_id = ca.enroll(Principal::peer(OrgId(1)), "peer0");
        let client_id = ca.enroll(
            Principal {
                org: OrgId(1),
                role: "client".into(),
            },
            "client0",
        );
        let mut peer = Peer::new(
            peer_id,
            Msp::new(ca.root_of_trust()),
            PeerConfig {
                channel: ChannelId::default_channel(),
                endorsement_policy: Policy::or_of_orgs(1),
                is_endorser: true,
                validator_pool_size: 1,
            },
        );
        peer.install_chaincode(Box::new(KvWrite));
        peer.register_client(ClientId(0), client_id.certificate().clone());
        (peer, client_id, ca)
    }

    fn proposal(client: &SigningIdentity, nonce: u64) -> Proposal {
        let creator = ClientId(0);
        let mut p = Proposal {
            tx_id: Proposal::derive_tx_id(creator, nonce),
            channel: ChannelId::default_channel(),
            chaincode: "kvwrite".into(),
            args: vec![b"put".to_vec(), b"k".to_vec(), b"v".to_vec()],
            creator,
            nonce,
            signature: KeyPair::from_seed(b"tmp").sign(b"x"),
        };
        p.signature = client.sign(&p.signed_bytes());
        p
    }

    #[test]
    fn valid_proposal_is_endorsed() {
        let (mut peer, client, _ca) = setup();
        let resp = peer.endorse(&proposal(&client, 1));
        assert!(resp.ok);
        let e = resp.endorsement.unwrap();
        assert_eq!(e.endorser, Principal::peer(OrgId(1)));
        let bytes = ProposalResponse::signed_bytes(resp.tx_id, &resp.rw_set, &resp.payload);
        assert!(e.endorser_key.verify(&bytes, &e.signature));
    }

    #[test]
    fn bad_client_signature_is_refused() {
        let (mut peer, client, _ca) = setup();
        let mut p = proposal(&client, 1);
        p.args[2] = b"tampered".to_vec(); // invalidates the signature
        let resp = peer.endorse(&p);
        assert!(!resp.ok);
        assert!(resp.endorsement.is_none());
    }

    #[test]
    fn unknown_client_is_refused() {
        let (mut peer, client, _ca) = setup();
        let mut p = proposal(&client, 1);
        p.creator = ClientId(99);
        p.tx_id = Proposal::derive_tx_id(p.creator, p.nonce);
        let resp = peer.endorse(&p);
        assert!(!resp.ok);
    }

    #[test]
    fn wrong_channel_is_refused() {
        let (mut peer, client, _ca) = setup();
        let mut p = proposal(&client, 1);
        p.channel = ChannelId("otherchannel".into());
        assert!(!peer.endorse(&p).ok);
    }

    #[test]
    fn forged_tx_id_is_refused() {
        let (mut peer, client, _ca) = setup();
        let mut p = proposal(&client, 1);
        p.tx_id = Proposal::derive_tx_id(ClientId(0), 999);
        assert!(!peer.endorse(&p).ok);
    }

    #[test]
    fn non_endorser_refuses() {
        let (peer, client, ca) = setup();
        drop(peer);
        let peer_id = ca.enroll(Principal::peer(OrgId(2)), "peer1");
        let mut committer_only = Peer::new(
            peer_id,
            Msp::new(ca.root_of_trust()),
            PeerConfig {
                channel: ChannelId::default_channel(),
                endorsement_policy: Policy::or_of_orgs(1),
                is_endorser: false,
                validator_pool_size: 1,
            },
        );
        assert!(!committer_only.is_endorser());
        assert!(!committer_only.endorse(&proposal(&client, 1)).ok);
    }

    use crate::testutil::{endorsed_tx, fixture, mixed_txs, stale_read_tx, Fixture};
    use crate::ValidationPipeline;
    use fabricsim_crypto::Hash256;
    use fabricsim_types::{CheckedBlock, Transaction};

    /// A validate-only peer trusting the fixture's CA, client and endorsers.
    #[expect(
        clippy::iter_over_hash_type,
        reason = "registration order cannot change what a peer trusts"
    )]
    fn committer(f: &Fixture, pool: usize) -> Peer {
        let mut peer = Peer::new(
            f.endorsers[0].clone(),
            f.msp.clone(),
            PeerConfig {
                validator_pool_size: pool,
                ..f.config.clone()
            },
        );
        for (client, cert) in &f.client_certs {
            peer.register_client(*client, cert.clone());
        }
        for (principal, keys) in &f.endorser_keys {
            for key in keys {
                peer.register_endorser(principal.clone(), *key);
            }
        }
        peer
    }

    fn next_block(peer: &Peer, txs: Vec<Transaction>) -> Block {
        let blocks = peer.ledger().blocks();
        Block::assemble(
            ChannelId::default_channel(),
            blocks.height(),
            blocks.tip_hash().unwrap_or(Hash256::ZERO),
            txs,
        )
    }

    /// `block` with its body rebuilt after `f` altered a copy of it.
    fn rebuilt(block: &Block, f: impl FnOnce(&mut Vec<Transaction>)) -> Block {
        let mut txs = block.transactions.to_vec();
        f(&mut txs);
        Block {
            transactions: txs.into(),
            ..block.clone()
        }
    }

    #[test]
    fn validate_and_commit_flags_every_verdict_class_identically_at_any_pool_size() {
        use ValidationCode::*;
        let f = fixture(Policy::and_of_orgs(2), 2);
        let mut reference: Option<Vec<Vec<ValidationCode>>> = None;
        for pool in [1, 2, 8] {
            let mut peer = committer(&f, pool);
            // The staged path, composed as a caller that times each stage
            // does, on a second ledger.
            let pipeline = ValidationPipeline::new(pool);
            let mut staged = Ledger::new(f.config.channel.0.clone());
            for round in 0..2 {
                let mut txs = mixed_txs(&f, round * 21, 21);
                // Reads "k" as absent after a valid transaction wrote it.
                txs.push(stale_read_tx(&f, 100 + round));
                // Nonce 0 again: a repeat within block 0, a replay of a
                // committed transaction in block 1.
                txs.push(endorsed_tx(&f, 0, &[0, 1]));
                let block = next_block(&peer, txs);

                let mut pre = pipeline.block_checks(&block);
                pipeline.vscc_flags(
                    &block,
                    &f.config,
                    &f.msp,
                    &f.client_certs,
                    &f.endorser_keys,
                    &mut pre,
                );
                let want = staged.mvcc_flags(&block, &pre).unwrap();
                staged.commit(block.clone(), want.clone());

                let flags = peer.validate_and_commit(block).unwrap();
                assert_eq!(flags, want, "pool size {pool}, block {round}");
                for code in [
                    Valid,
                    EndorsementPolicyFailure,
                    BadCreatorSignature,
                    BadEndorserSignature,
                    MvccReadConflict,
                    DuplicateTxId,
                ] {
                    assert!(flags.contains(&code), "{code:?} in block {round}");
                }
            }
            let fused = peer.ledger();
            assert_eq!(fused.blocks().tip_hash(), staged.blocks().tip_hash());
            assert!(fused.state().range("", "").eq(staged.state().range("", "")));
            assert!(fused.blocks().iter().eq(staged.blocks().iter()));
            assert!(fused.blocks().verify_chain().is_ok());
            let flags: Vec<_> = fused
                .blocks()
                .iter()
                .map(|b| b.metadata.flags.clone())
                .collect();
            match &reference {
                None => reference = Some(flags),
                Some(want) => assert_eq!(&flags, want, "pool size {pool} diverged"),
            }
        }
    }

    #[test]
    fn the_two_halves_give_what_the_fused_path_gives_on_any_thread() {
        use ValidationCode::*;
        let f = fixture(Policy::and_of_orgs(2), 2);
        // The fused path; the halves inline; the pure half on a spawned
        // thread, as the simulator's lane runs it.
        let mut fused = committer(&f, 1);
        let mut inline = committer(&f, 1);
        let mut spawned = committer(&f, 1);
        for round in 0..2 {
            let mut txs = mixed_txs(&f, round * 21, 21);
            txs.push(stale_read_tx(&f, 100 + round));
            txs.push(endorsed_tx(&f, 0, &[0, 1]));
            let block = next_block(&fused, txs);

            let want = fused.validate_and_commit(block.clone()).unwrap();
            for code in [
                Valid,
                EndorsementPolicyFailure,
                BadCreatorSignature,
                BadEndorserSignature,
                MvccReadConflict,
                DuplicateTxId,
            ] {
                assert!(want.contains(&code), "{code:?} in block {round}");
            }
            let checked = inline.validator().check(block.clone());
            assert_eq!(checked.header(), &block.header);
            assert_eq!(inline.commit_prevalidated(checked).unwrap(), want);

            let validator = spawned.validator();
            let checked = std::thread::spawn(move || validator.check(block))
                .join()
                .unwrap();
            assert_eq!(spawned.commit_prevalidated(checked).unwrap(), want);
        }
        for other in [&inline, &spawned] {
            let (a, b) = (fused.ledger(), other.ledger());
            assert_eq!(a.blocks().tip_hash(), b.blocks().tip_hash());
            assert!(a.state().range("", "").eq(b.state().range("", "")));
            assert!(a.blocks().iter().eq(b.blocks().iter()));
        }
    }

    /// Two peers that commit one shared block hold its write's own key and
    /// value bytes, not copies of them.
    #[test]
    fn peers_that_commit_one_block_share_its_key_and_value_bytes() {
        let f = fixture(Policy::or_of_orgs(1), 1);
        let (mut a, mut b) = (committer(&f, 1), committer(&f, 1));
        let block = Arc::new(next_block(&a, vec![endorsed_tx(&f, 1, &[0])]));
        for peer in [&mut a, &mut b] {
            let flags = peer.validate_and_commit(Arc::unwrap_or_clone(Arc::clone(&block)));
            assert_eq!(flags.unwrap(), [ValidationCode::Valid]);
        }
        let write = &block.transactions[0].rw_set.writes[0];
        let value = write.value.as_ref().unwrap();
        let (ka, va) = a.ledger().state().get_key_value("k").unwrap();
        let (kb, vb) = b.ledger().state().get_key_value("k").unwrap();
        assert!(Arc::ptr_eq(ka, &write.key) && Arc::ptr_eq(kb, &write.key));
        assert!(Arc::ptr_eq(&va.value, value) && Arc::ptr_eq(&vb.value, value));
    }

    #[test]
    fn the_stateful_half_reports_chain_errors_in_the_fused_order() {
        let f = fixture(Policy::or_of_orgs(1), 1);
        let mut peer = committer(&f, 1);
        let first = next_block(&peer, vec![endorsed_tx(&f, 1, &[0])]);
        peer.validate_and_commit(first).unwrap();
        let good = next_block(&peer, vec![endorsed_tx(&f, 2, &[0])]);
        let bad = rebuilt(&good, |t| t[0].payload = b"evil".to_vec());
        let mut unlinked = bad.clone();
        unlinked.header.previous_hash = Hash256::ZERO;
        let mut misnumbered = unlinked.clone();
        misnumbered.header.number = 5;
        let validator = peer.validator();
        for (block, want) in [
            // Misnumbered, unlinked and badly hashed: the number decides.
            (misnumbered, ChainError::WrongNumber { got: 5, want: 1 }),
            (unlinked, ChainError::BrokenChain),
            (bad, ChainError::BadDataHash),
        ] {
            let checked = validator.check(block);
            assert_eq!(peer.commit_prevalidated(checked), Err(want));
            assert_eq!(peer.ledger().height(), 1, "nothing written");
        }
        // A block checked too early is refused by the tip it meets.
        let mut ahead = good.clone();
        ahead.header.number = 2;
        assert_eq!(
            peer.commit_prevalidated(validator.check(ahead)),
            Err(ChainError::WrongNumber { got: 2, want: 1 })
        );
        assert_eq!(
            peer.commit_prevalidated(validator.check(good)).unwrap(),
            vec![ValidationCode::Valid]
        );
    }

    #[test]
    fn a_validator_snapshot_keeps_the_keys_it_was_taken_with() {
        let f = fixture(Policy::or_of_orgs(1), 1);
        let mut peer = committer(&f, 1);
        let before = peer.validator();
        assert!(
            Arc::ptr_eq(&before, &peer.validator()),
            "shared, not copied"
        );
        let rotated = client_of(&CertificateAuthority::new("ca", 1), "client0-rotated");
        peer.register_client(ClientId(0), rotated.certificate().clone());
        let after = peer.validator();
        assert!(!Arc::ptr_eq(&before, &after));
        let by_rotated = |nonce| {
            let mut tx = endorsed_tx(&f, nonce, &[0]);
            tx.signature = rotated.sign(&tx.signed_bytes());
            tx
        };
        // The earlier snapshot still trusts the old key only.
        let block = next_block(&peer, vec![by_rotated(1)]);
        assert_eq!(
            peer.commit_prevalidated(before.check(block)).unwrap(),
            vec![ValidationCode::BadCreatorSignature]
        );
        // The next one has the new key.
        let block = next_block(&peer, vec![by_rotated(2)]);
        assert_eq!(
            peer.commit_prevalidated(after.check(block)).unwrap(),
            vec![ValidationCode::Valid]
        );

        // The same for an endorser key registered after a snapshot.
        let second = CertificateAuthority::new("ca", 1).enroll(Principal::peer(OrgId(1)), "peer1b");
        let by_second = |nonce| {
            let mut tx = by_rotated(nonce);
            tx.endorsements[0] = Endorsement {
                endorser: second.principal().clone(),
                endorser_key: second.certificate().public_key,
                signature: second.sign(&tx.response_bytes()),
            };
            tx.signature = rotated.sign(&tx.signed_bytes());
            tx
        };
        peer.register_endorser(second.principal().clone(), second.certificate().public_key);
        let block = next_block(&peer, vec![by_second(3)]);
        assert_eq!(
            peer.commit_prevalidated(after.check(block)).unwrap(),
            vec![ValidationCode::BadEndorserSignature]
        );
        let block = next_block(&peer, vec![by_second(4)]);
        assert_eq!(
            peer.commit_prevalidated(peer.validator().check(block))
                .unwrap(),
            vec![ValidationCode::Valid]
        );
    }

    #[test]
    fn altered_block_is_rejected_with_bad_data_hash_and_nothing_is_written() {
        let f = fixture(Policy::or_of_orgs(1), 1);
        for pool in [1, 4] {
            let mut peer = committer(&f, pool);
            let first = next_block(&peer, vec![endorsed_tx(&f, 1, &[0])]);
            peer.validate_and_commit(first).unwrap();

            let good = next_block(
                &peer,
                vec![endorsed_tx(&f, 2, &[0]), endorsed_tx(&f, 3, &[0])],
            );
            let altered = rebuilt(&good, |t| t[1].rw_set.record_write("evil", Some(&[9])));
            let repaid = rebuilt(&good, |t| t[0].payload = b"evil".to_vec());
            let reendorsed = rebuilt(&good, |t| t[1].endorsements[0].signature.e ^= 1);
            let recreated = rebuilt(&good, |t| t[0].creator = ClientId(7));
            // A valid tx, not the one hashed.
            let swapped = rebuilt(&good, |t| t[0] = endorsed_tx(&f, 4, &[0]));
            let truncated = rebuilt(&good, |t| drop(t.pop()));
            for bad in [altered, repaid, reendorsed, recreated, swapped, truncated] {
                assert_eq!(peer.validate_and_commit(bad), Err(ChainError::BadDataHash));
                assert_eq!(peer.ledger().height(), 1);
                assert!(peer.ledger().state().get("evil").is_none());
            }
            // The untouched block still goes in afterwards.
            assert_eq!(
                peer.validate_and_commit(good).unwrap(),
                vec![ValidationCode::Valid; 2]
            );
        }
    }

    #[test]
    fn chain_errors_keep_their_precedence() {
        let f = fixture(Policy::or_of_orgs(1), 1);
        let mut peer = committer(&f, 1);
        let first = next_block(&peer, vec![endorsed_tx(&f, 1, &[0])]);
        peer.validate_and_commit(first).unwrap();
        let good = next_block(&peer, vec![endorsed_tx(&f, 2, &[0])]);
        let bad = rebuilt(&good, |t| t[0].payload = b"evil".to_vec());
        let mut unlinked = bad.clone();
        unlinked.header.previous_hash = Hash256::ZERO;
        let mut misnumbered = unlinked.clone();
        misnumbered.header.number = 5;
        assert_eq!(
            peer.validate_and_commit(misnumbered),
            Err(ChainError::WrongNumber { got: 5, want: 1 })
        );
        assert_eq!(
            peer.validate_and_commit(unlinked),
            Err(ChainError::BrokenChain)
        );
        assert_eq!(peer.validate_and_commit(bad), Err(ChainError::BadDataHash));
    }

    #[test]
    fn every_signature_is_still_verified_on_the_digest_path() {
        // One bad signature anywhere in an otherwise valid block must be
        // caught: the creator's (checked against the proof's envelope
        // digest) and each endorsement's (against the shared response
        // digest), whichever position it is in.
        let f = fixture(Policy::and_of_orgs(3), 3);
        let mut peer = committer(&f, 1);
        let clean: Vec<Transaction> = (0..4).map(|n| endorsed_tx(&f, n, &[0, 1, 2])).collect();
        let mut txs = clean.clone();
        txs[1].signature.s ^= 1;
        txs[2].endorsements[2].signature.e ^= 1;
        txs[2].signature = f.client.sign(&txs[2].signed_bytes());
        txs[3].endorsements[0].signature = txs[3].endorsements[1].signature;
        txs[3].signature = f.client.sign(&txs[3].signed_bytes());
        let block = next_block(&peer, txs);
        let checked = CheckedBlock::new(block.clone()).expect("re-assembled after tampering");
        assert_eq!(checked.envelope_hashes().len(), 4);
        peer.validate_and_commit(block).unwrap();
        assert_eq!(
            peer.ledger().blocks().by_number(0).unwrap().metadata.flags,
            vec![
                ValidationCode::Valid,
                ValidationCode::BadCreatorSignature,
                ValidationCode::BadEndorserSignature,
                ValidationCode::BadEndorserSignature,
            ]
        );
    }

    /// A client identity of Org1 enrolled by `ca` under `name`.
    fn client_of(ca: &CertificateAuthority, name: &str) -> SigningIdentity {
        let subject = Principal {
            org: OrgId(1),
            role: "client".into(),
        };
        ca.enroll(subject, name)
    }

    #[test]
    fn a_client_a_rogue_ca_certified_is_refused_everywhere() {
        // Endorsing: registered with a certificate the MSP refuses, the
        // client is refused on every proposal, however well it signs.
        let (mut peer, client, _ca) = setup();
        let rogue = client_of(&CertificateAuthority::new("rogue", 2), "client0");
        peer.register_client(ClientId(0), rogue.certificate().clone());
        for nonce in 1..=5 {
            assert!(!peer.endorse(&proposal(&rogue, nonce)).ok, "nonce {nonce}");
            assert!(!peer.endorse(&proposal(&client, nonce)).ok, "nonce {nonce}");
        }

        // Committing: every transaction it creates is flagged, at any pool
        // size, and its endorsements are not even looked at.
        let f = fixture(Policy::or_of_orgs(1), 1);
        for pool in [1, 4] {
            let mut peer = committer(&f, pool);
            peer.register_client(ClientId(0), rogue.certificate().clone());
            let txs: Vec<Transaction> = (0..6)
                .map(|n| {
                    let mut tx = endorsed_tx(&f, n, &[0]);
                    if n % 2 == 0 {
                        tx.signature = rogue.sign(&tx.signed_bytes());
                    }
                    tx
                })
                .collect();
            let block = next_block(&peer, txs);
            assert_eq!(
                peer.validate_and_commit(block).unwrap(),
                vec![ValidationCode::BadCreatorSignature; 6],
                "pool size {pool}"
            );
        }
    }

    #[test]
    fn re_registering_a_client_replaces_its_key() {
        let (mut peer, old, ca) = setup();
        let new = client_of(&ca, "client0-rotated");
        let rogue = client_of(&CertificateAuthority::new("rogue", 2), "client0");
        assert!(peer.endorse(&proposal(&old, 1)).ok);
        peer.register_client(ClientId(0), new.certificate().clone());
        assert!(!peer.endorse(&proposal(&old, 2)).ok);
        assert!(peer.endorse(&proposal(&new, 3)).ok);
        // Untrusted, then trusted again: the last registration decides.
        peer.register_client(ClientId(0), rogue.certificate().clone());
        assert!(!peer.endorse(&proposal(&new, 4)).ok);
        peer.register_client(ClientId(0), old.certificate().clone());
        assert!(peer.endorse(&proposal(&old, 5)).ok);
        assert!(!peer.endorse(&proposal(&new, 6)).ok);

        // The committer verifies each creator under its current key too.
        let f = fixture(Policy::or_of_orgs(1), 1);
        let mut peer = committer(&f, 1);
        let rotated = client_of(&CertificateAuthority::new("ca", 1), "client0-rotated");
        peer.register_client(ClientId(0), rotated.certificate().clone());
        let mut by_rotated = endorsed_tx(&f, 1, &[0]);
        by_rotated.signature = rotated.sign(&by_rotated.signed_bytes());
        let block = next_block(&peer, vec![endorsed_tx(&f, 0, &[0]), by_rotated]);
        assert_eq!(
            peer.validate_and_commit(block).unwrap(),
            vec![ValidationCode::BadCreatorSignature, ValidationCode::Valid]
        );
    }
}
