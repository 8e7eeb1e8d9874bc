//! VSCC: the validation system chaincode run per transaction at commit time.

use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::Arc;

use fabricsim_crypto::{Hash256, PublicKey, VerifyingKey};
use fabricsim_msp::{Certificate, Msp};
use fabricsim_types::{ClientId, FxBuildHasher, Principal, Transaction, ValidationCode};

use crate::peer::PeerConfig;

/// Expands, once each, the keys of `registered` that the endorsements of
/// `txs` name: the form VSCC verifies against, which a peer builds once per
/// key when it is registered and `ValidationPipeline::vscc_flags`, handed
/// plain keys, builds once per call. It walks the endorsements, not
/// `registered`: that is a hash map, whose order must not be iterated, and a
/// key no endorsement names needs no table. A key that is not registered under its principal is
/// left out, so VSCC refuses it exactly as it would have.
pub(crate) fn expand_endorser_keys(
    registered: &HashMap<Principal, Vec<PublicKey>>,
    txs: &[Transaction],
) -> HashMap<Principal, Vec<VerifyingKey>, FxBuildHasher> {
    let mut expanded: HashMap<Principal, Vec<VerifyingKey>, FxBuildHasher> = HashMap::default();
    for e in txs.iter().flat_map(|tx| &tx.endorsements) {
        let done = expanded
            .get(&e.endorser)
            .is_some_and(|ks| ks.iter().any(|k| k.public_key() == e.endorser_key));
        let is_registered = || {
            registered
                .get(&e.endorser)
                .is_some_and(|ks| ks.contains(&e.endorser_key))
        };
        if !done && is_registered() {
            expanded
                .entry(e.endorser.clone())
                .or_default()
                .push(VerifyingKey::new(e.endorser_key));
        }
    }
    expanded
}

/// What VSCC checks one block's signatures and endorsements against: the
/// peer's channel configuration, the key of every creator the block names and
/// the expanded keys of the registered endorsers.
pub(crate) struct Trust<'a> {
    config: &'a PeerConfig,
    /// Each creator's key, verified by the MSP once for the block; `None`
    /// when the creator is not registered or its certificate is untrusted.
    creators: HashMap<ClientId, Option<Arc<VerifyingKey>>, FxBuildHasher>,
    endorser_keys: &'a HashMap<Principal, Vec<VerifyingKey>, FxBuildHasher>,
}

impl<'a> Trust<'a> {
    /// Resolves the creators of `txs`, each once: its registered certificate,
    /// validated by `msp`, and the expanded key that comes with it. Every
    /// transaction from that creator is then checked against that key, with
    /// no lock and no certificate comparison of its own; a certificate's
    /// verdict does not depend on which of the block's transactions asks.
    pub(crate) fn new<S: BuildHasher>(
        config: &'a PeerConfig,
        msp: &Msp,
        client_certs: &HashMap<ClientId, Certificate, S>,
        endorser_keys: &'a HashMap<Principal, Vec<VerifyingKey>, FxBuildHasher>,
        txs: &[Transaction],
    ) -> Self {
        let mut creators: HashMap<ClientId, Option<Arc<VerifyingKey>>, FxBuildHasher> =
            HashMap::default();
        for tx in txs {
            creators.entry(tx.creator).or_insert_with(|| {
                let cert = client_certs.get(&tx.creator)?;
                msp.verified_key(cert).ok()
            });
        }
        Trust {
            config,
            creators,
            endorser_keys,
        }
    }
}

/// The one VSCC body: payload shape, creator signature, every endorsement
/// signature (authenticated against registered endorser keys) and
/// endorsement-policy satisfaction, given `tx.digests()` — which a committer
/// holding a `CheckedBlock` already has. The creator signed the envelope hash
/// and every endorser the response digest, so nothing is encoded or hashed
/// here. Returns the pre-commit flag: `None` = eligible for MVCC.
pub(crate) fn vscc_tx_hashed(
    tx: &Transaction,
    response_digest: &Hash256,
    envelope_hash: &Hash256,
    trust: &Trust<'_>,
) -> Option<ValidationCode> {
    let config = trust.config;
    // Shape checks.
    if tx.channel != config.channel
        || tx.chaincode.is_empty()
        || (tx.rw_set.reads.is_empty() && tx.rw_set.writes.is_empty() && tx.payload.is_empty())
    {
        return Some(ValidationCode::BadPayload);
    }
    // Creator signature over the envelope.
    let Some(Some(creator_key)) = trust.creators.get(&tx.creator) else {
        return Some(ValidationCode::BadCreatorSignature);
    };
    if !creator_key.verify_digest(envelope_hash, &tx.signature) {
        return Some(ValidationCode::BadCreatorSignature);
    }
    // Endorsement signatures: each key must be one registered under that
    // principal, and it is the registered key the signature is verified
    // under.
    for e in &tx.endorsements {
        let registered = trust
            .endorser_keys
            .get(&e.endorser)
            .and_then(|ks| ks.iter().find(|k| k.public_key() == e.endorser_key));
        if !registered.is_some_and(|key| key.verify_digest(response_digest, &e.signature)) {
            return Some(ValidationCode::BadEndorserSignature);
        }
    }
    // Endorsement policy.
    let endorsers = tx.endorsements.iter().map(|e| &e.endorser);
    if !config.endorsement_policy.is_satisfied_by(endorsers) {
        return Some(ValidationCode::EndorsementPolicyFailure);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{fixture, Fixture};
    use crate::ValidationPipeline;
    use fabricsim_crypto::KeyPair;
    use fabricsim_policy::Policy;
    use fabricsim_types::{Block, ChannelId, RwSet};

    fn endorsed_tx(f: &Fixture, endorser_indices: &[usize]) -> Transaction {
        crate::testutil::endorsed_tx(f, 7, endorser_indices)
    }

    /// The VSCC flag of `tx`, checked alone in a one-transaction block.
    fn verdict(f: &Fixture, tx: &Transaction) -> Option<ValidationCode> {
        let block = Block::assemble(
            ChannelId::default_channel(),
            0,
            Hash256::ZERO,
            vec![tx.clone()],
        );
        let mut flags = [None];
        ValidationPipeline::new(1).vscc_flags(
            &block,
            &f.config,
            &f.msp,
            &f.client_certs,
            &f.endorser_keys,
            &mut flags,
        );
        flags[0]
    }

    #[test]
    fn valid_tx_passes() {
        let f = fixture(Policy::or_of_orgs(3), 3);
        assert_eq!(verdict(&f, &endorsed_tx(&f, &[0])), None);
    }

    #[test]
    fn and_policy_needs_all_endorsers() {
        let f = fixture(Policy::and_of_orgs(3), 3);
        assert_eq!(
            verdict(&f, &endorsed_tx(&f, &[0, 1])),
            Some(ValidationCode::EndorsementPolicyFailure)
        );
        assert_eq!(verdict(&f, &endorsed_tx(&f, &[0, 1, 2])), None);
    }

    #[test]
    fn tampered_envelope_fails_creator_signature() {
        let f = fixture(Policy::or_of_orgs(1), 1);
        let mut tx = endorsed_tx(&f, &[0]);
        tx.payload = b"injected".to_vec();
        assert_eq!(verdict(&f, &tx), Some(ValidationCode::BadCreatorSignature));
    }

    #[test]
    fn forged_endorsement_fails() {
        let f = fixture(Policy::or_of_orgs(1), 1);
        let mut tx = endorsed_tx(&f, &[0]);
        // Forge: sign with an unregistered key claiming Org1.peer.
        let rogue = KeyPair::from_seed(b"rogue");
        tx.endorsements[0].endorser_key = rogue.public;
        tx.endorsements[0].signature = rogue.sign(&tx.response_bytes());
        tx.signature = f.client.sign(&tx.signed_bytes());
        assert_eq!(verdict(&f, &tx), Some(ValidationCode::BadEndorserSignature));
    }

    #[test]
    fn key_registered_under_another_principal_fails() {
        // Org2's genuine key and signature, presented as Org1's endorsement:
        // the key is registered, but not under the principal it claims.
        let f = fixture(Policy::or_of_orgs(2), 2);
        let mut tx = endorsed_tx(&f, &[1]);
        tx.endorsements[0].endorser = f.endorsers[0].principal().clone();
        tx.signature = f.client.sign(&tx.signed_bytes());
        assert_eq!(verdict(&f, &tx), Some(ValidationCode::BadEndorserSignature));
    }

    #[test]
    fn endorsement_over_different_rwset_fails() {
        let f = fixture(Policy::or_of_orgs(1), 1);
        let mut tx = endorsed_tx(&f, &[0]);
        // The endorser signed the original rw-set; mutate it and re-sign the
        // envelope only.
        tx.rw_set.record_write("other", Some(vec![9]));
        tx.signature = f.client.sign(&tx.signed_bytes());
        assert_eq!(verdict(&f, &tx), Some(ValidationCode::BadEndorserSignature));
    }

    #[test]
    fn empty_tx_is_bad_payload() {
        let f = fixture(Policy::or_of_orgs(1), 1);
        let mut tx = endorsed_tx(&f, &[0]);
        tx.rw_set = RwSet::new();
        tx.payload = Vec::new();
        tx.signature = f.client.sign(&tx.signed_bytes());
        assert_eq!(verdict(&f, &tx), Some(ValidationCode::BadPayload));
    }

    #[test]
    fn wrong_channel_is_bad_payload() {
        let f = fixture(Policy::or_of_orgs(1), 1);
        let mut tx = endorsed_tx(&f, &[0]);
        tx.channel = ChannelId("other".into());
        tx.signature = f.client.sign(&tx.signed_bytes());
        assert_eq!(verdict(&f, &tx), Some(ValidationCode::BadPayload));
    }

    #[test]
    fn unknown_creator_fails() {
        let f = fixture(Policy::or_of_orgs(1), 1);
        let mut tx = endorsed_tx(&f, &[0]);
        tx.creator = ClientId(42);
        assert_eq!(verdict(&f, &tx), Some(ValidationCode::BadCreatorSignature));
    }
}
