//! VSCC: the validation system chaincode run per transaction at commit time.

use std::collections::HashMap;

use fabricsim_crypto::{Hash256, PublicKey, VerifyingKey};
use fabricsim_msp::{Certificate, Msp};
use fabricsim_types::{Block, ClientId, Principal, Transaction, ValidationCode};

use crate::peer::PeerConfig;

/// Outcome of VSCC for one transaction (before MVCC).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VsccVerdict {
    /// Eligible for MVCC validation.
    Pass,
    /// Rejected with the given code.
    Fail(ValidationCode),
}

impl VsccVerdict {
    /// The verdict as a pre-commit flag: `None` = eligible for MVCC.
    pub(crate) fn flag(self) -> Option<ValidationCode> {
        match self {
            VsccVerdict::Pass => None,
            VsccVerdict::Fail(code) => Some(code),
        }
    }
}

/// Summary of a committed block.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CommitStats {
    /// Transactions flagged valid.
    pub valid: usize,
    /// Transactions invalidated by MVCC read conflicts.
    pub mvcc_conflicts: usize,
    /// Transactions invalidated by endorsement-policy failure.
    pub policy_failures: usize,
    /// Transactions invalidated by bad signatures (creator or endorser).
    pub bad_signatures: usize,
    /// Transactions invalidated as duplicates.
    pub duplicates: usize,
    /// Transactions invalidated as malformed.
    pub malformed: usize,
}

impl CommitStats {
    /// Aggregates validation flags into counts.
    pub fn from_flags(flags: &[ValidationCode]) -> Self {
        let mut s = CommitStats::default();
        for f in flags {
            match f {
                ValidationCode::Valid => s.valid += 1,
                ValidationCode::MvccReadConflict => s.mvcc_conflicts += 1,
                ValidationCode::EndorsementPolicyFailure => s.policy_failures += 1,
                ValidationCode::BadEndorserSignature | ValidationCode::BadCreatorSignature => {
                    s.bad_signatures += 1
                }
                ValidationCode::DuplicateTxId => s.duplicates += 1,
                ValidationCode::BadPayload => s.malformed += 1,
            }
        }
        s
    }

    /// Total transactions covered.
    pub fn total(&self) -> usize {
        self.valid
            + self.mvcc_conflicts
            + self.policy_failures
            + self.bad_signatures
            + self.duplicates
            + self.malformed
    }
}

/// Runs VSCC over every transaction of a block, producing the pre-flags the
/// ledger's MVCC pass consumes (`None` = eligible, `Some(code)` = rejected).
pub fn vscc_block(
    block: &Block,
    config: &PeerConfig,
    msp: &Msp,
    client_certs: &HashMap<ClientId, Certificate>,
    endorser_keys: &HashMap<Principal, Vec<PublicKey>>,
) -> Vec<Option<ValidationCode>> {
    let trust = Trust {
        config,
        msp,
        client_certs,
        endorser_keys: &expand_endorser_keys(endorser_keys, &block.transactions),
    };
    block
        .transactions
        .iter()
        .map(|tx| {
            let (response_digest, envelope_hash) = tx.digests();
            vscc_tx_hashed(tx, &response_digest, &envelope_hash, &trust).flag()
        })
        .collect()
}

/// [`vscc_block`] with the per-tx checks fanned out over a pool of `workers`
/// scoped threads (the VSCC stage of [`crate::ValidationPipeline`]). Returns
/// flags in transaction order, bit-for-bit identical to the serial path
/// regardless of scheduling; `workers <= 1` runs inline without spawning.
pub fn vscc_block_pooled(
    block: &Block,
    config: &PeerConfig,
    msp: &Msp,
    client_certs: &HashMap<ClientId, Certificate>,
    endorser_keys: &HashMap<Principal, Vec<PublicKey>>,
    workers: usize,
) -> Vec<Option<ValidationCode>> {
    let mut flags = vec![None; block.transactions.len()];
    crate::ValidationPipeline::new(workers).vscc_flags(
        block,
        config,
        msp,
        client_certs,
        endorser_keys,
        &mut flags,
    );
    flags
}

/// The registered endorser keys in the form VSCC verifies against: each
/// expanded once, when it was registered (or once per call of a public entry
/// point that is handed plain keys), not once per signature.
pub(crate) type EndorserKeys = HashMap<Principal, Vec<VerifyingKey>>;

/// Expands, once each, the keys of `registered` that the endorsements of
/// `txs` name. It walks the endorsements, not `registered`: that is a hash
/// map, whose order must not be iterated, and a key no endorsement names
/// needs no table. A key that is not registered under its principal is left
/// out, so VSCC refuses it exactly as it would have.
pub(crate) fn expand_endorser_keys(
    registered: &HashMap<Principal, Vec<PublicKey>>,
    txs: &[Transaction],
) -> EndorserKeys {
    let mut expanded = EndorserKeys::new();
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

/// What VSCC checks signatures and endorsements against: the peer's channel
/// configuration, its MSP and the identities registered with it.
#[derive(Clone, Copy)]
pub(crate) struct Trust<'a> {
    pub(crate) config: &'a PeerConfig,
    pub(crate) msp: &'a Msp,
    pub(crate) client_certs: &'a HashMap<ClientId, Certificate>,
    pub(crate) endorser_keys: &'a EndorserKeys,
}

/// VSCC for a single transaction: payload shape, creator signature, every
/// endorsement signature (authenticated against registered endorser keys),
/// and endorsement-policy satisfaction.
pub fn vscc_tx(
    tx: &Transaction,
    config: &PeerConfig,
    msp: &Msp,
    client_certs: &HashMap<ClientId, Certificate>,
    endorser_keys: &HashMap<Principal, Vec<PublicKey>>,
) -> VsccVerdict {
    let trust = Trust {
        config,
        msp,
        client_certs,
        endorser_keys: &expand_endorser_keys(endorser_keys, std::slice::from_ref(tx)),
    };
    let (response_digest, envelope_hash) = tx.digests();
    vscc_tx_hashed(tx, &response_digest, &envelope_hash, &trust)
}

/// The one VSCC body, given `tx.digests()` — which a committer holding a
/// `CheckedBlock` already has. The creator signed the envelope hash and every
/// endorser the response digest, so nothing is encoded or hashed here.
pub(crate) fn vscc_tx_hashed(
    tx: &Transaction,
    response_digest: &Hash256,
    envelope_hash: &Hash256,
    trust: &Trust<'_>,
) -> VsccVerdict {
    let Trust {
        config,
        msp,
        client_certs,
        endorser_keys,
    } = *trust;
    // Shape checks.
    if tx.channel != config.channel
        || tx.chaincode.is_empty()
        || (tx.rw_set.reads.is_empty() && tx.rw_set.writes.is_empty() && tx.payload.is_empty())
    {
        return VsccVerdict::Fail(ValidationCode::BadPayload);
    }
    // Creator signature over the envelope.
    let Some(cert) = client_certs.get(&tx.creator) else {
        return VsccVerdict::Fail(ValidationCode::BadCreatorSignature);
    };
    if msp
        .verify_digest(cert, envelope_hash, &tx.signature)
        .is_err()
    {
        return VsccVerdict::Fail(ValidationCode::BadCreatorSignature);
    }
    // Endorsement signatures: each key must be one registered under that
    // principal, and it is the registered key the signature is verified
    // under.
    for e in &tx.endorsements {
        let registered = endorser_keys
            .get(&e.endorser)
            .and_then(|ks| ks.iter().find(|k| k.public_key() == e.endorser_key));
        if !registered.is_some_and(|key| key.verify_digest(response_digest, &e.signature)) {
            return VsccVerdict::Fail(ValidationCode::BadEndorserSignature);
        }
    }
    // Endorsement policy.
    let endorsers = tx.endorsements.iter().map(|e| &e.endorser);
    if !config.endorsement_policy.is_satisfied_by(endorsers) {
        return VsccVerdict::Fail(ValidationCode::EndorsementPolicyFailure);
    }
    VsccVerdict::Pass
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{fixture, Fixture};
    use fabricsim_crypto::KeyPair;
    use fabricsim_policy::Policy;
    use fabricsim_types::{ChannelId, RwSet};

    fn endorsed_tx(f: &Fixture, endorser_indices: &[usize]) -> Transaction {
        crate::testutil::endorsed_tx(f, 7, endorser_indices)
    }

    fn verdict(f: &Fixture, tx: &Transaction) -> VsccVerdict {
        vscc_tx(tx, &f.config, &f.msp, &f.client_certs, &f.endorser_keys)
    }

    #[test]
    fn valid_tx_passes() {
        let f = fixture(Policy::or_of_orgs(3), 3);
        assert_eq!(verdict(&f, &endorsed_tx(&f, &[0])), VsccVerdict::Pass);
    }

    #[test]
    fn and_policy_needs_all_endorsers() {
        let f = fixture(Policy::and_of_orgs(3), 3);
        assert_eq!(
            verdict(&f, &endorsed_tx(&f, &[0, 1])),
            VsccVerdict::Fail(ValidationCode::EndorsementPolicyFailure)
        );
        assert_eq!(verdict(&f, &endorsed_tx(&f, &[0, 1, 2])), VsccVerdict::Pass);
    }

    #[test]
    fn tampered_envelope_fails_creator_signature() {
        let f = fixture(Policy::or_of_orgs(1), 1);
        let mut tx = endorsed_tx(&f, &[0]);
        tx.payload = b"injected".to_vec();
        assert_eq!(
            verdict(&f, &tx),
            VsccVerdict::Fail(ValidationCode::BadCreatorSignature)
        );
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
        assert_eq!(
            verdict(&f, &tx),
            VsccVerdict::Fail(ValidationCode::BadEndorserSignature)
        );
    }

    #[test]
    fn key_registered_under_another_principal_fails() {
        // Org2's genuine key and signature, presented as Org1's endorsement:
        // the key is registered, but not under the principal it claims.
        let f = fixture(Policy::or_of_orgs(2), 2);
        let mut tx = endorsed_tx(&f, &[1]);
        tx.endorsements[0].endorser = f.endorsers[0].principal().clone();
        tx.signature = f.client.sign(&tx.signed_bytes());
        assert_eq!(
            verdict(&f, &tx),
            VsccVerdict::Fail(ValidationCode::BadEndorserSignature)
        );
    }

    #[test]
    fn endorsement_over_different_rwset_fails() {
        let f = fixture(Policy::or_of_orgs(1), 1);
        let mut tx = endorsed_tx(&f, &[0]);
        // The endorser signed the original rw-set; mutate it and re-sign the
        // envelope only.
        tx.rw_set.record_write("other", Some(vec![9]));
        tx.signature = f.client.sign(&tx.signed_bytes());
        assert_eq!(
            verdict(&f, &tx),
            VsccVerdict::Fail(ValidationCode::BadEndorserSignature)
        );
    }

    #[test]
    fn empty_tx_is_bad_payload() {
        let f = fixture(Policy::or_of_orgs(1), 1);
        let mut tx = endorsed_tx(&f, &[0]);
        tx.rw_set = RwSet::new();
        tx.payload = Vec::new();
        tx.signature = f.client.sign(&tx.signed_bytes());
        assert_eq!(
            verdict(&f, &tx),
            VsccVerdict::Fail(ValidationCode::BadPayload)
        );
    }

    #[test]
    fn wrong_channel_is_bad_payload() {
        let f = fixture(Policy::or_of_orgs(1), 1);
        let mut tx = endorsed_tx(&f, &[0]);
        tx.channel = ChannelId("other".into());
        tx.signature = f.client.sign(&tx.signed_bytes());
        assert_eq!(
            verdict(&f, &tx),
            VsccVerdict::Fail(ValidationCode::BadPayload)
        );
    }

    #[test]
    fn unknown_creator_fails() {
        let f = fixture(Policy::or_of_orgs(1), 1);
        let mut tx = endorsed_tx(&f, &[0]);
        tx.creator = ClientId(42);
        assert_eq!(
            verdict(&f, &tx),
            VsccVerdict::Fail(ValidationCode::BadCreatorSignature)
        );
    }

    #[test]
    fn stats_aggregate() {
        let flags = [
            ValidationCode::Valid,
            ValidationCode::Valid,
            ValidationCode::MvccReadConflict,
            ValidationCode::EndorsementPolicyFailure,
            ValidationCode::BadEndorserSignature,
            ValidationCode::DuplicateTxId,
            ValidationCode::BadPayload,
        ];
        let s = CommitStats::from_flags(&flags);
        assert_eq!(s.valid, 2);
        assert_eq!(s.mvcc_conflicts, 1);
        assert_eq!(s.policy_failures, 1);
        assert_eq!(s.bad_signatures, 1);
        assert_eq!(s.duplicates, 1);
        assert_eq!(s.malformed, 1);
        assert_eq!(s.total(), 7);
    }
}
