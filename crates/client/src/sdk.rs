//! Proposal creation and envelope assembly.

use std::error::Error;
use std::fmt;

use fabricsim_crypto::Signature;
use fabricsim_msp::SigningIdentity;
use fabricsim_types::{ChannelId, ClientId, Proposal, ProposalResponse, Transaction};

/// Why envelope assembly failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AssembleError {
    /// No successful endorsements were provided.
    NoEndorsements,
    /// A response was for a different transaction.
    MixedTransactions,
    /// Endorsers disagreed on the read/write set or payload (non-deterministic
    /// chaincode, or divergent peer state).
    MismatchedResults,
    /// A response was marked failed by the peer.
    FailedEndorsement,
}

impl fmt::Display for AssembleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            AssembleError::NoEndorsements => "no successful endorsements to assemble",
            AssembleError::MixedTransactions => "responses belong to different transactions",
            AssembleError::MismatchedResults => "endorsers disagreed on the simulation result",
            AssembleError::FailedEndorsement => "an endorsing peer rejected the proposal",
        };
        f.write_str(msg)
    }
}

impl Error for AssembleError {}

/// What the signature field holds while the artefact's signed bytes — which
/// do not cover it — are being encoded for the one real signature.
const UNSIGNED: Signature = Signature { e: 0, s: 0 };

/// A signing client: creates proposals and assembles endorsed envelopes.
#[derive(Debug)]
pub struct ClientSdk {
    id: ClientId,
    identity: SigningIdentity,
    next_nonce: u64,
}

impl ClientSdk {
    /// Creates a client SDK instance for an enrolled identity.
    pub fn new(id: ClientId, identity: SigningIdentity) -> Self {
        ClientSdk {
            id,
            identity,
            next_nonce: 0,
        }
    }

    /// This client's id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Builds and signs a proposal with a fresh nonce.
    pub fn create_proposal(
        &mut self,
        channel: ChannelId,
        chaincode: &str,
        args: Vec<Vec<u8>>,
    ) -> Proposal {
        let nonce = self.next_nonce;
        self.next_nonce += 1;
        let mut proposal = Proposal {
            tx_id: Proposal::derive_tx_id(self.id, nonce),
            channel,
            chaincode: chaincode.to_string(),
            args,
            creator: self.id,
            nonce,
            signature: UNSIGNED,
        };
        proposal.signature = self.identity.sign(&proposal.signed_bytes());
        proposal
    }

    /// Assembles a signed transaction envelope from the proposal and its
    /// successful responses.
    ///
    /// # Errors
    /// See [`AssembleError`]. Mirrors the real SDK: all endorsers must agree
    /// on the simulation result bytes, or the transaction is abandoned.
    pub fn assemble(
        &self,
        proposal: &Proposal,
        responses: &[ProposalResponse],
    ) -> Result<Transaction, AssembleError> {
        if responses.is_empty() {
            return Err(AssembleError::NoEndorsements);
        }
        let first = &responses[0];
        let mut endorsements = Vec::with_capacity(responses.len());
        for r in responses {
            if r.tx_id != proposal.tx_id {
                return Err(AssembleError::MixedTransactions);
            }
            if !r.ok {
                return Err(AssembleError::FailedEndorsement);
            }
            // Both are for `proposal.tx_id` by now, and the signed encoding
            // is canonical and injective: equal results, equal signed bytes.
            if r.rw_set != first.rw_set || r.payload != first.payload {
                return Err(AssembleError::MismatchedResults);
            }
            endorsements.push(
                r.endorsement
                    .clone()
                    .ok_or(AssembleError::FailedEndorsement)?,
            );
        }
        let mut tx = Transaction {
            tx_id: proposal.tx_id,
            channel: proposal.channel.clone(),
            chaincode: proposal.chaincode.clone(),
            rw_set: first.rw_set.clone(),
            payload: first.payload.clone(),
            endorsements,
            creator: self.id,
            signature: UNSIGNED,
        };
        tx.signature = self.identity.sign(&tx.signed_bytes());
        Ok(tx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabricsim_msp::CertificateAuthority;
    use fabricsim_types::{Endorsement, OrgId, Principal, RwSet};

    fn sdk() -> (ClientSdk, CertificateAuthority) {
        let ca = CertificateAuthority::new("ca", 1);
        let id = ca.enroll(
            Principal {
                org: OrgId(1),
                role: "client".into(),
            },
            "client0",
        );
        (ClientSdk::new(ClientId(0), id), ca)
    }

    fn response(
        ca: &CertificateAuthority,
        proposal: &Proposal,
        org: u32,
        value: &[u8],
    ) -> ProposalResponse {
        let endorser = ca.enroll(Principal::peer(OrgId(org)), &format!("peer{org}"));
        let mut rw = RwSet::new();
        rw.record_write("k", Some(value));
        let bytes = ProposalResponse::signed_bytes(proposal.tx_id, &rw, b"");
        ProposalResponse {
            tx_id: proposal.tx_id,
            rw_set: rw,
            payload: Vec::new(),
            ok: true,
            endorsement: Some(Endorsement {
                endorser: Principal::peer(OrgId(org)),
                endorser_key: endorser.certificate().public_key,
                signature: endorser.sign(&bytes),
            }),
        }
    }

    #[test]
    fn proposals_get_fresh_nonces_and_valid_signatures() {
        let (mut sdk, _ca) = sdk();
        let p1 = sdk.create_proposal(ChannelId::default_channel(), "kv", vec![b"a".to_vec()]);
        let p2 = sdk.create_proposal(ChannelId::default_channel(), "kv", vec![b"a".to_vec()]);
        assert_ne!(p1.tx_id, p2.tx_id);
        assert_eq!(p1.tx_id, Proposal::derive_tx_id(ClientId(0), 0));
        let key = sdk.identity.certificate().public_key;
        for p in [&p1, &p2] {
            assert_ne!(p.signature, UNSIGNED);
            assert!(key.verify(&p.signed_bytes(), &p.signature));
        }
    }

    #[test]
    fn assemble_collects_matching_endorsements() {
        let (mut sdk, ca) = sdk();
        let p = sdk.create_proposal(ChannelId::default_channel(), "kv", vec![b"a".to_vec()]);
        let rs = vec![response(&ca, &p, 1, b"v"), response(&ca, &p, 2, b"v")];
        let tx = sdk.assemble(&p, &rs).unwrap();
        assert_eq!(tx.endorsements.len(), 2);
        assert_eq!(tx.tx_id, p.tx_id);
        // Envelope signature verifies under the client's cert.
        let cert = {
            let ca2 = CertificateAuthority::new("ca", 1);
            ca2.enroll(
                Principal {
                    org: OrgId(1),
                    role: "client".into(),
                },
                "client0",
            )
        };
        assert!(cert
            .certificate()
            .public_key
            .verify(&tx.signed_bytes(), &tx.signature));
    }

    #[test]
    fn assemble_rejects_divergent_rwsets() {
        let (mut sdk, ca) = sdk();
        let p = sdk.create_proposal(ChannelId::default_channel(), "kv", vec![b"a".to_vec()]);
        let rs = vec![response(&ca, &p, 1, b"v1"), response(&ca, &p, 2, b"v2")];
        assert_eq!(sdk.assemble(&p, &rs), Err(AssembleError::MismatchedResults));
    }

    #[test]
    fn assemble_rejects_failed_and_empty() {
        let (mut sdk, ca) = sdk();
        let p = sdk.create_proposal(ChannelId::default_channel(), "kv", vec![b"a".to_vec()]);
        assert_eq!(sdk.assemble(&p, &[]), Err(AssembleError::NoEndorsements));
        let mut bad = response(&ca, &p, 1, b"v");
        bad.ok = false;
        assert_eq!(
            sdk.assemble(&p, &[bad]),
            Err(AssembleError::FailedEndorsement)
        );
    }

    #[test]
    fn assemble_rejects_foreign_response() {
        let (mut sdk, ca) = sdk();
        let p1 = sdk.create_proposal(ChannelId::default_channel(), "kv", vec![b"a".to_vec()]);
        let p2 = sdk.create_proposal(ChannelId::default_channel(), "kv", vec![b"a".to_vec()]);
        let foreign = response(&ca, &p2, 1, b"v");
        assert_eq!(
            sdk.assemble(&p1, &[foreign]),
            Err(AssembleError::MixedTransactions)
        );
    }
}
