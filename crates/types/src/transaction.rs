//! The transaction envelope submitted to the ordering service.

use fabricsim_crypto::{sha256, Hash256, Signature};

use crate::encode::{Encoder, WireSize, MSG_OVERHEAD};
use crate::ids::{ChannelId, ClientId, TxId};
use crate::proposal::Endorsement;
use crate::rwset::RwSet;

/// A fully endorsed transaction, assembled by the client from the proposal
/// responses and broadcast to the ordering service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transaction {
    /// Transaction id (from the original proposal).
    pub tx_id: TxId,
    /// Channel the transaction commits on.
    pub channel: ChannelId,
    /// Chaincode that produced the read/write set.
    pub chaincode: String,
    /// The agreed read/write set (all endorsers simulated identically).
    pub rw_set: RwSet,
    /// Response payload from the chaincode.
    pub payload: Vec<u8>,
    /// Collected endorsements (one per endorsing peer).
    pub endorsements: Vec<Endorsement>,
    /// Submitting client.
    pub creator: ClientId,
    /// Client signature over the envelope.
    pub signature: Signature,
}

impl Transaction {
    /// Canonical envelope bytes signed by the client.
    pub fn signed_bytes(&self) -> Vec<u8> {
        let mut e = Encoder::new("fabricsim-envelope");
        e.bytes(self.tx_id.0.as_bytes())
            .str(&self.channel.0)
            .str(&self.chaincode);
        self.rw_set.encode_into(&mut e);
        e.bytes(&self.payload)
            .list(&self.endorsements, |e, en| {
                en.endorser.encode_into(e);
                e.u64(en.endorser_key.element())
                    .u64(en.signature.e)
                    .u64(en.signature.s);
            })
            .u32(self.creator.0);
        e.finish()
    }

    /// The bytes each endorser signed (must match for the endorsement to
    /// verify during VSCC).
    pub fn response_bytes(&self) -> Vec<u8> {
        crate::proposal::ProposalResponse::signed_bytes(self.tx_id, &self.rw_set, &self.payload)
    }

    /// Hash of the full envelope, used in block data hashing.
    pub fn envelope_hash(&self) -> Hash256 {
        sha256(&self.signed_bytes())
    }
}

impl WireSize for Transaction {
    fn wire_size(&self) -> u64 {
        let rw: u64 = self.rw_set.write_bytes()
            + self
                .rw_set
                .reads
                .iter()
                .map(|r| r.key.len() as u64 + 13)
                .sum::<u64>();
        // Each endorsement carries identity (~40B cert ref) + key + signature.
        let endorsements = self.endorsements.len() as u64 * 72;
        MSG_OVERHEAD + 32 + rw + self.payload.len() as u64 + endorsements + 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{OrgId, Principal};
    use crate::proposal::Proposal;
    use fabricsim_crypto::KeyPair;

    fn sample_tx(n_endorsements: usize) -> Transaction {
        let creator = ClientId(1);
        let tx_id = Proposal::derive_tx_id(creator, 7);
        let mut rw = RwSet::new();
        rw.record_write("k", Some(vec![0u8; 1]));
        let resp = crate::proposal::ProposalResponse::signed_bytes(tx_id, &rw, b"");
        let endorsements = (0..n_endorsements)
            .map(|i| {
                let kp = KeyPair::from_seed(format!("peer{i}").as_bytes());
                Endorsement {
                    endorser: Principal::peer(OrgId(i as u32 + 1)),
                    endorser_key: kp.public,
                    signature: kp.sign(&resp),
                }
            })
            .collect();
        Transaction {
            tx_id,
            channel: ChannelId::default_channel(),
            chaincode: "kvwrite".into(),
            rw_set: rw,
            payload: Vec::new(),
            endorsements,
            creator,
            signature: KeyPair::from_seed(b"client1").sign(b"envelope"),
        }
    }

    #[test]
    fn endorsements_verify_against_response_bytes() {
        let tx = sample_tx(3);
        let resp = tx.response_bytes();
        for e in &tx.endorsements {
            assert!(e.endorser_key.verify(&resp, &e.signature));
        }
    }

    #[test]
    fn envelope_hash_changes_with_content() {
        let a = sample_tx(1);
        let mut b = a.clone();
        b.rw_set.record_write("other", Some(vec![1]));
        assert_ne!(a.envelope_hash(), b.envelope_hash());
    }

    #[test]
    fn wire_size_grows_with_endorsements() {
        let one = sample_tx(1).wire_size();
        let five = sample_tx(5).wire_size();
        assert_eq!(five - one, 4 * 72);
    }

    /// The envelope encoding as it was when each endorser's principal went
    /// through `Display` and a `String`; `signed_bytes` must stay
    /// byte-identical to it (every stored signature and block hash depends
    /// on these bytes).
    fn display_based_signed_bytes(tx: &Transaction) -> Vec<u8> {
        let mut e = Encoder::new("fabricsim-envelope");
        e.bytes(tx.tx_id.0.as_bytes())
            .str(&tx.channel.0)
            .str(&tx.chaincode);
        tx.rw_set.encode_into(&mut e);
        e.bytes(&tx.payload)
            .list(&tx.endorsements, |e, en| {
                e.str(&en.endorser.to_string())
                    .u64(en.endorser_key.element())
                    .u64(en.signature.e)
                    .u64(en.signature.s);
            })
            .u32(tx.creator.0);
        e.finish()
    }

    #[test]
    fn signed_bytes_are_byte_identical_to_the_display_based_form() {
        for n in [0, 1, 5, 12] {
            let mut tx = sample_tx(n);
            if let Some(en) = tx.endorsements.last_mut() {
                en.endorser = Principal {
                    org: OrgId(1_000_000),
                    role: "admin".into(),
                };
            }
            assert_eq!(tx.signed_bytes(), display_based_signed_bytes(&tx));
        }
    }

    #[test]
    fn signed_bytes_cover_endorsement_list() {
        let a = sample_tx(2);
        let mut b = a.clone();
        b.endorsements.pop();
        assert_ne!(a.signed_bytes(), b.signed_bytes());
    }
}
