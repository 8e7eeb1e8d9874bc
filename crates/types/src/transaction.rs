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
    ///
    /// The read/write set and payload enter as `sha256(response_bytes())` —
    /// the digest every endorser signed — not as raw bytes: a committer
    /// hashes the rw-set once and gets from that one digest both what the
    /// endorsement signatures are checked against and this preimage. The
    /// digest binds the tx id, rw-set and payload exactly as the raw bytes
    /// did, so altering any of them changes these bytes, the envelope hash,
    /// and the block's Merkle root.
    pub fn signed_bytes(&self) -> Vec<u8> {
        self.signed_bytes_over(&sha256(&self.response_bytes()))
    }

    /// [`Transaction::signed_bytes`] given `sha256(response_bytes())`.
    fn signed_bytes_over(&self, response_digest: &Hash256) -> Vec<u8> {
        let mut e = Encoder::with_capacity("fabricsim-envelope", self.envelope_capacity());
        e.bytes(self.tx_id.0.as_bytes())
            .str(&self.channel.0)
            .str(&self.chaincode)
            .bytes(response_digest.as_bytes())
            .list(&self.endorsements, |e, en| en.encode_into(e))
            .u32(self.creator.0);
        e.finish()
    }

    /// An upper bound on the length of [`Transaction::signed_bytes`], so its
    /// buffer is allocated once: the fixed fields take 110 bytes, an
    /// endorsement at most 42 plus its role.
    fn envelope_capacity(&self) -> usize {
        let endorsements: usize = (self.endorsements.iter())
            .map(|en| 48 + en.endorser.role.len())
            .sum();
        128 + self.channel.0.len() + self.chaincode.len() + endorsements
    }

    /// The bytes each endorser signed (must match for the endorsement to
    /// verify during VSCC).
    pub fn response_bytes(&self) -> Vec<u8> {
        crate::proposal::ProposalResponse::signed_bytes(self.tx_id, &self.rw_set, &self.payload)
    }

    /// Hash of the full envelope, used in block data hashing.
    pub fn envelope_hash(&self) -> Hash256 {
        self.digests().1
    }

    /// `(sha256(response_bytes()), envelope_hash())`, hashing the rw-set once:
    /// the endorsers signed the first, the creator the second.
    pub fn digests(&self) -> (Hash256, Hash256) {
        let response_digest = sha256(&self.response_bytes());
        let envelope_hash = sha256(&self.signed_bytes_over(&response_digest));
        (response_digest, envelope_hash)
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
        rw.record_write("k", Some(&[0u8; 1]));
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
    fn envelope_bytes_fit_the_buffer_sized_for_them() {
        // The widest principal there is.
        let mut tx = sample_tx(5);
        for e in &mut tx.endorsements {
            e.endorser = Principal {
                org: OrgId(u32::MAX),
                role: "a-rather-long-role-name".into(),
            };
        }
        assert!(tx.signed_bytes().len() <= tx.envelope_capacity());
        let bare = sample_tx(0);
        assert!(bare.signed_bytes().len() <= bare.envelope_capacity());
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
        b.rw_set.record_write("other", Some(&[1]));
        assert_ne!(a.envelope_hash(), b.envelope_hash());
    }

    #[test]
    fn wire_size_grows_with_endorsements() {
        let one = sample_tx(1).wire_size();
        let five = sample_tx(5).wire_size();
        assert_eq!(five - one, 4 * 72);
    }

    /// The envelope encoding with each endorser's principal going through
    /// `Display` and a `String`, and the response digest taken from the
    /// public pieces; `signed_bytes` must stay byte-identical to it (every
    /// stored signature and block hash depends on these bytes).
    fn display_based_signed_bytes(tx: &Transaction) -> Vec<u8> {
        let mut e = Encoder::new("fabricsim-envelope");
        e.bytes(tx.tx_id.0.as_bytes())
            .str(&tx.channel.0)
            .str(&tx.chaincode)
            .bytes(sha256(&tx.response_bytes()).as_bytes())
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
    fn digests_are_the_two_public_hashes_and_bind_every_field() {
        let tx = sample_tx(2);
        let (response_digest, envelope_hash) = tx.digests();
        assert_eq!(response_digest, sha256(&tx.response_bytes()));
        assert_eq!(envelope_hash, sha256(&tx.signed_bytes()));
        assert_eq!(envelope_hash, tx.envelope_hash());
        // The rw-set and payload are in the envelope only through the
        // response digest; everything else directly. Each still moves it.
        let alter = |f: &dyn Fn(&mut Transaction)| {
            let mut t = tx.clone();
            f(&mut t);
            t.envelope_hash()
        };
        let altered = [
            alter(&|t| t.rw_set.record_write("k", Some(&[1u8; 1]))),
            alter(&|t| t.rw_set.record_read("k", None)),
            alter(&|t| t.payload = b"p".to_vec()),
            alter(&|t| t.tx_id = Proposal::derive_tx_id(t.creator, 8)),
            alter(&|t| t.chaincode.push('x')),
            alter(&|t| t.channel = ChannelId("other".into())),
            alter(&|t| t.endorsements[1].signature.s ^= 1),
            alter(&|t| t.endorsements.swap(0, 1)),
            alter(&|t| t.creator = ClientId(2)),
        ];
        for (i, hash) in altered.iter().enumerate() {
            assert_ne!(*hash, envelope_hash, "alteration {i}");
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
