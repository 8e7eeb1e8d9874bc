//! Transaction proposals and endorsements — the execute phase's artifacts.

use fabricsim_crypto::{sha256, PublicKey, Signature};

use crate::encode::{Encoder, WireSize, MSG_OVERHEAD};
use crate::ids::{ChannelId, ClientId, Principal, TxId};
use crate::rwset::RwSet;

/// A signed transaction proposal sent by a client to endorsing peers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Proposal {
    /// Derived transaction id (hash of creator + nonce).
    pub tx_id: TxId,
    /// Target channel.
    pub channel: ChannelId,
    /// Chaincode to invoke.
    pub chaincode: String,
    /// Invocation arguments; `args[0]` is the function name by convention.
    pub args: Vec<Vec<u8>>,
    /// The submitting client.
    pub creator: ClientId,
    /// Client nonce making the tx id unique.
    pub nonce: u64,
    /// Client signature over the canonical proposal bytes.
    pub signature: Signature,
}

impl Proposal {
    /// The canonical bytes the client signs (everything except the signature).
    pub fn signed_bytes(&self) -> Vec<u8> {
        let mut e = Encoder::new("fabricsim-proposal");
        e.bytes(self.tx_id.0.as_bytes())
            .str(&self.channel.0)
            .str(&self.chaincode)
            .list(&self.args, |e, a| {
                e.bytes(a);
            })
            .u32(self.creator.0)
            .u64(self.nonce);
        e.finish()
    }

    /// Derives the transaction id Fabric-style: `H(creator || nonce)`.
    pub fn derive_tx_id(creator: ClientId, nonce: u64) -> TxId {
        let mut e = Encoder::new("fabricsim-txid");
        e.u32(creator.0).u64(nonce);
        TxId(sha256(&e.finish()))
    }
}

impl WireSize for Proposal {
    fn wire_size(&self) -> u64 {
        let args: u64 = self.args.iter().map(|a| a.len() as u64 + 4).sum();
        // tx id + header fields + args + signature (e, s) + framing.
        MSG_OVERHEAD + 32 + self.channel.0.len() as u64 + self.chaincode.len() as u64 + args + 16
    }
}

/// One peer's endorsement: its identity, and a signature over the proposal
/// response payload (tx id + read/write set).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Endorsement {
    /// The endorsing peer's principal (org + role).
    pub endorser: Principal,
    /// The endorser's enrolled public key.
    pub endorser_key: PublicKey,
    /// Signature over [`ProposalResponse::signed_bytes`].
    pub signature: Signature,
}

impl Endorsement {
    /// Appends the endorsement as the envelope signs it and the wire carries
    /// it: the principal's text, the key element and the signature pair.
    pub(crate) fn encode_into(&self, e: &mut Encoder) {
        self.endorser.encode_into(e);
        e.u64(self.endorser_key.element())
            .u64(self.signature.e)
            .u64(self.signature.s);
    }
}

/// An endorsing peer's reply to a proposal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProposalResponse {
    /// Transaction this responds to.
    pub tx_id: TxId,
    /// The simulated read/write set.
    pub rw_set: RwSet,
    /// Chaincode response payload (application-level result).
    pub payload: Vec<u8>,
    /// Whether simulation succeeded on this peer.
    pub ok: bool,
    /// The endorsement (identity + signature) if `ok`.
    pub endorsement: Option<Endorsement>,
}

impl ProposalResponse {
    /// The canonical bytes the endorser signs: tx id, rw-set and payload. All
    /// endorsers of the same simulation result sign identical bytes, which is
    /// what lets the committer compare endorsements for consistency.
    pub fn signed_bytes(tx_id: TxId, rw_set: &RwSet, payload: &[u8]) -> Vec<u8> {
        let mut e = Encoder::new("fabricsim-proposal-response");
        e.bytes(tx_id.0.as_bytes());
        rw_set.encode_into(&mut e);
        e.bytes(payload);
        e.finish()
    }
}

impl WireSize for ProposalResponse {
    fn wire_size(&self) -> u64 {
        let rw: u64 = self.rw_set.write_bytes()
            + self
                .rw_set
                .reads
                .iter()
                .map(|r| r.key.len() as u64 + 13)
                .sum::<u64>();
        MSG_OVERHEAD
            + 32
            + rw
            + self.payload.len() as u64
            + if self.endorsement.is_some() { 64 } else { 1 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::OrgId;
    use fabricsim_crypto::KeyPair;

    fn sample_proposal() -> Proposal {
        let creator = ClientId(3);
        let nonce = 42;
        Proposal {
            tx_id: Proposal::derive_tx_id(creator, nonce),
            channel: ChannelId::default_channel(),
            chaincode: "kvwrite".into(),
            args: vec![b"put".to_vec(), b"k".to_vec(), b"v".to_vec()],
            creator,
            nonce,
            signature: KeyPair::from_seed(b"client3").sign(b"placeholder"),
        }
    }

    #[test]
    fn tx_id_is_unique_per_creator_nonce() {
        let a = Proposal::derive_tx_id(ClientId(1), 1);
        let b = Proposal::derive_tx_id(ClientId(1), 2);
        let c = Proposal::derive_tx_id(ClientId(2), 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, Proposal::derive_tx_id(ClientId(1), 1));
    }

    #[test]
    fn signed_bytes_cover_args() {
        let p = sample_proposal();
        let mut q = p.clone();
        q.args[2] = b"other".to_vec();
        assert_ne!(p.signed_bytes(), q.signed_bytes());
    }

    #[test]
    fn signed_bytes_exclude_signature() {
        let p = sample_proposal();
        let mut q = p.clone();
        q.signature = KeyPair::from_seed(b"other").sign(b"x");
        assert_eq!(p.signed_bytes(), q.signed_bytes());
    }

    #[test]
    fn response_signed_bytes_bind_rwset() {
        let tx = Proposal::derive_tx_id(ClientId(1), 1);
        let mut rw1 = RwSet::new();
        rw1.record_write("k", Some(b"1"));
        let mut rw2 = RwSet::new();
        rw2.record_write("k", Some(b"2"));
        assert_ne!(
            ProposalResponse::signed_bytes(tx, &rw1, b""),
            ProposalResponse::signed_bytes(tx, &rw2, b"")
        );
    }

    #[test]
    fn wire_size_grows_with_payload() {
        let p = sample_proposal();
        let base = p.wire_size();
        let mut big = p.clone();
        big.args.push(vec![0u8; 1000]);
        assert!(big.wire_size() >= base + 1000);
    }

    #[test]
    fn endorsement_carries_principal() {
        let kp = KeyPair::from_seed(b"peer0");
        let e = Endorsement {
            endorser: Principal::peer(OrgId(1)),
            endorser_key: kp.public,
            signature: kp.sign(b"resp"),
        };
        assert_eq!(e.endorser.to_string(), "Org1.peer");
    }
}
