//! Shared fixtures for the committer / validation-pipeline tests: a CA, one
//! client, a set of endorsers, and a builder for fully signed transactions.

use std::collections::HashMap;

use fabricsim_crypto::{KeyPair, PublicKey};
use fabricsim_msp::{Certificate, CertificateAuthority, Msp, SigningIdentity};
use fabricsim_policy::Policy;
use fabricsim_types::{
    ChannelId, ClientId, Endorsement, OrgId, Principal, Proposal, ProposalResponse, RwSet,
    Transaction,
};

use crate::peer::PeerConfig;

pub(crate) struct Fixture {
    pub(crate) config: PeerConfig,
    pub(crate) msp: Msp,
    pub(crate) client_certs: HashMap<ClientId, Certificate>,
    pub(crate) endorser_keys: HashMap<Principal, Vec<PublicKey>>,
    pub(crate) client: SigningIdentity,
    pub(crate) endorsers: Vec<SigningIdentity>,
}

pub(crate) fn fixture(policy: Policy, n_endorsers: u32) -> Fixture {
    let ca = CertificateAuthority::new("ca", 1);
    let client = ca.enroll(
        Principal {
            org: OrgId(1),
            role: "client".into(),
        },
        "client0",
    );
    let endorsers: Vec<_> = (1..=n_endorsers)
        .map(|i| ca.enroll(Principal::peer(OrgId(i)), &format!("peer{i}")))
        .collect();
    let mut endorser_keys: HashMap<Principal, Vec<PublicKey>> = HashMap::new();
    for e in &endorsers {
        endorser_keys
            .entry(e.principal().clone())
            .or_default()
            .push(e.certificate().public_key);
    }
    Fixture {
        config: PeerConfig {
            channel: ChannelId::default_channel(),
            endorsement_policy: policy,
            is_endorser: false,
            validator_pool_size: 1,
        },
        msp: Msp::new(ca.root_of_trust()),
        client_certs: HashMap::from([(ClientId(0), client.certificate().clone())]),
        endorser_keys,
        client,
        endorsers,
    }
}

/// A fully signed transaction with `nonce`-derived id, endorsed by the
/// fixture endorsers at `endorser_indices`.
pub(crate) fn endorsed_tx(f: &Fixture, nonce: u64, endorser_indices: &[usize]) -> Transaction {
    let mut rw = RwSet::new();
    rw.record_write("k", Some(&[1]));
    signed_tx(f, nonce, endorser_indices, rw)
}

/// A fully signed transaction, endorsed by every fixture endorser, that read
/// "k" while it was absent and writes it: valid only while "k" stays
/// unwritten.
pub(crate) fn stale_read_tx(f: &Fixture, nonce: u64) -> Transaction {
    let mut rw = RwSet::new();
    rw.record_read("k", None);
    rw.record_write("k", Some(&[2]));
    let all: Vec<usize> = (0..f.endorsers.len()).collect();
    signed_tx(f, nonce, &all, rw)
}

fn signed_tx(f: &Fixture, nonce: u64, endorser_indices: &[usize], rw: RwSet) -> Transaction {
    let creator = ClientId(0);
    let tx_id = Proposal::derive_tx_id(creator, nonce);
    let resp = ProposalResponse::signed_bytes(tx_id, &rw, b"");
    let endorsements = endorser_indices
        .iter()
        .map(|&i| Endorsement {
            endorser: f.endorsers[i].principal().clone(),
            endorser_key: f.endorsers[i].certificate().public_key,
            signature: f.endorsers[i].sign(&resp),
        })
        .collect();
    let mut tx = Transaction {
        tx_id,
        channel: ChannelId::default_channel(),
        chaincode: "kv".into(),
        rw_set: rw,
        payload: Vec::new(),
        endorsements,
        creator,
        signature: KeyPair::from_seed(b"tmp").sign(b"x"),
    };
    tx.signature = f.client.sign(&tx.signed_bytes());
    tx
}

/// `n` transactions with nonces from `from`, cycling through the VSCC verdict
/// classes under an AND2 policy: valid, policy-failing, forged endorsement
/// (re-signed envelope), and an envelope tampered with after signing.
pub(crate) fn mixed_txs(f: &Fixture, from: u64, n: u64) -> Vec<Transaction> {
    (from..from + n)
        .map(|nonce| match nonce % 4 {
            0 => endorsed_tx(f, nonce, &[0, 1]),
            1 => endorsed_tx(f, nonce, &[0]),
            2 => {
                let mut tx = endorsed_tx(f, nonce, &[0, 1]);
                let rogue = KeyPair::from_seed(b"rogue");
                tx.endorsements[1].endorser_key = rogue.public;
                tx.endorsements[1].signature = rogue.sign(&tx.response_bytes());
                tx.signature = f.client.sign(&tx.signed_bytes());
                tx
            }
            _ => {
                let mut tx = endorsed_tx(f, nonce, &[0, 1]);
                tx.payload = b"injected".to_vec();
                tx
            }
        })
        .collect()
}
