//! Seeded properties (`rng::cases`): the codec is a lossless inverse pair for
//! arbitrary transactions and blocks, damaged bytes are an error and never a
//! panic or an abort, and block hashing is structure-sensitive.

use fabricsim_crypto::{Hash256, KeyPair};
use fabricsim_des::rng::cases;
use fabricsim_des::RngStream;
use fabricsim_types::codec::{decode_block, decode_tx, encode_block, encode_tx};
use fabricsim_types::{
    Block, ChannelId, ClientId, Endorsement, KvRead, KvWrite, OrgId, Principal, Proposal,
    ProposalResponse, RwSet, Transaction, ValidationCode, Version,
};

/// `min..=max` characters drawn from `alphabet`.
fn text(rng: &mut RngStream, alphabet: &[u8], min: usize, max: usize) -> String {
    (0..min + rng.pick_index(max - min + 1))
        .map(|_| char::from(alphabet[rng.pick_index(alphabet.len())]))
        .collect()
}

fn bytes(rng: &mut RngStream, max: usize) -> Vec<u8> {
    (0..rng.pick_index(max + 1))
        .map(|_| rng.next_u64() as u8)
        .collect()
}

/// Up to five reads and five writes over 1..=12-letter keys.
fn rwset(rng: &mut RngStream) -> RwSet {
    const KEY: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
    let mut rw = RwSet::new();
    for _ in 0..rng.next_below(6) {
        let version = rng
            .chance(0.5)
            .then(|| Version::new(rng.next_u64(), rng.next_u64() as u32));
        rw.reads.push(KvRead {
            key: text(rng, KEY, 1, 12).into(),
            version,
        });
    }
    for _ in 0..rng.next_below(6) {
        rw.writes.push(KvWrite {
            key: text(rng, KEY, 1, 12).into(),
            value: rng.chance(0.5).then(|| bytes(rng, 63).into()),
        });
    }
    rw
}

/// A signed envelope with up to five endorsements, each under a fresh key.
fn tx(rng: &mut RngStream) -> Transaction {
    tx_from_keys(rng, None)
}

/// [`tx`], with each endorser key drawn from `pool` when one is given, so the
/// envelopes of a block repeat and mix keys as a channel's endorsers do.
fn tx_from_keys(rng: &mut RngStream, pool: Option<&[KeyPair]>) -> Transaction {
    let creator = ClientId(rng.next_u64() as u32);
    let tx_id = Proposal::derive_tx_id(creator, rng.next_u64());
    let chaincode = text(rng, b"abcdefghijklmnopqrstuvwxyz-", 1, 16);
    let rw_set = rwset(rng);
    let payload = bytes(rng, 127);
    let resp = ProposalResponse::signed_bytes(tx_id, &rw_set, &payload);
    let endorsements = (0..rng.next_below(6))
        .map(|_| {
            let kp = match pool {
                Some(pool) => pool[rng.pick_index(pool.len())],
                None => KeyPair::from_seed(&rng.next_u64().to_le_bytes()),
            };
            Endorsement {
                endorser: Principal::peer(OrgId(1 + rng.next_below(19) as u32)),
                endorser_key: kp.public,
                signature: kp.sign(&resp),
            }
        })
        .collect();
    Transaction {
        tx_id,
        channel: ChannelId::default_channel(),
        chaincode,
        rw_set,
        payload,
        endorsements,
        creator,
        signature: KeyPair::from_seed(b"client").sign(&resp),
    }
}

fn txs(rng: &mut RngStream, min: u64, max: u64) -> Vec<Transaction> {
    (0..min + rng.next_below(max - min + 1))
        .map(|_| tx(rng))
        .collect()
}

#[test]
fn tx_codec_roundtrips() {
    cases("tx_codec_roundtrips", 1_000, |rng| {
        let tx = tx(rng);
        assert_eq!(
            decode_tx(&encode_tx(&tx)).expect("own encoding decodes"),
            tx
        );
    });
}

#[test]
fn tx_decode_never_panics_on_corruption() {
    cases("tx_decode_never_panics_on_corruption", 1_000, |rng| {
        let tx = tx(rng);
        let mut bytes = encode_tx(&tx);
        // Truncation must error, not panic.
        let cut_at = rng.pick_index(bytes.len());
        assert!(decode_tx(&bytes[..cut_at]).is_err());
        // A damaged byte must either error or decode to a different value.
        let i = rng.pick_index(bytes.len());
        bytes[i] ^= 0x55;
        if let Ok(decoded) = decode_tx(&bytes) {
            assert_ne!(decoded, tx);
        }
    });
}

#[test]
fn block_codec_roundtrips() {
    const CODES: [ValidationCode; 7] = [
        ValidationCode::Valid,
        ValidationCode::MvccReadConflict,
        ValidationCode::EndorsementPolicyFailure,
        ValidationCode::BadEndorserSignature,
        ValidationCode::BadCreatorSignature,
        ValidationCode::DuplicateTxId,
        ValidationCode::BadPayload,
    ];
    cases("block_codec_roundtrips", 500, |rng| {
        let prev = Hash256::from_bytes([3; 32]);
        // Half the blocks draw their endorser keys from a pool of one to
        // three, so keys repeat within and across envelopes.
        let txs = if rng.chance(0.5) {
            let pool: Vec<KeyPair> = (0..1 + rng.next_below(3))
                .map(|_| KeyPair::from_seed(&rng.next_u64().to_le_bytes()))
                .collect();
            (0..1 + rng.next_below(4))
                .map(|_| tx_from_keys(rng, Some(&pool)))
                .collect()
        } else {
            txs(rng, 0, 4)
        };
        let mut block = Block::assemble(ChannelId::default_channel(), 7, prev, txs);
        block.metadata.flags = (0..rng.next_below(5))
            .map(|_| CODES[rng.pick_index(CODES.len())])
            .collect();
        let back = decode_block(&encode_block(&block)).expect("own encoding decodes");
        assert_eq!(back, block);
    });
}

#[test]
fn block_data_hash_is_content_sensitive() {
    cases("block_data_hash_is_content_sensitive", 300, |rng| {
        let txs = txs(rng, 1, 4);
        let block = Block::assemble(ChannelId::default_channel(), 0, Hash256::ZERO, txs.clone());
        assert!(block.data_hash_is_consistent());
        // Dropping any transaction breaks the data hash.
        for i in 0..txs.len() {
            let mut fewer = txs.clone();
            fewer.remove(i);
            let other = Block::assemble(ChannelId::default_channel(), 0, Hash256::ZERO, fewer);
            assert_ne!(other.header.data_hash, block.header.data_hash);
        }
    });
}

#[test]
fn signed_bytes_are_injective_on_rwset() {
    cases("signed_bytes_are_injective_on_rwset", 1_000, |rng| {
        let (a, b) = (rwset(rng), rwset(rng));
        let tx_id = Proposal::derive_tx_id(ClientId(0), 0);
        let ba = ProposalResponse::signed_bytes(tx_id, &a, b"");
        let bb = ProposalResponse::signed_bytes(tx_id, &b, b"");
        assert_eq!(a == b, ba == bb);
    });
}
