//! Binary serialization for envelopes and blocks.
//!
//! The consensus substrates replicate opaque bytes: Raft entries and Kafka
//! records carry encoded [`Transaction`] envelopes, and Raft-mode Fabric
//! replicates whole encoded [`Block`]s. This module provides the
//! encoder/decoder pair. It writes through [`Encoder::untagged`] — the framing
//! of signed bytes (little-endian, length-prefixed) without a domain tag — into
//! one buffer sized from [`WireSize`] (which covers the envelopes the
//! workloads make; a larger encoding regrows it), and writes each principal
//! with [`Principal::encode_into`], so no endorsement builds a `String` on the
//! way out. The decoder parses principals from borrowed slices of the input.
//!
//! Decoding a block subgroup-checks each distinct endorser key element once:
//! the first sight of an element runs [`PublicKey::from_element`], a repeat
//! reuses that admission (a pure function of the element), and a refused
//! element makes the whole block a [`DecodeError`]. A decode also hands out
//! one role string per distinct role text: every principal that names the
//! same role shares its `Arc<str>`.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use fabricsim_crypto::{Hash256, PublicKey, Signature};

use crate::block::{Block, BlockHeader, BlockMetadata, ValidationCode};
use crate::encode::{Encoder, WireSize};
use crate::fxhash::FxBuildHasher;
use crate::ids::{ChannelId, ClientId, Principal, TxId};
use crate::proposal::Endorsement;
use crate::rwset::{KvRead, KvWrite, RwSet, Version};
use crate::transaction::Transaction;

/// Decoding failure: truncated or malformed bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub(crate) String);

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error: {}", self.0)
    }
}

impl Error for DecodeError {}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }
    fn truncated(&self, n: usize) -> DecodeError {
        DecodeError(format!(
            "truncated: wanted {n} bytes at {}, have {}",
            self.pos,
            self.buf.len()
        ))
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.pos + n > self.buf.len() {
            return Err(self.truncated(n));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }
    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let Some((out, _)) = self.buf[self.pos..].split_first_chunk::<N>() else {
            return Err(self.truncated(N));
        };
        self.pos += N;
        Ok(*out)
    }
    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array()?))
    }
    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array()?))
    }
    /// A length-prefixed field, borrowed from the input.
    fn slice(&mut self) -> Result<&'a [u8], DecodeError> {
        let n = self.u32()? as usize;
        if n > self.buf.len() {
            return Err(DecodeError(format!("length {n} exceeds buffer")));
        }
        self.take(n)
    }
    fn bytes(&mut self) -> Result<Vec<u8>, DecodeError> {
        Ok(self.slice()?.to_vec())
    }
    /// A wire count of items that take at least `min_item_bytes` each. It may
    /// size an allocation: more items than the remaining bytes can hold are
    /// refused here, as [`Reader::slice`] refuses a length.
    fn count(&mut self, min_item_bytes: usize) -> Result<usize, DecodeError> {
        let n = self.u32()? as usize;
        if n > (self.buf.len() - self.pos) / min_item_bytes {
            return Err(DecodeError(format!("count {n} exceeds buffer")));
        }
        Ok(n)
    }
    /// A length-prefixed UTF-8 field, borrowed from the input.
    fn text(&mut self) -> Result<&'a str, DecodeError> {
        std::str::from_utf8(self.slice()?).map_err(|_| DecodeError("invalid UTF-8".into()))
    }
    fn str(&mut self) -> Result<String, DecodeError> {
        Ok(self.text()?.to_owned())
    }
    /// A UTF-8 field as shared bytes: an rw-set key, allocated once here.
    fn shared_str(&mut self) -> Result<Arc<str>, DecodeError> {
        Ok(self.text()?.into())
    }
    /// A length-prefixed field as shared bytes: an rw-set value.
    fn shared_bytes(&mut self) -> Result<Arc<[u8]>, DecodeError> {
        Ok(self.slice()?.into())
    }
    fn hash(&mut self) -> Result<Hash256, DecodeError> {
        Ok(Hash256::from_bytes(self.array()?))
    }
    fn finish(self) -> Result<(), DecodeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(DecodeError(format!(
                "{} trailing bytes",
                self.buf.len() - self.pos
            )))
        }
    }
}

fn write_rwset(e: &mut Encoder, rw: &RwSet) {
    e.list(&rw.reads, |e, r| {
        e.str(&r.key);
        match r.version {
            Some(v) => e.u8(1).u64(v.block_num).u32(v.tx_num),
            None => e.u8(0),
        };
    });
    e.list(&rw.writes, |e, w| {
        e.str(&w.key);
        match &w.value {
            Some(v) => e.u8(1).bytes(v),
            None => e.u8(0),
        };
    });
}

fn read_rwset(r: &mut Reader<'_>) -> Result<RwSet, DecodeError> {
    let mut rw = RwSet::new();
    let n_reads = r.u32()?;
    for _ in 0..n_reads {
        let key = r.shared_str()?;
        let version = match r.u8()? {
            1 => Some(Version::new(r.u64()?, r.u32()?)),
            0 => None,
            t => return Err(DecodeError(format!("bad version tag {t}"))),
        };
        rw.reads.push(KvRead { key, version });
    }
    let n_writes = r.u32()?;
    for _ in 0..n_writes {
        let key = r.shared_str()?;
        let value = match r.u8()? {
            1 => Some(r.shared_bytes()?),
            0 => None,
            t => return Err(DecodeError(format!("bad write tag {t}"))),
        };
        rw.writes.push(KvWrite { key, value });
    }
    Ok(rw)
}

fn write_tx(e: &mut Encoder, tx: &Transaction) {
    e.hash(&tx.tx_id.0).str(&tx.channel.0).str(&tx.chaincode);
    write_rwset(e, &tx.rw_set);
    e.bytes(&tx.payload)
        .list(&tx.endorsements, |e, en| en.encode_into(e))
        .u32(tx.creator.0)
        .u64(tx.signature.e)
        .u64(tx.signature.s);
}

/// Lower bounds on one encoded item, for [`Reader::count`]: an endorsement is
/// a principal length, a key and a signature; a transaction is its id, six
/// lengths or counts (channel, chaincode, reads, writes, payload,
/// endorsements), a creator and a signature; a validation flag is one byte.
const MIN_ENDORSEMENT_BYTES: usize = 4 + 8 + 16;
const MIN_TX_BYTES: usize = 32 + 6 * 4 + 4 + 16;
const FLAG_BYTES: usize = 1;

/// Admits an endorser key element: [`PublicKey::from_element`]'s subgroup
/// check.
fn admit_key(element: u64) -> Result<PublicKey, DecodeError> {
    PublicKey::from_element(element).ok_or_else(|| DecodeError("endorser key not in group".into()))
}

/// The role strings one decode has handed out, one per distinct text.
#[derive(Default)]
struct Roles {
    /// The first role seen. Endorsements almost always name one role, so
    /// the set below stays empty and allocates nothing.
    first: Option<Arc<str>>,
    others: HashSet<Arc<str>, FxBuildHasher>,
}

impl Roles {
    /// The shared role string for `text`.
    fn share(&mut self, text: &str) -> Arc<str> {
        let Some(first) = &self.first else {
            return Arc::clone(self.first.insert(Arc::from(text)));
        };
        if **first == *text {
            return Arc::clone(first);
        }
        if let Some(known) = self.others.get(text) {
            return Arc::clone(known);
        }
        let role: Arc<str> = Arc::from(text);
        self.others.insert(Arc::clone(&role));
        role
    }
}

/// Reads one envelope; `admit` turns each endorser key element into a key,
/// and `roles` shares each endorser's role string.
fn read_tx(
    r: &mut Reader<'_>,
    admit: &mut impl FnMut(u64) -> Result<PublicKey, DecodeError>,
    roles: &mut Roles,
) -> Result<Transaction, DecodeError> {
    let tx_id = TxId(r.hash()?);
    let channel = ChannelId(r.str()?);
    let chaincode = r.str()?;
    let rw_set = read_rwset(r)?;
    let payload = r.bytes()?;
    let n_endorsements = r.count(MIN_ENDORSEMENT_BYTES)?;
    let mut endorsements = Vec::with_capacity(n_endorsements);
    for _ in 0..n_endorsements {
        let principal_text = r.text()?;
        let endorser = Principal::parse_with(principal_text, |text| roles.share(text))
            .ok_or_else(|| DecodeError(format!("bad principal {principal_text:?}")))?;
        let endorser_key = admit(r.u64()?)?;
        let signature = Signature {
            e: r.u64()?,
            s: r.u64()?,
        };
        endorsements.push(Endorsement {
            endorser,
            endorser_key,
            signature,
        });
    }
    let creator = ClientId(r.u32()?);
    let signature = Signature {
        e: r.u64()?,
        s: r.u64()?,
    };
    Ok(Transaction {
        tx_id,
        channel,
        chaincode,
        rw_set,
        payload,
        endorsements,
        creator,
        signature,
    })
}

/// Serializes a transaction envelope.
pub fn encode_tx(tx: &Transaction) -> Vec<u8> {
    let mut e = Encoder::untagged(tx.wire_size() as usize);
    write_tx(&mut e, tx);
    e.finish()
}

/// Deserializes a transaction envelope.
///
/// # Errors
/// [`DecodeError`] on truncated or malformed input.
pub fn decode_tx(bytes: &[u8]) -> Result<Transaction, DecodeError> {
    let mut r = Reader::new(bytes);
    let tx = read_tx(&mut r, &mut admit_key, &mut Roles::default())?;
    r.finish()?;
    Ok(tx)
}

fn code_to_u8(c: ValidationCode) -> u8 {
    match c {
        ValidationCode::Valid => 0,
        ValidationCode::MvccReadConflict => 1,
        ValidationCode::EndorsementPolicyFailure => 2,
        ValidationCode::BadEndorserSignature => 3,
        ValidationCode::BadCreatorSignature => 4,
        ValidationCode::DuplicateTxId => 5,
        ValidationCode::BadPayload => 6,
    }
}

fn code_from_u8(x: u8) -> Result<ValidationCode, DecodeError> {
    Ok(match x {
        0 => ValidationCode::Valid,
        1 => ValidationCode::MvccReadConflict,
        2 => ValidationCode::EndorsementPolicyFailure,
        3 => ValidationCode::BadEndorserSignature,
        4 => ValidationCode::BadCreatorSignature,
        5 => ValidationCode::DuplicateTxId,
        6 => ValidationCode::BadPayload,
        other => return Err(DecodeError(format!("bad validation code {other}"))),
    })
}

/// Serializes a block (header, transactions and metadata).
pub fn encode_block(block: &Block) -> Vec<u8> {
    let mut e = Encoder::untagged(block.wire_size() as usize);
    e.str(&block.channel.0)
        .u64(block.header.number)
        .hash(&block.header.previous_hash)
        .hash(&block.header.data_hash)
        .list(&block.transactions, write_tx)
        .list(&block.metadata.flags, |e, &f| {
            e.u8(code_to_u8(f));
        });
    e.finish()
}

/// Deserializes a block.
///
/// # Errors
/// [`DecodeError`] on truncated or malformed input, including an endorser
/// key element outside the group in any transaction.
pub fn decode_block(bytes: &[u8]) -> Result<Block, DecodeError> {
    let mut r = Reader::new(bytes);
    let channel = ChannelId(r.str()?);
    let number = r.u64()?;
    let previous_hash = r.hash()?;
    let data_hash = r.hash()?;
    let n_txs = r.count(MIN_TX_BYTES)?;
    // The elements admitted so far in this block. Only admissions are kept: a
    // refusal ends the decode, so no repeat can reuse one.
    let mut admitted: HashMap<u64, PublicKey, FxBuildHasher> = HashMap::default();
    let mut admit = |element| match admitted.entry(element) {
        Entry::Occupied(known) => Ok(*known.get()),
        Entry::Vacant(first_sight) => Ok(*first_sight.insert(admit_key(element)?)),
    };
    let mut roles = Roles::default();
    let mut transactions = Vec::with_capacity(n_txs);
    for _ in 0..n_txs {
        transactions.push(read_tx(&mut r, &mut admit, &mut roles)?);
    }
    let n_flags = r.count(FLAG_BYTES)?;
    let mut flags = Vec::with_capacity(n_flags);
    for _ in 0..n_flags {
        flags.push(code_from_u8(r.u8()?)?);
    }
    r.finish()?;
    Ok(Block {
        channel,
        header: BlockHeader {
            number,
            previous_hash,
            data_hash,
        },
        transactions: transactions.into(),
        metadata: BlockMetadata { flags },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::OrgId;
    use crate::proposal::Proposal;
    use fabricsim_crypto::KeyPair;

    fn sample_tx(nonce: u64, endorsements: usize) -> Transaction {
        let creator = ClientId(2);
        let tx_id = Proposal::derive_tx_id(creator, nonce);
        let mut rw = RwSet::new();
        rw.record_read("r1", Some(Version::new(4, 2)));
        rw.record_read("r2", None);
        rw.record_write("w1", Some(&[1, 2, 3]));
        rw.record_write("w2", None);
        let resp = crate::proposal::ProposalResponse::signed_bytes(tx_id, &rw, b"pay");
        Transaction {
            tx_id,
            channel: ChannelId::default_channel(),
            chaincode: "asset-transfer".into(),
            rw_set: rw,
            payload: b"pay".to_vec(),
            endorsements: (0..endorsements)
                .map(|i| {
                    let kp = KeyPair::from_seed(format!("p{i}").as_bytes());
                    Endorsement {
                        endorser: Principal::peer(OrgId(i as u32 + 1)),
                        endorser_key: kp.public,
                        signature: kp.sign(&resp),
                    }
                })
                .collect(),
            creator,
            signature: KeyPair::from_seed(b"client").sign(b"env"),
        }
    }

    #[test]
    fn tx_roundtrip() {
        for endorsements in [0, 1, 5] {
            let tx = sample_tx(7, endorsements);
            let bytes = encode_tx(&tx);
            assert_eq!(decode_tx(&bytes).unwrap(), tx);
        }
    }

    #[test]
    fn block_roundtrip_with_metadata() {
        let mut block = Block::assemble(
            ChannelId::default_channel(),
            3,
            Hash256::from_bytes([9; 32]),
            vec![sample_tx(1, 1), sample_tx(2, 3)],
        );
        block.metadata.flags = vec![ValidationCode::Valid, ValidationCode::MvccReadConflict];
        let bytes = encode_block(&block);
        let back = decode_block(&bytes).unwrap();
        assert_eq!(back, block);
        assert!(back.data_hash_is_consistent());
    }

    /// The role strings of `tx`'s endorsements, in order.
    fn roles(tx: &Transaction) -> impl Iterator<Item = &Arc<str>> {
        tx.endorsements.iter().map(|e| &e.endorser.role)
    }

    /// Every endorsement of a decoded AND5 block names its role through one
    /// shared string, and the block still re-encodes to the bytes it came
    /// from.
    #[test]
    fn a_decoded_block_shares_one_role_string_and_reencodes_to_its_bytes() {
        let block = Block::assemble(
            ChannelId::default_channel(),
            0,
            Hash256::ZERO,
            (0..100).map(|n| sample_tx(n, 5)).collect(),
        );
        let bytes = encode_block(&block);
        let back = decode_block(&bytes).unwrap();
        let shared: Vec<&Arc<str>> = back.transactions.iter().flat_map(roles).collect();
        assert_eq!(shared.len(), 500);
        assert!(shared.iter().all(|role| Arc::ptr_eq(role, shared[0])));
        // One allocation, held by the 500 principals and nothing else.
        assert_eq!(Arc::strong_count(shared[0]), 500);
        assert_eq!(back, block);
        assert_eq!(encode_block(&back), bytes);
    }

    /// Each distinct role text gets its own string, shared by every
    /// endorsement that names it, in an envelope as in a block.
    #[test]
    fn each_distinct_role_is_one_string() {
        let mut tx = sample_tx(3, 5);
        for (e, role) in tx
            .endorsements
            .iter_mut()
            .zip(["peer", "admin", "peer", "member", "admin"])
        {
            e.endorser.role = Arc::from(role);
        }
        let bytes = encode_tx(&tx);
        let back = decode_tx(&bytes).unwrap();
        assert_eq!(back, tx);
        assert_eq!(encode_tx(&back), bytes);
        let block = Block::assemble(
            ChannelId::default_channel(),
            1,
            Hash256::ZERO,
            vec![tx.clone(), tx],
        );
        let from_block = decode_block(&encode_block(&block)).unwrap();
        for decoded in [vec![back], from_block.transactions.to_vec()] {
            let all: Vec<&Arc<str>> = decoded.iter().flat_map(roles).collect();
            for a in &all {
                for b in &all {
                    assert_eq!(Arc::ptr_eq(a, b), a == b, "{a} and {b}");
                }
            }
        }
    }

    #[test]
    fn truncated_input_fails_cleanly() {
        let bytes = encode_tx(&sample_tx(1, 2));
        for cut in [0, 1, 10, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_tx(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_garbage_fails() {
        let mut bytes = encode_tx(&sample_tx(1, 0));
        bytes.push(0);
        assert!(decode_tx(&bytes).is_err());
    }

    #[test]
    fn corrupted_key_element_fails() {
        let tx = sample_tx(1, 1);
        let bytes = encode_tx(&tx);
        // Flip a byte in the endorser key region and expect either a decode
        // error or a changed (non-equal) decode — never a panic.
        let mut corrupted = bytes.clone();
        let idx = bytes.len() - 30;
        corrupted[idx] ^= 0xFF;
        if let Ok(t) = decode_tx(&corrupted) {
            assert_ne!(t, tx)
        }
    }

    /// The buffers are sized from `WireSize`; the envelope shapes here and in
    /// the workloads fit them, so no encoding regrows its buffer.
    #[test]
    fn encodings_fit_the_buffers_sized_for_them() {
        for endorsements in [0, 1, 5] {
            let tx = sample_tx(7, endorsements);
            assert!(encode_tx(&tx).len() as u64 <= tx.wire_size());
        }
        let block = Block::assemble(
            ChannelId::default_channel(),
            0,
            Hash256::ZERO,
            (0..100).map(|n| sample_tx(n, 5)).collect(),
        );
        assert!(encode_block(&block).len() as u64 <= block.wire_size());
    }

    fn patch_u32(bytes: &mut [u8], at: usize, x: u32) {
        bytes[at..at + 4].copy_from_slice(&x.to_le_bytes());
    }

    fn refused_count(err: DecodeError) -> bool {
        err.0.starts_with("count ") && err.0.ends_with(" exceeds buffer")
    }

    /// A count no buffer could hold is refused before it sizes a `Vec`; each
    /// of these aborted the process on a failed multi-gigabyte allocation.
    #[test]
    fn oversized_wire_counts_are_refused_not_allocated() {
        // No endorsements: the count sits before creator (4) + signature (16).
        let tx = sample_tx(1, 0);
        let mut bytes = encode_tx(&tx);
        assert_eq!(decode_tx(&bytes).unwrap(), tx);
        let at = bytes.len() - 24;
        patch_u32(&mut bytes, at, u32::MAX);
        assert!(refused_count(decode_tx(&bytes).unwrap_err()));

        // An empty block ends in its transaction count and its flag count.
        let empty = Block::assemble(ChannelId::default_channel(), 0, Hash256::ZERO, Vec::new());
        let bytes = encode_block(&empty);
        assert_eq!(decode_block(&bytes).unwrap(), empty);
        for at in [bytes.len() - 8, bytes.len() - 4] {
            let mut bytes = bytes.clone();
            patch_u32(&mut bytes, at, u32::MAX);
            assert!(refused_count(decode_block(&bytes).unwrap_err()), "at {at}");
        }
    }

    #[test]
    fn count_bounds_are_the_shortest_encodings() {
        let mut tx = sample_tx(1, 0);
        tx.channel = ChannelId(String::new());
        tx.chaincode = String::new();
        tx.rw_set = RwSet::new();
        tx.payload = Vec::new();
        assert_eq!(encode_tx(&tx).len(), MIN_TX_BYTES);
        let grown = encode_tx(&sample_tx(1, 1)).len() - encode_tx(&sample_tx(1, 0)).len();
        let principal = Principal::peer(OrgId(1)).to_string();
        assert_eq!(grown, MIN_ENDORSEMENT_BYTES + principal.len());
    }

    /// Every single-byte corruption of an envelope and of a block is an error
    /// or a different value — never a panic, an abort or a silent equal.
    #[test]
    fn every_single_byte_corruption_is_an_error_or_a_different_value() {
        let tx = sample_tx(7, 3);
        let tx_bytes = encode_tx(&tx);
        let mut block = Block::assemble(
            ChannelId::default_channel(),
            3,
            Hash256::from_bytes([9; 32]),
            vec![sample_tx(1, 1), sample_tx(2, 3)],
        );
        block.metadata.flags = vec![ValidationCode::Valid, ValidationCode::MvccReadConflict];
        let block_bytes = encode_block(&block);
        for mask in [0x01, 0x55, 0xFF] {
            for at in 0..tx_bytes.len() {
                let mut damaged = tx_bytes.clone();
                damaged[at] ^= mask;
                if let Ok(decoded) = decode_tx(&damaged) {
                    assert_ne!(decoded, tx, "envelope byte {at} ^ {mask:#04x}");
                }
            }
            for at in 0..block_bytes.len() {
                let mut damaged = block_bytes.clone();
                damaged[at] ^= mask;
                if let Ok(decoded) = decode_block(&damaged) {
                    assert_ne!(decoded, block, "block byte {at} ^ {mask:#04x}");
                }
            }
        }
    }

    /// Replaces every occurrence of the 8-byte element `from` in `bytes` by
    /// `to`, returning how many there were.
    fn replace_element(bytes: &mut [u8], from: u64, to: u64) -> usize {
        let (from, to) = (from.to_le_bytes(), to.to_le_bytes());
        let mut found = 0;
        for at in 0..bytes.len().saturating_sub(7) {
            if bytes[at..at + 8] == from {
                bytes[at..at + 8].copy_from_slice(&to);
                found += 1;
            }
        }
        found
    }

    /// An element in range that fails the subgroup check itself.
    fn non_member() -> u64 {
        (2..)
            .find(|&x| PublicKey::from_element(x).is_none())
            .unwrap()
    }

    fn refused_key(err: DecodeError) -> bool {
        err.0 == "endorser key not in group"
    }

    /// The per-block memo keeps admissions only: keys admitted earlier in a
    /// block do not carry a later transaction's non-member element through.
    #[test]
    fn a_non_member_key_after_admitted_ones_refuses_the_block() {
        let mut late = sample_tx(2, 2);
        let odd = KeyPair::from_seed(b"late");
        late.endorsements.push(Endorsement {
            endorser: Principal::peer(OrgId(9)),
            endorser_key: odd.public,
            signature: odd.sign(b"response"),
        });
        let block = Block::assemble(
            ChannelId::default_channel(),
            1,
            Hash256::ZERO,
            vec![sample_tx(1, 3), late],
        );
        let mut bytes = encode_block(&block);
        assert_eq!(decode_block(&bytes).unwrap(), block);
        assert_eq!(
            replace_element(&mut bytes, odd.public.element(), non_member()),
            1
        );
        assert!(refused_key(decode_block(&bytes).unwrap_err()));
    }

    #[test]
    fn a_repeated_non_member_key_refuses_the_block() {
        let block = Block::assemble(
            ChannelId::default_channel(),
            1,
            Hash256::ZERO,
            vec![sample_tx(1, 1), sample_tx(2, 2), sample_tx(3, 2)],
        );
        let mut bytes = encode_block(&block);
        let p1 = KeyPair::from_seed(b"p1").public.element();
        assert_eq!(replace_element(&mut bytes, p1, non_member()), 2);
        assert!(refused_key(decode_block(&bytes).unwrap_err()));
    }

    #[test]
    fn all_validation_codes_roundtrip() {
        for code in [
            ValidationCode::Valid,
            ValidationCode::MvccReadConflict,
            ValidationCode::EndorsementPolicyFailure,
            ValidationCode::BadEndorserSignature,
            ValidationCode::BadCreatorSignature,
            ValidationCode::DuplicateTxId,
            ValidationCode::BadPayload,
        ] {
            assert_eq!(code_from_u8(code_to_u8(code)).unwrap(), code);
        }
        assert!(code_from_u8(99).is_err());
    }
}
