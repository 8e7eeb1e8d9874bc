//! HMAC-SHA256 (RFC 2104), used for deterministic nonce derivation in the
//! Schnorr signer (RFC 6979-style) and for keyed identifiers.

use std::fmt;

use crate::hash::Hash256;
use crate::sha256::Sha256;

const BLOCK: usize = 64;

/// The key XORed into the inner and outer pad blocks (a key longer than one
/// block is hashed first).
fn pads(key: &[u8]) -> ([u8; BLOCK], [u8; BLOCK]) {
    let mut key_block = [0u8; BLOCK];
    if key.len() > BLOCK {
        let kh = {
            let mut h = Sha256::new();
            h.update(key);
            h.finalize()
        };
        key_block[..32].copy_from_slice(kh.as_bytes());
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }
    (key_block.map(|b| b ^ 0x36), key_block.map(|b| b ^ 0x5c))
}

/// Computes `HMAC-SHA256(key, message)`.
///
/// ```
/// use fabricsim_crypto::hmac_sha256;
/// let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
/// assert_eq!(
///     tag.to_hex(),
///     "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
/// );
/// ```
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Hash256 {
    let (ipad, opad) = pads(key);
    let inner = {
        let mut h = Sha256::new();
        h.update(&ipad);
        h.update(message);
        h.finalize()
    };
    let mut h = Sha256::new();
    h.update(&opad);
    h.update(inner.as_bytes());
    h.finalize()
}

/// An HMAC-SHA256 key with both pad blocks already compressed: the two
/// SHA-256 chaining values that depend on the key alone. [`HmacKey::mac`]
/// resumes from them, so a tag over a short message costs two compressions
/// where [`hmac_sha256`] — which re-derives and re-hashes the pads on every
/// call, and is the oracle this is tested against — costs four.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct HmacKey {
    inner: [u32; 8],
    outer: [u32; 8],
}

impl HmacKey {
    pub(crate) fn new(key: &[u8]) -> Self {
        let (ipad, opad) = pads(key);
        HmacKey {
            inner: Sha256::midstate(&ipad),
            outer: Sha256::midstate(&opad),
        }
    }

    /// `hmac_sha256(key, message)` for the key this was built from.
    pub(crate) fn mac(&self, message: &[u8]) -> Hash256 {
        let mut inner = Sha256::resume(self.inner);
        inner.update(message);
        let mut outer = Sha256::resume(self.outer);
        outer.update(inner.finalize().as_bytes());
        outer.finalize()
    }
}

impl fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The chaining values stand in for the key: never print them.
        f.write_str("HmacKey(..)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    // RFC 4231 test cases.
    #[test]
    fn rfc4231_case1() {
        let key = vec![0x0b; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            tag.to_hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            tag.to_hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case3() {
        let key = vec![0xaa; 20];
        let data = vec![0xdd; 50];
        let tag = hmac_sha256(&key, &data);
        assert_eq!(
            tag.to_hex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case6_long_key() {
        let key = vec![0xaa; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            tag.to_hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn rfc4231_case7_long_key_and_data() {
        let key = vec![0xaa; 131];
        let data = b"This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.";
        let tag = hmac_sha256(&key, data);
        assert_eq!(
            tag.to_hex(),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    #[test]
    fn midstate_key_matches_the_oracle_for_every_key_and_message_shape() {
        // Key lengths around the block size (longer keys are hashed first),
        // message lengths around the padding edges.
        for key_len in [0usize, 1, 8, 32, 63, 64, 65, 131] {
            let key: Vec<u8> = (0..key_len).map(|i| (i * 7 + 1) as u8).collect();
            let prepared = HmacKey::new(&key);
            for msg_len in [0usize, 1, 32, 55, 56, 64, 119, 120, 200] {
                let msg: Vec<u8> = (0..msg_len).map(|i| (i * 13 + 5) as u8).collect();
                assert_eq!(
                    prepared.mac(&msg),
                    hmac_sha256(&key, &msg),
                    "key {key_len} msg {msg_len}"
                );
            }
        }
        assert_eq!(format!("{:?}", HmacKey::new(b"k")), "HmacKey(..)");
    }

    #[test]
    fn distinct_keys_distinct_tags() {
        let a = hmac_sha256(b"k1", b"m");
        let b = hmac_sha256(b"k2", b"m");
        assert_ne!(a, b);
        let _ = hex("00"); // keep helper used even if vectors change
    }
}
