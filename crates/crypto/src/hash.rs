//! The [`Hash256`] digest type used throughout fabricsim for transaction ids,
//! block hashes and state-version digests.

use std::fmt;

/// A 256-bit digest (the output of SHA-256).
///
/// ```
/// use fabricsim_crypto::sha256;
/// let h = sha256(b"block");
/// assert_eq!(h.as_bytes().len(), 32);
/// assert_eq!(h, sha256(b"block"));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Hash256([u8; 32]);

impl Hash256 {
    /// The all-zero digest, used as the previous-hash of the genesis block.
    pub const ZERO: Hash256 = Hash256([0; 32]);

    /// Wraps raw digest bytes.
    pub const fn from_bytes(bytes: [u8; 32]) -> Self {
        Hash256(bytes)
    }

    /// The raw digest bytes.
    pub const fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Lowercase hex encoding of the digest.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        let _ = write_hex(&self.0, &mut s);
        s
    }

    /// Parses a 64-character hex string.
    ///
    /// # Errors
    /// Returns `None` if the string is not exactly 64 hex characters.
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 64 {
            return None;
        }
        let mut out = [0u8; 32];
        let bytes = s.as_bytes();
        for i in 0..32 {
            let hi = (bytes[i * 2] as char).to_digit(16)?;
            let lo = (bytes[i * 2 + 1] as char).to_digit(16)?;
            out[i] = ((hi << 4) | lo) as u8;
        }
        Some(Hash256(out))
    }

    /// A short 8-hex-character prefix for logs.
    pub fn short(&self) -> String {
        let mut s = String::with_capacity(8);
        let _ = self.write_short(&mut s);
        s
    }

    /// Writes [`Hash256::short`] into `out` without building a `String`.
    ///
    /// # Errors
    /// Whatever `out` reports.
    pub fn write_short(&self, out: &mut impl fmt::Write) -> fmt::Result {
        write_hex(&self.0[..4], out)
    }

    /// First 8 bytes of the digest as a little-endian u64 (for cheap keying).
    pub fn prefix_u64(&self) -> u64 {
        let [b0, b1, b2, b3, b4, b5, b6, b7, ..] = self.0;
        u64::from_le_bytes([b0, b1, b2, b3, b4, b5, b6, b7])
    }

    /// First 8 bytes of the digest as a big-endian u64 (scalar derivation in
    /// the Schnorr signer).
    pub fn prefix_u64_be(&self) -> u64 {
        self.prefix_u64().swap_bytes()
    }
}

/// Lowercase hex of `bytes`, two characters each, written a digest's worth
/// at a time.
fn write_hex(bytes: &[u8], out: &mut impl fmt::Write) -> fmt::Result {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    for chunk in bytes.chunks(32) {
        let mut buf = [0u8; 64];
        let hex = &mut buf[..chunk.len() * 2];
        for (pair, b) in hex.chunks_exact_mut(2).zip(chunk) {
            pair[0] = HEX[usize::from(b >> 4)];
            pair[1] = HEX[usize::from(b & 0xF)];
        }
        out.write_str(std::str::from_utf8(hex).unwrap_or_default())?;
    }
    Ok(())
}

impl fmt::Debug for Hash256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Hash256(")?;
        self.write_short(f)?;
        f.write_str(")")
    }
}

impl fmt::Display for Hash256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_hex(&self.0, f)
    }
}

impl AsRef<[u8]> for Hash256 {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; 32]> for Hash256 {
    fn from(bytes: [u8; 32]) -> Self {
        Hash256(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256;

    #[test]
    fn hex_roundtrip() {
        let h = sha256(b"roundtrip");
        let hex = h.to_hex();
        assert_eq!(Hash256::from_hex(&hex), Some(h));
    }

    #[test]
    fn from_hex_rejects_bad_input() {
        assert_eq!(Hash256::from_hex("abcd"), None);
        assert_eq!(Hash256::from_hex(&"g".repeat(64)), None);
        assert!(Hash256::from_hex(&"a".repeat(64)).is_some());
    }

    #[test]
    fn zero_and_debug() {
        assert_eq!(Hash256::ZERO.to_hex(), "0".repeat(64));
        assert_eq!(format!("{:?}", Hash256::ZERO), "Hash256(00000000)");
        assert_eq!(Hash256::ZERO.short().len(), 8);
    }

    #[test]
    fn short_is_the_first_eight_hex_characters() {
        for input in [&b"a"[..], b"roundtrip", b""] {
            let h = sha256(input);
            assert_eq!(h.short(), h.to_hex()[..8]);
            let mut out = String::from("tx:");
            h.write_short(&mut out).expect("infallible");
            assert_eq!(out, format!("tx:{}", &h.to_hex()[..8]));
            assert_eq!(format!("{h}"), h.to_hex());
        }
    }

    #[test]
    fn prefix_u64_is_stable() {
        let h = Hash256::from_bytes([1; 32]);
        assert_eq!(h.prefix_u64(), u64::from_le_bytes([1; 8]));
        let mut bytes = [0u8; 32];
        bytes[..9].copy_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let h = Hash256::from_bytes(bytes);
        assert_eq!(h.prefix_u64(), 0x0807_0605_0403_0201);
        assert_eq!(h.prefix_u64_be(), 0x0102_0304_0506_0708);
    }
}
