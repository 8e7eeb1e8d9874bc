//! Canonical byte encoding for signed artifacts and wire-size accounting.
//!
//! Signatures must be computed over a deterministic byte string; protobuf (what
//! real Fabric uses) is replaced by a simple length-prefixed canonical encoding.
//! The same encoder, started without a domain tag ([`Encoder::untagged`]),
//! writes the wire format of [`crate::codec`]. [`WireSize`] gives the message
//! sizes charged to the simulated 1 Gbps network.

use fabricsim_crypto::Hash256;

/// Builds a canonical, unambiguous byte string from typed fields.
///
/// Every variable-length field is written as a little-endian length prefix
/// followed by the raw bytes, so `("ab", "c")` and `("a", "bc")` encode
/// differently; integers and hashes are fixed-width.
///
/// ```
/// use fabricsim_types::encode::Encoder;
/// let mut e = Encoder::new("demo");
/// e.bytes(b"ab").bytes(b"c").u64(7);
/// let a = e.finish();
/// let mut e2 = Encoder::new("demo");
/// e2.bytes(b"a").bytes(b"bc").u64(7);
/// assert_ne!(a, e2.finish());
/// ```
#[derive(Debug, Clone)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Starts an encoding with a domain-separation tag.
    pub fn new(domain: &str) -> Self {
        Self::with_capacity(domain, 128)
    }

    /// [`Encoder::new`] with room for `capacity` bytes, tag included, so an
    /// encoding known to be longer than 128 bytes is allocated once.
    pub fn with_capacity(domain: &str, capacity: usize) -> Self {
        let mut e = Encoder {
            buf: Vec::with_capacity(capacity),
        };
        e.bytes(domain.as_bytes());
        e
    }

    /// Starts an encoding with no domain tag and room for `capacity` bytes:
    /// the wire format of [`crate::codec`], which is framed the same way but
    /// never signed.
    pub fn untagged(capacity: usize) -> Self {
        Encoder {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Appends a 32-byte hash as is: its width is fixed, so it takes no
    /// length prefix.
    pub fn hash(&mut self, h: &Hash256) -> &mut Self {
        self.buf.extend_from_slice(h.as_bytes());
        self
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, data: &[u8]) -> &mut Self {
        self.buf
            .extend_from_slice(&(data.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(data);
        self
    }

    /// Appends the concatenation of `parts` as one length-prefixed byte
    /// string — `bytes(&parts.concat())` without building the concatenation.
    pub fn concat(&mut self, parts: &[&[u8]]) -> &mut Self {
        let len: usize = parts.iter().map(|p| p.len()).sum();
        self.buf.extend_from_slice(&(len as u32).to_le_bytes());
        for part in parts {
            self.buf.extend_from_slice(part);
        }
        self
    }

    /// Appends a UTF-8 string.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.bytes(s.as_bytes())
    }

    /// Appends a fixed-width u64.
    pub fn u64(&mut self, x: u64) -> &mut Self {
        self.buf.extend_from_slice(&x.to_le_bytes());
        self
    }

    /// Appends a fixed-width u32.
    pub fn u32(&mut self, x: u32) -> &mut Self {
        self.buf.extend_from_slice(&x.to_le_bytes());
        self
    }

    /// Appends a single byte.
    pub fn u8(&mut self, x: u8) -> &mut Self {
        self.buf.push(x);
        self
    }

    /// Appends a count followed by per-item encodings.
    pub fn list<T>(&mut self, items: &[T], mut f: impl FnMut(&mut Self, &T)) -> &mut Self {
        self.u32(items.len() as u32);
        for item in items {
            f(self, item);
        }
        self
    }

    /// Finishes and returns the canonical bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Current encoded length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written: only an untagged encoding
    /// starts empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Types that know their encoded size on the wire (bytes), used by the DES
/// network model to charge serialization delay.
pub trait WireSize {
    /// Encoded size in bytes, including framing overhead.
    fn wire_size(&self) -> u64;
}

/// Fixed per-message overhead: gRPC/HTTP2 framing + TLS record, as on the
/// paper's testbed (TLS was enabled on peers and orderers).
pub const MSG_OVERHEAD: u64 = 120;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_prefix_disambiguates() {
        let mut a = Encoder::new("t");
        a.str("ab").str("c");
        let mut b = Encoder::new("t");
        b.str("a").str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn concat_is_bytes_of_the_concatenation() {
        let mut a = Encoder::new("t");
        a.concat(&[b"Org", b"12", b".", b"peer"]).concat(&[]);
        let mut b = Encoder::new("t");
        b.str("Org12.peer").bytes(b"");
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn domains_disambiguate() {
        let mut a = Encoder::new("proposal");
        a.u64(1);
        let mut b = Encoder::new("response");
        b.u64(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn list_encoding_includes_count() {
        let mut a = Encoder::new("t");
        a.list(&[1u64, 2], |e, x| {
            e.u64(*x);
        });
        let mut b = Encoder::new("t");
        b.list(&[1u64, 2, 3], |e, x| {
            e.u64(*x);
        });
        let (va, vb) = (a.finish(), b.finish());
        assert_ne!(va, vb);
        assert_eq!(vb.len() - va.len(), 8);
    }

    #[test]
    fn deterministic() {
        let build = || {
            let mut e = Encoder::new("x");
            e.str("k").u64(42).u32(7).u8(1).bytes(&[0, 255]);
            e.finish()
        };
        assert_eq!(build(), build());
    }
}
