//! [`Name`]: the short string a trace record names things with.
//!
//! Every phase event and span carries two names (`tx`/`station`,
//! `trace`/`actor`) — `1f3a9c02`, `peer3.vscc`, `b0.4711`, `osn1>broker2` —
//! and a traced run records hundreds of thousands of them. As `String`s each
//! was a heap allocation when recorded and a free when the ring evicted or
//! dropped it; a `Name` keeps up to [`Name::INLINE_CAP`] bytes in the record
//! itself and is the same size as the `String` it replaces. Longer names —
//! none the simulator renders, but a foreign trace file may hold anything —
//! fall back to the heap, so parsing stays lossless.

use std::fmt;
use std::num::NonZeroU8;
use std::ops::Deref;

/// A short string stored inline (see the module docs). Dereferences to
/// `str`; build one from a `&str`/`String`, or render straight into it
/// through [`fmt::Write`].
#[derive(Clone)]
pub struct Name(Repr);

/// `Heap` holds exactly the strings too long for `Inline`. `len_plus_one` is
/// a `NonZeroU8` so the enum tag fits its spare value and `Name` stays three
/// words.
#[derive(Clone)]
enum Repr {
    Inline {
        buf: [u8; Name::INLINE_CAP],
        len_plus_one: NonZeroU8,
    },
    Heap(Box<str>),
}

impl Name {
    /// Longest name, in bytes, stored without a heap allocation.
    pub const INLINE_CAP: usize = 23;

    /// The empty name.
    #[must_use]
    pub const fn new() -> Self {
        Name(Repr::Inline {
            buf: [0; Name::INLINE_CAP],
            len_plus_one: NonZeroU8::MIN,
        })
    }

    /// The name as a string slice.
    #[must_use]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            // Only whole `&str`s are ever appended, so the prefix is valid
            // UTF-8 and the fallback is unreachable.
            Repr::Inline { buf, len_plus_one } => {
                std::str::from_utf8(&buf[..usize::from(len_plus_one.get()) - 1]).unwrap_or_default()
            }
            Repr::Heap(s) => s,
        }
    }

    /// Appends `s`, moving to the heap once the name outgrows the inline
    /// buffer.
    pub fn push_str(&mut self, s: &str) {
        match &mut self.0 {
            Repr::Inline { buf, len_plus_one } => {
                let len = usize::from(len_plus_one.get()) - 1;
                let end = len + s.len();
                let grown = u8::try_from(end + 1).ok().and_then(NonZeroU8::new);
                match (buf.get_mut(len..end), grown) {
                    (Some(dst), Some(n)) => {
                        dst.copy_from_slice(s.as_bytes());
                        *len_plus_one = n;
                    }
                    _ => self.0 = Repr::Heap([self.as_str(), s].concat().into()),
                }
            }
            Repr::Heap(old) => *old = [old, s].concat().into(),
        }
    }
}

impl Default for Name {
    fn default() -> Self {
        Name::new()
    }
}

impl fmt::Write for Name {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.push_str(s);
        Ok(())
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Self {
        let mut name = Name::new();
        name.push_str(s);
        name
    }
}

impl From<String> for Name {
    fn from(s: String) -> Self {
        if s.len() > Name::INLINE_CAP {
            Name(Repr::Heap(s.into()))
        } else {
            Name::from(s.as_str())
        }
    }
}

impl Deref for Name {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Name {}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    #[test]
    fn a_name_is_the_size_of_the_string_it_replaces() {
        assert_eq!(
            std::mem::size_of::<Name>(),
            std::mem::size_of::<String>(),
            "the NonZeroU8 niche must hold the enum tag"
        );
        // The two records keep the size they had with `String` fields.
        assert_eq!(std::mem::size_of::<crate::PhaseEvent>(), 88);
        assert_eq!(std::mem::size_of::<crate::SpanEvent>(), 88);
    }

    #[test]
    fn names_round_trip_on_both_sides_of_the_inline_bound() {
        let at = "é".repeat(11) + "x"; // 23 bytes
        let over = "é".repeat(12); // 24 bytes
        assert_eq!((at.len(), over.len()), (23, 24));
        for s in ["", "a", "peer3.vscc", &at, &over, &"long ".repeat(40)] {
            let a = Name::from(s);
            let b = Name::from(s.to_string());
            assert_eq!(a.as_str(), s);
            assert_eq!(a, b, "one representation per string");
            assert_eq!(
                matches!(a.0, Repr::Heap(_)),
                s.len() > Name::INLINE_CAP,
                "{s:?}"
            );
            assert_eq!(matches!(a.0, Repr::Heap(_)), matches!(b.0, Repr::Heap(_)));
            assert_eq!(format!("{a}"), s);
            assert_eq!(format!("{a:?}"), format!("{s:?}"));
            assert!(a == *s && a == s);
        }
    }

    #[test]
    fn rendering_appends_and_spills_without_losing_bytes() {
        let mut n = Name::new();
        write!(n, "osn{}>broker{}", 1, 2).expect("infallible");
        assert_eq!(n, "osn1>broker2");
        assert!(matches!(n.0, Repr::Inline { .. }));
        // Crossing the bound mid-render keeps everything written so far, and
        // a heap name keeps growing.
        write!(n, ">{}", "é".repeat(6)).expect("infallible");
        assert_eq!(n.len(), 25);
        assert!(matches!(n.0, Repr::Heap(_)));
        n.push_str("!");
        assert_eq!(n, "osn1>broker2>éééééé!");
        // Filling the buffer exactly stays inline.
        let mut full = Name::from("0123456789");
        full.push_str("0123456789abc");
        assert_eq!(full.len(), Name::INLINE_CAP);
        assert!(matches!(full.0, Repr::Inline { .. }));
    }
}
