//! A crate root that lowered the level: `deny` can be overridden further in.

#![deny(unsafe_code)]

pub fn ok() {}
