//! # fabricsim-crypto — from-scratch cryptographic primitives
//!
//! Hyperledger Fabric's transaction flow is crypto-heavy: every proposal,
//! endorsement and block carries signatures, and the validate phase (VSCC)
//! verifies one signature per endorsement — which is exactly why the paper
//! finds `AND`-policy validation slower than `OR`. This crate implements the
//! primitives the simulated network actually runs:
//!
//! * [`sha256`] — SHA-256, tested against the FIPS 180-4 vectors.
//! * [`hmac_sha256`] — HMAC (RFC 2104), tested against the RFC 4231 vectors.
//! * [`MerkleTree`] — binary Merkle root for block data hashes.
//! * [`schnorr`] — Schnorr signatures over a 61-bit safe-prime group. The key
//!   size is a *simulation-scale* parameter (the algorithm is the real one);
//!   the DES layer charges calibrated CPU costs for sign/verify so throughput
//!   matches production-grade ECDSA, per DESIGN.md §5.
//! * [`prime`] — deterministic Miller–Rabin used to verify the group constants.
//!
//! SHA-256 has two compression bodies, chosen by what the CPU reports at run
//! time ([`sha256_backend`]): one on the x86-64 SHA extensions and the
//! portable one it is tested against. Calling the first is this workspace's
//! only `unsafe` block, and the only `#[expect(unsafe_code)]` under the
//! workspace's `unsafe_code = "deny"`; see `sha256.rs` and DESIGN.md §5.1.

#![warn(missing_docs)]

mod hash;
mod hmac;
mod merkle;
pub mod prime;
pub mod schnorr;
mod sha256;

pub use hash::Hash256;
pub use hmac::hmac_sha256;
pub use merkle::MerkleTree;
pub use schnorr::{KeyPair, PublicKey, SecretKey, Signature, VerifyingKey};
pub use sha256::{compress_portable, sha256, sha256_backend, Sha256};

/// SplitMix64: the seeded stream behind this crate's equivalence sweeps.
#[cfg(test)]
mod testrng {
    pub(crate) fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}
