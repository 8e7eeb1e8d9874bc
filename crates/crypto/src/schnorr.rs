//! Schnorr signatures over a safe-prime group (RFC 8235-style, simulation-scale).
//!
//! The group: `p = 2305843009213699919` (a 61-bit safe prime), subgroup order
//! `q = (p-1)/2`, generator `g = 4` (a quadratic residue, hence order `q`).
//! Keys: `sk ∈ [1, q)`, `pk = g^sk mod p`.
//!
//! What is signed is the SHA-256 **digest** of the message, as Fabric's ECDSA
//! does: [`KeyPair::sign`] / [`PublicKey::verify`] hash and delegate to
//! [`KeyPair::sign_digest`] / [`PublicKey::verify_digest`], so a caller that
//! already holds the digest (the committer, which hashed every envelope for
//! the Merkle root) never hashes the message a second time. The nonce is
//! derived RFC 6979-style from `HMAC(sk, digest)`, and the challenge
//! `H(tag ‖ r ‖ pk ‖ digest)` is 54 bytes — one SHA-256 compression.
//!
//! Exponentiation comes in the two shapes that exist for a reason. A base
//! seen again gets a fixed-base table. The generator's is built at compile
//! time with 8-bit digits (16 KiB, 7 multiplications per power), so every
//! signature's `g^k` is 7 multiplications. A public key a verifier keeps
//! ([`VerifyingKey`]) gets a 4-bit one at run time (under 2 µs and 2 KiB
//! once, then 15 per power), so a verification is two independent chains of
//! 7 and 15 and one multiplication to join them: 23. A key seen once is not
//! worth a table: [`PublicKey::verify_digest`] walks a 4-bit fixed-window
//! ladder (89, so 97 per verification). [`crate::prime::pow_mod`] remains
//! the generic utility and the oracle the tests compare all of them against.
//!
//! What depends only on the secret key is likewise paid once: a [`KeyPair`]
//! keeps the two HMAC pad chaining values, so the nonce costs two SHA-256
//! compressions per signature instead of four.
//!
//! The 61-bit modulus gives toy *security* but real *structure*: signatures
//! are actually computed and verified on every simulated endorsement and VSCC
//! check, so a forged or corrupted endorsement genuinely fails validation.
//! CPU cost in the simulation is charged separately per DESIGN.md §5.

use std::fmt;

use crate::hash::Hash256;
use crate::hmac::HmacKey;
use crate::prime::{mul_mod, pow_mod};
use crate::sha256::{sha256, Sha256};

/// The group modulus: a 61-bit safe prime.
pub const P: u64 = 2_305_843_009_213_699_919;
/// The prime subgroup order, `(P - 1) / 2`.
pub const Q: u64 = 1_152_921_504_606_849_959;
/// Generator of the order-`Q` subgroup of quadratic residues.
pub const G: u64 = 4;

/// A fixed-base table with `R` rows of `N` entries, `N` a power of two:
/// `table[i][j] = base^(j · N^i) mod p`, one row per base-`N` digit of a
/// 64-bit exponent (`N^R = 2^64`), so `base^x` is the product of one entry
/// per row — `R − 1` multiplications and no squarings.
type PowerTable<const N: usize, const R: usize> = [[u64; N]; R];

/// A run-time key's table: 4-bit digits, 16 rows of 16. 240
/// multiplications to build, 2 KiB to keep, 15 per power.
type KeyTable = PowerTable<16, 16>;

/// The generator's table: 8-bit digits, 8 rows of 256. Built at compile
/// time, 16 KiB, 7 multiplications per power.
type GeneratorTable = PowerTable<256, 8>;

/// Builds the table for `base`: at compile time for the generator, at run
/// time for a public key that will be verified against more than once.
const fn power_table<const N: usize, const R: usize>(base: u64) -> PowerTable<N, R> {
    let mut table = [[1u64; N]; R];
    let mut base = base; // base^(N^i)
    let mut i = 0;
    while i < R {
        let mut j = 1;
        while j < N {
            table[i][j] = mul_mod(table[i][j - 1], base, P);
            j += 1;
        }
        base = mul_mod(table[i][N - 1], base, P);
        i += 1;
    }
    table
}

static G_TABLE: GeneratorTable = power_table(G);

/// Digit `i` of `x` in base `N`.
fn digit<const N: usize>(x: u64, i: usize) -> usize {
    ((x >> (N.trailing_zeros() as usize * i)) & (N as u64 - 1)) as usize
}

/// `base^exp mod p` from `base`'s table: one multiplication per row after
/// the first, no squarings.
fn pow_table<const N: usize, const R: usize>(table: &PowerTable<N, R>, exp: u64) -> u64 {
    let mut acc = table[0][digit::<N>(exp, 0)];
    for (i, row) in table.iter().enumerate().skip(1) {
        acc = mul_mod(acc, row[digit::<N>(exp, i)], P);
    }
    acc
}

/// `g^exp mod p`: 7 multiplications.
fn pow_g(exp: u64) -> u64 {
    pow_table(&G_TABLE, exp)
}

/// `g^s · base^x mod p` from both tables: a chain of 7 multiplications and
/// one of 15 that do not depend on each other, so they overlap in the
/// pipeline, and one multiplication to join them.
fn pow_g_times_pow_table(s: u64, table: &KeyTable, x: u64) -> u64 {
    let mut acc_g = G_TABLE[0][digit::<256>(s, 0)];
    let mut acc = table[0][digit::<16>(x, 0)];
    for (i, row) in table.iter().enumerate().skip(1) {
        if let Some(g_row) = G_TABLE.get(i) {
            acc_g = mul_mod(acc_g, g_row[digit::<256>(s, i)], P);
        }
        acc = mul_mod(acc, row[digit::<16>(x, i)], P);
    }
    mul_mod(acc_g, acc, P)
}

/// `base^exp mod p` by 4-bit fixed windows: 14 multiplications for the
/// powers `base^2..=base^15`, then four squarings and one multiplication for
/// each of the 15 nibbles below the top one — 89 in all.
fn pow_windowed(base: u64, exp: u64) -> u64 {
    let mut powers = [1u64; 16];
    powers[1] = base;
    for j in 2..16 {
        powers[j] = mul_mod(powers[j - 1], base, P);
    }
    let mut acc = powers[digit::<16>(exp, 15)];
    for i in (0..15).rev() {
        for _ in 0..4 {
            acc = mul_mod(acc, acc, P);
        }
        acc = mul_mod(acc, powers[digit::<16>(exp, i)], P);
    }
    acc
}

/// A secret scalar in `[1, Q)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct SecretKey(u64);

/// A public group element `g^sk mod p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PublicKey(u64);

/// A Schnorr signature `(e, s)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    /// Challenge scalar.
    pub e: u64,
    /// Response scalar.
    pub s: u64,
}

/// A secret/public key pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyPair {
    /// The secret scalar.
    pub secret: SecretKey,
    /// The corresponding public element.
    pub public: PublicKey,
    /// HMAC key over the secret scalar's bytes, pads already compressed: the
    /// part of every nonce derivation that depends on the key alone.
    nonce_key: HmacKey,
}

/// A public key expanded for a verifier that will see it again: the key plus
/// its fixed-base table (2 KiB, under 2 µs to build), so each verification is 23
/// multiplications instead of the 97 of [`PublicKey::verify_digest`]. Same
/// verdict on every input; build one per registered identity, not per
/// signature.
#[derive(Clone, PartialEq, Eq)]
pub struct VerifyingKey {
    key: PublicKey,
    table: KeyTable,
}

impl fmt::Debug for VerifyingKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The table is a function of the key; 256 words of it help nobody.
        f.debug_tuple("VerifyingKey").field(&self.key).finish()
    }
}

impl fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print key material.
        f.write_str("SecretKey(..)")
    }
}

impl SecretKey {
    /// Creates a secret key from seed material (any bytes); the scalar is
    /// derived by hashing, so any seed yields a valid key.
    pub fn from_seed(seed: &[u8]) -> Self {
        let digest = {
            let mut h = Sha256::new();
            h.update(b"fabricsim-schnorr-sk");
            h.update(seed);
            h.finalize()
        };
        SecretKey(1 + digest.prefix_u64_be() % (Q - 1))
    }

    /// The public key for this secret.
    pub fn public_key(&self) -> PublicKey {
        PublicKey(pow_g(self.0))
    }
}

impl PublicKey {
    /// The raw group element.
    pub fn element(&self) -> u64 {
        self.0
    }

    /// Reconstructs a public key from its raw element.
    ///
    /// # Errors
    /// Returns `None` if the element is not in the order-`Q` subgroup.
    pub fn from_element(x: u64) -> Option<Self> {
        if x == 0 || x >= P || pow_mod(x, Q, P) != 1 {
            return None;
        }
        Some(PublicKey(x))
    }
}

impl KeyPair {
    /// Deterministically generates a key pair from seed bytes.
    ///
    /// ```
    /// use fabricsim_crypto::KeyPair;
    /// let kp = KeyPair::from_seed(b"org1.peer0");
    /// let sig = kp.sign(b"proposal");
    /// assert!(kp.public.verify(b"proposal", &sig));
    /// assert!(!kp.public.verify(b"tampered", &sig));
    /// ```
    pub fn from_seed(seed: &[u8]) -> Self {
        let secret = SecretKey::from_seed(seed);
        KeyPair {
            secret,
            public: secret.public_key(),
            nonce_key: HmacKey::new(&secret.0.to_be_bytes()),
        }
    }

    /// Signs a message: hashes it and signs the digest.
    pub fn sign(&self, message: &[u8]) -> Signature {
        self.sign_digest(&sha256(message))
    }

    /// Signs the SHA-256 digest of a message with a deterministic
    /// (RFC 6979-style) nonce. `sign(m) == sign_digest(&sha256(m))`.
    pub fn sign_digest(&self, digest: &Hash256) -> Signature {
        // Deterministic nonce: k = HMAC(sk, digest) reduced into [1, Q).
        let nonce_tag = self.nonce_key.mac(digest.as_bytes());
        let k = 1 + nonce_tag.prefix_u64_be() % (Q - 1);
        let r = pow_g(k);
        let e = challenge(r, self.public, digest);
        // s = k + e * sk mod Q
        let s = (k as u128 + mul_mod(e % Q, self.secret.0, Q) as u128) % Q as u128;
        Signature { e, s: s as u64 }
    }
}

impl PublicKey {
    /// Verifies a signature over `message`: hashes it and verifies the digest.
    pub fn verify(&self, message: &[u8], sig: &Signature) -> bool {
        self.verify_digest(&sha256(message), sig)
    }

    /// Verifies a signature over the SHA-256 digest of a message.
    /// `verify(m, sig) == verify_digest(&sha256(m), sig)`.
    ///
    /// The one-shot shape: nothing is kept about the key between calls. A
    /// verifier that will see the key again should hold a [`VerifyingKey`].
    pub fn verify_digest(&self, digest: &Hash256, sig: &Signature) -> bool {
        verify_with(*self, digest, sig, |s, x| {
            mul_mod(pow_g(s), pow_windowed(self.0, x), P)
        })
    }
}

impl VerifyingKey {
    /// Expands `key`, building its table.
    pub fn new(key: PublicKey) -> Self {
        VerifyingKey {
            key,
            table: power_table(key.0),
        }
    }

    /// The key this was expanded from.
    pub fn public_key(&self) -> PublicKey {
        self.key
    }

    /// [`PublicKey::verify_digest`] under the expanded key: the same verdict
    /// for every digest and signature.
    pub fn verify_digest(&self, digest: &Hash256, sig: &Signature) -> bool {
        verify_with(self.key, digest, sig, |s, x| {
            pow_g_times_pow_table(s, &self.table, x)
        })
    }
}

/// The verification both key shapes share; `g_s_pk_x(s, x)` is `g^s · pk^x`,
/// which is all they compute differently.
fn verify_with(
    pk: PublicKey,
    digest: &Hash256,
    sig: &Signature,
    g_s_pk_x: impl FnOnce(u64, u64) -> u64,
) -> bool {
    if sig.s >= Q {
        return false;
    }
    // r' = g^s * pk^{-e} = g^s * pk^{Q - (e mod Q)}
    let r = g_s_pk_x(sig.s, Q - sig.e % Q);
    challenge(r, pk, digest) == sig.e
}

const CHALLENGE_TAG: &[u8] = b"fsim-e";
// tag ‖ r ‖ pk ‖ digest must pad into a single SHA-256 block (≤ 55 bytes).
const _: () = assert!(CHALLENGE_TAG.len() + 8 + 8 + 32 <= 55);

/// `H(tag ‖ r ‖ pk ‖ digest) mod Q`: one compression.
fn challenge(r: u64, pk: PublicKey, digest: &Hash256) -> u64 {
    let mut h = Sha256::new();
    h.update(CHALLENGE_TAG);
    h.update(&r.to_be_bytes());
    h.update(&pk.0.to_be_bytes());
    h.update(digest.as_bytes());
    h.finalize().prefix_u64_be() % Q
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hmac::hmac_sha256;
    use crate::prime::is_safe_prime;
    use crate::testrng::splitmix;

    #[test]
    fn group_constants_are_valid() {
        assert!(is_safe_prime(P));
        assert_eq!(Q, (P - 1) / 2);
        assert_eq!(pow_mod(G, Q, P), 1, "generator must have order Q");
        assert_ne!(pow_mod(G, 1, P), 1);
    }

    #[test]
    fn table_and_windowed_exponentiation_match_pow_mod() {
        let mut rng = 0x00FA_B51C_u64;
        let edge = [0, 1, 15, 16, Q - 1, Q, 1 << 60, u64::MAX];
        let random: Vec<u64> = (0..10_000).map(|_| splitmix(&mut rng)).collect();
        let pk = KeyPair::from_seed(b"oracle").public.element();
        let pk_table: KeyTable = power_table(pk);
        for &x in edge.iter().chain(&random) {
            assert_eq!(pow_g(x), pow_mod(G, x, P), "g^{x}");
            assert_eq!(pow_windowed(pk, x), pow_mod(pk, x, P), "pk^{x}");
            assert_eq!(pow_table(&pk_table, x), pow_mod(pk, x, P), "pk^{x}");
            let s = splitmix(&mut rng);
            assert_eq!(
                pow_g_times_pow_table(s, &pk_table, x),
                mul_mod(pow_mod(G, s, P), pow_mod(pk, x, P), P),
                "g^{s} pk^{x}"
            );
            // Any base, not only subgroup elements.
            let base = splitmix(&mut rng);
            assert_eq!(pow_windowed(base, x), pow_mod(base, x, P), "{base}^{x}");
        }
    }

    /// Every entry of `table` is `base` to its row's power of `N`, times its
    /// column.
    fn assert_rows_are_powers<const N: usize, const R: usize>(base: u64, table: &PowerTable<N, R>) {
        let bits = N.trailing_zeros() as usize;
        for (i, row) in table.iter().enumerate() {
            for (j, &entry) in row.iter().enumerate() {
                // j · N^i can exceed u64 for the top row; reduce mod the
                // group order P − 1 in 128-bit arithmetic first.
                let exp = ((j as u128) << (bits * i)) % (P - 1) as u128;
                assert_eq!(
                    entry,
                    pow_mod(base, exp as u64, P),
                    "{base}: row {i} entry {j}"
                );
            }
        }
    }

    #[test]
    fn table_rows_are_powers_of_the_base_for_g_and_for_run_time_keys() {
        // The generator's 8-bit table, every one of its 2048 entries.
        assert_rows_are_powers(G, &G_TABLE);
        let mut rng = 0x0007_AB1E_u64;
        for _ in 0..8 {
            let pk = KeyPair::from_seed(&splitmix(&mut rng).to_le_bytes()).public;
            assert_rows_are_powers(pk.element(), &VerifyingKey::new(pk).table);
        }
        // And a base outside the subgroup: the builder does not care.
        assert_rows_are_powers::<16, 16>(P - 2, &power_table(P - 2));
    }

    /// Every way of asking about one (message, signature) pair — by message
    /// and by digest, under the plain key and under the expanded one: they
    /// must agree, and the verdict is returned.
    fn verifies(pk: &PublicKey, msg: &[u8], sig: &Signature) -> bool {
        let by_message = pk.verify(msg, sig);
        let digest = sha256(msg);
        assert_eq!(by_message, pk.verify_digest(&digest, sig));
        let expanded = VerifyingKey::new(*pk);
        assert_eq!(expanded.public_key(), *pk);
        assert_eq!(by_message, expanded.verify_digest(&digest, sig));
        by_message
    }

    #[test]
    fn expanded_and_plain_keys_agree_on_10k_seeded_signatures() {
        let mut rng = 0xE47A_9DED_u64;
        let keys: Vec<(KeyPair, VerifyingKey)> = (0..16)
            .map(|_| {
                let kp = KeyPair::from_seed(&splitmix(&mut rng).to_le_bytes());
                (kp, VerifyingKey::new(kp.public))
            })
            .collect();
        for i in 0..10_000 {
            let (kp, expanded) = &keys[i % keys.len()];
            let (_, other) = &keys[(i + 1) % keys.len()];
            let digest = sha256(&splitmix(&mut rng).to_le_bytes());
            let sig = kp.sign_digest(&digest);
            assert!(kp.public.verify_digest(&digest, &sig), "case {i}");
            assert!(expanded.verify_digest(&digest, &sig), "case {i}");
            assert!(!other.verify_digest(&digest, &sig), "wrong key, case {i}");
            // A pair that is almost surely no signature at all, `s` sometimes
            // out of range: whatever the verdict, both shapes reach it.
            let forged = Signature {
                e: splitmix(&mut rng),
                s: splitmix(&mut rng) >> (i % 6),
            };
            assert_eq!(
                expanded.verify_digest(&digest, &forged),
                kp.public.verify_digest(&digest, &forged),
                "case {i}"
            );
        }
    }

    /// Signing as the parent commit did it, through the public oracles: pads
    /// re-derived by [`hmac_sha256`], `g^k` by [`pow_mod`].
    fn sign_digest_reference(kp: &KeyPair, digest: &Hash256) -> Signature {
        let nonce_tag = hmac_sha256(&kp.secret.0.to_be_bytes(), digest.as_bytes());
        let k = 1 + nonce_tag.prefix_u64_be() % (Q - 1);
        let e = challenge(pow_mod(G, k, P), kp.public, digest);
        let s = (k as u128 + mul_mod(e % Q, kp.secret.0, Q) as u128) % Q as u128;
        Signature { e, s: s as u64 }
    }

    #[test]
    fn midstate_nonce_leaves_every_signature_value_unchanged() {
        let mut rng = 0x6979_u64;
        for i in 0..1_000 {
            let kp = KeyPair::from_seed(&splitmix(&mut rng).to_le_bytes());
            let digest = sha256(&splitmix(&mut rng).to_le_bytes());
            assert_eq!(
                kp.nonce_key.mac(digest.as_bytes()),
                hmac_sha256(&kp.secret.0.to_be_bytes(), digest.as_bytes()),
                "nonce, case {i}"
            );
            assert_eq!(
                kp.sign_digest(&digest),
                sign_digest_reference(&kp, &digest),
                "signature, case {i}"
            );
        }
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = KeyPair::from_seed(b"alice");
        for msg in [&b"hello"[..], b"", b"a longer message with bytes \x00\xff"] {
            let sig = kp.sign(msg);
            assert_eq!(sig, kp.sign_digest(&sha256(msg)));
            assert!(verifies(&kp.public, msg, &sig));
        }
    }

    #[test]
    fn message_and_digest_entry_points_agree_on_random_input() {
        let mut rng = 7u64;
        for i in 0..200u64 {
            let kp = KeyPair::from_seed(&splitmix(&mut rng).to_le_bytes());
            let msg: Vec<u8> = (0..i).map(|_| splitmix(&mut rng) as u8).collect();
            let sig = kp.sign(&msg);
            assert_eq!(sig, kp.sign_digest(&sha256(&msg)));
            assert!(verifies(&kp.public, &msg, &sig));
            let forged = Signature {
                e: splitmix(&mut rng),
                s: splitmix(&mut rng) % Q,
            };
            assert!(!verifies(&kp.public, &msg, &forged));
        }
    }

    #[test]
    fn a_digest_is_not_its_own_message() {
        // Signing the digest bytes *as a message* hashes them again: the two
        // entry points sign different things unless composed as documented.
        let kp = KeyPair::from_seed(b"alice");
        let digest = sha256(b"msg");
        assert_ne!(kp.sign_digest(&digest), kp.sign(digest.as_bytes()));
    }

    #[test]
    fn tampered_message_fails() {
        let kp = KeyPair::from_seed(b"alice");
        let sig = kp.sign(b"pay bob 10");
        assert!(!verifies(&kp.public, b"pay bob 11", &sig));
    }

    #[test]
    fn wrong_key_fails() {
        let alice = KeyPair::from_seed(b"alice");
        let bob = KeyPair::from_seed(b"bob");
        let sig = alice.sign(b"msg");
        assert!(!verifies(&bob.public, b"msg", &sig));
    }

    #[test]
    fn corrupted_signature_fails() {
        let kp = KeyPair::from_seed(b"alice");
        let sig = kp.sign(b"msg");
        let bad_e = Signature {
            e: sig.e ^ 1,
            s: sig.s,
        };
        let bad_s = Signature {
            e: sig.e,
            s: (sig.s + 1) % Q,
        };
        assert!(!verifies(&kp.public, b"msg", &bad_e));
        assert!(!verifies(&kp.public, b"msg", &bad_s));
        let oversize = Signature { e: sig.e, s: Q };
        assert!(!verifies(&kp.public, b"msg", &oversize));
        // s + Q names the same residue; it must still be refused, not reduced.
        let wrapped = Signature {
            e: sig.e,
            s: sig.s + Q,
        };
        assert!(!verifies(&kp.public, b"msg", &wrapped));
    }

    #[test]
    fn deterministic_signatures() {
        let kp = KeyPair::from_seed(b"alice");
        assert_eq!(kp.sign(b"m"), kp.sign(b"m"));
        assert_ne!(kp.sign(b"m"), kp.sign(b"n"));
    }

    #[test]
    fn public_key_subgroup_check() {
        let kp = KeyPair::from_seed(b"alice");
        assert_eq!(
            PublicKey::from_element(kp.public.element()),
            Some(kp.public)
        );
        assert_eq!(PublicKey::from_element(0), None);
        assert_eq!(PublicKey::from_element(P), None);
        // A non-residue (order 2q element) must be rejected; g is a residue so
        // any odd power of a non-residue like (P-1) has order 2 or 2q.
        assert_eq!(PublicKey::from_element(P - 1), None);
    }

    #[test]
    fn seeds_give_distinct_keys() {
        let a = KeyPair::from_seed(b"a");
        let b = KeyPair::from_seed(b"b");
        assert_ne!(a.public, b.public);
        assert_eq!(format!("{:?}", a.secret), "SecretKey(..)");
    }
}
