//! SHA-256 (FIPS 180-4), implemented from the specification.

use crate::hash::Hash256;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// ```
/// use fabricsim_crypto::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(
///     h.finalize().to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// The chaining value after absorbing exactly `block`. A keyed caller
    /// (HMAC) computes it once per key and [`Sha256::resume`]s from it for
    /// every message instead of hashing the same first block again.
    pub(crate) fn midstate(block: &[u8; 64]) -> [u32; 8] {
        let mut state = H0;
        compress(&mut state, block);
        state
    }

    /// A hasher that has already absorbed the one block `midstate` was taken
    /// after.
    pub(crate) fn resume(midstate: [u32; 8]) -> Self {
        Sha256 {
            state: midstate,
            buf: [0; 64],
            buf_len: 0,
            total_len: 64,
        }
    }

    /// Absorbs more input.
    pub fn update(&mut self, mut data: &[u8]) {
        // FIPS 180-4 defines SHA-256 for messages under 2^64 bits; no
        // sequence of in-memory slices reaches that, so the count may wrap.
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                compress(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }
        data = absorb(&mut self.state, data);
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Finishes and returns the digest.
    pub fn finalize(mut self) -> Hash256 {
        // Padding, in place: 0x80, zeros to 56 mod 64, 64-bit big-endian
        // bit length.
        let bit_len = self.total_len.wrapping_mul(8);
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            compress(&mut self.state, &self.buf);
            self.buf.fill(0);
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buf);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Hash256::from_bytes(out)
    }
}

/// One round with the working variables named in their current roles: the
/// caller rotates the names from round to round instead of moving eight values.
macro_rules! round {
    ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $kw:expr) => {
        let t1 = $h
            .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25))
            .wrapping_add(($e & $f) ^ (!$e & $g))
            .wrapping_add($kw);
        let t2 = ($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
            .wrapping_add(($a & $b) ^ ($a & $c) ^ ($b & $c));
        $d = $d.wrapping_add(t1);
        $h = t1.wrapping_add(t2);
    };
}

/// The compression function, as four passes of sixteen unrolled rounds over
/// a sixteen-word rolling message schedule: `w[i]` holds `W[16·pass + i]`, and
/// each pass after the first rewrites it in place from the previous sixteen
/// words (`W[t-15]`, `W[t-7]` and `W[t-2]` are `w[i+1]`, `w[i+9]` and
/// `w[i+14]` mod 16). Tested against `tests::compress_reference`, the
/// specification's 64-word form.
///
/// The portable body: the only one off x86-64 or on a CPU without the SHA
/// extensions, and the oracle the accelerated body is tested against. Public
/// so a bench outside the crate can time it beside the dispatched path.
pub fn compress_portable(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 16];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for (pass, k) in K.chunks_exact(16).enumerate() {
        if pass > 0 {
            for i in 0..16 {
                let w15 = w[(i + 1) & 15];
                let w2 = w[(i + 14) & 15];
                w[i] = w[i]
                    .wrapping_add(w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3))
                    .wrapping_add(w[(i + 9) & 15])
                    .wrapping_add(w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10));
            }
        }
        round!(a, b, c, d, e, f, g, h, k[0].wrapping_add(w[0]));
        round!(h, a, b, c, d, e, f, g, k[1].wrapping_add(w[1]));
        round!(g, h, a, b, c, d, e, f, k[2].wrapping_add(w[2]));
        round!(f, g, h, a, b, c, d, e, k[3].wrapping_add(w[3]));
        round!(e, f, g, h, a, b, c, d, k[4].wrapping_add(w[4]));
        round!(d, e, f, g, h, a, b, c, k[5].wrapping_add(w[5]));
        round!(c, d, e, f, g, h, a, b, k[6].wrapping_add(w[6]));
        round!(b, c, d, e, f, g, h, a, k[7].wrapping_add(w[7]));
        round!(a, b, c, d, e, f, g, h, k[8].wrapping_add(w[8]));
        round!(h, a, b, c, d, e, f, g, k[9].wrapping_add(w[9]));
        round!(g, h, a, b, c, d, e, f, k[10].wrapping_add(w[10]));
        round!(f, g, h, a, b, c, d, e, k[11].wrapping_add(w[11]));
        round!(e, f, g, h, a, b, c, d, k[12].wrapping_add(w[12]));
        round!(d, e, f, g, h, a, b, c, k[13].wrapping_add(w[13]));
        round!(c, d, e, f, g, h, a, b, k[14].wrapping_add(w[14]));
        round!(b, c, d, e, f, g, h, a, k[15].wrapping_add(w[15]));
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// Whether this CPU has the x86-64 SHA extensions and the two SSE levels the
/// accelerated body also uses (SSE2 is part of every x86-64).
#[cfg(target_arch = "x86_64")]
fn has_sha_ni() -> bool {
    std::arch::is_x86_feature_detected!("sha")
        && std::arch::is_x86_feature_detected!("ssse3")
        && std::arch::is_x86_feature_detected!("sse4.1")
}

#[cfg(not(target_arch = "x86_64"))]
fn has_sha_ni() -> bool {
    false
}

/// The compression body this process hashes with: `"sha-ni"` when the CPU
/// reports the x86-64 SHA extensions, `"portable"` otherwise. Observed from
/// the hardware, never set; both bodies compute the same function, so only
/// wall-clock figures depend on it — a report that carries them records it.
///
/// ```
/// assert!(["sha-ni", "portable"].contains(&fabricsim_crypto::sha256_backend()));
/// ```
pub fn sha256_backend() -> &'static str {
    if has_sha_ni() {
        "sha-ni"
    } else {
        "portable"
    }
}

/// Absorbs every whole 64-byte block of `data` into `state` and returns the
/// tail (`data.len() % 64` bytes): the one entry `update`, `finalize` and
/// `midstate` compress through, and the one place a body is chosen.
fn absorb<'a>(state: &mut [u32; 8], mut data: &'a [u8]) -> &'a [u8] {
    #[cfg(target_arch = "x86_64")]
    if has_sha_ni() {
        // SAFETY: `compress_blocks` is a safe function; calling it is unsafe
        // only because it is compiled with `sha`, `sse2`, `ssse3` and
        // `sse4.1` enabled, so the CPU must have them. `has_sha_ni()` on the
        // line above has just observed the first, third and fourth on this
        // CPU, and SSE2 is part of the x86-64 baseline this branch is
        // compiled for.
        #[expect(
            unsafe_code,
            reason = "the workspace's one unsafe block: the feature-checked call into the safe \
                      SHA-NI body"
        )]
        return unsafe { compress_blocks(state, data) };
    }
    while let Some((block, rest)) = data.split_first_chunk::<64>() {
        compress_portable(state, block);
        data = rest;
    }
    data
}

/// One block through [`absorb`].
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    absorb(state, block);
}

/// The compression function on the x86-64 SHA extensions, over every whole
/// block of `data` in one call; returns the tail. `sha256rnds2` does two
/// rounds on the state held as two vectors, `(a, b, e, f)` and `(c, d, g, h)`
/// from the high lane down, which stay in registers from block to block;
/// `sha256msg1`/`sha256msg2` produce four schedule words from the previous
/// sixteen.
///
/// Written with value intrinsics only — vectors are built from and taken
/// apart into integers, never read or written through a pointer — so nothing
/// in the body is an unsafe operation and the function is safe. What remains
/// is the `#[target_feature]` requirement, discharged once, in [`absorb`].
/// Tested against [`compress_portable`] on seeded (state, block) pairs and on
/// every message length.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_blocks<'a>(state: &mut [u32; 8], mut data: &'a [u8]) -> &'a [u8] {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8,
    };

    let [a, b, c, d, e, f, g, h] = state.map(|word| word as i32);
    let mut abef = _mm_set_epi32(a, b, e, f);
    let mut cdgh = _mm_set_epi32(c, d, g, h);
    // Reverses the bytes of each 32-bit lane: message words are big-endian.
    let big_endian = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

    // `W[t..t+4]` from the sixteen words before it, oldest four first: `msg1`
    // adds σ0 of each word's successor, the unaligned middle supplies
    // `W[t-7..]`, `msg2` adds σ1 of `W[t-2..]`, two of which it has just made.
    let schedule = |w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i| {
        let w7 = _mm_alignr_epi8::<4>(w3, w2);
        _mm_sha256msg2_epu32(_mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), w7), w3)
    };
    // Rounds 4g..4g+4 on `$w` = W[4g..4g+4]: the low two lanes of `W + K`
    // drive the first pair of rounds, the high two the second.
    macro_rules! rounds4 {
        ($g:literal, $w:ident) => {
            let k = &K[4 * $g..4 * $g + 4];
            let wk = _mm_add_epi32(
                $w,
                _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32),
            );
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
        };
    }
    // The same after replacing the oldest four words, `$w0`, by the next.
    macro_rules! scheduled_rounds4 {
        ($g:literal, $w0:ident, $w1:ident, $w2:ident, $w3:ident) => {
            $w0 = schedule($w0, $w1, $w2, $w3);
            rounds4!($g, $w0);
        };
    }

    while let Some((block, rest)) = data.split_first_chunk::<64>() {
        data = rest;
        let (halves, _) = block.as_chunks::<8>();
        let load = |i: usize| {
            let low = i64::from_le_bytes(halves[2 * i]);
            let high = i64::from_le_bytes(halves[2 * i + 1]);
            _mm_shuffle_epi8(_mm_set_epi64x(high, low), big_endian)
        };
        let (abef_in, cdgh_in) = (abef, cdgh);

        let (mut w0, mut w1, mut w2, mut w3) = (load(0), load(1), load(2), load(3));
        rounds4!(0, w0);
        rounds4!(1, w1);
        rounds4!(2, w2);
        rounds4!(3, w3);
        scheduled_rounds4!(4, w0, w1, w2, w3);
        scheduled_rounds4!(5, w1, w2, w3, w0);
        scheduled_rounds4!(6, w2, w3, w0, w1);
        scheduled_rounds4!(7, w3, w0, w1, w2);
        scheduled_rounds4!(8, w0, w1, w2, w3);
        scheduled_rounds4!(9, w1, w2, w3, w0);
        scheduled_rounds4!(10, w2, w3, w0, w1);
        scheduled_rounds4!(11, w3, w0, w1, w2);
        scheduled_rounds4!(12, w0, w1, w2, w3);
        scheduled_rounds4!(13, w1, w2, w3, w0);
        scheduled_rounds4!(14, w2, w3, w0, w1);
        scheduled_rounds4!(15, w3, w0, w1, w2);

        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    *state = [
        _mm_extract_epi32::<3>(abef) as u32,
        _mm_extract_epi32::<2>(abef) as u32,
        _mm_extract_epi32::<3>(cdgh) as u32,
        _mm_extract_epi32::<2>(cdgh) as u32,
        _mm_extract_epi32::<1>(abef) as u32,
        _mm_extract_epi32::<0>(abef) as u32,
        _mm_extract_epi32::<1>(cdgh) as u32,
        _mm_extract_epi32::<0>(cdgh) as u32,
    ];
    data
}

/// Convenience one-shot SHA-256.
///
/// ```
/// use fabricsim_crypto::sha256;
/// assert_eq!(
///     sha256(b"").to_hex(),
///     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
/// );
/// ```
pub fn sha256(data: &[u8]) -> Hash256 {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testrng::splitmix;

    /// The compression function as FIPS 180-4 §6.2.2 writes it — a 64-word
    /// schedule, then 64 rounds moving all eight working variables: the
    /// reference [`compress_portable`] is compared against.
    pub(super) fn compress_reference(state: &mut [u32; 8], block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for i in 0..16 {
            w[i] = u32::from_be_bytes([
                block[i * 4],
                block[i * 4 + 1],
                block[i * 4 + 2],
                block[i * 4 + 3],
            ]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
        state[5] = state[5].wrapping_add(f);
        state[6] = state[6].wrapping_add(g);
        state[7] = state[7].wrapping_add(h);
    }

    type CompressFn = fn(&mut [u32; 8], &[u8; 64]);

    /// SHA-256 with the padding written out over a named compression
    /// function: shares nothing with [`Sha256`] or [`absorb`] but the
    /// constants, so it runs the body it is given on every host.
    fn sha256_by(compress: CompressFn, data: &[u8]) -> Hash256 {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for block in padded.chunks_exact(64) {
            compress(&mut state, block.try_into().unwrap());
        }
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        Hash256::from_bytes(out)
    }

    fn seeded_bytes(rng: &mut u64, len: usize) -> Vec<u8> {
        (0..len).map(|_| splitmix(rng) as u8).collect()
    }

    #[test]
    fn unrolled_compress_matches_the_reference_on_every_length_and_on_seeded_input() {
        let mut rng = 0x005A_A256_u64;
        let data = seeded_bytes(&mut rng, 200);
        for len in 0..=200 {
            assert_eq!(
                sha256_by(compress_portable, &data[..len]),
                sha256_by(compress_reference, &data[..len]),
                "len {len}"
            );
        }
        for case in 0..10_000 {
            // Any chaining value and any block, not only ones a message reaches.
            let mut state = [0u32; 8];
            state.fill_with(|| splitmix(&mut rng) as u32);
            let mut block = [0u8; 64];
            block.fill_with(|| splitmix(&mut rng) as u8);
            let mut want = state;
            compress_reference(&mut want, &block);
            compress_portable(&mut state, &block);
            assert_eq!(state, want, "case {case}");
            let len = (splitmix(&mut rng) % 300) as usize;
            let msg = seeded_bytes(&mut rng, len);
            assert_eq!(
                sha256_by(compress_portable, &msg),
                sha256_by(compress_reference, &msg),
                "case {case}"
            );
        }
    }

    #[test]
    fn backend_name_is_what_the_cpu_reports() {
        #[cfg(target_arch = "x86_64")]
        let sha_ni = std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1");
        #[cfg(not(target_arch = "x86_64"))]
        let sha_ni = false;
        assert_eq!(sha256_backend(), if sha_ni { "sha-ni" } else { "portable" });
    }

    #[test]
    fn accelerated_compress_matches_portable_on_seeded_states_and_blocks() {
        if !has_sha_ni() {
            // `absorb` is the portable loop here: nothing to compare it with.
            println!("skipped: no sha extension");
            assert_eq!(sha256_backend(), "portable");
            return;
        }
        let mut rng = 0x5A_A256_0019_u64;
        for case in 0..10_000 {
            let mut state = [0u32; 8];
            state.fill_with(|| splitmix(&mut rng) as u32);
            let mut block = [0u8; 64];
            block.fill_with(|| splitmix(&mut rng) as u8);
            let mut want = state;
            compress_portable(&mut want, &block);
            assert!(absorb(&mut state, &block).is_empty());
            assert_eq!(state, want, "case {case}");
        }
    }

    /// Runs on every host: where [`absorb`] is the portable loop it still
    /// owes the same tail and the same digests.
    #[test]
    fn absorb_takes_every_whole_block_and_returns_the_tail_at_every_length_and_split() {
        let mut rng = 0x5A_A256_0300_u64;
        let data = seeded_bytes(&mut rng, 300);
        for len in 0..=300 {
            let msg = &data[..len];
            let mut state = H0;
            let mut want = H0;
            let tail = absorb(&mut state, msg);
            for block in msg.chunks_exact(64) {
                compress_portable(&mut want, block.try_into().unwrap());
            }
            assert_eq!(tail, &msg[len - len % 64..], "len {len}");
            assert_eq!(state, want, "len {len}");

            let digest = sha256_by(compress_portable, msg);
            assert_eq!(sha256(msg), digest, "len {len} whole");
            for step in [1, 55, 56, 63, 64, 65, 127, 128, 129] {
                let mut h = Sha256::new();
                for piece in msg.chunks(step) {
                    h.update(piece);
                }
                assert_eq!(h.finalize(), digest, "len {len} in updates of {step}");
            }
        }
    }

    #[test]
    fn dispatched_path_and_portable_body_agree_on_the_vectors_a_midstate_and_a_mebibyte() {
        for (input, want) in FIPS_VECTORS {
            assert_eq!(sha256_by(compress_portable, input).to_hex(), want);
            assert_eq!(sha256(input).to_hex(), want);
        }
        // RFC 4231 case 2, with RFC 2104 written out over the portable body.
        let (key, msg) = (b"Jefe", b"what do ya want for nothing?");
        let pad = |byte: u8| {
            let mut block = [byte; 64];
            block.iter_mut().zip(key).for_each(|(b, k)| *b ^= k);
            block.to_vec()
        };
        let inner = sha256_by(compress_portable, &[pad(0x36), msg.to_vec()].concat());
        let tag = sha256_by(
            compress_portable,
            &[pad(0x5c), inner.as_bytes().to_vec()].concat(),
        );
        assert_eq!(
            tag.to_hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
        assert_eq!(crate::hmac::hmac_sha256(key, msg), tag);
        let mut rng = 0x5A_A256_0400_u64;
        let block: [u8; 64] = seeded_bytes(&mut rng, 64).try_into().unwrap();
        let mut midstate = H0;
        compress_portable(&mut midstate, &block);
        assert_eq!(Sha256::midstate(&block), midstate);
        let mut resumed = Sha256::resume(midstate);
        resumed.update(b"tail");
        let whole = [&block[..], b"tail"].concat();
        assert_eq!(resumed.finalize(), sha256_by(compress_portable, &whole));

        let mebibyte = seeded_bytes(&mut rng, 1 << 20);
        let want = sha256_by(compress_portable, &mebibyte);
        assert_eq!(sha256(&mebibyte), want);
        let mut h = Sha256::new();
        for piece in mebibyte.chunks(4093) {
            h.update(piece);
        }
        assert_eq!(h.finalize(), want);
    }

    #[test]
    fn resuming_from_a_midstate_equals_hashing_the_block_again() {
        let block = [0x36u8; 64];
        for tail in [
            &b""[..],
            b"x",
            &[7u8; 55],
            &[7u8; 56],
            &[7u8; 64],
            &[7u8; 200],
        ] {
            let mut resumed = Sha256::resume(Sha256::midstate(&block));
            resumed.update(tail);
            let mut whole = Sha256::new();
            whole.update(&block);
            whole.update(tail);
            assert_eq!(resumed.finalize(), whole.finalize(), "tail {}", tail.len());
        }
    }

    // FIPS 180-4 / NIST CAVP vectors.
    const FIPS_VECTORS: [(&[u8], &str); 4] = [
        (
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        (
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        ),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
        (
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        ),
    ];

    #[test]
    fn fips_vectors() {
        for (input, want) in FIPS_VECTORS {
            assert_eq!(sha256(input).to_hex(), want);
        }
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            h.finalize().to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for split in [0, 1, 31, 63, 64, 65, 127, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split at {split}");
        }
    }

    #[test]
    fn padding_boundaries() {
        // Lengths straddling the 55/56/63/64-byte padding edge cases.
        for len in 50..70 {
            let data = vec![0xABu8; len];
            let one = sha256(&data);
            let mut inc = Sha256::new();
            for b in &data {
                inc.update(std::slice::from_ref(b));
            }
            assert_eq!(inc.finalize(), one, "len {len}");
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        // (Sanity, not a security proof.)
        let a = sha256(b"transaction-1");
        let b = sha256(b"transaction-2");
        assert_ne!(a, b);
    }
}
