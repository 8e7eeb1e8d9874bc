//! The benchmark's own input generator. Inputs depend on `--seed` and nothing
//! else — in particular not on `fabricsim_des::rng`, so a change to the
//! program's generator cannot change what the program is asked to do. The
//! program receives only the generated operations.

use std::collections::BTreeSet;

use fabricsim_crypto::sha256;

/// SplitMix64: small, seedable and stable.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (the modulo bias is below 2⁻⁵⁰ for the small
    /// bounds used here).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}

/// The transaction mix of a pipe workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Blind `put` of `value_bytes` to a key no other transaction touches.
    KvPut { value_bytes: usize },
    /// `rmw` of `value_bytes` over `keyspace` hot keys.
    Rmw { keyspace: u64, value_bytes: usize },
}

/// One `kvwrite` invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    pub func: &'static str,
    pub key: String,
    pub value: Vec<u8>,
}

impl Op {
    pub fn args(&self) -> Vec<Vec<u8>> {
        vec![
            self.func.as_bytes().to_vec(),
            self.key.clone().into_bytes(),
            self.value.clone(),
        ]
    }
}

pub fn hot_key(i: u64) -> String {
    format!("hot{i:04}")
}

pub fn generate(seed: u64, mix: Mix, count: usize) -> Vec<Op> {
    let mut rng = SplitMix::new(seed);
    (0..count)
        .map(|i| match mix {
            Mix::KvPut { value_bytes } => Op {
                func: "put",
                // The index keeps keys unique whatever the random part is.
                key: format!("k{i:06}-{:08x}", rng.next_u64() as u32),
                value: rng.bytes(value_bytes),
            },
            Mix::Rmw {
                keyspace,
                value_bytes,
            } => Op {
                func: "rmw",
                key: hot_key(rng.below(keyspace)),
                value: rng.bytes(value_bytes),
            },
        })
        .collect()
}

/// SHA-256 over every operation, hex: equal inputs, equal digest.
pub fn digest(ops: &[Op]) -> String {
    let mut bytes = Vec::new();
    for op in ops {
        for part in [op.func.as_bytes(), op.key.as_bytes(), &op.value] {
            bytes.extend_from_slice(&(part.len() as u64).to_le_bytes());
            bytes.extend_from_slice(part);
        }
    }
    sha256(&bytes).to_hex()
}

/// The expected MVCC verdict of each transaction of one block of
/// read-modify-writes endorsed against the state before the block: the first
/// toucher of a key wins, every later one read a version the winner replaced.
/// Computed from the operations alone, independently of the ledger.
pub fn rmw_oracle(block: &[Op]) -> Vec<bool> {
    let mut touched = BTreeSet::new();
    block
        .iter()
        .map(|op| touched.insert(op.key.as_str()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const RMW: Mix = Mix::Rmw {
        keyspace: 200,
        value_bytes: 1024,
    };

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for mix in [Mix::KvPut { value_bytes: 1 }, RMW] {
            let a = generate(42, mix, 500);
            assert_eq!(digest(&a), digest(&generate(42, mix, 500)));
            assert_ne!(digest(&a), digest(&generate(43, mix, 500)));
        }
    }

    #[test]
    fn kvput_keys_are_unique_and_values_sized() {
        let ops = generate(7, Mix::KvPut { value_bytes: 1 }, 4000);
        let keys: BTreeSet<&str> = ops.iter().map(|o| o.key.as_str()).collect();
        assert_eq!(keys.len(), ops.len());
        assert!(ops.iter().all(|o| o.func == "put" && o.value.len() == 1));
    }

    #[test]
    fn rmw_draws_from_the_keyspace_with_full_size_values() {
        let ops = generate(7, RMW, 4000);
        let keys: BTreeSet<&str> = ops.iter().map(|o| o.key.as_str()).collect();
        assert!(keys.len() <= 200 && keys.len() > 150);
        assert!(ops.iter().all(|o| o.func == "rmw" && o.value.len() == 1024));
    }

    #[test]
    fn oracle_lets_the_first_toucher_win_on_a_hand_built_block() {
        let op = |key: &str| Op {
            func: "rmw",
            key: key.to_string(),
            value: vec![0],
        };
        let block = [op("a"), op("b"), op("a"), op("c"), op("b"), op("a")];
        assert_eq!(
            rmw_oracle(&block),
            vec![true, true, false, true, false, false]
        );
        assert!(rmw_oracle(&[]).is_empty());
    }
}
