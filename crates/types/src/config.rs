//! Ordering-service configuration (Fabric's `configtx` analogue).

use std::fmt;

/// Which consensus implementation backs the ordering service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OrdererType {
    /// Single-node ordering (development/testing; single point of failure).
    Solo,
    /// Kafka-backed ordering: brokers + a ZooKeeper ensemble.
    Kafka,
    /// Raft-backed ordering (etcd/raft in real Fabric).
    Raft,
}

impl OrdererType {
    /// All three variants, in the paper's presentation order.
    pub const ALL: [OrdererType; 3] = [OrdererType::Solo, OrdererType::Kafka, OrdererType::Raft];
}

impl fmt::Display for OrdererType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OrdererType::Solo => "Solo",
            OrdererType::Kafka => "Kafka",
            OrdererType::Raft => "Raft",
        })
    }
}

/// Block-cutting parameters: the two conditions under which the ordering
/// service cuts a new block (paper §III).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Maximum transactions per block (paper default: 100).
    pub max_message_count: usize,
    /// Maximum time to wait before cutting a non-empty block, in milliseconds
    /// (paper default: 1000 ms).
    pub batch_timeout_ms: u64,
    /// Maximum total payload bytes per block (Fabric's `AbsoluteMaxBytes`).
    pub max_bytes: u64,
}

impl Default for BatchConfig {
    fn default() -> Self {
        // The paper's defaults: BatchSize 100, BatchTimeout 1 s.
        BatchConfig {
            max_message_count: 100,
            batch_timeout_ms: 1_000,
            max_bytes: 10 * 1024 * 1024,
        }
    }
}

impl BatchConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_message_count == 0 {
            return Err("max_message_count must be at least 1".into());
        }
        if self.batch_timeout_ms == 0 {
            return Err("batch_timeout_ms must be positive".into());
        }
        if self.max_bytes == 0 {
            return Err("max_bytes must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let b = BatchConfig::default();
        assert_eq!(b.max_message_count, 100);
        assert_eq!(b.batch_timeout_ms, 1_000);
        assert!(b.validate().is_ok());
    }

    #[test]
    fn validate_rejects_zeroes() {
        let b = BatchConfig {
            max_message_count: 0,
            ..BatchConfig::default()
        };
        assert!(b.validate().is_err());
        let b = BatchConfig {
            batch_timeout_ms: 0,
            ..BatchConfig::default()
        };
        assert!(b.validate().is_err());
        let b = BatchConfig {
            max_bytes: 0,
            ..BatchConfig::default()
        };
        assert!(b.validate().is_err());
    }

    #[test]
    fn orderer_type_display() {
        assert_eq!(OrdererType::Solo.to_string(), "Solo");
        assert_eq!(OrdererType::Kafka.to_string(), "Kafka");
        assert_eq!(OrdererType::Raft.to_string(), "Raft");
        assert_eq!(OrdererType::ALL.len(), 3);
    }
}
