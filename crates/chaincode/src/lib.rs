//! # fabricsim-chaincode — the chaincode engine
//!
//! Chaincode implements the business logic agreed on by the network's
//! participants (paper §II). During the *execute* phase an endorsing peer runs
//! the chaincode against its committed world state **without mutating it**; the
//! run produces a read/write set via the [`ChaincodeStub`], which later drives
//! the order and validate phases.
//!
//! * [`Chaincode`] — the trait user chaincodes implement (`init` / `invoke`).
//! * [`ChaincodeStub`] — the transaction simulator handed to chaincode: reads
//!   hit committed state (recording MVCC versions), writes are buffered, and
//!   read-your-writes is honored exactly as in Fabric's `TxSimulator`.
//! * [`ChaincodeRegistry`] — per-peer installed chaincodes.
//! * [`samples`] — the workloads used by the paper's experiments and this
//!   repo's examples: a 1-byte KV writer (with read-modify-write), a
//!   conflict-prone asset transfer, Smallbank, and a non-deterministic
//!   wrapper for fault injection.
//!
//! ```
//! use fabricsim_chaincode::{samples::KvWrite, Chaincode, ChaincodeStub};
//! use fabricsim_ledger::StateDb;
//!
//! let state = StateDb::new();
//! let mut stub = ChaincodeStub::new(&state);
//! let cc = KvWrite;
//! cc.invoke(&mut stub, &[b"put".to_vec(), b"k".to_vec(), b"v".to_vec()])?;
//! let rw = stub.into_rw_set();
//! assert_eq!(rw.writes.len(), 1);
//! # Ok::<(), fabricsim_chaincode::ChaincodeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
pub mod samples;
mod stub;

pub use engine::{Chaincode, ChaincodeError, ChaincodeRegistry};
pub use stub::ChaincodeStub;
