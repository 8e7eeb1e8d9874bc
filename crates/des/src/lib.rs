//! # fabricsim-des — deterministic discrete-event simulation kernel
//!
//! A small, dependency-free discrete-event simulation (DES) kernel used as the
//! substrate for the `fabricsim` Hyperledger Fabric performance model.
//!
//! Design goals:
//!
//! * **Determinism.** Events fire in `(time, insertion sequence)` order; all
//!   randomness flows through named, seeded [`RngStream`]s. The same seed always
//!   produces bit-identical simulations.
//! * **No global state.** The kernel is generic over a user-supplied world type
//!   `W`; event handlers receive `&mut W` plus a scheduling handle.
//! * **Analytic service stations.** Common queueing structures (FIFO multi-server
//!   stations, network links) are modelled with closed-form completion-time
//!   bookkeeping ([`Station`], [`Link`]) instead of per-customer token events,
//!   which keeps large sweeps fast while remaining exact for FIFO disciplines.
//! * **Self-profiling.** [`Kernel::enable_profiler`] attributes *host*
//!   nanoseconds of the event loop to per-event-family labels
//!   ([`Kernel::schedule_labeled`]), heap operations and loop overhead
//!   ([`KernelProfile`]) — write-only with respect to the simulation, so a
//!   profiled run is byte-identical to an unprofiled one.
//!
//! ## Example
//!
//! ```
//! use fabricsim_des::{Kernel, SimTime, SimDuration};
//!
//! struct World { fired: Vec<u64> }
//! let mut kernel = Kernel::new();
//! let mut world = World { fired: Vec::new() };
//! kernel.schedule(SimTime::ZERO + SimDuration::from_millis(5), |w: &mut World, k| {
//!     w.fired.push(k.now().as_nanos());
//! });
//! kernel.run(&mut world);
//! assert_eq!(world.fired, vec![5_000_000]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod kernel;
mod link;
mod profiler;
pub mod rng;
mod sharded;
mod station;
mod time;

pub use kernel::{EventId, Kernel, KernelStats};
pub use link::Link;
pub use profiler::{KernelProfile, LabelProfile};
pub use rng::RngStream;
pub use sharded::{ShardWorld, ShardedKernel, ShardedRunReport};
pub use station::Station;
pub use time::{SimDuration, SimTime};
