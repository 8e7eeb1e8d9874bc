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
//! * **No global state, no boxed handlers.** The kernel is generic over a
//!   user-supplied world `W: Model`, which names its own event type and fires
//!   each event with `&mut W` plus a scheduling handle. Events live in a slab
//!   behind a monotone radix queue of keys, so scheduling one allocates
//!   nothing once the slab has grown to the run's peak of pending events.
//! * **One timer discipline, one loop.** Nothing is cancelled: every
//!   scheduled event fires, and a timer that may have gone stale checks in
//!   its own handler whether it still applies. [`Kernel::run_until`] is the
//!   only event loop; [`ShardedKernel`] runs it once per window and owns the
//!   run's horizon.
//! * **Analytic service stations.** Common queueing structures (FIFO multi-server
//!   stations, network links) are modelled with closed-form completion-time
//!   bookkeeping ([`Station`], [`Link`]) instead of per-customer token events,
//!   which keeps large sweeps fast while remaining exact for FIFO disciplines.
//! * **Self-profiling.** [`Kernel::enable_profiler`] attributes *host*
//!   nanoseconds of the event loop to per-event-family labels
//!   ([`Model::label`]), heap operations and loop overhead
//!   ([`KernelProfile`]) — write-only with respect to the simulation, so a
//!   profiled run is byte-identical to an unprofiled one.
//!
//! ## Example
//!
//! ```
//! use fabricsim_des::{Kernel, Model, SimDuration, SimTime};
//!
//! struct World { fired: Vec<u64> }
//! struct Fire;
//! impl Model for World {
//!     type Event = Fire;
//!     fn fire(&mut self, _: Fire, k: &mut Kernel<Self>) {
//!         self.fired.push(k.now().as_nanos());
//!     }
//!     fn label(_: &Fire) -> &'static str {
//!         "fire"
//!     }
//! }
//! let mut kernel = Kernel::new();
//! let mut world = World { fired: Vec::new() };
//! kernel.schedule(SimTime::ZERO + SimDuration::from_millis(5), Fire);
//! kernel.run_until(&mut world, SimTime::MAX);
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

pub use kernel::{Kernel, Model};
pub use link::Link;
pub use profiler::{KernelProfile, LabelProfile};
pub use rng::RngStream;
pub use sharded::{ShardWorld, ShardedKernel, ShardedRunReport};
pub use station::Station;
pub use time::{SimDuration, SimTime};
