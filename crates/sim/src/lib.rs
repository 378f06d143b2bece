//! Deterministic virtual-time simulation substrate for the FluidMem
//! reproduction.
//!
//! Every latency-bearing component of the reproduction (the userfaultfd
//! mechanism, key-value stores, block devices, the swap subsystem, the
//! FluidMem monitor itself) charges its costs to a shared [`SimClock`]
//! rather than to wall-clock time. Combined with the seeded [`SimRng`],
//! this makes every experiment **bit-for-bit reproducible**: the same seed
//! always yields the same latency CDFs, the same TEPS figures, and the same
//! eviction decisions.
//!
//! The crate provides:
//!
//! * [`SimInstant`] / [`SimDuration`] — nanosecond-precision virtual time
//!   newtypes with ordinary arithmetic.
//! * [`SimClock`] — a cheaply-clonable shared clock handle.
//! * [`SimRng`] — a seedable, forkable random number generator.
//! * [`EventQueue`] — a deterministic discrete-event queue ordered by
//!   `(virtual_time, seq)`, the substrate for pipelined (multiple
//!   outstanding operations) experiments.
//! * [`FastMap`] / [`FastSet`] — `HashMap`/`HashSet` over a deterministic
//!   multiplicative hasher, for the integer-keyed per-page maps.
//! * [`LatencyModel`] — composable latency distributions (constant, uniform,
//!   normal, log-normal, spiked) used to calibrate component costs to the
//!   paper's Table I/II measurements.
//! * [`stats`] — streaming summaries, percentile samples, log-spaced latency
//!   histograms (for the paper's Figure 3 CDFs), and harmonic means (for the
//!   Graph500 TEPS metric of Figure 4).
//!
//! # Example
//!
//! ```
//! use fluidmem_sim::{SimClock, SimRng, SimDuration, LatencyModel};
//!
//! let clock = SimClock::new();
//! let mut rng = SimRng::seed_from_u64(42);
//! let network = LatencyModel::normal_us(10.0, 1.0);
//!
//! let start = clock.now();
//! clock.advance(network.sample(&mut rng));
//! let elapsed = clock.now() - start;
//! assert!(elapsed >= SimDuration::from_micros(5));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod dist;
mod event;
mod fault;
mod hash;
pub mod prop;
mod rng;
mod series;
pub mod stats;
mod time;

pub use clock::SimClock;
pub use dist::LatencyModel;
pub use event::{EventQueue, EventToken};
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultPlanStats};
pub use hash::{FastHasher, FastMap, FastSet};
pub use rng::SimRng;
pub use series::TimeSeries;
pub use time::{SimDuration, SimInstant};
