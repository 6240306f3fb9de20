//! # glsc-core — the GLSC hardware model
//!
//! This crate implements the paper's contribution (*Atomic Vector
//! Operations on Chip Multiprocessors*, ISCA 2008, §3): the per-core memory
//! units that sit between the pipeline and the L1 cache.
//!
//! * [`Lsu`] — the load/store unit: a FIFO request queue with a per-thread
//!   write buffer, servicing scalar loads/stores, scalar `ll`/`sc`, and
//!   unit-stride vector loads/stores (one request per distinct line).
//! * [`Gsu`] — the gather/scatter unit (Fig. 1 and Fig. 4 of the paper):
//!   one instruction-buffer entry per SMT thread, one generated address per
//!   cycle, same-line request **combining**, and output-mask assembly. The
//!   GSU executes `vgather`/`vscatter` and the new **`vgatherlink`** /
//!   **`vscattercond`** instructions, sending load-linked and
//!   store-conditional requests to the L1 (§3.3) and resolving **element
//!   aliasing** so exactly one lane per address succeeds (§3.1).
//! * [`CoreMemUnit`] — glues the two together and arbitrates the single L1
//!   port, giving the LSU priority over the GSU (§4.1).
//!
//! Timing follows Table 1: the GSU generates at most one cache request per
//! cycle, requests to the same line are combined, and the minimum GSU
//! instruction latency is `4 + SIMD-width` cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod gsu;
mod lanes;
mod lsu;
mod unit;

pub use config::GlscConfig;
pub use gsu::{Gsu, GsuCompletion, GsuKind, GsuStats};
pub use lanes::LaneValues;
pub use lsu::{Lsu, LsuAction, LsuCompletion, LsuEntry, LsuStats};
pub use unit::{CoreMemUnit, MemCompletion};
