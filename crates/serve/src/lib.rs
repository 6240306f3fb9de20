//! # glsc-serve — crash-durable simulation service
//!
//! A supervised job daemon over the simulator: every job state
//! transition is write-ahead journaled, finished reports land in a
//! result store, and a `kill -9` at *any* point — mid-journal-append,
//! mid-run — costs at most the runs that were in flight. Restarting the
//! service serves every journaled-done job from the store and reruns
//! the rest from their specs; simulations are deterministic, so the
//! output is byte-identical to a run that was never interrupted. The
//! kill-drill oracle in `tests/` proves this for every kernel × Fig. 6
//! shape, chaos counters included.
//!
//! Every job enters through one front door, a protocol session
//! ([`session::run_session`]): a `serve` client's frames over stdin or a
//! socket, or the `sweep` command's frames written into an in-memory
//! buffer. Both print their tables with [`proto::print_table`].
//!
//! Layers (DESIGN.md §14, §15):
//!
//! * [`session`] — admission: validates and journals each submitted
//!   `WireJobSpec`, replays pending submissions at boot, and hands the
//!   queue to the run loop on `Run`.
//! * [`journal`] — append-only WAL with per-record checksums; a torn
//!   tail decodes as "the append never happened".
//! * [`service`] — the run loop: answers what the journal settled, then
//!   lowers and runs one job at a time on a fresh machine, in slices, in
//!   submission order, and streams one result frame per job once it is
//!   durable; one attempt per job, wall/cycle deadlines per job, a
//!   journaled `QUAR` row on the first failure, SIGTERM drain.
//! * [`queue`] — bounded, priority-aware admission in front of the run
//!   loop; overload becomes typed `SHED` decisions, not memory growth.
//! * [`proto`] — the framed request/reply protocol `serve` speaks over
//!   stdin or a Unix socket; hostile frames map to typed errors.
//! * [`kill`] — deterministic crash injection (`GLSC_SERVE_KILL`) for the
//!   drill harness.
//! * [`signal`] — the SIGTERM flag the drain path polls.

#![warn(missing_docs)]

pub mod journal;
pub mod kill;
pub mod proto;
pub mod queue;
pub mod service;
pub mod session;
pub mod signal;

pub use service::ServiceConfig;
