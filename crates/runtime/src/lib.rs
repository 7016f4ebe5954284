//! # ats-runtime
//!
//! The execution substrate shared by all ATS-RS simulators.
//!
//! The APART Test Suite (ATS) paper constructs synthetic parallel programs
//! whose *timing structure* is the payload: a `late_sender` program is only a
//! valid test case if the even ranks really do post their sends late by the
//! programmed amount. The original C prototype obtained this behaviour with a
//! calibrated busy loop on a real machine; the calibration is explicitly
//! described as approximate ("up to a certain degree ... not guaranteed to be
//! stable especially under heavy work load", paper §3.1.1).
//!
//! This crate provides the two ingredients that let ATS-RS strengthen that
//! guarantee while keeping the paper's approach available:
//!
//! * **Virtual time** ([`VTime`], [`VDur`]): every simulated participant
//!   (MPI rank, OpenMP thread) carries a virtual clock measured in integer
//!   nanoseconds. Work advances the clock exactly; communication advances it
//!   according to a [`MachineModel`] (a LogGP-style cost model). All
//!   timestamps are pure functions of the program and its parameters, so
//!   every experiment is bit-reproducible.
//! * **Calibrated real work** ([`work::WorkEngine`] in `Real` mode): a
//!   faithful port of the paper's `do_work` busy loop — random reads and
//!   writes over two large arrays, driven by a lock-free splittable RNG
//!   ([`rng::SplitMix64`]), at a rate measured once per process
//!   ([`work::iters_per_sec`]), as the paper calibrates once at
//!   installation.
//!
//! Higher layers (the MPI and OpenMP substrates) consume both: virtual mode
//! for correctness experiments and unit tests, real mode for wall-clock
//! benchmarking of the suite itself.
//!
//! A third ingredient, the **task scheduler** ([`sched`]), is the only
//! thing that orders simulated participants: every MPI rank and OpenMP
//! team member is a task, resumed in `(virtual clock, sequence)` order, and
//! every collective meets in one rendezvous ([`exchange::ExchangeSlot`]).
//! Nothing waits on a wall clock, so deadlocks are detected structurally
//! and traces are byte-identical on either carrier ([`SimBackend`]): cheap
//! coroutines that let one process host 10k+ ranks, or, on targets
//! without the coroutine context switch, one OS thread per task passing a
//! baton.

pub mod exchange;
pub mod json;
pub mod model;
pub mod rng;
pub mod sched;
pub mod time;
pub mod work;

pub use json::Json;
pub use model::MachineModel;
pub use rng::SplitMix64;
pub use sched::{SchedStats, SimBackend};
pub use time::{VDur, VTime};
pub use work::{WorkEngine, WorkMode};

use std::sync::{LockResult, PoisonError};

/// The guard (or value) from a `std::sync` lock result, whether or not an
/// earlier holder panicked. A panic in one simulated participant makes
/// the scheduler cancel the others by unwinding them from their block
/// points (see [`sched`]), which can pass through guards they hold; those
/// tasks were suspended between updates, and the original panic is
/// re-raised once they are gone. Poisoning therefore carries no
/// information here, and no lock in the suite treats it as an error.
pub fn unpoison<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}
