//! # ats-omp
//!
//! A virtual-time OpenMP-style substrate: fork/join thread teams,
//! worksharing loops with static/dynamic/guided schedules, barriers,
//! `single`/`master`/`sections`, and named critical sections.
//!
//! The ATS paper's OpenMP property functions (`imbalance_in_omp_pregion`,
//! `imbalance_at_omp_barrier`, `imbalance_in_omp_loop`, ...) need an OpenMP
//! runtime; none exists for Rust (repro note: "no OpenMP; rayon
//! approximation only"), and rayon's work-stealing would *erase* exactly
//! the load imbalances the suite must produce. This substrate therefore
//! implements OpenMP's execution model directly, on the same virtual-time
//! discipline as the MPI substrate:
//!
//! * [`parallel`] forks team members as scheduler tasks at
//!   `clock + fork_overhead` and joins them at
//!   `max(end clocks) + join_overhead`;
//! * barriers release everyone at the last arriver (plus a log-tree cost);
//! * dynamic/guided loops dispense chunks by greedy list scheduling over
//!   *virtual* time, so schedules are host-independent;
//! * critical sections and locks grant contenders in virtual-time order
//!   of arrival.
//!
//! Team members run on the same scheduler as the MPI ranks
//! (`ats_runtime::sched`), so an OpenMP program replays exactly: nothing
//! depends on host thread order, and a stuck barrier is reported as a
//! deadlock at once.
//!
//! Every team forks from an [`OmpThread`]. As in OpenMP, code outside any
//! parallel region runs on the initial thread, thread 0 of an implicit
//! team of one: [`run_omp`] runs a standalone program on one at location
//! `(0, 0)`, and `ats-core`'s `with_omp` gives an MPI rank one
//! ([`OmpThread::initial`] on a [`TeamShared::implicit`] team) that
//! borrows the rank's event stream and clock. A team member forks nested
//! teams the same way.
//!
//! ```
//! use ats_omp::{run_omp, parallel, OmpConfig, Schedule};
//! use ats_runtime::VDur;
//!
//! let trace = run_omp(OmpConfig::default(), |m| {
//!     parallel(m, 4, |th| {
//!         th.do_work(VDur::from_millis(th.thread_num() as u64 + 1));
//!         th.barrier();
//!     });
//! });
//! assert_eq!(trace.num_locations(), 4);
//! ```

pub mod master;
pub mod team;
pub mod thread;

pub use master::{run_omp, OmpConfig};
pub use team::{TeamShared, VirtualMutex};
pub use thread::{parallel, OmpThread, Schedule};
