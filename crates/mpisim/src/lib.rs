//! # ats-mpi
//!
//! A virtual-time MPI substrate: the message-passing layer on which the
//! ATS performance-property functions run.
//!
//! The paper's framework assumes a working MPI; this reproduction cannot
//! (repro note: no system MPI, thin bindings only), so the substrate is
//! built from scratch with the semantics that *define* the MPI performance
//! properties:
//!
//! * N ranks = N tasks of one virtual-time scheduler, each with a virtual
//!   clock ([`ats_runtime`]), carried as coroutines (10k+ ranks in one
//!   process) or, on targets without the coroutine context switch, as OS
//!   threads passing a baton ([`SimBackend`]);
//! * blocking/nonblocking point-to-point (`send`/`ssend`/`recv`,
//!   `isend`/`irecv` with `wait`/`waitany`/`waitall`, `sendrecv`) with
//!   per-(communicator, source, tag) matching, non-overtaking order,
//!   wildcards matched in virtual-time order, and an eager / rendezvous
//!   protocol switch (→ *Late Sender*, *Late Receiver*);
//! * communicators with `split`/`dup` and Cartesian topologies (→ the
//!   paper's Figure 3.4 two-communicator experiment);
//! * tree-modelled collectives — barrier, bcast, scatter\[v\],
//!   gather\[v\], reduce, allreduce, alltoall, scan (→ *Wait at Barrier*,
//!   *Late Broadcast*, *Early Reduce*, *Wait at N×N*, ...);
//! * every operation records EPILOG-style events into [`ats_trace`].
//!
//! Entry points: [`run`] / [`run_collect`] with a [`SimConfig`].
//!
//! ```
//! use ats_mpi::{run, SimConfig};
//! use ats_runtime::VDur;
//!
//! let trace = run(SimConfig::with_procs(2), |p| {
//!     let world = p.comm_world();
//!     if p.rank() == 0 {
//!         p.do_work(VDur::from_millis(5));
//!         p.send(b"hi", 1, 0, &world);
//!     } else {
//!         let (msg, _status) = p.recv(0, 0, &world);
//!         assert_eq!(msg, b"hi");
//!     }
//! });
//! assert_eq!(trace.num_locations(), 2);
//! ```

pub mod collective;
pub mod comm;
pub mod config;
pub mod datatype;
pub mod mailbox;
pub mod proc;
pub mod request;
pub mod topology;
pub mod world;

pub use ats_runtime::SimBackend;
pub use comm::Comm;
pub use config::SimConfig;
pub use datatype::{Datatype, ReduceOp};
pub use proc::Proc;
pub use request::{Request, Status};
pub use topology::{dims_create, CartComm};
pub use world::{run, run_collect};
