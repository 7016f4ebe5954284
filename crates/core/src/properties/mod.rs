//! Performance property functions (paper §3.1.5).
//!
//! Each function, when executed by all members of a communicator (or by a
//! thread team), produces one well-defined performance property with a
//! severity controlled by its parameters. The functions are deliberately
//! context-free: any process count, any communicator, any surrounding
//! traffic.
//!
//! Every property function wraps its body in a trace region named after
//! itself, so analyzers can localize the property in the call tree — that
//! localization is exactly what the paper's Figure 3.5 demonstrates with
//! EXPERT finding *Late Broadcast* inside `late_broadcast()`.
//!
//! The module split mirrors the paper's catalog:
//!
//! * [`mpi_p2p`] — MPI point-to-point properties (late sender/receiver);
//! * [`mpi_coll`] — MPI collective properties (imbalance at barrier /
//!   alltoall, late broadcast/scatter\[v\], early reduce/gather\[v\], plus the
//!   allreduce/scan extensions from the ASL catalog);
//! * [`omp`] — OpenMP properties (imbalance in parallel region / at
//!   barrier / in loop, plus sections, single/master serialization, and
//!   critical-section contention);
//! * [`hybrid`] — MPI × OpenMP composites;
//! * [`sequential`] — single-process pathologies;
//! * [`negative`] — well-tuned programs that must produce *no* findings.

pub mod hybrid;
pub mod mpi_coll;
pub mod mpi_p2p;
pub mod negative;
pub mod omp;
pub mod sequential;

use ats_mpi::Proc;
use ats_omp::Master;
use ats_trace::RegionKind;

/// Open a property frame on an MPI rank.
pub(crate) fn frame_mpi<R>(p: &mut Proc, name: &str, body: impl FnOnce(&mut Proc) -> R) -> R {
    p.enter_region(name, RegionKind::Property);
    let out = body(p);
    p.exit_region(name);
    out
}

/// Open a property frame on an OpenMP master.
pub(crate) fn frame_omp<M: Master + ?Sized, R>(
    m: &mut M,
    name: &str,
    body: impl FnOnce(&mut M) -> R,
) -> R {
    let id = m.collector().intern(name, RegionKind::Property);
    let t = m.clock();
    m.local_mut().enter(t, id);
    let out = body(m);
    let t = m.clock();
    m.local_mut().exit(t, id);
    out
}
